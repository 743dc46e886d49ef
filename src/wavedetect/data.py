"""Signal containers, CSV ingestion, anomaly-range labels, and fragment
generation with positive-sample augmentation.

File formats
------------
Signals CSV: header ``t,<ch1>,...,<chC>`` followed by one row per sample;
floats are written with ``repr`` so a write/read round trip is bit-exact.
Ranges CSV: one ``start,end`` pair per line, half-open sample indices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, IngestError

DEFAULT_SAMPLE_PERIOD = 7.0
DEFAULT_WINDOW = 512
DEFAULT_POS_STEP = 16


@dataclass
class MultiSeries:
    """A C-channel, length-T signal with channel names and sample period."""

    channel_names: list
    values: np.ndarray
    sample_period_seconds: float = DEFAULT_SAMPLE_PERIOD

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"values must be (C, T), got shape {self.values.shape}")
        if len(self.channel_names) != self.values.shape[0]:
            raise DataError(
                f"{len(self.channel_names)} channel names for {self.values.shape[0]} channels"
            )
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(f"non-finite value in channel {self.channel_names[bad[0]]!r}")
        if self.sample_period_seconds <= 0:
            raise ConfigError("sample period must be positive")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AnomalyRanges:
    """Sorted, non-overlapping half-open [start, end) intervals."""

    spans: tuple = ()

    def __post_init__(self):
        spans = tuple((int(s), int(e)) for s, e in self.spans)
        object.__setattr__(self, "spans", spans)
        prev_end = -1
        for s, e in spans:
            if s < 0 or e <= s:
                raise DataError(f"invalid range [{s}, {e})")
            if s < prev_end:
                raise DataError("ranges must be sorted and non-overlapping")
            prev_end = e

    def __iter__(self):
        return iter(self.spans)

    def __len__(self):
        return len(self.spans)

    def check_length(self, total: int):
        if self.spans and self.spans[-1][1] > total:
            raise DataError(f"range {self.spans[-1]} exceeds series length {total}")

    def overlap(self, start: int, end: int) -> int:
        """Number of samples of [start, end) covered by any range."""
        covered = 0
        for s, e in self.spans:
            covered += max(0, min(end, e) - max(start, s))
        return covered

    def complement(self, total: int) -> list:
        """The normal spans of [0, total) as half-open intervals."""
        self.check_length(total)
        spans, cursor = [], 0
        for s, e in self.spans:
            if s > cursor:
                spans.append((cursor, s))
            cursor = max(cursor, e)
        if cursor < total:
            spans.append((cursor, total))
        return spans


@dataclass
class Fragment:
    """A fixed-length labeled window cut from a series."""

    values: np.ndarray
    label: int
    origin_offset: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"fragment values must be (C, W), got {self.values.shape}")
        if self.label not in (0, 1):
            raise DataError(f"fragment label must be 0 or 1, got {self.label!r}")

    @property
    def length(self) -> int:
        return self.values.shape[1]


def _fmt(x: float) -> str:
    return repr(float(x))


def save_signals(path, series: MultiSeries):
    path = Path(path)
    lines = ["t," + ",".join(series.channel_names)]
    for t in range(series.length):
        lines.append(str(t) + "," + ",".join(_fmt(v) for v in series.values[:, t]))
    path.write_text("\n".join(lines) + "\n")


def load_signals(path) -> MultiSeries:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = rows[0]
    if len(header) < 2 or header[0].strip() != "t":
        raise IngestError(f"{path} line 1: header must be 't,<ch1>,...,<chC>'")
    names = [h.strip() for h in header[1:]]
    width = len(header)
    columns = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise IngestError(f"{path} line {lineno}: expected {width} columns, got {len(row)}")
        try:
            parsed = [float(cell) for cell in row[1:]]
        except ValueError:
            raise IngestError(f"{path} line {lineno}: non-numeric cell") from None
        if not all(math.isfinite(v) for v in parsed):
            raise IngestError(f"{path} line {lineno}: non-finite value")
        columns.append(parsed)
    if not columns:
        raise IngestError(f"{path}: no data rows")
    return MultiSeries(names, np.array(columns, dtype=np.float64).T)


def save_ranges(path, ranges: AnomalyRanges):
    Path(path).write_text("".join(f"{s},{e}\n" for s, e in ranges))


def load_ranges(path) -> AnomalyRanges:
    path = Path(path)
    spans = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestError(f"{path} line {lineno}: expected 'start,end'")
        try:
            spans.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise IngestError(f"{path} line {lineno}: non-integer bound") from None
    return AnomalyRanges(tuple(spans))


def label_block(span, ranges: AnomalyRanges) -> int:
    """1 iff at least half of the half-open span lies inside anomaly ranges."""
    start, end = span
    return int(2 * ranges.overlap(start, end) >= end - start)


def make_fragments(
    series: MultiSeries,
    ranges: AnomalyRanges | None,
    window: int = DEFAULT_WINDOW,
    neg_step: int | None = None,
    pos_step: int = DEFAULT_POS_STEP,
) -> list:
    """Cut labeled fragments: normal spans are tiled without overlap, anomaly
    ranges are swept with a short-step sliding window so the positive class
    is augmented. Only windows fully inside a labeled region are emitted.
    """
    if window < 1:
        raise ConfigError("window must be positive")
    if window > series.length:
        raise DataError(f"window {window} exceeds series length {series.length}")
    if neg_step is None:
        neg_step = window
    if neg_step < window:
        raise ConfigError("neg_step below the window length would overlap normal fragments")
    if not 1 <= pos_step <= window:
        raise ConfigError(f"pos_step must be in [1, window], got {pos_step}")
    if ranges is None:
        ranges = AnomalyRanges()
    ranges.check_length(series.length)

    regions = [(s, e, 0) for s, e in ranges.complement(series.length)]
    regions += [(s, e, 1) for s, e in ranges]
    regions.sort()

    fragments = []
    for start, end, label in regions:
        step = pos_step if label else neg_step
        offset = start
        while offset + window <= end:
            fragments.append(Fragment(series.values[:, offset : offset + window].copy(), label, offset))
            offset += step
    return fragments
