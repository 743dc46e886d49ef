"""Signal containers, CSV ingestion, anomaly ranges, and fragment
generation with positive-sample augmentation.

File formats
------------
Signals CSV (UTF-8): header ``t,<ch1>,...,<chC>``, then one row per sample;
floats are written with ``repr`` so a write/read round trip is bit-exact.
Fields are split on every comma, with no quoting. A cell after ``t`` is a
plain ASCII float as ``repr`` writes it, optionally padded with whitespace:
no quotes and no ``_`` digit separators. ``nan`` and ``inf`` parse but are
rejected as non-finite. Blank lines are skipped but still counted, so every
error names the file's physical line. Neither function holds the whole file:
``save_signals`` writes each row to the open file, and ``load_signals``
checks each line's column count in Python, converts up to 512 pending lines
at a time with numpy's C reader (``np.loadtxt``, which rounds exactly as
``float`` does) and appends them to one float buffer.
Ranges CSV (UTF-8): one ``start,end`` pair per line, half-open sample
indices. A byte that is not UTF-8 raises ``IngestError`` naming the file.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, IngestError, require_instances, require_integers

DEFAULT_WINDOW = 512
DEFAULT_POS_STEP = 16
# Data lines parsed per np.loadtxt call: large enough that the call's fixed
# cost fades, small enough that the pending lines stay a small fraction of
# the float buffer.
_CHUNK_LINES = 512


def as_floats(value, what: str) -> np.ndarray:
    """``value`` as a float64 array. A value numpy cannot convert, such as
    a non-numeric string, a ragged list or an arbitrary object, raises
    ``DataError`` naming ``what``."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"{what} is not an array of numbers: got {type(value).__name__}") from None


@dataclass(frozen=True, eq=False)
class MultiSeries:
    """A C-channel, length-T signal with channel names, C and T >= 1. The
    names are a list or tuple of ``str``, each without a comma, newline or
    carriage return and without leading or trailing whitespace, so that
    every series ``save_signals`` writes, ``load_signals`` reads back. They
    are stored as a tuple, which the caller cannot change."""

    channel_names: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_floats(self.values, "series values"))
        if self.values.ndim != 2 or 0 in self.values.shape:
            raise DataError(f"values must be (C, T) with C, T >= 1, got shape {self.values.shape}")
        if not isinstance(self.channel_names, (list, tuple)):
            raise DataError(f"channel names must be a list or tuple, got {type(self.channel_names).__name__}")
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        for name in self.channel_names:
            if not isinstance(name, str) or name != name.strip() or any(c in name for c in ",\n\r"):
                raise DataError(f"a channel name must be a str without ',', a line break or surrounding "
                                f"whitespace, got {name!r}")
        if len(self.channel_names) != self.values.shape[0]:
            raise DataError(
                f"{len(self.channel_names)} channel names for {self.values.shape[0]} channels"
            )
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(f"non-finite value in channel {self.channel_names[bad[0]]!r}")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


def _span_fault(start: int, end: int, prev_end: int):
    """Why the range [start, end) cannot follow one that ends at
    ``prev_end``, or None if it can."""
    if start < 0 or end <= start:
        return f"invalid range [{start}, {end})"
    if start < prev_end:
        return f"range [{start}, {end}) overlaps the one before it; ranges must be sorted and non-overlapping"
    return None


@dataclass(frozen=True)
class AnomalyRanges:
    """Sorted, non-overlapping half-open [start, end) intervals."""

    spans: tuple = ()

    def __post_init__(self):
        try:
            given = list(self.spans)
        except TypeError:
            raise DataError(f"ranges must be a sequence of (start, end) pairs, got {self.spans!r}") from None
        spans = []
        for span in given:
            try:
                s, e = span
            except (TypeError, ValueError):
                s = e = None
            # numpy integers are integers too; a float bound is not rounded,
            # and a bool is not taken for a number.
            if not all(isinstance(b, numbers.Integral) and not isinstance(b, bool) for b in (s, e)):
                raise DataError(f"a range must be a (start, end) pair of integers, got {span!r}")
            spans.append((int(s), int(e)))
        object.__setattr__(self, "spans", tuple(spans))
        prev_end = -1
        for s, e in self.spans:
            fault = _span_fault(s, e, prev_end)
            if fault:
                raise DataError(fault)
            prev_end = e

    def __iter__(self):
        return iter(self.spans)

    def __len__(self):
        return len(self.spans)

    def check_length(self, total: int):
        require_integers(("total", total))
        if self.spans and self.spans[-1][1] > total:
            raise DataError(f"range {self.spans[-1]} exceeds series length {total}")

    def overlap(self, start: int, end: int) -> int:
        """Number of samples of [start, end) covered by any range."""
        require_integers(("start", start), ("end", end))
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


@dataclass(frozen=True, eq=False)
class Fragment:
    """A fixed-length labeled window cut from a series."""

    values: np.ndarray
    label: int
    origin_offset: int

    def __post_init__(self):
        object.__setattr__(self, "values", as_floats(self.values, "fragment values"))
        if self.values.ndim != 2:
            raise DataError(f"fragment values must be (C, W), got {self.values.shape}")
        if self.label not in (0, 1):
            raise DataError(f"fragment label must be 0 or 1, got {self.label!r}")


def save_signals(path, series: MultiSeries):
    require_instances(DataError, ("series", series, MultiSeries))
    # Encoded before the file is opened: a name that UTF-8 cannot hold leaves the file as it was.
    header = "t," + ",".join(series.channel_names) + "\n"
    try:
        header.encode("utf-8")
    except UnicodeEncodeError as err:
        raise DataError(f"channel names {series.channel_names!r} are not UTF-8 text: {err.reason}") from None
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header)
        for t, row in enumerate(series.values.T):
            fh.write(str(t) + "," + ",".join(map(repr, row.tolist())) + "\n")


def load_signals(path) -> MultiSeries:
    path = Path(path)
    buffer = array("d")
    try:
        with path.open(encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise IngestError(f"{path}: file is empty")
            header = header.rstrip("\n").split(",")
            if len(header) < 2 or header[0].strip() != "t":
                raise IngestError(f"{path} line 1: header must be 't,<ch1>,...,<chC>'")
            names = [h.strip() for h in header[1:]]
            width = len(header)
            chunk = []
            for lineno, line in enumerate(fh, start=2):
                if line == "\n":
                    continue
                if line.count(",") != width - 1:
                    _read_chunk(path, chunk, width, buffer)  # an earlier line may be bad too
                    raise IngestError(f"{path} line {lineno}: expected {width} columns, got {line.count(',') + 1}")
                chunk.append((lineno, line))
                if len(chunk) == _CHUNK_LINES:
                    _read_chunk(path, chunk, width, buffer)
                    chunk = []
            _read_chunk(path, chunk, width, buffer)
    except UnicodeDecodeError:
        raise IngestError(f"{path}: not UTF-8 text") from None
    if not buffer:
        raise IngestError(f"{path}: no data rows")
    # The (C, T) transpose of a (T, C) C-order view of the parsed rows.
    return MultiSeries(names, np.frombuffer(buffer, dtype=np.float64).reshape(-1, len(names)).T)


def _cells(lines, width) -> np.ndarray:
    """The (rows, width - 1) floats after the ``t`` column of some data lines."""
    return np.loadtxt(lines, delimiter=",", usecols=range(1, width), comments=None, ndmin=2)


def _read_chunk(path, chunk, width, buffer):
    """Append the values of ``(lineno, line)`` data lines to ``buffer``, or
    raise the ``IngestError`` of the first bad line among them."""
    if not chunk:
        return
    try:
        values = _cells([line for _, line in chunk], width)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        # Re-read the lines one at a time, only to name the first bad one.
        for lineno, line in chunk:
            try:
                row = _cells([line], width)
            except ValueError:
                raise IngestError(f"{path} line {lineno}: non-numeric cell") from None
            if not np.isfinite(row).all():
                raise IngestError(f"{path} line {lineno}: non-finite value")
    buffer.frombytes(values.tobytes())


def save_ranges(path, ranges: AnomalyRanges):
    require_instances(DataError, ("ranges", ranges, AnomalyRanges))
    Path(path).write_text("".join(f"{s},{e}\n" for s, e in ranges), encoding="utf-8")


def load_ranges(path) -> AnomalyRanges:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise IngestError(f"{path}: not UTF-8 text") from None
    spans = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestError(f"{path} line {lineno}: expected 'start,end'")
        try:
            span = int(parts[0]), int(parts[1])
        except ValueError:
            raise IngestError(f"{path} line {lineno}: non-integer bound") from None
        fault = _span_fault(*span, spans[-1][1] if spans else -1)
        if fault:
            raise IngestError(f"{path} line {lineno}: {fault}")
        spans.append(span)
    return AnomalyRanges(tuple(spans))


def make_fragments(
    series: MultiSeries,
    ranges: AnomalyRanges | None,
    window: int = DEFAULT_WINDOW,
    pos_step: int = DEFAULT_POS_STEP,
) -> list:
    """Cut labeled fragments: normal spans are tiled without overlap, anomaly
    ranges are swept with a short-step sliding window so the positive class
    is augmented. Only windows fully inside a labeled region are emitted.
    """
    require_instances(DataError, ("series", series, MultiSeries),
                      ("ranges", ranges, (AnomalyRanges, type(None))))
    require_integers(("window", window), ("pos_step", pos_step))
    if window < 1:
        raise ConfigError("window must be positive")
    if window > series.length:
        raise DataError(f"window {window} exceeds series length {series.length}")
    if not 1 <= pos_step <= window:
        raise ConfigError(f"pos_step must be in [1, window], got {pos_step}")
    ranges = AnomalyRanges() if ranges is None else ranges
    # ``complement`` refuses a range that ends past the series.
    regions = [(s, e, 0) for s, e in ranges.complement(series.length)]
    regions += [(s, e, 1) for s, e in ranges]
    regions.sort()

    fragments = []
    for start, end, label in regions:
        step = pos_step if label else window
        offset = start
        while offset + window <= end:
            # A copy: a view would keep the whole series alive while any fragment is.
            fragments.append(Fragment(series.values[:, offset : offset + window].copy(), label, offset))
            offset += step
    return fragments
