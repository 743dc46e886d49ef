"""Sliding-window majority voting for deployment-style streaming.

The stream is cut into blocks of ``step`` samples. Once ``window / step``
blocks have arrived, every new block completes a window; the detector
predicts once per window and that prediction counts as one vote for each
block inside it. A block is finalized when it has collected the full
``window / step`` votes. The first ``window/step - 1`` blocks of a stream
never collect them all, and neither do the last ones when the stream
stops: those only ever reach preliminary verdicts. ``VoteState`` reports a
block as preliminary only while the newest window covers it. A block is
declared anomalous when its positive-vote ratio is at least
``vote_threshold`` (``_decide``), and labeled anomalous when at least half
of it lies inside the anomaly ranges (``_label``); these steps check nothing.

``VoteState`` is the incremental engine and scores one window per block.
The offline replay scores every window of the stream in batches. Both
count a block's votes with one tally, ``_tally``; comparing them checks
single-window against batched scoring. ``sweep`` reports the offline tally
at several vote thresholds and ``simulate`` at one: both go through the
same tally-and-label pass and the same per-threshold report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import DEFAULT_WINDOW, AnomalyRanges, MultiSeries, as_floats
from .errors import ConfigError, DataError, ShapeError
from .errors import require_instances, require_integers, require_reals
from .metrics import compute_metrics
from .training import Detector, _detector_scores, score_windows

SWEEP_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class VoteConfig:
    window: int = DEFAULT_WINDOW
    step: int = 16
    vote_threshold: float = 0.5

    def __post_init__(self):
        require_integers(("window", self.window), ("step", self.step))
        require_reals(("vote_threshold", self.vote_threshold))
        if self.step < 1 or self.window < 1:
            raise ConfigError("window and step must be positive")
        if self.window % self.step != 0:
            raise ConfigError(f"step {self.step} must divide window {self.window}")
        if self.window // self.step < 4:
            raise ConfigError("window must be at least 4 steps long")
        if not 0.0 < self.vote_threshold <= 1.0:
            raise ConfigError("vote_threshold must lie in (0, 1]")

    @property
    def votes_per_block(self) -> int:
        return self.window // self.step


def _tally(votes, block: int, full: int):
    """(positive, total) votes of ``block``, where ``votes`` lists window
    votes in window order and window k covers blocks k .. k + full - 1."""
    covering = votes[max(0, block - full + 1) : block + 1]
    return sum(covering), len(covering)


def _decide(positive: int, total: int, threshold: float) -> int:
    """The vote rule: 1 iff positive/total >= threshold."""
    return int(positive / total >= threshold)


@dataclass(frozen=True)
class BlockRow:
    """One block's verdict and vote tally: a line of the simulation report,
    or a verdict of ``VoteState.push_block``, which knows no label
    (``label`` is None there)."""

    index: int
    label: int | None
    verdict: int
    positive: int
    total: int
    final: bool

    def as_row(self) -> str:
        return f"{self.index},{self.label},{self.verdict},{self.positive},{self.total}"


def _check_voting(detector: Detector, cfg: VoteConfig):
    """Raise ``ConfigError`` unless ``detector`` is a ``Detector`` and
    ``cfg`` a ``VoteConfig`` whose window is the detector's fragment length."""
    require_instances(ConfigError, ("detector", detector, Detector), ("cfg", cfg, VoteConfig))
    if cfg.window != detector.model.config.fragment_length:
        raise ConfigError(f"vote window {cfg.window} does not match the detector's fragment "
                          f"length {detector.model.config.fragment_length}")


class VoteState:
    """Per-stream buffer of the newest window's blocks and the newest votes."""

    def __init__(self, detector: Detector, cfg: VoteConfig):
        _check_voting(detector, cfg)
        self.detector = detector
        self.cfg = cfg
        self._channels = detector.model.config.channels
        self._buffer = deque(maxlen=cfg.votes_per_block)
        self._votes = deque(maxlen=cfg.votes_per_block)
        self._pushed = 0
        self.finalized: list[BlockRow] = []

    def push_block(self, block):
        """Feed one block; returns (newly finalized verdicts, preliminary
        verdicts), each a list of ``BlockRow`` without a label. A block that
        is refused with an error leaves the state as it was: one that is not
        a finite (C, step) array, one too large for the detector's dtype once
        z-scored, or one that completes a window too large to score."""
        name, det = f"block {self._pushed}", self.detector
        block = as_floats(block, name)
        if block.shape != (self._channels, self.cfg.step):
            raise ShapeError(
                f"block shape {block.shape} does not match ({self._channels}, {self.cfg.step})"
            )
        if not np.isfinite(block).all():
            raise DataError(f"{name} holds a non-finite value")
        # Refused alone, as buffered it would make every window holding it fail.
        with np.errstate(over="ignore"):  # an infinity is refused here too
            zscored = (block - det.norm_mean[:, None]) / det.norm_std[:, None]
        if np.abs(zscored).max() > np.finfo(det.model.dtype).max:
            raise DataError(f"{name} is too large to score in {det.model.dtype} once z-scored")
        full = self.cfg.votes_per_block
        # A copy: the caller may refill the same array with the next block.
        blocks = [*self._buffer, block.copy()][-full:]
        if len(blocks) == full:
            # The blocks are checked: the window they make is scored unchecked.
            try:
                [score] = _detector_scores(det, np.concatenate(blocks, axis=1)[None])
            except DataError:
                raise DataError(f"{name} completes a window too large to score in {det.model.dtype}") from None
        self._pushed += 1
        self._buffer.append(blocks[-1])
        if len(blocks) < full:
            return [], []
        self._votes.append(int(score >= det.cut))
        votes = list(self._votes)
        first = self._pushed - full  # the newest window's first block
        rows = []
        # Counted from the window of votes[0], the newest window (votes[-1])
        # covers blocks len(votes) - 1 .. len(votes) + full - 2.
        for j in range(full):
            positive, total = _tally(votes, len(votes) - 1 + j, full)
            rows.append(BlockRow(first + j, None, _decide(positive, total, self.cfg.vote_threshold),
                                 positive, total, total == full))
        # Only the newest window's first block can have all its votes: every
        # other block of the window awaits the votes of later windows.
        finals = rows[:1] if rows[0].final else []
        self.finalized += finals
        return finals, rows[len(finals):]


def window_predictions(series: MultiSeries, detector: Detector, cfg: VoteConfig):
    """One detector vote per complete window position, in window order
    (window k starts at block k), and the stream's block count. All windows
    are scored as batches."""
    if series.length < cfg.window:
        raise DataError(f"series length {series.length} is shorter than one window ({cfg.window})")
    n_blocks = series.length // cfg.step
    full = cfg.votes_per_block
    last_start = (n_blocks - full) * cfg.step
    windows = sliding_window_view(series.values, cfg.window, axis=1)[:, : last_start + 1 : cfg.step]
    scores = score_windows(detector, windows.transpose(1, 0, 2))
    return [int(score >= detector.cut) for score in scores], n_blocks


def _blocks(series: MultiSeries, ranges: AnomalyRanges, detector: Detector, cfg: VoteConfig):
    """(positive votes, total votes, label) of every block of the stream. A
    range that ends past the stream raises ``DataError``."""
    require_instances(DataError, ("series", series, MultiSeries), ("ranges", ranges, AnomalyRanges))
    _check_voting(detector, cfg)
    ranges.check_length(series.length)
    votes, n_blocks = window_predictions(series, detector, cfg)
    return [(*_tally(votes, i, cfg.votes_per_block), _label(i * cfg.step, (i + 1) * cfg.step, ranges))
            for i in range(n_blocks)]


def _label(start: int, end: int, ranges: AnomalyRanges) -> int:
    """The block label: 1 iff at least half of [start, end) lies inside anomaly ranges."""
    return int(2 * ranges.overlap(start, end) >= end - start)


def _report(blocks, cfg: VoteConfig, vote_threshold: float):
    """Per-block rows at one vote threshold, plus metrics over finalized blocks."""
    rows = [BlockRow(i, label, _decide(positive, total, vote_threshold), positive, total,
                     total == cfg.votes_per_block)
            for i, (positive, total, label) in enumerate(blocks)]
    finalized = [r for r in rows if r.final]
    if not finalized:
        full = cfg.votes_per_block
        raise DataError(f"none of the stream's {len(rows)} blocks is final: a final block needs all "
                        f"votes_per_block = {full} votes, so the shortest stream with one has {2 * full - 1} blocks")
    return rows, compute_metrics([r.verdict for r in finalized], [r.label for r in finalized])


def simulate(series: MultiSeries, ranges: AnomalyRanges, detector: Detector, cfg: VoteConfig):
    """Offline replay: per-block report rows plus metrics over finalized
    blocks, at ``cfg.vote_threshold``."""
    return _report(_blocks(series, ranges, detector, cfg), cfg, cfg.vote_threshold)


def sweep(series: MultiSeries, ranges: AnomalyRanges, detector: Detector, cfg: VoteConfig):
    """Metrics per vote threshold of ``SWEEP_THRESHOLDS``; window
    predictions are computed once."""
    blocks = _blocks(series, ranges, detector, cfg)
    return [(tau, _report(blocks, cfg, tau)[1]) for tau in SWEEP_THRESHOLDS]
