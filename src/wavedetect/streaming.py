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
``vote_threshold``.

``VoteState`` is the incremental engine and scores one window per block.
The offline replay scores every window of the stream in batches and
tallies each block's votes by direct counting, which gives the tests an
independent path to compare against. ``sweep`` reports that tally at
several vote thresholds and ``simulate`` at one: both go through the same
tally-and-label pass and the same per-threshold report.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import AnomalyRanges, MultiSeries, label_block
from .errors import ConfigError, ContractError, DataError, ShapeError
from .metrics import compute_metrics
from .training import Detector, predict_fragment, score_windows

SWEEP_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class VoteConfig:
    window: int = 512
    step: int = 16
    vote_threshold: float = 0.5

    def __post_init__(self):
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


def vote_decide(positive: int, total: int, vote_threshold: float) -> int:
    """1 iff positive/total >= vote_threshold."""
    if total < 1:
        raise ContractError("vote_decide needs at least one vote")
    if not 0 <= positive <= total:
        raise ContractError(f"positive count {positive} outside [0, {total}]")
    return int(positive / total >= vote_threshold)


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


class VoteState:
    """Per-stream buffer of pending blocks and their vote tallies."""

    def __init__(self, detector: Detector, cfg: VoteConfig):
        if cfg.window != detector.model.config.fragment_length:
            raise ConfigError(
                f"vote window {cfg.window} does not match the detector's fragment "
                f"length {detector.model.config.fragment_length}"
            )
        self.detector = detector
        self.cfg = cfg
        self._channels = detector.model.config.channels
        self._buffer = deque(maxlen=cfg.votes_per_block)
        self._pending: "OrderedDict[int, list]" = OrderedDict()
        self._next_index = 0
        self.finalized: list[BlockRow] = []

    def push_block(self, block):
        """Feed one block; returns (newly finalized verdicts, preliminary
        verdicts), each a list of ``BlockRow`` without a label."""
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (self._channels, self.cfg.step):
            raise ShapeError(
                f"block shape {block.shape} does not match ({self._channels}, {self.cfg.step})"
            )
        if not np.isfinite(block).all():
            raise DataError(f"block {self._next_index} holds a non-finite value")
        index = self._next_index
        self._next_index += 1
        self._buffer.append(block)
        self._pending[index] = [0, 0]

        finals = []
        full = self.cfg.votes_per_block
        oldest = index - full + 1  # the newest window's first block, once there is a window
        if len(self._buffer) == full:
            vote, _ = predict_fragment(self.detector, np.concatenate(self._buffer, axis=1))
            for i in range(oldest, index + 1):
                tally = self._pending[i]
                tally[0] += vote
                tally[1] += 1
            if self._pending[oldest][1] == full:
                positive, total = self._pending.pop(oldest)
                verdict = BlockRow(oldest, None, vote_decide(positive, total, self.cfg.vote_threshold),
                                   positive, total, True)
                self.finalized.append(verdict)
                finals.append(verdict)

        prelims = [
            BlockRow(i, None, vote_decide(p, t, self.cfg.vote_threshold), p, t, False)
            for i, (p, t) in self._pending.items()
            if t >= 1
        ]
        # No later window covers the oldest block: if it is one of the first
        # full - 1 blocks it was never finalized, so it leaves here.
        self._pending.pop(oldest, None)
        return finals, prelims


def window_predictions(series: MultiSeries, detector: Detector, cfg: VoteConfig):
    """One detector vote per complete window position, keyed by the index of
    the window's last block. All windows are scored as batches."""
    if series.length < cfg.window:
        raise DataError(f"series length {series.length} is shorter than one window ({cfg.window})")
    n_blocks = series.length // cfg.step
    full = cfg.votes_per_block
    last_start = (n_blocks - full) * cfg.step
    windows = sliding_window_view(series.values, cfg.window, axis=1)[:, : last_start + 1 : cfg.step]
    scores = score_windows(detector, windows.transpose(1, 0, 2))
    preds = {full - 1 + k: int(score >= detector.cut) for k, score in enumerate(scores)}
    return preds, n_blocks


def _blocks(series: MultiSeries, ranges: AnomalyRanges, detector: Detector, cfg: VoteConfig):
    """(positive votes, total votes, label) of every block of the stream."""
    preds, n_blocks = window_predictions(series, detector, cfg)
    full = cfg.votes_per_block
    blocks = []
    for i in range(n_blocks):
        votes = [preds[w] for w in range(max(full - 1, i), min(i + full - 1, n_blocks - 1) + 1)]
        label = label_block((i * cfg.step, (i + 1) * cfg.step), ranges)
        blocks.append((sum(votes), len(votes), label))
    return blocks


def _report(blocks, cfg: VoteConfig, vote_threshold: float):
    """Per-block rows at one vote threshold, plus metrics over finalized blocks."""
    rows = [BlockRow(i, label, vote_decide(positive, total, vote_threshold), positive, total,
                     total == cfg.votes_per_block)
            for i, (positive, total, label) in enumerate(blocks)]
    finalized = [r for r in rows if r.final]
    return rows, compute_metrics([r.verdict for r in finalized], [r.label for r in finalized])


def simulate(series: MultiSeries, ranges: AnomalyRanges, detector: Detector, cfg: VoteConfig):
    """Offline replay: per-block report rows plus metrics over finalized
    blocks, at ``cfg.vote_threshold``."""
    return _report(_blocks(series, ranges, detector, cfg), cfg, cfg.vote_threshold)


def sweep(series: MultiSeries, ranges: AnomalyRanges, detector: Detector,
          cfg: VoteConfig, thresholds=SWEEP_THRESHOLDS):
    """Metrics per vote threshold; window predictions are computed once."""
    blocks = _blocks(series, ranges, detector, cfg)
    return [(tau, _report(blocks, cfg, tau)[1]) for tau in thresholds]
