"""The training loop and fragment-level prediction.

One loop, ``train``, serves two kinds of detector, and the model's
classifier head alone decides the kind, which chooses only the label
check, the loss and the score. A model without a head (``semi``) is fit
on normal fragments by reconstruction alone, with an anomaly threshold of
``beta`` times the mean training loss; prediction then flags any fragment
whose reconstruction loss reaches the threshold. A model with a head
(``supervised``) is fit on labeled fragments and minimizes
``alpha * reconstruction + (1 - alpha) * cross_entropy``, the cross-entropy
taken from the head's logit, as one graph node (``nn.supervised_loss``);
prediction compares the head's probability, a sigmoid taken outside the
graph (``model.classify``), against 0.5.

Training, calibration and scoring run one forward pass: ``encode`` the
per-scale inputs, then ``decode`` the code with the conv activations
``encode`` returned (the teacher-forced decoder, see ``model``); scoring
runs it on a detector's model, whose tensors need no grad, so it records
no graph. The threshold is thus calibrated on, and later compared
against, the loss the model was trained to minimize.
Training and scoring take their input through one check that stacks
fragments or windows into a (N, C, T) array and rejects a wrong shape or a
non-finite value. One helper then turns such a batch into the model's
per-scale inputs: the windows z-scored per channel, then their wavelet
details. Each scale input is both the encoder's input and the
reconstruction target of that scale; the loss, ``nn.reconstruction_loss``,
is one graph node that takes the targets as constants. Training builds
them once for all windows and takes each step on a batch of one; scoring
builds them per chunk. All scoring goes through one path that takes a
batch of windows (``score_windows``). The z-score statistics are fitted
on the training set only and travel with the detector.
Statistics and trained weights are rounded to float32, the precision of a
detector file, before calibration, so a detector reloaded from disk scores
exactly like the one training returned.
``TrainConfig`` and ``Detector`` are frozen dataclasses that check their
fields once, when they are built, and a detector's statistics are
read-only arrays; so ``train`` and scoring repeat none of those checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .data import as_floats
from .errors import ConfigError, DataError, require_instances, require_integers, require_reals
from .metrics import MetricsReport, compute_metrics
from .model import ModelConfig, WaveletAutoencoder
from .nn import reconstruction_loss, supervised_loss
from .optim import Adam
from .wavelet import mdwd

SEMI_EPOCHS = 16
SUPERVISED_EPOCHS = 11
STD_FLOOR = 1e-8
# Windows scored per batch. A larger batch shares each LSTM step's Python
# overhead among more windows, but every layer's activations and LSTM states
# grow with it. On the benchmark's 65-window stream (2-vCPU box, one BLAS
# thread), chunks of 4/6/8/16/65 took 165/145/137/129/156 ms per `simulate`
# call (fastest of 15 interleaved rounds) at a process peak RSS of
# 33.5/34.3/35.3/39.9/65.4 MB; one chunk of 6 default windows peaks at
# 2.6 MB of allocations. 6 is the largest chunk that keeps the peak within
# 1 MB of the 34.4 MB that chunks of 4 took before encode and decode shared
# one copy of each scale's conv activations.
_SCORE_CHUNK = 6


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    mode: str = "semi"
    epochs: int | None = None  # defaults to 16 (semi) or 11 (supervised)
    lr: float = 0.001
    alpha: float = 0.5
    beta: float = 1.5
    seed: int = 0

    def __post_init__(self):
        require_instances(ConfigError, ("model", self.model, ModelConfig))
        if self.mode != ("supervised" if self.model.classifier else "semi"):
            raise ConfigError(f"mode {self.mode!r} disagrees with a model config with "
                              f"classifier={self.model.classifier}")
        require_integers(("epochs", self.resolved_epochs), ("seed", self.seed))
        require_reals(("lr", self.lr), ("alpha", self.alpha), ("beta", self.beta))
        if self.resolved_epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 1.0 <= self.beta <= 2.0:
            raise ConfigError(f"beta must lie in [1, 2], got {self.beta}")

    @property
    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return SEMI_EPOCHS if self.mode == "semi" else SUPERVISED_EPOCHS


@dataclass(frozen=True, eq=False)
class Detector:
    """A trained model plus everything prediction needs; the model's head
    decides the kind (``mode``), and only a model without one takes a
    threshold. Frozen, so that every field has passed the checks below;
    ``dataclasses.replace`` builds a changed copy and checks it again. It
    holds arrays, so it compares and hashes by identity.
    ``model`` is the ``frozen`` view of the model given, so scoring records
    no graph, and ``threshold`` and ``train_loss_mean`` are Python floats,
    which a detector file writes as it reads them. ``norm_mean`` and
    ``norm_std`` are read-only copies of the arrays given, so no write can
    reach them either."""

    model: WaveletAutoencoder
    threshold: float | None
    train_loss_mean: float
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self):
        require_instances(ConfigError, ("model", self.model, WaveletAutoencoder))
        if self.threshold is not None:
            require_reals(("threshold", self.threshold))
        require_reals(("train_loss_mean", self.train_loss_mean))
        object.__setattr__(self, "model", self.model.frozen())
        if self.model.config.classifier:
            if self.threshold is not None:
                raise ConfigError(f"a model with a classifier head takes no threshold, got {self.threshold}")
        elif not (self.threshold is not None and 0 < self.threshold < math.inf):
            # A reconstruction loss is never negative: a threshold <= 0
            # would flag every window.
            raise ConfigError(f"a reconstruction-threshold detector needs a finite threshold > 0, "
                              f"got {self.threshold}")
        if not 0 <= self.train_loss_mean < math.inf:
            raise ConfigError(f"train_loss_mean must be finite and >= 0, got {self.train_loss_mean}")
        object.__setattr__(self, "threshold", None if self.threshold is None else float(self.threshold))
        object.__setattr__(self, "train_loss_mean", float(self.train_loss_mean))
        # Bad statistics would otherwise score NaN, and NaN >= cut is False.
        channels = self.model.config.channels
        for name, stats in (("norm_mean", self.norm_mean), ("norm_std", self.norm_std)):
            if not (isinstance(stats, np.ndarray) and stats.dtype.kind == "f" and stats.shape == (channels,)):
                got = f"{stats.dtype} array of shape {stats.shape}" if isinstance(stats, np.ndarray) else stats
                raise ConfigError(f"{name} must be a float array of shape ({channels},), got {got}")
            if not np.isfinite(stats).all():
                raise ConfigError(f"{name} holds a non-finite value: {stats}")
            stats = stats.copy()
            stats.flags.writeable = False
            object.__setattr__(self, name, stats)
        if not (self.norm_std > 0).all():
            raise ConfigError(f"norm_std holds a non-positive value: {self.norm_std}")

    @property
    def mode(self) -> str:
        """``supervised`` for a model with a classifier head, else ``semi``."""
        return "supervised" if self.model.config.classifier else "semi"

    @property
    def cut(self) -> float:
        """Score at or above which a window counts as anomalous."""
        return 0.5 if self.model.config.classifier else self.threshold


def _stored(array: np.ndarray) -> np.ndarray:
    """The value a detector file keeps: rounded to float32, widened back."""
    return array.astype(np.float32).astype(np.float64)


def fit_channel_stats(windows: np.ndarray):
    """Per-channel mean and floored std of a (N, C, T) array, at stored precision."""
    stacked = np.concatenate(windows, axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    return _stored(mean), _stored(np.maximum(std, STD_FLOOR))


def _listed(items):
    """An array as it is, any other collection read once into a list; an
    input that is not a collection raises ``DataError``."""
    if isinstance(items, np.ndarray):
        return items
    try:
        return list(items)
    except TypeError:
        raise DataError(f"expected an array or a sequence of windows, got {type(items).__name__}") from None


def _labeled_windows(fragments, cfg: ModelConfig, default):
    """The checked windows of ``fragments`` and the ``label`` of each item
    (``default`` for one without), read from a single pass over them, so
    that a generator serves both. A label other than 0 or 1 raises
    ``DataError``."""
    items = _listed(fragments)
    windows, labels = _checked_windows(items, cfg), [getattr(f, "label", default) for f in items]
    for i, label in enumerate(labels):
        if label not in (0, 1):
            raise DataError(f"fragment {i} is missing a 0/1 label")
    return windows, labels


def _checked_windows(items, cfg: ModelConfig) -> np.ndarray:
    """Fragments, (C, T) arrays or one (N, C, T) array as a (N, C, T)
    float64 array. An input that is not a collection, an empty one, a window
    that is not numeric or has the wrong shape, or a non-finite value raises
    ``DataError``."""
    want = (cfg.channels, cfg.fragment_length)
    if not isinstance(items, np.ndarray):
        items = [as_floats(getattr(f, "values", f), f"window {i}") for i, f in enumerate(_listed(items))]
        for i, values in enumerate(items):
            if values.shape != want:
                raise DataError(f"window {i} has shape {values.shape}, expected {want}")
    windows = as_floats(items, "the batch of windows")
    if windows.ndim != 3 or windows.shape[1:] != want or len(windows) == 0:
        raise DataError(f"expected a non-empty (N, {want[0]}, {want[1]}) batch of windows, "
                        f"got shape {windows.shape}")
    finite = np.isfinite(windows).all(axis=(1, 2))
    if not finite.all():
        raise DataError(f"window {int(np.argmin(finite))} holds a non-finite value")
    return windows


def _scale_inputs(windows: np.ndarray, cfg: ModelConfig, mean, std) -> list:
    """The per-scale inputs of a (N, C, T) batch of raw windows: the windows
    z-scored per channel, then their wavelet details 1..L when the model has
    levels. Each entry is both a branch's encoder input and its
    reconstruction target."""
    xn = (windows - mean[:, None]) / std[:, None]
    if not cfg.levels:
        return [xn]
    details, _ = mdwd(xn, cfg.wavelet, cfg.levels)
    return [xn, *details]


def _finish(model, windows, mean, std, beta) -> Detector:
    """Round the weights to stored precision in place, then calibrate their
    ``frozen`` view on the losses ``_scores`` gives the training windows."""
    for p in model.parameters():
        p.data[...] = _stored(p.data)
    model = model.frozen()
    losses = _scores(model, mean, std, windows, head=False)
    train_loss_mean = math.fsum(losses) / len(losses)
    return Detector(
        model=model,
        threshold=None if model.config.classifier else beta * train_loss_mean,
        train_loss_mean=train_loss_mean,
        norm_mean=mean,
        norm_std=std,
    )


def _step(model, optimizer, inputs, label, alpha) -> float:
    """One optimizer step on a batch of scale inputs; returns its loss. With
    a ``label`` the loss is the supervised objective, which mixes in the
    head's cross-entropy. Only ``loss`` refers to the graph when backward
    runs, so each activation is freed as the walk consumes its node, and
    nothing of the graph outlives the step."""
    code, teacher = model.encode(inputs)
    loss = reconstruction_loss(inputs, model.decode(code, teacher))
    if label is not None:
        loss = supervised_loss(loss, model.logit(code), label, alpha)
    del code, teacher
    loss.backward()
    optimizer.step()
    optimizer.zero_grad()
    return loss.item()


def train(fragments, cfg: TrainConfig, progress=None) -> Detector:
    """Fit a detector, calling ``progress(epoch, mean_loss)`` after each epoch.

    A model without a classifier head takes normal-only fragments and
    minimizes reconstruction alone; one with a head takes 0/1-labeled
    fragments and adds the head's cross-entropy. An epoch whose mean loss
    is not finite stops training with ``DataError``.
    """
    require_instances(ConfigError, ("cfg", cfg, TrainConfig))
    supervised = cfg.model.classifier
    windows, labels = _labeled_windows(fragments, cfg.model, None if supervised else 0)
    if not supervised and 1 in labels:
        raise DataError(f"fragment {labels.index(1)} is labeled anomalous; normal-only training requires clean data")

    mean, std = fit_channel_stats(windows)
    scales = _scale_inputs(windows, cfg.model, mean, std)
    model = WaveletAutoencoder(cfg.model)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    order = list(range(len(windows)))
    shuffle = random.Random(cfg.seed).shuffle

    for epoch in range(cfg.resolved_epochs):
        shuffle(order)
        total = 0.0
        for idx in order:
            total += _step(model, optimizer, [s[idx : idx + 1] for s in scales],
                           labels[idx] if supervised else None, cfg.alpha)
        mean_loss = total / len(windows)
        if not math.isfinite(mean_loss):
            raise DataError(f"training diverged: epoch {epoch + 1} has mean loss {mean_loss}")
        if progress is not None:
            progress(epoch, mean_loss)

    return _finish(model, windows, mean, std, cfg.beta)


def _scores(model, mean, std, windows: np.ndarray, head: bool) -> np.ndarray:
    """Scores of checked (N, C, T) raw windows, ``_SCORE_CHUNK`` at a time:
    head probabilities, or the reconstruction losses of the training step's
    forward pass, which a ``frozen`` model runs without recording a graph."""

    def score(inputs):
        # A chunk's activations die on return, before the next chunk's encode.
        code, teacher = model.encode(inputs)
        if head:
            return model.classify(code)
        return reconstruction_loss(inputs, model.decode(code, teacher)).data

    chunks = (windows[start : start + _SCORE_CHUNK] for start in range(0, len(windows), _SCORE_CHUNK))
    return np.concatenate([score(_scale_inputs(chunk, model.config, mean, std)) for chunk in chunks])


def _detector_scores(detector: Detector, windows: np.ndarray) -> np.ndarray:
    """``score_windows`` of checked (N, C, T) windows, which it checks no more."""
    return _scores(detector.model, detector.norm_mean, detector.norm_std, windows, detector.model.config.classifier)


def score_windows(detector: Detector, windows) -> np.ndarray:
    """Scores of a (N, C, T) array or a sequence of fragments or (C, T)
    windows: the reconstruction loss (threshold mode) or anomaly probability
    (head mode) of each. A window of the wrong shape or holding NaN or
    infinity raises ``DataError``."""
    require_instances(ConfigError, ("detector", detector, Detector))
    return _detector_scores(detector, _checked_windows(windows, detector.model.config))


def evaluate_fragments(detector: Detector, fragments) -> MetricsReport:
    """Metrics of the detector's predictions on 0/1-labeled fragments. An
    item without a 0/1 ``label`` raises ``DataError``."""
    require_instances(ConfigError, ("detector", detector, Detector))
    windows, labels = _labeled_windows(fragments, detector.model.config, None)
    scores = _detector_scores(detector, windows)
    return compute_metrics([int(score >= detector.cut) for score in scores], labels)
