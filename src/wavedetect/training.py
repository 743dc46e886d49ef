"""The training loop and fragment-level prediction.

One loop, ``train``, serves two regimes; the mode chooses only the label
check and the loss. Normal-only (``semi``) training fits the autoencoder on
reconstruction alone and calibrates an anomaly threshold as ``beta`` times
the mean training loss; prediction then flags any fragment whose
reconstruction loss reaches the threshold. Labeled (``supervised``)
training adds a classifier head on the global code and minimizes
``alpha * reconstruction + (1 - alpha) * cross_entropy``, the cross-entropy
taken from the head's logit; prediction uses the head's probability
against 0.5.

Gradient steps always teacher-force the decoder. Scores, and the frozen
pass that feeds the threshold, run the decoder autoregressively so the
threshold is calibrated in the same regime it is later compared against.
Training and scoring take their input through one check that stacks
fragments or windows into a (N, C, T) array and rejects a wrong shape or a
non-finite value. One helper then turns such a batch into the model's
per-scale inputs: the windows z-scored per channel, then their wavelet
details. Each scale input is both the encoder's input and the
reconstruction target of that scale. Training builds them once for all
windows; scoring builds them per chunk. All scoring goes through one
no-grad path that takes a batch of windows (``score_windows``). The
z-score statistics are fitted on the training set only and travel with
the detector.
Statistics and trained weights are rounded to float32, the precision of a
detector file, before calibration, so a detector reloaded from disk scores
exactly like the one training returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import ConfigError, DataError
from .metrics import MetricsReport, compute_metrics
from .model import ModelConfig, WaveletAutoencoder, reconstruction_loss
from .nn import bce_with_logits
from .optim import Adam
from .wavelet import get_family, mdwd

SEMI_EPOCHS = 16
SUPERVISED_EPOCHS = 11
STD_FLOOR = 1e-8
# Windows scored per batch. A larger batch shares each LSTM step's Python
# overhead among more windows, but every layer's activations and LSTM states
# grow with it. On the benchmark's 65-window stream (2-vCPU box, one BLAS
# thread), chunks of 4/8/16/65 took 203/179/171/161 ms per `simulate` call
# (best of 21) at a process peak RSS of 36.0/38.1/42.6/63.4 MB: past 4, time
# gains little while memory climbs.
_SCORE_CHUNK = 4


@dataclass
class TrainConfig:
    model: ModelConfig
    mode: str = "semi"
    epochs: int | None = None  # defaults to 16 (semi) or 11 (supervised)
    lr: float = 0.001
    alpha: float = 0.5
    beta: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("semi", "supervised"):
            raise ConfigError(f"mode must be 'semi' or 'supervised', got {self.mode!r}")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 1.0 <= self.beta <= 2.0:
            raise ConfigError(f"beta must lie in [1, 2], got {self.beta}")

    @property
    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return SEMI_EPOCHS if self.mode == "semi" else SUPERVISED_EPOCHS


@dataclass
class Detector:
    """A trained model plus everything prediction needs."""

    model: WaveletAutoencoder
    mode: str
    threshold: float | None
    train_loss_mean: float
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self):
        if self.mode not in ("semi", "supervised"):
            raise ConfigError(f"detector mode must be 'semi' or 'supervised', got {self.mode!r}")
        if self.mode == "supervised" and not self.model.config.classifier:
            raise ConfigError("a supervised detector needs a model with a classifier head")
        if self.mode == "semi" and (self.threshold is None or not math.isfinite(self.threshold)):
            raise ConfigError("a reconstruction-threshold detector needs a finite threshold")

    @property
    def cut(self) -> float:
        """Score at or above which a window counts as anomalous."""
        return self.threshold if self.mode == "semi" else 0.5


def compute_threshold(losses, beta: float) -> float:
    """``beta`` times the arithmetic mean of the losses (correctly rounded)."""
    losses = list(losses)
    if not losses:
        raise DataError("cannot derive a threshold from an empty loss list")
    if not 1.0 <= beta <= 2.0:
        raise ConfigError(f"beta must lie in [1, 2], got {beta}")
    return beta * (math.fsum(losses) / len(losses))


def _stored(array: np.ndarray) -> np.ndarray:
    """The value a detector file keeps: rounded to float32, widened back."""
    return array.astype(np.float32).astype(np.float64)


def fit_channel_stats(windows: np.ndarray):
    """Per-channel mean and floored std of a (N, C, T) array, at stored precision."""
    stacked = np.concatenate(windows, axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    return _stored(mean), _stored(np.maximum(std, STD_FLOOR))


def _checked_windows(items, cfg: ModelConfig) -> np.ndarray:
    """Fragments, (C, T) arrays or one (N, C, T) array as a (N, C, T)
    float64 array. An empty input, a window of the wrong shape or a
    non-finite value raises ``DataError``."""
    want = (cfg.channels, cfg.fragment_length)
    if not isinstance(items, np.ndarray):
        items = [np.asarray(getattr(f, "values", f), dtype=np.float64) for f in items]
        for i, values in enumerate(items):
            if values.shape != want:
                raise DataError(f"window {i} has shape {values.shape}, expected {want}")
    windows = np.asarray(items, dtype=np.float64)
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
    return [xn, *mdwd(xn, get_family(cfg.wavelet), cfg.levels).details]


def _finish(model, mode, windows, mean, std, beta) -> Detector:
    """Round the weights to stored precision, then calibrate on the
    autoregressive reconstruction losses of the training windows."""
    for p in model.parameters():
        p.data = _stored(p.data)
    losses = _scores(model, mean, std, windows, head=False)
    return Detector(
        model=model,
        mode=mode,
        threshold=compute_threshold(losses, beta) if mode == "semi" else None,
        train_loss_mean=math.fsum(losses) / len(losses),
        norm_mean=mean,
        norm_std=std,
    )


def train(fragments, cfg: TrainConfig, progress=None) -> Detector:
    """Fit a detector, calling ``progress(epoch, mean_loss)`` after each epoch.

    ``semi`` mode takes normal-only fragments and minimizes reconstruction
    alone; ``supervised`` mode takes 0/1-labeled fragments and a model with
    a classifier head, and adds the head's cross-entropy. An epoch whose
    mean loss is not finite stops training with ``DataError``.
    """
    windows = _checked_windows(fragments, cfg.model)
    supervised = cfg.mode == "supervised"
    labels = [getattr(f, "label", None if supervised else 0) for f in fragments]
    for i, label in enumerate(labels):
        if supervised and label not in (0, 1):
            raise DataError(f"fragment {i} is missing a 0/1 label")
        if not supervised and label != 0:
            raise DataError(f"fragment {i} is labeled anomalous; normal-only training requires clean data")
    if supervised and not cfg.model.classifier:
        raise ConfigError("supervised training requires a model config with classifier=True")

    mean, std = fit_channel_stats(windows)
    scales = _scale_inputs(windows, cfg.model, mean, std)
    model = WaveletAutoencoder(cfg.model)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    order_rng = np.random.default_rng(cfg.seed)

    for epoch in range(cfg.resolved_epochs):
        total = 0.0
        for idx in order_rng.permutation(len(windows)):
            inputs = [s[idx] for s in scales]
            code, acts = model.encode(inputs)
            loss = reconstruction_loss(inputs, model.decode(code, acts))
            if supervised:
                loss_c = bce_with_logits(model.logit(code), labels[idx])
                loss = loss * cfg.alpha + loss_c * (1.0 - cfg.alpha)
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            total += loss.item()
        mean_loss = total / len(windows)
        if not math.isfinite(mean_loss):
            raise DataError(f"training diverged: epoch {epoch + 1} has mean loss {mean_loss}")
        if progress is not None:
            progress(epoch, mean_loss)

    return _finish(model, cfg.mode, windows, mean, std, cfg.beta)


def _scores(model, mean, std, windows: np.ndarray, head: bool) -> np.ndarray:
    """No-grad scores of checked (N, C, T) raw windows, ``_SCORE_CHUNK`` at
    a time: autoregressive reconstruction losses, or head probabilities."""
    scores = []
    for start in range(0, len(windows), _SCORE_CHUNK):
        inputs = _scale_inputs(windows[start : start + _SCORE_CHUNK], model.config, mean, std)
        with no_grad():
            code = model.encode(inputs)[0]
            if head:
                scores.append(model.classify(code).data[:, 0])
            else:
                scores.append(reconstruction_loss(inputs, model.decode(code)).data)
    return np.concatenate(scores)


def score_windows(detector: Detector, windows) -> np.ndarray:
    """Scores of a (N, C, T) array or a sequence of fragments or (C, T)
    windows: the reconstruction loss (threshold mode) or anomaly probability
    (head mode) of each. A window of the wrong shape or holding NaN or
    infinity raises ``DataError``."""
    return _scores(detector.model, detector.norm_mean, detector.norm_std,
                   _checked_windows(windows, detector.model.config), head=detector.mode == "supervised")


def score_fragment(detector: Detector, fragment) -> float:
    """Reconstruction loss (threshold mode) or anomaly probability (head mode)."""
    return float(score_windows(detector, [fragment])[0])


def predict_fragment(detector: Detector, fragment):
    """Returns (label, score); the label comparison is >= in both modes."""
    score = score_fragment(detector, fragment)
    return int(score >= detector.cut), score


def evaluate_fragments(detector: Detector, fragments) -> MetricsReport:
    scores = score_windows(detector, fragments)
    preds = [int(score >= detector.cut) for score in scores]
    labels = [f.label for f in fragments]
    return compute_metrics(preds, labels)
