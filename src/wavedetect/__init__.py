"""Multiscale wavelet autoencoder for anomaly detection in multichannel
sensor streams: dyadic wavelet decomposition, a per-scale conv+LSTM
autoencoder with reverse-mode autodiff, reconstruction-threshold and
classifier detectors, and a sliding-window majority-vote streaming mode.
"""

from .autodiff import Tensor
from .data import (
    AnomalyRanges,
    Fragment,
    MultiSeries,
    load_ranges,
    load_signals,
    make_fragments,
    save_ranges,
    save_signals,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    DataError,
    IngestError,
    ShapeError,
    WaveDetectError,
)
from .metrics import MetricsReport
from .model import ConvLayer, ModelConfig, WaveletAutoencoder
from .serialize import load_detector, save_detector
from .streaming import BlockRow, VoteConfig, VoteState, simulate, sweep
from .synth import GeneratorConfig, synth_generate
from .training import (
    Detector,
    TrainConfig,
    evaluate_fragments,
    score_windows,
    train,
)
from .wavelet import mdwd

__version__ = "0.1.0"
