"""Multiscale wavelet autoencoder for anomaly detection in multichannel
sensor streams: dyadic wavelet decomposition, a per-scale conv+LSTM
autoencoder with reverse-mode autodiff, reconstruction-threshold and
classifier detectors, and a sliding-window majority-vote streaming mode.
"""

from .autodiff import Tensor, no_grad
from .data import (
    AnomalyRanges,
    Fragment,
    MultiSeries,
    label_block,
    load_csv,
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
    DomainError,
    IngestError,
    ShapeError,
    WaveDetectError,
)
from .metrics import MetricsReport, compute_metrics
from .model import ConvLayer, ModelConfig, WaveletAutoencoder, reconstruction_loss
from .nn import LSTMParams, bce_with_logits, conv1d, deconv1d, linear, lstm_sequence, mse_loss
from .optim import Adam
from .serialize import load_detector, load_model, save_detector, save_model
from .streaming import BlockRow, VoteConfig, VoteState, simulate, sweep, vote_decide
from .synth import GeneratorConfig, load_generator_config, save_generator_config, synth_generate
from .training import (
    Detector,
    TrainConfig,
    compute_threshold,
    evaluate_fragments,
    predict_fragment,
    score_fragment,
    score_windows,
    train,
)
from .wavelet import (
    DB4,
    HAAR,
    WaveletDecomposition,
    WaveletFamily,
    dwt_level,
    get_family,
    idwt_level,
    mdwd,
    mra_components,
    reconstruct,
)

__version__ = "0.1.0"
