"""The multiscale autoencoder.

One branch per scale: the raw signal is scale 0 and each wavelet detail
level l in 1..L is its own scale with C channels and T/2**l samples. A
branch runs a strided conv stack (every kernel spans all input channels,
so channel correlations are mixed from the first layer), then an LSTM
encoder whose final hidden state is that branch's slice of the global
code. Decoding mirrors this: a dense layer re-initializes the decoder
hidden state from the global code, an LSTM walks the sequence in reverse
order (teacher-forced during training, feeding back its own step outputs
during inference), a dense step head maps hidden states back to
conv-activation space, and a transposed-conv stack restores the signal or
detail array. The last deconv layer is linear; every other conv/deconv
layer uses ReLU.

Each LSTM pass is one ``nn.lstm_sequence`` call that runs the LSTMs of
all scales in one time loop, a single graph node with its own backward
pass. The autoregressive decode is inference only: it folds the step head
into the recurrence (``nn.lstm_feedback``, again all scales in one loop),
computes every step output with one matrix product afterwards, and records
no graph. ``encode`` takes the list of scale inputs (the normalized
signal, then its detail arrays), which ``training`` builds; the model
itself neither normalizes nor decomposes. Every pass takes an optional
leading batch axis: a scale input is (C, T >> l) or a batch
(B, C, T >> l), and the code is (code_length,) or (B, code_length) to
match.

Strided layers use even kernels with padding (kernel - stride) / 2, which
keeps every layer free of stride remainders on dyadic lengths; encode and
decode are then exact shape inverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, add, concat, matmul, no_grad, relu, reshape, sigmoid
from .errors import CapabilityError, ConfigError, ContractError, ShapeError
from .nn import LSTMParams, conv1d, deconv1d, linear, lstm_feedback, lstm_sequence, mse_loss
from .wavelet import get_family


@dataclass(frozen=True)
class ConvLayer:
    features: int
    kernel: int
    stride: int


DEFAULT_CONV = (ConvLayer(32, 8, 2), ConvLayer(64, 4, 2))


@dataclass
class ModelConfig:
    channels: int
    fragment_length: int = 512
    levels: int = 3
    conv: tuple = DEFAULT_CONV
    hidden: int = 32
    classifier: bool = False
    wavelet: str = "haar"
    seed: int = 0

    def __post_init__(self):
        self.conv = tuple(
            layer if isinstance(layer, ConvLayer) else ConvLayer(*layer) for layer in self.conv
        )
        self.validate()

    def validate(self):
        # Checked here, not left to numpy: a model built from stored tensors
        # creates no array from these sizes, so a float would pass unnoticed.
        sizes = [("channels", self.channels), ("fragment_length", self.fragment_length),
                 ("levels", self.levels), ("hidden", self.hidden), ("seed", self.seed)]
        sizes += [(f"conv layer {i} {name}", getattr(layer, name))
                  for i, layer in enumerate(self.conv) for name in ("features", "kernel", "stride")]
        for name, value in sizes:
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.hidden < 1:
            raise ConfigError(f"hidden size must be >= 1, got {self.hidden}")
        if self.levels < 0:
            raise ConfigError(f"levels must be >= 0, got {self.levels}")
        if self.fragment_length < 1:
            raise ConfigError("fragment_length must be positive")
        if self.levels and self.fragment_length % (1 << self.levels) != 0:
            raise ConfigError(
                f"fragment_length {self.fragment_length} is not divisible by 2**{self.levels}"
            )
        family = get_family(self.wavelet)
        if self.levels and self.fragment_length >> (self.levels - 1) < len(family):
            raise ConfigError(
                f"{self.levels} levels leave a stage shorter than the {self.wavelet} filter"
            )
        if not self.conv:
            raise ConfigError("at least one conv layer is required")
        for i, layer in enumerate(self.conv):
            if layer.features < 1 or layer.kernel < 1 or layer.stride < 1:
                raise ConfigError(f"conv layer {i} has a non-positive dimension: {layer}")
            if layer.kernel < layer.stride or (layer.kernel - layer.stride) % 2 != 0:
                raise ConfigError(
                    f"conv layer {i}: kernel {layer.kernel} and stride {layer.stride} must "
                    "differ by a non-negative even amount so strided shapes invert exactly"
                )
        for scale in range(self.levels + 1):
            self.conv_lengths(scale)

    def conv_lengths(self, scale: int) -> list:
        """Sequence lengths entering each conv layer of a scale, plus the output."""
        n = self.fragment_length >> scale
        lengths = [n]
        for i, layer in enumerate(self.conv):
            if n % layer.stride != 0:
                raise ConfigError(
                    f"scale {scale}, conv layer {i}: stride {layer.stride} does not divide "
                    f"the incoming length {n}"
                )
            n //= layer.stride
            lengths.append(n)
        return lengths

    @property
    def code_length(self) -> int:
        return (self.levels + 1) * self.hidden

    @property
    def conv_features(self) -> int:
        return self.conv[-1].features


def padding_for(layer: ConvLayer) -> int:
    return (layer.kernel - layer.stride) // 2


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "channels": config.channels,
        "fragment_length": config.fragment_length,
        "levels": config.levels,
        "conv": [[l.features, l.kernel, l.stride] for l in config.conv],
        "hidden": config.hidden,
        "classifier": config.classifier,
        "wavelet": config.wavelet,
        "seed": config.seed,
    }


def config_from_dict(data: dict) -> ModelConfig:
    kwargs = dict(data)
    kwargs["conv"] = tuple(ConvLayer(*layer) for layer in kwargs.get("conv", []))
    return ModelConfig(**kwargs)


@dataclass
class ScaleBranch:
    conv: list = field(default_factory=list)      # [(kernels, bias), ...]
    encoder: LSTMParams = None
    dec_init_w: Tensor = None
    dec_init_b: Tensor = None
    decoder: LSTMParams = None
    step_w: Tensor = None
    step_b: Tensor = None
    deconv: list = field(default_factory=list)    # deepest layer first


def _uniform(rng, fan_in, shape) -> Tensor:
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class WaveletAutoencoder:
    """All learnable parameters plus the encode/decode/classify passes."""

    def __init__(self, config: ModelConfig):
        config.validate()
        rng = np.random.default_rng(config.seed)
        self._build(config, lambda name, fan_in, shape: _uniform(rng, fan_in, shape))

    @classmethod
    def _from_arrays(cls, config: ModelConfig, array) -> "WaveletAutoencoder":
        """The model whose tensor ``name`` is ``array(name, shape)``, built
        without drawing a random init."""
        config.validate()
        model = cls.__new__(cls)
        model._build(config, lambda name, fan_in, shape: Tensor(array(name, shape), requires_grad=True))
        return model

    def _build(self, config: ModelConfig, make):
        """Create every tensor, in the fixed order of ``named_parameters``,
        as ``make(name, fan_in, shape)``."""
        self.config = config
        self._named: list[tuple[str, Tensor]] = []

        def param(name, fan_in, shape):
            tensor = make(name, fan_in, shape)
            self._named.append((name, tensor))
            return tensor

        self.branches = [self._build_branch(scale, param) for scale in range(config.levels + 1)]
        self.classifier_w = None
        self.classifier_b = None
        if config.classifier:
            self.classifier_w = param("classifier.weight", config.code_length, (1, config.code_length))
            self.classifier_b = param("classifier.bias", config.code_length, (1,))

    def _build_branch(self, scale: int, param) -> ScaleBranch:
        cfg = self.config
        hid = cfg.hidden
        branch = ScaleBranch()
        name = f"scale{scale}"
        feats = cfg.channels
        for i, layer in enumerate(cfg.conv):
            fan_in = feats * layer.kernel
            branch.conv.append((param(f"{name}.conv{i}.kernel", fan_in, (layer.features, feats, layer.kernel)),
                                param(f"{name}.conv{i}.bias", fan_in, (layer.features,))))
            feats = layer.features

        def lstm(prefix):
            return LSTMParams(w_x=param(f"{prefix}.w_x", feats, (4 * hid, feats)),
                              w_h=param(f"{prefix}.w_h", hid, (4 * hid, hid)),
                              b=param(f"{prefix}.b", hid, (4 * hid,)))

        branch.encoder = lstm(f"{name}.enc")
        branch.dec_init_w = param(f"{name}.dec_init.weight", cfg.code_length, (hid, cfg.code_length))
        branch.dec_init_b = param(f"{name}.dec_init.bias", cfg.code_length, (hid,))
        branch.decoder = lstm(f"{name}.dec")
        branch.step_w = param(f"{name}.step.weight", hid, (feats, hid))
        branch.step_b = param(f"{name}.step.bias", hid, (feats,))

        in_feats = [cfg.channels] + [layer.features for layer in cfg.conv[:-1]]
        for i in range(len(cfg.conv) - 1, -1, -1):
            layer = cfg.conv[i]
            fan_in = layer.features * layer.kernel
            branch.deconv.append((
                param(f"{name}.deconv{i}.kernel", fan_in, (layer.features, in_feats[i], layer.kernel)),
                param(f"{name}.deconv{i}.bias", fan_in, (in_feats[i],))))
        return branch

    def named_parameters(self):
        return list(self._named)

    def parameters(self):
        return [t for _, t in self._named]

    # -- forward passes ---------------------------------------------------

    def encode(self, inputs):
        """Run every scale branch; returns (code, per-scale conv activations).

        ``inputs`` holds one array per scale in order 0..L: the normalized
        signal (C, T), then wavelet detail level l as (C, T >> l), all with
        or without the same leading batch axis. The code concatenates the
        final encoder hidden states in scale order 0..L, which is the fixed
        layout the decoder and classifier rely on.
        """
        cfg = self.config
        got = len(inputs) if isinstance(inputs, (list, tuple)) else type(inputs).__name__
        if got != cfg.levels + 1:
            raise ShapeError(f"expected a list of {cfg.levels + 1} scale inputs, got {got}")
        values = [np.asarray(x, dtype=np.float64) for x in inputs]
        lead = values[0].shape[:1] if values[0].ndim == 3 else ()
        activations = []
        for scale, (x, branch) in enumerate(zip(values, self.branches)):
            want = lead + (cfg.channels, cfg.fragment_length >> scale)
            if x.shape != want:
                raise ShapeError(f"scale {scale} input has shape {x.shape}, expected {want}")
            acts = Tensor(x)
            for (kernels, bias), layer in zip(branch.conv, cfg.conv):
                acts = relu(conv1d(acts, kernels, bias, layer.stride, padding_for(layer)))
            activations.append(acts)
        zeros = [np.zeros(lead + (cfg.hidden,))] * len(values)
        runs = lstm_sequence(activations, zeros, zeros, [b.encoder for b in self.branches])
        return concat([h for _, h, _ in runs]), activations

    def decode(self, code, teacher_activations=None):
        """Reconstruct the signal and every detail array from the code.

        With ``teacher_activations`` (the encoder's conv activations) the
        LSTM decoder consumes ground-truth step inputs; without them it
        feeds back its own step outputs, records no graph, and so cannot be
        backpropagated through.
        """
        cfg = self.config
        code = code if isinstance(code, Tensor) else Tensor(code)
        if code.data.ndim not in (1, 2) or code.data.shape[-1] != cfg.code_length:
            raise ShapeError(
                f"code shape {code.shape} does not match ({cfg.code_length},), "
                "with or without a batch axis"
            )
        lead = code.data.shape[:-1]
        if teacher_activations is None:
            with no_grad():
                return self._decode_free(code, lead)
        if len(teacher_activations) != cfg.levels + 1:
            raise ContractError(
                f"expected {cfg.levels + 1} teacher activation sequences, "
                f"got {len(teacher_activations)}"
            )
        feats = cfg.conv_features
        inputs, h0s = [], []
        for scale, branch in enumerate(self.branches):
            steps = cfg.conv_lengths(scale)[-1]
            taught = teacher_activations[scale]
            taught = taught if isinstance(taught, Tensor) else Tensor(taught)
            if taught.data.shape != lead + (feats, steps):
                raise ContractError(
                    f"teacher activations for scale {scale} have shape {taught.shape}, "
                    f"expected {lead + (feats, steps)}"
                )
            # Walking t = T-1..0, step t consumes the activation at t + 1
            # (zeros at the first step).
            inputs.append(concat([taught[..., 1:], np.zeros(lead + (feats, 1))]))
            h0s.append(linear(code, branch.dec_init_w, branch.dec_init_b))
        zeros = [np.zeros(lead + (cfg.hidden,))] * len(h0s)
        runs = lstm_sequence(inputs, h0s, zeros, [b.decoder for b in self.branches], reverse=True)
        return [self._deconv(branch, add(matmul(branch.step_w, hs), reshape(branch.step_b, (feats, 1))))
                for branch, (hs, _, _) in zip(self.branches, runs)]

    def _decode_free(self, code, lead):
        cfg = self.config
        codes = code.data.reshape(-1, cfg.code_length)
        h0s = [linear(codes, b.dec_init_w, b.dec_init_b).data for b in self.branches]
        hss = lstm_feedback(h0s, [np.zeros_like(h) for h in h0s], [b.decoder for b in self.branches],
                            [b.step_w.data for b in self.branches], [b.step_b.data for b in self.branches],
                            [cfg.conv_lengths(scale)[-1] for scale in range(cfg.levels + 1)], reverse=True)
        outputs = []
        for branch, hs in zip(self.branches, hss):
            step_out = branch.step_w.data @ hs + branch.step_b.data[:, None]
            outputs.append(self._deconv(branch, Tensor(step_out.reshape(lead + step_out.shape[1:]))))
        return outputs

    def _deconv(self, branch, acts):
        cfg = self.config
        for i, (kernels, bias) in enumerate(branch.deconv):
            layer = cfg.conv[len(cfg.conv) - 1 - i]
            acts = deconv1d(acts, kernels, bias, layer.stride, padding_for(layer))
            if i < len(branch.deconv) - 1:
                acts = relu(acts)
        return acts

    def logit(self, code):
        """The classifier head's logit: shape (1,), or (B, 1) for a batch of
        codes. Training takes its loss from the logit (``nn.bce_with_logits``)."""
        if self.classifier_w is None:
            raise CapabilityError("model was built without a classifier head")
        return linear(code, self.classifier_w, self.classifier_b)

    def classify(self, code):
        """Anomaly probability from the code, the sigmoid of ``logit``."""
        return sigmoid(self.logit(code))


def reconstruction_loss(targets, reconstructions) -> Tensor:
    """Sum of per-scale mean-squared errors: signal term plus one term per
    detail level. Batched (B, C, T) inputs give one loss per sample."""
    if len(targets) != len(reconstructions):
        raise ShapeError(
            f"{len(targets)} targets vs {len(reconstructions)} reconstructions"
        )
    total = None
    for target, recon in zip(targets, reconstructions):
        term = mse_loss(recon, target)
        total = term if total is None else add(total, term)
    return total
