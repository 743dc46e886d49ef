"""The multiscale autoencoder.

One branch per scale: the raw signal is scale 0 and each wavelet detail
level l in 1..L is its own scale with C channels and T/2**l samples. A
branch runs a strided conv stack (every kernel spans all input channels,
so channel correlations are mixed from the first layer), then an LSTM
encoder whose last hidden state is that branch's slice of the global
code; as in EncDec-AD (Malhotra et al. 2016, arXiv:1607.00148), no cell
state is read. Decoding mirrors this: a dense layer re-initializes the
decoder hidden state from the global code, an LSTM walks the sequence in
reverse order, a dense step head (``nn.step_dense``, one graph node) maps
hidden states back to conv-activation space, and a transposed-conv stack
restores the signal or detail array. Every conv layer and every deconv
layer but the last applies its ReLU inside its own graph node.

The decoder is teacher-forced: at step t it reads the encoder's conv
activation at t + 1, and a zero step at t = T-1, so ``decode`` takes the
code together with the (B, F, T) conv activations ``encode`` returned.
Both LSTM passes read those activations in place; the decoder's shift by
one step happens inside ``nn.lstm_sequence``, so no shifted or padded
copy of them is kept. Training and scoring run this one pass.
Each step output is predicted from the next true activation and the
decoder state, so the reconstruction loss is a one-step prediction error,
the usual LSTM anomaly score (Malhotra et al. 2015, ESANN). A decoder that
fed back its own outputs at scoring time would run in a regime it never
trained in (exposure bias; Bengio et al. 2015, arXiv:1506.03099).

Each LSTM pass is one ``nn.lstm_sequence`` call that runs the LSTMs of
all scales in one time loop, a single graph node with its own backward
pass; the encoder's node is the code, and each scale's step head reads
its own columns of the decoder's. ``encode`` takes the list of scale
inputs (the normalized signal, then its detail arrays), which
``training`` builds; the model itself neither normalizes nor decomposes,
nor computes its loss: the scale inputs are also the reconstruction
targets of ``nn.reconstruction_loss``, one graph node that treats them
as constants.
Every pass takes a batch: a scale input is (B, C, T >> l) and the code
(B, code_length); a lone window is a batch of one. A pass computes in
its weights' dtype: float64 while training, float32 in a detector, the
precision its file stores.

Strided layers use even kernels with padding (kernel - stride) / 2, which
keeps every layer free of stride remainders on dyadic lengths; encode and
decode are then exact shape inverses.

``ModelConfig`` is a frozen dataclass that checks its fields once, when it
is built; ``dataclasses.replace`` builds a changed copy and checks it
again. A model therefore trusts the config it is given. Its public passes,
``encode``, ``decode``, ``logit`` and ``classify``, are the checking
boundary: each checks the shapes of what it is handed, so the ``nn``
layers they call check nothing.

A fresh model draws every tensor uniformly from ±1/sqrt(fan_in), taking
32-bit words from the standard library's ``random.Random(config.seed)``,
one ``randbytes`` call per tensor. ``numpy.random`` is never imported: it
pulls in ``secrets``, ``hashlib`` and OpenSSL, about 5 MB of resident
memory that a training or scoring process would otherwise carry.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass, field, fields
from itertools import accumulate

import numpy as np

from .autodiff import Tensor
from .data import DEFAULT_WINDOW, as_floats
from .errors import CapabilityError, ConfigError, ContractError, ShapeError, require_instances, require_integers
from .nn import LSTMParams, conv1d, deconv1d, linear, lstm_sequence, sigmoid, step_dense
from .wavelet import _check_depth, get_family


@dataclass(frozen=True)
class ConvLayer:
    features: int
    kernel: int
    stride: int


DEFAULT_CONV = (ConvLayer(32, 8, 2), ConvLayer(64, 4, 2))


def _conv_layer(i: int, layer) -> ConvLayer:
    """Conv layer ``i`` given as a ``ConvLayer`` or a (features, kernel,
    stride) triple; anything else raises ``ConfigError``."""
    if isinstance(layer, ConvLayer):
        return layer
    try:
        return ConvLayer(*layer)
    except TypeError:
        raise ConfigError(f"conv layer {i} must be a (features, kernel, stride) triple, got {layer!r}") from None


@dataclass(frozen=True)
class ModelConfig:
    channels: int
    fragment_length: int = DEFAULT_WINDOW
    levels: int = 3
    conv: tuple = DEFAULT_CONV
    hidden: int = 32
    classifier: bool = False
    wavelet: str = "haar"
    seed: int = 0

    def __post_init__(self):
        try:
            layers = list(self.conv)
        except TypeError:
            raise ConfigError(f"conv must be a sequence of conv layers, got {self.conv!r}") from None
        object.__setattr__(self, "conv", tuple(_conv_layer(i, layer) for i, layer in enumerate(layers)))
        # A model built from stored tensors creates no array from these
        # sizes, so a float would pass unnoticed.
        require_integers(("channels", self.channels), ("fragment_length", self.fragment_length),
                         ("levels", self.levels), ("hidden", self.hidden), ("seed", self.seed),
                         *((f"conv layer {i} {name}", getattr(layer, name))
                           for i, layer in enumerate(self.conv) for name in ("features", "kernel", "stride")))
        # Kept as Python ints, which a detector file's JSON config can hold; a numpy integer it cannot.
        for name in ("channels", "fragment_length", "levels", "hidden", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "conv", tuple(ConvLayer(*map(int, astuple(layer))) for layer in self.conv))
        # Any truthy value would build a head, and a detector file would store it as given.
        if not isinstance(self.classifier, bool):
            raise ConfigError(f"classifier must be True or False, got {self.classifier!r}")
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
        get_family(self.wavelet)
        if self.levels:
            _check_depth(self.fragment_length, self.wavelet, self.levels)
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
    """Every field of ``config``, with ``conv`` as [[features, kernel, stride], ...]."""
    return {**{f.name: getattr(config, f.name) for f in fields(config)},
            "conv": [list(astuple(layer)) for layer in config.conv]}


def config_from_dict(data: dict) -> ModelConfig:
    return ModelConfig(**{"conv": (), **data})


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


class WaveletAutoencoder:
    """All learnable parameters plus the encode/decode/classify passes."""

    def __init__(self, config: ModelConfig):
        """A model with a fresh uniform init: each tensor's values lie in
        ±1/sqrt(fan_in), drawn from ``random.Random(config.seed)``."""
        require_instances(ConfigError, ("config", config, ModelConfig))
        draw = random.Random(config.seed).randbytes

        def uniform(name, fan_in, shape):
            # 32-bit words w spread evenly over [-bound, bound).
            bound = np.sqrt(1.0 / fan_in)
            words = np.frombuffer(draw(4 * math.prod(shape)), "<u4").reshape(shape)
            return Tensor(words * (bound * 2.0**-31) - bound, requires_grad=True)

        self._build(config, uniform)

    @classmethod
    def _from_arrays(cls, config: ModelConfig, array) -> "WaveletAutoencoder":
        """The model whose tensor ``name`` is ``array(name, shape)``, built
        without a random init; its tensors need no grad, so it records no graph."""
        model = cls.__new__(cls)
        model._build(config, lambda name, fan_in, shape: Tensor(array(name, shape)))
        return model

    def frozen(self, dtype=None) -> "WaveletAutoencoder":
        """A model whose tensors need no grad, so that it records no graph.
        Without a ``dtype`` it shares this model's arrays, copying none, and
        computes the same; with one, it holds each array cast to ``dtype``,
        sharing those already of it. A detector's model is the float32 view."""
        arrays = {name: t.data for name, t in self._named}
        return self._from_arrays(self.config, lambda name, shape: np.asarray(arrays[name], dtype))

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

    @property
    def dtype(self) -> np.dtype:
        """The weights' dtype, which every buffer of a forward pass takes:
        float64 for a model in training, float32 for a detector's."""
        return self._named[0][1].data.dtype

    # -- forward passes ---------------------------------------------------

    def encode(self, inputs):
        """Run every scale branch; returns (code, per-scale conv activations).

        ``inputs`` holds one batch per scale in order 0..L: the normalized
        signals (B, C, T), then wavelet detail level l as (B, C, T >> l). The
        (B, code_length) code concatenates each scale's last encoder hidden
        state in scale order 0..L, which is the fixed layout the decoder and
        classifier rely on. Scale s's activations are the rectified output
        of its conv stack, (B, F, T_s) for the T_s steps of its LSTMs; the
        encoder LSTM reads them, and ``decode`` takes them back. The inputs
        are cast to the weights' dtype (``dtype``), so the code and the
        activations are of it too.
        """
        cfg = self.config
        got = len(inputs) if isinstance(inputs, (list, tuple)) else type(inputs).__name__
        if got != cfg.levels + 1:
            raise ShapeError(f"expected a list of {cfg.levels + 1} scale inputs, got {got}")
        values = [as_floats(x, f"scale {scale} input") for scale, x in enumerate(inputs)]
        nb = len(values[0]) if values[0].ndim == 3 else None
        dtype = self.dtype
        acts = []
        for scale, (x, branch) in enumerate(zip(values, self.branches)):
            want = (cfg.channels, cfg.fragment_length >> scale)
            if x.shape != (nb, *want):
                raise ShapeError(f"scale {scale} input has shape {x.shape}, expected a batch "
                                 f"({'B' if nb is None else nb}, {want[0]}, {want[1]})")
            a = Tensor(x.astype(dtype, copy=False))
            for (kernels, bias), layer in zip(branch.conv, cfg.conv):
                a = conv1d(a, kernels, bias, layer.stride, padding_for(layer))
            acts.append(a)
        zeros = [np.zeros((nb, cfg.hidden), dtype)] * len(values)
        return lstm_sequence(acts, zeros, [b.encoder for b in self.branches]), acts

    def decode(self, code, teacher):
        """Reconstruct the signal and every detail array from the code and
        the per-scale conv activations ``encode`` returned. Walking
        t = T-1..0, the decoder LSTM's step t reads the activation at t + 1,
        or a zero step at t = T-1. ``teacher`` is a list or tuple of one
        (B, F, T_s) batch per scale; scale s's step head reads the T_s
        columns of the decoder's hidden states after those of scales < s."""
        cfg = self.config
        code = self._code(code)
        nb = len(code.data)
        got = len(teacher) if isinstance(teacher, (list, tuple)) else type(teacher).__name__
        if got != cfg.levels + 1:
            raise ContractError(f"expected a list of {cfg.levels + 1} teacher activations, got {got}")
        teacher = [acts if isinstance(acts, Tensor) else Tensor(as_floats(acts, f"scale {scale} teacher activations"))
                   for scale, acts in enumerate(teacher)]
        for scale, acts in enumerate(teacher):
            want = (nb, cfg.conv_features, cfg.conv_lengths(scale)[-1])
            if acts.data.shape != want:
                raise ContractError(f"teacher activations for scale {scale} have shape {acts.shape}, not {want}")
        h0s = [linear(code, b.dec_init_w, b.dec_init_b) for b in self.branches]
        hs = lstm_sequence(teacher, h0s, [b.decoder for b in self.branches], decoder=True)
        offsets = list(accumulate((acts.data.shape[2] for acts in teacher), initial=0))
        return [self._deconv(branch, step_dense(hs, branch.step_w, branch.step_b, slice(lo, hi)))
                for branch, lo, hi in zip(self.branches, offsets, offsets[1:])]

    def _deconv(self, branch, acts):
        cfg = self.config
        last = len(branch.deconv) - 1
        for i, (kernels, bias) in enumerate(branch.deconv):
            layer = cfg.conv[last - i]
            acts = deconv1d(acts, kernels, bias, layer.stride, padding_for(layer), relu=i < last)
        return acts

    def _code(self, code) -> Tensor:
        """``code`` as a tensor, checked to be a (B, code_length) batch."""
        code = code if isinstance(code, Tensor) else Tensor(as_floats(code, "code"))
        if code.data.ndim != 2 or code.data.shape[1] != self.config.code_length:
            raise ShapeError(f"code shape {code.shape} does not match (B, {self.config.code_length})")
        return code

    def logit(self, code):
        """The classifier head's logits of a (B, code_length) batch of codes,
        shape (B, 1). Training takes its loss from the logit
        (``nn.supervised_loss``)."""
        if self.classifier_w is None:
            raise CapabilityError("model was built without a classifier head")
        return linear(self._code(code), self.classifier_w, self.classifier_b)

    def classify(self, code) -> np.ndarray:
        """The anomaly probability of each code of a batch, shape (B,): the
        sigmoid of ``logit``, a plain array outside the graph."""
        return sigmoid(self.logit(code).data[:, 0])

