from itertools import accumulate

import numpy as np
import pytest

from wavedetect.autodiff import Tensor, _as_tensor, _node
from wavedetect.errors import ShapeError
from wavedetect import nn
from wavedetect.wavelet import get_family


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def numeric_grad(f, tensor, h=1e-5):
    """Central finite differences of scalar-valued f() w.r.t. tensor.data."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-8):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def frozen(obj):
    """``obj`` with every tensor in it, also inside an ``LSTMParams``, a list
    or a tuple, replaced by one that shares its array but needs no grad. A
    gradcheck's finite differences perturb the shared arrays in place and
    run the frozen copy, which records no graph."""
    if isinstance(obj, Tensor):
        return Tensor(obj.data)
    if isinstance(obj, nn.LSTMParams):
        return nn.LSTMParams(*map(frozen, (obj.w_x, obj.w_h, obj.b)))
    return type(obj)(map(frozen, obj)) if isinstance(obj, (list, tuple)) else obj


def tsum(a) -> Tensor:
    """Sum of all elements as a scalar graph node: the loss of a gradcheck."""
    a = _as_tensor(a)
    shape = a.data.shape
    return _node(a.data.sum(), (a,), lambda g: (np.full(shape, float(g)),))


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back to the shape of its operand."""
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def add(a, b) -> Tensor:
    """Elementwise a + b with numpy broadcasting, as a graph node: the
    engine tests and the composed references of fused ops."""
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape
    # The two gradients must not share one buffer.
    return _node(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(g.copy(), bsh)))


def mul(a, b) -> Tensor:
    """Elementwise a * b with numpy broadcasting, as a graph node."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    return _node(ad * bd, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def sigmoid(a) -> Tensor:
    """Elementwise ``nn.sigmoid`` as a graph node, for the per-gate LSTM
    reference."""
    a = _as_tensor(a)
    s = nn.sigmoid(a.data)
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def matmul(w, x) -> Tensor:
    """(m,n) @ (n,), or (m,n) @ (B,n,k) on every matrix of a batch, as a
    graph node: the per-gate LSTM reference and the composed step head."""
    w, x = _as_tensor(w), _as_tensor(x)
    wd, xd = w.data, x.data

    def vjp(g):
        dw = np.outer(g, xd) if xd.ndim == 1 else np.matmul(g, xd.transpose(0, 2, 1)).sum(axis=0)
        return dw, wd.T @ g

    return _node(wd @ xd, (w, x), vjp)


def concat(parts) -> Tensor:
    """Tensors joined along their last axis as a graph node, all other
    dimensions equal: the per-gate reference's code and decoder output."""
    parts = tuple(_as_tensor(p) for p in parts)
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.ndim < 1 or p.data.shape[:-1] != lead:
            raise ShapeError(f"concat needs equal leading dimensions, got {[q.shape for q in parts]}")
    offsets = list(accumulate((p.data.shape[-1] for p in parts), initial=0))

    def vjp(g):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=-1), parts, vjp)


def reshape(a, shape) -> Tensor:
    """``a.data.reshape(shape)`` as a graph node."""
    a = _as_tensor(a)
    orig = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def take(a, key) -> Tensor:
    """``a.data[key]`` for basic (slice and integer) indexing as a graph
    node, whose gradient is zero outside the part taken: the per-gate LSTM
    reference's gate slices and the engine tests."""
    a = _as_tensor(a)
    shape = a.data.shape

    def vjp(g):
        buf = np.zeros(shape)
        buf[key] = g
        return (buf,)

    return _node(a.data[key], (a,), vjp)


def tanh(a) -> Tensor:
    """Elementwise tanh as a graph node, for the per-gate LSTM reference."""
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return _node(t, (a,), lambda g: (g * (1.0 - t * t),))


def gate_params(p, gate):
    """(w_i, b_i, w_h, b_h) of one gate, as ``take`` slices of the fused
    tensors (gate order ifog); the one fused bias takes the b_i slot and
    zero the b_h slot."""
    k = "ifog".index(gate)
    rows = slice(k * p.hidden_size, (k + 1) * p.hidden_size)
    return take(p.w_x, rows), take(p.b, rows), take(p.w_h, rows), Tensor(np.zeros(p.hidden_size))


def lstm_step(a, h, c, p):
    """One LSTM step of one sample as four per-gate graphs, the composition
    that the fused ``nn.lstm_sequence`` replaced: ``a`` is (in,), ``h`` and
    ``c`` are (H,) and ``p`` holds the ``LSTMParams``. Returns (h, c)."""

    def gate(name, activation):
        w_i, b_i, w_h, b_h = gate_params(p, name)
        return activation(add(add(matmul(w_i, a), b_i), add(matmul(w_h, h), b_h)))

    i, f, g, o = gate("i", sigmoid), gate("f", sigmoid), gate("g", tanh), gate("o", sigmoid)
    c = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c)), c


def idwt_level(approx, detail, family) -> np.ndarray:
    """Exact inverse of one level of ``wavelet.mdwd`` (``wavelet._level``)
    with the family named ``family``, under periodic extension: the
    analysis taps scattered back, which inverts an orthonormal bank."""
    a = np.asarray(approx, dtype=np.float64)
    d = np.asarray(detail, dtype=np.float64)
    if a.shape != d.shape:
        raise ShapeError(f"approx shape {a.shape} != detail shape {d.shape}")
    half = a.shape[-1]
    n = 2 * half
    x = np.zeros(a.shape[:-1] + (n,))
    lo, hi = get_family(family)
    base = 2 * np.arange(half)
    for j in range(lo.size):
        x[..., (base + j) % n] += lo[j] * a + hi[j] * d
    return x


def reconstruct(details, approximation, family) -> np.ndarray:
    """Invert ``wavelet.mdwd``'s ``(details, approximation)`` back to the signal."""
    approx = approximation
    for det in reversed(details):
        approx = idwt_level(approx, det, family)
    return approx
