import numpy as np
import pytest

from wavedetect.autodiff import Tensor, _as_tensor, _trace, reshape
from wavedetect.nn import lstm_sequence


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


def lstm_step(a, h, c, params):
    """One LSTM step of a batch: ``a`` is (B,in), ``h`` and ``c`` are (B,H).
    Runs as a one-step, one-sequence ``lstm_sequence``; returns (h, c)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    [(_, h, c)] = lstm_sequence([reshape(a, a.shape + (1,))], [h], [c], [params])
    return h, c


def tsum(a) -> Tensor:
    """Sum of all elements as a scalar graph node: the loss of a gradcheck."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    if _trace((a,)):
        shape = a.data.shape
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (np.full(shape, float(g)),)
    return out


def tanh(a) -> Tensor:
    """Elementwise tanh as a graph node, for the per-gate LSTM reference."""
    a = _as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t)
    if _trace((a,)):
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (g * (1.0 - t * t),)
    return out
