"""Differentiable building blocks: 1-D convolutions, the LSTM, dense
layers, and the two loss functions used for training.

Convolutions follow the cross-correlation convention common in sequence
models (no kernel flip). ``deconv1d`` is the exact linear adjoint of
``conv1d`` with the same stride and padding: reinterpreting a conv kernel
bank of shape (out,in,k) as a deconv bank of shape (in,out,k) satisfies
<conv(x), y> == <x, deconv(y)> whenever the conv consumed its input without
a stride remainder.

The LSTM has one implementation, ``lstm_sequence``: a whole sequence is a
single graph node whose backward pass is hand-written BPTT; one step is a
sequence of length one. ``lstm_feedback`` runs the same recurrence for
inference when every step's input is the previous step's output through a
dense head.

Layers take an optional leading batch axis, (C,T) or (B,C,T), and compute
every sample with the same products as a lone sample, so batched results
equal per-sample ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor, _as_tensor, _trace, mul, sigmoid, sub, tmean
from .errors import ContractError, ShapeError


def _batched(x: Tensor, what: str) -> np.ndarray:
    """The input as (B, C, T), lifting an unbatched (C, T) array to B = 1."""
    if x.data.ndim == 2:
        return x.data[None]
    if x.data.ndim == 3:
        return x.data
    raise ShapeError(f"{what} expects a (C,T) or (B,C,T) input, got shape {x.shape}")


def conv1d(x, kernels, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """Multi-channel 1-D convolution: (Cin,T) -> (Cout,T'), or
    (B,Cin,T) -> (B,Cout,T') with a leading batch axis.

    Every output channel sums over all input channels, so the very first
    layer of an encoder mixes the full channel set.
    """
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d expects (Cout,Cin,K) kernels; got {kernels.shape}")
    xb = _batched(x, "conv1d")
    nb, cin, t = xb.shape
    cout, kcin, k = kernels.data.shape
    if kcin != cin:
        raise ShapeError(f"kernel channel count {kcin} does not match input channels {cin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {cout} output channels")
    if stride < 1:
        raise ContractError("conv1d stride must be >= 1")
    if padding < 0:
        raise ContractError("conv1d padding must be >= 0")
    padded = t + 2 * padding
    if k > padded:
        raise ContractError(f"kernel width {k} exceeds padded length {padded}")

    xp = xb
    if padding:
        xp = np.zeros((nb, cin, padded))
        xp[:, :, padding : padding + t] = xb
    tout = (padded - k) // stride + 1
    # Tap j sees input positions j, j + stride, ...: one product per tap.
    span = stride * (tout - 1) + 1
    taps = [xp[:, :, j : j + span : stride] for j in range(k)]
    w = kernels.data
    y = w[:, :, 0] @ taps[0]
    for j in range(1, k):
        y += w[:, :, j] @ taps[j]
    y += bias.data[:, None]
    out = Tensor(y.reshape(x.data.shape[:-2] + y.shape[1:]))

    if _trace((x, kernels, bias)):

        def vjp(g):
            gb = g.reshape(nb, cout, tout)
            dw = np.stack([np.tensordot(gb, tap, axes=([0, 2], [0, 2])) for tap in taps], axis=2)
            db = gb.sum(axis=(0, 2))
            dxp = np.zeros((nb, cin, padded))
            for j in range(k):
                dxp[:, :, j : j + span : stride] += w[:, :, j].T @ gb
            dx = dxp[:, :, padding : padding + t] if padding else dxp
            return dx.reshape(x.data.shape), dw, db

        out.requires_grad, out._parents, out._vjp = True, (x, kernels, bias), vjp
    return out


def deconv1d(x, kernels, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed 1-D convolution: (Cin,T) -> (Cout,(T-1)*stride-2*padding+K),
    with an optional leading batch axis as in ``conv1d``."""
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
    if kernels.data.ndim != 3:
        raise ShapeError(f"deconv1d expects (Cin,Cout,K) kernels; got {kernels.shape}")
    xb = _batched(x, "deconv1d")
    nb, cin, t = xb.shape
    kcin, cout, k = kernels.data.shape
    if kcin != cin:
        raise ShapeError(f"kernel channel count {kcin} does not match input channels {cin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {cout} output channels")
    if stride < 1:
        raise ContractError("deconv1d stride must be >= 1")
    if padding < 0:
        raise ContractError("deconv1d padding must be >= 0")
    tfull = (t - 1) * stride + k
    tout = tfull - 2 * padding
    if tout < 1:
        raise ContractError("padding removes the entire deconv output")

    # Tap j of every input step lands at output position stride * t + j.
    ypad = np.zeros((nb, cout, tfull))
    span = stride * (t - 1) + 1
    for j in range(k):
        ypad[:, :, j : j + span : stride] += kernels.data[:, :, j].T @ xb
    y = ypad[:, :, padding : padding + tout]
    y += bias.data[:, None]
    out = Tensor(y.reshape(x.data.shape[:-2] + y.shape[1:]))

    if _trace((x, kernels, bias)):

        def vjp(g):
            gpad = np.zeros((nb, cout, tfull))
            gpad[:, :, padding : padding + tout] = g.reshape(nb, cout, tout)
            taps = [gpad[:, :, j : j + span : stride] for j in range(k)]
            dker = np.stack([np.tensordot(xb, tap, axes=([0, 2], [0, 2])) for tap in taps], axis=2)
            dx = kernels.data[:, :, 0] @ taps[0]
            for j in range(1, k):
                dx += kernels.data[:, :, j] @ taps[j]
            db = g.reshape(nb, cout, tout).sum(axis=(0, 2))
            return dx.reshape(x.data.shape), dker, db

        out.requires_grad, out._parents, out._vjp = True, (x, kernels, bias), vjp
    return out


def linear(x, weight, bias) -> Tensor:
    """Dense map over the last axis: x @ weight.T + bias, for x of shape
    (in,) or with leading axes (..., in)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.data.ndim != 2 or x.data.shape[-1:] != weight.data.shape[1:]:
        raise ShapeError(f"linear cannot apply a {weight.shape} weight to shape {x.shape}")
    nout, nin = weight.data.shape
    if bias.data.shape != (nout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {nout} outputs")
    # Row by row, like the LSTM's recurrent product.
    y = np.matmul(x.data[..., None, :], weight.data.T)[..., 0, :]
    y += bias.data
    out = Tensor(y)
    if _trace((x, weight, bias)):

        def vjp(g):
            g2 = g.reshape(-1, nout)
            return g @ weight.data, g2.T @ x.data.reshape(-1, nin), g2.sum(axis=0)

        out.requires_grad, out._parents, out._vjp = True, (x, weight, bias), vjp
    return out


@dataclass
class LSTMParams:
    """The weights of one LSTM, each fused over the four gates in the order
    input, forget, output, candidate (``ifog``): the three sigmoid gates,
    then the tanh candidate, so gate k owns rows k*H .. (k+1)*H - 1.

    ``w_x`` is (4H,in), ``w_h`` (4H,H) and ``b`` (4H).
    """

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LSTMParams":
        si = np.sqrt(1.0 / input_size)
        sh = np.sqrt(1.0 / hidden_size)
        return cls(
            w_x=Tensor(rng.uniform(-si, si, (4 * hidden_size, input_size)), requires_grad=True),
            w_h=Tensor(rng.uniform(-sh, sh, (4 * hidden_size, hidden_size)), requires_grad=True),
            b=Tensor(rng.uniform(-sh, sh, 4 * hidden_size), requires_grad=True),
        )

    def named(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @property
    def hidden_size(self) -> int:
        return self.w_h.data.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_x.data.shape[1]


# A sigmoid is evaluated as 0.5 + 0.5 * tanh(z / 2); halving the sigmoid
# rows of the weights (exact in floating point) lets one tanh call cover
# all four gates.
def _halving(hid: int) -> np.ndarray:
    return np.repeat([0.5, 1.0], [3 * hid, hid])


def _scan(zx, h0, c0, wh_t, keep: bool = True):
    """The recurrence over time-major input pre-activations ``zx`` (T,B,4H),
    input projection plus bias with the sigmoid columns halved, from states
    (B,H), with ``wh_t`` (H,4H) the halved recurrent weights transposed.

    Returns the hidden states (T+1,B,H) with the initial state at index 0
    and the final cell state (B,H). With ``keep`` it also returns what
    backward needs: the gate activations (T,B,4H), the cell states
    (T+1,B,H) and their tanh (T,B,H).
    """
    steps, nb, g4 = zx.shape
    hid = g4 // 4
    hs = np.empty((steps + 1, nb, hid))
    hs[0] = h0
    # One (1,H)@(H,4H) product per sample, so a sample's result does not
    # depend on the batch it is in.
    h_rows = hs[:, :, None, :]
    z_rows = np.empty((nb, 1, g4))
    a = z_rows.reshape(nb, g4)
    sig, i, f, o, g = a[:, : 3 * hid], *(a[:, k * hid : (k + 1) * hid] for k in range(4))
    c = np.array(c0, dtype=np.float64)
    ig = np.empty((nb, hid))
    tc = np.empty((nb, hid))
    if keep:
        acts = np.empty((steps, nb, g4))
        cs = np.empty((steps + 1, nb, hid))
        tcs = np.empty((steps, nb, hid))
        cs[0] = c
    for t in range(steps):
        np.matmul(h_rows[t], wh_t, out=z_rows)
        a += zx[t]
        np.tanh(a, out=a)
        sig *= 0.5
        sig += 0.5
        c *= f
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hs[t + 1])
        if keep:
            acts[t], cs[t + 1], tcs[t] = a, c, tc
    if keep:
        return hs, c, (acts, cs, tcs)
    return hs, c, None


def _scan_grad(acts, cs, tcs, wh, dhs, dc):
    """Backpropagation through time for ``_scan``.

    ``dhs`` (T,B,H) is the loss gradient arriving at each hidden state from
    outside the recurrence and ``dc`` (B,H) the one at the final cell state;
    ``wh`` (4H,H) is the unhalved recurrent matrix. Returns the gradients of
    the true (unhalved) pre-activations (T,B,4H) and of the initial states.
    """
    steps, nb, g4 = acts.shape
    hid = g4 // 4
    i, f, o, g = (acts[..., k * hid : (k + 1) * hid] for k in range(4))
    # d(pre-activation) per unit of the gradient reaching the cell state
    # (input, forget and candidate gates) or the hidden state (output gate).
    coef = np.empty((steps, nb, 4, hid))
    coef[:, :, 0] = g * i * (1.0 - i)
    coef[:, :, 1] = cs[:-1] * f * (1.0 - f)
    coef[:, :, 2] = tcs * o * (1.0 - o)
    coef[:, :, 3] = i * (1.0 - g * g)
    dc_dh = o * (1.0 - tcs * tcs)
    dz = np.empty((steps, nb, 4, hid))
    dz_o, coef_o = dz[:, :, 2], coef[:, :, 2]
    dz_flat = dz.reshape(steps, nb, g4)
    dh = np.zeros((nb, hid))
    for t in range(steps - 1, -1, -1):
        dh = dh + dhs[t]
        dc = dc + dh * dc_dh[t]
        np.multiply(coef[t], dc[:, None, :], out=dz[t])
        np.multiply(dh, coef_o[t], out=dz_o[t])
        dh = dz_flat[t] @ wh
        dc = dc * f[t]
    return dz_flat, dh, dc


def lstm_sequence(x, h0, c0, params: LSTMParams, reverse: bool = False):
    """Run an LSTM over a whole sequence as one graph node.

    ``x`` is (in,T) or (B,in,T); ``h0`` and ``c0`` are (H,) or (B,H) to
    match. Steps run over t = 0..T-1, or T-1..0 with ``reverse``. Returns
    (hs, h, c): every hidden state, (H,T) or (B,H,T) indexed by t, and the
    hidden and cell states after the last step.

    The input projection of all steps is one matrix product with the fused
    ``w_x`` hoisted out of the recurrence (Appleyard et al. 2016,
    arXiv:1604.01946); the backward pass is hand-written BPTT and returns
    gradients for ``x``, ``h0``, ``c0``, ``w_x``, ``w_h`` and ``b``.
    """
    x, h0, c0 = _as_tensor(x), _as_tensor(h0), _as_tensor(c0)
    hid, nin = params.hidden_size, params.input_size
    if x.data.ndim not in (2, 3) or x.data.shape[-2] != nin or x.data.shape[-1] < 1:
        raise ShapeError(f"lstm_sequence input shape {x.shape} does not match input size {nin}")
    lead = x.data.shape[:-2]
    if h0.data.shape != lead + (hid,) or c0.data.shape != lead + (hid,):
        raise ShapeError(
            f"lstm_sequence state shapes {h0.shape}, {c0.shape} do not match {lead + (hid,)}"
        )
    steps = x.data.shape[-1]
    nb = x.data.size // (nin * steps)
    wx, wh, b = params.w_x.data, params.w_h.data, params.b.data
    half = _halving(hid)
    x3 = x.data.reshape(nb, nin, steps)
    zx = (wx * half[:, None]) @ x3
    zx += (b * half)[:, None]
    zx = zx.transpose(2, 0, 1)  # time-major view, (T,B,4H)
    parents = (x, h0, c0, params.w_x, params.w_h, params.b)
    traced = _trace(parents)
    hs, c, saved = _scan(zx[::-1] if reverse else zx, h0.data.reshape(nb, hid),
                         c0.data.reshape(nb, hid), (wh * half[:, None]).T, keep=traced)

    packed = np.empty((nb, hid, steps + 1))
    packed[..., :steps] = (hs[:0:-1] if reverse else hs[1:]).transpose(1, 2, 0)
    packed[..., steps] = c
    core = Tensor(packed.reshape(lead + (hid, steps + 1)))
    if traced:

        def vjp(grad):
            grad = grad.reshape(nb, hid, steps + 1)
            dhs = grad[..., :steps].transpose(2, 0, 1)
            dz, dh0, dc0 = _scan_grad(*saved, wh, dhs[::-1] if reverse else dhs, grad[..., steps])
            h_in = hs[:-1]
            if reverse:  # back to time order, like x
                dz, h_in = dz[::-1], h_in[::-1]
            dz = dz.transpose(1, 2, 0)  # (B,4H,T)
            return (np.matmul(wx.T, dz).reshape(x.data.shape), dh0.reshape(h0.data.shape),
                    dc0.reshape(c0.data.shape), np.tensordot(dz, x3, axes=([0, 2], [0, 2])),
                    np.tensordot(dz, h_in, axes=([0, 2], [1, 0])), dz.sum(axis=(0, 2)))

        core.requires_grad, core._parents, core._vjp = True, parents, vjp
    last = 0 if reverse else steps - 1
    return core[..., :steps], core[..., last], core[..., steps]


def lstm_feedback(h0, c0, params: LSTMParams, head_w, head_b, steps: int,
                  reverse: bool = False) -> np.ndarray:
    """Hidden states of an LSTM whose input at each step is the previous
    step's head output ``head_w @ h + head_b`` (zeros at the first step).

    Inference only: plain arrays in and out, no graph. ``h0``/``c0`` are
    (B,H); the result is (B,H,steps), indexed like ``lstm_sequence``'s hs.
    The head folds into the recurrence,
    W_x (W_s h + b_s) + W_h h + b = (W_x W_s + W_h) h + (W_x b_s + b),
    so every step after the first is one (B,H)@(H,4H) product.
    """
    hid = params.hidden_size
    wx, wh, b = params.w_x.data, params.w_h.data, params.b.data
    half = _halving(hid)
    nb = h0.shape[0]
    first, c, _ = _scan(np.broadcast_to(b * half, (1, nb, 4 * hid)), h0, c0, (wh * half[:, None]).T,
                        keep=False)
    w_fold = (wx @ head_w + wh) * half[:, None]
    b_fold = (wx @ head_b + b) * half
    rest, _, _ = _scan(np.broadcast_to(b_fold, (steps - 1, nb, 4 * hid)), first[1], c, w_fold.T,
                       keep=False)
    hs = np.concatenate([first[1:], rest[1:]])
    return (hs[::-1] if reverse else hs).transpose(1, 2, 0)


def mse_loss(pred, target) -> Tensor:
    """Mean of squared elementwise differences; a (B,C,T) input, the batch
    layout of the model, gives one mean per sample."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    d = sub(pred, target)
    return tmean(mul(d, d), axis=(1, 2) if d.data.ndim == 3 else None)


def bce_with_logits(logit, label: int) -> Tensor:
    """Binary cross-entropy of sigmoid(logit) against a 0/1 label, as one
    graph node.

    The loss is softplus(z) - y z, evaluated as max(z, 0) - y z +
    log1p(exp(-|z|)) so it neither overflows nor rounds to a constant, and
    its gradient is sigmoid(z) - y: a head that is confidently wrong gets a
    gradient of magnitude near 1, not 0.
    """
    logit = _as_tensor(logit)
    if logit.data.size != 1:
        raise ShapeError(f"bce_with_logits expects a scalar logit, got shape {logit.shape}")
    if label not in (0, 1):
        raise ContractError(f"label must be 0 or 1, got {label!r}")
    z = float(logit.data.reshape(()))
    out = Tensor(max(z, 0.0) - label * z + math.log1p(math.exp(-abs(z))))
    if _trace((logit,)):
        # sigmoid(z) - 1 written as -sigmoid(-z) keeps its precision for z >> 0.
        grad = float(sigmoid(z).data) if label == 0 else -float(sigmoid(-z).data)
        shape = logit.data.shape
        out.requires_grad, out._parents, out._vjp = True, (logit,), lambda g: (np.full(shape, g * grad),)
    return out
