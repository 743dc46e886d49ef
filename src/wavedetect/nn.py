"""Differentiable building blocks: 1-D convolutions, the LSTM, dense
layers, and the two loss functions used for training.

Convolutions follow the cross-correlation convention common in sequence
models (no kernel flip). ``deconv1d`` is the exact linear adjoint of
``conv1d`` with the same stride and padding: reinterpreting a conv kernel
bank of shape (out,in,k) as a deconv bank of shape (in,out,k) satisfies
<conv(x), y> == <x, deconv(y)> whenever the conv consumed its input without
a stride remainder.

The LSTM has one implementation, ``lstm_sequence``. It runs a list of
sequences, one LSTM each (the model's scales), in one Python time loop as
a single graph node whose backward pass is hand-written BPTT. Sequences
may differ in length: the loop runs as many steps as the longest, and a
shorter sequence drops out once its own steps are done, so the default
model's four scales of 128, 64, 32 and 16 steps take 128 iterations, not
240. One sequence is a list of one, and one step a sequence of length one.
``lstm_feedback`` runs the same loop for inference when every step's input
is the previous step's output through a dense head.

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


def _phases(lengths):
    """(start, end, k) for each stretch of steps that exactly the first k
    sequences run. ``lengths`` does not increase, so a sequence leaves the
    loop once its steps are done."""
    start = 0
    for k in range(len(lengths), 0, -1):
        if lengths[k - 1] > start:
            yield start, lengths[k - 1], k
            start = lengths[k - 1]


def _scan(zx_of, h0, c0, wh_t, lengths, keep: bool = True):
    """S recurrences in one time loop; sequence s runs ``lengths[s]`` steps.

    ``zx_of(start, end, k)`` gives the input pre-activations of steps
    start..end-1 of the first k sequences, step-major (n,k,B,4H) or
    broadcastable to it: input projection plus bias with the sigmoid columns
    halved. The states ``h0`` and ``c0`` are (S,B,H) and ``wh_t`` (S,1,H,4H)
    holds the halved recurrent weights, transposed.

    Returns (runs, h, c): one (start, end, k, hs, saved) per phase of
    ``_phases``, where hs (n+1,k,B,H) holds the phase's hidden states with
    its entry state at index 0, then every sequence's final hidden and cell
    states (S,B,H). With ``keep``, ``saved`` holds what backward needs: the
    gate activations (n,k,B,4H), the cell states (n+1,k,B,H) and their tanh
    (n,k,B,H); otherwise it is None.
    """
    _, nb, hid = h0.shape
    g4 = 4 * hid
    h = np.array(h0, dtype=np.float64)
    c = np.array(c0, dtype=np.float64)
    runs = []
    for start, end, k in _phases(lengths):
        steps = end - start
        zx = zx_of(start, end, k)
        hs = np.empty((steps + 1, k, nb, hid))
        hs[0] = h[:k]
        # One (1,H)@(H,4H) product per sequence and sample, so a sample's
        # result depends neither on its batch nor on the other sequences.
        h_rows = hs[..., None, :]
        w = wh_t[:k]
        z_rows = np.empty((k, nb, 1, g4))
        a = z_rows.reshape(k, nb, g4)
        sig, i, f, o, g = a[..., : 3 * hid], *(a[..., q * hid : (q + 1) * hid] for q in range(4))
        ck = c[:k]  # a view: the loop updates c in place
        ig = np.empty((k, nb, hid))
        tc = np.empty((k, nb, hid))
        saved = None
        if keep:
            acts = np.empty((steps, k, nb, g4))
            cs = np.empty((steps + 1, k, nb, hid))
            tcs = np.empty((steps, k, nb, hid))
            cs[0] = ck
            saved = acts, cs, tcs
        for t in range(steps):
            np.matmul(h_rows[t], w, out=z_rows)
            a += zx[t]
            np.tanh(a, out=a)
            sig *= 0.5
            sig += 0.5
            ck *= f
            ck += np.multiply(i, g, out=ig)
            np.tanh(ck, out=tc)
            np.multiply(o, tc, out=hs[t + 1])
            if keep:
                acts[t], cs[t + 1], tcs[t] = a, ck, tc
        h[:k] = hs[steps]
        runs.append((start, end, k, hs, saved))
        del zx  # before the next phase builds its own
    return runs, h, c


def _scan_grad(runs, wh, dhs_of, dc, lengths):
    """Backpropagation through time for ``_scan``, over its ``runs`` from the
    last phase back.

    ``dhs_of(start, end, k)`` gives the loss gradient (n,k,B,H) arriving at
    each hidden state of a phase from outside the recurrence, and ``dc``
    (S,B,H) the one at each sequence's final cell state, which enters at
    that sequence's own last step; ``wh`` (S,4H,H) holds the unhalved
    recurrent matrices and ``lengths`` the sequence lengths. Returns the
    gradients of the true (unhalved) pre-activations, one (T_s,B,4H) array
    per sequence in step order, and of the initial states (S,B,H).
    """
    nb, g4 = dc.shape[1], wh.shape[1]
    dz_seq = [np.empty((n, nb, g4)) for n in lengths]
    dh = np.zeros_like(dc)
    dc = np.array(dc)
    for start, end, k, _, (acts, cs, tcs) in reversed(runs):
        steps, hid = end - start, g4 // 4
        i, f, o, g = (acts[..., q * hid : (q + 1) * hid] for q in range(4))
        # d(pre-activation) per unit of the gradient reaching the cell state
        # (input, forget and candidate gates) or the hidden state (output gate).
        coef = np.empty((steps, k, nb, 4, hid))
        coef[..., 0, :] = g * i * (1.0 - i)
        coef[..., 1, :] = cs[:-1] * f * (1.0 - f)
        coef[..., 2, :] = tcs * o * (1.0 - o)
        coef[..., 3, :] = i * (1.0 - g * g)
        dc_dh = o * (1.0 - tcs * tcs)
        dz = np.empty((steps, k, nb, 4, hid))
        dz_o, coef_o = dz[..., 2, :], coef[..., 2, :]
        dz_flat = dz.reshape(steps, k, nb, g4)
        dhs = dhs_of(start, end, k)
        dhk, dck, w = dh[:k], dc[:k], wh[:k]
        for t in range(steps - 1, -1, -1):
            dhk = dhk + dhs[t]
            dck = dck + dhk * dc_dh[t]
            np.multiply(coef[t], dck[..., None, :], out=dz[t])
            np.multiply(dhk, coef_o[t], out=dz_o[t])
            dhk = dz_flat[t] @ w
            dck = dck * f[t]
        dh[:k], dc[:k] = dhk, dck
        for s in range(k):
            dz_seq[s][start:end] = dz_flat[:, s]
    return dz_seq, dh, dc


def _by_sequence(parts, count: int) -> list:
    """Per sequence s, its (T_s, ...) slices ``part[:, s]`` of the per-phase
    (k, part) arrays it took part in, joined in step order."""
    return [np.concatenate([part[:, s] for k, part in parts if s < k]) for s in range(count)]


def _window(length: int, start: int, end: int, reverse: bool) -> slice:
    """The time positions of steps start..end-1 of a sequence of ``length``."""
    return slice(length - end, length - start) if reverse else slice(start, end)


def _time_major(z: np.ndarray, reverse: bool) -> np.ndarray:
    """A (B,X,n) window in time order as (n,B,X) in step order."""
    return (z[..., ::-1] if reverse else z).transpose(2, 0, 1)


def _time_order(hs: np.ndarray, reverse: bool) -> np.ndarray:
    """(T,B,H) hidden states in step order as (B,H,T) in time order."""
    return (hs[::-1] if reverse else hs).transpose(1, 2, 0)


def _check_lengths(lengths, what: str):
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ShapeError(f"{what} sequence lengths must not increase, got {lengths}")


def lstm_sequence(xs, h0s, c0s, params, reverse: bool = False) -> list:
    """Run one LSTM per sequence, all in one time loop, as one graph node.

    ``xs[s]`` is (in_s,T_s) or (B,in_s,T_s), every sequence with the same
    leading batch axis or none, and the lengths T_s do not increase with s.
    ``h0s[s]`` and ``c0s[s]`` are (H,) or (B,H) to match, and ``params[s]``
    holds sequence s's weights; all share the hidden size H. Steps run over
    t = 0..T_s-1, or T_s-1..0 with ``reverse``. Returns one (hs, h, c) per
    sequence: every hidden state, (H,T_s) or (B,H,T_s) indexed by t, and the
    hidden and cell states after the last step. A single sequence is a list
    of one.

    The loop runs max T_s steps and a sequence drops out once its own steps
    are done. Each step's recurrent products are one stacked
    (k,B,1,H)@(k,1,H,4H) product over the k sequences still running. The
    input projections are hoisted out of the recurrence with the fused
    ``w_x`` (Appleyard et al. 2016, arXiv:1604.01946), one matrix product
    per sequence and phase, built when the loop reaches that phase. The
    backward pass is hand-written BPTT and returns gradients for every
    ``x``, ``h0``, ``c0``, ``w_x``, ``w_h`` and ``b``.
    """
    count = len(params)
    if not count or not len(xs) == len(h0s) == len(c0s) == count:
        raise ShapeError(f"lstm_sequence needs one input, h0, c0 and weight set per sequence, got "
                         f"{len(xs)}, {len(h0s)}, {len(c0s)} and {count}")
    xs, h0s, c0s = ([_as_tensor(t) for t in group] for group in (xs, h0s, c0s))
    hid = params[0].hidden_size
    lead = xs[0].data.shape[:-2]
    for s, (x, h0, c0, p) in enumerate(zip(xs, h0s, c0s, params)):
        if p.hidden_size != hid:
            raise ShapeError(f"lstm_sequence hidden size {p.hidden_size} of sequence {s} is not {hid}")
        nin = p.input_size
        if x.data.ndim not in (2, 3) or x.data.shape[:-1] != lead + (nin,) or x.data.shape[-1] < 1:
            raise ShapeError(f"lstm_sequence input {s} has shape {x.shape}, expected "
                             f"{lead + (nin,)} plus at least one step")
        if h0.data.shape != lead + (hid,) or c0.data.shape != lead + (hid,):
            raise ShapeError(f"lstm_sequence state shapes {h0.shape}, {c0.shape} of sequence {s} "
                             f"do not match {lead + (hid,)}")
    lengths = [x.data.shape[-1] for x in xs]
    _check_lengths(lengths, "lstm_sequence")
    nb = lead[0] if lead else 1
    half = _halving(hid)
    x3 = [x.data.reshape(nb, p.input_size, n) for x, p, n in zip(xs, params, lengths)]

    def zx_of(start, end, k):
        zx = np.empty((end - start, k, nb, 4 * hid))
        for s, p in enumerate(params[:k]):
            z = (p.w_x.data * half[:, None]) @ x3[s][..., _window(lengths[s], start, end, reverse)]
            z += (p.b.data * half)[:, None]
            zx[:, s] = _time_major(z, reverse)
        return zx

    whs = [p.w_h.data for p in params]
    wh_half = np.stack(whs)
    wh_half *= half[:, None]
    parents = (*xs, *h0s, *c0s, *(p.w_x for p in params), *(p.w_h for p in params),
               *(p.b for p in params))
    traced = _trace(parents)
    runs, _, c = _scan(zx_of, np.stack([h0.data.reshape(nb, hid) for h0 in h0s]),
                       np.stack([c0.data.reshape(nb, hid) for c0 in c0s]),
                       wh_half.transpose(0, 2, 1)[:, None], lengths, keep=traced)

    # Sequence s owns columns off_s .. off_s + T_s: its hidden states in time
    # order, then its final cell state.
    offsets = np.cumsum([0] + [n + 1 for n in lengths]).tolist()
    packed = np.empty((nb, hid, offsets[-1]))
    for start, end, k, hs, _ in runs:
        for s in range(k):
            seq = packed[..., offsets[s] : offsets[s + 1] - 1]
            seq[..., _window(lengths[s], start, end, reverse)] = _time_order(hs[1:, s], reverse)
    for s in range(count):
        packed[..., offsets[s + 1] - 1] = c[s]
    core = Tensor(packed.reshape(lead + packed.shape[1:]))
    if traced:

        def vjp(grad):
            grad = grad.reshape(packed.shape)

            def dhs_of(start, end, k):
                dhs = np.empty((end - start, k, nb, hid))
                for s in range(k):
                    seg = grad[..., offsets[s] : offsets[s + 1] - 1]
                    dhs[:, s] = _time_major(seg[..., _window(lengths[s], start, end, reverse)], reverse)
                return dhs

            dc = np.stack([grad[..., off - 1] for off in offsets[1:]])
            dz_seq, dh0, dc0 = _scan_grad(runs, np.stack(whs), dhs_of, dc, lengths)
            h_in = _by_sequence([(k, hs[:-1]) for _, _, k, hs, _ in runs], count)
            dx, dwx, dwh, db = [], [], [], []
            for s, (dz, hin) in enumerate(zip(dz_seq, h_in)):
                if reverse:  # back to time order, like x
                    dz, hin = dz[::-1], hin[::-1]
                dz = dz.transpose(1, 2, 0)  # (B,4H,T)
                dx.append(np.matmul(params[s].w_x.data.T, dz).reshape(xs[s].data.shape))
                dwx.append(np.tensordot(dz, x3[s], axes=([0, 2], [0, 2])))
                dwh.append(np.tensordot(dz, hin, axes=([0, 2], [1, 0])))
                db.append(dz.sum(axis=(0, 2)))
            return (*dx, *(d.reshape(t.data.shape) for d, t in zip(dh0, h0s)),
                    *(d.reshape(t.data.shape) for d, t in zip(dc0, c0s)), *dwx, *dwh, *db)

        core.requires_grad, core._parents, core._vjp = True, parents, vjp
    return [(core[..., off : off + n], core[..., off if reverse else off + n - 1], core[..., off + n])
            for off, n in zip(offsets, lengths)]


def lstm_feedback(h0s, c0s, params, head_ws, head_bs, steps, reverse: bool = False) -> list:
    """Hidden states of LSTMs whose input at each step is the previous
    step's head output ``head_w @ h + head_b`` (zeros at the first step),
    all sequences in one time loop as in ``lstm_sequence``.

    Inference only: plain arrays in and out, no graph. ``h0s[s]`` and
    ``c0s[s]`` are (B,H) and ``steps`` does not increase with s; the result
    holds one (B,H,steps[s]) array per sequence, indexed like
    ``lstm_sequence``'s hs. The head folds into the recurrence,
    W_x (W_s h + b_s) + W_h h + b = (W_x W_s + W_h) h + (W_x b_s + b),
    so every step after the first is one (B,H)@(H,4H) product per sequence.
    """
    _check_lengths(steps, "lstm_feedback")
    hid = params[0].hidden_size
    half = _halving(hid)
    h0, c0 = np.stack(h0s), np.stack(c0s)
    count, nb = h0.shape[:2]

    def constant(bias):
        return lambda start, end, k: np.broadcast_to(bias[:k, None], (end - start, k, nb, 4 * hid))

    def transposed(w):
        return w.transpose(0, 2, 1)[:, None]

    wh = np.stack([p.w_h.data for p in params])
    wh *= half[:, None]
    b = np.stack([p.b.data for p in params]) * half
    first, h, c = _scan(constant(b), h0, c0, transposed(wh), [1] * count, keep=False)
    w_fold = np.stack([p.w_x.data @ w + p.w_h.data for p, w in zip(params, head_ws)]) * half[:, None]
    b_fold = np.stack([p.w_x.data @ bs + p.b.data for p, bs in zip(params, head_bs)]) * half
    rest, _, _ = _scan(constant(b_fold), h, c, transposed(w_fold), [n - 1 for n in steps], keep=False)
    parts = [(k, hs[1:]) for _, _, k, hs, _ in first + rest]
    return [_time_order(hs, reverse) for hs in _by_sequence(parts, count)]


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
