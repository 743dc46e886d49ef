"""Differentiable building blocks: 1-D conv layers with their ReLU, the
LSTM, dense layers, and the two training losses, each one graph node.

Convolutions follow the cross-correlation convention common in sequence
models (no kernel flip). The two conv layers share one tap layout, tap j of
a width-k kernel reading padded positions j, j + stride, ..., and their
linear maps are each other's adjoint: reinterpreting a conv kernel bank of
shape (out,in,k) as a deconv bank of shape (in,out,k) satisfies
<conv(x), y> == <x, deconv(y)> whenever the conv consumed its input without
a stride remainder. One gather over the taps (``_correlate``) is the conv
forward pass and the deconv input gradient; its scatter (``_spread``) is
the deconv forward pass and the conv input gradient.

The LSTM has one implementation, ``lstm_sequence``. It runs a list of
sequences, one LSTM each (the model's scales), in one Python time loop as
a single graph node whose backward pass is hand-written BPTT. Sequences
may differ in length: the loop runs as many steps as the longest, and a
shorter sequence drops out once its own steps are done, so the default
model's four scales of 128, 64, 32 and 16 steps take 128 iterations, not
240. One sequence is a list of one, and one step a sequence of length one.
The model's encoder and its teacher-forced decoder both run through it.
Each LSTM starts from a given hidden state and a zero cell state: the
model reads no cell state.

Every layer takes a batch, (B,C,T); a lone sample is a batch of one. Each
sample is computed with the same products whatever its batch, so batched
outputs and input gradients equal per-sample ones bit for bit. Weight
gradients are summed over the batch inside their products, so they need
not equal the sum of the per-sample ones in the last bits.

Every buffer a forward pass allocates takes the dtype of its input or
weights, so a float32 model computes in float32 (a detector's, see
``training``) and a float64 model, one in training, in float64.

The layers check nothing, because ``ModelConfig`` and the model's public
passes have checked every shape they receive. A wrong shape here raises
numpy's own error, or none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import Tensor, _as_tensor, _node, _trace


def _taps(a, k: int, stride: int, padding: int = 0) -> list:
    """The k strided taps of a (B,C,T) array zero-padded by ``padding`` at
    each end: tap j holds padded positions j, j + stride, ..., one per
    output step of a width-k kernel. Without padding the taps are views."""
    if padding:
        padded = np.zeros(a.shape[:2] + (a.shape[2] + 2 * padding,), a.dtype)
        padded[:, :, padding:-padding] = a
        a = padded
    end = a.shape[2] - k + 1
    return [a[:, :, j : end + j : stride] for j in range(k)]


def _correlate(w, taps) -> np.ndarray:
    """Sum over j of w[:,:,j] @ tap j: the conv forward pass, and the deconv
    input gradient."""
    y = w[:, :, 0] @ taps[0]
    for j in range(1, len(taps)):
        y += w[:, :, j] @ taps[j]
    return y


def _spread(w, g, stride: int, padding: int, length: int) -> np.ndarray:
    """The adjoint of ``_correlate``: w[:,:,j].T @ g added onto tap j of a
    zero buffer, which is then cropped by ``padding`` at each end to
    ``length``. The deconv forward pass, and the conv input gradient."""
    buf = np.zeros((g.shape[0], w.shape[1], length + 2 * padding), g.dtype)
    for j, tap in enumerate(_taps(buf, w.shape[2], stride)):
        tap += w[:, :, j].T @ g
    return buf[:, :, padding : padding + length]


def _tap_grads(a, taps) -> np.ndarray:
    """The kernel gradient of a ``_correlate`` or ``_spread``: a (B,X,n)
    array contracted with each (B,Y,n) tap over batch and time, (X,Y,k).

    The taps are unrolled into one contiguous (k, B·n, Y) stack, which the
    (X, B·n) array multiplies in one matmul call (unrolled convolution;
    Chellapilla et al. 2006, "High Performance Convolutional Neural
    Networks for Document Processing"). Per tap this is the (X, B·n) @
    (B·n, Y) product of a ``tensordot`` over batch and time, so the bits
    are those of k such calls at any B. A single (X, B·n) @ (B·n, k·Y)
    product rounds differently under OpenBLAS: at B=1 when Y is 4, and for
    some shapes at B > 1."""
    nb, x, n = a.shape
    unrolled = np.empty((len(taps), nb, n, taps[0].shape[1]))
    for j, tap in enumerate(taps):
        unrolled[j] = tap.transpose(0, 2, 1)
    rows = a.transpose(1, 0, 2).reshape(x, nb * n)
    return (rows @ unrolled.reshape(len(taps), nb * n, -1)).transpose(1, 2, 0)


def conv1d(x, kernels, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """Multi-channel 1-D convolution of a batch, then its ReLU, as every
    encoder layer has: (B,Cin,T) -> (B,Cout,T').

    Every output channel sums over all input channels, so the very first
    layer of an encoder mixes the full channel set. For backward it keeps
    only its parents and output: the ReLU's mask is where the output is
    positive, and the padded input and its taps are rebuilt from the
    unpadded ``x`` when the gradient arrives. An ``x`` that needs no grad,
    such as a scale input, gets None rather than an input gradient.
    """
    t, k, w = x.data.shape[2], kernels.data.shape[2], kernels.data
    y = _correlate(w, _taps(x.data, k, stride, padding))
    y += bias.data[:, None]
    np.maximum(y, 0.0, out=y)  # for finite y, np.where(y > 0, y, 0.0), -0.0 included

    def vjp(g):
        g = g * (y > 0)
        dx = _spread(w, g, stride, padding, t) if x.requires_grad else None
        return dx, _tap_grads(g, _taps(x.data, k, stride, padding)), g.sum(axis=(0, 2))

    return _node(y, (x, kernels, bias), vjp)


def deconv1d(x, kernels, bias, stride: int = 1, padding: int = 0, relu: bool = False) -> Tensor:
    """Transposed 1-D convolution of a batch:
    (B,Cin,T) -> (B,Cout,(T-1)*stride-2*padding+K), rectified as in
    ``conv1d`` with ``relu``, as every decoder layer but the last is."""
    k, w = kernels.data.shape[2], kernels.data
    tout = (x.data.shape[2] - 1) * stride + k - 2 * padding
    y = _spread(w, x.data, stride, padding, tout)
    y += bias.data[:, None]
    if relu:
        np.maximum(y, 0.0, out=y)

    def vjp(g):
        g = g * (y > 0) if relu else g
        taps = _taps(g, k, stride, padding)
        return _correlate(w, taps), _tap_grads(x.data, taps), g.sum(axis=(0, 2))

    return _node(y, (x, kernels, bias), vjp)


def linear(x, weight, bias) -> Tensor:
    """Dense map over the last axis: x @ weight.T + bias, for x of shape
    (in,) or with leading axes (..., in)."""
    nout, nin = weight.data.shape
    # Row by row, like the LSTM's recurrent product.
    y = np.matmul(x.data[..., None, :], weight.data.T)[..., 0, :]
    y += bias.data

    def vjp(g):
        g2 = g.reshape(-1, nout)
        return g @ weight.data, g2.T @ x.data.reshape(-1, nin), g2.sum(axis=0)

    return _node(y, (x, weight, bias), vjp)


def step_dense(x, weight, bias, cols: slice) -> Tensor:
    """Dense map over axis 1 of columns ``cols`` of a (B,in,T) batch: the
    (out,in) weight is applied at each of those n steps and the bias added,
    giving (B,out,n). The input gradient is zero outside ``cols``."""
    w, xd, shape = weight.data, x.data[..., cols], x.data.shape
    y = w @ xd
    y += bias.data[:, None]

    def vjp(g):
        dx = np.zeros(shape)
        dx[..., cols] = w.T @ g
        # Summed per-sample weight products; one tensordot over batch and
        # time would round differently at B > 1.
        return dx, np.matmul(g, xd.transpose(0, 2, 1)).sum(axis=0), g.sum(axis=0).sum(axis=1)

    return _node(y, (x, weight, bias), vjp)


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

    @property
    def hidden_size(self) -> int:
        return self.w_h.data.shape[1]


# A sigmoid is evaluated as 0.5 + 0.5 * tanh(z / 2); halving the sigmoid
# rows of the pre-activations (exact in floating point) lets one tanh call
# cover all four gates.
def _halving(hid: int, dtype) -> np.ndarray:
    return np.repeat(np.array([0.5, 1.0], dtype), [3 * hid, hid])


def _phases(lengths):
    """(start, end, k) for each stretch of steps that exactly the first k
    sequences run. ``lengths`` does not increase, so a sequence leaves the
    loop once its steps are done."""
    start = 0
    for k in range(len(lengths), 0, -1):
        if lengths[k - 1] > start:
            yield start, lengths[k - 1], k
            start = lengths[k - 1]


def _scan(zx_of, h0, wh_t, lengths, keep: bool):
    """S recurrences in one time loop; sequence s runs ``lengths[s]`` steps.

    ``zx_of(start, end, k)`` gives the input pre-activations of steps
    start..end-1 of the first k sequences, step- and gate-major
    (n,4,k,B,H): input projection plus bias with the sigmoid gates halved.
    The initial hidden states ``h0`` are (S,B,H), every cell state starts at
    zero, and ``wh_t`` (S,1,H,4H) holds the halved recurrent weights,
    transposed.

    The gates are gate-major, (4,k,B,H), so that every elementwise call of
    a step reads and writes whole contiguous blocks; only the recurrent
    product's (k,B,1,4H) rows are gate-minor, and the step's first add
    reads them through a transposed view.

    Returns one (start, end, k, hs, saved) per phase of ``_phases``, where
    hs (n+1,k,B,H) holds the phase's hidden states with its entry state at
    index 0. With ``keep``, ``saved`` holds what backward needs: the gate
    activations (n,4,k,B,H), the cell states (n+1,k,B,H) and their tanh
    (n,k,B,H); otherwise it is None.
    """
    _, nb, hid = h0.shape
    # A step is ten calls on arrays of a few hundred elements, so their
    # fixed cost dominates: the loop calls local names with positional
    # ``out`` arguments and walks its per-step views with ``zip``.
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
    dtype = wh_t.dtype
    h = np.array(h0, dtype)
    c = np.zeros_like(h)
    runs = []
    for start, end, k in _phases(lengths):
        steps = end - start
        zx = zx_of(start, end, k)
        hs = np.empty((steps + 1, k, nb, hid), dtype)
        hs[0] = h[:k]
        # One (1,H)@(H,4H) product per sequence and sample, so a sample's
        # result depends neither on its batch nor on the other sequences.
        h_rows = hs[..., None, :]
        w = wh_t[:k]
        z_rows = np.empty((k, nb, 1, 4 * hid), dtype)
        zh = z_rows.reshape(k, nb, 4, hid).transpose(2, 0, 1, 3)
        a = np.empty((4, k, nb, hid), dtype)
        sig, i, f, o, g = a[:3], *a
        ck = c[:k]  # a view: the loop updates c in place
        ig = np.empty((k, nb, hid), dtype)
        tc = np.empty((k, nb, hid), dtype)
        saved = None
        if keep:
            acts = np.empty((steps, 4, k, nb, hid))
            cs = np.empty((steps + 1, k, nb, hid))
            tcs = np.empty((steps, k, nb, hid))
            cs[0] = ck
            saved = acts, cs, tcs
        for t, (h_in, z_in, h_out) in enumerate(zip(h_rows, zx, hs[1:])):
            matmul(h_in, w, z_rows)
            add(zh, z_in, a)
            tanh(a, a)
            multiply(sig, 0.5, sig)
            add(sig, 0.5, sig)
            multiply(ck, f, ck)
            add(ck, multiply(i, g, ig), ck)
            tanh(ck, tc)
            multiply(o, tc, h_out)
            if keep:
                acts[t], cs[t + 1], tcs[t] = a, ck, tc
        h[:k] = hs[steps]
        runs.append((start, end, k, hs, saved))
        del zx, z_in  # before the next phase builds its own
    return runs


def _scan_grad(runs, wh, dhs_of, lengths):
    """Backpropagation through time for ``_scan``, over its ``runs`` from the
    last phase back; each run is (start, end, k, saved), without the hidden
    states, which BPTT does not read. The saved gate activations are
    gate-major, (n,4,k,B,H), so gate q of every step is ``acts[:, q]``.

    ``dhs_of(start, end, k)`` gives the loss gradient (n,k,B,H) arriving at
    each hidden state of a phase from outside the recurrence; no gradient
    arrives at a cell state from outside. ``wh`` (S,4H,H) holds the unhalved
    recurrent matrices and ``lengths`` the sequence lengths. Returns the
    gradients of the true (unhalved) pre-activations, one (T_s,B,4H) array
    per sequence in step order, and of the initial hidden states (S,B,H).

    The running gradients at the hidden and cell states are updated in
    place through ``out=`` buffers, so a step allocates nothing; the
    products and their order are those of the out-of-place form.
    """
    # The first phase runs every sequence: its gate activations are (n,4,S,B,H).
    dh = np.zeros(runs[0][3][0].shape[2:])
    dc = np.zeros_like(dh)
    nb, g4 = dh.shape[1], wh.shape[1]
    dz_seq = [np.empty((n, nb, g4)) for n in lengths]
    for start, end, k, (acts, cs, tcs) in reversed(runs):
        steps, hid = end - start, g4 // 4
        i, f, o, g = (acts[:, q] for q in range(4))
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
        dc_h = np.empty_like(dhk)
        for t in range(steps - 1, -1, -1):
            dhk += dhs[t]
            dck += np.multiply(dhk, dc_dh[t], out=dc_h)
            np.multiply(coef[t], dck[..., None, :], out=dz[t])
            np.multiply(dhk, coef_o[t], out=dz_o[t])
            np.matmul(dz_flat[t], w, out=dhk)
            dck *= f[t]
        for s in range(k):
            dz_seq[s][start:end] = dz_flat[:, s]
    return dz_seq, dh


def _window(length: int, start: int, end: int, decoder: bool) -> slice:
    """The time positions of steps start..end-1 of a sequence of ``length``."""
    return slice(length - end, length - start) if decoder else slice(start, end)


def _time_major(z: np.ndarray, decoder: bool) -> np.ndarray:
    """A (B,X,n) window in time order as (n,B,X) in step order."""
    return (z[..., ::-1] if decoder else z).transpose(2, 0, 1)


def _time_order(hs: np.ndarray, decoder: bool) -> np.ndarray:
    """(T,B,H) hidden states in step order as (B,H,T) in time order."""
    return (hs[::-1] if decoder else hs).transpose(1, 2, 0)


def lstm_sequence(xs, h0s, params, decoder: bool = False):
    """Run one LSTM per sequence, all in one time loop, as one graph node.

    ``xs[s]`` is a batch (B,in_s,T_s), every sequence with the same batch
    size B, and the lengths T_s do not increase with s. ``h0s[s]`` is the
    (B,H) initial hidden state, the cell state starts at zero, and
    ``params[s]`` holds sequence s's weights; all share the hidden size H.
    A single sequence is a list of one. Either mode returns one tensor. The
    encoder (the default) runs t = 0..T_s-1, step t reading column t, and
    returns the code: one (B, S·H) tensor of each sequence's last hidden
    state, in order. The ``decoder`` runs t = T_s-1..0, step t reading
    column t + 1, or zero at t = T_s-1, and returns the packed hidden
    states, (B, H, ΣT_s): sequence s's, in time order, in columns
    off_s .. off_s + T_s - 1, where off_s = T_0 + ... + T_{s-1}.

    The loop runs max T_s steps and a sequence drops out once its own steps
    are done. Each step's recurrent products are one stacked
    (k,B,1,H)@(k,1,H,4H) product over the k sequences still running. The
    input projections are hoisted out of the recurrence with the fused
    ``w_x`` (Appleyard et al. 2016, arXiv:1604.01946), one matrix product
    per sequence and phase, built when the loop reaches that phase. The
    backward pass is hand-written BPTT and returns gradients for every
    ``x``, ``h0``, ``w_x``, ``w_h`` and ``b``.

    For backward the node keeps the gate activations, gate-major per phase
    (n,4,k,B,H), and the cell states with their tanh, which ``_scan`` saved
    step by step; recomputing the tanh in one vectorised call could round
    differently. The hidden state entering each step is read back from the
    packed hidden states and ``h0``, so the per-phase hidden-state arrays
    die once packed.
    """
    count, hid = len(params), params[0].hidden_size
    xs, h0s = [_as_tensor(x) for x in xs], [_as_tensor(h0) for h0 in h0s]
    nb, lengths = xs[0].data.shape[0], [x.data.shape[2] for x in xs]
    dtype = params[0].w_h.data.dtype
    half = _halving(hid, dtype)

    shift = 1 if decoder else 0  # step t reads column t + shift

    def read(s, lo, hi):
        """Columns lo..hi-1 of input s, the zero column T_s copied in if read."""
        x = xs[s].data[..., lo:hi]
        return x if hi <= lengths[s] else np.concatenate([x, np.zeros((nb, x.shape[1], 1), x.dtype)], axis=2)

    def zx_of(start, end, k):
        zx = np.empty((end - start, 4, k, nb, hid), dtype)
        for s, p in enumerate(params[:k]):
            window = _window(lengths[s], start, end, decoder)
            # Halving after the product and bias add gives the bits of the
            # halved weights and bias: scaling by a power of two commutes
            # with every rounding step unless a value is subnormal.
            z = p.w_x.data @ read(s, window.start + shift, window.stop + shift)
            z += p.b.data[:, None]
            z *= half[:, None]
            zx[:, :, s] = _time_major(z, decoder).reshape(end - start, nb, 4, hid).transpose(0, 2, 1, 3)
        return zx

    whs = [p.w_h.data for p in params]
    wh_half = np.stack(whs)
    wh_half *= half[:, None]
    parents = (*xs, *h0s, *(p.w_x for p in params), *(p.w_h for p in params), *(p.b for p in params))
    runs = _scan(zx_of, np.stack([h0.data for h0 in h0s]), wh_half.transpose(0, 2, 1)[:, None], lengths,
                 keep=_trace(parents))

    offsets = list(accumulate(lengths, initial=0))
    last = np.subtract(offsets[1:], 1)
    packed = np.empty((nb, hid, offsets[-1]), dtype)
    for start, end, k, hs, _ in runs:
        for s in range(k):
            seq = packed[..., offsets[s] : offsets[s + 1]]
            seq[..., _window(lengths[s], start, end, decoder)] = _time_order(hs[1:, s], decoder)
    # Backward reads the hidden states from ``packed``, not from the phases.
    runs = [(start, end, k, saved) for start, end, k, _, saved in runs]

    def vjp(grad):
        if not decoder:  # the code's gradient reaches each sequence's last step alone
            code_grad, grad = grad, np.zeros(packed.shape)
            grad[..., last] = code_grad.reshape(nb, count, hid).transpose(0, 2, 1)

        def dhs_of(start, end, k):
            dhs = np.empty((end - start, k, nb, hid))
            for s in range(k):
                seg = grad[..., offsets[s] : offsets[s + 1]]
                dhs[:, s] = _time_major(seg[..., _window(lengths[s], start, end, decoder)], decoder)
            return dhs

        dz_seq, dh0 = _scan_grad(runs, np.stack(whs), dhs_of, lengths)
        dx, dwx, dwh, db = [], [], [], []
        for s, (dz, n) in enumerate(zip(dz_seq, lengths)):
            # The hidden state entering each step, in step order: h0,
            # then the outputs of steps 0..n-2.
            hin = np.empty((n, nb, hid))
            hin[0] = h0s[s].data
            seq = packed[..., offsets[s] : offsets[s + 1]]
            hin[1:] = _time_major(seq[..., _window(n, 0, n - 1, decoder)], decoder)
            if decoder:  # back to time order, like x
                dz, hin = dz[::-1], hin[::-1]
            dz = dz.transpose(1, 2, 0)  # (B,4H,T)
            dx.append(np.zeros(xs[s].data.shape))  # step t read column t + shift
            dx[-1][..., shift:] = (params[s].w_x.data.T @ dz)[..., : n - shift]
            dwx.append(np.tensordot(dz, read(s, shift, n + shift), axes=([0, 2], [0, 2])))
            dwh.append(np.tensordot(dz, hin, axes=([0, 2], [1, 0])))
            db.append(dz.sum(axis=(0, 2)))
        return (*dx, *dh0, *dwx, *dwh, *db)

    if decoder:
        return _node(packed, parents, vjp)
    return _node(packed[..., last].transpose(0, 2, 1).reshape(nb, count * hid), parents, vjp)


def sigmoid(x) -> np.ndarray:
    """The logistic function of an array, outside the graph: 1 / (1 +
    exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere, so that
    neither side overflows."""
    x = np.asarray(x, dtype=np.float64)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def supervised_loss(reconstruction, logit, label: int, alpha: float) -> Tensor:
    """The supervised objective of one sample as one graph node:
    ``alpha * reconstruction + (1 - alpha) * bce``, where ``bce`` is the
    binary cross-entropy of sigmoid(logit) against a 0/1 label.

    The cross-entropy is softplus(z) - y z, evaluated as max(z, 0) - y z +
    log1p(exp(-|z|)) so it neither overflows nor rounds to a constant, and
    its gradient is sigmoid(z) - y: a head that is confidently wrong gets a
    gradient of magnitude near 1, not 0.
    """
    z = float(logit.data.reshape(()))
    bce = max(z, 0.0) - label * z + math.log1p(math.exp(-abs(z)))
    shape = logit.data.shape

    def vjp(g):
        # sigmoid(z) - 1 written as -sigmoid(-z) keeps its precision for z >> 0.
        grad = float(sigmoid(z)) if label == 0 else -float(sigmoid(-z))
        return g * alpha, np.full(shape, g.sum() * (1.0 - alpha) * grad)

    return _node(reconstruction.data * alpha + bce * (1.0 - alpha), (reconstruction, logit), vjp)


def reconstruction_loss(targets, reconstructions) -> Tensor:
    """The training objective as one graph node: per sample, the mean
    squared error of each scale's (B,C,T_s) reconstruction against its
    target, one term per scale, summed left to right from scale 0.

    The targets are constants. Backward keeps only the inputs: it recomputes
    each d = recon - target and returns t + t, t = (g / (C·T_s)) d, the
    products and sums of the loss composed of subtract, square and mean.
    """
    recons = tuple(reconstructions)
    targets = [_as_tensor(t).data for t in targets]

    def vjp(g):
        halves = ((g[:, None, None] / r.data[0].size) * (r.data - t) for r, t in zip(recons, targets))
        return tuple(h + h for h in halves)

    terms = [(d * d).mean(axis=(1, 2)) for d in (r.data - t for r, t in zip(recons, targets))]
    return _node(sum(terms[1:], terms[0]), recons, vjp)
