"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array and, while grad recording is enabled,
remembers the operation that produced it. Calling ``backward()`` on a scalar
result walks the recorded graph once and accumulates d(result)/d(tensor)
into the ``grad`` buffer of every participating tensor. Repeated backward
calls keep accumulating until ``zero_grad()``.

Only the operations the sequence model needs are provided: elementwise
arithmetic with bias-style broadcasting, matrix products (a weight matrix
may multiply a stack of matrices with a leading batch axis), the usual
activations, means over all or some axes, indexing and reshaping, and
concatenation along the last axis. An op may also be coarse: ``nn``
builds whole layers, such as a full LSTM sequence with its hand-written
backward pass, as one graph node, which keeps graphs small.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional gradient buffer and graph record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"

    def backward(self):
        """Accumulate d(self)/d(node) into every graph node's grad buffer."""
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no recorded graph")

        # Iterative postorder: LSTM rollouts produce chains far deeper than
        # the recursion limit.
        topo: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, iter]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()

        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in pending:
                    pending[pid] = pending[pid] + pg
                else:
                    pending[pid] = pg

    # Arithmetic operators; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _trace(parents) -> bool:
    if not _grad_enabled:
        return False
    return any(p.requires_grad for p in parents)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (got, want) in enumerate(zip(g.shape, shape)) if want == 1 and got != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _owned(res: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Gradients stored per-parent must not alias the incoming buffer.
    return res.copy() if res is g else res


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    if _trace((a, b)):
        ash, bsh = a.data.shape, b.data.shape

        def vjp(g):
            return _owned(_unbroadcast(g, ash), g), _owned(_unbroadcast(g, bsh), g)

        out.requires_grad, out._parents, out._vjp = True, (a, b), vjp
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    if _trace((a, b)):
        ash, bsh = a.data.shape, b.data.shape

        def vjp(g):
            return _owned(_unbroadcast(g, ash), g), _unbroadcast(-g, bsh)

        out.requires_grad, out._parents, out._vjp = True, (a, b), vjp
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    if _trace((a, b)):
        ash, bsh = a.data.shape, b.data.shape
        ad, bd = a.data, b.data

        def vjp(g):
            return _unbroadcast(g * bd, ash), _unbroadcast(g * ad, bsh)

        out.requires_grad, out._parents, out._vjp = True, (a, b), vjp
    return out


def matmul(a, b) -> Tensor:
    """(m,n)@(n,), (m,n)@(n,k), or (m,n)@(B,n,k) applied to every matrix of
    a batch."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2, 3):
        raise ShapeError(
            f"matmul supports (m,n)@(n,), (m,n)@(n,k) and (m,n)@(B,n,k); got {a.shape} @ {b.shape}"
        )
    if a.data.shape[1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if _trace((a, b)):
        ad, bd = a.data, b.data
        if bd.ndim == 1:

            def vjp(g):
                return np.outer(g, bd), ad.T @ g

        elif bd.ndim == 2:

            def vjp(g):
                return g @ bd.T, ad.T @ g

        else:

            def vjp(g):
                return np.tensordot(g, bd, axes=([0, 2], [0, 2])), ad.T @ g

        out.requires_grad, out._parents, out._vjp = True, (a, b), vjp
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    out = Tensor(s)
    if _trace((a,)):
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (g * s * (1.0 - s),)
    return out


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    out = Tensor(t)
    if _trace((a,)):
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (g * (1.0 - t * t),)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    if _trace((a,)):
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (g * mask,)
    return out


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    if _trace((a,)):
        shape = a.data.shape
        out.requires_grad, out._parents, out._vjp = (
            True,
            (a,),
            lambda g: (np.full(shape, float(g)),),
        )
    return out


def tmean(a, axis=None) -> Tensor:
    """Mean over all elements, or over the given axis or axes."""
    a = _as_tensor(a)
    kept = a.data.mean(axis=axis, keepdims=True)
    out = Tensor(np.squeeze(kept, axis=axis))
    if _trace((a,)):
        shape, n = a.data.shape, a.data.size // kept.size

        def vjp(g):
            return (np.broadcast_to(np.reshape(g, kept.shape) / n, shape).copy(),)

        out.requires_grad, out._parents, out._vjp = True, (a,), vjp
    return out


def concat(parts) -> Tensor:
    """Join tensors along their last axis; all other dimensions must agree."""
    parts = tuple(_as_tensor(p) for p in parts)
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.ndim < 1 or p.data.shape[:-1] != lead:
            raise ShapeError(f"concat needs equal leading dimensions, got {[q.shape for q in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    if _trace(parts):
        offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

        def vjp(g):
            return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts)))

        out.requires_grad, out._parents, out._vjp = True, parts, vjp
    return out


def index(a, key) -> Tensor:
    """``a.data[key]`` for basic (slice and integer) indexing."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])
    if _trace((a,)):
        shape = a.data.shape

        def vjp(g):
            buf = np.zeros(shape)
            buf[key] = g
            return (buf,)

        out.requires_grad, out._parents, out._vjp = True, (a,), vjp
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    if _trace((a,)):
        orig = a.data.shape
        out.requires_grad, out._parents, out._vjp = True, (a,), lambda g: (g.reshape(orig),)
    return out
