"""Reverse-mode automatic differentiation over dense float arrays.

A ``Tensor`` wraps a numpy array and remembers the operation that produced
it exactly when one of that operation's inputs requires grad. An operation
on tensors that need no grad, such as a detector's weights and the windows
it scores, records nothing; no other switch turns recording off, so
threads that score and train at once do not interfere. Calling
``backward()`` on a scalar result walks the recorded graph once and
accumulates d(result)/d(tensor) into the ``grad`` buffer of every leaf
tensor that takes part: one that requires grad but no recorded op
produced, such as a model parameter. As in PyTorch (Paszke et al. 2019,
arXiv:1912.01703), an intermediate result's gradient lives only until the
walk has passed it on, so a graph holds no gradient buffers of its own.
The walk also consumes the graph: once a node has passed its gradient on,
it drops its parents and the arrays its backward saved, so a step's
activations are freed while the walk is still running rather than after
it. A graph is therefore walked once; a second ``backward()`` through any
consumed node raises ``ContractError``. Leaf grads keep accumulating
across graphs until their owner clears them (``optim.Adam.zero_grad``).

No generic operation is provided: a tensor has no arithmetic operators
and cannot be indexed, and every sum, product, activation, sigmoid and
slice of the model happens inside one of the coarse ops of ``nn``. Each
op computes its result, defines its backward as a function from the
result's gradient to one gradient per parent, and returns
``_node(result, parents, vjp)``: ``_node`` is the one way an op records
itself in the graph. ``nn`` builds whole layers as one node each: a conv
or deconv layer with its ReLU, a full LSTM sequence with its
hand-written backward pass, the decoder's step head, and each training
loss, the multiscale reconstruction loss and the supervised objective,
which keeps graphs small.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


class Tensor:
    """A float array plus an optional gradient buffer and graph record. A
    float32 array keeps its dtype, so a detector's float32 weights compute
    in float32; anything else becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into the grad buffer of every leaf
        tensor of the graph; intermediate results keep no grad.

        The walk consumes the graph: each recorded node drops its parents
        and its saved arrays once its gradient has been passed on, so the
        graph can be walked only once. Calling ``backward()`` again, or on
        a new graph built on a consumed node, raises ``ContractError``
        before any grad is touched. A node whose backward returns more or
        fewer gradients than it has parents raises ``ContractError`` too."""
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no recorded graph")

        # Iterative postorder: a recursive walk would fail on any graph a
        # caller builds deeper than Python's recursion limit.
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
                if node._vjp is _consumed:  # raise before any grad moves
                    _consumed(None)
                topo.append(node)
                stack.pop()

        # Every id in ``pending`` belongs to a node still held by ``topo``.
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = pending.pop(id(node), None)
            if node._vjp is None:
                if g is not None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            if g is not None:
                grads = node._vjp(g)
                if len(grads) != len(node._parents):
                    raise ContractError(f"a backward returned {len(grads)} gradients for "
                                        f"{len(node._parents)} parents")
                for parent, pg in zip(node._parents, grads):
                    if pg is None or not parent.requires_grad:
                        continue
                    pid = id(parent)
                    if pid in pending:
                        pending[pid] = pending[pid] + pg
                    else:
                        pending[pid] = pg
            node._parents, node._vjp = (), _consumed


def _consumed(g):
    """The backward of a node whose graph ``backward()`` has walked."""
    raise ContractError("this graph was already consumed by backward()")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _trace(parents) -> bool:
    return any(p.requires_grad for p in parents)


def _node(data, parents, vjp) -> Tensor:
    """An op's result: ``data`` as a tensor that records its ``parents`` and
    its backward ``vjp`` (the result's gradient to a tuple of one gradient,
    or None, per parent) when ``_trace(parents)`` holds, and nothing else."""
    out = Tensor(data)
    if _trace(parents):
        out.requires_grad, out._parents, out._vjp = True, parents, vjp
    return out

