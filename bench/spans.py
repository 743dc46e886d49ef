"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``wavedetect`` from outside the
package: each patch replaces the name where its caller looks it up (a
module global or a class attribute) while the tracer is active, and puts
the original back afterwards, so untraced runs execute the unmodified
program.

Spans live in flat ``array`` buffers (name id, start, end, parent span,
group id). Appending to them allocates no objects the cyclic collector
tracks, so tracing does not itself provoke the GC pauses it records.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span names of the traced layers, in report order.
SPANS = (
    "wavelet.mdwd",
    "nn.conv1d",
    "nn.deconv1d",
    "nn.lstm_cell",
    "model.encode",
    "model.decode_teacher",
    "model.decode_free",
    "model.reconstruction_loss",
    "autodiff.backward",
    "optim.adam_step",
    "training.train",
    "training.score_fragment",
    "streaming.window_predictions",
    "streaming.simulate",
    "streaming.sweep",
    "streaming.push_block",
    "serialize.load_detector",
    "data.load_signals",
    "data.make_fragments",
    "py.gc",
)
# Spans of the workloads' set-up, which runs once per run.
SETUP_SPANS = {"serialize.load_detector", "data.load_signals", "data.make_fragments"}
# Graph walk that counts backward nodes; its own span keeps it out of the
# self time of the span that called backward.
NODE_WALK = "bench.node_walk"
# Spans that start a new group id: one per call, pushed block or (through
# ``Adam.zero_grad``) training step.
GROUPED = {"training.train", "streaming.simulate", "streaming.sweep", "streaming.push_block"}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = list(SPANS) + [NODE_WALK]
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self._open: list[int] = []
        self._group = 0
        self.backward_nodes = array("q")

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._open[-1] if self._open else -1)
        self.group.append(self._group)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = perf_counter()
        self._open.pop()

    def new_group(self):
        self._group += 1

    def _gc_callback(self, phase, info):
        if phase == "start":
            self.open("py.gc")
        elif self._open and self.name_id[self._open[-1]] == self._name_ids["py.gc"]:
            self.close(self._open[-1])

    # -- patching ----------------------------------------------------------

    def _span(self, name, fn):
        grouped = name in GROUPED

        def traced(*args, **kwargs):
            if grouped:
                self.new_group()
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _targets(self, wd):
        """(owner, attribute, span name) for every patched lookup site."""
        import wavedetect.model as model
        import wavedetect.optim as optim
        import wavedetect.streaming as streaming
        import wavedetect.training as training

        return [
            (training, "mdwd", "wavelet.mdwd"),
            (model, "conv1d", "nn.conv1d"),
            (model, "deconv1d", "nn.deconv1d"),
            (model, "lstm_cell", "nn.lstm_cell"),
            (model.WaveletAutoencoder, "encode", "model.encode"),
            (training, "reconstruction_loss", "model.reconstruction_loss"),
            (optim.Adam, "step", "optim.adam_step"),
            (wd, "train", "training.train"),
            (training, "score_fragment", "training.score_fragment"),
            (streaming, "window_predictions", "streaming.window_predictions"),
            (wd, "simulate", "streaming.simulate"),
            (wd, "sweep", "streaming.sweep"),
            (streaming.VoteState, "push_block", "streaming.push_block"),
            (wd, "load_detector", "serialize.load_detector"),
            (wd, "load_signals", "data.load_signals"),
            (wd, "make_fragments", "data.make_fragments"),
        ]

    @contextmanager
    def active(self, wd):
        """Install every patch and the GC callback; undo them on exit."""
        import wavedetect.autodiff as autodiff
        import wavedetect.model as model
        import wavedetect.optim as optim

        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        for owner, attr, name in self._targets(wd):
            if attr in owner.__dict__:
                patch(owner, attr, self._span(name, owner.__dict__[attr]))

        decode = model.WaveletAutoencoder.decode
        teacher = self._span("model.decode_teacher", decode)
        free = self._span("model.decode_free", decode)

        def traced_decode(self_, code, teacher_activations=None):
            if teacher_activations is None:
                return free(self_, code)
            return teacher(self_, code, teacher_activations)

        patch(model.WaveletAutoencoder, "decode", traced_decode)

        backward = autodiff.Tensor.backward
        traced_backward = self._span("autodiff.backward", backward)

        def counted_backward(loss):
            index = self.open(NODE_WALK)
            self.backward_nodes.append(count_graph_nodes(loss))
            self.close(index)
            return traced_backward(loss)

        patch(autodiff.Tensor, "backward", counted_backward)

        zero_grad = optim.Adam.zero_grad

        def grouped_zero_grad(self_):
            zero_grad(self_)
            self.new_group()

        patch(optim.Adam, "zero_grad", grouped_zero_grad)

        gc.callbacks.append(self._gc_callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def count(self) -> int:
        """Spans recorded so far; spans ``[a, b)`` are those opened between
        two counts ``a`` and ``b``."""
        return len(self.start)

    def table(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name: calls, total seconds and self seconds, over the
        spans ``[first, last)`` in opening order."""
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        picked = np.zeros(len(duration), dtype=bool)
        picked[first:last] = True
        out = {}
        for i, name in enumerate(self.names):
            mask = picked & (names == i)
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def write(self, path):
        """One JSON object per span, in start order."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    '{"id": %d, "name": "%s", "start": %.9f, "end": %.9f, '
                    '"parent": %d, "group": %d}\n'
                    % (i, self.names[self.name_id[i]], self.start[i] - origin,
                       self.end[i] - origin, self.parent[i], self.group[i])
                )


def count_graph_nodes(loss) -> int:
    """Nodes ``backward`` visits: the loss plus every recorded ancestor."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
