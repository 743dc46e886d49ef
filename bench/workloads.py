"""Inputs and workloads of the wavedetect benchmark.

Every input is made from a seed and written with the package's own save
functions, so each run reads it back through the public load path that
``setup_s`` measures. Three workloads stress different layers:

* ``train-semi`` -- ``train`` on normal fragments: graph building,
  ``backward``, Adam and the cyclic GC; threshold calibration is its only
  autoregressive decode.
* ``stream-replay`` -- ``simulate`` and ``sweep`` over a stream with
  anomalies: every window known up front, all under ``no_grad``.
* ``stream-online`` -- the same detector and stream pushed one block at a
  time through ``VoteState.push_block`` by one closed-loop caller, so the
  same inference layers always run one window per call.

A workload's unit of work is one call sequence whose outputs must repeat
exactly: ``run.py`` repeats units until the measuring time is used up.
Each unit reports the wall time of its top-level calls and of its unit
operations (training step, scored window, push that scores a window).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

# Seed of the stream detector's training data; the workload seed never
# changes the detector, only the series it is run on.
DETECTOR_SEED = 20190215


@dataclass(frozen=True)
class Size:
    model: dict
    train_synth: dict
    train_fragments: int
    train_epochs: int
    stream_synth: dict
    detector_fragments: int
    detector_epochs: int
    vote: dict = field(default_factory=dict)


SIZES = {
    # The default 8-channel model and synth; the stream is 3 h (1,542
    # samples, 65 windows, 34 finalized blocks) with both anomalies inside
    # the finalized span.
    "full": Size(
        model={"channels": 8},
        train_synth={},
        train_fragments=4,
        train_epochs=2,
        stream_synth={"hours": 3.0, "anomaly_count": 2,
                      "anomaly_min_samples": 96, "anomaly_max_samples": 192},
        detector_fragments=16,
        detector_epochs=2,
    ),
    # Seconds-long inputs for the smoke check.
    "tiny": Size(
        model={"channels": 4, "fragment_length": 64, "levels": 1,
               "conv": ((8, 4, 2),), "hidden": 4},
        train_synth={"channels": 4, "hours": 2.0, "anomaly_count": 1, "anomaly_min_samples": 64,
                     "anomaly_max_samples": 128, "edge_margin": 128},
        train_fragments=2,
        train_epochs=2,
        stream_synth={"channels": 4, "hours": 1.0, "anomaly_count": 1, "anomaly_min_samples": 48,
                      "anomaly_max_samples": 96, "edge_margin": 128},
        detector_fragments=2,
        detector_epochs=1,
        vote={"window": 64, "step": 16},
    ),
}


class Inputs:
    """File locations of one size's inputs, under the build directory."""

    def __init__(self, build: Path, size_name: str, seed: int):
        self.dir = build / size_name
        self.size = SIZES[size_name]
        self.seed = seed
        self.detector = self.dir / "detector.wdc"
        self.train = self.dir / f"train-{seed}.csv"
        self.train_ranges = self.dir / f"train-{seed}.ranges.csv"
        self.stream = self.dir / f"stream-{seed}.csv"
        self.stream_ranges = self.dir / f"stream-{seed}.ranges.csv"
        self.prep_log = self.dir / "prep.json"

    def missing(self) -> bool:
        return not all(p.exists() for p in (self.detector, self.train, self.train_ranges,
                                             self.stream, self.stream_ranges))

    def prep_times(self) -> dict:
        if not self.prep_log.exists():
            return {}
        log = json.loads(self.prep_log.read_text())
        keys = ("detector", f"train-{self.seed}", f"stream-{self.seed}")
        return {k: log[k] for k in keys if k in log}


def _replace(write, path: Path):
    """Write through a temporary name so a killed run leaves no half file."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def prepare(wd, inputs: Inputs) -> dict:
    """Create whatever inputs are missing; returns seconds spent per item."""
    size = inputs.size
    inputs.dir.mkdir(parents=True, exist_ok=True)
    spent = {}

    def synth(key, gen, csv_path, ranges_path, seed):
        if csv_path.exists() and ranges_path.exists():
            return
        start = perf_counter()
        series, ranges = wd.synth_generate(wd.GeneratorConfig(**gen), seed)
        _replace(lambda p: wd.save_ranges(p, ranges), ranges_path)
        _replace(lambda p: wd.save_signals(p, series), csv_path)
        spent[key] = perf_counter() - start

    synth(f"train-{inputs.seed}", size.train_synth, inputs.train, inputs.train_ranges, inputs.seed)
    synth(f"stream-{inputs.seed}", size.stream_synth, inputs.stream, inputs.stream_ranges, inputs.seed)

    if not inputs.detector.exists():
        start = perf_counter()
        series, ranges = wd.synth_generate(wd.GeneratorConfig(**size.train_synth), DETECTOR_SEED)
        model = wd.ModelConfig(**size.model)
        fragments = [f for f in wd.make_fragments(series, ranges, window=model.fragment_length)
                     if f.label == 0][: size.detector_fragments]
        cfg = wd.TrainConfig(model=model, mode="semi", epochs=size.detector_epochs)
        detector = wd.train(fragments, cfg)
        _replace(lambda p: wd.save_detector(detector, p), inputs.detector)
        spent["detector"] = perf_counter() - start

    if spent:
        log = json.loads(inputs.prep_log.read_text()) if inputs.prep_log.exists() else {}
        log.update(spent)
        _replace(lambda p: p.write_text(json.dumps(log, indent=1, sort_keys=True)), inputs.prep_log)
    return spent


# -- workloads ---------------------------------------------------------------


class Failure(Exception):
    """The inputs cannot support the workload."""


@dataclass
class Unit:
    """What one unit of work produced and how long its parts took."""

    output: object  # must repeat exactly from unit to unit
    ops: int  # public calls made
    call_s: list  # wall time of each top-level call
    op_s: list  # wall time of each training step, scored window or scoring push
    info: dict = field(default_factory=dict)


class TrainSemi:
    """``train`` on a fixed number of normal fragments for a fixed number of
    epochs. A unit is one ``train`` call: its epochs plus calibration."""

    name = "train-semi"

    def setup(self, wd, inputs: Inputs):
        series = wd.load_signals(inputs.train)
        ranges = wd.load_ranges(inputs.train_ranges)
        model = wd.ModelConfig(**inputs.size.model)
        fragments = [f for f in wd.make_fragments(series, ranges, window=model.fragment_length)
                     if f.label == 0][: inputs.size.train_fragments]
        if len(fragments) < inputs.size.train_fragments:
            raise Failure(f"only {len(fragments)} normal fragments in {inputs.train.name}")
        cfg = wd.TrainConfig(model=model, mode="semi", epochs=inputs.size.train_epochs)
        return {"fragments": fragments, "cfg": cfg}

    def unit(self, wd, state) -> Unit:
        import wavedetect.training as training

        marks, epochs = [], []
        adam = training.Adam
        training.Adam = _marking_adam(adam, marks)
        try:
            start = perf_counter()
            detector = wd.train(state["fragments"], state["cfg"],
                                progress=lambda epoch, loss: epochs.append(loss))
            elapsed = perf_counter() - start
        finally:
            training.Adam = adam
        steps = [b - a for a, b in zip(marks, marks[1:])]
        output = (tuple(epochs), detector.train_loss_mean, detector.threshold)
        return Unit(output, 1, [elapsed], steps, {"final_loss": detector.train_loss_mean})

    def checks(self, wd, state, output):
        epochs = output[0]
        yield "every epoch loss is finite", all(math.isfinite(x) for x in epochs)
        yield "last epoch mean loss is below the first's", epochs[-1] < epochs[0]

    def report(self, units):
        calls = [c for u in units for c in u.call_s]
        steps = [1000.0 * s for u in units for s in u.op_s]
        tail, pct, n = tail_of(steps)
        return [
            ("train_s", median(calls), "s", "lower", f"median of {len(calls)} train calls"),
            ("train_step_p50_ms", median(steps), "ms", "lower", f"median of {n} steps"),
            ("train_step_tail_ms", tail, "ms", "lower", f"p{pct:.1f} of {n} steps, 10 beyond it"),
            ("train_final_loss", units[0].info["final_loss"], "loss", "lower",
             "Detector.train_loss_mean"),
        ]


def _marking_adam(base, marks):
    """A subclass of the optimizer ``train`` builds that notes the clock when
    it is made and after every ``zero_grad``: one mark per step boundary."""

    class MarkingAdam(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            marks.append(perf_counter())

        def zero_grad(self):
            super().zero_grad()
            marks.append(perf_counter())

    return MarkingAdam


class _Stream:
    def setup(self, wd, inputs: Inputs):
        series = wd.load_signals(inputs.stream)
        ranges = wd.load_ranges(inputs.stream_ranges)
        detector = wd.load_detector(inputs.detector)
        vote = wd.VoteConfig(**inputs.size.vote)
        return {"series": series, "ranges": ranges, "detector": detector, "vote": vote}


class StreamReplay(_Stream):
    """Offline ``simulate`` plus ``sweep`` over the stream. A unit is one
    call of each; every call scores every window of the stream, and a
    window's time is its call's time over the window count."""

    name = "stream-replay"

    def unit(self, wd, state) -> Unit:
        args = (state["series"], state["ranges"], state["detector"], state["vote"])
        vote = state["vote"]
        windows = state["series"].length // vote.step - vote.votes_per_block + 1
        start = perf_counter()
        rows, report = wd.simulate(*args)
        mid = perf_counter()
        swept = wd.sweep(*args)
        end = perf_counter()
        calls = [mid - start, end - mid]
        return Unit((tuple(rows), report, tuple(swept)), 2, calls, [c / windows for c in calls],
                    {"windows": windows, "f1": report.f1})

    def checks(self, wd, state, output):
        rows, report, swept = output
        at_half = [r for tau, r in swept if tau == 0.5]
        yield "sweep at vote threshold 0.5 matches simulate", at_half == [report]
        full = state["vote"].votes_per_block
        yield "finalized block count", sum(r.final for r in rows) == len(rows) - 2 * (full - 1)

    def report(self, units):
        windows = sum(u.info["windows"] * len(u.call_s) for u in units)
        seconds = sum(c for u in units for c in u.call_s)
        calls = sum(len(u.call_s) for u in units)
        return [
            ("windows_per_s", windows / seconds, "1/s", "higher",
             f"{windows} windows in {calls} simulate/sweep calls"),
            ("block_f1", units[0].info["f1"], "ratio", "higher",
             "finalized blocks, vote threshold 0.5"),
        ]


class StreamOnline(_Stream):
    """The stream pushed block by block into a fresh ``VoteState``; the
    caller waits for each verdict before pushing the next block. A unit is
    one pass over the whole stream."""

    name = "stream-online"

    def setup(self, wd, inputs: Inputs):
        state = super().setup(wd, inputs)
        step = state["vote"].step
        values = state["series"].values
        state["blocks"] = [values[:, i * step:(i + 1) * step]
                           for i in range(values.shape[1] // step)]
        return state

    def unit(self, wd, state) -> Unit:
        votes = wd.VoteState(state["detector"], state["vote"])
        latencies = []
        start = perf_counter()
        for block in state["blocks"]:
            t0 = perf_counter()
            votes.push_block(block)
            latencies.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        output = tuple((v.index, v.verdict, v.positive, v.total) for v in votes.finalized)
        # The first votes_per_block - 1 pushes only fill the window; every
        # later push scores one window. Latencies are of scoring pushes.
        warmup = state["vote"].votes_per_block - 1
        return Unit(output, len(latencies), [elapsed], latencies[warmup:], {"warmup": warmup})

    def checks(self, wd, state, output):
        if "reference" not in state:
            rows, _ = wd.simulate(state["series"], state["ranges"], state["detector"], state["vote"])
            state["reference"] = tuple((r.index, r.verdict, r.positive, r.total)
                                       for r in rows if r.final)
        yield "finalized verdicts equal simulate's finalized rows", output == state["reference"]

    def report(self, units):
        pushes = [1000.0 * s for u in units for s in u.op_s]
        warmup = sum(u.info["warmup"] for u in units)
        tail, pct, n = tail_of(pushes)
        return [
            ("block_latency_p50_ms", median(pushes), "ms", "lower",
             f"median of {n} scoring pushes; {warmup} warm-up pushes left out"),
            ("block_latency_tail_ms", tail, "ms", "lower",
             f"p{pct:.1f} of {n} scoring pushes, 10 beyond it"),
        ]


WORKLOADS = {w.name: w for w in (TrainSemi(), StreamReplay(), StreamOnline())}


# -- statistics --------------------------------------------------------------


def tail_of(values):
    """(value, percentile, count) at the highest percentile that leaves at
    least 10 samples above it; with 10 samples or fewer, the maximum."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return values[-1], 100.0, n
    k = n - 11
    return values[k], 100.0 * (k + 1) / n, n
