"""Benchmark of the wavedetect pipeline: MDWD, the per-scale conv+LSTM
autoencoder, the threshold detector and sliding-window voting, driven
through the package's public API from one process and one thread.

    python3 bench/run.py --workload train-semi --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run it from anywhere; it imports ``wavedetect`` from the ``src/`` next to
this directory and keeps its inputs and span traces under
``.bench_build/wavedetect/`` at the repository root. Inputs are made from
``--seed`` on first use (``workloads.prepare``) in a child process, outside
every timed interval.

With ``--trace 0`` the run measures end-to-end metrics untraced. With
``--trace 1`` it alternates an untraced and a traced unit of work, checks
that both give the same outputs, and reports per-layer span figures per
traced unit and the tracing overhead. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "wavedetect"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 600

# One BLAS thread for this process and its children. The model's matrices
# are tiny; a second OpenBLAS thread mostly spins beside the caller, which
# doubles CPU use and makes wall times much noisier on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH))
from spans import NODE_WALK, SETUP_SPANS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, prepare  # noqa: E402

# Metrics of the final JSON line: name -> unit. Per-operation medians and
# tails are printed by name instead: on a shared 2-core machine their
# spread from run to run came close to any bound worth setting.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_s": "s",
}
# Spans that run on every workload; only these report times in the JSON
# line, so no reported time is zero by construction. The full span table
# is printed and written with the trace.
TIMED_EVERYWHERE = (
    "wavelet.mdwd",
    "nn.conv1d",
    "nn.deconv1d",
    "nn.lstm_cell",
    "model.encode",
    "model.decode_free",
    "model.reconstruction_loss",
    "data.load_signals",
)
PER_LAYER = {f"{s}.calls": "count" for s in SPANS}
PER_LAYER.update({f"{s}.{k}": "s" for s in TIMED_EVERYWHERE for k in ("s", "self_s")})
PER_LAYER["autodiff.backward.nodes"] = "count"
PER_LAYER["trace.overhead"] = "ratio"

# Times in the JSON line are scaled to a machine on which the reference
# loop below takes this long, and set-up times to one on which a bare
# interpreter starts and imports numpy in this long.
REFERENCE_MS = 10.0
BARE_START_S = 0.1


def reference_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed loop with the arithmetic mix of the
    model's per-timestep graph: small matrix-vector products and elementwise
    numpy calls, with the cyclic GC paused so the heap a workload left
    behind does not change its cost.

    On a shared machine the speed of a core drifts by up to 1.7x within
    seconds, while the ratio of this loop's time to a window's or a step's
    time holds far closer. Measured next to each unit of work, it turns
    drifting wall times into times at a fixed reference speed.
    """
    w = np.full((32, 32), 0.01)
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            a = np.ones(32)
            for _ in range(2500):
                a = np.tanh(w @ a + 0.1) * 0.5 + a * 0.5
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return 1000.0 * median(times)


def import_package():
    """``wavedetect`` from this checkout's ``src/``, never an installed copy."""
    package = ROOT / "src" / "wavedetect"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no package at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(package.parent))
    import wavedetect

    if Path(wavedetect.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported wavedetect from {wavedetect.__file__}, not {package}")
    return wavedetect


def child(args, *extra):
    """Run this script in a fresh interpreter; returns its standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: {' '.join(extra)} child exited with {proc.returncode}")
    return proc.stdout


def bare_start_s() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    numpy: the part of every set-up probe that no wavedetect code runs in."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: bare interpreter exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - start


def measure_setup(args):
    """Per probe: seconds from spawning a fresh interpreter until the
    workload's inputs are loaded, raw and at reference speed.

    Each probe follows a bare interpreter start. A probe's time over that
    start's time, times ``BARE_START_S``, is its time on a machine whose
    bare start takes ``BARE_START_S``: both slow down alike when the
    machine's speed drifts, far more alike than the numpy loop of
    ``reference_ms`` and an interpreter start do."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        bare = bare_start_s()
        start = time.monotonic()
        ready = float(child(args, "--probe-setup").split()[-1])
        raw.append(ready - start)
        scaled.append(raw[-1] * BARE_START_S / bare)
    return raw, scaled


# -- the measured run --------------------------------------------------------


class Tally:
    """Operations and correctness checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}")

    def crash(self, what: str):
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}")
        traceback.print_exc(file=sys.stdout)


class Measured:
    """Units of work with the reference-speed factor of each."""

    def __init__(self):
        self.units, self.factors = [], []

    def add(self, unit, ref_before, ref_after):
        self.units.append(unit)
        self.factors.append(REFERENCE_MS / (0.5 * (ref_before + ref_after)))

    def scaled(self, field):
        return [x * f for u, f in zip(self.units, self.factors) for x in getattr(u, field)]


def run_units(wd, workload, state, seconds, tally, tracer=None):
    """Repeat units of work until ``seconds`` have passed. With a tracer,
    each untraced unit is followed by the same unit traced; returns both
    series and the traced-to-untraced time ratio of each pair."""
    plain, traced, ratios = Measured(), Measured(), []
    deadline = time.perf_counter() + seconds
    ref = reference_ms()
    while True:
        try:
            unit = workload.unit(wd, state)
            after = reference_ms()
            plain.add(unit, ref, after)
            ref = after
            tally.attempted += unit.ops
            if tracer is not None:
                with tracer.active(wd):
                    copy = workload.unit(wd, state)
                after = reference_ms()
                traced.add(copy, ref, after)
                ref = after
                tally.attempted += copy.ops
                tally.check("traced outputs equal untraced outputs", copy.output == unit.output)
                ratios.append(sum(copy.call_s) * traced.factors[-1]
                              / (sum(unit.call_s) * plain.factors[-1]))
        except Exception:
            tally.crash(workload.name)
            break
        if time.perf_counter() >= deadline:
            break
    return plain, traced, ratios


def check_outputs(wd, workload, state, units, tally):
    for i, unit in enumerate(units):
        for name, ok in workload.checks(wd, state, unit.output):
            tally.check(name, ok)
        if i:
            tally.check("unit repeats its first outputs exactly", unit.output == units[0].output)


# -- run record --------------------------------------------------------------


def blas_info():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run_record(args, inputs, prepared_now) -> dict:
    blas, threads = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "prep_s": inputs.prep_times(),
        "prepared_in_this_run": prepared_now,
    }


# -- reports -------------------------------------------------------------------


def metric_line(name, value, unit, better, note=""):
    return f"metric {name} {value!r} {unit} {better}" + (f"  # {note}" if note else "")


def untraced_report(workload, measured, setup, tally):
    """End-to-end metrics: raw ones printed under the names users know, and
    the JSON line's metrics with times at reference speed."""
    setup_raw, setup_scaled = setup
    calls = measured.scaled("call_s")
    metrics = {
        "setup_s": median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_s": median(calls),
    }
    factors = measured.factors
    lines = [
        metric_line("setup_s", median(setup_raw), "s", "lower",
                    f"median of {len(setup_raw)} fresh interpreters"),
        metric_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "lower"),
        metric_line("error_rate", tally.failed / max(tally.attempted, 1), "ratio", "lower",
                    f"{tally.failed} failed of {tally.attempted} operations and checks"),
        *(metric_line(*line) for line in workload.report(measured.units)),
        f"# reference speed factor ({REFERENCE_MS} ms / reference loop time) per unit: "
        f"median {median(factors)!r}, min {min(factors)!r}, max {max(factors)!r}",
        f"# JSON line at reference speed: setup_s median of {len(setup_scaled)} probes, "
        f"each scaled to a {BARE_START_S} s bare interpreter start; "
        f"call_s median of {len(calls)} calls",
    ]
    return metrics, lines


def traced_report(tracer, setup_spans, traced, ratios):
    """Per-layer metrics. Loading spans are taken from the traced set-up,
    which runs once; every other span is averaged over the traced units, so
    its figures mean "per unit of work" whatever number of units fit in
    the measuring time."""
    at_setup = tracer.table(0, setup_spans)
    per_unit = tracer.table(setup_spans, None)
    n = max(len(traced.units), 1)
    metrics, lines = {}, []
    for name in (*SPANS, NODE_WALK):
        if name in SETUP_SPANS:
            row, where = at_setup[name], "at set-up"
        else:
            row, where = {k: v / n for k, v in per_unit[name].items()}, "per unit"
        for key in ("calls", "s", "self_s"):
            metrics[f"{name}.{key}"] = row[key]
        lines.append(f"span {name} {where} calls {row['calls']!r} s {row['s']!r} "
                     f"self_s {row['self_s']!r}")
    lines.append(f"# per unit: mean over {len(traced.units)} traced units")
    nodes = list(tracer.backward_nodes)
    metrics["autodiff.backward.nodes"] = sum(nodes) / len(nodes) if nodes else 0
    metrics["trace.overhead"] = median(ratios)
    lines.append(metric_line("autodiff.backward.nodes", metrics["autodiff.backward.nodes"],
                             "count", "lower", f"mean over {len(nodes)} backward calls"))
    lines.append(metric_line("trace.overhead", metrics["trace.overhead"], "ratio", "lower",
                             f"traced / untraced time at reference speed, median of "
                             f"{len(ratios)} unit pairs"))
    # Ratios of totals over all traced units.
    scored = per_unit["training.score_fragment"]["calls"]
    windows = sum(u.info["windows"] * len(u.call_s) for u in traced.units if "windows" in u.info)
    if windows:
        lines.append(f"# score_fragment calls per window: {scored / windows!r}")
    pushes = per_unit["streaming.push_block"]["calls"]
    if pushes:
        warmup = sum(u.info["warmup"] for u in traced.units)
        lines.append(f"# score_fragment calls per pushed block: {scored / pushes!r}, "
                     f"per push after the warm-up pushes: {scored / (pushes - warmup)!r}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke check")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the emitted metrics")
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    wd = import_package()
    inputs = Inputs(BUILD, args.size, args.seed)
    workload = WORKLOADS[args.workload]
    if args.prepare:
        print(json.dumps(prepare(wd, inputs)))
        return 0
    if args.probe_setup:
        workload.setup(wd, inputs)
        print(time.monotonic())
        return 0

    prepared_now = json.loads(child(args, "--prepare").splitlines()[-1]) if inputs.missing() else {}
    record = run_record(args, inputs, prepared_now)
    tally = Tally()
    print(f"# wavedetect bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("record " + json.dumps(record, sort_keys=True))

    if args.trace:
        tracer = Tracer()
        with tracer.active(wd):
            state = workload.setup(wd, inputs)
        setup_spans = tracer.count()
        plain, traced, ratios = run_units(wd, workload, state, args.seconds, tally, tracer)
    else:
        setup = measure_setup(args)
        state = workload.setup(wd, inputs)
        plain, _, _ = run_units(wd, workload, state, args.seconds, tally)
    if not plain.units:
        sys.exit("bench: no unit of work completed")
    check_outputs(wd, workload, state, plain.units, tally)

    if args.trace:
        metrics, lines = traced_report(tracer, setup_spans, traced, ratios)
        trace_path = BUILD / "traces" / f"{args.workload}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        lines.append(f"# spans written to {trace_path.relative_to(ROOT)}")
        declared = PER_LAYER
    else:
        metrics, lines = untraced_report(workload, plain, setup, tally)
        declared = END_TO_END

    for line in lines:
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


# -- smoke check ---------------------------------------------------------------


# End-to-end metrics each workload prints by name, besides the JSON line.
NAMED_METRICS = {
    "train-semi": ("setup_s", "peak_rss_mb", "error_rate", "train_s", "train_step_p50_ms",
                   "train_step_tail_ms", "train_final_loss"),
    "stream-replay": ("setup_s", "peak_rss_mb", "error_rate", "windows_per_s", "block_f1"),
    "stream-online": ("setup_s", "peak_rss_mb", "error_rate", "block_latency_p50_ms",
                      "block_latency_tail_ms"),
}


def smoke() -> int:
    """Every workload at tiny size, traced and untraced: the JSON line has
    exactly the keys and metrics of BENCHMARK.json, each with its unit, and
    the report names every end-to-end metric with a unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace, emitted in ((0, END_TO_END), (1, PER_LAYER)):
        if declared[trace] != emitted:
            problems.append(f"BENCHMARK.json metrics for trace {trace} differ from run.py's")
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            where = f"{w['name']} trace {trace}"
            found = []
            if proc.returncode != 0:
                found.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                out = proc.stdout.splitlines()
                result = json.loads(out[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    found.append(f"keys {sorted(result)}")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                    found.append(f"correct {result['correct']}, failed {result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    found.append(f"metrics {sorted(got)} differ from BENCHMARK.json")
                found += [f"{k} is not a number" for k, v in result["metrics"].items()
                          if not isinstance(v["value"], (int, float))]
                if trace == 0:
                    printed = {line.split()[1]: line.split()[3] for line in out
                               if line.startswith("metric ")}
                    found += [f"{name} not printed with a unit" for name in NAMED_METRICS[w["name"]]
                              if not printed.get(name)]
            print(f"smoke {where}: {'ok' if not found else 'FAILED'}")
            problems += [f"{where}: {p}" for p in found]
    for p in problems:
        print("smoke problem: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
