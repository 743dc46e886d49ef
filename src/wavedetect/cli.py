"""Command-line pipeline: synthesize data, train, evaluate, and simulate
streaming deployment.

``train --mode supervised`` gives the model a classifier head, which alone
makes the kind; ``semi`` trains a head-less model on normal fragments.
A detector file's ``meta mode`` must agree with its config.

Defaults marked "(implementation choice)" are tunable knobs this package
picked; the rest mirror the detector's standard operating values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import (
    DEFAULT_POS_STEP,
    DEFAULT_WINDOW,
    AnomalyRanges,
    load_ranges,
    load_signals,
    make_fragments,
    save_ranges,
    save_signals,
)
from .errors import ConfigError, DataError, WaveDetectError
from .model import ConvLayer, ModelConfig
from .serialize import load_detector, save_detector
from .streaming import VoteConfig, simulate, sweep
from .synth import GeneratorConfig, synth_generate
from .training import SEMI_EPOCHS, SUPERVISED_EPOCHS, TrainConfig, evaluate_fragments, train
from .wavelet import FAMILIES


def _parse_conv(text: str):
    """Conv stack spec: comma-separated features:kernel:stride triples."""
    layers = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"bad conv layer {part!r}; expected features:kernel:stride")
        try:
            layers.append(ConvLayer(*(int(p) for p in pieces)))
        except ValueError:
            raise ConfigError(f"bad conv layer {part!r}; expected integers") from None
    return tuple(layers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavedetect",
        description="Multiscale wavelet autoencoder anomaly detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--channels", type=int, default=GeneratorConfig.channels,
                   help="number of channels (default: %(default)s)")
    p.add_argument("--hours", type=float, default=GeneratorConfig.hours,
                   help="duration in hours (default: %(default)s)")
    p.add_argument("--period", type=float, default=GeneratorConfig.sample_period_seconds,
                   help="sample period in seconds (default: %(default)s)")
    p.add_argument("--anomalies", type=int, default=GeneratorConfig.anomaly_count,
                   help="number of anomaly windows (default: %(default)s)")
    p.add_argument("--severity", type=float, default=GeneratorConfig.severity,
                   help="anomaly strength, 0 disables effects (default: %(default)s)")
    p.add_argument("--noise", type=float, default=GeneratorConfig.noise,
                   help="measurement noise level (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: %(default)s)")
    p.add_argument("--out", type=Path, required=True, help="output directory for signals.csv and ranges.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--mode", choices=("semi", "supervised"), default=TrainConfig.mode,
                   help="training regime (default: %(default)s)")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.add_argument("--out", type=Path, required=True, help="detector file to write")
    p.add_argument("--epochs", type=int,
                   help=f"training epochs (default: {SEMI_EPOCHS} semi, {SUPERVISED_EPOCHS} supervised)")
    p.add_argument("--lr", type=float, default=TrainConfig.lr, help="Adam learning rate (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha,
                   help="reconstruction weight in the supervised loss (default: %(default)s; implementation choice)")
    p.add_argument("--beta", type=float, default=TrainConfig.beta,
                   help="threshold factor over mean training loss (default: %(default)s)")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="fragment length in samples (default: %(default)s)")
    p.add_argument("--pos-step", type=int, default=DEFAULT_POS_STEP,
                   help="sliding step for positive-fragment augmentation (default: %(default)s)")
    p.add_argument("--levels", type=int, default=ModelConfig.levels,
                   help="wavelet decomposition depth (default: %(default)s; implementation choice)")
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden,
                   help="LSTM hidden size (default: %(default)s; implementation choice)")
    p.add_argument("--family", choices=sorted(FAMILIES), default=ModelConfig.wavelet,
                   help="wavelet family (default: %(default)s; implementation choice)")
    conv = ",".join(f"{c.features}:{c.kernel}:{c.stride}" for c in ModelConfig.conv)
    p.add_argument("--conv", type=str, default=conv,
                   help="conv stack as features:kernel:stride,... (default: %(default)s; implementation choice)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="training seed (default: %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="fragment-level metrics for a trained detector on non-overlapping windows")
    p.add_argument("--model", type=Path, required=True, help="detector file")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="replay a series through the streaming vote engine; "
                                         "the vote window is the detector's fragment length")
    p.add_argument("--model", type=Path, required=True, help="detector file")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.add_argument("--ts", type=int, default=VoteConfig.step, help="block length in samples (default: %(default)s)")
    p.add_argument("--vote-threshold", type=float, default=VoteConfig.vote_threshold,
                   help="positive-vote ratio declaring a block anomalous (default: %(default)s)")
    p.add_argument("--sweep", action="store_true",
                   help="report metrics for vote thresholds 0.1..0.9 instead of one run")
    p.add_argument("--out", type=Path, help="write the per-block report CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)
    return parser


def _load_dataset(signals_path, ranges_path):
    return load_signals(signals_path), load_ranges(ranges_path) if ranges_path else AnomalyRanges()


def _load_detector_and_dataset(args):
    """The ``--model`` detector and the dataset it runs on, whose channel
    counts must agree."""
    detector = load_detector(args.model)
    series, ranges = _load_dataset(args.signals, args.ranges)
    if series.channels != detector.model.config.channels:
        raise DataError(
            f"series has {series.channels} channels but the detector expects "
            f"{detector.model.config.channels}"
        )
    return detector, series, ranges


def cmd_synth(args) -> int:
    cfg = GeneratorConfig(channels=args.channels, hours=args.hours, sample_period_seconds=args.period,
                          anomaly_count=args.anomalies, severity=args.severity, noise=args.noise)
    series, ranges = synth_generate(cfg, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    save_signals(args.out / "signals.csv", series)
    save_ranges(args.out / "ranges.csv", ranges)
    print(f"wrote {series.channels}x{series.length} samples and {len(ranges)} anomaly ranges to {args.out}")
    return 0


def cmd_train(args) -> int:
    series, ranges = _load_dataset(args.signals, args.ranges)
    fragments = make_fragments(series, ranges, window=args.window, pos_step=args.pos_step)
    if args.mode == "semi":
        normal = [f for f in fragments if f.label == 0]
        if len(normal) < len(fragments):
            print(f"left out {len(fragments) - len(normal)} anomalous fragments; semi training takes normal ones only")
        fragments = normal

    model_cfg = ModelConfig(
        channels=series.channels,
        fragment_length=args.window,
        levels=args.levels,
        conv=_parse_conv(args.conv),
        hidden=args.hidden,
        classifier=args.mode == "supervised",
        wavelet=args.family,
        seed=args.seed,
    )
    train_cfg = TrainConfig(
        model=model_cfg,
        mode=args.mode,
        epochs=args.epochs,
        lr=args.lr,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
    )
    positives = sum(f.label for f in fragments)
    print(f"training on {len(fragments)} fragments ({positives} anomalous), "
          f"{train_cfg.resolved_epochs} epochs, mode {args.mode}")

    def progress(epoch, mean_loss):
        print(f"epoch {epoch + 1}/{train_cfg.resolved_epochs} mean loss {mean_loss:.6f}")

    detector = train(fragments, train_cfg, progress)
    save_detector(detector, args.out)
    if detector.threshold is not None:
        print(f"threshold {detector.threshold:.6f} (beta {args.beta} x mean loss {detector.train_loss_mean:.6f})")
    print(f"wrote detector to {args.out}")
    return 0


def cmd_eval(args) -> int:
    detector, series, ranges = _load_detector_and_dataset(args)
    window = detector.model.config.fragment_length
    # Each window counted once: overlapping positives would inflate the anomalous class.
    fragments = make_fragments(series, ranges, window=window, pos_step=window)
    if not fragments:
        raise DataError("no fragments could be cut from the series")
    report = evaluate_fragments(detector, fragments)
    print(report.format_table())
    print("row:", report.as_row())
    return 0


def cmd_simulate(args) -> int:
    detector, series, ranges = _load_detector_and_dataset(args)
    cfg = VoteConfig(window=detector.model.config.fragment_length, step=args.ts,
                     vote_threshold=args.vote_threshold)
    if args.sweep:
        print("vote_threshold,tp,fp,tn,fn,accuracy,precision,recall,f1")
        for tau, report in sweep(series, ranges, detector, cfg):
            print(f"{tau:.1f},{report.as_row()}")
        return 0
    rows, report = simulate(series, ranges, detector, cfg)
    lines = ["block_index,label,final_verdict,votes_positive,votes_total"]
    lines += [row.as_row() for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text)
        print(f"wrote {len(rows)} block rows to {args.out}")
    else:
        print(text, end="")
    finalized = sum(1 for r in rows if r.final)
    print(f"finalized {finalized}/{len(rows)} blocks at vote threshold {cfg.vote_threshold}")
    print(report.format_table())
    print("row:", report.as_row())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WaveDetectError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
