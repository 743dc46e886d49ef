"""Command-line pipeline: synthesize data, train, evaluate, simulate
streaming deployment, and inspect wavelet decompositions.

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
    MultiSeries,
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
from .synth import GeneratorConfig, load_generator_config, synth_generate
from .training import TrainConfig, evaluate_fragments, train
from .wavelet import FAMILIES, WaveletDecomposition, get_family, mdwd, reconstruct


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
    p.add_argument("--config", type=Path, help="generator config file (key=value lines)")
    p.add_argument("--channels", type=int, help="number of channels (default: 8)")
    p.add_argument("--hours", type=float, help="duration in hours (default: 48)")
    p.add_argument("--period", type=float, help="sample period in seconds (default: 7)")
    p.add_argument("--anomalies", type=int, help="number of anomaly windows (default: 3)")
    p.add_argument("--severity", type=float, help="anomaly strength, 0 disables effects (default: 1.0)")
    p.add_argument("--noise", type=float, help="measurement noise level (default: 0.15)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: %(default)s)")
    p.add_argument("--out", type=Path, required=True, help="output directory for signals.csv and ranges.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--mode", choices=("semi", "supervised"), default="semi",
                   help="training regime (default: %(default)s)")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.add_argument("--out", type=Path, required=True, help="detector file to write")
    p.add_argument("--epochs", type=int, help="training epochs (default: 16 semi, 11 supervised)")
    p.add_argument("--lr", type=float, default=0.001, help="Adam learning rate (default: %(default)s)")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="reconstruction weight in the supervised loss (default: %(default)s; implementation choice)")
    p.add_argument("--beta", type=float, default=1.5,
                   help="threshold factor over mean training loss (default: %(default)s)")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="fragment length in samples (default: %(default)s)")
    p.add_argument("--pos-step", type=int, default=DEFAULT_POS_STEP,
                   help="sliding step for positive-fragment augmentation (default: %(default)s)")
    p.add_argument("--levels", type=int, default=3,
                   help="wavelet decomposition depth (default: %(default)s; implementation choice)")
    p.add_argument("--hidden", type=int, default=32,
                   help="LSTM hidden size (default: %(default)s; implementation choice)")
    p.add_argument("--family", choices=sorted(FAMILIES), default="haar",
                   help="wavelet family (default: %(default)s; implementation choice)")
    p.add_argument("--conv", type=str, default="32:8:2,64:4:2",
                   help="conv stack as features:kernel:stride,... (default: %(default)s; implementation choice)")
    p.add_argument("--seed", type=int, default=0, help="training seed (default: %(default)s)")
    p.add_argument("--drop-anomalous", action="store_true",
                   help="in semi mode, silently drop anomalous fragments instead of refusing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="fragment-level metrics for a trained detector")
    p.add_argument("--model", type=Path, required=True, help="detector file")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.add_argument("--pos-step", type=int, default=DEFAULT_POS_STEP,
                   help="sliding step for positive-fragment augmentation (default: %(default)s)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="replay a series through the streaming vote engine")
    p.add_argument("--model", type=Path, required=True, help="detector file")
    p.add_argument("--signals", type=Path, required=True, help="signals CSV")
    p.add_argument("--ranges", type=Path, help="anomaly ranges CSV")
    p.add_argument("--tw", type=int, default=512, help="vote window length in samples (default: %(default)s)")
    p.add_argument("--ts", type=int, default=16, help="block length in samples (default: %(default)s)")
    p.add_argument("--vote-threshold", type=float, default=0.5,
                   help="positive-vote ratio declaring a block anomalous (default: %(default)s)")
    p.add_argument("--sweep", action="store_true",
                   help="report metrics for vote thresholds 0.1..0.9 instead of one run")
    p.add_argument("--out", type=Path, help="write the per-block report CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dwt", help="decompose signals to per-level coefficient files (or invert)")
    p.add_argument("--signals", type=Path, help="signals CSV to decompose")
    p.add_argument("--family", choices=sorted(FAMILIES), default="haar",
                   help="wavelet family (default: %(default)s; implementation choice)")
    p.add_argument("--levels", type=int, default=3,
                   help="decomposition depth (default: %(default)s; implementation choice)")
    p.add_argument("--out", type=Path, required=True,
                   help="output directory (forward) or signals CSV (--inverse)")
    p.add_argument("--inverse", type=Path, metavar="COEFF_DIR",
                   help="reconstruct a signals CSV from a decomposition directory")
    p.set_defaults(func=cmd_dwt)
    return parser


def _load_dataset(signals_path, ranges_path):
    series = load_signals(signals_path)
    ranges = load_ranges(ranges_path) if ranges_path else AnomalyRanges()
    ranges.check_length(series.length)
    return series, ranges


def cmd_synth(args) -> int:
    cfg = load_generator_config(args.config) if args.config else GeneratorConfig()
    overrides = {
        "channels": args.channels,
        "hours": args.hours,
        "sample_period_seconds": args.period,
        "anomaly_count": args.anomalies,
        "severity": args.severity,
        "noise": args.noise,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.__post_init__()
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
        anomalous = sum(f.label for f in fragments)
        if anomalous and not args.drop_anomalous:
            raise DataError(
                f"{anomalous} anomalous fragments in the training data; normal-only "
                "training refuses them (pass --drop-anomalous to filter)"
            )
        fragments = [f for f in fragments if f.label == 0]

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
    detector = load_detector(args.model)
    series, ranges = _load_dataset(args.signals, args.ranges)
    if series.channels != detector.model.config.channels:
        raise DataError(
            f"series has {series.channels} channels but the detector expects "
            f"{detector.model.config.channels}"
        )
    window = detector.model.config.fragment_length
    fragments = make_fragments(series, ranges, window=window, pos_step=args.pos_step)
    if not fragments:
        raise DataError("no fragments could be cut from the series")
    report = evaluate_fragments(detector, fragments)
    print(report.format_table())
    print("row:", report.as_row())
    return 0


def cmd_simulate(args) -> int:
    detector = load_detector(args.model)
    series, ranges = _load_dataset(args.signals, args.ranges)
    if series.channels != detector.model.config.channels:
        raise DataError(
            f"series has {series.channels} channels but the detector expects "
            f"{detector.model.config.channels}"
        )
    cfg = VoteConfig(window=args.tw, step=args.ts, vote_threshold=args.vote_threshold)
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


def _write_decomposition(out_dir: Path, series: MultiSeries, decomp: WaveletDecomposition):
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = [
        f"family={decomp.family.name}",
        f"levels={decomp.levels}",
        f"original_length={decomp.original_length}",
        f"sample_period_seconds={series.sample_period_seconds!r}",
        "channels=" + ",".join(series.channel_names),
    ]
    (out_dir / "manifest.txt").write_text("\n".join(meta) + "\n")
    period = series.sample_period_seconds
    for level, det in enumerate(decomp.details, start=1):
        save_signals(out_dir / f"detail_{level}.csv", MultiSeries(series.channel_names, det, period))
    save_signals(out_dir / "approx.csv", MultiSeries(series.channel_names, decomp.approximation, period))


def _read_decomposition(coeff_dir: Path):
    manifest = {}
    for line in (coeff_dir / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        manifest[key] = value
    family = get_family(manifest["family"])
    levels = int(manifest["levels"])
    names = manifest["channels"].split(",")
    period = float(manifest["sample_period_seconds"])
    details = [load_signals(coeff_dir / f"detail_{l}.csv").values for l in range(1, levels + 1)]
    approx = load_signals(coeff_dir / "approx.csv").values
    decomp = WaveletDecomposition(details, approx, family, int(manifest["original_length"]))
    return decomp, names, period


def cmd_dwt(args) -> int:
    if args.inverse:
        decomp, names, period = _read_decomposition(args.inverse)
        series = MultiSeries(names, reconstruct(decomp), period)
        save_signals(args.out, series)
        print(f"reconstructed {series.channels}x{series.length} samples to {args.out}")
        return 0
    if not args.signals:
        raise ConfigError("dwt needs --signals (or --inverse COEFF_DIR)")
    series = load_signals(args.signals)
    decomp = mdwd(series.values, get_family(args.family), args.levels)
    _write_decomposition(args.out, series, decomp)
    shapes = ", ".join(f"L{l + 1}:{d.shape[1]}" for l, d in enumerate(decomp.details))
    print(f"wrote {decomp.levels} detail levels ({shapes}) plus approximation to {args.out}")
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
