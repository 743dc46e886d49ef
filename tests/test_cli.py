"""End to end through the command line on a tiny model: synth from flags,
train in both modes, eval, simulate (plain and sweep), a series whose
channel count does not match the detector, and bad input files and values
that must end in one error line, not a traceback."""

import re

import numpy as np
import pytest

from wavedetect.cli import _parse_conv, build_parser, main
from wavedetect.data import (
    DEFAULT_WINDOW,
    AnomalyRanges,
    MultiSeries,
    load_ranges,
    load_signals,
    make_fragments,
    save_ranges,
    save_signals,
)
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.serialize import save_detector
from wavedetect.synth import GeneratorConfig, synth_generate
from wavedetect.streaming import VoteConfig
from wavedetect.training import SEMI_EPOCHS, SUPERVISED_EPOCHS, Detector, TrainConfig

TINY = ["--window", "64", "--levels", "1", "--conv", "8:4:2", "--hidden", "4", "--epochs", "2"]


def _epoch_losses(text):
    return [float(v) for v in re.findall(r"epoch \d+/2 mean loss ([0-9.]+)", text)]


def test_pipeline(tmp_path, capsys):
    synthesized = tmp_path / "synth"
    assert main(["synth", "--channels", "3", "--hours", "6", "--anomalies", "1", "--seed", "5",
                 "--out", str(synthesized)]) == 0
    assert "wrote 3x3085 samples and 1 anomaly ranges" in capsys.readouterr().out
    series, ranges = synth_generate(GeneratorConfig(channels=3, hours=6.0, anomaly_count=1), 5)
    written = load_signals(synthesized / "signals.csv")
    assert written.channels == 3 and written.channel_names == series.channel_names
    assert np.array_equal(written.values, series.values)
    assert load_ranges(synthesized / "ranges.csv") == ranges

    small = GeneratorConfig(channels=2, hours=2.8, anomaly_count=1, anomaly_min_samples=96,
                            anomaly_max_samples=128, edge_margin=128)
    series, spans = synth_generate(small, 3)
    signals, ranges = tmp_path / "signals.csv", tmp_path / "ranges.csv"
    save_signals(signals, series)
    save_ranges(ranges, spans)

    anomalous = sum(f.label for f in make_fragments(series, spans, window=64))
    assert anomalous > 0
    detectors = {}
    for mode in ("semi", "supervised"):
        out = tmp_path / f"{mode}.wdc"
        args = ["train", "--mode", mode, "--signals", str(signals), "--ranges", str(ranges),
                "--out", str(out)] + TINY
        assert main(args) == 0
        printed = capsys.readouterr().out
        left_out = "anomalous fragments; semi training takes normal ones only"
        assert (f"left out {anomalous} {left_out}" in printed) == (mode == "semi"), printed
        losses = _epoch_losses(printed)
        assert len(losses) == 2 and losses[1] < losses[0], (mode, losses)
        assert out.exists()
        detectors[mode] = out

    for mode, model in detectors.items():
        assert main(["eval", "--model", str(model), "--signals", str(signals), "--ranges", str(ranges)]) == 0
        assert "row:" in capsys.readouterr().out

    report = tmp_path / "blocks.csv"
    sim = ["simulate", "--model", str(detectors["semi"]), "--signals", str(signals),
           "--ranges", str(ranges), "--ts", "16"]
    assert main(sim + ["--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "block_index,label,final_verdict,votes_positive,votes_total"
    assert len(lines) - 1 == load_signals(signals).length // 16
    assert "finalized" in capsys.readouterr().out
    assert main(sim + ["--sweep"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 9

    wide = tmp_path / "wide.csv"
    two = load_signals(signals).values
    save_signals(wide, MultiSeries(["a", "b", "c"], np.vstack([two, two[:1]])))
    for command in (["eval"], ["simulate", "--ts", "16"]):
        assert main(command + ["--model", str(detectors["semi"]), "--signals", str(wide)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3 channels" in err, (command, err)


def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys):
    signals = tmp_path / "signals.csv"
    signals.write_text("a\n0.0\n")
    missing = tmp_path / "missing.wdc"
    assert main(["simulate", "--model", str(missing), "--signals", str(signals)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.wdc" in err


def _save_one_channel_detector(path):
    cfg = ModelConfig(channels=1, fragment_length=64, levels=1, conv=(ConvLayer(8, 4, 2),), hidden=4)
    save_detector(Detector(model=WaveletAutoencoder(cfg), threshold=1.0, train_loss_mean=1.0,
                           norm_mean=np.zeros(1), norm_std=np.ones(1)), path)


def test_simulate_takes_the_vote_window_from_the_detector(tmp_path, capsys):
    """A detector trained at a window other than the default replays with
    no window flag: the vote window has one legal value, its fragment length."""
    model = tmp_path / "detector.wdc"
    _save_one_channel_detector(model)
    signals = tmp_path / "signals.csv"
    signals.write_text("t,a\n" + "".join(f"{i},{np.sin(i / 5.0):.6f}\n" for i in range(256)))
    report = tmp_path / "blocks.csv"
    assert main(["simulate", "--model", str(model), "--signals", str(signals), "--out", str(report)]) == 0
    assert len(report.read_text().splitlines()) - 1 == 256 // VoteConfig().step
    assert "finalized 10/16 blocks" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--model", str(model), "--signals", str(signals), "--tw", "64"])


def test_eval_counts_each_window_once(tmp_path, capsys):
    """``eval`` tiles the anomaly ranges like the normal spans, with no
    overlap: its sample count is the non-overlapping fragment count."""
    model = tmp_path / "detector.wdc"
    _save_one_channel_detector(model)
    series = MultiSeries(["a"], np.sin(np.arange(512) / 5.0)[None, :])
    spans = AnomalyRanges([(128, 320)])
    signals, ranges = tmp_path / "signals.csv", tmp_path / "ranges.csv"
    save_signals(signals, series)
    save_ranges(ranges, spans)
    assert main(["eval", "--model", str(model), "--signals", str(signals), "--ranges", str(ranges)]) == 0
    samples = int(re.search(r"^samples\s+(\d+)$", capsys.readouterr().out, re.MULTILINE).group(1))
    assert samples == len(make_fragments(series, spans, window=64, pos_step=64)) == 8
    with pytest.raises(SystemExit):
        build_parser().parse_args(["eval", "--model", str(model), "--signals", str(signals), "--pos-step", "16"])


def test_unparseable_signals_file_is_one_error_line(tmp_path, capsys):
    model = tmp_path / "detector.wdc"
    _save_one_channel_detector(model)
    signals = tmp_path / "signals.csv"
    signals.write_text("t,a\n0," + "1" * 200_000 + "\n")
    assert main(["eval", "--model", str(model), "--signals", str(signals)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err and err.count("\n") == 1, err


def test_signals_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    signals = tmp_path / "latin1.csv"
    signals.write_bytes(b"t,\xff\n0,1.0\n")
    assert main(["train", "--signals", str(signals), "--out", str(tmp_path / "d.wdc")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {signals}: not UTF-8 text\n", err


@pytest.mark.parametrize("hours", ["nan", "inf"])
def test_non_finite_generator_value_is_one_error_line(tmp_path, capsys, hours):
    out = tmp_path / "data"
    assert main(["synth", "--hours", hours, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_generator_config_without_samples_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--hours", "0.0001", "--anomalies", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no samples" in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--hours", "1e306"), ("--period", "1e-320"), ("--hours", "1e300")])
def test_generator_sample_count_too_large_is_one_error_line(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert main(["synth", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large" in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("version", ["1", "2"])
def test_older_container_version_is_one_error_line(tmp_path, capsys, version):
    model = tmp_path / "detector.wdc"
    _save_one_channel_detector(model)
    model.write_bytes(model.read_bytes().replace(b"wavedetect-container 3\n",
                                                 f"wavedetect-container {version}\n".encode(), 1))
    signals = tmp_path / "signals.csv"
    signals.write_text("t,a\n" + "".join(f"{i},0.0\n" for i in range(128)))
    assert main(["simulate", "--model", str(model), "--signals", str(signals)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"version {version}" in err and "retrain" in err, err
    assert err.count("\n") == 1, err


def test_negative_synth_seed_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_parsed_defaults_are_the_config_defaults(capsys):
    """Each flag's default is read from the config that owns it, so the CLI
    and the API train and vote alike when no flag is given."""
    parser = build_parser()
    args = parser.parse_args(["train", "--signals", "s.csv", "--out", "d.wdc"])
    model = ModelConfig(channels=1)
    cfg = TrainConfig(model=model)
    assert (args.mode, args.epochs, args.lr, args.alpha, args.beta, args.seed) == \
           (cfg.mode, cfg.epochs, cfg.lr, cfg.alpha, cfg.beta, cfg.seed)
    assert (args.window, args.levels, args.hidden, args.family, _parse_conv(args.conv)) == \
           (model.fragment_length, model.levels, model.hidden, model.wavelet, model.conv)
    args = parser.parse_args(["synth", "--out", "d"])
    gen = GeneratorConfig()
    assert (args.channels, args.hours, args.period, args.anomalies, args.severity, args.noise) == \
           (gen.channels, gen.hours, gen.sample_period_seconds, gen.anomaly_count, gen.severity, gen.noise)
    args = parser.parse_args(["simulate", "--model", "d.wdc", "--signals", "s.csv"])
    assert (args.ts, args.vote_threshold) == (VoteConfig().step, VoteConfig().vote_threshold)
    assert DEFAULT_WINDOW == model.fragment_length == VoteConfig().window
    with pytest.raises(SystemExit):
        parser.parse_args(["train", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # unwrapped
    assert f"(default: {SEMI_EPOCHS} semi, {SUPERVISED_EPOCHS} supervised)" in help_text
