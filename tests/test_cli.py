"""End to end through the command line on a tiny model: synth, train in
both modes, eval, simulate (plain and sweep), a series whose channel count
does not match the detector, and the dwt round trip."""

import re

import numpy as np

from wavedetect.cli import main
from wavedetect.data import MultiSeries, load_signals, save_signals

TINY = ["--window", "64", "--levels", "1", "--conv", "8:4:2", "--hidden", "4", "--epochs", "2"]


def _epoch_losses(text):
    return [float(v) for v in re.findall(r"epoch \d+/2 mean loss ([0-9.]+)", text)]


def test_pipeline(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text("hours=2.8\nanomaly_count=1\nanomaly_min_samples=96\n"
                   "anomaly_max_samples=128\nedge_margin=128\n")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(gen), "--channels", "2", "--seed", "3", "--out", str(data)]) == 0
    signals, ranges = data / "signals.csv", data / "ranges.csv"
    assert signals.exists() and ranges.exists()
    capsys.readouterr()

    detectors = {}
    for mode in ("semi", "supervised"):
        out = tmp_path / f"{mode}.wdc"
        args = ["train", "--mode", mode, "--signals", str(signals), "--ranges", str(ranges),
                "--out", str(out)] + TINY
        if mode == "semi":
            args.append("--drop-anomalous")
        assert main(args) == 0
        losses = _epoch_losses(capsys.readouterr().out)
        assert len(losses) == 2 and losses[1] < losses[0], (mode, losses)
        assert out.exists()
        detectors[mode] = out

    for mode, model in detectors.items():
        assert main(["eval", "--model", str(model), "--signals", str(signals), "--ranges", str(ranges)]) == 0
        assert "row:" in capsys.readouterr().out

    report = tmp_path / "blocks.csv"
    sim = ["simulate", "--model", str(detectors["semi"]), "--signals", str(signals),
           "--ranges", str(ranges), "--tw", "64", "--ts", "16"]
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
    for command in (["eval"], ["simulate", "--tw", "64", "--ts", "16"]):
        assert main(command + ["--model", str(detectors["semi"]), "--signals", str(wide)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3 channels" in err, (command, err)

    coeffs, back = tmp_path / "coeffs", tmp_path / "back.csv"
    assert main(["dwt", "--signals", str(signals), "--levels", "2", "--out", str(coeffs)]) == 0
    assert (coeffs / "detail_2.csv").exists() and (coeffs / "approx.csv").exists()
    assert main(["dwt", "--inverse", str(coeffs), "--out", str(back)]) == 0
    assert np.allclose(load_signals(back).values, load_signals(signals).values, atol=1e-6)


def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys):
    signals = tmp_path / "signals.csv"
    signals.write_text("a\n0.0\n")
    missing = tmp_path / "missing.wdc"
    assert main(["simulate", "--model", str(missing), "--signals", str(signals)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.wdc" in err


def test_unparseable_signals_file_is_one_error_line(tmp_path, capsys):
    signals = tmp_path / "signals.csv"
    signals.write_text("t,a\n0," + "1" * 200_000 + "\n")
    assert main(["dwt", "--signals", str(signals), "--out", str(tmp_path / "coeffs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err and err.count("\n") == 1, err
