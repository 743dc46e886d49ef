import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wavedetect.training as training
from wavedetect.errors import DataError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.serialize import load_detector, save_detector
from wavedetect.training import Detector, score_windows

DATA = Path(__file__).parent / "data"


def small_model(seed=0, classifier=False):
    cfg = ModelConfig(channels=2, fragment_length=32, levels=1,
                      conv=(ConvLayer(4, 4, 2),), hidden=3,
                      classifier=classifier, seed=seed)
    return WaveletAutoencoder(cfg)


def small_detector(mode="semi", seed=4):
    model = small_model(seed=seed, classifier=(mode == "supervised"))
    return Detector(
        model=model,
        threshold=0.0123456789 if mode == "semi" else None,
        train_loss_mean=0.4567,
        norm_mean=np.array([0.5, -1.25]),
        norm_std=np.array([1.5, 2.0]),
    )


class TestModelContainer:
    """The model a detector file holds: its weights, and the checks on what
    the file claims to be."""

    def test_save_load_save_is_byte_exact(self, tmp_path):
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_detector(small_detector("supervised", seed=7), p1)
        save_detector(load_detector(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_weights_match_float32_rounding(self, tmp_path):
        det = small_detector(seed=1)
        path = tmp_path / "d.bin"
        save_detector(det, path)
        loaded = load_detector(path).model
        assert loaded.config == det.model.config
        for (name_a, ta), (name_b, tb) in zip(det.model.named_parameters(), loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(tb.data, ta.data.astype(np.float32).astype(np.float64))

    def test_load_builds_the_model_from_the_stored_tensors(self, tmp_path, monkeypatch):
        """Loading draws no random init to overwrite: every tensor is the
        stored one, needing no grad, under its own name."""
        path = tmp_path / "d.bin"
        det = small_detector("supervised", seed=5)
        save_detector(det, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_detector drew a random init")

        monkeypatch.setattr(random, "Random", no_rng)
        loaded = load_detector(path).model
        assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in det.model.named_parameters()]
        for (_, ta), tb in zip(det.model.named_parameters(), loaded.parameters()):
            assert not tb.requires_grad
            assert np.array_equal(tb.data, ta.data.astype(np.float32).astype(np.float64))

    def test_loaded_model_runs(self, tmp_path, rng):
        path = tmp_path / "d.bin"
        save_detector(small_detector(seed=2), path)
        loaded = load_detector(path).model
        x = rng.normal(size=(1, 2, 32))
        from wavedetect.wavelet import mdwd

        code, acts = loaded.encode([x, *mdwd(x, "haar", 1)[0]])
        assert code.data.shape == (1, 6)

    def test_rejects_wrong_kind(self, tmp_path):
        """A file with no ``meta kind`` line is no detector file."""
        path = tmp_path / "d.bin"
        save_detector(small_detector(), path)
        path.write_bytes(path.read_bytes().replace(b"meta kind detector\n", b"", 1))
        with pytest.raises(DataError, match=f"{path}: line 3: expected 'meta kind detector', got 'meta mode semi'"):
            load_detector(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a container at all")
        with pytest.raises(DataError):
            load_detector(path)


class TestDetectorContainer:
    @pytest.mark.parametrize("mode", ["semi", "supervised"])
    def test_roundtrip_fields(self, tmp_path, mode):
        det = small_detector(mode)
        path = tmp_path / "d.bin"
        save_detector(det, path)
        loaded = load_detector(path)
        assert loaded.mode == mode
        assert loaded.train_loss_mean == det.train_loss_mean
        if mode == "semi":
            assert loaded.threshold == det.threshold
        else:
            assert loaded.threshold is None
        assert np.array_equal(loaded.norm_mean, det.norm_mean.astype(np.float32).astype(np.float64))
        assert np.array_equal(loaded.norm_std, det.norm_std.astype(np.float32).astype(np.float64))

    def test_save_load_save_is_byte_exact(self, tmp_path):
        det = small_detector()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_detector(det, p1)
        save_detector(load_detector(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_config_of_numpy_integers_saves_and_loads(self, tmp_path):
        """A config keeps each integer as a Python int, which the file's JSON
        config can hold."""
        i = np.int64
        cfg = ModelConfig(channels=i(2), fragment_length=i(32), levels=np.int32(1), conv=((i(4), i(4), i(2)),),
                          hidden=i(3), seed=i(1))
        windows = np.random.default_rng(9).normal(size=(3, 2, 32))
        det = training.train(windows, training.TrainConfig(model=cfg, epochs=1))
        save_detector(det, tmp_path / "d.bin")
        loaded = load_detector(tmp_path / "d.bin")
        assert loaded.model.config == cfg
        assert np.array_equal(score_windows(loaded, windows), score_windows(det, windows))

    def test_numpy_floats_save_and_load(self, tmp_path):
        """A detector keeps its threshold and mean training loss as Python
        floats, whose ``repr`` its loader reads back."""
        det = replace(small_detector(), threshold=np.float64(0.5), train_loss_mean=np.float32(0.25))
        save_detector(det, tmp_path / "a.bin")
        loaded = load_detector(tmp_path / "a.bin")
        assert (loaded.threshold, loaded.train_loss_mean) == (0.5, 0.25)
        save_detector(loaded, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_threshold_full_precision(self, tmp_path):
        det = replace(small_detector(), threshold=0.1 + 0.2)  # full float64 precision must survive the text manifest
        path = tmp_path / "d.bin"
        save_detector(det, path)
        assert load_detector(path).threshold == det.threshold

    def test_a_zero_std_in_the_file_is_a_data_error_naming_it(self, tmp_path):
        """``Detector`` refuses the statistics; ``load_detector`` names the file."""
        path = tmp_path / "d.bin"
        save_detector(small_detector(), path)
        blob = bytearray(path.read_bytes())
        head, _, _ = bytes(blob).partition(b"\npayload\n")
        offset = int(next(line for line in head.split(b"\n") if line.startswith(b"tensor norm.std ")).split()[-1])
        start = len(head) + len(b"\npayload\n") + offset
        blob[start : start + 8] = bytes(8)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"{path.name}: norm_std holds a non-positive value"):
            load_detector(path)

    def test_a_mode_line_that_disagrees_with_the_config_is_refused(self, tmp_path):
        """The config's classifier flag decides the kind; a ``meta mode``
        line that says otherwise makes the file a DataError naming it."""
        path = tmp_path / "d.bin"
        save_detector(small_detector("semi"), path)
        path.write_bytes(_replace_line(path.read_bytes(), b"meta mode ", b"meta mode supervised"))
        with pytest.raises(DataError, match=f"{path}: line 4: expected 'meta mode semi', got 'meta mode supervised'"):
            load_detector(path)

    def test_a_semi_file_with_a_head_is_refused(self, tmp_path):
        """Semi training on a head model once wrote a threshold beside the
        head's untrained init; such a file is refused, naming it."""
        path = tmp_path / "d.bin"
        save_detector(small_detector("supervised"), path)
        blob = _replace_line(path.read_bytes(), b"meta mode ", b"meta mode semi")
        path.write_bytes(_replace_line(blob, b"meta threshold ", b"meta threshold 0.5"))
        with pytest.raises(DataError, match=f"{path}: .*classifier head takes no threshold"):
            load_detector(path)

    @pytest.mark.parametrize("prefix,extra", [
        (b"config ", None),
        (b"meta threshold ", b"meta threshold 0.5"),
        (b"tensor norm.std ", None),
        (b"tensor norm.mean ", b"tensor extra.weight 2 {offset}"),
    ], ids=["config", "meta", "tensor", "unread-tensor"])
    def test_a_line_save_never_writes_is_a_data_error_naming_it(self, tmp_path, prefix, extra):
        """The manifest gains a last line: a copy of the line ``prefix``
        names, or ``extra`` at that line's payload offset. The first of two
        lines is the one read, so the added line is the one refused."""
        path = tmp_path / "d.bin"
        save_detector(small_detector("semi"), path)
        head, sep, payload = path.read_bytes().partition(b"\npayload\n")
        lines = head.split(b"\n")
        first = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        added = lines[first] if extra is None else extra.replace(b"{offset}", lines[first].split()[-1])
        path.write_bytes(b"\n".join(lines + [added]) + sep + payload)
        message = f"{path}: line {len(lines) + 1}: expected 'payload', got '{added.decode()}'"
        with pytest.raises(DataError, match=re.escape(message)):
            load_detector(path)

    @pytest.mark.parametrize("edit,number", [
        (lambda lines: lines[:3] + [b"meta threshol 5"] + lines[3:], 4),
        (lambda lines: lines[:4] + [b"meta mode semi"] + lines[4:], 5),
        (lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:], 5),
        (lambda lines: lines[:7] + [b"tensor scale0.conv0.bias 4 0"] + lines[8:], 8),
        (lambda lines: lines[:4] + [lines[4] + b"0"] + lines[5:], 5),
        (lambda lines: lines[:5] + [b"meta train_loss_mean 4.567e-1"] + lines[6:], 6),
    ], ids=["unknown-meta-key", "inserted-meta", "swapped-meta", "tensor-offset", "threshold-not-repr",
            "loss-not-repr"])
    def test_the_first_line_save_would_not_write_is_named(self, tmp_path, edit, number):
        """Meta values are read by key, so an added or moved line is named
        where it stands; a tensor at another offset would read another
        tensor's bytes, and a number not written as ``repr`` is refused even
        where it reads as the same value."""
        path = tmp_path / "d.bin"
        save_detector(small_detector("semi"), path)
        head, sep, payload = path.read_bytes().partition(b"\npayload\n")
        saved = head.split(b"\n")
        assert saved[7].startswith(b"tensor scale0.conv0.bias 4 ")
        edited = edit(saved)
        path.write_bytes(b"\n".join(edited) + sep + payload)
        want, got = saved[number - 1].decode(), edited[number - 1].decode()
        with pytest.raises(DataError, match=re.escape(f"{path}: line {number}: expected '{want}', got '{got}'")):
            load_detector(path)

    def test_bytes_after_the_last_tensor_are_refused(self, tmp_path):
        path = tmp_path / "d.bin"
        save_detector(small_detector("semi"), path)
        path.write_bytes(path.read_bytes() + bytes(12))
        with pytest.raises(DataError, match=f"{path}: 12 bytes after the last tensor"):
            load_detector(path)

    def test_rejects_model_container(self, tmp_path):
        path = tmp_path / "m.bin"
        save_detector(small_detector(), path)
        path.write_bytes(_replace_line(path.read_bytes(), b"meta kind ", b"meta kind model"))
        with pytest.raises(DataError, match=f"{path}: line 3: expected 'meta kind detector', got 'meta kind model'"):
            load_detector(path)


@st.composite
def _stored_detectors(draw):
    """A detector of a small config whose every number survives saving:
    weights and statistics are float32 values."""
    conv = (ConvLayer(3, 4, 2),) + ((ConvLayer(2, 3, 1),) if draw(st.booleans(), label="two convs") else ())
    head = draw(st.booleans(), label="head")
    cfg = ModelConfig(channels=2, fragment_length=32, levels=draw(st.integers(0, 2), label="levels"),
                      conv=conv, hidden=2, classifier=head,
                      wavelet=draw(st.sampled_from(["haar", "db4"]), label="wavelet"),
                      seed=draw(st.integers(0, 2**16), label="seed"))
    model = WaveletAutoencoder(cfg)
    for p in model.parameters():
        p.data = p.data.astype(np.float32).astype(np.float64)

    def per_channel(lo, hi, label):
        return np.array(draw(st.lists(st.floats(lo, hi, width=32), min_size=2, max_size=2), label=label))

    return Detector(model=model, threshold=None if head else draw(st.floats(1e-6, 1e6), label="threshold"),
                    train_loss_mean=draw(st.floats(0, 1e6), label="train_loss_mean"),
                    norm_mean=per_channel(-2**10, 2**10, "mean"), norm_std=per_channel(2**-10, 2**10, "std"))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(det=_stored_detectors())
def test_every_saved_detector_loads_saves_again_and_scores_the_same(tmp_path, det):
    """Levels 0-2, with and without a head, haar and db4, one or two conv
    layers: save, load and save again write the same bytes, and the loaded
    detector scores windows bit for bit as the saved one."""
    first, again = tmp_path / "first.wdc", tmp_path / "again.wdc"
    save_detector(det, first)
    loaded = load_detector(first)
    save_detector(loaded, again)
    assert again.read_bytes() == first.read_bytes()
    windows = np.random.default_rng(0).normal(size=(3, 2, 32))
    assert np.array_equal(score_windows(loaded, windows), score_windows(det, windows))


def _replace_line(blob: bytes, prefix: bytes, new: bytes) -> bytes:
    head, sep, payload = blob.partition(b"\npayload\n")
    lines = [new if line.startswith(prefix) else line for line in head.split(b"\n")]
    return b"\n".join(lines) + sep + payload


_DEFECTS = [
    pytest.param(lambda b: _replace_line(b, b"wavedetect-container ", b"wavedetect-container x"),
                 id="version"),
    pytest.param(lambda b: b.replace(b" 4,2,4 0", b" x2 0", 1), id="shape"),
    pytest.param(lambda b: b"\npayload\n" + b, id="empty-header"),
    pytest.param(lambda b: b"\xff\xfe" + b, id="not-utf8"),
    pytest.param(lambda b: _replace_line(b, b"config ", b"config {not json"), id="config-json"),
    pytest.param(lambda b: _replace_line(b, b"meta mode ", b"meta mode bogus"), id="mode"),
    pytest.param(lambda b: b.replace(b'"classifier": true', b'"classifier": false', 1),
                 id="supervised-without-head"),
    pytest.param(lambda b: _replace_line(b, b"meta mode ", b"meta mode semi"), id="semi-without-threshold"),
    pytest.param(lambda b: _replace_line(b, b"meta train_loss_mean ", b"meta train_loss_mean lots"),
                 id="meta-number"),
    pytest.param(lambda b: _replace_line(b, b"meta train_loss_mean ", b"meta train_loss_mean nan"),
                 id="meta-nan"),
    pytest.param(lambda b: _replace_line(b, b"meta train_loss_mean ", b"meta train_loss_mean -inf"),
                 id="meta-inf"),
    pytest.param(lambda b: _replace_line(b, b"meta train_loss_mean ", b"meta train_loss_mean -0.5"),
                 id="negative-train-loss-mean"),
    pytest.param(lambda b: _replace_line(_replace_line(b, b"meta mode ", b"meta mode semi"),
                                         b"meta threshold ", b"meta threshold 0.0"), id="semi-zero-threshold"),
    pytest.param(lambda b: _replace_line(_replace_line(b, b"meta mode ", b"meta mode semi"),
                                         b"meta threshold ", b"meta threshold -1.0"), id="semi-negative-threshold"),
    pytest.param(lambda b: b.replace(b'"seed": 4', b'"seed":-4', 1), id="negative-seed"),
    pytest.param(lambda b: b.replace(b'"seed": 4', b'"seed": 4.5', 1), id="fractional-seed"),
    pytest.param(lambda b: b.replace(b'"hidden": 3', b'"hidden": 3.0', 1), id="float-hidden"),
    pytest.param(lambda b: b.replace(b'"channels": 2', b'"channels": 2.0', 1), id="float-channels"),
    pytest.param(lambda b: b.replace(b'[[4, 4, 2]]', b'[[4, 4.0, 2]]', 1), id="float-kernel"),
    pytest.param(lambda b: b.replace(b'[[4, 4, 2]]', b'[[4, 4]]', 1), id="conv-layer-pair"),
]


def _assert_rejected(tmp_path, blob, edit, match=None):
    corrupted = edit(blob)
    assert corrupted != blob
    path = tmp_path / "bad.bin"
    path.write_bytes(corrupted)
    with pytest.raises(DataError, match=match):
        load_detector(path)


class TestMalformedContainers:
    """Every defect in a detector file raises DataError, never a bare error,
    whether the file says version 3 (``blob``) or version 1 (``v1_blob``, the
    same file with an older header, which must be refused however else it
    is broken)."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("container") / "d.bin"
        save_detector(small_detector("supervised"), path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def v1_blob(self, blob):
        return _as_version(blob, b"1")

    @pytest.mark.parametrize("edit", _DEFECTS)
    def test_defect(self, tmp_path, blob, edit):
        _assert_rejected(tmp_path, blob, edit)

    @pytest.mark.parametrize("edit", _DEFECTS)
    def test_version_1_defect(self, tmp_path, v1_blob, edit):
        _assert_rejected(tmp_path, v1_blob, edit)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_or_truncated_bytes(self, tmp_path, blob, data):
        corrupted = bytearray(blob)
        if data.draw(st.booleans(), label="truncate"):
            corrupted = corrupted[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            header = blob.index(b"\npayload\n") + 9
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                at = data.draw(st.integers(0, header + 32), label="at")
                corrupted[at] = data.draw(st.integers(0, 255), label="byte")
        path = tmp_path / "fuzzed.bin"
        path.write_bytes(bytes(corrupted))
        try:
            load_detector(path)
        except DataError:
            pass


def _scores(det, windows):
    """Head scores and teacher-forced reconstruction losses of a supervised
    detector on ``windows``."""
    recon = training._scores(det.model, det.norm_mean, det.norm_std, windows, head=False)
    return score_windows(det, windows), recon


class TestDetector700cef6:
    """``data/detector_700cef6.wdc`` is ``small_detector("supervised")`` as
    written by commit 700cef6, then converted to version 3. That commit wrote
    version 1, with 16 per-gate tensors per LSTM, and gave the file the scores
    in ``data/detector_700cef6_scores.npz`` on a fixed batch of windows: from
    the head, and the reconstruction loss of its teacher-forced
    ``decode(code, acts)``, the pass every score now runs. At that commit:

        save_detector(small_detector("supervised"), "tests/data/v1_detector.wdc")
        det = load_detector("tests/data/v1_detector.wdc")
        windows = np.random.default_rng(1902).normal(size=(5, 2, 32))
        xn = normalize_values(windows, det.norm_mean, det.norm_std)
        decomp = mdwd(xn, HAAR, 1)
        with no_grad():
            code, acts = det.model.encode(xn, decomp)
            recon = reconstruction_loss([xn, *decomp.details], det.model.decode(code, acts)).data
        np.savez("tests/data/v1_detector_scores.npz", windows=windows,
                 head=score_windows(det, windows), recon=recon)

    The file was converted at commit 257ebab, the last to read version 1,
    which also recorded the converted file's scores, and the scores file was
    then renamed:

        save_detector(load_detector("tests/data/v1_detector.wdc"), "tests/data/detector_700cef6.wdc")
        det = load_detector("tests/data/detector_700cef6.wdc")
        head, recon = _scores(det, np.load("tests/data/v1_detector_scores.npz")["windows"])
        np.savez("tests/data/detector_700cef6_converted_scores.npz", head=head, recon=recon)
        git mv tests/data/v1_detector_scores.npz tests/data/detector_700cef6_scores.npz

    Saving rounded each version-1 bias pair, summed in float64, to float32
    once: that moved the head scores by 2.2e-9 and the reconstruction losses
    by 3.6e-10.
    """

    @pytest.fixture(scope="class")
    def scores(self):
        windows = np.load(DATA / "detector_700cef6_scores.npz")["windows"]
        return _scores(load_detector(DATA / "detector_700cef6.wdc"), windows)

    def test_scores_within_1e_8_of_commit_700cef6(self, scores):
        recorded = np.load(DATA / "detector_700cef6_scores.npz")
        for got, key in zip(scores, ("head", "recon")):
            np.testing.assert_allclose(got, recorded[key], rtol=0, atol=1e-8)

    def test_saved_again_byte_for_byte(self, tmp_path):
        path = tmp_path / "again.wdc"
        save_detector(load_detector(DATA / "detector_700cef6.wdc"), path)
        assert path.read_bytes() == (DATA / "detector_700cef6.wdc").read_bytes()

    def test_scores_exactly_as_when_converted(self, scores):
        recorded = np.load(DATA / "detector_700cef6_converted_scores.npz")
        for got, key in zip(scores, ("head", "recon")):
            assert np.array_equal(got, recorded[key])


def _as_version(blob: bytes, version: bytes) -> bytes:
    return _replace_line(blob, b"wavedetect-container ", b"wavedetect-container " + version)


class TestOlderVersions:
    """Only version 3 is read. A file of version 1 or 2 must be retrained,
    whatever its mode; the error names the file and its version."""

    @staticmethod
    def _assert_must_retrain(tmp_path, version, mode):
        path = tmp_path / f"v{version}.bin"
        save_detector(small_detector(mode), path)
        path.write_bytes(_as_version(path.read_bytes(), str(version).encode()))
        with pytest.raises(DataError, match=f"{path}: a version {version} container.*retrain"):
            load_detector(path)

    def test_version_1_semi_must_be_retrained(self, tmp_path):
        self._assert_must_retrain(tmp_path, 1, "semi")

    def test_version_1_supervised_must_be_retrained(self, tmp_path):
        self._assert_must_retrain(tmp_path, 1, "supervised")

    def test_version_2_semi_must_be_retrained(self, tmp_path):
        self._assert_must_retrain(tmp_path, 2, "semi")

    def test_version_2_supervised_must_be_retrained(self, tmp_path):
        self._assert_must_retrain(tmp_path, 2, "supervised")
