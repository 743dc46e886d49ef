from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavedetect.errors import DataError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.serialize import load_detector, load_model, save_detector, save_model
from wavedetect.training import Detector, score_windows

DATA = Path(__file__).parent / "data"


def small_model(seed=0, classifier=False):
    cfg = ModelConfig(channels=2, fragment_length=32, levels=1,
                      conv=(ConvLayer(4, 4, 2),), hidden=3,
                      classifier=classifier, seed=seed)
    return WaveletAutoencoder(cfg)


def small_detector(mode="semi"):
    model = small_model(seed=4, classifier=(mode == "supervised"))
    return Detector(
        model=model,
        mode=mode,
        threshold=0.0123456789 if mode == "semi" else None,
        train_loss_mean=0.4567,
        norm_mean=np.array([0.5, -1.25]),
        norm_std=np.array([1.5, 2.0]),
    )


class TestModelContainer:
    def test_save_load_save_is_byte_exact(self, tmp_path):
        model = small_model(seed=7)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_weights_match_float32_rounding(self, tmp_path):
        model = small_model(seed=1)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for (name_a, ta), (name_b, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(tb.data, ta.data.astype(np.float32).astype(np.float64))

    def test_load_builds_the_model_from_the_stored_tensors(self, tmp_path, monkeypatch):
        """Loading draws no random init to overwrite: every tensor is the
        stored one, trainable, under its own name."""
        path = tmp_path / "m.bin"
        model = small_model(seed=5, classifier=True)
        save_model(model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_model(path)
        assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in model.named_parameters()]
        for (_, ta), tb in zip(model.named_parameters(), loaded.parameters()):
            assert tb.requires_grad
            assert np.array_equal(tb.data, ta.data.astype(np.float32).astype(np.float64))

    def test_loaded_model_runs(self, tmp_path, rng):
        model = small_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.normal(size=(2, 32))
        from wavedetect.wavelet import get_family, mdwd

        code, acts = loaded.encode([x, *mdwd(x, get_family("haar"), 1).details])
        assert code.data.shape == (6,)

    def test_rejects_wrong_kind(self, tmp_path):
        det = small_detector()
        path = tmp_path / "d.bin"
        save_detector(det, path)
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a container at all")
        with pytest.raises(DataError):
            load_model(path)


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

    def test_threshold_full_precision(self, tmp_path):
        det = small_detector()
        det.threshold = 0.1 + 0.2  # full float64 precision must survive the text manifest
        path = tmp_path / "d.bin"
        save_detector(det, path)
        assert load_detector(path).threshold == det.threshold

    def test_rejects_model_container(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(small_model(), path)
        with pytest.raises(DataError):
            load_detector(path)


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
    pytest.param(lambda b: b.replace(b'"seed": 4', b'"seed":-4', 1), id="negative-seed"),
    pytest.param(lambda b: b.replace(b'"seed": 4', b'"seed": 4.5', 1), id="fractional-seed"),
    pytest.param(lambda b: b.replace(b'"hidden": 3', b'"hidden": 3.0', 1), id="float-hidden"),
    pytest.param(lambda b: b.replace(b'"channels": 2', b'"channels": 2.0', 1), id="float-channels"),
    pytest.param(lambda b: b.replace(b'[[4, 4, 2]]', b'[[4, 4.0, 2]]', 1), id="float-kernel"),
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
    whether the file is version 2 (``blob``) or version 1 (the committed
    ``data/v1_detector.wdc``, the same detector)."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("container") / "d.bin"
        save_detector(small_detector("supervised"), path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def v1_blob(self):
        return (DATA / "v1_detector.wdc").read_bytes()

    @pytest.mark.parametrize("edit", _DEFECTS)
    def test_defect(self, tmp_path, blob, edit):
        _assert_rejected(tmp_path, blob, edit)

    @pytest.mark.parametrize("edit", _DEFECTS)
    def test_version_1_defect(self, tmp_path, v1_blob, edit):
        _assert_rejected(tmp_path, v1_blob, edit)

    @pytest.mark.parametrize("edit,name", [
        (lambda b: _replace_line(b, b"tensor scale1.dec.b_ho ", b"meta dropped b_ho"), "scale1.dec.b_ho"),
        (lambda b: b.replace(b"tensor scale0.enc.w_hf 3,3 ", b"tensor scale0.enc.w_hf 3,1 ", 1),
         "scale0.enc.w_hf"),
    ], ids=["missing", "shape"])
    def test_version_1_gate_tensor_defect(self, tmp_path, v1_blob, edit, name):
        _assert_rejected(tmp_path, v1_blob, edit, match=name)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_or_truncated_bytes(self, tmp_path, blob, v1_blob, data):
        blob = data.draw(st.sampled_from([blob, v1_blob]), label="file")
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


class TestVersion1File:
    """``data/v1_detector.wdc`` is ``small_detector("supervised")`` as written
    by commit 700cef6, the last one to write version 1 with 16 per-gate
    tensors per LSTM. ``data/v1_detector_scores.npz`` holds a fixed batch of
    windows and the scores that commit gave the file on them, from the head
    and from the reconstruction. Both files were made at that commit by:

        save_detector(small_detector("supervised"), "tests/data/v1_detector.wdc")
        det = load_detector("tests/data/v1_detector.wdc")
        semi = Detector(model=det.model, mode="semi", threshold=1.0, train_loss_mean=0.0,
                        norm_mean=det.norm_mean, norm_std=det.norm_std)
        windows = np.random.default_rng(1902).normal(size=(5, 2, 32))
        np.savez("tests/data/v1_detector_scores.npz", windows=windows,
                 head=score_windows(det, windows), recon=score_windows(semi, windows))
    """

    def test_scores_bit_identically_to_the_version_1_code(self):
        det = load_detector(DATA / "v1_detector.wdc")
        recorded = np.load(DATA / "v1_detector_scores.npz")
        semi = Detector(model=det.model, mode="semi", threshold=1.0, train_loss_mean=0.0,
                        norm_mean=det.norm_mean, norm_std=det.norm_std)
        assert np.array_equal(score_windows(det, recorded["windows"]), recorded["head"])
        assert np.array_equal(score_windows(semi, recorded["windows"]), recorded["recon"])

    def test_is_written_again_as_version_2(self, tmp_path):
        det = load_detector(DATA / "v1_detector.wdc")
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_detector(det, p1)
        save_detector(load_detector(p1), p2)
        assert p1.read_bytes().startswith(b"wavedetect-container 2\n")
        assert p1.read_bytes() == p2.read_bytes()
        names = [name for name, _ in load_detector(p1).model.named_parameters()]
        assert [n for n in names if n.startswith("scale0.enc.")] == [
            "scale0.enc.w_x", "scale0.enc.w_h", "scale0.enc.b"]
