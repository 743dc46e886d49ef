import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavedetect.errors import DataError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.serialize import load_detector, load_model, save_detector, save_model
from wavedetect.training import Detector


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

    def test_loaded_model_runs(self, tmp_path, rng):
        model = small_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.normal(size=(2, 32))
        from wavedetect.wavelet import get_family, mdwd

        decomp = mdwd(x, get_family("haar"), 1)
        code, acts = loaded.encode(x, decomp)
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


class TestMalformedContainers:
    """Every defect in a detector file raises DataError, never a bare error."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("container") / "d.bin"
        save_detector(small_detector("supervised"), path)
        return path.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b"wavedetect-container 1", b"wavedetect-container x", 1),
        lambda b: b.replace(b" 4,2,4 0", b" x2 0", 1),
        lambda b: b"\npayload\n" + b,
        lambda b: b"\xff\xfe" + b,
        lambda b: _replace_line(b, b"config ", b"config {not json"),
        lambda b: _replace_line(b, b"meta mode ", b"meta mode bogus"),
        lambda b: b.replace(b'"classifier": true', b'"classifier": false', 1),
        lambda b: _replace_line(b, b"meta mode ", b"meta mode semi"),
        lambda b: _replace_line(b, b"meta train_loss_mean ", b"meta train_loss_mean lots"),
        lambda b: b.replace(b'"seed": 4', b'"seed":-4', 1),
    ], ids=["version", "shape", "empty-header", "not-utf8", "config-json", "mode",
            "supervised-without-head", "semi-without-threshold", "meta-number", "negative-seed"])
    def test_defect(self, tmp_path, blob, edit):
        corrupted = edit(blob)
        assert corrupted != blob
        path = tmp_path / "bad.bin"
        path.write_bytes(corrupted)
        with pytest.raises(DataError):
            load_detector(path)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
