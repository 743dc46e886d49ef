"""A detector scores in float32, the precision of its file; training stays
float64.

The default model and a db4 one, each semi and supervised, are trained for
2 epochs on the normal (semi) or all (supervised) fragments of a 12 h
default synth, and score the fragments of another seed's stream. Their
float32 scores are held to 1e-6 of each score against the float64 scores
of the same stored weights and statistics, the pass every scoring path ran
before: 2e-8 was the largest difference seen here, and 1.6e-7 on a 16-epoch
default detector.
"""

import hashlib

import numpy as np
import pytest

import wavedetect.model as model_module
import wavedetect.nn as nn
import wavedetect.training as training
from wavedetect.data import make_fragments
from wavedetect.model import ModelConfig, WaveletAutoencoder
from wavedetect.serialize import load_detector, save_detector
from wavedetect.synth import GeneratorConfig, synth_generate
from wavedetect.training import Detector, TrainConfig, score_windows, train
from wavedetect.wavelet import mdwd

GEN = GeneratorConfig(hours=12.0, anomaly_count=2)
KINDS = [(wavelet, classifier) for wavelet in ("haar", "db4") for classifier in (False, True)]
IDS = [f"{wavelet}-{'supervised' if classifier else 'semi'}" for wavelet, classifier in KINDS]


@pytest.fixture(scope="module")
def trained():
    """(detector, per-epoch losses) of each kind in ``KINDS``."""
    series, ranges = synth_generate(GEN, 0)
    fragments = make_fragments(series, ranges, pos_step=512)
    runs = {}
    for wavelet, classifier in KINDS:
        losses = []
        cfg = TrainConfig(model=ModelConfig(channels=8, wavelet=wavelet, classifier=classifier),
                          mode="supervised" if classifier else "semi", epochs=2)
        det = train([f for f in fragments if classifier or f.label == 0], cfg,
                    progress=lambda epoch, loss: losses.append(loss))
        runs[wavelet, classifier] = det, losses
    return runs


@pytest.fixture(scope="module")
def windows():
    series, ranges = synth_generate(GEN, 1)
    fragments = make_fragments(series, ranges, pos_step=512)
    assert 0 < sum(f.label for f in fragments) < len(fragments)
    return np.stack([f.values for f in fragments])


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_float32_scores_are_within_1e_6_of_float64_scores(trained, windows, kind):
    det, _ = trained[kind]
    got = score_windows(det, windows)
    want = training._scores(det.model.frozen(np.float64), det.norm_mean, det.norm_std, windows,
                            det.model.config.classifier)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


def test_a_default_semi_train_gives_the_float64_losses(trained):
    """Training keeps float64: 2 epochs of a default semi ``train`` give the
    per-epoch losses of commit 481587c, whose detectors scored in float64.
    The digest depends on the BLAS build; it was recorded with numpy 2.4.6's
    OpenBLAS 0.3.31 on an AVX-512 CPU."""
    det, losses = trained["haar", False]
    assert det.model.config == ModelConfig(channels=8) and len(losses) == 2
    digest = hashlib.sha256(np.array(losses).tobytes()).hexdigest()
    assert digest == "fe4e085a12abed98cf1b74868a921af834b5fcdfdceb5cf41c1a80d4132a736e", losses


class TestDtypes:
    """Pinned so that nothing widens scoring back to float64 unnoticed."""

    @staticmethod
    def _assert_float32(det):
        assert {p.data.dtype for p in det.model.parameters()} == {np.dtype(np.float32)}
        assert det.model.dtype == np.float32

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_a_trained_detector_is_float32(self, trained, kind):
        self._assert_float32(trained[kind][0])

    def test_a_loaded_detector_is_float32(self, trained, tmp_path):
        save_detector(trained["db4", True][0], tmp_path / "d.wdc")
        loaded = load_detector(tmp_path / "d.wdc")
        self._assert_float32(loaded)
        assert loaded.norm_mean.dtype == loaded.norm_std.dtype == np.float32

    def test_a_detector_built_from_a_float64_model_is_float32(self):
        model = WaveletAutoencoder(ModelConfig(channels=2, fragment_length=32, levels=1, conv=((4, 4, 2),), hidden=3))
        det = Detector(model=model, threshold=1.0, train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
        self._assert_float32(det)
        assert model.dtype == np.float64

    def test_every_array_a_float32_pass_allocates_or_returns_is_float32(self, trained, windows, monkeypatch):
        """Every buffer ``nn`` and ``model`` allocate during ``encode`` and
        ``decode`` of a detector's model, and every node they return; a
        buffer left at numpy's float64 default would still give float32
        outputs, at twice the element work."""
        det, _ = trained["haar", True]
        made = []

        class Allocations:
            """numpy, noting the dtype of each array its allocating calls make."""

            def __getattr__(self, name):
                call = getattr(np, name)
                if name not in ("empty", "zeros", "array", "concatenate", "stack"):
                    return call

                def noted(*args, **kwargs):
                    out = call(*args, **kwargs)
                    made.append((name, out.dtype))
                    return out

                return noted

        node = nn._node
        monkeypatch.setattr(nn, "_node", lambda data, parents, vjp: made.append(("node", data.dtype))
                            or node(data, parents, vjp))
        for module in (nn, model_module):
            monkeypatch.setattr(module, "np", Allocations())
        xn = (windows[:2] - det.norm_mean[:, None]) / det.norm_std[:, None]
        details, _ = mdwd(xn, "haar", 3)
        code, acts = det.model.encode([xn, *details])
        recons = det.model.decode(code, acts)
        monkeypatch.undo()
        assert {"empty", "zeros", "array", "concatenate", "stack", "node"} <= {name for name, _ in made}
        assert {dtype for _, dtype in made} == {np.dtype(np.float32)}, made
        assert code.data.dtype == np.float32 and det.model.logit(code).data.dtype == np.float32
        assert {a.data.dtype for a in acts + recons} == {np.dtype(np.float32)}

    def test_a_training_models_parameters_and_grads_stay_float64(self, monkeypatch):
        steps = []

        class CheckingAdam(training.Adam):
            def step(self):
                steps.append({a.dtype for p in self.params for a in (p.data, p.grad)})
                super().step()

        monkeypatch.setattr(training, "Adam", CheckingAdam)
        windows = np.random.default_rng(3).normal(size=(3, 2, 32))
        cfg = ModelConfig(channels=2, fragment_length=32, levels=1, conv=((4, 4, 2),), hidden=3)
        train(windows, TrainConfig(model=cfg, epochs=1))
        assert steps == [{np.dtype(np.float64)}] * 3
