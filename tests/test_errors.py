"""Every float field of a config is type-checked before its range check, so
a value that is not a number, a bool included, or an integer too large for
a float raises ``ConfigError`` naming the field, as does a bool in an
integer field; a missing config raises ``ConfigError`` naming the
argument; so does an argument of a public method that is not the integer
it takes."""

import numpy as np
import pytest

from wavedetect.data import AnomalyRanges
from wavedetect.errors import ConfigError
from wavedetect.model import ModelConfig, WaveletAutoencoder
from wavedetect.serialize import save_detector
from wavedetect.streaming import VoteConfig
from wavedetect.synth import GeneratorConfig, synth_generate
from wavedetect.training import Detector, TrainConfig, evaluate_fragments, score_windows, train


def _train_config(**field):
    return TrainConfig(model=ModelConfig(channels=2), **field)


_FLOAT_FIELDS = [
    *(pytest.param(_train_config, name, id=f"TrainConfig-{name}") for name in ("lr", "alpha", "beta")),
    *(pytest.param(GeneratorConfig, name, id=f"GeneratorConfig-{name}")
      for name in ("hours", "sample_period_seconds", "severity", "noise")),
    pytest.param(VoteConfig, "vote_threshold", id="VoteConfig-vote_threshold"),
]


@pytest.mark.parametrize("value", ["x", "1", None])
@pytest.mark.parametrize("build,name", _FLOAT_FIELDS)
def test_a_float_field_that_is_not_a_number_is_a_config_error(build, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a real number, got {value!r}"):
        build(**{name: value})


@pytest.mark.parametrize("build,name", _FLOAT_FIELDS)
def test_a_float_field_refuses_an_integer_too_large_for_a_float(build, name):
    """10**400 passes every range check written as a comparison, and used
    to fail later in ``float()``, or to be kept, as a learning rate was."""
    with pytest.raises(ConfigError, match=f"{name} is too large for a float"):
        build(**{name: 10**400})


_INTEGER_FIELDS = [
    pytest.param(ModelConfig, "channels", id="ModelConfig-channels"),
    pytest.param(lambda **field: ModelConfig(channels=2, **field), "hidden", id="ModelConfig-hidden"),
    *(pytest.param(VoteConfig, name, id=f"VoteConfig-{name}") for name in ("window", "step")),
    *(pytest.param(_train_config, name, id=f"TrainConfig-{name}") for name in ("epochs", "seed")),
    pytest.param(GeneratorConfig, "channels", id="GeneratorConfig-channels"),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("build,name,kind", [
    *(pytest.param(*p.values, "an integer", id=p.id) for p in _INTEGER_FIELDS),
    *(pytest.param(*p.values, "a real number", id=p.id) for p in _FLOAT_FIELDS),
])
def test_a_bool_is_not_a_number(build, name, kind, value):
    with pytest.raises(ConfigError, match=f"{name} must be {kind}, got {value!r}"):
        build(**{name: value})


@pytest.mark.parametrize("call,message", [
    (lambda: TrainConfig(model=None), "model must be a ModelConfig, got NoneType"),
    (lambda: train([], None), "cfg must be a TrainConfig, got NoneType"),
    (lambda: synth_generate(None, 0), "cfg must be a GeneratorConfig, got NoneType"),
    (lambda: Detector(model=None, threshold=1.0, train_loss_mean=1.0, norm_mean=None, norm_std=None),
     "model must be a WaveletAutoencoder, got NoneType"),
], ids=["TrainConfig-model", "train-cfg", "synth_generate-cfg", "Detector-model"])
def test_a_missing_config_is_a_config_error(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda path: score_windows(None, np.zeros((1, 2, 64))), "detector must be a Detector, got NoneType"),
    (lambda path: evaluate_fragments(None, []), "detector must be a Detector, got NoneType"),
    (lambda path: save_detector(None, path), "detector must be a Detector, got NoneType"),
    (lambda path: WaveletAutoencoder(None), "config must be a ModelConfig, got NoneType"),
], ids=["score_windows-detector", "evaluate_fragments-detector", "save_detector-detector",
        "WaveletAutoencoder-config"])
def test_a_missing_detector_or_model_config_is_a_config_error(tmp_path, call, message):
    path = tmp_path / "detector.wdc"
    with pytest.raises(ConfigError, match=message):
        call(path)
    assert not path.exists()


@pytest.mark.parametrize("call,message", [
    (lambda: AnomalyRanges([(10, 20)]).check_length("x"), "total must be an integer, got 'x'"),
    (lambda: AnomalyRanges([(10, 20)]).complement("x"), "total must be an integer, got 'x'"),
    (lambda: AnomalyRanges().complement("x"), "total must be an integer, got 'x'"),
    (lambda: AnomalyRanges([(10, 20)]).overlap("a", 5), "start must be an integer, got 'a'"),
], ids=["check_length", "complement", "complement-no-ranges", "overlap"])
def test_a_method_argument_of_the_wrong_type_is_a_config_error(call, message):
    """Each raised a bare ``TypeError`` before."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call()
