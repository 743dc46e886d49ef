"""Every float field of a config is type-checked before its range check, so
a value that is not a number raises ``ConfigError`` naming the field."""

import pytest

from wavedetect.autodiff import Tensor
from wavedetect.errors import ConfigError
from wavedetect.model import ModelConfig
from wavedetect.optim import Adam
from wavedetect.streaming import VoteConfig
from wavedetect.synth import GeneratorConfig
from wavedetect.training import TrainConfig


def _train_config(**field):
    return TrainConfig(model=ModelConfig(channels=2), **field)


_FLOAT_FIELDS = [
    *(pytest.param(_train_config, name, id=f"TrainConfig-{name}") for name in ("lr", "alpha", "beta")),
    pytest.param(lambda **field: Adam([Tensor([1.0], requires_grad=True)], **field), "lr", id="Adam-lr"),
    *(pytest.param(GeneratorConfig, name, id=f"GeneratorConfig-{name}")
      for name in ("hours", "sample_period_seconds", "severity", "noise")),
    pytest.param(VoteConfig, "vote_threshold", id="VoteConfig-vote_threshold"),
]


@pytest.mark.parametrize("value", ["x", "1", None])
@pytest.mark.parametrize("build,name", _FLOAT_FIELDS)
def test_a_float_field_that_is_not_a_number_is_a_config_error(build, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a real number, got {value!r}"):
        build(**{name: value})
