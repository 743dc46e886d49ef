import numpy as np
import pytest

from wavedetect.errors import ConfigError
from wavedetect.synth import GeneratorConfig, synth_generate

SMALL = GeneratorConfig(channels=6, hours=10.0, anomaly_count=2,
                        anomaly_min_samples=600, anomaly_max_samples=900,
                        edge_margin=256)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = GeneratorConfig()
        assert cfg.n_samples == int(48 * 3600 / 7)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(channels=1)
        with pytest.raises(ConfigError):
            GeneratorConfig(hours=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(anomaly_min_samples=100, anomaly_max_samples=50)
        with pytest.raises(ConfigError):
            GeneratorConfig(severity=-1.0)
        with pytest.raises(ConfigError, match="give no samples"):
            GeneratorConfig(hours=0.0001, anomaly_count=0)
        for field in ("channels", "anomaly_count", "anomaly_min_samples", "anomaly_max_samples", "edge_margin"):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                GeneratorConfig(**{field: getattr(GeneratorConfig, field) + 0.5})
        for field in ("hours", "sample_period_seconds", "severity", "noise"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match="finite"):
                    GeneratorConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("hours", 1e306), ("sample_period_seconds", 1e-320), ("hours", 1e300)])
    def test_a_sample_count_too_large_for_a_float_is_refused(self, field, value):
        """Each value is finite, but hours * 3600 / period is not, or (at
        1e300 hours) is more samples than an array can index."""
        with pytest.raises(ConfigError, match="too large for a float"):
            GeneratorConfig(**{field: value})


class TestGenerate:
    def test_deterministic_per_seed(self):
        a_series, a_ranges = synth_generate(SMALL, seed=3)
        b_series, b_ranges = synth_generate(SMALL, seed=3)
        assert np.array_equal(a_series.values, b_series.values)
        assert a_ranges.spans == b_ranges.spans
        c_series, _ = synth_generate(SMALL, seed=4)
        assert not np.array_equal(a_series.values, c_series.values)

    def test_shapes_names_and_ranges(self):
        series, ranges = synth_generate(SMALL, seed=1)
        assert series.channels == 6
        assert series.length == SMALL.n_samples
        assert series.channel_names[0] == "driver"
        assert any(n.startswith("resp_") for n in series.channel_names)
        assert len(ranges) == 2
        for s, e in ranges:
            assert SMALL.anomaly_min_samples <= e - s <= SMALL.anomaly_max_samples
            assert s >= SMALL.edge_margin and e <= series.length - SMALL.edge_margin

    def test_severity_zero_matches_normal_regime_exactly(self):
        cfg0 = GeneratorConfig(**{**SMALL.__dict__, "severity": 0.0})
        base, ranges = synth_generate(cfg0, seed=9)
        assert len(ranges) == 2  # labels still exist even when undetectable
        cfg1 = GeneratorConfig(**{**SMALL.__dict__, "severity": 1.0})
        hot, ranges1 = synth_generate(cfg1, seed=9)
        assert ranges1.spans == ranges.spans
        inside = np.zeros(base.length, dtype=bool)
        for s, e in ranges.spans:
            inside[s:e] = True
        # identical outside; perturbed inside
        assert np.array_equal(base.values[:, ~inside], hot.values[:, ~inside])
        assert not np.array_equal(base.values[:, inside], hot.values[:, inside])

    def test_driver_response_correlation_drops_inside_anomalies(self):
        cfg = GeneratorConfig(channels=8, hours=40.0, anomaly_count=3,
                              anomaly_min_samples=1024, anomaly_max_samples=1536)
        series, ranges = synth_generate(cfg, seed=7)
        inside = np.zeros(series.length, dtype=bool)
        for s, e in ranges.spans:
            inside[s:e] = True
        driver = series.values[0]
        resp_idx = [i for i, n in enumerate(series.channel_names) if n.startswith("resp_")]
        normal_corrs, anomalous_corrs = [], []
        for i in resp_idx:
            resp = series.values[i]
            normal_corrs.append(np.corrcoef(driver[~inside], resp[~inside])[0, 1])
            anomalous_corrs.append(np.corrcoef(driver[inside], resp[inside])[0, 1])
        assert min(normal_corrs) > 0.5
        assert np.mean(anomalous_corrs) < np.mean(normal_corrs) - 0.1

    def test_anomalies_must_fit(self):
        with pytest.raises(ConfigError):
            synth_generate(GeneratorConfig(channels=4, hours=1.0, anomaly_count=2), seed=0)

    @pytest.mark.parametrize("seed,message", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer")])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ConfigError, match=message):
            synth_generate(SMALL, seed)
