"""Synthetic multichannel dataset with injected anomalies.

The generator abstracts a telemetry-style plant: channel 0 is a latent
"driver" process (slow oscillations plus mean-reverting noise), most other
channels are lagged, scaled responses to it with their own texture and
measurement noise, and the last two channels (when there is room) drift
slowly with only weak coupling. Inside each anomaly window the
driver/response coupling is attenuated and a low-frequency drift is mixed
in, both scaled by a smooth envelope and the ``severity`` knob, so spotting
the anomalies needs cross-channel structure at more than one time scale.
Severity 0 produces output identical to the normal regime while still
reporting the (now meaningless) anomaly windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import AnomalyRanges, MultiSeries
from .errors import ConfigError, require_instances, require_integers, require_reals

COUPLING_DROP = 0.55


@dataclass(frozen=True)
class GeneratorConfig:
    channels: int = 8
    hours: float = 48.0
    sample_period_seconds: float = 7.0
    anomaly_count: int = 3
    anomaly_min_samples: int = 768
    anomaly_max_samples: int = 1536
    severity: float = 1.0
    noise: float = 0.15
    edge_margin: int = 512

    def __post_init__(self):
        require_integers(("channels", self.channels), ("anomaly_count", self.anomaly_count),
                         ("anomaly_min_samples", self.anomaly_min_samples),
                         ("anomaly_max_samples", self.anomaly_max_samples), ("edge_margin", self.edge_margin))
        require_reals(("hours", self.hours), ("sample_period_seconds", self.sample_period_seconds),
                      ("severity", self.severity), ("noise", self.noise))
        if self.channels < 2:
            raise ConfigError("need at least a driver and one response channel")
        if not all(map(math.isfinite, (self.hours, self.sample_period_seconds, self.severity, self.noise))):
            raise ConfigError("hours, sample period, severity and noise must be finite")
        if self.hours <= 0 or self.sample_period_seconds <= 0:
            raise ConfigError("hours and sample period must be positive")
        try:
            samples = self.n_samples
        except OverflowError:  # the count is inf
            samples = math.inf
        if samples > np.iinfo(np.intp).max:  # refused before the generator allocates
            raise ConfigError(f"{self.hours} hours at a {self.sample_period_seconds} s sample period "
                              "give a sample count too large for a float or an array")
        if samples < 1:
            raise ConfigError(f"{self.hours} hours at a {self.sample_period_seconds} s sample period "
                              "give no samples")
        if self.anomaly_count < 0:
            raise ConfigError("anomaly_count must be >= 0")
        if not 0 < self.anomaly_min_samples <= self.anomaly_max_samples:
            raise ConfigError("anomaly duration bounds must satisfy 0 < min <= max")
        if self.severity < 0 or self.noise < 0 or self.edge_margin < 0:
            raise ConfigError("severity, noise and edge_margin must be non-negative")
        usable = self.n_samples - 2 * self.edge_margin
        if self.anomaly_count and usable // self.anomaly_count <= self.anomaly_max_samples:
            raise ConfigError(
                f"{self.anomaly_count} anomalies of up to {self.anomaly_max_samples} samples "
                f"do not fit in {self.n_samples} samples with margin {self.edge_margin}"
            )

    @property
    def n_samples(self) -> int:
        return int(self.hours * 3600.0 / self.sample_period_seconds)

    def channel_names(self) -> list:
        n_slow = 2 if self.channels >= 6 else 0
        n_resp = self.channels - 1 - n_slow
        names = ["driver"]
        names += [f"resp_{i}" for i in range(1, n_resp + 1)]
        names += [f"slow_{i}" for i in range(1, n_slow + 1)]
        return names


def _ar1(rng, n, phi, sigma):
    noise = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + noise[i]
        out[i] = acc
    return out


def _place_anomalies(cfg: GeneratorConfig, rng, n: int) -> AnomalyRanges:
    if cfg.anomaly_count == 0:
        return AnomalyRanges()
    # The config has checked that each slot outlasts its longest anomaly.
    slot = (n - 2 * cfg.edge_margin) // cfg.anomaly_count
    spans = []
    for i in range(cfg.anomaly_count):
        length = int(rng.integers(cfg.anomaly_min_samples, cfg.anomaly_max_samples + 1))
        lo = cfg.edge_margin + i * slot
        start = int(rng.integers(lo, lo + slot - length))
        spans.append((start, start + length))
    return AnomalyRanges(tuple(spans))


def _envelope(n: int, ranges: AnomalyRanges) -> np.ndarray:
    """1 inside anomaly windows with cosine ramps, 0 elsewhere."""
    env = np.zeros(n)
    for s, e in ranges:
        length = e - s
        ramp = min(64, length // 4)
        env[s:e] = 1.0
        if ramp:
            rise = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, ramp))
            env[s : s + ramp] = rise
            env[e - ramp : e] = rise[::-1]
    return env


def synth_generate(cfg: GeneratorConfig, seed: int):
    """Build one (MultiSeries, AnomalyRanges) pair, deterministic per seed."""
    require_instances(ConfigError, ("cfg", cfg, GeneratorConfig))
    require_integers(("seed", seed))
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = cfg.n_samples
    period = cfg.sample_period_seconds
    t = np.arange(n, dtype=np.float64)

    p_day = 6.0 * 3600.0 / period
    p_gust = 80.0 * 60.0 / period
    base = 0.7 * np.sin(2.0 * np.pi * t / p_day + rng.uniform(0, 2 * np.pi))
    base += 0.35 * np.sin(2.0 * np.pi * t / p_gust + rng.uniform(0, 2 * np.pi))
    driver = base + _ar1(rng, n, 0.99, 0.12)

    ranges = _place_anomalies(cfg, rng, n)
    env = cfg.severity * _envelope(n, ranges)

    names = cfg.channel_names()
    values = np.empty((cfg.channels, n))
    values[0] = driver + cfg.noise * 0.3 * rng.normal(size=n)

    for ch, name in enumerate(names[1:], start=1):
        slow_channel = name.startswith("slow")
        drift_period = rng.uniform(320.0, 520.0)
        drift_phase = rng.uniform(0, 2 * np.pi)
        drift = np.sin(2.0 * np.pi * t / drift_period + drift_phase)
        drift *= rng.uniform(0.7, 1.3)
        if slow_channel:
            coupled = 0.25 * driver
            body = _ar1(rng, n, 0.998, 0.03) + coupled
            values[ch] = body + 0.5 * env * drift + cfg.noise * 0.5 * rng.normal(size=n)
        else:
            lag = int(rng.integers(1, 6))
            gain = rng.uniform(0.6, 1.1)
            coupled = gain * np.roll(driver, lag)
            texture_period = rng.uniform(16.0, 64.0)
            texture = 0.08 * np.sin(2.0 * np.pi * t / texture_period + rng.uniform(0, 2 * np.pi))
            clean = (1.0 - COUPLING_DROP * env) * coupled
            values[ch] = clean + texture + env * drift + cfg.noise * rng.normal(size=n)

    return MultiSeries(names, values), ranges
