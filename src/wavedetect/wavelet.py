"""Multilevel discrete wavelet decomposition (MDWD) on dyadic-length signals.

An orthonormal two-channel filter bank with periodic boundary extension
splits a length-N signal (N even) exactly into N/2 approximation and N/2
detail coefficients; cascading the lowpass branch gives the pyramid, whose
level l keeps T/2**l columns per channel. Analysis taps are applied as
``coef[k] = sum_j taps[j] * x[(2k + j) mod N]``. A family is its lowpass:
``WaveletFamily`` refuses one that is not orthonormal to its even shifts and
derives the highpass as its quadrature mirror, ``hi[j] = (-1)**j *
lo[K-1-j]``, so the bank is orthonormal and the split exact. The inverse,
which scatters the same taps back, lives in the tests.

``mdwd`` is the public call and checks what it is handed; ``mdwd(x, family,
1)`` is one level. ``_level``, the step behind it, checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import as_floats
from .errors import ConfigError, ShapeError, require_instances, require_integers

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class WaveletFamily:
    """An orthonormal analysis filter pair, given by its lowpass."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray = field(init=False)

    def __post_init__(self):
        lo = as_floats(self.lowpass, f"lowpass of {self.name!r}", ConfigError)
        if lo.ndim != 1 or lo.size < 2 or lo.size % 2 != 0:
            raise ConfigError(f"lowpass of {self.name!r} must be 1-D with an even length >= 2")
        # The lowpass is orthonormal to its own even shifts: sum_k lo[k] * lo[k + 2m] = [m == 0].
        shifts = np.correlate(lo, lo, "full")[1::2]
        shifts[lo.size // 2 - 1] -= 1.0
        if np.abs(shifts).max() > _ORTHO_TOL:
            raise ConfigError(f"lowpass of {self.name!r} is not orthonormal to its even shifts")
        object.__setattr__(self, "lowpass", lo)
        object.__setattr__(self, "highpass", (-1.0) ** np.arange(lo.size) * lo[::-1])

    def __len__(self) -> int:
        return self.lowpass.size


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

HAAR = WaveletFamily("haar", [1.0 / _SQRT2, 1.0 / _SQRT2])
DB4 = WaveletFamily(
    "db4",
    np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2),
)

FAMILIES = {f.name: f for f in (HAAR, DB4)}


def get_family(name: str) -> WaveletFamily:
    if isinstance(name, str) and name in FAMILIES:
        return FAMILIES[name]
    raise ConfigError(f"unknown wavelet family {name!r}; choose from {sorted(FAMILIES)}")


def _fold(windows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Explicit tap loop keeps the summation order identical for 1-D and
    # stacked inputs, so per-channel results are bit-equal either way.
    acc = taps[0] * windows[..., 0]
    for j in range(1, taps.size):
        acc = acc + taps[j] * windows[..., j]
    return acc


def _check_depth(length: int, family: WaveletFamily, levels: int):
    """Raise ``ConfigError`` unless ``levels`` >= 1 levels of ``family``
    split a ``length``-sample signal: 2**levels divides the length, and the
    coarsest stage is at least as long as the filter."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    # A right shift first: ``1 << levels`` overflows for a huge ``levels``.
    if length >> (levels - 1) < len(family):
        raise ConfigError(f"{levels} levels leave a stage shorter than the {family.name} filter")
    if length % (1 << levels) != 0:
        raise ConfigError(f"length {length} is not divisible by 2**{levels}")


def _level(x: np.ndarray, family: WaveletFamily):
    """One analysis step of ``mdwd``: (approx, detail) of the last axis,
    each half its length."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(len(family))[None, :]) % n
    windows = x[..., idx]
    return _fold(windows, family.lowpass), _fold(windows, family.highpass)


def mdwd(signal, family: WaveletFamily, levels: int):
    """``(details, approximation)`` of each channel of a 1-D signal, a (C, T)
    array or a (B, C, T) batch, by the pyramid cascade: ``details[l-1]`` is
    level l, (C, T/2**l), and the approximation (C, T/2**L), each with the
    batch's leading (B,) axis. ``_check_depth`` says which ``levels`` fit T."""
    x = as_floats(signal, "signal")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim not in (2, 3):
        raise ShapeError(f"expected a (C, T) or (B, C, T) array, got shape {x.shape}")
    t = x.shape[-1]
    require_instances(ConfigError, ("family", family, WaveletFamily))
    require_integers(("levels", levels))
    _check_depth(t, family, levels)
    details = []
    approx = x
    for _ in range(levels):
        approx, det = _level(approx, family)
        details.append(det)
    return details, approx
