"""Multilevel discrete wavelet decomposition (MDWD) on dyadic-length signals.

A wavelet family is a name, ``"haar"`` or ``"db4"``, as a ``ModelConfig``
and a detector file hold it. ``FAMILIES`` maps each name to its analysis
pair, (lowpass, highpass), two read-only float64 arrays; the highpass is
the lowpass's quadrature mirror, ``hi[j] = (-1)**j * lo[K-1-j]``. Both
lowpasses are orthonormal to their even shifts, so the bank, with periodic
boundary extension, splits a length-N signal (N even) exactly into N/2
approximation and N/2 detail coefficients; cascading the lowpass branch
gives the pyramid, whose level l keeps T/2**l columns per channel.
Analysis taps are applied as ``coef[k] = sum_j taps[j] * x[(2k + j) mod N]``.
The inverse, which scatters the same taps back, lives in the tests.

``mdwd`` is the public call and checks what it is handed; ``mdwd(x, name,
1)`` is one level. ``get_family`` is the one check on a name. ``_level``,
the step behind ``mdwd``, checks nothing.
"""

from __future__ import annotations

import numpy as np

from .data import as_floats
from .errors import ConfigError, ShapeError, require_integers


def _bank(lowpass: np.ndarray) -> tuple:
    """The read-only (lowpass, highpass) pair of an orthonormal lowpass."""
    pair = lowpass, (-1.0) ** np.arange(lowpass.size) * lowpass[::-1]
    for taps in pair:
        taps.flags.writeable = False
    return pair


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

FAMILIES = {
    "haar": _bank(np.array([1.0 / _SQRT2, 1.0 / _SQRT2])),
    "db4": _bank(np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2)),
}


def get_family(name: str) -> tuple:
    """The (lowpass, highpass) pair of the family ``name``; a name that is
    not in ``FAMILIES`` raises ``ConfigError``."""
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


def _check_depth(length: int, wavelet: str, levels: int):
    """Raise ``ConfigError`` unless ``levels`` >= 1 levels of the family
    ``wavelet``, a name ``get_family`` has checked, split a ``length``-sample
    signal: 2**levels divides the length, and the coarsest stage is at least
    as long as the filter."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    # A right shift first: ``1 << levels`` overflows for a huge ``levels``.
    if length >> (levels - 1) < FAMILIES[wavelet][0].size:
        raise ConfigError(f"{levels} levels leave a stage shorter than the {wavelet} filter")
    if length % (1 << levels) != 0:
        raise ConfigError(f"length {length} is not divisible by 2**{levels}")


def _level(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One analysis step of ``mdwd`` with the pair (``lo``, ``hi``):
    (approx, detail) of the last axis, each half its length."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(lo.size)[None, :]) % n
    windows = x[..., idx]
    return _fold(windows, lo), _fold(windows, hi)


def mdwd(signal, wavelet: str, levels: int):
    """``(details, approximation)`` of each channel of a 1-D signal, a (C, T)
    array or a (B, C, T) batch, by the pyramid cascade of the family named
    ``wavelet``: ``details[l-1]`` is level l, (C, T/2**l), and the
    approximation (C, T/2**L), each with the batch's leading (B,) axis.
    ``_check_depth`` says which ``levels`` fit T."""
    x = as_floats(signal, "signal")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim not in (2, 3):
        raise ShapeError(f"expected a (C, T) or (B, C, T) array, got shape {x.shape}")
    lo, hi = get_family(wavelet)
    require_integers(("levels", levels))
    _check_depth(x.shape[-1], wavelet, levels)
    details = []
    approx = x
    for _ in range(levels):
        approx, det = _level(approx, lo, hi)
        details.append(det)
    return details, approx
