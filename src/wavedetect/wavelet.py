"""Multilevel discrete wavelet decomposition on dyadic-length signals.

The transform uses orthogonal two-channel filter banks with periodic
boundary extension, so a length-N signal (N even) splits exactly into N/2
approximation and N/2 detail coefficients, and the inverse reconstructs the
input to machine precision. Cascading the lowpass branch yields the usual
pyramid decomposition; per level l the detail array keeps T/2**l columns
per channel.

Filter conventions
------------------
Analysis taps are applied as ``coef[k] = sum_j taps[j] * x[(2k + j) mod N]``
and synthesis scatters the same taps back, which is the correct inverse for
orthonormal banks. The highpass is derived from the lowpass by the
quadrature-mirror relation ``hi[j] = (-1)**j * lo[K-1-j]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class WaveletFamily:
    """An orthonormal analysis filter pair."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lowpass, dtype=np.float64)
        hi = np.asarray(self.highpass, dtype=np.float64)
        object.__setattr__(self, "lowpass", lo)
        object.__setattr__(self, "highpass", hi)
        if lo.ndim != 1 or hi.ndim != 1 or lo.size != hi.size:
            raise ConfigError("lowpass and highpass must be 1-D and equal length")
        if lo.size < 2 or lo.size % 2 != 0:
            raise ConfigError("filter length must be even and >= 2")
        if abs(float(lo @ lo) - 1.0) > _ORTHO_TOL:
            raise ConfigError(f"lowpass of {self.name!r} is not unit-energy")
        if abs(float(lo @ hi)) > _ORTHO_TOL:
            raise ConfigError(f"filters of {self.name!r} are not orthogonal")

    @classmethod
    def from_lowpass(cls, name: str, taps) -> "WaveletFamily":
        lo = np.asarray(taps, dtype=np.float64)
        hi = (-1.0) ** np.arange(lo.size) * lo[::-1]
        return cls(name, lo, hi)

    def __len__(self) -> int:
        return self.lowpass.size


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

HAAR = WaveletFamily.from_lowpass("haar", [1.0 / _SQRT2, 1.0 / _SQRT2])
DB4 = WaveletFamily.from_lowpass(
    "db4",
    np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2),
)

FAMILIES = {f.name: f for f in (HAAR, DB4)}


def get_family(name: str) -> WaveletFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ConfigError(f"unknown wavelet family {name!r}; choose from {sorted(FAMILIES)}") from None


def _fold(windows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # Explicit tap loop keeps the summation order identical for 1-D and
    # stacked inputs, so per-channel results are bit-equal either way.
    acc = taps[0] * windows[..., 0]
    for j in range(1, taps.size):
        acc = acc + taps[j] * windows[..., j]
    return acc


def dwt_level(signal, family: WaveletFamily):
    """One analysis step: returns (approx, detail), each half the input length.

    Works on a 1-D signal or row-wise on a (C, N) array. Periodic extension
    handles the boundary, so N must be even and at least the filter length.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"signal length {n} is odd")
    k = len(family)
    if n < k:
        raise ShapeError(f"signal length {n} is shorter than the filter ({k} taps)")
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(k)[None, :]) % n
    windows = x[..., idx]
    return _fold(windows, family.lowpass), _fold(windows, family.highpass)


def idwt_level(approx, detail, family: WaveletFamily) -> np.ndarray:
    """Exact inverse of ``dwt_level`` under periodic extension."""
    a = np.asarray(approx, dtype=np.float64)
    d = np.asarray(detail, dtype=np.float64)
    if a.shape != d.shape:
        raise ShapeError(f"approx shape {a.shape} != detail shape {d.shape}")
    half = a.shape[-1]
    n = 2 * half
    x = np.zeros(a.shape[:-1] + (n,))
    lo, hi = family.lowpass, family.highpass
    base = 2 * np.arange(half)
    for j in range(len(family)):
        x[..., (base + j) % n] += lo[j] * a + hi[j] * d
    return x


@dataclass
class WaveletDecomposition:
    """Pyramid coefficients: per-level details plus the final approximation.

    ``details[l-1]`` holds level l with shape (C, T/2**l); ``approximation``
    has shape (C, T/2**L). A batched input adds a leading (B,) axis to both.
    """

    details: list = field(default_factory=list)
    approximation: np.ndarray = None
    family: WaveletFamily = None
    original_length: int = 0

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def channels(self) -> int:
        return self.approximation.shape[-2]


def _as_rows(series) -> np.ndarray:
    values = getattr(series, "values", series)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim not in (2, 3):
        raise ShapeError(f"expected a (C, T) or (B, C, T) array, got shape {arr.shape}")
    return arr


def mdwd(series, family: WaveletFamily, levels: int) -> WaveletDecomposition:
    """Multilevel decomposition of each channel via the pyramid cascade.

    Accepts a (C, T) array, a (B, C, T) batch, a 1-D signal, or anything
    with a ``values`` attribute. T must be divisible by 2**levels and the
    coarsest stage must still be at least as long as the filter.
    """
    x = _as_rows(series)
    t = x.shape[-1]
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    if t % (1 << levels) != 0:
        raise ConfigError(f"length {t} is not divisible by 2**{levels}")
    if t // (1 << (levels - 1)) < len(family):
        raise ConfigError(f"{levels} levels leave a stage shorter than the {family.name} filter")
    details = []
    approx = x
    for _ in range(levels):
        approx, det = dwt_level(approx, family)
        details.append(det)
    return WaveletDecomposition(details, approx, family, t)


def reconstruct(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert a multilevel decomposition back to the (C, T) signal."""
    approx = decomp.approximation
    for det in reversed(decomp.details):
        approx = idwt_level(approx, det, decomp.family)
    return approx


def mra_components(decomp: WaveletDecomposition) -> list:
    """Time-domain additive components, one per detail level plus the
    approximation (last entry). Each has the original (C, T) shape and the
    components sum to the decomposed signal; for orthogonal families the
    detail components from distinct levels are mutually orthogonal.
    """
    components = []
    zero_details = [np.zeros_like(d) for d in decomp.details]
    zero_approx = np.zeros_like(decomp.approximation)
    for l in range(decomp.levels):
        picked = list(zero_details)
        picked[l] = decomp.details[l]
        part = WaveletDecomposition(picked, zero_approx, decomp.family, decomp.original_length)
        components.append(reconstruct(part))
    approx_part = WaveletDecomposition(zero_details, decomp.approximation, decomp.family, decomp.original_length)
    components.append(reconstruct(approx_part))
    return components
