import numpy as np
import pytest

from wavedetect.errors import ConfigError, ShapeError
from wavedetect.wavelet import (
    DB4,
    FAMILIES,
    HAAR,
    WaveletFamily,
    dwt_level,
    get_family,
    idwt_level,
    mdwd,
    mra_components,
    reconstruct,
)

SQRT2 = np.sqrt(2.0)


def dwt_naive(x, family):
    """Filter-and-downsample by definition, with periodic extension."""
    n = len(x)
    lo, hi = family.lowpass, family.highpass
    approx = np.zeros(n // 2)
    detail = np.zeros(n // 2)
    for k in range(n // 2):
        for j in range(len(lo)):
            approx[k] += lo[j] * x[(2 * k + j) % n]
            detail[k] += hi[j] * x[(2 * k + j) % n]
    return approx, detail


class TestFamilies:
    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_orthonormal_filter_bank(self, family):
        lo, hi = family.lowpass, family.highpass
        assert len(lo) == len(hi)
        assert len(lo) % 2 == 0
        assert abs(float(lo @ lo) - 1.0) < 1e-12
        assert abs(float(hi @ hi) - 1.0) < 1e-12
        assert abs(float(lo @ hi)) < 1e-12

    def test_quadrature_mirror_relation(self):
        lo = DB4.lowpass
        expected = (-1.0) ** np.arange(4) * lo[::-1]
        assert np.allclose(DB4.highpass, expected)

    def test_registry(self):
        assert get_family("haar") is HAAR
        assert get_family("db4") is DB4
        assert set(FAMILIES) == {"haar", "db4"}
        with pytest.raises(ConfigError):
            get_family("sym5")

    def test_rejects_non_orthogonal_filters(self):
        with pytest.raises(ConfigError):
            WaveletFamily("bad", [1.0, 1.0], [1.0, -1.0])
        with pytest.raises(ConfigError):
            WaveletFamily("odd", [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


class TestSingleLevel:
    def test_haar_constant_signal(self):
        approx, detail = dwt_level([1.0, 1.0, 1.0, 1.0], HAAR)
        assert np.allclose(approx, [SQRT2, SQRT2])
        assert np.allclose(detail, [0.0, 0.0])

    def test_haar_alternating_signal(self):
        x = [1.0, -1.0, 1.0, -1.0]
        approx, detail = dwt_level(x, HAAR)
        ref_a, ref_d = dwt_naive(np.array(x), HAAR)
        assert np.allclose(approx, ref_a)
        assert np.allclose(detail, ref_d)
        assert np.allclose(approx, [0.0, 0.0])
        assert np.allclose(detail, [SQRT2, SQRT2])

    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_matches_naive_oracle(self, rng, family):
        x = rng.normal(size=64)
        approx, detail = dwt_level(x, family)
        ref_a, ref_d = dwt_naive(x, family)
        assert np.max(np.abs(approx - ref_a)) < 1e-12
        assert np.max(np.abs(detail - ref_d)) < 1e-12

    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_perfect_reconstruction_length_512(self, rng, family):
        x = rng.normal(size=512)
        approx, detail = dwt_level(x, family)
        assert np.max(np.abs(idwt_level(approx, detail, family) - x)) < 1e-9

    def test_idwt_haar_examples(self):
        assert np.allclose(idwt_level([SQRT2, SQRT2], [0.0, 0.0], HAAR), [1.0, 1.0, 1.0, 1.0])
        assert np.allclose(idwt_level([0.0, 0.0], [SQRT2, SQRT2], HAAR), [1.0, -1.0, 1.0, -1.0])

    def test_idwt_zero_coefficients(self):
        assert not idwt_level(np.zeros(8), np.zeros(8), DB4).any()

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError):
            dwt_level(np.ones(7), HAAR)

    def test_too_short_for_filter_rejected(self):
        with pytest.raises(ShapeError):
            dwt_level(np.ones(2), DB4)

    def test_idwt_length_mismatch(self):
        with pytest.raises(ShapeError):
            idwt_level(np.ones(4), np.ones(3), HAAR)


class TestMultilevel:
    def test_shapes_channels_2_length_512_levels_3(self, rng):
        x = rng.normal(size=(2, 512))
        dec = mdwd(x, HAAR, 3)
        assert [d.shape for d in dec.details] == [(2, 256), (2, 128), (2, 64)]
        assert dec.approximation.shape == (2, 64)

    def test_constant_series_has_zero_details(self):
        dec = mdwd(np.full((3, 128), 4.2), HAAR, 3)
        for d in dec.details:
            assert np.max(np.abs(d)) < 1e-12

    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_matches_recursive_single_level_oracle(self, rng, family):
        x = rng.normal(size=(2, 256))
        dec = mdwd(x, family, 3)
        approx = x
        for level in range(3):
            approx, det = dwt_level(approx, family)
            assert np.array_equal(dec.details[level], det)
        assert np.array_equal(dec.approximation, approx)

    @pytest.mark.parametrize("family", [HAAR, DB4])
    @pytest.mark.parametrize("length", [64, 128, 512])
    def test_perfect_reconstruction(self, rng, family, length):
        x = rng.normal(size=(3, length))
        dec = mdwd(x, family, 3)
        assert np.max(np.abs(reconstruct(dec) - x)) < 1e-9

    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_parseval_energy_identity(self, rng, family):
        x = rng.normal(size=(2, 512))
        dec = mdwd(x, family, 4)
        coeff_energy = sum(float((d * d).sum()) for d in dec.details)
        coeff_energy += float((dec.approximation ** 2).sum())
        assert abs(coeff_energy - float((x * x).sum())) < 1e-9

    def test_channel_independence_is_exact(self, rng):
        x = rng.normal(size=(4, 256))
        full = mdwd(x, DB4, 3)
        for c in range(4):
            single = mdwd(x[c], DB4, 3)
            for level in range(3):
                assert np.array_equal(full.details[level][c], single.details[level][0])
            assert np.array_equal(full.approximation[c], single.approximation[0])

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigError):
            mdwd(np.ones((1, 100)), HAAR, 3)

    def test_level_too_deep_for_filter_rejected(self):
        # at level 6 a length-64 signal leaves a 2-sample stage, shorter than db4
        with pytest.raises(ConfigError):
            mdwd(np.ones((1, 64)), DB4, 6)


class TestMRAComponents:
    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_components_sum_to_signal(self, rng, family):
        x = rng.normal(size=(2, 256))
        comps = mra_components(mdwd(x, family, 3))
        assert len(comps) == 4
        assert np.max(np.abs(sum(comps) - x)) < 1e-9

    @pytest.mark.parametrize("family", [HAAR, DB4])
    def test_cross_level_orthogonality(self, rng, family):
        x = rng.normal(size=(2, 512))
        comps = mra_components(mdwd(x, family, 3))
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                assert abs(float(np.vdot(comps[i], comps[j]))) < 1e-8

    def test_haar_detail_atom_reproduced(self):
        # a signal lying entirely in the level-1 detail space comes back intact
        atom = np.zeros(8)
        atom[0], atom[1] = 1.0 / SQRT2, -1.0 / SQRT2
        comps = mra_components(mdwd(atom, HAAR, 1))
        assert np.allclose(comps[0], atom[None, :], atol=1e-12)
        assert np.allclose(comps[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("family", [HAAR, DB4])
def test_batched_decomposition_equals_per_sample(rng, family):
    xs = rng.normal(size=(3, 2, 64))
    dec = mdwd(xs, family, 3)
    assert dec.channels == 2
    assert [d.shape for d in dec.details] == [(3, 2, 32), (3, 2, 16), (3, 2, 8)]
    for i in range(3):
        one = mdwd(xs[i], family, 3)
        for got, want in zip(dec.details + [dec.approximation], one.details + [one.approximation]):
            assert np.array_equal(got[i], want)
    assert np.max(np.abs(reconstruct(dec) - xs)) < 1e-12


def test_rejects_four_dimensional_input():
    with pytest.raises(ShapeError):
        mdwd(np.zeros((1, 1, 2, 64)), HAAR, 1)
