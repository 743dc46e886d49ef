import numpy as np
import pytest

from wavedetect.errors import ConfigError, DataError, ShapeError
from wavedetect.wavelet import FAMILIES, _level, get_family, mdwd

from conftest import idwt_level, reconstruct

SQRT2 = np.sqrt(2.0)


def dwt_naive(x, family):
    """Filter-and-downsample by definition, with periodic extension."""
    n = len(x)
    lo, hi = get_family(family)
    approx = np.zeros(n // 2)
    detail = np.zeros(n // 2)
    for k in range(n // 2):
        for j in range(len(lo)):
            approx[k] += lo[j] * x[(2 * k + j) % n]
            detail[k] += hi[j] * x[(2 * k + j) % n]
    return approx, detail


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_orthonormal_filter_bank(self, family):
        lo, hi = get_family(family)
        assert len(lo) == len(hi)
        assert len(lo) % 2 == 0
        assert abs(float(lo @ lo) - 1.0) < 1e-12
        assert abs(float(hi @ hi) - 1.0) < 1e-12
        assert abs(float(lo @ hi)) < 1e-12

    def test_quadrature_mirror_relation(self):
        lo, hi = get_family("db4")
        expected = (-1.0) ** np.arange(4) * lo[::-1]
        assert np.allclose(hi, expected)

    def test_registry(self):
        assert get_family("haar") is FAMILIES["haar"]
        assert get_family("db4") is FAMILIES["db4"]
        assert set(FAMILIES) == {"haar", "db4"}
        with pytest.raises(ConfigError):
            get_family("sym5")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_filters_refuse_writes(self, family):
        """A write to a filter would change every later ``mdwd`` and model."""
        for taps in get_family(family):
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                taps[0] = 5.0

    @pytest.mark.parametrize("family,lowpass,highpass", [
        ("haar", ["0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"],
         ["0x1.6a09e667f3bccp-1", "-0x1.6a09e667f3bccp-1"]),
        ("db4", ["0x1.ee8dd4748bf14p-2", "0x1.ac4bdd6e3fd6fp-1", "0x1.cb0bf0b6b7109p-3", "-0x1.0907dc193068fp-3"],
         ["-0x1.0907dc193068fp-3", "-0x1.cb0bf0b6b7109p-3", "0x1.ac4bdd6e3fd6fp-1", "-0x1.ee8dd4748bf14p-2"]),
    ])
    def test_the_filters_keep_their_bytes(self, family, lowpass, highpass):
        """Every saved detector and every score was computed with these
        exact taps, so a change to how a bank is built must leave them."""
        lo, hi = get_family(family)
        assert (lo.dtype, hi.dtype) == (np.float64, np.float64)
        assert [float(v).hex() for v in lo] == lowpass
        assert [float(v).hex() for v in hi] == highpass

    @pytest.mark.parametrize("name", ["HAAR", "db2", "", None, 4, ["haar"]])
    def test_get_family_refuses_what_is_not_a_family_name(self, name):
        """``get_family`` is the one check on a name: a name is a ``str``
        key of ``FAMILIES``, compared exactly."""
        with pytest.raises(ConfigError, match=r"unknown wavelet family .*; choose from \['db4', 'haar'\]"):
            get_family(name)


class TestSingleLevel:
    def test_haar_constant_signal(self):
        [detail], approx = mdwd([1.0, 1.0, 1.0, 1.0], "haar", 1)
        assert np.allclose(approx, [[SQRT2, SQRT2]])
        assert np.allclose(detail, [[0.0, 0.0]])

    def test_haar_alternating_signal(self):
        x = [1.0, -1.0, 1.0, -1.0]
        [detail], approx = mdwd(x, "haar", 1)
        ref_a, ref_d = dwt_naive(np.array(x), "haar")
        assert np.allclose(approx, [ref_a])
        assert np.allclose(detail, [ref_d])
        assert np.allclose(approx, [[0.0, 0.0]])
        assert np.allclose(detail, [[SQRT2, SQRT2]])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_naive_oracle(self, rng, family):
        x = rng.normal(size=64)
        approx, detail = _level(x, *get_family(family))
        ref_a, ref_d = dwt_naive(x, family)
        assert np.max(np.abs(approx - ref_a)) < 1e-12
        assert np.max(np.abs(detail - ref_d)) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_perfect_reconstruction_length_512(self, rng, family):
        x = rng.normal(size=512)
        [detail], approx = mdwd(x, family, 1)
        assert np.max(np.abs(idwt_level(approx, detail, family) - x)) < 1e-9

    def test_idwt_haar_examples(self):
        assert np.allclose(idwt_level([SQRT2, SQRT2], [0.0, 0.0], "haar"), [1.0, 1.0, 1.0, 1.0])
        assert np.allclose(idwt_level([0.0, 0.0], [SQRT2, SQRT2], "haar"), [1.0, -1.0, 1.0, -1.0])

    def test_idwt_zero_coefficients(self):
        assert not idwt_level(np.zeros(8), np.zeros(8), "db4").any()

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError, match="length 7 is not divisible by 2"):
            mdwd(np.ones(7), "haar", 1)

    def test_too_short_for_filter_rejected(self):
        with pytest.raises(ConfigError, match="stage shorter than the db4 filter"):
            mdwd(np.ones(2), "db4", 1)

    def test_idwt_length_mismatch(self):
        with pytest.raises(ShapeError):
            idwt_level(np.ones(4), np.ones(3), "haar")


class TestMultilevel:
    def test_shapes_channels_2_length_512_levels_3(self, rng):
        x = rng.normal(size=(2, 512))
        details, approx = mdwd(x, "haar", 3)
        assert [d.shape for d in details] == [(2, 256), (2, 128), (2, 64)]
        assert approx.shape == (2, 64)

    def test_constant_series_has_zero_details(self):
        details, _ = mdwd(np.full((3, 128), 4.2), "haar", 3)
        for d in details:
            assert np.max(np.abs(d)) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_recursive_single_level_oracle(self, rng, family):
        x = rng.normal(size=(2, 256))
        details, approximation = mdwd(x, family, 3)
        approx = x
        for level in range(3):
            approx, det = _level(approx, *get_family(family))
            assert np.array_equal(details[level], det)
        assert np.array_equal(approximation, approx)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("length", [64, 128, 512])
    def test_perfect_reconstruction(self, rng, family, length):
        x = rng.normal(size=(3, length))
        assert np.max(np.abs(reconstruct(*mdwd(x, family, 3), family) - x)) < 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_parseval_energy_identity(self, rng, family):
        x = rng.normal(size=(2, 512))
        details, approx = mdwd(x, family, 4)
        coeff_energy = sum(float((d * d).sum()) for d in details)
        coeff_energy += float((approx ** 2).sum())
        assert abs(coeff_energy - float((x * x).sum())) < 1e-9

    def test_channel_independence_is_exact(self, rng):
        x = rng.normal(size=(4, 256))
        details, approx = mdwd(x, "db4", 3)
        for c in range(4):
            one_details, one_approx = mdwd(x[c], "db4", 3)
            for level in range(3):
                assert np.array_equal(details[level][c], one_details[level][0])
            assert np.array_equal(approx[c], one_approx[0])

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigError):
            mdwd(np.ones((1, 100)), "haar", 3)

    @pytest.mark.parametrize("levels", ["2", 2.0, None, True])
    def test_levels_that_are_not_an_integer_rejected(self, levels):
        """Before the range checks, which a string or None fails with a
        bare ``TypeError``."""
        with pytest.raises(ConfigError, match="levels must be an integer"):
            mdwd(np.ones((1, 64)), "haar", levels)

    def test_level_too_deep_for_filter_rejected(self):
        # at level 6 a length-64 signal leaves a 2-sample stage, shorter than db4
        with pytest.raises(ConfigError):
            mdwd(np.ones((1, 64)), "db4", 6)


def mra_components(x, family, levels):
    """Time-domain parts of ``mdwd(x, family, levels)``, one per detail level
    plus the approximation (last), each reconstructed with every other part
    zeroed."""
    details, approx = mdwd(x, family, levels)
    zeros = [np.zeros_like(d) for d in details]
    parts = []
    for l in range(levels):
        picked = list(zeros)
        picked[l] = details[l]
        parts.append(reconstruct(picked, np.zeros_like(approx), family))
    parts.append(reconstruct(zeros, approx, family))
    return parts


class TestMRAComponents:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_components_sum_to_signal(self, rng, family):
        x = rng.normal(size=(2, 256))
        comps = mra_components(x, family, 3)
        assert len(comps) == 4
        assert np.max(np.abs(sum(comps) - x)) < 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cross_level_orthogonality(self, rng, family):
        x = rng.normal(size=(2, 512))
        comps = mra_components(x, family, 3)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                assert abs(float(np.vdot(comps[i], comps[j]))) < 1e-8

    def test_haar_detail_atom_reproduced(self):
        # a signal lying entirely in the level-1 detail space comes back intact
        atom = np.zeros(8)
        atom[0], atom[1] = 1.0 / SQRT2, -1.0 / SQRT2
        comps = mra_components(atom, "haar", 1)
        assert np.allclose(comps[0], atom[None, :], atol=1e-12)
        assert np.allclose(comps[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_decomposition_equals_per_sample(rng, family):
    xs = rng.normal(size=(3, 2, 64))
    details, approx = mdwd(xs, family, 3)
    assert [d.shape for d in details] == [(3, 2, 32), (3, 2, 16), (3, 2, 8)]
    assert approx.shape == (3, 2, 8)
    for i in range(3):
        one_details, one_approx = mdwd(xs[i], family, 3)
        for got, want in zip(details + [approx], one_details + [one_approx]):
            assert np.array_equal(got[i], want)
    assert np.max(np.abs(reconstruct(details, approx, family) - xs)) < 1e-12


@pytest.mark.parametrize("call", [lambda: mdwd("abcd", "haar", 1), lambda: mdwd([[1, 2], [3]], "haar", 1)],
                         ids=["mdwd-string", "mdwd-ragged"])
def test_input_that_is_not_numbers_is_refused(call):
    with pytest.raises(DataError, match="signal is not an array of numbers"):
        call()


def test_rejects_four_dimensional_input():
    """``mdwd`` takes 1-, 2- or 3-D input; a 4-D array or a scalar raises
    ``ShapeError``."""
    for call in (lambda: mdwd(np.zeros((1, 1, 2, 64)), "haar", 1), lambda: mdwd(5.0, "haar", 1)):
        with pytest.raises(ShapeError):
            call()


@pytest.mark.parametrize("call,message", [
    (lambda: mdwd(np.zeros(8), "sym5", 1), r"unknown wavelet family 'sym5'; choose from \['db4', 'haar'\]"),
    (lambda: mdwd(np.zeros((2, 8)), "haar", 10**30), "levels leave a stage shorter than the haar filter"),
], ids=["family-name", "huge-levels"])
def test_a_bad_family_or_level_count_is_a_config_error(call, message):
    """A name that is not in ``FAMILIES``, and a ``levels`` so large that
    ``1 << levels`` raised a bare ``OverflowError`` before."""
    with pytest.raises(ConfigError, match=message):
        call()
