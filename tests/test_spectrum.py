"""Generalized spectra, power accounting, and band filtering."""

import numpy as np
import pytest

from genharm import (
    BasisFunction,
    BasisPair,
    ConfigurationError,
    Decomposition,
    FourierSpectrum,
    GeneralizedSpectrum,
    analyze_fourier,
    analyze_indirect,
    band_filter,
    builtin_basis,
    dilate,
    generalized_spectrum,
    norm,
    parseval_power,
    reconstruct,
    residual,
    synthesize_fourier,
    write_spectrum_csv,
)

from conftest import (
    grid_inner,
    in_span_signal,
    random_bandlimited,
    synthesis_operator,
    two_segment_schedule,
)


def hand_pair():
    return BasisPair(
        BasisFunction([1.0, 0.3], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "hand",
    )


def test_parseval_power_known_value():
    spec = FourierSpectrum(2.0, [3.0], [4.0])
    assert parseval_power(spec) == pytest.approx(4.0 + 0.5 * 25.0, rel=1e-15)
    # a power past the float range is infinite, with no OverflowError and no numpy warning
    for c0, a in ((1e200, 0.0), (0.0, 1e200)):
        assert parseval_power(FourierSpectrum(c0, [a], [0.0])) == np.inf


def test_parseval_power_equals_mean_square():
    rng = np.random.default_rng(23)
    f = random_bandlimited(rng, 10, 64)
    power = parseval_power(analyze_fourier(f, 31))
    assert power == pytest.approx(grid_inner(f, f), rel=1e-12)


def test_component_energy_hand_value():
    # component 1 with A_1 = 1 is S itself: energy 0.5 * (1 + 0.09)
    f = synthesize_fourier(FourierSpectrum(0.0, [0.0, 0.0], [1.0, 1.0]), 64)
    d = analyze_indirect(f, hand_pair(), 2)
    gs = generalized_spectrum(d)
    assert gs.c0_sq == pytest.approx(0.0, abs=1e-28)
    # component 2 is 0.7 * S(2x): the same shape scaled, so 0.49 * 0.545
    np.testing.assert_allclose(gs.entries, [[1, 0.545], [2, 0.49 * 0.545]], rtol=1e-12, atol=0)
    assert gs.total() == pytest.approx(0.545 * 1.49, rel=1e-12)


def test_component_energy_counts_tails_beyond_any_band():
    # a component whose dilated tail would not fit a small grid still owns
    # its full energy: the computation never truncates
    pair = hand_pair()
    f = synthesize_fourier(FourierSpectrum(0.0, np.zeros(16), np.zeros(16)), 64)
    d = analyze_indirect(f, pair, 8)
    gs = generalized_spectrum(d)
    assert all(e == 0.0 for _, e in gs.entries)


def test_generalized_spectrum_validation():
    with pytest.raises(ConfigurationError):
        GeneralizedSpectrum(((1, -0.5),), 0.0)
    with pytest.raises(ConfigurationError):
        GeneralizedSpectrum(((2, 0.5),), 0.0)
    with pytest.raises(ConfigurationError):  # a non-integral k is refused, not truncated to 1
        GeneralizedSpectrum(((1.5, 0.5),), 0.0)
    for k in ("1", True, np.str_("1")):  # a k that is no number is refused, not parsed
        with pytest.raises(ConfigurationError):
            GeneralizedSpectrum(((k, 0.5),), 0.0)
    with pytest.raises(ConfigurationError):
        GeneralizedSpectrum(((1, 0.5, 0.5),), 0.0)
    with pytest.raises(ConfigurationError):
        GeneralizedSpectrum(((1, np.inf),), 0.0)
    # ragged rows get the same error as rows of the wrong width
    for rows in ([(1, 2.0, 3.0), (2, 3.0)], [(1, 2.0), (2,)], "ab"):
        with pytest.raises(ConfigurationError, match=r"\(k, energy\) pairs"):
            GeneralizedSpectrum(rows, 0.0)
    for rows in (np.array([[1.0, 0.5], [2.0, 0.25]]), [(1, 0.5), (np.int32(2), np.float64(0.25))]):
        entries = GeneralizedSpectrum(rows, 0.0).entries
        assert entries.dtype == float and not entries.flags.writeable
        assert np.array_equal(entries, [[1, 0.5], [2, 0.25]])
    assert GeneralizedSpectrum((), 0.0).entries.shape == (0, 2)
    # an energy or c0_sq that is no number is refused, never parsed
    for entries, c0_sq in (([(1, "a")], 0.0), ([(1, "0.5")], 0.0), ([(1, True)], 0.0), ([(1, 0.5)], "0.25")):
        with pytest.raises(ConfigurationError, match="must be a number"):
            GeneralizedSpectrum(entries, c0_sq)
    # finite decompositions whose energies overflow: the mean, then a component
    for c0, a_1 in ((1e200, 0.0), (0.0, 1e200)):
        with pytest.raises(ConfigurationError):
            generalized_spectrum(Decomposition(c0, ((1, a_1, 0.0),), hand_pair(), "indirect"))


def test_orthogonal_power_equality(builtin_pairs):
    rng = np.random.default_rng(61)
    f = random_bandlimited(rng, 16, 128)
    d = analyze_indirect(f, builtin_pairs["sine_cosine"], 16)
    gs = generalized_spectrum(d)
    # total() already carries c0_sq, so it is the whole power budget
    assert gs.total() == pytest.approx(parseval_power(analyze_fourier(f, 16)), abs=1e-10)


def test_power_bound_holds_with_equality_for_depth_one_pairs():
    pair = BasisPair(
        BasisFunction([0.9], [0.4]),
        BasisFunction([-0.3], [1.1]),
        "depth-one",
    )
    rng = np.random.default_rng(101)
    f, _ = in_span_signal(pair, rng, 16, 256)
    d = analyze_indirect(f, pair, 16)
    assert norm(residual(f, d)) < 1e-8
    gs = generalized_spectrum(d)
    power = parseval_power(analyze_fourier(f, 127))
    assert power <= gs.total() + 1e-6
    # distinct components of a depth-one pair never share a harmonic, so the
    # bound is an equality here
    assert power == pytest.approx(gs.total(), abs=1e-10)


def test_power_bound_fails_for_aligned_deep_components():
    """Regression pin for a real limit of the energy bound.

    When distinct components overlap with positive alignment, per-component
    energies undercount the signal power. This is the smallest example: the
    two components share harmonic 2 with product 0.3, so the bound is off by
    exactly twice their inner product.
    """
    pair = hand_pair()
    # f = S(x) + S(2x), which the indirect method recovers exactly
    f = synthesize_fourier(FourierSpectrum(0.0, np.zeros(4), [1.0, 1.3, 0.0, 0.3]), 64)
    d = analyze_indirect(f, pair, 2)
    assert d.coeffs[0][1] == pytest.approx(1.0, abs=1e-13)
    assert d.coeffs[1][1] == pytest.approx(1.0, abs=1e-13)
    assert norm(residual(f, d)) < 1e-12
    gs = generalized_spectrum(d)
    power = parseval_power(analyze_fourier(f, 31))
    assert power == pytest.approx(1.39, rel=1e-12)
    assert gs.total() == pytest.approx(1.09, rel=1e-12)
    assert power - gs.total() == pytest.approx(0.3, rel=1e-10)


def test_band_filter_zeroes_mean_and_outside_components(builtin_pairs):
    rng = np.random.default_rng(35)
    f = random_bandlimited(rng, 8, 256, c0=0.4)
    d = analyze_indirect(f, builtin_pairs["square_saw"], 8)
    kept = band_filter(d, 3, 5)
    assert kept.c0 == 0.0
    for k, (A, B) in enumerate(kept.coeffs[:, 1:], start=1):
        if 3 <= k <= 5:
            assert (A, B) == (d.coeffs[k - 1][1], d.coeffs[k - 1][2])
        else:
            assert A == 0.0 and B == 0.0
    assert kept.method == d.method
    assert kept.basis is d.basis


def test_band_filter_is_idempotent(builtin_pairs):
    rng = np.random.default_rng(36)
    f = random_bandlimited(rng, 8, 256)
    d = analyze_indirect(f, builtin_pairs["square_saw"], 8)
    once = band_filter(d, 2, 6)
    twice = band_filter(once, 2, 6)
    assert np.array_equal(once.coeffs, twice.coeffs)
    assert once.c0 == twice.c0


def test_band_filter_commutes_with_reconstruction(builtin_pairs):
    pair = builtin_pairs["square_saw"]
    rng = np.random.default_rng(37)
    f = random_bandlimited(rng, 8, 4096)
    d = analyze_indirect(f, pair, 8)
    kept = band_filter(d, 3, 6)
    direct_sum = np.zeros(4096)
    band = 4096 // 2 - 1
    for k, A, B in d.coeffs[2:6]:
        for member, c in ((pair.S, A), (pair.R, B)):
            spec = dilate(member, k, band)
            direct_sum += c * synthesize_fourier(spec, 4096).samples
    assert np.max(np.abs(reconstruct(kept, 4096).samples - direct_sum)) < 1e-12


def test_band_filter_rejects_empty_or_out_of_range_bands(builtin_pairs):
    rng = np.random.default_rng(38)
    f = random_bandlimited(rng, 4, 64)
    d = analyze_indirect(f, builtin_pairs["sine_cosine"], 4)
    for bad in ((0, 3), (3, 2), (2, 5), (-1, 1)):
        with pytest.raises(ConfigurationError):
            band_filter(d, *bad)


def test_spectrum_csv_format(tmp_path, builtin_pairs):
    rng = np.random.default_rng(39)
    f = random_bandlimited(rng, 4, 64)
    d = analyze_indirect(f, builtin_pairs["sine_cosine"], 4)
    path = tmp_path / "s.csv"
    write_spectrum_csv(generalized_spectrum(d), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,energy"
    assert len(lines) == 5
    k, energy = lines[1].split(",")
    assert int(k) == 1
    float(energy)


def near_dependent_pair():
    """S and an R that differs from it by 2**-24 in two cosine coefficients."""
    s_cos, s_sin = np.array([1.0, 0.3, -0.2]), np.array([0.1, 0.25, 0.05])
    r_cos = s_cos + 2.0**-24 * np.array([0.0, 1.0, 0.5])
    return BasisPair(BasisFunction(s_cos, s_sin), BasisFunction(r_cos, s_sin), "near")


@pytest.mark.parametrize("basis_kind", ["pair", "schedule", "near_dependent"])
def test_generalized_spectrum_is_the_column_energies_of_uncapped_phi(basis_kind):
    # the schedule's second pair has S at depth 3 and R at depth 2
    basis, rtol = {
        "pair": (builtin_basis("square_saw", depth=5), 1e-14),
        "schedule": (two_segment_schedule(), 1e-14),
        # B_k = -A_k leaves only the 2**-24 difference of S and R, about 1e-16
        # of energy out of terms near 1: the mix loses ~1e-9 relative to
        # cancellation, and the quadratic form 0.5 x^T G x over the pair's
        # Gram matrix would be 16% off and can go negative
        "near_dependent": (near_dependent_pair(), 1e-8),
    }[basis_kind]
    order = 9
    weights = np.random.default_rng(9).normal(size=(order, 2))
    if basis_kind == "near_dependent":
        weights[:, 1] = -weights[:, 0]
    coeffs = [(k, a_k, b_k) for k, (a_k, b_k) in enumerate(weights, start=1)]
    d = Decomposition(0.5, coeffs, basis, "indirect")
    phi = synthesis_operator(basis, order, 5 * order).toarray()
    mix = phi[:, :order] * weights[:, 0] + phi[:, order:] * weights[:, 1]
    want = 0.5 * np.sum(mix * mix, axis=0)
    got = np.array(generalized_spectrum(d).entries)[:, 1]
    assert (got >= 0.0).all()
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
