"""Direct and indirect analysis, pruning, reconstruction, serialization."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genharm import (
    AliasingError,
    AnalysisError,
    BasisFunction,
    BasisPair,
    BasisSchedule,
    ConfigurationError,
    Decomposition,
    DimensionError,
    FourierSpectrum,
    GramSystem,
    IllConditionedBasisError,
    InvalidSignalError,
    PeriodicSignal,
    analyze_direct,
    analyze_fourier,
    analyze_indirect,
    analyze_multiband,
    band_filter,
    build_gram_system,
    builtin_basis,
    check_independence,
    combined_spectrum,
    decomposition_from_dict,
    decomposition_to_dict,
    load_decomposition,
    norm,
    reconstruct,
    residual,
    save_decomposition,
    synthesize_fourier,
)
from genharm.basis import _gram_blocks
from genharm.decompose import (
    CONDITION_WARN_LIMIT,
    PRUNING_RULES,
    _blockwise_inverse,
    _direct_plan,
)

from conftest import (
    in_span_signal,
    phi_gram,
    random_bandlimited,
    synthesis_operator,
    two_segment_schedule,
)


def hand_pair():
    """S = cos + 0.3 cos(2.), R = sin, small enough to solve by hand."""
    return BasisPair(
        BasisFunction([1.0, 0.3], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "hand",
    )


def hand_signal(n=64):
    # f = cos(2 pi x) + cos(4 pi x)
    return synthesize_fourier(FourierSpectrum(0.0, [0.0, 0.0], [1.0, 1.0]), n)


# --- indirect method -------------------------------------------------------------


def test_indirect_hand_worked_coefficients():
    """k=1 matches b_1 directly; k=2 subtracts the 0.3 injected by k=1."""
    d = analyze_indirect(hand_signal(), hand_pair(), 2)
    assert abs(d.c0) < 1e-15
    np.testing.assert_allclose(d.coeffs, [[1, 1.0, 0.0], [2, 0.7, 0.0]], rtol=0, atol=1e-14)


def test_indirect_residual_is_the_unmatched_tail():
    f = hand_signal()
    d = analyze_indirect(f, hand_pair(), 2)
    res_spec = analyze_fourier(residual(f, d), 8)
    # components 1 and 2 annihilate harmonics 1 and 2 and inject
    # 0.7 * 0.3 = 0.21 at harmonic 4, which f never had
    assert abs(res_spec.b[0]) < 1e-14 and abs(res_spec.b[1]) < 1e-14
    assert res_spec.b[3] == pytest.approx(-0.21, abs=1e-14)


def test_indirect_coefficients_do_not_depend_on_order():
    rng = np.random.default_rng(33)
    f = random_bandlimited(rng, 16, 256)
    pair = builtin_basis("square_saw", depth=16)
    d8 = analyze_indirect(f, pair, 8)
    d16 = analyze_indirect(f, pair, 16)
    assert np.array_equal(d16.coeffs[:8], d8.coeffs)


def test_indirect_rejects_order_beyond_the_band():
    f = hand_signal(n=16)
    with pytest.raises(DimensionError):
        analyze_indirect(f, hand_pair(), 8)


@pytest.mark.parametrize("analyze", [analyze_indirect, analyze_direct])
def test_an_order_beyond_the_band_is_refused_before_the_basis_is_checked(analyze):
    f = random_bandlimited(np.random.default_rng(23), 4, 16)
    dependent = builtin_basis("square", phase_s=0)
    with pytest.raises(IllConditionedBasisError):
        analyze(f, dependent, 7)
    with pytest.raises(DimensionError):
        analyze(f, dependent, 10)


def test_dependent_pair_is_refused():
    pair = BasisPair(BasisFunction([1.0], [2.0]), BasisFunction([0.5], [1.0]), "dep")
    with pytest.raises(AnalysisError):
        analyze_indirect(hand_signal(), pair, 2)


def test_rotated_trig_pair_reduces_to_plain_fourier():
    # an orthonormal pair whose first-harmonic products cancel in magnitude:
    # A_k and B_k are the rotated Fourier coefficients, and nothing is refused
    f = random_bandlimited(np.random.default_rng(21), 8, 64)
    d = analyze_indirect(f, builtin_basis("sine_cosine", phase_s=0.125, phase_r=0.125), 8)
    spec = analyze_fourier(f, 8)
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    for k, (A, B) in enumerate(d.coeffs[:, 1:], start=1):
        assert A == pytest.approx(c * spec.b[k - 1] - s * spec.a[k - 1], abs=1e-12)
        assert B == pytest.approx(s * spec.b[k - 1] + c * spec.a[k - 1], abs=1e-12)


def test_indirect_takes_a_numpy_integer_order():
    f = random_bandlimited(np.random.default_rng(22), 12, 64)
    basis = builtin_basis("square_saw", depth=5)
    want = analyze_indirect(f, basis, 12).coeffs
    assert np.array_equal(analyze_indirect(f, basis, np.int64(12)).coeffs, want)


def test_lopsided_member_scales_raise_the_conditioning_error():
    # R is so small next to S that the 2x2 determinant is negligible against
    # the fundamental magnitudes
    pair = BasisPair(
        BasisFunction([100.0], [0.0]),
        BasisFunction([0.0], [1e-8]),
        "lopsided",
    )
    with pytest.raises(IllConditionedBasisError):
        analyze_indirect(hand_signal(), pair, 2)


def _random_pair_case(seed):
    """(pair, f) as the random-pair tests draw them, or None where the margin filter refuses the pair."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 4))
    S = BasisFunction(rng.normal(size=depth), rng.normal(size=depth))
    R = BasisFunction(rng.normal(size=depth), rng.normal(size=depth))
    pair = BasisPair(S, R, "random")
    report = check_independence(pair)
    if not (report.passed and report.margin > 1e-3):
        return None
    return pair, random_bandlimited(rng, 12, 256)


def _annihilation_units(pair, f):
    """The indirect residual's largest analyzed-band coefficient, in units of eps * (|Phi_N||x| + |[b; a]|)."""
    d = analyze_indirect(f, pair, 8)
    res_spec = analyze_fourier(residual(f, d), 8)
    spec = analyze_fourier(f, 8)
    x = np.array(d.coeffs)[:, 1:].T.ravel()
    phi = abs(synthesis_operator(pair, 8, 8).toarray())
    terms = phi @ np.abs(x) + np.abs(np.concatenate([spec.b, spec.a]))
    unit = np.finfo(float).eps * (np.max(terms) + np.max(np.abs(f.samples)))
    return max(np.max(np.abs(res_spec.a)), np.max(np.abs(res_spec.b))) / unit


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_indirect_annihilates_the_analyzed_band(seed):
    case = _random_pair_case(seed)
    assume(case is not None)
    # The margin filter still admits pairs whose coefficients grow to 1e9 and
    # beyond, so the in-band floor is float64 rounding of Phi_N x - [b; a],
    # relative to the magnitudes summed, not an absolute constant. Seeds
    # 0..15999 reached at most 8.4 of these units; 128 leaves 15x headroom.
    assert _annihilation_units(*case) <= 128


def test_indirect_refinement_keeps_an_ill_conditioned_pair_at_the_float_floor():
    # seed 3054 draws a pair (condition 1.4e8) whose X [b; a] alone leaves 36
    # units in the band; one step of refinement brings it to 0.35
    case = _random_pair_case(3054)
    assert case is not None
    assert _annihilation_units(*case) <= 16


def test_direct_refinement_keeps_an_ill_conditioned_system_at_the_float_floor():
    # seed 196 under paper pruning has condition 2.3e6: B^-1 r alone leaves a
    # normal-equation residual of 157 units, one refinement step 0.33
    case = _random_pair_case(196)
    assert case is not None
    pair, f = case
    system = build_gram_system(f, pair, 8, "paper")
    d = analyze_direct(f, pair, 8, "paper")
    assert d.condition_estimate > 1e6
    x = np.array(d.coeffs)[:, 1:].T.ravel()
    gram, rhs = system.matrix, system.rhs
    unit = np.finfo(float).eps * (np.max(np.abs(gram) @ np.abs(x)) + np.max(np.abs(rhs)))
    assert np.max(np.abs(gram @ x - rhs)) <= 8 * unit


@given(alpha=st.floats(-4, 4), beta=st.floats(-4, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_both_methods_are_linear_in_the_signal(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    pair = builtin_basis("square_saw", depth=8)
    f = random_bandlimited(rng, 8, 128)
    g = random_bandlimited(rng, 8, 128)
    combo = synthesize_fourier(
        analyze_fourier(
            type(f)(alpha * f.samples + beta * g.samples), 63
        ),
        128,
    )
    scale = 1.0 + abs(alpha) + abs(beta)
    for analyze in (
        lambda s: analyze_indirect(s, pair, 6),
        lambda s: analyze_direct(s, pair, 6),
    ):
        df, dg, dc = analyze(f), analyze(g), analyze(combo)
        for (k, A, B), (_, Af, Bf), (_, Ag, Bg) in zip(dc.coeffs, df.coeffs, dg.coeffs):
            assert A == pytest.approx(alpha * Af + beta * Ag, abs=1e-9 * scale)
            assert B == pytest.approx(alpha * Bf + beta * Bg, abs=1e-9 * scale)


# --- direct method ----------------------------------------------------------------


def test_gram_system_hand_worked_entries():
    f = hand_signal()
    system = build_gram_system(f, hand_pair(), 2, "none")
    want = np.array(
        [
            [0.545, 0.15, 0.0, 0.0],
            [0.15, 0.545, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.5],
        ]
    )
    assert np.allclose(system.matrix, want, atol=1e-15)
    assert np.allclose(system.rhs, [0.65, 0.5, 0.0, 0.0], atol=1e-15)
    assert system.order == 2
    assert not system.pruned_mask.any()


def test_direct_hand_worked_least_squares():
    """Cramer on the 2x2 S block, worked by hand against the 4x4 solve."""
    d = analyze_direct(hand_signal(), hand_pair(), 2, "none")
    det = 0.545**2 - 0.15**2
    a1 = (0.65 * 0.545 - 0.15 * 0.5) / det
    a2 = (0.545 * 0.5 - 0.15 * 0.65) / det
    assert d.coeffs[0][1] == pytest.approx(a1, rel=1e-13)
    assert d.coeffs[1][1] == pytest.approx(a2, rel=1e-13)
    assert abs(d.coeffs[0][2]) < 1e-14
    assert d.condition_estimate is not None
    assert d.warnings == ()


def test_direct_depends_on_order_for_deep_pairs():
    # the sawtooth member carries every harmonic, so component 6 couples back
    # into component 1's equation (the default pair would not show this: its
    # square member splits the system into odd and even index sub-blocks)
    rng = np.random.default_rng(8)
    f = random_bandlimited(rng, 16, 4096)
    pair = builtin_basis("sawtooth")
    a1_5 = analyze_direct(f, pair, 5).coeffs[0][1]
    a1_6 = analyze_direct(f, pair, 6).coeffs[0][1]
    assert abs(a1_5 - a1_6) > 1e-6


def test_direct_equals_indirect_for_depth_one_pairs():
    # with single-harmonic members the system is block diagonal, so the
    # one-shot solve and the per-frequency solves coincide
    pair = BasisPair(
        BasisFunction([0.9], [0.4]),
        BasisFunction([-0.3], [1.1]),
        "depth-one",
    )
    rng = np.random.default_rng(14)
    f = random_bandlimited(rng, 10, 256)
    dd = analyze_direct(f, pair, 10, "none")
    di = analyze_indirect(f, pair, 10)
    for (k, A, B), (_, Ai, Bi) in zip(dd.coeffs, di.coeffs):
        assert A == pytest.approx(Ai, rel=1e-12, abs=1e-12)
        assert B == pytest.approx(Bi, rel=1e-12, abs=1e-12)


def test_pruning_masks_follow_their_rules():
    f = random_bandlimited(np.random.default_rng(2), 3, 64)
    pair = hand_pair()
    system = build_gram_system(f, pair, 3, "paper")
    # (k=2, m=3): product 6 > 3 and neither divides the other -> pruned
    assert system.pruned_mask[1, 2]
    assert system.matrix[1, 2] == 0.0
    # (k=1, m=3): k divides m -> kept
    assert not system.pruned_mask[0, 2]
    # mask applies to all four member blocks symmetrically
    assert system.pruned_mask[1, 2] == system.pruned_mask[4, 5] == system.pruned_mask[1, 5]


def test_lcm_rule_keeps_more_than_the_product_rule():
    f = random_bandlimited(np.random.default_rng(2), 12, 256)
    pair = builtin_basis("square_saw", depth=12)
    paper = build_gram_system(f, pair, 12, "paper")
    lcm = build_gram_system(f, pair, 12, "lcm")
    nothing = build_gram_system(f, pair, 12, "none")
    # (k=4, m=6): lcm 12 <= 12 keeps it, but 24 > 12 with no divisibility prunes it
    assert paper.pruned_mask[3, 5]
    assert not lcm.pruned_mask[3, 5]
    assert not nothing.pruned_mask.any()
    assert paper.pruned_mask.sum() > lcm.pruned_mask.sum()


def test_unknown_pruning_rule_is_rejected():
    with pytest.raises(ConfigurationError):
        analyze_direct(hand_signal(), hand_pair(), 2, "aggressive")


def test_near_singular_gram_attaches_a_condition_warning():
    # R is S dilated by two plus a barely-there fundamental, which makes the
    # row for (R, 1) almost identical to the row for (S, 2)
    delta = 1e-7
    S = BasisFunction([1.0, 0.5], [0.0, 0.0])
    R = BasisFunction([0.0, 1.0, 0.0, 0.5], [delta, 0.0, 0.0, 0.0])
    pair = BasisPair(S, R, "near-singular")
    f = random_bandlimited(np.random.default_rng(6), 8, 256)
    d = analyze_direct(f, pair, 2, "none")
    assert d.condition_estimate > CONDITION_WARN_LIMIT
    assert len(d.warnings) == 1
    assert "condition" in d.warnings[0]


# --- both methods on orthogonal and in-span inputs --------------------------------


def test_orthogonal_basis_reduces_to_plain_fourier(builtin_pairs):
    rng = np.random.default_rng(40)
    f = random_bandlimited(rng, 12, 128)
    spec = analyze_fourier(f, 12)
    for d in (
        analyze_indirect(f, builtin_pairs["sine_cosine"], 12),
        analyze_direct(f, builtin_pairs["sine_cosine"], 12),
    ):
        assert d.c0 == pytest.approx(spec.c0, abs=1e-12)
        for k, (A, B) in enumerate(d.coeffs[:, 1:], start=1):
            assert A == pytest.approx(spec.b[k - 1], abs=1e-12)
            assert B == pytest.approx(spec.a[k - 1], abs=1e-12)


def test_in_span_signals_are_recovered_exactly(builtin_pairs):
    rng = np.random.default_rng(77)
    for kind in ("square_saw", "triangle"):
        pair = builtin_pairs[kind]
        f, true_coeffs = in_span_signal(pair, rng, 10, 4096)
        d = analyze_indirect(f, pair, 10)
        for (k, A, B), (_, At, Bt) in zip(d.coeffs, true_coeffs):
            assert A == pytest.approx(At, abs=1e-10)
            assert B == pytest.approx(Bt, abs=1e-10)
        assert norm(residual(f, d)) < 1e-10


def test_direct_gap_to_indirect_shrinks_with_order(builtin_pairs):
    """Growing the order pulls the one-shot coefficients toward the
    order-free ones, measured at 8 -> 16 -> 32 under the first-common-harmonic
    pruning rule. (The prose product rule admits more cross terms as the
    order grows and does not trend cleanly; see the decisions ledger.)"""
    rng = np.random.default_rng(5)
    f = random_bandlimited(rng, 40, 4096, decay=1.5)
    for kind in ("square_saw", "sawtooth", "triangle", "trapezoid"):
        pair = builtin_pairs[kind]
        ind = {k: (A, B) for k, A, B in analyze_indirect(f, pair, 32).coeffs}
        gaps = []
        for order in (8, 16, 32):
            d = analyze_direct(f, pair, order, "lcm")
            gaps.append(
                max(max(abs(A - ind[k][0]), abs(B - ind[k][1])) for k, A, B in d.coeffs)
            )
        assert gaps[0] >= gaps[1] >= gaps[2], (kind, gaps)


def test_uniqueness_reanalyzing_a_reconstruction(builtin_pairs):
    rng = np.random.default_rng(50)
    pair = builtin_basis("square_saw", depth=8)
    f = random_bandlimited(rng, 8, 256)
    for analyze in (
        lambda s, N: analyze_indirect(s, pair, N),
        lambda s, N: analyze_direct(s, pair, N, "none"),
    ):
        d = analyze(f, 8)
        again = analyze(reconstruct(d, 256), 8)
        assert again.c0 == pytest.approx(d.c0, abs=1e-9)
        for (k, A, B), (_, A2, B2) in zip(d.coeffs, again.coeffs):
            assert A2 == pytest.approx(A, abs=1e-9)
            assert B2 == pytest.approx(B, abs=1e-9)


# --- schedules --------------------------------------------------------------------


def test_multiband_switches_bases_mid_spectrum(builtin_pairs):
    rng = np.random.default_rng(19)
    diverging = BasisPair(
        BasisFunction([1.0, 1.1], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "diverging",
    )
    sched = BasisSchedule(((1, diverging), (4, builtin_pairs["sine_cosine"])))
    f = random_bandlimited(rng, 8, 256)
    d = analyze_multiband(f, sched, 8)
    assert d.pair_at(3).label == "diverging"
    assert d.pair_at(4).label == "sine_cosine"
    res_spec = analyze_fourier(residual(f, d), 8)
    assert np.max(np.abs(res_spec.a)) < 1e-12
    assert np.max(np.abs(res_spec.b)) < 1e-12


@pytest.mark.parametrize("analyze", [analyze_multiband, analyze_indirect, analyze_direct])
def test_multiband_names_the_offending_segment(builtin_pairs, analyze):
    dep = BasisPair(BasisFunction([1.0], [2.0]), BasisFunction([0.5], [1.0]), "dep")
    sched = BasisSchedule(((1, builtin_pairs["sine_cosine"]), (4, dep)))
    f = hand_signal()
    with pytest.raises(IllConditionedBasisError, match=r"segment at k=4, dep"):
        analyze(f, sched, 8)


def test_direct_recovers_an_in_span_signal_over_a_schedule():
    sched, order, n = two_segment_schedule(), 8, 128
    band = n // 2 - 1  # depth 5 * order 8 stays inside it, so nothing is truncated
    x = np.random.default_rng(40).normal(size=2 * order)
    cos_sin = synthesis_operator(sched, order, band) @ x
    f = synthesize_fourier(FourierSpectrum(0.0, cos_sin[band:], cos_sin[:band]), n)
    d = analyze_direct(f, sched, order, "none")
    got = np.array(d.coeffs)[:, 1:].T.ravel()
    assert np.max(np.abs(got - x)) <= 1e-12


@pytest.mark.parametrize("method", ["indirect", *PRUNING_RULES])
def test_one_segment_schedule_matches_its_pair(method):
    pair = builtin_basis("square_saw", depth=6)
    f = random_bandlimited(np.random.default_rng(41), 20, 128)

    def analyze(basis):
        if method == "indirect":
            return analyze_indirect(f, basis, 10)
        return analyze_direct(f, basis, 10, method)

    d_pair = analyze(pair)
    # a segment starting past the order, even past int64, is never active
    for schedule in (((1, pair),), ((1, pair), (2**64, pair))):
        d_sched = analyze(BasisSchedule(schedule))
        assert np.array_equal(d_sched.coeffs, d_pair.coeffs)
        assert d_sched.condition_estimate == d_pair.condition_estimate


@pytest.mark.parametrize("analyze", [analyze_indirect, analyze_direct])
def test_order_is_an_integer_never_a_bool(analyze):
    # True used to run at order 1
    with pytest.raises(ConfigurationError, match="order must be an integer, got True"):
        analyze(hand_signal(), hand_pair(), True)


@pytest.mark.parametrize("k", ["1", True, np.True_, None])
def test_a_row_k_is_a_number_never_a_string_or_a_bool(k):
    # "1" and True used to build row k = 1
    with pytest.raises(ConfigurationError, match="k must be a number"):
        Decomposition(0.0, ((k, 1.0, 2.0),), hand_pair(), "direct", "paper")
    with pytest.raises(ConfigurationError):
        Decomposition(0.0, np.array([[k, 1.0, 2.0]], dtype=object), hand_pair(), "direct", "paper")
    # numeric rows still take k as any number equal to it
    for rows in (((1.0, 1.0, 2.0),), ((np.int64(1), 1.0, 2.0),), np.array([[1, 1, 2]])):
        assert np.array_equal(Decomposition(0.0, rows, hand_pair(), "direct", "paper").coeffs, [[1, 1, 2]])


def test_pair_at_takes_the_harmonics_of_the_result_only(builtin_pairs):
    sched = BasisSchedule(((1, builtin_pairs["sine_cosine"]), (3, builtin_pairs["square_saw"])))
    for basis in (builtin_pairs["square_saw"], sched):
        d = analyze_indirect(hand_signal(), basis, 4)
        assert d.pair_at(4) is builtin_pairs["square_saw"]
        assert d.pair_at(np.int64(3)) is builtin_pairs["square_saw"]
        for k in (0, 5, 99, 2.5, True, "1"):
            with pytest.raises(ConfigurationError, match="k must be"):
                d.pair_at(k)


# --- reconstruction and persistence -------------------------------------------------


def test_reconstruct_caps_component_tails_at_the_band():
    d = analyze_indirect(hand_signal(), hand_pair(), 2)
    small = reconstruct(d, 8)  # band 3: the harmonic-4 tail must vanish, not fold
    spec = analyze_fourier(small, 3)
    assert spec.b[0] == pytest.approx(1.0, abs=1e-14)
    assert spec.b[1] == pytest.approx(1.0, abs=1e-14)
    assert abs(spec.b[2]) < 1e-14


def test_residual_requires_enough_bandwidth():
    d = analyze_indirect(hand_signal(64), hand_pair(), 8)
    with pytest.raises(DimensionError):
        residual(hand_signal(16), d)


@pytest.mark.parametrize("n", [4, 16])
def test_each_analysis_and_residual_take_the_whole_band_and_refuse_one_more(n):
    band = n // 2 - 1
    pair = builtin_basis("square_saw", depth=4)
    f = random_bandlimited(np.random.default_rng(n), band, n)
    for analyze in (analyze_indirect, analyze_direct):
        assert analyze(f, pair, band).order == band
        with pytest.raises(DimensionError, match=f"order {band + 1} exceeds the representable band {band} at n={n}"):
            analyze(f, pair, band + 1)
    # the indirect method matches every harmonic up to the order, so at the band nothing is left
    assert norm(residual(f, analyze_indirect(f, pair, band))) <= 1e-13
    assert residual(f, Decomposition(f.samples.mean(), [], pair, "indirect")).n == n
    wider = analyze_indirect(random_bandlimited(np.random.default_rng(n), band, 2 * n), pair, band + 1)
    with pytest.raises(DimensionError, match=f"order {band + 1} exceeds the representable band {band} at n={n}"):
        residual(f, wider)


def test_decomposition_json_round_trip(tmp_path, builtin_pairs):
    rng = np.random.default_rng(3)
    f = random_bandlimited(rng, 6, 128)
    d = analyze_direct(f, builtin_pairs["square_saw"], 6, "lcm")
    path = tmp_path / "d.json"
    save_decomposition(d, path)
    back = load_decomposition(path)
    assert back.method == "direct"
    assert back.pruning == "lcm"
    assert np.array_equal(back.coeffs, d.coeffs)
    assert back.c0 == d.c0
    assert back.condition_estimate == d.condition_estimate
    assert np.array_equal(back.basis.S.cos_coeffs, d.basis.S.cos_coeffs)


def test_schedule_decomposition_round_trip(tmp_path, builtin_pairs):
    sched = BasisSchedule(
        ((1, builtin_pairs["square_saw"]), (4, builtin_pairs["sine_cosine"]))
    )
    f = random_bandlimited(np.random.default_rng(9), 8, 256)
    d = analyze_multiband(f, sched, 8)
    path = tmp_path / "sd.json"
    save_decomposition(d, path)
    back = load_decomposition(path)
    assert isinstance(back.basis, BasisSchedule)
    assert back.pair_at(5).label == "sine_cosine"
    assert np.array_equal(back.coeffs, d.coeffs)


def test_decomposition_validates_coefficient_indices(builtin_pairs):
    pair = builtin_pairs["sine_cosine"]
    with pytest.raises(ConfigurationError):
        Decomposition(0.0, ((2, 1.0, 0.0),), pair, "indirect")
    with pytest.raises(ConfigurationError):
        Decomposition(0.0, ((1, 1.0, 0.0), (3, 0.0, 0.0)), pair, "indirect")
    with pytest.raises(ConfigurationError):
        Decomposition(0.0, ((1, 1.0, 0.0),), pair, "sideways")
    with pytest.raises(ConfigurationError, match="k = 1..N"):
        Decomposition(0.0, ((1.5, 1.0, 0.0),), pair, "indirect")
    with pytest.raises(ConfigurationError, match="finite"):
        Decomposition(0.0, ((1, 1.0, 0.0), (2, float("inf"), 0.0)), pair, "indirect")
    with pytest.raises(ConfigurationError, match="triples"):
        Decomposition(0.0, ((1, 1.0),), pair, "indirect")
    # ragged rows get the same error as rows of the wrong width
    for rows in ([(1, 2.0, 3.0), (2, 3.0)], [(1, 2.0), (2,)], "abc", [[1, [2.0, 3.0]]]):
        with pytest.raises(ConfigurationError, match="triples"):
            Decomposition(0.0, rows, pair, "indirect")
    # a value that is no number is named by its column, and never parsed
    for row, column in (((1, "a", 2), "A_k"), ((1, "1.5", 2.0), "A_k"), ((1, 1.0, True), "B_k")):
        with pytest.raises(ConfigurationError, match=f"{column} must be a number"):
            Decomposition(0.0, [row], pair, "indirect")
    # any (N, 3) rows are kept as a read-only (N, 3) float array
    for rows in (np.array([[1, 2, 3], [2, 4, 5]]), [(1, 2.0, 3.0), (np.int64(2), 4, np.float32(5))]):
        d = Decomposition(0.0, rows, pair, "indirect")
        assert d.coeffs.dtype == float and not d.coeffs.flags.writeable
        assert np.array_equal(d.coeffs, [[1, 2, 3], [2, 4, 5]])
    assert Decomposition(0.0, (), pair, "indirect").coeffs.shape == (0, 3)


def test_a_result_s_warning_is_read_off_its_condition_estimate(builtin_pairs):
    pair = builtin_pairs["sine_cosine"]
    limit = CONDITION_WARN_LIMIT
    for cond, warned in ((None, False), (1.0, False), (limit, False), (np.nextafter(limit, math.inf), True),
                         (1e20, True)):
        d = Decomposition(0.0, [(1, 1.0, 2.0)], pair, "direct", "paper", cond)
        assert d.warnings == ((f"condition estimate {cond:.3e} exceeds 1e+12; coefficients may be unreliable",)
                              if warned else ()), cond
        # band_filter and a file round trip keep the warning, derived again from the estimate
        assert band_filter(d, 1, 1).warnings == d.warnings
        assert decomposition_from_dict(decomposition_to_dict(d)).warnings == d.warnings
    # a warning is no argument, so a result cannot carry one its estimate does not give
    with pytest.raises(TypeError):
        Decomposition(0.0, [(1, 1.0, 2.0)], pair, "indirect", None, 1e20, ())
    with pytest.raises(TypeError):
        Decomposition(0.0, [(1, 1.0, 2.0)], pair, "indirect", warnings=("made up",))
    with pytest.raises(TypeError):
        GramSystem(np.eye(2), np.zeros(2), np.zeros((2, 2), dtype=bool), 1, "none")
    with pytest.raises(ValueError):
        dataclasses.replace(Decomposition(0.0, [(1, 1.0, 2.0)], pair, "indirect"), warnings=())
    # replace derives the warning of the new estimate
    d = dataclasses.replace(Decomposition(0.0, [(1, 1.0, 2.0)], pair, "indirect"), condition_estimate=1e20)
    assert len(d.warnings) == 1


def test_a_provenance_no_analysis_gives_is_refused(builtin_pairs):
    pair = builtin_pairs["sine_cosine"]
    with pytest.raises(ConfigurationError, match="an indirect result has no pruning rule, got 'paper'"):
        Decomposition(0.0, [(1, 1.0, 2.0)], pair, "indirect", "paper")
    with pytest.raises(ConfigurationError, match="unknown pruning rule None"):
        Decomposition(0.0, [(1, 1.0, 2.0)], pair, "direct")
    data = decomposition_to_dict(Decomposition(0.0, [(1, 1.0, 2.0)], pair, "direct", "lcm"))
    assert decomposition_from_dict(data).order == 1
    with pytest.raises(ConfigurationError, match="order 7 does not match the 1 coefficients"):
        decomposition_from_dict({**data, "order": 7})
    for order in (True, "1", 1.5):
        with pytest.raises(ConfigurationError, match="order must be an integer"):
            decomposition_from_dict({**data, "order": order})
    with pytest.raises(ConfigurationError, match="malformed decomposition data"):
        decomposition_from_dict({key: value for key, value in data.items() if key != "order"})


def test_gram_system_copies_and_freezes_its_inputs():
    built = build_gram_system(hand_signal(), hand_pair(), 2, "none")
    assert not any(a.flags.writeable for a in (built.matrix, built.rhs, built.pruned_mask))
    # a caller's array is copied, frozen or not, and stays writeable
    matrix = np.array(built.matrix)
    system = GramSystem(matrix, built.rhs, 2, "none")
    assert system.matrix is not matrix and system.rhs is not built.rhs
    assert system.pruned_mask is not built.pruned_mask and system.pruned_mask.dtype == bool
    assert matrix.flags.writeable and not system.matrix.flags.writeable
    matrix[0, 0] = 7.0
    assert system.matrix[0, 0] == built.matrix[0, 0]
    with pytest.raises(DimensionError):
        GramSystem(built.matrix, built.rhs, 3, "none")


def test_gram_system_mask_is_the_boolean_mask_of_its_rule():
    f, pair = random_bandlimited(np.random.default_rng(14), 8, 32), builtin_basis("square_saw")
    systems = {rule: build_gram_system(f, pair, 6, rule) for rule in PRUNING_RULES}
    pruned = {
        "paper": lambda k, m: k * m > 6 and max(k, m) % min(k, m) != 0,
        "lcm": lambda k, m: math.lcm(k, m) > 6,
        "none": lambda k, m: False,
    }
    for rule, built in systems.items():
        # entry (i, j) couples dilations k = i % 6 + 1 and m = j % 6 + 1, in all four member blocks
        want = [[pruned[rule](i % 6 + 1, j % 6 + 1) for j in range(12)] for i in range(12)]
        for system in (built, GramSystem(built.matrix, built.rhs, 6, rule)):
            assert system.pruned_mask.dtype == bool and system.pruned_mask.tolist() == want, rule
        assert not built.matrix[built.pruned_mask].any(), rule


# --- kernels against the sparse operator -----------------------------------------


@pytest.mark.parametrize("order", [1, 2, 7, 8, 9, 33])
@pytest.mark.parametrize("basis_kind", ["pair", "schedule"])
def test_indirect_matches_a_dense_solve_on_phi(basis_kind, order):
    # orders sit on and beside the boundaries of the substitution's levels [L, 2L)
    f = random_bandlimited(np.random.default_rng(order), 40, 128)
    if basis_kind == "pair":
        basis = builtin_basis("square_saw", depth=5)
        d = analyze_indirect(f, basis, order)
    else:
        basis = two_segment_schedule()
        d = analyze_multiband(f, basis, order)
    spec = analyze_fourier(f, order)
    phi = synthesis_operator(basis, order, order).toarray()
    want = np.linalg.solve(phi, np.concatenate([spec.b, spec.a]))
    got = np.array(d.coeffs)[:, 1:].T.ravel()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [7, 48, 400])
def test_indirect_condition_is_the_exact_one_norm_condition_of_phi_n(order):
    f = random_bandlimited(np.random.default_rng(order), order, 1024)
    kinds = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
    cases = [(kind, builtin_basis(kind)) for kind in kinds] + [("schedule", two_segment_schedule())]
    for name, basis in cases:
        phi = synthesis_operator(basis, order, order).toarray()
        exact = np.linalg.norm(phi, 1) * np.linalg.norm(np.linalg.inv(phi), 1)
        d = analyze_indirect(f, basis, order)
        assert d.condition_estimate == pytest.approx(exact, rel=1e-12), name
        assert d.warnings == ()


@pytest.mark.parametrize("seed,cond", [(364261742, 1.03e14), (2404208098, 4.40e12), (3993120746, 3.63e12)])
def test_indirect_results_of_a_growing_pair_carry_a_condition_warning(seed, cond):
    # random pairs that pass the margin filter yet grow a unit signal's
    # coefficients to 1e11 - 1e13
    pair, f = _random_pair_case(seed)
    d = analyze_indirect(f, pair, 8)
    assert d.condition_estimate == pytest.approx(cond, rel=5e-3)
    assert len(d.warnings) == 1
    assert "condition" in d.warnings[0]


@pytest.mark.parametrize("seed", [364261742, 2404208098, 3993120746])
def test_indirect_growth_is_large_and_within_the_inverse_norm(seed):
    # growth = ||x||_1 / ||[b; a]||_1 of an indirect solve: 1.7e12, 4.2e10 and
    # 9.5e10 on these seeds. x = X [b; a] up to the refinement step, so it is
    # at most ||X||_1 = kappa_1(T) / ||T||_1.
    pair, f = _random_pair_case(seed)
    d = analyze_indirect(f, pair, 8)
    spec = analyze_fourier(f, 8)
    growth = np.abs(d.coeffs[:, 1:]).sum() / np.abs(np.concatenate([spec.b, spec.a])).sum()
    inverse_norm = d.condition_estimate / np.linalg.norm(synthesis_operator(pair, 8, 8).toarray(), 1)
    assert growth >= 1e10
    assert growth <= inverse_norm * (1 + 1e-12)


def test_a_spectrum_that_overflows_raises_an_invalid_signal_error():
    pair = builtin_basis("square_saw")
    schedule = BasisSchedule(((1, pair), (5, builtin_basis("triangle"))))
    f = PeriodicSignal(np.tile([1.5e308, -1.5e308], 32))  # finite samples, overflowing rfft
    analyses = [
        lambda: analyze_indirect(f, pair, 8),
        lambda: analyze_direct(f, pair, 8),
        lambda: analyze_multiband(f, schedule, 8),
    ]
    with np.errstate(all="ignore"):
        for analysis in analyses:
            with pytest.raises(InvalidSignalError, match="spectrum contains non-finite coefficients"):
                analysis()
        d = Decomposition(1e308, tuple((k, 0.0, 0.0) for k in range(1, 9)), pair, "indirect")
        with pytest.raises(InvalidSignalError, match="samples contain non-finite values"):
            residual(PeriodicSignal(np.full(64, 1e300)), d)
        # finite coefficients whose sum Phi @ [A; B] overflows
        d = Decomposition(0.0, tuple((k, 1.5e308, 1.5e308) for k in range(1, 9)), pair, "indirect")
        for synthesis in (lambda: reconstruct(d, 64), lambda: residual(PeriodicSignal(np.ones(64)), d)):
            with pytest.raises(InvalidSignalError, match="spectrum contains non-finite coefficients"):
                synthesis()


@pytest.mark.parametrize("n", [2, 3, 7])
def test_reconstruct_refuses_a_grid_no_signal_has(n):
    d = Decomposition(0.5, ((1, 1.0, 2.0),), builtin_basis("square"), "direct", "paper")
    with pytest.raises(InvalidSignalError, match=f"sample count must be even and >= 4, got {n}"):
        reconstruct(d, n)


def _direct_systems(f, order):
    """(name, basis, rule, Gram from Phi, rhs) for every builtin and a schedule, each rule."""
    kinds = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
    cases = [(kind, builtin_basis(kind)) for kind in kinds]
    cases.append(("schedule", two_segment_schedule()))
    for name, basis in cases:
        full = phi_gram(basis, order)
        for pruning in PRUNING_RULES:
            system = build_gram_system(f, basis, order, pruning)
            yield name, basis, pruning, np.where(system.pruned_mask, 0.0, full), system.rhs


@pytest.mark.parametrize("order,n", [(48, 512), (400, 4096)])
def test_direct_matches_scipy_lu_on_phi(order, n):
    from scipy.linalg import lu_factor, lu_solve

    f = random_bandlimited(np.random.default_rng(order), order, n)
    for name, basis, pruning, gram, rhs in _direct_systems(f, order):
        want = lu_solve(lu_factor(gram), rhs)
        got = np.array(analyze_direct(f, basis, order, pruning).coeffs)[:, 1:].T.ravel()
        gap = np.max(np.abs(got - want))
        assert gap <= 1e-12 * np.max(np.abs(want)), (name, pruning, gap)


def test_condition_estimate_is_the_exact_one_norm_condition():
    from scipy.linalg import get_lapack_funcs, inv, lu_factor

    f = random_bandlimited(np.random.default_rng(3), 48, 512)
    for name, basis, pruning, gram, _ in _direct_systems(f, 48):
        norm1 = np.linalg.norm(gram, 1)
        gecon = get_lapack_funcs("gecon", (gram,))
        rcond, info = gecon(lu_factor(gram)[0], norm1)
        assert info == 0
        got = analyze_direct(f, basis, 48, pruning).condition_estimate
        exact = norm1 * np.linalg.norm(inv(gram), 1)
        assert got == pytest.approx(exact, rel=1e-12), (name, pruning)
        # gecon estimates the same quantity from below
        assert got >= (1.0 - 1e-12) / rcond, (name, pruning)


def _blockwise_condition(matrix) -> float:
    """||G||_1 ||G^-1||_1 of a dense matrix, through the blocks and inverses the direct method uses."""
    matrix = np.asarray(matrix)
    rows, cols = np.nonzero(matrix)
    return _blockwise_inverse(_gram_blocks(len(matrix), rows, cols, matrix[rows, cols]))[1]


@pytest.mark.parametrize("matrix,reason", [
    ([[1.0, 2.0], [2.0, 4.0]], "exactly singular"),  # elimination leaves a zero pivot
    ([[1.0, 0.0], [0.0, 1e-310]], "numerically singular"),  # 1/1e-310 overflows
    # the inverse's first column is five entries of 4e307, summing past the float range
    (2.5e-308 * (np.eye(5) - np.eye(5, k=-1)), "numerically singular"),
])
def test_singular_systems_raise_an_analysis_error(matrix, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match=reason):
            _blockwise_condition(np.array(matrix))


@pytest.mark.parametrize("order,n", [(48, 512), (400, 4096)])
def test_blockwise_direct_matches_the_dense_numpy_solve(order, n):
    f = random_bandlimited(np.random.default_rng(order + 1), order, n)
    kinds = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
    cases = [(kind, builtin_basis(kind)) for kind in kinds] + [("schedule", two_segment_schedule())]
    for name, basis in cases:
        for pruning in PRUNING_RULES:
            system = build_gram_system(f, basis, order, pruning)
            want = np.linalg.solve(system.matrix, system.rhs)
            d = analyze_direct(f, basis, order, pruning)
            got = np.array(d.coeffs)[:, 1:].T.ravel()
            gap = np.max(np.abs(got - want))
            assert gap <= 1e-12 * np.max(np.abs(want)), (name, pruning, gap)
            exact = np.linalg.norm(system.matrix, 1) * np.linalg.norm(np.linalg.inv(system.matrix), 1)
            assert d.condition_estimate == pytest.approx(exact, rel=1e-12), (name, pruning)


def _interleaved(blocks, seed):
    """The block-diagonal matrix of blocks, its rows and columns shuffled by one permutation."""
    size = sum(len(block) for block in blocks)
    dense = np.zeros((size, size))
    at = 0
    for block in blocks:
        dense[at : at + len(block), at : at + len(block)] = block
        at += len(block)
    shuffle = np.random.default_rng(seed).permutation(size)
    return dense[np.ix_(shuffle, shuffle)]


def test_condition_of_interleaved_blocks_is_the_dense_condition():
    rng = np.random.default_rng(5)
    blocks = [rng.normal(size=(s, s)) + s * np.eye(s) for s in (1, 3, 2, 3, 5, 1)]
    # rows linked by an entry on one side of the diagonal only still share a block
    blocks += [np.array([[2.0, 1.0], [0.0, 2.0]]), np.array([[2.0, 0.0], [1.0, 2.0]])]
    matrix = _interleaved(blocks, 8)
    exact = np.linalg.norm(matrix, 1) * np.linalg.norm(np.linalg.inv(matrix), 1)
    assert _blockwise_condition(matrix) == pytest.approx(exact, rel=1e-12)
    rows, cols = np.nonzero(matrix)
    groups = _gram_blocks(len(matrix), rows, cols, matrix[rows, cols])
    assert [index.shape for index, _ in groups] == [(2, 1), (3, 2), (2, 3), (1, 5)]
    for index, stacked in groups:
        assert np.array_equal(stacked, matrix[index[:, :, None], index[:, None, :]])
        for rows in index:  # no nonzero entry links a block to the other rows
            others = np.setdiff1d(np.arange(len(matrix)), rows)
            assert not matrix[np.ix_(rows, others)].any()


def test_one_singular_block_among_regular_ones_is_refused():
    rng = np.random.default_rng(6)
    blocks = [rng.normal(size=(s, s)) + s * np.eye(s) for s in (2, 3, 2)]
    blocks.insert(1, np.array([[1.0, 2.0], [2.0, 4.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="exactly singular"):
            _blockwise_condition(_interleaved(blocks, 9))


def test_a_singular_indirect_system_raises_without_a_numpy_warning():
    # det C_1 = 1 passes the independence check, but S's second harmonic, 1e100,
    # puts its powers in X's blocks along the divisor chain 1 | 2 | 4 | ..., so
    # kappa_1(T) = ||T||_1 ||X||_1 is 1e300 at N = 4 and overflows from N = 8 on
    pair = BasisPair(BasisFunction([1.0, 1e100], [0.0, 0.0]), BasisFunction([0.0, 0.0], [1.0, 0.0]))
    assert check_independence(pair)
    f = random_bandlimited(np.random.default_rng(7), 8, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analyze_indirect(f, pair, 4).condition_estimate == 1e300
        for order in (8, 16):
            with pytest.raises(AnalysisError, match="indirect system is numerically singular"):
                analyze_indirect(f, pair, order)


def test_the_direct_method_never_factors_the_whole_system(monkeypatch):
    shapes = []

    def recording(function):
        def recorded(*args, **kwargs):
            shapes.extend(np.shape(arg) for arg in args if isinstance(arg, np.ndarray))
            return function(*args, **kwargs)
        return recorded

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, recording(function))
    f = random_bandlimited(np.random.default_rng(7), 400, 1024)
    analyze_direct(f, builtin_basis("square_saw"), 400, "none")  # a new basis, so a new plan
    matrices = [shape for shape in shapes if len(shape) >= 2]
    assert matrices, "no matrix reached numpy.linalg"
    assert all(shape[-2] != 800 for shape in matrices), sorted(set(matrices))


@pytest.mark.parametrize("pruning", PRUNING_RULES)
def test_the_direct_method_never_builds_the_dense_system(pruning):
    order = 1000
    f = random_bandlimited(np.random.default_rng(8), order, 4096)
    basis = builtin_basis("square_saw")  # a new basis, so a new plan
    tracemalloc.start()
    try:
        analyze_direct(f, basis, order, pruning)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_gram = 8 * (2 * order) ** 2  # one float64 2N x 2N matrix, 30.5 MiB
    assert peak < dense_gram, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("order,n", [(7, 64), (48, 512), (400, 1024)])
def test_plan_blocks_are_the_blocks_of_the_dense_system(order, n):
    f = random_bandlimited(np.random.default_rng(order + 2), order, n)
    kinds = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
    cases = [(kind, builtin_basis(kind)) for kind in kinds] + [("schedule", two_segment_schedule())]
    for name, basis in cases:
        for pruning in PRUNING_RULES:
            matrix = build_gram_system(f, basis, order, pruning).matrix
            rows, cols = np.nonzero(matrix)
            want = _gram_blocks(len(matrix), rows, cols, matrix[rows, cols])
            got = _direct_plan(basis, order, pruning)[0]
            assert len(got) == len(want), (name, pruning)
            for (index, blocks, inverses), (want_index, want_blocks) in zip(got, want):
                for part_got, part_want in ((index, want_index), (blocks, want_blocks)):
                    assert part_got.shape == part_want.shape, (name, pruning)
                    assert part_got.tobytes() == part_want.tobytes(), (name, pruning)
                # the inverses the solve uses are those the condition number reads
                assert inverses.tobytes() == np.linalg.inv(want_blocks).tobytes(), (name, pruning)


@pytest.mark.parametrize("cap", [7, 40])
@pytest.mark.parametrize("basis_kind", ["pair", "schedule"])
def test_combined_spectrum_is_phi_times_the_coefficients(basis_kind, cap):
    # order 6 at depth 5 reaches harmonic 30: cap 7 truncates, cap 40 does not
    basis = builtin_basis("square_saw", depth=5) if basis_kind == "pair" else two_segment_schedule()
    weights = np.random.default_rng(cap).normal(size=(6, 2))
    coeffs = [(k, a_k, b_k) for k, (a_k, b_k) in enumerate(weights, start=1)]
    spec = combined_spectrum(Decomposition(0.5, coeffs, basis, "indirect"), cap)
    want = synthesis_operator(basis, 6, cap) @ weights.T.ravel()
    got = np.concatenate([spec.b, spec.a])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
