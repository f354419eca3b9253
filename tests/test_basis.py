"""Basis construction, validity checks, orthogonality, and serialization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genharm.basis as basis_module
from genharm import (
    BUILTIN_KINDS,
    BasisFunction,
    BasisPair,
    BasisSchedule,
    ConfigurationError,
    ConvergenceReport,
    Decomposition,
    FrameBounds,
    IllConditionedBasisError,
    IndependenceReport,
    MAX_DEPTH,
    OrthogonalityReport,
    PeriodicSignal,
    analyze_indirect,
    builtin_basis,
    check_convergence,
    check_independence,
    classify_orthogonality,
    dilate,
    frame_bounds,
    load_basis,
    pair_from_dict,
    pair_to_dict,
    save_basis,
    schedule_from_dict,
    schedule_to_dict,
)

from conftest import phi_gram, synthesis_operator, two_segment_schedule

# Frozen check outputs for the shipped default pair (cosine-phase square +
# sine-phase sawtooth at depth 64). The product is the fundamentals' (4/pi) *
# (2/pi); the eigenvalues were derived once from the exact series. Any drift
# here means the construction changed.
SQUARE_SAW_PRODUCT = 8 / math.pi**2
SQUARE_SAW_EIGS = (0.15018616087599668, 1.2549419941697373)

# the textbook-series tests run each waveform at its default phase (None) and
# at these explicit ones: quarter turns, a non-dyadic phase, an eighth turn
SERIES_PHASES = (None, 0.0, 0.25, 0.1, 0.375)

# the analytic limit of the square member's fundamental-dominance margin is
# 32/pi**2 - 2; depth-64 truncation shifts it up by the discarded tail
SQUARE_MARGIN_LIMIT = 32 / math.pi**2 - 2


def random_pair(rng, depth):
    S = BasisFunction(rng.normal(size=depth), rng.normal(size=depth))
    R = BasisFunction(rng.normal(size=depth), rng.normal(size=depth))
    return BasisPair(S, R, "random")


# --- member construction -------------------------------------------------------


def test_member_validation():
    with pytest.raises(ConfigurationError):
        BasisFunction([], [])
    with pytest.raises(ConfigurationError):
        BasisFunction([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        BasisFunction([float("nan")], [0.0])
    member = BasisFunction([1.0, 0.5], [0.0, 0.0])
    assert member.depth == 2
    assert member.energy() == pytest.approx(1.25)


def test_a_pair_member_must_be_a_basis_function():
    member = BasisFunction([1.0], [0.0])
    for other in (None, [1.0], (np.ones(1), np.zeros(1)), builtin_basis("square")):
        for members in ((member, other), (other, member)):
            with pytest.raises(ConfigurationError, match="both members of a pair must be BasisFunction values"):
                BasisPair(*members)


def test_member_arrays_cannot_be_made_writeable():
    # analysis plans are cached by basis identity, so a member must never change
    given = np.array([1.0, 0.5])
    custom = BasisFunction(given, given)
    square = builtin_basis("square")
    for member in (square.S, square.R, custom):
        for coeffs in (member.cos_coeffs, member.sin_coeffs):
            with pytest.raises(ValueError):
                coeffs.setflags(write=True)
    given[0] = 2.0  # the caller's array stays its own
    assert custom.cos_coeffs[0] == 1.0


def test_sine_cosine_members_are_exact():
    pair = builtin_basis("sine_cosine", depth=8)
    assert pair.S.cos_coeffs[0] == 1.0 and pair.S.sin_coeffs[0] == 0.0
    assert pair.R.sin_coeffs[0] == 1.0 and pair.R.cos_coeffs[0] == 0.0
    assert not np.any(pair.S.cos_coeffs[1:])
    assert not np.any(pair.R.sin_coeffs[1:])


def test_sine_cosine_quarter_turn_phases_are_exact():
    # cos(2 pi (x + 1/4)) = -sin(2 pi x): pure sign flips, no roundoff
    pair = builtin_basis("sine_cosine", phase_s=0.25, phase_r=0.25)
    assert pair.S.cos_coeffs[0] == 0.0 and pair.S.sin_coeffs[0] == -1.0
    assert pair.R.cos_coeffs[0] == 1.0 and pair.R.sin_coeffs[0] == 0.0


def assert_matches_series(member, sines, phase):
    """``member`` is the sine series ``sines`` (q = 1..Q) shifted by ``phase`` turns.

    Harmonic q of g(x + phase) is g's pair turned by 2 pi q phase, taken here
    with math.cos and math.sin and snapped to exact values at quarter turns.
    A coefficient that is zero there must come out exactly 0.0, any other
    within a few ulp of the harmonic's amplitude.
    """
    assert member.depth == len(sines)
    for q, amplitude in enumerate(sines, start=1):
        turn = (q * phase) % 1.0
        cos_t, sin_t = math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn)
        if (4 * turn).is_integer():
            cos_t, sin_t = round(cos_t), round(sin_t)
        got = (member.cos_coeffs[q - 1], member.sin_coeffs[q - 1])
        for value, want in zip(got, (amplitude * sin_t, amplitude * cos_t)):
            if want == 0.0:
                assert value == 0.0, (q, phase)
            else:
                assert abs(value - want) <= 4 * math.ulp(abs(amplitude)), (q, phase)


def odd_harmonics(q, amplitude):
    """``amplitude`` at odd q, zero at even q."""
    return amplitude if q % 2 == 1 else 0.0


def test_square_series_matches_textbook_coefficients():
    """Sine-phase square: a_q = 4/(pi q) on odd q; the default is cosine phase."""
    sines = [odd_harmonics(q, 4.0 / (math.pi * q)) for q in range(1, 10)]
    for phase in SERIES_PHASES:
        member = builtin_basis("square", phase_s=phase, depth=9).S
        assert_matches_series(member, sines, 0.25 if phase is None else phase)


def test_sawtooth_series_matches_textbook_coefficients():
    """Sine-phase sawtooth: a_q = 2/(pi q) for every q."""
    sines = [2.0 / (math.pi * q) for q in range(1, 10)]
    for phase in SERIES_PHASES:
        member = builtin_basis("sawtooth", phase_s=phase, depth=9).S
        assert_matches_series(member, sines, 0.0 if phase is None else phase)


def test_triangle_series_matches_textbook_coefficients():
    """Sine-phase triangle: a_q = ±8/(pi q)^2 on odd q."""
    sines = [odd_harmonics(q, 8.0 / (math.pi * q) ** 2 * (-1) ** ((q - 1) // 2))
             for q in range(1, 10)]
    for phase in SERIES_PHASES:
        member = builtin_basis("triangle", phase_s=phase, depth=9).S
        assert_matches_series(member, sines, 0.0 if phase is None else phase)


def test_trapezoid_series_matches_quadrature_oracle():
    """No frozen series here; compare against literal projection sums."""
    member = builtin_basis("trapezoid", depth=6).S
    n = 8192
    x = np.arange(n) / n
    rise = 0.125

    def trapezoid(u):
        u = u % 1.0
        if u < rise:
            return u / rise
        if u < 0.5 - rise:
            return 1.0
        if u < 0.5 + rise:
            return (0.5 - u) / rise
        if u < 1.0 - rise:
            return -1.0
        return (u - 1.0) / rise

    samples = np.array([trapezoid(u) for u in x])
    for q in range(1, 7):
        a_q = 2.0 * np.mean(samples * np.sin(2 * np.pi * q * x))
        assert member.sin_coeffs[q - 1] == pytest.approx(a_q, abs=1e-6)


def test_explicit_phase_replaces_the_default():
    # an explicit phase_r turns R, the sinusoid, and leaves S at its default
    default = builtin_basis("square", depth=8)
    for phase in SERIES_PHASES:
        pair = builtin_basis("square", phase_r=phase, depth=8)
        assert np.array_equal(pair.S.cos_coeffs, default.S.cos_coeffs)
        assert np.array_equal(pair.S.sin_coeffs, default.S.sin_coeffs)
        assert_matches_series(pair.R, [1.0] + [0.0] * 7, 0.0 if phase is None else phase)
    # sine-phase square (phase 0) is odd: cosine coefficients vanish exactly
    member = builtin_basis("square", phase_s=0.0, depth=8).S
    assert not np.any(member.cos_coeffs)
    assert member.sin_coeffs[0] == 4.0 / math.pi


@pytest.mark.parametrize("far_phase, phase", [(1e300, 0.0), (2.0**50 + 0.25, 0.25)])
def test_builtin_phase_is_taken_mod_one(far_phase, phase):
    # 1e300 is a whole number of turns; past 2**50 turns, q times the phase
    # would round away a quarter turn unless the phase is reduced first
    far = builtin_basis("square", phase_s=far_phase, phase_r=-far_phase)
    near = builtin_basis("square", phase_s=phase, phase_r=-phase)
    for got, want in ((far.S, near.S), (far.R, near.R)):
        assert np.array_equal(got.cos_coeffs, want.cos_coeffs)
        assert np.array_equal(got.sin_coeffs, want.sin_coeffs)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_nonfinite_phase_is_rejected(phase):
    with pytest.raises(ConfigurationError, match="phase_s must be finite"):
        builtin_basis("square", phase_s=phase)
    with pytest.raises(ConfigurationError, match="phase_r must be finite"):
        builtin_basis("sine_cosine", phase_r=phase)


def test_builtins_are_built_without_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("a builtin was sampled")

    monkeypatch.setattr(basis_module, "sample_closed_form", refuse)
    for kind in BUILTIN_KINDS:
        if kind != "custom":
            assert builtin_basis(kind, depth=16).label == kind
    with pytest.raises(AssertionError):
        builtin_basis("custom", s_eval=math.sin, r_eval=math.cos)


def test_top_coefficient_at_max_depth_is_exact():
    member = builtin_basis("sawtooth", depth=MAX_DEPTH).S
    want = 2.0 / (math.pi * MAX_DEPTH)
    assert abs(member.sin_coeffs[-1] - want) <= 4 * math.ulp(want)
    assert not np.any(member.cos_coeffs)


def test_custom_kind_projects_supplied_evaluators():
    pair = builtin_basis(
        "custom",
        s_eval=lambda x: math.cos(2 * math.pi * x) + 0.25 * math.cos(4 * math.pi * x),
        r_eval=lambda x: math.sin(2 * math.pi * x),
        depth=4,
        label="two-tone",
    )
    assert pair.label == "two-tone"
    assert pair.S.cos_coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert pair.S.cos_coeffs[1] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ConfigurationError):
        builtin_basis("custom")


def test_custom_basis_deeper_than_the_projection_grid_is_projected_on_a_finer_one():
    # 4096 samples represent harmonics 1..2047, so depth 2048 needs the grid doubled
    top = 2048

    def turns(q, x):
        return 2 * math.pi * (q * x % 1.0)  # q * x is exact on a power-of-two grid

    pair = builtin_basis(
        "custom",
        s_eval=lambda x: math.cos(turns(1, x)) + 0.25 * math.cos(turns(top, x)),
        r_eval=lambda x: math.sin(turns(1, x)) - 0.5 * math.sin(turns(top, x)),
        depth=top,
    )
    want_s, want_r = np.zeros(top), np.zeros(top)
    want_s[[0, -1]], want_r[[0, -1]] = (1.0, 0.25), (1.0, -0.5)
    assert np.max(np.abs(pair.S.cos_coeffs - want_s)) <= 1e-12
    assert np.max(np.abs(pair.R.sin_coeffs - want_r)) <= 1e-12
    assert np.max(np.abs(pair.S.sin_coeffs)) <= 1e-12
    assert np.max(np.abs(pair.R.cos_coeffs)) <= 1e-12


def test_unknown_kind_and_bad_depth_are_rejected():
    with pytest.raises(ConfigurationError):
        builtin_basis("wavelet")
    with pytest.raises(ConfigurationError):
        builtin_basis("square", depth=0)
    # past the bound, a schedule file's depth could ask for member and Phi
    # arrays past memory
    for kind in ("square", "sine_cosine"):
        with pytest.raises(ConfigurationError):
            builtin_basis(kind, depth=MAX_DEPTH + 1)


# --- dilation ------------------------------------------------------------------


def test_dilate_places_harmonic_q_at_qk():
    member = BasisFunction([0.5, 0.25], [1.0, -2.0])
    spec = dilate(member, 3, 20)
    assert spec.max_harmonic == 6
    assert spec.a[2] == 1.0 and spec.b[2] == 0.5
    assert spec.a[5] == -2.0 and spec.b[5] == 0.25
    assert not np.any(np.delete(spec.a, [2, 5]))
    assert not np.any(np.delete(spec.b, [2, 5]))


def test_dilate_truncates_at_the_cap_without_folding():
    member = BasisFunction([0.5, 0.25, 0.125], [0.0, 0.0, 0.0])
    spec = dilate(member, 4, 9)
    # harmonics would land at 4, 8, 12; the cap at 9 drops the third cleanly
    assert spec.max_harmonic == 9
    assert spec.b[3] == 0.5 and spec.b[7] == 0.25
    assert np.sum(spec.b != 0.0) == 2


@given(
    k=st.integers(1, 8),
    cap=st.integers(1, 64),
    depth=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_dilate_energy_never_grows(k, cap, depth, seed):
    rng = np.random.default_rng(seed)
    member = BasisFunction(rng.normal(size=depth), rng.normal(size=depth))
    spec = dilate(member, k, cap)
    total = float(spec.a @ spec.a + spec.b @ spec.b)
    full = float(
        np.dot(member.cos_coeffs, member.cos_coeffs)
        + np.dot(member.sin_coeffs, member.sin_coeffs)
    )
    assert total <= full + 1e-12
    if depth * k <= cap:
        assert total == pytest.approx(full, rel=1e-15)
    else:
        kept = cap // k
        partial = float(
            np.dot(member.cos_coeffs[:kept], member.cos_coeffs[:kept])
            + np.dot(member.sin_coeffs[:kept], member.sin_coeffs[:kept])
        )
        assert total == pytest.approx(partial, rel=1e-15)


# --- synthesis operator --------------------------------------------------------


@pytest.mark.parametrize("cap", [7, 40])
@pytest.mark.parametrize("basis_kind", ["pair", "schedule"])
def test_synthesis_operator_columns_are_dilated_members(basis_kind, cap):
    # order 6 at depth 5 reaches harmonic 30: cap 7 truncates, cap 40 does not
    if basis_kind == "pair":
        basis = builtin_basis("square_saw", depth=5)
        pair_for = lambda k: basis
    else:
        basis = two_segment_schedule()
        pair_for = basis.pair_for
    order = 6
    phi = synthesis_operator(basis, order, cap)
    assert phi.format == "csr"
    assert phi.shape == (2 * cap, 2 * order)
    dense = phi.toarray()
    for k in range(1, order + 1):
        pair = pair_for(k)
        for column, member in ((k - 1, pair.S), (order + k - 1, pair.R)):
            spec = dilate(member, k, cap)
            want = np.zeros(2 * cap)
            want[: spec.max_harmonic] = spec.b
            want[cap : cap + spec.max_harmonic] = spec.a
            assert np.array_equal(dense[:, column], want), (k, column)


def _gram_cases():
    rng = np.random.default_rng(21)

    def custom(s_depth, r_depth):
        return BasisPair(
            BasisFunction(rng.normal(size=s_depth), rng.normal(size=s_depth)),
            BasisFunction(rng.normal(size=r_depth), rng.normal(size=r_depth)),
        )

    cases = [(kind, builtin_basis(kind), 48) for kind in BUILTIN_KINDS if kind != "custom"]
    cases += [
        ("custom_deeper_than_order", custom(30, 20), 7),
        ("custom_shallower_than_order", custom(5, 3), 48),
        ("schedule_mixed_depths", two_segment_schedule(), 48),
        ("schedule_mixed_depths_short", two_segment_schedule(), 2),
        ("schedule_segment_past_order", BasisSchedule((
            (1, builtin_basis("square", depth=9)),
            (5, builtin_basis("sawtooth", depth=3)),
            (60, builtin_basis("triangle")),
        )), 48),
    ]
    return [pytest.param(basis, order, id=name) for name, basis, order in cases]


@pytest.mark.parametrize("basis,order", _gram_cases())
def test_closed_form_gram_matches_phi(basis, order):
    rows, cols, vals = basis_module._gram_entries(basis, order)
    got = np.zeros((2 * order, 2 * order))
    got[rows, cols] = vals
    want = phi_gram(basis, order)
    assert got.shape == want.shape == (2 * order, 2 * order)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_gram_checks_read_the_same_values_as_phi(builtin_pairs):
    pairs = dict(builtin_pairs)
    pairs["hand"] = BasisPair(BasisFunction([1.0, 0.3], [0.0, 0.0]), BasisFunction([0.0], [1.0]))
    for kind, pair in pairs.items():
        for order in (1, 8, 16, 40):
            want = phi_gram(pair, order)
            eigs = np.linalg.eigvalsh(want)
            bounds = frame_bounds(pair, order)
            assert bounds.lower == pytest.approx(max(0.0, eigs[0]), rel=1e-13), kind
            assert bounds.upper == pytest.approx(eigs[-1], rel=1e-13), kind
            report = classify_orthogonality(pair, order)
            same_k = np.tile(np.eye(order, dtype=bool), (2, 2))
            horizontal = np.max(np.abs(np.diag(want, order)))
            vertical = np.max(np.abs(want[~same_k]), initial=0.0)
            assert report.horizontal == (horizontal <= basis_module.ORTHOGONALITY_TOL), kind
            assert report.vertical == (vertical <= basis_module.ORTHOGONALITY_TOL), kind
            assert report.max_horizontal == pytest.approx(horizontal, abs=1e-15), kind
            assert report.max_vertical == pytest.approx(vertical, abs=1e-15), kind


# --- validity checks ------------------------------------------------------------


def test_independence_passes_default_pair(builtin_pairs):
    report = check_independence(builtin_pairs["square_saw"])
    assert report
    assert report.products[0] == pytest.approx(SQUARE_SAW_PRODUCT, rel=1e-12)
    assert abs(report.products[1]) < 1e-30


def test_independence_passes_rotated_trig_pair():
    # cos and sin both shifted by an eighth turn: the products are 0.5 and
    # -0.5, equal in magnitude, yet the pair is orthonormal (determinant 1)
    pair = builtin_basis("sine_cosine", phase_s=0.125, phase_r=0.125)
    report = check_independence(pair)
    assert report
    assert report.products[0] == pytest.approx(0.5, rel=1e-15)
    assert report.products[1] == pytest.approx(-0.5, rel=1e-15)
    assert report.margin == pytest.approx(1.0, rel=1e-8)


def test_independence_fails_on_two_odd_members():
    # both members sine-phase: the cross products are both ~0, so the first
    # harmonic carries no solvable 2x2 system
    pair = builtin_basis("square_saw", phase_s=0.0, phase_r=0.0)
    report = check_independence(pair)
    assert not report
    # exact series at quarter-turn phases: the determinant is exactly 0
    assert report.products == (0.0, 0.0)


def test_independence_fails_on_proportional_members():
    pair = BasisPair(BasisFunction([1.0], [2.0]), BasisFunction([0.5], [1.0]), "scaled")
    assert not check_independence(pair)


@pytest.mark.parametrize(
    "pair",
    [
        # fundamentals (1, 0) and (1, 1e-12): condition number about 1e12
        BasisPair(BasisFunction([1.0], [0.0]), BasisFunction([1.0], [1e-12]), "near_parallel"),
        # orthogonal fundamentals, but R is 1e10 times smaller than S
        BasisPair(BasisFunction([100.0], [0.0]), BasisFunction([0.0], [1e-8]), "lopsided"),
    ],
    ids=lambda pair: pair.label,
)
def test_independence_fails_where_every_analysis_refuses(pair):
    assert not check_independence(pair)
    with pytest.raises(IllConditionedBasisError):
        analyze_indirect(PeriodicSignal(np.sin(2 * np.pi * np.arange(8) / 8)), pair, 2)


@given(
    c=st.floats(-8, 8).filter(lambda c: abs(c) > 1e-3),
    depth=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_independence_verdict_is_scale_invariant(c, depth, seed):
    # one factor on both members; scaling one member alone changes how well
    # the 2x2 system is conditioned, and with it the verdict
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, depth)
    scaled = BasisPair(
        BasisFunction(c * np.asarray(pair.S.cos_coeffs), c * np.asarray(pair.S.sin_coeffs)),
        BasisFunction(c * np.asarray(pair.R.cos_coeffs), c * np.asarray(pair.R.sin_coeffs)),
        "scaled",
    )
    assert check_independence(pair).passed == check_independence(scaled).passed


def test_convergence_square_saw_frozen_eigenvalues(builtin_pairs):
    report = check_convergence(builtin_pairs["square_saw"])
    assert report
    assert report.eigenvalues[0] == pytest.approx(SQUARE_SAW_EIGS[0], rel=1e-10)
    assert report.eigenvalues[1] == pytest.approx(SQUARE_SAW_EIGS[1], rel=1e-10)
    # the form matrix is diagonal for this pair: even S and odd R never share
    # a harmonic, so the cross entry is exactly zero
    assert report.form[0][1] == 0.0


def test_convergence_margin_tracks_the_analytic_limit(builtin_pairs):
    report = check_convergence(builtin_pairs["square"])
    # truncating the 1/q^2 energy tail at depth 64 shifts the margin up a bit
    assert report.eigenvalues[1] == pytest.approx(SQUARE_MARGIN_LIMIT, abs=0.02)
    assert report.eigenvalues[1] > SQUARE_MARGIN_LIMIT


def test_convergence_fails_when_tail_dominates():
    pair = BasisPair(
        BasisFunction([1.0, 1.1], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "diverging",
    )
    report = check_convergence(pair)
    assert not report
    assert report.eigenvalues[0] == pytest.approx(1.0 - 1.21, rel=1e-12)


def test_all_builtin_pairs_pass_both_checks(builtin_pairs):
    for kind, pair in builtin_pairs.items():
        assert check_independence(pair), kind
        assert check_convergence(pair), kind


@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_convergence_is_symmetric_in_the_members(seed, depth):
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, depth)
    swapped = BasisPair(pair.R, pair.S, "swapped")
    fwd = check_convergence(pair)
    rev = check_convergence(swapped)
    assert fwd.passed == rev.passed
    assert fwd.eigenvalues[0] == pytest.approx(rev.eigenvalues[0], rel=1e-9, abs=1e-12)
    assert fwd.eigenvalues[1] == pytest.approx(rev.eigenvalues[1], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("check", [check_independence, check_convergence])
def test_pair_checks_refuse_a_schedule(check):
    # triangle, then a pair whose tail dominates from k = 5: the first segment
    # passes both checks, so reading it as the schedule's verdict would pass too
    diverging = BasisPair(BasisFunction([1.0, 1.1], [0.0, 0.0]), BasisFunction([0.0], [1.0]))
    schedule = BasisSchedule(((1, builtin_basis("triangle")), (5, diverging)))
    assert not check_convergence(diverging)
    with pytest.raises(ConfigurationError, match="a basis pair is required, not a schedule"):
        check(schedule)


def test_each_verdict_is_read_off_its_numbers():
    form = ((1.0, 0.0), (0.0, 1.0))
    up = math.inf
    # independence passes iff the margin is positive: zero, -0.0 and NaN fail
    for margin, passed in ((0.0, False), (5e-324, True), (-0.0, False), (-1.0, False), (math.nan, False),
                           (math.inf, True), (np.float64(1.0), True)):
        report = IndependenceReport((0.0, 0.0), margin)
        assert report.passed is passed and bool(report) is passed, margin
    # convergence passes iff the smallest eigenvalue exceeds EPS_CONVERGENCE
    eps = basis_module.EPS_CONVERGENCE
    for smallest, passed in ((eps, False), (np.nextafter(eps, up), True), (-5.0, False), (math.nan, False)):
        report = ConvergenceReport((smallest, 2.0), form)
        assert report.passed is passed and bool(report) is passed, smallest
    # an axis is orthogonal iff its maximum is at most ORTHOGONALITY_TOL
    tol = basis_module.ORTHOGONALITY_TOL
    above = np.nextafter(tol, up)
    for (horizontal, vertical), want in (((tol, above), (True, False)), ((above, tol), (False, True)),
                                         ((0.0, math.nan), (True, False))):
        report = OrthogonalityReport(horizontal, vertical, 3)
        assert (report.horizontal, report.vertical) == want
        assert report.horizontal_label == ("orthogonal" if want[0] else "non_orthogonal")
    # a verdict is no argument, so a report cannot contradict its numbers
    with pytest.raises(TypeError):
        IndependenceReport(True, (0.0, 0.0), -1.0)
    with pytest.raises(TypeError):
        IndependenceReport((0.0, 0.0), -1.0, passed=True)
    with pytest.raises(TypeError):
        ConvergenceReport(True, (-5.0, 1.0), form)
    with pytest.raises(TypeError):
        OrthogonalityReport(True, True, 1.0, 1.0, 3)
    with pytest.raises(TypeError):
        OrthogonalityReport(1.0, 1.0, 3, horizontal=True)
    with pytest.raises(ValueError):
        dataclasses.replace(IndependenceReport((0.0, 0.0), -1.0), passed=True)
    # replace recomputes the verdict from the new numbers; the fields keep their order
    report = dataclasses.replace(IndependenceReport((0.0, 0.0), -1.0), margin=1.0)
    assert report.passed and list(dataclasses.asdict(report)) == ["passed", "products", "margin"]
    assert list(dataclasses.asdict(ConvergenceReport((1.0, 2.0), form))) == ["passed", "eigenvalues", "form"]
    assert list(dataclasses.asdict(OrthogonalityReport(0.0, 0.0, 3))) == [
        "horizontal", "vertical", "max_horizontal", "max_vertical", "k_max"]


# --- orthogonality and frame bounds ---------------------------------------------


def test_sine_cosine_is_fully_orthogonal(builtin_pairs):
    report = classify_orthogonality(builtin_pairs["sine_cosine"], 8)
    assert report.horizontal and report.vertical
    assert report.max_horizontal == 0.0
    assert report.max_vertical == 0.0
    assert report.horizontal_label == "orthogonal"
    assert report.vertical_label == "orthogonal"


def test_square_saw_is_horizontal_only(builtin_pairs):
    report = classify_orthogonality(builtin_pairs["square_saw"], 8)
    assert report.horizontal
    assert not report.vertical
    assert report.max_horizontal < 1e-12
    assert report.max_vertical > 0.3


def test_frame_bounds_hand_checked_two_by_two():
    # S = cos + 0.3 cos(2.), R = sin, N = 2: the S rows overlap only through
    # the shared second harmonic, and the spectrum of the 4x4 Gram works out
    # to {0.395, 0.695} on the S side and {0.5, 0.5} on the R side
    pair = BasisPair(
        BasisFunction([1.0, 0.3], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "hand",
    )
    bounds = frame_bounds(pair, 2)
    assert bounds.order == 2
    assert bounds.lower == pytest.approx(0.395, abs=1e-12)
    assert bounds.upper == pytest.approx(0.695, abs=1e-12)


def test_frame_bounds_must_be_ordered_and_not_negative():
    for lower, upper in ((0.6, 0.5), (-1e-300, 0.5), (-1.0, -0.5)):
        with pytest.raises(ConfigurationError, match="need 0 <= lower <= upper"):
            FrameBounds(lower, upper, 2)
    assert (FrameBounds(0, 0, 1).lower, FrameBounds(0.5, 0.5, 1).upper) == (0.0, 0.5)


def test_sine_cosine_frame_bounds_are_half(builtin_pairs):
    bounds = frame_bounds(builtin_pairs["sine_cosine"], 12)
    assert bounds.lower == pytest.approx(0.5, abs=1e-12)
    assert bounds.upper == pytest.approx(0.5, abs=1e-12)


def test_passing_builtin_pairs_have_positive_lower_bound(builtin_pairs):
    for kind, pair in builtin_pairs.items():
        bounds = frame_bounds(pair, 16)
        assert bounds.lower > 0.0, kind
        assert bounds.lower <= bounds.upper


# --- schedules ------------------------------------------------------------------


def test_schedule_segment_validation(builtin_pairs):
    sc = builtin_pairs["sine_cosine"]
    sq = builtin_pairs["square_saw"]
    with pytest.raises(ConfigurationError):
        BasisSchedule(((2, sc),))
    with pytest.raises(ConfigurationError):
        BasisSchedule(((1, sc), (4, sq), (4, sc)))
    with pytest.raises(ConfigurationError):
        BasisSchedule(())


def test_schedule_start_k_must_be_integral(builtin_pairs):
    sc = builtin_pairs["sine_cosine"]
    with pytest.raises(ConfigurationError, match="start_k must be an integer"):
        BasisSchedule(((1, sc), (4.7, sc)))
    with pytest.raises(ConfigurationError, match="start_k must be an integer"):
        schedule_from_dict({"segments": [
            {"start_k": 1, "basis": {"builtin": "square_saw"}},
            {"start_k": 4.7, "basis": {"builtin": "sine_cosine"}},
        ]})
    # a whole float is a start all the same
    assert BasisSchedule(((1.0, sc), (4.0, sc))).segments[1][0] == 4


def test_schedule_builtin_depth_must_be_integral():
    def schedule(depth):
        return schedule_from_dict({"segments": [
            {"start_k": 1, "basis": {"builtin": "square_saw", "depth": depth}},
        ]})

    for depth in (4.7, float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="depth must be an integer"):
            schedule(depth)
    # a whole float is a depth all the same
    assert schedule(4.0).segments[0][1].S.depth == 4


@pytest.mark.parametrize("phase", ["0.25", True, [0.25]])
def test_builtin_phase_is_a_number_never_parsed_or_a_bool(phase):
    # "0.25" used to be parsed, True taken as 1 turn, and a list raised TypeError
    for name in ("phase_s", "phase_r"):
        with pytest.raises(ConfigurationError, match=f"{name} must be a number"):
            builtin_basis("square", **{name: phase})
    assert np.array_equal(builtin_basis("square", phase_s=np.float32(0.25)).S.sin_coeffs,
                          builtin_basis("square", phase_s=0.25).S.sin_coeffs)


@pytest.mark.parametrize("depth", [2.5, True])
def test_builtin_depth_is_an_integer_never_rounded_or_a_bool(depth):
    # 2.5 used to build a depth-3 pair and True a depth-1 pair
    with pytest.raises(ConfigurationError, match="depth must be an integer"):
        builtin_basis("square", depth=depth)


def test_schedule_pair_for_switches_at_boundaries(builtin_pairs):
    sched = BasisSchedule(
        ((1, builtin_pairs["square_saw"]), (8, builtin_pairs["sine_cosine"]))
    )
    assert sched.pair_for(1).label == "square_saw"
    assert sched.pair_for(7).label == "square_saw"
    assert sched.pair_for(8).label == "sine_cosine"
    assert sched.pair_for(100).label == "sine_cosine"


def test_active_segment_is_the_last_start_at_or_below_k(builtin_pairs):
    # one start past the order, one past int64, which the layout clips to its maximum
    kinds = ("triangle", "square", "sawtooth", "sine_cosine", "square_saw")
    segments = tuple(zip((1, 4, 9, 40, 2**63), (builtin_pairs[kind] for kind in kinds)))
    sched = BasisSchedule(segments)
    order = 20
    d = Decomposition(0.0, [(k, 0.0, 0.0) for k in range(1, order + 1)], sched, "indirect")
    starts = basis_module._layout(sched)[0]
    assert starts.tolist() == [1, 4, 9, 40, 2**63 - 1]

    def scan(k):
        return max(i for i, (start, _) in enumerate(segments) if start <= k)

    harmonics = np.arange(1, order + 1)
    assert basis_module._active(starts, harmonics).tolist() == [scan(k) for k in harmonics.tolist()]
    for k in harmonics.tolist():
        assert d.pair_at(k) is sched.pair_for(k) is segments[scan(k)][1]
    for k in (39, 40, 41, 10**18, 2**63 - 2):
        assert basis_module._active(starts, k) == scan(k)
        assert sched.pair_for(k) is segments[scan(k)][1]
    # 2**63 - 1 would meet the clipped start, so pair_for stops below it
    with pytest.raises(ConfigurationError, match="harmonic index must be <="):
        sched.pair_for(2**63 - 1)


# --- serialization ---------------------------------------------------------------


def test_pair_json_round_trip_is_exact(tmp_path, builtin_pairs):
    pair = builtin_pairs["square_saw"]
    path = tmp_path / "pair.json"
    save_basis(pair, path)
    back = load_basis(path)
    assert back.label == pair.label
    assert np.array_equal(back.S.cos_coeffs, pair.S.cos_coeffs)
    assert np.array_equal(back.S.sin_coeffs, pair.S.sin_coeffs)
    assert np.array_equal(back.R.cos_coeffs, pair.R.cos_coeffs)
    assert np.array_equal(back.R.sin_coeffs, pair.R.sin_coeffs)


def test_pair_dict_round_trip():
    pair = BasisPair(BasisFunction([1.0], [0.5]), BasisFunction([0.0], [2.0]), "tiny")
    assert pair_from_dict(pair_to_dict(pair)).S.sin_coeffs[0] == 0.5


def test_schedule_round_trip_with_builtin_segments(tmp_path, builtin_pairs):
    sched = BasisSchedule(
        ((1, builtin_pairs["square_saw"]), (8, builtin_pairs["sine_cosine"]))
    )
    path = tmp_path / "sched.json"
    save_basis(sched, path)
    back = load_basis(path)
    assert len(back.segments) == 2
    assert back.segments[1][0] == 8
    assert np.array_equal(back.segments[0][1].S.cos_coeffs, sched.segments[0][1].S.cos_coeffs)


def test_schedule_dict_accepts_builtin_shorthand():
    sched = schedule_from_dict(
        {
            "segments": [
                {"start_k": 1, "basis": {"builtin": "square_saw"}},
                {"start_k": 8, "basis": {"builtin": "sine_cosine"}},
            ]
        }
    )
    assert sched.pair_for(9).label == "sine_cosine"
    # and the expanded form survives a dict round trip
    again = schedule_from_dict(schedule_to_dict(sched))
    assert again.pair_for(1).label == "square_saw"


def test_malformed_json_is_a_configuration_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_basis(path)
    with pytest.raises(ConfigurationError):
        load_basis(path)
    path.write_text('{"S": {"cos": [1.0]}}')
    with pytest.raises(ConfigurationError):
        load_basis(path)
