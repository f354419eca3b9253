"""The argument contract: a bad order, count, index, depth, phase, tolerance, pruning rule, label,
value, basis, signal or result is a GenharmError.

Every public function that takes one of these refuses a bad value with a
``GenharmError`` subclass, never with a bare ``ValueError``, ``TypeError`` or
``AttributeError``, and never with a numpy warning on the way. Anything but a
signal where one is taken is an ``InvalidSignalError``, and anything but the
result a function takes is a ``ConfigurationError``. A value a result, a basis
member or a file holds is a number: a string, a bool or a complex is refused,
never parsed, and so is each sample of a signal. A tolerance is a finite
number >= 0, a pruning rule one of the strings in ``PRUNING_RULES``, and a
basis label a string.
"""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genharm
from genharm import (
    BUILTIN_KINDS,
    MAX_DEPTH,
    PRUNING_RULES,
    BasisFunction,
    BasisPair,
    BasisSchedule,
    ConfigurationError,
    Decomposition,
    FourierSpectrum,
    FrameBounds,
    GeneralizedSpectrum,
    GenharmError,
    GramSystem,
    InvalidSignalError,
    PeriodicSignal,
    analyze_direct,
    analyze_fourier,
    analyze_indirect,
    analyze_multiband,
    band_filter,
    build_gram_system,
    builtin_basis,
    check_convergence,
    check_independence,
    classify_orthogonality,
    combined_spectrum,
    decomposition_from_dict,
    decomposition_to_dict,
    dilate,
    frame_bounds,
    generalized_spectrum,
    norm,
    pair_from_dict,
    pair_to_dict,
    parseval_power,
    reconstruct,
    residual,
    sample_closed_form,
    save_basis,
    save_decomposition,
    schedule_to_dict,
    synthesize_fourier,
    write_signal_csv,
    write_spectrum_csv,
)

F = PeriodicSignal(np.cos(2 * np.pi * np.arange(16) / 16))  # band 7
PAIR = builtin_basis("square_saw", depth=4)
SCHEDULE = BasisSchedule(((1, PAIR), (3, builtin_basis("sine_cosine", depth=2))))
D = analyze_indirect(F, SCHEDULE, 3)
D_DICT, PAIR_DICT = decomposition_to_dict(D), pair_to_dict(PAIR)

NOT_INTEGERS = [0.5, -1.5, np.float64(2.5), math.nan, math.inf, -math.inf, True, False, np.True_,
                "3", None, 3 + 0j, [3], 10**400]
NOT_A_PAIR = [None, 3, "square_saw", [], {}, (1, PAIR), np.zeros(3), PAIR.S, F, SCHEDULE]
NOT_A_BASIS = NOT_A_PAIR[:-1]
WRONG_TYPES = (st.none() | st.integers() | st.floats() | st.text(max_size=4)
               | st.lists(st.integers(), max_size=3)
               | st.dictionaries(st.text(max_size=2), st.integers()))


def outside(low, high=(1 << 63) - 1):
    """Values that are not integers, and the integers outside low..high."""
    numbers = st.integers(max_value=low - 1)
    if high != math.inf:
        numbers |= st.integers(min_value=high + 1)
    return NOT_INTEGERS, numbers


# a sample count must not be odd, below 4 or past int64
BAD_COUNTS = NOT_INTEGERS, (st.integers(max_value=3) | st.integers(min_value=1 << 63)
                            | st.integers(2, 1 << 40).map(lambda v: 2 * v + 1))
BAD_SAMPLES = [*NOT_INTEGERS, "abcd", [1.0, 2.0], [[0.0] * 4], [1.0, 2.0, "x", 4.0], ["1", "2", "3", "4"],
               [True, False, True, False], np.array([1, 0, 1, 0], dtype=bool)], st.text(max_size=4)
PAIRS, BASES = (NOT_A_PAIR, WRONG_TYPES), (NOT_A_BASIS, WRONG_TYPES)
# a phase is a finite number: not a string, a bool or a sequence
BAD_PHASES = [True, np.True_, "0.25", [0.25], 0.25j, math.nan, math.inf, 10**400], (
    st.text(max_size=4) | st.booleans() | st.lists(st.floats(), max_size=2)
    | st.floats(allow_nan=True).filter(lambda v: not math.isfinite(v)))
# None, a list and an ndarray of what the object holds, and another library object
NOT_A_SIGNAL = [None, F.samples.tolist(), np.array(F.samples), D]
NOT_A_RESULT = [None, [(1, 1.0, 1.0)], np.ones((1, 3)), F]
# a value a result, a member or a file holds is a number: not a string, a bool, None, a sequence or a complex
NOT_REALS = ["0.5", np.str_("0.5"), b"0.5", True, False, np.True_, None, [0.5], (0.5,), 0.5j,
             np.complex128(0.5)], (st.text(max_size=4) | st.booleans() | st.none() | st.complex_numbers()
                                   | st.lists(st.floats(), min_size=1, max_size=2))
# a condition estimate may be None, for none
NOT_REALS_BUT_NONE = [v for v in NOT_REALS[0] if v is not None], NOT_REALS[1].filter(lambda v: v is not None)
NOT_SEGMENTS = [None, 3, "ab", [(1, PAIR, 3)], [(1,)], [PAIR], [1]], WRONG_TYPES
ROW = (1, 1.0, 1.0)
# a value that must be finite besides
NOT_FINITE = [*NOT_REALS[0], math.nan, math.inf, -math.inf, 10**400], NOT_REALS[1]
# a tolerance is finite and >= 0: a list, unhashable, is refused before any cache sees it
BAD_TOLERANCES = [*NOT_FINITE[0], -1e-9, -1, np.float64(-0.5)], NOT_REALS[1] | st.floats(max_value=-1e-300)
# a pruning rule is a string in PRUNING_RULES; a result may hold None, for none
NOT_RULES = ["bogus", "Paper", "", b"paper", np.str_("lcm "), ["paper"], ("paper",), np.array("paper"), 1, True], (
    (st.text(max_size=5) | WRONG_TYPES).filter(lambda v: v is not None and v not in PRUNING_RULES))
BAD_RULES = [None, *NOT_RULES[0]], NOT_RULES[1] | st.none()
# a label is a string; builtin_basis takes None for the kind's name
NOT_LABELS = [7, True, 0.5, b"label", ["a"], {"a": 1}], (
    st.integers() | st.floats() | st.binary(max_size=4) | st.lists(st.text(max_size=2), max_size=2))
BAD_LABELS = [None, *NOT_LABELS[0]], NOT_LABELS[1] | st.none()
# a basis kind is one of the builtin names, as a string: a list or a dict is refused before any lookup
NOT_KINDS = [None, 3, b"square", ["square"], ("square",), {"a": 1}, np.array("square"), "bogus", "Square"], (
    (st.text(max_size=5) | WRONG_TYPES).filter(lambda v: v not in BUILTIN_KINDS))
# a Gram system's pruned mask is the boolean array its rule gives: at order 1, "none" prunes nothing
KEEP_ALL = np.zeros((2, 2), dtype=bool)
NOT_MASKS = [None, [[False, False], [False, False]], [["False", "x"], [0.5, None]], np.zeros((2, 2)),
             np.eye(2, dtype=bool), np.zeros((1, 2), dtype=bool), np.zeros(4, dtype=bool)], (
    st.lists(st.booleans(), min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)).filter(np.any)
    | WRONG_TYPES)

# (callable, argument): ((values to refuse, a strategy of more values to refuse), the call)
SLOTS = {
    ("BasisFunction", "cos_coeffs"): (NOT_REALS, lambda v: BasisFunction([1.0, v], [0.0, 1.0])),
    ("BasisFunction", "sin_coeffs"): (NOT_REALS, lambda v: BasisFunction([1.0], [v])),
    ("BasisPair", "label"): (BAD_LABELS, lambda v: BasisPair(PAIR.S, PAIR.R, v)),
    ("BasisSchedule", "segments"): (NOT_SEGMENTS, BasisSchedule),
    ("BasisSchedule", "start_k"): (outside(1, math.inf), lambda v: BasisSchedule(((v, PAIR),))),
    ("BasisSchedule", "pair"): (PAIRS, lambda v: BasisSchedule(((1, PAIR), (3, v)))),
    ("BasisSchedule.pair_for", "k"): (outside(1), SCHEDULE.pair_for),
    ("Decomposition", "basis"): (BASES, lambda v: Decomposition(0.0, (ROW,), v, "indirect")),
    ("Decomposition", "c0"): (NOT_REALS, lambda v: Decomposition(v, (ROW,), PAIR, "indirect")),
    ("Decomposition", "k"): (NOT_REALS, lambda v: Decomposition(0.0, ((v, 1.0, 1.0),), PAIR, "indirect")),
    ("Decomposition", "A_k"): (NOT_REALS, lambda v: Decomposition(0.0, ((1, v, 1.0),), PAIR, "indirect")),
    ("Decomposition", "condition_estimate"): (
        NOT_REALS_BUT_NONE, lambda v: Decomposition(0.0, (ROW,), PAIR, "indirect", None, v)),
    ("Decomposition", "pruning"): (NOT_RULES, lambda v: Decomposition(0.0, (ROW,), PAIR, "direct", v)),
    ("Decomposition.pair_at", "k"): (outside(1, 3), D.pair_at),
    ("FourierSpectrum", "c0"): (NOT_REALS, lambda v: FourierSpectrum(v, [1.0], [1.0])),
    ("FourierSpectrum", "a"): (NOT_REALS, lambda v: FourierSpectrum(0.0, [v], [1.0])),
    ("FourierSpectrum", "b"): (NOT_REALS, lambda v: FourierSpectrum(0.0, [1.0], [v])),
    ("FrameBounds", "lower"): (NOT_REALS, lambda v: FrameBounds(v, 1.0, 3)),
    ("FrameBounds", "upper"): (NOT_REALS, lambda v: FrameBounds(0.0, v, 3)),
    ("FrameBounds", "order"): (outside(1), lambda v: FrameBounds(0.0, 1.0, v)),
    ("GeneralizedSpectrum", "energy"): (NOT_REALS, lambda v: GeneralizedSpectrum(((1, v),), 0.0)),
    ("GeneralizedSpectrum", "c0_sq"): (NOT_REALS, lambda v: GeneralizedSpectrum(((1, 0.5),), v)),
    ("GramSystem", "order"): (outside(1),
                              lambda v: GramSystem(np.eye(2), np.zeros(2), KEEP_ALL, v, "none")),
    ("GramSystem", "matrix"): (NOT_FINITE,
                               lambda v: GramSystem([[v, 0.0], [0.0, 1.0]], np.zeros(2), KEEP_ALL, 1, "none")),
    ("GramSystem", "rhs"): (NOT_FINITE, lambda v: GramSystem(np.eye(2), [v, 0.0], KEEP_ALL, 1, "none")),
    ("GramSystem", "pruning"): (BAD_RULES, lambda v: GramSystem(np.eye(2), np.zeros(2), KEEP_ALL, 1, v)),
    ("GramSystem", "pruned_mask"): (NOT_MASKS, lambda v: GramSystem(np.eye(2), np.zeros(2), v, 1, "none")),
    ("PeriodicSignal", "samples"): (BAD_SAMPLES, PeriodicSignal),
    ("analyze_direct", "order"): (outside(1, 7), lambda v: analyze_direct(F, PAIR, v)),
    ("analyze_direct", "basis"): (BASES, lambda v: analyze_direct(F, v, 3)),
    ("analyze_direct", "pruning"): (BAD_RULES, lambda v: analyze_direct(F, PAIR, 3, v)),
    ("analyze_direct", "eps_independence"): (BAD_TOLERANCES, lambda v: analyze_direct(F, PAIR, 3, "paper", v)),
    ("analyze_fourier", "max_harmonic"): (outside(0, 7), lambda v: analyze_fourier(F, v)),
    ("analyze_indirect", "order"): (outside(1, 7), lambda v: analyze_indirect(F, PAIR, v)),
    ("analyze_indirect", "basis"): (BASES, lambda v: analyze_indirect(F, v, 3)),
    ("analyze_indirect", "eps_independence"): (BAD_TOLERANCES, lambda v: analyze_indirect(F, PAIR, 3, v)),
    ("analyze_multiband", "order"): (outside(1, 7), lambda v: analyze_multiband(F, SCHEDULE, v)),
    ("analyze_multiband", "schedule"): (BASES, lambda v: analyze_multiband(F, v, 3)),
    ("analyze_multiband", "eps_independence"): (BAD_TOLERANCES, lambda v: analyze_multiband(F, SCHEDULE, 3, v)),
    ("band_filter", "keep_from"): (outside(1, 3), lambda v: band_filter(D, v, 3)),
    ("band_filter", "keep_to"): (outside(2, 3), lambda v: band_filter(D, 2, v)),
    ("build_gram_system", "order"): (outside(1, 7), lambda v: build_gram_system(F, PAIR, v)),
    ("build_gram_system", "basis"): (BASES, lambda v: build_gram_system(F, v, 3)),
    ("build_gram_system", "pruning"): (BAD_RULES, lambda v: build_gram_system(F, PAIR, 3, v)),
    ("builtin_basis", "kind"): (NOT_KINDS, builtin_basis),
    ("builtin_basis", "depth"): (outside(1, MAX_DEPTH), lambda v: builtin_basis("square", depth=v)),
    ("builtin_basis", "phase_s"): (BAD_PHASES, lambda v: builtin_basis("square", phase_s=v)),
    ("builtin_basis", "phase_r"): (BAD_PHASES, lambda v: builtin_basis("square", phase_r=v)),
    ("builtin_basis", "label"): (NOT_LABELS, lambda v: builtin_basis("square", label=v)),
    ("check_convergence", "pair"): (PAIRS, check_convergence),
    ("check_convergence", "eps"): (BAD_TOLERANCES, lambda v: check_convergence(PAIR, v)),
    ("check_independence", "pair"): (PAIRS, check_independence),
    ("check_independence", "eps"): (BAD_TOLERANCES, lambda v: check_independence(PAIR, v)),
    ("classify_orthogonality", "basis"): (BASES, lambda v: classify_orthogonality(v, 3)),
    ("classify_orthogonality", "k_max"): (outside(1), lambda v: classify_orthogonality(PAIR, v)),
    ("classify_orthogonality", "tol"): (BAD_TOLERANCES, lambda v: classify_orthogonality(PAIR, 3, v)),
    ("combined_spectrum", "band_cap"): (outside(0), lambda v: combined_spectrum(D, v)),
    ("decomposition_from_dict", "c0"): (NOT_REALS, lambda v: decomposition_from_dict({**D_DICT, "c0": v})),
    ("decomposition_from_dict", "A"): (NOT_REALS, lambda v: decomposition_from_dict(
        {**D_DICT, "coefficients": [{"k": 1, "A": v, "B": 1.0}]})),
    ("dilate", "k"): (outside(1), lambda v: dilate(PAIR.S, v, 8)),
    ("dilate", "band_cap"): (outside(0), lambda v: dilate(PAIR.S, 2, v)),
    ("frame_bounds", "basis"): (BASES, lambda v: frame_bounds(v, 3)),
    ("frame_bounds", "order"): (outside(1), lambda v: frame_bounds(PAIR, v)),
    ("pair_from_dict", "cos"): (NOT_REALS, lambda v: pair_from_dict(
        {**PAIR_DICT, "S": {"cos": [v], "sin": [1.0]}})),
    ("pair_from_dict", "label"): (BAD_LABELS, lambda v: pair_from_dict({**PAIR_DICT, "label": v})),
    ("pair_to_dict", "pair"): (PAIRS, pair_to_dict),
    ("reconstruct", "n"): (BAD_COUNTS, lambda v: reconstruct(D, v)),
    ("sample_closed_form", "n"): (BAD_COUNTS, lambda v: sample_closed_form(math.sin, v)),
    ("sample_closed_form", "evaluator"): (NOT_FINITE, lambda v: sample_closed_form(lambda x: v, 4)),
    ("save_basis", "basis"): (BASES, lambda v: save_basis(v, os.devnull)),
    ("schedule_to_dict", "schedule"): (BASES, schedule_to_dict),
    ("synthesize_fourier", "n"): (BAD_COUNTS, lambda v: synthesize_fourier(analyze_fourier(F, 2), v)),
}

# (callable, argument): (the error, the call) for each signal, result or member argument
TYPED = {
    ("analyze_direct", "f"): (InvalidSignalError, lambda v: analyze_direct(v, PAIR, 3)),
    ("analyze_fourier", "f"): (InvalidSignalError, lambda v: analyze_fourier(v, 3)),
    ("analyze_indirect", "f"): (InvalidSignalError, lambda v: analyze_indirect(v, PAIR, 3)),
    ("analyze_multiband", "f"): (InvalidSignalError, lambda v: analyze_multiband(v, SCHEDULE, 3)),
    ("build_gram_system", "f"): (InvalidSignalError, lambda v: build_gram_system(v, PAIR, 3)),
    ("norm", "f"): (InvalidSignalError, norm),
    ("residual", "f"): (InvalidSignalError, lambda v: residual(v, D)),
    ("write_signal_csv", "f"): (InvalidSignalError, lambda v: write_signal_csv(v, os.devnull)),
    ("band_filter", "d"): (ConfigurationError, lambda v: band_filter(v, 1, 1)),
    ("combined_spectrum", "d"): (ConfigurationError, lambda v: combined_spectrum(v, 7)),
    ("decomposition_to_dict", "d"): (ConfigurationError, decomposition_to_dict),
    ("dilate", "member"): (ConfigurationError, lambda v: dilate(v, 2, 8)),
    ("generalized_spectrum", "d"): (ConfigurationError, generalized_spectrum),
    ("parseval_power", "spec"): (ConfigurationError, parseval_power),
    ("reconstruct", "d"): (ConfigurationError, lambda v: reconstruct(v, 16)),
    ("residual", "d"): (ConfigurationError, lambda v: residual(F, v)),
    ("save_decomposition", "d"): (ConfigurationError, lambda v: save_decomposition(v, os.devnull)),
    ("synthesize_fourier", "spec"): (ConfigurationError, lambda v: synthesize_fourier(v, 16)),
    ("write_spectrum_csv", "spec"): (ConfigurationError, lambda v: write_spectrum_csv(v, os.devnull)),
}
SLOTS.update({slot: (((NOT_A_SIGNAL if error is InvalidSignalError else NOT_A_RESULT), WRONG_TYPES), call)
              for slot, (error, call) in TYPED.items()})

# public callables that take no order, count, index, depth, phase, tolerance,
# pruning rule, label, value, basis, signal or result: they take files, or a
# dict whose values reach a checked constructor; or they are the verdict
# records only the checks build, which validate nothing
UNCHECKED = {
    "ConvergenceReport", "IndependenceReport", "OrthogonalityReport", "load_basis",
    "load_decomposition", "read_signal_csv", "schedule_from_dict",
}


def test_every_public_callable_is_in_the_contract_or_named_as_taking_none_of_its_arguments():
    public = {name for name in genharm.__all__ if callable(getattr(genharm, name))
              and not (isinstance(getattr(genharm, name), type)
                       and issubclass(getattr(genharm, name), Exception))}
    covered = {name for name, _ in SLOTS if "." not in name}
    assert public - covered == UNCHECKED


@pytest.mark.parametrize("slot", sorted(SLOTS), ids="-".join)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_bad_arguments_raise_a_genharm_error_and_no_numpy_warning(slot, data):
    (values, more), call = SLOTS[slot]
    for value in [*values, data.draw(more)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GenharmError):
                call(value)


@pytest.mark.parametrize("slot", sorted(TYPED), ids="-".join)
def test_a_signal_or_result_of_the_wrong_type_gets_its_own_error(slot):
    error, call = TYPED[slot]
    for value in NOT_A_SIGNAL if error is InvalidSignalError else NOT_A_RESULT:
        with pytest.raises(error, match="is required, got"):
            call(value)


def test_a_whole_float_or_a_numpy_integer_is_the_integer_it_names():
    for analyze in (analyze_indirect, analyze_direct):
        want = analyze(F, PAIR, 3).coeffs
        assert np.array_equal(analyze(F, PAIR, 3.0).coeffs, want)
        assert np.array_equal(analyze(F, PAIR, np.int32(3)).coeffs, want)
    for depth in (3.0, np.float32(3.0), np.int64(3)):
        assert builtin_basis("square", depth=depth).S.depth == 3
    assert np.array_equal(reconstruct(D, 16.0).samples, reconstruct(D, np.uint8(16)).samples)
    assert frame_bounds(PAIR, 3.0) == frame_bounds(PAIR, 3)
    assert SCHEDULE.pair_for(np.int64(3)) is SCHEDULE.segments[1][1]


def test_a_tolerance_of_any_numeric_type_is_the_float_it_names():
    assert check_independence(PAIR, 0) == check_independence(PAIR, np.float32(0.0))
    assert classify_orthogonality(PAIR, 3, np.int64(0)) == classify_orthogonality(PAIR, 3, 0.0)
    want = analyze_indirect(F, PAIR, 3).coeffs
    assert np.array_equal(analyze_indirect(F, PAIR, 3, np.float64(1e-9)).coeffs, want)
    assert np.array_equal(analyze_direct(F, PAIR, 3, np.str_("paper")).coeffs, analyze_direct(F, PAIR, 3).coeffs)


def test_arrays_numpy_cannot_stack_are_refused_where_numpy_refuses_them():
    # equal leading lengths with unequal trailing shapes: numpy raises even for dtype=object
    unstackable = [np.zeros((2, 3)), np.zeros((2, 2))]
    calls = [
        (ConfigurationError, "coefficients must be", lambda: Decomposition(0.0, unstackable, PAIR, "indirect")),
        (ConfigurationError, "a must be numbers", lambda: FourierSpectrum(0.0, unstackable, [1.0])),
        (InvalidSignalError, "samples must be a sequence", lambda: PeriodicSignal(unstackable)),
    ]
    for error, message, call in calls:
        with pytest.raises(error, match=message) as caught:
            call()
        cause = caught.value
        while isinstance(cause, GenharmError):
            cause = cause.__cause__
        assert type(cause) is ValueError and "could not broadcast" in str(cause)


def test_samples_that_are_not_numbers_are_an_invalid_signal():
    for samples in (["1", "2", "3", "4"], [True, False, True, False], [1.0, None, 2.0, 3.0]):
        with pytest.raises(InvalidSignalError, match="samples must be a sequence of numbers"):
            PeriodicSignal(samples)
    with pytest.raises(InvalidSignalError, match="evaluator values must be a sequence of numbers"):
        sample_closed_form(lambda x: "1", 4)
