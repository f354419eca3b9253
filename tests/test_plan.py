"""Analysis plans: built once per (basis, order), reused across signals, bounded."""

import sys
import threading
import weakref

import numpy as np
import pytest

from genharm import (
    BasisFunction,
    BasisPair,
    BasisSchedule,
    analyze_direct,
    analyze_indirect,
    analyze_multiband,
    build_gram_system,
    builtin_basis,
    generalized_spectrum,
    residual,
)
from genharm import decompose
from genharm.decompose import PRUNING_RULES, _PLAN_CACHE_SIZE, _plan

from conftest import random_bandlimited, two_segment_schedule

KINDS = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")


def _results(f, basis, order):
    """Everything the analyses hand back, as values that compare with ==."""
    out = []
    d = analyze_indirect(f, basis, order)
    out += [d.c0, d.coeffs, d.warnings, d.condition_estimate, residual(f, d).samples.tobytes()]
    out.append(generalized_spectrum(d).entries)
    for pruning in PRUNING_RULES:
        d = analyze_direct(f, basis, order, pruning)
        out += [d.c0, d.coeffs, d.warnings, d.condition_estimate, residual(f, d).samples.tobytes()]
    return out


@pytest.mark.parametrize("kind", KINDS + ("schedule",))
def test_a_reused_plan_gives_the_results_of_a_fresh_one(kind):
    build = two_segment_schedule if kind == "schedule" else lambda: builtin_basis(kind)
    order = 7 if kind == "schedule" else 24
    f = random_bandlimited(np.random.default_rng(len(kind)), order, 256)
    basis = build()
    first = _results(f, basis, order)
    assert _results(f, basis, order) == first  # the plan is reused
    assert _results(f, build(), order) == first  # an equal basis builds its own plan


def test_a_reused_plan_keeps_the_condition_warning():
    f = random_bandlimited(np.random.default_rng(6), 8, 256)
    pair = BasisPair(
        BasisFunction([1.0, 0.5], [0.0, 0.0]),
        BasisFunction([0.0, 1.0, 0.0, 0.5], [1e-7, 0.0, 0.0, 0.0]),
    )
    first, again = (analyze_direct(f, pair, 2, "none") for _ in range(2))
    assert len(first.warnings) == 1
    assert (again.warnings, again.condition_estimate) == (first.warnings, first.condition_estimate)


def test_ten_signals_build_phi_once_per_order_and_cap(monkeypatch):
    builds = {}
    grams = []
    original_entries, original_gram = decompose._synthesis_entries, decompose._gram_entries

    def counted_entries(basis, order, cap):
        builds[order, cap] = builds.get((order, cap), 0) + 1
        return original_entries(basis, order, cap)

    def counted_gram(basis, order):
        grams.append(order)
        return original_gram(basis, order)

    monkeypatch.setattr(decompose, "_synthesis_entries", counted_entries)
    monkeypatch.setattr(decompose, "_gram_entries", counted_gram)
    pair = builtin_basis("square_saw")
    rng = np.random.default_rng(10)
    for _ in range(10):
        f = random_bandlimited(rng, 16, 128)
        for d in (analyze_indirect(f, pair, 16), analyze_direct(f, pair, 16, "paper")):
            residual(f, d)
    # the indirect levels read Phi at cap = order, the direct rhs and residual at the band
    assert builds == {(16, 16): 1, (16, 63): 1}
    assert grams == [16]


def test_one_rfft_per_signal_across_the_analyses(monkeypatch):
    calls = []
    original = np.fft.rfft

    def counted(samples, *args, **kwargs):
        calls.append(len(samples))
        return original(samples, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    pair = builtin_basis("square_saw")
    schedule = BasisSchedule(((1, pair), (9, builtin_basis("triangle"))))
    rng = np.random.default_rng(11)
    for _ in range(3):
        f = random_bandlimited(rng, 16, 128)
        analyze_indirect(f, pair, 16)
        analyze_direct(f, pair, 16, "paper")
        analyze_multiband(f, schedule, 16)
    assert calls == [128, 128, 128]  # one per signal, whichever analysis comes first


def test_more_bases_than_the_bound_leave_the_cache_at_its_bound():
    f = random_bandlimited(np.random.default_rng(1), 4, 32)
    bases = [builtin_basis("square", depth=4) for _ in range(_PLAN_CACHE_SIZE + 3)]
    for basis in bases:
        analyze_indirect(f, basis, 4)
    assert len(decompose._plans) == _PLAN_CACHE_SIZE
    # the least recently used went first
    assert [key[0]() for key in decompose._plans] == bases[3:]


def test_the_cache_keeps_no_basis_alive():
    f = random_bandlimited(np.random.default_rng(1), 4, 32)
    pair = builtin_basis("square", depth=4)
    analyze_direct(f, pair, 4)
    gone = weakref.ref(pair)
    del pair
    assert gone() is None
    kept = builtin_basis("square", depth=4)
    analyze_indirect(f, kept, 4)  # a miss drops the plans of dead bases
    assert all(key[0]() is not None for key in decompose._plans)


def test_plan_arrays_cannot_be_made_writeable():
    pair = builtin_basis("sawtooth", depth=8)
    f = random_bandlimited(np.random.default_rng(2), 6, 64)
    system = build_gram_system(f, pair, 6, "lcm")
    analyze_indirect(f, pair, 6)
    analyze_direct(f, pair, 6, "lcm")
    plan = _plan(pair, 6)
    triangular, inverse, _ = plan.inverse()
    arrays = [system.matrix, system.pruned_mask, system.rhs, *plan.entries(31), *triangular, *inverse]
    arrays += [part for group in plan.system("lcm")[0] for part in group]
    for array in arrays:
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_threads_sharing_the_cache_get_the_single_thread_results():
    f = random_bandlimited(np.random.default_rng(3), 12, 64)
    bases = [builtin_basis(kind, depth=8) for kind in KINDS for _ in range(2)]
    assert len(bases) > _PLAN_CACHE_SIZE
    want = [analyze_direct(f, basis, 12, "lcm").coeffs for basis in bases]
    got, errors = {}, []

    def work(worker):
        try:
            for i in range(worker, worker + 3 * len(bases)):
                index = i % len(bases)
                got.setdefault(index, set()).add(analyze_direct(f, bases[index], 12, "lcm").coeffs)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == {i: {coeffs} for i, coeffs in enumerate(want)}
    assert len(decompose._plans) <= _PLAN_CACHE_SIZE
