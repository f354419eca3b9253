"""Analysis plans: built once per (basis, order), reused across signals, bounded."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from genharm import (
    AnalysisError,
    BasisFunction,
    BasisPair,
    BasisSchedule,
    Decomposition,
    FourierSpectrum,
    GeneralizedSpectrum,
    IllConditionedBasisError,
    PeriodicSignal,
    analyze_direct,
    analyze_fourier,
    analyze_indirect,
    analyze_multiband,
    band_filter,
    build_gram_system,
    builtin_basis,
    combined_spectrum,
    generalized_spectrum,
    reconstruct,
    residual,
    synthesize_fourier,
)
from genharm import decompose
from genharm.basis import _layout
from genharm.decompose import (
    PRUNING_RULES,
    _PLAN_CACHE_SIZE,
    _direct_plan,
    _indirect_plan,
    _phi,
)

from conftest import random_bandlimited, two_segment_schedule

KINDS = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
BUILDERS = (_phi, _indirect_plan, _direct_plan, _layout)


def _results(f, basis, order):
    """Everything the analyses hand back, as values that compare with ==."""
    out = []
    d = analyze_indirect(f, basis, order)
    out += [d.c0, d.coeffs.tobytes(), d.warnings, d.condition_estimate, residual(f, d).samples.tobytes()]
    out.append(generalized_spectrum(d).entries.tobytes())
    for pruning in PRUNING_RULES:
        d = analyze_direct(f, basis, order, pruning)
        out += [d.c0, d.coeffs.tobytes(), d.warnings, d.condition_estimate, residual(f, d).samples.tobytes()]
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
    verdicts = []
    original_entries, original_gram = decompose._synthesis_entries, decompose._gram_entries
    original_check = decompose.check_independence

    def counted_entries(basis, order, cap):
        builds[order, cap] = builds.get((order, cap), 0) + 1
        return original_entries(basis, order, cap)

    def counted_gram(basis, order):
        grams.append(order)
        return original_gram(basis, order)

    def counted_check(pair):
        verdicts.append(pair)
        return original_check(pair)

    monkeypatch.setattr(decompose, "_synthesis_entries", counted_entries)
    monkeypatch.setattr(decompose, "_gram_entries", counted_gram)
    monkeypatch.setattr(decompose, "check_independence", counted_check)
    pair = builtin_basis("square_saw")
    rng = np.random.default_rng(10)
    for _ in range(10):
        f = random_bandlimited(rng, 16, 128)
        for d in (analyze_indirect(f, pair, 16), analyze_direct(f, pair, 16, "paper")):
            residual(f, d)
    # the indirect levels read Phi at cap = order, the direct rhs and residual at the band
    assert builds == {(16, 16): 1, (16, 63): 1}
    assert grams == [16]
    assert verdicts == [pair, pair]  # one independence check per plan built


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


def _use_every_part(f, basis, order):
    d = analyze_indirect(f, basis, order)
    analyze_direct(f, basis, order)
    residual(f, d)  # Phi at the band cap, as analyze_direct's right-hand side
    generalized_spectrum(d)


def test_more_bases_than_the_bound_leave_the_cache_at_its_bound():
    f = random_bandlimited(np.random.default_rng(1), 4, 32)
    bases = [builtin_basis("square", depth=4) for _ in range(_PLAN_CACHE_SIZE + 3)]
    for basis in bases:
        _use_every_part(f, basis, 4)
    assert [builder.cache_info().currsize for builder in BUILDERS] == [_PLAN_CACHE_SIZE] * len(BUILDERS)
    # the least recently used went first: the last bases hit, the first misses
    misses = [builder.cache_info().misses for builder in BUILDERS]
    for basis in bases[3:]:
        _use_every_part(f, basis, 4)
    assert [builder.cache_info().misses for builder in BUILDERS] == misses
    _use_every_part(f, bases[0], 4)
    assert [builder.cache_info().misses for builder in BUILDERS] == [m + 1 for m in misses]


def test_a_dropped_basis_is_collected_once_the_bound_of_other_bases_is_analyzed():
    f = random_bandlimited(np.random.default_rng(1), 4, 32)
    pair = builtin_basis("square", depth=4)
    _use_every_part(f, pair, 4)
    gone = weakref.ref(pair)
    del pair
    for _ in range(_PLAN_CACHE_SIZE - 1):
        _use_every_part(f, builtin_basis("square", depth=4), 4)
    gc.collect()
    assert gone() is not None  # the caches hold their keys strongly
    _use_every_part(f, builtin_basis("square", depth=4), 4)
    gc.collect()
    assert gone() is None


def test_a_singular_system_raises_on_every_call_and_stores_nothing():
    # the singular pair of test_cli: the first-harmonic check passes, G is singular
    pair = BasisPair(
        BasisFunction([1.0, 0.5], [0.0, 0.0]),
        BasisFunction([0.0, 1.0, 0.0, 0.5], [1e-8, 0.0, 0.0, 0.0]),
        "near-copy",
    )
    f = random_bandlimited(np.random.default_rng(4), 2, 64)
    _direct_plan.cache_clear()
    for calls in (1, 2):
        with pytest.raises(AnalysisError, match="gram system is exactly singular"):
            analyze_direct(f, pair, 2, "none")
        info = _direct_plan.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, calls)


def test_an_ill_conditioned_basis_raises_on_every_call_and_stores_nothing():
    pair = BasisPair(BasisFunction([0.0], [1.0]), BasisFunction([0.0], [2.0]), "proportional")
    f = random_bandlimited(np.random.default_rng(5), 2, 64)
    _indirect_plan.cache_clear()
    _direct_plan.cache_clear()
    for calls in (1, 2):
        for analyze, plan in ((analyze_indirect, _indirect_plan), (analyze_direct, _direct_plan)):
            with pytest.raises(IllConditionedBasisError, match="ill-conditioned"):
                analyze(f, pair, 2)
            info = plan.cache_info()
            assert (info.currsize, info.hits, info.misses) == (0, 0, calls)


def test_plan_arrays_cannot_be_made_writeable():
    pair = builtin_basis("sawtooth", depth=8)
    f = random_bandlimited(np.random.default_rng(2), 6, 64)
    system = build_gram_system(f, pair, 6, "lcm")
    analyze_indirect(f, pair, 6)
    analyze_direct(f, pair, 6, "lcm")
    triangular, inverse, _ = _indirect_plan(pair, 6)
    arrays = [system.matrix, system.pruned_mask, system.rhs, *_phi(pair, 6, 31), *triangular, *inverse]
    arrays += [part for group in _direct_plan(pair, 6, "lcm")[0] for part in group]
    # results copy the arrays the library computed for them and freeze the copies
    d = analyze_indirect(f, pair, 6)
    spectrum, fourier = combined_spectrum(d, 31), analyze_fourier(f, 6)
    energies = generalized_spectrum(d)
    arrays += [f.samples, d.coeffs, analyze_direct(f, pair, 6, "lcm").coeffs, band_filter(d, 2, 4).coeffs]
    arrays += [energies.entries, spectrum.a, spectrum.b, fourier.a, fourier.b]
    arrays += [reconstruct(d, 64).samples, residual(f, d).samples, *_layout(pair)]
    # pickle and deepcopy hand arrays back writeable; the copies freeze them again,
    # so a copied basis cannot change under the parts cached for it
    for clone in (lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy):
        p, g, e, s, gs, gram = map(clone, (pair, f, d, spectrum, energies, system))
        arrays += [p.S.cos_coeffs, p.S.sin_coeffs, p.R.cos_coeffs, p.R.sin_coeffs, g.samples, g._spectrum]
        arrays += [e.coeffs, gs.entries, s.a, s.b, gram.matrix, gram.rhs, gram.pruned_mask]
    for array in arrays:
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_threads_sharing_the_cache_get_the_single_thread_results():
    f = random_bandlimited(np.random.default_rng(3), 12, 64)
    bases = [builtin_basis(kind, depth=8) for kind in KINDS for _ in range(2)]
    assert len(bases) > _PLAN_CACHE_SIZE
    want = [analyze_direct(f, basis, 12, "lcm").coeffs.tobytes() for basis in bases]
    got, errors = {}, []

    def work(worker):
        try:
            for i in range(worker, worker + 3 * len(bases)):
                index = i % len(bases)
                got.setdefault(index, set()).add(analyze_direct(f, bases[index], 12, "lcm").coeffs.tobytes())
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
    assert [builder.cache_info().currsize for builder in (_phi, _direct_plan)] == [_PLAN_CACHE_SIZE] * 2


def _same_decomposition(d, rebuilt):
    assert type(d.c0) is float and d.c0 == rebuilt.c0
    assert d.coeffs.shape == (d.order, 3) and d.coeffs.dtype == float
    assert d.coeffs.tobytes() == rebuilt.coeffs.tobytes()
    assert d.basis is rebuilt.basis
    assert (d.method, d.pruning, d.condition_estimate) == (rebuilt.method, rebuilt.pruning, rebuilt.condition_estimate)
    assert d.warnings == rebuilt.warnings


@pytest.mark.parametrize("kind", KINDS + ("schedule",))
def test_adopted_results_equal_their_rebuild_through_the_public_constructors(kind):
    basis = two_segment_schedule() if kind == "schedule" else builtin_basis(kind)
    order = 7 if kind == "schedule" else 24
    f = random_bandlimited(np.random.default_rng(20 + len(kind)), order, 256)
    results = [analyze_indirect(f, basis, order)]
    results += [analyze_direct(f, basis, order, pruning) for pruning in PRUNING_RULES]
    for d in results:
        fields = (d.basis, d.method, d.pruning, d.condition_estimate)
        _same_decomposition(d, Decomposition(d.c0, d.coeffs, *fields))
        # band_filter's table is the per-harmonic rule it replaced
        kept = tuple((k, a, b) if 2 <= k <= order - 1 else (k, 0.0, 0.0) for k, a, b in d.coeffs)
        _same_decomposition(band_filter(d, 2, order - 1), Decomposition(0.0, kept, *fields))
        spectrum = generalized_spectrum(d)
        rebuilt = GeneralizedSpectrum(spectrum.entries, spectrum.c0_sq)
        assert spectrum.entries.shape == (order, 2) and spectrum.entries.dtype == float
        assert (spectrum.entries.tobytes(), spectrum.c0_sq) == (rebuilt.entries.tobytes(), rebuilt.c0_sq)
        combined = combined_spectrum(d, 127)
        rebuilt = FourierSpectrum(combined.c0, combined.a, combined.b)
        assert (combined.a.tobytes(), combined.b.tobytes()) == (rebuilt.a.tobytes(), rebuilt.b.tobytes())
        expected = f.samples - reconstruct(d, f.n).samples
        assert residual(f, d).samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [64, 100, 4098])
@pytest.mark.parametrize("kind", KINDS + ("schedule",))
def test_reconstruct_and_residual_equal_the_synthesized_combined_spectrum(kind, n):
    basis = two_segment_schedule() if kind == "schedule" else builtin_basis(kind)
    order = 7 if kind == "schedule" else 24
    f = random_bandlimited(np.random.default_rng(n + len(kind)), order, n)
    results = [analyze_indirect(f, basis, order)]
    results += [analyze_direct(f, basis, order, pruning) for pruning in PRUNING_RULES]
    for d in results:
        want = synthesize_fourier(combined_spectrum(d, n // 2 - 1), n).samples
        assert reconstruct(d, n).samples.tobytes() == want.tobytes()
        assert residual(f, d).samples.tobytes() == (f.samples - want).tobytes()


def _library_and_caller_results():
    """(result, name of its row field) for results the library built and ones a caller built."""
    basis = builtin_basis("trapezoid")
    f = random_bandlimited(np.random.default_rng(31), 12, 64)
    d = analyze_direct(f, basis, 12, "lcm")
    spectrum = generalized_spectrum(d)
    constructed = Decomposition(d.c0, d.coeffs.tolist(), basis, "direct", "lcm", d.condition_estimate)
    return [
        (analyze_indirect(f, basis, 12), "coeffs"),
        (band_filter(d, 3, 9), "coeffs"),
        (constructed, "coeffs"),
        (spectrum, "entries"),
        (GeneralizedSpectrum(spectrum.entries.tolist(), spectrum.c0_sq), "entries"),
    ]


def test_results_survive_repr_pickle_deepcopy_and_replace():
    for result, name in _library_and_caller_results():
        rows = getattr(result, name)
        assert rows.dtype == float and rows[:, 0].tolist() == list(range(1, len(rows) + 1))
        copies = [pickle.loads(pickle.dumps(result)), copy.deepcopy(result), copy.copy(result)]
        field = "method" if name == "coeffs" else "c0_sq"
        copies.append(dataclasses.replace(result, **{field: getattr(result, field)}))
        for other in copies:
            # the rows come back equal and read-only, copied or not
            assert getattr(other, name).tobytes() == rows.tobytes()
            with pytest.raises(ValueError):
                getattr(other, name).setflags(write=True)
            assert repr(other) == repr(result)
        assert f"{name}=array([[" in repr(result)
        if name == "coeffs":  # a copy is a working result
            assert generalized_spectrum(copies[0]).total() == generalized_spectrum(result).total()


def test_a_stream_op_builds_each_result_once_through_its_constructor(monkeypatch):
    pair = builtin_basis("square_saw")
    schedule = BasisSchedule(((1, pair), (9, builtin_basis("triangle"))))
    samples = random_bandlimited(np.random.default_rng(13), 16, 128).samples.copy()
    analyze_multiband(PeriodicSignal(samples), schedule, 16)  # plans are built before counting
    analyze_direct(PeriodicSignal(samples), pair, 16, "paper")
    constructed = {}

    for cls in (PeriodicSignal, FourierSpectrum, Decomposition, GeneralizedSpectrum):
        original = cls.__post_init__

        def counted(self, original=original, name=cls.__name__):
            constructed[name] = constructed.get(name, 0) + 1
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    def no_column_stack(*args, **kwargs):
        raise AssertionError("np.column_stack on the analysis path")

    monkeypatch.setattr(np, "column_stack", no_column_stack)
    f = PeriodicSignal(samples)
    d_ind = analyze_indirect(f, pair, 16)
    d_dir = analyze_direct(f, pair, 16, "paper")
    residual(f, d_ind)
    residual(f, d_dir)
    generalized_spectrum(d_ind)
    analyze_multiband(f, schedule, 16)
    # each residual is one signal, synthesized straight from Phi @ [A; B] with no spectrum between
    assert constructed == {"PeriodicSignal": 3, "Decomposition": 3, "GeneralizedSpectrum": 1}
