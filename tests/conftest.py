"""Shared fixtures: builtin pairs, seeded signal factories, acceptance log."""

import numpy as np
import pytest
from scipy import sparse

from genharm import (
    BasisFunction,
    BasisPair,
    BasisSchedule,
    FourierSpectrum,
    builtin_basis,
    dilate,
    synthesize_fourier,
)
from genharm.basis import _synthesis_entries

_ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{name}]: {status} -- {detail}")


@pytest.fixture
def acceptance_log():
    """Recorder for the per-criterion summary printed after the run."""

    def record(num: int, name: str, passed: bool, detail: str) -> None:
        _ACCEPTANCE_RESULTS.append((num, name, passed, detail))

    return record


@pytest.fixture(scope="session")
def builtin_pairs():
    """All ready-made pairs at default depth, keyed by kind."""
    kinds = ("sine_cosine", "square", "sawtooth", "triangle", "trapezoid", "square_saw")
    return {kind: builtin_basis(kind) for kind in kinds}


def two_segment_schedule():
    """square_saw at depth 5 for k = 1, 2, then a random pair whose S and R depths differ."""
    rng = np.random.default_rng(12)
    short = BasisPair(
        BasisFunction(rng.normal(size=3), rng.normal(size=3)),
        BasisFunction(rng.normal(size=2), rng.normal(size=2)),
        "short",
    )
    return BasisSchedule(((1, builtin_basis("square_saw", depth=5)), (3, short)))


def synthesis_operator(basis, order: int, cap: int) -> sparse.csr_matrix:
    """The synthesis operator Phi of {S(kx), R(kx)}, k = 1..order, as a scipy CSR matrix.

    Rows are (cos 1..cap, sin 1..cap), columns (S,1)..(S,N), (R,1)..(R,N);
    column (S,k) holds S's coefficient q at harmonic q*k, and harmonics above
    ``cap`` are dropped. scipy builds it from ``_synthesis_entries``, so it is
    an oracle apart from the library's own gather-and-bincount sums. The
    library's rows are rfft floats (cos h at 2h, sin h at 2h+1 with the
    coefficient negated); they are mapped back here, so the oracle does not
    depend on that layout.
    """
    rows, cols, vals = _synthesis_entries(basis, order, cap)
    harmonic, sine = np.divmod(rows, 2)
    rows, vals = sine * cap + harmonic - 1, np.where(sine == 1, -vals, vals)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * cap, 2 * order))


def phi_gram(basis, order: int) -> np.ndarray:
    """(1/2) Phi^T Phi through the sparse operator, capped so no dilation is truncated."""
    segments = basis.segments if isinstance(basis, BasisSchedule) else ((1, basis),)
    depth = max(max(pair.S.depth, pair.R.depth) for _, pair in segments)
    phi = synthesis_operator(basis, order, depth * order)
    return 0.5 * (phi.T @ phi).toarray()


def grid_inner(f, g) -> float:
    """The grid inner product <f, g> = (1/n) sum_j f_j g_j, exact below the Nyquist harmonic."""
    return float(f.samples @ g.samples) / f.n


def random_bandlimited(rng, k_max: int, n: int, decay: float = 1.0, c0: float | None = None):
    """A seeded band-limited signal with 1/k**decay coefficient falloff."""
    k = np.arange(1, k_max + 1, dtype=float)
    a = rng.normal(size=k_max) / k**decay
    b = rng.normal(size=k_max) / k**decay
    mean = rng.normal() if c0 is None else c0
    return synthesize_fourier(FourierSpectrum(mean, a, b), n)


def in_span_signal(pair: BasisPair, rng, k_max: int, n: int, decay: float = 2.0, c0: float = 0.0):
    """A signal lying exactly in the span of the pair's first k_max dilations.

    Components are accumulated in coefficient space, so the result is exact up
    to the representable band; the true expansion coefficients are returned
    alongside the signal for oracle comparisons.
    """
    band = n // 2 - 1
    a = np.zeros(band)
    b = np.zeros(band)
    coeffs = []
    k_range = np.arange(1, k_max + 1, dtype=float)
    weights = rng.normal(size=(k_max, 2)) / k_range[:, None]**decay
    for k in range(1, k_max + 1):
        A, B = weights[k - 1]
        for member, c in ((pair.S, A), (pair.R, B)):
            spec = dilate(member, k, band)
            a[: len(spec.a)] += c * spec.a
            b[: len(spec.b)] += c * spec.b
        coeffs.append((k, float(A), float(B)))
    f = synthesize_fourier(FourierSpectrum(c0, a, b), n)
    return f, tuple(coeffs)
