"""Basis pairs on [0, 1): construction, the synthesis operator, validity checks, schedules.

A basis pair holds two zero-mean periodic members S and R as truncated Fourier
coefficient sequences (depth Q). Each builtin member is its waveform's exact
Fourier series turned by a phase; only ``custom`` members are projected from
samples. Dilating a member by k moves coefficient q to harmonic q*k.
``_synthesis_entries`` writes that index arithmetic down once, as the
(rows, cols, vals) entries of the sparse matrix Phi of the dilated family.
Its rows are the floats of the one spectrum layout ``signals`` keeps, the
rfft's own, so both analyses, reconstruction and spectra use the entries as
they are, with no conversion.
The Gram matrix G = (1/2) Phi^T Phi is stated once too: ``_gram_entries``
lists its nonzero entries in closed form from the members' coefficients, with
no sample-domain quadrature, and ``_gram_blocks`` cuts them into the diagonal
blocks of G, which is block diagonal up to a permutation. The frame bounds
and orthogonality classes below and the direct method all read G through
these two; no dense copy of G is built. The module runs on numpy alone.

Two conditions make a pair usable for analysis:

* independence: the first-harmonic 2x2 system is solvable, its determinant
  |s1*r'1 - s'1*r1| above a tolerance relative to the fundamentals' energy;
  every analysis refuses a pair or schedule segment that fails it;
* the convergence requisite: any combination A*S + B*R carries more energy at
  its fundamental than at all higher harmonics combined, decided as positive
  definiteness of a 2x2 quadratic form.

A pair failing the second check can still be used inside a schedule that
switches to a converging pair at higher frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import _INT64_MAX, ConfigurationError, _integer, _number, _numbers, _real, _tolerance, _typed
from .files import read_json, write_json
from .signals import FourierSpectrum, _band, _frozen, _refreeze, _sum_squares, analyze_fourier, sample_closed_form

__all__ = [
    "BasisFunction",
    "BasisPair",
    "BasisSchedule",
    "FrameBounds",
    "IndependenceReport",
    "ConvergenceReport",
    "OrthogonalityReport",
    "BUILTIN_KINDS",
    "DEFAULT_DEPTH",
    "MAX_DEPTH",
    "EPS_INDEPENDENCE",
    "EPS_CONVERGENCE",
    "ORTHOGONALITY_TOL",
    "builtin_basis",
    "dilate",
    "check_independence",
    "check_convergence",
    "classify_orthogonality",
    "frame_bounds",
    "pair_to_dict",
    "pair_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_basis",
    "load_basis",
]

EPS_INDEPENDENCE = 1e-9
EPS_CONVERGENCE = 1e-12
ORTHOGONALITY_TOL = 1e-10
DEFAULT_DEPTH = 64
# a builtin costs O(depth) to build, but each member holds 2 * depth floats and
# Phi up to depth entries per column, depth * order per member: this bound keeps
# a schedule file's depth from asking for arrays past memory
MAX_DEPTH = 1 << 16
# entries each memoized builder keeps, here and in ``decompose``, the least
# recently used dropped first: a workload cycling through more bases than
# this rebuilds on every call, as if there were no cache
_PLAN_CACHE_SIZE = 8

_PROJECTION_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
class BasisFunction:
    """A zero-mean periodic function as cosine/sine coefficients at q = 1..Q.

    ``cos_coeffs[q-1]`` and ``sin_coeffs[q-1]`` are the coefficients of
    cos(2 pi q x) and sin(2 pi q x). There is no DC slot by construction.
    Both arrays are private read-only copies that cannot be made writeable.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        cos_c = _numbers(self.cos_coeffs, "cosine coefficients")
        sin_c = _numbers(self.sin_coeffs, "sine coefficients")
        if cos_c.ndim != 1 or sin_c.ndim != 1 or cos_c.size != sin_c.size:
            raise ConfigurationError("coefficient arrays must be 1-d and of equal length")
        if cos_c.size < 1:
            raise ConfigurationError("a basis function needs at least one harmonic")
        energy = _sum_squares(cos_c) + _sum_squares(sin_c)
        if not math.isfinite(energy) or energy <= 0.0:
            raise ConfigurationError("basis function energy must be finite and positive")
        object.__setattr__(self, "cos_coeffs", _frozen(cos_c))
        object.__setattr__(self, "sin_coeffs", _frozen(sin_c))

    __setstate__ = _refreeze

    @property
    def depth(self) -> int:
        return self.cos_coeffs.size

    def energy(self) -> float:
        """Sum of squared coefficients (twice the mean-square of the function)."""
        return _sum_squares(self.cos_coeffs) + _sum_squares(self.sin_coeffs)


@dataclass(frozen=True, eq=False)
class BasisPair:
    """Two basis members S and R whose dilations span the analysis space, and a label string."""

    S: BasisFunction
    R: BasisFunction
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.S, BasisFunction) or not isinstance(self.R, BasisFunction):
            raise ConfigurationError("both members of a pair must be BasisFunction values")
        if not isinstance(self.label, str):
            raise ConfigurationError(f"a basis label must be a string, got {type(self.label).__name__}")


@dataclass(frozen=True, eq=False)
class BasisSchedule:
    """Assignment of basis pairs to frequency ranges.

    ``segments`` is an ordered sequence of (start_k, pair); segment i is active
    for harmonics start_k_i <= k < start_k_{i+1}. The first segment must start
    at k = 1 so lookup is total.
    """

    segments: tuple

    def __post_init__(self):
        try:
            segments = [(start, pair) for start, pair in self.segments]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("schedule segments must be (start_k, pair) pairs") from exc
        cleaned = []
        for start, pair in segments:
            start = _integer(start, "start_k", 1, math.inf)  # a start past int64 is never active
            if not isinstance(pair, BasisPair):
                raise ConfigurationError("schedule segments must hold BasisPair values")
            cleaned.append((start, pair))
        if not cleaned:
            raise ConfigurationError("a schedule needs at least one segment")
        if cleaned[0][0] != 1:
            raise ConfigurationError("the first schedule segment must start at k = 1")
        starts = [s for s, _ in cleaned]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError("schedule start_k values must be strictly increasing")
        object.__setattr__(self, "segments", tuple(cleaned))

    def pair_for(self, k: int) -> BasisPair:
        """The pair active at harmonic k, 1 <= k < 2**63 - 1."""
        k = _integer(k, "harmonic index", 1, _INT64_MAX - 1)
        return self.segments[_active(_layout(self)[0], k)][1]


@dataclass(frozen=True)
class FrameBounds:
    """Smallest and largest eigenvalues of the dilated family's Gram matrix, exact up to roundoff."""

    lower: float
    upper: float
    order: int

    def __post_init__(self):
        lower, upper = _number(self.lower, "lower"), _number(self.upper, "upper")
        if not (0.0 <= lower <= upper):
            raise ConfigurationError(f"need 0 <= lower <= upper, got ({lower}, {upper})")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "order", _integer(self.order, "order", 1))


@dataclass(frozen=True)
class IndependenceReport:
    """Verdict of the first-coefficient independence check.

    ``products`` holds (s1*r'1, s'1*r1), the paper's diagnostic; ``margin`` is
    how far the absolute determinant |s1*r'1 - s'1*r1| clears eps times the
    fundamentals' energy (positive passes).
    """

    passed: bool
    products: tuple
    margin: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict of the fundamental-dominance requisite.

    ``eigenvalues`` is (smallest, largest) of the 2x2 form Q; ``form`` is Q
    itself, row-major. The check passes iff the smallest eigenvalue is
    positive beyond tolerance.
    """

    passed: bool
    eigenvalues: tuple
    form: tuple

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class OrthogonalityReport:
    """Orthogonality of a pair along the two axes of the dilated family."""

    horizontal: bool
    vertical: bool
    max_horizontal: float
    max_vertical: float
    k_max: int

    @property
    def horizontal_label(self) -> str:
        return "orthogonal" if self.horizontal else "non_orthogonal"

    @property
    def vertical_label(self) -> str:
        return "orthogonal" if self.vertical else "non_orthogonal"


# --- closed-form series ------------------------------------------------------
#
# A series maps the harmonics q = 1..Q (a float array) to a waveform's cosine
# and sine coefficients in its canonical phase. Every builtin waveform but the
# cosine is odd there, so its series is a sine series. Phases are in turns;
# shifting an odd waveform by 0.25 gives its even (cosine-phase) counterpart.


def _cosine_series(q: np.ndarray) -> tuple:
    """cos(2 pi x)."""
    return (q == 1.0).astype(float), np.zeros(q.size)


def _sine_series(q: np.ndarray) -> tuple:
    """sin(2 pi x)."""
    return np.zeros(q.size), (q == 1.0).astype(float)


def _sawtooth_series(q: np.ndarray) -> tuple:
    """1 - 2x on (0, 1): sine coefficients 2/(pi q)."""
    return np.zeros(q.size), 2.0 / (np.pi * q)


def _square_series(q: np.ndarray, rise: float = 0.0) -> tuple:
    """The odd square wave, sine coefficients 4/(pi q) at odd q.

    A rise > 0 averages the square over a window of 2*rise turns, turning each
    jump into a ramp and multiplying harmonic q by sinc(2 q rise): rise 1/4
    gives the triangle, 1/8 the trapezoid.
    """
    sines = np.where(q % 2 == 1, 4.0 / (np.pi * q), 0.0)
    if rise:
        sines *= _sin_turns(q * rise) / (2.0 * np.pi * q * rise)
    return np.zeros(q.size), sines


def _cos_turns(t: np.ndarray) -> np.ndarray:
    """cos(2 pi t) elementwise, with exact values at quarter turns."""
    t = np.mod(t, 1.0)
    quarters = 4.0 * t
    exact = quarters == np.floor(quarters)
    quarter_cos = np.array([1.0, 0.0, -1.0, 0.0])[quarters.astype(int) % 4]
    return np.where(exact, quarter_cos, np.cos(2.0 * np.pi * t))


def _sin_turns(t: np.ndarray) -> np.ndarray:
    """cos a quarter turn back; t is reduced first, so the shift rounds by at most ulp(1)."""
    return _cos_turns(np.mod(t, 1.0) - 0.25)


def _project(evaluator: Callable[[float], float], q: np.ndarray) -> tuple:
    """A custom waveform's series, projected from samples on a grid past q's band."""
    n = _PROJECTION_SAMPLES
    while _band(n) < q.size:
        n *= 2
    spec = analyze_fourier(sample_closed_form(evaluator, n), q.size)
    return spec.b, spec.a


def _shifted(series: Callable, phase: float, depth: int) -> BasisFunction:
    """series(x + phase): harmonic q's (cos, sin) pair turned by 2 pi q (phase mod 1)."""
    q = np.arange(1.0, depth + 1)
    cos_c, sin_c = series(q)
    turns = q * (phase % 1.0)
    c, s = _cos_turns(turns), _sin_turns(turns)
    return BasisFunction(cos_c * c + sin_c * s, sin_c * c - cos_c * s)


# kind -> (S series, default S phase, R series, default R phase); the
# defaults pick the even/odd combination that keeps the first-coefficient
# check solvable
_BUILTIN_SERIES = {
    "sine_cosine": (_cosine_series, 0.0, _sine_series, 0.0),
    "square": (_square_series, 0.25, _sine_series, 0.0),
    "sawtooth": (_sawtooth_series, 0.0, _sine_series, 0.25),
    "triangle": (partial(_square_series, rise=0.25), 0.0, _sine_series, 0.25),
    "trapezoid": (partial(_square_series, rise=0.125), 0.0, _sine_series, 0.25),
    "square_saw": (_square_series, 0.25, _sawtooth_series, 0.0),
}

BUILTIN_KINDS = tuple(_BUILTIN_SERIES) + ("custom",)


def builtin_basis(
    kind: str,
    phase_s: float | None = None,
    phase_r: float | None = None,
    depth: int = DEFAULT_DEPTH,
    *,
    s_eval: Callable[[float], float] | None = None,
    r_eval: Callable[[float], float] | None = None,
    label: str | None = None,
) -> BasisPair:
    """Construct one of the built-in basis pairs.

    Parameters
    ----------
    kind : str
        One of ``sine_cosine``, ``square``, ``sawtooth``, ``triangle``,
        ``trapezoid``, ``square_saw``, ``custom``.
    phase_s, phase_r : float, optional
        Finite phase shifts in turns applied to each member, given as
        numbers: a string or a bool is refused. ``None`` selects
        the kind's default. For ``sine_cosine`` the canonical members are
        cos(2 pi x) and sin(2 pi x) with default shifts 0; all other kinds
        shift canonical sine-phase waveforms, and their defaults pick a
        combination that passes the independence check.
    depth : int
        Harmonic depth Q of each member, 1 <= Q <= ``MAX_DEPTH``.
    s_eval, r_eval : callable, optional
        Closed-form evaluators on [0, 1), required for ``kind="custom"``.
    label : str, optional
        Pair label, a string; defaults to the kind name.

    Returns
    -------
    BasisPair
        Every builtin kind is its exact Fourier series, each harmonic turned
        by its phase, with exact coefficients at quarter-turn phases. Only
        ``custom`` members are projected numerically from samples.
    """
    depth = _integer(depth, "depth", 1, MAX_DEPTH)
    if not isinstance(kind, str):
        raise ConfigurationError(f"a basis kind must be a string, got {type(kind).__name__}")
    if kind == "custom":
        if s_eval is None or r_eval is None:
            raise ConfigurationError("custom basis requires s_eval and r_eval callables")
        layout = (partial(_project, s_eval), 0.0, partial(_project, r_eval), 0.0)
    elif kind in _BUILTIN_SERIES:
        layout = _BUILTIN_SERIES[kind]
    else:
        raise ConfigurationError(f"unknown basis kind {kind!r}")
    series_s, base_ps, series_r, base_pr = layout
    ps = base_ps if phase_s is None else _real(phase_s, "phase_s")
    pr = base_pr if phase_r is None else _real(phase_r, "phase_r")
    return BasisPair(
        _shifted(series_s, ps, depth),
        _shifted(series_r, pr, depth),
        kind if label is None else label,
    )


def dilate(member: BasisFunction, k: int, band_cap: int) -> FourierSpectrum:
    """Spectrum of member(k x): coefficient q lands at harmonic q*k.

    Harmonics above ``band_cap`` are truncated, never folded back; truncation
    is the caller's aliasing guard.
    """
    k = _integer(k, "dilation index", 1)
    band_cap = _integer(band_cap, "band cap", 0)
    length = min(_typed(member, BasisFunction).depth * k, band_cap)
    a = np.zeros(length)
    b = np.zeros(length)
    if length >= k:
        count = length // k
        a[k - 1 :: k] = member.sin_coeffs[:count]
        b[k - 1 :: k] = member.cos_coeffs[:count]
    return FourierSpectrum(0.0, a, b)


def _segments(basis) -> tuple:
    """(start_k, pair) runs of a pair or a schedule; anything else is a ``ConfigurationError``.

    The one place that tells the two apart. Callers run it before a memoized
    builder hashes the basis, so an unhashable argument is refused the same way.
    """
    if isinstance(basis, BasisSchedule):
        return basis.segments
    if isinstance(basis, BasisPair):
        return ((1, basis),)
    raise ConfigurationError(f"basis must be a BasisPair or BasisSchedule, got {type(basis).__name__}")


def _pair(basis) -> BasisPair:
    """basis if it is a pair, the one basis whose first segment is itself; else a ConfigurationError."""
    if _segments(basis)[0][1] is not basis:
        raise ConfigurationError("a basis pair is required, not a schedule")
    return basis


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _layout(basis) -> tuple:
    """(starts, table, factor): every segment's first k, its members' coefficients, and their 2x2 R.

    ``table[i, x, c, q - 1]`` holds coefficient q of segment i's member x
    (0 for S, 1 for R), cosine (c = 0) or sine (c = 1), zero-padded to the
    basis's largest depth, so each member's cosine and sine series are
    contiguous rows. ``factor[i]`` is R of the QR factorization of segment
    i's undilated Phi, the (2Q, 2) columns [S R], so ||factor[i] @ [A; B]||
    is the norm of A S + B R. A pair is one segment starting at k = 1.
    Starts are clipped to the int64 maximum, above every order and every k
    ``pair_for`` takes. Built once per basis, like ``decompose``'s plan
    parts, and read-only.
    """
    segments = _segments(basis)
    depth = max(max(pair.S.depth, pair.R.depth) for _, pair in segments)
    table = np.zeros((len(segments), 2, 2, depth))
    for i, (_, pair) in enumerate(segments):
        for x, member in enumerate((pair.S, pair.R)):
            table[i, x, 0, : member.depth] = member.cos_coeffs
            table[i, x, 1, : member.depth] = member.sin_coeffs
    starts = np.array([min(start, _INT64_MAX) for start, _ in segments])
    factor = np.linalg.qr(table.reshape(len(segments), 2, -1).transpose(0, 2, 1), mode="r")
    return _frozen(starts), _frozen(table), _frozen(factor)


def _active(starts: np.ndarray, k):
    """Each harmonic k's segment, the last whose ``_layout`` start is at most k; no other code maps k to one."""
    return np.searchsorted(starts, k, side="right") - 1


def _synthesis_entries(basis, order: int, cap: int) -> tuple:
    """Phi's nonzero entries as (rows, cols, vals), ordered member, cos/sin, k, q.

    Rows are the floats of ``signals``' spectrum layout: cos h at row 2h and
    sin h at row 2h+1 with the coefficient negated, the rfft's sign; rows 0
    and 1, the mean's, hold nothing. Columns are (S,1)..(S,N), (R,1)..(R,N).
    Column (S,k) holds S's coefficient q at harmonic q*k, so Phi @ [A; B] is
    the spectrum of sum_k A_k S(kx) + B_k R(kx), and (1/2) Phi^T Phi is the
    Gram matrix of the family. For a schedule, column k comes from the pair
    active at k, all in one gather. Harmonics above ``cap`` are dropped.
    No (row, col) pair repeats: member (S,k) reaches each harmonic q*k once.
    A member's zero coefficients give no entries (a square wave's cosine
    series has only zeros, and ``_layout`` pads with zeros), so every sum
    over the entries skips them.
    """
    starts, table, _ = _layout(basis)
    k = np.arange(1, order + 1)
    count = np.minimum(table.shape[-1], cap // k)  # q*k <= cap holds for q = 1..count
    q = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)  # q - 1
    h = np.repeat(k, count) * (q + 1)
    x = np.arange(2)[:, None]  # 0 for S, 1 for R; and 0 for cos, 1 for sin
    rows, cols = 2 * h + x, x[..., None] * order + np.repeat(k - 1, count)
    vals = table.transpose(1, 2, 0, 3)[:, :, np.repeat(_active(starts, k), count), q]
    np.negative(vals[:, 1], out=vals[:, 1])
    nonzero = vals != 0
    return tuple(np.broadcast_to(part, vals.shape)[nonzero] for part in (rows, cols, vals))


def _gram_entries(basis, order: int) -> tuple:
    """The nonzero entries (rows, cols, vals) of (1/2) Phi^T Phi, no dilation truncated.

    Members (X,k) and (Y,m) share the harmonics t*lcm(k, m). With
    g = gcd(k, m), a = m/g and b = k/g these are X's coefficient t*a and Y's
    t*b, so the entry is (1/2) sum_t X.cos[t*a] Y.cos[t*b] + X.sin[t*a] Y.sin[t*b]:
    it depends only on the coprime pair (a, b), and vanishes unless
    a <= depth(X) and b <= depth(Y). One matmul tabulates it over a, b <=
    min(depth, order) for every two members of every segment; each coprime
    (a, b) then fills the cells (k, m) = (g*b, g*a), g <= order / max(a, b).
    """
    _segments(basis)  # refuses a non-basis before the memoized layout hashes it
    starts, layout, _ = _layout(basis)
    depth = layout.shape[-1]
    span = min(depth, order)
    # series[p, a-1] holds member p's coefficients t*a, t = 1..depth, cos then sin;
    # segment i's S and R are members 2i and 2i + 1
    harmonic = np.arange(1, span + 1)[:, None] * np.arange(1, depth + 1)
    inside = harmonic <= depth
    members = layout.reshape(-1, 2, depth)
    series = np.zeros((len(members), span, 2, depth))
    series.transpose(0, 2, 1, 3)[:, :, inside] = members[:, :, harmonic[inside] - 1]
    flat = series.reshape(-1, 2 * depth)
    table = 0.5 * (flat @ flat.T)  # rows (member p, a - 1), columns (member p', b - 1)

    # the coprime (a, b): clear the pairs that share a prime p, sieving p on the way
    coprime = np.ones((span, span), dtype=bool)
    composite = np.zeros(span + 1, dtype=bool)
    for p in range(2, span + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            coprime[p - 1 :: p, p - 1 :: p] = False
    a, b = np.nonzero(coprime)
    a, b = a + 1, b + 1
    count = order // np.maximum(a, b)
    g = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
    a, b = np.repeat(a, count), np.repeat(b, count)
    k, m = g * b, g * a
    member_k, member_m = 2 * _active(starts, k), 2 * _active(starts, m)
    x = np.arange(2)[:, None, None]  # 0 for S, 1 for R
    y = x.transpose(1, 0, 2)
    rows, cols = x * order + k - 1, y * order + m - 1
    width = len(members) * span
    cell = (member_k * span + a - 1) * width + member_m * span + b - 1
    vals = np.take(table, cell + (x * width + y) * span)
    nonzero = vals != 0
    return tuple(np.broadcast_to(part, vals.shape)[nonzero] for part in (rows, cols, vals))


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's connected component in the graph of edges (rows, cols), labelled by its least row.

    Min-label propagation with pointer jumping: every row takes the least
    label among its neighbours, in either direction, and hands it on to the
    row its own label names; then labels follow labels until they stop
    moving. A label is always a row of the same component, never larger
    than the row it labels, and the rounds end when no edge joins two labels.
    """
    ends, other_ends = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    labels = np.arange(size)
    while True:
        low = labels.copy()
        np.minimum.at(low, ends, labels[other_ends])
        np.minimum.at(low, labels[ends], labels[other_ends])
        while not np.array_equal(low, jumped := low[low]):
            low = jumped
        if np.array_equal(low, labels):
            return labels
        labels = low


def _gram_blocks(size: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> tuple:
    """The diagonal blocks of the size x size matrix with nonzero entries (rows, cols, vals).

    Up to a permutation of rows and columns the matrix is block diagonal,
    its blocks the connected components of the entries, so no entry lies
    outside them. Per block size s, from the smallest: the rows of its b
    blocks as a (b, s) index array, each block's rows ascending and the
    blocks in the order of their first row, and the blocks themselves as one
    (b, s, s) stack, all read-only.
    """
    labels = _components(size, rows, cols)
    row_sizes = np.bincount(labels)[labels]  # each row's block size
    # rows by block size, then by block, each block's rows ascending
    members = np.lexsort((labels, row_sizes))
    place = np.empty(size, dtype=np.intp)  # each row's place in members
    place[members] = np.arange(size)
    # the stacks of all sizes, one after another in one flat array
    row_counts = np.bincount(row_sizes, minlength=size + 1)  # rows in blocks of each size
    stack_sizes = row_counts * np.arange(size + 1)
    first_row = np.cumsum(row_counts) - row_counts
    first_value = np.cumsum(stack_sizes) - stack_sizes
    size_at = row_sizes[rows]  # each entry's block size
    first_at = first_row[size_at]
    stacks = np.zeros(stack_sizes.sum())
    stacks[first_value[size_at] + (place[rows] - first_at) * size_at + (place[cols] - first_at) % size_at] = vals
    members, stacks = _frozen(members), _frozen(stacks)
    groups = []
    for s in np.flatnonzero(row_counts).tolist():
        lo, count, at = first_row[s], row_counts[s], first_value[s]
        groups.append((members[lo : lo + count].reshape(-1, s), stacks[at : at + count * s].reshape(-1, s, s)))
    return tuple(groups)


def check_independence(pair: BasisPair, eps: float = EPS_INDEPENDENCE) -> IndependenceReport:
    """Decide whether the pair's first-harmonic 2x2 system is safely solvable.

    Passes iff the determinant |s1*r'1 - s'1*r1| exceeds eps times the
    fundamentals' energy s1^2 + s'1^2 + r1^2 + r'1^2, the test every analysis
    applies before it runs. The verdict does not change when both members are
    scaled by one factor; a member much smaller than the other makes the
    system ill-conditioned and fails. eps must be finite and >= 0, and a
    schedule is refused: check each of its pairs instead.
    """
    _pair(pair)
    eps = _tolerance(eps, "eps")
    s1 = float(pair.S.cos_coeffs[0])
    sp1 = float(pair.S.sin_coeffs[0])
    r1 = float(pair.R.cos_coeffs[0])
    rp1 = float(pair.R.sin_coeffs[0])
    p_main = s1 * rp1
    p_cross = sp1 * r1
    det = abs(p_main - p_cross)
    threshold = eps * (s1 * s1 + sp1 * sp1 + r1 * r1 + rp1 * rp1)
    return IndependenceReport(det > threshold, (p_main, p_cross), det - threshold)


def check_convergence(pair: BasisPair, eps: float = EPS_CONVERGENCE) -> ConvergenceReport:
    """Decide the fundamental-dominance requisite for the pair.

    For any combination g = A*S + B*R, the energy of g at the fundamental must
    exceed its energy at all higher harmonics combined. Quantified over all
    (A, B) != 0 this is positive definiteness of

        Q = G_1 - sum_{i >= 2} G_i = 2 M_1^T M_1 - Phi^T Phi,

    with Phi the undilated pair's synthesis operator, M_1 its two fundamental
    rows and G_i = M_i^T M_i the 2x2 block of harmonic i. Summing Phi^T Phi
    block by block keeps a cross term that cancels within every harmonic
    exactly zero. Passes iff Q's smallest eigenvalue exceeds eps, which must
    be finite and >= 0. A schedule is refused: check each of its pairs instead.
    """
    _pair(pair)
    eps = _tolerance(eps, "eps")
    cos_sin = np.ascontiguousarray(_layout(pair)[1][0].transpose(1, 2, 0))  # (cos/sin, q - 1, S/R)
    blocks = np.einsum("thi,thj->hij", cos_sin, cos_sin)
    form = 2.0 * blocks[0] - blocks.sum(axis=0)
    q00, q01, q11 = float(form[0, 0]), float(form[0, 1]), float(form[1, 1])
    half_gap = 0.5 * (q00 - q11)
    radius = math.hypot(half_gap, q01)
    center = 0.5 * (q00 + q11)
    lo = center - radius
    hi = center + radius
    return ConvergenceReport(lo > eps, (lo, hi), ((q00, q01), (q01, q11)))


def classify_orthogonality(
    basis: BasisPair | BasisSchedule, k_max: int, tol: float = ORTHOGONALITY_TOL
) -> OrthogonalityReport:
    """Classify the dilated family of a pair or schedule along both orthogonality axes.

    Horizontal: <S(kx), R(kx)> = 0 at every common index k <= k_max.
    Vertical: every inner product between members at distinct indices
    k != m <= k_max vanishes. Under a schedule member k is the one of the
    pair active at k. Both maxima are read straight off the entries of
    (1/2) Phi^T Phi with no dilation truncated, so the verdicts are exact
    up to roundoff; a maximum at most tol, finite and >= 0, is orthogonal.
    """
    k_max = _integer(k_max, "k_max", 1)
    tol = _tolerance(tol, "tol")
    rows, cols, vals = _gram_entries(basis, k_max)
    same_k = rows % k_max == cols % k_max
    magnitude = np.abs(vals)
    max_horizontal = float(np.max(magnitude[same_k & (rows != cols)], initial=0.0))
    max_vertical = float(np.max(magnitude[~same_k], initial=0.0))
    return OrthogonalityReport(
        horizontal=max_horizontal <= tol,
        vertical=max_vertical <= tol,
        max_horizontal=max_horizontal,
        max_vertical=max_vertical,
        k_max=k_max,
    )


def frame_bounds(basis: BasisPair | BasisSchedule, order: int) -> FrameBounds:
    """The frame bounds of {S(kx), R(kx)}_{k <= order}: the Gram matrix's extreme eigenvalues.

    S and R are a pair's, or under a schedule those of the pair active at k.
    The 2N x 2N Gram matrix (1/2) Phi^T Phi is taken un-pruned with no
    dilation truncated. It is block diagonal up to a permutation, and every
    eigenvalue of a block-diagonal matrix is an eigenvalue of one of its
    blocks, so one batched ``np.linalg.eigvalsh`` per block size over
    ``_gram_blocks`` gives the exact extremes. A numerically singular family
    reports lower = 0.
    """
    order = _integer(order, "order", 1)
    groups = _gram_blocks(2 * order, *_gram_entries(basis, order))
    eigs = [np.linalg.eigvalsh(blocks) for _, blocks in groups]
    lower = min(float(each[:, 0].min()) for each in eigs)
    upper = max(float(each[:, -1].max()) for each in eigs)
    return FrameBounds(max(0.0, lower), upper, order)


# --- JSON interchange --------------------------------------------------------


def pair_to_dict(pair: BasisPair) -> dict:
    _pair(pair)
    return {
        "label": pair.label,
        "S": {
            "cos": [float(v) for v in pair.S.cos_coeffs],
            "sin": [float(v) for v in pair.S.sin_coeffs],
        },
        "R": {
            "cos": [float(v) for v in pair.R.cos_coeffs],
            "sin": [float(v) for v in pair.R.sin_coeffs],
        },
    }


def pair_from_dict(data) -> BasisPair:
    try:
        label = data.get("label", "")
        series = [data[member][part] for member in ("S", "R") for part in ("cos", "sin")]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed basis data: {exc}") from exc
    return BasisPair(BasisFunction(*series[:2]), BasisFunction(*series[2:]), label)


def _segment_pair_from_dict(entry) -> BasisPair:
    if "builtin" in entry:
        return builtin_basis(
            str(entry["builtin"]),
            entry.get("phase_s"),
            entry.get("phase_r"),
            entry.get("depth", DEFAULT_DEPTH),
        )
    return pair_from_dict(entry)


def schedule_to_dict(schedule: BasisSchedule) -> dict:
    return {
        "segments": [
            {"start_k": start, "basis": pair_to_dict(pair)}
            for start, pair in _segments(schedule)
        ]
    }


def schedule_from_dict(data) -> BasisSchedule:
    try:
        return BasisSchedule(tuple(
            (item["start_k"], _segment_pair_from_dict(item["basis"]))
            for item in data["segments"]
        ))
    except ConfigurationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed schedule data: {exc}") from exc


def _basis_to_dict(basis) -> dict:
    """A pair's or a schedule's dict."""
    return schedule_to_dict(basis) if isinstance(basis, BasisSchedule) else pair_to_dict(basis)


def _basis_from_dict(data):
    """The schedule that a dict with ``segments`` holds, else the pair."""
    is_schedule = isinstance(data, dict) and "segments" in data
    return (schedule_from_dict if is_schedule else pair_from_dict)(data)


def save_basis(basis, path) -> None:
    """Write a pair or a schedule as JSON."""
    write_json(_basis_to_dict(basis), path)


def load_basis(path):
    """The pair or schedule in a JSON file; an object with ``segments`` is a schedule."""
    return _basis_from_dict(read_json(path))
