"""Basis pairs on [0, 1): construction, the synthesis operator, validity checks, schedules.

A basis pair holds two zero-mean periodic members S and R as truncated Fourier
coefficient sequences (depth Q). Dilating a member by k moves coefficient q to
harmonic q*k. ``_synthesis_entries`` writes that index arithmetic down once, as
the (rows, cols, vals) entries of the sparse matrix Phi of the dilated family;
the numpy paths (reconstruction, the indirect solve, spectra) use the entries
as they are. ``synthesis_operator`` is their scipy CSR view, which the Gram
checks below and the direct method use; scipy is imported on its first call.
The inner products behind the checks are linear algebra on Phi, with no
sample-domain quadrature.

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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError
from .files import read_json, write_json
from .signals import FourierSpectrum, analyze_fourier, sample_closed_form

if TYPE_CHECKING:
    from scipy import sparse

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
    "synthesis_operator",
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
    "save_schedule",
    "load_schedule",
]

EPS_INDEPENDENCE = 1e-9
EPS_CONVERGENCE = 1e-12
ORTHOGONALITY_TOL = 1e-10
DEFAULT_DEPTH = 64
# builtin members are sampled by one Python call per point on a grid of more
# than 2 * depth points: this bound keeps a projection under a second, where a
# schedule file's depth could otherwise make it run for days
MAX_DEPTH = 1 << 16

_PROJECTION_SAMPLES = 4096
_TRAPEZOID_RISE = 0.125


@dataclass(frozen=True, eq=False)
class BasisFunction:
    """A zero-mean periodic function as cosine/sine coefficients at q = 1..Q.

    ``cos_coeffs[q-1]`` and ``sin_coeffs[q-1]`` are the coefficients of
    cos(2 pi q x) and sin(2 pi q x). There is no DC slot by construction.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        cos_c = np.array(self.cos_coeffs, dtype=float, copy=True)
        sin_c = np.array(self.sin_coeffs, dtype=float, copy=True)
        if cos_c.ndim != 1 or sin_c.ndim != 1 or cos_c.size != sin_c.size:
            raise ConfigurationError("coefficient arrays must be 1-d and of equal length")
        if cos_c.size < 1:
            raise ConfigurationError("a basis function needs at least one harmonic")
        energy = float(cos_c @ cos_c + sin_c @ sin_c)
        if not math.isfinite(energy) or energy <= 0.0:
            raise ConfigurationError("basis function energy must be finite and positive")
        cos_c.setflags(write=False)
        sin_c.setflags(write=False)
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

    @property
    def depth(self) -> int:
        return self.cos_coeffs.size

    def energy(self) -> float:
        """Sum of squared coefficients (twice the mean-square of the function)."""
        return float(self.cos_coeffs @ self.cos_coeffs + self.sin_coeffs @ self.sin_coeffs)


@dataclass(frozen=True, eq=False)
class BasisPair:
    """Two basis members S and R whose dilations span the analysis space."""

    S: BasisFunction
    R: BasisFunction
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.S, BasisFunction) or not isinstance(self.R, BasisFunction):
            raise ConfigurationError("both members of a pair must be BasisFunction values")


@dataclass(frozen=True, eq=False)
class BasisSchedule:
    """Assignment of basis pairs to frequency ranges.

    ``segments`` is an ordered sequence of (start_k, pair); segment i is active
    for harmonics start_k_i <= k < start_k_{i+1}. The first segment must start
    at k = 1 so lookup is total.
    """

    segments: tuple

    def __post_init__(self):
        cleaned = []
        for item in self.segments:
            start, pair = item
            start = int(start)
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
        """The pair active at harmonic k (k >= 1)."""
        if k < 1:
            raise ValueError(f"harmonic index must be >= 1, got {k}")
        active = self.segments[0][1]
        for start, pair in self.segments:
            if start > k:
                break
            active = pair
        return active


@dataclass(frozen=True)
class FrameBounds:
    """Smallest/largest eigenvalue estimates of the dilated family's Gram matrix."""

    lower: float
    upper: float
    order: int

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"need 0 <= lower <= upper, got ({self.lower}, {self.upper})")


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


# --- closed-form waveforms ---------------------------------------------------
#
# All generators are odd (zero-mean) in their canonical phase and return the
# jump midpoint (0) at discontinuities. Phases are in turns; shifting by 0.25
# turns an odd waveform into its even (cosine-phase) counterpart.


def _sinusoid(u: float) -> float:
    return math.sin(2.0 * math.pi * u)


def _square(u: float) -> float:
    if u == 0.0 or u == 0.5:
        return 0.0
    return 1.0 if u < 0.5 else -1.0


def _sawtooth(u: float) -> float:
    return 0.0 if u == 0.0 else 1.0 - 2.0 * u


def _triangle(u: float) -> float:
    if u < 0.25:
        return 4.0 * u
    if u < 0.75:
        return 2.0 - 4.0 * u
    return 4.0 * u - 4.0


def _trapezoid(u: float) -> float:
    rho = _TRAPEZOID_RISE
    if u < rho:
        return u / rho
    if u < 0.5 - rho:
        return 1.0
    if u < 0.5 + rho:
        return (0.5 - u) / rho
    if u < 1.0 - rho:
        return -1.0
    return (u - 1.0) / rho


_QUARTER_COS = {0.0: 1.0, 0.25: 0.0, 0.5: -1.0, 0.75: 0.0}


def _cos_turns(t: float) -> float:
    """cos(2 pi t) with exact values at quarter turns."""
    t = t % 1.0
    exact = _QUARTER_COS.get(t)
    return math.cos(2.0 * math.pi * t) if exact is None else exact


def _sin_turns(t: float) -> float:
    return _cos_turns(t - 0.25)


# kind -> (S generator, default S phase, R generator, default R phase);
# generators are canonical sine-phase, so the defaults below pick the
# even/odd combination that keeps the first-coefficient check solvable
_BUILTIN_LAYOUTS = {
    "square": (_square, 0.25, _sinusoid, 0.0),
    "sawtooth": (_sawtooth, 0.0, _sinusoid, 0.25),
    "triangle": (_triangle, 0.0, _sinusoid, 0.25),
    "trapezoid": (_trapezoid, 0.0, _sinusoid, 0.25),
    "square_saw": (_square, 0.25, _sawtooth, 0.0),
}

BUILTIN_KINDS = ("sine_cosine",) + tuple(_BUILTIN_LAYOUTS) + ("custom",)


def _project(gen: Callable[[float], float], phase: float, depth: int) -> BasisFunction:
    """Project the phase-shifted waveform onto harmonics 1..depth.

    Resolution grows automatically when depth pushes past the default grid's
    Nyquist band. Any DC content is discarded: members are zero-mean by type.
    """
    n = _PROJECTION_SAMPLES
    while n // 2 - 1 < depth:
        n *= 2
    signal = sample_closed_form(lambda x: gen((x + phase) % 1.0), n)
    spec = analyze_fourier(signal, depth)
    return BasisFunction(spec.b, spec.a)


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
        Phase shifts in turns applied to each member. ``None`` selects the
        kind's default. For ``sine_cosine`` the canonical members are already
        cos(2 pi x) and sin(2 pi x) with default shifts 0; all other kinds
        shift canonical sine-phase waveforms, and their defaults pick a
        combination that passes the independence check.
    depth : int
        Harmonic depth Q of each member, 1 <= Q <= ``MAX_DEPTH``.
    s_eval, r_eval : callable, optional
        Closed-form evaluators on [0, 1), required for ``kind="custom"``.
    label : str, optional
        Pair label; defaults to the kind name.

    Returns
    -------
    BasisPair
        ``sine_cosine`` is built analytically (exact coefficients, including
        at quarter-turn phases); every other kind is projected numerically at
        high resolution.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ConfigurationError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    if kind == "sine_cosine":
        ps = 0.0 if phase_s is None else float(phase_s)
        pr = 0.0 if phase_r is None else float(phase_r)
        s_cos = np.zeros(depth)
        s_sin = np.zeros(depth)
        r_cos = np.zeros(depth)
        r_sin = np.zeros(depth)
        # S(x) = cos(2 pi (x + ps)), R(x) = sin(2 pi (x + pr))
        s_cos[0] = _cos_turns(ps)
        s_sin[0] = -_sin_turns(ps)
        r_cos[0] = _sin_turns(pr)
        r_sin[0] = _cos_turns(pr)
        pair_label = "sine_cosine" if label is None else label
        return BasisPair(BasisFunction(s_cos, s_sin), BasisFunction(r_cos, r_sin), pair_label)
    if kind == "custom":
        if s_eval is None or r_eval is None:
            raise ConfigurationError("custom basis requires s_eval and r_eval callables")
        gen_s, base_ps, gen_r, base_pr = s_eval, 0.0, r_eval, 0.0
    elif kind in _BUILTIN_LAYOUTS:
        gen_s, base_ps, gen_r, base_pr = _BUILTIN_LAYOUTS[kind]
    else:
        raise ConfigurationError(f"unknown basis kind {kind!r}")
    ps = base_ps if phase_s is None else float(phase_s)
    pr = base_pr if phase_r is None else float(phase_r)
    return BasisPair(
        _project(gen_s, ps, depth),
        _project(gen_r, pr, depth),
        kind if label is None else label,
    )


def dilate(member: BasisFunction, k: int, band_cap: int) -> FourierSpectrum:
    """Spectrum of member(k x): coefficient q lands at harmonic q*k.

    Harmonics above ``band_cap`` are truncated, never folded back; truncation
    is the caller's aliasing guard.
    """
    if k < 1:
        raise ValueError(f"dilation index must be >= 1, got {k}")
    if band_cap < 0:
        raise ValueError(f"band cap must be >= 0, got {band_cap}")
    length = min(member.depth * k, band_cap)
    a = np.zeros(length)
    b = np.zeros(length)
    if length >= k:
        count = length // k
        a[k - 1 :: k] = member.sin_coeffs[:count]
        b[k - 1 :: k] = member.cos_coeffs[:count]
    return FourierSpectrum(0.0, a, b)


def _segments(basis) -> tuple:
    """(start_k, pair) runs of a pair or a schedule."""
    return basis.segments if isinstance(basis, BasisSchedule) else ((1, basis),)


def _depth(basis) -> int:
    """Largest member depth of a pair or schedule."""
    return max(max(pair.S.depth, pair.R.depth) for _, pair in _segments(basis))


def _segment_runs(basis, order: int) -> list:
    """(first_k, last_k, pair) runs of a pair or schedule, clipped at k = order.

    A run starting beyond the order comes out empty, as (order + 1, order).
    """
    segments = _segments(basis)
    ends = [start - 1 for start, _ in segments[1:]] + [order]
    return [
        (min(start, order + 1), min(end, order), pair)
        for (start, pair), end in zip(segments, ends)
    ]


def _synthesis_entries(basis, order: int, cap: int) -> tuple:
    """Phi's nonzero entries as (rows, cols, vals), ordered segment, member, k, q.

    Row and column layout are those of ``synthesis_operator``. No (row, col)
    pair repeats: member (S,k) reaches each harmonic q*k once.
    """
    if order < 0 or cap < 0:
        raise ValueError(f"order and cap must be >= 0, got {order} and {cap}")
    # 32-bit indices whenever they fit, as scipy would store them anyway: this
    # spares a converted copy of every index array at build time
    index = np.int32 if 2 * max(cap, order) <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = [], [], []
    for start, end, pair in _segment_runs(basis, order):
        k = np.arange(start, end + 1)[:, None]
        for first_col, member in ((0, pair.S), (order, pair.R)):
            harmonic = k * np.arange(1, member.depth + 1)
            keep = harmonic <= cap
            h = (harmonic[keep] - 1).astype(index)
            col = np.broadcast_to((first_col + k - 1).astype(index), harmonic.shape)[keep]
            rows += [h, cap + h]
            cols += [col, col]
            for coeffs in (member.cos_coeffs, member.sin_coeffs):
                vals.append(np.broadcast_to(coeffs, harmonic.shape)[keep])
    return tuple(np.concatenate(parts) for parts in (rows, cols, vals))


def synthesis_operator(basis, order: int, cap: int) -> sparse.csr_matrix:
    """The synthesis operator Phi of the dilated family {S(kx), R(kx)}, k = 1..order.

    Rows are (cos 1..cap, sin 1..cap), columns (S,1)..(S,N), (R,1)..(R,N).
    Column (S,k) holds S's coefficient q at harmonic q*k, so Phi @ [A; B] is
    the spectrum of sum_k A_k S(kx) + B_k R(kx), and (1/2) Phi^T Phi is the
    Gram matrix of the family. For a schedule, column k comes from the pair
    active at k. Harmonics above ``cap`` are dropped, never folded back.
    """
    from scipy import sparse

    rows, cols, vals = _synthesis_entries(basis, order, cap)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * cap, 2 * order))


def _undilated(pair: BasisPair) -> np.ndarray:
    """The pair's Phi at order 1 with no harmonic dropped, as a dense (2Q, 2) array."""
    depth = _depth(pair)
    rows, cols, vals = _synthesis_entries(pair, 1, depth)
    phi = np.zeros((2 * depth, 2))
    phi[rows, cols] = vals
    return phi


def _family_gram(basis, order: int) -> np.ndarray:
    """(1/2) Phi^T Phi of a pair or schedule, with no dilation truncated."""
    phi = synthesis_operator(basis, order, _depth(basis) * order)
    return 0.5 * (phi.T @ phi).toarray()


def check_independence(pair: BasisPair, eps: float = EPS_INDEPENDENCE) -> IndependenceReport:
    """Decide whether the pair's first-harmonic 2x2 system is safely solvable.

    Passes iff the determinant |s1*r'1 - s'1*r1| exceeds eps times the
    fundamentals' energy s1^2 + s'1^2 + r1^2 + r'1^2, the test every analysis
    applies before it runs. The verdict does not change when both members are
    scaled by one factor; a member much smaller than the other makes the
    system ill-conditioned and fails. A NaN eps fails every pair.
    """
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
    exactly zero. Passes iff Q's smallest eigenvalue exceeds eps.
    """
    cos_sin = _undilated(pair).reshape(2, -1, 2)
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
    pair: BasisPair, k_max: int, tol: float = ORTHOGONALITY_TOL
) -> OrthogonalityReport:
    """Classify the pair's dilated family along both orthogonality axes.

    Horizontal: <S(kx), R(kx)> = 0 at every common index k <= k_max.
    Vertical: every inner product between members at distinct indices
    k != m <= k_max vanishes. Both are read off (1/2) Phi^T Phi with no
    dilation truncated, so the verdicts are exact up to roundoff.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    gram = _family_gram(pair, k_max)
    same_k = np.tile(np.eye(k_max, dtype=bool), (2, 2))
    max_horizontal = float(np.max(np.abs(np.diag(gram, k_max))))
    max_vertical = float(np.max(np.abs(gram[~same_k]), initial=0.0))
    return OrthogonalityReport(
        horizontal=max_horizontal <= tol,
        vertical=max_vertical <= tol,
        max_horizontal=max_horizontal,
        max_vertical=max_vertical,
        k_max=k_max,
    )


def frame_bounds(pair: BasisPair, order: int) -> FrameBounds:
    """Estimate frame bounds of {S(kx), R(kx)}_{k <= order} via the Gram matrix.

    The 2N x 2N Gram matrix (1/2) Phi^T Phi, rows ordered (S,1)..(S,N),
    (R,1)..(R,N), is taken un-pruned with no dilation truncated, and its
    extreme eigenvalues are returned. A numerically singular family reports
    lower = 0.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    eigs = np.linalg.eigvalsh(_family_gram(pair, order))
    return FrameBounds(max(0.0, float(eigs[0])), float(eigs[-1]), order)


# --- JSON interchange --------------------------------------------------------


def pair_to_dict(pair: BasisPair) -> dict:
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
        label = str(data.get("label", ""))
        members = {}
        for key in ("S", "R"):
            entry = data[key]
            members[key] = BasisFunction(
                np.asarray(entry["cos"], dtype=float),
                np.asarray(entry["sin"], dtype=float),
            )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed basis data: {exc}") from exc
    return BasisPair(members["S"], members["R"], label)


def _segment_pair_from_dict(entry) -> BasisPair:
    if "builtin" in entry:
        return builtin_basis(
            str(entry["builtin"]),
            entry.get("phase_s"),
            entry.get("phase_r"),
            int(entry.get("depth", DEFAULT_DEPTH)),
        )
    return pair_from_dict(entry)


def schedule_to_dict(schedule: BasisSchedule) -> dict:
    return {
        "segments": [
            {"start_k": start, "basis": pair_to_dict(pair)}
            for start, pair in schedule.segments
        ]
    }


def schedule_from_dict(data) -> BasisSchedule:
    try:
        segments = [
            (int(item["start_k"]), _segment_pair_from_dict(item["basis"]))
            for item in data["segments"]
        ]
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed schedule data: {exc}") from exc
    return BasisSchedule(tuple(segments))


def save_basis(pair: BasisPair, path) -> None:
    write_json(pair_to_dict(pair), path)


def load_basis(path) -> BasisPair:
    return pair_from_dict(read_json(path))


def save_schedule(schedule: BasisSchedule, path) -> None:
    write_json(schedule_to_dict(schedule), path)


def load_schedule(path) -> BasisSchedule:
    return schedule_from_dict(read_json(path))
