"""Signal analysis over basis pairs: direct Gram solve and iterative deflation.

Both methods express a signal as

    f(x) ~ c0 + sum_{k=1..N} A_k S(kx) + B_k R(kx)

and both are linear algebra on the synthesis operator Phi of
``basis.synthesis_operator``: rows are harmonics (cos 1..cap, then sin
1..cap), columns are dilated members ((S,1)..(S,N), then (R,1)..(R,N)), and
column (S,k) holds S's coefficient q at harmonic q*k, from the pair active at
k under a schedule. Everything below reads off Phi:

* ``combined_spectrum`` / ``reconstruct``: Phi @ [A; B], capped at the band,
  summed straight from Phi's entries.
* ``analyze_direct``: the 2N x 2N system G x = (1/2) Phi^T [b; a] with
  G = (1/2) Phi^T Phi, optionally pruned; its coefficients depend on N.
  Members that share no harmonic are orthogonal, so G is block diagonal up
  to a permutation: its blocks are the connected components of the nonzero
  entries ``basis._gram_entries`` lists; blocks of one size share one batched LU.
  ``build_gram_system`` returns the dense system, for inspection only.
* ``analyze_indirect``: Phi's first N harmonic rows.
  Member (S,k) reaches harmonic n = q*k only when k divides n, and a proper
  divisor is at most n/2, so the harmonics of a level [L, 2L) depend only on
  harmonics below L. A level-scheduled forward substitution solves the
  levels 1, 2, 4, ... in turn: each subtracts what the lower levels put into
  its rows, then solves every harmonic's 2x2 fundamental block at once.
  Coefficients never change when N grows, and the residual after order N has
  no content below N+1.

Both methods take a pair or a schedule, since only Phi's columns depend on
which it is.

Everything above but the signal's spectrum depends only on (basis, order),
so it is built once, as the plan of that (basis, order), and reused by every
later call: Phi's entries at the last band cap asked for, the indirect
method's level subsets with their 2x2 blocks and determinants, per pruning
rule the pruned Gram matrix's diagonal blocks and condition number, and each
segment's undilated Phi for ``spectrum.generalized_spectrum``. A call then
does only per-signal work: one rfft, then the level substitution, or the
right-hand side and one ``np.linalg.solve`` per block size, or one bincount
for Phi @ [A; B]. The arithmetic is the one a fresh build would do, so a
reused plan gives bit-for-bit the results of a new one.

Plans are keyed by the basis object's identity, not its values: a rebuilt
equal basis gets a plan of its own, and basis arrays cannot be made
writeable, so a basis never changes under its plan. The cache keeps the
``_PLAN_CACHE_SIZE`` = 8 plans used last and never keeps a basis alive: the
plans of a garbage-collected basis are dropped. A plan at order N with depth
Q holds Phi's entries, up to 16 bytes per (member, k, q <= Q) with q*k within
the cap (0.2 MiB at N = 48, Q = 64 on a 4096-sample grid), and, per pruning
rule the direct method has used, the Gram matrix's diagonal blocks and their
indices (for the depth-64 builtins, at most 25 KiB at N = 48, 0.8 MiB at
N = 400 and 9 MiB at N = 2000).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisPair,
    BasisSchedule,
    EPS_INDEPENDENCE,
    pair_from_dict,
    pair_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    _family_gram,
    _frozen,
    _gram_entries,
    _integer,
    _segment_runs,
    _segments,
    _synthesis_entries,
    _undilated,
    check_independence,
)
from .errors import (
    AnalysisError,
    ConfigurationError,
    DimensionError,
    IllConditionedBasisError,
)
from .files import read_json, write_json
from .signals import (
    FourierSpectrum,
    PeriodicSignal,
    analyze_fourier,
    synthesize_fourier,
)

__all__ = [
    "Decomposition",
    "GramSystem",
    "PRUNING_RULES",
    "CONDITION_WARN_LIMIT",
    "analyze_indirect",
    "analyze_multiband",
    "analyze_direct",
    "build_gram_system",
    "reconstruct",
    "residual",
    "combined_spectrum",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "save_decomposition",
    "load_decomposition",
]

PRUNING_RULES = ("paper", "lcm", "none")
CONDITION_WARN_LIMIT = 1e12
# (basis, order) plans kept, the least recently used dropped first: a workload
# cycling through more bases than this rebuilds a plan on every call, as if
# there were no cache
_PLAN_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of an analysis: mean, per-harmonic amplitudes, and provenance.

    ``coeffs`` holds (k, A_k, B_k) for k = 1..N exactly once each, given as
    any (N, 3) sequence or array and kept as a tuple of tuples (and, for the
    spectrum sums, as a private read-only float array ``_table``). The basis
    field is the pair or schedule the analysis ran with; direct results also
    record the pruning rule and ``condition_estimate``, the exact 1-norm
    condition number ||G||_1 ||G^-1||_1 of the system G they solved, since
    their coefficients are tied to the order and system they came from.
    """

    c0: float
    coeffs: tuple
    basis: object
    method: str
    pruning: str | None = None
    condition_estimate: float | None = None
    warnings: tuple = ()

    def __post_init__(self):
        if self.method not in ("direct", "indirect"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if not isinstance(self.basis, (BasisPair, BasisSchedule)):
            raise ConfigurationError("basis must be a BasisPair or BasisSchedule")
        if self.pruning is not None and self.pruning not in PRUNING_RULES:
            raise ConfigurationError(f"unknown pruning rule {self.pruning!r}")
        if self.condition_estimate is not None and not math.isfinite(self.condition_estimate):
            raise ConfigurationError("condition estimate must be finite")
        table = np.array(self.coeffs, dtype=float)
        if table.shape == (0,):
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ConfigurationError("coefficients must be (k, A_k, B_k) triples")
        order = len(table)
        if not np.array_equal(table[:, 0], np.arange(1, order + 1)):
            raise ConfigurationError("coefficients must cover k = 1..N exactly once, ascending")
        if not (math.isfinite(self.c0) and np.isfinite(table[:, 1:]).all()):
            raise ConfigurationError("decomposition values must all be finite")
        cleaned = tuple(zip(range(1, order + 1), table[:, 1].tolist(), table[:, 2].tolist()))
        warnings = tuple(self.warnings)
        if not all(isinstance(note, str) for note in warnings):
            raise ConfigurationError("warnings must be strings")
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "_table", _frozen(table))  # coeffs as an (N, 3) float array

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def pair_at(self, k: int) -> BasisPair:
        """The basis pair associated with harmonic k."""
        if isinstance(self.basis, BasisSchedule):
            return self.basis.pair_for(k)
        return self.basis


@dataclass(frozen=True, eq=False)
class GramSystem:
    """The (possibly pruned) 2N x 2N system the direct method solves.

    Rows and columns are ordered (S,1)..(S,N), (R,1)..(R,N); entry (i, j) is
    the inner product of the two dilated members, zeroed where ``pruned_mask``
    is True. ``rhs`` holds the projections of the signal on each row's member.
    Read-only inputs of the right dtype are kept as they are
    (``build_gram_system`` hands in frozen arrays); any other input is
    copied, so a caller's array is never frozen.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    pruned_mask: np.ndarray
    order: int
    pruning: str

    def __post_init__(self):
        matrix = _read_only(self.matrix, float)
        rhs = _read_only(self.rhs, float)
        mask = _read_only(self.pruned_mask, bool)
        two_n = 2 * self.order
        if matrix.shape != (two_n, two_n) or mask.shape != matrix.shape or rhs.shape != (two_n,):
            raise DimensionError("gram system shapes do not match the order")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pruned_mask", mask)


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype: kept if it already is one, else a frozen copy."""
    array = np.asarray(values, dtype=dtype)
    return _frozen(array.copy()) if array.flags.writeable else array


class _Plan:
    """What the analyses of one (basis, order) need before they see a signal.

    Each part is built on its first use and kept; every array handed out is
    ``_frozen``. Per pruning rule the direct method keeps the diagonal
    blocks of the pruned Gram matrix G (see ``_gram_blocks``), cut from G's
    entry list without building G, and the condition number read off them.
    A singular G keeps nothing, so it raises on every call.
    """

    def __init__(self, basis, order: int):
        self._basis = weakref.ref(basis)  # the cache must not keep the basis alive
        self.order = order
        self._entries = (None, ())  # (cap, Phi's entries at that cap)
        self._levels = None
        self._systems = {}  # pruning -> (pruned G's diagonal blocks, its condition number)
        self._undilated = None

    @property
    def basis(self):
        return self._basis()

    def entries(self, cap: int) -> tuple:
        """Phi's (rows, cols, vals) at ``cap``; only the last cap asked for is kept."""
        held, entries = self._entries
        if held != cap:
            entries = tuple(map(_frozen, _synthesis_entries(self.basis, self.order, cap)))
            self._entries = (cap, entries)
        return entries

    def levels(self) -> tuple:
        """The indirect method's forward substitution on Phi's first N harmonic rows.

        Per level [L, 2L): its harmonics as a slice, the (rows, cols, vals)
        of the off-diagonal entries that land in its rows, and the adjugate
        entries s1, r1, s'1, r'1 and determinant of each harmonic's 2x2
        diagonal block C_1(n) = [[s1, r1], [s'1, r'1]].
        """
        if self._levels is None:
            order = self.order
            rows, cols, vals = _synthesis_entries(self.basis, order, order)
            harmonic = rows % order + 1
            diagonal = harmonic == cols % order + 1
            c1 = np.zeros((2, 2, order))
            c1[rows[diagonal] // order, cols[diagonal] // order, harmonic[diagonal] - 1] = vals[diagonal]
            (s1, r1), (sp1, rp1) = c1
            blocks = _frozen(np.stack([s1, r1, sp1, rp1, s1 * rp1 - r1 * sp1]))
            levels = []
            for level in range(order.bit_length()):
                lo, hi = 1 << level, min(2 << level, order + 1)
                into = ~diagonal & (lo <= harmonic) & (harmonic < hi)
                n = slice(lo - 1, hi - 1)
                into_entries = tuple(_frozen(part[into]) for part in (rows, cols, vals))
                levels.append((n, *into_entries, *blocks[:, n]))
            self._levels = tuple(levels)
        return self._levels

    def system(self, pruning: str) -> tuple:
        """The pruned G's ``_gram_blocks`` and its exact 1-norm condition number."""
        if pruning not in self._systems:
            rows, cols, vals = _gram_entries(self.basis, self.order)
            kept = _kept(rows % self.order + 1, cols % self.order + 1, self.order, pruning)
            groups = _gram_blocks(2 * self.order, rows[kept], cols[kept], vals[kept])
            groups = tuple(tuple(map(_frozen, group)) for group in groups)
            self._systems[pruning] = (groups, _blockwise_condition(groups))
        return self._systems[pruning]

    def undilated(self) -> tuple:
        """(first_k, last_k, undilated Phi) of each segment run."""
        if self._undilated is None:
            self._undilated = tuple(
                (start, end, _frozen(_undilated(pair)))
                for start, end, pair in _segment_runs(self.basis, self.order)
            )
        return self._undilated


_plans = OrderedDict()  # (weak reference to basis, order) -> _Plan, least recent first
_plans_lock = threading.Lock()


def _plan(basis, order: int) -> _Plan:
    """The plan of (basis, order), built on a miss.

    Bases compare by identity, and a live weak reference compares as its
    object, so the key stands for the basis object without keeping it alive.
    A dead reference equals only itself: its plan is dropped at the next miss.
    """
    key = (weakref.ref(basis), order)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
        for dead in [held for held in _plans if held[0]() is None]:
            del _plans[dead]
        plan = _plans[key] = _Plan(basis, order)
        if len(_plans) > _PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


def _require_solvable(basis, eps: float) -> None:
    """Raise unless every segment passes ``check_independence`` at eps."""
    for start, pair in _segments(basis):
        report = check_independence(pair, eps)
        if not report:
            where = ""
            if isinstance(basis, BasisSchedule):
                where = f" (segment at k={start}, {pair.label or 'unlabeled'})"
            raise IllConditionedBasisError(
                f"basis{where} first-harmonic system is ill-conditioned: "
                f"independence margin {report.margin:.6g}"
            )


def _check_band(f: PeriodicSignal, order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    band = f.n // 2 - 1
    if order > band:
        raise DimensionError(f"order {order} exceeds the representable band {band} at n={f.n}")


def _indirect_coeffs(f: PeriodicSignal, basis, order: int) -> np.ndarray:
    """Forward substitution on Phi's first N harmonic rows; returns [A_1..A_N, B_1..B_N].

    Harmonic n depends on components k | n, k < n, through Phi's entries with
    q = n/k >= 2, and a proper divisor is at most n/2. So the harmonics of
    the level [L, 2L) depend only on those below L: each level subtracts what
    the levels below put into its rows, then solves every 2x2 diagonal block
    C_1(n) = [[s1, r1], [s'1, r'1]] of the pair active at n through its
    adjugate and determinant.
    """
    spec = analyze_fourier(f, order)
    rhs = np.concatenate([spec.b, spec.a])
    x = np.zeros(2 * order)
    for n, rows, cols, vals, s1, r1, sp1, rp1, det in _plan(basis, order).levels():
        rhs -= np.bincount(rows, vals * x[cols], minlength=2 * order)
        c, s = rhs[n], rhs[order:][n]
        x[n] = (rp1 * c - r1 * s) / det
        x[order:][n] = (s1 * s - sp1 * c) / det
    return x


def _decomposition(f: PeriodicSignal, basis, x: np.ndarray, method: str, *provenance):
    """f's mean and x = [A_1..A_N, B_1..B_N] as a result with (k, A_k, B_k) triples."""
    order = len(x) // 2
    coeffs = np.column_stack([np.arange(1, order + 1), x[:order], x[order:]])
    return Decomposition(float(np.mean(f.samples)), coeffs, basis, method, *provenance)


def analyze_indirect(
    f: PeriodicSignal,
    basis: BasisPair | BasisSchedule,
    order: int,
    eps_independence: float = EPS_INDEPENDENCE,
) -> Decomposition:
    """Frequency-by-frequency analysis of f over a basis pair or schedule.

    Walks k = 1..order, at each step matching the signal's (a_k, b_k) after
    subtracting what lower components already contribute at harmonic k via
    their divisors. Under a schedule each correction reads the stored
    (A_k, B_k) against the pair that produced them. The resulting residual has
    zero Fourier content at every harmonic up to the order, and the
    coefficients do not depend on the order.
    """
    _check_band(f, order)
    _require_solvable(basis, eps_independence)
    return _decomposition(f, basis, _indirect_coeffs(f, basis, order), "indirect")


def analyze_multiband(
    f: PeriodicSignal,
    schedule: BasisSchedule,
    order: int,
    eps_independence: float = EPS_INDEPENDENCE,
) -> Decomposition:
    """``analyze_indirect`` over a schedule, the active pair selected per frequency."""
    return analyze_indirect(f, schedule, order, eps_independence)


def _kept(k: np.ndarray, m: np.ndarray, order: int, pruning: str) -> np.ndarray:
    """Whether the pruning rule keeps the Gram entries between dilations k and m, elementwise."""
    if pruning not in PRUNING_RULES:
        raise ConfigurationError(f"unknown pruning rule {pruning!r}")
    if pruning == "none":
        return np.ones(np.broadcast(k, m).shape, dtype=bool)
    if pruning == "paper":
        return (k * m <= order) | (np.maximum(k, m) % np.minimum(k, m) == 0)
    # lcm: prune when the first common harmonic lies beyond the band
    return k // np.gcd(k, m) * m <= order


def _rhs(f: PeriodicSignal, plan: _Plan) -> np.ndarray:
    """(1/2) Phi^T [b; a], with [b; a] f's spectrum up to its band."""
    band = f.n // 2 - 1
    f_spec = analyze_fourier(f, band)
    rows, cols, vals = plan.entries(band)
    b_a = np.concatenate([f_spec.b, f_spec.a])
    return 0.5 * np.bincount(cols, vals * b_a[rows], minlength=2 * plan.order)


def build_gram_system(
    f: PeriodicSignal, basis: BasisPair | BasisSchedule, order: int, pruning: str = "paper"
) -> GramSystem:
    """The direct method's system (1/2) Phi^T Phi x = (1/2) Phi^T [b; a] as dense arrays.

    Built anew on each call, for inspection; ``analyze_direct`` never builds
    it. Phi is capped wide enough that no dilation is truncated, so pruned
    and unpruned variants differ only by the rule; [b; a] is f's spectrum up
    to its band, beyond which it is zero. Under ``paper`` pruning a
    cross-frequency entry (k != m) survives only if k*m <= order or the
    smaller index divides the larger; ``lcm`` keeps it only if
    lcm(k, m) <= order; ``none`` keeps all.
    """
    _check_band(f, order)
    k = np.arange(1, order + 1)
    pruned = ~np.tile(_kept(k[:, None], k, order, pruning), (2, 2))
    gram = _family_gram(basis, order)
    gram[pruned] = 0.0
    return GramSystem(_frozen(gram), _rhs(f, _plan(basis, order)), _frozen(pruned), order, pruning)


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
    (b, s, s) stack.
    """
    labels = _components(size, rows, cols)
    members = np.argsort(labels, kind="stable")  # by block, each block's rows ascending
    row_sizes = np.bincount(labels)[labels]  # each row's block size
    place = np.empty(size, dtype=np.intp)  # each row's place in the index array of its block size
    groups = []
    for s in np.unique(row_sizes).tolist():
        index = members[row_sizes[members] == s].reshape(-1, s)
        place[index] = np.arange(index.size).reshape(index.shape)
        inside = row_sizes[rows] == s
        stacked = np.zeros((len(index), s, s))  # as one (b*s, s) matrix, row r is its row place[r]
        stacked.reshape(-1, s)[place[rows[inside]], place[cols[inside]] % s] = vals[inside]
        groups.append((index, stacked))
    return tuple(groups)


def _blockwise_condition(groups) -> float:
    """||G||_1 ||G^-1||_1 of the block-diagonal G with the blocks of ``_gram_blocks``.

    Every column of G, and of G^-1, is a column of one block or of its
    inverse padded with zeros, so both norms are the largest over the
    blocks. Each block size takes one batched ``np.linalg.inv``.
    """
    gram_norm = inverse_norm = 0.0
    for _, blocks in groups:
        try:
            inverses = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError("gram system is exactly singular") from exc
        with np.errstate(over="ignore"):  # a column sum past the float range is an infinite norm
            gram_norm = max(gram_norm, float(np.abs(blocks).sum(axis=-2).max()))
            inverse_norm = max(inverse_norm, float(np.abs(inverses).sum(axis=-2).max()))
    cond = gram_norm * inverse_norm
    if not math.isfinite(cond):
        raise AnalysisError("gram system is numerically singular")
    return cond


def _condition_number(matrix: np.ndarray) -> float:
    """The exact 1-norm condition number ||G||_1 ||G^-1||_1, refusing a singular G."""
    rows, cols = np.nonzero(matrix)
    return _blockwise_condition(_gram_blocks(len(matrix), rows, cols, matrix[rows, cols]))


def analyze_direct(
    f: PeriodicSignal,
    basis: BasisPair | BasisSchedule,
    order: int,
    pruning: str = "paper",
    eps_independence: float = EPS_INDEPENDENCE,
) -> Decomposition:
    """One-shot analysis of f by solving the (pruned) Gram system.

    Unlike the indirect method, the coefficients depend on the order: adding
    components redistributes weight across the non-orthogonal family. The
    result carries the system's exact 1-norm condition number; values above
    ``CONDITION_WARN_LIMIT`` attach a warning instead of failing.
    """
    _require_solvable(basis, eps_independence)
    _check_band(f, order)
    plan = _plan(basis, order)
    groups, cond = plan.system(pruning)
    rhs = _rhs(f, plan)
    # a finite condition number means each block's LU found no zero pivot,
    # so every block's solve succeeds
    x = np.empty(2 * order)
    for index, blocks in groups:
        x[index] = np.linalg.solve(blocks, rhs[index][..., None])[..., 0]
    notes = ()
    if cond > CONDITION_WARN_LIMIT:
        notes = (
            f"condition estimate {cond:.3e} exceeds {CONDITION_WARN_LIMIT:.0e}; "
            "coefficients may be unreliable",
        )
    return _decomposition(f, basis, x, "direct", pruning, cond, notes)


def combined_spectrum(d: Decomposition, band_cap: int) -> FourierSpectrum:
    """Spectrum of the full reconstruction, Phi @ [A; B] truncated at ``band_cap``."""
    weights = d._table[:, 1:].T.ravel()  # [A; B]
    rows, cols, vals = _plan(d.basis, d.order).entries(band_cap)
    cos_sin = np.bincount(rows, vals * weights[cols], minlength=2 * band_cap)
    return FourierSpectrum(d.c0, cos_sin[band_cap:], cos_sin[:band_cap])


def reconstruct(d: Decomposition, n: int) -> PeriodicSignal:
    """Sample c0 + sum_k A_k S(kx) + B_k R(kx) on the n-point grid.

    Each dilated member is truncated at the grid's band limit n/2 - 1.
    """
    return synthesize_fourier(combined_spectrum(d, n // 2 - 1), n)


def residual(f: PeriodicSignal, d: Decomposition) -> PeriodicSignal:
    """f minus its reconstruction at f's own sampling."""
    if d.order > f.n // 2 - 1:
        raise DimensionError(
            f"decomposition of order {d.order} is not representable at n={f.n}"
        )
    approx = reconstruct(d, f.n)
    return PeriodicSignal(f.samples - approx.samples)


# --- JSON interchange --------------------------------------------------------


def decomposition_to_dict(d: Decomposition) -> dict:
    if isinstance(d.basis, BasisSchedule):
        basis_data = schedule_to_dict(d.basis)
    else:
        basis_data = pair_to_dict(d.basis)
    out = {
        "method": d.method,
        "order": d.order,
        "c0": d.c0,
        "coefficients": [{"k": k, "A": a_k, "B": b_k} for k, a_k, b_k in d.coeffs],
        "basis": basis_data,
    }
    if d.pruning is not None:
        out["pruning"] = d.pruning
    if d.condition_estimate is not None:
        out["condition_estimate"] = d.condition_estimate
    if d.warnings:
        out["warnings"] = list(d.warnings)
    return out


def decomposition_from_dict(data) -> Decomposition:
    try:
        basis_data = data["basis"]
        if "segments" in basis_data:
            basis = schedule_from_dict(basis_data)
        else:
            basis = pair_from_dict(basis_data)
        coeffs = tuple(
            (_integer(item["k"], "k"), float(item["A"]), float(item["B"]))
            for item in data["coefficients"]
        )
        return Decomposition(
            float(data["c0"]),
            coeffs,
            basis,
            str(data["method"]),
            data.get("pruning"),
            data.get("condition_estimate"),
            tuple(data.get("warnings", ())),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed decomposition data: {exc}") from exc


def save_decomposition(d: Decomposition, path) -> None:
    write_json(decomposition_to_dict(d), path)


def load_decomposition(path) -> Decomposition:
    return decomposition_from_dict(read_json(path))
