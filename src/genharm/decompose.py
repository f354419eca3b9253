"""Signal analysis over basis pairs: direct Gram solve and iterative deflation.

Both methods express a signal as

    f(x) ~ c0 + sum_{k=1..N} A_k S(kx) + B_k R(kx)

and both are linear algebra on the synthesis operator Phi, whose entries
``basis._synthesis_entries`` lists: rows are the floats of the spectrum
layout ``signals`` keeps (b_h at 2h, -a_h at 2h+1, the rfft's own), columns
are dilated members ((S,1)..(S,N), then (R,1)..(R,N)), and column (S,k)
holds S's coefficient q at harmonic q*k, from the pair active at k under a
schedule. A signal's spectrum s is kept with it in that layout, so every
method reads s and writes Phi's sums as they are. Everything below reads off
Phi, with numpy alone:

* ``combined_spectrum`` / ``reconstruct`` / ``residual``: Phi @ [A; B],
  capped at the band, summed straight from Phi's entries into the layout
  (``_combined``). A reconstruction or residual hands it to
  ``signals._inverse``, one inverse FFT, and builds no spectrum on the way.
* ``analyze_direct``: the 2N x 2N system G x = (1/2) Phi^T s with
  G = (1/2) Phi^T Phi, optionally pruned; its coefficients depend on N.
  Members that share no harmonic are orthogonal, so G is block diagonal up
  to a permutation: ``basis._gram_blocks`` cuts its blocks, the connected
  components of the nonzero entries ``basis._gram_entries`` lists, and
  blocks of one size share one batched inverse. Each block B solves as
  y = B^-1 r, refined once: x = y + B^-1 (r - B y). ``build_gram_system``
  scatters the entries into the dense system, for inspection only.
* ``analyze_indirect``: T x = s on T, Phi's first N harmonic rows.
  Member (S,k) reaches harmonic n = q*k only when k divides n, so T is
  block lower triangular in the divisor order, and so is its inverse X,
  built once (``_triangular_inverse``). The solve is x = X s, refined
  once: x += X (s - T x). Coefficients never change when N grows, and
  the residual after order N has no content below N+1.

Both methods take a pair or a schedule, since only Phi's columns depend on
which it is, and only ``basis.py`` tells the two apart: its layout, Phi, Gram
entries and JSON helpers take either. Both methods report the exact 1-norm
condition number of the system they solve: kappa_1(T) = ||T||_1 ||X||_1, or
||G||_1 ||G^-1||_1.

Everything above but the signal's spectrum depends only on (basis, order),
so it is built once and reused by every later call. Each part has its own
memoized builder: ``_phi`` (Phi's entries at a band cap), ``_indirect_plan``
(T's and X's entries with kappa_1(T)) and ``_direct_plan`` (per pruning
rule the pruned Gram matrix's diagonal blocks with their inverses and
condition number). ``_require_solvable`` keeps the independence verdict per
(basis, eps) the same way, and ``basis._layout``, which every part reads, is
memoized too. A call then does only per-signal work:
the signal's spectrum, computed once per signal and kept with it, then three
gather-and-bincount passes over X's and T's entries, or the right-hand side
and three batched matmuls per block size, or one bincount for Phi @ [A; B]
and one inverse FFT.
The arithmetic is the one a fresh build would do, so a reused part gives
bit-for-bit the results of a new one.

Each builder is a ``functools.lru_cache`` of ``basis._PLAN_CACHE_SIZE`` = 8
entries, the least recently used dropped first. Bases hash and compare by
identity, not by value: a rebuilt equal basis gets parts of its own, and
basis arrays cannot be made writeable, so a basis never changes under its
parts. A cache holds strong references, so a dropped basis is freed once
every builder has dropped its entries, after at most 8 newer keys each. A
builder that raises stores nothing. At order N with depth Q, Phi's entries
take 24 bytes per (member, k, q <= Q) with q*k within the cap (0.26 MiB at
N = 48, Q = 64 on a 4096-sample grid); T's and X's nonzero entries, 24 bytes
each (for the depth-64 builtins at most 15 KiB at N = 48, 0.15 MiB at
N = 400 and 0.8 MiB at N = 2000); and one pruning rule's Gram blocks, their
indices and their inverses at most 49 KiB at N = 48, 1.6 MiB at N = 400
and 18 MiB at N = 2000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    _PLAN_CACHE_SIZE,
    BasisPair,
    BasisSchedule,
    EPS_INDEPENDENCE,
    _active,
    _basis_from_dict,
    _basis_to_dict,
    _gram_blocks,
    _gram_entries,
    _layout,
    _segments,
    _synthesis_entries,
    check_independence,
)
from .errors import (
    AnalysisError,
    ConfigurationError,
    DimensionError,
    IllConditionedBasisError,
    InvalidSignalError,
    _integer,
    _numbers,
    _real,
    _tolerance,
    _typed,
)
from .files import read_json, write_json
from .signals import (
    FourierSpectrum,
    PeriodicSignal,
    _band,
    _check_sample_count,
    _fourier,
    _frozen,
    _inverse,
    _refreeze,
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


def _pruning(rule) -> str:
    """rule if it is a string in ``PRUNING_RULES``; anything else is a ``ConfigurationError``.

    Every pruning argument passes here before a memoized builder hashes it,
    so a list is refused like an unknown name.
    """
    if not isinstance(rule, str) or rule not in PRUNING_RULES:
        raise ConfigurationError(f"unknown pruning rule {rule!r}")
    return rule


def _rows(rows, columns: tuple, what: str, shape: str) -> np.ndarray:
    """``rows`` of (k, values...) as a frozen (N, len(columns)) float array.

    Any (N, width) sequence or array is accepted; anything else, or ragged
    rows, raises ``ConfigurationError("{what} must be {shape}")``, and k
    other than 1..N exactly once, ascending, raises too. Outside a numeric
    array each value must be a number by ``errors._number``, named by its
    column: a string or a bool is not read as one.
    """
    numeric = isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf"
    try:
        table = np.array(rows, dtype=float if numeric else object)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be {shape}") from exc
    if table.shape == (0,):
        table = table.reshape(0, len(columns))
    if table.ndim != 2 or table.shape[1] != len(columns):
        raise ConfigurationError(f"{what} must be {shape}")
    if not numeric:
        table = np.column_stack([_numbers(column, name) for name, column in zip(columns, table.T)])
    if not np.array_equal(table[:, 0], np.arange(1, len(table) + 1)):
        raise ConfigurationError(f"{what} must cover k = 1..N exactly once, ascending")
    return _frozen(table)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of an analysis: mean, per-harmonic amplitudes, and provenance.

    ``coeffs`` holds the rows [k, A_k, B_k] for k = 1..N exactly once each,
    given as any (N, 3) sequence or array and kept as a read-only (N, 3)
    float array; the analyses build their results through this constructor
    like any caller. The basis field is the pair or schedule the analysis
    ran with. ``condition_estimate`` is the exact 1-norm condition number of
    the system the analysis solved: kappa_1(T) = ||T||_1 ||T^-1||_1 of
    Phi's first N harmonic rows T for indirect results, ||G||_1 ||G^-1||_1
    of the Gram system G for direct ones, which also record the pruning
    rule, since their coefficients are tied to the order and system they
    came from. Above ``CONDITION_WARN_LIMIT`` either method attaches a
    warning.
    """

    c0: float
    coeffs: np.ndarray
    basis: object
    method: str
    pruning: str | None = None
    condition_estimate: float | None = None
    warnings: tuple = ()

    def __post_init__(self):
        if self.method not in ("direct", "indirect"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        _segments(self.basis)
        if self.pruning is not None:
            _pruning(self.pruning)
        cond = self.condition_estimate
        cond = None if cond is None else _real(cond, "condition estimate")
        coeffs = _rows(self.coeffs, ("k", "A_k", "B_k"), "coefficients", "(k, A_k, B_k) triples")
        if not np.isfinite(coeffs).all():
            raise ConfigurationError("decomposition values must all be finite")
        warnings = tuple(self.warnings)
        if isinstance(self.warnings, str) or not all(isinstance(note, str) for note in warnings):
            raise ConfigurationError("warnings must be strings")
        object.__setattr__(self, "c0", _real(self.c0, "c0"))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "condition_estimate", cond)
        object.__setattr__(self, "warnings", warnings)

    __setstate__ = _refreeze

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def pair_at(self, k: int) -> BasisPair:
        """The basis pair associated with harmonic k, 1 <= k <= order."""
        k = _integer(k, "k", 1, self.order)
        return _segments(self.basis)[_active(_layout(self.basis)[0], k)][1]


@dataclass(frozen=True, eq=False)
class GramSystem:
    """The (possibly pruned) 2N x 2N system the direct method solves.

    Rows and columns are ordered (S,1)..(S,N), (R,1)..(R,N); entry (i, j) is
    the inner product of the two dilated members, zeroed where ``pruned_mask``
    is True. ``rhs`` holds the projections of the signal on each row's member.
    Matrix and rhs values are finite numbers by ``errors._numbers``, and
    ``pruned_mask`` is a boolean array, the one the pruning rule gives at the
    order. The arrays are copied and frozen on construction, whoever builds
    the system.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    pruned_mask: np.ndarray
    order: int
    pruning: str

    def __post_init__(self):
        matrix = _numbers(self.matrix, "gram matrix")
        rhs = _numbers(self.rhs, "gram rhs")
        mask = self.pruned_mask
        order = _integer(self.order, "order", 1)
        _pruning(self.pruning)
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
            raise ConfigurationError("pruned_mask must be a boolean array")
        two_n = 2 * order
        if matrix.shape != (two_n, two_n) or mask.shape != matrix.shape or rhs.shape != (two_n,):
            raise DimensionError("gram system shapes do not match the order")
        if not np.array_equal(mask, _pruned(order, self.pruning)):
            raise ConfigurationError(f"pruned_mask is not the {self.pruning!r} rule's mask at order {order}")
        if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
            raise ConfigurationError("gram system values must all be finite")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "matrix", _frozen(matrix))
        object.__setattr__(self, "rhs", _frozen(rhs))
        object.__setattr__(self, "pruned_mask", _frozen(mask))

    __setstate__ = _refreeze


# The plan: what the analyses of one (basis, order) need before they see a
# signal, one memoized builder per part. Every array handed out is _frozen. A
# singular T or G raises, stores nothing, and so raises on every call.


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _phi(basis, order: int, cap: int) -> tuple:
    """Phi's (rows, cols, vals) at ``cap``."""
    return tuple(map(_frozen, _synthesis_entries(basis, order, cap)))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _indirect_plan(basis, order: int) -> tuple:
    """T's entries, X = T^-1's entries, each as (rows, cols, vals), and kappa_1(T).

    T is Phi at cap = order, and X comes from ``_triangular_inverse``.
    kappa_1(T) = ||T||_1 ||X||_1 is exact: the largest column sum of |T|
    times that of |X|, read off the entries.
    """
    triangular = _synthesis_entries(basis, order, order)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves kappa_1 non-finite
        inverse = _triangular_inverse(triangular, order, _layout(basis)[1].shape[-1])
        cond = float(
            np.bincount(triangular[1], np.abs(triangular[2])).max()
            * np.bincount(inverse[1], np.abs(inverse[2])).max()
        )
    if not math.isfinite(cond):
        raise AnalysisError("indirect system is numerically singular")
    return tuple(map(_frozen, triangular)), tuple(map(_frozen, inverse)), cond


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _direct_plan(basis, order: int, pruning: str) -> tuple:
    """The pruned G's ``_gram_blocks`` with each size's inverses, and its condition number.

    The blocks are cut from G's entry list without building G.
    """
    rows, cols, vals = _gram_entries(basis, order)
    kept = _kept(rows % order + 1, cols % order + 1, order, pruning)
    return _blockwise_inverse(_gram_blocks(2 * order, rows[kept], cols[kept], vals[kept]))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _require_solvable(basis, eps: float) -> None:
    """Raise unless every segment passes ``check_independence`` at eps.

    The verdict depends on nothing else, so it is decided once per (basis,
    eps); a basis that fails stores nothing and raises on every call.
    """
    for start, pair in _segments(basis):
        report = check_independence(pair, eps)
        if not report:
            where = "" if pair is basis else f" (segment at k={start}, {pair.label or 'unlabeled'})"
            raise IllConditionedBasisError(
                f"basis{where} first-harmonic system is ill-conditioned: "
                f"independence margin {report.margin:.6g}"
            )


def _check_band(f: PeriodicSignal, order: int, low: int = 1) -> int:
    """order as an int, refused unless f is a signal and low <= order <= f's band."""
    _typed(f, PeriodicSignal, InvalidSignalError)
    order = _integer(order, "order", low)
    band = _band(f.n)
    if order > band:
        raise DimensionError(f"order {order} exceeds the representable band {band} at n={f.n}")
    return order


def _triangular_inverse(triangular: tuple, order: int, depth: int) -> tuple:
    """The entries (rows, cols, vals) of X = T^-1 from those of T, Phi's first N harmonic rows.

    T's 2x2 block (n, k), from member k to harmonic n, is nonzero only when
    k | n and q = n/k is at most the basis depth: it holds the coefficients
    q of the pair active at k. The divisor relation is closed under
    composition, so X has the same pattern, and T X = I gives its block
    (n, j), from harmonic j to member n:

        X(n, n) = C_1(n)^-1,
        X(n, j) = sum over j | k | n, k < n, of -C_1(n)^-1 T(n, k) X(k, j),

    C_1(n) = T(n, n) being the fundamental block of the pair active at n.
    For a single pair X(n, j) depends on n/j alone: it is the
    Dirichlet-convolution inverse behind the Arithmetic Fourier Transform.
    Blocks of T and X are numbered by quotient m = n/j, then by j. Block
    (n, j) draws on the blocks of quotients a = k/j, which divide m and so
    are at most m/2: the blocks of the quotients [L, 2L) form one level that
    depends only on the levels below it. Each level is one gather, the 2x2
    products as (2, 2, terms) arrays and one ``np.bincount``. Exactly zero
    entries are dropped.
    """
    # block (m, j), m * j <= N, numbered by m then j; quotient m starts at first[m - 1]
    per_m = order // np.arange(1, order + 1)
    first = np.concatenate(([0], np.cumsum(per_m)))
    m = np.repeat(np.arange(1, order + 1), per_m)
    j = np.arange(first[-1]) - first[m - 1] + 1
    # T's blocks as four components [[cos S, cos R], [sin S, sin R]]
    rows, cols, vals = triangular
    n, k = rows // 2, cols % order + 1
    t = np.zeros((4, len(m)))
    t[2 * (rows % 2) + cols // order, first[n // k - 1] + k - 1] = vals
    s1, r1, sp1, rp1 = t[:, :order]  # C_1(n), n = 1..N
    c1_inverse = np.stack([rp1, -r1, -sp1, s1]) / (s1 * rp1 - r1 * sp1)
    # the proper divisors a of each quotient m with q = m/a <= depth, sorted by the level of m
    a = np.arange(1, order // 2 + 1)
    per_a = np.maximum(np.minimum(depth, order // a) - 1, 0)
    a = np.repeat(a, per_a)
    q = np.arange(len(a)) - np.repeat(np.cumsum(per_a) - per_a, per_a) + 2
    level = np.frexp(a * q)[1].astype(np.uint8)  # the bit length of m
    by_level = np.argsort(level, kind="stable")
    a, q, level = a[by_level], q[by_level], level[by_level]
    # one term per divisor and j = 1..N/m: X(n, j) gets -C_1(n)^-1 T(n, k) X(k, j), k = a j
    per_d = order // (a * q)
    term_cuts = np.concatenate(([0], np.cumsum(per_d)))
    jt = np.arange(term_cuts[-1]) - np.repeat(term_cuts[:-1], per_d) + 1
    source = np.repeat(first[a - 1] - 1, per_d) + jt
    block = np.repeat(first[a * q - 1] - 1, per_d) + jt
    k, qt = np.repeat(a, per_d) * jt, np.repeat(q, per_d)
    t_k = np.take(t, first[qt - 1] + k - 1, axis=1).reshape(2, 2, -1)
    c_n = np.take(-c1_inverse, k * qt - 1, axis=1).reshape(2, 2, -1)
    step = c_n[:, :1] * t_k[None, 0] + c_n[:, 1:] * t_k[None, 1]
    left, right = step[:, :1], step[:, 1:]
    x = np.zeros((4, len(m)))  # rows X(n, j)[0, 0], [0, 1], [1, 0], [1, 1]
    x[:, :order] = c1_inverse  # quotient 1: X(n, n) = C_1(n)^-1
    bits = np.arange(int(order).bit_length() + 1)
    block_cuts = first[np.minimum(1 << bits, order + 1) - 1].tolist()
    term_cuts = term_cuts[np.searchsorted(level, bits + 1)].tolist()
    for lo, hi, t_lo, t_hi in zip(block_cuts[1:], block_cuts[2:], term_cuts[1:], term_cuts[2:]):
        known = np.take(x, source[t_lo:t_hi], axis=1).reshape(2, 2, -1)
        products = left[..., t_lo:t_hi] * known[None, 0] + right[..., t_lo:t_hi] * known[None, 1]
        at = block[t_lo:t_hi] - lo + (hi - lo) * np.arange(4)[:, None]
        x[:, lo:hi] = np.bincount(at.ravel(), products.ravel(), minlength=4 * (hi - lo)).reshape(4, -1)
    # X(n, j) maps (cos j, sin j), spectrum floats 2j and 2j+1, to (S n, R n)
    member = m * j - 1
    x_rows = np.concatenate([member, member, member + order, member + order])
    x_cols = np.concatenate([2 * j, 2 * j + 1, 2 * j, 2 * j + 1])
    x = x.ravel()
    nonzero = x != 0
    return x_rows[nonzero], x_cols[nonzero], x[nonzero]


def _indirect_coeffs(f: PeriodicSignal, triangular: tuple, inverse: tuple, order: int) -> np.ndarray:
    """[A_1..A_N, B_1..B_N] = X s with one step of iterative refinement.

    T x = s, s f's spectrum up to harmonic N, is solved by the plan's exact
    inverse X = T^-1, then once more for the residual: x += X (s - T x).
    T's and X's entries come from the plan; each product is one gather and
    one ``np.bincount`` over them.
    """
    (t_rows, t_cols, t_vals), (x_rows, x_cols, x_vals) = triangular, inverse
    size = 2 * order
    rhs = f._spectrum[: size + 2].copy()
    x = np.bincount(x_rows, x_vals * rhs[x_cols], minlength=size)
    rhs -= np.bincount(t_rows, t_vals * x[t_cols], minlength=size + 2)
    return x + np.bincount(x_rows, x_vals * rhs[x_cols], minlength=size)


def _condition_notes(cond: float) -> tuple:
    """The warning of a condition number above ``CONDITION_WARN_LIMIT``, if any."""
    if cond > CONDITION_WARN_LIMIT:
        return (
            f"condition estimate {cond:.3e} exceeds {CONDITION_WARN_LIMIT:.0e}; "
            "coefficients may be unreliable",
        )
    return ()


def _decomposition(f: PeriodicSignal, basis, x: np.ndarray, method: str, pruning, cond: float):
    """f's mean and x = [A_1..A_N, B_1..B_N] as a result with (k, A_k, B_k) triples."""
    order = len(x) // 2
    table = np.empty((order, 3))
    table[:, 0] = np.arange(1, order + 1)
    table[:, 1:] = x.reshape(2, order).T
    return Decomposition(f._spectrum[0], table, basis, method, pruning, cond, _condition_notes(cond))


def analyze_indirect(
    f: PeriodicSignal,
    basis: BasisPair | BasisSchedule,
    order: int,
    eps_independence: float = EPS_INDEPENDENCE,
) -> Decomposition:
    """Frequency-by-frequency analysis of f over a basis pair or schedule.

    Solves T x = s on Phi's first N harmonic rows, s f's spectrum: harmonic
    k's (a_k, b_k) are matched after subtracting what lower components already
    contribute there via their divisors. Under a schedule each correction
    reads the stored (A_k, B_k) against the pair that produced them. The
    resulting residual has zero Fourier content at every harmonic up to the
    order, and the coefficients do not depend on the order. The result
    carries T's exact 1-norm condition number; values above
    ``CONDITION_WARN_LIMIT`` attach a warning instead of failing.
    """
    order = _check_band(f, order)
    _segments(basis)  # refuses a non-basis before the memoized plans hash it
    _require_solvable(basis, _tolerance(eps_independence, "eps_independence"))
    triangular, inverse, cond = _indirect_plan(basis, order)
    x = _indirect_coeffs(f, triangular, inverse, order)
    return _decomposition(f, basis, x, "indirect", None, cond)


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
    if _pruning(pruning) == "none":
        return np.ones(np.broadcast(k, m).shape, dtype=bool)
    if pruning == "paper":
        return (k * m <= order) | (np.maximum(k, m) % np.minimum(k, m) == 0)
    # lcm: prune when the first common harmonic lies beyond the band
    return k // np.gcd(k, m) * m <= order


def _pruned(order: int, pruning: str) -> np.ndarray:
    """The (2N, 2N) mask of the Gram entries the pruning rule zeroes, in ``GramSystem``'s order."""
    k = np.arange(1, order + 1)
    return ~np.tile(_kept(k[:, None], k, order, pruning), (2, 2))


def _rhs(f: PeriodicSignal, basis, order: int) -> np.ndarray:
    """(1/2) Phi^T s, with s f's spectrum up to its band."""
    rows, cols, vals = _phi(basis, order, _band(f.n))
    return 0.5 * np.bincount(cols, vals * f._spectrum[rows], minlength=2 * order)


def build_gram_system(
    f: PeriodicSignal, basis: BasisPair | BasisSchedule, order: int, pruning: str = "paper"
) -> GramSystem:
    """The direct method's system (1/2) Phi^T Phi x = (1/2) Phi^T s as dense arrays.

    Built anew on each call, for inspection; ``analyze_direct`` never builds
    it. Phi is capped wide enough that no dilation is truncated, so pruned
    and unpruned variants differ only by the rule; s is f's spectrum up to
    its band, beyond which it is zero. Under ``paper`` pruning a
    cross-frequency entry (k != m) survives only if k*m <= order or the
    smaller index divides the larger; ``lcm`` keeps it only if
    lcm(k, m) <= order; ``none`` keeps all.
    """
    order = _check_band(f, order)
    pruned = _pruned(order, pruning)
    rows, cols, vals = _gram_entries(basis, order)
    gram = np.zeros((2 * order, 2 * order))
    gram[rows, cols] = vals
    gram[pruned] = 0.0
    return GramSystem(gram, _rhs(f, basis, order), pruned, order, pruning)


def _blockwise_inverse(groups) -> tuple:
    """The (index, blocks) groups of ``_gram_blocks`` with each size's inverses, and ||G||_1 ||G^-1||_1.

    Every column of the block-diagonal G, and of G^-1, is a column of one
    block or of its inverse padded with zeros, so both norms are the largest
    over the blocks. Each block size takes one batched ``np.linalg.inv``,
    whose result is kept read-only as (index, blocks, inverses).
    """
    inverted = []
    gram_norm = inverse_norm = 0.0
    with np.errstate(over="ignore"):  # a column sum past the float range is an infinite norm
        for index, blocks in groups:
            try:
                inverses = np.linalg.inv(blocks)
            except np.linalg.LinAlgError as exc:
                raise AnalysisError("gram system is exactly singular") from exc
            inverted.append((index, blocks, _frozen(inverses)))
            gram_norm = max(gram_norm, float(np.abs(blocks).sum(axis=-2).max()))
            inverse_norm = max(inverse_norm, float(np.abs(inverses).sum(axis=-2).max()))
    cond = gram_norm * inverse_norm
    if not math.isfinite(cond):
        raise AnalysisError("gram system is numerically singular")
    return tuple(inverted), cond


def analyze_direct(
    f: PeriodicSignal,
    basis: BasisPair | BasisSchedule,
    order: int,
    pruning: str = "paper",
    eps_independence: float = EPS_INDEPENDENCE,
) -> Decomposition:
    """One-shot analysis of f by solving the (pruned) Gram system.

    Unlike the indirect method, the coefficients depend on the order: adding
    components redistributes weight across the non-orthogonal family. Each
    block B solves as y = B^-1 r from the plan's inverses, refined once:
    x = y + B^-1 (r - B y). The result carries the system's exact 1-norm
    condition number; values above ``CONDITION_WARN_LIMIT`` attach a
    warning instead of failing.
    """
    order = _check_band(f, order)
    _segments(basis)  # refuses a non-basis before the memoized plans hash it
    pruning = _pruning(pruning)
    _require_solvable(basis, _tolerance(eps_independence, "eps_independence"))
    groups, cond = _direct_plan(basis, order, pruning)
    rhs = _rhs(f, basis, order)
    x = np.empty(2 * order)
    for index, blocks, inverses in groups:
        r = rhs[index][..., None]
        y = inverses @ r
        x[index] = (y + inverses @ (r - blocks @ y))[..., 0]
    return _decomposition(f, basis, x, "direct", pruning, cond)


def _combined(d: Decomposition, band_cap: int) -> np.ndarray:
    """d's c0 and Phi @ [A; B] truncated at ``band_cap``, in the spectrum layout, one fresh array.

    Finite coefficients can still overflow in the sum, which raises as a
    non-finite spectrum would.
    """
    weights = d.coeffs[:, 1:].T.ravel()  # [A; B]
    rows, cols, vals = _phi(d.basis, d.order, band_cap)
    spectrum = np.bincount(rows, vals * weights[cols], minlength=2 * band_cap + 2)
    spectrum[0] = d.c0
    if not np.isfinite(spectrum).all():
        raise InvalidSignalError("spectrum contains non-finite coefficients")
    return spectrum


def combined_spectrum(d: Decomposition, band_cap: int) -> FourierSpectrum:
    """Spectrum of the full reconstruction, Phi @ [A; B] truncated at ``band_cap``."""
    _typed(d, Decomposition)
    band_cap = _integer(band_cap, "band cap", 0)
    return _fourier(_combined(d, band_cap), band_cap)


def _synthesis(d: Decomposition, n: int) -> np.ndarray:
    """d's reconstruction sampled on the n-point grid, as one fresh array."""
    return _inverse(_combined(d, _band(n)), n)


def reconstruct(d: Decomposition, n: int) -> PeriodicSignal:
    """Sample c0 + sum_k A_k S(kx) + B_k R(kx) on the n-point grid.

    Each dilated member is truncated at the grid's band limit n/2 - 1.
    """
    return PeriodicSignal(_synthesis(_typed(d, Decomposition), _check_sample_count(n)))


def residual(f: PeriodicSignal, d: Decomposition) -> PeriodicSignal:
    """f minus its reconstruction at f's own sampling; d's order must lie within f's band."""
    _typed(f, PeriodicSignal, InvalidSignalError)  # f is checked before d
    _check_band(f, _typed(d, Decomposition).order, 0)
    return PeriodicSignal(f.samples - _synthesis(d, f.n))


# --- JSON interchange --------------------------------------------------------


def decomposition_to_dict(d: Decomposition) -> dict:
    _typed(d, Decomposition)
    out = {
        "method": d.method,
        "order": d.order,
        "c0": d.c0,
        "coefficients": [{"k": k, "A": a_k, "B": b_k}
                         for k, a_k, b_k in zip(range(1, d.order + 1), *d.coeffs[:, 1:].T.tolist())],
        "basis": _basis_to_dict(d.basis),
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
        basis = _basis_from_dict(data["basis"])
        coeffs = [(item["k"], item["A"], item["B"]) for item in data["coefficients"]]
        warnings = data.get("warnings", [])
        if not isinstance(warnings, list):
            raise ConfigurationError("warnings must be a list of strings")
        return Decomposition(
            data["c0"],
            coeffs,
            basis,
            str(data["method"]),
            data.get("pruning"),
            data.get("condition_estimate"),
            tuple(warnings),
        )
    except ConfigurationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed decomposition data: {exc}") from exc


def save_decomposition(d: Decomposition, path) -> None:
    write_json(decomposition_to_dict(d), path)


def load_decomposition(path) -> Decomposition:
    return decomposition_from_dict(read_json(path))
