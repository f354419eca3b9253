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
* ``build_gram_system`` / ``analyze_direct``: the 2N x 2N system
  (1/2) Phi^T Phi x = (1/2) Phi^T [b; a], optionally pruned, solved in one
  shot by dense LU; its coefficients depend on N.
* ``analyze_indirect``: Phi's first N harmonic rows.
  Member (S,k) reaches harmonic n = q*k only when k divides n, and a proper
  divisor is at most n/2, so the harmonics of a level [L, 2L) depend only on
  harmonics below L. A level-scheduled forward substitution solves the
  levels 1, 2, 4, ... in turn: each subtracts what the lower levels put into
  its rows, then solves every harmonic's 2x2 fundamental block at once.
  Coefficients never change when N grows, and the residual after order N has
  no content below N+1.

Both methods take a pair or a schedule, since only Phi's columns depend on
which it is. Only the direct method needs scipy, imported when it first runs.
"""

from __future__ import annotations

import json
import math
import warnings as _warnings
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
    _depth,
    _segments,
    _synthesis_entries,
    synthesis_operator,
)
from .errors import (
    AnalysisError,
    ConfigurationError,
    DimensionError,
    IllConditionedBasisError,
)
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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of an analysis: mean, per-harmonic amplitudes, and provenance.

    ``coeffs`` holds (k, A_k, B_k) for k = 1..N exactly once each. The basis
    field is the pair or schedule the analysis ran with; direct results also
    record the pruning rule and a condition estimate, since their coefficients
    are tied to the order and system they came from.
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
        cleaned = tuple((int(k), float(ak), float(bk)) for k, ak, bk in self.coeffs)
        ks = [k for k, _, _ in cleaned]
        if ks != list(range(1, len(cleaned) + 1)):
            raise ConfigurationError("coefficients must cover k = 1..N exactly once, ascending")
        values = [self.c0] + [v for _, ak, bk in cleaned for v in (ak, bk)]
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError("decomposition values must all be finite")
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "warnings", tuple(self.warnings))

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
    """

    matrix: np.ndarray
    rhs: np.ndarray
    pruned_mask: np.ndarray
    order: int
    pruning: str

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float, copy=True)
        rhs = np.array(self.rhs, dtype=float, copy=True)
        mask = np.array(self.pruned_mask, dtype=bool, copy=True)
        two_n = 2 * self.order
        if matrix.shape != (two_n, two_n) or mask.shape != matrix.shape or rhs.shape != (two_n,):
            raise DimensionError("gram system shapes do not match the order")
        for arr in (matrix, rhs, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "pruned_mask", mask)


def _require_solvable(basis, eps: float) -> None:
    """Raise unless every segment's first-harmonic 2x2 system is safely invertible.

    The test is |det| > eps * (s1^2 + s'1^2 + r1^2 + r'1^2). That scale is at
    least 2 (|s1*r'1| + |s'1*r1|), so a passing pair also passes
    ``check_independence`` at the same eps. A NaN eps refuses every basis.
    """
    for start, pair in _segments(basis):
        s1c, s1s = float(pair.S.cos_coeffs[0]), float(pair.S.sin_coeffs[0])
        r1c, r1s = float(pair.R.cos_coeffs[0]), float(pair.R.sin_coeffs[0])
        det = s1c * r1s - s1s * r1c
        scale = s1c * s1c + s1s * s1s + r1c * r1c + r1s * r1s
        if not abs(det) > eps * scale:
            where = ""
            if isinstance(basis, BasisSchedule):
                where = f" (segment at k={start}, {pair.label or 'unlabeled'})"
            raise IllConditionedBasisError(
                f"basis{where} first-harmonic system is ill-conditioned: "
                f"determinant {det:.6g} against scale {scale:.6g}"
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
    rows, cols, vals = _synthesis_entries(basis, order, order)
    harmonic = rows % order + 1
    diagonal = harmonic == cols % order + 1
    c1 = np.zeros((2, 2, order))
    c1[rows[diagonal] // order, cols[diagonal] // order, harmonic[diagonal] - 1] = vals[diagonal]
    (s1, r1), (sp1, rp1) = c1
    det = s1 * rp1 - r1 * sp1
    spec = analyze_fourier(f, order)
    rhs = np.concatenate([spec.b, spec.a])
    x = np.zeros(2 * order)
    for level in range(order.bit_length()):
        lo, hi = 1 << level, min(2 << level, order + 1)
        into = ~diagonal & (lo <= harmonic) & (harmonic < hi)
        rhs -= np.bincount(rows[into], vals[into] * x[cols[into]], minlength=2 * order)
        n = slice(lo - 1, hi - 1)
        c, s = rhs[n], rhs[order:][n]
        x[n] = (rp1[n] * c - r1[n] * s) / det[n]
        x[order:][n] = (s1[n] * s - sp1[n] * c) / det[n]
    return x


def _decomposition(f: PeriodicSignal, basis, x: np.ndarray, method: str, *provenance):
    """f's mean and x = [A_1..A_N, B_1..B_N] as a result with (k, A_k, B_k) triples."""
    order = len(x) // 2
    coeffs = tuple((k, float(x[k - 1]), float(x[order + k - 1])) for k in range(1, order + 1))
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


def _keep_mask(order: int, pruning: str) -> np.ndarray:
    """Boolean (2N, 2N) mask of entries the pruning rule keeps."""
    if pruning not in PRUNING_RULES:
        raise ConfigurationError(f"unknown pruning rule {pruning!r}")
    k = np.arange(1, order + 1)
    kk, mm = np.meshgrid(k, k, indexing="ij")
    if pruning == "none":
        keep = np.ones((order, order), dtype=bool)
    elif pruning == "paper":
        lo = np.minimum(kk, mm)
        hi = np.maximum(kk, mm)
        keep = (kk * mm <= order) | (hi % lo == 0)
    else:  # lcm: prune when the first common harmonic lies beyond the band
        common = kk // np.gcd(kk, mm) * mm
        keep = common <= order
    return np.tile(keep, (2, 2))


def build_gram_system(
    f: PeriodicSignal, basis: BasisPair | BasisSchedule, order: int, pruning: str = "paper"
) -> GramSystem:
    """Assemble the direct method's system (1/2) Phi^T Phi x = (1/2) Phi^T [b; a].

    Phi is capped wide enough that no dilation is truncated, so pruned and
    unpruned variants differ only by the rule; [b; a] is f's spectrum up to
    its band. Under ``paper`` pruning a cross-frequency entry (k != m)
    survives only if k*m <= order or the smaller index divides the larger;
    ``lcm`` keeps it only if lcm(k, m) <= order; ``none`` keeps all.
    """
    _check_band(f, order)
    band = f.n // 2 - 1
    cap = max(_depth(basis) * order, band)
    phi = synthesis_operator(basis, order, cap)
    gram = 0.5 * (phi.T @ phi).toarray()
    keep = _keep_mask(order, pruning)
    gram[~keep] = 0.0
    f_spec = analyze_fourier(f, band)
    spectrum = np.zeros(2 * cap)
    spectrum[:band] = f_spec.b
    spectrum[cap : cap + band] = f_spec.a
    rhs = 0.5 * (phi.T @ spectrum)
    return GramSystem(gram, rhs, ~keep, order, pruning)


def _solve_with_condition(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Dense LU solve with partial pivoting plus a 1-norm condition estimate."""
    from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(matrix)
    if np.any(np.diag(lu) == 0.0):
        raise AnalysisError("gram system is exactly singular")
    gecon = get_lapack_funcs("gecon", (matrix,))
    anorm = np.linalg.norm(matrix, 1)
    rcond, info = gecon(lu, anorm)
    if info != 0:
        raise AnalysisError(f"condition estimation failed (info={info})")
    if rcond == 0.0:
        raise AnalysisError("gram system is numerically singular")
    solution = lu_solve((lu, piv), rhs)
    return solution, 1.0 / float(rcond)


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
    result carries a 1-norm condition estimate of the system; estimates above
    ``CONDITION_WARN_LIMIT`` attach a warning instead of failing.
    """
    _require_solvable(basis, eps_independence)
    system = build_gram_system(f, basis, order, pruning)
    x, cond = _solve_with_condition(system.matrix, system.rhs)
    notes = ()
    if cond > CONDITION_WARN_LIMIT:
        notes = (
            f"condition estimate {cond:.3e} exceeds {CONDITION_WARN_LIMIT:.0e}; "
            "coefficients may be unreliable",
        )
    return _decomposition(f, basis, x, "direct", pruning, cond, notes)


def combined_spectrum(d: Decomposition, band_cap: int) -> FourierSpectrum:
    """Spectrum of the full reconstruction, Phi @ [A; B] truncated at ``band_cap``."""
    weights = np.array(d.coeffs, dtype=float).reshape(-1, 3)[:, 1:].T.ravel()  # [A; B]
    rows, cols, vals = _synthesis_entries(d.basis, d.order, band_cap)
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
            (int(item["k"]), float(item["A"]), float(item["B"]))
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed decomposition data: {exc}") from exc


def save_decomposition(d: Decomposition, path) -> None:
    with open(path, "w") as fh:
        json.dump(decomposition_to_dict(d), fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_decomposition(path) -> Decomposition:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return decomposition_from_dict(data)
