"""Output oracles, computed with numpy from genharm's outputs and the inputs.

Nothing here imports genharm: every check recomputes what it needs from the
coefficients written out, so a wrong result cannot vouch for itself. Each
check returns ``None`` when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse

# Largest in-band residual coefficient allowed after indirect analysis,
# relative to the signal's RMS. Correct results reach about 1e-16 at every
# size the workloads use; the margin leaves room for summation order.
BAND_TOL = 1e-11
# Largest componentwise backward error of a direct solve against its own
# normal equations (|G x - b| over |G| |x| + |b|).
SOLVE_TOL = 1e-12


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_strict_json(path):
    """(data, None) on success, (None, reason) otherwise."""
    try:
        with open(path) as fh:
            return strict_json(fh.read()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"


def read_signal_csv(path) -> np.ndarray:
    """Sample column of an ``x,value`` CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def fourier(samples: np.ndarray, band: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) coefficients at harmonics 1..band of a sampled period."""
    n = samples.size
    bins = np.fft.rfft(samples)[1 : band + 1]
    return 2.0 / n * bins.real, -2.0 / n * bins.imag


def rms(samples: np.ndarray) -> float:
    return math.sqrt(float(samples @ samples) / samples.size)


class Synthesis:
    """The synthesis operator Φ as a sparse matrix.

    Column (S, k) holds S's coefficients at harmonics q*k; rows are
    (cos 1..cap, sin 1..cap), so Φ @ [A; B] is the spectrum of
    sum_k A_k S(kx) + B_k R(kx) and Φᵀ gives inner products with every
    dilated member, up to the common factor 1/2. Member coefficient tables
    have one row per k = 1..N (a schedule may change pair with k) and one
    column per q = 1..depth. Harmonics above ``cap`` are dropped.
    """

    def __init__(self, s_cos, s_sin, r_cos, r_sin, cap: int):
        order, depth = s_cos.shape
        k = np.arange(1, order + 1)[:, None]
        harm = k * np.arange(1, depth + 1)[None, :]
        keep = harm <= cap
        rows = harm[keep] - 1
        cols = np.broadcast_to(k - 1, harm.shape)[keep]
        self.order, self.cap = order, cap
        self.matrix = sparse.csr_matrix(
            (
                np.concatenate([s_cos[keep], s_sin[keep], r_cos[keep], r_sin[keep]]),
                (
                    np.concatenate([rows, cap + rows, rows, cap + rows]),
                    np.concatenate([cols, cols, order + cols, order + cols]),
                ),
            ),
            shape=(2 * cap, 2 * order),
        )
        self.magnitude = abs(self.matrix)

    @classmethod
    def from_pairs(cls, pairs: list[dict], cap: int) -> "Synthesis":
        """From one ``{"S": {"cos", "sin"}, "R": {"cos", "sin"}}`` dict per k."""
        slots = (("S", "cos"), ("S", "sin"), ("R", "cos"), ("R", "sin"))
        depth = max(len(pair[m][c]) for pair in pairs for m, c in slots)
        tables = np.zeros((4, len(pairs), depth))
        for i, pair in enumerate(pairs):
            for j, (m, c) in enumerate(slots):
                values = pair[m][c]
                tables[j, i, : len(values)] = values
        return cls(*tables, cap)

    def spectrum(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """(cos, sin) coefficients at harmonics 1..cap of sum_k A_k S(kx) + B_k R(kx)."""
        out = self.matrix @ np.concatenate([a, b])
        return out[: self.cap], out[self.cap :]

    def component_energies(self, a, b) -> np.ndarray:
        """Energy of each A_k S(kx) + B_k R(kx) over one period."""
        weighted = self.matrix.multiply(np.concatenate([a, b])[None, :]).tocsc()
        per_member = weighted[:, : self.order] + weighted[:, self.order :]
        return 0.5 * np.asarray(per_member.multiply(per_member).sum(axis=0)).ravel()


def split_coefficients(decomposition: dict) -> tuple[float, np.ndarray, np.ndarray]:
    """(c0, A, B) of a decomposition dict, checking k = 1..N ascending."""
    items = decomposition["coefficients"]
    if [item["k"] for item in items] != list(range(1, len(items) + 1)):
        raise ValueError("coefficients do not cover k = 1..N ascending")
    a = np.array([item["A"] for item in items], dtype=float)
    b = np.array([item["B"] for item in items], dtype=float)
    return float(decomposition["c0"]), a, b


def reconstruction(c0: float, a, b, phi: Synthesis, n: int) -> np.ndarray:
    """Samples of the reconstruction on n points, truncated at harmonic n/2 - 1."""
    band = n // 2 - 1
    cos, sin = phi.spectrum(a, b)
    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins[0] = n * c0
    m = min(band, phi.cap)
    bins[1 : m + 1] = 0.5 * n * (cos[:m] - 1j * sin[:m])
    return np.fft.irfft(bins, n)


def band_annihilated(f: np.ndarray, recon: np.ndarray, order: int) -> str | None:
    """Indirect analysis: f - recon has no content at harmonics 1..order."""
    if recon.shape != f.shape:
        return f"reconstruction has {recon.size} samples, signal has {f.size}"
    cos, sin = fourier(f - recon, order)
    worst = float(np.max(np.hypot(cos, sin))) / rms(f)
    if not worst <= BAND_TOL:
        return f"in-band residual {worst:.3e} x rms(f) exceeds {BAND_TOL:.0e}"
    return None


def same_samples(got: np.ndarray, expected: np.ndarray) -> str | None:
    """A reconstruction matches the one computed here from the coefficients."""
    worst = float(np.max(np.abs(got - expected))) / max(rms(expected), 1e-300)
    if not worst <= BAND_TOL:
        return f"reconstruction differs from the coefficients by {worst:.3e} x rms"
    return None


def solves_normal_equations(f, a, b, phi: Synthesis, gram=None) -> str | None:
    """Direct analysis: G x = Φᵀ F within SOLVE_TOL, componentwise.

    F is f's spectrum up to its band, zero above. ``gram`` is the (pruned)
    dense system matrix; ``None`` means ΦᵀΦ unpruned, and then the check says
    the residual is orthogonal to every dilated member.
    """
    band = f.size // 2 - 1
    spec = np.zeros(2 * phi.cap)
    m = min(band, phi.cap)
    f_cos, f_sin = fourier(f, band)
    spec[:m], spec[phi.cap : phi.cap + m] = f_cos[:m], f_sin[:m]
    x = np.concatenate([a, b])
    rhs = phi.matrix.T @ spec
    rhs_abs = phi.magnitude.T @ np.abs(spec)
    if gram is None:
        lhs = phi.matrix.T @ (phi.matrix @ x)
        lhs_abs = phi.magnitude.T @ (phi.magnitude @ np.abs(x))
    else:
        lhs, lhs_abs = gram @ x, np.abs(gram) @ np.abs(x)
    scale = lhs_abs + rhs_abs
    worst = float(np.max(np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0)))
    if not worst <= SOLVE_TOL:
        return f"normal-equation backward error {worst:.3e} exceeds {SOLVE_TOL:.0e}"
    return None


def pruned_gram(phi: Synthesis, keep: np.ndarray) -> np.ndarray:
    """ΦᵀΦ as a dense array with the entries outside ``keep`` zeroed."""
    return np.where(keep, (phi.matrix.T @ phi.matrix).toarray(), 0.0)


def paper_keep_mask(order: int) -> np.ndarray:
    """The paper's pruning rule on the (2N, 2N) system, as a keep mask.

    A cross-frequency entry (k, m) survives only if k*m <= N or the smaller
    index divides the larger.
    """
    k = np.arange(1, order + 1)
    kk, mm = np.meshgrid(k, k, indexing="ij")
    keep = (kk * mm <= order) | (np.maximum(kk, mm) % np.minimum(kk, mm) == 0)
    return np.tile(keep, (2, 2))


def band_zeroed(filtered: dict, original: dict, keep_from: int, keep_to: int) -> str | None:
    """Filter: mean and every coefficient outside the band are 0, inside unchanged."""
    c0, a, b = split_coefficients(filtered)
    _, a0, b0 = split_coefficients(original)
    k = np.arange(1, a.size + 1)
    outside = (k < keep_from) | (k > keep_to)
    if c0 != 0.0 or np.any(a[outside] != 0.0) or np.any(b[outside] != 0.0):
        return "filtered decomposition has content outside the band"
    if a.size != a0.size or np.any(a[~outside] != a0[~outside]) or np.any(b[~outside] != b0[~outside]):
        return "filtered decomposition changed coefficients inside the band"
    return None


def below_band_empty(recon: np.ndarray, keep_from: int) -> str | None:
    """Filtered reconstruction: components k >= keep_from reach no harmonic below keep_from."""
    cos, sin = fourier(recon, keep_from - 1)
    worst = max(abs(float(np.mean(recon))), float(np.max(np.hypot(cos, sin), initial=0.0)))
    scale = max(rms(recon), 1e-300)
    if not worst <= BAND_TOL * scale:
        return f"filtered reconstruction has {worst / scale:.3e} x rms below harmonic {keep_from}"
    return None


def spectrum_valid(report: dict, rows: np.ndarray, expected: np.ndarray) -> str | None:
    """Spectrum: rows k = 1..N hold the component energies, totals consistent."""
    order = expected.size
    if rows.shape != (order, 2) or np.any(rows[:, 0] != np.arange(1, order + 1)):
        return f"spectrum CSV does not hold k = 1..{order}"
    energy = rows[:, 1]
    if not np.allclose(energy, expected, rtol=1e-11, atol=1e-14 * float(expected.max(initial=0.0))):
        return "spectrum energies disagree with the coefficients"
    total = float(report["c0_sq"]) + float(energy.sum())
    if not math.isclose(total, float(report["total"]), rel_tol=1e-12, abs_tol=1e-300):
        return "spectrum total disagrees with its rows"
    return None
