"""Generalized spectra, Parseval checks, and band filtering of decompositions.

The generalized spectrum assigns to each analysis frequency k the mean-square
power of its component A_k S(kx) + B_k R(kx) over one period, read in O(1)
per component off the 2x2 factor ``basis._layout`` keeps for the pair active
at k. For a fully orthogonal pair this reduces to (A_k^2 + B_k^2)/2 and the
powers add up to the signal power exactly; for generic pairs only the
per-component energies are reported, and filtering may break energy
accounting, which is reported rather than renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _active, _layout
from .decompose import Decomposition, _rows
from .errors import ConfigurationError, _integer, _real, _typed
from .files import write_csv
from .signals import FourierSpectrum, _refreeze, _sum_squares

__all__ = [
    "GeneralizedSpectrum",
    "parseval_power",
    "generalized_spectrum",
    "band_filter",
    "write_spectrum_csv",
]


@dataclass(frozen=True, eq=False)
class GeneralizedSpectrum:
    """Per-frequency component energies of a decomposition, plus c0 squared.

    ``entries`` holds the rows [k, energy] for k = 1..N exactly once each,
    given as any (N, 2) sequence or array and kept as a read-only (N, 2)
    float array, whoever builds the spectrum.
    """

    entries: np.ndarray
    c0_sq: float

    def __post_init__(self):
        entries = _rows(self.entries, ("k", "energy"), "spectrum entries", "(k, energy) pairs")
        energies = entries[:, 1]
        c0_sq = _real(self.c0_sq, "c0_sq")
        if not (0.0 <= c0_sq and ((0.0 <= energies) & (energies < math.inf)).all()):
            raise ConfigurationError("energies must be finite and nonnegative")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "c0_sq", c0_sq)

    __setstate__ = _refreeze

    def total(self) -> float:
        """c0_sq plus the sum of all component energies, added left to right."""
        return self.c0_sq + sum(self.entries[:, 1].tolist())


def parseval_power(spec: FourierSpectrum) -> float:
    """Mean power of the signal the spectrum represents.

    Equals c0^2 + (1/2) sum_k (a_k^2 + b_k^2), which matches norm(f)^2 for
    band-limited f.
    """
    _typed(spec, FourierSpectrum)
    return _sum_squares(spec.c0) + 0.5 * (_sum_squares(spec.a) + _sum_squares(spec.b))


def generalized_spectrum(d: Decomposition) -> GeneralizedSpectrum:
    """Energy of each component A_k S(kx) + B_k R(kx) over one period.

    Evaluated exactly in coefficient space, as half the squared norm of the
    component's column mix A_k Phi[:, (S,k)] + B_k Phi[:, (R,k)] of the
    synthesis operator. Dilation only moves coefficients to other harmonics,
    so the mix of the undilated Phi of the pair active at k has the same
    energy, and no harmonic is ever truncated. With R that Phi's 2x2 QR
    factor, which ``basis._layout`` keeps, each energy is a sum of squares:

        energy_k = (1/2) sum_q [(A_k s_q + B_k r_q)^2 + (A_k s'_q + B_k r'_q)^2]
                 = (1/2) [(R_00 A_k + R_01 B_k)^2 + (R_11 B_k)^2]

    Only with a fully orthogonal pair do these energies plus c0^2 reproduce
    the signal power; in general the cross terms between components are not
    counted.
    """
    starts, _, factor = _layout(_typed(d, Decomposition).basis)
    k, a, b = d.coeffs.T
    (r00, r01), (_, r11) = factor[_active(starts, k)].transpose(1, 2, 0)
    table = d.coeffs[:, :2].copy()  # k, then each energy in place of A_k
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range is refused
        table[:, 1] = 0.5 * ((r00 * a + r01 * b) ** 2 + (r11 * b) ** 2)
        c0_sq = np.square(d.c0)
    return GeneralizedSpectrum(table, c0_sq)


def band_filter(d: Decomposition, keep_from: int, keep_to: int) -> Decomposition:
    """Zero every component outside [keep_from, keep_to], and the mean with them.

    The band starts at keep_from >= 1, so the mean c0 never survives: the
    result is band-pass by construction. Energy is not renormalized; compare
    generalized spectra before and after if accounting matters.
    """
    keep_from = _integer(keep_from, "keep_from", 1, _typed(d, Decomposition).order)
    keep_to = _integer(keep_to, "keep_to", keep_from, d.order)
    table = d.coeffs.copy()
    table[: keep_from - 1, 1:] = 0.0
    table[keep_to:, 1:] = 0.0
    return Decomposition(0.0, table, d.basis, d.method, d.pruning, d.condition_estimate)


def write_spectrum_csv(spec: GeneralizedSpectrum, path) -> None:
    """Write ``k,energy`` rows in ascending k."""
    _typed(spec, GeneralizedSpectrum)
    write_csv(path, ("k", "energy"), enumerate(spec.entries[:, 1].tolist(), start=1))
