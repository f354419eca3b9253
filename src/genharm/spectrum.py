"""Generalized spectra, Parseval checks, and band filtering of decompositions.

The generalized spectrum assigns to each analysis frequency k the mean-square
power of its component A_k S(kx) + B_k R(kx) over one period. For a fully
orthogonal pair this reduces to (A_k^2 + B_k^2)/2 and the powers add up to the
signal power exactly; for generic pairs only the per-component energies are
reported, and filtering may break energy accounting, which is reported rather
than renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _layout
from .decompose import Decomposition, _rows
from .errors import ConfigurationError
from .files import write_csv
from .signals import FourierSpectrum

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

    ``entries`` holds (k, energy) for k = 1..N exactly once each, given as
    any (N, 2) sequence or array, copied and kept as a tuple of (int, float)
    tuples, whoever builds the spectrum.
    """

    entries: tuple
    c0_sq: float

    def __post_init__(self):
        table, entries = _rows(self.entries, 2, "spectrum entries", "(k, energy) pairs")
        energies = table[:, 1]
        if not (0.0 <= self.c0_sq < math.inf and ((0.0 <= energies) & (energies < math.inf)).all()):
            raise ConfigurationError("energies must be finite and nonnegative")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "c0_sq", float(self.c0_sq))

    def total(self) -> float:
        """c0_sq plus the sum of all component energies."""
        return self.c0_sq + sum(e for _, e in self.entries)


def parseval_power(spec: FourierSpectrum) -> float:
    """Mean power of the signal the spectrum represents.

    Equals c0^2 + (1/2) sum_k (a_k^2 + b_k^2), which matches norm(f)^2 for
    band-limited f.
    """
    return spec.c0 ** 2 + 0.5 * (float(spec.a @ spec.a) + float(spec.b @ spec.b))


def generalized_spectrum(d: Decomposition) -> GeneralizedSpectrum:
    """Energy of each component A_k S(kx) + B_k R(kx) over one period.

    Evaluated exactly in coefficient space, as half the squared norm of the
    component's column mix A_k Phi[:, (S,k)] + B_k Phi[:, (R,k)] of the
    synthesis operator. Dilation only moves coefficients to other harmonics,
    so the mix of the undilated Phi of the pair active at k has the same
    energy, and no harmonic is ever truncated:

        energy_k = (1/2) sum_q [(A_k s_q + B_k r_q)^2 + (A_k s'_q + B_k r'_q)^2]

    Only with a fully orthogonal pair do these energies plus c0^2 reproduce
    the signal power; in general the cross terms between components are not
    counted.
    """
    table = np.empty((d.order, 2))
    table[:, 0] = np.arange(1, d.order + 1)
    energies = table[:, 1]
    starts, layout = _layout(d.basis)
    cuts = [min(start, d.order + 1) - 1 for start in starts.tolist()] + [d.order]
    for members, lo, hi in zip(layout, cuts, cuts[1:]):
        s, r = members.reshape(2, -1)  # the undilated Phi's columns: cos then sin, q = 1..Q
        a, b = d._table[lo:hi, 1:].T
        mix = a[:, None] * s + b[:, None] * r
        energies[lo:hi] = 0.5 * np.einsum("kq,kq->k", mix, mix)
    try:
        c0_sq = d.c0 ** 2
    except OverflowError:
        c0_sq = math.inf  # refused with the other non-finite energies
    return GeneralizedSpectrum(table, c0_sq)


def band_filter(d: Decomposition, keep_from: int, keep_to: int) -> Decomposition:
    """Zero every component outside [keep_from, keep_to], and the mean with them.

    The band starts at keep_from >= 1, so the mean c0 never survives: the
    result is band-pass by construction. Energy is not renormalized; compare
    generalized spectra before and after if accounting matters.
    """
    if not (1 <= keep_from <= keep_to <= d.order):
        raise ConfigurationError(
            f"band [{keep_from}, {keep_to}] is empty or outside 1..{d.order}"
        )
    table = d._table.copy()
    table[: keep_from - 1, 1:] = 0.0
    table[keep_to:, 1:] = 0.0
    return Decomposition(0.0, table, d.basis, d.method, d.pruning, d.condition_estimate, d.warnings)


def write_spectrum_csv(spec: GeneralizedSpectrum, path) -> None:
    """Write ``k,energy`` rows in ascending k."""
    write_csv(path, ("k", "energy"), spec.entries)
