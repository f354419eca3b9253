"""Sampled periodic signals on [0, 1) and exact discrete Fourier analysis.

A signal is one period of a real function, sampled uniformly at x_j = j/n.
All quadrature is the uniform-grid mean (rectangle rule), which is exact for
trigonometric polynomials below the Nyquist limit; higher modules reduce their
inner products either to this layer or to coefficient arithmetic on spectra.

Signals are stored as ``x,value`` CSV. ``files`` reads and writes that format;
this module adds what makes the rows a signal: an even count of at least 4,
abscissae on the grid x = j/n within 1e-12, and finite samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import (
    AliasingError,
    ConfigurationError,
    DimensionError,
    InvalidSignalError,
    _integer,
    _number,
    _numbers,
    _typed,
)
from .files import read_csv, write_csv

__all__ = [
    "PeriodicSignal",
    "FourierSpectrum",
    "sample_closed_form",
    "norm",
    "analyze_fourier",
    "synthesize_fourier",
    "read_signal_csv",
    "write_signal_csv",
]


def _frozen(values: np.ndarray) -> np.ndarray:
    """values seen through a read-only buffer, so no caller can make the array writeable again.

    Analysis plans are cached by basis identity, a signal's transform is kept
    with the signal, and results copy what they are given and share their
    arrays with no one, so these arrays must never change once built.
    """
    values = np.ascontiguousarray(values)
    return np.frombuffer(values.data.toreadonly(), values.dtype).reshape(values.shape)


def _refreeze(self, state: dict) -> None:
    """``__setstate__`` of the classes that keep ``_frozen`` arrays.

    ``pickle`` and ``copy.deepcopy`` hand the arrays back writeable; this
    freezes them again, so an unpickled or copied instance is as immutable
    as the one it came from.
    """
    for key, value in state.items():
        vars(self)[key] = _frozen(value) if isinstance(value, np.ndarray) else value


def _check_sample_count(n: int) -> int:
    """n as an int; a count that is odd or below 4 is an :class:`InvalidSignalError`."""
    n = _integer(n, "sample count", -math.inf)
    if n < 4 or n % 2 != 0:
        raise InvalidSignalError(f"sample count must be even and >= 4, got {n}")
    return n


def _samples(values, name: str) -> np.ndarray:
    """values as a float array by ``errors._numbers``; a value that is not a number is an InvalidSignalError."""
    try:
        return _numbers(values, name)
    except ConfigurationError as exc:
        raise InvalidSignalError(f"{name} must be a sequence of numbers") from exc


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """One period of a real signal, sampled at x_j = j/n for j = 0..n-1.

    Each sample is a number by ``errors._numbers``, so a string or a bool is
    refused, never parsed. The sample array is copied and frozen on
    construction, whoever builds the signal; instances are immutable and safe
    to share across threads. The signal's ``np.fft.rfft`` and its mean are
    computed on first use and kept, so every analysis of one signal shares
    one transform.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = _samples(self.samples, "samples")
        if samples.ndim != 1:
            raise InvalidSignalError("samples must be a one-dimensional sequence")
        _check_sample_count(samples.size)
        if not np.isfinite(samples).all():
            raise InvalidSignalError("samples contain non-finite values")
        object.__setattr__(self, "samples", _frozen(samples))

    __setstate__ = _refreeze

    @property
    def n(self) -> int:
        """Number of samples in one period."""
        return self.samples.size

    @property
    def grid(self) -> np.ndarray:
        """Sample abscissae x_j = j/n."""
        return np.arange(self.n) / self.n

    @cached_property
    def _rfft(self) -> np.ndarray:
        """The samples' ``np.fft.rfft`` bins 0..n/2."""
        return _frozen(np.fft.rfft(self.samples))

    @cached_property
    def _mean(self) -> float:
        """The samples' mean, c0 of every analysis of the signal."""
        return float(np.mean(self.samples))


def sample_closed_form(evaluator: Callable[[float], float], n: int) -> PeriodicSignal:
    """Sample ``evaluator`` at the n uniform grid points of [0, 1).

    The evaluator is called pointwise with each x_j; output that is not a
    number by ``errors._number``, or not finite, raises :class:`InvalidSignalError`.
    """
    n = _check_sample_count(n)
    values = _samples([evaluator(j / n) for j in range(n)], "evaluator values")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InvalidSignalError(f"evaluator returned a non-finite value at x={bad}/{n}")
    return PeriodicSignal(values)


def norm(f: PeriodicSignal) -> float:
    """Root mean square of the samples, sqrt((1/n) * sum_j f_j^2)."""
    _typed(f, PeriodicSignal, InvalidSignalError)
    return math.sqrt(float(f.samples @ f.samples) / f.n)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Mean plus per-harmonic sine/cosine coefficients of a periodic signal.

    ``a[i]`` and ``b[i]`` are the sine and cosine coefficients of harmonic
    i + 1, so the represented function is

        c0 + sum_k (a_k sin(2 pi k x) + b_k cos(2 pi k x)).
    """

    c0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c0, a, b = _number(self.c0, "c0"), _numbers(self.a, "a"), _numbers(self.b, "b")
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise DimensionError("sine and cosine coefficient arrays must be 1-d and equal length")
        if not (math.isfinite(c0) and np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidSignalError("spectrum contains non-finite coefficients")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    __setstate__ = _refreeze

    @property
    def max_harmonic(self) -> int:
        return self.a.size

    def terms(self) -> Iterator[tuple[int, float, float]]:
        """Yield (k, a_k, b_k) in strictly increasing harmonic order."""
        for i in range(self.a.size):
            yield i + 1, float(self.a[i]), float(self.b[i])


def analyze_fourier(f: PeriodicSignal, max_harmonic: int) -> FourierSpectrum:
    """Project onto the sine/cosine family up to ``max_harmonic``.

    c0 is the sample mean; a_k = 2<f, sin 2 pi k x> and b_k = 2<f, cos 2 pi k x>.
    Exact (to roundoff) whenever f is band-limited to n/2 - 1 harmonics.
    """
    _typed(f, PeriodicSignal, InvalidSignalError)
    max_harmonic = _integer(max_harmonic, "max_harmonic", 0)
    nyquist_band = f.n // 2 - 1
    if max_harmonic > nyquist_band:
        raise AliasingError(
            f"max harmonic {max_harmonic} exceeds representable band {nyquist_band} at n={f.n}"
        )
    c0, b_a = _fourier_coeffs(f, max_harmonic)
    return FourierSpectrum(c0, b_a[max_harmonic:], b_a[:max_harmonic])


def _fourier_coeffs(f: PeriodicSignal, max_harmonic: int) -> tuple:
    """f's mean c0 and [b_1..b_m, a_1..a_m], m = max_harmonic, read off its rfft.

    The coefficients come as one fresh array. Finite samples can still
    overflow in the transform, so a non-finite c0 or coefficient raises
    :class:`InvalidSignalError` here, before any analysis uses it.
    """
    bins = f._rfft
    c0 = bins[0].real / f.n
    b_a = np.empty(2 * max_harmonic)
    np.multiply(2.0 / f.n, bins.real[1 : max_harmonic + 1], out=b_a[:max_harmonic])
    np.multiply(-2.0 / f.n, bins.imag[1 : max_harmonic + 1], out=b_a[max_harmonic:])
    if not (math.isfinite(c0) and np.isfinite(b_a).all()):
        raise InvalidSignalError("spectrum contains non-finite coefficients")
    return c0, b_a


def synthesize_fourier(spec: FourierSpectrum, n: int) -> PeriodicSignal:
    """Evaluate the trigonometric polynomial of ``spec`` on the n-point grid."""
    n = _check_sample_count(n)
    if _typed(spec, FourierSpectrum).max_harmonic > n // 2 - 1:
        raise AliasingError(
            f"spectrum with max harmonic {spec.max_harmonic} needs more than n={n} samples"
        )
    return PeriodicSignal(np.fft.irfft(_bins(spec.c0, spec.b, spec.a, n), n))


def _bins(c0: float, b: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """The n-point rfft bins 0..n/2 of c0 + sum_k b_k cos(2 pi k x) + a_k sin(2 pi k x).

    Bin 0 is n c0 and bin k is (n/2)(b_k - i a_k), written part by part into
    one fresh complex array; bins past the coefficients, the Nyquist bin
    among them, are zero.
    """
    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins[0] = n * c0
    np.multiply(0.5 * n, b, out=bins.real[1 : b.size + 1])
    np.multiply(-0.5 * n, a, out=bins.imag[1 : a.size + 1])
    return bins


def write_signal_csv(f: PeriodicSignal, path) -> None:
    """Write the signal as ``x,value`` rows with x = j/n ascending."""
    _typed(f, PeriodicSignal, InvalidSignalError)
    xs = (np.arange(f.n) / f.n).tolist()
    write_csv(path, ("x", "value"), zip(xs, f.samples.tolist()))


def read_signal_csv(path) -> PeriodicSignal:
    """Read a ``x,value`` CSV, validating the uniform grid within 1e-12."""
    xs, values = read_csv(path, ("x", "value")).T
    n = values.size
    _check_sample_count(n)
    # a NaN abscissa compares false, so it is refused too
    if not np.max(np.abs(xs - np.arange(n) / n)) <= 1e-12:
        raise InvalidSignalError(f"{path}: grid is not uniform x=j/n within 1e-12")
    return PeriodicSignal(values)
