"""Sampled periodic signals on [0, 1) and exact discrete Fourier analysis.

A signal is one period of a real function, sampled uniformly at x_j = j/n.
All quadrature is the uniform-grid mean (rectangle rule), which is exact for
trigonometric polynomials below the Nyquist limit; higher modules reduce their
inner products either to this layer or to coefficient arithmetic on spectra.

An n-point grid represents harmonics 1..n/2 - 1: ``_band(n)`` is the one
statement of that limit, and ``_grid(n)`` of the abscissae j/n. Every band
check, band cap and grid in the library calls them.

Signals are stored as ``x,value`` CSV. ``files`` reads and writes that format;
this module adds what makes the rows a signal: an even count of at least 4,
abscissae on the grid x = j/n within 1e-12, and finite samples.

Inside the library a spectrum has one layout, the float view of (2/n) times
the samples' ``np.fft.rfft``: float 0 holds the mean c0, float 1 is zero, and
harmonic h holds b_h at float 2h and -a_h at float 2h+1, the rfft's own sign.
A signal computes this once (``PeriodicSignal._spectrum``), the synthesis
operator's rows index it directly, and only this module converts between it,
the samples (``_inverse``) and a ``FourierSpectrum`` (``_fourier``).
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


def _band(n: int) -> int:
    """The highest harmonic an n-point grid represents, n/2 - 1: the Nyquist bin is left out."""
    return n // 2 - 1


def _grid(n: int) -> np.ndarray:
    """The n abscissae x_j = j/n of the sampling grid."""
    return np.arange(n) / n


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
    to share across threads. The signal's spectrum is computed on first use
    and kept, so every analysis of one signal shares one transform.
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
        return _grid(self.n)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The n + 2 floats of (2/n) ``np.fft.rfft``, the samples' ``np.mean`` in float 0.

        This is the module's one spectrum layout: b_h at float 2h, -a_h at
        float 2h+1. Finite samples can still overflow in the transform, so a
        non-finite value raises :class:`InvalidSignalError` here, before any
        analysis uses it.
        """
        spectrum = np.fft.rfft(self.samples).view(float) * (2.0 / self.n)
        with np.errstate(over="ignore"):  # a mean past the float range is refused below
            spectrum[0] = np.mean(self.samples)
        if not np.isfinite(spectrum).all():
            raise InvalidSignalError("spectrum contains non-finite coefficients")
        return _frozen(spectrum)


def sample_closed_form(evaluator: Callable[[float], float], n: int) -> PeriodicSignal:
    """Sample ``evaluator`` at the n uniform grid points of [0, 1).

    The evaluator is called pointwise with each x_j; output that is not a
    number by ``errors._number``, or not finite, raises :class:`InvalidSignalError`.
    """
    n = _check_sample_count(n)
    values = _samples([evaluator(x) for x in _grid(n).tolist()], "evaluator values")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InvalidSignalError(f"evaluator returned a non-finite value at x={bad}/{n}")
    return PeriodicSignal(values)


def _sum_squares(values) -> float:
    """The sum of the squares of values, by a numpy reduction that is the same on every run.

    ``values @ values`` goes to BLAS, which may split a long sum across
    threads, so its last digit would depend on the thread count. A square
    past the float range makes the sum infinite, with no warning.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(np.square(values)))


def norm(f: PeriodicSignal) -> float:
    """Root mean square of the samples, sqrt((1/n) * sum_j f_j^2)."""
    _typed(f, PeriodicSignal, InvalidSignalError)
    return math.sqrt(_sum_squares(f.samples) / f.n)


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
    if max_harmonic > _band(f.n):
        raise AliasingError(
            f"max harmonic {max_harmonic} exceeds representable band {_band(f.n)} at n={f.n}"
        )
    return _fourier(f._spectrum, max_harmonic)


def _fourier(spectrum: np.ndarray, max_harmonic: int) -> FourierSpectrum:
    """The mean and harmonics 1..max_harmonic of a spectrum in the module's layout."""
    end = 2 * max_harmonic + 2
    return FourierSpectrum(spectrum[0], -spectrum[3:end:2], spectrum[2:end:2])


def synthesize_fourier(spec: FourierSpectrum, n: int) -> PeriodicSignal:
    """Evaluate the trigonometric polynomial of ``spec`` on the n-point grid."""
    n = _check_sample_count(n)
    if _typed(spec, FourierSpectrum).max_harmonic > _band(n):
        raise AliasingError(
            f"spectrum with max harmonic {spec.max_harmonic} needs more than n={n} samples"
        )
    spectrum = np.zeros(2 * spec.max_harmonic + 2)
    spectrum[0], spectrum[2::2], spectrum[3::2] = spec.c0, spec.b, -spec.a
    return PeriodicSignal(_inverse(spectrum, n))


def _inverse(spectrum: np.ndarray, n: int) -> np.ndarray:
    """The n samples of a spectrum in the module's layout, as one fresh array.

    The rfft bins are the floats times n/2, and bin 0 is n c0: they are
    written into one complex array, zero past the spectrum's end, the
    Nyquist bin among them, and go through one ``np.fft.irfft``.
    """
    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins.view(float)[: spectrum.size] = 0.5 * n * spectrum
    bins[0] = n * spectrum[0]
    return np.fft.irfft(bins, n)


def write_signal_csv(f: PeriodicSignal, path) -> None:
    """Write the signal as ``x,value`` rows with x = j/n ascending."""
    _typed(f, PeriodicSignal, InvalidSignalError)
    write_csv(path, ("x", "value"), zip(f.grid.tolist(), f.samples.tolist()))


def read_signal_csv(path) -> PeriodicSignal:
    """Read a ``x,value`` CSV, validating the uniform grid within 1e-12."""
    xs, values = read_csv(path, ("x", "value")).T
    # a NaN abscissa compares false, so it is refused too
    if not np.max(np.abs(xs - _grid(_check_sample_count(values.size)))) <= 1e-12:
        raise InvalidSignalError(f"{path}: grid is not uniform x=j/n within 1e-12")
    return PeriodicSignal(values)
