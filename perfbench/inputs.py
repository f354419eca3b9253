"""Seeded input signals, built with numpy only."""

from __future__ import annotations

import numpy as np

NOISE = 1e-3


def random_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    """One period of a random signal: 1/k amplitude decay up to n/2 - 1, plus small noise.

    The harmonic part has unit-variance Gaussian coefficients over k, the mean
    is drawn from a standard normal, and white noise at ``NOISE`` times the
    signal's standard deviation is added on top.
    """
    k = np.arange(1, n // 2)
    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins[1 : n // 2] = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) / k
    x = np.fft.irfft(bins, n) * (n / 2) + rng.normal()
    return x + NOISE * x.std() * rng.normal(size=n)


def signal_csv(samples: np.ndarray) -> str:
    """The ``x,value`` CSV text genharm reads, floats written by ``repr``."""
    n = samples.size
    rows = "".join(f"{j / n!r},{float(v)!r}\n" for j, v in enumerate(samples))
    return "x,value\n" + rows
