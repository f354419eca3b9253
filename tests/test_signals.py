"""Grid signals, trigonometric projection, and CSV round-trips."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genharm import (
    AliasingError,
    DimensionError,
    FourierSpectrum,
    InvalidSignalError,
    PeriodicSignal,
    analyze_fourier,
    norm,
    read_signal_csv,
    sample_closed_form,
    synthesize_fourier,
    write_signal_csv,
)
from genharm.files import write_csv
from genharm.signals import _band

from conftest import grid_inner


def test_signal_requires_even_count_of_at_least_four():
    with pytest.raises(InvalidSignalError):
        PeriodicSignal([1.0, 2.0])
    with pytest.raises(InvalidSignalError):
        PeriodicSignal([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(InvalidSignalError):
        PeriodicSignal([1.0, float("nan"), 0.0, 0.0])


def test_signal_samples_are_defensive_and_read_only():
    src = np.array([1.0, 2.0, 3.0, 4.0])
    f = PeriodicSignal(src)
    src[0] = 99.0
    assert f.samples[0] == 1.0
    with pytest.raises(ValueError):
        f.samples[0] = 0.0


def test_cached_transform_is_the_rfft_and_cannot_be_made_writeable():
    f = PeriodicSignal(np.random.default_rng(4).normal(size=16))
    bins = f._spectrum
    assert bins is f._spectrum  # computed once, then kept
    want = (2 / f.n) * np.fft.rfft(f.samples).view(float)  # b_h at 2h, -a_h at 2h+1
    want[0] = np.mean(f.samples)
    assert bins.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        bins[1] = 0.0
    with pytest.raises(ValueError):
        bins.setflags(write=True)


@pytest.mark.parametrize("n", [4, 6, 100, 4096, 4098])
def test_fourier_analysis_and_synthesis_are_the_rfft_bit_for_bit(n):
    f = PeriodicSignal(np.random.default_rng(n).normal(size=n))
    band = n // 2 - 1
    bins = np.fft.rfft(f.samples)[1 : band + 1]
    spec = analyze_fourier(f, band)
    assert spec.c0 == np.mean(f.samples)
    assert spec.b.tobytes() == ((2 / n) * bins.real).tobytes()
    assert spec.a.tobytes() == ((-2 / n) * bins.imag).tobytes()
    # bin 0 is n c0, bin k is (n/2)(b_k - i a_k), and the Nyquist bin is zero
    for m in (band, band // 2):
        part = FourierSpectrum(spec.c0, spec.a[:m], spec.b[:m])
        want = np.zeros(n // 2 + 1, dtype=complex)
        want[0] = n * part.c0
        want.real[1 : m + 1] = (n / 2) * part.b
        want.imag[1 : m + 1] = (-n / 2) * part.a
        assert synthesize_fourier(part, n).samples.tobytes() == np.fft.irfft(want, n).tobytes()


def test_grid_is_j_over_n():
    f = PeriodicSignal(np.zeros(8))
    assert np.array_equal(f.grid, np.arange(8) / 8)


def test_sample_closed_form_matches_pointwise():
    f = sample_closed_form(lambda x: math.cos(2 * math.pi * x), 16)
    expected = np.cos(2 * np.pi * np.arange(16) / 16)
    assert np.allclose(f.samples, expected, atol=1e-15)


def test_sample_closed_form_rejects_nonfinite_values():
    with pytest.raises(InvalidSignalError):
        sample_closed_form(lambda x: math.inf if x == 0.5 else 1.0, 8)


def test_norm_known_value():
    # <cos, cos> over a full period is 1/2 on any grid with n > 2
    f = sample_closed_form(lambda x: math.cos(2 * math.pi * x), 32)
    assert norm(f) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_discrete_harmonic_orthogonality():
    n = 64
    for k in range(1, 6):
        for m in range(1, 6):
            sk = sample_closed_form(lambda x, k=k: math.sin(2 * math.pi * k * x), n)
            sm = sample_closed_form(lambda x, m=m: math.sin(2 * math.pi * m * x), n)
            want = 0.5 if k == m else 0.0
            assert grid_inner(sk, sm) == pytest.approx(want, abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_norm_squared_is_self_inner_product(seed):
    rng = np.random.default_rng(seed)
    f = PeriodicSignal(rng.normal(size=32))
    assert norm(f) ** 2 == pytest.approx(grid_inner(f, f), rel=1e-15)


def test_spectrum_validation_and_iteration():
    spec = FourierSpectrum(1.5, [0.1, 0.2], [0.3, 0.4])
    assert spec.max_harmonic == 2
    assert list(spec.terms()) == [(1, 0.1, 0.3), (2, 0.2, 0.4)]
    with pytest.raises(DimensionError):
        FourierSpectrum(0.0, [0.1], [0.1, 0.2])
    with pytest.raises(InvalidSignalError):
        FourierSpectrum(float("inf"), [], [])


def test_projection_matches_quadrature_oracle():
    """The FFT path must agree with literal mean-based projection sums."""
    rng = np.random.default_rng(90)
    n = 128
    f = PeriodicSignal(rng.normal(size=n))
    spec = analyze_fourier(f, 10)
    x = np.arange(n) / n
    assert spec.c0 == pytest.approx(np.mean(f.samples), abs=1e-14)
    for k, a_k, b_k in spec.terms():
        a_direct = 2.0 * np.mean(f.samples * np.sin(2 * np.pi * k * x))
        b_direct = 2.0 * np.mean(f.samples * np.cos(2 * np.pi * k * x))
        assert a_k == pytest.approx(a_direct, abs=1e-13)
        assert b_k == pytest.approx(b_direct, abs=1e-13)


@given(
    k_max=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    oversample=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_recovers_spectrum(k_max, seed, oversample):
    rng = np.random.default_rng(seed)
    spec = FourierSpectrum(rng.normal(), rng.normal(size=k_max), rng.normal(size=k_max))
    n = 2 * (k_max + 1) * oversample
    back = analyze_fourier(synthesize_fourier(spec, n), k_max)
    assert back.c0 == pytest.approx(spec.c0, abs=1e-10)
    assert np.allclose(back.a, spec.a, atol=1e-10)
    assert np.allclose(back.b, spec.b, atol=1e-10)


def test_band_overflow_raises():
    # n = 16 represents harmonics 1..7; the eighth is the Nyquist bin
    f = PeriodicSignal(np.zeros(16))
    with pytest.raises(AliasingError):
        analyze_fourier(f, 8)
    analyze_fourier(f, 7)
    for harmonics in (1, 7):
        spec = FourierSpectrum(0.5, np.ones(harmonics), np.ones(harmonics))
        assert analyze_fourier(synthesize_fourier(spec, 16), harmonics).b == pytest.approx(spec.b, abs=1e-14)
    for harmonics in (8, 9, 10):
        with pytest.raises(AliasingError, match=f"max harmonic {harmonics} needs more than n=16"):
            synthesize_fourier(FourierSpectrum(0.0, np.zeros(harmonics), np.zeros(harmonics)), 16)


@pytest.mark.parametrize("n", [4, 6, 100, 4096])
def test_band_is_the_last_rfft_bin_below_nyquist(n):
    assert _band(n) == len(np.fft.rfftfreq(n)) - 2


def test_csv_round_trip_is_exact(tmp_path):
    # bit for bit, through CRLF line ends, and with blank lines between rows
    rng = np.random.default_rng(17)
    spread = rng.normal(size=28) * 10.0 ** rng.integers(-300, 300, 28)
    f = PeriodicSignal(np.concatenate([[-0.0, 5e-324, 1e300, -1e300], spread]))
    path = tmp_path / "sig.csv"
    write_signal_csv(f, path)
    text = path.read_bytes()
    assert text.startswith(b"x,value\r\n") and text.count(b"\r\n") == f.n + 1
    assert read_signal_csv(path).samples.tobytes() == f.samples.tobytes()
    path.write_bytes(text.replace(b"\r\n", b"\r\n\r\n"))
    assert read_signal_csv(path).samples.tobytes() == f.samples.tobytes()


@pytest.mark.parametrize(
    "samples",
    [[0.25, -1.5, 3.0, 1e-3], [-0.0, 5e-324, 1e300, -1e300]],
    ids=["plain", "extremes"],
)
def test_csv_bytes_match_a_csv_writer_reference(tmp_path, samples):
    f = PeriodicSignal(samples)
    v = f.samples.tolist()
    files = {
        "signal": (["x", "value"], [(j / f.n, value) for j, value in enumerate(v)]),
        "spectrum": (["k", "energy"], [(k + 1, abs(value)) for k, value in enumerate(v)]),
        "compare": (["k", "A_direct", "B_direct", "A_indirect", "B_indirect"],
                    [(k + 1, value, -value, v[k - 1], 0.0) for k, value in enumerate(v)]),
        "fourier": (["k", "a", "b"], [(0, 0.0, v[0])] + [(k, -value, value) for k, value in
                                                         enumerate(v[1:], 1)]),
    }
    for name, (header, rows) in files.items():
        reference = tmp_path / f"{name}.reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        path = tmp_path / f"{name}.csv"
        if name == "signal":
            write_signal_csv(f, path)
        else:
            write_csv(path, header, rows)
        assert path.read_bytes() == reference.read_bytes(), name


def test_csv_rejects_bad_inputs(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,val\n0.0,1.0\n")
    with pytest.raises(InvalidSignalError):
        read_signal_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("x,value\n0.0,1.0,extra\n")
    with pytest.raises(InvalidSignalError):
        read_signal_csv(bad_row)

    non_numeric = tmp_path / "n.csv"
    non_numeric.write_text("x,value\n0.0,one\n")
    with pytest.raises(InvalidSignalError):
        read_signal_csv(non_numeric)

    skewed = tmp_path / "g.csv"
    skewed.write_text("x,value\n" + "".join(f"{j/8 + (1e-6 if j == 3 else 0.0)},1.0\n" for j in range(8)))
    with pytest.raises(InvalidSignalError):
        read_signal_csv(skewed)

    # a NaN abscissa compares false against the tolerance, so it must not pass
    nan_grid = tmp_path / "nan.csv"
    nan_grid.write_text("x,value\n" + "nan,1.0\n" * 8)
    with pytest.raises(InvalidSignalError):
        read_signal_csv(nan_grid)

    # forms no genharm writer emits: a quoted field, a comment row, no rows;
    # each is refused without a warning on the way
    grid = "".join(f"{j/4},1.0\n" for j in range(4))
    for name, text in [
        ("quoted", "x,value\n" + grid.replace("0.5,", '"0.5",')),
        ("comment", "x,value\n# sampled at j/4\n" + grid),
        ("header_only", "x,value\n"),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with warnings.catch_warnings(), pytest.raises(InvalidSignalError):
            warnings.simplefilter("error")
            read_signal_csv(path)
