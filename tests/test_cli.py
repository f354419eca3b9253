"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genharm
from genharm import (
    BasisFunction,
    BasisPair,
    BasisSchedule,
    builtin_basis,
    load_decomposition,
    read_signal_csv,
    save_basis,
    save_schedule,
    write_signal_csv,
)
from genharm.cli import main

from conftest import in_span_signal, random_bandlimited


@pytest.fixture
def workdir(tmp_path, builtin_pairs):
    """A directory holding a signal CSV, a saved pair, and a schedule."""
    rng = np.random.default_rng(77)
    f, _ = in_span_signal(builtin_pairs["square_saw"], rng, 8, 512, c0=0.25)
    write_signal_csv(f, tmp_path / "signal.csv")
    save_basis(builtin_pairs["square_saw"], tmp_path / "pair.json")
    diverging = BasisPair(
        BasisFunction([1.0, 1.1], [0.0, 0.0]),
        BasisFunction([0.0], [1.0]),
        "diverging",
    )
    save_schedule(
        BasisSchedule(((1, diverging), (4, builtin_pairs["sine_cosine"]))),
        tmp_path / "schedule.json",
    )
    dependent = BasisPair(BasisFunction([1.0], [2.0]), BasisFunction([0.5], [1.0]), "dep")
    save_basis(dependent, tmp_path / "dependent.json")
    return tmp_path


def test_check_basis_passing_pair(workdir, capsys):
    code = main(
        ["check-basis", "--basis", "square_saw", "--order", "8",
         "--json-out", str(workdir / "report.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "independence: pass" in out
    assert "convergence: pass" in out
    assert "orthogonality: horizontal orthogonal, vertical non_orthogonal" in out
    assert "frame bounds (N=8)" in out
    report = json.loads((workdir / "report.json").read_text())
    assert report["independence"]["passed"] is True
    assert report["convergence"]["passed"] is True
    assert report["frame_bounds"]["lower"] > 0


def test_check_basis_failing_pair_exits_two(workdir, capsys):
    code = main(["check-basis", "--basis", str(workdir / "dependent.json")])
    assert code == 2
    assert "independence: fail" in capsys.readouterr().out


def test_analyze_reports_residual_and_writes_files(workdir, capsys):
    code = main(
        ["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
         "--order", "8", "--out", str(workdir / "dec.json"),
         "--recon-out", str(workdir / "recon.csv")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "residual norm:" in out
    assert "noise starts at: none within band" in out
    d = load_decomposition(workdir / "dec.json")
    assert d.order == 8
    recon = read_signal_csv(workdir / "recon.csv")
    original = read_signal_csv(workdir / "signal.csv")
    assert np.max(np.abs(recon.samples - original.samples)) < 1e-10


def test_analyze_direct_method_flag(workdir, capsys):
    code = main(
        ["analyze", "--in", str(workdir / "signal.csv"), "--basis",
         str(workdir / "pair.json"), "--method", "direct", "--pruning", "lcm",
         "--order", "6", "--out", str(workdir / "dd.json")]
    )
    assert code == 0
    d = load_decomposition(workdir / "dd.json")
    assert d.method == "direct"
    assert d.pruning == "lcm"
    assert d.condition_estimate is not None


def test_analyze_over_schedule(workdir, capsys):
    rng = np.random.default_rng(5)
    f = random_bandlimited(rng, 8, 512, c0=0.0)
    write_signal_csv(f, workdir / "wide.csv")
    code = main(
        ["analyze", "--in", str(workdir / "wide.csv"), "--schedule",
         str(workdir / "schedule.json"), "--order", "8",
         "--out", str(workdir / "md.json")]
    )
    assert code == 0
    assert "noise starts at: none within band" in capsys.readouterr().out


def test_schedule_refuses_direct_method(workdir, capsys):
    code = main(
        ["analyze", "--in", str(workdir / "signal.csv"), "--schedule",
         str(workdir / "schedule.json"), "--method", "direct",
         "--order", "8", "--out", str(workdir / "x.json")]
    )
    assert code == 2
    assert "indirect" in capsys.readouterr().err


def test_reconstruct_round_trips_through_files(workdir, capsys):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "8", "--out", str(workdir / "dec.json")])
    code = main(["reconstruct", "--in", str(workdir / "dec.json"),
                 "--samples", "512", "--out", str(workdir / "back.csv")])
    assert code == 0
    back = read_signal_csv(workdir / "back.csv")
    original = read_signal_csv(workdir / "signal.csv")
    assert np.max(np.abs(back.samples - original.samples)) < 1e-10


def test_spectrum_writes_csv_and_summary(workdir, capsys):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "8", "--out", str(workdir / "dec.json")])
    code = main(["spectrum", "--in", str(workdir / "dec.json"),
                 "--out", str(workdir / "spec.csv"),
                 "--json-out", str(workdir / "spec.json")])
    assert code == 0
    lines = (workdir / "spec.csv").read_text().splitlines()
    assert lines[0] == "k,energy"
    assert len(lines) == 9
    summary = json.loads((workdir / "spec.json").read_text())
    assert set(summary) == {"total", "c0_sq", "parseval_lhs"}
    assert summary["c0_sq"] == pytest.approx(0.0625, rel=1e-9)
    # the sidecar's left side is the measured power of the reconstruction
    main(["reconstruct", "--in", str(workdir / "dec.json"), "--samples", "4096",
          "--out", str(workdir / "rr.csv")])
    rr = read_signal_csv(workdir / "rr.csv")
    assert summary["parseval_lhs"] == pytest.approx(
        float(np.mean(rr.samples**2)), abs=1e-10
    )


def test_filter_band_and_errors(workdir, capsys):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "8", "--out", str(workdir / "dec.json")])
    code = main(["filter", "--in", str(workdir / "dec.json"), "--keep-from", "2",
                 "--keep-to", "5", "--out", str(workdir / "band.json")])
    assert code == 0
    kept = load_decomposition(workdir / "band.json")
    assert kept.c0 == 0.0
    assert kept.coeffs[0][1] == 0.0
    assert kept.coeffs[1][1] != 0.0

    code = main(["filter", "--in", str(workdir / "dec.json"), "--keep-from", "5",
                 "--keep-to", "99", "--out", str(workdir / "bad.json")])
    assert code == 2
    code = main(["filter", "--in", str(workdir / "dec.json"),
                 "--out", str(workdir / "bad.json")])
    assert code == 2


@pytest.mark.parametrize(
    "field, raw",
    [("basis", '"square_saw"'), ("pruning", '"bogus"'), ("condition_estimate", "NaN")],
)
def test_malformed_decomposition_exits_one_without_traceback(workdir, field, raw):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "4", "--method", "direct", "--out", str(workdir / "dec.json")])
    data = json.loads((workdir / "dec.json").read_text())
    data[field] = "placeholder"
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data).replace('"placeholder"', raw))
    env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "genharm.cli", "filter", "--in", str(bad),
         "--keep-from", "1", "--keep-to", "2", "--out", str(workdir / "out.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (workdir / "out.json").exists()


_NO_SCIPY_SCRIPT = """
import sys
from genharm.cli import main

work = sys.argv[1]
runs = [
    ["analyze", "--in", f"{work}/signal.csv", "--basis", "square_saw", "--order", "8",
     "--samples", "512", "--out", f"{work}/dec.json", "--recon-out", f"{work}/recon.csv"],
    ["spectrum", "--in", f"{work}/dec.json", "--samples", "512",
     "--out", f"{work}/spec.csv", "--json-out", f"{work}/spec.json"],
    ["reconstruct", "--in", f"{work}/dec.json", "--samples", "512", "--out", f"{work}/r.csv"],
    ["filter", "--in", f"{work}/dec.json", "--keep-from", "2", "--keep-to", "5",
     "--samples", "512", "--out", f"{work}/filtered.json", "--recon-out", f"{work}/f.csv"],
]
codes = [main(argv) for argv in runs]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
direct = main(["analyze", "--in", f"{work}/signal.csv", "--basis", "square_saw", "--order",
               "8", "--samples", "512", "--method", "direct", "--out", f"{work}/direct.json"])
print(codes, loaded, direct)
"""


def test_only_the_direct_method_loads_scipy(workdir):
    env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(workdir)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] [] 0"
    assert (workdir / "recon.csv").read_bytes() == (workdir / "r.csv").read_bytes()


def test_compare_columns_match_for_orthogonal_basis(workdir, capsys):
    code = main(["compare", "--in", str(workdir / "signal.csv"), "--basis",
                 "sine_cosine", "--order", "6", "--out", str(workdir / "cmp.csv"),
                 "--json-out", str(workdir / "cmp.json")])
    assert code == 0
    lines = (workdir / "cmp.csv").read_text().splitlines()
    assert lines[0] == "k,A_direct,B_direct,A_indirect,B_indirect"
    assert len(lines) == 7
    for line in lines[1:]:
        _, a_d, b_d, a_i, b_i = line.split(",")
        assert abs(float(a_d) - float(a_i)) < 1e-9
        assert abs(float(b_d) - float(b_i)) < 1e-9
    summary = json.loads((workdir / "cmp.json").read_text())
    assert summary["rms_direct"] == pytest.approx(summary["rms_indirect"], abs=1e-9)


def test_fourier_emits_mean_and_harmonics(workdir):
    code = main(["fourier", "--in", str(workdir / "signal.csv"), "--order", "6",
                 "--out", str(workdir / "four.csv")])
    assert code == 0
    lines = (workdir / "four.csv").read_text().splitlines()
    assert lines[0] == "k,a,b"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(0.25, abs=1e-12)
    assert len(lines) == 8


def test_reanalyzing_a_reconstruction_reproduces_coefficients(workdir, capsys):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "8", "--out", str(workdir / "d1.json")])
    main(["reconstruct", "--in", str(workdir / "d1.json"), "--samples", "512",
          "--out", str(workdir / "r1.csv")])
    main(["analyze", "--in", str(workdir / "r1.csv"), "--basis", "square_saw",
          "--order", "8", "--out", str(workdir / "d2.json")])
    d1 = load_decomposition(workdir / "d1.json")
    d2 = load_decomposition(workdir / "d2.json")
    assert d2.c0 == pytest.approx(d1.c0, abs=1e-9)
    for (k, A, B), (_, A2, B2) in zip(d1.coeffs, d2.coeffs):
        assert A2 == pytest.approx(A, abs=1e-9)
        assert B2 == pytest.approx(B, abs=1e-9)
    capsys.readouterr()


def test_outputs_are_byte_identical_across_runs(workdir):
    args = ["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
            "--order", "8"]
    main(args + ["--out", str(workdir / "a.json")])
    main(args + ["--out", str(workdir / "b.json")])
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_load_phase_failures_exit_one(workdir, capsys):
    assert main(["analyze", "--in", str(workdir / "nope.csv"), "--basis",
                 "square_saw", "--out", str(workdir / "x.json")]) == 1
    assert main(["analyze", "--in", str(workdir / "signal.csv"), "--basis",
                 "wavelet", "--out", str(workdir / "x.json")]) == 1
    bad = workdir / "bad.csv"
    bad.write_text("wrong,header\n0.0,1.0\n")
    assert main(["analyze", "--in", str(bad), "--basis", "square_saw",
                 "--out", str(workdir / "x.json")]) == 1
    notjson = workdir / "notjson.json"
    notjson.write_text("{oops")
    assert main(["reconstruct", "--in", str(notjson),
                 "--out", str(workdir / "x.csv")]) == 1
    assert main(["analyze", "--basis", "square_saw",
                 "--out", str(workdir / "x.json")]) == 1
    capsys.readouterr()


def test_domain_failures_exit_two(workdir, capsys):
    # dependent basis
    assert main(["analyze", "--in", str(workdir / "signal.csv"), "--basis",
                 str(workdir / "dependent.json"), "--order", "4",
                 "--out", str(workdir / "x.json")]) == 2
    # order beyond the band of the input grid
    assert main(["analyze", "--in", str(workdir / "signal.csv"), "--basis",
                 "square_saw", "--order", "400", "--samples", "4096",
                 "--out", str(workdir / "x.json")]) == 2
    # malformed run shape
    assert main(["analyze", "--in", str(workdir / "signal.csv"), "--basis",
                 "square_saw", "--samples", "7",
                 "--out", str(workdir / "x.json")]) == 2
    # missing output path is a configuration problem, not an IO failure
    assert main(["analyze", "--in", str(workdir / "signal.csv"),
                 "--basis", "square_saw"]) == 2
    capsys.readouterr()
