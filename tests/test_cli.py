"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genharm
from genharm import (
    BasisFunction,
    BasisPair,
    BasisSchedule,
    ConfigurationError,
    Decomposition,
    builtin_basis,
    decomposition_from_dict,
    load_decomposition,
    pair_to_dict,
    read_signal_csv,
    save_basis,
    save_decomposition,
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
    save_basis(
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


def test_check_basis_reports_at_the_requested_order(workdir, capsys):
    code = main(["check-basis", "--basis", "square_saw", "--order", "40",
                 "--json-out", str(workdir / "r.json")])
    assert code == 0
    assert "frame bounds (N=40)" in capsys.readouterr().out
    report = json.loads((workdir / "r.json").read_text())
    assert report["frame_bounds"]["order"] == 40
    assert report["orthogonality"]["k_max"] == 40


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
        ["analyze", "--in", str(workdir / "wide.csv"), "--basis",
         str(workdir / "schedule.json"), "--order", "8",
         "--out", str(workdir / "md.json")]
    )
    assert code == 0
    assert "noise starts at: none within band" in capsys.readouterr().out


def test_schedule_runs_the_direct_method_and_compare(workdir, capsys):
    common = ["--in", str(workdir / "signal.csv"), "--basis",
              str(workdir / "schedule.json"), "--order", "8"]
    code = main(["analyze", *common, "--method", "direct", "--out", str(workdir / "x.json")])
    assert code == 0
    d = load_decomposition(workdir / "x.json")
    assert d.method == "direct"
    assert (d.pair_at(3).label, d.pair_at(4).label) == ("diverging", "sine_cosine")
    assert main(["compare", *common, "--out", str(workdir / "cmp.csv")]) == 0
    rows = (workdir / "cmp.csv").read_text().splitlines()
    assert rows[0] == "k,A_direct,B_direct,A_indirect,B_indirect"
    assert [row.split(",")[0] for row in rows[1:]] == [str(k) for k in range(1, 9)]
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flags",
    [
        # a dependent pair would get through the gate and divide by zero
        ("analyze", ["--phase-s", "0", "--phase-r", "0", "--eps-ind", "-1"]),
        ("analyze", ["--eps-ind", "nan"]),
        ("analyze", ["--residual-tol", "inf"]),
        ("check-basis", ["--eps-conv", "-1"]),
    ],
)
def test_out_of_range_tolerances_exit_two(workdir, command, flags):
    io = ["--in", str(workdir / "signal.csv"), "--out", str(workdir / "x.json")]
    argv = [command, "--basis", "square_saw", *(io if command == "analyze" else []), *flags]
    env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "genharm.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"{flags[-2]} must be finite and >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


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
    [("basis", '"square_saw"'), ("pruning", '"bogus"'), ("condition_estimate", "NaN"),
     ("warnings", "[NaN]")],
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


@pytest.mark.parametrize("warnings", ["abc", {"x": 1}, [1]])
def test_warnings_other_than_a_list_of_strings_exit_one_without_traceback(workdir, warnings):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "4", "--out", str(workdir / "dec.json")])
    data = json.loads((workdir / "dec.json").read_text())
    data["warnings"] = warnings
    with pytest.raises(ConfigurationError, match="warnings must be"):
        decomposition_from_dict(data)
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "genharm.cli", "spectrum", "--in", str(bad),
         "--out", str(workdir / "spec.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (workdir / "spec.csv").exists()


_NO_SCIPY_SCRIPT = """
import sys
from genharm.cli import _COMMANDS, main

work = sys.argv[1]
signal = ["--in", f"{work}/signal.csv", "--basis", "square_saw", "--order", "8",
          "--samples", "512"]
runs = [
    ["analyze", *signal, "--out", f"{work}/dec.json", "--recon-out", f"{work}/recon.csv"],
    ["analyze", *signal, "--method", "direct", "--out", f"{work}/direct.json"],
    ["analyze", "--in", f"{work}/signal.csv", "--basis", f"{work}/schedule.json",
     "--order", "8", "--method", "direct", "--pruning", "none", "--out", f"{work}/sd.json"],
    ["compare", *signal, "--out", f"{work}/cmp.csv", "--json-out", f"{work}/cmp.json"],
    ["check-basis", "--basis", "square_saw", "--order", "8", "--json-out", f"{work}/check.json"],
    ["fourier", "--in", f"{work}/signal.csv", "--order", "8", "--out", f"{work}/four.csv"],
    ["spectrum", "--in", f"{work}/dec.json", "--samples", "512",
     "--out", f"{work}/spec.csv", "--json-out", f"{work}/spec.json"],
    ["reconstruct", "--in", f"{work}/direct.json", "--samples", "512", "--out", f"{work}/r.csv"],
    ["reconstruct", "--in", f"{work}/dec.json", "--samples", "512", "--out", f"{work}/r2.csv"],
    ["filter", "--in", f"{work}/dec.json", "--keep-from", "2", "--keep-to", "5",
     "--samples", "512", "--out", f"{work}/filtered.json", "--recon-out", f"{work}/f.csv"],
]
codes = [main(argv) for argv in runs]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
untried = sorted(set(_COMMANDS) - {argv[0] for argv in runs})
print(codes, loaded, untried)
"""


def test_no_command_loads_scipy(workdir):
    env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(workdir)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] [] []"
    assert (workdir / "recon.csv").read_bytes() == (workdir / "r2.csv").read_bytes()
    # nor does any module of the library, even lazily inside a function
    importers = []
    for source in sorted(Path(genharm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in modules):
                importers.append(f"{source.name}:{node.lineno}")
    assert importers == []


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
    signal = str(workdir / "signal.csv")
    for name, content in [
        ("bad.csv", b"wrong,header\n0.0,1.0\n"),
        ("notjson.json", b"{oops"),
        ("latin1.json", b'{"label": "caf\xe9"}'),
        ("deep.json", b"[" * 100000 + b"]" * 100000),
        ("latin1.csv", b"x,value\n0.0,caf\xe9\n"),
        ("long.csv", b"x,value\n0.0," + b"1" * 200000 + b"\n"),
        ("deep_builtin.json", b'{"segments": [{"start_k": 1, "basis": '
                              b'{"builtin": "square", "depth": 1e11}}]}'),
    ]:
        (workdir / name).write_bytes(content)
    out = ["--out", str(workdir / "x.out")]
    cases = [
        ["analyze", "--in", str(workdir / "nope.csv"), "--basis", "square_saw", *out],
        ["analyze", "--in", signal, "--basis", "wavelet", *out],
        ["analyze", "--in", str(workdir / "bad.csv"), "--basis", "square_saw", *out],
        ["reconstruct", "--in", str(workdir / "notjson.json"), *out],
        ["analyze", "--basis", "square_saw", *out],
        # undecodable files: not UTF-8, nested past the recursion limit, a
        # field past the csv module's size limit
        ["reconstruct", "--in", str(workdir / "latin1.json"), *out],
        ["check-basis", "--basis", str(workdir / "latin1.json")],
        ["analyze", "--in", signal, "--basis", str(workdir / "latin1.json"), *out],
        ["spectrum", "--in", str(workdir / "deep.json"), *out],
        ["analyze", "--in", str(workdir / "latin1.csv"), "--basis", "square_saw", *out],
        ["fourier", "--in", str(workdir / "long.csv"), *out],
        # a builtin depth past MAX_DEPTH, whose member and Phi arrays could
        # exhaust memory
        ["analyze", "--in", signal, "--basis", str(workdir / "deep_builtin.json"), *out],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_unusable_phases_and_starts_are_refused(workdir, capsys):
    signal = str(workdir / "signal.csv")
    out = ["--out", str(workdir / "x.json")]
    # on the command line a phase is checked like --depth: exit 2
    for flag, value in (("--phase-s", "nan"), ("--phase-r", "inf")):
        assert main(["analyze", "--in", signal, "--basis", "square_saw", flag, value, *out]) == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    # in a schedule file it makes the file unusable: exit 1
    for name, second in [
        ("inf_phase.json", '{"start_k": 4, "basis": {"builtin": "square", "phase_s": 1e999}}'),
        ("string_phase.json", '{"start_k": 4, "basis": {"builtin": "square", "phase_s": "0.25"}}'),
        ("bool_phase.json", '{"start_k": 4, "basis": {"builtin": "square", "phase_r": true}}'),
        ("fractional.json", '{"start_k": 4.7, "basis": {"builtin": "square"}}'),
    ]:
        (workdir / name).write_text(
            '{"segments": [{"start_k": 1, "basis": {"builtin": "square_saw"}}, ' + second + "]}"
        )
        assert main(["analyze", "--in", signal, "--basis", str(workdir / name), *out]) == 1
        assert capsys.readouterr().err.startswith("error: "), name


@pytest.mark.parametrize("k, shown", [
    ("1.5", "coefficients must cover k = 1..N exactly once, ascending"),
    ("true", "k must be a number, got True"),
    ('"1"', "k must be a number, got '1'"),
])
def test_non_integral_coefficient_index_is_refused(workdir, capsys, k, shown):
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "4", "--out", str(workdir / "dec.json")])
    text = (workdir / "dec.json").read_text()
    assert text.count('"k": 1,') == 1
    (workdir / "bad.json").write_text(text.replace('"k": 1,', f'"k": {k},'))
    capsys.readouterr()
    argv = ["reconstruct", "--in", str(workdir / "bad.json"), "--out", str(workdir / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(shown + "\n")
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("field, value, shown", [
    ("A", "2.5", "A_k must be a number, got '2.5'"),
    ("B", False, "B_k must be a number, got False"),
    ("c0", True, "c0 must be a number, got True"),
    ("condition_estimate", "1.0", "condition estimate must be a number, got '1.0'"),
])
def test_decomposition_file_values_given_as_strings_or_bools_exit_one(workdir, capsys, field, value, shown):
    # "A": "2.5" and "c0": true used to load as 2.5 and 1.0
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "4", "--out", str(workdir / "dec.json")])
    data = json.loads((workdir / "dec.json").read_text())
    data["condition_estimate"] = 1.0
    (data["coefficients"][0] if field in ("A", "B") else data)[field] = value
    (workdir / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    argv = ["reconstruct", "--in", str(workdir / "bad.json"), "--out", str(workdir / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(shown + "\n")
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("value", ["0.5", True])
def test_basis_file_coefficients_given_as_strings_or_bools_exit_one(workdir, capsys, value):
    # a basis file with "cos": ["0.5", ...] used to load as 0.5
    save_basis(builtin_basis("square_saw", depth=4), workdir / "pair.json")
    data = json.loads((workdir / "pair.json").read_text())
    data["S"]["cos"][0] = value
    (workdir / "bad.json").write_text(json.dumps(data))
    argv = ["analyze", "--in", str(workdir / "signal.csv"), "--basis", str(workdir / "bad.json"),
            "--order", "4", "--out", str(workdir / "x.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"cosine coefficients must be a number, got {value!r}\n")
    assert not (workdir / "x.json").exists()


@pytest.mark.parametrize("label", [True, 5, None, {"a": 1}])
def test_basis_file_labels_that_are_not_strings_exit_one(workdir, capsys, label):
    # "label": true used to load as the label "True", and null as "None"
    data = pair_to_dict(builtin_basis("square_saw", depth=4))
    (workdir / "bad.json").write_text(json.dumps({**data, "label": label}))
    assert main(["check-basis", "--basis", str(workdir / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"a basis label must be a string, got {type(label).__name__}\n")


@pytest.mark.parametrize("segment, shown", [
    ('{"start_k": "1", "basis": {"builtin": "square_saw"}}', "start_k must be an integer, got '1'"),
    ('{"start_k": 1, "basis": {"builtin": "square_saw", "depth": "8"}}',
     "depth must be an integer, got '8'"),
])
def test_schedule_integers_given_as_json_strings_exit_one(workdir, capsys, segment, shown):
    (workdir / "strings.json").write_text('{"segments": [' + segment + "]}")
    argv = ["analyze", "--in", str(workdir / "signal.csv"), "--basis",
            str(workdir / "strings.json"), "--out", str(workdir / "x.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(shown + "\n")


def test_custom_basis_without_evaluators_exits_two(capsys):
    # a builtin is built by the library, outside the loader: its refusal is a domain failure
    assert main(["check-basis", "--basis", "custom"]) == 2
    assert "custom basis requires s_eval and r_eval" in capsys.readouterr().err


def test_fractional_schedule_depth_is_refused(workdir, capsys):
    (workdir / "depth.json").write_text(
        '{"segments": [{"start_k": 1, "basis": {"builtin": "square_saw", "depth": 4.7}}]}'
    )
    argv = ["analyze", "--in", str(workdir / "signal.csv"), "--basis",
            str(workdir / "depth.json"), "--out", str(workdir / "x.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("depth must be an integer, got 4.7\n")
    assert not (workdir / "x.json").exists()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product this long across its threads, which can move
    # the last digit of a sum of squares: norms, energies and Parseval sums
    write_signal_csv(random_bandlimited(np.random.default_rng(21), 4000, 65536), tmp_path / "signal.csv")
    io = ["--in", str(tmp_path / "signal.csv"), "--basis", "triangle", "--order", "300"]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        commands = [
            ["analyze", *io, "--out", str(out / "dec.json")],
            ["compare", *io, "--out", str(out / "compare.csv"), "--json-out", str(out / "compare.json")],
            ["spectrum", "--in", str(out / "dec.json"), "--samples", "65536",
             "--out", str(out / "spectrum.csv"), "--json-out", str(out / "spectrum.json")],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent),
                   OPENBLAS_NUM_THREADS=threads)
        stdout = [subprocess.run([sys.executable, "-m", "genharm.cli", *argv], capture_output=True,
                                 text=True, env=env, timeout=120, check=True).stdout for argv in commands]
        runs.append((stdout, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert len(runs[0][1]) == 5
    assert runs[0] == runs[1]


def test_singular_direct_system_is_an_error_not_a_traceback(workdir):
    # R is S dilated by two plus a fundamental too small to survive rounding in
    # the Gram matrix: the first-harmonic check passes, the system is singular
    pair = BasisPair(
        BasisFunction([1.0, 0.5], [0.0, 0.0]),
        BasisFunction([0.0, 1.0, 0.0, 0.5], [1e-8, 0.0, 0.0, 0.0]),
        "near-copy",
    )
    save_basis(pair, workdir / "singular.json")
    proc = subprocess.run(
        [sys.executable, "-m", "genharm.cli", "analyze", "--in", str(workdir / "signal.csv"),
         "--basis", str(workdir / "singular.json"), "--order", "2", "--method", "direct",
         "--pruning", "none", "--out", str(workdir / "x.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(genharm.__file__).parent.parent)),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: gram system is exactly singular\n"


def test_condition_warnings_are_printed_by_analyze_and_compare(workdir, capsys):
    # R is S dilated by two plus a barely-there fundamental: G is near-singular
    pair = BasisPair(
        BasisFunction([1.0, 0.5], [0.0, 0.0]),
        BasisFunction([0.0, 1.0, 0.0, 0.5], [1e-7, 0.0, 0.0, 0.0]),
        "near-singular",
    )
    save_basis(pair, workdir / "near.json")
    common = ["--in", str(workdir / "signal.csv"), "--basis", str(workdir / "near.json"),
              "--order", "2", "--pruning", "none"]
    assert main(["analyze", *common, "--method", "direct", "--out", str(workdir / "d.json")]) == 0
    warned = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning")]
    assert len(warned) == 1 and warned[0].startswith("warning: condition estimate ")
    assert warned[0].endswith(" exceeds 1e+12; coefficients may be unreliable")
    assert main(["compare", *common, "--out", str(workdir / "cmp.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    # the indirect system at this order is well conditioned: only the direct result warns
    assert [line for line in out if line.startswith("warning")] == [
        warned[0].replace("warning: ", "warning (direct): ")
    ]


def test_check_basis_refuses_a_schedule_file(workdir, capsys):
    assert main(["check-basis", "--basis", str(workdir / "schedule.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_run_shape_too_large_to_allocate_exits_two(workdir, capsys):
    # numpy refuses these arrays (petabytes) at once, so nothing is allocated
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "4", "--out", str(workdir / "dec.json")])
    capsys.readouterr()
    for argv in (
        ["reconstruct", "--in", str(workdir / "dec.json"), "--samples", "1000000000000000",
         "--out", str(workdir / "r.csv")],
        ["check-basis", "--basis", "square", "--order", "1000000000000000"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: Unable to allocate"), argv
    assert not (workdir / "r.csv").exists()


def test_an_unwritable_output_path_exits_one(workdir, capsys):
    argv = ["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
            "--order", "4", "--out", str(workdir / "missing" / "x.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_whitespace_only_csv_lines_are_refused(workdir, capsys):
    """An empty line is skipped; a line of spaces or a tab is a malformed row."""
    lines = (workdir / "signal.csv").read_text().splitlines()
    for name, blank, code in (("empty.csv", "", 0), ("space.csv", "   ", 1), ("tab.csv", "\t", 1)):
        (workdir / name).write_text("\n".join(lines[:3] + [blank] + lines[3:]) + "\n")
        argv = ["fourier", "--in", str(workdir / name), "--order", "3",
                "--out", str(workdir / "x.csv")]
        assert main(argv) == code, name
    assert "unreadable CSV" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    # past the float range, short of the int-to-str digit limit
    | st.integers(-(10**400), 10**400),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

_CSV_FIELDS = st.sampled_from(["0.0", "0.25", "0.5", "0.75", "-1", "1e300", "1e400", "nan", ""])


def _with_one_node_replaced(doc, data):
    """``doc`` with one node, chosen by Hypothesis, replaced by any JSON value."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        copy[key] = _with_one_node_replaced(doc[key], data)
        return copy
    return data.draw(_JSON_VALUES)


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory, builtin_pairs):
    """Valid inputs of every kind, each a seed for the fuzzed files."""
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    write_signal_csv(random_bandlimited(rng, 4, 16, c0=0.5), path / "signal.csv")
    pair = builtin_basis("square_saw", depth=4)
    save_basis(pair, path / "pair.json")
    save_basis(BasisSchedule(((1, pair), (3, builtin_pairs["sine_cosine"]))),
               path / "schedule.json")
    schedule = json.loads((path / "schedule.json").read_text())
    schedule["segments"][1]["basis"] = {"builtin": "triangle", "depth": 3, "phase_s": 0.5}
    (path / "schedule.json").write_text(json.dumps(schedule))
    main(["analyze", "--in", str(path / "signal.csv"), "--basis", "square_saw", "--depth", "4",
          "--order", "4", "--method", "direct", "--out", str(path / "dec.json")])
    decomposition = json.loads((path / "dec.json").read_text())
    decomposition["warnings"] = ["a note"]
    (path / "dec.json").write_text(json.dumps(decomposition))
    return path


# (argv reading the fuzzed file {input}, the valid file that it stands in for)
_FILE_READERS = [
    ("analyze --in {input} --basis square_saw --depth 4 --order 2", "signal.csv"),
    ("compare --in {input} --basis square_saw --depth 4 --order 2", "signal.csv"),
    ("fourier --in {input} --order 3", "signal.csv"),
    ("reconstruct --in {input} --samples 16", "dec.json"),
    ("spectrum --in {input} --samples 16 --json-out {input}.json", "dec.json"),
    ("filter --in {input} --keep-from 2 --keep-to 3 --samples 16 --recon-out {input}.csv",
     "dec.json"),
    ("check-basis --basis {input} --order 3", "pair.json"),
    ("analyze --in {signal} --basis {input} --order 4", "pair.json"),
    ("analyze --basis {input} --in {signal} --order 4", "schedule.json"),
]


@pytest.mark.parametrize("command, valid", _FILE_READERS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_any_input_file_exits_zero_one_or_two(fuzzdir, command, valid, data):
    seed = (fuzzdir / valid).read_bytes()
    if data.draw(st.booleans()):
        content = data.draw(st.binary(max_size=64) | st.just(seed)
                            | _JSON_VALUES.map(lambda v: json.dumps(v).encode()))
    elif valid.endswith(".csv"):
        fields = _CSV_FIELDS | st.text(max_size=4)
        lines = data.draw(st.lists(st.lists(fields, max_size=3).map(",".join), max_size=6))
        content = "\n".join(["x,value", *lines]).encode()
    else:
        content = json.dumps(_with_one_node_replaced(json.loads(seed), data)).encode()
    (fuzzdir / "input").write_bytes(content)
    argv = command.format(input=fuzzdir / "input", signal=fuzzdir / "signal.csv").split()
    if not command.startswith("check-basis"):
        argv += ["--out", str(fuzzdir / "out")]
    assert main(argv) in (0, 1, 2)


def test_samples_does_not_bound_an_unread_order(workdir, capsys):
    """analyze runs on its input's grid, reconstruct never reads --order."""
    rng = np.random.default_rng(9)
    write_signal_csv(random_bandlimited(rng, 8, 1024, c0=0.0), workdir / "wide.csv")
    assert main(["analyze", "--in", str(workdir / "wide.csv"), "--basis", "square_saw",
                 "--order", "40", "--samples", "64", "--out", str(workdir / "o40.json")]) == 0
    main(["analyze", "--in", str(workdir / "signal.csv"), "--basis", "square_saw",
          "--order", "10", "--out", str(workdir / "o10.json")])
    assert main(["reconstruct", "--in", str(workdir / "o10.json"), "--samples", "64",
                 "--out", str(workdir / "r64.csv")]) == 0
    assert read_signal_csv(workdir / "r64.csv").n == 64
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
    # a builtin depth past MAX_DEPTH
    assert main(["check-basis", "--basis", "square", "--depth", "65537"]) == 2
    # missing output path is a configuration problem, not an IO failure
    assert main(["analyze", "--in", str(workdir / "signal.csv"),
                 "--basis", "square_saw"]) == 2
    # energies that overflow: c0 squared alone, then only the sum for the summary
    trig = BasisPair(BasisFunction([1.0], [0.0]), BasisFunction([0.0], [1.0]))
    for c0 in (1e200, 1.3e154):
        huge = Decomposition(c0, ((1, 1e154, 0.0),), trig, "indirect")
        save_decomposition(huge, workdir / "huge.json")
        assert main(["spectrum", "--in", str(workdir / "huge.json"), "--out",
                     str(workdir / "x.csv"), "--json-out", str(workdir / "summary.json")]) == 2
    assert not (workdir / "summary.json").exists()
    capsys.readouterr()
