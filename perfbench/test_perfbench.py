"""Tests of the benchmark itself: span arithmetic, wrapper coverage, failure counting.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("m.leaf", lambda: clock.advance(2))

    def middle_body():
        clock.advance(1)
        leaf()
        leaf()
        clock.advance(3)

    middle = tracer.wrap("m.middle", middle_body)

    def root_body():
        clock.advance(5)
        middle()

    tracer.wrap("m.root", root_body)()
    spans = tracer.take()["spans"]
    assert spans["m.leaf"] == [2, 4.0, 4.0]
    assert spans["m.middle"] == [1, 4.0, 8.0]
    assert spans["m.root"] == [1, 5.0, 13.0]
    assert tracer.take()["spans"] == {}


@pytest.fixture
def genharm_cli():
    sys.path.insert(0, str(SRC))
    try:
        import genharm.cli

        yield genharm.cli
    finally:
        sys.path.remove(str(SRC))


def test_wrapper_catches_a_name_bound_in_two_modules(genharm_cli, tmp_path):
    from genharm import decompose

    original = decompose.reconstruct
    signal = tmp_path / "signal.csv"
    rng = run.np.random.default_rng(0)
    signal.write_text(run.inputs.signal_csv(run.inputs.random_signal(rng, 64)))
    tracer = Tracer()
    tracer.install()
    try:
        assert genharm_cli.reconstruct is decompose.reconstruct is not original
        code = genharm_cli.main([
            "analyze", "--in", str(signal), "--basis", "square_saw", "--depth", "4",
            "--order", "5", "--out", str(tmp_path / "dec.json"),
            "--recon-out", str(tmp_path / "recon.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.take()["spans"]
    # once through residual -> decompose.reconstruct, once through cli's own import
    assert spans["decompose.residual"][0] == 1
    assert spans["decompose.reconstruct"][0] == 2
    assert spans["cli.main"][0] == 1
    assert genharm_cli.reconstruct is decompose.reconstruct is original


def _flip_last_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    i = max(i for i, c in enumerate(data) if chr(c).isdigit() and chr(c) != "9")
    data[i] += 1
    path.write_bytes(bytes(data))


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _scale_spectrum_row(path: Path) -> None:
    lines = path.read_text().splitlines()
    k, energy = lines[3].split(",")
    lines[3] = f"{k},{float(energy) * (1 + 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")


def _nudge_first(coefficient: str, scale: float):
    def edit(data):
        data["coefficients"][0][coefficient] = data["coefficients"][0][coefficient] * scale + 1e-300

    return edit


CORRUPTIONS = {
    "reconstruct": (run.CliWide, "recon2.csv", _flip_last_digit),
    "filter": (run.CliWide, "filtered.json", lambda p: _edit_json(p, _nudge_first("A", 1.0))),
    "spectrum": (run.CliWide, "spectrum.csv", _scale_spectrum_row),
    # A 1e-9 relative change to one direct coefficient breaks orthogonality.
    "analyze": (run.CliDirect, "dec.json", lambda p: _edit_json(p, _nudge_first("A", 1 + 1e-9))),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_a_corrupted_output_is_exactly_one_failure(kind, tmp_path):
    workload_type, name, corrupt = CORRUPTIONS[kind]
    workload = workload_type(seed=3, work=tmp_path, n=512, order=20, depth=8)
    workload.group_s = 1.0
    commands = workload.commands

    def corrupted_commands(i):
        out = []
        for op_kind, argv, check in commands(i):
            if op_kind == kind and i == 0:
                check = (lambda check=check: (corrupt(workload.path(0, name)), check())[1])
            out.append((op_kind, argv, check))
        return out

    workload.commands = corrupted_commands
    result = run.run_cli(workload, seconds=1.0, trace=False)
    failed = [op for op in result.ops if op.failed is not None]
    assert len(failed) == 1, [op.failed for op in failed]
    assert kind in failed[0].stages and not failed[0].failed.startswith("exit")


def test_clean_run_has_no_failures(tmp_path):
    workload = run.CliWide(seed=4, work=tmp_path, n=512, order=20, depth=8)
    workload.group_s = 1.0
    result = run.run_cli(workload, seconds=1.0, trace=True)
    assert [op.failed for op in result.ops] == [None] * 8
    assert [op.traced for op in result.ops] == [False, True] * 4
    names = ["basis.dilate.calls", "signals.csv_bytes", "cli.import_ms"]
    values, _ = run.per_layer(result, names, workload.name)
    assert values["basis.dilate.calls"] == 40  # one reconstruction: 2 members x N = 20
    assert values["signals.csv_bytes"] > 0 and values["cli.import_ms"] > 0


def test_tail_keeps_ten_samples_beyond():
    value, pct, count = run.tail(list(range(100)))
    assert (value, count) == (89, 100) and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0
