#!/usr/bin/env python3
"""genharm benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout, the directory that holds ``src/genharm``:

    python3 perfbench/run.py --workload cli_wide --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The last line printed is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
environment, every metric with its unit, and the reported-only figures.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS may use at most the CPUs this process can run on. Set before numpy
# loads; command processes inherit it.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
TRACED_CLI = BENCH / "traced_cli.py"
WORKLOADS = ("cli_wide", "cli_direct", "lib_stream")
SETUP_REPEATS = 3
# A run must end within 180 s: commands still running this long after the
# benchmark started are killed, and later ones are not started.
RUN_DEADLINE_S = 165
STARTED = time.monotonic()
# ROADMAP's baseline rows: span -> (workload at the same size, ms per call).
BASELINES = {
    "decompose.analyze_indirect": ("cli_wide", 194.0),
    "decompose.reconstruct": ("cli_wide", 583.0),
    "decompose.build_gram_system": ("cli_direct", 795.0),
}


@dataclass
class Op:
    """One timed operation: a CLI command, or one signal through the library."""

    wall_s: float
    cpu_s: float
    stages: dict  # stage -> seconds
    failed: str | None = None
    traced: bool = False
    trace: dict | None = None


@dataclass
class Run:
    ops: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    peak_rss_mib: float = 0.0
    basis_reuse_share: float = 0.0
    notes: list = field(default_factory=list)


def _checked(check) -> str | None:
    """Run an oracle; an output it cannot read is a failure, not a crash."""
    try:
        return check()
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- CLI workloads -------------------------------------------------------------


class CliRunner:
    """Runs ``genharm.cli`` commands one at a time, each in a fresh process."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], traced: bool = False) -> tuple[float, float, str | None, dict | None]:
        """(wall s, CPU s, failure or None, trace record or None) of one command."""
        trace_path = self.work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACED_CLI), str(trace_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "genharm.cli", *argv]
        remaining = RUN_DEADLINE_S - (time.monotonic() - STARTED)
        if remaining <= 0:
            return 0.0, 0.0, "not started: run deadline passed", None
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(self.work / "stdout.txt", "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        stderr = (self.work / "stderr.txt").read_text(errors="replace")
        failed = None
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            failed = f"exit {code}: {last[0][:200]}"
        elif "Traceback" in stderr:
            failed = "traceback on stderr"
        record = None
        if traced and failed is None:
            record = json.loads(trace_path.read_text())
            wall -= record["replay_s"]
        return wall, cpu, failed, record

    def warm_up(self) -> None:
        """Load the interpreter and the library's imports once, untimed by ops."""
        subprocess.run(
            [sys.executable, "-m", "genharm.cli", "--help"],
            cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, check=True,
            timeout=RUN_DEADLINE_S,
        )


class CliWorkload:
    """Signals written as CSV files in ``work``; subclasses give the commands per signal."""

    group_s: float  # nominal seconds for one group of signals
    signals_per_group: int

    def __init__(self, seed: int, work: Path, n: int, order: int, depth: int = 64):
        self.seed, self.work, self.n, self.order, self.depth = seed, work, n, order, depth
        self.signals: list = []

    def path(self, i: int, name: str) -> Path:
        return self.work / f"{i}.{name}"


class CliWide(CliWorkload):
    """ROADMAP target size, indirect, through the CLI: n = 65536, N = 2000, square_saw depth 64.

    Per signal: analyze (with --recon-out), spectrum (with --json-out),
    reconstruct, filter (with --recon-out).
    """

    name = "cli_wide"
    group_s = 8.0  # nominal seconds for one signal's four commands
    signals_per_group = 1

    def __init__(self, seed: int, work: Path, n: int = 65536, order: int = 2000, depth: int = 64):
        super().__init__(seed, work, n, order, depth)

    def setup(self, count: int) -> None:
        self.signals = []
        for i in range(count):
            rng = np.random.default_rng([self.seed, i])
            f = inputs.random_signal(rng, self.n)
            keep_from = int(rng.integers(2, self.order // 2))
            keep_to = int(rng.integers(keep_from, self.order + 1))
            self.path(i, "signal.csv").write_text(inputs.signal_csv(f))
            self.signals.append((f, keep_from, keep_to))

    def commands(self, i: int) -> list:
        """(kind, argv, check) for signal i, in the order they run."""
        p = lambda name: str(self.path(i, name))  # noqa: E731
        _, keep_from, keep_to = self.signals[i]
        size = ["--samples", str(self.n)]
        return [
            ("analyze", ["analyze", "--in", p("signal.csv"), "--basis", "square_saw",
                         "--depth", str(self.depth), "--order", str(self.order),
                         "--method", "indirect", "--out", p("dec.json"),
                         "--recon-out", p("recon.csv"), *size],
             lambda: self.check_analyze(i)),
            ("spectrum", ["spectrum", "--in", p("dec.json"), "--out", p("spectrum.csv"),
                          "--json-out", p("spectrum.json"), *size],
             lambda: self.check_spectrum(i)),
            ("reconstruct", ["reconstruct", "--in", p("dec.json"), "--out", p("recon2.csv"), *size],
             lambda: self.check_reconstruct(i)),
            ("filter", ["filter", "--in", p("dec.json"), "--keep-from", str(keep_from),
                        "--keep-to", str(keep_to), "--out", p("filtered.json"),
                        "--recon-out", p("filtered.csv"), *size],
             lambda: self.check_filter(i)),
        ]

    def check_analyze(self, i: int) -> str | None:
        _, why = oracles.read_strict_json(self.path(i, "dec.json"))
        if why:
            return why
        recon = oracles.read_signal_csv(self.path(i, "recon.csv"))
        return oracles.band_annihilated(self.signals[i][0], recon, self.order)

    def check_spectrum(self, i: int) -> str | None:
        report, why = oracles.read_strict_json(self.path(i, "spectrum.json"))
        dec, why_dec = oracles.read_strict_json(self.path(i, "dec.json"))
        if why or why_dec:
            return why or why_dec
        _, a, b = oracles.split_coefficients(dec)
        phi = oracles.Synthesis.from_pairs([dec["basis"]] * a.size, self.depth * a.size)
        rows = np.loadtxt(self.path(i, "spectrum.csv"), delimiter=",", skiprows=1, ndmin=2)
        return oracles.spectrum_valid(report, rows, phi.component_energies(a, b))

    def check_reconstruct(self, i: int) -> str | None:
        if self.path(i, "recon2.csv").read_bytes() != self.path(i, "recon.csv").read_bytes():
            return "reconstruct output differs from analyze --recon-out"
        return None

    def check_filter(self, i: int) -> str | None:
        _, keep_from, keep_to = self.signals[i]
        filtered, why = oracles.read_strict_json(self.path(i, "filtered.json"))
        dec, why_dec = oracles.read_strict_json(self.path(i, "dec.json"))
        if why or why_dec:
            return why or why_dec
        recon = oracles.read_signal_csv(self.path(i, "filtered.csv"))
        return (oracles.band_zeroed(filtered, dec, keep_from, keep_to)
                or oracles.below_band_empty(recon, keep_from))


class CliDirect(CliWorkload):
    """Dense direct solves through the CLI: n = 4096, N = 400.

    Each group is three signals, one per basis in a seed-shuffled order, so
    every run times the same mix. Per signal: analyze --method direct
    --pruning none, then compare (paper pruning).
    """

    name = "cli_direct"
    bases = ("triangle", "trapezoid", "square_saw")
    group_s = 12.0  # nominal seconds for one group's six commands
    signals_per_group = 3

    def __init__(self, seed: int, work: Path, n: int = 4096, order: int = 400, depth: int = 64):
        super().__init__(seed, work, n, order, depth)

    def setup(self, count: int) -> None:
        self.signals = []
        order_rng = np.random.default_rng([self.seed, 1 << 20])
        groups = -(-count // len(self.bases))
        kinds = [k for _ in range(groups) for k in order_rng.permutation(self.bases)]
        for i in range(count):
            f = inputs.random_signal(np.random.default_rng([self.seed, i]), self.n)
            self.path(i, "signal.csv").write_text(inputs.signal_csv(f))
            self.signals.append((f, str(kinds[i])))

    def commands(self, i: int) -> list:
        p = lambda name: str(self.path(i, name))  # noqa: E731
        common = ["--in", p("signal.csv"), "--basis", self.signals[i][1], "--depth", str(self.depth),
                  "--order", str(self.order), "--samples", str(self.n)]
        return [
            ("analyze", ["analyze", *common, "--method", "direct", "--pruning", "none",
                         "--out", p("dec.json")],
             lambda: self.check_analyze(i)),
            ("compare", ["compare", *common, "--out", p("compare.csv"), "--json-out", p("compare.json")],
             lambda: self.check_compare(i)),
        ]

    def synthesis(self, dec: dict) -> oracles.Synthesis:
        return oracles.Synthesis.from_pairs([dec["basis"]] * self.order, self.depth * self.order)

    def check_analyze(self, i: int) -> str | None:
        dec, why = oracles.read_strict_json(self.path(i, "dec.json"))
        if why:
            return why
        if dec.get("pruning") != "none" or not isinstance(dec.get("condition_estimate"), float):
            return "direct decomposition lacks its pruning rule or condition estimate"
        _, a, b = oracles.split_coefficients(dec)
        return oracles.solves_normal_equations(self.signals[i][0], a, b, self.synthesis(dec))

    def check_compare(self, i: int) -> str | None:
        report, why = oracles.read_strict_json(self.path(i, "compare.json"))
        dec, why_dec = oracles.read_strict_json(self.path(i, "dec.json"))
        if why or why_dec:
            return why or why_dec
        if report["order"] != self.order or report["pruning"] != "paper":
            return "compare report does not match the request"
        rows = np.loadtxt(self.path(i, "compare.csv"), delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (self.order, 5) or np.any(rows[:, 0] != np.arange(1, self.order + 1)):
            return f"compare CSV does not hold k = 1..{self.order}"
        f = self.signals[i][0]
        recon = oracles.reconstruction(float(f.mean()), rows[:, 3], rows[:, 4], self.synthesis(dec), self.n)
        return oracles.band_annihilated(f, recon, self.order)


def run_cli(workload, seconds: float, trace: bool) -> Run:
    run = Run()
    groups = max(1, int(seconds // workload.group_s))
    if trace:  # each command runs twice, untraced then traced
        groups = max(1, groups // 2)
    runner = CliRunner(workload.work)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(groups * workload.signals_per_group)
        runner.warm_up()
        run.setup_s.append(time.perf_counter() - start)
    for i in range(len(workload.signals)):
        for kind, argv, check in workload.commands(i):
            for traced in (False, True) if trace else (False,):
                wall, cpu, failed, record = runner.run(argv, traced)
                op = Op(wall, cpu, {kind: wall}, failed, traced, record)
                if op.failed is None:
                    op.failed = _checked(check)
                run.ops.append(op)
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return run


# --- library workload ----------------------------------------------------------


class LibStream:
    """Many small signals through the library API in one long-lived process.

    Pool: four builtin pairs and one two-segment schedule, built in set-up.
    One op: PeriodicSignal -> analyze_indirect -> analyze_direct(paper) ->
    residual x2 -> generalized_spectrum -> analyze_multiband.
    """

    name = "lib_stream"
    kinds = ("square", "triangle", "trapezoid", "square_saw")

    def __init__(self, seed: int, genharm, n: int = 4096, order: int = 48):
        self.seed, self.gh, self.n, self.order = seed, genharm, n, order
        self.pairs: list = []
        self.schedule = None

    def setup(self) -> None:
        gh = self.gh
        self.pairs = [gh.builtin_basis(kind) for kind in self.kinds]
        self.schedule = gh.BasisSchedule(((1, self.pairs[3]), (self.order // 2 + 1, self.pairs[1])))
        warm = inputs.random_signal(np.random.default_rng([self.seed, 1 << 20]), self.n)
        for index in range(len(self.pairs)):
            self.op(warm, index)

    def prepare_oracles(self) -> None:
        """Per-basis operators for the checks; benchmark work, kept out of set-up time."""
        depth = max(p.S.depth for p in self.pairs)
        cap = depth * self.order
        keep = oracles.paper_keep_mask(self.order)
        self.phis = [oracles.Synthesis.from_pairs([_pair_dict(p)] * self.order, cap) for p in self.pairs]
        self.grams = [oracles.pruned_gram(phi, keep) for phi in self.phis]
        per_k = [_pair_dict(self.schedule.pair_for(k)) for k in range(1, self.order + 1)]
        self.schedule_phi = oracles.Synthesis.from_pairs(per_k, cap)

    def op(self, samples: np.ndarray, index: int):
        gh, pair, order = self.gh, self.pairs[index], self.order
        t0 = time.perf_counter()
        f = gh.PeriodicSignal(samples)
        d_ind = gh.analyze_indirect(f, pair, order)
        d_dir = gh.analyze_direct(f, pair, order, "paper")
        t1 = time.perf_counter()
        r_ind = gh.residual(f, d_ind)
        r_dir = gh.residual(f, d_dir)
        t2 = time.perf_counter()
        spectrum = gh.generalized_spectrum(d_ind)
        d_multi = gh.analyze_multiband(f, self.schedule, order)
        t3 = time.perf_counter()
        stages = {"analyze": t1 - t0, "reconstruct": t2 - t1, "compare": t2 - t0}
        return t3 - t0, stages, (d_ind, d_dir, r_ind, r_dir, spectrum, d_multi)

    def check(self, samples: np.ndarray, index: int, results) -> str | None:
        d_ind, d_dir, r_ind, r_dir, spectrum, d_multi = results
        phi, n = self.phis[index], self.n
        c0, a, b = _coefficients(d_ind)
        report = {"c0_sq": spectrum.c0_sq, "total": spectrum.total()}
        why = oracles.spectrum_valid(report, np.array(spectrum.entries), phi.component_energies(a, b))
        if why:
            return why
        c0_dir, a_dir, b_dir = _coefficients(d_dir)
        c0_multi, a_multi, b_multi = _coefficients(d_multi)
        return (
            oracles.band_annihilated(samples, oracles.reconstruction(c0, a, b, phi, n), self.order)
            or oracles.band_annihilated(samples, samples - r_ind.samples, self.order)
            or oracles.solves_normal_equations(samples, a_dir, b_dir, phi, self.grams[index])
            or oracles.same_samples(samples - r_dir.samples, oracles.reconstruction(c0_dir, a_dir, b_dir, phi, n))
            or oracles.band_annihilated(
                samples, oracles.reconstruction(c0_multi, a_multi, b_multi, self.schedule_phi, n), self.order)
        )


def _pair_dict(pair) -> dict:
    return {m: {"cos": getattr(pair, m).cos_coeffs, "sin": getattr(pair, m).sin_coeffs} for m in "SR"}


def _coefficients(d) -> tuple[float, np.ndarray, np.ndarray]:
    coeffs = np.array([(a_k, b_k) for _, a_k, b_k in d.coeffs])
    return d.c0, coeffs[:, 0], coeffs[:, 1]


def import_genharm():
    sys.path.insert(0, str(SRC))
    import genharm

    if Path(genharm.__file__).resolve().parent != (SRC / "genharm").resolve():
        raise SystemExit(f"genharm imported from {genharm.__file__}, not from {SRC}")
    return genharm


def run_lib(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    start = time.perf_counter()
    workload = LibStream(seed, import_genharm())
    run.notes.append(f"import_s {time.perf_counter() - start:.4f} s (once per process, not in setup_s)")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        run.setup_s.append(time.perf_counter() - start)
    workload.prepare_oracles()

    rng = np.random.default_rng([seed, 0])
    seen: set = set()
    reused = 0
    tracer = Tracer()
    # With tracing, the first half of the time runs untraced and the second
    # half traced, so the two op medians give the tracing overhead.
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    for traced, budget in phases:
        if traced:
            tracer.install()
        phase_start = time.perf_counter()
        while time.perf_counter() - phase_start < budget:
            samples = inputs.random_signal(rng, workload.n)
            index = int(rng.integers(len(workload.pairs)))
            reused += index in seen
            seen.add(index)
            before = resource.getrusage(resource.RUSAGE_SELF)
            try:
                wall, stages, results = workload.op(samples, index)
                failed = None
            except Exception as exc:  # an op that raises is counted, and the run goes on
                wall, stages, results = float("nan"), {}, None
                failed = f"{type(exc).__name__}: {exc}"
            after = resource.getrusage(resource.RUSAGE_SELF)
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            record = None
            if traced:
                tracer.measure_peaks()
                record = tracer.take()
            if failed is None:
                failed = _checked(lambda: workload.check(samples, index, results))
            run.ops.append(Op(wall, cpu, stages, failed, traced, record))
        if traced:
            tracer.uninstall()
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.basis_reuse_share = reused / max(len(run.ops), 1)
    return run


# --- metrics -------------------------------------------------------------------


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> tuple[dict, list]:
    """Gated metrics by name, plus reported-only lines."""
    ok = [op for op in run.ops if op.failed is None]
    walls = [op.wall_s for op in ok] or [float("nan")]
    tail_value, tail_pct, tail_count = tail(walls)
    values = {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": len(ok) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "cpu_ms_per_op": statistics.median(op.cpu_s for op in run.ops) * 1e3,
        "peak_rss_mib": run.peak_rss_mib,
    }
    beyond = round(tail_count * (1 - tail_pct / 100))
    notes = [f"op_tail_ms is p{tail_pct:.1f} of {tail_count} ops ({beyond} ops beyond it)"]
    for name in ("analyze", "reconstruct", "compare"):
        stage = [op.stages[name] for op in ok if name in op.stages]
        if stage:
            notes.append(f"{name}_p50_ms {statistics.median(stage) * 1e3!r} ms (reported, not gated)")
    failed = len(run.ops) - len(ok)
    notes.append(f"error_rate {failed / len(run.ops)!r} ({failed} of {len(run.ops)} ops)")
    return values, notes


def layer_value(name: str, records: list) -> float:
    """Per-op median of one per-layer metric, over the ops that touched it."""
    if name.endswith(".self_ms"):
        span = name[: -len(".self_ms")]
        values = [r["spans"][span][1] * 1e3 for r in records if span in r["spans"]]
    elif name.endswith((".calls", ".constructs")):
        span = name.rsplit(".", 1)[0]
        values = [r["spans"][span][0] for r in records if span in r["spans"]]
    elif name.endswith(".kept_fraction"):
        span = name[: -len(".kept_fraction")]
        values = [r["counters"][f"{span}.kept"] / r["counters"][f"{span}.entries"]
                  for r in records if f"{span}.entries" in r["counters"]]
    else:
        values = [r["counters"][name] for r in records if name in r["counters"]]
    return _median(values)


def per_layer(run: Run, names: list, workload: str) -> tuple[dict, list]:
    records = [op.trace for op in run.ops if op.traced and op.failed is None]
    values = {}
    for name in names:
        if name == "trace_overhead_pct":
            plain = [op.wall_s for op in run.ops if not op.traced and op.failed is None]
            traced = [op.wall_s for op in run.ops if op.traced and op.failed is None]
            values[name] = (_median(traced) / _median(plain) - 1.0) * 100 if plain and traced else 0.0
        elif name == "basis_reuse_share":
            values[name] = run.basis_reuse_share
        else:
            values[name] = layer_value(name, records)
    notes = []
    for span, (at_size, baseline_ms) in BASELINES.items():
        per_call = [r["spans"][span][2] / r["spans"][span][0] * 1e3 for r in records if span in r["spans"]]
        if at_size == workload and per_call:
            notes.append(
                f"baseline {span} {_median(per_call):.1f} ms per call (inclusive, traced) "
                f"vs ROADMAP {baseline_ms:.0f} ms"
            )
    return values, notes


# --- environment ---------------------------------------------------------------


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"vendor": f"{blas.get('name')} {blas.get('version')}", "threads": threads}


def git_commit() -> str:
    """HEAD of the checkout if it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def wide_direct_not_run(n: int = 65536, order: int = 2000, depth: int = 64) -> dict:
    """The direct method at the target size, recorded as not run, with its computed memory."""
    cap = max(depth * order, n // 2 - 1)
    dilation_rows = 4 * order * cap * 8  # four float64 (N, cap) arrays in build_gram_system
    stacked = 2 * 2 * order * cap * 8  # their two vstack copies
    machine = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "case": f"analyze --method direct and compare at n={n}, N={order}, depth {depth}",
        "skipped": "memory",
        "gram_assembly_bytes": dilation_rows + stacked,
        "machine_bytes": machine,
    }


# --- entry point ---------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name == "lib_stream":
            run = run_lib(seed, seconds, trace)
        else:
            workload = (CliWide if name == "cli_wide" else CliDirect)(seed, work)
            run = run_cli(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(environment(seed)))
    print("not_run " + json.dumps(wide_direct_not_run()))
    for note in run.notes:
        print("note " + note)
    for op in run.ops:
        if op.failed:
            print(f"failed op: {op.failed}")
    metric_list = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in metric_list]
    values, notes = per_layer(run, names, name) if trace else end_to_end(run)
    if trace:
        notes.append(f"basis_reuse_share {run.basis_reuse_share!r} of {len(run.ops)} ops")
    metrics = {}
    for m in metric_list:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {values[m['name']]!r} {m['unit']}")
    for note in notes:
        print("note " + note)
    failed = sum(op.failed is not None for op in run.ops)
    result = {"correct": failed == 0, "attempted": len(run.ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table of every metric with its unit.

    Reported-only figures (``note <name> <value> <unit> (reported, not gated)``)
    get rows of their own, blank where a workload does not have them.
    """
    table: dict = {}  # metric -> (unit, {workload: value})
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        result = json.loads(lines[-1])
        code |= not result["correct"]
        for metric, entry in result["metrics"].items():
            table.setdefault(metric, (entry["unit"], {}))[1][name] = entry["value"]
        for line in lines:
            if line.startswith("note ") and line.endswith("(reported, not gated)"):
                _, metric, value, unit = line.split()[:4]
                table.setdefault(metric, (unit, {}))[1][name] = float(value)
        table.setdefault("error_rate", ("ratio", {}))[1][name] = result["failed"] / result["attempted"]
    print(f"\n{'metric':<46}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for metric, (unit, values) in table.items():
        cells = "".join(f"{values[w]:>14.6g}" if w in values else f"{'-':>14}" for w in WORKLOADS)
        print(f"{metric:<46}{cells}  {unit}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "genharm" / "__init__.py").is_file():
        print(f"error: no genharm sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
