"""The benchmark runs against this tree: its traced names exist, and its library workload passes its checks."""

import importlib
import os
import runpy
import sys
from pathlib import Path

import numpy as np

import genharm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
RUN = PERFBENCH / "run.py"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_traced_name_resolves_in_its_layer():
    # run_path compiles the source directly: nothing is written under perfbench/
    spans = runpy.run_path(str(TRACER))["SPANS"]
    missing = []
    for layer, names in spans.items():
        module = importlib.import_module(f"genharm.{layer}")
        for name in names:
            target = getattr(module, name, None)
            if name[0].isupper():  # the tracer wraps the class's own validator
                found = isinstance(target, type) and "__post_init__" in vars(target)
            else:
                found = callable(target)
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_the_library_workload_sets_up_runs_and_checks_an_op(monkeypatch):
    # a result type the benchmark cannot read fails here, not only in a benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    modules, threads = set(sys.modules), {var: os.environ.get(var) for var in BLAS_THREADS}
    try:
        run = runpy.run_path(str(RUN))  # not as __main__: loads the workloads, runs none
        workload = run["LibStream"](1, genharm)
        workload.setup()
        workload.prepare_oracles()
        samples = run["inputs"].random_signal(np.random.default_rng([1, 0]), workload.n)
        for index in range(len(workload.pairs)):
            _, _, results = workload.op(samples, index)
            assert workload.check(samples, index, results) is None, workload.kinds[index]
    finally:
        for name in set(sys.modules) - modules:  # the benchmark's own modules, imported by bare name
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]
        for var, value in threads.items():  # run.py sets them for numpy's thread pools
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
