"""The benchmark's tracer wraps genharm names given as strings; each must exist."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
