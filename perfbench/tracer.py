"""Per-layer spans for genharm, recorded from outside the library.

Each traced name is one public function of a genharm module, or a dataclass
validator (``Class.__post_init__``, counted as one construction). A wrapper
replaces the function in every genharm namespace that binds it, so a call is
caught whichever module it goes through: ``cli.py`` imports ``reconstruct``
by name while ``residual`` reaches it through ``decompose``'s globals.

Spans nest. A span's self time is its duration minus the time covered by the
spans it directly contains. The tracer keeps per-name totals for the current
op in memory; ``take()`` hands them over and starts the next op.

This module imports nothing heavy, so a traced CLI process can time the
import of ``genharm.cli`` itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

# Layer -> names traced in that module. Capitalised names are classes whose
# validator is wrapped.
SPANS = {
    "signals": (
        "read_signal_csv",
        "write_signal_csv",
        "analyze_fourier",
        "synthesize_fourier",
        "FourierSpectrum",
        "PeriodicSignal",
    ),
    "basis": ("dilate", "builtin_basis", "pair_from_dict", "check_independence"),
    "decompose": (
        "analyze_indirect",
        "analyze_multiband",
        "build_gram_system",
        "analyze_direct",
        "combined_spectrum",
        "reconstruct",
        "residual",
        "Decomposition",
        "save_decomposition",
        "load_decomposition",
    ),
    "spectrum": ("generalized_spectrum", "band_filter", "write_spectrum_csv"),
    "cli": ("main",),
}


def _csv_read_bytes(args, kwargs, result):
    return {"signals.csv_bytes": os.path.getsize(args[0])}


def _csv_write_bytes(args, kwargs, result):
    return {"signals.csv_bytes": os.path.getsize(args[1])}


def _gram_entries(args, kwargs, result):
    mask = result.pruned_mask
    return {
        "decompose.build_gram_system.kept": int((~mask).sum()),
        "decompose.build_gram_system.entries": mask.size,
    }


# Span -> function of (args, kwargs, result) giving counters to add to the op.
COUNTERS = {
    "signals.read_signal_csv": _csv_read_bytes,
    "signals.write_signal_csv": _csv_write_bytes,
    "decompose.build_gram_system": _gram_entries,
}

# Spans whose peak allocation is recorded as ``<span>.peak_mib``. tracemalloc
# slows every Python allocation, so the peak comes from an untimed replay of
# the op's last call (``measure_peaks``), never from the timed call.
PEAK_SPANS = ("decompose.build_gram_system",)


class Tracer:
    """Collects span totals and counters for one op at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.paused = False
        self._replays: dict[str, tuple] = {}  # peak span -> (fn, args, kwargs) of its last call

    def take(self) -> dict:
        """The current op's record; the next op starts empty."""
        record = {"spans": self.spans, "counters": self.counters}
        self.spans, self.counters = {}, {}
        return record

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name``."""
        counter = COUNTERS.get(name)
        peak = name in PEAK_SPANS
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [self.clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = self.clock() - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                totals = self.spans.get(name)
                if totals is None:
                    totals = self.spans[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                totals[2] += elapsed
            if peak:
                self._replays[name] = (fn, args, kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.add(key, value)
            return result

        return wrapper

    def measure_peaks(self) -> float:
        """Re-run the op's last call of each peak span, untraced, under tracemalloc.

        Records ``<span>.peak_mib`` and returns the seconds the replays took;
        they belong to no op.
        """
        start = self.clock()
        self.paused = True
        try:
            for name, (fn, args, kwargs) in self._replays.items():
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    self.counters[f"{name}.peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        finally:
            self.paused = False
            self._replays.clear()
        return self.clock() - start

    def install(self, package: str = "genharm") -> None:
        """Wrap every traced name in every loaded module of ``package``."""
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
        ]
        for layer, names in SPANS.items():
            home = sys.modules.get(f"{package}.{layer}")
            if home is None:  # e.g. the CLI, when only the library is in use
                continue
            for attr in names:
                target = getattr(home, attr)
                span = f"{layer}.{attr}"
                if isinstance(target, type):
                    original = target.__dict__["__post_init__"]
                    self._undo.append((target, "__post_init__", original))
                    setattr(target, "__post_init__", self.wrap(span, original))
                    continue
                wrapper = self.wrap(span, target)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is target:
                            self._undo.append((mod, bound, value))
                            setattr(mod, bound, wrapper)

    def uninstall(self) -> None:
        """Put back every original the last ``install`` replaced."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
