"""Run one genharm CLI command with layer spans, as a fresh process.

Usage: python traced_cli.py TRACE_JSON -- <genharm cli arguments>

Times the import of ``genharm.cli``, wraps the layers, runs ``main`` and
writes the op's spans and counters to TRACE_JSON, with the seconds spent
replaying calls for peak memory, which the caller takes off the command's
time. The exit code is main's.
"""

import json
import sys
import time

from tracer import Tracer


def run(trace_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import genharm.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = genharm.cli.main(argv)
    replay_s = tracer.measure_peaks()
    record = tracer.take()
    record["counters"]["cli.import_ms"] = import_s * 1e3
    record["replay_s"] = replay_s
    with open(trace_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[3:]))
