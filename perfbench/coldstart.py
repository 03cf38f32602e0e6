"""One cold op in a fresh process: import corrqec, run one command line.

Usage: python3 perfbench/coldstart.py <corrqec argv...>

Prints one JSON line: the exit code, the captured stdout, the CPU seconds
from just before `import corrqec` to the end of the op, and the median CPU
seconds of the host-speed probe run right after. Interpreter start-up is
left out; numpy's import is in, because importing corrqec pulls it in. The
probe can only run after the op, since it imports numpy itself.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

PROBE_RUNS = 5  # after one untimed run


def main(argv: list[str]) -> int:
    start = time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import corrqec.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = corrqec.cli.main(argv)
    seconds = time.process_time() - start
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from probe import probe_seconds

    probe_seconds()
    probe = statistics.median(probe_seconds() for _ in range(PROBE_RUNS))
    print(json.dumps({"rc": rc, "seconds": seconds, "probe": probe, "stdout": out.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
