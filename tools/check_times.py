"""Where `corrqec verify` spends its time, check by check.

Usage: python tools/check_times.py [BATTERIES]

Runs the `cli.CHECKS` battery BATTERIES times (default 15) in this
process and prints, for each check in battery order, its median process-CPU
time in ms, its share of the median battery and its median count of minor
page faults (`getrusage(RUSAGE_SELF).ru_minflt`), then the median battery
totals. The first battery fills the package's caches; the median keeps it
out of the result once there are three or more. A failing check stops the
run with its error.

BLAS runs on one thread, as in perfbench: process CPU time sums over
threads, and idle BLAS workers spinning on a small product doubled the
battery's CPU time on a 2-core host.
"""
from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path
from time import process_time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from corrqec import cli  # noqa: E402


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def check_times(batteries: int) -> tuple[dict[str, tuple[float, float]], tuple[float, float]]:
    """Each check's median process-CPU time in ms and median minor page
    faults, in battery order, and the medians of one battery's totals."""
    samples = {name: [] for name, _ in cli.CHECKS}
    totals = []
    for _ in range(batteries):
        total_ms = total_faults = 0
        for name, check in cli.CHECKS:
            f0, t0 = _minor_faults(), process_time()
            check()
            dt, df = 1e3 * (process_time() - t0), _minor_faults() - f0
            samples[name].append((dt, df))
            total_ms += dt
            total_faults += df
        totals.append((total_ms, total_faults))
    return ({name: _medians(s) for name, s in samples.items()}, _medians(totals))


def _medians(pairs) -> tuple[float, float]:
    return tuple(statistics.median(column) for column in zip(*pairs))


def main(argv) -> int:
    batteries = argv[0] if len(argv) == 1 else "15"
    if len(argv) > 1 or not batteries.isdigit() or int(batteries) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    batteries = int(batteries)
    medians, (total, total_faults) = check_times(batteries)
    width = max(len(name) for name in medians)
    print(f"median process-CPU time over {batteries} batteries")
    print(f"{'check':<{width}}  {'ms':>8}  {'share':>6}  {'faults':>7}")
    for name, (ms, faults) in medians.items():
        print(f"{name:<{width}}  {ms:8.2f}  {100 * ms / total:5.1f}%  {faults:7g}")
    print(f"{'total':<{width}}  {total:8.2f}  {'':>6}  {total_faults:7g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
