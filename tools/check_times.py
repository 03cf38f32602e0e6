"""Where `corrqec verify` spends its time, check by check.

Usage: python tools/check_times.py [BATTERIES]

Runs the `proofs.CHECKS` battery BATTERIES times (default 15) in this
process and prints, for each check in battery order, its median process-CPU
time in ms, its share of the median battery and its median count of minor
page faults (`getrusage(RUSAGE_SELF).ru_minflt`), then the median battery
totals. Each battery's checks share one `proofs.Battery()`, as in
`corrqec verify`, so the rows add up to what a real battery costs: a
lemma that several checks share is proved once per battery, and its time
is charged to the first check that uses it. The first battery fills the
package's caches; the median keeps it out of the result once there are
three or more. A failing check stops the run with its error.

Times are scaled to reference host speed as perfbench/run.py scales an op:
the host-speed probe (perfbench/probe.py) runs before the first battery
and after each one, and a battery's times are divided by its slowdown,
the mean of the probes on either side of it over PROBE_REF_S.
So rows taken at different times on a shared host compare; the first
line gives the median slowdown.

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
_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

from probe import PROBE_REF_S, probe_seconds  # noqa: E402

from corrqec import proofs  # noqa: E402


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def check_times(batteries: int) -> tuple[dict[str, tuple[float, float]], tuple[float, float], float]:
    """Each check's median probe-scaled process-CPU time in ms and median
    minor page faults, in battery order, the medians of one battery's
    totals, and the median slowdown."""
    samples = {name: [] for name, _ in proofs.CHECKS}
    totals, slowdowns = [], []
    probe_seconds()  # the first run pays for numpy's lazy set-up
    before = probe_seconds()
    for _ in range(batteries):
        battery, rows = proofs.Battery(), []
        for name, check in proofs.CHECKS:
            f0, t0 = _minor_faults(), process_time()
            check(battery)
            rows.append((name, 1e3 * (process_time() - t0), _minor_faults() - f0))
        after = probe_seconds()
        slowdown = (before + after) / (2 * PROBE_REF_S)
        before = after
        for name, ms, faults in rows:
            samples[name].append((ms / slowdown, faults))
        totals.append((sum(ms for _, ms, _ in rows) / slowdown, sum(f for _, _, f in rows)))
        slowdowns.append(slowdown)
    return ({name: _medians(s) for name, s in samples.items()}, _medians(totals), statistics.median(slowdowns))


def _medians(pairs) -> tuple[float, float]:
    return tuple(statistics.median(column) for column in zip(*pairs))


def main(argv) -> int:
    batteries = argv[0] if len(argv) == 1 else "15"
    if len(argv) > 1 or not batteries.isdigit() or int(batteries) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    batteries = int(batteries)
    medians, (total, total_faults), slowdown = check_times(batteries)
    width = max(len(name) for name in medians)
    print(f"median process-CPU time at reference host speed (median slowdown {slowdown:.2f}) "
          f"over {batteries} batteries")
    print(f"{'check':<{width}}  {'ms':>8}  {'share':>6}  {'faults':>7}")
    for name, (ms, faults) in medians.items():
        print(f"{name:<{width}}  {ms:8.2f}  {100 * ms / total:5.1f}%  {faults:7g}")
    print(f"{'total':<{width}}  {total:8.2f}  {'':>6}  {total_faults:7g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
