"""Where one `corrqec run` spends its time, stage by stage.

Usage: python tools/stage_times.py [REPEATS [RUN-FLAG ...]]

Runs `corrqec run RUN-FLAG ...` REPEATS times (default 100) in this
process, through `cli.main`, and prints the median process-CPU time in ms
of each stage of the op and its share of the median op, then the median op
total. Without RUN-FLAGs the op is a noisy five-wire corr run. Reports go to
a temporary directory unless the flags give --out.

The stages are timed by wrapping the module attributes the op looks up, so
the op runs the same code as without the tool:

  parse            cli._parse_args, the one read of the command line
  _normalize_spec  noise_exp._normalize_spec, which also resolves the
                   spec into circuit, attack factor and data wires
  engine           noise_exp.effect_distribution and
                   pauli_fault_distribution
  sample_counts    noise_exp.sample_counts
  report           noise_exp.report_to_json and report_to_csv
  write            from cli's open() of the report to its close
  other            the rest of cli.main

No stage calls another. The first run fills the package's caches; the
median keeps it out of the result once there are three or more repeats.
BLAS runs on one thread, as in perfbench and tools/check_times.py.

Times are scaled to reference host speed as perfbench/run.py scales an op:
the host-speed probe (perfbench/probe.py) runs before the first run and
after each one, and a run's stage times are divided by its slowdown, the
mean of the probes on either side of it over PROBE_REF_S.
So rows taken at different times on a shared host compare; the first
line gives the median slowdown.
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

from probe import PROBE_REF_S, probe_seconds  # noqa: E402

from corrqec import cli, noise_exp  # noqa: E402

DEFAULT_FLAGS = ("--scheme", "corr5", "--w", "ry:1.1", "--seed", "7",
                 "--noise", "p1=1e-3,p2=1e-2,readout=1e-2")

# stage -> (module, attribute names) whose calls it times
_WRAPPED = {
    "_normalize_spec": (noise_exp, ("_normalize_spec",)),
    "engine": (noise_exp, ("effect_distribution", "pauli_fault_distribution")),
    "sample_counts": (noise_exp, ("sample_counts",)),
    "report": (noise_exp, ("report_to_json", "report_to_csv")),
}
STAGES = ("parse", *_WRAPPED, "write", "other")


class _TimedOpen:
    """open() whose with-block is timed into the "write" stage."""

    def __init__(self, spent: dict[str, float], *args, **kwargs):
        self._spent, self._start = spent, process_time()
        self._f = open(*args, **kwargs)

    def __enter__(self):
        return self._f

    def __exit__(self, *exc):
        self._f.close()
        self._spent["write"] += process_time() - self._start
        return False


_MISSING = object()


@contextlib.contextmanager
def _stages_timed(spent: dict[str, float]):
    """Wrap every stage's attributes while the block runs, adding each
    call's process-CPU time to spent[stage]; restore them after."""

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += process_time() - start

        return wrapper

    patched = [(cli, "_parse_args", timed("parse", cli._parse_args)),
               (cli, "open", lambda *a, **k: _TimedOpen(spent, *a, **k))]
    patched += [(mod, attr, timed(stage, getattr(mod, attr)))
                for stage, (mod, attrs) in _WRAPPED.items() for attr in attrs]
    saved = [(obj, attr, vars(obj).get(attr, _MISSING)) for obj, attr, _ in patched]
    try:
        for obj, attr, wrapper in patched:
            setattr(obj, attr, wrapper)
        yield
    finally:
        for obj, attr, old in saved:
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


def stage_times(flags, repeats: int) -> tuple[dict[str, float], float, float]:
    """Each stage's median probe-scaled process-CPU time in ms over
    `repeats` runs of `corrqec run *flags`, in STAGES order, the median op
    total in ms and the median slowdown. ValueError naming the exit code
    and stderr if a run fails."""
    argv = ["run", *flags]
    times = {stage: [] for stage in STAGES}
    totals, slowdowns = [], []
    spent = dict.fromkeys(STAGES, 0.0)
    probe_seconds()  # the first run pays for numpy's lazy set-up
    before = probe_seconds()
    with tempfile.TemporaryDirectory() as tmp, _stages_timed(spent):
        os.environ["CORRQEC_OUTPUT_DIR"] = tmp
        for _ in range(repeats):
            spent.update(dict.fromkeys(STAGES, 0.0))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                start = process_time()
                code = cli.main(argv)
                total = process_time() - start
            if code != 0:
                raise ValueError(f"`corrqec {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
            spent["other"] = total - sum(spent.values())
            after = probe_seconds()
            slowdown = (before + after) / (2 * PROBE_REF_S)
            before = after
            for stage, s in spent.items():
                times[stage].append(1e3 * s / slowdown)
            totals.append(1e3 * total / slowdown)
            slowdowns.append(slowdown)
    medians = {stage: statistics.median(ts) for stage, ts in times.items()}
    return medians, statistics.median(totals), statistics.median(slowdowns)


def main(argv) -> int:
    repeats = argv[0] if argv else "100"
    if not repeats.isdigit() or int(repeats) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    flags = argv[1:] or DEFAULT_FLAGS
    try:
        medians, total, slowdown = stage_times(flags, int(repeats))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max(len(stage) for stage in STAGES)
    print(f"median process-CPU time at reference host speed (median slowdown {slowdown:.2f}) "
          f"over {repeats} runs of: corrqec run {' '.join(flags)}")
    print(f"{'stage':<{width}}  {'ms':>8}  {'share':>6}")
    for stage, ms in medians.items():
        print(f"{stage:<{width}}  {ms:8.3f}  {100 * ms / total:5.1f}%")
    print(f"{'total':<{width}}  {total:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
