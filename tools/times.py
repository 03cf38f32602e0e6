"""Where `corrqec run` and `corrqec verify` spend their time, part by part.

Usage: python tools/times.py run [REPEATS [RUN-FLAG ...]] | verify [BATTERIES]

Each mode repeats one op in this process and prints, for each part of the
op, its median process-CPU time in ms, its share of the median op and its
median count of minor page faults (`getrusage(RUSAGE_SELF).ru_minflt`),
then the median op's totals. The first repeat fills the package's caches;
the median keeps it out of the result once there are three or more.

`run` runs `corrqec run RUN-FLAG ...` REPEATS times (default 100) through
`cli.main`; without RUN-FLAGs the op is a noisy five-wire corr run. Its
parts are the op's stages, timed by wrapping the module attributes the op
looks up, so the op runs the same code as without the tool:

  parse            cli._parse_args, the one read of the command line
  _normalize_spec  noise_exp._normalize_spec, which also resolves the
                   spec into circuit, attack factor and data wires
  engine           noise_exp.effect_distribution and
                   pauli_fault_distribution
  sample_counts    noise_exp.sample_counts
  report           noise_exp.report_to_json and report_to_csv
  write            from cli's open() of the report to its close
  other            the rest of cli.main

No stage calls another. Unless the flags give --out, each run writes its
report into one temporary directory, which the tool empties after the run
by moving the report aside. So the "write" stage times what a one-shot run
writing a fresh name pays: a new file in an existing directory, not a
rewrite of the last run's report, which can cost several times less on
ext4. A run that exits non-zero stops the tool with exit code 1.

`verify` runs the `proofs.CHECKS` battery BATTERIES times (default 15). Its
parts are the checks, in battery order. Each battery's checks share one
`proofs.Battery()`, as in `corrqec verify`, so the rows add up to what a
real battery costs: a lemma that several checks share is proved once per
battery, and its time is charged to the first check that uses it. A
failing check stops the run with its error.

Times are scaled to reference host speed as perfbench/run.py scales an op:
the host-speed probe (perfbench/probe.py) runs before the first repeat and
after each one, and a repeat's times are divided by its slowdown, the mean
of the probes on either side of it over PROBE_REF_S. So rows taken at
different times on a shared host compare; the first line gives the median
slowdown.

BLAS runs on one thread, as in perfbench: process CPU time sums over
threads, and idle BLAS workers spinning on a small product doubled the
battery's CPU time on a 2-core host.
"""
from __future__ import annotations

import contextlib
import io
import os
import resource
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

from corrqec import cli, noise_exp, proofs  # noqa: E402

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


def _cpu_and_faults() -> tuple[float, int]:
    return process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def _charged(spent: dict, part: str):
    """Add the block's process-CPU seconds and minor page faults to
    spent[part], a (seconds, faults) pair."""
    t0, f0 = _cpu_and_faults()
    try:
        yield
    finally:
        t1, f1 = _cpu_and_faults()
        seconds, faults = spent.get(part, (0.0, 0))
        spent[part] = (seconds + t1 - t0, faults + f1 - f0)


def scaled_medians(repeats):
    """Probe-scale each {part: (seconds, faults)} that `repeats` yields, one
    per repeat. Returns each part's median ms and median faults, in the
    order of the repeats' parts, the medians of one repeat's totals, and
    the median slowdown."""
    samples, totals, slowdowns = {}, [], []
    probe_seconds()  # the first run pays for numpy's lazy set-up
    before = probe_seconds()
    for spent in repeats:
        after = probe_seconds()
        slowdown = (before + after) / (2 * PROBE_REF_S)
        before = after
        rows = [(1e3 * seconds / slowdown, faults) for seconds, faults in spent.values()]
        for part, row in zip(spent, rows):
            samples.setdefault(part, []).append(row)
        totals.append(tuple(map(sum, zip(*rows))))
        slowdowns.append(slowdown)
    return ({part: _medians(rows) for part, rows in samples.items()}, _medians(totals),
            statistics.median(slowdowns))


def _medians(pairs) -> tuple[float, float]:
    return tuple(statistics.median(column) for column in zip(*pairs))


def batteries(count: int):
    """Yield each of `count` batteries' {check: (seconds, faults)}, in
    `proofs.CHECKS` order."""
    for _ in range(count):
        spent, battery = {}, proofs.Battery()
        for name, check in proofs.CHECKS:
            with _charged(spent, name):
                check(battery)
        yield spent


_MISSING = object()


@contextlib.contextmanager
def _stages_timed(spent: dict):
    """Wrap every stage's attributes while the block runs, charging each
    call to spent[stage]; restore them after."""

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            with _charged(spent, stage):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def timed_open(*args, **kwargs):
        with _charged(spent, "write"), open(*args, **kwargs) as f:
            yield f

    patched = [(cli, "_parse_args", timed("parse", cli._parse_args)), (cli, "open", timed_open)]
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


def runs(flags, count: int):
    """Yield each of `count` runs' {stage: (seconds, faults)} for `corrqec
    run *flags`, in STAGES order. ValueError naming the exit code and
    stderr if a run fails."""
    argv, spent = ["run", *flags], {}
    with tempfile.TemporaryDirectory() as tmp, _stages_timed(spent):
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        os.environ["CORRQEC_OUTPUT_DIR"] = out
        for i in range(count):
            spent.update(dict.fromkeys(STAGES, (0.0, 0)))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    _charged(spent, "other"):
                code = cli.main(argv)
            if code != 0:
                raise ValueError(f"`corrqec {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
            for name in os.listdir(out):
                os.replace(os.path.join(out, name), os.path.join(tmp, f"{i}-{name}"))
            inner = zip(*(spent[stage] for stage in STAGES[:-1]))
            spent["other"] = tuple(whole - sum(part) for whole, part in zip(spent["other"], inner))
            yield dict(spent)


def print_table(label: str, medians, totals, slowdown: float, over: str) -> None:
    (total, total_faults), width = totals, max(len(part) for part in medians)
    print(f"median process-CPU time at reference host speed (median slowdown {slowdown:.2f}) over {over}")
    print(f"{label:<{width}}  {'ms':>8}  {'share':>6}  {'faults':>7}")
    for part, (ms, faults) in medians.items():
        print(f"{part:<{width}}  {ms:8.3f}  {100 * ms / total:5.1f}%  {faults:7g}")
    print(f"{'total':<{width}}  {total:8.3f}  {'':>6}  {total_faults:7g}")


def main(argv) -> int:
    mode, args = (argv[0], argv[1:]) if argv else (None, [])
    defaults = {"run": "100", "verify": "15"}
    count = args[0] if args else defaults.get(mode, "")
    if mode not in defaults or not count.isdecimal() or int(count) < 1 \
            or (mode == "verify" and len(args) > 1):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    count = int(count)
    if mode == "verify":
        print_table("check", *scaled_medians(batteries(count)), f"{count} batteries")
        return 0
    flags = args[1:] or DEFAULT_FLAGS
    try:
        table = scaled_medians(runs(flags, count))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_table("stage", *table, f"{count} runs of: corrqec run {' '.join(flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
