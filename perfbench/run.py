"""corrqec benchmark: `corrqec run` sweeps and the `verify` battery.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Drives the program only through `corrqec.cli.main(argv)`, in process, with
argv generated from the seed (see workloads.py). Closed loop: one client
issues one op at a time and waits for it. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Lines
before it print every metric with its unit and the environment record.
See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread: a single closed-loop client on a small shared machine;
# more threads made per-op latency less steady without making it faster.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check, load_oracle  # noqa: E402
from probe import PROBE_REF_S, probe_seconds  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPEATS = 7  # fresh processes per run; setup_s is their median
WARMUP_OPS = 3
MIN_PASSES = 2  # complete passes over the op list, however long they take
RERUN_OPS = 4  # ops of the first block run again after timing, reports compared bytewise
MIN_TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least MIN_TAIL_BEYOND samples beyond it."""
    for q in range(99, 49, -1):
        if n * (100 - q) >= 100 * MIN_TAIL_BEYOND:
            return q
    return 50


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # CPU seconds per op, scaled by passes()
    cpu_s: float = 0.0
    wall_s: float = 0.0
    passes: int = 0
    slowdowns: list[float] = field(default_factory=list)  # probe time / PROBE_REF_S, per op

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.cpu_s


class Runner:
    """Invokes ops in process, keeps their outputs, and checks them."""

    def __init__(self, cli, oracle: dict[str, float], out_dir: Path):
        self.cli = cli
        self.oracle = oracle
        self.out_dir = out_dir
        self.first: dict[tuple[int, int], tuple[Op, object, str, str | None]] = {}
        self.repeats: dict[tuple[int, int], int] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def run_op(self, op: Op, key: tuple[int, int]) -> float:
        """Run one op; return its latency in CPU seconds. Outputs are checked later."""
        path = self.out_dir / f"op{key[0]}-{key[1]}.{op.fmt}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = process_time()
            try:
                rc = self.cli.main(op.command(str(path)))
            except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
                rc = f"exception {exc!r}"
            latency = process_time() - start
        report = path.read_text(encoding="utf-8") if op.kind == "run" and path.exists() else None
        self.attempted += 1
        got = (op, rc, out.getvalue(), report)
        if key not in self.first:
            self.first[key] = got
            self.repeats[key] = 0
        elif got != self.first[key]:
            self.failures.append(f"{' '.join(op.argv)}: output differs from its earlier run")
        else:
            self.repeats[key] += 1
        return latency

    def passes(self, blocks: list[list[Op]], seconds: float) -> Phase:
        """Run the op list in passes until `seconds` of wall time have passed.

        The host-speed probe runs before the first op and after every op.
        An op's latency is its CPU time scaled to reference host speed:
        times PROBE_REF_S over the mean of the probes on either side of it.
        Only complete passes are timed, so every run times the same mix; a
        pass cut off by the deadline is run and checked but not timed.
        """
        ops = [op for block in blocks for op in block]
        keys = [(i, j) for i, block in enumerate(blocks) for j in range(len(block))]
        phase = Phase()
        gc.collect()
        start = perf_counter()

        def time_left() -> bool:
            return phase.passes < MIN_PASSES or perf_counter() - start < seconds

        probe_seconds()  # the first run pays for numpy's lazy set-up
        before = probe_seconds()
        while time_left():
            slowdowns, latencies = [], []
            for key, op in zip(keys, ops):
                if not time_left():
                    break
                cpu_s = self.run_op(op, key)
                after = probe_seconds()
                slowdown = (before + after) / (2 * PROBE_REF_S)
                slowdowns.append(slowdown)
                latencies.append(cpu_s / slowdown)
                before = after
            else:
                phase.slowdowns += slowdowns
                phase.latencies += latencies
                phase.passes += 1
        phase.cpu_s = sum(phase.latencies)
        phase.wall_s = perf_counter() - start
        return phase

    def timed(self, blocks: list[list[Op]], seconds: float, tracer: Tracer):
        """Run whole blocks, cycling, until `seconds` of wall time have passed.

        Every second block runs traced, so both phases see the same load on
        the machine; returns (untraced, traced) phases.
        """
        gc.collect()
        plain, traced = Phase(), Phase()
        start = perf_counter()
        b = 0
        while b < 2 or perf_counter() - start < seconds:
            i = b % len(blocks)
            tracing = b % 2 == 1
            phase = traced if tracing else plain
            with tracer if tracing else contextlib.nullcontext():
                cpu_start, wall_start = process_time(), perf_counter()
                for j, op in enumerate(blocks[i]):
                    phase.latencies.append(self.run_op(op, (i, j)))
                phase.cpu_s += process_time() - cpu_start
                phase.wall_s += perf_counter() - wall_start
            b += 1
        return plain, traced

    def cold_starts(self, op: Op, repeats: int) -> list[float]:
        """Time import + first op in fresh processes, scaled to reference host speed."""
        seconds = []
        for r in range(repeats):
            path = self.out_dir / f"cold{r}.{op.fmt}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "coldstart.py"), *op.command(str(path))],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
            )
            self.attempted += 1
            try:
                res = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                self.failures.append(f"cold start exited {proc.returncode}: {proc.stderr[-300:]}")
                continue
            report = path.read_text(encoding="utf-8") if path.exists() else None
            why = check(op, res["rc"], res["stdout"], report, self.oracle)
            if why:
                self.failures.append(f"cold {' '.join(op.argv)}: {why}")
            seconds.append(res["seconds"] * PROBE_REF_S / res["probe"])
        return seconds

    def verdicts(self) -> int:
        """Check each distinct op's output once; return the failed op count."""
        failed = len(self.failures)
        for key, (op, rc, stdout, report) in self.first.items():
            why = check(op, rc, stdout, report, self.oracle)
            if why:
                self.failures.append(f"{' '.join(op.argv)}: {why}")
                failed += 1 + self.repeats[key]
        return failed


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(np, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrqec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(phase: Phase, setup: list[float]) -> dict:
    lat_ms = [t * 1e3 for t in phase.latencies]
    n = len(lat_ms)
    q = tail_percentile(n)
    return {
        "throughput_ops_per_s": (
            phase.throughput, "1/s",
            f"{n} ops in {phase.cpu_s:.2f} CPU s at reference speed, {phase.passes} passes "
            f"({phase.wall_s:.2f} s wall; host at {statistics.median(phase.slowdowns):.3f}x "
            "the probe's reference time, median)"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms", f"n={n}"),
        "latency_tail_ms": (percentile(lat_ms, q), "ms", f"p{q}, n={n}"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes, at reference speed"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
    }


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> tuple[dict, list[str]]:
    ops = len(traced.latencies)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3 / ops, "ms", "self time per op")
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "calls/op", "")
        metrics[f"{name}.errors"] = (tracer.errors[name], "count", "raised out of the function")
    overhead = 100.0 * (1.0 - traced.throughput / plain.throughput)
    metrics["trace_overhead_pct"] = (
        overhead, "%", f"traced {traced.throughput:.3f} vs untraced {plain.throughput:.3f} ops/s")
    metrics["trace_root_ms"] = (tracer.root_s * 1e3 / ops, "ms", f"{ROOT_SPAN} span per op")
    gap_pct = 100.0 * tracer.gap_s() / tracer.root_s
    metrics["trace_gap_pct"] = (gap_pct, "%", "root span minus the sum of all self times")
    problems = []
    if abs(gap_pct) > 1e-6:
        problems.append(f"self times do not add up to the root span: gap {gap_pct:.3g} %")
    if tracer.calls[ROOT_SPAN] != ops:
        problems.append(f"{tracer.calls[ROOT_SPAN]} root spans for {ops} ops")
    return metrics, problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corrqec" / "cli.py").is_file():
        print(f"perfbench: no corrqec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from corrqec import cli

    if Path(cli.__file__).resolve().parent != SRC / "corrqec":
        print(f"perfbench: imported corrqec from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    blocks = workload.blocks(args.seed)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, load_oracle(), out_dir)
    try:
        setup = [] if args.trace else runner.cold_starts(workload.cold_op, SETUP_REPEATS)
        for j, op in enumerate(blocks[0][:WARMUP_OPS]):
            runner.run_op(op, (0, j))
        if args.trace:
            tracer = Tracer()
            plain, traced = runner.timed(blocks, args.seconds, tracer)
            metrics, problems = per_layer(plain, traced, tracer)
            if args.workload == "verify" and tracer.calls["circuit.realize"] == 0:
                problems.append("verify never called circuit.realize: the proofs were skipped")
        else:
            metrics, problems = end_to_end(runner.passes(blocks, args.seconds), setup), []
        for j, op in enumerate(blocks[0][:RERUN_OPS]):
            runner.run_op(op, (0, j))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    failed = runner.verdicts()
    for why in (problems + runner.failures)[:10]:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(environment(np, args), sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'error_rate':44s} {failed / runner.attempted:14.6g} {'ratio':9s} "
          f"{failed} failed of {runner.attempted} attempted")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
