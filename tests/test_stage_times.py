"""`tools/stage_times.py` prints one timed row per stage of a `run` op, at
the probe's reference host speed."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"
_STAGES = ["parse", "_normalize_spec", "engine", "sample_counts",
           "report", "write", "other"]


def run_tool(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True, timeout=120)


def rows(stdout):
    lines = stdout.splitlines()
    assert lines[1].split() == ["stage", "ms", "share"]
    assert lines[-1].split()[0] == "total" and float(lines[-1].split()[1]) > 0
    return [line.split() for line in lines[2:-1]]


def test_the_default_op_prints_a_row_per_stage():
    proc = run_tool("3")
    assert proc.returncode == 0, proc.stderr
    head = re.match(r"median process-CPU time at reference host speed \(median slowdown (.+)\) "
                    r"over 3 runs of: corrqec run --scheme corr5 ", proc.stdout)
    assert head and float(head[1]) > 0
    table = rows(proc.stdout)
    assert [stage for stage, _, _ in table] == _STAGES
    # every stage the default op reaches takes time; none nests in another
    assert all(float(ms) > 0 and share.endswith("%") for stage, ms, share in table if stage != "other")


def test_a_hybrid_op_times_its_engine(tmp_path):
    out = tmp_path / "r.csv"
    proc = run_tool("2", "--scheme", "hybrid", "--n", "4", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert dict((stage, float(ms)) for stage, ms, _ in rows(proc.stdout))["engine"] > 0
    assert out.read_text().startswith("bitstring,count\n")


def test_a_failing_op_or_a_bad_repeat_count_is_an_error():
    proc = run_tool("2", "--scheme", "corr3", "--shots", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "exited 2" in proc.stderr and "shots must be at least 1" in proc.stderr
    for arg in ("x", "0"):
        proc = run_tool(arg)
        assert (proc.returncode, proc.stdout) == (2, ""), arg
