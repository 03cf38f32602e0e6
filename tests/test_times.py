"""`tools/times.py` prints one timed row per stage of a `run` op or per
`verify` check, with its minor page faults, at the probe's reference host
speed."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from corrqec import proofs

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "times.py"
_STAGES = ["parse", "_normalize_spec", "engine", "sample_counts",
           "report", "write", "other"]


def run_tool(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True, timeout=120)


def table(stdout, label):
    """The part rows as (part, ms, share, faults) strings, and the total row
    as (ms, faults)."""
    lines = stdout.splitlines()
    assert lines[1].split() == [label, "ms", "share", "faults"]
    total = lines[-1].split()
    assert total[0] == "total" and len(total) == 3
    return [line.rsplit(None, 3) for line in lines[2:-1]], (float(total[1]), float(total[2]))


def assert_rows_add_up(rows, total):
    """One repeat has no median, so the rows sum to the total: the ms within
    print rounding, the faults exactly."""
    ms, faults = total
    assert abs(sum(float(row[1]) for row in rows) - ms) <= 0.0005 * (len(rows) + 1)
    assert sum(float(row[3]) for row in rows) == faults


def test_one_battery_prints_a_row_per_check():
    proc = run_tool("verify", "1")
    assert proc.returncode == 0, proc.stderr
    head = re.fullmatch(r"median process-CPU time at reference host speed \(median slowdown (.+)\) over 1 batteries",
                        proc.stdout.splitlines()[0])
    assert head and float(head[1]) > 0
    rows, total = table(proc.stdout, "check")
    assert [name for name, _, _, _ in rows] == [name for name, _ in proofs.CHECKS]
    assert len(rows) == 18
    assert all(float(ms) >= 0 and share.endswith("%") and float(faults) >= 0 for _, ms, share, faults in rows)
    assert_rows_add_up(rows, total)


def test_the_default_op_prints_a_row_per_stage():
    proc = run_tool("run", "3")
    assert proc.returncode == 0, proc.stderr
    head = re.match(r"median process-CPU time at reference host speed \(median slowdown (.+)\) "
                    r"over 3 runs of: corrqec run --scheme corr5 ", proc.stdout)
    assert head and float(head[1]) > 0
    rows, (total, _) = table(proc.stdout, "stage")
    assert total > 0
    assert [stage for stage, _, _, _ in rows] == _STAGES
    # every stage the default op reaches takes time; none nests in another
    assert all(float(ms) > 0 and share.endswith("%") for stage, ms, share, _ in rows if stage != "other")
    assert all(float(faults) >= 0 for _, _, _, faults in rows)


def test_one_run_s_stages_add_up_to_its_total():
    proc = run_tool("run", "1")
    assert proc.returncode == 0, proc.stderr
    rows, total = table(proc.stdout, "stage")
    assert [stage for stage, _, _, _ in rows] == _STAGES
    assert_rows_add_up(rows, total)


def test_a_hybrid_op_times_its_engine(tmp_path):
    out = tmp_path / "r.csv"
    proc = run_tool("run", "2", "--scheme", "hybrid", "--n", "4", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert dict((stage, float(ms)) for stage, ms, _, _ in table(proc.stdout, "stage")[0])["engine"] > 0
    assert out.read_text().startswith("bitstring,count\n")


def test_a_failing_op_is_an_error():
    proc = run_tool("run", "2", "--scheme", "corr3", "--shots", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "exited 2" in proc.stderr and "shots must be at least 1" in proc.stderr


def test_a_bad_mode_or_count_is_a_usage_error():
    usage = "Usage: python tools/times.py run [REPEATS [RUN-FLAG ...]] | verify [BATTERIES]\n"
    for args in ((), ("time",), ("run", "x"), ("run", "0"), ("run", "²"),
                 ("verify", "x"), ("verify", "0"), ("verify", "1", "2")):
        proc = run_tool(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", usage), args
