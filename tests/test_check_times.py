"""`tools/check_times.py` prints one timed row per `verify` check, with
its minor page faults, at the probe's reference host speed."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from corrqec import cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_times.py"


def test_one_battery_prints_a_row_per_check():
    proc = subprocess.run([sys.executable, str(_TOOL), "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    head = re.fullmatch(r"median process-CPU time at reference host speed \(median slowdown (.+)\) over 1 batteries",
                        lines[0])
    assert head and float(head[1]) > 0
    assert lines[1].split()[-3:] == ["ms", "share", "faults"]
    rows = [line.rsplit(None, 3) for line in lines[2:-1]]
    assert [name for name, _, _, _ in rows] == [name for name, _ in cli.CHECKS]
    assert len(rows) == 18
    assert all(float(ms) >= 0 and share.endswith("%") and float(faults) >= 0 for _, ms, share, faults in rows)
    total = lines[-1].split()
    assert total[0] == "total" and len(total) == 3
    assert float(total[2]) == sum(float(faults) for _, _, _, faults in rows)  # one battery: no median


def test_a_bad_battery_count_is_a_usage_error():
    for arg in ("x", "0"):
        proc = subprocess.run([sys.executable, str(_TOOL), arg], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), arg
