"""`tools/reach.py` finds no function in src/corrqec that no command
reaches, beyond its commented allowlist: code that only tests call belongs
in the tests, not in the package."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def test_every_function_in_src_is_reached_by_a_command():
    proc = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
