"""`tools/snapshot.py`, the byte-identity snapshot, is itself deterministic."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "snapshot.py"
_SPEC = importlib.util.spec_from_file_location("snapshot", _PATH)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_snapshots_of_one_tree_are_identical(tmp_path):
    ops = snapshot.oracle_grid()[::97]
    snapshot.write_snapshot(tmp_path / "a", ops)
    snapshot.write_snapshot(tmp_path / "b", ops)
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a == b
    assert sum(name.startswith("reports") for name in a) == 2 * len(ops)
    assert a["runs.txt"].count(b" exit=0\n") == 2 * len(ops)
    assert a["dump.txt"].count(b"== ") == len(snapshot.DUMP_TARGETS) == 21
    assert a["verify.txt"].endswith(b"18/18 checks passed\nexit=0\n")
