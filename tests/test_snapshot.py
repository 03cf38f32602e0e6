"""`tools/snapshot.py`, the byte-identity snapshot, is itself deterministic,
and `tools/snapshot_diff.py` lets only rounding moves of a probability through."""
from __future__ import annotations

import importlib.util
import json
import shutil
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


_DIFF_PATH = Path(__file__).resolve().parents[1] / "tools" / "snapshot_diff.py"
_DIFF_SPEC = importlib.util.spec_from_file_location("snapshot_diff", _DIFF_PATH)
snapshot_diff = importlib.util.module_from_spec(_DIFF_SPEC)
_DIFF_SPEC.loader.exec_module(snapshot_diff)


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_snapshot_diff_accepts_only_moved_probabilities(tmp_path, capsys):
    ops = [op for op in snapshot.oracle_grid() if op.noise != "0"][:1]
    a, moved, counted, missing = (tmp_path / d for d in ("a", "moved", "counted", "missing"))
    snapshot.write_snapshot(a, ops)
    for d in (moved, counted, missing):
        shutil.copytree(a, d)
    report = "reports/0000.json"
    prob = json.loads((a / report).read_text(encoding="utf-8"))["success_probability"]
    _edit(moved / report, f": {prob!r}\n", f": {prob - 2.0**-53!r}\n")
    assert snapshot_diff.main([str(a), str(a)]) == 0
    assert snapshot_diff.main([str(a), str(moved)]) == 0
    assert "1 success_probability values moved, max |delta| = 1.11e-16" in capsys.readouterr().out

    counts = json.loads((a / report).read_text(encoding="utf-8"))["counts"]
    key, c = next(iter(counts.items()))
    _edit(counted / report, f'"{key}": {c}', f'"{key}": {c + 1}')
    assert snapshot_diff.main([str(a), str(counted)]) == 1
    assert f"differs beyond success_probability: {report}" in capsys.readouterr().out

    (missing / "reports/0000.csv").unlink()
    assert snapshot_diff.main([str(a), str(missing)]) == 1
    assert snapshot_diff.main([str(missing), str(a)]) == 1
