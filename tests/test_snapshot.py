"""`tools/snapshot.py`, the byte-identity snapshot, is itself deterministic,
and `tools/snapshot_diff.py` lets only rounding moves of a probability through."""
from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

from corrqec.noise_exp import _SCHEMES

_PATH = Path(__file__).resolve().parents[1] / "tools" / "snapshot.py"
_SPEC = importlib.util.spec_from_file_location("snapshot", _PATH)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)

USAGE_ERRORS = snapshot.usage_errors()  # read from tests/test_cli.py's source, not imported


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
    assert a["cli.txt"].count(b" exit=0\n") == len(_SCHEMES) == 4
    assert a["cli.txt"].count(b" exit=2\n") == len(USAGE_ERRORS) == 25
    realized = a["realize.txt"].decode().splitlines()
    assert [line.split()[0] for line in realized[:12]] == [
        "standard", "basic", "refutation", "recursive2", "recursive3",
        *(f"hybrid{n}" for n in range(2, 9)),
    ]
    assert [line.split()[0] for line in realized[12:]] == [f"{line.split()[0]}-dagger" for line in realized[:12]]
    assert all(len(line.split()[1]) == 64 for line in realized)  # a sha256 in hex
    assert sorted(name for name in a if name.startswith("cli")) == [
        "cli.txt", "cli/corr3-basic-seed0.json", "cli/corr3-seed0.json",
        "cli/corr5-seed0.json", "cli/hybrid3-seed0.json",
    ]


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

    _edit(counted / "realize.txt", "standard ", "standard-moved ")
    assert snapshot_diff.main([str(a), str(counted)]) == 1
    assert "differs beyond success_probability: realize.txt" in capsys.readouterr().out

    (missing / "reports/0000.csv").unlink()
    assert snapshot_diff.main([str(a), str(missing)]) == 1
    assert snapshot_diff.main([str(missing), str(a)]) == 1
