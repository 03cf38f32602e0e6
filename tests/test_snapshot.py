"""`tools/snapshot.py`, the byte-identity snapshot, is itself deterministic,
names each command line of its corpus that exits with the wrong code (as
`tools/reach.py` does) and refuses to snapshot another tree, and
`tools/snapshot_diff.py` lets only rounding moves of a probability through."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from corrqec.noise_exp import _SCHEMES

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))

import reach  # noqa: E402
import snapshot  # noqa: E402
import snapshot_diff  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_snapshots_of_one_tree_are_identical(tmp_path):
    ops = snapshot.oracle_grid()[::97]
    assert snapshot.write_snapshot(tmp_path / "a", ops) == []
    assert snapshot.write_snapshot(tmp_path / "b", ops) == []
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a == b
    assert sum(name.startswith("reports") for name in a) == 2 * len(ops)
    assert a["runs.txt"].count(b" exit=0\n") == 2 * len(ops)
    assert a["dump.txt"].count(b"== ") == len(snapshot.DUMP_TARGETS) == 21
    assert a["verify.txt"].endswith(b"18/18 checks passed\nexit=0\n")
    cli_lines = len(_SCHEMES) + len(snapshot.EXTRA_RUNS) + len(snapshot.USAGE_ERRORS)
    assert a["cli.txt"].count(b"== ") == cli_lines == 4 + 3 + 25
    realized = a["realize.txt"].decode().splitlines()
    assert [line.split()[0] for line in realized[:12]] == [
        "standard", "basic", "refutation", "recursive2", "recursive3",
        *(f"hybrid{n}" for n in range(2, 9)),
    ]
    assert [line.split()[0] for line in realized[12:]] == [f"{line.split()[0]}-dagger" for line in realized[:12]]
    assert all(len(line.split()[1]) == 64 for line in realized)  # a sha256 in hex
    assert sorted(name for name in a if name.startswith("cli")) == [
        "cli.txt", "cli/corr3-basic-seed0.json", "cli/corr3-seed0.json", "cli/corr3-seed1.json",
        "cli/corr5-seed0.json", "cli/hybrid3-seed0.json", "cli/hybrid4-seed0.csv", "cli/hybrid4-seed0.json",
    ]  # so no usage error wrote a file


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


def test_a_line_with_the_wrong_exit_code_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # both tools prepend a src
    ops = snapshot.oracle_grid()[:1]
    monkeypatch.setattr(snapshot, "oracle_grid", lambda: ops)
    monkeypatch.setattr(snapshot, "DUMP_TARGETS", ("u", "nonsense"))
    assert snapshot.write_snapshot(tmp_path / "a", ops) == [(["dump", "nonsense"], 2)]
    capsys.readouterr()
    assert snapshot.main([str(_TOOLS.parent), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == "error: dump nonsense exited 2\n"
    assert (tmp_path / "b" / "realize.txt").exists()  # every file is still written
    assert reach.main() == 2
    assert capsys.readouterr() == ("", "error: dump nonsense exited 2\n")


def test_a_snapshot_of_another_tree_or_into_a_used_outdir_is_refused(tmp_path, capsys, monkeypatch):
    # corrqec comes from src by PYTHONPATH, so a checkout with no src of
    # its own would silently snapshot this tree
    proc = subprocess.run(
        [sys.executable, str(_TOOLS / "snapshot.py"), str(tmp_path / "no-such-checkout"), str(tmp_path / "x")],
        env=dict(os.environ, PYTHONPATH=str(_TOOLS.parent / "src")), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: corrqec imports from ")
    assert not (tmp_path / "x").exists()

    monkeypatch.setattr(sys, "path", list(sys.path))
    (tmp_path / "used" / "reports").mkdir(parents=True)
    assert snapshot.main([str(_TOOLS.parent), str(tmp_path / "used")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'used' / 'reports'} exists already\n"
