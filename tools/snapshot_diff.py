"""Compare two `tools/snapshot.py` outputs, allowing only rounding moves.

Usage: python tools/snapshot_diff.py <snapshot A> <snapshot B>

An engine change that reorders floating-point work may move a report's
exact `success_probability` in its last digits and nothing else. This
prints how many such values moved and the largest |delta|, and exits 0,
when every other byte of the two snapshots is the same: the file set, every
other line of every `reports/*.json`, the CSV reports (counts), `runs.txt`,
`dump.txt`, `verify.txt`, `cli.txt` and `realize.txt`. Anything else is
printed and exits 1.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

_PROBABILITY = re.compile(r'^(\s*"success_probability": )(\S+?)(,?)$')


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _report_deltas(a: bytes, b: bytes) -> list[float] | None:
    """|delta| of each moved success_probability line, or None if anything
    other than such a line differs."""
    la, lb = a.decode("utf-8").split("\n"), b.decode("utf-8").split("\n")
    if len(la) != len(lb):
        return None
    deltas = []
    for x, y in zip(la, lb):
        if x == y:
            continue
        mx, my = _PROBABILITY.match(x), _PROBABILITY.match(y)
        if not (mx and my and mx[1] == my[1] and mx[3] == my[3]):
            return None
        deltas.append(abs(float(mx[2]) - float(my[2])))
    return deltas


def compare(a: Path, b: Path) -> tuple[list[str], list[float]]:
    """(problems, |delta| per moved success_probability) between snapshots."""
    fa, fb = _files(a), _files(b)
    problems = [f"only in {a}: {name}" for name in sorted(fa - fb)]
    problems += [f"only in {b}: {name}" for name in sorted(fb - fa)]
    deltas: list[float] = []
    for name in sorted(fa & fb):
        xa, xb = (a / name).read_bytes(), (b / name).read_bytes()
        if xa == xb:
            continue
        moved = _report_deltas(xa, xb) if re.fullmatch(r"reports/[^/]+\.json", name) else None
        if moved is None:
            problems.append(f"differs beyond success_probability: {name}")
        else:
            deltas += moved
    return problems, deltas


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    for root in (a, b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    problems, deltas = compare(a, b)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(deltas)} success_probability values moved, max |delta| = {max(deltas, default=0.0):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
