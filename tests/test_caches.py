"""Every cache in corrqec is read again by the benchmark's workloads.

A cache that no workload reads after warm-up holds memory and code for
nothing: what it would return is rebuilt only on a miss of a cache above
it. This runs one block of each workload in `perfbench/workloads.py` twice
through `cli.main` and requires every `functools` cache defined in a
corrqec module to gain hits on the second pass in at least one workload.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

import corrqec  # noqa: E402
from corrqec import cli  # noqa: E402


def _caches() -> dict:
    """Each functools cache defined in a corrqec module, by module.name."""
    found = {}
    for info in pkgutil.iter_modules(corrqec.__path__):
        if info.name == "__main__":  # running it runs the CLI
            continue
        module = importlib.import_module(f"corrqec.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_every_cache_is_read_again_by_some_workload(tmp_path):
    caches = _caches()
    assert "circuit._effects" in caches and "gates.ry_from_text" in caches
    reread = set()
    for workload in WORKLOADS.values():
        ops = workload.blocks(1)[0]
        for _ in range(2):  # warm-up, then the pass that counts
            hits = {name: c.cache_info().hits for name, c in caches.items()}
            for i, op in enumerate(ops):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(op.command(str(tmp_path / f"{i}.{op.fmt}"))) == 0, op.argv
        reread |= {name for name, c in caches.items() if c.cache_info().hits > hits[name]}
    assert sorted(set(caches) - reread) == []
