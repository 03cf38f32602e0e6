"""List the functions in src/corrqec that no command reaches.

Usage: python tools/reach.py

Installs a `sys.setprofile` hook before it imports `corrqec`, so calls made
at import time (such as `cli._build_parser`) count. Then it runs the
command corpus of tools/snapshot.py in process, through that tool's
`write_snapshot` over the whole `perfbench/workloads.oracle_grid()`, into
a temporary directory: the grid in both formats, the dumps, `verify`, the
default and extra runs and the usage errors. Only the standard library,
tools/snapshot.py, perfbench's `workloads` and `corrqec` are imported.

Then it prints, one per line as `module.qualname`, every function defined
in src/corrqec that was never called, except the names on ALLOWED, and
every ALLOWED name that src no longer defines. It exits 0 when it printed
nothing and 1 when it did. It exits 2, naming each on stderr, when a
corpus line exits with a code other than its expected one.
"""
from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import snapshot

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_PACKAGE = _SRC / "corrqec"

# Kept in src though no command reaches them:
ALLOWED = frozenset({
    # perfbench traces these names (perfbench/tracer.py), and
    # _wire_permutation serves embed; they move to a test helper once the
    # benchmark stops pinning them
    "circuit.born_distribution",
    "gates.embed",
    "gates._wire_permutation",
    "hybrid.error_unitary",
    "hybrid.conjugated_error",
    "hybrid.hybrid_protect",
    "correlated.three_qubit_protect",
    "circuit.partial_trace",
    "correlated.verify_block_structure",
    "linalg.equal_up_to_global_phase",
    # the dense all-wire attack, used by hybrid_protect, apply_channel and
    # the tests
    "circuit.attack",
    # dense references the tests run the sampled recoveries on, since
    # `verify` proves the corr claims exactly; they move to a test helper
    # with the other dense references
    "correlated.apply_channel",
    "correlated.make_channel",
    "correlated.CorrelatedChannel.__post_init__",
    "correlated.random_su2",
    "circuit.tensor",
    "circuit.fidelity",
    # numpy's view of a gate's matrix; every command reads `.array`, and
    # ComplexMatrix goes once perfbench/make_oracle.py stops reading it
    "linalg.ComplexMatrix.__array__",
})

def _defined() -> dict[tuple[str, int, str], str]:
    """Every function of the package's source by (file, first line,
    qualname), mapped to its `module.qualname`; class and module bodies,
    lambdas and comprehensions are left out."""
    out = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        module = _PACKAGE.name if path.stem == "__init__" else path.stem
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [k for k in code.co_consts if hasattr(k, "co_code")]
            if code.co_flags & 1 and not code.co_name.startswith("<"):  # CO_OPTIMIZED: a function
                out[(os.path.realpath(path), code.co_firstlineno, code.co_qualname)] = f"{module}.{code.co_qualname}"
    return out


def main() -> int:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(_SRC))
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            wrong = snapshot.write_snapshot(tmp, snapshot.oracle_grid())
    finally:
        sys.setprofile(None)
    for argv, code in wrong:
        print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
    if wrong:
        return 2
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname) for c in called}
    defined = _defined()
    unreached = sorted(name for key, name in defined.items() if key not in reached and name not in ALLOWED)
    stale = sorted(ALLOWED - set(defined.values()))
    for name in unreached:
        print(name)
    for name in stale:
        print(f"{name} (allowed, but not defined)")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
