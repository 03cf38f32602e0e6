"""List the functions in src/corrqec that no command reaches.

Usage: python tools/reach.py

Installs a `sys.setprofile` hook before it imports `corrqec`, so calls made
at import time (such as `cli._build_parser`) count, then runs these
command lines in process through `cli.main`:

  verify
  dump u, old-u, p2, p3, pn:4 and the four circuit: targets
  run for each correlated scheme with the h, ry:1.1 and matrix: attacks,
      at --rounds 2 with every noise key set
  run --scheme hybrid at n = 3, 4 and 8, noisy, in JSON and in CSV, with
      --ibm-bit-order
  each command line of tests/test_cli.py's USAGE_ERRORS, read from its
      source with `ast`, so no test dependency is imported

Reports go to a temporary directory. Then it prints, one per line as
`module.qualname`, every function defined in src/corrqec that was never
called, except the names on ALLOWED, and every ALLOWED name that src no
longer defines. It exits 0 when it printed nothing, 1 when it did, and 2
when a command line exits with a code other than the one it expects.
Only the standard library and `corrqec` itself are imported.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

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

_NOISE = "p1=0.001,p2=0.01,readout=0.01"
_MATRIX = "matrix:[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]"
_HYBRID = (("3", "--ancilla", "ry:0.7", "--errors", "x,y"), ("4", "--ancilla", "10"), ("8",))


def usage_errors() -> list[list[str]]:
    """tests/test_cli.py's USAGE_ERRORS, evaluated from its expression alone."""
    tree = ast.parse((_ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["USAGE_ERRORS"]:
            return eval(compile(ast.Expression(node.value), "USAGE_ERRORS", "eval"), {"__builtins__": {}})
    raise LookupError("tests/test_cli.py defines no USAGE_ERRORS")


def command_lines() -> list[tuple[list[str], int]]:
    """Each command line with the exit code it must give."""
    lines = [["verify"]]
    lines += [["dump", what] for what in ("u", "old-u", "p2", "p3", "pn:4", "circuit:standard3",
                                          "circuit:basic3", "circuit:corr5", "circuit:hybrid5")]
    for scheme in ("corr3", "corr3-basic", "corr5"):
        for w in ("h", "ry:1.1", _MATRIX):
            lines.append(["run", "--scheme", scheme, "--w", w, "--rounds", "2", "--noise", _NOISE])
    for n, *rest in _HYBRID:
        for fmt in ("json", "csv"):
            lines.append(["run", "--scheme", "hybrid", "--n", n, *rest, "--noise", _NOISE,
                          "--format", fmt, "--ibm-bit-order"])
    return [(argv, 0) for argv in lines] + [(argv, 2) for argv in usage_errors()]


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
        from corrqec import cli

        with tempfile.TemporaryDirectory() as tmp:
            os.environ["CORRQEC_OUTPUT_DIR"] = tmp
            for argv, expected in command_lines():
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                if code != expected:
                    print(f"{argv!r} exited {code}, not {expected}: {err.getvalue()}", file=sys.stderr)
                    return 2
    finally:
        sys.setprofile(None)
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
