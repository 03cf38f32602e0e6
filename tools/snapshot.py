"""Write every output that must stay byte-identical across engine changes.

Usage: python tools/snapshot.py <checkout> <outdir>

Runs `corrqec` from <checkout>/src, in process, over the command lines of
this repo's `perfbench/workloads.oracle_grid()` and writes into <outdir>:

  reports/NNNN.json, reports/NNNN.csv   each grid argv, in both formats
  runs.txt     per report: file name, exit code, stdout and stderr
  dump.txt     each `dump` target's exit code and output
  verify.txt   `verify` stdout and exit code
  cli.txt      exit code, stdout and stderr of `run --scheme <s>` with no
               other flag, for each scheme, and of each command line in
               tests/test_cli.py's USAGE_ERRORS, read from its source with
               `ast` (as tools/reach.py reads it), so the test module and
               its imports are never loaded against either checkout
  cli/         the reports those default runs write under their default names
  realize.txt  per fixed package circuit (both corr decompositions, the
               refutation, recursive_encoder(2..3), the hybrid encoders
               n = 2..8) and per `dagger_circuit` of it: its name and the
               sha256 of `realize(c).tobytes()`, so the matrices `verify`
               compares are pinned bit for bit, not only its printed digits

Reports are written under relative paths from inside <outdir> (the
default runs from inside <outdir>/cli, with $CORRQEC_OUTPUT_DIR unset), so
the `wrote ...` lines do not depend on where <outdir> is. Run it at two
checkouts and compare the two directories with `diff -r`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "perfbench"))
sys.path.insert(0, str(_ROOT / "tools"))

from reach import usage_errors  # noqa: E402
from workloads import oracle_grid  # noqa: E402

DUMP_TARGETS = (
    "u", "old-u", "p2", "p3", *(f"pn:{n}" for n in range(2, 9)),
    "circuit:standard3", "circuit:basic3", "circuit:corr5",
    *(f"circuit:hybrid{n}" for n in range(2, 9)),
)


def _run(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_lines(main) -> list[str]:
    """Each scheme's run with every default, then each usage error; run
    from inside the directory the default reports should land in."""
    from corrqec.noise_exp import _SCHEMES

    lines = []
    for argv in [["run", "--scheme", s] for s in _SCHEMES] + usage_errors():
        code, out, err = _run(main, argv)
        lines.append(f"== {' '.join(argv)} exit={code}\n{out}{err}")
    return lines


def _realize_lines() -> list[str]:
    from corrqec import correlated, hybrid
    from corrqec.circuit import dagger_circuit, realize

    named = [("standard", correlated.standard_decomposition()),
             ("basic", correlated.basic_decomposition()),
             ("refutation", correlated._erroneous_decomposition())]
    named += [(f"recursive{k}", correlated.recursive_encoder(k)) for k in (2, 3)]
    named += [(f"hybrid{n}", hybrid.encoder_circuit(n)) for n in range(hybrid.MIN_QUBITS, hybrid.MAX_QUBITS + 1)]
    named += [(f"{name}-dagger", dagger_circuit(c)) for name, c in named]
    return [f"{name} {hashlib.sha256(realize(c).tobytes()).hexdigest()}\n" for name, c in named]


def write_snapshot(outdir, ops) -> None:
    """Write the reports of `ops` (perfbench Ops), the dumps, `verify`,
    the default and usage-error command lines and the realized circuits
    into outdir with the `corrqec` already imported."""
    from corrqec.cli import main

    outdir = Path(outdir)
    (outdir / "reports").mkdir(parents=True)
    (outdir / "cli").mkdir()
    runs, dumps = [], []
    cwd = os.getcwd()
    env_dir = os.environ.pop("CORRQEC_OUTPUT_DIR", None)
    os.chdir(outdir)
    try:
        for i, op in enumerate(ops):
            for fmt in ("json", "csv"):
                argv = list(op.argv)
                argv[argv.index("--format") + 1] = fmt
                name = f"reports/{i:04d}.{fmt}"
                code, out, err = _run(main, argv + ["--out", name])
                runs.append(f"{name} exit={code}\n{out}{err}")
        for target in DUMP_TARGETS:
            code, out, err = _run(main, ["dump", target])
            dumps.append(f"== {target} exit={code}\n{out}{err}")
        code, out, err = _run(main, ["verify"])
        os.chdir("cli")
        cli = _cli_lines(main)
    finally:
        os.chdir(cwd)
        if env_dir is not None:
            os.environ["CORRQEC_OUTPUT_DIR"] = env_dir
    (outdir / "runs.txt").write_text("".join(runs), encoding="utf-8")
    (outdir / "dump.txt").write_text("".join(dumps), encoding="utf-8")
    (outdir / "verify.txt").write_text(f"{out}{err}exit={code}\n", encoding="utf-8")
    (outdir / "cli.txt").write_text("".join(cli), encoding="utf-8")
    (outdir / "realize.txt").write_text("".join(_realize_lines()), encoding="utf-8")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import corrqec

    print(f"corrqec from {Path(corrqec.__file__).parent}")
    ops = oracle_grid()
    write_snapshot(outdir, ops)
    print(f"wrote {2 * len(ops)} reports, {len(DUMP_TARGETS)} dumps, verify, cli and realize to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
