"""Write every output that must stay byte-identical across engine changes.

Usage: python tools/snapshot.py <checkout> <outdir>

Runs `corrqec` from <checkout>/src, in process, over the command corpus:
the command lines of this repo's `perfbench/workloads.oracle_grid()` and
this module's DUMP_TARGETS, EXTRA_RUNS and USAGE_ERRORS. It writes into
<outdir>:

  reports/NNNN.json, reports/NNNN.csv   each grid argv, in both formats
  runs.txt     per report: file name, exit code, stdout and stderr
  dump.txt     each `dump` target's exit code and output
  verify.txt   `verify` stdout and exit code
  cli.txt      exit code, stdout and stderr of `run --scheme <s>` with no
               other flag, for each scheme, and of each command line of
               EXTRA_RUNS and USAGE_ERRORS
  cli/         the reports those runs write under their default names
  realize.txt  per fixed package circuit (both corr decompositions, the
               refutation, recursive_encoder(2..3), the hybrid encoders
               n = 2..8) and per `dagger_circuit` of it: its name and the
               sha256 of `realize(c).tobytes()`, so the matrices `verify`
               compares are pinned bit for bit, not only its printed digits

Reports are written under relative paths from inside <outdir> (the
`cli.txt` runs from inside <outdir>/cli, with $CORRQEC_OUTPUT_DIR unset),
so the `wrote ...` lines do not depend on where <outdir> is. Run it at two
checkouts and compare the two directories with `diff -r`.

`tools/reach.py` runs the same corpus, and `tests/test_cli.py` imports
USAGE_ERRORS from here, so a new command line is listed once, here. Only
the standard library, perfbench's `workloads` and `corrqec` are imported.

Exits 0 when every command line exits with its expected code: 2 for a
USAGE_ERRORS line, 0 for every other. Exits 1, after writing every file,
naming each line that did not on stderr. Exits 2 on a usage error, when
<outdir>/reports or <outdir>/cli exists already, or when `corrqec`
imports from anywhere but <checkout>/src (as it does from another tree
with PYTHONPATH set and no <checkout>/src).
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

from workloads import oracle_grid  # noqa: E402

DUMP_TARGETS = (
    "u", "old-u", "p2", "p3", *(f"pn:{n}" for n in range(2, 9)),
    "circuit:standard3", "circuit:basic3", "circuit:corr5",
    *(f"circuit:hybrid{n}" for n in range(2, 9)),
)

# Valid command lines the grid lacks: a noisy `matrix:` attack and the IBM
# bit order in each format.
EXTRA_RUNS = [
    ["run", "--scheme", "corr3", "--w", "matrix:[[[0.6,0],[0,0.8]],[[0,0.8],[0.6,0]]]", "--rounds", "2",
     "--noise", "p1=1e-3,p2=1e-2,readout=1e-2", "--seed", "1"],
    *(["run", "--scheme", "hybrid", "--n", "4", "--ibm-bit-order", "--format", fmt] for fmt in ("json", "csv")),
]

# Command lines that must exit 2 and write nothing.
USAGE_ERRORS = [
    ["run", "--scheme", "bogus"],
    ["run", "--scheme", "corr3", "--noise", "p9=0.1"],
    ["run", "--scheme", "corr3", "--noise", "p1"],
    ["run", "--scheme", "corr3", "--noise", "p1=0.1,p1=0.2"],
    ["run", "--scheme", "corr3", "--noise", "readout=0.1,p_readout=0.3"],
    ["run", "--scheme", "corr3", "--w", "nope"],
    ["run", "--scheme", "hybrid", "--n", "4", "--ancilla", "ry:0.5"],
    ["run", "--scheme", "hybrid", "--n", "2"],
    ["run", "--scheme", "corr3", "--shots", "0"],
    ["run", "--scheme", "corr3", "--seed", "-1"],
    ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0],[1,0]],[[0,0],[1,0]]]"],
    ["run", "--scheme", "corr3", "--w", "matrix:[[[2,0],[0,0]],[[0,0],[0.5,0]]]"],
    ["run", "--scheme", "corr3", "--w", "matrix:[[1]]"],
    ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0],[0,0]]"],
    ["run", "--scheme", "corr3", "--w", "matrix:" + "[" * 5000],
    ["run", "--scheme", "hybrid", "--n", "5", "--w", "h"],
    ["run", "--scheme", "hybrid", "--n", "5", "--rounds", "2"],
    ["run", "--scheme", "corr3", "--n", "5"],
    ["run", "--scheme", "corr5", "--errors", "x"],
    ["run", "--scheme", "corr3-basic", "--ancilla", "0"],
    ["run", "--scheme", "hybrid", "--n", "5", "--errors", ","],
    ["run", "--scheme", "hybrid", "--n", "5", "--errors", "x,,y"],
    ["dump", "nonsense"],
    ["dump", "circuit:hybrid11"],
    ["nonsense-command"],
]


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


def write_snapshot(outdir, ops) -> list[tuple[list[str], int]]:
    """Write the reports of `ops` (perfbench Ops), the dumps, `verify`,
    the default, extra and usage-error command lines and the realized
    circuits into outdir with the `corrqec` already imported. Returns the
    (argv, exit code) of each command line that exited with a code other
    than its expected one."""
    from corrqec.cli import main
    from corrqec.noise_exp import _SCHEMES

    wrong = []

    def run(argv, expected=0) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != expected:
            wrong.append((argv, code))
        return code, out.getvalue() + err.getvalue()

    outdir = Path(outdir)
    (outdir / "reports").mkdir(parents=True)
    (outdir / "cli").mkdir()
    runs, dumps, cli = [], [], []
    cwd = os.getcwd()
    env_dir = os.environ.pop("CORRQEC_OUTPUT_DIR", None)
    os.chdir(outdir)
    try:
        for i, op in enumerate(ops):
            for fmt in ("json", "csv"):
                argv = list(op.argv)
                argv[argv.index("--format") + 1] = fmt
                name = f"reports/{i:04d}.{fmt}"
                code, text = run(argv + ["--out", name])
                runs.append(f"{name} exit={code}\n{text}")
        for target in DUMP_TARGETS:
            code, text = run(["dump", target])
            dumps.append(f"== {target} exit={code}\n{text}")
        verify_code, verify_text = run(["verify"])
        os.chdir("cli")
        defaults = [["run", "--scheme", s] for s in _SCHEMES]
        for argv, expected in [(a, 0) for a in defaults + EXTRA_RUNS] + [(a, 2) for a in USAGE_ERRORS]:
            code, text = run(argv, expected)
            cli.append(f"== {' '.join(argv)} exit={code}\n{text}")
    finally:
        os.chdir(cwd)
        if env_dir is not None:
            os.environ["CORRQEC_OUTPUT_DIR"] = env_dir
    (outdir / "runs.txt").write_text("".join(runs), encoding="utf-8")
    (outdir / "dump.txt").write_text("".join(dumps), encoding="utf-8")
    (outdir / "verify.txt").write_text(f"{verify_text}exit={verify_code}\n", encoding="utf-8")
    (outdir / "cli.txt").write_text("".join(cli), encoding="utf-8")
    (outdir / "realize.txt").write_text("".join(_realize_lines()), encoding="utf-8")
    return wrong


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import corrqec

    package = Path(corrqec.__file__).resolve().parent
    if package != (checkout / "src" / "corrqec").resolve():
        print(f"error: corrqec imports from {package}, not from {checkout}/src", file=sys.stderr)
        return 2
    print(f"corrqec from {package}")
    ops = oracle_grid()
    try:
        wrong = write_snapshot(outdir, ops)
    except FileExistsError as exc:
        print(f"error: {exc.filename} exists already", file=sys.stderr)
        return 2
    print(f"wrote {2 * len(ops)} reports, {len(DUMP_TARGETS)} dumps, verify, cli and realize to {outdir}")
    for argv, code in wrong:
        print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
