from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec import cli, correlated, hybrid, noise_exp
from corrqec.linalg import max_abs_diff

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "perfbench"))
sys.path.insert(0, str(_ROOT / "tools"))

from snapshot import USAGE_ERRORS  # noqa: E402
from test_linalg import parse_matrix_text  # noqa: E402
from workloads import oracle_grid  # noqa: E402


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 18
    assert all(ln.startswith("PASS") for ln in lines)
    assert "18/18 checks passed" in out
    # the refutation distance is reported with its actual value
    assert "1.0000" in out


def test_verify_fails_on_corrupted_encoder_table(capsys):
    """The decomposition check reads the module-level table fresh, so
    corrupting one entry must flip the battery to FAIL and exit nonzero."""
    saved = correlated.NEW_U_ENTRIES[0][7]
    correlated.NEW_U_ENTRIES[0][7] = 0.0
    try:
        code, out, _ = run_cli(["verify"], capsys)
    finally:
        correlated.NEW_U_ENTRIES[0][7] = saved
    assert code != 0
    assert "FAIL standard decomposition realizes the corrected encoder" in out


def test_verify_fails_under_optimized_python():
    """`python -O` strips `assert`; the battery must fail a corrupted table anyway."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys; from corrqec import cli, correlated; "
        "correlated.NEW_U_ENTRIES[0][7] = 0.0; sys.exit(cli.main(['verify']))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    for name in (
        "corrected encoder is unitary",
        "standard decomposition realizes the corrected encoder",
        "basic decomposition realizes the corrected encoder",
    ):
        assert f"FAIL {name}: deviation 1.000e+00" in proc.stdout


def test_run_writes_byte_identical_reports(tmp_path, capsys):
    base = [
        "run", "--scheme", "corr3", "--w", "h", "--shots", "2048", "--seed", "9",
        "--noise", "p1=0.001,p2=0.01",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run_cli(base + ["--out", str(a)], capsys)
    code2, _, _ = run_cli(base + ["--out", str(b)], capsys)
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_noiseless_success(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, text, _ = run_cli(
        ["run", "--scheme", "corr3", "--w", "h", "--shots", "512", "--seed", "1",
         "--noise", "0", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "wrote" in text
    d = json.loads(out.read_text())
    assert d["success_probability"] == 1.0
    assert d["counts"] == {"0": 512}
    assert d["config"]["scheme"] == "corr3"
    assert d["name"] == "corr3"
    assert d["seed"] == 1


def test_a_negative_zero_strength_is_reported_as_zero(tmp_path, capsys):
    # -0 is the physics of 0, so it writes the same report bytes
    reports = []
    for noise in ("p1=-0,p2=-0.0,readout=-0", "p1=0,p2=0,readout=0"):
        out = tmp_path / f"{len(reports)}.json"
        code, _, _ = run_cli(["run", "--scheme", "corr3", "--noise", noise, "--out", str(out)], capsys)
        assert code == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert '"p1": 0.0' in reports[0] and "-0.0" not in reports[0]


@pytest.mark.parametrize("flags, padded", [
    (["--scheme", "corr3", "--w", "h"], ["--scheme", "corr3", "--w", " h"]),
    (["--scheme", "corr5", "--w", "ry:0.3"], ["--scheme", "corr5", "--w", "\try:0.3 "]),
    (["--scheme", "corr3", "--w", "H"], ["--scheme", "corr3", "--w", " H "]),
    (["--scheme", "hybrid", "--n", "5", "--ancilla", "1"], ["--scheme", "hybrid", "--n", "5", "--ancilla", " 1"]),
    (["--scheme", "hybrid", "--n", "4", "--ancilla", "10"], ["--scheme", "hybrid", "--n", "4", "--ancilla", "10 "]),
    (["--scheme", "corr3", "--w", "h"], ["--scheme", "corr3", "--w", "H"]),
    (["--scheme", "corr5", "--w", "ry:1e-1"], ["--scheme", "corr5", "--w", "RY:1E-1"]),
    (["--scheme", "hybrid", "--n", "5", "--ancilla", "ry:0.7"], ["--scheme", "hybrid", "--n", "5", "--ancilla", "Ry:0.7"]),
], ids=("w", "w-ry", "w-case", "odd-ancilla", "even-ancilla", "w-capitals", "w-ry-capitals", "odd-ancilla-capitals"))
def test_a_padded_selector_writes_the_same_report(tmp_path, capsys, flags, padded):
    # the resolver strips a selector and ignores its case before it reads
    # it, so the report records it stripped and lowercased, and a selector
    # in capitals writes the same report as in lower case
    reports = []
    for argv in (flags, padded):
        out = tmp_path / f"{len(reports)}.json"
        code, _, _ = run_cli(["run", *argv, "--noise", "p1=0.001", "--out", str(out)], capsys)
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert f'": "{flags[-1].lower()}"'.encode() in reports[0]


def test_run_hybrid_rotated_ancilla(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run_cli(
        ["run", "--scheme", "hybrid", "--n", "5", "--errors", "x",
         "--ancilla", "ry:2.356", "--shots", "256", "--out", str(out)],
        capsys,
    )
    assert code == 0
    d = json.loads(out.read_text())
    assert abs(d["success_probability"] - 1.0) < 1e-10
    assert d["config"]["n"] == 5
    assert d["config"]["ancilla"] == "ry:2.356"
    assert d["config"]["errors"] == ["x"]


def test_run_corr5_noisy_success_below_one(tmp_path, capsys):
    out = tmp_path / "c5.json"
    code, _, _ = run_cli(
        ["run", "--scheme", "corr5", "--w", "y", "--noise", "p2=0.01",
         "--shots", "128", "--out", str(out)],
        capsys,
    )
    assert code == 0
    d = json.loads(out.read_text())
    assert 0.0 < d["success_probability"] < 1.0


def test_huge_rounds_run_fast_and_keep_the_period(tmp_path, capsys):
    # rounds fold into one factor W^rounds, so 2e9 rounds cost one round; H
    # and X square to the identity, so an even count reads like two rounds
    for w in ("h", "x"):
        base = ["run", "--scheme", "corr3", "--w", w, "--noise", "p1=0.001,p2=0.01"]
        start = time.perf_counter()
        code, _, _ = run_cli(base + ["--rounds", "2000000000", "--out", str(tmp_path / "a.json")], capsys)
        assert code == 0 and time.perf_counter() - start < 1.0
        code, _, _ = run_cli(base + ["--rounds", "2", "--out", str(tmp_path / "b.json")], capsys)
        assert code == 0
        a, b = (json.loads((tmp_path / f).read_text()) for f in ("a.json", "b.json"))
        assert abs(a["success_probability"] - b["success_probability"]) <= 1e-12


def test_run_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(
        ["run", "--scheme", "corr3", "--w", "z", "--shots", "64", "--noise", "0",
         "--format", "csv", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text() == "bitstring,count\n0,64\n"


def test_run_ibm_bit_order_flips_keys(tmp_path, capsys):
    args = [
        "run", "--scheme", "corr5", "--w", "h", "--noise", "readout=0.3",
        "--shots", "4096", "--seed", "4",
    ]
    plain, flipped = tmp_path / "p.json", tmp_path / "f.json"
    run_cli(args + ["--out", str(plain)], capsys)
    run_cli(args + ["--out", str(flipped), "--ibm-bit-order"], capsys)
    dp = json.loads(plain.read_text())
    df = json.loads(flipped.read_text())
    assert dp["counts"] != df["counts"]
    assert {k[::-1]: v for k, v in dp["counts"].items()} == df["counts"]
    # everything except counts is unchanged
    dp.pop("counts"), df.pop("counts")
    assert dp == df


def test_run_uses_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORRQEC_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        ["run", "--scheme", "corr3", "--w", "h", "--shots", "32", "--seed", "2",
         "--noise", "0"],
        capsys,
    )
    assert code == 0
    target = tmp_path / "corr3-seed2.json"
    assert target.exists()
    assert json.loads(target.read_text())["seed"] == 2


def _case(number, argv, message):
    """A case of the test below. Its id is its fixed number and its message,
    so a case added anywhere takes a new number and renames no other test."""
    return pytest.param(argv, message, id=f"argv{number}-{message}")


@pytest.mark.parametrize("argv, message", [
    _case(0, ["dump", "pn:abc"], "dump target 'pn:abc': width 'abc' is not an integer"),
    _case(1, ["dump", "pn:"], "dump target 'pn:': width '' is not an integer"),
    _case(2, ["dump", "circuit:hybridx"], "dump target 'circuit:hybridx': width 'x' is not an integer"),
    _case(3, ["run", "--scheme", "corr3", "--noise", "p1=abc"], "noise parameter 'p1': 'abc' is not a number"),
    _case(4, ["run", "--scheme", "corr3", "--w", "ry:abc"],
          "attack selector 'ry:abc': angle 'abc' is not a number"),
    _case(5, ["run", "--scheme", "hybrid", "--n", "3", "--ancilla", "ry:abc"],
          "ancilla 'ry:abc': angle 'abc' is not a number"),
    _case(6, ["run", "--scheme", "corr3", "--w", "ry:nan"], "attack selector 'ry:nan': angle 'nan' is not finite"),
    _case(7, ["run", "--scheme", "corr3", "--w", "ry:inf"], "attack selector 'ry:inf': angle 'inf' is not finite"),
    _case(8, ["run", "--scheme", "corr5", "--w", "ry:-1e999"],
          "attack selector 'ry:-1e999': angle '-1e999' is not finite"),
    _case(9, ["run", "--scheme", "hybrid", "--n", "5", "--ancilla", "ry:inf"],
          "ancilla 'ry:inf': angle 'inf' is not finite"),
    _case(10, ["run", "--scheme", "corr3", "--out", ""], "--out must name a file, got an empty path"),
    _case(11, ["dump", "u", "--out", ""], "--out must name a file, got an empty path"),
    _case(12, ["run", "--scheme", "corr3", "--shots", "100000000000000000000"],
          "shots must be at most 1000000000, got 100000000000000000000"),
    _case(13, ["run", "--scheme", "corr3", "--w", "matrix:[[[true,0],[0,0]],[[0,0],[1,0]]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (entry [true, 0] is not a pair of numbers)"),
    _case(14, ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0],[0,0]],[[0,0]]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got rows of lengths [2, 1])"),
    _case(15, ["run", "--scheme", "corr3", "--w", "matrix:[]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got rows of lengths [])"),
    # a target matches in any case, and its width is echoed as typed
    _case(16, ["dump", "pn:True"], "dump target 'pn:True': width 'True' is not an integer"),
    _case(17, ["dump", "Circuit:HYBRIDx"], "dump target 'Circuit:HYBRIDx': width 'x' is not an integer"),
    _case(18, ["dump", "PN:Five"], "dump target 'PN:Five': width 'Five' is not an integer"),
    # a matrix: entry is a pair of numbers that fit a float, or it is named
    _case(19, ["run", "--scheme", "corr3", "--w", "matrix:[[[1" + "0" * 400 + ",0],[0,0]],[[0,0],[1,0]]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (entry [1" + "0" * 400
          + ", 0] is not a pair of numbers)"),
    _case(20, ["run", "--scheme", "corr3", "--w", "matrix:[[1]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (entry 1 is not a pair of numbers)"),
    _case(21, ["run", "--scheme", "corr3", "--w", 'matrix:[["a",0],[0,1]]'],
          'matrix selector must be a JSON 2x2 of [re, im] pairs (entry "a" is not a pair of numbers)'),
    _case(22, ["run", "--scheme", "corr3", "--w", 'matrix:[[[1,"0"],[0,0]],[[0,0],[1,0]]]'],
          'matrix selector must be a JSON 2x2 of [re, im] pairs (entry [1, "0"] is not a pair of numbers)'),
    _case(23, ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0,0],[0,0]],[[0,0],[1,0]]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (entry [1, 0, 0] is not a pair of numbers)"),
    # a matrix: selector is a list of lists, or its JSON is named
    _case(24, ["run", "--scheme", "corr3", "--w", "matrix:5"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got 5, not a list of lists)"),
    _case(25, ["run", "--scheme", "corr3", "--w", "matrix:null"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got null, not a list of lists)"),
    _case(26, ["run", "--scheme", "corr3", "--w", "matrix:[5,[0,1]]"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got [5, [0, 1]], not a list of lists)"),
    _case(27, ["run", "--scheme", "corr3", "--w", "matrix:{}"],
          "matrix selector must be a JSON 2x2 of [re, im] pairs (got {}, not a list of lists)"),
    _case(28, ["run", "--scheme", "corr3", "--w", 'matrix:"ab"'],
          'matrix selector must be a JSON 2x2 of [re, im] pairs (got "ab", not a list of lists)'),
])
def test_a_malformed_number_is_named_with_its_argument(tmp_path, capsys, monkeypatch, argv, message):
    # the byte-identity snapshot pins the messages of USAGE_ERRORS; these
    # are named here
    monkeypatch.setenv("CORRQEC_OUTPUT_DIR", str(tmp_path))
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_flag_left_out_takes_the_spec_default_on_a_second_call(tmp_path, capsys, monkeypatch):
    """One process parses many command lines with one parser: nothing the
    first call sets may carry over into the second."""
    monkeypatch.setenv("CORRQEC_OUTPUT_DIR", str(tmp_path))
    first = ["run", "--scheme", "corr3", "--w", "x", "--rounds", "2", "--shots", "5",
             "--seed", "3", "--noise", "p1=0.1"]
    assert run_cli(first, capsys)[0] == 0
    assert run_cli(["run", "--scheme", "corr3"], capsys)[0] == 0
    d = json.loads((tmp_path / "corr3-seed0.json").read_text())
    assert (d["shots"], d["seed"]) == (8192, 0)
    assert d["config"] == {
        "scheme": "corr3", "w": "h", "rounds": 1,
        "noise": {"p1": 0.0, "p2": 0.0, "p_readout": 0.0},
    }
    assert sorted(os.listdir(tmp_path)) == ["corr3-seed0.json", "corr3-seed3.json"]


# Valid and malformed tokens for each flag; `{tmp}` is the example's own
# temporary directory. Shots, rounds and widths stay small so each run is
# quick. `--ibm-bit-order` takes no value.
_RUN_TOKENS = {
    "--w": ("h", "y", "i", "ry:1.1", "ry:inf", "nope", "", "matrix:[[1]]",
            "matrix:[[[0,0],[1,0]],[[1,0],[0,0]]]", "matrix:[[[2,0],[0,0]],[[0,0],[0.5,0]]]"),
    "--rounds": ("1", "3", "0", "-2", "x"),
    "--n": ("2", "3", "4", "6", "8", "9", "0", "x"),
    "--ancilla": ("0", "1", "01", "11", "ry:0.7", "ry:x", "2", ""),
    "--errors": ("i", "x", "y,z", "x,y,z", ",", "x,,y", "q"),
    "--shots": ("1", "64", "0", "-5", "1e3"),
    "--seed": ("0", "7", "-1", "x", str(2**70)),
    "--noise": ("0", "p1=1e-3,p2=1e-2", "readout=0.5", "p1=2", "p9=0.1", "p1", "p1=nan",
                "p1=0.1,p1=0.2"),
    "--format": ("json", "csv", "xml"),
    "--out": ("{tmp}/r.out", "{tmp}/missing/r.out", "{tmp}"),
    "--ibm-bit-order": (),
}
_SCHEMES = ("corr3", "corr3-basic", "corr5", "hybrid", "bogus")
_DUMP_TARGETS = ("u", "old-u", "p2", "p3", "pn:2", "pn:5", "pn:8", "pn:9", "pn:x",
                 "circuit:standard3", "circuit:basic3", "circuit:corr5", "circuit:hybrid2",
                 "circuit:hybrid8", "circuit:hybrid9", "circuit:nope", "nonsense", "")


@st.composite
def fuzzed_argv(draw):
    if draw(st.booleans()):
        argv = ["dump", draw(st.sampled_from(_DUMP_TARGETS))]
        if draw(st.booleans()):
            argv += ["--out", draw(st.sampled_from(_RUN_TOKENS["--out"]))]
        return argv
    argv = ["run", "--scheme", draw(st.sampled_from(_SCHEMES))]
    for flag in draw(st.lists(st.sampled_from(sorted(_RUN_TOKENS)), unique=True)):
        argv.append(flag)
        if _RUN_TOKENS[flag]:
            argv.append(draw(st.sampled_from(_RUN_TOKENS[flag])))
    return argv


@settings(max_examples=100, deadline=None)
@given(fuzzed_argv())
@example(["run", "--scheme", "corr3", "--w", "matrix:" + "[" * 5000])
def test_fuzzed_argv_exits_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"CORRQEC_OUTPUT_DIR": tmp}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.replace("{tmp}", tmp) for a in argv])
        assert code in (0, 2), argv
        if code == 2:
            assert os.listdir(tmp) == [], argv  # a rejected command writes nothing


def test_readme_quick_start_runs(capsys):
    """The README's library example runs as written."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_dump_encoder_round_trips(capsys):
    code, out, _ = run_cli(["dump", "u"], capsys)
    assert code == 0
    m = parse_matrix_text(out)
    assert max_abs_diff(m, correlated.build_new_U()) == 0.0
    code, out, _ = run_cli(["dump", "old-u"], capsys)
    assert code == 0
    assert max_abs_diff(parse_matrix_text(out), correlated.build_old_U()) == 0.0


def test_dump_basic_circuit_line_count(capsys):
    code, out, _ = run_cli(["dump", "circuit:basic3"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 14
    assert all("@" in ln for ln in lines)


def test_dump_standard_circuit(capsys):
    code, out, _ = run_cli(["dump", "circuit:standard3"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_dump_corr5_circuit(capsys):
    code, out, _ = run_cli(["dump", "circuit:corr5"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_dump_hybrid_targets(capsys):
    code, out, _ = run_cli(["dump", "pn:5"], capsys)
    assert code == 0
    assert max_abs_diff(parse_matrix_text(out), hybrid.hybrid_encoder(5).matrix) == 0.0
    code, out, _ = run_cli(["dump", "p2"], capsys)
    assert code == 0
    assert parse_matrix_text(out).shape == (4, 4)
    code, out, _ = run_cli(["dump", "p3"], capsys)
    assert code == 0
    assert parse_matrix_text(out).shape == (8, 8)
    code, out, _ = run_cli(["dump", "circuit:hybrid6"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_dump_to_file(tmp_path, capsys):
    target = tmp_path / "u.txt"
    code, out, _ = run_cli(["dump", "u", "--out", str(target)], capsys)
    assert code == 0
    assert "wrote" in out
    assert max_abs_diff(parse_matrix_text(target.read_text()), correlated.build_new_U()) == 0.0


def test_entry_point_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--help"]) == 0
    capsys.readouterr()


def test_run_help_quotes_the_spec_defaults():
    # each "(default X)" in `run --help` is what the spec fills in when the
    # flag is left out
    run = next(a for a in cli._PARSER._actions if a.dest == "command").choices["run"]
    helps = {a.dest: a.help for a in run._actions}
    corr = noise_exp._normalize_spec({"scheme": "corr3"})[0]
    hyb = noise_exp._normalize_spec({"scheme": "hybrid"})[0]
    expect = {"w": corr["w"], "rounds": str(corr["rounds"]), "n": str(hyb["n"]),
              "errors": ",".join(hyb["errors"])}
    for dest, value in expect.items():
        assert helps[dest].endswith(f"(default {value})"), (dest, helps[dest])


def test_invalid_out_path_is_reported(tmp_path, capsys):
    missing_dir = os.path.join(str(tmp_path), "no", "such", "dir", "x.json")
    code, _, err = run_cli(
        ["run", "--scheme", "corr3", "--w", "h", "--shots", "8", "--noise", "0",
         "--out", missing_dir],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def _main_with_the_nested_parse(argv):
    """cli.main as it ran when `_PARSER.parse_args` parsed every argv."""
    with mock.patch.object(cli, "_parse_args", cli._PARSER.parse_args):
        return cli.main(argv)


# Command lines whose exit code and output the one parse must keep: every
# usage error, help, and tokens no parser takes.
PARSE_EDGES = USAGE_ERRORS + [
    [], ["-h"], ["--help"], ["run", "-h"], ["verify", "extra"], ["run", "--scheme", "corr3", "stray"],
    ["run"], ["dump"], ["dump", "u", "extra"], ["verify", "-h"], ["run", "--", "--scheme", "corr3"],
    ["run", "--scheme", "corr3", "--bogus", "1", "stray"],
]


def test_one_parse_prints_and_exits_as_the_nested_parse(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORRQEC_OUTPUT_DIR", str(tmp_path))
    for argv in PARSE_EDGES:
        nested = (_main_with_the_nested_parse(argv), *capsys.readouterr())
        assert run_cli(argv, capsys) == nested, argv
    assert list(tmp_path.iterdir()) == []


def test_one_parse_gives_the_nested_namespace_on_every_grid_argv():
    for op in oracle_grid():
        argv = op.command("r.out")
        assert cli._parse_args(argv) == cli._PARSER.parse_args(argv), argv


def _quiet(parse, argv):
    """parse(argv) with its output swallowed; None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit:
            return None


def test_every_grid_argv_is_read_without_argparse():
    argvs = [op.command("r.out") for op in oracle_grid()]
    expected = [list(vars(cli._PARSER.parse_args(argv)).items()) for argv in argvs]
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args",
                           side_effect=AssertionError("argparse read a well-formed run line")):
        assert [list(vars(cli._parse_args(argv)).items()) for argv in argvs] == expected


def test_every_edge_argparse_rejects_still_reaches_argparse():
    reached = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(parser, *args, **kwargs):
        reached.append(parser)
        return parse_known_args(parser, *args, **kwargs)

    rejected = 0
    for argv in PARSE_EDGES:
        expected = _quiet(cli._PARSER.parse_args, argv)
        reached.clear()
        with mock.patch.object(argparse.ArgumentParser, "parse_known_args", spy):
            got = _quiet(cli._parse_args, argv)
        if expected is None:
            rejected += 1
            assert got is None and reached, argv
        else:  # argparse takes the line and the spec rejects it
            assert got == expected, argv
    assert 0 < rejected < len(PARSE_EDGES)  # both branches run


# `run` tokens built from the real option strings: a flag with a value, a
# flag alone, `--flag=value`, an abbreviation, help, `--` and strays.
# Deferred, so tools/snapshot.py can import this module against a checkout
# whose `cli` predates `_RUN_FLAGS`.
_OPTIONS = st.deferred(lambda: st.sampled_from(sorted(cli._RUN_FLAGS)))
_VALUES = st.sampled_from([
    "3", "6", "0", "8192", "1_000", " 5", "-1", "-", "", "2.5", "five", "x,y", "h", "00", "ry:0.7",
    "p1=1e-3,p2=1e-2", "r.out", *noise_exp._SCHEMES, "json", "csv", "bogus", "CSV",
])
_PAIRS = st.tuples(_OPTIONS, _VALUES).map(list)


def _plain(option):
    """`option` with a value its action takes, or alone if it takes none."""
    action = cli._RUN_FLAGS[option]
    if action.nargs == 0:
        return st.just([option])
    if action.choices is not None:
        values = st.sampled_from(list(action.choices))
    elif action.type is int:
        values = st.sampled_from(["0", "7", "1_000", " 5"])
    else:
        values = _VALUES.filter(lambda v: not v.startswith("-"))
    return values.map(lambda v: [option, v])


_ODD_TOKENS = st.one_of(
    _OPTIONS.map(lambda o: [o]),
    st.tuples(_OPTIONS, _VALUES).map(lambda t: ["=".join(t)]),
    _OPTIONS.filter(lambda o: len(o) > 4).flatmap(lambda o: st.integers(3, len(o) - 1).map(lambda k: [o[:k]])),
    st.sampled_from([["-h"], ["--help"], ["--"], ["stray"], ["-x"]]),
    _VALUES.map(lambda v: [v]),
)


@st.composite
def run_lines(draw):
    """`run` and its tokens: plain flags, each once and `--scheme` mostly
    among them, with up to two pairs or odd tokens put in anywhere."""
    options = draw(st.lists(_OPTIONS, max_size=6, unique=True))
    if "--scheme" not in options and draw(st.integers(0, 3)):
        options.insert(draw(st.integers(0, len(options))), "--scheme")
    pieces = [draw(_plain(option)) for option in options]
    for odd in draw(st.lists(st.one_of(_PAIRS, _ODD_TOKENS), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), odd)
    return ["run", *(token for piece in pieces for token in piece)]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=run_lines())
@example(argv=["run", "--scheme", "hybrid", "--n", "6", "--ibm-bit-order", "--format", "csv", "--out", ""])
@example(argv=["run", "--scheme", "corr3", "--seed", "-1"])
@example(argv=["run", "--scheme", "corr3", "--w"])
def test_a_run_line_reads_prints_and_exits_as_argparse(argv):
    expected = _quiet(cli._PARSER.parse_args, argv)
    if expected is not None:
        assert list(vars(cli._parse_args(argv)).items()) == list(vars(expected).items())
        return
    outputs = []
    for main in (_main_with_the_nested_parse, cli.main):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "cmd_run", side_effect=AssertionError("ran a line argparse rejects")), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outputs.append((main(argv), out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[1]
