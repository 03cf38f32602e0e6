from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from corrqec import cli, correlated, hybrid
from corrqec.linalg import max_abs_diff


def parse_matrix_text(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), dtype=complex, ndmin=2)


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


def test_usage_errors_exit_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORRQEC_OUTPUT_DIR", str(tmp_path))
    cases = [
        ["run", "--scheme", "bogus"],
        ["run", "--scheme", "corr3", "--noise", "p9=0.1"],
        ["run", "--scheme", "corr3", "--noise", "p1"],
        ["run", "--scheme", "corr3", "--noise", "p1=0.1,p1=0.2"],
        ["run", "--scheme", "corr3", "--noise", "readout=0.1,p_readout=0.3"],
        ["run", "--scheme", "corr3", "--w", "nope"],
        ["run", "--scheme", "hybrid", "--n", "4", "--ancilla", "ry:0.5"],
        ["run", "--scheme", "hybrid", "--n", "2"],
        ["run", "--scheme", "corr3", "--shots", "0"],
        ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0],[1,0]],[[0,0],[1,0]]]"],
        ["run", "--scheme", "corr3", "--w", "matrix:[[[2,0],[0,0]],[[0,0],[0.5,0]]]"],
        ["run", "--scheme", "corr3", "--w", "matrix:[[1]]"],
        ["run", "--scheme", "corr3", "--w", "matrix:[[[1,0],[0,0]]"],
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
    for argv in cases:
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 2, argv
    assert list(tmp_path.iterdir()) == []  # no partial files left behind


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


def test_invalid_out_path_is_reported(tmp_path, capsys):
    missing_dir = os.path.join(str(tmp_path), "no", "such", "dir", "x.json")
    code, _, err = run_cli(
        ["run", "--scheme", "corr3", "--w", "h", "--shots", "8", "--noise", "0",
         "--out", missing_dir],
        capsys,
    )
    assert code == 2
    assert "error:" in err
