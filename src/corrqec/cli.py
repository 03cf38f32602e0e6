"""Command-line interface: verification battery, experiment runner, dumps.

Exit codes: 0 all good, 1 verification failure, 2 usage error.

Output files: `run` writes a JSON (default) or CSV report. An explicit
--out path wins; otherwise the file lands in $CORRQEC_OUTPUT_DIR (falling
back to the current directory) under a name derived from the experiment
and seed. Reports are fully computed before anything is written, so a
failed run never leaves a partial file behind.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import correlated, hybrid, noise_exp
from .circuit import (
    StateVector,
    _conjugated_pauli,
    attack,
    basis_state,
    circuit_to_text,
    fidelity,
    partial_trace,
    realize,
    tensor,
    to_density,
)
from .gates import H
from .linalg import equal_up_to_global_phase, matrix_to_text, max_abs_diff

_BATTERY_SEED = 20240815

# Every check returns a detail string and raises on failure. A check looks
# up the functions it runs when it is called, so a caller that rebinds a
# module attribute (a tracer, a test) sees every call.


def _require(cond, msg: str) -> None:
    """Fail a check; unlike `assert`, survives `python -O`."""
    if not cond:
        raise AssertionError(msg)


def _rand_qubit(rng) -> StateVector:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(v / np.linalg.norm(v), 1)


def _unitary(u) -> str:
    dev = max_abs_diff(u.conj().T @ u, np.eye(8))
    _require(dev <= 1e-12, f"deviation {dev:.3e}")
    return f"max deviation {dev:.3e}"


def _shared_columns() -> str:
    d = max_abs_diff(correlated.build_new_U()[:, :4], correlated.build_old_U()[:, :4])
    _require(d <= 1e-15, f"first four columns differ by {d:.3e}")
    return "first four columns identical"


def _realizes_corrected(c) -> str:
    d = max_abs_diff(realize(c), correlated.build_new_U())
    _require(d <= 1e-12, f"deviation {d:.3e}")
    return f"max deviation {d:.3e}"


def _standard_count() -> str:
    count = len(correlated.standard_decomposition().gates)
    _require(count == 6, f"expected 6 gates, got {count}")
    return "6 gates"


def _basic_counts() -> str:
    arities = [pg.gate.arity for pg in correlated.basic_decomposition().gates]
    two, one = arities.count(2), arities.count(1)
    _require((two, one) == (6, 8), f"got {two} two-wire, {one} one-wire")
    return "6 two-wire + 8 one-wire"


def _refutation_distance() -> str:
    d = max_abs_diff(correlated.erroneous_decomposition_product(), correlated.build_old_U())
    _require(d >= 0.5, f"distance only {d:.4f}")
    return f"max difference from the legacy encoder = {d:.4f} (>= 0.5)"


def _refutation_spots() -> str:
    m = correlated.erroneous_decomposition_product()
    d = max(abs(m[1, 0] - 0.7071), abs(m[3, 3] - 0.8165))
    _require(d < 5e-5, f"spot entries off by {d:.2e}")
    return "published spot entries reproduced to 4 decimals"


def _blocks_random() -> str:
    rng = np.random.default_rng(_BATTERY_SEED)
    u = correlated.build_new_U()
    worst_off = worst_tl = 0.0
    for _ in range(20):
        w = correlated.random_su2(rng)
        rep = correlated.verify_block_structure(u, w)
        worst_off = max(worst_off, rep.off_diag_norm)
        worst_tl = max(worst_tl, max_abs_diff(rep.top_left, np.kron(np.eye(2), w)))
    _require(worst_off <= 1e-10 and worst_tl <= 1e-10,
             f"off-diag {worst_off:.3e}, top-left {worst_tl:.3e}")
    return f"20 samples: off-diag <= {worst_off:.3e}, top-left <= {worst_tl:.3e}"


def _blocks_hadamard() -> str:
    rep = correlated.verify_block_structure(correlated.build_new_U(), H.matrix)
    i2h = np.kron(np.eye(2), H.matrix.array)
    _require(rep.off_diag_norm <= 1e-12, f"off-diag {rep.off_diag_norm:.3e}")
    _require(equal_up_to_global_phase(rep.top_left, i2h, 1e-10), "top-left not I (x) H up to phase")
    # H has determinant -1, and the construction pins the block to det(W) * W.
    pivot = np.unravel_index(np.argmax(np.abs(rep.top_left)), (4, 4))
    phase = rep.top_left[pivot] / i2h[pivot]
    _require(abs(phase + 1.0) <= 1e-10, f"alignment phase {phase:.6f}, expected -1")
    return "top-left = -(I (x) H) exactly; phase matches the determinant"


def _recovery_three() -> str:
    rng = np.random.default_rng(_BATTERY_SEED + 1)
    ch = correlated.make_channel(3, [(H, 1.0)])
    worst, _ = correlated.three_qubit_protect(_rand_qubit(rng), _rand_qubit(rng), ch, 1)
    ch = correlated.make_channel(3, [(correlated.random_su2(rng), 0.2) for _ in range(5)])
    fid, _ = correlated.three_qubit_protect(_rand_qubit(rng), _rand_qubit(rng), ch, 3)
    worst = min(worst, fid)
    _require(worst >= 1 - 1e-9, f"fidelity {worst}")
    return f"worst data fidelity deficit {1 - worst:.2e}"


def _recovery_five() -> str:
    rng = np.random.default_rng(_BATTERY_SEED + 2)
    enc = realize(correlated.recursive_encoder(2))
    zero = basis_state(1, "0")
    worst = 1.0
    for _ in range(3):
        w = correlated.random_su2(rng)
        psi1, psi2, v = _rand_qubit(rng), _rand_qubit(rng), _rand_qubit(rng)
        full = tensor(zero, psi1, v, psi2, zero)
        out = enc.conj().T @ attack(StateVector(enc @ full.amplitudes, 5), w).amplitudes
        rho = to_density(StateVector(out, 5))
        expect = ((1, psi1), (3, psi2), (0, zero), (4, zero), (2, StateVector(w @ v.amplitudes, 1)))
        for wire, target in expect:
            worst = min(worst, fidelity(partial_trace(rho, [wire]), target))
    _require(worst >= 1 - 1e-9, f"fidelity {worst}")
    return f"worst fidelity deficit {1 - worst:.2e}"


def _hybrid_circuits() -> str:
    worst = 0.0
    for n in range(hybrid.MIN_QUBITS, hybrid.MAX_QUBITS + 1):
        enc = hybrid.hybrid_encoder(n)
        worst = max(worst, max_abs_diff(realize(enc.circuit), enc.matrix))
    _require(worst <= 1e-12, f"deviation {worst:.3e}")
    return f"n=2..8 exact (max deviation {worst:.3e}, identity wire order)"


def _hybrid_conjugation() -> str:
    # Each attack is carried back through the encoder circuit on GF(2)
    # bits. A Pauli with no bit on a data wire is (ancilla Pauli) tensor
    # identity-on-data up to phase, exactly, so the residual is 0; and the
    # check before this one proves that the circuit realizes P_n exactly.
    for n in range(hybrid.MIN_QUBITS, hybrid.MAX_QUBITS + 1):
        dw = hybrid.data_wires(n)
        for tag in ("X", "Y", "Z"):
            x, z = _conjugated_pauli(hybrid.encoder_circuit(n), hybrid.attack_factor([tag]))
            touched = [w for w in dw if x[w] or z[w]]
            _require(not touched, f"n={n} tag={tag}: the decoded attack acts on data wires {touched}")
    return "all attacks factor off the data wires (residual 0.000e+00)"


def _hybrid_readback() -> str:
    for n in (4, 6, 8):
        dw = len(hybrid.data_wires(n))
        data = basis_state(dw, "0" * dw)
        for bits in ("00", "01", "10", "11"):
            for tag in ("X", "Y", "Z"):
                fid, rep = hybrid.hybrid_protect(n, data, bits, [tag])
                _require(fid >= 1 - 1e-10, f"n={n} bits={bits} tag={tag} data fidelity {fid}")
                _require(rep.preserved_with_certainty,
                         f"n={n} bits={bits} tag={tag} readback {rep.readback_bits}")
    return "n=4,6,8: all four bit pairs survive X, Y, Z"


def _noiseless_success() -> str:
    s = noise_exp.exact_success({"scheme": "corr3", "w": "h", "noise": {}})
    _require(abs(s - 1.0) <= 1e-10, f"success {s}")
    return "success probability 1.0"


def _preset_success() -> str:
    s = noise_exp.exact_success({"scheme": "corr3", "w": "h", "noise": {"p1": 0.001, "p2": 0.01}})
    _require(s > 0.8, f"success {s:.4f}")
    return f"success probability {s:.4f} > 0.8"


# The acceptance battery: `corrqec verify` runs it in this order, and the
# test suite runs each check as its own test.
CHECKS = (
    ("corrected encoder is unitary", lambda: _unitary(correlated.build_new_U())),
    ("legacy encoder is unitary", lambda: _unitary(correlated.build_old_U())),
    ("encoders share their first four columns", _shared_columns),
    ("standard decomposition realizes the corrected encoder",
     lambda: _realizes_corrected(correlated.standard_decomposition())),
    ("basic decomposition realizes the corrected encoder",
     lambda: _realizes_corrected(correlated.basic_decomposition())),
    ("standard decomposition gate count", _standard_count),
    ("basic decomposition gate counts", _basic_counts),
    ("six-stage refutation product is far from the legacy encoder", _refutation_distance),
    ("refutation product matches its published entries", _refutation_spots),
    ("block structure over random special unitaries", _blocks_random),
    ("block structure with the Hadamard atom", _blocks_hadamard),
    ("three-qubit recovery through repeated attacks", _recovery_three),
    ("five-wire recursive recovery", _recovery_five),
    ("hybrid circuits realize their matrices", _hybrid_circuits),
    ("hybrid conjugated attacks are identity on data", _hybrid_conjugation),
    ("even-width ancilla bits read back deterministically", _hybrid_readback),
    ("noiseless experiment succeeds with certainty", _noiseless_success),
    ("noisy preset stays above the 0.8 success threshold", _preset_success),
)


def cmd_verify(out=None) -> int:
    out = sys.stdout if out is None else out
    failures = 0
    for name, fn in CHECKS:
        try:
            detail = fn()
            print(f"PASS {name}: {detail}", file=out)
        except Exception as exc:  # noqa: BLE001 - battery must keep going
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed", file=out)
    return 0 if failures == 0 else 1


def _parse_noise(text: str) -> dict:
    """--noise syntax only; the spec checks the keys and values."""
    s = text.strip()
    if s in ("", "0", "none"):
        return {}
    out = {}
    for part in s.split(","):
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"bad noise component {part!r}; expected key=value")
        key = key.strip().lower()
        if key == "readout":
            key = "p_readout"
        if key in out:
            raise ValueError(f"noise parameter {key!r} given more than once")
        out[key] = float(val)
    return out


def _resolve_out(args, default_name: str) -> str:
    if args.out:
        return args.out
    base = os.environ.get("CORRQEC_OUTPUT_DIR", ".")
    return os.path.join(base, default_name)


def cmd_run(args) -> int:
    # `run` flags default to absent, so the spec holds every default and
    # rejects the flags that belong to the other scheme.
    keys = noise_exp._COMMON_KEYS | noise_exp._CORRELATED_KEYS | noise_exp._HYBRID_KEYS
    spec = {k: v for k, v in vars(args).items() if k in keys}
    if "noise" in spec:
        spec["noise"] = _parse_noise(spec["noise"])
    if "errors" in spec:
        spec["errors"] = spec["errors"].split(",")
    rep = noise_exp.run_named(spec)
    if args.format == "json":
        text = noise_exp.report_to_json(rep, ibm_bit_order=args.ibm_bit_order)
        ext = "json"
    else:
        text = noise_exp.report_to_csv(rep, ibm_bit_order=args.ibm_bit_order)
        ext = "csv"
    path = _resolve_out(args, f"{rep.name}-seed{rep.seed}.{ext}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {path} (success_probability={rep.success_probability:.6f})")
    return 0


# `dump circuit:<name>` names for the correlated schemes' encoders.
_DUMP_CIRCUITS = {"standard3": "corr3", "basic3": "corr3-basic", "corr5": "corr5"}


def _dump_text(what: str) -> str:
    w = what.strip().lower()
    if w == "u":
        return matrix_to_text(correlated.build_new_U())
    if w == "old-u":
        return matrix_to_text(correlated.build_old_U())
    if w == "p2":
        return matrix_to_text(hybrid.p2_matrix())
    if w == "p3":
        return matrix_to_text(hybrid.p3_matrix())
    if w.startswith("pn:"):
        return matrix_to_text(hybrid.hybrid_encoder(int(w[3:])).matrix)
    if w.startswith("circuit:"):
        name = w[8:]
        if name in _DUMP_CIRCUITS:
            return circuit_to_text(noise_exp._CORRELATED[_DUMP_CIRCUITS[name]]())
        if name.startswith("hybrid"):
            return circuit_to_text(hybrid.hybrid_encoder(int(name[6:])).circuit)
        raise ValueError(f"unknown circuit {name!r}")
    raise ValueError(f"unknown dump target {what!r}")


def cmd_dump(args) -> int:
    text = _dump_text(args.what)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="corrqec",
        description="Simulate and verify error-avoiding codes for fully-correlated noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the full verification battery")

    r = sub.add_parser("run", help="run a named experiment and write a report",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--scheme", required=True, choices=noise_exp._SCHEMES)
    d = noise_exp._DEFAULTS
    r.add_argument("--w", help=f"corr attack unitary: h|x|y|z|i|ry:<alpha>|matrix:<json> (default {d['w']})")
    r.add_argument("--rounds", type=int,
                   help=f"corr attack repetitions between encode/decode (default {d['rounds']})")
    r.add_argument("--n", type=int, help=f"hybrid register width (default {d['n']})")
    r.add_argument("--ancilla", help="hybrid ancilla: bits or ry:<alpha> (odd widths)")
    r.add_argument("--errors",
                   help=f"comma-separated hybrid attack tags i,x,y,z (default {','.join(d['errors'])})")
    r.add_argument("--shots", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--noise", help="0 or comma list: p1=..,p2=..,readout=..")
    r.add_argument("--out", default=None, help="output file (default: derived, in $CORRQEC_OUTPUT_DIR)")
    r.add_argument("--format", choices=["json", "csv"], default="json")
    r.add_argument("--ibm-bit-order", action="store_true", default=False,
                   help="reverse bitstring keys in output")

    d = sub.add_parser("dump", help="print a matrix or circuit")
    d.add_argument("what", help="u | old-u | p2 | p3 | pn:<n> | circuit:<name>")
    d.add_argument("--out", default=None, help="output file (default: stdout)")
    return p


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify()
        if args.command == "run":
            return cmd_run(args)
        return cmd_dump(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
