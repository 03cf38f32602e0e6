"""Command-line interface: verification battery, experiment runner, dumps.

Exit codes: 0 all good, 1 verification failure, 2 usage error.

Output files: `run` writes a JSON (default) or CSV report. An explicit
--out path wins; otherwise the file lands in $CORRQEC_OUTPUT_DIR (falling
back to the current directory) under a name derived from the experiment
and seed. Reports are fully computed before anything is written, so a
failed run never leaves a partial file behind.

argparse defines every flag, help and error text. A plain `run` line is
read in one pass over the `run` parser's own actions; `_PARSER.parse_args`
parses any other line, and every `verify` and `dump` line.

The four corr checks of `verify` stand on the exact block theorem
(`correlated.block_theorem_defects`) and sample no attack.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys

import numpy as np

from . import correlated, hybrid, noise_exp
from .circuit import _PAULI_TAGS, _PAULI_XZ, _PAULIS, _conjugated_pauli, circuit_to_text, realize
from .gates import H
from .linalg import matrix_to_text, max_abs_diff

# Every check returns a detail string and raises on failure. A check looks
# up the functions it runs when it is called, so a caller that rebinds a
# module attribute (a tracer, a test) sees every call.

# While a battery runs: each lemma's outcome, by lemma, once proved.
_proved: dict | None = None


@contextlib.contextmanager
def _battery():
    """One battery's scope: inside it a `_lemma` is proved once, and every
    later call replays its outcome. Nothing outlives the scope."""
    global _proved
    _proved = {}
    try:
        yield
    finally:
        _proved = None


def _lemma(fn):
    """A proof step that several checks share. Inside `_battery` its first
    call runs it, and later calls return the same value or raise the same
    exception, so a FAIL line keeps its text; outside, every call proves."""
    @functools.wraps(fn)
    def lemma():
        if _proved is None:
            return fn()
        if fn not in _proved:
            try:
                _proved[fn] = (fn(), None)
            except Exception as exc:  # noqa: BLE001 - replayed to every check that shares it
                _proved[fn] = (None, exc)
        value, exc = _proved[fn]
        if exc is not None:
            raise exc
        return value
    return lemma


def _require(cond, msg: str) -> None:
    """Fail a check; unlike `assert`, survives `python -O`."""
    if not cond:
        raise AssertionError(msg)


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


@_lemma
def _refuted() -> np.ndarray:
    return correlated.erroneous_decomposition_product()


def _refutation_distance() -> str:
    d = max_abs_diff(_refuted(), correlated.build_old_U())
    _require(d >= 0.5, f"distance only {d:.4f}")
    return f"max difference from the legacy encoder = {d:.4f} (>= 0.5)"


def _refutation_spots() -> str:
    m = _refuted()
    d = max(abs(m[1, 0] - 0.7071), abs(m[3, 3] - 0.8165))
    _require(d < 5e-5, f"spot entries off by {d:.2e}")
    return "published spot entries reproduced to 4 decimals"


@_lemma
def _block_theorem() -> None:
    # For U = NEW_U_ENTRIES, read exactly: U^T (W (x) 3) U = det(W) (I (x) W)
    # on ancilla |0>, with both off-diagonal blocks 0, as polynomials in
    # W's four entries, so for every W in GL(2) and with no tolerance.
    off, top = correlated.block_theorem_defects(correlated.NEW_U_ENTRIES)
    _require((off, top) == (0, 0), f"{off} off-diagonal entries are not identically 0 and {top} top-left "
                                   "entries are not identically det(W) (I (x) W)")


def _blocks_exact() -> str:
    _block_theorem()
    return ("exact for every W in GL(2): off-diagonal blocks 0, top-left det(W) (I (x) W), "
            "sqrt6 U read over Z[sqrt2, sqrt3]")


def _blocks_hadamard() -> str:
    # By the block theorem the top-left block is det(W) (I (x) W) for every
    # W, so for H it is -(I (x) H) exactly once det(H) = -1.
    _block_theorem()
    det = np.linalg.det(H.matrix.array)
    _require(abs(det + 1.0) <= 1e-12, f"det(H) = {det:.6f}, expected -1")
    return "top-left = -(I (x) H) exactly; phase matches the determinant"


def _recovery_three() -> str:
    # With U orthogonal, U^T (W2 (x) 3)(W1 (x) 3) U is the product of the two
    # block forms, so any number of rounds, and any mixture, leaves the
    # data wire alone and ancilla |0>, and the sink carries the attacks.
    bad = correlated.exact_gram_defects(correlated.NEW_U_ENTRIES)
    _require(bad == 0, f"{bad} entries of 6 U^T U are not those of 6 I")
    _block_theorem()
    return "6 U^T U = 6 I exactly, and block forms det(W) (I (x) W) compose over rounds and mixtures"


def _gate_words(c) -> list[tuple[str, tuple[int, ...]]]:
    """c's gates as (gate name, wires)."""
    return [(pg.gate.name, pg.wires) for pg in c.gates]


@_lemma
def _hybrid_shape() -> None:
    # P_n is P2 on wires 0..1 then P_{n-1} on wires 1..n-1 (even n), or P3
    # on wires 0..2 then P_{n-2} on wires 2..n-1 (odd n), as in
    # `hybrid._matrix_rec`. Each built width n >= 4 must be the n = 2 or
    # n = 3 encoder followed by the width n - step encoder shifted by step,
    # so what holds for the n = 2 and n = 3 circuits holds at every width,
    # by induction on n.
    words = {n: _gate_words(hybrid.encoder_circuit(n)) for n in range(2, hybrid.MAX_QUBITS + 1)}
    for n in range(4, hybrid.MAX_QUBITS + 1):
        base, step = (2, 1) if n % 2 == 0 else (3, 2)
        stacked = words[base] + [(name, tuple(w + step for w in wires)) for name, wires in words[n - step]]
        _require(words[n] == stacked,
                 f"n={n}: the encoder is not the n={base} encoder then the n={n - step} encoder "
                 f"shifted by {step} wires")


def _corr_peel(k: int) -> None:
    # recursive_encoder(k) is E = T_1 T_k ... T_2, the base circuit U on each
    # triple (ancilla, data, sink) of recursive_triples(k), in time order,
    # so E^T (W (x) 2k+1) E = T_2^T ... T_k^T (T_1^T (W (x) 2k+1) T_1) T_k ... T_2.
    # Peel the innermost factor: no earlier triple touches its ancilla, so
    # that is still |0>, and the block theorem turns W on its three wires
    # into det(W) W on its sink. What is left has the same form with one
    # triple fewer, if W now sits on exactly the wires the unpeeled triples
    # cover. At the end, E^T (W (x) 2k+1) E = det(W)^k W on wire 2 alone.
    triples = correlated.recursive_triples(k)
    _require(triples[-1] == (0, 1, 2), f"k={k}: T_1 = (0, 1, 2) is not last in time")
    covered = list(itertools.accumulate(map(set, triples), set.union))  # wires of triples[:t + 1]
    touched = [t for t in range(1, len(triples)) if triples[t][0] in covered[t - 1]]
    _require(not touched, f"k={k}: the ancillas of triples {touched} are touched before their triples")
    _require(sorted(data for _, data, _ in triples) == correlated.recursive_data_wires(k),
             f"k={k}: the triples' data wires are not recursive_data_wires({k})")
    on = [set(range(2 * k + 1))]  # the wires W sits on before each peel, then after the last
    for ancilla, data, _ in reversed(triples):
        on.append(on[-1] - {ancilla, data})
    _require(on[:-1] == covered[::-1], f"k={k}: W is not on exactly the unpeeled triples' wires at every peel")
    _require(on[-1] == {correlated.SINK_WIRE}, f"k={k}: the peeled W does not end on the sink wire alone")
    base, enc = correlated.standard_decomposition().gates, correlated.recursive_encoder(k).gates
    base_wires = [w for pg in base for w in pg.wires]
    _require([pg.gate for pg in enc] == [pg.gate for pg in base] * k
             and [w for pg in enc for w in pg.wires] == [tri[w] for tri in triples for w in base_wires],
             f"k={k}: the encoder is not the base circuit placed on each triple in turn")


def _recovery_five() -> str:
    for k in range(2, 9):
        _corr_peel(k)
    _block_theorem()
    return ("every k >= 1 by induction: k=2..8 peel to det(W)^k W on the sink wire, "
            "through the exact block theorem")


def _hybrid_circuits() -> str:
    # By the shape, realize(c_n) = (I (x) realize(c_{n-step})) (realize(c_base)
    # (x) I), which is P_n's recursion: exact bases make every width exact.
    _hybrid_shape()
    for n, p in ((2, hybrid.p2_matrix()), (3, hybrid.p3_matrix())):
        d = max_abs_diff(realize(hybrid.encoder_circuit(n)), p)
        _require(d == 0.0, f"n={n}: the circuit deviates from P{n} by {d:.3e}")
    return ("every n >= 2 by induction: n=2, 3 realize P2, P3 exactly (max deviation 0.000e+00, "
            "identity wire order), and n=4..8 stack as P_n does")


_XYZ = np.stack(_PAULIS[1:])  # the attacks X, Y and Z, as one stack for the walk
_XYZ.setflags(write=False)


def _walk_attacks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3, n) x and z bits of X, Y and Z on every wire, carried back
    through the width-n encoder circuit in one walk."""
    return _conjugated_pauli(hybrid.encoder_circuit(n), _XYZ)


@_lemma
def _odd_walk() -> None:
    # Carried back, an attack meets the inner encoder first. At odd n, if
    # the inner walk leaves P on its top wire (wire 2) and nothing below,
    # what is left is P on wires 0..2 through the n = 3 stage: the n = 3
    # walk. It must leave exactly P on wire 0 and nothing on wires 1..2, and
    # then so does every odd n. At even n the odd inner walk leaves P on
    # wire 1, and the n = 2 stage acts on the ancilla wires 0..1 only.
    for tag, own, x, z in zip(_PAULI_TAGS[1:], _PAULI_XZ[1:], *_walk_attacks(3)):
        touched = [w for w in (1, 2) if x[w] or z[w]]
        _require(not touched, f"n=3 tag={tag}: the decoded attack acts on data wires {touched}")
        _require((x[0], z[0]) == own, f"n=3 tag={tag}: the decoded attack on wire 0 is not {tag}")


def _hybrid_conjugation() -> str:
    # Each attack is carried back through the encoder circuit on GF(2)
    # bits. A Pauli with no bit on a data wire is (ancilla Pauli) tensor
    # identity-on-data up to phase, exactly, so the residual is 0.
    _hybrid_shape()
    _odd_walk()
    return "every n >= 2 by induction: the n=3 walk leaves each attack on wire 0 alone (residual 0.000e+00)"


def _hybrid_readback() -> str:
    # At even n the decoded attack is the n = 2 walk's Pauli X^x Z^z on
    # wires 0..1, up to phase, and nothing on the data (`_odd_walk`). It
    # sends |b, 0...0> to |b XOR x, 0...0>, so every bit pair b reads back
    # with certainty exactly when x is 0, that is when 00 reads back as 00.
    _hybrid_shape()
    _odd_walk()
    for tag, x in zip(_PAULI_TAGS[1:], _walk_attacks(2)[0]):
        readback = f"{x[0]}{x[1]}"
        _require(readback == "00", f"n=2 bits=00 tag={tag} readback {readback}")
    return "every even n by induction: the n=2 walk has no x bit, so all four bit pairs survive X, Y, Z"


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
    ("block structure over random special unitaries", _blocks_exact),
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
    with _battery():
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
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"noise parameter {key!r}: {val.strip()!r} is not a number") from None
    return out


def _resolve_out(args, default_name: str) -> str:
    if args.out:
        return args.out
    base = os.environ.get("CORRQEC_OUTPUT_DIR", ".")
    return os.path.join(base, default_name)


def cmd_run(args) -> int:
    # `run` flags default to absent, so the spec holds every default and
    # rejects the flags that belong to the other scheme.
    spec = {k: v for k, v in vars(args).items() if k in noise_exp._SPEC_KEYS}
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


def _dump_width(what: str, width: str) -> int:
    try:
        return int(width)
    except ValueError:
        raise ValueError(f"dump target {what!r}: width {width!r} is not an integer") from None


def _dump_text(what: str) -> str:
    # match the lowercased target, but read a width from what was typed
    typed = what.strip()
    w = typed.lower()
    if w == "u":
        return matrix_to_text(correlated.build_new_U())
    if w == "old-u":
        return matrix_to_text(correlated.build_old_U())
    if w == "p2":
        return matrix_to_text(hybrid.p2_matrix())
    if w == "p3":
        return matrix_to_text(hybrid.p3_matrix())
    if w.startswith("pn:"):
        return matrix_to_text(hybrid.hybrid_encoder(_dump_width(what, typed[3:])).matrix)
    if w.startswith("circuit:"):
        name = w[8:]
        if name in _DUMP_CIRCUITS:
            return circuit_to_text(noise_exp._CORRELATED[_DUMP_CIRCUITS[name]]())
        if name.startswith("hybrid"):
            return circuit_to_text(hybrid.encoder_circuit(_dump_width(what, typed[14:])))
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    p = argparse.ArgumentParser(
        prog="corrqec",
        description="Simulate and verify error-avoiding codes for fully-correlated noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the full verification battery")

    r = sub.add_parser("run", help="run a named experiment and write a report",
                       argument_default=argparse.SUPPRESS)
    run_flags = {}

    def flag(*names, **kwargs) -> None:
        action = r.add_argument(*names, **kwargs)
        run_flags.update(dict.fromkeys(action.option_strings, action))

    flag("--scheme", required=True, choices=noise_exp._SCHEMES)
    d = noise_exp._DEFAULTS
    flag("--w", help=f"corr attack unitary: h|x|y|z|i|ry:<alpha>|matrix:<json> (default {d['w']})")
    flag("--rounds", type=int, help=f"corr attack repetitions between encode/decode (default {d['rounds']})")
    flag("--n", type=int, help=f"hybrid register width (default {d['n']})")
    flag("--ancilla", help="hybrid ancilla: bits or ry:<alpha> (odd widths)")
    flag("--errors", help=f"comma-separated hybrid attack tags i,x,y,z (default {','.join(d['errors'])})")
    flag("--shots", type=int)
    flag("--seed", type=int)
    flag("--noise", help="0 or comma list: p1=..,p2=..,readout=..")
    flag("--out", default=None, help="output file (default: derived, in $CORRQEC_OUTPUT_DIR)")
    flag("--format", choices=["json", "csv"], default="json")
    flag("--ibm-bit-order", action="store_true", default=False, help="reverse bitstring keys in output")

    d = sub.add_parser("dump", help="print a matrix or circuit")
    d.add_argument("what", help="u | old-u | p2 | p3 | pn:<n> | circuit:<name>")
    d.add_argument("--out", default=None, help="output file (default: stdout)")
    return p, run_flags


# the top-level parser, and the `run` flags' actions by option string (the
# help action left out)
_PARSER, _RUN_FLAGS = _build_parser()
# what the `run` parser puts in every namespace, and the flags it requires
_RUN_DEFAULTS = {a.dest: a.default for a in _RUN_FLAGS.values() if a.default is not argparse.SUPPRESS}
_RUN_REQUIRED = frozenset(a for a in _RUN_FLAGS.values() if a.required)


def _read_run(tokens) -> argparse.Namespace | None:
    """The namespace argparse reads from the tokens after `run`, in one
    pass over `_RUN_FLAGS`; None unless every flag is an exact option
    string given once, each value is there, does not start with "-" and
    passes the flag's type and choices, and every required flag is given."""
    args = argparse.Namespace(command="run")
    values = vars(args)
    values.update(_RUN_DEFAULTS)
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        action = _RUN_FLAGS.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            value = action.const
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
    return args if seen >= _RUN_REQUIRED else None


def _parse_args(argv) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`. A plain `run` line takes `_read_run`;
    argparse, which alone prints help and errors, parses any other line."""
    args = _read_run(argv[1:]) if argv and argv[0] == "run" else None
    return _PARSER.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) == "":
            raise ValueError("--out must name a file, got an empty path")
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
