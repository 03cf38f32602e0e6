"""Command-line interface: verification battery, experiment runner, dumps.

Exit codes: 0 all good, 1 verification failure, 2 usage error.

`verify` runs `proofs.CHECKS` in one `proofs.Battery` and prints a PASS or
FAIL line per check.

Output files: `run` writes a JSON (default) or CSV report. An explicit
--out path wins; otherwise the file lands in $CORRQEC_OUTPUT_DIR (falling
back to the current directory) under a name derived from the experiment
and seed. Reports are fully computed before anything is written, so a
failed run never leaves a partial file behind.

argparse defines every flag, help and error text. A plain `run` line is
read in one pass over the `run` parser's own actions; `_PARSER.parse_args`
parses any other line, and every `verify` and `dump` line.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import correlated, hybrid, noise_exp, proofs
from .circuit import circuit_to_text
from .linalg import matrix_to_text


def cmd_verify() -> int:
    battery, failures = proofs.Battery(), 0
    for name, check in proofs.CHECKS:
        try:
            detail = check(battery)
            print(f"PASS {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - battery must keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
    total = len(proofs.CHECKS)
    print(f"{total - failures}/{total} checks passed")
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
