"""Output checks: an op fails on any of these.

* a non-zero exit code or an exception;
* a report that does not parse, or whose config does not match the argv;
* counts that do not sum to the shots;
* a success probability off the oracle table by more than 1e-9 (JSON
  reports), or a printed six-decimal value that does not round from it
  (CSV reports, which carry no success probability);
* a sampled count of the prepared bit string more than six standard
  deviations from shots x success probability;
* a `verify` FAIL line, or fewer than all checks passing.

run.py adds one more: output that differs from an earlier run of the same
argv.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import SHOTS, Op

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"
ORACLE_TOL = 1e-9
VERIFY_CHECKS = 18

_WROTE = re.compile(r"^wrote .+ \(success_probability=([0-9.]+)\)$")
_NOISE_KEYS = {"p1": "p1", "p2": "p2", "readout": "p_readout"}


def load_oracle() -> dict[str, float]:
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))["success_probability"]


def noise_config(noise: str) -> dict[str, float]:
    out = {"p1": 0.0, "p2": 0.0, "p_readout": 0.0}
    if noise != "0":
        for part in noise.split(","):
            key, _, val = part.partition("=")
            out[_NOISE_KEYS[key]] = float(val)
    return out


def _expected_config(op: Op) -> dict:
    config = {"scheme": op.scheme, "rounds": op.rounds, "noise": noise_config(op.noise)}
    if op.scheme == "hybrid":
        config.update(n=op.n, ancilla=op.ancilla, errors=op.errors.split(","))
    else:
        config["w"] = op.w
    return config


def _parse_counts(op: Op, report: str) -> tuple[dict[str, int], float | None]:
    """Counts and the success probability a report carries (None in CSV)."""
    if op.fmt == "csv":
        lines = report.splitlines()
        if not lines or lines[0] != "bitstring,count":
            raise ValueError("CSV report lacks its header")
        counts = {}
        for line in lines[1:]:
            key, count = line.split(",")
            counts[key] = int(count)
        return counts, None
    payload = json.loads(report)
    name = f"hybrid{op.n}" if op.scheme == "hybrid" else op.scheme
    if payload["name"] != name or payload["seed"] != op.seed or payload["shots"] != SHOTS:
        raise ValueError("report name, seed or shots do not match the argv")
    if payload["config"] != _expected_config(op):
        raise ValueError(f"report config {payload['config']} does not match the argv")
    return payload["counts"], float(payload["success_probability"])


def check_run(op: Op, stdout: str, report: str, oracle: dict[str, float]) -> None:
    m = _WROTE.match(stdout.strip())
    if not m:
        raise ValueError(f"unexpected stdout {stdout!r}")
    expected = oracle[op.oracle_key]
    printed = float(m.group(1))
    if abs(printed - expected) > 5e-7 + ORACLE_TOL:
        raise ValueError(f"printed success {printed} is not {expected:.9f} rounded")
    counts, success = _parse_counts(op, report)
    if success is not None and abs(success - expected) > ORACLE_TOL:
        raise ValueError(f"success_probability {success!r} off the oracle {expected!r}")
    width = op.measured_wires
    if any(len(k) != width or set(k) - {"0", "1"} for k in counts):
        raise ValueError(f"count keys are not {width}-bit strings")
    if sum(counts.values()) != SHOTS:
        raise ValueError(f"counts sum to {sum(counts.values())}, not {SHOTS}")
    hits = counts.get("0" * width, 0)
    sd = math.sqrt(SHOTS * expected * (1.0 - expected))
    if abs(hits - SHOTS * expected) > 6.0 * sd + 1.0:
        raise ValueError(f"{hits} hits of the prepared bits; expected about {SHOTS * expected:.1f}")


def check_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    failed = [ln for ln in lines if ln.startswith("FAIL")]
    if failed:
        raise ValueError(f"verify: {failed[0]}")
    passed = sum(1 for ln in lines if ln.startswith("PASS"))
    if passed != VERIFY_CHECKS or not lines or lines[-1] != f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed":
        raise ValueError(f"verify: {passed} PASS lines, last line {lines[-1] if lines else ''!r}")


def check(op: Op, rc, stdout: str, report: str | None, oracle: dict[str, float]) -> str | None:
    """Return why the op failed, or None when its output is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.kind == "verify":
            check_verify(stdout)
        elif report is None:
            return "no report file"
        else:
            check_run(op, stdout, report, oracle)
    except (ValueError, KeyError, TypeError) as exc:
        return str(exc)
    return None
