"""Regenerate oracle.json: the exact success probability of every grid point.

Run from the repository root:

    python3 perfbench/make_oracle.py

Each value comes from `corrqec.noise_exp.exact_success` and is cross-checked
against the independent density-matrix simulation below (tensor contraction
per gate, closed-form single-wire depolarizing, per-bit readout flips),
which shares only the circuit definitions with corrqec. Noiseless points
must also be exactly protected, i.e. succeed with probability 1. The script
refuses to write the table if any check fails.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from corrqec import correlated, hybrid, noise_exp  # noqa: E402

from checks import ORACLE_PATH, noise_config  # noqa: E402
from workloads import Op, oracle_grid  # noqa: E402

AGREE_TOL = 1e-12

_ATOMS = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]]),
}


def _ry(alpha: float) -> np.ndarray:
    c, s = np.cos(alpha / 2), np.sin(alpha / 2)
    return np.array([[c, -s], [s, c]])


def _atom(sel: str) -> np.ndarray:
    return _ry(float(sel[3:])) if sel.startswith("ry:") else _ATOMS[sel]


def _apply(rho: np.ndarray, u: np.ndarray, wires, n: int) -> np.ndarray:
    """u rho u^dagger for a k-wire u, rho held as a (2,)*2n tensor."""
    k = len(wires)
    ut = np.asarray(u, dtype=complex).reshape((2,) * (2 * k))
    rho = np.moveaxis(np.tensordot(ut, rho, axes=(range(k, 2 * k), wires)), range(k), wires)
    cols = [n + w for w in wires]
    rho = np.moveaxis(np.tensordot(ut.conj(), rho, axes=(range(k, 2 * k), cols)), range(k), cols)
    return rho


def _depolarize(rho: np.ndarray, wire: int, n: int, p: float) -> np.ndarray:
    """(1-p) rho + p (I/2 on the wire) x (rho traced over the wire)."""
    if p == 0.0:
        return rho
    reduced = np.trace(rho, axis1=wire, axis2=n + wire)
    mixed = np.multiply.outer(reduced, np.eye(2) / 2)
    mixed = np.moveaxis(mixed, (2 * n - 2, 2 * n - 1), (wire, n + wire))
    return (1 - p) * rho + p * mixed


def _noisy_pass(rho, gates, n: int, noise: dict) -> np.ndarray:
    for u, wires in gates:
        rho = _apply(rho, u, wires, n)
        k = len(wires)
        p = noise["p1"] if k == 1 else noise["p2"] / k
        for w in wires:
            rho = _depolarize(rho, w, n, p)
    return rho


def reference_success(op: Op) -> float:
    noise = noise_config(op.noise)
    if op.scheme == "hybrid":
        n = op.n
        circuit = hybrid.hybrid_encoder(n).circuit
        n_anc = 1 if n % 2 else 2
        if op.ancilla.startswith("ry:"):
            anc = _ry(float(op.ancilla[3:])) @ np.array([1.0, 0.0])
        else:
            anc = np.zeros(2**n_anc)
            anc[int(op.ancilla, 2)] = 1.0
        psi = np.kron(anc, np.eye(2 ** (n - n_anc))[0])
        attacks = [_ATOMS[t] for t in op.errors.split(",")]
        data = list(range(n_anc, n))
    else:
        circuit = {
            "corr3": correlated.standard_decomposition,
            "corr3-basic": correlated.basic_decomposition,
            "corr5": lambda: correlated.recursive_encoder(2),
        }[op.scheme]()
        n = circuit.n_wires
        psi = np.eye(2**n)[0]
        attacks = [_atom(op.w)] * op.rounds
        data = [1] if n == 3 else [1, 3]
    gates = [(pg.gate.matrix.array, list(pg.wires)) for pg in circuit.gates]
    rho = np.outer(psi, psi.conj()).astype(complex).reshape((2,) * (2 * n))
    rho = _noisy_pass(rho, gates, n, noise)
    for w in attacks:
        for wire in range(n):
            rho = _apply(rho, w, [wire], n)
    rho = _noisy_pass(rho, [(u.conj().T, wires) for u, wires in reversed(gates)], n, noise)
    diag = np.real(np.diagonal(rho.reshape(2**n, 2**n))).reshape((2,) * n)
    marginal = diag.sum(axis=tuple(w for w in range(n) if w not in data))
    # readout: the all-zero outcome survives a bit string b with prob q^|b|(1-q)^(m-|b|)
    q = noise["p_readout"]
    weights = np.array([1.0 - q, q])
    for _ in data:
        marginal = np.tensordot(weights, marginal, axes=(0, 0))
    return float(marginal)


def library_success(op: Op) -> float:
    spec = {"scheme": op.scheme, "noise": noise_config(op.noise)}
    if op.scheme == "hybrid":
        spec.update(n=op.n, errors=op.errors.split(","), ancilla=op.ancilla)
    else:
        spec.update(w=op.w, rounds=op.rounds)
    return noise_exp.exact_success(spec)


def main() -> int:
    table, worst = {}, 0.0
    for op in oracle_grid():
        value, ref = library_success(op), reference_success(op)
        worst = max(worst, abs(value - ref))
        if abs(value - ref) > AGREE_TOL:
            print(f"{op.oracle_key}: corrqec {value!r} vs reference {ref!r}", file=sys.stderr)
            return 1
        if op.noise == "0" and abs(value - 1.0) > AGREE_TOL:
            print(f"{op.oracle_key}: noiseless success {value!r} is not 1", file=sys.stderr)
            return 1
        table[op.oracle_key] = value
    payload = {
        "note": "exact success_probability per grid point; regenerate with make_oracle.py",
        "max_reference_deviation": worst,
        "success_probability": table,
    }
    ORACLE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} points to {ORACLE_PATH.name}; max deviation {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
