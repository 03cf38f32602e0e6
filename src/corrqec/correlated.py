"""Encoders and verification for fully-correlated noise W applied to every wire.

The channel model: rho -> sum_i p_i (W_i tensored over all wires) rho (...)^dagger
with a finite list of unitary atoms W_i. The 8x8 encoder conjugates any such
three-wire attack into block form whose upper block acts as identity-tensor-W,
so a data qubit parked on wire 1 rides through untouched while wire 2 absorbs
one copy of W and wire 0 stays |0>.

Wire roles for the three-wire scheme (wire 0 = top = most significant):
  wire 0: fixed |0> ancilla, returns to |0> exactly
  wire 1: protected data qubit
  wire 2: sink qubit, picks up one application of the attack unitary

The recursive scheme chains the same encoder over 2k+1 wires to protect k
data qubits (odd wires), with the sink still on wire 2 and every remaining
even wire returning to |0>.

NEW_U_ENTRIES / OLD_U_ENTRIES are deliberately plain mutable tables so a
test harness can corrupt one entry and confirm the verification battery
notices (see cli.cmd_verify).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .circuit import (
    Circuit,
    DensityMatrix,
    StateVector,
    attack,
    basis_state,
    fidelity,
    partial_trace,
    realize,
    tensor,
    to_density,
)
from .gates import CNOT, Gate, H, I, PlacedGate, X, Y, Z, controlled, ry, ry_from_text, ry_x, x_ry
from .linalg import ComplexMatrix, _integer, is_unitary, tensor_power

_S13 = np.sqrt(1.0 / 3.0)
_S23 = np.sqrt(2.0 / 3.0)
_S16 = np.sqrt(1.0 / 6.0)
_S12 = np.sqrt(1.0 / 2.0)

# Corrected encoder: protects wire 1 for arbitrary attack unitaries.
NEW_U_ENTRIES = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
    [_S23, 0.0, 0.0, 0.0, _S13, 0.0, 0.0, 0.0],
    [-_S16, 0.0, _S12, 0.0, _S13, 0.0, 0.0, 0.0],
    [0.0, _S16, 0.0, _S12, 0.0, -_S13, 0.0, 0.0],
    [-_S16, 0.0, -_S12, 0.0, _S13, 0.0, 0.0, 0.0],
    [0.0, _S16, 0.0, -_S12, 0.0, -_S13, 0.0, 0.0],
    [0.0, -_S23, 0.0, 0.0, 0.0, -_S13, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
]

# Earlier published encoder; differs from the corrected one only in the
# last four columns. Kept for comparison and for the refutation check.
OLD_U_ENTRIES = [
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [_S23, 0.0, 0.0, 0.0, 0.0, _S13, 0.0, 0.0],
    [-_S16, 0.0, _S12, 0.0, 0.0, _S13, 0.0, 0.0],
    [0.0, _S16, 0.0, _S12, 0.0, 0.0, _S13, 0.0],
    [-_S16, 0.0, -_S12, 0.0, 0.0, _S13, 0.0, 0.0],
    [0.0, _S16, 0.0, -_S12, 0.0, 0.0, _S13, 0.0],
    [0.0, -_S23, 0.0, 0.0, 0.0, 0.0, _S13, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
]

# Rotation angle whose half-sine is sqrt(1/3); both decompositions mix the
# data and sink amplitudes through it.
THIRD_ANGLE = float(np.arcsin(np.sqrt(1.0 / 3.0)))

ANCILLA_WIRE = 0
DATA_WIRE = 1
SINK_WIRE = 2


def build_old_U() -> np.ndarray:
    """Earlier published 8x8 encoder (reads the mutable entry table)."""
    return np.array(OLD_U_ENTRIES, dtype=complex)


def build_new_U() -> np.ndarray:
    """Corrected 8x8 encoder (reads the mutable entry table)."""
    return np.array(NEW_U_ENTRIES, dtype=complex)


@dataclass(frozen=True, eq=False)
class BlockReport:
    """4x4 diagonal blocks of a conjugated three-wire attack, plus the
    largest off-diagonal entry magnitude."""

    top_left: np.ndarray
    bottom_right: np.ndarray
    off_diag_norm: float

    def __post_init__(self):
        if self.off_diag_norm < 0:
            raise ValueError("off_diag_norm must be non-negative")


def verify_block_structure(u, w) -> BlockReport:
    """Report the block structure of U-dagger (W tensor W tensor W) U."""
    um, wm = np.asarray(u, dtype=complex), np.asarray(w, dtype=complex)
    if um.shape != (8, 8):
        raise ValueError("encoder must be 8x8")
    if wm.shape != (2, 2):
        raise ValueError("attack unitary must be 2x2")
    if not is_unitary(um, 1e-10):
        raise ValueError("encoder input is not unitary")
    if not is_unitary(wm, 1e-10):
        raise ValueError("attack input is not unitary")
    m = um.conj().T @ tensor_power(wm, 3) @ um
    off = max(float(np.abs(m[:4, 4:]).max()), float(np.abs(m[4:, :4]).max()))
    return BlockReport(top_left=m[:4, :4], bottom_right=m[4:, 4:], off_diag_norm=off)


@cache  # a fixed circuit: built and its gates checked once, then shared
def standard_decomposition() -> Circuit:
    """Six-gate circuit realizing the corrected encoder.

    Three controlled-X gates, one bare Z, and two zero-controlled
    rotation gates; matches the encoder matrix exactly.
    """
    a = 2.0 * THIRD_ANGLE
    g = (
        PlacedGate(controlled(ry_x(a), 0), (1, 0)),
        PlacedGate(controlled(ry(np.pi / 2), 0), (0, 1)),
        PlacedGate(Z, (2,)),
        PlacedGate(CNOT, (2, 1)),
        PlacedGate(CNOT, (0, 2)),
        PlacedGate(controlled(X, 0), (1, 0)),
    )
    return Circuit(3, g)


@cache
def basic_decomposition() -> Circuit:
    """Fourteen-gate circuit realizing the corrected encoder with only
    CNOTs and one-wire gates (6 two-wire + 8 one-wire)."""
    t = THIRD_ANGLE
    g = (
        PlacedGate(X, (1,)),
        PlacedGate(ry(-t), (0,)),
        PlacedGate(CNOT, (1, 0)),
        PlacedGate(x_ry(t), (0,)),
        PlacedGate(CNOT, (0, 1)),
        PlacedGate(ry(np.pi / 4), (1,)),
        PlacedGate(CNOT, (0, 1)),
        PlacedGate(X, (0,)),
        PlacedGate(ry(-np.pi / 4), (1,)),
        PlacedGate(Z, (2,)),
        PlacedGate(CNOT, (2, 1)),
        PlacedGate(CNOT, (0, 2)),
        PlacedGate(CNOT, (1, 0)),
        PlacedGate(X, (1,)),
    )
    return Circuit(3, g)


def erroneous_decomposition_product() -> np.ndarray:
    """Product of a previously published six-stage construction.

    The result is unitary but does NOT reproduce the earlier encoder it
    was claimed to factor; comparing the two is the refutation check.
    """
    return realize(_erroneous_decomposition())


@cache
def _erroneous_decomposition() -> Circuit:
    """The six-stage construction `erroneous_decomposition_product` multiplies out."""
    g = (
        PlacedGate(controlled(ry(2.0 * THIRD_ANGLE - np.pi), 1), (1, 0)),
        PlacedGate(controlled(ry(-np.pi / 2), 0), (0, 1)),
        PlacedGate(Z, (2,)),
        PlacedGate(CNOT, (2, 0)),
        PlacedGate(controlled(X, 0), (1, 2)),
        PlacedGate(CNOT, (0, 1)),
    )
    return Circuit(3, g)


@dataclass(frozen=True, eq=False)
class CorrelatedChannel:
    """Finitely supported mixture of all-wire tensor-power attacks. Each
    atom is copied once, into a read-only 2x2 array."""

    n_qubits: int
    support: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, "n_qubits", 1))
        sup = []
        total = 0.0
        for w, p in self.support:
            wm = np.array(w, dtype=complex)
            if wm.shape != (2, 2):
                raise ValueError("channel atoms must be 2x2")
            if not is_unitary(wm, 1e-12):
                raise ValueError("channel atom is not unitary within 1e-12")
            pf = float(p)
            if pf < 0:
                raise ValueError(f"negative probability {pf}")
            wm.setflags(write=False)
            sup.append((wm, pf))
            total += pf
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "support", tuple(sup))


def make_channel(n: int, support) -> CorrelatedChannel:
    """Build a channel from (atom, probability) pairs; atoms may be Gates
    or 2x2 array-likes."""
    pairs = tuple((w.matrix if isinstance(w, Gate) else w, p) for w, p in support)
    return CorrelatedChannel(n, pairs)


def apply_channel(ch: CorrelatedChannel, rho: DensityMatrix) -> DensityMatrix:
    if rho.n_wires != ch.n_qubits:
        raise ValueError(f"channel acts on {ch.n_qubits} wires, state has {rho.n_wires}")
    out = sum(p * attack(rho, w).matrix for w, p in ch.support)
    return DensityMatrix._trusted(out, rho.n_wires)


def three_qubit_protect(
    psi: StateVector, v: StateVector, ch: CorrelatedChannel, rounds: int = 1
) -> tuple[float, DensityMatrix]:
    """Encode |0>, psi, v; attack `rounds` times; decode.

    Returns the fidelity of the decoded data wire against psi along with
    the full decoded three-wire state (wire 2 ends up carrying the attack
    unitaries applied to v; wire 0 returns to |0>).
    """
    if ch.n_qubits != 3:
        raise ValueError("three_qubit_protect needs a 3-qubit channel")
    if psi.n_wires != 1 or v.n_wires != 1:
        raise ValueError("psi and v must be single-qubit states")
    rounds = _integer(rounds, "rounds", 1)
    u = build_new_U()
    rho = to_density(tensor(basis_state(1, "0"), psi, v)).matrix
    encoded = DensityMatrix(u @ rho @ u.conj().T, 3)  # checked: u reads a mutable table
    for _ in range(rounds):
        encoded = apply_channel(ch, encoded)
    out = DensityMatrix._trusted(u.conj().T @ encoded.matrix @ u, 3)
    fid = fidelity(partial_trace(out, [DATA_WIRE]), psi)
    return fid, out


def recursive_triples(k: int) -> list[tuple[int, int, int]]:
    """Encoder placements for 2k+1 wires, in emission (time) order.

    Each triple is (most significant, middle, least significant). The
    higher triples go first; the base triple (0, 1, 2) goes last so its
    conjugation sits innermost when the whole circuit is inverted around
    an attack.
    """
    k = _integer(k, "k", 1)
    return [(2 * j, 2 * j - 1, 2 * j - 2) for j in range(2, k + 1)] + [(0, 1, 2)]


def recursive_data_wires(k: int) -> list[int]:
    return [2 * j + 1 for j in range(_integer(k, "k", 1))]


def recursive_encoder(k: int) -> Circuit:
    """Gate-level encoder on 2k+1 wires protecting k data qubits.

    Emits the six-gate standard decomposition once per triple; for k=1
    this is exactly standard_decomposition(). Data qubits sit on odd
    wires, |0> ancillas on even wires except wire 2, which is the sink.
    Built once per k and shared (a Circuit is immutable).
    """
    return _recursive_encoder(_integer(k, "k", 1), standard_decomposition())


@lru_cache(maxsize=8)  # k is 1 or 2 in the schemes and the battery
def _recursive_encoder(k: int, base: Circuit) -> Circuit:
    triples = recursive_triples(k)
    placed = []
    for tri in triples:
        for pg in base.gates:
            placed.append(PlacedGate(pg.gate, tuple(tri[w] for w in pg.wires)))
    return Circuit(2 * len(triples) + 1, tuple(placed))


_NAMED_ATOMS = {g.name.lower(): g for g in (I, X, Y, Z, H)}


def atom_from_selector(sel: str) -> np.ndarray:
    """Parse an attack-unitary selector: h|x|y|z|i, ry:<alpha>, or
    matrix:<json 2x2 of [re, im] pairs>, which must be unitary. Returns
    the read-only matrix of the selected gate."""
    s = sel.strip().lower()
    if s in _NAMED_ATOMS:
        return _NAMED_ATOMS[s].matrix.array
    if s.startswith("ry:"):
        return ry_from_text(sel, "attack selector").matrix.array
    if s.startswith("matrix:"):
        try:
            rows = [[complex(re, im) for re, im in row] for row in json.loads(sel.strip()[7:])]
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"matrix selector must be a JSON 2x2 of [re, im] pairs ({exc})") from None
        return Gate("matrix", ComplexMatrix(rows), 1).matrix.array
    raise ValueError(f"unknown attack selector {sel!r}")


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 special unitary (QR of a Ginibre sample, then
    phase-fixed so the determinant is exactly 1)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    q = q / np.sqrt(np.linalg.det(q))
    return q
