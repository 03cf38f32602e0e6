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

`apply_channel` sums a channel's atoms' images under `circuit.attack`, the
one all-wire attack. Every function here takes one attack W, not a stack.

NEW_U_ENTRIES / OLD_U_ENTRIES are deliberately plain mutable tables so a
test harness can corrupt one entry and confirm the verification battery
notices (see `proofs`). The battery's corr proofs read NEW_U_ENTRIES
exactly, once per battery (`_exact_encoder`), and run both exact checks,
`block_theorem_defects` and `exact_gram_defects`, on that one read, the
only input either takes. To read, sqrt(6) times each entry must be 0, +-1,
+-2, +-sqrt2, +-sqrt3 or +-sqrt6 within 1e-12. So an entry moved off that
set (a column rotated by 1e-4) fails the read, which names the entry, and
one moved to another value of the set (two columns swapped) fails the
exact block theorem or the exact 6 U^T U = 6 I, with no tolerance. The
float checks, unitarity and the decompositions within 1e-12, see most
corruptions too.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

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
    """4x4 diagonal blocks of a conjugated three-wire attack plus the
    largest off-diagonal entry magnitude."""

    top_left: np.ndarray
    bottom_right: np.ndarray
    off_diag_norm: float


def verify_block_structure(u, w) -> BlockReport:
    """Report the block structure of U-dagger (W tensor W tensor W) U for
    one 2x2 W. ValueError unless u is an 8x8 unitary and w a 2x2 unitary,
    within 1e-10."""
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


# The block theorem in exact arithmetic. sqrt(6) times an encoder entry is
# 0, +-1, +-2, +-sqrt2, +-sqrt3 or +-sqrt6: an element of Z[sqrt2, sqrt3],
# held as integer coordinates over the basis (1, sqrt2, sqrt3, sqrt6).
# W = [[a, c], [b, d]] has four independent symbols (W[r, s] is symbol
# r + 2s), and each entry of W (x) 3 is one of the 20 degree-3 monomials
# in them. So 6 U^T (W (x) 3) U is an array of small integers over
# (entry, monomial, basis element), which float64 holds exactly, and an
# identity between two such arrays holds for every W in GL(2).
_RADICANDS = (1, 2, 3, 6)
# the values sqrt(6) u may take, as coordinates: 0, 1, 2, sqrt2, sqrt3,
# sqrt6, then the negatives of the nonzero ones
_RING_COORDS = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float)
_RING_COORDS = np.concatenate([_RING_COORDS, -_RING_COORDS[1:]])
_RING_VALUES = _RING_COORDS @ np.sqrt(_RADICANDS)


def _ring_product() -> np.ndarray:
    """The (4, 4, 4) table of e_s e_t = gcd(s, t) e_(st / gcd^2) over the
    basis e_s = sqrt(s), s in 1, 2, 3, 6."""
    table = np.zeros((4, 4, 4))
    for (i, s), (j, t) in itertools.product(enumerate(_RADICANDS), repeat=2):
        g = math.gcd(s, t)
        table[i, j, _RADICANDS.index(s * t // g**2)] = g
    return table


def _monomial_tables() -> tuple[np.ndarray, np.ndarray]:
    """The (8, 8, 20) 0/1 table of which monomial each entry of W (x) 3 is,
    W(x)3[i, j] = prod over wires of W[i_wire, j_wire], and the block form
    6 det(W) (I (x) W) in the top-left 4x4, 0 elsewhere, laid out as
    (row, basis element, column, monomial). A monomial is a sorted triple
    of symbols."""
    keys = list(itertools.combinations_with_replacement(range(4), 3))
    table = np.zeros((8, 8, len(keys)))
    for i, j in itertools.product(range(8), repeat=2):
        symbols = sorted(((i >> b) & 1) + 2 * ((j >> b) & 1) for b in range(3))
        table[i, j, keys.index(tuple(symbols))] = 1
    form = np.zeros((8, 4, 8, len(keys)))
    for p, q in itertools.product(range(4), repeat=2):
        if p >> 1 == q >> 1:  # I on the data wire; W[p_sink, q_sink] times ad - bc
            s = (p & 1) + 2 * (q & 1)
            form[p, 0, q, keys.index(tuple(sorted((s, 0, 3))))] += 6
            form[p, 0, q, keys.index(tuple(sorted((s, 1, 2))))] -= 6
    return table, form


_PRODUCT = _ring_product()
_MONOMIALS, _BLOCK_FORM = _monomial_tables()
# the monomial table as (i, monomial) x j, for one product with the entries
_MONOMIAL_ROWS = _MONOMIALS.transpose(0, 2, 1).reshape(-1, 8)


class _ExactEncoder(NamedTuple):
    """An encoder table as `_exact_encoder` reads it, both arrays read-only."""

    v: np.ndarray
    left: np.ndarray


def _exact_encoder(entries) -> _ExactEncoder:
    """sqrt(6) times an 8x8 real table, read exactly: its (8, 8, 4)
    coordinates v[i, p, basis] and the (32, 32) left factor
    L[(p, g), (i, b)] = sum_a v[i, p, a] (e_a e_b)_g, so that L @ x, for
    x over (i, b), holds the coordinates of sqrt(6) U^T x. ValueError
    naming the first entry that sqrt(6) does not take to 0, +-1, +-2,
    +-sqrt2, +-sqrt3 or +-sqrt6 within 1e-12."""
    x = np.array(entries, dtype=float) * np.sqrt(6.0)
    if x.shape != (8, 8):
        raise ValueError(f"encoder table must be 8x8, got shape {x.shape}")
    pick = np.abs(x[..., None] - _RING_VALUES).argmin(axis=-1)
    off = np.abs(x - _RING_VALUES[pick]) > 1e-12
    if off.any():
        r, c = np.argwhere(off)[0]
        raise ValueError(f"entry ({r}, {c}) = {entries[r][c]!r}: sqrt(6) times it is not 0, +-1, +-2, "
                         f"+-sqrt2, +-sqrt3 or +-sqrt6 within 1e-12")
    v = _RING_COORDS[pick]
    left = (v.reshape(64, 4) @ _PRODUCT.reshape(4, 16)).reshape(8, 8, 4, 4)  # i, p, b, g
    left = left.transpose(1, 3, 0, 2).reshape(32, 32)
    v.setflags(write=False)
    left.setflags(write=False)
    return _ExactEncoder(v, left)


def exact_gram_defects(read: _ExactEncoder) -> int:
    """How many entries of 6 U^T U, computed exactly from an encoder
    table's `_exact_encoder` read, are not those of 6 I."""
    v, left = read
    gram = (left @ v.transpose(0, 2, 1).reshape(32, 8)).reshape(8, 4, 8)  # p, basis element, q
    return int(((gram[:, 0] != 6 * np.eye(8)) | gram[:, 1:].any(axis=1)).sum())


def block_theorem_defects(read: _ExactEncoder) -> tuple[int, int]:
    """Expand 6 U^T (W (x) 3) U exactly, as polynomials in the four entries
    of W, for an encoder table's `_exact_encoder` read, and count the
    entries that break the block theorem: (those of the two off-diagonal
    4x4 blocks that are not identically 0, those of the top-left block that
    are not identically 6 det(W) (I (x) W)). (0, 0) proves, with no
    tolerance, that U^T (W (x) 3) U maps ancilla |0> to itself as
    det(W) (I (x) W) for every W in GL(2). One (32, 32) @ (32, 160)
    product of small integers."""
    v, left = read
    # right[(i, b), (q, m)] = sum_j monomial m's count at (i, j) times v[j, q, b]
    right = (_MONOMIAL_ROWS @ v.reshape(8, 32)).reshape(8, 20, 8, 4).transpose(0, 3, 2, 1).reshape(32, 160)
    wrong = ((left @ right).reshape(8, 4, 8, 20) != _BLOCK_FORM).any(axis=(1, 3))
    return int(wrong[:4, 4:].sum() + wrong[4:, :4].sum()), int(wrong[:4, :4].sum())


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
    """Finitely supported mixture of all-wire tensor-power attacks,
    rho -> sum_k p_k W_k^(tensor n) rho W_k^(tensor n)-dagger.

    `support` holds one read-only copy of each atom with its weight. The
    weights are checked first, so an empty support fails on its sum, then
    each atom is checked for unitarity on its own."""

    n_qubits: int
    support: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, "n_qubits", 1))
        ws, ps = [], []
        for w, p in self.support:
            wm = np.array(w, dtype=complex)  # the one copy of the atom
            if wm.shape != (2, 2):
                raise ValueError("channel atoms must be 2x2")
            pf = float(p)
            if not np.isfinite(pf) or pf < 0:  # NaN passes every comparison
                raise ValueError(f"probability {pf} is negative or not finite")
            wm.setflags(write=False)
            ws.append(wm)
            ps.append(pf)
        total = sum(ps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if not all(is_unitary(w, 1e-12) for w in ws):
            raise ValueError("channel atom is not unitary within 1e-12")
        object.__setattr__(self, "support", tuple(zip(ws, ps)))


def make_channel(n: int, support) -> CorrelatedChannel:
    """Build a channel from (atom, probability) pairs; atoms may be Gates
    or 2x2 array-likes."""
    pairs = tuple((w.matrix if isinstance(w, Gate) else w, p) for w, p in support)
    return CorrelatedChannel(n, pairs)


def apply_channel(ch: CorrelatedChannel, rho: DensityMatrix) -> DensityMatrix:
    """The channel on rho: the weighted sum, over the atoms W_k, of the
    per-wire all-wire `attack` by W_k."""
    n = rho.n_wires
    if n != ch.n_qubits:
        raise ValueError(f"channel acts on {ch.n_qubits} wires, state has {n}")
    out = sum(p * attack(rho, w).matrix for w, p in ch.support)
    return DensityMatrix._trusted(out, n)


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
    return _recursive_encoder(_integer(k, "k", 1))


@lru_cache(maxsize=8)  # k is 2 in the schemes, 2..8 in the battery
def _recursive_encoder(k: int) -> Circuit:
    base = standard_decomposition().gates
    triples = recursive_triples(k)
    placed = []
    for tri in triples:
        for pg in base:
            placed.append(PlacedGate(pg.gate, tuple(tri[w] for w in pg.wires)))
    return Circuit(2 * len(triples) + 1, tuple(placed))


_NAMED_ATOMS = {g.name.lower(): g for g in (I, X, Y, Z, H)}


def _json_entry(pair) -> complex:
    """One entry of a `matrix:` selector, a JSON [re, im] pair of numbers
    that fit a float; TypeError for anything else, a boolean included,
    which complex() would read as 0 or 1."""
    if type(pair) is list and len(pair) == 2 and all(type(x) in (int, float) for x in pair):
        try:
            return complex(*pair)
        except OverflowError:
            pass
    raise TypeError(f"entry {json.dumps(pair)} is not a pair of numbers")


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
            value = json.loads(sel.strip()[7:])
            if type(value) is not list or any(type(row) is not list for row in value):
                raise ValueError(f"got {json.dumps(value)}, not a list of lists")
            rows = [[_json_entry(z) for z in row] for row in value]
            if [len(row) for row in rows] != [2, 2]:
                raise ValueError(f"got rows of lengths {[len(row) for row in rows]}")
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"matrix selector must be a JSON 2x2 of [re, im] pairs ({exc})") from None
        return Gate("matrix", ComplexMatrix(rows), 1).matrix.array
    raise ValueError(f"unknown attack selector {sel!r}")


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 special unitary: the QR of a Ginibre sample, whose 8
    normals rng gives as the real parts then the imaginary parts,
    phase-fixed so the determinant is 1 up to rounding."""
    x = rng.normal(size=(2, 2, 2))
    q, r = np.linalg.qr(x[0] + 1j * x[1])
    d = np.diagonal(r)
    q = q @ np.diag(d / np.abs(d))
    return q / np.sqrt(np.linalg.det(q))
