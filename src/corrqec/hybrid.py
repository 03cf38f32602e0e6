"""Hybrid scheme: protect quantum data plus classical ancilla bits against
all-wire Pauli attacks (X, Y, or Z applied to every wire at once).

The encoder family P_n (2 <= n <= 8) is built two independent ways: a
matrix recursion seeded by the 4x4 and 8x8 bases, and a CNOT/H circuit
recursion mirroring the diagrams. Both recursions have one shape: the
width-n encoder is the two-wire stage on wires 0..1 then the width n-1
encoder on wires 1..n-1 (even n), or the three-wire stage on wires 0..2
then the width n-2 encoder on wires 2..n-1 (odd n).

Wire split (wire 0 = top = most significant): the ancilla occupies wire 0
for odd n and wires 0..1 for even n; all remaining wires are data. After
encode -> attack -> decode, the conjugated attack factors as (ancilla
block) tensor (identity on data): data is untouched, and the ancilla
absorbs the error. For odd n the absorbed action is a phase times the same
Pauli, so any pure ancilla state rides along predictably; for even n it is
diagonal, so classical basis-state ancillas read back deterministically
(superposed even-width ancillas are NOT preserved and are rejected).

`verify` proves these claims for every n >= 2 by induction on the shape,
with no matrix wider than 8x8: it checks that each built width n >= 4 is
the n = 2 or n = 3 circuit followed by the smaller encoder shifted up, and
proves the claims at those two bases. The circuits of widths 2 and 3
realize P2 and P3 exactly, so every width realizes P_n. The encoder
circuit is CNOT/H, so `circuit._conjugated_pauli` carries X, Y and Z on
every wire back through it on GF(2) bits: the width-3 walk leaves each
attack on wire 0 alone, so no bit lands on a data wire at any width, and
the width-2 walk has no x bit, so the even-width ancilla bits read back
deterministically. The dense matrices stay as the tests' reference:
`conjugated_error` is P^T (W tensored n times) P, as every P_n is real,
and `hybrid_protect` encodes with P_n, runs the attack through
`circuit.attack` on the encoded vector, decodes with P_n^T and reduces to
the data and ancilla wires by `partial_trace`, without forming rho or W
tensored n times. Its odd-width prediction comes from the other
construction, the walk of the encoder circuit, so its check holds the
matrix recursion against the circuit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .circuit import (
    _PAULI_TAGS,
    _PAULI_XZ,
    _PAULIS,
    Circuit,
    DensityMatrix,
    StateVector,
    _conjugated_pauli,
    attack,
    basis_state,
    fidelity,
    partial_trace,
    tensor,
)
from .gates import CNOT, H, PlacedGate, ry_from_text
from .linalg import _integer, kron, tensor_power

PAULI_TAGS = _PAULI_TAGS

MIN_QUBITS = 2
MAX_QUBITS = 8


def normalize_tag(tag: str) -> str:
    t = str(tag).strip().upper()
    if t not in PAULI_TAGS:
        raise ValueError(f"unknown error tag {tag!r}; expected one of {PAULI_TAGS}")
    return t


def _pauli(tag: str) -> np.ndarray:
    """The matrix of a tag, read from `circuit`'s Pauli table."""
    return _PAULIS[PAULI_TAGS.index(normalize_tag(tag))]


def p2_matrix() -> np.ndarray:
    """4x4 base encoder: (I tensor Z + X tensor X) / sqrt(2)."""
    return (kron(_pauli("I"), _pauli("Z")) + kron(_pauli("X"), _pauli("X"))) / np.sqrt(2.0)


def p3_matrix() -> np.ndarray:
    """8x8 base encoder: the XOR permutation |abc> -> |a^c, a^b, a^b^c>."""
    m = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                src = (a << 2) | (b << 1) | c
                dst = ((a ^ c) << 2) | ((a ^ b) << 1) | (a ^ b ^ c)
                m[dst, src] = 1.0
    return m


def _check_width(n: int) -> int:
    n = _integer(n, "register width", MIN_QUBITS)
    if n > MAX_QUBITS:
        raise ValueError(f"register width must be in {MIN_QUBITS}..{MAX_QUBITS}, got {n}")
    return n


def _matrix_rec(n: int) -> np.ndarray:
    """The encoder matrix P_n, read-only."""
    if n == 2:
        m = p2_matrix()
    elif n == 3:
        m = p3_matrix()
    elif n % 2 == 0:
        m = kron(np.eye(2), _matrix_rec(n - 1)) @ kron(p2_matrix(), np.eye(2 ** (n - 2)))
    else:
        m = kron(np.eye(4), _matrix_rec(n - 2)) @ kron(p3_matrix(), np.eye(2 ** (n - 3)))
    m.setflags(write=False)
    return m


_TWO = ((CNOT, (1, 0)), (H, (1,)), (CNOT, (1, 0)))
_THREE = ((CNOT, (0, 1)), (CNOT, (2, 0)), (CNOT, (1, 2)))


def _circuit_gates(n: int) -> list[PlacedGate]:
    """The width-n encoder's gates: for even n the two-wire stage on wires
    0..1, then the width n-1 encoder on wires 1..n-1; for odd n the
    three-wire stage on wires 0..2, then the width n-2 encoder on wires
    2..n-1; unrolled down to width 2 or 3."""
    gates, offset = [], 0
    while True:
        stage, step = (_TWO, 1) if n % 2 == 0 else (_THREE, 2)
        gates += [PlacedGate(g, tuple(w + offset for w in wires)) for g, wires in stage]
        if n <= 3:
            return gates
        n, offset = n - step, offset + step


@dataclass(frozen=True, eq=False)
class HybridEncoder:
    n_qubits: int
    matrix: np.ndarray  # read-only
    circuit: Circuit

    def __post_init__(self):
        if self.circuit.n_wires != self.n_qubits:
            raise ValueError("circuit width does not match encoder width")


def encoder_circuit(n: int) -> Circuit:
    """The CNOT/H encoder circuit alone, without building its matrix."""
    return _encoder_circuit(_check_width(n))


@cache
def _encoder_circuit(n: int) -> Circuit:
    """The encoder circuit, built once per width and shared (it is immutable)."""
    return Circuit(n, tuple(_circuit_gates(n)))


def hybrid_encoder(n: int) -> HybridEncoder:
    """Encoder for an n-wire register, 2 <= n <= 8, with its matrix built
    on each call.

    The circuit realizes the matrix exactly, with the identity wire
    permutation. The `verify` battery proves this for every n >= 2 from the
    widths 2 and 3 and the shared recursion, and the test suite compares
    the two densely for every width, so construction does not repeat the
    proof.
    """
    n = _check_width(n)
    return HybridEncoder(n_qubits=n, matrix=_matrix_rec(n), circuit=encoder_circuit(n))


def ancilla_wires(n: int) -> tuple[int, ...]:
    n = _check_width(n)
    return (0,) if n % 2 == 1 else (0, 1)


def data_wires(n: int) -> tuple[int, ...]:
    n = _check_width(n)
    return tuple(range(len(ancilla_wires(n)), n))


def error_unitary(n: int, tag: str) -> np.ndarray:
    """The attack: one Pauli applied to every wire simultaneously."""
    n = _check_width(n)
    return tensor_power(_pauli(tag), n)


def attack_factor(tags) -> np.ndarray:
    """The 2x2 factor of a whole attack sequence, applied in order.

    Every attack is one Pauli on all wires, so the sequence folds to the
    product of its Paulis on every wire. Pauli entries are 0, +-1 and +-i,
    so the product is exact, and applying it once gives the same numbers
    as applying the Paulis one by one. A bare string is rejected rather
    than read as one tag per character.
    """
    if isinstance(tags, str):
        raise ValueError(f"attack tags must be a list of tags, got the string {tags!r}")
    w = _pauli("I")
    for t in tags:
        w = _pauli(t) @ w
    return w


def conjugated_error(n: int, tag: str) -> np.ndarray:
    """Decode-side view of an attack: P-dagger (W tensored n times) P. P is
    real, so P-dagger is its transpose, a view."""
    n = _check_width(n)
    p = _matrix_rec(n)
    return p.T @ (tensor_power(_pauli(tag), n) @ p)


@dataclass(frozen=True)
class AncillaReport:
    """What happened to the ancilla across encode -> attack -> decode.

    Even-width registers carry two classical bits: input_bits,
    readback_bits, readback_probability, preserved_with_certainty.
    Odd-width registers carry one qubit: reduced_state, expected_state
    (the input with the Pauli that `circuit._conjugated_pauli` leaves on
    wire 0 of the encoder circuit applied, right up to a global phase),
    and fidelity_vs_expected, which ignores that phase.
    """

    n_qubits: int
    input_bits: str | None = None
    readback_bits: str | None = None
    readback_probability: float | None = None
    preserved_with_certainty: bool | None = None
    reduced_state: DensityMatrix | None = None
    expected_state: StateVector | None = None
    fidelity_vs_expected: float | None = None


def parse_ancilla(n: int, selector) -> StateVector | str:
    """Normalize an ancilla argument.

    Even n: a two-character bit string ('00'..'11'); anything else is
    rejected because superposed even-width ancillas are not preserved.
    Odd n: a one-qubit StateVector, a single bit '0'/'1', or 'ry:<alpha>'
    meaning the rotation applied to |0>.
    """
    n = _check_width(n)
    if n % 2 == 0:
        if isinstance(selector, StateVector):
            raise ValueError("even-width registers take two classical ancilla bits, not a state")
        if not isinstance(selector, str):
            raise ValueError(f"even-width ancilla must be a bit string, got {selector!r}")
        bits = selector.strip()
        if len(bits) != 2 or any(ch not in "01" for ch in bits):
            raise ValueError(f"even-width ancilla must be two bits, got {selector!r}")
        return bits
    if isinstance(selector, StateVector):
        if selector.n_wires != 1:
            raise ValueError("odd-width ancilla state must be a single qubit")
        return selector
    if not isinstance(selector, str):
        raise ValueError(f"odd-width ancilla must be a string or a StateVector, got {selector!r}")
    s = selector.strip()
    if s in ("0", "1"):
        return basis_state(1, s)
    if s.lower().startswith("ry:"):
        amps = ry_from_text(s, "ancilla").matrix.array @ np.array([1.0, 0.0], dtype=complex)
        return StateVector(amps, 1)
    raise ValueError(f"bad ancilla selector {selector!r} for an odd-width register")


def hybrid_protect(
    n: int, data: StateVector | None, ancilla, errors
) -> tuple[float, AncillaReport]:
    """Encode ancilla+data, apply the listed attacks in order, decode.

    Returns the data fidelity (1 up to rounding for every Pauli attack
    sequence) and an AncillaReport describing the ancilla outcome. Width 2
    is all ancilla; pass data=None there and the fidelity is trivially 1.
    """
    n = _check_width(n)
    dw = data_wires(n)
    if not dw:
        if data is not None and data.n_wires != 0:
            raise ValueError("width 2 has no data wires; pass data=None")
        data = None
    elif data is None or data.n_wires != len(dw):
        got = None if data is None else data.n_wires
        raise ValueError(f"data must cover {len(dw)} wires for width {n}, got {got}")
    anc = parse_ancilla(n, ancilla)
    factor = attack_factor(errors)

    p = _matrix_rec(n)
    anc_state = basis_state(2, anc) if isinstance(anc, str) else anc
    full = anc_state if data is None else tensor(anc_state, data)
    out = StateVector(p.T @ attack(StateVector(p @ full.amplitudes, n), factor).amplitudes, n)

    fid_data = 1.0 if data is None else fidelity(partial_trace(out, list(dw)), data)

    if n % 2 == 0:
        red = partial_trace(out, [0, 1]).matrix
        diag = np.real(np.diag(red))
        idx = int(np.argmax(diag))
        readback = format(idx, "02b")
        prob = float(diag[idx])
        target = np.diag(np.eye(4)[int(anc, 2)])  # |anc><anc|
        exact = float(np.abs(red - target).max()) <= 1e-10
        report = AncillaReport(
            n_qubits=n,
            input_bits=anc,
            readback_bits=readback,
            readback_probability=prob,
            preserved_with_certainty=bool(exact and readback == anc),
        )
    else:
        x, z = _conjugated_pauli(encoder_circuit(n), factor[None])
        pauli = _PAULIS[_PAULI_XZ.index((x[0, 0], z[0, 0]))]
        expected = StateVector(pauli @ anc_state.amplitudes, 1)
        red = partial_trace(out, [0])
        report = AncillaReport(
            n_qubits=n,
            reduced_state=red,
            expected_state=expected,
            fidelity_vs_expected=fidelity(red, expected),
        )
    return fid_data, report
