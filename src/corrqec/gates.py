"""Gate constructors, and `embed`: the dense test reference for `circuit.contract`.

A Gate is a named unitary on `arity` wires. A PlacedGate pins a gate to
specific register wires; wires[0] receives the gate's most significant
bit (the register's wire 0 is the top wire / most significant bit, so
kron order and wire order agree everywhere).

Controlled gates put the control on the new most-significant wire and
fire when it holds `control_value`; open controls are therefore
controlled(g, 0) rather than an X-conjugated closed control, which keeps
circuit dumps faithful to the diagrams they came from.

Constructors never normalize global phases away; only the comparison
helpers in linalg may quotient by phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ComplexMatrix, _integer, is_unitary

_UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class Gate:
    name: str
    matrix: ComplexMatrix
    arity: int

    def __post_init__(self):
        _integer(self.arity, "gate arity", 1)
        d = 2**self.arity
        rows, cols = self.matrix.array.shape
        if (rows, cols) != (d, d):
            raise ValueError(
                f"gate {self.name!r}: matrix is {rows}x{cols}, expected {d}x{d} for arity {self.arity}"
            )
        if not is_unitary(self.matrix.array, _UNITARY_TOL):
            raise ValueError(f"gate {self.name!r}: matrix is not unitary within {_UNITARY_TOL}")
        # the dataclass hash, once: it hashes the matrix bytes
        object.__setattr__(self, "_hash", hash((self.name, self.matrix, self.arity)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class PlacedGate:
    gate: Gate
    wires: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(_integer(w, "wire index") for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != self.gate.arity:
            raise ValueError(
                f"gate {self.gate.name!r} needs {self.gate.arity} wires, got {len(wires)}"
            )
        if len(set(wires)) != len(wires):
            raise ValueError(f"wires must be distinct, got {wires}")
        if any(w < 0 for w in wires):
            raise ValueError(f"wire indices must be non-negative, got {wires}")
        object.__setattr__(self, "_hash", hash((self.gate, wires)))

    def __hash__(self):
        return self._hash


def _gate(name: str, rows) -> Gate:
    m = ComplexMatrix(rows)
    arity = int(np.log2(m.array.shape[0]))
    return Gate(name, m, arity)


I = _gate("I", [[1, 0], [0, 1]])
X = _gate("X", [[0, 1], [1, 0]])
Y = _gate("Y", [[0, -1j], [1j, 0]])
Z = _gate("Z", [[1, 0], [0, -1]])
H = _gate("H", np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def ry(alpha: float) -> Gate:
    """Real rotation [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]."""
    a = float(alpha)
    if not np.isfinite(a):
        raise ValueError("rotation angle must be finite")
    c, s = np.cos(a / 2), np.sin(a / 2)
    return _gate(f"RY({a!r})", [[c, -s], [s, c]])


@lru_cache(maxsize=64)  # a run parses its selector once; a sweep repeats a few
def ry_from_text(selector: str, what: str) -> Gate:
    """ry(alpha) for a selector 'ry:<alpha>'; a ValueError naming `what`,
    the selector and the angle if alpha is not a finite number. Cached:
    a Gate is immutable, and an error is raised again, not cached."""
    angle = selector.strip()[3:]
    try:
        alpha = float(angle)
    except ValueError:
        raise ValueError(f"{what} {selector!r}: angle {angle!r} is not a number") from None
    if not np.isfinite(alpha):
        raise ValueError(f"{what} {selector!r}: angle {angle!r} is not finite")
    return ry(alpha)


def ry_x(alpha: float) -> Gate:
    """Flip then rotate: matrix ry(alpha) @ X, drawn as one box in circuits."""
    return _gate(f"RYX({float(alpha)!r})", ry(alpha).matrix.array @ X.matrix.array)


def x_ry(alpha: float) -> Gate:
    """Rotate then flip: matrix X @ ry(alpha)."""
    return _gate(f"XRY({float(alpha)!r})", X.matrix.array @ ry(alpha).matrix.array)


def controlled(gate: Gate, control_value: int) -> Gate:
    """Add a control on a new most-significant wire.

    The result acts as `gate` on the remaining wires when the control
    holds control_value and as identity otherwise.
    """
    if control_value not in (0, 1):
        raise ValueError(f"control_value must be 0 or 1, got {control_value!r}")
    d = 2**gate.arity
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    g = gate.matrix.array
    if control_value == 1:
        m[:d, :d] = np.eye(d)
        m[d:, d:] = g
    else:
        m[:d, :d] = g
        m[d:, d:] = np.eye(d)
    return Gate(f"C{control_value}[{gate.name}]", ComplexMatrix(m), gate.arity + 1)


CNOT = controlled(X, 1)


def inverse(gate: Gate) -> Gate:
    """Adjoint gate; used to build decoding circuits."""
    m = gate.matrix.array.conj().T
    name = gate.name[4:-1] if gate.name.startswith("INV[") else f"INV[{gate.name}]"
    return Gate(name, ComplexMatrix(m), gate.arity)


def _wire_permutation(wires: tuple[int, ...], n: int) -> np.ndarray:
    """Index array: entry i is basis index i with the listed wires moved to
    the front, in order, and the other wires after them in ascending order."""
    order = list(wires) + [w for w in range(n) if w not in wires]
    i = np.arange(2**n)
    perm = np.zeros(2**n, dtype=np.int64)
    for t, w in enumerate(order):
        perm |= ((i >> (n - 1 - w)) & 1) << (n - 1 - t)
    return perm


def embed(pg: PlacedGate, n: int) -> np.ndarray:
    """Unitary on 2^n acting as pg.gate on its wires and identity elsewhere."""
    if any(w >= n for w in pg.wires):
        raise ValueError(f"wires {pg.wires} out of range for a {n}-wire register")
    rest = n - pg.gate.arity
    perm = _wire_permutation(pg.wires, n)
    big = np.kron(pg.gate.matrix.array, np.eye(2**rest))
    return big[np.ix_(perm, perm)]


def format_placed_gate(pg: PlacedGate) -> str:
    """Circuit text line: `NAME(params) @ w0,w1,...`."""
    return f"{pg.gate.name} @ {','.join(str(w) for w in pg.wires)}"
