"""Dense complex linear algebra for small qubit registers.

Everything in this package runs through ComplexMatrix: gate matrices,
encoders, channel atoms, realized circuits. Registers top out at eight
qubits (256 x 256), so matrices are stored dense in double precision and
all operations are plain numpy calls wrapped with dimension checks.

Bit convention used package-wide: in kron(a, b) the FIRST factor is the
most significant one (top wire of a circuit diagram, wire index 0).
"""
from __future__ import annotations

import numpy as np


class ComplexMatrix:
    """Immutable dense complex matrix.

    Construct from a 2-D array-like. Entries must all be finite.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D ndarray view of the matrix."""
        return self._a

    @property
    def dim_rows(self) -> int:
        return self._a.shape[0]

    @property
    def dim_cols(self) -> int:
        return self._a.shape[1]

    def __getitem__(self, key):
        return self._a[key]

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"ComplexMatrix({self.dim_rows}x{self.dim_cols})"


def _as_array(m) -> np.ndarray:
    if isinstance(m, ComplexMatrix):
        return m.array
    return ComplexMatrix(m).array


def tensor_power(w, n: int) -> np.ndarray:
    """w tensored with itself n times, the same factor on every wire."""
    m = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        m = np.kron(m, w)
    return m


def is_unitary(a, tol) -> bool:
    aa = _as_array(a)
    if aa.shape[0] != aa.shape[1]:
        raise ValueError(f"is_unitary needs a square matrix, got {aa.shape}")
    dev = np.abs(aa.conj().T @ aa - np.eye(aa.shape[0])).max()
    return bool(dev <= float(tol))


def max_abs_diff(a, b) -> float:
    aa, bb = _as_array(a), _as_array(b)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    return float(np.abs(aa - bb).max())


def equal_up_to_global_phase(a, b, tol) -> bool:
    """Compare after aligning b's phase to a at a's largest-magnitude entry."""
    aa, bb = _as_array(a), _as_array(b)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    eps = float(tol)
    flat = np.argmax(np.abs(aa))
    pivot = aa.reshape(-1)[flat]
    if abs(pivot) == 0.0:
        return bool(np.abs(bb).max() <= eps)
    z = bb.reshape(-1)[flat] / pivot
    if abs(z) == 0.0:
        return False
    phase = z / abs(z)
    return bool(np.abs(phase * aa - bb).max() <= eps)


def matrix_to_text(m) -> str:
    """One row per line; entries as `re+imj`, whitespace separated, decimals only."""
    a = _as_array(m)
    lines = []
    for row in a:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"
