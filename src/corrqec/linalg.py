"""Dense complex linear algebra for small qubit registers.

Matrices are plain ndarrays: encoders, channel atoms, realized circuits and
states. A gate's matrix is a ComplexMatrix, an immutable value that gives
gates and circuits their equality; numpy takes it directly. Registers top
out at eight qubits (256 x 256), so matrices are stored dense in double
precision and all operations are plain numpy calls.

Bit convention used package-wide: in kron(a, b) the FIRST factor is the
most significant one (top wire of a circuit diagram, wire index 0).
`kron` is the package's one Kronecker product, of two vectors or two
matrices: the same single products as `np.kron`, so the same bytes, by one
broadcast multiply, without np.kron's general-rank bookkeeping.
`tensor_power` and `is_unitary` take one matrix; a stack is rejected.
"""
from __future__ import annotations

import numpy as np


def _integer(v, name: str, least: int | None = None) -> int:
    """An integer argument; a bool or a float is rejected, not truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{name} must be at least {least}, got {v}")
    return int(v)


class ComplexMatrix:
    """A gate's matrix: immutable, dense, complex, compared by value.

    Construct from a 2-D array-like. Entries must all be finite.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D ndarray view of the matrix."""
        return self._a

    def __array__(self, dtype=None, copy=None):  # numpy 1.x passes no `copy`
        return np.array(self._a, dtype=dtype) if copy else np.asarray(self._a, dtype=dtype)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"ComplexMatrix({self._a.shape[0]}x{self._a.shape[1]})"


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron of two 2-D arrays: each entry the one product a[i, k] * b[j, l]."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 1-D or two 2-D arrays, a's index most
    significant. Each entry is the one product a[i] * b[j] (a[i, k] *
    b[j, l]) that `np.kron` forms, in the same dtype, so the bytes agree."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim == b.ndim == 2:
        return _kron2(a, b)
    raise ValueError(f"kron needs two 1-D or two 2-D arrays, got shapes {a.shape} and {b.shape}")


def tensor_power(w, n: int) -> np.ndarray:
    """w tensored with itself n times, the same factor on every wire."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"tensor_power needs a matrix, got shape {w.shape}")
    m = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        m = _kron2(m, w)
    return m


def is_unitary(a, tol) -> bool:
    """Whether the square matrix a is unitary: every entry of a-dagger a
    within tol of the identity's."""
    aa = np.asarray(a)
    if aa.ndim != 2 or aa.shape[0] != aa.shape[1] or not aa.size:
        raise ValueError(f"is_unitary needs a non-empty square matrix, got {aa.shape}")
    dev = np.abs(aa.conj().T @ aa - np.eye(len(aa))).max()
    return bool(dev <= float(tol))


def max_abs_diff(a, b) -> float:
    aa, bb = np.asarray(a), np.asarray(b)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    return float(np.abs(aa - bb).max())


def equal_up_to_global_phase(a, b, tol) -> bool:
    """Compare after aligning b's phase to a at a's largest-magnitude entry."""
    aa, bb = np.asarray(a), np.asarray(b)
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
    a = np.asarray(m, dtype=complex)
    lines = []
    for row in a:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"
