"""Circuits, quantum states, gate noise, measurement, and shot sampling.

Circuits are time-ordered gate lists (gates[0] acts first). Every gate goes
through one kernel, `contract`: states are tensors with a length-2 axis per
wire (rows, then columns), and a gate touches only its axes (arXiv:1802.08032).
States are checked where they enter the package; the images of checked states
under a unitary or CPTP map are trusted and built without checks.

`apply` is the one density-matrix pass. After every gate, each touched wire
gets a single-wire depolarizing kick: p1 for a one-wire gate, p2 split evenly
over the wires of a wider gate (p2/2 on each wire of a two-wire gate, not a
15-Pauli two-wire channel). So a k-wire gate g and its kicks are one 4^k x 4^k
superoperator D_k(p) (g tensor conj(g)) on the gate's row and column axes.
`attack` applies one 2x2 unitary W exactly to every wire (it models the channel
being corrected, not hardware error), as W tensor conj(W) on each (row, column)
axis pair of a density matrix.

Bitstring convention for measurement results: measured wires are sorted
ascending and the smallest wire index becomes the LEFTMOST character of
the outcome key (wire 0 is the most significant bit everywhere in this
package). Sampling is inverse-CDF over the full marginal distribution
with a PCG64 generator, so results are reproducible from the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gates import PlacedGate, format_placed_gate, inverse
from .linalg import is_unitary

_STATE_NORM_TOL = 1e-10
_DM_HERM_TOL = 1e-10
_DM_TRACE_TOL = 1e-10
_DM_PSD_FLOOR = -1e-9
_SAMPLE_CHUNK = 1 << 20  # draws per batch, so memory does not grow with shots


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    gates: tuple[PlacedGate, ...] = ()

    def __post_init__(self):
        if self.n_wires < 1:
            raise ValueError("circuit needs at least one wire")
        object.__setattr__(self, "gates", tuple(self.gates))
        for pg in self.gates:
            if any(w >= self.n_wires for w in pg.wires):
                raise ValueError(
                    f"gate {pg.gate.name!r} on wires {pg.wires} exceeds {self.n_wires} wires"
                )


class StateVector:
    """Normalized pure state on n_wires qubits."""

    __slots__ = ("_amps", "n_wires")

    def __init__(self, amplitudes, n_wires: int | None = None):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise ValueError("a state needs at least one amplitude")
        n = int(np.log2(a.size)) if n_wires is None else int(n_wires)
        if a.size != 2**n:
            raise ValueError(f"amplitude length {a.size} is not 2^{n}")
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {_STATE_NORM_TOL}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "_amps", a)
        object.__setattr__(self, "n_wires", n)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector({self.n_wires} wires)"


class DensityMatrix:
    """Mixed state on n_wires qubits: Hermitian, unit trace and PSD, with
    positivity checked exactly (a Cholesky factor of rho + 1e-9 I exists).
    The constructor copies its input; `matrix` is read-only. `_trusted`
    builds states derived from checked ones, without checks."""

    __slots__ = ("_m", "n_wires")

    def __init__(self, matrix, n_wires: int | None = None):
        a = np.array(matrix, dtype=complex)
        if a.ndim != 2 or a.size == 0 or a.shape[0] != a.shape[1]:
            raise ValueError(f"density matrix must be square and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("density matrix entries must be finite (no NaN/Inf)")
        n = int(np.log2(a.shape[0])) if n_wires is None else int(n_wires)
        d = 2**n
        if a.shape != (d, d):
            raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, expected {d}x{d}")
        if np.abs(a - a.conj().T).max() > _DM_HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > _DM_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        try:
            np.linalg.cholesky(a - _DM_PSD_FLOOR * np.eye(d))
        except np.linalg.LinAlgError:
            raise ValueError(f"density matrix has an eigenvalue below {_DM_PSD_FLOOR}") from None
        a.setflags(write=False)
        object.__setattr__(self, "_m", a)
        object.__setattr__(self, "n_wires", n)

    @classmethod
    def _trusted(cls, a: np.ndarray, n: int) -> DensityMatrix:
        a.setflags(write=False)
        d = object.__new__(cls)
        object.__setattr__(d, "_m", a)
        object.__setattr__(d, "n_wires", n)
        return d

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix({self.n_wires} wires)"


@dataclass(frozen=True)
class Histogram:
    n_measured: int
    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0

    def __post_init__(self):
        total = 0
        for key, c in self.counts.items():
            if len(key) != self.n_measured or any(ch not in "01" for ch in key):
                raise ValueError(f"bad bitstring key {key!r} for {self.n_measured} wires")
            if c < 0:
                raise ValueError(f"negative count for {key!r}")
            total += c
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")


def basis_state(n_wires: int, bits: str | int) -> StateVector:
    """Computational basis state; bits given as a string ('010') or an index."""
    if isinstance(bits, str):
        if len(bits) != n_wires or any(ch not in "01" for ch in bits):
            raise ValueError(f"bad bit string {bits!r} for {n_wires} wires")
        bits = int(bits, 2) if bits else 0
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)) or not 0 <= bits < 2**n_wires:
        raise ValueError(f"basis index {bits!r} is not an integer in [0, {2**n_wires})")
    amps = np.zeros(2**n_wires, dtype=complex)
    amps[bits] = 1.0
    return StateVector(amps, n_wires)


def tensor(*states: StateVector) -> StateVector:
    """Tensor product; the first argument becomes the most significant wires."""
    if not states:
        raise ValueError("tensor needs at least one state")
    amps = states[0].amplitudes
    n = states[0].n_wires
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        n += s.n_wires
    return StateVector(amps, n)


def to_density(s: StateVector) -> DensityMatrix:
    a = s.amplitudes
    return DensityMatrix._trusted(np.outer(a, a.conj()), s.n_wires)


def contract(t: np.ndarray, g: np.ndarray, axes) -> np.ndarray:
    """Gate g on the given axes of a (2,...,2) tensor; axes[0] gets its top bit."""
    k = len(axes)
    g = g.reshape((2,) * (2 * k))
    return np.moveaxis(np.tensordot(g, t, axes=(tuple(range(k, 2 * k)), axes)), range(k), axes)


def realize(c: Circuit) -> np.ndarray:
    """Full unitary of the circuit: later gates multiply from the left."""
    n = c.n_wires
    t = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    for pg in c.gates:
        t = contract(t, pg.gate.matrix.array, pg.wires)
    return t.reshape(2**n, 2**n)


def dagger_circuit(c: Circuit) -> Circuit:
    """Inverse circuit: reversed order, each gate replaced by its adjoint."""
    return Circuit(c.n_wires, tuple(PlacedGate(inverse(pg.gate), pg.wires) for pg in reversed(c.gates)))


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing gate noise for `apply`; p_readout flips measured bits."""

    p1: float = 0.0
    p2: float = 0.0
    p_readout: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_readout"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


@lru_cache(maxsize=64)  # a run needs 1-3 entries; a sweep must not pile them up
def _kicks(k: int, p: float) -> np.ndarray:
    """D_k(p), a depolarizing kick of strength p on each of k wires: a
    read-only 4^k x 4^k superoperator in (row axes, column axes) order.
    One wire's kick (1-p) rho + p (I/2 tensor Tr_wire rho) is, on its
    (row, column) axis pair, (1-p) I_4 + (p/2) v v^T with v = (1, 0, 0, 1)."""
    v = np.array([1.0, 0.0, 0.0, 1.0])
    one = (1.0 - p) * np.eye(4) + (0.5 * p) * np.outer(v, v)
    d = np.eye(4**k).reshape((2,) * (4 * k))
    for i in range(k):
        d = contract(d, one, (i, k + i))
    d = d.reshape(4**k, 4**k)
    d.setflags(write=False)
    return d


def apply(c: Circuit, s: StateVector | DensityMatrix, noise: NoiseModel | None = None):
    """Run the circuit: vectors map to Us, densities to U rho U-dagger with
    each gate followed by its kicks. A vector takes no gate noise."""
    n = c.n_wires
    if n != s.n_wires:
        raise ValueError(f"circuit has {n} wires, state has {s.n_wires}")
    nm = noise or NoiseModel()
    if isinstance(s, StateVector):
        if nm.p1 or nm.p2:
            raise ValueError("gate noise mixes the state; apply it to a DensityMatrix")
        t = s.amplitudes.reshape((2,) * n)
        for pg in c.gates:
            t = contract(t, pg.gate.matrix.array, pg.wires)
        return StateVector(t.reshape(-1), n)
    t = s.matrix.reshape((2,) * (2 * n))
    for pg in c.gates:
        g, k = pg.gate.matrix.array, pg.gate.arity
        superop = _kicks(k, nm.p1 if k == 1 else nm.p2 / k) @ np.kron(g, g.conj())
        t = contract(t, superop, pg.wires + tuple(n + w for w in pg.wires))
    return DensityMatrix._trusted(t.reshape(2**n, 2**n), n)


def attack(s: StateVector | DensityMatrix, w):
    """The 2x2 unitary w on every wire at once, one contraction per wire."""
    w = np.asarray(w, dtype=complex)
    if w.shape != (2, 2) or not is_unitary(w, 1e-12):  # a Gate's tolerance
        raise ValueError("attack factor must be a 2x2 unitary within 1e-12")
    n = s.n_wires
    if isinstance(s, StateVector):
        t = s.amplitudes.reshape((2,) * n)
        for wire in range(n):
            t = contract(t, w, (wire,))
        return StateVector(t.reshape(-1), n)
    superop = np.kron(w, w.conj())
    t = s.matrix.reshape((2,) * (2 * n))
    for wire in range(n):
        t = contract(t, superop, (wire, n + wire))
    return DensityMatrix._trusted(t.reshape(2**n, 2**n), n)


def partial_trace(d: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept wires, ascending wire order preserved."""
    keep = sorted(set(int(w) for w in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(w < 0 or w >= d.n_wires for w in keep):
        raise ValueError(f"keep set {keep} out of range for {d.n_wires} wires")
    n = d.n_wires
    drop = [w for w in range(n) if w not in keep]
    t = d.matrix.reshape((2,) * (2 * n))
    for w in sorted(drop, reverse=True):
        t = np.trace(t, axis1=w, axis2=w + t.ndim // 2)
    k = len(keep)
    return DensityMatrix._trusted(t.reshape(2**k, 2**k), k)


def born_distribution(s: StateVector | DensityMatrix, wires) -> np.ndarray:
    """Marginal outcome probabilities on the given wires (sorted ascending).

    Outcome index bit order follows the histogram key convention: the
    smallest measured wire is the most significant bit of the index.
    """
    wires = sorted(set(int(w) for w in wires))
    if not wires:
        raise ValueError("measure at least one wire")
    if any(w < 0 or w >= s.n_wires for w in wires):
        raise ValueError(f"wires {wires} out of range for {s.n_wires}-wire state")
    n = s.n_wires
    if isinstance(s, StateVector):
        probs = np.abs(s.amplitudes) ** 2
    else:
        probs = np.real(np.diag(s.matrix))
    t = probs.reshape((2,) * n)
    for w in sorted((w for w in range(n) if w not in wires), reverse=True):
        t = t.sum(axis=w)
    out = np.maximum(t.reshape(-1), 0.0)  # rounding only: states are PSD
    total = out.sum()
    if total <= 0:
        raise ValueError("degenerate distribution")
    return out / total


def sample_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Inverse-CDF i.i.d. sampling; deterministic for a given seed.

    `seed` may be an integer or a ready-made numpy Generator.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.PCG64(int(seed)))
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    counts = np.zeros(len(probs), dtype=np.int64)
    for done in range(0, shots, _SAMPLE_CHUNK):
        idx = np.searchsorted(cdf, rng.random(min(_SAMPLE_CHUNK, shots - done)), side="right")
        counts += np.bincount(np.minimum(idx, len(probs) - 1), minlength=len(probs))
    return counts


def fidelity(a: DensityMatrix | StateVector, b: StateVector) -> float:
    """<b|a|b> for a density matrix a; |<a|b>|^2 for a state vector a."""
    if a.n_wires != b.n_wires:
        raise ValueError(f"wire mismatch: {a.n_wires} vs {b.n_wires}")
    if isinstance(a, StateVector):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    v = b.amplitudes
    return float(np.real(v.conj() @ a.matrix @ v))


def circuit_to_text(c: Circuit) -> str:
    """One placed gate per line in time order."""
    return "\n".join(format_placed_gate(pg) for pg in c.gates) + ("\n" if c.gates else "")
