"""Circuits, quantum states, measurement, and shot sampling.

Circuits are time-ordered gate lists: gates[0] acts first, so the
realized matrix is embed(gates[-1]) @ ... @ embed(gates[0]).

Bitstring convention for measurement results: measured wires are sorted
ascending and the smallest wire index becomes the LEFTMOST character of
the outcome key (wire 0 is the most significant bit everywhere in this
package). Sampling is inverse-CDF over the full marginal distribution
with a PCG64 generator, so results are reproducible from the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import PlacedGate, embed, format_placed_gate, inverse
from .linalg import ComplexMatrix

_STATE_NORM_TOL = 1e-10
_DM_HERM_TOL = 1e-10
_DM_TRACE_TOL = 1e-10
_DM_PSD_FLOOR = -1e-9


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
        n = int(np.log2(a.size)) if n_wires is None else int(n_wires)
        if a.size != 2**n:
            raise ValueError(f"amplitude length {a.size} is not 2^{n}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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


_PSD_PROBES = 8


class DensityMatrix:
    """Mixed state on n_wires qubits: Hermitian, unit trace, PSD (sampled)."""

    __slots__ = ("_m", "n_wires")

    def __init__(self, matrix, n_wires: int | None = None):
        m = matrix if isinstance(matrix, ComplexMatrix) else ComplexMatrix(matrix)
        n = int(np.log2(m.dim_rows)) if n_wires is None else int(n_wires)
        d = 2**n
        if m.dim_rows != d or m.dim_cols != d:
            raise ValueError(f"matrix is {m.dim_rows}x{m.dim_cols}, expected {d}x{d}")
        a = m.array
        if np.abs(a - a.conj().T).max() > _DM_HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > _DM_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        rng = np.random.default_rng(20240801)
        for _ in range(_PSD_PROBES):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            q = float(np.real(v.conj() @ a @ v))
            if q < _DM_PSD_FLOOR:
                raise ValueError(f"density matrix fails positivity probe ({q})")
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "n_wires", n)

    @property
    def matrix(self) -> ComplexMatrix:
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
        idx = int(bits, 2) if bits else 0
    else:
        idx = int(bits)
    amps = np.zeros(2**n_wires, dtype=complex)
    amps[idx] = 1.0
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
    return DensityMatrix(np.outer(a, a.conj()), s.n_wires)


def realize(c: Circuit) -> ComplexMatrix:
    """Full unitary of the circuit: later gates multiply from the left."""
    m = np.eye(2**c.n_wires, dtype=complex)
    for pg in c.gates:
        m = embed(pg, c.n_wires).array @ m
    return ComplexMatrix(m)


def dagger_circuit(c: Circuit) -> Circuit:
    """Inverse circuit: reversed order, each gate replaced by its adjoint."""
    return Circuit(c.n_wires, tuple(PlacedGate(inverse(pg.gate), pg.wires) for pg in reversed(c.gates)))


def apply(c: Circuit, s: StateVector | DensityMatrix):
    """Run the circuit: vectors map to Us, densities to U rho U-dagger."""
    if c.n_wires != s.n_wires:
        raise ValueError(f"circuit has {c.n_wires} wires, state has {s.n_wires}")
    if isinstance(s, StateVector):
        amps = s.amplitudes.copy()
        for pg in c.gates:
            amps = embed(pg, c.n_wires).array @ amps
        return StateVector(amps, c.n_wires)
    rho = s.matrix.array.copy()
    for pg in c.gates:
        u = embed(pg, c.n_wires).array
        rho = u @ rho @ u.conj().T
    return DensityMatrix(rho, c.n_wires)


def partial_trace(d: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept wires, ascending wire order preserved."""
    keep = sorted(set(int(w) for w in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(w < 0 or w >= d.n_wires for w in keep):
        raise ValueError(f"keep set {keep} out of range for {d.n_wires} wires")
    n = d.n_wires
    drop = [w for w in range(n) if w not in keep]
    t = d.matrix.array.reshape((2,) * (2 * n))
    for w in sorted(drop, reverse=True):
        t = np.trace(t, axis1=w, axis2=w + t.ndim // 2)
    k = len(keep)
    return DensityMatrix(t.reshape(2**k, 2**k), k)


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
        probs = np.real(np.diag(s.matrix.array)).copy()
        # Summing over unmeasured wires could hide negative mass; clipping
        # below is for rounding only.
        if probs.min() < _DM_PSD_FLOOR:
            raise ValueError(f"density matrix has negative probability {probs.min():.3e}")
    t = probs.reshape((2,) * n)
    for w in sorted((w for w in range(n) if w not in wires), reverse=True):
        t = t.sum(axis=w)
    out = np.maximum(t.reshape(-1), 0.0)
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
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    idx = np.minimum(idx, len(probs) - 1)
    return np.bincount(idx, minlength=len(probs))


def fidelity(a: DensityMatrix | StateVector, b: StateVector) -> float:
    """<b|a|b> for a density matrix a; |<a|b>|^2 for a state vector a."""
    if a.n_wires != b.n_wires:
        raise ValueError(f"wire mismatch: {a.n_wires} vs {b.n_wires}")
    if isinstance(a, StateVector):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    v = b.amplitudes
    return float(np.real(v.conj() @ a.matrix.array @ v))


def circuit_to_text(c: Circuit) -> str:
    """One placed gate per line in time order."""
    return "\n".join(format_placed_gate(pg) for pg in c.gates) + ("\n" if c.gates else "")
