"""Circuits, quantum states, gate noise, measurement, and shot sampling.

Circuits are time-ordered gate lists (gates[0] acts first). Every gate goes
through one kernel, `contract`: states are tensors with a length-2 axis per
wire (rows, then columns), and a gate touches only its axes (arXiv:1802.08032).
`contract` is the transpose, reshape and one `np.dot` that `np.tensordot`
performs, then the transpose back that `np.moveaxis` would make, with both
axis orders cached per (rank, axes): the same arrays reach the same `dot`,
so the bytes are tensordot's, without its per-call bookkeeping.
A gate, a placed gate and a circuit each hash once, when built, so the
caches keyed by them (`_sources`, `_effects`, `_fault_base`) cost one
lookup; what is read only to build their entries is not cached.
States are checked where they enter the package; the images of checked states
under a unitary or CPTP map are trusted and built without checks.

`apply` is the one density-matrix pass. After every gate, each touched wire
gets a single-wire depolarizing kick: p1 for a one-wire gate, p2 split evenly
over the wires of a wider gate (p2/2 on each wire of a two-wire gate, not a
15-Pauli two-wire channel; `_kick_strength` states the rule once). So the
pass is a program of steps (`_program`), gate by gate: a k-wire gate g as the
4^k x 4^k superoperator g tensor conj(g) on its row and column axes, then
one 4x4 kick (`_kick`) on each of its wires' (row, column) axis pair.
`attack` applies one 2x2 unitary W exactly to every wire (it models the channel
being corrected, not hardware error), as W tensor conj(W) on each (row, column)
axis pair of a density matrix.
A run, encode, attack, decode and read the measured wires, has two engines
with one argument list (circuit, 2x2 attack factor w, measured wires,
noise) and no state: the measured wires start in |0...0>. Each compiles
everything but the attack once per (circuit, measured wires, p1, p2).
`effect_distribution`, which the correlated schemes take, runs from |0...0>
on every wire: it caches the encoded state and the decoder's effects
(`_effects`, built with `apply`) and per run forms W rho W-dagger for W = w
on every wire and pairs it with the effects, so no run path passes a
density matrix through a circuit. `pauli_fault_distribution` needs no
density matrix at all when the circuit is Clifford and the attack a Pauli,
as in the hybrid scheme, and lets the other wires start in any state: every
kick is then a Pauli fault, pushed to the output on GF(2) bits
(`_faults`), its distribution without the attack is cached
(`_fault_base`), and a run only shifts it by the attack's flips. A run
reads the attack's (x, z) bits from a cache keyed on the factor's bytes
(`_attack_bits`), since a hybrid factor is one of 16 phase x Pauli
values. The dense pass `apply`, `attack`, `born_distribution` is the
tests' reference for both. `_conjugated_pauli` carries several all-wire
Paulis, given as their (x, z) bit pairs, back through a Clifford circuit
in one walk by the same step as `_faults` (`_carry_back`), which is how
`verify` proves the hybrid factorization. Both hold their Paulis packed:
one Python int per x or z bit row of a wire, one bit per Pauli, so a gate
costs a few XORs of ints.

Bitstring convention for measurement results: measured wires are sorted
ascending and the smallest wire index becomes the LEFTMOST character of
the outcome key (wire 0 is the most significant bit everywhere in this
package). Sampling is inverse-CDF over the full marginal distribution
with a PCG64 generator, so results are reproducible from the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .gates import Gate, I, PlacedGate, X, Y, Z, format_placed_gate, inverse
from .linalg import _integer, is_unitary, kron, tensor_power

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
        object.__setattr__(self, "n_wires", _integer(self.n_wires, "n_wires", 1))
        object.__setattr__(self, "gates", tuple(self.gates))
        for pg in self.gates:
            if any(w >= self.n_wires for w in pg.wires):
                raise ValueError(
                    f"gate {pg.gate.name!r} on wires {pg.wires} exceeds {self.n_wires} wires"
                )
        # the dataclass hash, once: it hashes every gate's matrix bytes
        object.__setattr__(self, "_hash", hash((self.n_wires, self.gates)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on n_wires qubits; `amplitudes` is read-only.
    `_trusted` builds states derived from checked ones without checks: a
    basis state, a tensor product, and the image under a circuit or an
    attack."""

    amplitudes: np.ndarray
    n_wires: int | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise ValueError("a state needs at least one amplitude")
        n = int(np.log2(a.size)) if self.n_wires is None else _integer(self.n_wires, "n_wires", 0)
        if a.size != 2**n:
            raise ValueError(f"amplitude length {a.size} is not 2^{n}")
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {_STATE_NORM_TOL}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "n_wires", n)

    @classmethod
    def _trusted(cls, a: np.ndarray, n: int) -> StateVector:
        a.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "amplitudes", a)
        object.__setattr__(s, "n_wires", n)
        return s


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state on n_wires qubits: Hermitian, unit trace and PSD, with
    positivity checked exactly (a Cholesky factor of rho + 1e-9 I exists).
    The constructor copies its input; `matrix` is read-only. `_trusted`
    builds states derived from checked ones, without checks."""

    matrix: np.ndarray
    n_wires: int | None = None

    def __post_init__(self):
        a = np.array(self.matrix, dtype=complex)
        if a.ndim != 2 or a.size == 0 or a.shape[0] != a.shape[1]:
            raise ValueError(f"density matrix must be square and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("density matrix entries must be finite (no NaN/Inf)")
        n = int(np.log2(a.shape[0])) if self.n_wires is None else _integer(self.n_wires, "n_wires", 0)
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
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "n_wires", n)

    @classmethod
    def _trusted(cls, a: np.ndarray, n: int) -> DensityMatrix:
        a.setflags(write=False)
        d = object.__new__(cls)
        object.__setattr__(d, "matrix", a)
        object.__setattr__(d, "n_wires", n)
        return d


@dataclass(frozen=True)
class Histogram:
    n_measured: int
    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0

    def __post_init__(self):
        n = _integer(self.n_measured, "n_measured", 0)
        _integer(self.shots, "shots", 0)
        total = 0
        for key, c in self.counts.items():
            if not isinstance(key, str) or len(key) != n or key.strip("01"):
                raise ValueError(f"bad bitstring key {key!r} in counts for {n} wires")
            # one type test passes a Python int, the common case
            if type(c) is not int and (isinstance(c, bool) or not isinstance(c, np.integer)):
                raise ValueError(f"counts[{key!r}] must be an integer, got {c!r}")
            if c < 0:
                raise ValueError(f"negative count for {key!r}")
            total += c
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")


def basis_state(n_wires: int, bits: str | int) -> StateVector:
    """Computational basis state; bits given as a string ('010') or an index."""
    n_wires = _integer(n_wires, "n_wires", 0)
    if isinstance(bits, str):
        if len(bits) != n_wires or any(ch not in "01" for ch in bits):
            raise ValueError(f"bad bit string {bits!r} for {n_wires} wires")
        bits = int(bits, 2) if bits else 0
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)) or not 0 <= bits < 2**n_wires:
        raise ValueError(f"basis index {bits!r} is not an integer in [0, {2**n_wires})")
    amps = np.zeros(2**n_wires, dtype=complex)
    amps[bits] = 1.0
    return StateVector._trusted(amps, n_wires)


def tensor(*states: StateVector) -> StateVector:
    """Tensor product; the first argument becomes the most significant wires."""
    if not states:
        raise ValueError("tensor needs at least one state")
    amps = states[0].amplitudes
    n = states[0].n_wires
    for s in states[1:]:
        amps = kron(amps, s.amplitudes)
        n += s.n_wires
    return StateVector._trusted(amps, n)


def to_density(s: StateVector) -> DensityMatrix:
    a = s.amplitudes
    return DensityMatrix._trusted(np.outer(a, a.conj()), s.n_wires)


@lru_cache(maxsize=1024)  # a few hundred (rank, axes) pairs in a sweep
def _axis_orders(ndim: int, axes: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The transposes around a contraction of the given axes of an
    ndim-axis tensor: tensordot's, which puts those axes first and the rest
    after in order, and moveaxis's, which sends the first len(axes) axes of
    the result back to `axes`."""
    axes = tuple(a + ndim if a < 0 else a for a in axes)
    if len(set(axes)) != len(axes) or not all(0 <= a < ndim for a in axes):
        raise ValueError(f"axes {axes} are not distinct axes of a {ndim}-axis tensor")
    front = list(axes) + [a for a in range(ndim) if a not in axes]
    back = list(range(len(axes), ndim))
    for dest, src in sorted(zip(axes, range(len(axes)))):
        back.insert(dest, src)
    return front, back


def contract(t: np.ndarray, g: np.ndarray, axes) -> np.ndarray:
    """Gate g on the given length-2 axes of a tensor; axes[0] gets its top bit.

    Bit for bit `np.moveaxis(np.tensordot(g.reshape((2,) * 2k), t,
    (range(k, 2k), axes)), range(k), axes)`: tensordot transposes t to
    put `axes` first, reshapes both operands to matrices and calls
    `np.dot`; this makes the same views, calls the same `dot` on them and
    returns the same transposed view of its product, with the axis orders
    taken from a cache instead of rebuilt."""
    front, back = _axis_orders(t.ndim, tuple(axes))
    d = 1 << len(axes)
    return np.dot(g.reshape(d, d), t.transpose(front).reshape(d, -1)).reshape(t.shape).transpose(back)


def realize(c: Circuit) -> np.ndarray:
    """Full unitary of the circuit: later gates multiply from the left.
    Each gate is contracted, as in `apply`, into the identity's 2^n
    columns held as a (2,)*n + (2^n,) tensor."""
    n, d = c.n_wires, 2**c.n_wires
    t = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for pg in c.gates:
        t = contract(t, pg.gate.matrix.array, pg.wires)
    return t.reshape(d, d)


def dagger_circuit(c: Circuit) -> Circuit:
    """Inverse circuit: reversed order, each gate replaced by its adjoint."""
    return Circuit(c.n_wires, tuple(PlacedGate(inverse(pg.gate), pg.wires) for pg in reversed(c.gates)))


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing gate noise for `apply`; p_readout flips measured bits.
    Each is a real number in [0, 1], not a bool or a string, held as a float."""

    p1: float = 0.0
    p2: float = 0.0
    p_readout: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_readout"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            v = float(v) + 0.0  # -0.0 becomes 0.0, so a report never reads "-0.0"
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


def _kick(p: float) -> np.ndarray:
    """A depolarizing kick of strength p on one wire, (1-p) rho +
    p (I/2 tensor Tr_wire rho), as the 4x4 superoperator on the wire's
    (row, column) axis pair: (1-p) I_4 + (p/2) v v^T with v = (1, 0, 0, 1)."""
    v = np.array([1.0, 0.0, 0.0, 1.0])
    return (1.0 - p) * np.eye(4) + (0.5 * p) * np.outer(v, v)


def _kick_strength(k: int, p1: float, p2: float) -> float:
    """Strength of the kick on each wire of a k-wire gate: p1 after a
    one-wire gate, p2 split evenly over the wires of a wider one."""
    return p1 if k == 1 else p2 / k


def _program(c: Circuit, p1: float, p2: float) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The density-matrix pass of c under gate noise (p1, p2), as
    (superoperator, rho axes) steps in time order: for each gate g on
    wires ws, g tensor conj(g) on ws's row axes, then their column axes,
    then the kick (`_kick`, of strength `_kick_strength`) on each wire
    w of ws, on the axes (w, n + w)."""
    n, steps = c.n_wires, []
    for pg in c.gates:
        g, k = pg.gate.matrix.array, pg.gate.arity
        steps.append((kron(g, g.conj()), pg.wires + tuple(n + w for w in pg.wires)))
        kick = _kick(_kick_strength(k, p1, p2))
        steps += [(kick, (w, n + w)) for w in pg.wires]
    return steps


def apply(c: Circuit, s: StateVector | DensityMatrix, noise: NoiseModel | None = None):
    """Run the circuit: vectors map to Us, densities to U rho U-dagger with
    each gate followed by its kicks. A vector takes no gate noise; a density
    runs the circuit's `_program` for the noise's (p1, p2), step by step."""
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
        return StateVector._trusted(t.reshape(-1), n)
    t = s.matrix.reshape((2,) * (2 * n))
    for superop, axes in _program(c, nm.p1, nm.p2):
        t = contract(t, superop, axes)
    return DensityMatrix._trusted(t.reshape(2**n, 2**n), n)


def _attack_factor(w) -> np.ndarray:
    """w as a complex array; ValueError unless it is a 2x2 unitary within
    1e-12, a Gate's tolerance."""
    w = np.asarray(w, dtype=complex)
    if w.shape != (2, 2) or not is_unitary(w, 1e-12):
        raise ValueError("attack factor must be a 2x2 unitary within 1e-12")
    return w


def attack(s: StateVector | DensityMatrix, w):
    """The 2x2 unitary w on every wire at once, one contraction per wire."""
    w = _attack_factor(w)
    n = s.n_wires
    if isinstance(s, StateVector):
        t = s.amplitudes.reshape((2,) * n)
        for wire in range(n):
            t = contract(t, w, (wire,))
        return StateVector._trusted(t.reshape(-1), n)
    superop = kron(w, w.conj())
    t = s.matrix.reshape((2,) * (2 * n))
    for wire in range(n):
        t = contract(t, superop, (wire, n + wire))
    return DensityMatrix._trusted(t.reshape(2**n, 2**n), n)


def _wire_subset(wires, n: int, label: str) -> tuple[int, ...]:
    """The wires, sorted, each once; ValueError, naming each by label (such
    as "measured wire"), unless they are integers and a nonempty subset of
    the n wires 0..n-1."""
    wires = tuple(sorted(set(_integer(w, label) for w in wires)))
    if not wires:
        raise ValueError(f"{label}s must be a nonempty set")
    if wires[0] < 0 or wires[-1] >= n:
        raise ValueError(f"{label}s {list(wires)} out of range for {n} wires")
    return wires


def _check_distribution(probs: np.ndarray, what: str) -> None:
    """ValueError unless probs is finite, nowhere below -1e-12 and sums to
    1 within 1e-10: rounding may leave it slightly off, nothing more."""
    if not np.isfinite(probs).all() or probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"{what} is not a probability distribution")


@lru_cache(maxsize=64)  # a run needs 1 entry per (circuit, measured wires, p1, p2)
def _effects(c: Circuit, measured: tuple[int, ...], p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of a run of encode c from |0...0>, attack, decode
    `dagger_circuit(c)` under gate noise (p1, p2), read on the m sorted
    measured wires, that do not depend on the attack, both read-only:

    - rho_enc, the encoded state `apply(c, |0...0><0...0|)`, a 2^n x 2^n
      matrix checked once as a `DensityMatrix`;
    - the decoder's effects, a (2^m, 4^n) matrix whose row j, read as the
      2^n x 2^n matrix G_j, gives outcome j of the decoder's input sigma
      with probability sum_{r,c} G_j[r, c] sigma[r, c].

    A step of the program with superoperator S maps vec(rho) to
    S vec(rho), so it maps an effect vec(E) back to S^T vec(E). The m
    outcome projectors are carried back as one (2,)*(m+2n) tensor, step
    by step, last step first. The decoder preserves the trace, so the
    G_j sum to the identity; ValueError if not within 1e-12."""
    n, m = c.n_wires, len(measured)
    rho = apply(c, to_density(basis_state(n, 0)), NoiseModel(p1, p2))
    rho = DensityMatrix(rho.matrix, n).matrix  # the one check of the state
    basis = np.arange(2**n)
    outcome = sum(((basis >> (n - 1 - q)) & 1) << (m - 1 - k) for k, q in enumerate(measured))
    g = np.zeros((2**m, 2**n, 2**n), dtype=complex)
    g[outcome, basis, basis] = 1.0  # the projector of outcome j on the diagonal
    g = g.reshape((2,) * (m + 2 * n))
    for superop, axes in reversed(_program(dagger_circuit(c), p1, p2)):
        g = contract(g, superop.T, tuple(m + a for a in axes))
    g = g.reshape(2**m, 4**n)
    if np.abs(g.sum(axis=0) - np.eye(2**n).reshape(-1)).max() > 1e-12:
        raise ValueError("the decoder's effects do not sum to the identity within 1e-12")
    g.setflags(write=False)
    return rho, g


def effect_distribution(c: Circuit, w, measured, noise: NoiseModel | None = None) -> np.ndarray:
    """Exact outcome distribution on the measured wires of encode c from
    |0...0>, the 2x2 unitary w on every wire, decode `dagger_circuit(c)`,
    each gate followed by its kicks as in `apply`. The measured wires are
    sorted and ordered as in `born_distribution`; p_readout is not applied.

    Only the attack depends on w. The encoded state rho_enc and the
    decoder's effects G_j are compiled once per (circuit, measured wires,
    p1, p2) (`_effects`), and a run takes sigma = W rho_enc W-dagger with
    W = w on every wire (`tensor_power`), then p_j = Re sum G_j * sigma.
    ValueError unless w is a 2x2 unitary within 1e-12, the measured wires
    a nonempty subset of c's and p a distribution (finite, nowhere below
    -1e-12, sum 1 within 1e-10); p is then clamped at 0 and divided by its
    sum, as `born_distribution` does."""
    measured = _wire_subset(measured, c.n_wires, "measured wire")
    w = _attack_factor(w)
    nm = noise or NoiseModel()
    rho, effects = _effects(c, measured, nm.p1, nm.p2)
    wn = tensor_power(w, c.n_wires)
    probs = np.real(effects @ (wn @ rho @ wn.conj().T).reshape(-1))
    _check_distribution(probs, "effect distribution")
    probs = np.maximum(probs, 0.0)  # rounding only
    return probs / probs.sum()


# One wire's Paulis I, X, Y, Z: their tags, matrices and symplectic (x, z) bits.
_PAULI_TAGS, _PAULIS = zip(*((g.name, g.matrix.array) for g in (I, X, Y, Z)))
_PAULI_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))


def _pauli_basis(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4^k Paulis on k wires in kron order, as a read-only
    (4^k, 2^k, 2^k) stack, and each one's symplectic bits: x on wires
    0..k-1, then z."""
    labels = list(product(range(4), repeat=k))
    stack = np.array([reduce(kron, (_PAULIS[a] for a in ls), np.eye(1)) for ls in labels])
    bits = np.array([[_PAULI_XZ[a][i] for i in (0, 1) for a in ls] for ls in labels], dtype=np.uint8)
    stack.setflags(write=False)
    bits.setflags(write=False)
    return stack, bits


def _pauli_bits(ops: np.ndarray) -> np.ndarray:
    """The symplectic bits of each matrix in a (g, 2^k, 2^k) stack, one row
    each; ValueError unless every matrix is finite and a Pauli up to phase
    within 1e-12, a Gate's tolerance."""
    if not np.isfinite(ops).all():
        raise ValueError("not a Pauli up to phase: entries must be finite")
    k = int(np.log2(ops.shape[-1]))
    stack, bits = _pauli_basis(k)
    weight = np.abs(np.einsum("pij,gij->gp", stack.conj(), ops)) / 2**k  # |Tr(P-dagger A)| / 2^k
    best = weight.argmax(axis=1)
    if np.abs(weight - (np.arange(4**k) == best[:, None])).max() > 1e-12:
        raise ValueError("not a Pauli up to phase")
    return bits[best]


@lru_cache(maxsize=64)  # a hybrid factor is one of the 16 phase x Pauli values
def _attack_bits(w: bytes) -> tuple[int, int]:
    """The (x, z) bits of a 2x2 attack factor, given as the bytes of its
    complex (2, 2) array, so a run reads them off its factor's bytes
    instead of matching the factor against the Paulis. ValueError unless
    the factor is a Pauli up to phase (`_pauli_bits`), raised afresh on
    every call, since a raise is not cached."""
    try:
        x, z = _pauli_bits(np.frombuffer(w, dtype=complex).reshape(1, 2, 2))[0]
    except ValueError:
        raise ValueError("attack factor must be a Pauli up to phase") from None
    return int(x), int(z)


@lru_cache(maxsize=64)  # a few gate types per circuit
def _sources(gate: Gate) -> tuple[tuple[int, ...], ...]:
    """For each of a gate's 2k bit rows (x, then z), the rows whose XOR it
    becomes under P -> g-dagger P g: the set columns of that row of the
    map's GF(2) matrix, whose column j is the image of X_0..X_{k-1},
    Z_0..Z_{k-1} in turn. ValueError if the gate is not Clifford."""
    g, k = gate.matrix.array, gate.arity
    stack, _ = _pauli_basis(k)
    generators = stack[[a * 4 ** (k - 1 - i) for a in (1, 3) for i in range(k)]]
    try:
        s = _pauli_bits(g.conj().T @ generators @ g).T
    except ValueError:
        raise ValueError(f"gate {gate.name!r} is not Clifford: it maps a Pauli to a non-Pauli") from None
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in s)


def _carry_back(b: list[int], pg: PlacedGate, n: int) -> None:
    """Carry the Paulis packed in b back across the gate, P -> g-dagger P g,
    in place. b holds 2n rows, the x bits of wires 0..n-1 then their z
    bits, each a Python int with one bit per Pauli, so a gate XORs a few
    ints (`_sources`), as CHP updates a tableau (Aaronson & Gottesman,
    arXiv:quant-ph/0406196)."""
    rows = (*pg.wires, *(n + w for w in pg.wires))
    old = [b[r] for r in rows]
    for r, src in zip(rows, _sources(pg.gate)):
        v = 0
        for j in src:
            v ^= old[j]
        b[r] = v


def _faults(c: Circuit, measured: tuple[int, ...]):
    """The Pauli faults of encode c, attack, decode dagger_circuit(c), read
    on the m sorted measured wires, built once per `_fault_base` entry.

    A fault F flips the readout of measured wire q exactly when it
    anticommutes with B_q, the final Z_q carried back to F's place
    (B -> g-dagger B g across each later gate g). One backward walk over
    the gates carries all m of them, packed as `_carry_back` packs Paulis:
    B_q is the bit of weight 2^(m-1-k) for q = measured[k], the weight of
    q's bit in an outcome index. So a row is itself an outcome mask: an X
    fault on wire w flips the readouts in w's z row, a Z fault those in
    its x row, a Y both. The attack, a Pauli, leaves every B_q as it is.

    Returns:
    - the arity of each fault's gate, one fault per kicked wire;
    - sums[f, u], the sum over P = X, Y, Z of (-1)^(u . mask of P) of
      fault f, 3 or -1, as int8 (faults x 2^m), from the parity of
      u & mask;
    - walsh[x, u] = (-1)^(x . u), the (2^m x 2^m) Walsh-Hadamard matrix;
    - the outcome masks that an X and a Z on every wire between encoder
      and decoder flip.
    """
    n, m = c.n_wires, len(measured)
    b = [0] * (2 * n)
    for k, q in enumerate(measured):
        b[n + q] = 1 << (m - 1 - k)
    flips, arities = [], []

    def back(gates) -> None:
        for pg in reversed(gates):
            # the kicks after the gate, then B carried back across it
            for w in pg.wires:
                x, z = b[w], b[n + w]
                flips.append((z, x ^ z, x))  # X, Y, Z
                arities.append(pg.gate.arity)
            _carry_back(b, pg, n)

    back(dagger_circuit(c).gates)
    attack_flips = (reduce(int.__xor__, b[n:]), reduce(int.__xor__, b[:n]))
    back(c.gates)
    u = np.arange(2**m)
    parity = np.array([i.bit_count() & 1 for i in range(2**m)])  # of each m-bit mask
    odd = parity[np.array(flips, dtype=np.int64).reshape(-1, 3, 1) & u]
    sums = 3 - 2 * odd.sum(axis=1, dtype=np.int8)
    walsh = 1.0 - 2.0 * parity[u[:, None] & u]
    return tuple(arities), sums, walsh, attack_flips


def _conjugated_pauli(c: Circuit, xz) -> tuple[np.ndarray, np.ndarray]:
    """The x and z bits, (k, n) each, of c-dagger (P_j on every wire) c for
    each one-wire Pauli P_j of a non-empty sequence of k (x, z) bit pairs,
    as in `_PAULI_XZ`. One backward walk, last gate first, carries all k
    packed as `_carry_back` packs them, P_j as bit j of each row, as
    `_faults` carries its m. Phases are dropped. ValueError if xz is empty,
    a pair is not two integers in {0, 1} or a gate of c is not Clifford.
    A matrix enters as its bits, `_pauli_bits`, so a 2x2 one is not read
    as two pairs."""
    try:
        pairs = [tuple(p) for p in xz]
    except TypeError:  # not a sequence of sequences
        pairs = []
    if not pairs or not all(all(isinstance(v, (int, np.integer)) for v in p) and p in _PAULI_XZ for p in pairs):
        raise ValueError("xz must be a non-empty sequence of (x, z) integer bit pairs in {0, 1}^2")
    n, k = c.n_wires, len(pairs)
    x = sum(1 << j for j, (v, _) in enumerate(pairs) if v)
    z = sum(1 << j for j, (_, v) in enumerate(pairs) if v)
    b = [x] * n + [z] * n
    for pg in reversed(c.gates):
        _carry_back(b, pg, n)
    bits = np.array([[row >> j & 1 for row in b] for j in range(k)], dtype=np.int64)
    return bits[:, :n], bits[:, n:]


@lru_cache(maxsize=64)  # a run needs 1 entry per (circuit, measured wires, p1, p2)
def _fault_base(c: Circuit, measured: tuple[int, ...], p1: float,
                p2: float) -> tuple[np.ndarray, tuple[int, int]]:
    """The outcome distribution of `pauli_fault_distribution` with no
    attack, under gate noise (p1, p2), read-only, and the outcome masks an
    X and a Z on every wire flip (`_faults`). The distribution is the
    inverse Walsh-Hadamard transform of chi; ValueError unless it is a
    probability distribution up to rounding."""
    arities, sums, walsh, attack_flips = _faults(c, measured)
    p = np.array([_kick_strength(k, p1, p2) for k in arities])
    # the factor of chi as 1 - (p/4)(3 - sum): exactly 1 where the sum is 3
    chi = np.prod(1.0 - 0.25 * p[:, None] * (3 - sums), axis=0)
    base = walsh @ chi / len(chi)
    _check_distribution(base, "Pauli-fault distribution")
    base.setflags(write=False)
    return base, attack_flips


def pauli_fault_distribution(c: Circuit, w, measured, noise: NoiseModel | None = None) -> np.ndarray:
    """Exact outcome distribution on the measured wires of encode c, the 2x2
    w on every wire, decode `dagger_circuit(c)`, each gate followed by its
    kicks as in `apply`, with no density matrix. The measured wires are
    sorted and ordered as in `born_distribution`; p_readout is not applied.

    The measured wires start in |0...0>, and the other wires in any state,
    which the result does not depend on. Every gate of c must be Clifford
    and w a Pauli up to phase; ValueError otherwise. Then the run without
    kicks ends the measured wires in one basis state, whatever the others
    hold, and each kick of strength p is a Pauli fault, X, Y or Z with
    probability p/4 each, that XORs a fixed mask into the outcome
    (`_faults`). The flips are independent, so the characteristic function
    of the outcome is chi(u) = prod_f (1 - 3p_f/4 + (p_f/4) sum_P
    (-1)^(u . mask_P)), and its inverse Walsh-Hadamard transform, shifted
    by the attack's mask, is the distribution (Aaronson & Gottesman,
    arXiv:quant-ph/0406196). The transform is taken once per (circuit,
    measured wires, p1, p2) (`_fault_base`) and w's bits once per factor
    (`_attack_bits`); a run validates its input and gathers the shift."""
    measured = _wire_subset(measured, c.n_wires, "measured wire")
    w = np.asarray(w, dtype=complex)
    if w.shape != (2, 2):
        raise ValueError("attack factor must be a 2x2 matrix")
    x, z = _attack_bits(w.tobytes())
    nm = noise or NoiseModel()
    base, (x_flip, z_flip) = _fault_base(c, measured, nm.p1, nm.p2)
    return np.maximum(base[np.arange(len(base)) ^ (x_flip if x else 0) ^ (z_flip if z else 0)], 0.0)


def partial_trace(d: StateVector | DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept wires, ascending wire order preserved.
    A state vector's is M M-dagger, for M its amplitudes with the kept
    wires as rows, so no density matrix of the whole state is formed."""
    keep = _wire_subset(keep, d.n_wires, "kept wire")
    n, k = d.n_wires, len(keep)
    if isinstance(d, StateVector):
        front, _ = _axis_orders(n, keep)  # the kept wires first, as np.moveaxis puts them
        m = d.amplitudes.reshape((2,) * n).transpose(front).reshape(2**k, -1)
        return DensityMatrix._trusted(m @ m.conj().T, k)
    drop = [w for w in range(n) if w not in keep]
    t = d.matrix.reshape((2,) * (2 * n))
    for w in sorted(drop, reverse=True):
        t = np.trace(t, axis1=w, axis2=w + t.ndim // 2)
    return DensityMatrix._trusted(t.reshape(2**k, 2**k), k)


def born_distribution(s: StateVector | DensityMatrix, wires) -> np.ndarray:
    """Marginal outcome probabilities on the given wires (sorted ascending).

    Outcome index bit order follows the histogram key convention: the
    smallest measured wire is the most significant bit of the index.
    """
    wires = _wire_subset(wires, s.n_wires, "measured wire")
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

    `seed` may be a non-negative integer or a ready-made numpy Generator;
    ValueError for anything else, such as a float or a bool. `probs` must
    be a 1-D, finite, non-negative distribution summing to 1 within 1e-10;
    ValueError otherwise. A draw r lands in the first bin j with
    r < cdf[j], and the last entry of the cdf is set to exactly 1. Each
    chunk of draws is sorted, and bin j gets #{r < cdf[j]} - #{r < cdf[j-1]}
    of them, read off the sorted draws by one `searchsorted` per bin
    rather than one per draw; for a non-decreasing cdf that is the same
    count.
    """
    shots = _integer(shots, "shots", 1)
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or not p.size:
        raise ValueError(f"probabilities must be a non-empty 1-D array, got shape {p.shape}")
    if not (p >= 0).all():  # also false for NaN
        raise ValueError("probabilities must be finite and non-negative")
    edges = np.zeros(len(p) + 1)  # 0, then the cdf
    np.cumsum(p, out=edges[1:])
    if abs(edges[-1] - 1.0) > 1e-10:  # an infinite entry gives an infinite sum
        raise ValueError(f"probabilities must be finite and sum to 1 within 1e-10, got sum {edges[-1]!r}")
    edges[-1] = 1.0
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.PCG64(_integer(seed, "seed", 0)))
    counts = np.zeros(len(p), dtype=np.int64)
    for done in range(0, shots, _SAMPLE_CHUNK):
        r = np.sort(rng.random(min(_SAMPLE_CHUNK, shots - done)))
        counts += np.diff(np.searchsorted(r, edges, side="left"))
    return counts


def fidelity(a: DensityMatrix | StateVector, b: StateVector) -> float:
    """<b|a|b> for a density matrix a; |<a|b>|^2 for a state vector a.
    ValueError unless b is a StateVector on as many wires as a."""
    if not isinstance(b, StateVector):
        raise ValueError(f"b must be a StateVector, got {type(b).__name__}")
    if a.n_wires != b.n_wires:
        raise ValueError(f"wire mismatch: {a.n_wires} vs {b.n_wires}")
    if isinstance(a, StateVector):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    v = b.amplitudes
    return float(np.real(v.conj() @ a.matrix @ v))


def circuit_to_text(c: Circuit) -> str:
    """One placed gate per line in time order."""
    return "\n".join(format_placed_gate(pg) for pg in c.gates) + ("\n" if c.gates else "")
