"""Property tests of the gate kernel, the noise engine, the all-wire attack
and `embed` against dense oracles, and of the states the package builds
unchecked.

The oracles are the dense formulas: a gate is embedded as S-dagger
(g tensor I) S with S the 2^n x 2^n wire permutation matrix, applied as
u rho u-dagger, an attack is W tensored n times, and a depolarizing kick
is the three-Pauli sum
(1 - 3p/4) rho + (p/4) sum_{X,Y,Z} s rho s. `realize` and `apply` are
held to the dense product of the embedded gates, on circuits heavy in
permutation gates too, and the one GF(2) walk of several Paulis, from
their `_pauli_bits` (`_conjugated_pauli`), to the dense c-dagger W c.

The hybrid scheme's runs go through the Pauli-fault engine and the corr
schemes' through the effect engine (`effect_distribution`), both checked
here against the dense density-matrix pass (encode, attack, decode, Born
marginal, readout flip); the fault engine's cached attack-free part gives
the bytes of its former per-run formula. Hybrid success cannot increase
with gate noise or with readout noise up to 0.5, does not depend on the
ancilla or on the Pauli list, and is the same at widths 2j+1 and 2j+2. So is the
reporting of a failing property: it must not abort the test session.
"""
from __future__ import annotations

import json
import subprocess
import sys
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec import circuit
from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    NoiseModel,
    StateVector,
    _conjugated_pauli,
    _kick,
    _pauli_bits,
    apply,
    attack,
    basis_state,
    born_distribution,
    contract,
    dagger_circuit,
    partial_trace,
    pauli_fault_distribution,
    realize,
    sample_counts,
    tensor,
    to_density,
)
from corrqec.correlated import apply_channel, build_new_U, make_channel, random_su2, verify_block_structure
from corrqec.gates import CNOT, H, X, Y, Z, Gate, PlacedGate, controlled, embed, ry
from corrqec.hybrid import encoder_circuit
from corrqec.linalg import ComplexMatrix, kron, tensor_power
from corrqec.noise_exp import (
    _exact_distribution,
    _normalize_spec,
    _readout_flip,
    exact_success,
)
from test_noise_exp import initial_state

_PAULIS = tuple(g.matrix.array for g in (X, Y, Z))
_R = np.sqrt(0.5)
_SETTINGS = settings(max_examples=60, deadline=None)


def dense_permutation(wires, n):
    """Permutation matrix moving the listed wires to the front, in order."""
    order = list(wires) + [w for w in range(n) if w not in wires]
    dim = 2**n
    s = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = 0
        for t, w in enumerate(order):
            j |= ((i >> (n - 1 - w)) & 1) << (n - 1 - t)
        s[j, i] = 1.0
    return s


def dense_embed(g, wires, n):
    s = dense_permutation(wires, n)
    big = np.kron(g, np.eye(2 ** (n - len(wires))))
    return s.conj().T @ big @ s


def pauli_depolarize(rho, wire, n, p):
    d = 2**n
    lo = 2 ** (n - 1 - wire)
    hi = d // (2 * lo)
    out = (1.0 - 0.75 * p) * rho
    t = rho.reshape(hi, 2, lo, hi, 2, lo)
    for pauli in _PAULIS:
        kicked = np.einsum("ab,hbljcm,cd->haljdm", pauli, t, pauli.conj().T)
        out = out + 0.25 * p * kicked.reshape(d, d)
    return out


def dense_noisy(c, rho, nm):
    n = c.n_wires
    for pg in c.gates:
        u = dense_embed(pg.gate.matrix.array, pg.wires, n)
        rho = u @ rho @ u.conj().T
        strength = nm.p1 if pg.gate.arity == 1 else nm.p2 / pg.gate.arity
        for w in pg.wires:
            rho = pauli_depolarize(rho, w, n, strength)
    return rho


def random_density(rng, n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, k):
    d = 2**k
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)
probabilities = st.floats(0.0, 1.0)


@st.composite
def placed_gates(draw, n):
    if n == 1 or draw(st.booleans()):
        gate = draw(st.sampled_from((H, X, Y, Z)) | angles.map(ry))
        return PlacedGate(gate, (draw(st.integers(0, n - 1)),))
    # any ordered pair or triple of distinct wires: reversed and non-adjacent
    # included, so a run of gates fills, and crosses, 3-wire fused blocks
    arity = draw(st.integers(2, min(n, 3)))
    wires = draw(st.permutations(range(n)))[:arity]
    if arity == 2:
        gate = draw(st.just(CNOT) | angles.map(lambda a: controlled(ry(a), 0)))
    else:
        gate = draw(st.just(controlled(CNOT, 1))
                    | angles.map(lambda a: controlled(controlled(ry(a), 0), 1)))
    return PlacedGate(gate, tuple(wires))


@st.composite
def noisy_cases(draw):
    n = draw(st.integers(1, 5))
    gates = draw(st.lists(placed_gates(n), max_size=16))
    nm = NoiseModel(p1=draw(probabilities), p2=draw(probabilities))
    rho = random_density(np.random.default_rng(draw(seeds)), n)
    return Circuit(n, tuple(gates)), rho, nm


@_SETTINGS
@given(noisy_cases())
def test_noisy_engine_matches_dense_oracle(case):
    c, rho, nm = case
    got = apply(c, DensityMatrix(rho, c.n_wires), nm).matrix
    assert got.shape == rho.shape
    assert np.abs(got - dense_noisy(c, rho, nm)).max() <= 1e-13
    assert abs(np.trace(got) - 1.0) <= 1e-12
    assert np.abs(got - got.conj().T).max() <= 1e-13


_PERMUTATION_GATES = (X, CNOT, controlled(X, 0), controlled(CNOT, 1))


@st.composite
def permutation_and_dense_circuits(draw):
    """Permutation gates and dense ones (H, ry, an open-control ry) in any
    order, so runs of permutations come before, between and after dense
    gates."""
    n = draw(st.integers(1, 6))
    dense = [st.just(H), angles.map(ry)] + ([angles.map(lambda a: controlled(ry(a), 0))] if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.booleans()):
            gate = draw(st.sampled_from([g for g in _PERMUTATION_GATES if g.arity <= n]))
        else:
            gate = draw(st.one_of(dense))
        gates.append(PlacedGate(gate, tuple(draw(st.permutations(range(n)))[:gate.arity])))
    return Circuit(n, tuple(gates))


@_SETTINGS
@given(st.one_of(noisy_cases().map(lambda case: case[0]), permutation_and_dense_circuits()), seeds)
@example(Circuit(4, (PlacedGate(CNOT, (2, 0)), PlacedGate(controlled(CNOT, 1), (3, 1, 0)),
                     PlacedGate(ry(2.5), (1,)), PlacedGate(X, (3,)), PlacedGate(controlled(X, 0), (0, 2)),
                     PlacedGate(H, (2,)), PlacedGate(controlled(ry(-4.0), 0), (1, 3)),
                     PlacedGate(CNOT, (3, 1)), PlacedGate(X, (0,)))), 0)
# ry(1e-200) has entries -1e-200 and 1e-200 next to exact zeros
@example(Circuit(2, (PlacedGate(ry(1e-200), (0,)), PlacedGate(CNOT, (0, 1)),
                     PlacedGate(ry(1e-200), (0,)), PlacedGate(X, (0,)), PlacedGate(ry(0.0), (1,)))), 0)
def test_realize_and_apply_match_the_dense_product(c, seed):
    n = c.n_wires
    rho = random_density(np.random.default_rng(seed), n)
    u = np.eye(2**n, dtype=complex)
    for pg in c.gates:
        u = dense_embed(pg.gate.matrix.array, pg.wires, n) @ u
    assert np.abs(realize(c) - u).max() <= 1e-13
    v = rho[:, 0] / np.linalg.norm(rho[:, 0])
    assert np.abs(apply(c, StateVector(v, n)).amplitudes - u @ v).max() <= 1e-13
    got = apply(c, DensityMatrix(rho, n)).matrix
    assert np.abs(got - u @ rho @ u.conj().T).max() <= 1e-13


@_SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(n)), probabilities, seeds)))
def test_closed_form_depolarizing_is_the_pauli_sum(case):
    n, order, p, seed = case
    rho = random_density(np.random.default_rng(seed), n)
    t = rho.reshape((2,) * (2 * n))
    wire = order[0]
    got = contract(t, _kick(p), (wire, n + wire)).reshape(rho.shape)
    assert np.abs(got - pauli_depolarize(rho, wire, n, p)).max() <= 1e-15
    if n >= 2:
        # a two-wire gate's kicks: one per wire, on distinct wires
        a, b = order[:2]
        got = contract(contract(t, _kick(p), (a, n + a)), _kick(p), (b, n + b)).reshape(rho.shape)
        expect = pauli_depolarize(pauli_depolarize(rho, a, n, p), b, n, p)
        assert np.abs(got - expect).max() <= 1e-15


@_SETTINGS
@given(seeds, angles)
def test_the_float_block_structure_agrees_with_the_exact_theorem(seed, phase):
    # the exact proof says U^T (W (x) 3) U = det(W) (I (x) W) on ancilla |0>,
    # with no block off the diagonal, for every W; the float product agrees
    # for a Haar-random special unitary times a global phase
    w = random_su2(np.random.default_rng(seed)) * np.exp(1j * phase)
    rep = verify_block_structure(build_new_U(), w)
    assert rep.off_diag_norm <= 1e-12
    assert np.abs(rep.top_left - np.linalg.det(w) * kron(np.eye(2), w)).max() <= 1e-12


@_SETTINGS
@given(st.sampled_from(("corr3", "corr3-basic", "corr5")), seeds, angles)
def test_a_noiseless_corr_run_reads_its_data_back_for_every_attack(scheme, seed, phase):
    # the conclusion of the exact proofs: with no noise, the data wires of
    # the 3-wire and 2k+1-wire schemes read 0...0 with certainty for any W
    w = random_su2(np.random.default_rng(seed)) * np.exp(1j * phase)
    _, circ, _, data = _normalize_spec({"scheme": scheme})
    probs = circuit.effect_distribution(circ, w, data, NoiseModel())
    assert abs(probs[0] - 1.0) <= 1e-12


@_SETTINGS
@given(st.integers(1, 5), seeds)
def test_attack_is_the_dense_tensor_power(n, seed):
    # the per-wire attack against the dense W tensored n times, on a pure
    # and on a mixed state, for a Haar-random U(2) factor
    rng = np.random.default_rng(seed)
    w = random_unitary(rng, 1)
    wn = tensor_power(w, n)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    assert np.abs(attack(StateVector(v, n), w).amplitudes - wn @ v).max() <= 1e-13
    rho = random_density(rng, n)
    got = attack(DensityMatrix(rho, n), w).matrix
    assert np.abs(got - wn @ rho @ wn.conj().T).max() <= 1e-13


@_SETTINGS
@given(st.integers(1, 8), st.lists(st.integers(0, 3), max_size=4), st.integers(0, 3),
       st.integers(0, 3), seeds)
def test_all_wire_pauli_is_the_dense_tensor_power(n, word, k, cols, seed):
    # a phased product of 0-4 Paulis on every wire, as `hybrid_protect`
    # applies it through `attack`, against the dense W tensored n times
    # times one vector (cols = 0) or each column of a matrix, bit for bit
    paulis = (np.eye(2, dtype=complex), *_PAULIS)
    w = (1, 1j, -1, -1j)[k] * reduce(np.matmul, [paulis[i] for i in word], paulis[0])
    wn = tensor_power(w, n)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, max(cols, 1))) + 1j * rng.normal(size=(2**n, max(cols, 1)))
    a /= np.linalg.norm(a, axis=0)
    for v in a.T:
        assert np.array_equal(attack(StateVector(v, n), w).amplitudes, wn @ v)


@_SETTINGS
@given(st.integers(1, 6), seeds)
def test_partial_trace_of_a_vector_is_that_of_its_density(n, seed):
    # M M-dagger of the reshaped amplitudes against the traced-out outer
    # product, over every keep set
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    s = StateVector(v / np.linalg.norm(v), n)
    rho = to_density(s)
    for k in range(1, n + 1):
        for keep in combinations(range(n), k):
            got = partial_trace(s, keep)
            assert got.n_wires == k
            assert np.abs(got.matrix - partial_trace(rho, keep).matrix).max() <= 1e-15


@st.composite
def producer_cases(draw):
    """A mixed or pure input state, a noisy circuit, a kept wire set and a
    mixture of one to three Haar-random U(2) tensor-power attacks."""
    c, rho, nm = draw(noisy_cases())
    n = c.n_wires
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
    weights = rng.dirichlet(np.ones(draw(st.integers(1, 3))))
    ch = make_channel(n, [(random_unitary(rng, 1), w) for w in weights])
    keep = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return c, rho, nm, ch, keep


@_SETTINGS
@given(producer_cases())
def test_unchecked_producers_make_valid_states(case):
    # apply (noiseless and noisy), attack, partial_trace and apply_channel
    # skip the DensityMatrix checks; their outputs must still be states.
    # So do basis_state, tensor, apply and attack on a vector skip the
    # StateVector checks, and their amplitudes must be read-only.
    c, rho, nm, ch, keep = case
    n = c.n_wires
    dm = DensityMatrix(rho, n)
    outputs = (
        (apply(c, dm).matrix, n),
        (partial_trace(dm, keep).matrix, len(keep)),
        (apply_channel(ch, dm).matrix, n),
        (apply(c, dm, nm).matrix, n),
        (attack(dm, ch.support[0][0]).matrix, n),
    )
    for a, k in outputs:
        DensityMatrix(a, k)
        assert np.linalg.eigvalsh(a).min() >= -1e-12
        assert abs(np.trace(a) - 1.0) <= 1e-12
        assert np.abs(a - a.conj().T).max() <= 1e-13
    v = StateVector(np.linalg.eigh(rho)[1][:, -1], n)
    bits = format(keep[0], f"0{n}b")
    vectors = (
        basis_state(n, bits),
        tensor(basis_state(1, bits[0]), *(StateVector(q, 1) for q in ([_R, _R], [_R, -1j * _R]))),
        tensor(v, basis_state(1, 1)),
        apply(c, v),
        attack(v, ch.support[0][0]),
    )
    for s in vectors:
        a = s.amplitudes
        StateVector(a, s.n_wires)
        assert a.shape == (2**s.n_wires,) and not a.flags.writeable


@_SETTINGS
@given(st.integers(1, 5), st.integers(1, 5), seeds)
def test_a_channel_is_its_weighted_sum_of_attacks(n, k, seed):
    # `apply_channel`, atom by atom through the per-wire `attack`, against
    # the dense sum over its atoms of p W^(tensor n) rho W^(tensor n)-dagger,
    # for k Haar-random U(2) atoms
    rng = np.random.default_rng(seed)
    ch = make_channel(n, zip([random_unitary(rng, 1) for _ in range(k)], rng.dirichlet(np.ones(k))))
    rho = DensityMatrix(random_density(rng, n), n)
    expect = sum(p * tensor_power(w, n) @ rho.matrix @ tensor_power(w, n).conj().T for w, p in ch.support)
    assert np.abs(apply_channel(ch, rho).matrix - expect).max() <= 1e-13


@st.composite
def placements(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 3)))
    wires = tuple(draw(st.permutations(range(n)))[:k])
    g = random_unitary(np.random.default_rng(draw(seeds)), k)
    return PlacedGate(Gate("u", ComplexMatrix(g), k), wires), n


@_SETTINGS
@given(placements())
def test_embed_is_the_dense_permutation_product(case):
    pg, n = case
    expect = dense_embed(pg.gate.matrix.array, pg.wires, n)
    assert np.array_equal(embed(pg, n), expect)


@st.composite
def hybrid_specs(draw, widths):
    """A hybrid spec without noise: a width, an ancilla (bits, or `ry:` at
    odd widths) and a Pauli list."""
    n = draw(st.sampled_from(widths))
    if n % 2:
        ancilla = draw(st.sampled_from(("0", "1")) | angles.map(lambda a: f"ry:{a}"))
    else:
        ancilla = draw(st.sampled_from(("00", "01", "10", "11")))
    errors = draw(st.lists(st.sampled_from("ixyz"), min_size=1, max_size=4))
    return {"scheme": "hybrid", "n": n, "ancilla": ancilla, "errors": errors}


@st.composite
def hybrid_noise_steps(draw):
    """A hybrid spec, and a noise model and the same with one of p1, p2 or
    readout raised (readout stays at most 0.5)."""
    spec = draw(hybrid_specs(range(3, 7)))
    low = {"p1": draw(probabilities), "p2": draw(probabilities),
           "p_readout": draw(st.floats(0.0, 0.5))}
    key = draw(st.sampled_from(sorted(low)))
    high = dict(low, **{key: draw(st.floats(low[key], 0.5 if key == "p_readout" else 1.0))})
    return spec, low, high


@_SETTINGS
@given(hybrid_noise_steps())
def test_hybrid_success_does_not_increase_with_noise(case):
    spec, low, high = case
    assert exact_success(dict(spec, noise=high)) <= exact_success(dict(spec, noise=low)) + 1e-12


def dense_distribution(spec):
    """A run's outcome distribution through the density-matrix pass: encode,
    attack, decode, Born marginal, readout flip."""
    ns, circ, w, data = _normalize_spec(spec)
    rho = apply(circ, to_density(initial_state(ns, circ.n_wires)), ns["noise"])
    rho = apply(dagger_circuit(circ), attack(rho, w), ns["noise"])
    probs = born_distribution(DensityMatrix(rho.matrix, circ.n_wires), data)
    return _readout_flip(probs, ns["noise"].p_readout)


@_SETTINGS
@given(hybrid_specs(range(3, 9)), probabilities, probabilities, probabilities)
def test_pauli_fault_engine_matches_the_dense_pass(spec, p1, p2, readout):
    spec = dict(spec, noise={"p1": p1, "p2": p2, "p_readout": readout})
    probs = _exact_distribution(*_normalize_spec(spec))
    assert np.abs(probs - dense_distribution(spec)).max() <= 1e-14


@_SETTINGS
@given(st.sampled_from(("corr3", "corr3-basic", "corr5")), seeds, probabilities, probabilities,
       probabilities)
def test_corr_runs_match_the_dense_pass(scheme, seed, p1, p2, readout):
    # a Haar-random attack, given to full precision as a `matrix:` selector
    w = random_unitary(np.random.default_rng(seed), 1)
    selector = "matrix:" + json.dumps([[[z.real, z.imag] for z in row] for row in w])
    spec = {"scheme": scheme, "w": selector, "noise": {"p1": p1, "p2": p2, "p_readout": readout}}
    probs = _exact_distribution(*_normalize_spec(spec))
    assert np.abs(probs - dense_distribution(spec)).max() <= 1e-13


# S, and SH, which cycles X, Z and Y up to signs: unlike the maps of H, S
# and CNOT on the Paulis, its map is not its own inverse
_S = Gate("S", ComplexMatrix(np.diag([1, 1j])), 1)
_SH = Gate("SH", ComplexMatrix(np.diag([1, 1j]) @ H.matrix.array), 1)


@st.composite
def clifford_runs(draw):
    """A random Clifford circuit, a state whose measured wires are |0...0>
    and the rest random, a Pauli attack with a phase, and gate noise."""
    n = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if n == 1 or draw(st.booleans()):
            gate, wires = draw(st.sampled_from((H, _S, _SH, X, Y, Z))), (draw(st.integers(0, n - 1)),)
        else:
            gate, wires = draw(st.sampled_from((CNOT, controlled(Z, 1)))), draw(st.permutations(range(n)))[:2]
        gates.append(PlacedGate(gate, tuple(wires)))
    measured = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rng = np.random.default_rng(draw(seeds))
    amps = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)).reshape((2,) * n)
    for q in measured:
        amps[(slice(None),) * q + (1,)] = 0.0
    amps = amps.reshape(-1) / np.linalg.norm(amps)
    w = np.exp(1j * draw(angles)) * draw(st.sampled_from((np.eye(2), *_PAULIS)))
    nm = NoiseModel(p1=draw(probabilities), p2=draw(probabilities))
    return Circuit(n, tuple(gates)), StateVector(amps, n), w, measured, nm


@_SETTINGS
@given(clifford_runs())
def test_pauli_fault_engine_matches_the_dense_pass_on_clifford_circuits(case):
    # any Clifford circuit and any Pauli, so the attack may flip the readout
    c, s, w, measured, nm = case
    rho = apply(c, to_density(s), nm)
    rho = apply(dagger_circuit(c), attack(rho, w), nm)
    expect = born_distribution(rho, measured)
    assert np.abs(pauli_fault_distribution(c, w, measured, nm) - expect).max() <= 1e-13


def per_run_fault_distribution(c, w, measured, nm):
    """The Pauli-fault engine as it was before its attack-free part was
    cached: the whole transform taken per run, then shifted."""
    arities, sums, walsh, (x_flip, z_flip) = circuit._faults(c, tuple(sorted(measured)))
    x, z = _pauli_bits(np.asarray(w, dtype=complex)[None])[0]
    p = np.array([circuit._kick_strength(k, nm.p1, nm.p2) for k in arities])
    chi = np.prod(1.0 - 0.25 * p[:, None] * (3 - sums), axis=0)
    probs = (walsh @ chi / len(chi))[np.arange(len(chi)) ^ (x_flip if x else 0) ^ (z_flip if z else 0)]
    return np.maximum(probs, 0.0)


@st.composite
def hybrid_runs(draw):
    """A hybrid spec's circuit, initial state, attack and data wires, with
    gate noise."""
    spec = draw(hybrid_specs(range(3, 9)))
    ns, circ, w, data = _normalize_spec(dict(spec, noise={"p1": draw(probabilities), "p2": draw(probabilities)}))
    return circ, initial_state(ns, circ.n_wires), w, data, ns["noise"]


@_SETTINGS
@given(clifford_runs() | hybrid_runs())
def test_the_cached_fault_base_gives_the_per_run_bytes(case):
    c, _, w, measured, nm = case
    got = pauli_fault_distribution(c, w, measured, nm)
    assert got.tobytes() == per_run_fault_distribution(c, w, measured, nm).tobytes()


def test_pauli_fault_engine_rejects_what_it_cannot_run():
    with pytest.raises(ValueError, match="not Clifford"):
        pauli_fault_distribution(Circuit(3, (PlacedGate(CNOT, (0, 1)), PlacedGate(ry(0.3), (2,)))),
                                 X.matrix, [1, 2])
    enc = encoder_circuit(3)
    with pytest.raises(ValueError, match="Pauli"):
        pauli_fault_distribution(enc, H.matrix, [1, 2])
    with pytest.raises(ValueError, match="nonempty"):
        pauli_fault_distribution(enc, X.matrix, [])
    # a NaN compares false with every tolerance, so it is rejected first
    for w in (np.full((2, 2), np.nan), np.array([[np.nan, 0], [0, 1]])):
        with pytest.raises(ValueError, match="Pauli"):
            pauli_fault_distribution(enc, w, [1, 2])
        with pytest.raises(ValueError, match="finite"):
            _pauli_bits(w[None])
    # the walk takes (x, z) bit pairs: a matrix, or a stack of them, enters
    # through `_pauli_bits`, and is not read as pairs of its entries
    for xz in (X.matrix.array, np.eye(2, dtype=int) + 0j, np.zeros((0, 2, 2)), np.zeros((1, 4, 4)),
               _PAULIS, [], (), np.zeros((0, 2), dtype=int), [(2, 0)], [(0, -1)], [(1,)], [(0, 1, 0)],
               [(1.0, 0)], [(1, 0j)], [(1, 0), (0, 2)], [None], 3, "10"):
        with pytest.raises(ValueError, match="bit pairs"):
            _conjugated_pauli(enc, xz)
    # the accepted inputs, for contrast: a phase on the Pauli is allowed
    probs = pauli_fault_distribution(enc, 1j * Y.matrix.array, [1, 2], NoiseModel(p1=0.1, p2=0.2))
    assert abs(probs.sum() - 1.0) <= 1e-15 and probs.min() >= 0.0
    # and any integer bits, as Python ints, bools, numpy ints or `_pauli_bits`' rows
    walked = _conjugated_pauli(enc, circuit._PAULI_XZ[1:])
    for xz in ([(True, False), (True, True), (False, True)], np.array(circuit._PAULI_XZ[1:]),
               _pauli_bits(np.stack(_PAULIS))):
        got = _conjugated_pauli(enc, xz)
        assert np.array_equal(got[0], walked[0]) and np.array_equal(got[1], walked[1])


def test_the_walks_bit_table_is_each_paulis_own():
    # the proofs walk I, X, Y and Z from `_PAULI_XZ` and never read their
    # matrices, so each row must be what `_pauli_bits` reads off its matrix
    bits = _pauli_bits(np.stack(circuit._PAULIS))
    assert [tuple(row) for row in bits.tolist()] == list(circuit._PAULI_XZ)
    assert circuit._PAULI_TAGS == ("I", "X", "Y", "Z")


@st.composite
def clifford_walks(draw):
    """A random Clifford circuit of CNOT, H, X, Z, CZ and S gates on up to
    6 wires, and a stack of 1 to 4 Paulis, each with a phase."""
    n = draw(st.integers(1, 6))
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        if n == 1 or draw(st.booleans()):
            gate, wires = draw(st.sampled_from((H, X, Z, _S))), (draw(st.integers(0, n - 1)),)
        else:
            gate, wires = draw(st.sampled_from((CNOT, controlled(Z, 1)))), draw(st.permutations(range(n)))[:2]
        gates.append(PlacedGate(gate, tuple(wires)))
    paulis = st.sampled_from((np.eye(2), *_PAULIS))
    ws = draw(st.lists(st.tuples(angles, paulis), min_size=1, max_size=4))
    return Circuit(n, tuple(gates)), np.array([np.exp(1j * a) * w for a, w in ws])


def xz_word(x, z):
    """The Pauli X^x Z^z on each wire, wire 0 the most significant."""
    return reduce(np.kron, (np.linalg.matrix_power(X.matrix.array, int(a))
                            @ np.linalg.matrix_power(Z.matrix.array, int(b)) for a, b in zip(x, z)),
                  np.eye(1))


@_SETTINGS
@given(clifford_walks())
def test_one_walk_carries_a_stack_of_paulis_as_the_dense_conjugation_does(case):
    """Row j of the stacked walk is the Pauli of the dense c-dagger (w_j on
    every wire) c, and the walk of w_j alone. The dense side uses
    `_pauli_bits`' criterion, |Tr(P-dagger D)| / 2^n = 1 for the Pauli P
    of those bits, which holds for exactly one P when D is unitary; it
    calls `_pauli_bits` itself only up to n = 4, as its basis of 4^n
    Paulis takes 268 MB at n = 6."""
    c, ws = case
    n = c.n_wires
    u = reduce(lambda m, pg: embed(pg, n) @ m, c.gates, np.eye(2**n))
    x, z = _conjugated_pauli(c, _pauli_bits(ws))
    assert x.shape == z.shape == (len(ws), n)
    for w, xs, zs in zip(ws, x, z):
        dense = u.conj().T @ tensor_power(w, n) @ u
        assert abs(abs(np.vdot(xz_word(xs, zs), dense)) / 2**n - 1.0) <= 1e-12
        if n <= 4:  # and `_pauli_bits` itself, whose basis is 1 MB at n = 4
            assert np.array_equal(np.concatenate([xs, zs]), _pauli_bits(dense[None])[0])
        alone = _conjugated_pauli(c, _pauli_bits(w[None]))
        assert np.array_equal(alone[0], xs[None]) and np.array_equal(alone[1], zs[None])


_LISTS = (["i"], ["x"], ["y"], ["z"], ["x", "y"], ["y", "z"], ["z", "x"], ["x", "y", "z"])


@pytest.mark.parametrize("n", range(3, 9))
def test_hybrid_outcomes_do_not_depend_on_ancilla_or_pauli_list(n):
    # every Pauli attack lands on the ancilla wires, and the ancilla never
    # reaches the data, so the whole data distribution is one array
    ancillas = ("0", "1", "ry:0.7", "ry:2.356") if n % 2 else ("00", "01", "10", "11")
    noise = {"p1": 1e-3, "p2": 1e-2, "p_readout": 1e-2}
    spec = {"scheme": "hybrid", "n": n, "noise": noise}
    ref = _exact_distribution(*_normalize_spec(spec))
    for ancilla in ancillas:
        for errors in _LISTS:
            got = _exact_distribution(*_normalize_spec(dict(spec, ancilla=ancilla, errors=errors)))
            assert np.array_equal(got, ref)
    # the dense pass agrees to rounding on every ancilla and every list
    cases = [dict(spec, ancilla=a, errors=["x", "y"]) for a in ancillas]
    cases += [dict(spec, ancilla=ancillas[-1], errors=e) for e in _LISTS]
    for case in cases:
        assert np.abs(dense_distribution(case) - ref).max() <= 1e-14


def test_hybrid_success_is_equal_at_widths_2j_plus_1_and_2j_plus_2():
    # the extra two-wire stage of an even width touches only its ancilla
    # wires, so its faults never reach the data
    rng = np.random.default_rng(13)
    for p1, p2, readout in rng.random((10, 3)):
        noise = {"p1": p1, "p2": p2, "p_readout": readout}
        for j in (1, 2, 3):
            odd, even = ({"scheme": "hybrid", "n": n, "errors": ["x"], "noise": noise}
                         for n in (2 * j + 1, 2 * j + 2))
            assert exact_success(odd) == exact_success(even)
            dense_odd, dense_even = dense_distribution(odd)[0], dense_distribution(even)[0]
            assert abs(dense_odd - dense_even) <= 1e-15
            assert abs(dense_odd - exact_success(odd)) <= 1e-14


def tensordot_contract(t, g, axes):
    """`contract` as np.tensordot and np.moveaxis compute it: the reference
    whose bytes it must reproduce."""
    k = len(axes)
    g = g.reshape((2,) * (2 * k))
    return np.moveaxis(np.tensordot(g, t, axes=(tuple(range(k, 2 * k)), axes)), range(k), axes)


def gaussian(rng, shape, complex_):
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(size=shape) if complex_ else a


@st.composite
def contractions(draw):
    """A (2,)*n tensor, contiguous or a transposed view, and a real or
    complex 2^k x 2^k g, itself possibly a transposed view, on k distinct
    axes in any order."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 3)))
    axes = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(seeds))
    t = gaussian(rng, (2,) * n, draw(st.booleans()))
    if draw(st.booleans()):
        t = t.transpose(draw(st.permutations(range(n))))
    g = gaussian(rng, (2**k, 2**k), draw(st.booleans()))
    return t, g.T if draw(st.booleans()) else g, axes


@_SETTINGS
@given(contractions())
def test_contract_is_tensordot_bit_for_bit(case):
    t, g, axes = case
    got, want = contract(t, g, axes), tensordot_contract(t, g, axes)
    assert (got.shape, got.dtype, got.strides) == (want.shape, want.dtype, want.strides)
    assert got.tobytes() == want.tobytes()


def test_contract_rejects_repeated_or_missing_axes():
    t = np.zeros((2, 2, 2))
    for axes in ((0, 0), (3,), (1, -2)):
        with pytest.raises(ValueError):
            contract(t, np.eye(2 ** len(axes)), axes)


@st.composite
def kron_operands(draw):
    """Two 1-D or two 2-D arrays of sides 1..4, each real or complex."""
    ndim = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(seeds))
    a, b = (gaussian(rng, tuple(draw(st.integers(1, 4)) for _ in range(ndim)), draw(st.booleans()))
            for _ in range(2))
    return a, b


@_SETTINGS
@given(kron_operands())
@example((np.ones((1, 1)), np.ones((1, 1), dtype=complex)))
@example((np.eye(2), Y.matrix.array))
@example((H.matrix.array, np.eye(4)))
@example((np.array([1.0, -0.0]), np.array([-0.0, 1j])))
def test_kron_is_np_kron_bit_for_bit(case):
    a, b = case
    got, want = kron(a, b), np.kron(a, b)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def test_kron_takes_two_vectors_or_two_matrices():
    for a, b in ((np.eye(2), np.ones(2)), (np.ones(()), np.ones(2)), (np.ones((2, 2, 2)), np.eye(2))):
        with pytest.raises(ValueError, match="kron needs"):
            kron(a, b)


def searchsorted_counts(probs, shots, rng):
    """The sampler as one binary search per draw over the cdf, chunked
    like `sample_counts`: the reference its counts must equal."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    counts = np.zeros(len(probs), dtype=np.int64)
    for done in range(0, shots, circuit._SAMPLE_CHUNK):
        idx = np.searchsorted(cdf, rng.random(min(circuit._SAMPLE_CHUNK, shots - done)), side="right")
        counts += np.bincount(np.minimum(idx, len(probs) - 1), minlength=len(probs))
    return counts


# Weights 9, 7, 7, 1, 0 over 24: the cdf rounds to 1.0000000000000002 at
# its fourth entry, above the exact 1.0 the sampler puts last.
_ABOVE_ONE = (9, 7, 7, 1, 0)


@_SETTINGS
@given(st.lists(st.integers(0, 9) | st.floats(0.0, 1.0), min_size=1, max_size=16).filter(any),
       st.integers(1, 3000), st.sampled_from((1, 7, 64, 1 << 20)), seeds)
@example(list(_ABOVE_ONE), 2000, 7, 3)
@example([0, 0, 5, 0], 100, 1 << 20, 0)
def test_sort_and_count_sampler_is_the_searchsorted_sampler(weights, shots, chunk, seed):
    probs = np.array(weights, dtype=float)
    probs /= probs.sum()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "_SAMPLE_CHUNK", chunk)
        want = searchsorted_counts(probs, shots, np.random.default_rng(seed))
        got = sample_counts(probs, shots, np.random.default_rng(seed))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.sum() == shots and not got[probs == 0].any()


def test_the_above_one_example_has_a_cdf_above_one_before_its_end():
    cdf = np.cumsum(np.array(_ABOVE_ONE, dtype=float) / sum(_ABOVE_ONE))
    assert cdf[-2] > 1.0


_FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x != 0


def test_b_passing():
    assert True
"""


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """Under the repo's warning filters a failing @given test is reported as
    one failure, and the tests after it still run."""
    (tmp_path / "test_two.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
