"""Property tests of the gate kernel, the noise engine, the all-wire attack
and `embed` against dense oracles, and of the states the package builds
unchecked.

The oracles are the dense formulas: a gate is embedded as S-dagger
(g tensor I) S with S the 2^n x 2^n wire permutation matrix, applied as
u rho u-dagger, an attack is W tensored n times, and a depolarizing kick
is the three-Pauli sum
(1 - 3p/4) rho + (p/4) sum_{X,Y,Z} s rho s.

The hybrid scheme's success probability cannot increase with gate noise
or with readout noise up to 0.5, which is checked here too. So is the
reporting of a failing property: it must not abort the test session.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    NoiseModel,
    StateVector,
    _kicks,
    apply,
    attack,
    contract,
    partial_trace,
    realize,
)
from corrqec.correlated import apply_channel, make_channel
from corrqec.gates import CNOT, H, X, Y, Z, Gate, PlacedGate, controlled, embed, ry
from corrqec.linalg import ComplexMatrix, tensor_power
from corrqec.noise_exp import exact_success

_PAULIS = tuple(g.matrix.array for g in (X, Y, Z))
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


@_SETTINGS
@given(noisy_cases())
def test_realize_and_apply_match_the_dense_product(case):
    c, rho, _ = case
    n = c.n_wires
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
    got = contract(t, _kicks(1, p), (wire, n + wire)).reshape(rho.shape)
    assert np.abs(got - pauli_depolarize(rho, wire, n, p)).max() <= 1e-15
    if n >= 2:
        a, b = order[:2]
        got = contract(t, _kicks(2, p), (a, b, n + a, n + b)).reshape(rho.shape)
        expect = pauli_depolarize(pauli_depolarize(rho, a, n, p), b, n, p)
        assert np.abs(got - expect).max() <= 1e-15


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
    # skip the DensityMatrix checks; their outputs must still be states
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
def hybrid_noise_steps(draw):
    """A hybrid spec, and a noise model and the same with one of p1, p2 or
    readout raised (readout stays at most 0.5)."""
    n = draw(st.integers(3, 6))
    if n % 2:
        ancilla = draw(st.sampled_from(("0", "1")) | angles.map(lambda a: f"ry:{a}"))
    else:
        ancilla = draw(st.sampled_from(("00", "01", "10", "11")))
    errors = draw(st.lists(st.sampled_from("ixyz"), min_size=1, max_size=4))
    low = {"p1": draw(probabilities), "p2": draw(probabilities),
           "p_readout": draw(st.floats(0.0, 0.5))}
    key = draw(st.sampled_from(sorted(low)))
    high = dict(low, **{key: draw(st.floats(low[key], 0.5 if key == "p_readout" else 1.0))})
    spec = {"scheme": "hybrid", "n": n, "ancilla": ancilla, "errors": errors}
    return spec, low, high


@_SETTINGS
@given(hybrid_noise_steps())
def test_hybrid_success_does_not_increase_with_noise(case):
    spec, low, high = case
    assert exact_success(dict(spec, noise=high)) <= exact_success(dict(spec, noise=low)) + 1e-12


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
