"""Property tests of the noise engine and of `embed` against dense oracles.

The oracles are the dense formulas: a gate is embedded as S-dagger
(g tensor I) S with S the 2^n x 2^n wire permutation matrix, applied as
u rho u-dagger, and a depolarizing kick is the three-Pauli sum
(1 - 3p/4) rho + (p/4) sum_{X,Y,Z} s rho s.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec.circuit import Circuit
from corrqec.gates import CNOT, H, X, Y, Z, Gate, PlacedGate, controlled, embed, ry
from corrqec.linalg import ComplexMatrix
from corrqec.noise_exp import NoiseModel, _apply_noisy_array, _depolarize_wire

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
    # any ordered pair of distinct wires: reversed and non-adjacent included
    wires = draw(st.permutations(range(n)))[:2]
    gate = draw(st.just(CNOT) | angles.map(lambda a: controlled(ry(a), 0)))
    return PlacedGate(gate, tuple(wires))


@st.composite
def noisy_cases(draw):
    n = draw(st.integers(1, 5))
    gates = draw(st.lists(placed_gates(n), max_size=8))
    nm = NoiseModel(p1=draw(probabilities), p2=draw(probabilities))
    rho = random_density(np.random.default_rng(draw(seeds)), n)
    return Circuit(n, tuple(gates)), rho, nm


@_SETTINGS
@given(noisy_cases())
def test_noisy_engine_matches_dense_oracle(case):
    c, rho, nm = case
    got = _apply_noisy_array(c, rho, nm)
    assert got.shape == rho.shape
    assert np.abs(got - dense_noisy(c, rho, nm)).max() <= 1e-13
    assert abs(np.trace(got) - 1.0) <= 1e-12
    assert np.abs(got - got.conj().T).max() <= 1e-13


@_SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), probabilities, seeds)))
def test_closed_form_depolarizing_is_the_pauli_sum(case):
    n, wire, p, seed = case
    rho = random_density(np.random.default_rng(seed), n)
    got = _depolarize_wire(rho.reshape((2,) * (2 * n)), wire, n, p).reshape(rho.shape)
    assert np.abs(got - pauli_depolarize(rho, wire, n, p)).max() <= 1e-15


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
    assert np.array_equal(embed(pg, n).array, expect)
