from __future__ import annotations

import numpy as np
import pytest

from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    Histogram,
    StateVector,
    apply,
    basis_state,
    born_distribution,
    circuit_to_text,
    dagger_circuit,
    fidelity,
    partial_trace,
    realize,
    sample_counts,
    tensor,
    to_density,
)
from corrqec.gates import CNOT, H, X, Z, PlacedGate, controlled, ry


def bell_circuit() -> Circuit:
    return Circuit(2, (PlacedGate(H, (0,)), PlacedGate(CNOT, (0, 1))))


def test_state_vector_validation():
    StateVector(np.array([1.0, 0.0], dtype=complex), 1)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex), 1)  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), 1)


def test_basis_state_string_and_index():
    s = basis_state(3, "010")
    assert s.amplitudes[2] == 1.0
    assert np.array_equal(s.amplitudes, basis_state(3, 2).amplitudes)
    with pytest.raises(ValueError):
        basis_state(2, "012")
    with pytest.raises(ValueError):
        basis_state(2, "0")


def test_tensor_first_is_most_significant():
    s = tensor(basis_state(1, "1"), basis_state(1, "0"))
    assert s.n_wires == 2
    assert s.amplitudes[2] == 1.0  # |10>


def test_density_matrix_validation():
    to_density(basis_state(1, "0"))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0], [0.1, 0.4]]), 1)  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), 1)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), 1)  # negative eigenvalue


def test_circuit_validation():
    bell_circuit()
    with pytest.raises(ValueError):
        Circuit(1, (PlacedGate(CNOT, (0, 1)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_realize_orders_gates_left_of_earlier():
    c = Circuit(1, (PlacedGate(X, (0,)), PlacedGate(Z, (0,))))
    m = realize(c).array
    # Z comes later, so the product is Z X, not X Z
    assert np.array_equal(m, Z.matrix.array @ X.matrix.array)


def test_realize_bell():
    m = realize(bell_circuit()).array
    expect = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
    ) / np.sqrt(2)
    assert np.abs(m - expect).max() < 1e-15


def test_apply_vector_and_density_agree():
    rng = np.random.default_rng(23)
    c = Circuit(
        2,
        (
            PlacedGate(ry(rng.uniform(-3, 3)), (1,)),
            PlacedGate(controlled(ry(rng.uniform(-3, 3)), 0), (1, 0)),
            PlacedGate(CNOT, (0, 1)),
        ),
    )
    s = apply(c, basis_state(2, "01"))
    rho = apply(c, to_density(basis_state(2, "01")))
    assert np.abs(rho.matrix.array - np.outer(s.amplitudes, s.amplitudes.conj())).max() < 1e-12


def test_apply_wire_mismatch():
    with pytest.raises(ValueError):
        apply(bell_circuit(), basis_state(3, "000"))


def test_dagger_circuit_inverts():
    c = bell_circuit()
    s = apply(dagger_circuit(c), apply(c, basis_state(2, "00")))
    assert abs(s.amplitudes[0] - 1.0) < 1e-12


def test_bell_state_and_partial_trace():
    s = apply(bell_circuit(), basis_state(2, "00"))
    assert np.abs(s.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-15
    red = partial_trace(to_density(s), [0])
    assert np.abs(red.matrix.array - np.eye(2) / 2).max() < 1e-12
    red = partial_trace(to_density(s), [1])
    assert np.abs(red.matrix.array - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_state():
    s = tensor(basis_state(1, "1"), basis_state(1, "0"), basis_state(1, "1"))
    rho = to_density(s)
    for wire, bit in ((0, "1"), (1, "0"), (2, "1")):
        red = partial_trace(rho, [wire])
        assert fidelity(red, basis_state(1, bit)) > 1 - 1e-12
    both = partial_trace(rho, [0, 2])
    assert fidelity(both, basis_state(2, "11")) > 1 - 1e-12


def test_partial_trace_validation():
    rho = to_density(basis_state(2, "00"))
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [5])


def test_born_distribution_bit_order():
    # |10>: wire 0 reads 1, wire 1 reads 0; smallest wire is the leftmost
    # character, so the joint outcome is '10' (index 2).
    s = basis_state(2, "10")
    p = born_distribution(s, [0, 1])
    assert np.array_equal(p, [0, 0, 1, 0])
    assert np.array_equal(born_distribution(s, [0]), [0, 1])
    assert np.array_equal(born_distribution(s, [1]), [1, 0])


def test_born_distribution_marginal():
    s = apply(bell_circuit(), basis_state(2, "00"))
    p = born_distribution(s, [0, 1])
    assert np.abs(p - [0.5, 0, 0, 0.5]).max() < 1e-12
    assert np.abs(born_distribution(s, [1]) - [0.5, 0.5]).max() < 1e-12
    # passes the positivity probes, yet one outcome has negative mass, which
    # the marginal on wire 0 alone would hide
    diag = np.full(16, 1.01 / 15)
    diag[5] = -0.01
    rho = DensityMatrix(np.diag(diag), 4)
    for wires in ([0, 1, 2, 3], [0]):
        with pytest.raises(ValueError):
            born_distribution(rho, wires)


def test_sample_counts_deterministic():
    probs = np.array([0.25, 0.75])
    a = sample_counts(probs, 1000, 42)
    b = sample_counts(probs, 1000, 42)
    assert np.array_equal(a, b)
    c = sample_counts(probs, 1000, 43)
    assert not np.array_equal(a, c)
    assert a.sum() == 1000


def test_sample_counts_accepts_generator():
    probs = np.array([0.5, 0.5])
    g1 = np.random.Generator(np.random.PCG64(9))
    g2 = np.random.Generator(np.random.PCG64(9))
    assert np.array_equal(sample_counts(probs, 500, g1), sample_counts(probs, 500, g2))


def test_histogram_validation():
    Histogram(n_measured=2, counts={"01": 3, "10": 1}, shots=4)
    with pytest.raises(ValueError):
        Histogram(n_measured=2, counts={"012": 1}, shots=1)
    with pytest.raises(ValueError):
        Histogram(n_measured=2, counts={"01": 1}, shots=5)
    with pytest.raises(ValueError):
        Histogram(n_measured=1, counts={"0": -1}, shots=-1)


def test_fidelity_examples():
    plus = StateVector(np.array([1, 1]) / np.sqrt(2), 1)
    assert abs(fidelity(plus, basis_state(1, "0")) - 0.5) < 1e-12
    assert abs(fidelity(basis_state(1, "0"), basis_state(1, "0")) - 1.0) < 1e-12
    assert fidelity(basis_state(1, "0"), basis_state(1, "1")) == 0.0
    rho = partial_trace(to_density(apply(bell_circuit(), basis_state(2, "00"))), [0])
    assert abs(fidelity(rho, basis_state(1, "0")) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity(basis_state(2, "00"), basis_state(1, "0"))


def test_circuit_to_text():
    text = circuit_to_text(bell_circuit())
    assert text == "H @ 0\nC1[X] @ 0,1\n"
    assert circuit_to_text(Circuit(1, ())) == ""
