from __future__ import annotations

import numpy as np
import pytest

from corrqec import circuit
from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    Histogram,
    NoiseModel,
    StateVector,
    apply,
    attack,
    basis_state,
    born_distribution,
    circuit_to_text,
    dagger_circuit,
    fidelity,
    partial_trace,
    pauli_fault_distribution,
    realize,
    sample_counts,
    tensor,
    to_density,
)
from corrqec.gates import CNOT, H, X, Z, Gate, PlacedGate, controlled, ry
from corrqec.hybrid import encoder_circuit
from corrqec.linalg import ComplexMatrix


def bell_circuit() -> Circuit:
    return Circuit(2, (PlacedGate(H, (0,)), PlacedGate(CNOT, (0, 1))))


def test_state_vector_validation():
    StateVector(np.array([1.0, 0.0], dtype=complex), 1)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex), 1)  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), 1)
    with pytest.raises(ValueError):
        StateVector([])  # no amplitudes: no width to take a log of


def test_basis_state_string_and_index():
    s = basis_state(3, "010")
    assert s.amplitudes[2] == 1.0
    assert np.array_equal(s.amplitudes, basis_state(3, 2).amplitudes)
    with pytest.raises(ValueError):
        basis_state(2, "012")
    with pytest.raises(ValueError):
        basis_state(2, "0")
    assert np.array_equal(basis_state(2, 3).amplitudes, basis_state(2, "11").amplitudes)
    assert basis_state(2, np.int64(0)).amplitudes[0] == 1.0
    for index in (-1, 4, True, 1.0):  # no wrap-around, IndexError or bool-as-int
        with pytest.raises(ValueError):
            basis_state(2, index)


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
    diag = np.full(16, 1.01 / 15)
    diag[5] = -0.01  # negative mass on one outcome
    with pytest.raises(ValueError):
        DensityMatrix(np.diag(diag), 4)
    # one eigenvalue of -1e-6 behind a diagonal that looks fine: 255 equal
    # eigenvalues off the uniform superposition, -1e-6 on it
    proj = np.full((256, 256), 1 / 256)
    rho = (1 + 1e-6) / 255 * (np.eye(256) - proj) - 1e-6 * proj
    assert np.diag(rho).min() > 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(rho, 8)
    # NaN passes the Hermiticity and trace comparisons, so the shape and
    # finiteness checks come first
    for bad in ([[np.nan, 0], [0, 1]], [[1, 0], [0, np.inf]], [1.0, 0.0], np.zeros((0, 0)),
                np.zeros((2, 4))):
        with pytest.raises(ValueError):
            DensityMatrix(bad)
    # the state owns a read-only copy, from the constructor and from apply
    src = np.diag([1.0, 0.0]).astype(complex)  # already complex: no implicit copy
    rho = DensityMatrix(src, 1)
    src[0, 0] = 0.5
    assert rho.matrix[0, 0] == 1.0 and not rho.matrix.flags.writeable
    assert not apply(bell_circuit(), to_density(basis_state(2, 0))).matrix.flags.writeable


def test_circuit_validation():
    bell_circuit()
    with pytest.raises(ValueError):
        Circuit(1, (PlacedGate(CNOT, (0, 1)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_realize_orders_gates_left_of_earlier():
    c = Circuit(1, (PlacedGate(X, (0,)), PlacedGate(Z, (0,))))
    m = realize(c)
    # Z comes later, so the product is Z X, not X Z
    assert np.array_equal(m, Z.matrix.array @ X.matrix.array)


def test_realize_bell():
    m = realize(bell_circuit())
    expect = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
    ) / np.sqrt(2)
    assert np.abs(m - expect).max() < 1e-15


@pytest.mark.parametrize("n", (1, 3, 8))
def test_a_circuit_with_no_gates_realizes_a_fresh_identity(n):
    first, second = realize(Circuit(n, ())), realize(Circuit(n, ()))
    for m in (first, second):
        assert np.array_equal(m, np.eye(2**n))
        assert m.flags.writeable and m.flags.c_contiguous
    assert not np.shares_memory(first, second)


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
    assert np.abs(rho.matrix - np.outer(s.amplitudes, s.amplitudes.conj())).max() < 1e-12


def test_apply_wire_mismatch():
    with pytest.raises(ValueError):
        apply(bell_circuit(), basis_state(3, "000"))


def test_apply_noise_needs_a_density_matrix():
    s = basis_state(2, "00")
    for nm in (NoiseModel(p1=0.1), NoiseModel(p2=0.1)):
        with pytest.raises(ValueError):
            apply(bell_circuit(), s, nm)
    # readout noise acts on outcome distributions, not on the state
    for nm in (NoiseModel(), NoiseModel(p_readout=0.1)):
        assert np.array_equal(apply(bell_circuit(), s, nm).amplitudes,
                              apply(bell_circuit(), s).amplitudes)


def test_attack_takes_a_2x2_unitary():
    s = basis_state(2, "00")
    for w in (np.eye(4), [[1, 0], [0, 1.01]], [[1, 1], [0, 1]]):
        with pytest.raises(ValueError):
            attack(s, w)
        with pytest.raises(ValueError):
            attack(to_density(s), w)
    assert attack(s, X.matrix.array).amplitudes[3] == 1.0
    assert attack(to_density(s), X.matrix.array).matrix[3, 3] == 1.0


def test_dagger_circuit_inverts():
    c = bell_circuit()
    s = apply(dagger_circuit(c), apply(c, basis_state(2, "00")))
    assert abs(s.amplitudes[0] - 1.0) < 1e-12


def test_bell_state_and_partial_trace():
    s = apply(bell_circuit(), basis_state(2, "00"))
    assert np.abs(s.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-15
    red = partial_trace(to_density(s), [0])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12
    red = partial_trace(to_density(s), [1])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_state():
    s = tensor(basis_state(1, "1"), basis_state(1, "0"), basis_state(1, "1"))
    rho = to_density(s)
    for wire, bit in ((0, "1"), (1, "0"), (2, "1")):
        red = partial_trace(rho, [wire])
        assert fidelity(red, basis_state(1, bit)) > 1 - 1e-12
    both = partial_trace(rho, [0, 2])
    assert fidelity(both, basis_state(2, "11")) > 1 - 1e-12


def test_partial_trace_validation():
    # a state vector and its density matrix fail the same way
    s = basis_state(2, "00")
    for state in (to_density(s), s):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(state, [])
        for bad in ([5], [-1], [0, 2]):
            with pytest.raises(ValueError, match=r"out of range for 2 wires"):
                partial_trace(state, bad)


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


def test_sample_counts_in_chunks_keeps_the_stream(monkeypatch):
    # shots are drawn in fixed-size batches so memory does not grow with
    # them; batching must not change a single count
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    whole = sample_counts(probs, 1000, 5)
    monkeypatch.setattr(circuit, "_SAMPLE_CHUNK", 7)
    assert np.array_equal(sample_counts(probs, 1000, 5), whole)
    assert whole.sum() == 1000


@pytest.mark.parametrize("probs, message", [
    (np.array([[0.5, 0.5]]), "1-D"),
    (np.array([]), "1-D"),
    (np.array([0.5, np.nan, 0.5]), "finite and non-negative"),
    (np.array([0.5, -np.inf, 0.5]), "finite and non-negative"),
    (np.array([0.5, np.inf]), "sum to 1"),
    (np.array([1.5, -0.5]), "finite and non-negative"),
    (np.array([0.5, 0.5 + 1e-9]), "sum to 1"),
    (np.array([0.25, 0.25]), "sum to 1"),
])
def test_sample_counts_rejects_what_is_not_a_distribution(probs, message):
    # sorting the draws and counting them per bin needs a non-decreasing cdf
    with pytest.raises(ValueError, match=message):
        sample_counts(probs, 10, 0)


@pytest.mark.parametrize("shots", (0, -3, 2.0, True, "8"))
def test_sample_counts_takes_a_positive_integer_shot_count(shots):
    with pytest.raises(ValueError, match="shots must"):
        sample_counts(np.array([0.5, 0.5]), shots, 0)


@pytest.mark.parametrize("seed", (1.7, True, -1), ids=("float", "bool", "negative"))
def test_sample_counts_takes_a_non_negative_integer_seed(seed):
    # a float seed was truncated: 1.7 sampled as seed 1
    with pytest.raises(ValueError, match="seed must"):
        sample_counts(np.array([0.5, 0.5]), 10, seed)


def test_sample_counts_accepts_a_sum_off_by_rounding():
    probs = np.full(10, 0.1)  # sums to 0.9999999999999999
    assert sample_counts(probs, 1000, 1).sum() == 1000
    assert sample_counts(probs, np.int64(3), 1).sum() == 3


def test_a_circuit_hashes_its_gates_once_and_equal_circuits_share_caches():
    c = Circuit(3, (PlacedGate(H, (0,)), PlacedGate(CNOT, (0, 2)), PlacedGate(ry(0.3), (1,))))
    rebuilt = Circuit(c.n_wires, c.gates)
    assert rebuilt is not c and rebuilt == c
    assert hash(rebuilt) == hash(c) == hash((c.n_wires, c.gates))
    assert dagger_circuit(rebuilt) == dagger_circuit(c)
    first = circuit._effects(c, (1,), 0.01, 0.02)
    hits = circuit._effects.cache_info().hits
    assert circuit._effects(rebuilt, (1,), 0.01, 0.02) is first
    assert circuit._effects.cache_info().hits == hits + 1
    assert hash(Circuit(3, c.gates[:2])) != hash(c)


def test_a_gate_cache_hit_hashes_no_matrix(monkeypatch):
    # a gate and a placed gate keep the dataclass hash, computed once, so
    # a lookup in a cache keyed by them does not hash matrix bytes again
    gates = encoder_circuit(8).gates
    for pg in gates:
        assert hash(pg.gate) == hash((pg.gate.name, pg.gate.matrix, pg.gate.arity))
        assert hash(pg) == hash((pg.gate, pg.wires))
        circuit._sources(pg.gate)
    rebuilt = Gate(CNOT.name, ComplexMatrix(CNOT.matrix.array), CNOT.arity)
    assert rebuilt == CNOT and hash(rebuilt) == hash(CNOT)
    calls = []
    real = ComplexMatrix.__hash__
    monkeypatch.setattr(ComplexMatrix, "__hash__", lambda m: calls.append(m) or real(m))
    hits = circuit._sources.cache_info().hits
    for pg in gates:
        circuit._sources(pg.gate)
    assert circuit._sources(rebuilt) is circuit._sources(CNOT)
    assert circuit._sources.cache_info().hits == hits + len(gates) + 2
    assert calls == []


_TWO_WIRES = Circuit(2, (PlacedGate(H, (0,)),))


@pytest.mark.parametrize("build, message", [
    (lambda: PlacedGate(X, (1.7,)), "wire index must be an integer, got 1.7"),
    (lambda: PlacedGate(X, (True,)), "wire index must be an integer, got True"),
    (lambda: Gate("X", X.matrix, 1.0), "gate arity must be an integer, got 1.0"),
    (lambda: Circuit(2.5, ()), "n_wires must be an integer, got 2.5"),
    (lambda: StateVector(np.ones(4) / 2, 2.7), "n_wires must be an integer, got 2.7"),
    (lambda: DensityMatrix(np.eye(2) / 2, 1.5), "n_wires must be an integer, got 1.5"),
    (lambda: partial_trace(basis_state(2, "00"), [0.9]), "kept wire must be an integer, got 0.9"),
    (lambda: born_distribution(basis_state(2, "00"), [1.9]), "measured wire must be an integer, got 1.9"),
    (lambda: pauli_fault_distribution(_TWO_WIRES, Z.matrix.array, [0.5]),
     "measured wire must be an integer, got 0.5"),
    (lambda: basis_state(2.0, "01"), "n_wires must be an integer, got 2.0"),
], ids=["placed-float", "placed-bool", "gate-arity", "circuit", "vector", "density", "partial-trace", "born",
        "pauli-faults", "basis-state"])
def test_a_width_or_wire_that_is_not_an_integer_is_rejected(build, message):
    # each was truncated (1.7 acted on wire 1), accepted (a gate of arity
    # 1.0) or, for basis_state, a TypeError
    with pytest.raises(ValueError, match=message):
        build()


def test_histogram_validation():
    Histogram(n_measured=2, counts={"01": 3, "10": 1}, shots=4)
    with pytest.raises(ValueError):
        Histogram(n_measured=2, counts={"012": 1}, shots=1)
    with pytest.raises(ValueError):
        Histogram(n_measured=2, counts={"01": 1}, shots=5)
    with pytest.raises(ValueError):
        Histogram(n_measured=1, counts={"0": -1}, shots=-1)
    # non-physical fields are rejected by name, not accepted or a TypeError
    for build, field in [
        (lambda: Histogram(1, {"0": 0.5, "1": 0.5}, 1), r"counts\['0'\]"),
        (lambda: Histogram(1, {"0": True}, 1), r"counts\['0'\]"),
        (lambda: Histogram(1, {"0": 2}, 2.0), "shots"),
        (lambda: Histogram(-1, {}, 0), "n_measured"),
        (lambda: Histogram(1, {1: 5}, 5), "key 1 in counts"),
    ]:
        with pytest.raises(ValueError, match=field):
            build()
    Histogram(np.int64(2), {"01": np.int64(3), "11": 1}, np.int32(4))


def test_fidelity_examples():
    plus = StateVector(np.array([1, 1]) / np.sqrt(2), 1)
    assert abs(fidelity(plus, basis_state(1, "0")) - 0.5) < 1e-12
    assert abs(fidelity(basis_state(1, "0"), basis_state(1, "0")) - 1.0) < 1e-12
    assert fidelity(basis_state(1, "0"), basis_state(1, "1")) == 0.0
    rho = partial_trace(to_density(apply(bell_circuit(), basis_state(2, "00"))), [0])
    assert abs(fidelity(rho, basis_state(1, "0")) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity(basis_state(2, "00"), basis_state(1, "0"))
    # b is a state vector; a density matrix there raised AttributeError
    with pytest.raises(ValueError, match="b must be a StateVector, got DensityMatrix"):
        fidelity(rho, rho)


def test_circuit_to_text():
    text = circuit_to_text(bell_circuit())
    assert text == "H @ 0\nC1[X] @ 0,1\n"
    assert circuit_to_text(Circuit(1, ())) == ""
