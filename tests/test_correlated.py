from __future__ import annotations

import numpy as np
import pytest

from corrqec import correlated
from corrqec.circuit import (
    StateVector,
    attack,
    basis_state,
    fidelity,
    partial_trace,
    realize,
    tensor,
    to_density,
)
from corrqec.correlated import (
    DATA_WIRE,
    NEW_U_ENTRIES,
    OLD_U_ENTRIES,
    SINK_WIRE,
    THIRD_ANGLE,
    CorrelatedChannel,
    _erroneous_decomposition,
    _exact_encoder,
    apply_channel,
    atom_from_selector,
    basic_decomposition,
    block_theorem_defects,
    build_new_U,
    build_old_U,
    erroneous_decomposition_product,
    exact_gram_defects,
    make_channel,
    random_su2,
    recursive_data_wires,
    recursive_encoder,
    recursive_triples,
    standard_decomposition,
    three_qubit_protect,
    verify_block_structure,
)
from corrqec.gates import H, I, X, Y, Z, PlacedGate, embed
from corrqec.linalg import ComplexMatrix, is_unitary, max_abs_diff, tensor_power

S13 = np.sqrt(1.0 / 3.0)
S23 = np.sqrt(2.0 / 3.0)

# The six-stage product as printed to four decimals in the source being
# refuted, typed in by hand (rows top to bottom).
PRINTED_PRODUCT = np.array(
    [
        [0, 0, 0, 0, 0, -1, 0, 0],
        [0.7071, 0, 0.4082, 0, 0, 0, 0.5774, 0],
        [-0.7071, 0, 0.4082, 0, 0, 0, 0.5774, 0],
        [0, 0, 0, 0.8165, 0, 0, 0, -0.5774],
        [0, 0, -0.8165, 0, 0, 0, 0.5774, 0],
        [0, 0.7071, 0, -0.4082, 0, 0, 0, -0.5774],
        [0, -0.7071, 0, -0.4082, 0, 0, 0, -0.5774],
        [0, 0, 0, 0, 1, 0, 0, 0],
    ],
    dtype=complex,
)


def rand_qubits(rng, k: int) -> np.ndarray:
    """The (k, 2) amplitudes of k random qubits, four normals each: the
    real parts, then the imaginary parts. So k single draws take the
    normals of one draw of k, in the same order."""
    x = rng.normal(size=(k, 2, 2))
    v = x[:, 0] + 1j * x[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rand_qubit(rng) -> StateVector:
    return StateVector(rand_qubits(rng, 1)[0], 1)


def test_third_angle():
    assert abs(np.sin(THIRD_ANGLE) - S13) < 1e-15


def test_encoders_are_unitary():
    assert is_unitary(build_new_U(), 1e-12)
    assert is_unitary(build_old_U(), 1e-12)


def test_encoder_spot_entries():
    u = build_new_U()
    assert abs(u[0, 7] + 1.0) < 1e-15
    assert abs(u[1, 0] - S23) < 1e-15
    assert abs(u[1, 4] - S13) < 1e-15


def test_encoders_share_first_four_columns():
    new = build_new_U()
    old = build_old_U()
    assert np.abs(new[:, :4] - old[:, :4]).max() == 0.0
    # the corrected version rebuilds the other half completely
    assert np.abs(new - old).max() > 0.9


def test_new_u_table_is_read_fresh():
    """build_new_U must reflect edits to the module-level table."""
    saved = NEW_U_ENTRIES[0][7]
    try:
        NEW_U_ENTRIES[0][7] = 0.25
        assert abs(build_new_U()[0, 7] - 0.25) < 1e-15
    finally:
        NEW_U_ENTRIES[0][7] = saved
    assert abs(build_new_U()[0, 7] + 1.0) < 1e-15


def test_standard_decomposition_matches_encoder():
    c = standard_decomposition()
    assert len(c.gates) == 6
    assert max_abs_diff(realize(c), build_new_U()) < 1e-12


def test_standard_decomposition_gate_profile():
    names = [pg.gate.name for pg in standard_decomposition().gates]
    assert names.count("C1[X]") == 2
    assert names.count("Z") == 1
    assert sum(1 for n in names if n.startswith("C0[")) == 3


def test_basic_decomposition_matches_encoder():
    c = basic_decomposition()
    assert len(c.gates) == 14
    assert max_abs_diff(realize(c), build_new_U()) < 1e-12


def test_basic_decomposition_gate_profile():
    gates = basic_decomposition().gates
    assert sum(1 for pg in gates if pg.gate.arity == 2) == 6
    assert sum(1 for pg in gates if pg.gate.arity == 1) == 8
    # every two-wire gate in the basic form is a plain CNOT
    assert all(pg.gate.name == "C1[X]" for pg in gates if pg.gate.arity == 2)


def test_decompositions_agree_with_each_other():
    assert max_abs_diff(realize(standard_decomposition()), realize(basic_decomposition())) < 1e-12


def test_erroneous_product_reproduces_printed_matrix():
    """The six published stages multiply to the published 4-decimal matrix,
    so the refutation targets what was actually printed, not a typo."""
    m = erroneous_decomposition_product()
    assert is_unitary(m, 1e-10)
    assert np.abs(m - PRINTED_PRODUCT).max() < 5e-5
    # each printed entry is +-sqrt(j/6) for a whole j (+-1/sqrt(2), +-1/sqrt(6),
    # +-1/sqrt(3), +-sqrt(2/3), +-1); the six gates give that closed form
    closed = np.sign(PRINTED_PRODUCT.real) * np.sqrt(np.round(6 * PRINTED_PRODUCT.real**2) / 6)
    assert np.abs(m - closed).max() < 1e-15


def test_erroneous_product_is_not_the_legacy_encoder():
    d = max_abs_diff(erroneous_decomposition_product(), build_old_U())
    assert d >= 0.5
    # and it is no better a match for the corrected encoder
    assert max_abs_diff(erroneous_decomposition_product(), build_new_U()) >= 0.5


def test_block_structure_identity():
    rep = verify_block_structure(build_new_U(), I.matrix)
    assert rep.off_diag_norm < 1e-15
    assert max_abs_diff(rep.top_left, np.eye(4)) < 1e-15
    assert max_abs_diff(rep.bottom_right, np.eye(4)) < 1e-15


def test_block_structure_hadamard_has_determinant_phase():
    """For the Hadamard attack the data block is -(I (x) H): H has
    determinant -1 and the construction pins the block to det(W) * W."""
    rep = verify_block_structure(build_new_U(), H.matrix)
    i2h = np.kron(np.eye(2), H.matrix.array)
    assert rep.off_diag_norm < 1e-12
    assert max_abs_diff(rep.top_left, -i2h) < 1e-12


def test_block_structure_pauli_attacks():
    for g, det in ((X, -1.0), (Y, -1.0), (Z, -1.0)):
        rep = verify_block_structure(build_new_U(), g.matrix)
        block = np.kron(np.eye(2), det * g.matrix.array)
        assert rep.off_diag_norm < 1e-12
        assert max_abs_diff(rep.top_left, block) < 1e-12


def test_block_structure_haar_randomized():
    rng = np.random.default_rng(31)
    u = build_new_U()
    for _ in range(100):
        w = random_su2(rng)
        rep = verify_block_structure(u, w)
        assert rep.off_diag_norm < 1e-10
        assert max_abs_diff(rep.top_left, np.kron(np.eye(2), w)) < 1e-10


def test_block_structure_general_phase():
    """An arbitrary U(2) attack scales the data block by its determinant."""
    rng = np.random.default_rng(37)
    for _ in range(10):
        w = random_su2(rng) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        rep = verify_block_structure(build_new_U(), ComplexMatrix(w))
        det = np.linalg.det(w)
        assert rep.off_diag_norm < 1e-10
        assert max_abs_diff(rep.top_left, det * np.kron(np.eye(2), w)) < 1e-10


def _symbols(w) -> np.ndarray:
    """W = [[a, c], [b, d]]'s 20 degree-3 monomials, in the order of the
    exact tables: each a sorted triple of symbols a, b, c, d = 0..3."""
    a, c, b, d = np.asarray(w).reshape(4)
    values = (a, b, c, d)
    keys = sorted({tuple(sorted(t)) for t in np.ndindex(4, 4, 4)})
    return np.array([values[i] * values[j] * values[k] for i, j, k in keys])


def test_the_exact_tables_evaluate_to_their_float_meaning():
    # the ring product is sqrt(s) sqrt(t), the monomial table is W (x) 3 and
    # the block form is 6 det(W) (I (x) W), at random complex W
    roots = np.sqrt(correlated._RADICANDS)
    assert np.allclose(correlated._PRODUCT @ roots, np.outer(roots, roots), rtol=0, atol=1e-14)
    assert not correlated._BLOCK_FORM[:, 1:].any()  # rational coefficients only
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mono = _symbols(w)
        assert max_abs_diff(correlated._MONOMIALS @ mono, tensor_power(w, 3)) <= 1e-13
        form = correlated._BLOCK_FORM[:, 0] @ mono  # (p, q)
        want = np.zeros((8, 8), dtype=complex)
        want[:4, :4] = 6 * np.linalg.det(w) * np.kron(np.eye(2), w)
        assert max_abs_diff(form, want) <= 1e-12


def test_the_exact_block_theorem_holds_for_both_encoder_tables():
    # the published encoder's error was in its decomposition, not its table
    for entries in (NEW_U_ENTRIES, OLD_U_ENTRIES):
        read = _exact_encoder(entries)
        assert block_theorem_defects(read) == (0, 0)
        assert exact_gram_defects(read) == 0


def test_a_column_swap_breaks_the_exact_block_theorem_but_not_orthogonality():
    u = np.array(NEW_U_ENTRIES)
    u[:, [3, 4]] = u[:, [4, 3]]
    read = _exact_encoder(u)
    assert block_theorem_defects(read) == (8, 3)
    assert exact_gram_defects(read) == 0
    # a swap inside the bottom-right block leaves the theorem true
    u = np.array(NEW_U_ENTRIES)
    u[:, [4, 5]] = u[:, [5, 4]]
    assert block_theorem_defects(_exact_encoder(u)) == (0, 0)


def test_a_zeroed_entry_breaks_the_exact_gram_matrix():
    u = np.array(NEW_U_ENTRIES)
    u[0, 7] = 0.0  # 0 is a ring value, so only the Gram matrix sees it
    read = _exact_encoder(u)
    assert exact_gram_defects(read) == 1
    assert block_theorem_defects(read) == (0, 0)


def test_the_exact_reader_rejects_a_rotated_column_and_a_bad_shape():
    u, t = np.array(NEW_U_ENTRIES), 1e-4
    u[:, 4], u[:, 5] = np.cos(t) * u[:, 4] + np.sin(t) * u[:, 5], np.cos(t) * u[:, 5] - np.sin(t) * u[:, 4]
    assert is_unitary(u, 1e-12)  # still an encoder, but not the corrected one
    with pytest.raises(ValueError, match=r"entry \(1, 4\) = .*: sqrt\(6\) times it is not 0"):
        _exact_encoder(u)
    with pytest.raises(ValueError, match="8x8"):
        _exact_encoder(np.eye(4))
    # 1e-12 is the reading tolerance: a rounding residual reads exactly
    u = np.array(NEW_U_ENTRIES)
    u[1, 0] += 1e-14
    assert block_theorem_defects(_exact_encoder(u)) == (0, 0)


def test_verify_block_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_block_structure(ComplexMatrix(np.eye(8) * 2), I.matrix)
    with pytest.raises(ValueError):
        verify_block_structure(ComplexMatrix(np.eye(4)), I.matrix)
    with pytest.raises(ValueError):
        verify_block_structure(build_new_U(), ComplexMatrix(np.eye(4)))
    # one W only: a (k, 2, 2) stack of unitaries is rejected like any other shape
    ws = np.array([random_su2(np.random.default_rng(seed)) for seed in range(3)])
    for bad in (ws, ws[:1], np.zeros((0, 2, 2)), np.tile(np.eye(4), (3, 1, 1)), np.ones((1, 1, 2, 2))):
        with pytest.raises(ValueError, match="2x2"):
            verify_block_structure(build_new_U(), bad)


def test_channel_validation():
    make_channel(3, [(X, 0.5), (Z, 0.5)])
    with pytest.raises(ValueError):
        make_channel(3, [(X, 0.7), (Z, 0.2)])  # sums to 0.9
    with pytest.raises(ValueError, match="probabilities sum to 0"):
        make_channel(3, [])  # named before any atom is checked
    with pytest.raises(ValueError):
        make_channel(3, [(X, 1.5), (Z, -0.5)])  # negative weight
    with pytest.raises(ValueError):
        make_channel(3, [(ComplexMatrix([[1, 0], [0, 2]]), 1.0)])  # not unitary
    with pytest.raises(ValueError):
        make_channel(3, [(ComplexMatrix(np.eye(3)), 1.0)])  # wrong size
    with pytest.raises(ValueError):
        CorrelatedChannel(0, ((ComplexMatrix(np.eye(2)), 1.0),))
    # NaN passes both `p < 0` and the sum's tolerance, so it is named first;
    # a channel holding it would give `three_qubit_protect` a nan fidelity
    for support in ([(H, np.nan)], [(X, 0.5), (Z, np.nan)], [(X, np.inf), (Z, -np.inf)],
                    [(X, 1.0), (Z, float("nan"))]):
        with pytest.raises(ValueError, match="not finite"):
            make_channel(3, support)
    # a width is an integer: a float is rejected, not truncated
    for bad in (3.5, 3.0, True):
        with pytest.raises(ValueError, match="n_qubits"):
            make_channel(bad, [(X, 1.0)])
    assert type(make_channel(np.int64(3), [(X, 1.0)]).n_qubits) is int
    # atoms are copied once: the caller's array can change, the channel cannot
    w = np.array(X.matrix.array)
    ch = make_channel(3, [(w, 1.0)])
    w[:] = np.eye(2)
    assert np.array_equal(ch.support[0][0], X.matrix.array)
    assert not ch.support[0][0].flags.writeable
    # each atom is its own read-only copy, beside its weight
    ch = make_channel(3, [(X, 0.25), (H, 0.75)])
    assert [p for _, p in ch.support] == [0.25, 0.75]
    for (w, _), g in zip(ch.support, (X, H)):
        assert w.shape == (2, 2) and not w.flags.writeable
        assert np.array_equal(w, g.matrix.array) and not np.shares_memory(w, g.matrix.array)
    # each atom is checked on its own: one non-unitary atom among unitary
    # ones fails the channel
    with pytest.raises(ValueError, match="not unitary"):
        make_channel(3, [(X, 0.5), (H, 0.25), (np.array(Z.matrix.array) * (1 + 1e-9), 0.25)])


def test_apply_channel_preserves_trace():
    rng = np.random.default_rng(41)
    ch = make_channel(2, [(random_su2(rng), 0.3), (random_su2(rng), 0.7)])
    rho = to_density(tensor(rand_qubit(rng), rand_qubit(rng)))
    out = apply_channel(ch, rho)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_channel(ch, to_density(basis_state(3, "000")))


def test_apply_channel_identity():
    rng = np.random.default_rng(43)
    rho = to_density(tensor(rand_qubit(rng), rand_qubit(rng)))
    out = apply_channel(make_channel(2, [(I, 1.0)]), rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_three_qubit_protect_hadamard():
    rng = np.random.default_rng(47)
    ch = make_channel(3, [(H, 1.0)])
    psi, v = rand_qubit(rng), rand_qubit(rng)
    fid, out = three_qubit_protect(psi, v, ch)
    assert abs(fid - 1.0) < 1e-9
    # the ancilla returns to |0> and the sink carries H v exactly
    assert fidelity(partial_trace(out, [0]), basis_state(1, "0")) > 1 - 1e-9
    hv = StateVector(H.matrix.array @ v.amplitudes, 1)
    assert fidelity(partial_trace(out, [SINK_WIRE]), hv) > 1 - 1e-9


def test_three_qubit_protect_random_mixture_three_rounds():
    rng = np.random.default_rng(53)
    atoms = [(random_su2(rng), 0.1) for _ in range(10)]
    ch = make_channel(3, atoms)
    for rounds in (1, 3, 7):
        for _ in range(5):
            fid, out = three_qubit_protect(rand_qubit(rng), rand_qubit(rng), ch, rounds=rounds)
            assert abs(fid - 1.0) < 1e-9
            assert fidelity(partial_trace(out, [0]), basis_state(1, "0")) > 1 - 1e-9


def test_three_qubit_protect_identity_channel_is_exact():
    rng = np.random.default_rng(59)
    psi = rand_qubit(rng)
    fid, out = three_qubit_protect(psi, rand_qubit(rng), make_channel(3, [(I, 1.0)]))
    assert abs(fid - 1.0) < 1e-12
    assert fidelity(partial_trace(out, [DATA_WIRE]), psi) > 1 - 1e-12


def test_three_qubit_protect_validation():
    rng = np.random.default_rng(61)
    ch2 = make_channel(2, [(I, 1.0)])
    with pytest.raises(ValueError):
        three_qubit_protect(rand_qubit(rng), rand_qubit(rng), ch2)
    ch3 = make_channel(3, [(I, 1.0)])
    with pytest.raises(ValueError):
        three_qubit_protect(basis_state(2, "00"), rand_qubit(rng), ch3)
    with pytest.raises(ValueError):
        three_qubit_protect(rand_qubit(rng), rand_qubit(rng), ch3, rounds=0)
    # rounds is a count: a float is rejected, not truncated
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="rounds"):
            three_qubit_protect(rand_qubit(rng), rand_qubit(rng), ch3, rounds=bad)
    psi = rand_qubit(rng)
    fid, _ = three_qubit_protect(psi, rand_qubit(rng), ch3, rounds=np.int64(2))
    assert abs(fid - 1.0) < 1e-12


_RECOVERY_SEED = 20240815  # seeds the sampled recoveries below


def test_sampled_three_qubit_recovery_under_h_and_a_mixture_over_three_rounds():
    rng = np.random.default_rng(_RECOVERY_SEED + 1)
    worst, _ = three_qubit_protect(rand_qubit(rng), rand_qubit(rng), make_channel(3, [(H, 1.0)]), 1)
    ch = make_channel(3, [(random_su2(rng), 0.2) for _ in range(5)])
    fid, _ = three_qubit_protect(rand_qubit(rng), rand_qubit(rng), ch, 3)
    assert min(worst, fid) >= 1 - 1e-9


def test_the_five_wire_recovery_reads_its_samples_as_one_at_a_time():
    # |0, psi1, v, psi2, 0> encoded by `recursive_encoder(2)`, attacked by
    # W on every wire and decoded, one sample at a time through `attack`,
    # `partial_trace` and `fidelity`: wires 0..4 read back |0>, psi1, W v,
    # psi2 and |0>
    rng = np.random.default_rng(_RECOVERY_SEED + 2)
    ws = [random_su2(rng) for _ in range(3)]
    qubits = rand_qubits(rng, 9).reshape(3, 3, 2)
    enc = realize(recursive_encoder(2))
    zero = basis_state(1, "0")
    for s, w in enumerate(ws):
        psi1, psi2, v = (StateVector(q, 1) for q in qubits[s])
        full = tensor(zero, psi1, v, psi2, zero)
        out = StateVector(enc.conj().T @ attack(StateVector(enc @ full.amplitudes, 5), w).amplitudes, 5)
        targets = (zero, psi1, StateVector(w @ v.amplitudes, 1), psi2, zero)
        for wire, target in enumerate(targets):
            assert fidelity(partial_trace(out, [wire]), target) >= 1 - 1e-9, (s, wire)
    # one draw of nine qubits gives what nine `rand_qubit` calls give
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(rand_qubits(b, 9), [rand_qubit(a).amplitudes for _ in range(9)])


def test_recursive_layout():
    assert recursive_triples(1) == [(0, 1, 2)]
    assert recursive_triples(2) == [(4, 3, 2), (0, 1, 2)]
    assert recursive_triples(3) == [(4, 3, 2), (6, 5, 4), (0, 1, 2)]
    assert recursive_data_wires(1) == [1]
    assert recursive_data_wires(2) == [1, 3]
    assert recursive_data_wires(3) == [1, 3, 5]
    with pytest.raises(ValueError):
        recursive_triples(0)
    # k is an integer: a float is rejected, not truncated
    for bad in (2.7, 2.0, True):
        with pytest.raises(ValueError, match="k must"):
            recursive_triples(bad)
        with pytest.raises(ValueError, match="k must"):
            recursive_encoder(bad)
        with pytest.raises(ValueError, match="k must"):
            recursive_data_wires(bad)
    for bad in (0, -1):  # no layout has fewer than one data wire
        with pytest.raises(ValueError, match="k must be at least 1"):
            recursive_data_wires(bad)
    assert recursive_data_wires(np.int64(2)) == [1, 3]
    assert recursive_encoder(np.int64(2)) == recursive_encoder(2)


def test_fixed_circuits_are_built_once():
    assert standard_decomposition() is standard_decomposition()
    assert basic_decomposition() is basic_decomposition()
    assert recursive_encoder(2) is recursive_encoder(np.int64(2))
    assert _erroneous_decomposition() is _erroneous_decomposition()
    # the product is realized afresh, so a caller may not alter a shared one
    assert erroneous_decomposition_product() is not erroneous_decomposition_product()


@pytest.mark.parametrize("bad", (True, 1.0, 0))
def test_recursive_encoder_checks_k_before_its_cache(bad):
    with pytest.raises(ValueError, match="k must"):
        recursive_encoder(bad)


def test_recursive_encoder_base_case_is_standard():
    assert circuits_equal(recursive_encoder(1), standard_decomposition())


def circuits_equal(a, b) -> bool:
    return a.n_wires == b.n_wires and a.gates == b.gates


def test_recursive_encoder_k2_matrix():
    """Five-wire encoder equals the two embedded copies of the base
    encoder, the higher triple applied first."""
    got = realize(recursive_encoder(2))
    u = build_new_U()
    lower = embed_unitary(u, (0, 1, 2), 5)
    upper = embed_unitary(u, (4, 3, 2), 5)
    assert np.abs(got - lower @ upper).max() < 1e-13


def embed_unitary(u, wires, n) -> np.ndarray:
    """Expand an 8x8 unitary placed on three wires to the full register."""
    from corrqec.gates import Gate

    g = Gate("U3", u if isinstance(u, ComplexMatrix) else ComplexMatrix(u), 3)
    return embed(PlacedGate(g, tuple(wires)), n)


def test_recursive_encoder_k2_protects_two_qubits():
    rng = np.random.default_rng(67)
    enc = realize(recursive_encoder(2))
    for _ in range(20):
        w = random_su2(rng)
        wn = np.array([[1.0 + 0j]])
        for _ in range(5):
            wn = np.kron(wn, w)
        psi1, psi2, v = rand_qubit(rng), rand_qubit(rng), rand_qubit(rng)
        state = tensor(basis_state(1, "0"), psi1, v, psi2, basis_state(1, "0"))
        out = enc.conj().T @ wn @ enc @ state.amplitudes
        rho = to_density(StateVector(out, 5))
        assert fidelity(partial_trace(rho, [1]), psi1) > 1 - 1e-9
        assert fidelity(partial_trace(rho, [3]), psi2) > 1 - 1e-9
        for zero_wire in (0, 4):
            assert fidelity(partial_trace(rho, [zero_wire]), basis_state(1, "0")) > 1 - 1e-9
        wv = StateVector(w @ v.amplitudes, 1)
        assert fidelity(partial_trace(rho, [2]), wv) > 1 - 1e-9


def test_recursive_encoder_k3_spot_check():
    rng = np.random.default_rng(71)
    enc = realize(recursive_encoder(3))
    w = random_su2(rng)
    wn = np.array([[1.0 + 0j]])
    for _ in range(7):
        wn = np.kron(wn, w)
    data = [rand_qubit(rng) for _ in range(3)]
    v = rand_qubit(rng)
    state = tensor(
        basis_state(1, "0"), data[0], v, data[1], basis_state(1, "0"),
        data[2], basis_state(1, "0"),
    )
    out = enc.conj().T @ wn @ enc @ state.amplitudes
    rho = to_density(StateVector(out, 7))
    for wire, target in zip((1, 3, 5), data):
        assert fidelity(partial_trace(rho, [wire]), target) > 1 - 1e-9
    for wire in (0, 4, 6):
        assert fidelity(partial_trace(rho, [wire]), basis_state(1, "0")) > 1 - 1e-9


def test_atom_selectors():
    for name, gate in (("h", H), ("x", X), ("y", Y), ("z", Z), ("i", I)):
        assert max_abs_diff(atom_from_selector(name), gate.matrix) == 0.0
    m = atom_from_selector("ry:0.5")
    assert abs(m[0, 0] - np.cos(0.25)) < 1e-15
    m = atom_from_selector('matrix:[[[0,0],[0,-1]],[[0,1],[0,0]]]')
    assert max_abs_diff(m, Y.matrix) == 0.0
    for sel in ("h", "ry:0.5", 'matrix:[[[0,0],[0,-1]],[[0,1],[0,0]]]'):
        assert not atom_from_selector(sel).flags.writeable  # a gate's own matrix
    with pytest.raises(ValueError):
        atom_from_selector("q")
    for bad in (
        "matrix:[[[1,0]]]",  # not 2x2
        "matrix:[[1]]",  # entries are not [re, im] pairs
        "matrix:[[[1,0],[0,0]]",  # malformed JSON
        "matrix:[[[1,0],[1,0]],[[0,0],[1,0]]]",  # not unitary
        "matrix:[[[2,0],[0,0]],[[0,0],[0.5,0]]]",  # not unitary, determinant 1
    ):
        with pytest.raises(ValueError):
            atom_from_selector(bad)
    # JSON booleans are not numbers, and a ragged or empty input is not 2x2:
    # each is named by the selector's message, not by numpy's
    for bad in (
        "matrix:[[[true,0],[0,0]],[[0,0],[1,0]]]",
        "matrix:[[[1,0],[0,false]],[[0,0],[1,0]]]",
        "matrix:[[[1,0],[0,0]],[[0,0]]]",
        "matrix:[[[1,0]],[[0,0],[1,0]]]",
        "matrix:[]",
        "matrix:[[],[]]",
        "matrix:[[[1,0]]]",
    ):
        with pytest.raises(ValueError, match=r"^matrix selector must be a JSON 2x2 of \[re, im\] pairs \("):
            atom_from_selector(bad)


def su2_one_sample(rng):
    """The single-sample recipe written out: two 2x2 normal draws, QR,
    the phases of R's diagonal, then the square root of the determinant."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q))


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(73)
    for _ in range(20):
        w = random_su2(rng)
        assert is_unitary(w, 1e-12)
        assert abs(np.linalg.det(w) - 1.0) < 1e-12
    # each draw is the written-out recipe bit for bit, and leaves the
    # generator where the recipe leaves it, so every seeded sample holds
    for seed in range(10):
        drawn, written = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert random_su2(drawn).tobytes() == su2_one_sample(written).tobytes()
        assert drawn.random() == written.random()
