from __future__ import annotations

import time

import numpy as np
import pytest

from corrqec import hybrid
from corrqec.circuit import Circuit, StateVector, _conjugated_pauli, _pauli_bits, basis_state, realize
from corrqec.gates import H, PlacedGate, ry
from corrqec.hybrid import (
    MAX_QUBITS,
    MIN_QUBITS,
    PAULI_TAGS,
    _encoder_circuit,
    _matrix_rec,
    ancilla_wires,
    attack_factor,
    conjugated_error,
    data_wires,
    encoder_circuit,
    error_unitary,
    hybrid_encoder,
    hybrid_protect,
    normalize_tag,
    p2_matrix,
    p3_matrix,
    parse_ancilla,
)
from corrqec.linalg import ComplexMatrix, is_unitary, max_abs_diff, tensor_power

# Expected ancilla-side action of each collective Pauli attack after
# decoding, as (phase, operator word) with one letter per ancilla wire.
# Verified against the matrix recursion; the parity-4 pattern in n comes
# from how the two-wire and three-wire stages stack.
CONJUGATION_TABLE = {
    2: {"X": (1, "IZ"), "Y": (-1, "ZI"), "Z": (1, "ZZ")},
    3: {"X": (1, "X"), "Y": (-1, "Y"), "Z": (1, "Z")},
    4: {"X": (1, "IZ"), "Y": (1, "ZI"), "Z": (1, "ZZ")},
    5: {"X": (1, "X"), "Y": (1, "Y"), "Z": (1, "Z")},
    6: {"X": (1, "IZ"), "Y": (-1, "ZI"), "Z": (1, "ZZ")},
    7: {"X": (1, "X"), "Y": (-1, "Y"), "Z": (1, "Z")},
    8: {"X": (1, "IZ"), "Y": (1, "ZI"), "Z": (1, "ZZ")},
}

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_XYZ_BITS = _pauli_bits(np.stack([_P1[tag] for tag in "XYZ"]))  # the attacks' (x, z) bits, for the walk


def pauli_word(word: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in word:
        m = np.kron(m, _P1[ch])
    return m


def test_p2_matrix():
    p2 = p2_matrix()
    assert is_unitary(p2, 1e-15)
    assert abs(p2[0, 0] - 1 / np.sqrt(2)) < 1e-15
    iz = np.kron(np.eye(2), _P1["Z"])
    xx = np.kron(_P1["X"], _P1["X"])
    assert max_abs_diff(p2, (iz + xx) / np.sqrt(2)) < 1e-15


def test_p3_matrix_is_the_right_permutation():
    p3 = p3_matrix()
    assert np.array_equal(p3 @ p3.conj().T, np.eye(8))
    # |abc> -> |a xor c, a xor b, a xor b xor c>, with a the top wire
    images = []
    for src in range(8):
        a, b, c = (src >> 2) & 1, (src >> 1) & 1, src & 1
        dst = ((a ^ c) << 2) | ((a ^ b) << 1) | (a ^ b ^ c)
        images.append(dst)
        col = np.zeros(8)
        col[dst] = 1.0
        assert np.array_equal(p3[:, src].real, col)
    # src -> dst images; the inverse (column index of each row) reads
    # [0, 7, 5, 2, 6, 1, 3, 4]
    assert images == [0, 5, 3, 6, 7, 2, 4, 1]
    # spot case: |111> -> |001>
    assert p3[1, 7] == 1.0


def test_encoder_recursion_n4():
    """P4 = (I2 (x) P3)(P2 (x) I4)."""
    got = hybrid_encoder(4).matrix
    expect = np.kron(np.eye(2), p3_matrix()) @ np.kron(p2_matrix(), np.eye(4))
    assert np.abs(got - expect).max() == 0.0


def test_encoder_recursion_n5():
    """P5 = (I4 (x) P3)(P3 (x) I4)."""
    got = hybrid_encoder(5).matrix
    expect = np.kron(np.eye(4), p3_matrix()) @ np.kron(p3_matrix(), np.eye(4))
    assert np.abs(got - expect).max() == 0.0


def test_encoders_are_unitary():
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        assert is_unitary(hybrid_encoder(n).matrix, 1e-12)


def test_circuits_realize_matrices_exactly():
    """The CNOT/H circuits hit the recursion matrices with no wire
    permutation and no residual phase."""
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        enc = hybrid_encoder(n)
        assert enc.circuit.n_wires == n
        assert max_abs_diff(realize(enc.circuit), enc.matrix) == 0.0


def test_circuit_gate_counts_grow_by_three():
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        enc = hybrid_encoder(n)
        assert len(enc.circuit.gates) == 3 * (n // 2)


def test_encoder_circuit_and_shared_encoder_matrix():
    """encoder_circuit is the shared circuit of hybrid_encoder, and the
    encoder matrix cannot be written to, as built and as handed out."""
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        assert not _matrix_rec(n).flags.writeable
        assert not hybrid_encoder(n).matrix.flags.writeable
        assert encoder_circuit(n) is hybrid_encoder(n).circuit


def test_width_limits():
    for bad in (1, 9, 0, -3):
        with pytest.raises(ValueError):
            hybrid_encoder(bad)
        with pytest.raises(ValueError):
            encoder_circuit(bad)
    with pytest.raises(ValueError):
        error_unitary(1, "x")
    # a width is an integer: a float is rejected, not truncated
    for bad in (3.9, 3.0, True):
        with pytest.raises(ValueError, match="register width"):
            hybrid_encoder(bad)
        with pytest.raises(ValueError, match="register width"):
            encoder_circuit(bad)
    assert hybrid_encoder(np.int64(3)).n_qubits == 3
    assert encoder_circuit(np.int64(4)) is encoder_circuit(4)


def test_wire_split():
    assert ancilla_wires(2) == (0, 1) and data_wires(2) == ()
    assert ancilla_wires(3) == (0,) and data_wires(3) == (1, 2)
    assert ancilla_wires(4) == (0, 1) and data_wires(4) == (2, 3)
    assert ancilla_wires(5) == (0,) and data_wires(5) == (1, 2, 3, 4)
    assert ancilla_wires(8) == (0, 1) and data_wires(8) == (2, 3, 4, 5, 6, 7)


def test_normalize_tag():
    assert normalize_tag("x") == "X"
    assert normalize_tag(" Z ") == "Z"
    with pytest.raises(ValueError):
        normalize_tag("w")


def test_error_unitary():
    got = error_unitary(3, "y")
    assert np.abs(got - pauli_word("YYY")).max() == 0.0


def test_conjugated_error_is_the_dense_conjugation():
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        p = hybrid_encoder(n).matrix
        for tag in PAULI_TAGS:
            dense = p.conj().T @ tensor_power(_P1[tag], n) @ p
            assert np.abs(conjugated_error(n, tag) - dense).max() <= 1e-15


def test_conjugated_identity_is_identity():
    for n in (2, 3, 4, 5):
        assert max_abs_diff(conjugated_error(n, "I"), np.eye(2**n)) < 1e-12


def test_conjugation_table():
    """Every collective Pauli decodes to a pure ancilla operation with the
    frozen phase and operator word; the data wires see nothing."""
    for n, row in CONJUGATION_TABLE.items():
        d = 2 ** (n - len(ancilla_wires(n)))
        for tag, (phase, word) in row.items():
            c = conjugated_error(n, tag)
            a = c[::d, ::d]
            assert max_abs_diff(a, phase * pauli_word(word)) < 1e-10
            assert np.abs(c - np.kron(a, np.eye(d))).max() < 1e-10


def test_encoder_matrices_are_real():
    # so P-dagger is P transposed, and no conjugate copy is needed
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        assert not _matrix_rec(n).imag.any()


def test_conjugated_pauli_is_the_dense_ancilla_block():
    """The GF(2) proof of `verify` against the dense reference: the decoded
    attack's ancilla bits are those of its dense ancilla block, its data bits are
    zero, and at even n it has no x bit (it is Z-type), which is why the
    ancilla bits read back deterministically."""
    for n in range(MIN_QUBITS, MAX_QUBITS + 1):
        anc, dw = list(ancilla_wires(n)), list(data_wires(n))
        d = 2 ** len(dw)
        walked = _conjugated_pauli(encoder_circuit(n), _XYZ_BITS)
        assert walked[0].shape == walked[1].shape == (3, n)
        for tag, x, z in zip("XYZ", *walked):
            c = conjugated_error(n, tag)
            block = c[::d, ::d]
            assert np.abs(c - np.kron(block, np.eye(d))).max() <= 1e-10
            assert np.array_equal(np.concatenate([x[anc], z[anc]]), _pauli_bits(block[None])[0])
            assert not x[dw].any() and not z[dw].any()
            assert n % 2 or not x.any()


# The decoded attack's ancilla bits, (x bits, z bits) on the ancilla wires,
# as CONJUGATION_TABLE gives them for n <= 8: the same Pauli on wire 0 at
# odd n, a Z-type word on wires 0..1 at even n.
_ODD_BITS = {"X": ((1,), (0,)), "Y": ((1,), (1,)), "Z": ((0,), (1,))}
_EVEN_BITS = {"X": ((0, 0), (0, 1)), "Y": ((0, 0), (1, 0)), "Z": ((0, 0), (1, 1))}


def test_conjugated_attacks_stay_off_the_data_up_to_256_wires():
    # the `verify` proof past MAX_QUBITS, through the uncapped circuit
    t0 = time.process_time()
    for n in (*range(9, 65), 255, 256):
        k, bits = (1, _ODD_BITS) if n % 2 else (2, _EVEN_BITS)
        for tag, x, z in zip("XYZ", *_conjugated_pauli(_encoder_circuit(n), _XYZ_BITS)):
            assert (tuple(x[:k]), tuple(z[:k])) == bits[tag], (n, tag)
            assert not x[k:].any() and not z[k:].any(), (n, tag)
    elapsed = time.process_time() - t0
    assert elapsed < 1.0, f"{elapsed:.2f} s of CPU time"


def test_parse_ancilla_even():
    assert parse_ancilla(4, "01") == "01"
    with pytest.raises(ValueError):
        parse_ancilla(4, "0")
    with pytest.raises(ValueError):
        parse_ancilla(4, "ry:0.3")
    with pytest.raises(ValueError):
        parse_ancilla(4, basis_state(2, "00"))  # states rejected, bits only
    # a number is not a bit string, even one whose digits are bits
    for bad in (11, 1, 1.0, None):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            parse_ancilla(4, bad)


def test_parse_ancilla_odd():
    s = parse_ancilla(3, "1")
    assert isinstance(s, StateVector) and s.amplitudes[1] == 1.0
    s = parse_ancilla(3, "ry:1.0")
    assert abs(s.amplitudes[0] - np.cos(0.5)) < 1e-12
    s2 = parse_ancilla(3, s)
    assert s2 is s
    with pytest.raises(ValueError):
        parse_ancilla(3, "00")
    with pytest.raises(ValueError):
        parse_ancilla(3, basis_state(2, "00"))
    # only a string or a state selects an odd-width ancilla: 1 is not '1'
    for bad in (1, 0, 1.0, None):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            parse_ancilla(3, bad)


def test_hybrid_protect_odd_x_attack():
    data = basis_state(2, "00")
    fid, rep = hybrid_protect(3, data, "0", ["X"])
    assert abs(fid - 1.0) < 1e-10
    # X decodes to a pure ancilla X, so |0> flips to |1>
    assert abs(rep.fidelity_vs_expected - 1.0) < 1e-10
    assert abs(rep.expected_state.amplitudes[1]) > 0.999


def test_hybrid_protect_odd_superposed_ancilla():
    rng = np.random.default_rng(79)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    data = StateVector(v / np.linalg.norm(v), 2)
    anc = f"ry:{3 * np.pi / 4}"
    for tag in ("X", "Y", "Z"):
        fid, rep = hybrid_protect(3, data, anc, [tag])
        assert abs(fid - 1.0) < 1e-10
        assert abs(rep.fidelity_vs_expected - 1.0) < 1e-10
    # Y rotates the ry ancilla within the real plane; check the exact image
    _, rep = hybrid_protect(3, data, anc, ["Y"])
    y = _P1["Y"]
    start = ry(3 * np.pi / 4).matrix.array @ np.array([1, 0], dtype=complex)
    expect = -(y @ start)
    overlap = abs(np.vdot(rep.expected_state.amplitudes, expect))
    assert abs(overlap - 1.0) < 1e-10


def test_hybrid_protect_even_basis_ancillas_certain():
    for n in (4, 6, 8):
        dw = len(data_wires(n))
        data = basis_state(dw, "0" * dw)
        for bits in ("00", "01", "10", "11"):
            for tag in ("I", "X", "Y", "Z"):
                fid, rep = hybrid_protect(n, data, bits, [tag])
                assert fid > 1 - 1e-10
                assert rep.preserved_with_certainty
                assert rep.readback_bits == bits
                assert abs(rep.readback_probability - 1.0) < 1e-10


def test_hybrid_protect_folds_errors_in_order():
    rng = np.random.default_rng(83)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    data = StateVector(v / np.linalg.norm(v), 2)
    fid, rep = hybrid_protect(3, data, "0", ["x", "y"])
    assert abs(fid - 1.0) < 1e-10
    # X then Y on every wire composes to (YX)^(x)3; ancilla side is
    # (+X) then (-Y) = -YX = iZ, and fidelity ignores the phase
    z_on_zero = _P1["Z"] @ np.array([1, 0], dtype=complex)
    overlap = abs(np.vdot(rep.expected_state.amplitudes, z_on_zero))
    assert abs(overlap - 1.0) < 1e-10


def test_odd_width_prediction_comes_from_the_circuit(monkeypatch):
    # the expected ancilla is read off the encoder circuit's Pauli walk, not
    # off P3 itself: an extra H first on wire 0 turns the walk's X into Z and
    # Z into X while P3 is unchanged, so X and Z miss the prediction entirely
    # (Y maps to -Y, the same state up to phase)
    real = hybrid.encoder_circuit(3)
    mutant = Circuit(3, (PlacedGate(H, (0,)), *real.gates))
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda n: mutant if n == 3 else real)
    data = basis_state(2, "00")
    for anc in ("0", "ry:0.7"):
        for tag in ("X", "Z"):
            _, rep = hybrid_protect(3, data, anc, [tag])
            assert rep.fidelity_vs_expected < 1e-9, (anc, tag)
        _, rep = hybrid_protect(3, data, anc, ["Y"])
        assert abs(rep.fidelity_vs_expected - 1.0) < 1e-10, anc


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hybrid_protect_builds_p_n_once(monkeypatch, n):
    widths = []
    real = hybrid._matrix_rec

    def counted(k):
        widths.append(k)
        return real(k)

    monkeypatch.setattr(hybrid, "_matrix_rec", counted)
    hybrid_protect(n, basis_state(n - 1, "0" * (n - 1)), "ry:0.7", ["x", "y"])
    assert widths.count(n) == 1


def test_attack_factor_is_the_ordered_product():
    assert np.array_equal(attack_factor([]), _P1["I"])
    assert np.array_equal(attack_factor(["X", "y"]), _P1["Y"] @ _P1["X"])
    assert np.array_equal(attack_factor(["x", "y", "z"]), _P1["Z"] @ _P1["Y"] @ _P1["X"])
    assert np.array_equal(attack_factor(["z", "z"]), _P1["I"])
    with pytest.raises(ValueError):
        attack_factor(["x", "q"])


@pytest.mark.parametrize("tags", ["xy", "x,y", "x"])
def test_a_bare_string_is_not_a_list_of_tags(tags):
    # one tag per character would read "xy" as X then Y, and "x,y" would fail on ","
    with pytest.raises(ValueError, match=f"got the string '{tags}'"):
        attack_factor(tags)
    with pytest.raises(ValueError, match=f"got the string '{tags}'"):
        hybrid_protect(3, basis_state(2, "00"), "0", tags)


def test_hybrid_protect_width_two_is_all_ancilla():
    for bits in ("00", "01", "10", "11"):
        for tag in ("X", "Y", "Z"):
            fid, rep = hybrid_protect(2, None, bits, [tag])
            assert fid == 1.0
            assert rep.preserved_with_certainty
            assert rep.readback_bits == bits
    with pytest.raises(ValueError):
        hybrid_protect(2, basis_state(1, "0"), "00", ["X"])


def test_hybrid_protect_data_shape_checked():
    with pytest.raises(ValueError):
        hybrid_protect(3, basis_state(1, "0"), "0", ["X"])
    with pytest.raises(ValueError):
        hybrid_protect(4, basis_state(2, "00"), "0", ["X"])  # ancilla too short
    with pytest.raises(ValueError):
        hybrid_protect(3, basis_state(2, "00"), "0", ["Q"])


def test_hybrid_protect_random_data_randomized():
    rng = np.random.default_rng(89)
    for n in range(3, MAX_QUBITS + 1):
        dw = len(data_wires(n))
        for _ in range(5):
            v = rng.normal(size=2**dw) + 1j * rng.normal(size=2**dw)
            data = StateVector(v / np.linalg.norm(v), dw)
            anc = "0" if n % 2 else "10"
            tags = [str(rng.choice(["X", "Y", "Z"])) for _ in range(3)]
            fid, _ = hybrid_protect(n, data, anc, tags)
            assert fid > 1 - 1e-9
