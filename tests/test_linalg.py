from __future__ import annotations

import io

import numpy as np
import pytest

from corrqec.correlated import build_new_U, make_channel, verify_block_structure
from corrqec.gates import CNOT, H, X, ry
from corrqec.hybrid import hybrid_encoder
from corrqec.linalg import (
    ComplexMatrix,
    equal_up_to_global_phase,
    is_unitary,
    matrix_to_text,
    max_abs_diff,
    tensor_power,
)


def parse_matrix_text(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), dtype=complex, ndmin=2)


def test_complex_matrix_basic_properties():
    m = ComplexMatrix([[1, 2j], [3, 4]])
    assert m.array.shape == (2, 2)
    assert m.array[0, 1] == 2j
    assert m.array.flags.writeable is False
    # numpy takes a gate's matrix directly; an explicit copy is the caller's
    for g in (X, H, CNOT, ry(0.3)):
        assert np.array_equal(np.asarray(g.matrix), g.matrix.array)
    assert np.asarray(X.matrix, dtype=np.complex64).dtype == np.complex64
    copy = np.array(X.matrix)
    copy[0, 0] = 5.0
    assert X.matrix.array[0, 0] == 0.0
    # numpy 1.x calls __array__() or __array__(dtype), never with `copy`
    assert np.array_equal(X.matrix.__array__(), X.matrix.array)
    assert X.matrix.__array__(complex).dtype == complex
    assert X.matrix.__array__(copy=True).flags.writeable
    # records that hold plain arrays compare and hash by identity, so the
    # generated == and hash do not raise on their ndarray fields
    records = {
        verify_block_structure(build_new_U(), H.matrix),
        make_channel(3, [(X, 1.0)]),
        hybrid_encoder(3),
    }
    assert len(records) == 3


def test_complex_matrix_from_flat_entries():
    with pytest.raises(ValueError):
        ComplexMatrix([1, 0, 0, 1j, 0, 0])  # flat entries are not a matrix
    m = ComplexMatrix(np.reshape([1, 0, 0, 1j, 0, 0], (2, 3)))
    assert m.array.shape == (2, 3)
    assert m.array[1, 0] == 1j


def test_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        ComplexMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ComplexMatrix([[np.nan, 0], [0, 1]])


def test_complex_matrix_is_immutable():
    m = ComplexMatrix(np.eye(2))
    with pytest.raises((ValueError, AttributeError)):
        m.array[0, 0] = 5.0


def test_kron_first_argument_is_most_significant():
    # kron(|0><0|, I) + kron(|1><1|, X) is the CNOT controlled by the top
    # wire only when the first factor is the top wire.
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    x = np.array([[0, 1], [1, 0]])
    cnot = np.kron(p0, np.eye(2)) + np.kron(p1, x)
    assert np.array_equal(cnot, CNOT.matrix.array)


def test_kron_bilinear_and_mixed_product_randomized():
    """tensor_power(a, n) tensor_power(c, n) = tensor_power(a c, n), and a
    scalar factor comes out as its n-th power."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            left = tensor_power(a, n) @ tensor_power(c, n)
            assert np.abs(left - tensor_power(a @ c, n)).max() < 1e-12 * np.abs(left).max()
            s = complex(*rng.normal(size=2))
            scaled = tensor_power(s * a, n)
            assert np.abs(scaled - s**n * tensor_power(a, n)).max() < 1e-12 * np.abs(scaled).max()


def test_tensor_power_is_the_explicit_kron_chain():
    """Bit-for-bit equal to w (x) w (x) ... (x) w written out."""
    rng = np.random.default_rng(19)
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    chains = {
        1: w,
        2: np.kron(w, w),
        3: np.kron(np.kron(w, w), w),
        4: np.kron(np.kron(np.kron(w, w), w), w),
        5: np.kron(np.kron(np.kron(np.kron(w, w), w), w), w),
    }
    for n, chain in chains.items():
        got = tensor_power(w, n)
        assert got.shape == (2**n, 2**n)
        assert np.array_equal(got, chain), n
    assert np.array_equal(tensor_power(w, 0), np.ones((1, 1)))
    # one matrix only: a vector, a (k, 2, 2) stack or more axes is rejected
    for bad in (np.ones(2), np.ones((3, 2, 2)), np.ones((1, 1, 2, 2))):
        with pytest.raises(ValueError, match="tensor_power needs"):
            tensor_power(bad, 2)


def test_is_unitary():
    h = ComplexMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert is_unitary(h, 1e-12)
    assert not is_unitary(ComplexMatrix([[1, 0], [0, 2]]), 1e-12)
    with pytest.raises(ValueError):
        is_unitary(ComplexMatrix(np.ones((2, 3))), 1e-12)
    # one square matrix only: a stack of unitaries is rejected, not checked
    stack = np.array([np.eye(2), h.array, CNOT.matrix.array[:2, :2]])
    for bad in (stack, np.ones((2, 2, 3)), np.zeros((0, 2, 2)), np.ones((1, 1, 2, 2)), np.ones(2),
                np.zeros((0, 0))):
        with pytest.raises(ValueError, match="is_unitary needs"):
            is_unitary(bad, 1e-12)


def test_max_abs_diff():
    a = ComplexMatrix(np.eye(2))
    b = ComplexMatrix([[1, 0], [0, 1 + 3e-4j]])
    assert max_abs_diff(a, a) == 0.0
    assert abs(max_abs_diff(a, b) - 3e-4) < 1e-18
    with pytest.raises(ValueError):
        max_abs_diff(a, ComplexMatrix(np.eye(3)))


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for theta in (0.0, 0.4, np.pi, -2.1):
        assert equal_up_to_global_phase(
            ComplexMatrix(a), ComplexMatrix(np.exp(1j * theta) * a), 1e-10
        )
    assert not equal_up_to_global_phase(ComplexMatrix(a), ComplexMatrix(a + 1.0), 1e-10)
    # zero matrices are equal only to zero
    z = ComplexMatrix(np.zeros((2, 2)))
    assert equal_up_to_global_phase(z, z, 1e-12)
    assert not equal_up_to_global_phase(z, ComplexMatrix(np.eye(2)), 1e-12)
    assert not equal_up_to_global_phase(ComplexMatrix(np.eye(2)), z, 1e-12)


def test_text_round_trip():
    rng = np.random.default_rng(17)
    m = ComplexMatrix(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    back = parse_matrix_text(matrix_to_text(m))
    assert back.shape == (3, 2)
    assert max_abs_diff(m, back) == 0.0


def test_text_format_shape():
    text = matrix_to_text(ComplexMatrix([[1, -1j], [0.5, 0]]))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert all(len(line.split()) == 2 for line in lines)
    # every token parses back as a python complex
    for line in lines:
        for tok in line.split():
            complex(tok)
