from __future__ import annotations

import numpy as np
import pytest

from corrqec.gates import (
    CNOT,
    H,
    I,
    X,
    Y,
    Z,
    Gate,
    PlacedGate,
    controlled,
    embed,
    format_placed_gate,
    inverse,
    ry,
    ry_from_text,
    ry_x,
    x_ry,
)
from corrqec.linalg import ComplexMatrix, is_unitary, max_abs_diff

S13 = np.sqrt(1.0 / 3.0)
S23 = np.sqrt(2.0 / 3.0)


def test_pauli_constants():
    assert np.array_equal(X.matrix.array, [[0, 1], [1, 0]])
    assert np.array_equal(Y.matrix.array, [[0, -1j], [1j, 0]])
    assert np.array_equal(Z.matrix.array, [[1, 0], [0, -1]])
    assert np.array_equal(I.matrix.array, np.eye(2))
    assert max_abs_diff(H.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2)) == 0.0
    for g in (I, X, Y, Z, H):
        assert g.arity == 1


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("bad", ComplexMatrix([[1, 0], [0, 2]]), 1)
    with pytest.raises(ValueError):
        Gate("bad", ComplexMatrix(np.eye(2)), 2)
    with pytest.raises(ValueError):
        Gate("bad", ComplexMatrix(np.eye(2)), 0)


def test_placed_gate_validation():
    PlacedGate(CNOT, (0, 1))
    with pytest.raises(ValueError):
        PlacedGate(CNOT, (0,))
    with pytest.raises(ValueError):
        PlacedGate(CNOT, (1, 1))
    with pytest.raises(ValueError):
        PlacedGate(X, (-1,))


def test_ry_entries():
    """ry(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]."""
    a = 2.0 * np.arcsin(S13)
    g = ry(a)
    assert abs(g.matrix.array[1, 0] - S13) < 1e-15
    assert abs(g.matrix.array[0, 0] - S23) < 1e-15
    # the mirrored angle whose half-sine is -sqrt(2/3)
    theta = -2.0 * np.arcsin(S23)
    assert abs(ry(theta).matrix.array[0, 1] - S23) < 1e-15
    assert max_abs_diff(ry(0.0).matrix, np.eye(2)) == 0.0


def test_ry_from_text_builds_one_gate_per_selector_and_raises_every_time():
    g = ry_from_text("ry:1.1", "attack selector")
    assert g == ry(1.1)
    assert ry_from_text("ry:1.1", "attack selector") is g  # cached, and a Gate is immutable
    for _ in range(2):  # an error is raised again, not cached
        with pytest.raises(ValueError, match="attack selector 'ry:x': angle 'x' is not a number"):
            ry_from_text("ry:x", "attack selector")


def test_ry_composition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        prod = ry(a).matrix.array @ ry(b).matrix.array
        assert np.abs(prod - ry(a + b).matrix.array).max() < 1e-12


def test_ry_x_and_x_ry():
    a = 1.234
    s, c = np.sin(a / 2), np.cos(a / 2)
    assert np.abs(ry_x(a).matrix.array - [[-s, c], [c, s]]).max() < 1e-15
    assert np.abs(x_ry(a).matrix.array - [[s, c], [c, -s]]).max() < 1e-15
    assert np.abs(
        ry_x(a).matrix.array - ry(a).matrix.array @ X.matrix.array
    ).max() == 0.0
    assert np.abs(
        x_ry(a).matrix.array - X.matrix.array @ ry(a).matrix.array
    ).max() == 0.0
    with pytest.raises(ValueError, match="finite"):
        ry_x(np.inf)
    with pytest.raises(ValueError, match="finite"):
        x_ry(np.nan)


def test_controlled_cnot():
    assert CNOT.name == "C1[X]"
    assert CNOT.arity == 2
    expect = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(CNOT.matrix.array, expect)


def test_controlled_on_zero():
    g = controlled(X, 0)
    assert g.name == "C0[X]"
    expect = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(g.matrix.array, expect)


def test_controlled_two_levels():
    toffoli = controlled(CNOT, 1)
    assert toffoli.arity == 3
    m = toffoli.matrix.array
    assert np.array_equal(m[:4, :4], np.eye(4))
    assert np.array_equal(m[4:, 4:], CNOT.matrix.array)


def test_controlled_block_rotation():
    a = 2.0 * np.arcsin(S13)
    g = controlled(ry_x(a), 0)
    m = g.matrix.array
    assert np.abs(m[:2, :2] - ry_x(a).matrix.array).max() < 1e-15
    assert np.array_equal(m[2:, 2:], np.eye(2))


def test_inverse():
    g = ry(0.7)
    prod = g.matrix.array @ inverse(g).matrix.array
    assert np.abs(prod - np.eye(2)).max() < 1e-15
    assert inverse(g).name == f"INV[{g.name}]"
    assert inverse(inverse(g)).name == g.name
    cg = controlled(ry(0.7), 1)
    prod = cg.matrix.array @ inverse(cg).matrix.array
    assert np.abs(prod - np.eye(4)).max() < 1e-15


def test_embed_single_wire():
    # Z on the bottom of three wires is I (x) I (x) Z
    m = embed(PlacedGate(Z, (2,)), 3)
    assert np.array_equal(m, np.kron(np.eye(4), Z.matrix.array))
    m = embed(PlacedGate(Z, (0,)), 3)
    assert np.array_equal(m, np.kron(Z.matrix.array, np.eye(4)))


def test_embed_wire_order_matters():
    """A controlled gate listed as (1, 0) puts the control on wire 1.

    With control value 0 and wires (1, 0) on two wires, the result flips
    wire 0 exactly when wire 1 is clear: columns 0<->2 swap, 1 and 3 stay.
    """
    m = embed(PlacedGate(controlled(X, 0), (1, 0)), 2)
    expect = np.zeros((4, 4), dtype=complex)
    expect[2, 0] = expect[0, 2] = 1.0
    expect[1, 1] = expect[3, 3] = 1.0
    assert np.array_equal(m, expect)
    # CNOT placed as (0, 1) is the plain matrix; placed as (1, 0) it is not
    assert np.array_equal(embed(PlacedGate(CNOT, (0, 1)), 2), CNOT.matrix.array)
    assert not np.array_equal(embed(PlacedGate(CNOT, (1, 0)), 2), CNOT.matrix.array)


def test_embed_cnot_spanning_gap():
    # control on wire 2, target on wire 0, middle wire untouched
    m = embed(PlacedGate(CNOT, (2, 0)), 3)
    for src in range(8):
        bits = [(src >> (2 - w)) & 1 for w in range(3)]
        if bits[2]:
            bits[0] ^= 1
        dst = (bits[0] << 2) | (bits[1] << 1) | bits[2]
        col = np.zeros(8)
        col[dst] = 1.0
        assert np.array_equal(m[:, src].real, col)


def test_embed_preserves_unitarity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(-np.pi, np.pi)
        n = int(rng.integers(2, 5))
        wires = tuple(rng.permutation(n)[:2])
        g = controlled(ry(a), int(rng.integers(0, 2)))
        m = embed(PlacedGate(g, (int(wires[0]), int(wires[1]))), n)
        assert is_unitary(m, 1e-12)


def test_embed_disjoint_gates_commute():
    a = embed(PlacedGate(H, (0,)), 3)
    b = embed(PlacedGate(CNOT, (2, 1)), 3)
    assert np.abs(a @ b - b @ a).max() < 1e-15


def test_embed_out_of_range():
    with pytest.raises(ValueError):
        embed(PlacedGate(X, (3,)), 3)


def test_format_placed_gate():
    assert format_placed_gate(PlacedGate(CNOT, (2, 1))) == "C1[X] @ 2,1"
    assert format_placed_gate(PlacedGate(Z, (0,))) == "Z @ 0"
