"""Acceptance suite: the `corrqec verify` battery, run check by check, and
the nine paper criteria, each with its runtime budget.

Criterion 3's Hadamard case is checked in its exact form: the attack's
determinant is -1, so the decoded data block is -(I (x) H); the block
matches I (x) H up to that determinant phase and the phase is asserted
exactly.
"""
from __future__ import annotations

import inspect
import json
import re
import time

import numpy as np
import pytest

from corrqec import circuit, cli, correlated, hybrid, noise_exp, proofs
from corrqec.circuit import (
    Circuit,
    StateVector,
    basis_state,
    fidelity,
    partial_trace,
    realize,
    tensor,
    to_density,
)
from corrqec.gates import CNOT, H, I, PlacedGate
from corrqec.linalg import equal_up_to_global_phase, max_abs_diff, tensor_power
from test_correlated import PRINTED_PRODUCT, rand_qubit

BUDGET_S = 5.0


@pytest.mark.parametrize("name, check", proofs.CHECKS, ids=[n.replace(" ", "_") for n, _ in proofs.CHECKS])
def test_check(name, check):
    t0 = time.perf_counter()
    detail = check(proofs.Battery())
    elapsed = time.perf_counter() - t0
    assert isinstance(detail, str) and detail, name
    assert elapsed < BUDGET_S, f"{name}: runtime {elapsed:.2f}s exceeds budget {BUDGET_S}s"


def test_hybrid_proofs_report_exact_zeros():
    # the hybrid encoders and their conjugated attacks are exact: both
    # details print a deviation of exactly zero, not a rounding residual,
    # and all three state their claim for every width
    checks = dict(proofs.CHECKS)
    assert checks["hybrid circuits realize their matrices"](proofs.Battery()) == (
        "every n >= 2 by induction: n=2, 3 realize P2, P3 exactly (max deviation 0.000e+00, "
        "identity wire order), and n=4..8 stack as P_n does"
    )
    assert checks["hybrid conjugated attacks are identity on data"](proofs.Battery()) == (
        "every n >= 2 by induction: the n=3 walk leaves each attack on wire 0 alone (residual 0.000e+00)"
    )
    assert checks["even-width ancilla bits read back deterministically"](proofs.Battery()) == (
        "every even n by induction: the n=2 walk has no x bit, so all four bit pairs survive X, Y, Z"
    )


_HYBRID_CHECKS = (
    "hybrid circuits realize their matrices",
    "hybrid conjugated attacks are identity on data",
    "even-width ancilla bits read back deterministically",
)


def _rebuilt_encoders(monkeypatch) -> None:
    """Build each encoder circuit afresh from `hybrid._circuit_gates`, so
    a patched stage or gate list reaches every width, consistently."""
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda n: Circuit(n, tuple(hybrid._circuit_gates(n))))


def _dense_attacks_factor(c: Circuit) -> bool:
    """realize(c)-dagger (W on every wire) realize(c) is (ancilla block)
    tensor identity-on-data for W = X, Y and Z."""
    n, u = c.n_wires, realize(c)
    d = 2 ** len(hybrid.data_wires(n))
    for tag in ("X", "Y", "Z"):
        conjugated = u.conj().T @ tensor_power(hybrid.attack_factor([tag]), n) @ u
        if np.abs(conjugated - np.kron(conjugated[::d, ::d], np.eye(d))).max() > 1e-10:
            return False
    return True


@pytest.mark.parametrize("dropped", range(12))
def test_hybrid_conjugation_fails_on_a_broken_encoder(monkeypatch, dropped):
    # the check proves the circuits it is given: without any one gate, the
    # width-8 encoder is no longer the n=2 encoder followed by the width-7
    # encoder, and the failure names n. That includes gates 0-2, the first
    # stage, without one of which the attacks still factor: the induction
    # covers only circuits of the recursion's shape.
    circuit8 = hybrid.encoder_circuit(8)
    broken = Circuit(8, circuit8.gates[:dropped] + circuit8.gates[dropped + 1:])
    assert _dense_attacks_factor(broken) == (dropped < 3)
    real = hybrid.encoder_circuit
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda n: broken if n == 8 else real(n))
    check = dict(proofs.CHECKS)["hybrid conjugated attacks are identity on data"]
    with pytest.raises(AssertionError, match=r"^n=8: the encoder is not the n=2 encoder then the n=7 encoder"):
        check(proofs.Battery())


def _dense_readback_holds(c: Circuit) -> bool:
    """The dense readback through c: realize(c), W on every wire and
    realize(c)-dagger, applied to |b, 0...0>, end in that same basis state
    with certainty for every bit pair b and every tag."""
    n = c.n_wires
    u = realize(c)
    for bits in ("00", "01", "10", "11"):
        s = basis_state(n, bits + "0" * (n - 2)).amplitudes
        for tag in ("X", "Y", "Z"):
            out = u.conj().T @ (tensor_power(hybrid.attack_factor([tag]), n) @ (u @ s))
            if abs(np.vdot(s, out)) ** 2 < 1 - 1e-10:
                return False
    return True


_READBACK_DROPS = [(n, i) for n in (4, 6, 8) for i in range(len(hybrid.encoder_circuit(n).gates))]


@pytest.mark.parametrize("n, dropped", _READBACK_DROPS, ids=[f"n{n}-{i}" for n, i in _READBACK_DROPS])
def test_hybrid_readback_fails_exactly_when_a_dense_readback_does(monkeypatch, n, dropped):
    # the check fails, naming n, whenever the dense readback through the
    # broken circuit fails; it fails on the other drops too, because the
    # broken circuit is not of the recursion's shape
    full = hybrid.encoder_circuit(n)
    broken = Circuit(n, full.gates[:dropped] + full.gates[dropped + 1:])
    real = hybrid.encoder_circuit
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda m: broken if m == n else real(m))
    check = dict(proofs.CHECKS)["even-width ancilla bits read back deterministically"]
    with pytest.raises(AssertionError, match=rf"^n={n}: the encoder is not the n=2 encoder"):
        check(proofs.Battery())


@pytest.mark.parametrize("control, readback", [(0, "10"), (1, "01")])
def test_hybrid_readback_names_the_flipped_ancilla_bit(monkeypatch, control, readback):
    # CNOTs from one ancilla wire onto the three others turn X on every
    # wire into X on that ancilla wire alone: the data is untouched and
    # exactly one read-back bit flips. Put in as the width-4 circuit, it is
    # not of the recursion's shape, and the check names n=4.
    fake = Circuit(4, tuple(PlacedGate(CNOT, (control, t)) for t in range(4) if t != control))
    assert not _dense_readback_holds(fake)
    real = hybrid.encoder_circuit
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda m: fake if m == 4 else real(m))
    check = dict(proofs.CHECKS)["even-width ancilla bits read back deterministically"]
    with pytest.raises(AssertionError, match=r"^n=4: the encoder is not"):
        check(proofs.Battery())
    # as the two-wire stage, one CNOT turns X on both wires into X on the
    # control: every even width flips that bit, and the n=2 walk names it
    monkeypatch.setattr(hybrid, "_TWO", ((CNOT, (control, 1 - control)),))
    _rebuilt_encoders(monkeypatch)
    assert not _dense_readback_holds(hybrid.encoder_circuit(4))
    with pytest.raises(AssertionError, match=f"^n=2 bits=00 tag=X readback {readback}$"):
        check(proofs.Battery())


def _swap_gate(stage, i, wires):
    """stage with its i-th gate moved onto other wires."""
    return stage[:i] + ((stage[i][0], wires),) + stage[i + 1:]


@pytest.mark.parametrize("stage, mutant, n", [
    ("_TWO", _swap_gate(hybrid._TWO, 0, (0, 1)), 2),
    ("_TWO", _swap_gate(hybrid._TWO, 1, (0,)), 2),
    ("_THREE", _swap_gate(hybrid._THREE, 1, (0, 2)), 3),
    ("_THREE", _swap_gate(hybrid._THREE, 2, (2, 1)), 3),
], ids=["two-0", "two-1", "three-1", "three-2"])
def test_hybrid_realize_check_kills_a_swapped_stage_gate(monkeypatch, stage, mutant, n):
    # a stage gate on the wrong wires builds every width consistently, so
    # the shape holds, and the base circuit no longer realizes its matrix
    monkeypatch.setattr(hybrid, stage, mutant)
    _rebuilt_encoders(monkeypatch)
    check = dict(proofs.CHECKS)["hybrid circuits realize their matrices"]
    with pytest.raises(AssertionError, match=rf"^n={n}: the circuit deviates from P{n}"):
        check(proofs.Battery())


def _shift_inner_encoders_short(monkeypatch) -> None:
    """`_circuit_gates` with the inner encoder shifted one wire too few: at
    n=4 it lands on wires 0..2, on top of the two-wire stage."""
    source = inspect.getsource(hybrid._circuit_gates)
    assert source.count("offset + step") == 1
    namespace = dict(vars(hybrid))
    exec(source.replace("offset + step", "offset + step - 1"), namespace)
    monkeypatch.setattr(hybrid, "_circuit_gates", namespace["_circuit_gates"])
    _rebuilt_encoders(monkeypatch)


def test_every_hybrid_check_kills_an_off_by_one_shift(monkeypatch):
    _shift_inner_encoders_short(monkeypatch)
    checks = dict(proofs.CHECKS)
    for name in _HYBRID_CHECKS:
        with pytest.raises(AssertionError, match=r"^n=4: the encoder is not the n=2 encoder then the n=3"):
            checks[name](proofs.Battery())


@pytest.mark.parametrize("extra, first_broken, tag, message", [
    ((CNOT, (0, 1)), 3, "X", r"acts on data wires \[1\]"),
    ((H, (0,)), 5, "X", "on wire 0 is not X"),
], ids=["cnot", "hadamard"])
def test_hybrid_conjugation_kills_a_wrong_ancilla_pauli_at_n3(monkeypatch, extra, first_broken, tag, message):
    # one more gate first in the three-wire stage, so last in the walk back:
    # the CNOT copies the X left on wire 0 onto data wire 1; the H turns it
    # into a Z, which is harmless at n=3 and reaches the data at n=5. The
    # even widths inherit the odd walk, so the readback check fails too.
    monkeypatch.setattr(hybrid, "_THREE", (extra, *hybrid._THREE))
    _rebuilt_encoders(monkeypatch)
    for n in (3, 5):
        assert _dense_attacks_factor(hybrid.encoder_circuit(n)) == (n < first_broken)
    assert not all(_dense_readback_holds(hybrid.encoder_circuit(n)) for n in (4, 6))
    checks = dict(proofs.CHECKS)
    for name in _HYBRID_CHECKS[1:]:
        with pytest.raises(AssertionError, match=rf"^n=3 tag={tag}: .*{message}"):
            checks[name](proofs.Battery())


def _within(budget_s: float, body) -> None:
    t0 = time.perf_counter()
    body()
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"runtime {dt:.2f}s exceeds budget {budget_s}s"


_CORR_CHECKS = (
    "block structure over random special unitaries",
    "three-qubit recovery through repeated attacks",
    "five-wire recursive recovery",
)


def test_corr_proofs_state_their_claims_exactly():
    checks = dict(proofs.CHECKS)
    assert checks[_CORR_CHECKS[0]](proofs.Battery()) == (
        "exact for every W in GL(2): off-diagonal blocks 0, top-left det(W) (I (x) W), "
        "sqrt6 U read over Z[sqrt2, sqrt3]"
    )
    assert checks[_CORR_CHECKS[1]](proofs.Battery()) == (
        "6 U^T U = 6 I exactly, and block forms det(W) (I (x) W) compose over rounds and mixtures"
    )
    assert checks[_CORR_CHECKS[2]](proofs.Battery()) == (
        "every k >= 1 by induction: k=2..8 peel to det(W)^k W on the sink wire, through the exact block theorem"
    )


def _fail_lines(capsys) -> dict[str, str]:
    """The message of each check `verify` FAILs, by name; it must exit 1."""
    assert cli.cmd_verify() == 1
    return dict(line[5:].split(": ", 1) for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL "))


def _failed_checks(capsys) -> set[str]:
    """The names of the checks `verify` FAILs; it must exit 1."""
    return set(_fail_lines(capsys))


def _swap_columns(u):
    u[:, [3, 4]] = u[:, [4, 3]]


def _rotate_column(u, t=1e-4):
    u[:, 4], u[:, 5] = np.cos(t) * u[:, 4] + np.sin(t) * u[:, 5], np.cos(t) * u[:, 5] - np.sin(t) * u[:, 4]


@pytest.mark.parametrize("mutate", [_swap_columns, _rotate_column], ids=["column-swap", "column-rotation"])
def test_every_corr_proof_fails_a_corrupted_encoder_table(monkeypatch, capsys, mutate):
    u = np.array(correlated.NEW_U_ENTRIES)
    mutate(u)
    monkeypatch.setattr(correlated, "NEW_U_ENTRIES", u.tolist())
    failed = _failed_checks(capsys)
    assert set(_CORR_CHECKS) <= failed
    assert "corrected encoder is unitary" not in failed  # both mutants are still unitary


def _swap_higher_triples(triples):
    return [triples[1], triples[0], *triples[2:]] if len(triples) > 2 else triples


def _flip_first_triple(triples):
    (ancilla, data, sink), *rest = triples
    return [(sink, data, ancilla), *rest]


def _base_triple_first(triples):
    return [triples[-1], *triples[:-1]]


@pytest.mark.parametrize("mutate, message", [
    (_swap_higher_triples, "k=3: the ancillas of triples [1] are touched before their triples"),
    (_flip_first_triple, "k=2: the peeled W does not end on the sink wire alone"),
    (_base_triple_first, "k=2: T_1 = (0, 1, 2) is not last in time"),
], ids=["swapped-triples", "ancilla-sink-swapped", "base-first"])
def test_the_five_wire_proof_fails_a_broken_layout(monkeypatch, capsys, mutate, message):
    # the encoder is built from the mutant too, so the two still agree:
    # only the conditions of the peel see the break
    real = correlated.recursive_triples
    monkeypatch.setattr(correlated, "recursive_triples", lambda k: mutate(real(k)))
    correlated._recursive_encoder.cache_clear()
    try:
        base, first = correlated.standard_decomposition().gates[0], mutate(real(3))[0]
        assert correlated.recursive_encoder(3).gates[0].wires == tuple(first[w] for w in base.wires)
        failed = _failed_checks(capsys)
        with pytest.raises(AssertionError, match=re.escape(message)):
            dict(proofs.CHECKS)["five-wire recursive recovery"](proofs.Battery())
    finally:
        correlated._recursive_encoder.cache_clear()
    assert failed == {"five-wire recursive recovery"}


def _passes(capsys) -> bool:
    """`verify` exits 0 and passes all 18 checks."""
    return cli.cmd_verify() == 0 and capsys.readouterr().out.endswith("18/18 checks passed\n")


def _count_calls(monkeypatch, module, name) -> list[tuple]:
    """Rebind module.name to a wrapper that records the arguments of each call."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


_SWAPPED_COLUMNS_FAIL = {
    "encoders share their first four columns": "first four columns differ by 7.071e-01",
    "standard decomposition realizes the corrected encoder": "deviation 7.071e-01",
    "basic decomposition realizes the corrected encoder": "deviation 7.071e-01",
    **dict.fromkeys(("block structure with the Hadamard atom", *_CORR_CHECKS),
                    "8 off-diagonal entries are not identically 0 and 3 top-left entries are not identically "
                    "det(W) (I (x) W)"),
}


def test_a_battery_proves_each_shared_lemma_once(monkeypatch, capsys):
    assert _passes(capsys)  # fills the caches, so `_sources` has read each gate's Pauli bits
    theorem = _count_calls(monkeypatch, correlated, "block_theorem_defects")
    refuted = _count_calls(monkeypatch, correlated, "erroneous_decomposition_product")
    walks = _count_calls(monkeypatch, proofs, "_walk_attacks")
    words = _count_calls(monkeypatch, proofs, "_gate_words")
    exact = _count_calls(monkeypatch, correlated, "_exact_encoder")
    new_u = _count_calls(monkeypatch, correlated, "build_new_U")
    old_u = _count_calls(monkeypatch, correlated, "build_old_U")
    bits = _count_calls(monkeypatch, circuit, "_pauli_bits")
    assert _passes(capsys)
    assert (len(theorem), len(refuted), walks.count((3,))) == (1, 1, 1)
    assert len(words) == 7  # the shape reads each width n=2..8 once
    # each table is read once, and the walks start from bits, not matrices
    assert (len(exact), len(new_u), len(old_u), len(bits)) == (1, 1, 1, 0)
    # in a battery of its own, every check proves and reads for itself
    for calls in (theorem, exact, new_u, old_u):
        calls.clear()
    checks = dict(proofs.CHECKS)
    for name in _CORR_CHECKS:
        checks[name](proofs.Battery())
    assert (len(theorem), len(exact)) == (3, 3)  # the Gram check shares its battery's one read
    for name in ("corrected encoder is unitary", "legacy encoder is unitary", *list(_SWAPPED_COLUMNS_FAIL)[:3],
                 "six-stage refutation product is far from the legacy encoder"):
        checks[name](proofs.Battery())
    assert (len(new_u), len(old_u)) == (4, 3)
    # a table corrupted between two batteries is read afresh by the second
    u = np.array(correlated.NEW_U_ENTRIES)
    _swap_columns(u)
    monkeypatch.setattr(correlated, "NEW_U_ENTRIES", u.tolist())
    assert _fail_lines(capsys) == _SWAPPED_COLUMNS_FAIL
    assert (len(exact), len(new_u)) == (4, 5)


def test_the_hadamard_check_reads_the_exact_theorem(monkeypatch, capsys):
    # no float block product: the check proves the theorem (or, in a
    # battery, reuses its outcome), fails with its message on a corrupted
    # table, and then requires the determinant -1 that fixes the sign
    theorem = _count_calls(monkeypatch, correlated, "block_theorem_defects")
    product = _count_calls(monkeypatch, correlated, "verify_block_structure")
    check = dict(proofs.CHECKS)["block structure with the Hadamard atom"]
    assert check(proofs.Battery()) == "top-left = -(I (x) H) exactly; phase matches the determinant"
    assert (len(theorem), len(product)) == (1, 0)
    monkeypatch.setattr(proofs, "H", I)  # determinant 1: the block would be +(I (x) W)
    with pytest.raises(AssertionError, match=r"^det\(H\) = 1\.000000\+0\.000000j, expected -1$"):
        check(proofs.Battery())
    monkeypatch.setattr(proofs, "H", H)
    u = np.array(correlated.NEW_U_ENTRIES)
    _swap_columns(u)
    monkeypatch.setattr(correlated, "NEW_U_ENTRIES", u.tolist())
    failed = _fail_lines(capsys)
    assert failed["block structure with the Hadamard atom"] == failed[_CORR_CHECKS[0]]


def test_no_proof_outlives_its_battery(monkeypatch, capsys):
    assert _passes(capsys)
    u = np.array(correlated.NEW_U_ENTRIES)
    _swap_columns(u)
    monkeypatch.setattr(correlated, "NEW_U_ENTRIES", u.tolist())
    failed = _fail_lines(capsys)
    assert {failed.get(name) for name in _CORR_CHECKS} == {
        "8 off-diagonal entries are not identically 0 and 3 top-left entries are not identically det(W) (I (x) W)"
    }
    monkeypatch.undo()
    assert _passes(capsys)


def test_a_battery_replays_a_failed_lemma_to_every_check_that_shares_it(monkeypatch, capsys):
    _shift_inner_encoders_short(monkeypatch)
    failed = _fail_lines(capsys)
    messages = {failed.get(name) for name in _HYBRID_CHECKS}
    assert len(messages) == 1
    assert re.match(r"n=4: the encoder is not the n=2 encoder then the n=3", messages.pop())


def _module_state() -> list[dict[str, int]]:
    """What `proofs` and `cli` bind at module level, by identity."""
    return [{k: id(v) for k, v in vars(module).items()} for module in (proofs, cli)]


def test_an_interrupted_battery_leaves_no_proof_behind(monkeypatch, capsys):
    def interrupt(b):
        raise KeyboardInterrupt

    state = _module_state()
    assert _passes(capsys)
    assert _module_state() == state
    # interrupted after the block theorem is proved, and before its second use
    checks = list(proofs.CHECKS)
    at = [name for name, _ in checks].index(_CORR_CHECKS[1])
    monkeypatch.setattr(proofs, "CHECKS", (*checks[:at], ("interrupt", interrupt), *checks[at:]))
    with pytest.raises(KeyboardInterrupt):
        cli.cmd_verify()
    monkeypatch.undo()
    assert _module_state() == state
    theorem = _count_calls(monkeypatch, correlated, "block_theorem_defects")
    proofs._block_theorem(proofs.Battery())
    proofs._block_theorem(proofs.Battery())
    assert len(theorem) == 2
    assert _passes(capsys)
    assert len(theorem) == 3


def test_criterion_1_decompositions():
    def body():
        u = correlated.build_new_U()
        bas = correlated.basic_decomposition()
        d1 = max_abs_diff(realize(correlated.standard_decomposition()), u)
        d2 = max_abs_diff(realize(bas), u)
        assert d1 <= 1e-12, f"standard form deviates by {d1:.3e}"
        assert d2 <= 1e-12, f"basic form deviates by {d2:.3e}"
        arities = [pg.gate.arity for pg in bas.gates]
        assert (arities.count(2), arities.count(1)) == (6, 8), arities

    _within(1.0, body)


def test_criterion_2_refutation():
    def body():
        prod = correlated.erroneous_decomposition_product()
        d_printed = float(np.abs(prod - PRINTED_PRODUCT).max())
        assert d_printed <= 5e-5, f"printed matrix deviates by {d_printed:.2e}"
        d_old = max_abs_diff(prod, correlated.build_old_U())
        assert d_old >= 0.5, f"distance to the legacy encoder only {d_old:.3f}"

    _within(1.0, body)


def test_criterion_3_block_structure():
    def body():
        rng = np.random.default_rng(20240815)
        u = correlated.build_new_U()
        worst_off = worst_tl = 0.0
        for _ in range(100):
            w = correlated.random_su2(rng)
            rep = correlated.verify_block_structure(u, w)
            worst_off = max(worst_off, rep.off_diag_norm)
            worst_tl = max(worst_tl, max_abs_diff(rep.top_left, np.kron(np.eye(2), w)))
        assert worst_off <= 1e-10, f"off-diagonal block max {worst_off:.3e}"
        assert worst_tl <= 1e-10, f"top-left block deviates by {worst_tl:.3e}"
        rep = correlated.verify_block_structure(u, H.matrix)
        i2h = np.kron(np.eye(2), H.matrix.array)
        assert rep.off_diag_norm <= 1e-12, f"H off-diagonal {rep.off_diag_norm:.3e}"
        assert equal_up_to_global_phase(rep.top_left, i2h, 1e-10)
        pivot = np.unravel_index(np.argmax(np.abs(i2h)), (4, 4))
        phase = rep.top_left[pivot] / i2h[pivot]
        assert abs(phase - (-1.0)) <= 1e-10, f"H block phase {phase}, determinant is -1"

    _within(5.0, body)


def test_criterion_4_three_qubit_recovery():
    def body():
        rng = np.random.default_rng(20240816)
        worst = 1.0
        for i in range(50):
            atoms = [(correlated.random_su2(rng), 1.0 / 3.0) for _ in range(3)]
            ch = correlated.make_channel(3, atoms)
            fid, _ = correlated.three_qubit_protect(
                rand_qubit(rng), rand_qubit(rng), ch, rounds=(1, 3, 7)[i % 3]
            )
            worst = min(worst, fid)
        assert worst >= 1 - 1e-9, f"worst fidelity {worst}"

    _within(10.0, body)


def test_criterion_5_five_qubit_recovery():
    def body():
        rng = np.random.default_rng(20240817)
        enc = realize(correlated.recursive_encoder(2))
        zero = basis_state(1, "0")
        worst = 1.0
        for _ in range(20):
            wn = tensor_power(correlated.random_su2(rng), 5)
            psi1, psi2, v = rand_qubit(rng), rand_qubit(rng), rand_qubit(rng)
            state = tensor(zero, psi1, v, psi2, zero)
            rho = to_density(StateVector(enc.conj().T @ wn @ enc @ state.amplitudes, 5))
            for wire, target in ((1, psi1), (3, psi2), (0, zero), (4, zero)):
                worst = min(worst, fidelity(partial_trace(rho, [wire]), target))
        assert worst >= 1 - 1e-9, f"worst fidelity {worst}"

    _within(30.0, body)


def test_criterion_6_hybrid_conjugation():
    def body():
        rng = np.random.default_rng(20240818)
        worst_fid = 1.0
        for n in range(2, 9):
            dw = len(hybrid.data_wires(n))
            anc = "0" if n % 2 else "00"
            for tag in ("X", "Y", "Z"):
                if dw:
                    v = rng.normal(size=2**dw) + 1j * rng.normal(size=2**dw)
                    data = StateVector(v / np.linalg.norm(v), dw)
                    fid, _ = hybrid.hybrid_protect(n, data, anc, [tag])
                    worst_fid = min(worst_fid, fid)
                # independent matrix-level factorization check
                c, d = hybrid.conjugated_error(n, tag), 2**dw
                assert np.abs(c - np.kron(c[::d, ::d], np.eye(d))).max() <= 1e-10, (n, tag)
        assert worst_fid >= 1 - 1e-10, f"worst data fidelity {worst_fid}"
        for n in (2, 4, 6, 8):
            dw = len(hybrid.data_wires(n))
            data = basis_state(dw, "0" * dw) if dw else None
            for bits in ("00", "01", "10", "11"):
                for tag in ("X", "Y", "Z"):
                    _, rep = hybrid.hybrid_protect(n, data, bits, [tag])
                    assert rep.preserved_with_certainty, (
                        f"n={n} bits={bits} tag={tag} read back {rep.readback_bits}"
                    )

    _within(60.0, body)


def test_criterion_7_hybrid_circuit_vs_matrix():
    def body():
        for n in range(2, 7):
            enc = hybrid.hybrid_encoder(n)
            assert equal_up_to_global_phase(realize(enc.circuit), enc.matrix, 1e-10), f"n={n} differs"

    _within(60.0, body)


def test_criterion_8_noise_monotonicity():
    def body():
        vals = [
            noise_exp.exact_success({"scheme": "corr3", "w": "h", "noise": {"p1": p2 / 10, "p2": p2}})
            for p2 in (0.0, 0.005, 0.01, 0.02, 0.04)
        ]
        assert abs(vals[0] - 1.0) <= 1e-10, f"zero-noise success {vals[0]}"
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), f"not non-increasing: {vals}"
        preset = noise_exp.exact_success(
            {"scheme": "corr3", "w": "h", "noise": {"p1": 0.001, "p2": 0.01}}
        )
        assert preset > 0.8, f"preset success {preset:.4f}"

    _within(30.0, body)


def test_criterion_9_determinism(tmp_path):
    def body():
        args = [
            "run", "--scheme", "corr3", "--w", "h", "--shots", "8192", "--seed", "1",
            "--noise", "p1=0.001,p2=0.01",
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(p1)]) == 0
        assert cli.main(args + ["--out", str(p2)]) == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2, "repeat runs differ"
        json.loads(b1.decode())  # well-formed
        rep = noise_exp.run_named(
            {"scheme": "corr3", "w": "h", "shots": 65536, "seed": 3,
             "noise": {"p1": 0.001, "p2": 0.01}}
        )
        exact = np.array([rep.success_probability, 1 - rep.success_probability])
        freq = np.array(
            [rep.histogram.counts.get("0", 0), rep.histogram.counts.get("1", 0)]
        ) / 65536
        tv = 0.5 * float(np.abs(freq - exact).sum())
        bound = 5 * np.sqrt(2 / 65536)
        assert tv <= bound, f"total variation {tv:.4f} above {bound:.4f}"

    _within(60.0, body)
