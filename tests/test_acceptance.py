"""Acceptance suite: the `corrqec verify` battery, run check by check, and
the nine paper criteria, each with its runtime budget.

Criterion 3's Hadamard case is checked in its exact form: the attack's
determinant is -1, so the decoded data block is -(I (x) H); the block
matches I (x) H up to that determinant phase and the phase is asserted
exactly.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from corrqec import cli, correlated, hybrid, noise_exp
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
from corrqec.gates import H
from corrqec.linalg import equal_up_to_global_phase, max_abs_diff, tensor_power
from test_correlated import PRINTED_PRODUCT

BUDGET_S = 5.0


@pytest.mark.parametrize("name, check", cli.CHECKS, ids=[n.replace(" ", "_") for n, _ in cli.CHECKS])
def test_check(name, check):
    t0 = time.perf_counter()
    detail = check()
    elapsed = time.perf_counter() - t0
    assert isinstance(detail, str) and detail, name
    assert elapsed < BUDGET_S, f"{name}: runtime {elapsed:.2f}s exceeds budget {BUDGET_S}s"


def test_hybrid_proofs_report_exact_zeros():
    # the hybrid encoders and their conjugated attacks are exact: both
    # details print a deviation of exactly zero, not a rounding residual
    checks = dict(cli.CHECKS)
    assert checks["hybrid circuits realize their matrices"]() == (
        "n=2..8 exact (max deviation 0.000e+00, identity wire order)"
    )
    assert checks["hybrid conjugated attacks are identity on data"]() == (
        "all attacks factor off the data wires (residual 0.000e+00)"
    )


@pytest.mark.parametrize("dropped", range(12))
def test_hybrid_conjugation_fails_on_a_broken_encoder(monkeypatch, dropped):
    # the check proves the circuit it is given: without any one gate past
    # the width-8 encoder's first stage, some attack reaches a data wire,
    # and the failure names n and the tag. The first stage (gates 0-2)
    # acts only on the ancilla wires, so without one of its gates the
    # attacks still factor.
    circuit8 = hybrid.encoder_circuit(8)
    broken = Circuit(8, circuit8.gates[:dropped] + circuit8.gates[dropped + 1:])
    real = hybrid.encoder_circuit
    monkeypatch.setattr(hybrid, "encoder_circuit", lambda n: broken if n == 8 else real(n))
    check = dict(cli.CHECKS)["hybrid conjugated attacks are identity on data"]
    if dropped < 3:
        check()
    else:
        with pytest.raises(AssertionError, match=r"n=8 tag=[XYZ]: .* data wires \[\d"):
            check()


def _within(budget_s: float, body) -> None:
    t0 = time.perf_counter()
    body()
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"runtime {dt:.2f}s exceeds budget {budget_s}s"


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
                cli._rand_qubit(rng), cli._rand_qubit(rng), ch, rounds=(1, 3, 7)[i % 3]
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
            psi1, psi2, v = cli._rand_qubit(rng), cli._rand_qubit(rng), cli._rand_qubit(rng)
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
                hybrid.ancilla_block(n, hybrid.conjugated_error(n, tag))
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
