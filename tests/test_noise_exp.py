from __future__ import annotations

import json

import numpy as np
import pytest

import corrqec
from corrqec import circuit
from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    _kicks,
    _program,
    apply,
    attack,
    basis_state,
    born_distribution,
    dagger_circuit,
    realize,
    to_density,
)
from corrqec.gates import CNOT, H, X, PlacedGate
from corrqec.hybrid import _PAULI, attack_factor
from corrqec.noise_exp import (
    ExperimentReport,
    NoiseModel,
    _build_experiment,
    _exact_distribution,
    _normalize_spec,
    exact_success,
    report_to_csv,
    report_to_json,
    run_named,
)

# frozen regression values for the corr3 standard-decomposition sweep
# with w=h, p1 = p2/10, at p2 = 0, 0.005, 0.01, 0.02, 0.04
SWEEP = [
    (0.0, 1.0),
    (0.005, 0.985310),
    (0.01, 0.971026),
    (0.02, 0.943633),
    (0.04, 0.893267),
]


def test_noise_model_validation():
    assert corrqec.NoiseModel is NoiseModel is circuit.NoiseModel  # defined once, in circuit
    assert NoiseModel() == NoiseModel(p1=0.0, p2=0.0, p_readout=0.0)
    assert NoiseModel(p1=1).p1 == 1.0
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p_readout=2.0)


def test_zero_noise_is_plain_application():
    c = Circuit(2, (PlacedGate(H, (0,)), PlacedGate(CNOT, (0, 1))))
    rho = to_density(basis_state(2, "00"))
    u = realize(c)
    expect = u @ rho.matrix @ u.conj().T
    for out in (apply(c, rho), apply(c, rho, NoiseModel())):
        assert np.abs(out.matrix - expect).max() < 1e-14


def test_full_depolarizing_after_single_gate():
    """p1=1 scrambles the touched wire to the maximally mixed state."""
    c = Circuit(1, (PlacedGate(X, (0,)),))
    rho = to_density(basis_state(1, "0"))
    out = apply(c, rho, NoiseModel(p1=1.0)).matrix
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_depolarizing_leaves_untouched_wires_alone():
    c = Circuit(2, (PlacedGate(X, (0,)),))
    rho = to_density(basis_state(2, "01"))
    out = apply(c, rho, NoiseModel(p1=1.0)).matrix
    # wire 0 fully mixed, wire 1 still |1>
    expect = np.kron(np.eye(2) / 2, np.diag([0.0, 1.0]))
    assert np.abs(out - expect).max() < 1e-12


def test_noisy_application_preserves_trace():
    rng = np.random.default_rng(97)
    c = Circuit(2, (PlacedGate(H, (1,)), PlacedGate(CNOT, (1, 0)), PlacedGate(X, (0,))))
    for _ in range(5):
        p1, p2 = rng.uniform(0, 0.3, size=2)
        rho = to_density(basis_state(2, "00"))
        out = apply(c, rho, NoiseModel(p1=p1, p2=p2)).matrix
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_noiseless_success_is_certain():
    for scheme in ("corr3", "corr3-basic", "corr5"):
        for w in ("h", "x", "y", "z", "ry:0.8"):
            s = exact_success({"scheme": scheme, "w": w, "noise": {}})
            assert abs(s - 1.0) < 1e-10, (scheme, w)


def test_noiseless_success_many_rounds():
    s = exact_success({"scheme": "corr3", "w": "h", "rounds": 7, "noise": {}})
    assert abs(s - 1.0) < 1e-10


def test_rounds_are_a_repeat_count_not_a_list():
    # the rounds fold into one factor at once, so a huge --rounds cannot
    # exhaust memory or time before the attack is applied
    _, _, w, _ = _build_experiment(_normalize_spec({"scheme": "corr3", "rounds": 10**12}))
    assert np.abs(w - np.eye(2)).max() <= 1e-12  # H^(10^12) = I


def test_folded_rounds_match_round_by_round():
    # the rounds are applied as one factor W^rounds, projected back onto the
    # unitaries; it must match applying a Haar-random W round by round
    rng = np.random.default_rng(5)
    n = 3
    for rounds in range(1, 8):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        sel = "matrix:" + json.dumps([[[z.real, z.imag] for z in row] for row in w])
        ns = _normalize_spec({"scheme": "corr3", "w": sel, "rounds": rounds})
        _, _, folded, _ = _build_experiment(ns)
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T), n)
        expect = rho
        for _ in range(rounds):
            expect = attack(expect, w)
        got = attack(rho, folded).matrix
        assert np.abs(got - expect.matrix).max() <= 1e-13


def test_kick_cache_stays_bounded_over_a_noise_sweep():
    # the kick superoperators are cached per (k, p); a long sweep over noise
    # strengths in one process must not keep one per strength
    for i in range(200):
        _kicks(2, i / 400)
    assert _kicks.cache_info().currsize <= 64


def test_program_cache_is_bounded_read_only_and_keyed_on_gate_noise():
    enc, init, w, _ = _build_experiment(_normalize_spec({"scheme": "hybrid", "n": 5}))
    dec = dagger_circuit(enc)
    assert dagger_circuit(enc) is dec  # built and checked once per circuit
    rho = to_density(init)
    # a long noise sweep in one process keeps at most maxsize programs
    for i in range(200):
        apply(enc, rho, NoiseModel(p1=i / 4000, p2=i / 400))
    assert _program.cache_info().currsize <= _program.cache_parameters()["maxsize"]
    # readout noise acts on the distribution, not on the program
    first = _program(enc, 1e-3, 1e-2)
    misses = _program.cache_info().misses
    for readout in (0.0, 0.01, 0.2):
        apply(enc, rho, NoiseModel(p1=1e-3, p2=1e-2, p_readout=readout))
    assert _program.cache_info().misses == misses
    assert _program(enc, 1e-3, 1e-2) is first
    for superop, axes in first:
        assert not superop.flags.writeable
        with pytest.raises(ValueError):
            superop[0, 0] = 2.0
        assert superop.shape == (4 ** (len(axes) // 2),) * 2 and len(axes) <= 2 * circuit._BLOCK_WIRES


def test_hybrid_noiseless_success():
    s = exact_success({"scheme": "hybrid", "n": 5, "ancilla": "ry:2.356", "errors": ["x"]})
    assert abs(s - 1.0) < 1e-10
    s = exact_success({"scheme": "hybrid", "n": 4, "ancilla": "11", "errors": ["y", "z"]})
    assert abs(s - 1.0) < 1e-10


def test_folded_pauli_attack_matches_pauli_by_pauli():
    # the run applies a hybrid Pauli list as one product factor; that must
    # give the very same numbers as applying each Pauli in turn
    for n, ancilla in ((5, "ry:0.7"), (6, "01")):
        ns = _normalize_spec({"scheme": "hybrid", "n": n, "ancilla": ancilla,
                              "errors": ["x", "y", "z", "y"],
                              "noise": {"p1": 1e-3, "p2": 1e-2}})
        circ, init, w, data = _build_experiment(ns)
        assert np.array_equal(w, attack_factor(ns["errors"]))
        rho = apply(circ, to_density(init), ns["noise"])
        for tag in ns["errors"]:
            rho = attack(rho, _PAULI[tag])
        rho = apply(dagger_circuit(circ), rho, ns["noise"])
        expect = born_distribution(DensityMatrix(rho.matrix, n), data)
        probs, _ = _exact_distribution(ns)
        assert np.array_equal(probs, expect)


def test_preset_noise_regression():
    s = exact_success(
        {"scheme": "corr3", "w": "h", "noise": {"p1": 0.001, "p2": 0.01}}
    )
    assert abs(s - 0.971026) < 1e-6
    assert s > 0.8


def test_noise_sweep_matches_frozen_values_and_decreases():
    got = []
    for p2, expect in SWEEP:
        s = exact_success(
            {"scheme": "corr3", "w": "h", "noise": {"p1": p2 / 10, "p2": p2}}
        )
        assert abs(s - expect) < 1e-6, (p2, s)
        got.append(s)
    assert all(a > b for a, b in zip(got, got[1:]))


def test_readout_flip_success():
    s = exact_success(
        {"scheme": "corr3", "w": "h", "noise": {"p_readout": 0.1}}
    )
    assert abs(s - 0.9) < 1e-10
    # two data bits: surviving both flips costs (1-p)^2
    s = exact_success(
        {"scheme": "corr5", "w": "h", "noise": {"p_readout": 0.1}}
    )
    assert abs(s - 0.81) < 1e-10


def test_noisy_success_degrades_corr5():
    s = exact_success({"scheme": "corr5", "w": "y", "noise": {"p2": 0.01}})
    assert 0.5 < s < 1.0


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        exact_success({"scheme": "corr9", "w": "h"})
    with pytest.raises(ValueError):
        exact_success({"scheme": "corr3", "w": "h", "noise": {"bogus": 0.1}})
    with pytest.raises(ValueError):
        exact_success({"scheme": "corr3", "w": "nope"})
    with pytest.raises(ValueError):
        run_named({"scheme": "corr3", "w": "h", "shots": 0})
    with pytest.raises(ValueError):
        run_named({"scheme": "corr3", "w": "h", "rounds": 0})
    with pytest.raises(ValueError):
        run_named({"scheme": "hybrid", "n": 4, "ancilla": "ry:0.5"})
    with pytest.raises(ValueError):
        run_named({"scheme": "hybrid", "n": 2})  # nothing to measure
    with pytest.raises(ValueError, match="'i'"):
        run_named({"scheme": "hybrid", "n": 5, "errors": []})  # no attack is the i tag
    with pytest.raises(ValueError):
        exact_success({"scheme": "corr3", "w": "h", "bogus": 1})  # unknown to every scheme
    # parameters of the other scheme are rejected, not ignored
    for key, value in (("w", "h"), ("rounds", 1), ("rounds", 3)):
        with pytest.raises(ValueError):
            exact_success({"scheme": "hybrid", "n": 5, "errors": ["x"], key: value})
    for key, value in (("n", 5), ("ancilla", "0"), ("errors", ["x"])):
        for scheme in ("corr3", "corr3-basic", "corr5"):
            with pytest.raises(ValueError):
                exact_success({"scheme": scheme, "w": "h", key: value})
    # counts are integers: a float or a bool is rejected, not truncated, and
    # the message names the key
    for key, value in (("shots", 2.9), ("rounds", 2.5), ("rounds", True), ("seed", 1.0),
                       ("seed", -1), ("seed", False), ("shots", True), ("shots", "8")):
        with pytest.raises(ValueError, match=key):
            run_named({"scheme": "corr3", "w": "h", key: value})
    for value in (3.7, True, 2):
        with pytest.raises(ValueError, match="n must"):
            run_named({"scheme": "hybrid", "n": value})
    # a name is a string, an attack list is a list (a string is not read
    # letter by letter), and a noise strength is a number, not a bool
    with pytest.raises(ValueError, match="name"):
        run_named({"scheme": "corr3", "name": 5})
    for errors in ("xy", "x", None):
        with pytest.raises(ValueError, match="errors"):
            run_named({"scheme": "hybrid", "errors": errors})
    for key, value in (("p1", True), ("p2", False), ("p_readout", "0.1"), ("p1", None)):
        with pytest.raises(ValueError, match=key):
            run_named({"scheme": "corr3", "noise": {key: value}})
    # an attack or ancilla selector is a string, not a number or a state, and
    # the noise is a dict or a NoiseModel
    for spec, key in (({"scheme": "hybrid", "n": 4, "ancilla": 11}, "ancilla"),
                      ({"scheme": "hybrid", "n": 3, "ancilla": 1}, "ancilla"),
                      ({"scheme": "hybrid", "n": 3, "ancilla": basis_state(1, "1")}, "ancilla"),
                      ({"scheme": "corr3", "w": 5}, "w"),
                      ({"scheme": "corr3", "noise": [("p1", 0.1)]}, "noise"),
                      ({"scheme": "corr3", "noise": None}, "noise")):
        with pytest.raises(ValueError, match=key):
            run_named(spec)
    # None keeps meaning the default
    assert run_named({"scheme": "corr3", "w": None, "shots": 1}).config["w"] == "h"
    assert run_named({"scheme": "hybrid", "n": 4, "ancilla": None, "shots": 1}).config["ancilla"] == "00"
    assert run_named({"scheme": "hybrid", "errors": ("x", "y"), "shots": 1}).config["errors"] == ["x", "y"]
    assert exact_success({"scheme": "corr3", "noise": {"p1": 0, "p2": np.float64(0.01)}}) > 0.8


def test_hybrid_spec_defaults_and_validation():
    rep = run_named({"scheme": "hybrid", "n": 4})
    assert rep.name == "hybrid4"
    assert rep.config["ancilla"] == "00"
    assert rep.config["errors"] == ["i"]
    assert rep.config["rounds"] == 1
    assert rep.histogram.shots == 8192 and rep.seed == 0
    assert run_named({"scheme": "hybrid"}).config["n"] == 3
    with pytest.raises(ValueError):
        run_named({"scheme": "hybrid", "n": 1})
    with pytest.raises(ValueError):
        run_named({"scheme": "hybrid", "n": 4, "ancilla": "ry:0.5"})
    with pytest.raises(ValueError):
        run_named({"scheme": "hybrid", "n": 4, "shots": 0})


def test_run_named_report_shape():
    rep = run_named({"scheme": "corr3", "w": "h", "shots": 100, "seed": 5})
    assert isinstance(rep, ExperimentReport)
    assert rep.name == "corr3"
    assert rep.seed == 5
    assert rep.histogram.shots == 100
    assert rep.config["scheme"] == "corr3"
    assert rep.config["w"] == "h"
    assert abs(rep.success_probability - 1.0) < 1e-10
    assert rep.histogram.counts == {"0": 100}


def test_run_named_is_reproducible():
    spec = {
        "scheme": "corr3",
        "w": "h",
        "shots": 4096,
        "seed": 11,
        "noise": {"p1": 0.001, "p2": 0.01},
    }
    a = run_named(spec)
    b = run_named(spec)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_csv(a) == report_to_csv(b)
    c = run_named({**spec, "seed": 12})
    assert report_to_json(a) != report_to_json(c)


def test_run_named_streams_differ_by_name():
    """Same seed and same exact distribution, but a different experiment
    name must draw from an independent stream, not replay the samples."""
    noise = {"p1": 0.002, "p2": 0.02}
    a = run_named({"scheme": "corr3", "w": "h", "shots": 4096, "seed": 1, "noise": noise})
    b = run_named(
        {"scheme": "corr3", "w": "h", "shots": 4096, "seed": 1, "noise": noise, "name": "corr3b"}
    )
    assert abs(a.success_probability - b.success_probability) < 1e-12
    assert a.histogram.counts != b.histogram.counts


def test_sampled_frequencies_track_exact_distribution():
    spec = {
        "scheme": "corr3",
        "w": "h",
        "shots": 65536,
        "seed": 2,
        "noise": {"p1": 0.001, "p2": 0.01},
    }
    rep = run_named(spec)
    freq0 = rep.histogram.counts.get("0", 0) / 65536
    freq1 = rep.histogram.counts.get("1", 0) / 65536
    exact0 = rep.success_probability
    tv = 0.5 * (abs(freq0 - exact0) + abs(freq1 - (1 - exact0)))
    assert tv <= 5 * np.sqrt(2 / 65536)


def test_report_json_layout():
    rep = run_named({"scheme": "corr3", "w": "h", "shots": 10, "seed": 0})
    text = report_to_json(rep)
    assert text.endswith("\n")
    import json

    d = json.loads(text)
    assert set(d) == {"name", "seed", "config", "shots", "counts", "success_probability"}
    assert d["counts"] == {"0": 10}
    assert d["config"]["noise"] == {"p1": 0.0, "p2": 0.0, "p_readout": 0.0}


def test_report_bit_order_flip():
    from corrqec.circuit import Histogram

    rep = run_named(
        {"scheme": "hybrid", "n": 5, "ancilla": "0", "errors": ["i"], "shots": 16, "seed": 0}
    )
    assert "0000,16" in report_to_csv(rep)
    rep2 = run_named({"scheme": "corr5", "w": "i", "shots": 16, "seed": 0})
    assert "00,16" in report_to_csv(rep2)
    # an asymmetric key actually reverses
    fake = ExperimentReport(
        name="t",
        histogram=Histogram(n_measured=2, counts={"01": 5}, shots=5),
        success_probability=1.0,
        config={},
        seed=0,
    )
    assert "01,5" in report_to_csv(fake)
    assert "10,5" in report_to_csv(fake, ibm_bit_order=True)
    assert '"10": 5' in report_to_json(fake, ibm_bit_order=True)


def test_hybrid_report_config():
    rep = run_named(
        {"scheme": "hybrid", "n": 4, "ancilla": "10", "errors": ["X", "y"], "shots": 8}
    )
    assert rep.name == "hybrid4"
    assert rep.config["n"] == 4
    assert rep.config["ancilla"] == "10"
    assert rep.config["errors"] == ["x", "y"]
    assert abs(rep.success_probability - 1.0) < 1e-10
