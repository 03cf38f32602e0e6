from __future__ import annotations

import gc
import json

import numpy as np
import pytest

import corrqec
from corrqec import circuit, correlated, hybrid, noise_exp
from corrqec.circuit import (
    Circuit,
    DensityMatrix,
    StateVector,
    apply,
    attack,
    basis_state,
    born_distribution,
    dagger_circuit,
    effect_distribution,
    pauli_fault_distribution,
    realize,
    tensor,
    to_density,
)
from corrqec.gates import CNOT, H, X, PlacedGate
from corrqec.hybrid import PAULI_TAGS, attack_factor, parse_ancilla
from corrqec.noise_exp import (
    ExperimentReport,
    NoiseModel,
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


def initial_state(ns: dict, n: int):
    """The n-wire state a resolved spec's run starts from, which the
    engines do not take: |0...0>, or for hybrid the spec's ancilla beside
    data wires in |0...0>. The dense references run from it."""
    if ns["scheme"] != "hybrid":
        return basis_state(n, 0)
    anc = parse_ancilla(n, ns["ancilla"])
    anc = basis_state(2, anc) if isinstance(anc, str) else anc
    return tensor(anc, basis_state(n - anc.n_wires, 0))


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
    # a strength is a real number: a bool or a string was read as 1.0 or 0.1
    for key, value in (("p1", True), ("p2", False), ("p_readout", "0.1"), ("p1", None), ("p2", 1j)):
        with pytest.raises(ValueError, match=f"{key} must be a real number, got {value!r}"):
            NoiseModel(**{key: value})
    assert NoiseModel(p2=np.float32(0.5)).p2 == 0.5 and NoiseModel(p_readout=np.int64(0)).p_readout == 0.0
    # a negative zero is held as +0.0, so no report can read -0.0
    nm = NoiseModel(p1=-0.0, p2=np.float64(-0.0), p_readout=-0.0)
    assert all(str(v) == "0.0" for v in (nm.p1, nm.p2, nm.p_readout))


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
    # exactly 1: the effect engine divides by the sum, as born_distribution does
    for scheme in ("corr3", "corr3-basic", "corr5"):
        for w in ("h", "x", "y", "z", "i", "ry:0.4", "ry:0.8", "ry:1.1", "ry:2.356"):
            s = exact_success({"scheme": scheme, "w": w, "noise": {}})
            assert s == 1.0, (scheme, w, s)


def test_noiseless_success_many_rounds():
    s = exact_success({"scheme": "corr3", "w": "h", "rounds": 7, "noise": {}})
    assert abs(s - 1.0) < 1e-10


def test_rounds_are_a_repeat_count_not_a_list():
    # the rounds fold into one factor at once, so a huge --rounds cannot
    # exhaust memory or time before the attack is applied
    _, _, w, _ = _normalize_spec({"scheme": "corr3", "rounds": 10**12})
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
        _, _, folded, _ = _normalize_spec({"scheme": "corr3", "w": sel, "rounds": rounds})
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T), n)
        expect = rho
        for _ in range(rounds):
            expect = attack(expect, w)
        got = attack(rho, folded).matrix
        assert np.abs(got - expect.matrix).max() <= 1e-13


def test_run_engines_cache_only_what_the_attack_does_not_change():
    _, corr, _, corr_data = _normalize_spec({"scheme": "corr5"})
    _, hyb, x, hyb_data = _normalize_spec({"scheme": "hybrid", "n": 5, "errors": ["x"]})
    # a long noise sweep in one process keeps at most maxsize entries
    for i in range(200):
        nm = NoiseModel(p1=i / 4000, p2=i / 400)
        effect_distribution(corr, H.matrix, corr_data, nm)
        pauli_fault_distribution(hyb, x, hyb_data, nm)
    for cached in (circuit._effects, circuit._fault_base):
        assert cached.cache_info().currsize <= cached.cache_parameters()["maxsize"] == 64
    # readout noise acts on the distribution, not on what is compiled
    for scheme in ("corr5", "hybrid"):
        exact_success({"scheme": scheme, "noise": {"p1": 1e-3, "p2": 1e-2}})
    misses = circuit._effects.cache_info().misses, circuit._fault_base.cache_info().misses
    for readout in (0.0, 0.01, 0.2):
        for scheme in ("corr5", "hybrid"):
            exact_success({"scheme": scheme, "noise": {"p1": 1e-3, "p2": 1e-2, "p_readout": readout}})
    assert (circuit._effects.cache_info().misses, circuit._fault_base.cache_info().misses) == misses
    rho, effects = circuit._effects(corr, (1, 3), 1e-3, 1e-2)
    base, _ = circuit._fault_base(hyb, tuple(hyb_data), 1e-3, 1e-2)
    assert rho.shape == (32, 32) and effects.shape == (4, 32 * 32)
    for a in (rho, effects, base):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # the decoder preserves the trace, so its effects sum to the identity
    for p1, p2 in ((0.0, 0.0), (1e-3, 1e-2), (1.0, 1.0)):
        _, effects = circuit._effects(corr, (1, 3), p1, p2)
        assert np.abs(effects.sum(axis=0).reshape(32, 32) - np.eye(32)).max() <= 1e-12


def test_a_corr_run_with_a_new_attack_builds_no_density_matrix(monkeypatch):
    spec = {"scheme": "corr5", "w": "h", "noise": {"p1": 1e-3, "p2": 1e-2, "p_readout": 1e-2}}
    run_named(spec)  # compiles the encoded state and the decoder's effects

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm run built or checked a density matrix")

    monkeypatch.setattr(circuit, "apply", forbidden)
    monkeypatch.setattr(DensityMatrix, "__init__", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    for w in ("x", "ry:0.123", "matrix:[[[0,0],[1,0]],[[1,0],[0,0]]]"):
        assert 0.0 < run_named(dict(spec, w=w)).success_probability < 1.0


def test_a_run_resolves_each_selector_once_and_builds_no_register_state(monkeypatch):
    noise = {"p1": 1e-3, "p2": 1e-2}
    specs = ({"scheme": "corr5", "w": "ry:1.1", "rounds": 3, "noise": noise},
             {"scheme": "hybrid", "n": 5, "ancilla": "ry:0.7", "errors": ["x", "y"], "noise": noise},
             {"scheme": "hybrid", "n": 6, "ancilla": "01", "noise": noise})
    for spec in specs:
        run_named(spec)  # compiles what the engines keep per circuit
    calls, widths = [], []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(correlated, "atom_from_selector", counted(correlated.atom_from_selector))
    monkeypatch.setattr(hybrid, "parse_ancilla", counted(hybrid.parse_ancilla))
    init = StateVector.__init__

    def recorded(self, amplitudes, n_wires=None):
        init(self, amplitudes, n_wires)
        widths.append(self.n_wires)

    monkeypatch.setattr(StateVector, "__init__", recorded)
    for spec, selector in zip(specs, ("atom_from_selector", "parse_ancilla", "parse_ancilla")):
        calls.clear()
        run_named(spec)
        assert calls == [selector], spec
    assert widths == [1]  # only the odd-width ancilla ry:0.7, as it is parsed


def test_the_effect_engine_rejects_a_non_unitary_attack_or_a_wire_out_of_range():
    c = _normalize_spec({"scheme": "corr3"})[1]
    for w in (2 * H.matrix.array, np.eye(4), [[1, 0], [0, 1 + 1e-9]], np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="unitary"):
            effect_distribution(c, w, [1])
    for measured in ([3], [-1], [], [0.5]):
        with pytest.raises(ValueError, match="measured wire"):
            effect_distribution(c, H.matrix, measured)


def test_hybrid_noiseless_success():
    s = exact_success({"scheme": "hybrid", "n": 5, "ancilla": "ry:2.356", "errors": ["x"]})
    assert abs(s - 1.0) < 1e-10
    s = exact_success({"scheme": "hybrid", "n": 4, "ancilla": "11", "errors": ["y", "z"]})
    assert abs(s - 1.0) < 1e-10


def test_folded_pauli_attack_matches_pauli_by_pauli():
    # the run applies a hybrid Pauli list as one product factor; on the
    # dense pass that gives the very same numbers as applying each Pauli in
    # turn, and the run's Pauli-fault engine agrees with both to rounding
    for n, ancilla in ((5, "ry:0.7"), (6, "01")):
        run = _normalize_spec({"scheme": "hybrid", "n": n, "ancilla": ancilla,
                               "errors": ["x", "y", "z", "y"],
                               "noise": {"p1": 1e-3, "p2": 1e-2}})
        ns, circ, w, data = run
        assert np.array_equal(w, attack_factor(ns["errors"]))
        rho = apply(circ, to_density(initial_state(ns, n)), ns["noise"])
        dec = dagger_circuit(circ)
        folded = apply(dec, attack(rho, w), ns["noise"])
        for tag in ns["errors"]:  # in the report's case
            rho = attack(rho, circuit._PAULIS[PAULI_TAGS.index(tag.upper())])
        rho = apply(dec, rho, ns["noise"])
        expect = born_distribution(DensityMatrix(rho.matrix, n), data)
        assert np.array_equal(born_distribution(DensityMatrix(folded.matrix, n), data), expect)
        assert np.abs(_exact_distribution(*run) - expect).max() <= 1e-14


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
    # a shot count is bounded, so a huge one exits at once instead of hanging
    assert _normalize_spec({"scheme": "corr3", "shots": 10**9})[0]["shots"] == 10**9
    with pytest.raises(ValueError, match="shots must be at most 1000000000, got 1000000001"):
        _normalize_spec({"scheme": "corr3", "shots": 10**9 + 1})
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


def test_a_json_report_leaves_no_reference_cycle():
    # json's indent encoder left a 33-object cycle per report, work for the
    # cyclic collector on every run of a long sweep
    rep = run_named({"scheme": "hybrid", "n": 4, "errors": ["x"], "shots": 8})
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        report_to_json(rep)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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


@pytest.mark.parametrize("spec", [
    {"scheme": "corr3"}, {"scheme": "corr5"},
    *({"scheme": "hybrid", "n": n} for n in range(3, 9)),
], ids=lambda spec: f"{spec['scheme']}{spec.get('n', '')}")
def test_count_keys_are_the_nonzero_bins_in_ascending_order(spec, monkeypatch):
    drawn = []

    def recorded(*args):
        drawn.append(circuit.sample_counts(*args))
        return drawn[-1]

    monkeypatch.setattr(noise_exp, "sample_counts", recorded)
    for shots in (16, 8192):
        rep = run_named({**spec, "noise": {"p1": 0.01, "p2": 0.05, "p_readout": 0.05}, "shots": shots})
        hits = drawn[-1]
        m = rep.histogram.n_measured
        assert len(hits) == 2**m
        nonzero = [i for i, c in enumerate(hits) if c > 0]
        assert list(rep.histogram.counts) == [format(i, f"0{m}b") for i in nonzero]
        assert [type(c) for c in rep.histogram.counts.values()] == [int] * len(nonzero)
        assert list(rep.histogram.counts.values()) == [int(hits[i]) for i in nonzero]
