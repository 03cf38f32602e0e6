"""Named, reproducible experiments under depolarizing gate noise.

An experiment is encode -> attack -> decode -> measure the data wires. The
encoder and its inverse run through `circuit.apply` with the spec's
`NoiseModel` (its docstring says where the kicks go), and the attack is one
2x2 factor that `circuit.attack` applies exactly to every wire: W^rounds for
the correlated schemes, the product of the Pauli list for hybrid. Readout
bit-flips, if enabled, act on the exact outcome distribution of the
measured wires.

success_probability is always computed from that exact distribution (the
same one the sampler draws from), so it is independent of shot count.
Reports serialize with sorted keys and fixed indentation, making repeat
runs byte-identical for a given experiment spec and seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import correlated, hybrid
from .circuit import (
    DensityMatrix,
    Histogram,
    NoiseModel,
    apply,
    attack,
    basis_state,
    born_distribution,
    contract,
    dagger_circuit,
    sample_counts,
    tensor,
    to_density,
)


def _readout_flip(probs: np.ndarray, p: float) -> np.ndarray:
    if p == 0.0:
        return probs
    flip = np.array([[1.0 - p, p], [p, 1.0 - p]])
    t = probs.reshape((2,) * int(np.log2(len(probs))))
    for axis in range(t.ndim):
        t = contract(t, flip, (axis,))
    return t.reshape(-1)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    histogram: Histogram
    success_probability: float
    config: dict
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.success_probability <= 1.0 + 1e-12:
            raise ValueError("success_probability must lie in [0, 1]")


# Correlated schemes: encoder circuit factory and k, the number of data
# qubits on its 2k+1 wires. The lambdas look the factories up when called,
# so a profiler that rebinds the module attributes still sees each call.
_CORRELATED = {
    "corr3": (lambda: correlated.standard_decomposition(), 1),
    "corr3-basic": (lambda: correlated.basic_decomposition(), 1),
    "corr5": (lambda: correlated.recursive_encoder(2), 2),
}
_SCHEMES = (*_CORRELATED, "hybrid")
_COMMON_KEYS = {"scheme", "noise", "shots", "seed", "name"}
_CORRELATED_KEYS = {"w", "rounds"}
_HYBRID_KEYS = {"n", "ancilla", "errors"}


def _integer(s: dict, key: str, default: int, least: int) -> int:
    """An integer spec value; a bool or a float is rejected, not truncated."""
    v = s.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{key} must be at least {least}, got {v}")
    return int(v)


def _normalize_spec(spec: dict) -> dict:
    """Validate an experiment spec and fill in every default."""
    s = dict(spec)
    scheme = s.get("scheme")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown experiment scheme {scheme!r}; expected one of {_SCHEMES}")
    unknown = set(s) - _COMMON_KEYS - _CORRELATED_KEYS - _HYBRID_KEYS
    if unknown:
        raise ValueError(f"unknown experiment parameters {sorted(unknown)}")
    foreign = set(s) & (_CORRELATED_KEYS if scheme == "hybrid" else _HYBRID_KEYS)
    if foreign:
        raise ValueError(f"parameters {sorted(foreign)} do not apply to scheme {scheme!r}")
    noise = s.get("noise", {})
    if isinstance(noise, NoiseModel):
        nm = noise
    else:
        d = dict(noise)
        unknown = set(d) - {"p1", "p2", "p_readout"}
        if unknown:
            raise ValueError(f"unknown noise parameters {sorted(unknown)}")
        for k, v in d.items():
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
                raise ValueError(f"{k} must be a real number, got {v!r}")
        nm = NoiseModel(**{k: float(v) for k, v in d.items()})
    out = {
        "scheme": scheme,
        "noise": nm,
        "shots": _integer(s, "shots", 8192, 1),
        "seed": _integer(s, "seed", 0, 0),
        # hybrid specs cannot set rounds: their attack list is `errors`
        "rounds": _integer(s, "rounds", 1, 1),
    }
    name = s.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    if scheme in _CORRELATED:
        out["w"] = str(s.get("w", "h"))
        correlated.atom_from_selector(out["w"])  # validate early
        out["name"] = name or scheme
    else:
        n = _integer(s, "n", 3, 3)  # n = 2 has no data wire to measure
        ancilla = s.get("ancilla")
        if ancilla is None:
            ancilla = "0" if n % 2 == 1 else "00"
        hybrid.parse_ancilla(n, ancilla)
        errors = s.get("errors", ["I"])
        if not isinstance(errors, (list, tuple)):
            raise ValueError(f"errors must be a list of tags, got {errors!r}")
        if not errors:
            raise ValueError("hybrid errors list is empty; use ['i'] for a run without attack")
        out["n"] = n
        out["ancilla"] = str(ancilla)
        out["errors"] = [hybrid.normalize_tag(t) for t in errors]
        out["name"] = name or f"hybrid{n}"
    return out


def _build_experiment(ns: dict):
    """Return (encode circuit, initial state, attack factor, data wires,
    expected bit string) for a normalized experiment spec. The attack is
    one 2x2 factor for every wire: W^rounds, or the hybrid Pauli product,
    so the cost of a run depends on neither the rounds nor the list."""
    if ns["scheme"] in _CORRELATED:
        factory, k = _CORRELATED[ns["scheme"]]
        circ = factory()
        n = circ.n_wires
        init = basis_state(n, "0" * n)
        w = correlated.atom_from_selector(ns["w"])
        if ns["rounds"] > 1:
            # rounding drifts a long power off unitarity (H^(2e9) by 4e-7):
            # project it onto the nearest unitary, the polar factor u vh
            u, _, vh = np.linalg.svd(np.linalg.matrix_power(w, ns["rounds"]))
            w = u @ vh
        data = correlated.recursive_data_wires(k)
    else:
        n = ns["n"]
        circ = hybrid.encoder_circuit(n)
        anc = hybrid.parse_ancilla(n, ns["ancilla"])
        anc_state = basis_state(2, anc) if isinstance(anc, str) else anc
        data = list(hybrid.data_wires(n))
        init = tensor(anc_state, basis_state(len(data), "0" * len(data)))
        w = hybrid.attack_factor(ns["errors"])
    return circ, init, w, data, "0" * len(data)


def _exact_distribution(ns: dict):
    circ, init, w, data, expected = _build_experiment(ns)
    nm: NoiseModel = ns["noise"]
    rho = apply(circ, to_density(init), nm)
    rho = apply(dagger_circuit(circ), attack(rho, w), nm)
    # the one check of a run's state, at the boundary before measurement
    probs = born_distribution(DensityMatrix(rho.matrix, circ.n_wires), data)
    probs = _readout_flip(probs, nm.p_readout)
    return probs, data, expected


def exact_success(spec: dict) -> float:
    """Probability mass on the prepared data bits, no sampling involved."""
    ns = _normalize_spec(spec)
    probs, _, expected = _exact_distribution(ns)
    return float(probs[int(expected, 2)])


def run_named(spec: dict) -> ExperimentReport:
    """Run one named experiment: build, add noise, sample, report.

    The sampler's stream is derived from (seed, experiment name), so
    different experiments at the same seed are independent while repeat
    runs are bit-identical.
    """
    ns = _normalize_spec(spec)
    probs, data, expected = _exact_distribution(ns)
    success = float(probs[int(expected, 2)])

    seq = np.random.SeedSequence([ns["seed"]] + list(ns["name"].encode()))
    rng = np.random.Generator(np.random.PCG64(seq))
    hits = sample_counts(probs, ns["shots"], rng)
    m = len(data)
    counts = {format(i, f"0{m}b"): int(c) for i, c in enumerate(hits) if c > 0}
    hist = Histogram(n_measured=m, counts=counts, shots=ns["shots"])

    nm: NoiseModel = ns["noise"]
    config = {
        "scheme": ns["scheme"],
        "rounds": ns["rounds"],
        "noise": {"p1": nm.p1, "p2": nm.p2, "p_readout": nm.p_readout},
    }
    if "w" in ns:
        config["w"] = ns["w"]
    else:
        config["n"] = ns["n"]
        config["ancilla"] = ns["ancilla"]
        config["errors"] = [t.lower() for t in ns["errors"]]
    return ExperimentReport(
        name=ns["name"],
        histogram=hist,
        success_probability=success,
        config=config,
        seed=ns["seed"],
    )


def _flip_keys(counts: dict[str, int]) -> dict[str, int]:
    return {k[::-1]: v for k, v in counts.items()}


def report_to_json(rep: ExperimentReport, ibm_bit_order: bool = False) -> str:
    counts = _flip_keys(rep.histogram.counts) if ibm_bit_order else rep.histogram.counts
    payload = {
        "name": rep.name,
        "seed": rep.seed,
        "config": rep.config,
        "shots": rep.histogram.shots,
        "counts": {k: int(v) for k, v in counts.items()},
        "success_probability": rep.success_probability,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_to_csv(rep: ExperimentReport, ibm_bit_order: bool = False) -> str:
    counts = _flip_keys(rep.histogram.counts) if ibm_bit_order else rep.histogram.counts
    lines = ["bitstring,count"]
    for key in sorted(counts):
        lines.append(f"{key},{counts[key]}")
    return "\n".join(lines) + "\n"
