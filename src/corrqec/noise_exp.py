"""Named, reproducible experiments under depolarizing gate noise.

An experiment is encode -> attack -> decode -> measure the data wires,
under the spec's `NoiseModel` (the `circuit` docstring says where the kicks
go). `_normalize_spec` checks a spec and resolves it once into the encode
circuit, the attack as one 2x2 factor on every wire (W^rounds for the
correlated schemes, the product of the Pauli list for hybrid) and the data
wires. The scheme picks the engine; both take those parts as one argument
list and compile everything but the attack once per (circuit, measured
wires, p1, p2): the correlated schemes run `circuit.effect_distribution`,
which attacks a cached encoded state and reads it through the decoder's
cached effects, and hybrid runs, Clifford encoders under a Pauli attack,
run the exact `circuit.pauli_fault_distribution`, which does not read the
ancilla. Readout bit-flips, if enabled, act on the exact outcome
distribution of the measured wires, per run.

success_probability is always computed from that exact distribution (the
same one the sampler draws from), so it is independent of shot count.
Reports serialize with sorted keys and fixed indentation, making repeat
runs byte-identical for a given experiment spec and seed.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import correlated, hybrid
from .circuit import (
    Circuit,
    Histogram,
    NoiseModel,
    contract,
    effect_distribution,
    pauli_fault_distribution,
    sample_counts,
)
from .linalg import _integer


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


# Correlated schemes: the encoder circuit factory, on 2k+1 wires for k data
# qubits. The lambdas look the factories up when called, so a profiler that
# rebinds the module attributes still sees each call.
_CORRELATED = {
    "corr3": lambda: correlated.standard_decomposition(),
    "corr3-basic": lambda: correlated.basic_decomposition(),
    "corr5": lambda: correlated.recursive_encoder(2),
}
_SCHEMES = (*_CORRELATED, "hybrid")
_COMMON_KEYS = {"scheme", "noise", "shots", "seed", "name"}
_CORRELATED_KEYS = {"w", "rounds"}
_HYBRID_KEYS = {"n", "ancilla", "errors"}
# Every spec key with one fixed default, and that default; `run --help`
# quotes them. `name` and `ancilla` default per scheme and width.
_DEFAULTS = {"shots": 8192, "seed": 0, "rounds": 1, "w": "h", "n": 3, "errors": ("i",)}
# Most shots a run may draw. Sampling takes 16-19 ns of CPU per shot on a
# 2-core x86 host, so this is some 20 s; far larger counts looked like a hang.
_MAX_SHOTS = 10**9


def _normalize_spec(spec: dict) -> tuple[dict, Circuit, np.ndarray, list[int]]:
    """Validate an experiment spec, fill in every default and resolve each
    selector once. Returns the normalized spec, the encode circuit, the
    attack as one 2x2 factor for every wire (W^rounds, or the hybrid Pauli
    product, so a run's cost depends on neither) and the data wires, which
    start in |0...0>, so success is the probability of outcome 0."""
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
    nm = s.get("noise", {})
    if not isinstance(nm, (dict, NoiseModel)):
        raise ValueError(f"noise must be a dict or a NoiseModel, got {nm!r}")
    if isinstance(nm, dict):
        unknown = set(nm) - {"p1", "p2", "p_readout"}
        if unknown:
            raise ValueError(f"unknown noise parameters {sorted(unknown)}")
        nm = NoiseModel(**nm)
    shots = _integer(s.get("shots", _DEFAULTS["shots"]), "shots", 1)
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most {_MAX_SHOTS}, got {shots}")
    out = {
        "scheme": scheme,
        "noise": nm,
        "shots": shots,
        "seed": _integer(s.get("seed", _DEFAULTS["seed"]), "seed", 0),
        # hybrid specs cannot set rounds: their attack list is `errors`
        "rounds": _integer(s.get("rounds", _DEFAULTS["rounds"]), "rounds", 1),
    }
    name, w, ancilla = s.get("name"), s.get("w"), s.get("ancilla")
    for key, v in (("name", name), ("w", w), ("ancilla", ancilla)):  # None: the default
        if v is not None and not isinstance(v, str):
            raise ValueError(f"{key} must be a string, got {v!r}")
    if scheme in _CORRELATED:
        out["w"] = _DEFAULTS["w"] if w is None else w
        w = correlated.atom_from_selector(out["w"])
        if out["rounds"] > 1:
            # rounding drifts a long power off unitarity (H^(2e9) by 4e-7):
            # project it onto the nearest unitary, the polar factor u vh
            u, _, vh = np.linalg.svd(np.linalg.matrix_power(w, out["rounds"]))
            w = u @ vh
        out["name"] = name or scheme
        circ = _CORRELATED[scheme]()
        data = correlated.recursive_data_wires(circ.n_wires // 2)
    else:
        n = _integer(s.get("n", _DEFAULTS["n"]), "n", 3)  # n = 2 has no data wire to measure
        if ancilla is None:
            ancilla = "0" if n % 2 == 1 else "00"
        hybrid.parse_ancilla(n, ancilla)  # checked only: the engine does not read it
        errors = s.get("errors", _DEFAULTS["errors"])
        if not isinstance(errors, (list, tuple)):
            raise ValueError(f"errors must be a list of tags, got {errors!r}")
        if not errors:
            raise ValueError("hybrid errors list is empty; use ['i'] for a run without attack")
        out["n"] = n
        out["ancilla"] = ancilla
        out["errors"] = [hybrid.normalize_tag(t) for t in errors]
        out["name"] = name or f"hybrid{n}"
        w = hybrid.attack_factor(out["errors"])
        circ = hybrid.encoder_circuit(n)
        data = list(hybrid.data_wires(n))
    return out, circ, w, data


def _exact_distribution(ns: dict, circ: Circuit, w: np.ndarray, data: list[int]) -> np.ndarray:
    """The exact outcome distribution of a resolved spec's data wires,
    readout flips included. Both engines take the same arguments."""
    engine = pauli_fault_distribution if ns["scheme"] == "hybrid" else effect_distribution
    nm: NoiseModel = ns["noise"]
    return _readout_flip(engine(circ, w, data, nm), nm.p_readout)


def exact_success(spec: dict) -> float:
    """Probability mass on the prepared data bits, no sampling involved."""
    return float(_exact_distribution(*_normalize_spec(spec))[0])


def run_named(spec: dict) -> ExperimentReport:
    """Run one named experiment: build, add noise, sample, report.

    The sampler's stream is derived from (seed, experiment name), so
    different experiments at the same seed are independent while repeat
    runs are bit-identical.
    """
    ns, circ, w, data = _normalize_spec(spec)
    probs = _exact_distribution(ns, circ, w, data)
    success = float(probs[0])

    seq = np.random.SeedSequence([ns["seed"]] + list(ns["name"].encode()))
    rng = np.random.Generator(np.random.PCG64(seq))
    hits = sample_counts(probs, ns["shots"], rng)
    m = len(data)
    counts = {format(i, f"0{m}b"): int(c) for i, c in enumerate(hits) if c > 0}
    hist = Histogram(n_measured=m, counts=counts, shots=ns["shots"])

    config = {k: v for k, v in ns.items() if k not in ("name", "shots", "seed")}
    config["noise"] = asdict(ns["noise"])
    if "errors" in config:
        config["errors"] = [t.lower() for t in config["errors"]]
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
