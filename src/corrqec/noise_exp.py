"""Depolarizing gate noise and named, reproducible experiments.

Noise placement: after every circuit gate, each touched wire gets a
single-wire depolarizing kick, with strength p1 for one-wire gates and p2
split evenly over the touched wires for wider gates (p2/2 on each wire of
a two-wire gate, not a 15-Pauli two-wire channel). The attack rounds
between encode and decode are applied exactly, one 2x2 factor on every
wire (they model the channel being corrected, not hardware error).
Readout bit-flips, if enabled, act on the exact outcome distribution of
the measured wires.

The density matrix is a (2,)*2n tensor, row axes then column axes, so a
k-wire gate g and its kicks are one 4^k x 4^k superoperator D_k(p) (g
tensor conj(g)) that the kernel `circuit.contract` applies to the gate's
row and column axes in one pass (arXiv:1802.08032). The attack rounds fold
into one factor W^rounds, applied per wire as the 4x4 W tensor conj(W).

success_probability is always computed from that exact distribution (the
same one the sampler draws from), so it is independent of shot count.
Reports serialize with sorted keys and fixed indentation, making repeat
runs byte-identical for a given experiment spec and seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import correlated, hybrid
from .circuit import (
    Circuit,
    DensityMatrix,
    Histogram,
    basis_state,
    born_distribution,
    contract,
    dagger_circuit,
    sample_counts,
    tensor,
    to_density,
)


@dataclass(frozen=True)
class NoiseModel:
    p1: float = 0.0
    p2: float = 0.0
    p_readout: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_readout"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


@lru_cache(maxsize=64)  # a run needs 1-3 entries; a sweep must not pile them up
def _kicks(k: int, p: float) -> np.ndarray:
    """D_k(p), a depolarizing kick of strength p on each of k wires: a
    read-only 4^k x 4^k superoperator in (row axes, column axes) order.
    One wire's kick (1-p) rho + p (I/2 tensor Tr_wire rho) is, on its
    (row, column) axis pair, (1-p) I_4 + (p/2) v v^T with v = (1, 0, 0, 1)."""
    v = np.array([1.0, 0.0, 0.0, 1.0])
    one = (1.0 - p) * np.eye(4) + (0.5 * p) * np.outer(v, v)
    d = np.eye(4**k).reshape((2,) * (4 * k))
    for i in range(k):
        d = contract(d, one, (i, k + i))
    d = d.reshape(4**k, 4**k)
    d.setflags(write=False)
    return d


def _apply_noisy_array(c: Circuit, rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    n = c.n_wires
    t = rho.reshape((2,) * (2 * n))
    for pg in c.gates:
        g, k = pg.gate.matrix.array, pg.gate.arity
        strength = nm.p1 if k == 1 else nm.p2 / k
        superop = _kicks(k, strength) @ np.kron(g, g.conj())
        t = contract(t, superop, pg.wires + tuple(n + w for w in pg.wires))
    return t.reshape(rho.shape)


def _apply_attack(t: np.ndarray, w: np.ndarray, repeats: int, n: int) -> np.ndarray:
    """`repeats` rounds of w on every wire, folded into one factor W^repeats.
    Rounding drifts a long product off unitarity (H^(2e9) by 4e-7), so a
    power is projected onto the nearest unitary, the polar factor u vh of
    its SVD."""
    if repeats > 1:
        u, _, vh = np.linalg.svd(np.linalg.matrix_power(w, repeats))
        w = u @ vh
    superop = np.kron(w, w.conj())
    for wire in range(n):
        t = contract(t, superop, (wire, n + wire))
    return t


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
        nm = NoiseModel(**{k: float(v) for k, v in d.items()})
    out = {
        "scheme": scheme,
        "noise": nm,
        "shots": int(s.get("shots", 8192)),
        "seed": int(s.get("seed", 0)),
        # hybrid specs cannot set rounds: their attack list is `errors`
        "rounds": int(s.get("rounds", 1)),
    }
    if out["shots"] < 1:
        raise ValueError("shots must be at least 1")
    if out["rounds"] < 1:
        raise ValueError("rounds must be at least 1")
    if scheme in _CORRELATED:
        out["w"] = str(s.get("w", "h"))
        correlated.atom_from_selector(out["w"])  # validate early
        out["name"] = s.get("name") or scheme
    else:
        n = int(s.get("n", 3))
        if n < 3:
            raise ValueError("hybrid experiments need at least one data wire to measure (n >= 3)")
        ancilla = s.get("ancilla")
        if ancilla is None:
            ancilla = "0" if n % 2 == 1 else "00"
        hybrid.parse_ancilla(n, ancilla)
        errors = s.get("errors", ["I"])
        if not errors:
            raise ValueError("hybrid errors list is empty; use ['i'] for a run without attack")
        out["n"] = n
        out["ancilla"] = str(ancilla)
        out["errors"] = [hybrid.normalize_tag(t) for t in errors]
        out["name"] = s.get("name") or f"hybrid{n}"
    return out


def _build_experiment(ns: dict):
    """Return (encode circuit, initial state, attack, data wires, expected
    bit string) for a normalized experiment spec. The attack lists (2x2
    factor, repeats) pairs; a round applies its factor to every wire, and a
    hybrid Pauli list is one round, the product of its Paulis."""
    if ns["scheme"] in _CORRELATED:
        factory, k = _CORRELATED[ns["scheme"]]
        circ = factory()
        n = circ.n_wires
        init = basis_state(n, "0" * n)
        attack = [(correlated.atom_from_selector(ns["w"]).array, ns["rounds"])]
        data = correlated.recursive_data_wires(k)
    else:
        n = ns["n"]
        circ = hybrid.encoder_circuit(n)
        anc = hybrid.parse_ancilla(n, ns["ancilla"])
        anc_state = basis_state(2, anc) if isinstance(anc, str) else anc
        data = list(hybrid.data_wires(n))
        init = tensor(anc_state, basis_state(len(data), "0" * len(data)))
        # one factor for the whole list, so the cost of a run does not
        # depend on how many Paulis it lists
        attack = [(hybrid.attack_factor(ns["errors"]), 1)]
    return circ, init, attack, data, "0" * len(data)


def _exact_distribution(ns: dict):
    circ, init, attack, data, expected = _build_experiment(ns)
    nm: NoiseModel = ns["noise"]
    n = circ.n_wires
    t = to_density(init).matrix.array.reshape((2,) * (2 * n))
    t = _apply_noisy_array(circ, t, nm)
    for w, repeats in attack:
        t = _apply_attack(t, w, repeats, n)
    t = _apply_noisy_array(dagger_circuit(circ), t, nm)
    probs = born_distribution(DensityMatrix(t.reshape(2**n, 2**n), n), data)
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
