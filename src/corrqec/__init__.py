"""Simulator and verification suite for error-avoiding codes against
fully-correlated qubit noise.

The package has two halves. `correlated` covers the three-qubit code whose
encoder pushes an arbitrary identical single-qubit attack onto a sink wire,
plus its recursive extension to 2k+1 wires; `hybrid` covers the n-qubit
encoders that turn collective Pauli attacks into ancilla-only operations.
`noise_exp` wraps both in depolarizing-noise experiments with reproducible
sampled reports, `proofs` holds the `verify` battery that checks both
schemes' claims, and `cli` exposes everything as the `corrqec` command.
"""
from __future__ import annotations

from .circuit import (
    Circuit,
    DensityMatrix,
    Histogram,
    StateVector,
    apply,
    basis_state,
    born_distribution,
    circuit_to_text,
    fidelity,
    partial_trace,
    realize,
    tensor,
    to_density,
)
from .correlated import (
    CorrelatedChannel,
    basic_decomposition,
    build_new_U,
    build_old_U,
    erroneous_decomposition_product,
    make_channel,
    recursive_encoder,
    standard_decomposition,
    three_qubit_protect,
    verify_block_structure,
)
from .gates import CNOT, H, I, X, Y, Z, Gate, PlacedGate, controlled, embed, ry
from .hybrid import hybrid_encoder, hybrid_protect
from .linalg import ComplexMatrix, equal_up_to_global_phase, max_abs_diff
from .noise_exp import NoiseModel, exact_success, run_named

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "Circuit",
    "ComplexMatrix",
    "CorrelatedChannel",
    "DensityMatrix",
    "Gate",
    "H",
    "Histogram",
    "I",
    "NoiseModel",
    "PlacedGate",
    "StateVector",
    "X",
    "Y",
    "Z",
    "apply",
    "basic_decomposition",
    "basis_state",
    "born_distribution",
    "build_new_U",
    "build_old_U",
    "circuit_to_text",
    "controlled",
    "embed",
    "equal_up_to_global_phase",
    "erroneous_decomposition_product",
    "exact_success",
    "fidelity",
    "hybrid_encoder",
    "hybrid_protect",
    "make_channel",
    "max_abs_diff",
    "partial_trace",
    "realize",
    "recursive_encoder",
    "ry",
    "run_named",
    "standard_decomposition",
    "tensor",
    "three_qubit_protect",
    "to_density",
    "verify_block_structure",
]
