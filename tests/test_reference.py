"""corrqec against the benchmark's independent simulator and oracle table.

`perfbench/make_oracle.py` recomputes each grid point with its own
tensor-contraction pass, sharing only the circuit definitions with corrqec;
`perfbench/oracle.json` holds the values the benchmark checks reports
against. This test runs both on a tenth of the grid, so an engine change
that moves a success probability fails here before it reaches the benchmark.
So does a traced function that is renamed or removed, or a `verify` check
added or dropped without the benchmark's count, or a proof the tracer can
no longer see.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import VERIFY_CHECKS, load_oracle  # noqa: E402
from make_oracle import AGREE_TOL, library_success, reference_success  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import oracle_grid  # noqa: E402

from corrqec import cli, correlated, hybrid, proofs  # noqa: E402


def test_every_name_the_benchmark_pins_resolves():
    # the tracer wraps each "<module>.<function>" by name, and the verify
    # check counts the PASS lines
    for name in TRACED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"corrqec.{module}"), function, None)), name
    assert len(proofs.CHECKS) == VERIFY_CHECKS


def test_the_tracer_sees_every_call_of_a_verify_battery():
    # the tracer rebinds names only in the modules it lists, which leave
    # out `proofs`: a proof that bound a traced function by name would run
    # untraced, and its time would land on `cli.main`
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 0  # fills the caches, so the counts are a warm battery's
        with Tracer() as tracer:
            assert cli.main(["verify"]) == 0
    assert sum(tracer.errors.values()) == 0
    calls = {name: tracer.calls[name] for name in
             ("circuit.realize", "correlated.standard_decomposition", "noise_exp.exact_success")}
    assert calls == {"circuit.realize": 5, "correlated.standard_decomposition": 5, "noise_exp.exact_success": 2}


def test_every_tenth_grid_point_matches_the_reference_and_the_oracle():
    # make_oracle reads each gate as `pg.gate.matrix.array`
    for circ in (correlated.standard_decomposition(), hybrid.hybrid_encoder(3).circuit):
        for pg in circ.gates:
            assert isinstance(pg.gate.matrix.array, np.ndarray)
            assert pg.gate.matrix.array.shape == (2**pg.gate.arity,) * 2
    oracle = load_oracle()
    points = oracle_grid()[::10]
    assert len(points) == 59
    for op in points:
        value = library_success(op)
        assert abs(value - reference_success(op)) <= AGREE_TOL, op.oracle_key
        assert abs(value - oracle[op.oracle_key]) <= 1e-9, op.oracle_key
