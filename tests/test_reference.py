"""corrqec against the benchmark's independent simulator and oracle table.

`perfbench/make_oracle.py` recomputes each grid point with its own
tensor-contraction pass, sharing only the circuit definitions with corrqec;
`perfbench/oracle.json` holds the values the benchmark checks reports
against. This test runs both on a tenth of the grid, so an engine change
that moves a success probability fails here before it reaches the benchmark.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import load_oracle  # noqa: E402
from make_oracle import AGREE_TOL, library_success, reference_success  # noqa: E402
from workloads import oracle_grid  # noqa: E402

from corrqec import correlated, hybrid  # noqa: E402


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
