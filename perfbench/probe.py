"""Host-speed probe: a fixed computation, timed next to every op.

On a shared host a neighbour can slow the very same op by half or more, in
stretches of seconds to minutes, and CPU time counts that slowdown too.
The probe is this file's own fixed code, so it does not change when the
program does; timed right before and right after an op, it shows how fast
the host ran just then. run.py scales each op's CPU time by
PROBE_REF_S / probe time, which gives the op's time on a host running at
reference speed.

The probe mixes what corrqec's ops are made of: a chain of 64x64 complex
matrix products with reshapes and einsum sums (the noisy pass at width 6)
and plain interpreter work on a dict (argparse, specs, serialization).
"""
from __future__ import annotations

from time import process_time

import numpy as np

# A round figure just under the probe's fastest CPU time on a 2-core Intel
# Xeon KVM guest (2.3 ms, numpy 2.4.6, OpenBLAS, one thread). It only sets
# the scale: the scaled metrics read as ms or s at that speed.
PROBE_REF_S = 0.002

_rng = np.random.default_rng(20220225)


def _unitary(dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(_rng.normal(size=(dim, dim)) + 1j * _rng.normal(size=(dim, dim)))
    return q


_U = _unitary(64)
_RHO = np.eye(64, dtype=complex) / 64


def _work() -> float:
    rho = _RHO
    for _ in range(20):
        rho = _U @ rho @ _U.conj().T
        reduced = np.einsum("aiaj->ij", rho.reshape(2, 32, 2, 32))
        rho = 0.99 * rho + 0.005 * reduced.repeat(2, 0).repeat(2, 1)
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
    return float(rho[0, 0].real) + len(table)


def probe_seconds() -> float:
    """CPU seconds of one probe run."""
    start = process_time()
    _work()
    return process_time() - start
