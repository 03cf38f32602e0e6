"""Workload definitions: fixed grids, and the seeded op lists drawn from them.

An op is one `corrqec` command line. The seed picks points from the grids
and the `--seed` each `run` gets; the program only ever sees argv.

Each workload's op list is a fixed number of blocks. A block holds every
cost-driving stratum in fixed proportion (scheme, width, noise, rounds) and
draws the cost-neutral axes (attack, Pauli list, ancilla, format, sampler
seed) from the seed, then shuffles. The timed phase runs the whole list in
repeated passes and times only complete passes, so every seed times the
same mix and the latency percentiles land in the same place of that mix on
every run.

Hybrid `--rounds` is left out of every grid on purpose: the flag is
recorded in the report but applies the attack only once. When that is
fixed, the same argv would do more work and read as a regression.
"""
from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

SHOTS = 8192

NOISE_OFF = "0"
NOISE_GATE = "p1=1e-3,p2=1e-2"
NOISE_GATE_READOUT = "p1=1e-3,p2=1e-2,readout=1e-2"
NOISE_GRID = (NOISE_OFF, NOISE_GATE, NOISE_GATE_READOUT)
NOISY_GRID = (NOISE_GATE, NOISE_GATE_READOUT)

CORR_SCHEMES = ("corr3", "corr3-basic", "corr5")
CORR_ATTACKS = ("h", "x", "y", "ry:0.4", "ry:1.1", "ry:2.356")
CORR_ROUNDS = (1, 2, 3)

PAULI_LISTS = ("x", "y", "z", "x,y", "y,z", "z,x", "x,y,z")
ODD_ANCILLAS = ("0", "1", "ry:0.7", "ry:2.356")
EVEN_ANCILLAS = ("00", "01", "10", "11")

SMALL_WIDTHS = (3, 4, 5)
# Per block of 40: 32 ops at width 6, 7 at width 7, 1 at width 8. Width 6
# covers 0-80 % of the sorted latencies and width 7 covers 80-97.5 %, so
# the median sits inside the width-6 mode and any tail percentile from
# p85 to p96 inside the width-7 mode, away from the boundaries.
WIDE_MIX = ((6, 32), (7, 7), (8, 1))


@dataclass(frozen=True)
class Op:
    """One command line plus what its output must show."""

    argv: tuple[str, ...]
    kind: str  # "run" or "verify"
    scheme: str = ""
    fmt: str = "json"
    seed: int = 0
    w: str = ""
    rounds: int = 1
    n: int = 0
    errors: str = ""
    ancilla: str = ""
    noise: str = NOISE_OFF

    @property
    def oracle_key(self) -> str:
        """Grid point whose success probability the oracle table holds.

        Shots, format and sampler seed do not change the exact value.
        """
        if self.scheme == "hybrid":
            return f"hybrid n={self.n} errors={self.errors} ancilla={self.ancilla} noise={self.noise}"
        return f"{self.scheme} w={self.w} rounds={self.rounds} noise={self.noise}"

    @property
    def measured_wires(self) -> int:
        if self.scheme == "hybrid":
            return self.n - (1 if self.n % 2 else 2)
        return 2 if self.scheme == "corr5" else 1

    def command(self, out_path: str) -> list[str]:
        return list(self.argv) + (["--out", out_path] if self.kind == "run" else [])


VERIFY_OP = Op(argv=("verify",), kind="verify")


def corr_op(scheme: str, w: str, rounds: int, noise: str, seed: int, fmt: str = "json") -> Op:
    argv = ("run", "--scheme", scheme, "--w", w, "--rounds", str(rounds), "--noise", noise,
            "--shots", str(SHOTS), "--seed", str(seed), "--format", fmt)
    return Op(argv, "run", scheme, fmt, seed, w=w, rounds=rounds, noise=noise)


def hybrid_op(n: int, errors: str, ancilla: str, noise: str, seed: int, fmt: str = "json") -> Op:
    argv = ("run", "--scheme", "hybrid", "--n", str(n), "--errors", errors, "--ancilla", ancilla,
            "--noise", noise, "--shots", str(SHOTS), "--seed", str(seed), "--format", fmt)
    return Op(argv, "run", "hybrid", fmt, seed, n=n, errors=errors, ancilla=ancilla, noise=noise)


def _ancillas(n: int) -> tuple[str, ...]:
    return ODD_ANCILLAS if n % 2 else EVEN_ANCILLAS


def _sampler_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _small_block(rng: random.Random) -> list[Op]:
    # 27 corr ops (every scheme x noise x rounds) and 27 hybrid ops (every
    # width x noise, three times); one report in six is CSV.
    def fmt():
        return "csv" if rng.randrange(6) == 0 else "json"

    ops = [
        corr_op(s, rng.choice(CORR_ATTACKS), r, noise, _sampler_seed(rng), fmt())
        for s in CORR_SCHEMES for noise in NOISE_GRID for r in CORR_ROUNDS
    ]
    ops += [
        hybrid_op(n, rng.choice(PAULI_LISTS), rng.choice(_ancillas(n)), noise, _sampler_seed(rng), fmt())
        for n in SMALL_WIDTHS for noise in NOISE_GRID for _ in range(3)
    ]
    rng.shuffle(ops)
    return ops


def _wide_block(rng: random.Random) -> list[Op]:
    ops = [
        hybrid_op(n, rng.choice(PAULI_LISTS), rng.choice(_ancillas(n)), rng.choice(NOISY_GRID),
                  _sampler_seed(rng))
        for n, count in WIDE_MIX for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    cold_op: Op  # what each fresh set-up process runs once
    block: Callable[[random.Random], list[Op]] | None  # None: the cold op is the only op
    # Blocks in the op list: each op should get several passes in a 30 s run.
    n_blocks: int = 1

    def blocks(self, seed: int) -> list[list[Op]]:
        if self.block is None:
            return [[self.cold_op]]
        rng = random.Random(f"{self.name}:{seed}")
        return [self.block(rng) for _ in range(self.n_blocks)]


WORKLOADS = {
    w.name: w
    for w in (
        # 8 blocks of 54 ops, about 0.4 s each: some 8 passes in 30 s.
        Workload("sweep-small", hybrid_op(5, "x,y", "ry:0.7", NOISE_GATE, 1), _small_block, 8),
        # 1 block of 40 ops, about 3 s: some 9 passes in 30 s.
        Workload("wide-hybrid", hybrid_op(6, "x,y,z", "00", NOISE_GATE, 1), _wide_block),
        Workload("verify", VERIFY_OP, None),
    )
}


def oracle_grid() -> list[Op]:
    """Every grid point any workload can draw, once each."""
    ops = [corr_op(s, w, r, noise, 0) for s in CORR_SCHEMES for w in CORR_ATTACKS
           for r in CORR_ROUNDS for noise in NOISE_GRID]
    ops += [hybrid_op(n, e, a, noise, 0) for n in SMALL_WIDTHS for e in PAULI_LISTS
            for a in _ancillas(n) for noise in NOISE_GRID]
    ops += [hybrid_op(n, e, a, noise, 0) for n, _ in WIDE_MIX for e in PAULI_LISTS
            for a in _ancillas(n) for noise in NOISY_GRID]
    return ops
