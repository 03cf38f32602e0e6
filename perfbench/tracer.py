"""Per-module self time, call and error counts, from outside the program.

Tracing wraps public corrqec functions without touching corrqec's source.
Every module attribute bound to a traced function is replaced, so callers
that imported the function by name (`noise_exp.embed`, `hybrid.realize`,
`cli.realize`, ...) go through the wrapper too. Classes are never wrapped,
because `isinstance` checks depend on them.

Spans are timed in process CPU time, like the end-to-end latencies, and
aggregated in memory as they close: a span's self time is its
duration minus the time of the traced spans it directly caused. `cli.main`
is the root span of every op, so the self times of all layers add up to the
root's total; any difference is reported as the accounting gap.
"""
from __future__ import annotations

import functools
import importlib
from time import process_time

ROOT = "cli.main"

# The layers the benchmark reports on, as "<module>.<function>".
TRACED = (
    ROOT,
    "noise_exp.run_named",
    "noise_exp.report_to_json",
    "noise_exp.report_to_csv",
    "noise_exp.exact_success",
    "gates.embed",
    "circuit.realize",
    "circuit.born_distribution",
    "circuit.sample_counts",
    "circuit.partial_trace",
    "circuit.dagger_circuit",
    "circuit.to_density",
    "hybrid.hybrid_encoder",
    "hybrid.error_unitary",
    "hybrid.hybrid_protect",
    "hybrid.conjugated_error",
    "correlated.standard_decomposition",
    "correlated.basic_decomposition",
    "correlated.recursive_encoder",
    "correlated.atom_from_selector",
    "correlated.three_qubit_protect",
    "correlated.verify_block_structure",
    "linalg.is_unitary",
    "linalg.equal_up_to_global_phase",
)

_MODULES = ("corrqec", "corrqec.linalg", "corrqec.gates", "corrqec.circuit",
            "corrqec.correlated", "corrqec.hybrid", "corrqec.noise_exp", "corrqec.cli")


class Tracer:
    """Installs wrappers on enter and restores the original bindings on exit."""

    def __init__(self):
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.calls = dict.fromkeys(TRACED, 0)
        self.errors = dict.fromkeys(TRACED, 0)
        self.root_s = 0.0  # summed duration of root spans
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = process_time()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dur = process_time() - start
                stack.pop()
                self.self_s[name] += dur - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                elif name == ROOT:
                    self.root_s += dur

        return traced

    def __enter__(self):
        modules = [importlib.import_module(m) for m in _MODULES]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(importlib.import_module(f"corrqec.{mod_name}"), fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def gap_s(self) -> float:
        """Root time not accounted for by the self times of all layers."""
        return self.root_s - sum(self.self_s.values())
