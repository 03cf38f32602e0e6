"""The proof battery `corrqec verify` runs: the paper's claims as checks.

`CHECKS` lists each check with its name, in battery order. A check takes
the `Battery` it runs in, `b`, returns a detail string and raises on
failure. A lemma, a proof step that several checks share, takes the
battery too and is proved through `b.lemma`: once per battery, with its
outcome replayed to every later check. A check run on its own takes a
fresh `Battery()`. Nothing is kept at module level, so no proof outlives
its battery, even an interrupted one.

The four corr checks stand on the exact block theorem
(`correlated.block_theorem_defects`) and sample no attack. Within one
battery each encoder table is read once: both as floats, and the corrected
one exactly, for the block theorem and the Gram check. The hybrid walks
start from the attacks' own (x, z) bits (`circuit._PAULI_XZ`).

A check looks up the functions it runs through their modules when it is
called (`circuit.realize`, not `realize`), so a caller that rebinds a
module attribute (a tracer, a test) sees every call.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import circuit, correlated, hybrid, noise_exp
from .circuit import _PAULI_TAGS, _PAULI_XZ
from .gates import H
from .linalg import max_abs_diff


class Battery:
    """One run of the checks. `lemma(fn)` proves `fn(self)` on its first
    call and records its value or its exception; every later call returns
    that value or raises that exception again, so a FAIL line keeps its
    text."""

    def __init__(self):
        self._proved = {}

    def lemma(self, fn):
        if fn not in self._proved:
            try:
                self._proved[fn] = (fn(self), None)
            except Exception as exc:  # noqa: BLE001 - replayed to every check that shares it
                self._proved[fn] = (None, exc)
        value, exc = self._proved[fn]
        if exc is not None:
            raise exc
        return value


def _require(cond, msg: str) -> None:
    """Fail a check; unlike `assert`, survives `python -O`."""
    if not cond:
        raise AssertionError(msg)


# Each encoder table is read once per battery: both as floats, read-only,
# and the corrected one exactly, for the block theorem and the Gram check.
def _corrected(b: Battery) -> np.ndarray:
    u = correlated.build_new_U()
    u.setflags(write=False)
    return u


def _legacy(b: Battery) -> np.ndarray:
    u = correlated.build_old_U()
    u.setflags(write=False)
    return u


def _corrected_exactly(b: Battery):
    return correlated._exact_encoder(correlated.NEW_U_ENTRIES)


def _unitary(u) -> str:
    dev = max_abs_diff(u.conj().T @ u, np.eye(8))
    _require(dev <= 1e-12, f"deviation {dev:.3e}")
    return f"max deviation {dev:.3e}"


def _shared_columns(b: Battery) -> str:
    d = max_abs_diff(b.lemma(_corrected)[:, :4], b.lemma(_legacy)[:, :4])
    _require(d <= 1e-15, f"first four columns differ by {d:.3e}")
    return "first four columns identical"


def _realizes_corrected(b: Battery, c) -> str:
    d = max_abs_diff(circuit.realize(c), b.lemma(_corrected))
    _require(d <= 1e-12, f"deviation {d:.3e}")
    return f"max deviation {d:.3e}"


def _standard_count(b: Battery) -> str:
    count = len(correlated.standard_decomposition().gates)
    _require(count == 6, f"expected 6 gates, got {count}")
    return "6 gates"


def _basic_counts(b: Battery) -> str:
    arities = [pg.gate.arity for pg in correlated.basic_decomposition().gates]
    two, one = arities.count(2), arities.count(1)
    _require((two, one) == (6, 8), f"got {two} two-wire, {one} one-wire")
    return "6 two-wire + 8 one-wire"


def _refuted(b: Battery) -> np.ndarray:
    return correlated.erroneous_decomposition_product()


def _refutation_distance(b: Battery) -> str:
    d = max_abs_diff(b.lemma(_refuted), b.lemma(_legacy))
    _require(d >= 0.5, f"distance only {d:.4f}")
    return f"max difference from the legacy encoder = {d:.4f} (>= 0.5)"


def _refutation_spots(b: Battery) -> str:
    m = b.lemma(_refuted)
    d = max(abs(m[1, 0] - 0.7071), abs(m[3, 3] - 0.8165))
    _require(d < 5e-5, f"spot entries off by {d:.2e}")
    return "published spot entries reproduced to 4 decimals"


def _block_theorem(b: Battery) -> None:
    # For U = NEW_U_ENTRIES, read exactly: U^T (W (x) 3) U = det(W) (I (x) W)
    # on ancilla |0>, with both off-diagonal blocks 0, as polynomials in
    # W's four entries, so for every W in GL(2) and with no tolerance.
    off, top = correlated.block_theorem_defects(b.lemma(_corrected_exactly))
    _require((off, top) == (0, 0), f"{off} off-diagonal entries are not identically 0 and {top} top-left "
                                   "entries are not identically det(W) (I (x) W)")


def _blocks_exact(b: Battery) -> str:
    b.lemma(_block_theorem)
    return ("exact for every W in GL(2): off-diagonal blocks 0, top-left det(W) (I (x) W), "
            "sqrt6 U read over Z[sqrt2, sqrt3]")


def _blocks_hadamard(b: Battery) -> str:
    # By the block theorem the top-left block is det(W) (I (x) W) for every
    # W, so for H it is -(I (x) H) exactly once det(H) = -1.
    b.lemma(_block_theorem)
    det = np.linalg.det(H.matrix.array)
    _require(abs(det + 1.0) <= 1e-12, f"det(H) = {det:.6f}, expected -1")
    return "top-left = -(I (x) H) exactly; phase matches the determinant"


def _recovery_three(b: Battery) -> str:
    # With U orthogonal, U^T (W2 (x) 3)(W1 (x) 3) U is the product of the two
    # block forms, so any number of rounds, and any mixture, leaves the
    # data wire alone and ancilla |0>, and the sink carries the attacks.
    bad = correlated.exact_gram_defects(b.lemma(_corrected_exactly))
    _require(bad == 0, f"{bad} entries of 6 U^T U are not those of 6 I")
    b.lemma(_block_theorem)
    return "6 U^T U = 6 I exactly, and block forms det(W) (I (x) W) compose over rounds and mixtures"


def _gate_words(c) -> list[tuple[str, tuple[int, ...]]]:
    """c's gates as (gate name, wires)."""
    return [(pg.gate.name, pg.wires) for pg in c.gates]


def _hybrid_shape(b: Battery) -> None:
    # P_n is P2 on wires 0..1 then P_{n-1} on wires 1..n-1 (even n), or P3
    # on wires 0..2 then P_{n-2} on wires 2..n-1 (odd n), as in
    # `hybrid._matrix_rec`. Each built width n >= 4 must be the n = 2 or
    # n = 3 encoder followed by the width n - step encoder shifted by step,
    # so what holds for the n = 2 and n = 3 circuits holds at every width,
    # by induction on n.
    words = {n: _gate_words(hybrid.encoder_circuit(n)) for n in range(2, hybrid.MAX_QUBITS + 1)}
    for n in range(4, hybrid.MAX_QUBITS + 1):
        base, step = (2, 1) if n % 2 == 0 else (3, 2)
        stacked = words[base] + [(name, tuple(w + step for w in wires)) for name, wires in words[n - step]]
        _require(words[n] == stacked,
                 f"n={n}: the encoder is not the n={base} encoder then the n={n - step} encoder "
                 f"shifted by {step} wires")


def _corr_peel(k: int, base_gates: list, base_wires: list[int]) -> None:
    # recursive_encoder(k) is E = T_1 T_k ... T_2, the base circuit U on each
    # triple (ancilla, data, sink) of recursive_triples(k), in time order,
    # so E^T (W (x) 2k+1) E = T_2^T ... T_k^T (T_1^T (W (x) 2k+1) T_1) T_k ... T_2.
    # Peel the innermost factor: no earlier triple touches its ancilla, so
    # that is still |0>, and the block theorem turns W on its three wires
    # into det(W) W on its sink. What is left has the same form with one
    # triple fewer, if W now sits on exactly the wires the unpeeled triples
    # cover. At the end, E^T (W (x) 2k+1) E = det(W)^k W on wire 2 alone.
    # A set of wires is an int, bit w for wire w. The base circuit U comes
    # as its gates and its gates' wires in order.
    triples = correlated.recursive_triples(k)
    _require(triples[-1] == (0, 1, 2), f"k={k}: T_1 = (0, 1, 2) is not last in time")
    masks = [1 << a | 1 << d | 1 << s for a, d, s in triples]
    covered = list(itertools.accumulate(masks, int.__or__))  # wires of triples[:t + 1]
    touched = [t for t in range(1, len(triples)) if covered[t - 1] >> triples[t][0] & 1]
    _require(not touched, f"k={k}: the ancillas of triples {touched} are touched before their triples")
    _require(sorted(data for _, data, _ in triples) == correlated.recursive_data_wires(k),
             f"k={k}: the triples' data wires are not recursive_data_wires({k})")
    on = [(1 << 2 * k + 1) - 1]  # the wires W sits on before each peel, then after the last
    for ancilla, data, _ in reversed(triples):
        on.append(on[-1] & ~(1 << ancilla | 1 << data))
    _require(on[:-1] == covered[::-1], f"k={k}: W is not on exactly the unpeeled triples' wires at every peel")
    _require(on[-1] == 1 << correlated.SINK_WIRE, f"k={k}: the peeled W does not end on the sink wire alone")
    enc = correlated.recursive_encoder(k).gates
    _require([pg.gate for pg in enc] == base_gates * k
             and [w for pg in enc for w in pg.wires] == [tri[w] for tri in triples for w in base_wires],
             f"k={k}: the encoder is not the base circuit placed on each triple in turn")


def _recovery_five(b: Battery) -> str:
    base = correlated.standard_decomposition().gates
    gates, wires = [pg.gate for pg in base], [w for pg in base for w in pg.wires]
    for k in range(2, 9):
        _corr_peel(k, gates, wires)
    b.lemma(_block_theorem)
    return ("every k >= 1 by induction: k=2..8 peel to det(W)^k W on the sink wire, "
            "through the exact block theorem")


def _hybrid_circuits(b: Battery) -> str:
    # By the shape, realize(c_n) = (I (x) realize(c_{n-step})) (realize(c_base)
    # (x) I), which is P_n's recursion: exact bases make every width exact.
    b.lemma(_hybrid_shape)
    for n, p in ((2, hybrid.p2_matrix()), (3, hybrid.p3_matrix())):
        d = max_abs_diff(circuit.realize(hybrid.encoder_circuit(n)), p)
        _require(d == 0.0, f"n={n}: the circuit deviates from P{n} by {d:.3e}")
    return ("every n >= 2 by induction: n=2, 3 realize P2, P3 exactly (max deviation 0.000e+00, "
            "identity wire order), and n=4..8 stack as P_n does")


def _walk_attacks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3, n) x and z bits of X, Y and Z on every wire, carried back
    through the width-n encoder circuit in one walk from their own bits."""
    return circuit._conjugated_pauli(hybrid.encoder_circuit(n), _PAULI_XZ[1:])


def _odd_walk(b: Battery) -> None:
    # Carried back, an attack meets the inner encoder first. At odd n, if
    # the inner walk leaves P on its top wire (wire 2) and nothing below,
    # what is left is P on wires 0..2 through the n = 3 stage: the n = 3
    # walk. It must leave exactly P on wire 0 and nothing on wires 1..2, and
    # then so does every odd n. At even n the odd inner walk leaves P on
    # wire 1, and the n = 2 stage acts on the ancilla wires 0..1 only.
    for tag, own, x, z in zip(_PAULI_TAGS[1:], _PAULI_XZ[1:], *_walk_attacks(3)):
        touched = [w for w in (1, 2) if x[w] or z[w]]
        _require(not touched, f"n=3 tag={tag}: the decoded attack acts on data wires {touched}")
        _require((x[0], z[0]) == own, f"n=3 tag={tag}: the decoded attack on wire 0 is not {tag}")


def _hybrid_conjugation(b: Battery) -> str:
    # Each attack is carried back through the encoder circuit on GF(2)
    # bits. A Pauli with no bit on a data wire is (ancilla Pauli) tensor
    # identity-on-data up to phase, exactly, so the residual is 0.
    b.lemma(_hybrid_shape)
    b.lemma(_odd_walk)
    return "every n >= 2 by induction: the n=3 walk leaves each attack on wire 0 alone (residual 0.000e+00)"


def _hybrid_readback(b: Battery) -> str:
    # At even n the decoded attack is the n = 2 walk's Pauli X^x Z^z on
    # wires 0..1, up to phase, and nothing on the data (`_odd_walk`). It
    # sends |r, 0...0> to |r XOR x, 0...0>, so every bit pair r reads back
    # with certainty exactly when x is 0, that is when 00 reads back as 00.
    b.lemma(_hybrid_shape)
    b.lemma(_odd_walk)
    for tag, x in zip(_PAULI_TAGS[1:], _walk_attacks(2)[0]):
        readback = f"{x[0]}{x[1]}"
        _require(readback == "00", f"n=2 bits=00 tag={tag} readback {readback}")
    return "every even n by induction: the n=2 walk has no x bit, so all four bit pairs survive X, Y, Z"


def _noiseless_success(b: Battery) -> str:
    s = noise_exp.exact_success({"scheme": "corr3", "w": "h", "noise": {}})
    _require(abs(s - 1.0) <= 1e-10, f"success {s}")
    return "success probability 1.0"


def _preset_success(b: Battery) -> str:
    s = noise_exp.exact_success({"scheme": "corr3", "w": "h", "noise": {"p1": 0.001, "p2": 0.01}})
    _require(s > 0.8, f"success {s:.4f}")
    return f"success probability {s:.4f} > 0.8"


# The acceptance battery: `corrqec verify` runs it in this order, and the
# test suite runs each check as its own test.
CHECKS = (
    ("corrected encoder is unitary", lambda b: _unitary(b.lemma(_corrected))),
    ("legacy encoder is unitary", lambda b: _unitary(b.lemma(_legacy))),
    ("encoders share their first four columns", _shared_columns),
    ("standard decomposition realizes the corrected encoder",
     lambda b: _realizes_corrected(b, correlated.standard_decomposition())),
    ("basic decomposition realizes the corrected encoder",
     lambda b: _realizes_corrected(b, correlated.basic_decomposition())),
    ("standard decomposition gate count", _standard_count),
    ("basic decomposition gate counts", _basic_counts),
    ("six-stage refutation product is far from the legacy encoder", _refutation_distance),
    ("refutation product matches its published entries", _refutation_spots),
    ("block structure over random special unitaries", _blocks_exact),
    ("block structure with the Hadamard atom", _blocks_hadamard),
    ("three-qubit recovery through repeated attacks", _recovery_three),
    ("five-wire recursive recovery", _recovery_five),
    ("hybrid circuits realize their matrices", _hybrid_circuits),
    ("hybrid conjugated attacks are identity on data", _hybrid_conjugation),
    ("even-width ancilla bits read back deterministically", _hybrid_readback),
    ("noiseless experiment succeeds with certainty", _noiseless_success),
    ("noisy preset stays above the 0.8 success threshold", _preset_success),
)
