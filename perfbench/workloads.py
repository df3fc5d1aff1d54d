"""The three workloads: seeded inputs, and one verified pass over them.

This module is the only benchmark code that calls the library.  It calls
the public functions through the ``qhammock`` package attributes at call
time, so the tracer's wrappers (and a test's perturbed route) see every
call.  Each pass returns the counts, per-quiver times, failures and the
canonical outputs that the digest is taken over.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import random
from time import perf_counter

import qhammock as qh
import qhammock.cli  # noqa: F401  (the command-line entry point is part of set-up)
from qhammock.laurent import mono_mul, mono_pow

GATE_SEED = 20260816  # the acceptance gate's SEED, which draws its D5 sample

# roundtrip: criterion 05's orthant, every vector with a coefficient of at
# least KEEP_COEFF, topped up with a seeded draw of the others to
# PER_QUIVER vectors.  Equal counts give the rank-4 and rank-5 quivers
# similar times, so quiver_s.p50 does not sit on the cliff between them.
ORTHANT_SUM = 12
KEEP_COEFF = 9
PER_QUIVER = 700


# ───────────────────────── inputs ─────────────────────────


def gate_quivers() -> list:
    """The acceptance sweep: all of A2–A5 and D4, the gate's eight D5.

    The D5 sample stays the gate's at every workload seed: one D5
    orientation costs 0.9 to 4.0 s in sweep3, so the eight cheapest take
    about 10 s and the eight dearest about 17 s of a pass of about 25 s.
    """
    qs = []
    for n in (2, 3, 4, 5):
        qs.extend(qh.all_orientations("A", n))
    qs.extend(qh.all_orientations("D", 4))
    qs.extend(qh.sample_orientations("D", 5, 8, seed=GATE_SEED))
    return qs


def all_quivers() -> list:
    """Every orientation of A2–A5, D4 and D5."""
    qs = []
    for n in (2, 3, 4, 5):
        qs.extend(qh.all_orientations("A", n))
    qs.extend(qh.all_orientations("D", 4))
    qs.extend(qh.all_orientations("D", 5))
    return qs


@functools.cache
def orthant(n: int, total: int = ORTHANT_SUM) -> tuple[tuple[int, ...], ...]:
    """Nonnegative vectors of length n with coordinate sum ≤ total, in
    lexicographic order (the zero vector included)."""
    if n == 1:
        return tuple((k,) for k in range(total + 1))
    return tuple((k, *rest) for k in range(total + 1) for rest in orthant(n - 1, total - k))


def orthant_sample(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Every large-multiplicity vector, and a seeded draw of the rest."""
    vectors = orthant(n)[1:]
    small = [k for k, beta in enumerate(vectors) if max(beta) < KEEP_COEFF]
    draw = min(len(small), max(0, PER_QUIVER - (len(vectors) - len(small))))
    drop = set(small) - set(rng.sample(small, draw))
    return [beta for k, beta in enumerate(vectors) if k not in drop]


def make_inputs(workload: str, seed: int, smoke: bool = False) -> list[tuple]:
    """One (quiver, payload) pair per quiver, in a seeded order.

    The seed orders the quivers of every workload and draws the roundtrip
    sample; the quiver sets themselves are fixed.

    The payload is the roots (sweep3), the sampled vectors (roundtrip) or
    (root, pivot candidates) pairs (pivots).  ``smoke`` keeps only the A2
    and A3 quivers, for the benchmark's own tests.
    """
    rng = random.Random(seed)
    qs = all_quivers() if workload == "pivots" else gate_quivers()
    if smoke:
        qs = [q for q in qs if q.rank <= 3]
    rng.shuffle(qs)
    inputs = []
    for q in qs:
        if workload == "sweep3":
            payload = list(qh.positive_roots(q))
        elif workload == "roundtrip":
            payload = orthant_sample(q.rank, rng)
        elif workload == "pivots":
            xi = qh.default_height(q)
            payload = [
                (beta, qh.beta_combinatorics(q, xi, beta).pivot_candidates)
                for beta in qh.positive_roots(q)
            ]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        inputs.append((q, payload))
    return inputs


def input_counts(workload: str, inputs: list[tuple]) -> dict:
    counts = {"quivers": len(inputs)}
    if workload == "sweep3":
        counts["roots"] = sum(len(p) for _, p in inputs)
    elif workload == "roundtrip":
        counts["vectors"] = sum(len(p) for _, p in inputs)
    else:
        counts["roots"] = sum(len(p) for _, p in inputs)
        counts["builds"] = sum(len(pv) for _, p in inputs for _, pv in p)
    return counts


# ───────────────────────── one pass ─────────────────────────


class Pass:
    """Outcome of one pass: what was attempted, what failed, and how long."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.quiver_s: list[float] = []
        self.outputs: list[tuple] = []
        self.terms = 0
        self.wall_s = 0.0

    def fail(self, q, beta, where, why: str) -> None:
        self.failures.append(
            {
                "family": q.family,
                "rank": q.rank,
                "arrows": [list(a) for a in q.arrows],
                "beta": list(beta),
                "at": where,
                "why": why,
            }
        )

    def digest(self) -> str:
        return hashlib.sha256(repr(sorted(self.outputs)).encode()).hexdigest()


def _qkey(q) -> tuple:
    return (q.family, q.rank, q.arrows)


def _sweep3_item(res: Pass, q, xi, beta, step: list) -> None:
    step[0] = "euler"
    chi = qh.qchar_euler(q, xi, beta)
    step[0] = "recursion"
    rec = qh.qchar_recursion(q, xi, beta)
    step[0] = "cluster"
    clu = qh.qchar_cluster(q, xi, beta)
    step[0] = "extremal"
    hi, lo = qh.extremal_monomials(q, xi, chi)
    dom = qh.dominant_monomial(q, xi, beta)
    anti = dom
    for i in q.vertices:
        anti = mono_mul(anti, mono_pow(qh.variable_A(q, xi, i), -beta[i - 1]))
    res.terms += len(chi)
    res.outputs.append((_qkey(q), beta, chi.canonical()))
    if rec != chi:
        res.fail(q, beta, "recursion", "recursion differs from euler")
    elif clu != chi:
        res.fail(q, beta, "cluster", "cluster differs from euler")
    elif hi != dom or lo != anti:
        res.fail(q, beta, "extremal", "extremal pair is not (dominant, antidominant)")
    elif not all(c > 0 for c in chi.terms.values()) or chi.coeff(dom) != 1:
        res.fail(q, beta, "positivity", "a coefficient is not positive or the leading one is not 1")


def _roundtrip_item(res: Pass, q, xi, beta, step: list) -> None:
    step[0] = "leading_object"
    obj = qh.leading_object(q, xi, beta)
    step[0] = "root_of_dominant"
    back = qh.root_of_dominant(q, xi, obj)
    res.outputs.append((_qkey(q), beta, back))
    if back != beta:
        res.fail(q, beta, "root_of_dominant", f"round trip gave {back}")


def _pivots_root(res: Pass, q, xi, beta, pivots, item) -> None:
    """Every pivot of one root is its own item; all must give the recursion's χ."""
    want = None
    base = None
    for pvt in pivots:
        res.attempted += 1
        with item((_qkey(q), beta, pvt)):
            where = f"pivot {pvt}"
            try:
                if want is None:
                    want = qh.qchar_recursion(q, xi, beta)
                fc = qh.build_complex(q, xi, beta, pivot=pvt)
                d2 = qh.verify_d_squared(q, fc.num)
                comps = qh.complexes.validate_components(q, xi, fc.num)
                chi = qh.euler_char(q, xi, fc, specialize_f=-1)
            except Exception as exc:  # a failed item, never a failed run
                res.fail(q, beta, where, f"{type(exc).__name__}: {exc}")
                continue
        res.terms += len(chi)
        res.outputs.append((_qkey(q), beta, pvt, fc.num.summand_count(), chi.canonical()))
        if base is None:
            base = chi
        if not d2["ok"]:
            res.fail(q, beta, where, "d squared is not zero")
        elif not comps:
            res.fail(q, beta, where, "a component is not the tilt of its source")
        elif chi != base:
            res.fail(q, beta, where, "pivot invariance: χ differs from the first pivot's")
        elif chi != want:
            res.fail(q, beta, where, "χ differs from the recursion")


_ITEM = {"sweep3": _sweep3_item, "roundtrip": _roundtrip_item}


def run_pass(workload: str, inputs: list[tuple], tracer=None) -> Pass:
    """Verify every item once, timing each quiver from its first call.

    A wrong answer or an exception (a ``QHError``, an ``AssertionError`` or
    any other) is recorded as a failed item with its replay data; it never
    ends the pass.
    """
    item = tracer.item_span if tracer is not None else contextlib.nullcontext
    res = Pass()
    t_pass = perf_counter()
    for q, payload in inputs:
        t0 = perf_counter()
        xi = qh.default_height(q)
        if workload == "pivots":
            for beta, pivots in payload:
                _pivots_root(res, q, xi, beta, pivots, item)
        else:
            verify = _ITEM[workload]
            for beta in payload:
                res.attempted += 1
                step = ["start"]
                with item((_qkey(q), beta)):
                    try:
                        verify(res, q, xi, beta, step)
                    except Exception as exc:  # a failed item, never a failed run
                        res.fail(q, beta, step[0], f"{type(exc).__name__}: {exc}")
        res.quiver_s.append(perf_counter() - t0)
    res.wall_s = perf_counter() - t_pass
    return res
