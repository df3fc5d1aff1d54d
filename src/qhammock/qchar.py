"""Truncated characters three ways, plus the dominance order.

The truncated ring for a height assignment ξ is the Laurent ring on the
two base sections only: variables ("Y", i, ξ(i)−2) and ("Y", i, ξ(i))
for every vertex i (plus the ghost symbols ("f", i) before they are
specialized away).  Everything the engine produces lives there.

Three routes to the same polynomial:

* ``qchar_euler`` — alternating sum over the recursively built complex,
  ghosts specialized to −1, divided by the carried denominator;
* ``qchar_recursion`` — the scalar shadow of the cone construction, a
  two-term recursion over the absorb / tilt split at the pivot (no
  complexes are built, only leading-term bookkeeping);
* ``qchar_cluster`` — the exchange-walk variable with the matching
  denominator vector, pushed into the truncated ring by x_i ↦ Y(i, ξ(i))
  and X_i ↦ Y(i, ξ(i)−2)·Y(i, ξ(i)).

Route agreement on every positive root is the central acceptance check;
``verify_beta`` bundles it with the extremal-monomial and positivity
clauses into one report.

The dominance order compares monomials by whether their ratio is a
product of the root monomials A_i (each a pure monomial here because the
ring is truncated to two sections).  A_i touches only vertex i and its
neighbours, so a monomial read into its section slots is solved for k in
one pass over the vertices, arrow targets first: the lower section at i
fixes k_i, and what is left on the upper sections and every other
variable is the rest.  Two monomials differ by a product of A_i exactly
when their rests are equal, by the difference of their k.
``extremal_monomials`` reads each term once this way; the extrema are
then the componentwise max and min of k, with no pairwise comparison.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import List, Tuple

from .errors import Incomparable, UnknownRoot
from .laurent import (
    LaurentPoly,
    Mono,
    _mono_json,
    _wrap,
    mono_key_str,
    mono_mul,
)
from .quiver import DynkinQuiver, HeightFunction, Root
from .objects import (
    _census_class,
    _negative_simple,
    _section_class,
    dominant_monomial,
    pivot_step,
    variable_A,
)
from .complexes import build_complex, euler_char
from .cluster import enumerate_cluster_variables

__all__ = [
    "variable_A",
    "dominant_monomial",
    "qchar_euler",
    "qchar_recursion",
    "qchar_cluster",
    "nakajima_leq",
    "extremal_monomials",
    "verify_beta",
    "qchar_to_json",
    "qchar_to_tsv",
]


# ───────────────────────── route 1: Euler sums ─────────────────────────


def qchar_euler(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> LaurentPoly:
    """Alternating class sum of the built complex, ghosts at −1."""
    return euler_char(q, xi, build_complex(q, xi, beta), specialize_f=-1)


# ──────────────────────── route 2: scalar recursion ────────────────────────


def qchar_recursion(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> LaurentPoly:
    """Two-term recursion over the absorb / tilt split — no complexes.

    At the canonical pivot i, the exchange step (objects.pivot_step, which
    the complex build reads too) gives β_inj from the frontier absorption,
    the remainder β_proj of the iterated tilt, and the head classes of
    both sides, X_i^ε · mono(H^in) and mono(K) · mono(H):

        χ(β) · Y(i, ξ(i)) = X_i^ε · mono(H^in) · χ(β_inj)
                            + mono(K) · mono(H) · χ(β_proj)

    For β = 0 and β = −α_i, χ(β) is the class of Y[β] alone: 1 and
    Y(i, ξ(i)).  The frontier factor on the absorb branch is required for
    the two sides to balance; dropping it breaks route agreement on every
    root whose pivot has an out-frontier inside the support.

    Results are memoised per (quiver, height, β) and shared: a LaurentPoly
    cannot be edited.
    """
    return _canonical_recursion(q, xi, tuple(beta))


@lru_cache(maxsize=None)
def _canonical_recursion(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> LaurentPoly:
    if not any(beta) or _negative_simple(beta) is not None:
        return LaurentPoly.monomial(dominant_monomial(q, xi, beta))

    # both branches and the division by Y(i, ξ(i)) in one pass: each term
    # of a branch is multiplied once, by its head class over Y(i, ξ(i));
    # the loop calls qchar_recursion itself, so a step costs two frames
    step = pivot_step(q, xi, beta)
    inverse = _section_class(xi, (), [(step.pivot, -1)])
    out: dict[Mono, int] = {}
    for head, sub in ((step.absorb_class, step.beta_inj), (step.tilt_class, step.tilt.remainder)):
        head = mono_mul(head, inverse)
        for m, c in qchar_recursion(q, xi, sub).terms.items():
            m = mono_mul(head, m)
            if s := out.get(m, 0) + c:
                out[m] = s
            else:
                del out[m]
    return _wrap(out)


# ──────────────────────── route 3: exchange walk ────────────────────────


def qchar_cluster(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> LaurentPoly:
    """Exchange-walk variable for β, pushed into the truncated ring.

    Raises UnknownRoot when β is not a positive root (or a negated unit
    vector) — the walk only produces those.
    """
    var = enumerate_cluster_variables(q)
    key = tuple(beta)
    if key not in var:
        raise UnknownRoot(f"no cluster variable has denominator vector {key}")
    # one pass over the census terms; distinct terms have distinct classes
    return _wrap({_census_class(xi, m): c for m, c in var[key].terms.items()})


# ───────────────────────── dominance order ─────────────────────────


def _read_k(q: DynkinQuiver, xi: HeightFunction, m: Mono) -> Tuple[List[int], tuple]:
    """A monomial read once into its section slots and solved for k, as
    (k, rest): m / ∏ A_i^{k_i} has exponent 0 on every lower section, and
    rest is what is left of it, its upper sections and the keys outside
    the sections.

    A_i is +1 on both sections of i, −1 on the upper section of each arrow
    target of i and −1 on the lower section of each arrow source.  So the
    exponent on Y(i, ξ(i)−2) is k_i − Σ_{i→j} k_j, which fixes k targets
    first, and what A leaves on Y(i, ξ(i)) is k_i − Σ_{j→i} k_j.  The map
    is linear: m / m' is a product of A_i exactly when the two rests are
    equal, and then its k is the difference of the two.
    """
    slot_of = xi._slot
    slots = [0] * (2 * q.rank)
    outside = []
    for key, e in m:
        s = slot_of.get(key)
        if s is None:
            outside.append((key, e))
        else:
            slots[s] = e
    k = [0] * q.rank
    out = q._out
    for i in q._omega_order:
        v = slots[2 * i - 2]
        for j in out[i]:
            v += k[j - 1]
        k[i - 1] = v
    upper = [u - v for u, v in zip(slots[1::2], k)]
    for a, b in q.arrows:
        upper[b - 1] += k[a - 1]
    return k, (upper, outside)


def _a_exponents(
    q: DynkinQuiver, xi: HeightFunction, lower: Mono, upper: Mono
) -> Tuple[int, ...] | None:
    """The k with upper = lower · ∏ A_i^{k_i}, or None when there is none."""
    k_low, rest = _read_k(q, xi, lower)
    k_up, rest_up = _read_k(q, xi, upper)
    if rest != rest_up:
        return None
    return tuple(map(sub, k_up, k_low))


def nakajima_leq(
    q: DynkinQuiver, xi: HeightFunction, lower: Mono, upper: Mono
) -> bool:
    """Dominance: upper / lower is a nonnegative product of root monomials."""
    k = _a_exponents(q, xi, lower, upper)
    return k is not None and all(e >= 0 for e in k)


def extremal_monomials(
    q: DynkinQuiver, xi: HeightFunction, poly: LaurentPoly
) -> Tuple[Mono, Mono]:
    """(greatest, least) monomial under dominance; Incomparable if either
    fails to exist as a unique extremum.

    Every term m is written as m₀ · ∏ A_i^{k_i(m)} against the first term
    m₀, each term read once (``_read_k``).  Then m ≤ m' exactly when
    k(m) ≤ k(m') componentwise, so the extrema are the terms whose k is
    the componentwise max or min.  A term with no such k is incomparable
    with m₀, and then no term dominates (or is dominated by) all the
    others.
    """
    monos = list(poly.terms)
    if not monos:
        raise Incomparable("the zero polynomial has no extremal monomials")
    ks = []
    rest = None
    for m in monos:
        k, r = _read_k(q, xi, m)
        if rest is None:
            rest = r
        elif r != rest:
            # m is incomparable with m₀, so no term lies above or below all
            highest = lowest = []
            break
        ks.append(k)
    else:
        top = list(map(max, zip(*ks)))
        bottom = list(map(min, zip(*ks)))
        highest = [m for m, k in zip(monos, ks) if k == top]
        lowest = [m for m, k in zip(monos, ks) if k == bottom]
    if len(highest) != 1 or len(lowest) != 1:
        raise Incomparable(
            f"no unique extremal pair: {len(highest)} maxima, {len(lowest)} minima"
        )
    return highest[0], lowest[0]


# ───────────────────────── the bundled report ─────────────────────────


def verify_beta(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> dict:
    """One root, every invariant; the "ok" key folds the clauses together.

    Clauses: (1) all available routes agree, (2) the greatest monomial is
    the dominant one, (3) the least is the dominant times ∏ A_i^{−β_i},
    (4) every coefficient is positive, (5) the dominant coefficient is 1.
    """
    beta = tuple(beta)
    chi = qchar_euler(q, xi, beta)
    rec = qchar_recursion(q, xi, beta)
    try:
        cluster: LaurentPoly | None = qchar_cluster(q, xi, beta)
    except UnknownRoot:
        cluster = None

    routes = chi == rec and (cluster is None or cluster == chi)

    dom = dominant_monomial(q, xi, beta)
    try:
        hi, lo = extremal_monomials(q, xi, chi)
        # lo = dom · ∏ A_i^{−β_i} exactly when dom = lo · ∏ A_i^{β_i}
        highest_ok, lowest_ok = hi == dom, _a_exponents(q, xi, lo, dom) == beta
    except Incomparable:
        highest_ok = lowest_ok = False

    positive = all(c > 0 for c in chi.terms.values())
    leading_one = chi.coeff(dom) == 1

    return {
        "beta": list(beta),
        "routes_agree": routes,
        "cluster_available": cluster is not None,
        "highest_is_dominant": highest_ok,
        "lowest_is_antidominant": lowest_ok,
        "coefficients_positive": positive,
        "leading_coefficient_one": leading_one,
        "terms": len(chi),
        "ok": routes and highest_ok and lowest_ok and positive and leading_one,
    }


# ───────────────────────── emission ─────────────────────────


def qchar_to_json(poly: LaurentPoly) -> List[dict]:
    """Stable list-of-rows form: [{"coeff": c, "mono": {"Y:i:p": e}}]."""
    return [
        {"coeff": c, "mono": _mono_json(m)}
        for m, c in sorted(poly.terms.items(), key=lambda mc: mono_key_str(mc[0]))
    ]


def qchar_to_tsv(poly: LaurentPoly) -> str:
    """Two sorted columns: monomial string, coefficient."""
    lines = ["monomial\tcoefficient"]
    for m, c in sorted(poly.terms.items(), key=lambda mc: mono_key_str(mc[0])):
        lines.append(f"{mono_key_str(m)}\t{c}")
    return "\n".join(lines) + "\n"
