"""Bounded complexes over the object calculus and the recursive build.

Terms are formal direct sums (lists) of summand classes per nonnegative
degree: a summand is a product of hammock objects on the two base sections
and ghost objects at τ base_i, so its class names it, and
objects.class_object builds the object only to print it or for the
exactness check.  A class is one int of its height's packing
(``xi.classes``, see laurent._Packing): this module multiplies
classes by adding them and divides by subtracting, and decodes a class
to its monomial only where it leaves the library (``euler_char``,
``complex_to_json``).  The classes come from objects (the exchange
step's head classes, _section_class and Y[β]'s class), which alone spells
their variable keys.
Differentials are lists of elementary components (source summand, target
summand, tag, sign).  Tags name which canonical morphism a component is
a copy of — almost always ("eta", i), the tilt at the translated base
vertex of i — and signs exist purely so the d² bookkeeping of Koszul /
cone conventions can be checked.  No scalar matrices: the engine
never needs them, and the source material pins morphisms only up to the
generating choices anyway.

Sign conventions (fixed once, validated by verify_d_squared across the
acceptance sweep):

* tensor: d(a ⊗ b) = da ⊗ b + (−1)^{|a|} a ⊗ db, the sign landing on the
  right factor's components;
* l ⊗ C ⊗ r with l in degree k (_tensor_between): every component sign
  of C is multiplied by (−1)^k, the tensor rule for a one-summand left
  factor; with k = 1 this moves the cone's domain up one degree;
* cone(dom, cod): E_n = dom_{n+1} ⊕ cod_n, dom block kept, cod block
  negated, connector signs supplied by the caller.

The cone's connectors form a chain map η from the absorb side to the
tilt side, and only a connector carries a free sign: each composite it
forms lands in one square dom_n[s] → cod_{n+1}[t], through the cod
differential after it or the dom differential before it.  Every other
composite group is the d² ledger of dom or cod alone, which is not
checked again: each side is a canonical sub-build with one summand
tensored on each side, whose composable pairs and sign products are the
sub-build's, and a canonical build checks its own ledger once, when it
is made (_canonical_build).  No fixed local rule for the connector signs
survives the recursion: a square pairs a component of the absorb-side
subcomplex against one of the tilt-side subcomplex, and whether those
carry equal or opposite signs depends on each one's own provenance (a
Koszul-negated block, a cone-negated block, or a connector) arbitrarily
deep in two independent builds.  The builder therefore treats connector signs as
unknowns in {±1} and requires every square that the path-vanishing rule
does not excuse to cancel.  A square has at most two routes, on two
different connectors: at most one runs connector then cod component
(a connector has one target, and no built complex has two parallel
components with the same tag, since tensor and cone keep index ranges
disjoint), and at most one runs dom component then connector (connector
targets in one degree are distinct).  So a square is a parity constraint
u_a = ±u_b, or a single route that can never cancel, and the signs are
parity classes: each class's least connector is +1, the rest follow.
Only the matching is searched: each dom summand takes one same-degree cod
summand of its tilt's class, or none.  By the mesh identity, tilting
Y(τ base_i) ⊗ Y(base_i) at τ base_i gives F(τ base_i) ⊗ ⊗ Y(w) over the
arrows τ base_i → w, so the tilt multiplies a class by f_i·A_i⁻¹ (adds
its int).  A
square is final once every key that has a route into it is decided, and
the search cuts a branch as soon as its final squares have an odd parity
cycle or a single route.  The degree-|out-closure| ghost factor is
tensored on the right, where it imposes no Koszul twist on the carried
subcomplex.

The recursive construction  C[β] = cone(dom → cod)  threads the absorb
step (dom side, one degree up) against the tilt step (cod side, ghost
block in degree |out-closure|).  C[β] lives over Y^β = ∏ Y(k, ξ(k))^{β_k},
so its degree-0 term is exactly the leading object times Y^β.  Each side
is tensored up by its head class and by the closure its sub-build
dropped, the pivot i apart: ∏ Y(k, ξ(k)) over the in-closure on the dom
side, over the out-closure on the cod side.  The closures meet only in i,
since a vertex in both would close an oriented cycle, so both sides land
on β − e_i.  Every class a build makes is a sum of two checked classes
and is range-checked once (``check``, ``check_sums``), so an exponent
that leaves its field raises OverflowError.  Each build checks two
exchange identities on classes: that degree-0 identity, as one int
comparison (see _build), and the tilt of
Y[β] ⊗ Y(base_i) over the out-closure against the tilt's factorization
(ghost block, head class, Y[β − dim P_i]), by objects._tilt_holds (exact
by additivity; see the objects module).  validate_components checks every
component the same way, so neither builds a summand object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    InconsistentConnector,
    InexactDivision,
    InvariantViolation,
    NegativeDegree,
    NotInSupport,
)
from .laurent import LaurentPoly, Mono, _classes_fit, _mono_json, _wrap
from .objects import (
    Obj,
    _dominant_class,
    _negative_simple,
    _section_class,
    _section_objects,
    _tilt_holds,
    class_object,
    pivot_step,
)
from .quiver import (
    DynkinQuiver,
    HeightFunction,
    Root,
    _check_length,
    root_support,
)
from .repetition import serre, translate_base

__all__ = [
    "Component",
    "Complex",
    "FractionComplex",
    "single_complex",
    "tensor_complex",
    "cone",
    "build_complex",
    "euler_char",
    "verify_d_squared",
    "verify_exactness",
    "validate_components",
    "complex_to_json",
]


class Component(NamedTuple):
    src: int
    dst: int
    tag: tuple
    sign: int


class Complex:
    """Bounded nonneg-degree complex: summand class lists plus tagged components.

    A summand class is an int of its height's ``classes`` packing (see
    laurent._Packing), so a product of classes is their sum.  terms
    and diffs are read-only views of tuples, so a built complex that the
    memo hands out cannot be edited in place.  A class that is not an int
    is a TypeError, and an int with an exponent outside its field an
    OverflowError.  Complexes combined from checked ones skip the checks
    (_trusted).
    """

    __slots__ = ("terms", "diffs")

    def __init__(
        self,
        terms: Mapping[int, list[int]] | None = None,
        diffs: Mapping[int, list[Component]] | None = None,
    ):
        self.terms: Mapping[int, tuple[int, ...]] = MappingProxyType({
            n: tuple(row) for n, row in (terms or {}).items() if row
        })
        self.diffs: Mapping[int, tuple[Component, ...]] = MappingProxyType({
            n: tuple(Component(*c) for c in comps)
            for n, comps in (diffs or {}).items()
            if comps
        })
        for n, row in self.terms.items():
            if n < 0:
                raise NegativeDegree(f"term in degree {n}")
            for m in row:
                if type(m) is not int:
                    raise TypeError(f"class {m!r} in degree {n} is not an int")
            if not _classes_fit(row):
                raise OverflowError(f"a class in degree {n} has an exponent outside its field")
        for n, comps in self.diffs.items():
            for c in comps:
                if not (0 <= c.src < len(self.terms.get(n, ()))):
                    raise InconsistentConnector(f"component source out of range at degree {n}")
                if not (0 <= c.dst < len(self.terms.get(n + 1, ()))):
                    raise InconsistentConnector(f"component target out of range at degree {n}")

    @classmethod
    def _trusted(
        cls, terms: Mapping[int, Sequence[int]], diffs: Mapping[int, Sequence[Component]]
    ) -> "Complex":
        """A complex combined from checked ones (tensor_complex, cone,
        _tensor_between): its classes are sums of two checked classes,
        range-checked once by tensor_complex or by the build, and its
        components Components with indices in range by construction.
        Empty rows are dropped and the rest wrapped read-only, without
        __init__'s checks."""
        c = object.__new__(cls)
        c.terms = MappingProxyType({n: tuple(row) for n, row in terms.items() if row})
        c.diffs = MappingProxyType({n: tuple(comps) for n, comps in diffs.items() if comps})
        return c

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def summand_count(self) -> int:
        return sum(len(t) for t in self.terms.values())

    def __repr__(self) -> str:
        bits = [f"{n}:{len(t)}" for n, t in sorted(self.terms.items())]
        return "Complex(" + " ".join(bits) + ")"


@dataclass(frozen=True)
class FractionComplex:
    """C[β]: the complex num over Y^β, frozen, carrying β.  Its denominator
    exponents den are the positive part of β, derived on each read as a
    read-only view (like the complex's terms): empty for the base cases
    β = 0 and β = −α_j, whose complex is Y[β] alone."""

    num: Complex
    beta: Root

    @property
    def den(self) -> Mapping[int, int]:
        return MappingProxyType({k: b for k, b in enumerate(self.beta, 1) if b > 0})


def _degree_zero_class(xi: HeightFunction, fc: FractionComplex, head: int) -> int:
    """Y[β]·Y^den, the class the degree-0 term of C[β] must consist of,
    from Y[β]'s class head."""
    return head + _section_class(xi, (), fc.den.items())


# ───────────────────────── constructors ─────────────────────────


def single_complex(m: int, degree: int = 0) -> Complex:
    if degree < 0:
        raise NegativeDegree(f"degree {degree}")
    return Complex({degree: [m]})


# ───────────────────────── tensor / cone ─────────────────────────


def tensor_complex(c: Complex, d: Complex) -> Complex:
    """Degreewise tensor with Koszul signs on the right factor.  A product
    class with an exponent outside its field is an OverflowError."""
    if c.is_zero() or d.is_zero():
        return Complex()
    terms: dict[int, list[int]] = {}
    offsets: dict[tuple[int, int], int] = {}
    for a in sorted(c.terms):
        for b in sorted(d.terms):
            n = a + b
            row = terms.setdefault(n, [])
            offsets[(a, b)] = len(row)
            for x in c.terms[a]:
                for y in d.terms[b]:
                    row.append(x + y)
    if not _classes_fit([m for row in terms.values() for m in row]):
        raise OverflowError("a product class has an exponent outside its field")

    diffs: dict[int, list[Component]] = {}
    for a, comps in c.diffs.items():
        for b in d.terms:
            if (a, b) not in offsets:
                continue
            if (a + 1, b) not in offsets:
                raise InvariantViolation("dangling component in left factor")
            n = a + b
            width_b = len(d.terms[b])
            for comp in comps:
                for j in range(width_b):
                    diffs.setdefault(n, []).append(
                        Component(
                            offsets[(a, b)] + comp.src * width_b + j,
                            offsets[(a + 1, b)] + comp.dst * width_b + j,
                            comp.tag,
                            comp.sign,
                        )
                    )
    for b, comps in d.diffs.items():
        for a in c.terms:
            if (a, b) not in offsets:
                continue
            if (a, b + 1) not in offsets:
                raise InvariantViolation("dangling component in right factor")
            n = a + b
            koszul = -1 if a % 2 else 1
            width_b = len(d.terms[b])
            width_b1 = len(d.terms[b + 1])
            for comp in comps:
                for i2 in range(len(c.terms[a])):
                    diffs.setdefault(n, []).append(
                        Component(
                            offsets[(a, b)] + i2 * width_b + comp.src,
                            offsets[(a, b + 1)] + i2 * width_b1 + comp.dst,
                            comp.tag,
                            comp.sign * koszul,
                        )
                    )
    return Complex._trusted(terms, diffs)


def _tensor_between(head: int, k: int, c: Complex, m: int) -> Complex:
    """single_complex(l, k) ⊗ c ⊗ single_complex(r, m) in one pass, with
    head = l·r: each summand x becomes head·x in degree n + k + m, and
    every component keeps its indices and takes the Koszul sign (−1)^k;
    the right factor imposes none."""
    terms = {n + k + m: [head + x for x in row] for n, row in c.terms.items()}
    diffs = {
        n + k + m: [Component(s, t, tag, -sign) for s, t, tag, sign in comps] if k % 2 else comps
        for n, comps in c.diffs.items()
    }
    return Complex._trusted(terms, diffs)


def cone(
    dom: Complex,
    cod: Complex,
    connectors: Mapping[int, list[tuple[int, int, tuple, int]]] | None = None,
) -> Complex:
    """Mapping cone: E_n = dom_{n+1} ⊕ cod_n.

    connectors[n] lists (dom_n summand, cod_n summand, tag, sign) in
    input-degree indexing; they become the lower-left block.  The cod
    block's signs are negated; the dom block is taken as-is (the caller has
    already moved the domain up one degree, which is where the [−1] sign
    lives).  Each connector's indices, sign and degree are checked, not
    that it is the tilt it claims: build_complex takes its connectors from
    _resolve_connectors, which offers only targets of the source's class
    times f_i·A_i⁻¹ (the tilt's class, by the mesh identity), and
    validate_components checks a finished complex's tilts on its classes.
    """
    connectors = dict(connectors or {})
    if dom.is_zero() and cod.is_zero():
        return Complex()
    terms: dict[int, tuple[int, ...]] = {}
    degrees = set()
    for n in dom.terms:
        if n - 1 >= 0:
            degrees.add(n - 1)
        elif n == 0 and dom.terms[n]:
            raise NegativeDegree("cone would push a degree-0 domain term to degree -1")
    degrees.update(cod.terms)
    for n in sorted(degrees):
        terms[n] = dom.terms.get(n + 1, ()) + cod.terms.get(n, ())

    diffs: dict[int, list[Component]] = {}
    for n, comps in dom.diffs.items():
        # dom_n -> dom_{n+1} sits at E-degree n-1 (n > 0: dom_0 is refused above)
        diffs.setdefault(n - 1, []).extend(comps)
    for n, comps in cod.diffs.items():
        off_src = len(dom.terms.get(n + 1, ()))
        off_dst = len(dom.terms.get(n + 2, ()))
        for comp in comps:
            diffs.setdefault(n, []).append(
                Component(off_src + comp.src, off_dst + comp.dst, comp.tag, -comp.sign)
            )
    for n, conns in connectors.items():
        # u_n: dom_n -> cod_n sits at E-degree n-1 -> n
        e = n - 1
        if e < 0:
            raise InconsistentConnector("connector at input degree 0")
        dom_row = dom.terms.get(n, ())
        cod_row = cod.terms.get(n, ())
        off_dst = len(dom.terms.get(n + 1, ()))
        for s, t, tag, sign in conns:
            if not (0 <= s < len(dom_row) and 0 <= t < len(cod_row)):
                raise InconsistentConnector(f"connector indices ({s},{t}) at input degree {n}")
            if sign not in (1, -1):
                raise InconsistentConnector(f"connector sign {sign}")
            diffs.setdefault(e, []).append(
                Component(s, off_dst + t, tuple(tag), sign)
            )
    return Complex._trusted(terms, diffs)


# ───────────────────────── connector resolution ─────────────────────────


def _excused(q: DynkinQuiver, tag1: tuple, tag2: tuple) -> bool:
    """η_a then η_b with a path b ⇝ a (a = b included): the composite
    morphism is identically zero."""
    return tag1[0] == "eta" and tag2[0] == "eta" and q.has_path(tag2[1], tag1[1])


def _join_parities(
    classes: Mapping[tuple, tuple[tuple, int]], equations
) -> Mapping[tuple, tuple[tuple, int]] | None:
    """Extend parity classes of connector signs by square equations.

    classes maps a key to (least key of its class, ±1): u_key is that
    sign times u_least.  Each equation is the terms (coeff, key) of
    Σ coeff·u_key = 0 with coeff = ±1.  A one-term equation can never
    cancel and an odd parity cycle has no solution: both give None.
    The classes passed in are never edited; they are copied at the
    first equation that merges two classes.
    """
    joined = classes
    for terms in equations:
        if len(terms) > 2:
            raise InvariantViolation(f"a square of the chain map has {len(terms)} routes")
        if len(terms) == 1:
            return None
        (ca, a), (cb, b) = terms
        ra, pa = joined.get(a, (a, 1))
        rb, pb = joined.get(b, (b, 1))
        parity = -ca * cb * pa * pb  # u_ra = parity · u_rb
        if ra == rb:
            if parity != 1:
                return None
            continue
        low, high = min(ra, rb), max(ra, rb)
        if joined is classes:
            joined = dict(classes)
        joined.setdefault(a, (a, 1))
        joined.setdefault(b, (b, 1))
        for key, (least, sign) in list(joined.items()):
            if least == high:
                joined[key] = (low, sign * parity)
    return joined


def _resolve_connectors(
    q: DynkinQuiver, xi: HeightFunction, i: int, dom: Complex, cod: Complex
) -> dict[int, list[tuple[int, int, tuple, int]]]:
    """Choose connector targets and signs that close the squares of η_i.

    The candidates of a dom summand are the same-degree cod summands of
    its class times f_i·A_i⁻¹, the class of its tilt by the mesh identity
    (see the module docstring): one lookup in a table of the cod summands
    by class, in ascending index order, so every connector offered is a
    tilt.  Only the squares dom_m[s'] → cod_{m+1}[t'] of the chain map
    depend on the matching; the d² ledgers of dom and cod alone are
    their sub-builds', checked when those were made (module docstring).
    A square has at most two routes (module docstring), so
    its equation is a parity constraint u_a = ±u_b or a single route that
    can never cancel.  The square table, built once, lists every route
    each candidate (key, t) can give each square.  A square is final once
    every key that has a route into it is decided, and then its live
    routes join the parity classes (_join_parities); a branch is cut at a
    single route or an odd parity cycle.  Adding constraints never makes
    them satisfiable, so the first matching that closes every square is
    the one a search checking only complete matchings would find.  A
    connector's sign is its parity relative to the least key of its class,
    which is +1, and a connector in no square is +1: the first ±1 solution
    in key order.
    """
    tag = ("eta", i)
    shift = _section_objects(q, xi)[3][i - 1]  # f_i·A_i⁻¹
    cands: dict[tuple[int, int], tuple[int, ...]] = {}
    for n in sorted(set(dom.terms) & set(cod.terms)):
        by_class: dict[int, tuple[int, ...]] = {}
        for t, m in enumerate(cod.terms[n]):
            by_class[m] = by_class.get(m, ()) + (t,)
        for s, m in enumerate(dom.terms[n]):
            if opts := by_class.get(m + shift):
                cands[(n, s)] = opts
    keys = list(cands)
    # squares[square]: every route a candidate connector key → t gives it,
    # as (key, t, coefficient, excused); final[k]: the squares whose
    # deepest route key is keys[k]
    squares: dict[tuple, list[tuple[tuple, int, int, bool]]] = {}
    for n, s in keys:
        for t in cands[(n, s)]:
            for c in cod.diffs.get(n, ()):
                if c.src == t:
                    square = (n, s, c.dst, tuple(sorted((tag, c.tag))))
                    squares.setdefault(square, []).append(
                        ((n, s), t, -c.sign, _excused(q, tag, c.tag)))
            for c in dom.diffs.get(n - 1, ()):
                if c.dst == s:
                    square = (n - 1, c.src, t, tuple(sorted((c.tag, tag))))
                    squares.setdefault(square, []).append(
                        ((n, s), t, c.sign, _excused(q, c.tag, tag)))
    depth = {key: k for k, key in enumerate(keys)}
    final: list[list[list[tuple]]] = [[] for _ in keys]
    for routes in squares.values():
        final[max(depth[key] for key, *_ in routes)].append(routes)

    choice: dict[tuple[int, int], int | None] = {}

    def equations(k: int) -> list[tuple]:
        """Σ coeff·u_key = 0 over the live routes of each square final at
        depth k, unless all of them are excused (as in an empty square)."""
        out = []
        for routes in final[k]:
            live = [(coeff, key, excused) for key, t, coeff, excused in routes if choice[key] == t]
            if not all(excused for *_, excused in live):
                out.append(tuple((coeff, key) for coeff, key, _ in live))
        return out

    def dfs(k: int, classes: Mapping) -> Mapping | None:
        if k == len(keys):
            return classes
        key = keys[k]
        taken = {choice[other] for other in keys[:k] if other[0] == key[0]}
        for t in cands[key] + (None,):
            if t is not None and t in taken:
                continue
            choice[key] = t
            new = equations(k)
            joined = _join_parities(classes, new) if new else classes
            if joined is not None:
                found = dfs(k + 1, joined)
                if found is not None:
                    return found
        del choice[key]
        return None

    classes = dfs(0, {})
    if classes is None:
        raise InconsistentConnector(
            f"no connector matching closes the d² ledger for the tilt at {i}"
        )
    connectors: dict[int, list[tuple[int, int, tuple, int]]] = {}
    for (n, s), t in sorted(choice.items()):
        if t is not None:
            sign = classes.get((n, s), (None, 1))[1]
            connectors.setdefault(n, []).append((s, t, tag, sign))
    return connectors


# ───────────────────────── the recursive build ─────────────────────────


def build_complex(
    q: DynkinQuiver,
    xi: HeightFunction,
    beta: Root,
    pivot: int | None = None,
) -> FractionComplex:
    """The complex attached to a positive-orthant vector or a negative
    simple root.  For β = 0 and β = −α_j, C[β] is the class of Y[β] alone,
    in degree 0; a forced pivot must still lie in the support.

    The recursion at the chosen support vertex i reads the exchange step
    (objects.pivot_step) that the scalar recursion reads too:

      dom := K_i^ε ⊗ (frontier injection factors) ⊗ (Y(base_k) over the
             in-closure of i without i) ⊗ build(β − dim I_i) shifted up
             one degree;
      cod := (ghost block of the out-closure, in degree |out-closure|)
             ⊗ H/K factors of the iterated tilt ⊗ (Y(base_k) over the
             out-closure of i without i) ⊗ build(β − dim P_i);
      num := cone(dom, cod, connectors η_i), and C[β] lives over Y^β.

    Why, by induction on height: C[0] lives over 1, each sub-build over
    its own vector, and the two lifts take β − 1_in and β − 1_out up to
    β − 1_{in ∩ out} = β − e_i, since the closures meet only in i (a
    vertex in both would close an oriented cycle); the pivot adds e_i.

    Connectors are auto-matched (see _resolve_connectors): a domain
    summand connects to a same-degree codomain summand of its tilt's class
    at τ base_i, with twin ambiguities and the ±1 signs resolved so that
    every non-excused square of the chain map cancels.

    Each build checks its degree-0 term against Y[β] times Y^β and the
    tilt of Y[β] ⊗ Y(base_i) over the out-closure against the tilt's
    factorization, both on classes (see _build): no summand object is
    built, and a failure is an InvariantViolation.

    Builds at the canonical pivot are memoised per (quiver, height, β) and
    shared; a forced pivot is built afresh (its sub-builds are not).
    """
    beta = tuple(beta)
    if pivot is None:
        return _canonical_build(q, xi, beta)
    return _build(q, xi, beta, pivot)


@lru_cache(maxsize=None)
def _canonical_build(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> FractionComplex:
    """The memoised build, its d² ledger checked once, when it is made:
    every cone takes its two sides from these builds only."""
    fc = _build(q, xi, beta, None)
    if not verify_d_squared(q, fc.num)["ok"]:
        raise InvariantViolation(f"the d² ledger of C[{beta}] does not vanish")
    return fc


def _build(
    q: DynkinQuiver, xi: HeightFunction, beta: Root, pivot: int | None
) -> FractionComplex:
    """C[β] at a pivot (the canonical one for None), with its two checks.

    The degree-0 identity is one class comparison, exact because a ratio
    of section classes has vanishing signed sums only when it is empty:
    the 2n Y section objects have distinct generators h_x, so distinct
    defect indicators, and the n ghosts have zero functions and multisets
    {S τb_i, Σ τb_i}, disjoint across i.
    """
    if not any(beta) or _negative_simple(beta) is not None:
        if pivot is not None and pivot not in root_support(beta):
            raise NotInSupport(f"pivot {pivot} outside the support of {beta}")
        return FractionComplex(single_complex(_dominant_class(q, xi, beta)), beta)

    step = pivot_step(q, xi, beta, pivot)
    i, fac = step.pivot, step.tilt
    check = xi.classes.check

    # C[β] lives over Y^β, and each sub-build over its own vector; the two
    # sides are lifted to β − e_i by the closure each dropped, without i
    def lift(sub: Root) -> int:
        return _section_class(
            xi, (), [(k, b - s - (k == i)) for k, (b, s) in enumerate(zip(beta, sub), 1)]
        )

    sub_inj = build_complex(q, xi, step.beta_inj)
    dom_head = check(step.absorb_class + lift(step.beta_inj))
    dom = _tensor_between(dom_head, 1, sub_inj.num, 0)

    sub_proj = build_complex(q, xi, fac.remainder)
    tilt_head = check(step.tilt_class + _section_class(xi, (), (), fac.f_list))
    cod_head = check(tilt_head + lift(fac.remainder))
    cod = _tensor_between(cod_head, 0, sub_proj.num, len(fac.f_list))

    connectors = _resolve_connectors(q, xi, i, dom, cod)
    fc = FractionComplex(cone(dom, cod, connectors), beta)
    # every class the build made is a sum of two checked ones, checked here once
    xi.classes.check_sums(chain.from_iterable(fc.num.terms.values()))

    # the degree-0 term is one summand, Y[β] times Y^β; the tilt of
    # Y[β] ⊗ Y(base_i) over the out-closure is the ghost block times the
    # tilt's head class times Y[β − dim P_i] (objects._tilt_holds)
    head = _dominant_class(q, xi, beta)
    if fc.num.terms.get(0) != (_degree_zero_class(xi, fc, head),):
        raise InvariantViolation(f"degree-0 identity failed for {beta}")
    tilt_src = head + _section_class(xi, (), [(i, 1)])
    tilt_dst = tilt_head + _dominant_class(q, xi, fac.remainder)
    if not _tilt_holds(q, xi, tilt_src, tilt_dst, [translate_base(xi, j) for j in fac.f_list]):
        raise InvariantViolation(f"tilt identity failed for {beta} at pivot {i}")

    return fc


# ───────────────────────── Euler characteristic ─────────────────────────


def euler_char(
    q: DynkinQuiver,
    xi: HeightFunction,
    fc: FractionComplex,
    specialize_f: int | None = None,
) -> LaurentPoly:
    """Alternating sum of term classes over Y^den, den the positive part
    of the β that fc carries.

    With specialize_f given (the interesting value is −1), every extra
    symbol f_i is replaced by that constant before the division.  The
    signs are summed per class first, and then each class with a nonzero
    sum is divided by the den class (one subtraction), decoded once and
    its f fields specialized there, with no polynomial in between.  A
    negative power of f_i is exact only at ±1: at any other value it
    raises InexactDivision: the constant has no inverse in ℤ.  A β whose
    length is not the rank raises WrongShape, and a specialize_f that is
    neither None nor an int (a bool included) TypeError.
    """
    _check_length(fc.beta, len(xi.values))
    if specialize_f is not None and type(specialize_f) is not int:
        raise TypeError(f"coefficient {specialize_f!r} is not an int")
    signed: dict[int, int] = {}
    for n, row in fc.num.terms.items():
        sign = -1 if n % 2 else 1
        for m in row:
            signed[m] = signed.get(m, 0) + sign
    den = _section_class(xi, (), fc.den.items())
    keys, first_f = xi.classes.keys, 2 * len(xi.values)
    out: dict[Mono, int] = {}
    for m, c in signed.items():
        if not c:
            continue
        exps = xi.classes.read(m - den)
        if specialize_f is not None:
            for e in exps[first_f:]:
                if not e:
                    continue
                if e > 0:
                    c *= specialize_f**e
                elif specialize_f * specialize_f != 1:
                    raise InexactDivision("cannot invert non-unit coefficient in substitution")
                elif e % 2:
                    c *= specialize_f
            exps = exps[:first_f]
        m = tuple(compress(zip(keys, exps), exps))
        out[m] = out.get(m, 0) + c
    return _wrap({m: c for m, c in out.items() if c})


# ───────────────────────── structural verification ─────────────────────────


def _composable_pairs(c: Complex):
    for n in sorted(c.diffs):
        after: dict[int, list[Component]] = {}
        for c2 in c.diffs.get(n + 1, ()):
            after.setdefault(c2.src, []).append(c2)
        for c1 in c.diffs[n]:
            for c2 in after.get(c1.dst, ()):
                yield n, c1, c2


def verify_d_squared(q: DynkinQuiver, c: Complex) -> dict:
    """Check that every length-two composite is plausibly zero.

    A composable pair passes if (b) its tags are eta_a then eta_b with a
    path b ⇝ a in the quiver (the composite morphism is identically zero;
    the trivial path a = b counts), or (a) the signed sum over its group —
    same source summand, same target summand, same tag multiset — runs to
    zero, the transposed-pair cancellation of tensor calculus.  Reported
    violations are pairs enjoying neither excuse, group by group in the
    order the groups first occur.  The groups are summed first, and
    members and excuses are read only for groups whose sum is nonzero.
    """
    groups: dict[tuple, int] = {}
    for n, c1, c2 in _composable_pairs(c):
        key = (n, c1.src, c2.dst, _tag_pair(c1.tag, c2.tag))
        groups[key] = groups.get(key, 0) + c1.sign * c2.sign
    members: dict[tuple, list] = {key: [] for key, total in groups.items() if total}
    if members:
        for n, c1, c2 in _composable_pairs(c):
            pairs = members.get((n, c1.src, c2.dst, _tag_pair(c1.tag, c2.tag)))
            if pairs is not None and not _excused(q, c1.tag, c2.tag):
                pairs.append((c1, c2))
    violations = [
        {"degree": key[0], "first": tuple(c1), "second": tuple(c2), "group_sum": groups[key]}
        for key, pairs in members.items()
        for c1, c2 in pairs
    ]
    return {"ok": not violations, "violations": violations}


def _tag_pair(a: tuple, b: tuple) -> tuple:
    """The two tags of a composite as a multiset: sorted."""
    return (a, b) if a <= b else (b, a)


def _objects(q: DynkinQuiver, xi: HeightFunction, c: Complex) -> dict[int, Obj]:
    """The object of every summand class of c, each built once."""
    return {m: class_object(q, xi, m) for row in c.terms.values() for m in row}


def validate_components(q: DynkinQuiver, xi: HeightFunction, c: Complex) -> bool:
    """Every component must be an eta whose target is the tilt of its
    source at τ base_i, checked on the two classes (objects._tilt_holds):
    no summand object is built, and each distinct (ratio, tag) is compared
    once per quiver.  A source or target class with a factor off the two
    base sections raises ValueError, and a source whose object does not
    hold τ base_i raises NotContained."""
    for n, comps in c.diffs.items():
        for comp in comps:
            if comp.tag[0] != "eta":
                return False
            src = c.terms[n][comp.src]
            dst = c.terms[n + 1][comp.dst]
            if not _tilt_holds(q, xi, src, dst, [translate_base(xi, comp.tag[1])]):
                return False
    return True


def verify_exactness(q: DynkinQuiver, xi: HeightFunction, fc: FractionComplex) -> dict:
    """Mechanizable shadow of the strong-exactness structure of C[β], β
    the vector fc carries, which must have one entry per vertex
    (WrongShape otherwise).

    (1) the degree-0 term is the single summand Y[β]·Y^den, den the
        positive part of β: the build's own degree-0 identity;
    (2) every component tag is an eta at a support vertex;
    (3) for every path-excused composable pair, the intermediate summand's
        multiset contains the Serre image of a translated base vertex
        whose label has a path to the first tag's vertex — the anchor-leg
        routing that makes the composite vanish.
    """
    _check_length(fc.beta, len(xi.values))
    report = {"ok": True, "failures": []}

    def fail(msg: str) -> None:
        report["ok"] = False
        report["failures"].append(msg)

    c = fc.num
    objs = _objects(q, xi, c)
    if c.terms.get(0) != (_degree_zero_class(xi, fc, _dominant_class(q, xi, fc.beta)),):
        fail("degree-0 term is not the single summand Y[β]·Y^den")
    supp = set(root_support(fc.beta))
    for n, comps in c.diffs.items():
        for comp in comps:
            if comp.tag[0] != "eta" or comp.tag[1] not in supp:
                fail(f"component tag {comp.tag} at degree {n} is not a support tilt")
    for n, c1, c2 in _composable_pairs(c):
        if not _excused(q, c1.tag, c2.tag):
            continue
        mid = objs[c.terms[n + 1][c1.dst]]
        routed = any(
            serre(q, translate_base(xi, k)) in mid.mult
            for k in q.vertices
            if q.has_path(k, c1.tag[1])
        )
        if not routed:
            fail(f"excused pair at degree {n} has no Serre-image routing in the middle term")
    return report


# ───────────────────────── emission ─────────────────────────


def _tag_str(tag: tuple) -> str:
    if tag and tag[0] == "eta":
        return f"eta_{tag[1]}"
    return "_".join(str(t) for t in tag)


def complex_to_json(q: DynkinQuiver, xi: HeightFunction, fc: FractionComplex) -> dict:
    """The complex with every summand printed as the object its class
    names, followed by the class itself, decoded; WrongShape if the β fc
    carries has not one entry per vertex."""
    _check_length(fc.beta, len(xi.values))
    objs = _objects(q, xi, fc.num)
    decode = xi.classes.decode
    return {
        "denominator": {str(i): e for i, e in sorted(fc.den.items())},
        "terms": {
            str(n): [{**objs[m].to_json_dict(), "kclass": _mono_json(decode(m))} for m in row]
            for n, row in sorted(fc.num.terms.items())
        },
        "differentials": {
            str(n): [[c.src, c.dst, _tag_str(c.tag), c.sign] for c in comps]
            for n, comps in sorted(fc.num.diffs.items())
        },
    }
