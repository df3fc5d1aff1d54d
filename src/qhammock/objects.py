"""Multiset-with-function objects and the dominant-object calculus.

An object here is a pair (multiset of repetition-quiver vertices, attached
quasi-additive function).  The constructors below produce the three
families the engine needs:

* hammock objects Y(x): the hom multiset of x together with the generator
  function h_x;
* ghost objects F(x): the two-element multiset {Serre x, suspend x} with the
  zero function;
* the Kirillov-Reshetikhin pair K_i = Y(translate base_i) tensor Y(base_i).

Tensor product is multiset union plus function addition, and a tensor
power a^n scales a's multiplicities and function by n, so no object is
ever copied n times.  A product sums its generator and delta
coefficients when it is made and its multiset the first time ``.mult``
is read: the dominant-object round trip (``leading_object`` then
``root_of_dominant``) reads only the function, so it never adds up the
hom multisets of Y[β]'s factors.  Every factor of Y[β] and of a class
is one of 3n section objects, Y(τ base_i), Y(base_i) and F(τ base_i),
which ``_section_objects`` looks up once per (quiver, height) and hands
out by vertex index and in class field order, with the slot (vertex index,
section) of each of the 2n generators.  The round trip runs on those
slots both ways: a section object's function is its generator alone, so
``leading_object`` writes Y[β]'s function straight from the b-vector,
and ``_exponent_rows`` reads the exponents back by index, one slot
lookup per generator.  ``root_of_dominant`` runs only the max-recursion
for the remainder, and ``factor_dominant`` the full factorization
around the same recursion.  Serre tilting replaces chosen
multiset members by their Serre images while subtracting the matching
pointwise deltas from the function.  Objects and their functions are
immutable; products and tilts of valid objects are wrapped by _obj and
hammock._qfun without re-checking their keys.  A *dominant* object is
one whose function is a nonnegative combination of generators sitting on
the two base sections; those are classified by a coefficient vector in
the positive orthant, recovered by a max-recursion over the quiver.

Objects carry no Grothendieck class.  A product of hammock objects on the
two base sections and ghosts at τ base_i is named by its class, a monomial
in Y(i, ξ(i)−2), Y(i, ξ(i)) and f_i kept as one int of the height's
packing ``xi.classes`` (laurent._Packing), field 2i − 2, 2i − 1 and
2n + i − 1, so multiplying classes adds ints.  Classes are computed
directly (``_section_class``, ``_dominant_class``), ``dominant_monomial``
decodes Y[β]'s, and ``class_object`` builds the object a class names.
The complex build and the scalar recursion take every class they
multiply by from here.

A tilt identity between two classes is checked on the classes
(``_tilt_holds``), with no summand object built.  This is exact:
``class_object`` is additive (it sums multiplicities, generator and delta
coefficients scaled by exponents), so it extends to a Laurent monomial
with signed sums; ``is_iso`` is linear (equal multisets, and zero defect
of the function difference); and ``serre_tilt(a, Z)`` adds
Σ c_z·(S z − z) to the multiset and −c_z·δ_z to the deltas, provided a
holds Z.  So is_iso(serre_tilt(class_object(s), Z), class_object(t))
holds exactly when s's object holds Z and the signed sums of t/s equal
the tilt's change; t/s, the int t − s, is a handful of factors
(f_i·A_i⁻¹ for a connector of the complex build).  The second part
depends only on the ratio and Z, so it is decided once per (quiver,
height, ratio, members) (``_tilt_outcome``); that s and t have no
negative exponent (a range test) and that s holds Z (a dot product of
s's exponents with Z's multiplicities in the section objects) are
checked on every call.

The exchange step of β at a pivot (``pivot_step``) is one function that
returns one immutable value, head classes included.  At the canonical
pivot the most recent steps are memoised per (quiver, height, β), so the
complex build and the scalar recursion share one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .errors import InvariantViolation, NotContained, NotDominant, NotInSupport
from .hammock import QFun, _qfun, hammock_fun, hom_values, qfun_equal
from .laurent import Mono
from .quiver import (
    DynkinQuiver,
    HeightFunction,
    Root,
    _check_length,
    _pivot_rule,
    _walk,
    is_nonneg,
)
from .repetition import (
    ZVertex,
    _check_label,
    base_vertex,
    check_vertex,
    serre,
    suspend,
    translate_base,
)

__all__ = [
    "Obj",
    "Factorization",
    "hammock_object",
    "ghost_object",
    "kr_object",
    "class_object",
    "variable_A",
    "dominant_monomial",
    "tensor_obj",
    "obj_pow",
    "serre_tilt",
    "is_iso",
    "root_of_dominant",
    "leading_object",
    "factor_dominant",
    "reconstruct_factorization",
    "PivotStep",
    "pivot_step",
]


# ───────────────────────── objects ─────────────────────────


class Obj:
    """A multiset of repetition-quiver vertices with an attached function.

    Immutable: mult is a read-only view and no field can be reassigned,
    so an object inside a memoised build cannot be edited in place.

    A product (``_tensor_powers``) keeps its (factor, exponent) pairs in
    _factors and leaves mult unset; the first read of mult sums it from
    the factors (``__getattr__``) and stores it, so that read and every
    read of an object made with its multiset are plain slot reads.  Any
    other object, the empty product included, has no factors.
    """

    __slots__ = ("mult", "fun", "_factors")

    def __init__(self, mult: Mapping[ZVertex, int] | None = None, fun: QFun | None = None):
        m = {
            v if type(v) is ZVertex else ZVertex(*v): c
            for v, c in (mult or {}).items()
            if c
        }
        if m and min(m.values()) < 0:
            v = next(v for v, c in m.items() if c < 0)
            raise ValueError(f"negative multiplicity at {v}")
        object.__setattr__(self, "mult", MappingProxyType(m))
        object.__setattr__(self, "fun", fun if fun is not None else QFun())
        object.__setattr__(self, "_factors", ())

    def __getattr__(self, name: str) -> Mapping[ZVertex, int]:
        # reached only for an unset slot: the multiset of a product, once
        if name != "mult":
            raise AttributeError(f"'Obj' object has no attribute {name!r}")
        mult = _scaled_sum(self._factors, _MULT)
        view = MappingProxyType({v: c for v, c in mult.items() if c})
        object.__setattr__(self, "mult", view)
        return view

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Obj is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def size(self) -> int:
        return sum(self.mult.values())

    def canonical(self) -> tuple:
        return (tuple(sorted(self.mult.items())), self.fun.canonical())

    def __eq__(self, other: object) -> bool:
        # syntactic equality (same multiset, same presentation); for equality
        # of the presented data use is_iso
        return isinstance(other, Obj) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        pieces = [
            f"({v.i},{v.p})" + (f"^{c}" if c > 1 else "")
            for v, c in sorted(self.mult.items())
        ]
        return "Obj{" + " ".join(pieces) + "}"

    def to_json_dict(self) -> dict:
        multiset = [[f"{v.i},{v.p}", c] for v, c in sorted(self.mult.items())]
        return {"multiset": multiset, **self.fun.to_json_dict()}


def _obj(
    mult: Mapping[ZVertex, int] | None,
    fun: QFun,
    factors: tuple[tuple[Obj, int], ...] = (),
) -> Obj:
    """An object around a multiplicity map built from valid objects (keys
    already ZVertex, counts nonnegative): zero entries are dropped and the
    copy wrapped read-only, skipping Obj's key coercion and sign scan.
    With mult None the multiset is Σ n·b.mult over the (b, n > 0) factors,
    summed on the first read; each b must hold its multiset already."""
    a = object.__new__(Obj)
    if mult is not None:
        object.__setattr__(a, "mult", MappingProxyType({v: c for v, c in mult.items() if c}))
    object.__setattr__(a, "fun", fun)
    object.__setattr__(a, "_factors", factors)
    return a


def hammock_object(q: DynkinQuiver, xi: HeightFunction, x: ZVertex) -> Obj:
    """Y(x): the hom multiset of x with the generator function h_x.  The
    library reads the section objects from ``_section_objects``, which
    builds each once per (quiver, height)."""
    x = check_vertex(q, x)
    return Obj(hom_values(q, x), hammock_fun(q, x))


def ghost_object(q: DynkinQuiver, xi: HeightFunction, x: ZVertex) -> Obj:
    """F(x): multiset {Serre x, suspend x}, zero function."""
    x = check_vertex(q, x)
    return Obj({serre(q, x): 1, suspend(q, x): 1}, QFun())


def kr_object(q: DynkinQuiver, xi: HeightFunction, i: int) -> Obj:
    """K_i = Y(τ base_i) ⊗ Y(base_i), the object of the class Y(i, ξ(i)−2)·Y(i, ξ(i)).
    A label outside 1..rank raises ParityViolation."""
    _check_label(q, i)
    return class_object(q, xi, _section_class(xi, [(i, 1)], ()))


def class_object(q: DynkinQuiver, xi: HeightFunction, c: int) -> Obj:
    """The object a summand class names, decoded in one pass: Y(i, p)^e
    for ("Y", i, p) with p = ξ(i) or ξ(i)−2, and F(τ base_i)^e for
    ("f", i).  A negative exponent raises ValueError and an int that is no
    class over xi's keys OverflowError, as a Complex is public input."""
    exps = xi.classes.read(c)
    if min(exps) < 0:
        raise _negative_factor(xi, exps)
    return _tensor_powers(zip(_section_objects(q, xi)[1], exps))


@lru_cache(maxsize=None)
def _section_objects(
    q: DynkinQuiver, xi: HeightFunction
) -> tuple[
    tuple[tuple[tuple[Obj, ZVertex], tuple[Obj, ZVertex]], ...],
    tuple[Obj, ...],
    Mapping[ZVertex, tuple[int, bool]],
    tuple[int, ...],
    Mapping[ZVertex, tuple[int, ...]],
]:
    """The 3n objects every class and every Y[β] is made of, looked up once
    per (quiver, height), in five tables: by vertex index i − 1 the pair
    ((Y(τ base_i), τ base_i), (Y(base_i), base_i)), each with its
    generator; all 3n in the field order of xi.classes, Y(τ base_i) and
    Y(base_i) in fields 2i − 2 and 2i − 1 and F(τ base_i) in field
    2n + i − 1; the slot of each of the 2n generators, τ base_i →
    (i − 1, False) and base_i → (i − 1, True), which reads the first table
    backwards; and by vertex index f_i·A_i⁻¹, the class of a tilt at
    τ base_i over its source's class (by the mesh identity, tilting
    Y(τ base_i) ⊗ Y(base_i) there gives F(τ base_i) ⊗ ⊗ Y(w) over the
    arrows τ base_i → w); and by multiset member, its multiplicity in each
    of the 3n in field order, so a class holds it as many times as the
    dot product of that row with the class's exponents."""
    pairs = []
    slots: dict[ZVertex, tuple[int, bool]] = {}
    shifts = tuple(
        _section_class(xi, (), (), [i]) - xi.classes.encode(variable_A(q, xi, i))
        for i in q.vertices
    )
    for i in q.vertices:
        lower, upper = translate_base(xi, i), base_vertex(xi, i)
        pair = ((hammock_object(q, xi, lower), lower), (hammock_object(q, xi, upper), upper))
        pairs.append(pair)
        slots[lower] = (i - 1, False)
        slots[upper] = (i - 1, True)
    by_field = (
        *(a for pair in pairs for a, _ in pair),
        *(ghost_object(q, xi, translate_base(xi, i)) for i in q.vertices),
    )
    counts: dict[ZVertex, list[int]] = {}
    for k, a in enumerate(by_field):
        for z, c in a.mult.items():
            counts.setdefault(z, [0] * len(by_field))[k] = c
    counts_view = MappingProxyType({z: tuple(row) for z, row in counts.items()})
    return tuple(pairs), by_field, MappingProxyType(slots), shifts, counts_view


def _negative_factor(xi: HeightFunction, exps: tuple[int, ...]) -> ValueError:
    """class_object's refusal of the first negative exponent of a class."""
    key, e = next((key, e) for key, e in zip(xi.classes.keys, exps) if e < 0)
    return ValueError(f"class factor {key}^{e} is not a power on the two base sections")


def variable_A(q: DynkinQuiver, xi: HeightFunction, i: int) -> Mono:
    """The root monomial at vertex i, sitting between the two sections.

    Both sections of i appear once; each neighbor contributes the inverse
    of whichever of its own two sections lies at height ξ(i) − 1, so the
    monomial never leaves the truncated ring.  The neighbours ascend, so
    the pairs come out canonical with i's two sections spliced in.  A
    label outside 1..rank raises ParityViolation.
    """
    _check_label(q, i)
    p = xi.ht(i)
    nbrs = q.neighbors(i)
    cut = sum(j < i for j in nbrs)
    return (
        *((("Y", j, p - 1), -1) for j in nbrs[:cut]),
        (("Y", i, p - 2), 1),
        (("Y", i, p), 1),
        *((("Y", j, p - 1), -1) for j in nbrs[cut:]),
    )


def _section_class(
    xi: HeightFunction,
    k_exp: Iterable[tuple[int, int]],
    h_exp: Iterable[tuple[int, int]],
    f_list: Iterable[int] = (),
) -> int:
    """The class of ⊗_j F(τ base_j) ⊗ ⊗_k K_k^{e_k} ⊗ ⊗_l Y(base_l)^{h_l}:
    f_j · ∏ (Y(k, ξ(k)−2)·Y(k, ξ(k)))^{e_k} · ∏ Y(l, ξ(l))^{h_l}, each f_j
    once.  Exponents may be negative (a denominator).  Each factor adds
    its exponent times its fields' units of ``xi.classes``; while the
    exponents' magnitudes sum below the field bias no field can leave its
    range, and past it they are summed per field and encoded, checked."""
    classes, n = xi.classes, len(xi.values)
    units = classes.units
    c = span = 0
    for k, e in k_exp:
        c += e * (units[2 * k - 2] + units[2 * k - 1])
        span += abs(e)
    for l, e in h_exp:
        c += e * units[2 * l - 1]
        span += abs(e)
    if span >= classes.bias:
        fields = [0] * (2 * n)
        for k, e in k_exp:
            fields[2 * k - 2] += e
            fields[2 * k - 1] += e
        for l, e in h_exp:
            fields[2 * l - 1] += e
        c = classes.encode(tuple(compress(zip(classes.keys, fields), fields)))
    for j in set(f_list):
        c += units[2 * n + j - 1]
    return c


def _census_class(xi: HeightFunction, m: Mono) -> Mono:
    """The section class of a census monomial, X_i ↦ K_i and x_i ↦ Y(base_i):
    X_i's exponent goes to both section slots of i and x_i's to the upper
    one, which sends distinct monomials to distinct classes."""
    slots = [0] * (2 * len(xi.values))
    for (kind, i), e in m:
        if kind == "X":
            slots[2 * i - 2] += e
        slots[2 * i - 1] += e
    return tuple(compress(zip(xi.classes.keys, slots), slots))


def _tensor_powers(pairs: Iterable[tuple[Obj, int]]) -> Obj:
    """⊗ a^n over (a, n ≥ 0) pairs: the generator and delta coefficients
    scaled by n and summed now, the multiset on its first read.  A factor
    that is itself a product has its multiset summed here, so no first
    read recurses through a chain of products."""
    factors = tuple((a, n) for a, n in pairs if n)
    for a, _ in factors:
        if a._factors:
            a.mult  # the read sums it, once
    fun = _qfun(_scaled_sum(factors, _GENS), _scaled_sum(factors, _DELTAS))
    return _obj(None if factors else {}, fun, factors)


_MULT, _GENS, _DELTAS = attrgetter("mult"), attrgetter("fun.gens"), attrgetter("fun.deltas")


def _scaled_sum(
    pairs: Iterable[tuple[Obj, int]], read: Callable[[Obj], Mapping[ZVertex, int]]
) -> dict[ZVertex, int]:
    """Σ n·read(a) over the (a, n) pairs, zero entries kept; a negative n
    subtracts."""
    into: dict[ZVertex, int] = {}
    for a, n in pairs:
        for v, c in read(a).items():
            into[v] = into.get(v, 0) + c * n
    return into


def tensor_obj(*objs: Obj) -> Obj:
    """Tensor product: multiset union, function sum."""
    return _tensor_powers((a, 1) for a in objs)


def obj_pow(a: Obj, n: int) -> Obj:
    """n-fold tensor power (n ≥ 0), by scaling a's multiplicities and
    function by n rather than tensoring n copies."""
    if n < 0:
        raise ValueError("negative tensor power")
    return _tensor_powers([(a, n)])


# ───────────────────────── tilting ─────────────────────────


def serre_tilt(q: DynkinQuiver, a: Obj, zmult: Iterable[ZVertex]) -> Obj:
    """Replace each chosen multiset member by its Serre image, subtracting
    the matching pointwise delta from the function; a member listed n
    times is tilted n times.

    Raises NotContained if the multiset does not hold the requested copies.
    """
    chosen: dict[ZVertex, int] = {}
    for z in zmult:
        z = ZVertex(*z)
        chosen[z] = chosen.get(z, 0) + 1
    mult = dict(a.mult)
    deltas = dict(a.fun.deltas)
    for z, c in chosen.items():
        if mult.get(z, 0) < c:
            raise NotContained(f"{z} (x{c}) not contained in the multiset")
        mult[z] = mult.get(z, 0) - c
        sz = serre(q, z)
        mult[sz] = mult.get(sz, 0) + c
        deltas[z] = deltas.get(z, 0) - c
    return _obj(mult, _qfun(a.fun.gens, deltas))


def is_iso(q: DynkinQuiver, a: Obj, b: Obj) -> bool:
    """Same multiset and equal attached functions."""
    return a.mult == b.mult and qfun_equal(q, a.fun, b.fun)


def _tilt_holds(
    q: DynkinQuiver, xi: HeightFunction, src: int, dst: int, zs: Iterable[ZVertex]
) -> bool:
    """is_iso(serre_tilt(class_object(src), zs), class_object(dst)), decided
    on the two classes: no summand object is built (see the module
    docstring for why this is exact).

    Every call checks src and dst for a negative exponent (class_object's
    ValueError), src as it is decoded and dst by one range test, and that
    src's object holds the members, counted in serre_tilt's order (a Serre
    image added by an earlier member counts for a later one;
    NotContained), each count one dot product of src's exponents.
    Whether the signed sums of dst/src equal the tilt's change depends
    only on the ratio dst − src and the members, and is decided once per
    quiver (``_tilt_outcome``).
    """
    classes = xi.classes
    exps = classes.read(src)
    if min(exps) < 0:
        raise _negative_factor(xi, exps)
    if not classes.nonneg(dst):
        raise _negative_factor(xi, classes.read(dst))
    chosen: dict[ZVertex, int] = {}
    for z in zs:
        chosen[z] = chosen.get(z, 0) + 1
    members = tuple(chosen.items())
    holds, images = _tilt_outcome(q, xi, dst - src, members)
    counts = _section_objects(q, xi)[4]
    added: dict[ZVertex, int] = {}
    for (z, c), sz in zip(members, images):
        row = counts.get(z)
        if added.get(z, 0) + (sum(map(mul, row, exps)) if row else 0) < c:
            raise NotContained(f"{z} (x{c}) not contained in the multiset")
        added[sz] = added.get(sz, 0) + c
    return holds


@lru_cache(maxsize=None)
def _tilt_outcome(
    q: DynkinQuiver, xi: HeightFunction, ratio: int, members: tuple[tuple[ZVertex, int], ...]
) -> tuple[bool, tuple[ZVertex, ...]]:
    """Whether the signed sums of a class ratio, a difference of objects
    that is never built, are the change of tilting the (member, count)
    pairs: its multiset must be Σ c_z·(S z − z) and its function
    −Σ c_z·δ_z.  Also the members' Serre images.  The ratio is decoded
    field by field against the section objects."""
    images = tuple(serre(q, z) for z, _ in members)
    exps = xi.classes.read(ratio)
    factors = [(a, e) for a, e in zip(_section_objects(q, xi)[1], exps) if e]
    mult, gens, deltas = (_scaled_sum(factors, read) for read in (_MULT, _GENS, _DELTAS))
    for (z, c), sz in zip(members, images):
        mult[z] = mult.get(z, 0) + c
        mult[sz] = mult.get(sz, 0) - c
    holds = not any(mult.values()) and qfun_equal(
        q, _qfun(gens, deltas), _qfun({}, {z: -c for z, c in members})
    )
    return holds, images


# ───────────────────────── dominant objects ─────────────────────────


def _exponent_rows(
    q: DynkinQuiver, xi: HeightFunction, a: Obj
) -> tuple[list[int], list[int]]:
    """Generator exponents (c, d) of a dominant object by vertex index: c
    at the translated base vertices, d at the base vertices, one slot
    lookup per generator in the section table.  NotDominant for deltas
    first, then for each generator in turn, a negative coefficient before
    a slot off the two base sections (a label outside the quiver included)."""
    if a.fun.deltas:
        raise NotDominant("function carries pointwise deltas")
    slots = _section_objects(q, xi)[2]
    rows = ([0] * q.rank, [0] * q.rank)
    for v, coeff in a.fun.gens.items():
        if coeff < 0:
            raise NotDominant(f"negative generator coefficient at {v}")
        slot = slots.get(v)
        if slot is None:
            raise NotDominant(f"generator {v} off the base sections")
        k, on_base = slot
        rows[on_base][k] = coeff
    return rows


def root_of_dominant(q: DynkinQuiver, xi: HeightFunction, a: Obj) -> Root:
    """The coefficient vector classifying a dominant object.

    Recursion a_i = max(0, c_i - d_i + Σ_{i→j} a_j), evaluated targets
    first.  Inverse to leading_object up to the frontier correction
    factors (see factor_dominant), which it does not compute: it is
    factor_dominant's remainder.
    """
    c, d = _exponent_rows(q, xi, a)
    return _clamped_recursion(q, c, d)[0]


def _negative_simple(beta: Root) -> int | None:
    """The base case of a build or recursion step: i for β = −α_i, None
    for a nonnegative β, and NotDominant for any other vector."""
    if is_nonneg(beta):
        return None
    negs = [k + 1 for k, v in enumerate(beta) if v]
    if len(negs) == 1 and beta[negs[0] - 1] == -1:
        return negs[0]
    raise NotDominant(f"{tuple(beta)} is neither nonnegative nor a negative simple root")


def _leading_exponents(q: DynkinQuiver, beta: Root) -> list[int]:
    """Y[β] by vertex index, the object layer's one b-vector loop (the
    exchange step reads it too): e > 0 is the exponent of
    Y(τ base_i) and e < 0 that of Y(base_i)^{−e}.  Y(base_j) alone for a
    negative simple −α_j (another negative β raises NotDominant), else the
    b-vector b_i = β_i − Σ_{i→j} β_j in one pass over the arrows.  A β
    whose length is not the rank raises WrongShape."""
    _check_length(beta, q.rank)
    if min(beta) < 0:
        j = _negative_simple(beta)
        return [-(k == j) for k in q.vertices]
    b = list(beta)
    for i, j in q.arrows:
        b[i - 1] -= beta[j - 1]
    return b


def leading_object(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> Obj:
    """Y[β]: the dominant object classified by β (any positive-orthant β;
    a negative simple −α_j yields the base hammock object at j).  The
    b-vector entries are the tensor exponents themselves, on section
    objects taken from the per-quiver table.  A section object's function
    is its generator h_x alone, so Y[β]'s function is written in the same
    pass, one generator per factor, and its multiset is summed on first
    read; no power is built on the way."""
    gens: dict[ZVertex, int] = {}
    factors = []
    for pair, e in zip(_section_objects(q, xi)[0], _leading_exponents(q, beta)):
        if e:
            a, x = pair[e < 0]
            gens[x] = n = abs(e)
            factors.append((a, n))
    return _obj(None if factors else {}, _qfun(gens, {}), tuple(factors))


def dominant_monomial(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> Mono:
    """The monomial of Y[β], the head every route must share: its class,
    decoded."""
    return xi.classes.decode(_dominant_class(q, xi, beta))


def _dominant_class(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> int:
    """The class of Y[β], read off its exponents without building it: each
    nonzero exponent e of vertex i adds |e| to the field of Y(τ base_i)
    for e > 0 and of Y(base_i) for e < 0, one field each, so checking
    each |e| against the field bias checks the class."""
    classes = xi.classes
    units, bias = classes.units, classes.bias
    c = 0
    for k, e in enumerate(_leading_exponents(q, beta)):
        if e > 0:
            c += e * units[2 * k]
        elif e:
            c -= e * units[2 * k + 1]
        if not -bias <= e <= bias:
            raise OverflowError(f"exponent {e} of Y[{tuple(beta)}] too wide for its field")
    return c


# ───────────────────────── factorizations ─────────────────────────


@dataclass(frozen=True)
class Factorization:
    """Right-hand side of a tilting/factorization identity.

    The represented object is
        ⊗_{j in f_list} F(τ base_j) ⊗ ⊗_i K_i^{k_exp[i]}
          ⊗ ⊗_l Y(base_l)^{h_exp[l]} ⊗ Y[remainder].
    """

    f_list: tuple[int, ...]
    k_exp: tuple[tuple[int, int], ...]
    h_exp: tuple[tuple[int, int], ...]
    remainder: Root


def reconstruct_factorization(
    q: DynkinQuiver, xi: HeightFunction, fac: Factorization
) -> Obj:
    """Build the object a Factorization stands for, from its class."""
    head = _section_class(xi, fac.k_exp, fac.h_exp, fac.f_list)
    return class_object(q, xi, head + _dominant_class(q, xi, fac.remainder))


def _clamped_recursion(
    q: DynkinQuiver, c: list[int], d: list[int]
) -> tuple[Root, dict[int, int]]:
    """a_i = max(0, c_i − d_i + Σ_{i→j} a_j) on exponent lists by vertex
    index, evaluated targets first: the vector a and what the max clamped
    away, by vertex."""
    avec = [0] * q.rank
    slack: dict[int, int] = {}
    out = q._out
    for i in q._omega_order:
        raw = c[i - 1] - d[i - 1]
        for j in out[i]:
            raw += avec[j - 1]
        if raw < 0:
            slack[i] = -raw
        else:
            avec[i - 1] = raw
    return tuple(avec), slack


def _max_recursion(q: DynkinQuiver, c: list[int], d: list[int]) -> Factorization:
    """factor_dominant on generator exponent lists (c, d) read off the
    sections: the clamped recursion's vector is the remainder and what it
    clamped away the h_exp slack."""
    remainder, slack = _clamped_recursion(q, c, d)
    k_exp = tuple((i, k) for i, ci, di in zip(q.vertices, c, d) if (k := min(ci, di)))
    return Factorization((), k_exp, tuple(sorted(slack.items())), remainder)


def factor_dominant(q: DynkinQuiver, xi: HeightFunction, a: Obj) -> Factorization:
    """Split a dominant object into KR factors, frontier factors, and a
    leading object.

    k_exp[i] = min(c_i, d_i); the remainder is the classifying vector; the
    h_exp slot absorbs whatever the max-recursion clamped away (nonzero
    exactly at frontier vertices whose d-exponent exceeds what Y[remainder]
    provides).  Reconstruction is an exact identity, not just a class-level
    one.
    """
    c, d = _exponent_rows(q, xi, a)
    return _max_recursion(q, c, d)


# ───────────────────────── the exchange step ─────────────────────────


@dataclass(frozen=True)
class PivotStep:
    """One exchange step of β at a support vertex: the absorb/tilt split.

    The mapping cone C[β] at the pivot i, and its Euler-characteristic
    shadow in the scalar recursion, both read these values:

    * eps, beta_inj: Y[β] ⊗ Y(base_i) absorbs K_i^eps and steps down to
      Y[β − dim I_i] (the absorb side);
    * hin: the frontier injection factors (l, m_l) of that absorption, for
      l outside the support, m_l arrows from l into the in-closure of i;
    * tilt: the iterated tilt of Y[β] ⊗ Y(base_i) over the out-closure of
      i, as a Factorization with remainder β − dim P_i (the tilt side);
    * absorb_class, tilt_class: the head classes of the two sides,
      K_i^eps · ∏ Y(base_l)^{m_l} and ∏ K_k^{e_k} · ∏ Y(base_l)^{h_l} of
      the tilt (its ghost block f_j over tilt.f_list apart), as ints of
      ``xi.classes``.

    Together:  Y[β] ⊗ Y(base_i) ≅ K_i^eps ⊗ ⊗_l Y(base_l)^{m_l} ⊗ Y[beta_inj].
    """

    pivot: int
    eps: int
    beta_inj: Root
    hin: tuple[tuple[int, int], ...]
    tilt: Factorization
    absorb_class: int
    tilt_class: int


def pivot_step(
    q: DynkinQuiver, xi: HeightFunction, beta: Root, pivot: int | None = None
) -> PivotStep:
    """The exchange step of a nonzero nonnegative β at a support vertex.

    pivot=None takes the canonical pivot of beta_combinatorics; any other
    support vertex is allowed (the character does not depend on it), and
    one outside the support raises NotInSupport.  The most recent steps
    at the canonical pivot are memoised per (quiver, height, β), so the
    complex build and the scalar recursion share one immutable step; a
    forced pivot is stepped afresh.
    """
    if pivot is None:
        return _canonical_step(q, xi, tuple(beta))
    return _step(q, xi, beta, pivot)


# bounded: the build and the recursion memoise their own results per β,
# so each step is read once per route, and verify_beta runs the two routes
# one root apart; 256 recent steps keep every such second read
@lru_cache(maxsize=256)
def _canonical_step(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> PivotStep:
    return _step(q, xi, beta, None)


def _step(q: DynkinQuiver, xi: HeightFunction, beta: Root, pivot: int | None) -> PivotStep:
    # the pivot's two closures and no others: the pivot rule walked the
    # out-closures of the least-coefficient vertices, the canonical pivot's
    _, inside, least_out, iset = _pivot_rule(q, xi, beta)
    i = iset[0] if pivot is None else pivot
    if i not in inside:
        raise NotInSupport(f"pivot {i} outside the support of {beta}")
    out_cl = least_out.get(i) or _walk(i, q.arrows_from, inside)
    in_cl = _walk(i, q.arrows_to, inside)
    b = _leading_exponents(q, beta)
    eps = 1 if b[i - 1] > 0 else 0
    hin = _frontier(q, inside, in_cl, q.arrows_from)
    tilt = _tilt(q, beta, b, inside, out_cl, i)
    return PivotStep(
        pivot=i,
        eps=eps,
        beta_inj=_drop(beta, in_cl),
        hin=hin,
        tilt=tilt,
        absorb_class=_section_class(xi, [(i, eps)], hin),
        tilt_class=_section_class(xi, tilt.k_exp, tilt.h_exp),
    )


def _drop(beta: Root, closure: frozenset[int]) -> Root:
    """β minus the indicator vector of a closure: β − dim I_i or β − dim P_i."""
    return tuple(c - (k in closure) for k, c in enumerate(beta, 1))


def _frontier(
    q: DynkinQuiver,
    support: frozenset[int],
    closure: frozenset[int],
    arrows: Callable[[int], tuple[int, ...]],
) -> tuple[tuple[int, int], ...]:
    """(l, m_l) for every l outside the support with m_l = #(arrows(l) ∩ closure) > 0."""
    return tuple(
        (l, m)
        for l in q.vertices
        if l not in support and (m := sum(1 for j in arrows(l) if j in closure))
    )


def _tilt(
    q: DynkinQuiver, beta: Root, b: list[int], support: frozenset[int],
    out_cl: frozenset[int], i: int,
) -> Factorization:
    """Iterated tilt of Y[β] ⊗ Y(base_i) over the out-closure out_cl of i.

    One ghost factor per out-closure vertex, the H factors at vertices just
    outside the support receiving arrows from the out-closure, and the KR
    factors and remainder β − dim P_i recovered by the max-recursion on the
    tilted generator exponents.
    """
    c: list[int] = []
    d: list[int] = []
    for k in q.vertices:
        into_cl = sum(1 for j in q.arrows_from(k) if j in out_cl)
        ck = max(b[k - 1], 0) - (1 if k in out_cl else 0) + into_cl
        dk = max(-b[k - 1], 0)
        if k in out_cl and k != i:
            dk += sum(1 for j in q.arrows_to(k) if j in out_cl) - 1
        if ck < 0 or dk < 0:
            raise NotDominant(f"tilt bookkeeping went negative at {k}")
        c.append(ck)
        d.append(dk)
    fac = _max_recursion(q, c, d)
    expected = _drop(beta, out_cl)
    if fac.remainder != expected:
        raise InvariantViolation(
            f"tilt remainder {fac.remainder} disagrees with β − dim P = {expected}"
        )
    if fac.h_exp:
        raise InvariantViolation("tilt side developed frontier slack (bookkeeping bug)")
    return Factorization(
        f_list=tuple(sorted(out_cl)),
        k_exp=fac.k_exp,
        h_exp=_frontier(q, support, out_cl, q.arrows_to),
        remainder=expected,
    )
