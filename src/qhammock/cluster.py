"""Exchange-pattern enumeration with one frozen shadow per vertex.

This is the independent cross-check lane: no repetition-quiver machinery
at all, just seed mutation.  The seed lives on two levels — a mutable
copy of the vertex set at level 0 and a frozen copy at level 1.  The
initial attachment pattern is

    (i,0) → (i,1)                       for every vertex i,
    (j,0) → (i,0), (j,1) → (i,1),
    (i,1) → (j,0)                       for every arrow i → j,

so each frozen shadow X_i sits over its mutable x_i and the frozen level
repeats the mutable pattern one step out of phase.  Mutation follows the
usual skew-matrix rule; the exchange binomial is divided out exactly in
the initial variables, so the Laurent property is asserted on every step
rather than assumed (a failed division raises InexactDivision and means
the seed bookkeeping is wrong, not that rounding happened).  A seed holds
its entries only as packed exponent rows over the 2n initial variables in
sorted order, one int per term (``laurent._packing``), on which mutation
forms the exchange products and divides with the Laurent ring's row
kernel; an entry becomes a LaurentPoly only when it is read through
``Seed.cluster`` or returned by the census, each row unpacked in one
C-level call.  On a 2-vCPU Xeon under Python 3.11 the census of
``sample_orientations("E", 7, 1, seed=1)`` takes about 0.2 s and that of
``sample_orientations("E", 8, 1, seed=1)`` about 38 s.

Enumeration walks by sink mutation: starting from the initial seed, it
keeps mutating at the lowest-labelled sink of the mutable part (a vertex
with no arrow to another mutable vertex).  For an acyclic quiver each such
step applies τ⁻¹ in the cluster category (Buan–Marsh–Reineke–Reiten–
Todorov 2006), so the variables produced at one vertex run along a τ-orbit
until an initial variable x_j comes back; once every mutable vertex has
produced some x_j, every orbit has closed and every cluster variable has
appeared, in about |Δ₊| steps rather than one per edge of the exchange
graph.  The frozen shadows do not change the exchange graph in finite type
(Fomin–Zelevinsky, Cluster algebras II).  Each variable is keyed by its
denominator vector in the initial mutable variables (the negated column
minima of its rows); the initial variables themselves get the negated
unit vectors.  The key set is validated against the root system and every
coefficient is checked positive — that bijection is the actual theorem
being leaned on, and it also certifies that the walk found every
variable, so it is checked, not trusted.

Entries both frozen are never stored: no mutation rule ever reads them
(the exchange at a mutable k consumes column k only, and the update of a
pair (u, v) reads b_{uk} and b_{kv} with k mutable), so carrying them
would only add noise to the matrix comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import CensusFailure, TooLarge
from .laurent import LaurentPoly, _div_rows, _mul_rows, _Packing, _packing, _poly_from_rows
from .quiver import DynkinQuiver, Root, positive_roots, simple_root

SeedVertex = Tuple[int, int]  # (vertex, level); level 0 mutable, 1 frozen

MUTABLE = 0
FROZEN = 1

__all__ = [
    "SeedVertex",
    "MUTABLE",
    "FROZEN",
    "Seed",
    "initial_seed",
    "mutate",
    "enumerate_cluster_variables",
]


# ───────────────────────────── seeds ─────────────────────────────


# an entry as {packed exponent row over the seed's sorted variable keys: coefficient}
_Rows = Mapping[int, int]
_Arrows = List[Tuple[SeedVertex, int]]


@dataclass(frozen=True, eq=False)
class Seed:
    """A labeled seed: skew arrow-count matrix plus cluster entries.

    ``matrix`` stores every nonzero b_{uv} with at least one endpoint
    mutable, both orientations (b_{vu} = −b_{uv}).  ``rows`` maps each
    seed vertex to its entry, a Laurent polynomial in ("x", i) and
    ("X", i), as a read-only {packed exponent row: coefficient} view over
    the 2n keys in sorted order (every ("X", i), then every ("x", i);
    ``laurent._packing`` of 2n columns packs them); frozen
    entries never change, and a mutated seed shares the views of the
    entries it did not change.  ``cluster`` reads them as LaurentPolys.
    """

    vertices: Tuple[SeedVertex, ...]
    matrix: Mapping[Tuple[SeedVertex, SeedVertex], int]
    rows: Mapping[SeedVertex, _Rows]

    @property
    def cluster(self) -> Mapping[SeedVertex, LaurentPoly]:
        """Every entry as a LaurentPoly, converted from its rows on each read."""
        keys = _keys(i for i, _ in self.mutable_vertices())
        pk = _packing(len(keys))
        return MappingProxyType({v: _poly_from_rows(r, keys, pk) for v, r in self.rows.items()})

    def b(self, u: SeedVertex, v: SeedVertex) -> int:
        return self.matrix.get((u, v), 0)

    def mutable_vertices(self) -> Tuple[SeedVertex, ...]:
        return tuple(v for v in self.vertices if v[1] == MUTABLE)


def _keys(vertices: Iterable[int]) -> Tuple[Tuple[str, int], ...]:
    """The initial variables of a quiver's seed, sorted: the row columns."""
    return tuple(sorted(key for i in vertices for key in (("x", i), ("X", i))))


def initial_seed(q: DynkinQuiver) -> Seed:
    verts = tuple((i, lvl) for lvl in (MUTABLE, FROZEN) for i in q.vertices)
    arrows: List[Tuple[SeedVertex, SeedVertex]] = []
    for i in q.vertices:
        arrows.append(((i, MUTABLE), (i, FROZEN)))
    for (i, j) in q.arrows:
        arrows.append(((j, MUTABLE), (i, MUTABLE)))
        arrows.append(((j, FROZEN), (i, FROZEN)))
        arrows.append(((i, FROZEN), (j, MUTABLE)))
    matrix: Dict[Tuple[SeedVertex, SeedVertex], int] = {}
    for (u, v) in arrows:
        if u[1] == FROZEN and v[1] == FROZEN:
            continue
        matrix[(u, v)] = matrix.get((u, v), 0) + 1
        matrix[(v, u)] = matrix.get((v, u), 0) - 1
    matrix = {k: w for k, w in matrix.items() if w}
    keys = _keys(q.vertices)
    pk = _packing(len(keys))
    rows: Dict[SeedVertex, _Rows] = {}
    for v in verts:
        key = ("x" if v[1] == MUTABLE else "X", v[0])
        rows[v] = MappingProxyType({pk.pack([int(k == key) for k in keys]): 1})
    return Seed(verts, matrix, rows)


def _arrows_at(seed: Seed, k: SeedVertex) -> Tuple[_Arrows, _Arrows]:
    """The neighbours of k with their arrow counts: (arrows in, arrows out)."""
    into_k: _Arrows = []
    out_of_k: _Arrows = []
    for v in seed.vertices:
        w = seed.b(v, k)
        if w:
            (into_k if w > 0 else out_of_k).append((v, abs(w)))
    return into_k, out_of_k


def _product(seed: Seed, factors: _Arrows, pk: _Packing) -> _Rows:
    """The product of the entries at the given vertices, each to its power, on rows."""
    out = None
    for v, w in factors:
        for _ in range(w):
            out = seed.rows[v] if out is None else _mul_rows(out, seed.rows[v], pk)
    return {pk.zero: 1} if out is None else out


def mutate(seed: Seed, k: SeedVertex) -> Seed:
    """Mutation at a mutable vertex: matrix rule plus exact exchange.

    The matrix rule b'_{uv} = −b_{uv} if k ∈ {u, v}, else
    b_{uv} + sgn(b_{uk})·max(b_{uk}·b_{kv}, 0), changes only row and
    column k and the pairs with u → k → v, so only those are touched.
    The exchange products, their sum and the division by the old entry
    run on packed exponent rows, through the Laurent ring's one division
    kernel, and the new entry is stored as the quotient's rows.
    """
    if k not in seed.vertices:
        raise ValueError(f"{k} is not a vertex of this seed")
    if k[1] != MUTABLE:
        raise ValueError(f"cannot mutate the frozen vertex {k}")

    pk = _packing(len(seed.vertices))
    into_k, out_of_k = _arrows_at(seed, k)
    new_matrix = dict(seed.matrix)
    for v, a in into_k:
        new_matrix[(v, k)] = -a
        new_matrix[(k, v)] = a
    for v, c in out_of_k:
        new_matrix[(v, k)] = c
        new_matrix[(k, v)] = -c
    for u, a in into_k:
        for v, c in out_of_k:
            if u[1] == FROZEN and v[1] == FROZEN:
                continue
            w = new_matrix.get((u, v), 0) + a * c
            if w:
                new_matrix[(u, v)] = w
                new_matrix[(v, u)] = -w
            else:
                del new_matrix[(u, v)], new_matrix[(v, u)]

    num = dict(_product(seed, into_k, pk))
    for r, c in _product(seed, out_of_k, pk).items():
        if s := num.get(r, 0) + c:
            num[r] = s
        else:
            del num[r]
    new_rows = dict(seed.rows)
    new_rows[k] = MappingProxyType(_div_rows(num, seed.rows[k], pk))
    return Seed(seed.vertices, new_matrix, new_rows)


# ──────────────────────────── sink walk ────────────────────────────


def _lowest_sink(seed: Seed) -> SeedVertex:
    """Lowest-labelled mutable vertex with no arrow to a mutable vertex."""
    mutable = seed.mutable_vertices()
    return next(k for k in mutable if all(seed.b(k, v) <= 0 for v in mutable))


def _sink_walk(q: DynkinQuiver) -> List[_Rows]:
    """Every variable met by sink mutation until each τ-orbit has closed,
    as rows; an entry is told apart by its rows."""
    seed = initial_seed(q)
    found = {frozenset(seed.rows[v].items()): seed.rows[v] for v in seed.mutable_vertices()}
    initial = set(found)
    still_open = set(seed.mutable_vertices())
    cap = 2 * (len(positive_roots(q)) + q.rank)
    for _ in range(cap):
        k = _lowest_sink(seed)
        seed = mutate(seed, k)
        key = frozenset(seed.rows[k].items())
        if key in initial:
            still_open.discard(k)
            if not still_open:
                return list(found.values())
        else:
            found.setdefault(key, seed.rows[k])
    raise TooLarge(f"sink walk did not close within {cap} mutations")


def _denominator_vector(q: DynkinQuiver, rows: _Rows, pk: _Packing) -> Root:
    """Exponent of 1/x_i in lowest terms, per vertex: the negated minimum
    of x_i's column (a variable a term lacks has exponent 0 there), read
    off the unpacked rows; the ("x", i) columns come last, in vertex order."""
    return tuple(-e for e in pk.exponents(pk.corner(rows, True))[q.rank :])


@lru_cache(maxsize=None)
def enumerate_cluster_variables(q: DynkinQuiver) -> Mapping[Root, LaurentPoly]:
    """Every cluster variable, keyed by denominator vector.

    Initial variables land on the negated unit vectors, everything else
    on a positive root; the key set is checked against the root system
    and every coefficient is checked positive, on the rows, before
    returning.  Each variable becomes a LaurentPoly here, once.  The
    table is cached per quiver, and every call shares one read-only view
    of it (a LaurentPoly cannot be edited).
    """
    keys = _keys(q.vertices)
    pk = _packing(len(keys))
    out: Dict[Root, LaurentPoly] = {}
    for rows in _sink_walk(q):
        dvec = _denominator_vector(q, rows, pk)
        if dvec in out:
            raise CensusFailure(
                f"two cluster variables share the denominator vector {dvec}"
            )
        if any(c <= 0 for c in rows.values()):
            raise CensusFailure("cluster variable with nonpositive coefficient")
        out[dvec] = _poly_from_rows(rows, keys, pk)

    expected = {tuple(-v for v in simple_root(q, i)) for i in q.vertices}
    expected |= {tuple(r) for r in positive_roots(q)}
    if set(out) != expected:
        missing = expected - set(out)
        extra = set(out) - expected
        raise CensusFailure(
            f"denominator vectors do not match the root system "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    return MappingProxyType(out)
