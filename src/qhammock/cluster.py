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
the seed bookkeeping is wrong, not that rounding happened).

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
denominator vector in the initial mutable variables; the initial variables
themselves get the negated unit vectors.  The key set is validated against
the root system and every coefficient is checked positive — that bijection
is the actual theorem being leaned on, and it also certifies that the walk
found every variable, so it is checked, not trusted.

Entries both frozen are never stored: no mutation rule ever reads them
(the exchange at a mutable k consumes column k only, and the update of a
pair (u, v) reads b_{uk} and b_{kv} with k mutable), so carrying them
would only add noise to the matrix comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from .errors import CensusFailure, TooLarge
from .laurent import LaurentPoly
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
    "exchange_binomial",
    "enumerate_cluster_variables",
]


# ───────────────────────────── seeds ─────────────────────────────


@dataclass(frozen=True, eq=False)
class Seed:
    """A labeled seed: skew arrow-count matrix plus cluster entries.

    ``matrix`` stores every nonzero b_{uv} with at least one endpoint
    mutable, both orientations (b_{vu} = −b_{uv}).  ``cluster`` maps each
    seed vertex to a Laurent polynomial in the initial variables
    ("x", i) and ("X", i); frozen entries never change.
    """

    vertices: Tuple[SeedVertex, ...]
    matrix: Mapping[Tuple[SeedVertex, SeedVertex], int]
    cluster: Mapping[SeedVertex, LaurentPoly]

    def b(self, u: SeedVertex, v: SeedVertex) -> int:
        return self.matrix.get((u, v), 0)

    def mutable_vertices(self) -> Tuple[SeedVertex, ...]:
        return tuple(v for v in self.vertices if v[1] == MUTABLE)


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
    cluster: Dict[SeedVertex, LaurentPoly] = {}
    for i in q.vertices:
        cluster[(i, MUTABLE)] = LaurentPoly.variable(("x", i))
        cluster[(i, FROZEN)] = LaurentPoly.variable(("X", i))
    return Seed(verts, matrix, cluster)


def exchange_binomial(seed: Seed, k: SeedVertex) -> Tuple[LaurentPoly, LaurentPoly]:
    """The two exchange products at k: (arrows in, arrows out)."""
    plus = LaurentPoly.one()
    minus = LaurentPoly.one()
    for v in seed.vertices:
        w = seed.b(v, k)
        if w > 0:
            plus = plus * seed.cluster[v] ** w
        elif w < 0:
            minus = minus * seed.cluster[v] ** (-w)
    return plus, minus


def mutate(seed: Seed, k: SeedVertex) -> Seed:
    """Mutation at a mutable vertex: matrix rule plus exact exchange.

    The matrix rule b'_{uv} = −b_{uv} if k ∈ {u, v}, else
    b_{uv} + sgn(b_{uk})·max(b_{uk}·b_{kv}, 0), changes only row and
    column k and the pairs with u → k → v, so only those are touched.
    """
    if k not in seed.vertices:
        raise ValueError(f"{k} is not a vertex of this seed")
    if k[1] != MUTABLE:
        raise ValueError(f"cannot mutate the frozen vertex {k}")

    new_matrix = dict(seed.matrix)
    into_k: List[Tuple[SeedVertex, int]] = []
    out_of_k: List[Tuple[SeedVertex, int]] = []
    for v in seed.vertices:
        w = seed.b(v, k)
        if w:
            new_matrix[(v, k)] = -w
            new_matrix[(k, v)] = w
            (into_k if w > 0 else out_of_k).append((v, abs(w)))
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

    plus, minus = exchange_binomial(seed, k)
    new_var = (plus + minus).exact_div(seed.cluster[k])

    new_cluster = dict(seed.cluster)
    new_cluster[k] = new_var
    return Seed(seed.vertices, new_matrix, new_cluster)


# ──────────────────────────── sink walk ────────────────────────────


def _lowest_sink(seed: Seed) -> SeedVertex:
    """Lowest-labelled mutable vertex with no arrow to a mutable vertex."""
    mutable = seed.mutable_vertices()
    return next(k for k in mutable if all(seed.b(k, v) <= 0 for v in mutable))


def _sink_walk(q: DynkinQuiver) -> List[LaurentPoly]:
    """Every variable met by sink mutation until each τ-orbit has closed."""
    seed = initial_seed(q)
    found = {seed.cluster[v].canonical(): seed.cluster[v] for v in seed.mutable_vertices()}
    initial = set(found)
    still_open = set(seed.mutable_vertices())
    cap = 2 * (len(positive_roots(q)) + q.rank)
    for _ in range(cap):
        k = _lowest_sink(seed)
        seed = mutate(seed, k)
        key = seed.cluster[k].canonical()
        if key in initial:
            still_open.discard(k)
            if not still_open:
                return list(found.values())
        else:
            found.setdefault(key, seed.cluster[k])
    raise TooLarge(f"sink walk did not close within {cap} mutations")


def _denominator_vector(q: DynkinQuiver, poly: LaurentPoly) -> Root:
    """Exponent of 1/x_i in lowest terms, per vertex (absence counts 0)."""
    dvec = []
    for i in q.vertices:
        key = ("x", i)
        low = min(dict(mono).get(key, 0) for mono in poly.terms)
        dvec.append(-low)
    return tuple(dvec)


@lru_cache(maxsize=None)
def enumerate_cluster_variables(q: DynkinQuiver) -> Mapping[Root, LaurentPoly]:
    """Every cluster variable, keyed by denominator vector.

    Initial variables land on the negated unit vectors, everything else
    on a positive root; the key set is checked against the root system
    and every coefficient is checked positive before returning.  The
    table is cached per quiver, and every call shares one read-only view
    of it (a LaurentPoly cannot be edited).
    """
    out: Dict[Root, LaurentPoly] = {}
    for poly in _sink_walk(q):
        dvec = _denominator_vector(q, poly)
        if dvec in out:
            raise CensusFailure(
                f"two cluster variables share the denominator vector {dvec}"
            )
        if any(c <= 0 for c in poly.terms.values()):
            raise CensusFailure("cluster variable with nonpositive coefficient")
        out[dvec] = poly

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
