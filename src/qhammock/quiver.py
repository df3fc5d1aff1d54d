"""Simply laced Dynkin quivers, adapted height functions, and root data.

Vertex labeling conventions (fixed once and for all):

* type A_n: a chain 1 - 2 - ... - n;
* type D_n (n >= 4): a chain 1 - 2 - ... - (n-2) with two fork vertices
  n-1 and n attached to n-2;
* type E_n (n in {6,7,8}): a chain 1 - 2 - ... - (n-1) with the branch
  vertex n attached to chain vertex 3.

An *orientation* turns each tree edge into an arrow.  A height function xi
is adapted when every arrow i -> j satisfies xi(j) = xi(i) - 1; heights are
therefore congruent mod 2 to the two-coloring of the tree, which is anchored
so that vertex 1 gets color 1:
parity_class(i) = (graph distance from vertex 1 to i + 1) mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Collection, Iterable, Iterator

from .errors import EmptySupport, ParityViolation, Reorientation, WrongShape
from .laurent import _packing

Root = tuple  # tuple[int, ...], coefficient vector over the simple roots

__all__ = [
    "Root",
    "DynkinQuiver",
    "HeightFunction",
    "BetaData",
    "expected_edges",
    "build_quiver",
    "all_orientations",
    "sample_orientations",
    "default_height",
    "height_from_values",
    "coxeter_number",
    "nakayama_involution",
    "positive_roots",
    "root_height",
    "root_support",
    "simple_root",
    "is_nonneg",
    "b_vector",
    "beta_combinatorics",
]


# ───────────────────────── diagram shapes ─────────────────────────


def expected_edges(family: str, rank: int) -> frozenset[frozenset[int]]:
    """Edge set of the Dynkin tree for the given family and rank."""
    if family == "A":
        if rank < 1:
            raise WrongShape(f"A_{rank} is not a Dynkin diagram")
        pairs = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        if rank < 4:
            raise WrongShape(f"D_{rank} is not supported (need rank >= 4)")
        pairs = [(i, i + 1) for i in range(1, rank - 2)]
        pairs += [(rank - 2, rank - 1), (rank - 2, rank)]
    elif family == "E":
        if rank not in (6, 7, 8):
            raise WrongShape(f"E_{rank} is not a Dynkin diagram")
        pairs = [(i, i + 1) for i in range(1, rank - 1)]
        pairs.append((3, rank))
    else:
        raise WrongShape(f"unknown family {family!r}")
    return frozenset(frozenset(p) for p in pairs)


def _walk(
    i: int, step: Callable[[int], Iterable[int]], inside: Collection[int]
) -> frozenset[int]:
    """i and every vertex that a walk along step reaches from i without
    leaving inside."""
    seen = {i}
    frontier = [i]
    while frontier:
        for w in step(frontier.pop()):
            if w in inside and w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


@dataclass(frozen=True)
class DynkinQuiver:
    """An oriented simply laced Dynkin diagram.

    arrows are (source, target) pairs; the underlying edge set must equal
    the standard tree for (family, rank).
    """

    family: str
    rank: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        expected = expected_edges(self.family, self.rank)
        got = [frozenset(a) for a in self.arrows]
        if len(got) != len(expected) or set(got) != expected:
            raise Reorientation(
                f"arrows are not an orientation of the {self.family}_{self.rank} tree"
            )
        self._build_tables()

    def _build_tables(self) -> None:
        """Adjacency, reachability, the height potential and the ω order
        (vertices by (potential, label), so every arrow target comes before
        its source).

        Computed once at construction and stored as plain attributes, not
        dataclass fields, so equality and repr still see only (family, rank,
        arrows); so does the hash, which is stored too.
        """
        out: dict[int, list[int]] = {i: [] for i in self.vertices}
        inn: dict[int, list[int]] = {i: [] for i in self.vertices}
        for a, b in self.arrows:
            out[a].append(b)
            inn[b].append(a)
        out_t = {i: tuple(sorted(js)) for i, js in out.items()}
        in_t = {i: tuple(sorted(js)) for i, js in inn.items()}
        nbrs = {i: tuple(sorted(out[i] + inn[i])) for i in self.vertices}

        # walk the tree from vertex 1, which sits at height 1; the height
        # drops by one along every arrow, so its parity is the two-colouring
        height = {1: 1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for w in nbrs[v]:
                if w in height:
                    continue
                height[w] = height[v] - 1 if w in out_t[v] else height[v] + 1
                frontier.append(w)

        tables = {
            "_neighbors": nbrs,
            "_out": out_t,
            "_in": in_t,
            "_reach": {i: _walk(i, out_t.__getitem__, self.vertices) for i in self.vertices},
            "_height": tuple(height[i] for i in self.vertices),
            "_omega_order": tuple(sorted(self.vertices, key=lambda k: (height[k], k))),
            "_hash": hash((self.family, self.rank, self.arrows)),
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        # every memo keyed by (q, ...) hashes q; the generated hash would
        # walk the arrow tuples on each lookup
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuild through the constructor, so the tables and the hash are
        # computed afresh: a str hashes differently in another process
        return (DynkinQuiver, (self.family, self.rank, self.arrows))

    # -- basic graph queries -------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def arrows_from(self, i: int) -> tuple[int, ...]:
        return self._out[i]

    def arrows_to(self, i: int) -> tuple[int, ...]:
        return self._in[i]

    def has_path(self, i: int, j: int) -> bool:
        """Directed reachability i ⇝ j (trivial path included)."""
        return j in self._reach[i]

    def parity_class(self, i: int) -> int:
        """Two-coloring of the tree: (distance to vertex 1 + 1) mod 2."""
        return self._height[i - 1] % 2

    def potential(self, i: int) -> int:
        """Height of i under the canonical adapted height (see default_height)."""
        return self._height[i - 1]


def build_quiver(
    family: str, rank: int, arrows: Iterable[tuple[int, int]]
) -> DynkinQuiver:
    """Construct and validate a Dynkin quiver from explicit arrows."""
    return DynkinQuiver(family, rank, tuple((int(a), int(b)) for a, b in arrows))


def _orientations(
    family: str, rank: int, choices: Callable[[int], Iterable[tuple[int, ...]]]
) -> Iterator[DynkinQuiver]:
    """The quiver of each choice that choices(number of tree edges) gives:
    choice[k] = 0 orients the k-th sorted edge (a, b), a < b, as a → b,
    and 1 as b → a."""
    edges = sorted(tuple(sorted(e)) for e in expected_edges(family, rank))
    for choice in choices(len(edges)):
        arrows = tuple(
            (a, b) if c == 0 else (b, a) for (a, b), c in zip(edges, choice)
        )
        yield DynkinQuiver(family, rank, arrows)


def all_orientations(family: str, rank: int) -> Iterator[DynkinQuiver]:
    """Every orientation of the tree, in a deterministic order."""
    return _orientations(family, rank, lambda n_edges: product((0, 1), repeat=n_edges))


def sample_orientations(
    family: str, rank: int, count: int, seed: int
) -> list[DynkinQuiver]:
    """Deterministic pseudo-random sample of distinct orientations."""
    import random

    def draws(n_edges: int) -> list[tuple[int, ...]]:
        rng = random.Random(seed)
        seen: dict[tuple[int, ...], None] = {}  # distinct choices, in drawing order
        while len(seen) < min(count, 2**n_edges):
            seen.setdefault(tuple(rng.randint(0, 1) for _ in range(n_edges)))
        return list(seen)

    return list(_orientations(family, rank, draws))


# ───────────────────────── height functions ─────────────────────────


@dataclass(frozen=True)
class HeightFunction:
    """An adapted height: values[i-1] is the height of vertex i.

    ``classes`` packs the summand classes over this height (see
    ``laurent._Packing``): ``classes.encode(m)`` is a monomial's class,
    ``classes.decode(c)`` the monomial again, ``classes.field`` a key's field."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # hashed once, like DynkinQuiver, and rebuilt the same way; so is
        # the packing of summand classes over the truncated ring's
        # variables Y(i, ξ(i)−2), Y(i, ξ(i)) in canonical order, fields
        # 2i − 2 and 2i − 1, and the n ghost keys ("f", i) after them,
        # fields 2n + i − 1
        sections = tuple(("Y", i, h + d) for i, h in enumerate(self.values, 1) for d in (-2, 0))
        ghosts = tuple(("f", i) for i in range(1, len(self.values) + 1))
        object.__setattr__(self, "_hash", hash(self.values))
        object.__setattr__(self, "classes", _packing(3 * len(self.values), keys=sections + ghosts))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (HeightFunction, (self.values,))

    def ht(self, i: int) -> int:
        return self.values[i - 1]


def default_height(q: DynkinQuiver) -> HeightFunction:
    """Canonical adapted height: vertex 1 sits at its parity class value.

    Heights propagate along the tree so that every arrow drops the height
    by exactly one; the quiver computes them once at construction.
    """
    return HeightFunction(q._height)


def height_from_values(q: DynkinQuiver, values: dict[int, int]) -> HeightFunction:
    """Validate an explicit height assignment (adaptedness and parity)."""
    missing = [i for i in q.vertices if i not in values]
    if missing:
        raise ParityViolation(f"height missing for vertices {missing}")
    for a, b in q.arrows:
        if values[b] != values[a] - 1:
            raise ParityViolation(
                f"height not adapted on arrow {a}->{b}: {values[a]} vs {values[b]}"
            )
    for i in q.vertices:
        if values[i] % 2 != q.parity_class(i):
            raise ParityViolation(
                f"height parity at vertex {i} disagrees with the two-coloring"
            )
    return HeightFunction(tuple(values[i] for i in q.vertices))


# ───────────────────────── Coxeter data ─────────────────────────


def coxeter_number(q: DynkinQuiver) -> int:
    if q.family == "A":
        return q.rank + 1
    if q.family == "D":
        return 2 * q.rank - 2
    return {6: 12, 7: 18, 8: 30}[q.rank]


def nakayama_involution(q: DynkinQuiver, i: int) -> int:
    """The diagram automorphism induced by the longest Weyl element."""
    n = q.rank
    if q.family == "A":
        return n + 1 - i
    if q.family == "D":
        if n % 2 == 1 and i in (n - 1, n):
            return (2 * n - 1) - i  # swap the two fork vertices
        return i
    if n == 6:  # E_6 chain flip, branch vertex fixed
        return {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}[i]
    return i


# ───────────────────────── root systems ─────────────────────────


def simple_root(q: DynkinQuiver, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in q.vertices)


def is_nonneg(a: Root) -> bool:
    return all(x >= 0 for x in a)


def root_height(a: Root) -> int:
    return sum(a)


def root_support(a: Root) -> tuple[int, ...]:
    return tuple(i + 1 for i, c in enumerate(a) if c != 0)


@lru_cache(maxsize=None)
def positive_roots(q: DynkinQuiver) -> tuple[Root, ...]:
    """All positive roots: the simples' closure under simple reflections.

    Sorted by (height, coefficient vector) so output order is reproducible.
    """
    n = q.rank
    roots: set[Root] = {simple_root(q, i) for i in q.vertices}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in q.vertices:
            # ⟨beta, alpha_i∨⟩ for a simply laced diagram
            pairing = 2 * beta[i - 1] - sum(beta[j - 1] for j in q.neighbors(i))
            refl = list(beta)
            refl[i - 1] -= pairing
            image = tuple(refl)
            if is_nonneg(image) and any(image) and image not in roots:
                roots.add(image)
                frontier.append(image)
    return tuple(sorted(roots, key=lambda r: (root_height(r), r)))


# ───────────────────────── support combinatorics ─────────────────────────


def b_vector(q: DynkinQuiver, beta: Root) -> tuple[int, ...]:
    """Exponent vector of Y[β]: b_i = β_i − Σ_{i→j} β_j over the full quiver."""
    b = [beta[i - 1] for i in q.vertices]
    for i, j in q.arrows:
        b[i - 1] -= beta[j - 1]
    return tuple(b)


@dataclass(frozen=True)
class BetaData:
    """Support closures and the pivot choice for a nonzero nonnegative β.

    out_closure[i] holds i and every j that a walk along the arrows from i
    reaches without leaving the support; in_closure[i] walks against the
    arrows.  Their indicator vectors are dim P_i and dim I_i of the support
    subquiver, the downward steps of the two sides of the exchange step.
    pivot_candidates are the support vertices of least coefficient that
    minimise Σ_{j ∈ out_closure[i]} (ξ(i) − ξ(j)); pivot is the first.
    """

    support: tuple[int, ...]
    out_closure: dict[int, frozenset[int]] = field(hash=False)
    in_closure: dict[int, frozenset[int]] = field(hash=False)
    pivot_candidates: tuple[int, ...]
    pivot: int


def _check_length(beta: Root, rank: int) -> None:
    """WrongShape unless β has one entry per vertex of a rank-n quiver."""
    if len(beta) != rank:
        raise WrongShape(f"β {tuple(beta)} has {len(beta)} entries, quiver has rank {rank}")


def _pivot_rule(
    q: DynkinQuiver, xi: HeightFunction, beta: Root
) -> tuple[tuple[int, ...], frozenset[int], dict[int, frozenset[int]], tuple[int, ...]]:
    """The pivot rule of a nonzero nonnegative β, walking only the closures
    it reads: the support as a tuple and as a set, the out-closure of each
    support vertex of least coefficient, and the pivot candidates, those of
    them minimising Σ_{j ∈ out_closure[i]} (ξ(i) − ξ(j))."""
    _check_length(beta, q.rank)
    if not any(beta) or not is_nonneg(beta):
        raise EmptySupport("need a nonzero nonnegative coefficient vector")
    supp = root_support(beta)
    inside = frozenset(supp)
    least = min(beta[i - 1] for i in supp)
    out_cl = {i: _walk(i, q.arrows_from, inside) for i in supp if beta[i - 1] == least}
    r_sum = {i: sum(xi.ht(i) - xi.ht(j) for j in cl) for i, cl in out_cl.items()}
    best = min(r_sum.values())
    return supp, inside, out_cl, tuple(i for i, r in r_sum.items() if r == best)


def beta_combinatorics(q: DynkinQuiver, xi: HeightFunction, beta: Root) -> BetaData:
    """Support closures and the pivot-selection data for beta."""
    supp, inside, least_out, iset = _pivot_rule(q, xi, beta)
    return BetaData(
        support=supp,
        out_closure={i: least_out.get(i) or _walk(i, q.arrows_from, inside) for i in supp},
        in_closure={i: _walk(i, q.arrows_to, inside) for i in supp},
        pivot_candidates=iset,
        pivot=iset[0],
    )
