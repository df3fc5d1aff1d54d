"""Breadth-first exchange-graph oracle for small ranks.

Visits every seed reachable from the initial one by mutation, deduplicating
seeds by the multiset of their mutable cluster entries, and collects every
cluster variable met on the way.  It shares only ``initial_seed`` and
``mutate`` with the library, whose sink walk meets each variable once
instead of once per seed; the two variable sets must agree.  The cost is
#seeds × rank mutations, so keep it to rank ≤ 4.

``mutated_matrix`` is the matrix rule written over all |V|² pairs, the
referee for the library's ``mutate``, which touches only row and column k
and the pairs u → k → v.
"""

from __future__ import annotations

from qhammock.cluster import FROZEN, Seed, SeedVertex, initial_seed, mutate
from qhammock.quiver import DynkinQuiver


def seed_key(seed: Seed) -> tuple:
    """Dedup key: the multiset of mutable cluster entries."""
    cl = seed.cluster  # converted from the rows on each read: once per seed
    return tuple(sorted(cl[v].canonical() for v in seed.mutable_vertices()))


def exchange_graph_seeds(q: DynkinQuiver) -> list[Seed]:
    """All seeds reachable from the initial one, up to relabeling."""
    start = initial_seed(q)
    seen = {seed_key(start)}
    out = [start]
    frontier = [start]
    while frontier:
        nxt: list[Seed] = []
        for seed in frontier:
            for k in seed.mutable_vertices():
                neighbor = mutate(seed, k)
                key = seed_key(neighbor)
                if key not in seen:
                    seen.add(key)
                    out.append(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return out


def exchange_graph_variables(seeds: list[Seed]) -> set[tuple]:
    """Canonical forms of every mutable cluster entry over the given seeds."""
    return {entry for s in seeds for entry in seed_key(s)}


def mutated_matrix(seed: Seed, k: SeedVertex) -> dict:
    """μ_k of the matrix, entry by entry (Fomin–Zelevinsky, Cluster algebras I).

    b'_{uv} = −b_{uv} if k ∈ {u, v}, else b_{uv} + sgn(b_{uk})·max(b_{uk}·b_{kv}, 0);
    zero entries and entries with both ends frozen are left out.
    """
    out = {}
    for u in seed.vertices:
        for v in seed.vertices:
            if u == v or (u[1] == FROZEN and v[1] == FROZEN):
                continue
            if k in (u, v):
                w = -seed.b(u, v)
            else:
                buk, bkv = seed.b(u, k), seed.b(k, v)
                w = seed.b(u, v) + ((buk > 0) - (buk < 0)) * max(buk * bkv, 0)
            if w:
                out[(u, v)] = w
    return out
