"""Breadth-first exchange-graph oracle for small ranks.

Visits every seed reachable from the initial one by mutation, deduplicating
seeds by the multiset of their mutable cluster entries, and collects every
cluster variable met on the way.  It shares only ``initial_seed`` and
``mutate`` with the library, whose sink walk meets each variable once
instead of once per seed; the two variable sets must agree.  The cost is
#seeds × rank mutations, so keep it to rank ≤ 4.
"""

from __future__ import annotations

from qhammock.cluster import Seed, initial_seed, mutate
from qhammock.quiver import DynkinQuiver


def seed_key(seed: Seed) -> tuple:
    """Dedup key: the multiset of mutable cluster entries."""
    return tuple(sorted(seed.cluster[v].canonical() for v in seed.mutable_vertices()))


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
    return {s.cluster[v].canonical() for s in seeds for v in s.mutable_vertices()}
