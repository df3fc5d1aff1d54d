"""Dynkin quiver layer: shape validation, heights, roots, support data."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhammock
from qhammock import (
    all_orientations,
    beta_combinatorics,
    build_quiver,
    coxeter_number,
    default_height,
    height_from_values,
    nakayama_involution,
    positive_roots,
    sample_orientations,
    simple_root,
)
from qhammock.errors import EmptySupport, ParityViolation, Reorientation, WrongShape
from qhammock.quiver import (
    expected_edges,
    is_nonneg,
    root_height,
    root_support,
)


def A(n, arrows=None):
    if arrows is None:
        arrows = [(i, i + 1) for i in range(1, n)]
    return build_quiver("A", n, arrows)


def D(n, arrows=None):
    if arrows is None:
        arrows = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return build_quiver("D", n, arrows)


# ---------------------------------------------------------------- shape


def test_tree_shapes():
    assert sorted(tuple(sorted(e)) for e in expected_edges("A", 3)) == [(1, 2), (2, 3)]
    assert sorted(tuple(sorted(e)) for e in expected_edges("D", 4)) == [
        (1, 2),
        (2, 3),
        (2, 4),
    ]
    # E-series forks at vertex 3 off the chain
    e6 = sorted(tuple(sorted(e)) for e in expected_edges("E", 6))
    assert len(e6) == 5


def test_shape_rejections():
    with pytest.raises(Reorientation):
        build_quiver("A", 3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(Reorientation):
        build_quiver("A", 3, [(1, 2), (1, 2)])
    with pytest.raises(WrongShape):
        build_quiver("B", 3, [(1, 2), (2, 3)])
    with pytest.raises(WrongShape):
        build_quiver("D", 3, [(1, 2), (2, 3)])
    with pytest.raises(WrongShape):
        expected_edges("E", 9)


def test_orientation_enumeration():
    for n in (2, 3, 4):
        qs = list(all_orientations("A", n))
        assert len(qs) == 2 ** (n - 1)
        assert len({q.arrows for q in qs}) == len(qs)
    assert len(list(all_orientations("D", 4))) == 8


def test_sample_orientations_deterministic():
    a = sample_orientations("D", 5, 8, seed=7)
    b = sample_orientations("D", 5, 8, seed=7)
    assert [q.arrows for q in a] == [q.arrows for q in b]
    assert len({q.arrows for q in a}) == 8
    # asking for more than exist caps at the total
    small = sample_orientations("A", 2, 99, seed=0)
    assert len(small) == 2


def test_quiver_navigation():
    q = A(3, [(1, 2), (3, 2)])
    assert q.arrows_from(1) == (2,)
    assert q.arrows_to(2) == (1, 3)
    assert q.neighbors(2) == (1, 3)
    assert q.has_path(1, 2) and not q.has_path(1, 3)


# ------------------------------------------------- precomputed graph tables
#
# The quiver computes its adjacency, reachability, colouring and height
# once at construction.  The references below are the definitions the
# tables replace: scans of the arrow tuple and walks of the tree.


def scan_neighbors(q, i):
    return tuple(sorted([b for a, b in q.arrows if a == i] + [a for a, b in q.arrows if b == i]))


def bfs_closure(q, i):
    seen, frontier = {i}, [i]
    while frontier:
        v = frontier.pop()
        for w in [b for a, b in q.arrows if a == v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def bfs_distance(q, i, j):
    dist, frontier = {i: 0}, [i]
    while frontier:
        v = frontier.pop(0)
        for w in scan_neighbors(q, v):
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist[j]


def walked_height(q):
    vals, frontier = {1: 1}, [1]
    while frontier:
        v = frontier.pop()
        for w in scan_neighbors(q, v):
            if w not in vals:
                vals[w] = vals[v] - 1 if (v, w) in q.arrows else vals[v] + 1
                frontier.append(w)
    return tuple(vals[i] for i in q.vertices)


def table_quivers():
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)):
        yield from all_orientations(family, rank)
    for rank in (6, 7, 8):
        yield from sample_orientations("E", rank, 6, seed=rank)


def test_graph_tables_match_arrow_scans():
    for q in table_quivers():
        assert default_height(q).values == walked_height(q)
        for i in q.vertices:
            assert q.neighbors(i) == scan_neighbors(q, i)
            assert q.arrows_from(i) == tuple(sorted(b for a, b in q.arrows if a == i))
            assert q.arrows_to(i) == tuple(sorted(a for a, b in q.arrows if b == i))
            assert q.parity_class(i) == (bfs_distance(q, 1, i) + 1) % 2
            for j in q.vertices:
                assert q.has_path(i, j) == (j in bfs_closure(q, i))


def test_tables_leave_equality_hash_and_repr_alone():
    for q in table_quivers():
        twin = build_quiver(q.family, q.rank, list(q.arrows))
        assert twin == q and twin is not q
        assert hash(twin) == hash(q)
        assert repr(twin) == repr(q)
        assert repr(q) == f"DynkinQuiver(family={q.family!r}, rank={q.rank}, arrows={q.arrows!r})"
    flipped = A(3, [(2, 1), (2, 3)])
    assert flipped != A(3)


_PICKLE_DUMP = """
import pickle, sys
from qhammock import build_quiver, default_height
q = build_quiver("D", 4, [(2, 1), (3, 2), (2, 4)])
sys.stdout.write(pickle.dumps((q, default_height(q))).hex())
"""

_PICKLE_LOAD = """
import dataclasses, pickle, sys
from qhammock import build_quiver, default_height
from qhammock.objects import _section_objects
q, xi = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = build_quiver("D", 4, [(2, 1), (3, 2), (2, 4)])
fresh_xi = default_height(fresh)
assert (q, xi) == (fresh, fresh_xi), (q, xi)
assert (hash(q), hash(xi)) == (hash(fresh), hash(fresh_xi))
assert {fresh: 1}.get(q) == 1 and {fresh_xi: 1}.get(xi) == 1
made = _section_objects(fresh, fresh_xi)
hits = _section_objects.cache_info().hits
assert _section_objects(q, xi) is made
assert _section_objects.cache_info().hits == hits + 1
for obj, name in ((q, "rank"), (xi, "values")):
    try:
        setattr(obj, name, None)
    except dataclasses.FrozenInstanceError:
        continue
    raise AssertionError(f"{name} could be assigned")
"""


def test_pickled_quiver_and_height_hash_as_fresh_builds_in_another_process():
    # each stores its hash; a str hashes differently under another hash
    # seed, so a load must rebuild rather than restore the stored value
    src = str(Path(qhammock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    dumped = subprocess.run(
        [sys.executable, "-c", _PICKLE_DUMP], capture_output=True, text=True, check=True,
        env={**env, "PYTHONHASHSEED": "1"}, timeout=60,
    )
    loaded = subprocess.run(
        [sys.executable, "-c", _PICKLE_LOAD], input=dumped.stdout, capture_output=True,
        text=True, env={**env, "PYTHONHASHSEED": "2"}, timeout=60,
    )
    assert loaded.returncode == 0, loaded.stderr


# ---------------------------------------------------------------- heights


def test_parity_class_is_tree_two_coloring():
    q = A(4)
    assert [q.parity_class(i) for i in q.vertices] == [1, 0, 1, 0]
    d = D(4)
    assert [d.parity_class(i) for i in d.vertices] == [1, 0, 1, 1]


def test_default_height_is_adapted():
    for q in all_orientations("A", 4):
        xi = default_height(q)
        for (a, b) in q.arrows:
            assert xi.ht(b) == xi.ht(a) - 1
        for i in q.vertices:
            assert xi.ht(i) % 2 == q.parity_class(i)


def test_default_height_pinned_values():
    assert default_height(A(2)).values == (1, 0)
    assert default_height(A(2, [(2, 1)])).values == (1, 2)


def test_height_from_values_validation():
    q = A(2)
    assert height_from_values(q, {1: 3, 2: 2}).values == (3, 2)
    with pytest.raises(ParityViolation):
        height_from_values(q, {1: 0, 2: 1})  # not adapted to the arrow
    with pytest.raises(ParityViolation):
        height_from_values(q, {1: 2, 2: 1})  # wrong parity coset


def test_coxeter_numbers():
    assert coxeter_number(A(2)) == 3
    assert coxeter_number(A(4)) == 5
    assert coxeter_number(D(4)) == 6
    assert coxeter_number(D(5)) == 8


def test_nakayama_involution():
    assert [nakayama_involution(A(4), i) for i in range(1, 5)] == [4, 3, 2, 1]
    assert [nakayama_involution(D(4), i) for i in range(1, 5)] == [1, 2, 3, 4]
    assert [nakayama_involution(D(5), i) for i in range(1, 6)] == [1, 2, 3, 5, 4]
    # is an involution on every family we ship
    for q in (A(5), D(5)):
        for i in q.vertices:
            assert nakayama_involution(q, nakayama_involution(q, i)) == i


# ---------------------------------------------------------------- roots


def test_positive_root_counts():
    assert len(positive_roots(A(2))) == 3
    assert len(positive_roots(A(3))) == 6
    assert len(positive_roots(A(5))) == 15
    assert len(positive_roots(D(4))) == 12
    assert len(positive_roots(D(5))) == 20


def test_positive_roots_a2_exact():
    assert positive_roots(A(2)) == ((0, 1), (1, 0), (1, 1))


def test_positive_roots_are_orientation_free():
    want = set(positive_roots(A(3)))
    for q in all_orientations("A", 3):
        assert set(positive_roots(q)) == want


def test_d4_highest_root():
    # D4 highest root has coefficient 2 at the node
    roots = positive_roots(D(4))
    assert (1, 2, 1, 1) in roots
    assert max(root_height(r) for r in roots) == 5


def test_root_helpers():
    q = A(3)
    a1 = simple_root(q, 1)
    assert a1 == (1, 0, 0)
    assert is_nonneg((0, 1, 0)) and not is_nonneg((1, -1, 0))
    assert root_height((1, 2, 1)) == 4
    assert root_support((0, 2, 1)) == (2, 3)


# ------------------------------------------------------- support data


def test_beta_combinatorics_theta_a2():
    q = A(2)
    xi = default_height(q)
    bd = beta_combinatorics(q, xi, (1, 1))
    assert bd.support == (1, 2)
    assert bd.out_closure == {1: frozenset({1, 2}), 2: frozenset({2})}
    assert bd.in_closure == {1: frozenset({1}), 2: frozenset({1, 2})}
    # pivot selection is a policy choice (any support vertex gives the same
    # character; invariance is covered by the complex-level tests), but it
    # must be deterministic: both coefficients are least, and the out-closure
    # of 2 drops no height while that of 1 drops one
    assert bd.pivot_candidates == (2,)
    assert bd.pivot == 2


def test_beta_combinatorics_closures_respect_orientation():
    q = A(3, [(2, 1), (2, 3)])  # source in the middle
    xi = default_height(q)
    bd = beta_combinatorics(q, xi, (1, 1, 1))
    assert bd.out_closure == {1: frozenset({1}), 2: frozenset({1, 2, 3}), 3: frozenset({3})}
    assert bd.in_closure == {1: frozenset({1, 2}), 2: frozenset({2}), 3: frozenset({2, 3})}
    # the two sinks tie, and the source's out-closure drops two heights
    assert bd.pivot_candidates == (1, 3)
    assert bd.pivot == 1


def test_beta_combinatorics_support_subquiver_only():
    # support {1, 3} of A3 is disconnected: closures stay inside components
    q = A(3)
    xi = default_height(q)
    bd = beta_combinatorics(q, xi, (2, 0, 1))
    assert bd.support == (1, 3)
    assert bd.out_closure == {1: frozenset({1}), 3: frozenset({3})}
    assert bd.in_closure == {1: frozenset({1}), 3: frozenset({3})}
    # the least coefficient sits at 3 alone
    assert bd.pivot_candidates == (3,)


def test_beta_combinatorics_rejects_bad_input():
    q = A(2)
    xi = default_height(q)
    with pytest.raises(EmptySupport):
        beta_combinatorics(q, xi, (0, 0))
    with pytest.raises(EmptySupport):
        beta_combinatorics(q, xi, (1, -1))


# ------------------------------------------- referee for the closures


def _closure_by_paths(q, supp, i, j):
    # the referee, from the definition: i ⇝ j, and every vertex on a path
    # from i to j lies in supp (has_path is checked against arrow scans above)
    return q.has_path(i, j) and all(
        k in supp for k in q.vertices if q.has_path(i, k) and q.has_path(k, j)
    )


REFEREE_SHAPES = [("A", n, None) for n in range(1, 6)] + [
    ("D", 4, None),
    ("D", 5, None),
    ("E", 6, 3),
    ("E", 7, 2),
    ("E", 8, 2),
]


def _referee_quivers(family, rank, sample):
    if sample is None:
        return list(all_orientations(family, rank))
    return sample_orientations(family, rank, sample, seed=1)


@pytest.mark.parametrize(
    "family,rank,sample", REFEREE_SHAPES, ids=[f"{f}{n}" for f, n, _ in REFEREE_SHAPES]
)
def test_support_closures_match_bfs_inside_support(family, rank, sample):
    # entries in {0,1,2} (in {0,1} on E7/E8) give every support shape,
    # disconnected ones included, and repeated minimal coefficients
    top = 2 if rank >= 7 else 3
    for q in _referee_quivers(family, rank, sample):
        xi = default_height(q)
        for beta in itertools.product(range(top), repeat=rank):
            if not any(beta):
                continue
            bd = beta_combinatorics(q, xi, beta)
            supp = set(bd.support)
            for i in bd.support:
                for j in q.vertices:
                    assert (j in bd.out_closure[i]) == _closure_by_paths(q, supp, i, j), (
                        q.arrows, beta, i, j)
                    assert (j in bd.in_closure[i]) == _closure_by_paths(q, supp, j, i), (
                        q.arrows, beta, i, j)


@pytest.mark.parametrize(
    "family,rank,sample", REFEREE_SHAPES, ids=[f"{f}{n}" for f, n, _ in REFEREE_SHAPES]
)
def test_omega_order_is_topological(family, rank, sample):
    for q in _referee_quivers(family, rank, sample):
        place = {k: n for n, k in enumerate(q._omega_order)}
        assert sorted(place) == list(q.vertices)
        assert all(place[b] < place[a] for a, b in q.arrows), q.arrows
