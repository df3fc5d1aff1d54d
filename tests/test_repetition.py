"""Translation quiver mechanics: parity grid, shifts, duality maps."""

import pytest

from qhammock import (
    ZVertex,
    all_orientations,
    arrows_out,
    base_vertex,
    build_quiver,
    check_vertex,
    coxeter_number,
    default_height,
    sample_orientations,
    serre,
    suspend,
    translate,
    translate_base,
    window_vertices,
    zq_dot,
)
from qhammock.errors import ParityViolation
from qhammock.repetition import section_through


def A(n, arrows=None):
    if arrows is None:
        arrows = [(i, i + 1) for i in range(1, n)]
    return build_quiver("A", n, arrows)


def D(n, arrows=None):
    if arrows is None:
        arrows = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return build_quiver("D", n, arrows)


def test_parity_grid():
    q = A(3)
    assert check_vertex(q, ZVertex(2, 0)) == ZVertex(2, 0)
    with pytest.raises(ParityViolation):
        check_vertex(q, ZVertex(1, 0))
    with pytest.raises(ParityViolation):
        check_vertex(q, ZVertex(5, 0))


def test_translate_moves_left():
    x = ZVertex(2, 0)
    assert translate(x, 1) == ZVertex(2, -2)
    assert translate(x, -2) == ZVertex(2, 4)
    assert translate(translate(x, 3), -3) == x


def test_mesh_arrows():
    q = A(3)
    assert arrows_out(q, ZVertex(2, 0)) == (ZVertex(1, 1), ZVertex(3, 1))
    # end of the chain has a single neighbor
    assert arrows_out(q, ZVertex(1, 1)) == (ZVertex(2, 2),)
    # fork vertex of D4 talks to three neighbors
    d = D(4)
    assert len(arrows_out(d, ZVertex(2, 0))) == 3


def test_mesh_arrows_compose_with_translate():
    # every arrow x -> y has a companion y -> tau^{-1} x
    q = D(4)
    for x in window_vertices(q, -4, 4):
        for y in arrows_out(q, x):
            assert translate(x, -1) in arrows_out(q, y)


def test_suspend_and_serre():
    q = A(3)  # h = 4, nu reverses the chain
    x = ZVertex(2, 0)
    assert suspend(q, x) == ZVertex(2, 4)
    assert serre(q, x) == ZVertex(2, 2)
    assert suspend(q, ZVertex(1, 1)) == ZVertex(3, 5)
    # serre = suspend . translate on the nose
    for v in window_vertices(q, -3, 3):
        assert serre(q, v) == suspend(q, translate(v, 1))


def test_suspend_squared_is_inverse_coxeter_translate():
    for q in (A(3), A(4), D(4), D(5)):
        h = coxeter_number(q)
        for v in window_vertices(q, -2, 2):
            assert suspend(q, suspend(q, v)) == translate(v, -h)


def test_base_slice():
    q = A(3)
    xi = default_height(q)
    assert base_vertex(xi, 2) == ZVertex(2, 0)
    assert translate_base(xi, 2) == ZVertex(2, -2)
    # knitting a section through any of its own vertices recovers it
    assert section_through(q, ZVertex(3, -1)) == {1: 1, 2: 0, 3: -1}
    assert section_through(q, ZVertex(1, 1)) == {1: 1, 2: 0, 3: -1}


def bfs_section(q, v):
    """The section through v by walking the tree: slot(a) = slot(b) + 1 for a -> b."""
    slots, frontier = {v.i: v.p}, [v.i]
    while frontier:
        a = frontier.pop()
        for b in q.vertices:
            if b in slots:
                continue
            if (a, b) in q.arrows:
                slots[b] = slots[a] - 1
            elif (b, a) in q.arrows:
                slots[b] = slots[a] + 1
            else:
                continue
            frontier.append(b)
    return slots


def test_section_through_matches_tree_walk():
    shapes = [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5)]
    quivers = [q for family, rank in shapes for q in all_orientations(family, rank)]
    quivers += [q for rank in (6, 7, 8) for q in sample_orientations("E", rank, 6, seed=rank)]
    for q in quivers:
        for v in window_vertices(q, -3, 4):
            assert section_through(q, v) == bfs_section(q, v)


def test_window_vertices_sorted_and_parity_clean():
    q = A(3)
    win = window_vertices(q, -1, 1)
    assert win == [
        ZVertex(1, -1),
        ZVertex(1, 1),
        ZVertex(2, 0),
        ZVertex(3, -1),
        ZVertex(3, 1),
    ]
    for v in win:
        assert (v.p - default_height(q).ht(v.i)) % 2 == 0
    assert window_vertices(q, 1, -1) == []


def test_dot_emission_smoke():
    q = A(3)
    d = zq_dot(q, -1, 1, labels={ZVertex(2, 0): "pivot"}, highlight=(ZVertex(2, 0),))
    assert d.startswith("digraph")
    assert "v1_m1" in d  # negative slots are dash-mangled for dot ids
    assert 'label="pivot"' in d
    assert d.count("->") > 0
    assert d.rstrip().endswith("}")
