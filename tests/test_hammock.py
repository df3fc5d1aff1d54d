"""Signed hammock functions, mesh relations, and morphism dimensions.

The dim_hom agreement tests at the bottom compare the knitted values
against tests/interval_oracle.py, which computes Hom and Ext^1 for chain
quivers from scratch (commutation constraints + projective presentations).
"""

import pytest

from qhammock import (
    QFun,
    ZVertex,
    all_orientations,
    arrows_out,
    base_vertex,
    build_quiver,
    coxeter_number,
    default_height,
    dim_hom,
    hammock_fun,
    hom_values,
    qfun_equal,
    qfun_eval,
    qfun_grid_tsv,
    sample_orientations,
    serre,
    suspend,
    translate,
    window_vertices,
)
import qhammock.hammock as hammock
from qhammock.errors import InvariantViolation
from qhammock.hammock import qfun_defect
from qhammock.repetition import section_through

from interval_oracle import ext1_dim, hom_dim, intervals
from object_oracle import hammock_values_by_knitting


def A(n, arrows=None):
    if arrows is None:
        arrows = [(i, i + 1) for i in range(1, n)]
    return build_quiver("A", n, arrows)


# ------------------------------------------------------------ QFun algebra


def test_qfun_presentation_arithmetic():
    x, y = ZVertex(1, 1), ZVertex(2, 0)
    f = QFun({x: 2}, {y: 1})
    g = QFun({x: 1}, {})
    assert (f - g) == QFun({x: 1}, {y: 1})
    assert (f + g).gens == {x: 3}
    assert f.scaled(-1) == QFun({x: -2}, {y: -1})
    assert hash(QFun({x: 1}, {y: 0})) == hash(QFun({x: 1}, {}))


def test_qfun_json_round_shape():
    f = QFun({ZVertex(1, 1): 1}, {ZVertex(2, 0): -2})
    d = f.to_json_dict()
    assert set(d) == {"gens", "deltas"}


# -------------------------------------------------- signed function values


def test_rank_one_signed_function():
    # the rank-1 picture: +1 at x, 0 at the translate, then a strictly
    # alternating tail to the right, nothing to the left
    q = build_quiver("A", 1, [])
    x = ZVertex(1, 1)
    f = hammock_fun(q, x)
    assert qfun_eval(q, f, x) == 1
    assert qfun_eval(q, f, translate(x, 1)) == 0
    assert qfun_eval(q, f, translate(x, -1)) == -1
    for k in range(2, 6):
        assert qfun_eval(q, f, ZVertex(1, 1 + 2 * k)) == (-1) ** k
    for k in range(1, 6):
        assert qfun_eval(q, f, ZVertex(1, 1 - 2 * k)) == 0


def test_a2_signed_function_window():
    q = A(2)
    f = hammock_fun(q, ZVertex(1, 1))
    nonzero = {
        v: qfun_eval(q, f, v)
        for v in window_vertices(q, -3, 7)
        if qfun_eval(q, f, v)
    }
    assert nonzero == {
        ZVertex(1, 1): 1,
        ZVertex(2, 2): 1,
        ZVertex(2, 4): -1,
        ZVertex(1, 5): -1,
        ZVertex(1, 7): 1,
    }


GRID_A4_MIXED = """\
i\\p\t-3\t-2\t-1\t0\t1\t2\t3\t4\t5
1\t0\t.\t0\t.\t1\t.\t0\t.\t-1
2\t.\t0\t.\t1\t.\t1\t.\t-1\t.
3\t0\t.\t1\t.\t1\t.\t0\t.\t-1
4\t.\t0\t.\t1\t.\t0\t.\t0\t.
"""


def test_grid_a4_mixed_orientation():
    # rank 4 chain with the last arrow flipped, source at (3,-1): the grid
    # shows the hammock plateau and the signed tail entering the window
    q = build_quiver("A", 4, [(1, 2), (2, 3), (4, 3)])
    f = hammock_fun(q, ZVertex(3, -1))
    assert qfun_grid_tsv(q, f, -3, 5) == GRID_A4_MIXED


def _orientations(family, rank):
    if family == "E":
        return sample_orientations("E", rank, 2, seed=rank)
    return all_orientations(family, rank)


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 7)), ("D", range(4, 7)), ("E", range(6, 9))],
)
def test_hammock_values_match_knitting_oracle(family, ranks):
    # the alternating sum over the hom table against h_v knitted from its
    # defect, from 2h left of v to 5h right of it, on one v per label
    for rank in ranks:
        for q in _orientations(family, rank):
            h = coxeter_number(q)
            for v in window_vertices(q, 0, 1):
                knitted = hammock_values_by_knitting(q, v, v.p + 5 * h)
                f = hammock_fun(q, v)
                for y in window_vertices(q, v.p - 2 * h, v.p + 5 * h):
                    assert qfun_eval(q, f, y) == knitted.get(y, 0), (q.arrows, v, y)


def test_hammock_values_have_no_horizon():
    # far right of the generator the values still follow the knitted tail
    q = A(2)
    v = ZVertex(1, 1)
    knitted = hammock_values_by_knitting(q, v, 1010)
    f = hammock_fun(q, v)
    window = window_vertices(q, 1001, 1010)
    assert [qfun_eval(q, f, y) for y in window] == [knitted[y] for y in window]
    assert any(knitted[y] for y in window)


# ------------------------------------------------------------ mesh relation


def mesh_holds_at(q, x):
    lhs = hammock_fun(q, x) + hammock_fun(q, translate(x, -1))
    rhs = QFun({y: 1 for y in arrows_out(q, x)}, {x: 1})
    return qfun_equal(q, lhs, rhs)


def test_mesh_relation_samples():
    q = A(3, [(1, 2), (3, 2)])
    for x in window_vertices(q, -4, 4):
        assert mesh_holds_at(q, x)
    d = build_quiver("D", 4, [(1, 2), (2, 3), (2, 4)])
    for x in window_vertices(d, -2, 2):
        assert mesh_holds_at(d, x)


def test_qfun_equal_detects_difference():
    q = A(2)
    x = ZVertex(1, 1)
    f = hammock_fun(q, x)
    assert qfun_equal(q, f, f)
    assert not qfun_equal(q, f, f + QFun({}, {x: 1}))
    assert not qfun_equal(q, f, hammock_fun(q, ZVertex(2, 0)))


def test_defect_of_generator_sits_at_source():
    q = A(2)
    x = ZVertex(1, 1)
    assert qfun_defect(q, hammock_fun(q, x)) == {x: 1}


# ------------------------------------------------ morphism-space dimensions


def _transport(q):
    """Map window vertices onto interval modules via anchored projectives."""
    xi = default_height(q)
    h = coxeter_number(q)
    n = q.rank
    anchors = {i: base_vertex(xi, i) for i in q.vertices}
    lo = min(xi.values) - 2 * h
    hi = max(xi.values) + 2 * h
    phi = {}
    for y in window_vertices(q, lo, hi):
        dvec = tuple(dim_hom(q, anchors[i], y) for i in q.vertices)
        if not any(dvec):
            continue
        assert all(d in (0, 1) for d in dvec)
        ones = [i + 1 for i, d in enumerate(dvec) if d]
        assert ones == list(range(ones[0], ones[-1] + 1)), "support not an interval"
        phi[y] = (ones[0], ones[-1])
    assert sorted(phi.values()) == sorted(intervals(n)), "region misses intervals"
    assert len(phi) == n * (n + 1) // 2
    return phi


@pytest.mark.parametrize(
    "arrows",
    [
        [(1, 2)],
        [(2, 1)],
        [(1, 2), (2, 3)],
        [(1, 2), (3, 2)],
        [(2, 1), (2, 3)],
        [(2, 1), (3, 2)],
    ],
)
def test_dim_hom_matches_interval_oracle(arrows):
    n = max(max(a) for a in arrows)
    q = build_quiver("A", n, arrows)
    arr = sorted(q.arrows)
    phi = _transport(q)
    ys = sorted(phi)
    for y in ys:
        for z in ys:
            assert dim_hom(q, y, z) == hom_dim(arr, phi[y], phi[z])
            assert dim_hom(q, y, suspend(q, z)) == ext1_dim(arr, n, phi[y], phi[z])
            assert dim_hom(q, suspend(q, y), z) == 0
            assert dim_hom(q, y, suspend(q, suspend(q, z))) == 0


def test_dim_hom_axioms_window():
    for q in (A(3), build_quiver("D", 4, [(1, 2), (2, 3), (2, 4)])):
        win = window_vertices(q, -3, 5)
        for x in win:
            vals = hom_values(q, x)
            assert vals[x] == 1
            assert all(v >= 0 for v in vals.values())
            assert len(vals) < 200  # finite support, materialized dict
            for y in win:
                assert dim_hom(q, x, y) == dim_hom(q, y, serre(q, x))


def test_hom_values_hands_out_a_read_only_view():
    q = A(2)
    v = ZVertex(1, 1)
    vals = hom_values(q, v)
    with pytest.raises(AttributeError):
        vals.clear()
    with pytest.raises(TypeError):
        vals[v] = 0
    assert dim_hom(q, v, v) == 1


@pytest.mark.parametrize("bad", ["leak", "negative"])
def test_hom_function_violation_is_an_engine_error(monkeypatch, bad):
    # the two checks must raise even under python -O, so not as asserts
    q = A(2)
    x = ZVertex(1, 1)
    knitted = {ZVertex(1, x.p + 20): 1} if bad == "leak" else {x: -1}
    hammock.hom_values.cache_clear()
    monkeypatch.setattr(hammock, "_knit", lambda *args: dict(knitted))
    with pytest.raises(InvariantViolation):
        hammock.hom_values(q, x)


def _knitted_from(q, x, knit):
    """Every morphism-space dimension out of x, knitted from x itself,
    with the band and sign checks of the library's reference knit."""
    sx = serre(q, x)
    sec_sx = section_through(q, sx)
    defects = {x: 1, translate(sx, -1): 1}
    values = knit(q, section_through(q, x), defects, max(sec_sx.values()) + 4)
    assert all(c == 0 for v, c in values.items() if v.p > sec_sx[v.i])
    assert all(c >= 0 for c in values.values())
    return {v: c for v, c in values.items() if c and v.p <= sec_sx[v.i]}


def test_hom_tables_are_translates_of_one_knit_per_label(monkeypatch):
    # every section vertex τ base_i and base_i of A1–A5, D4, D5 and an E6
    # sample reads a table equal, in content and order, to a knit from
    # the vertex itself, and each quiver knits one table per label
    knit = hammock._knit
    calls = []

    def counted(*args):
        calls.append(1)
        return knit(*args)

    monkeypatch.setattr(hammock, "_knit", counted)
    quivers = [q for n in range(1, 6) for q in all_orientations("A", n)]
    quivers += list(all_orientations("D", 4)) + list(all_orientations("D", 5))
    quivers += list(sample_orientations("E", 6, 2, seed=1))
    hom_values.cache_clear()
    for q in quivers:
        xi = default_height(q)
        before = len(calls)
        for i in q.vertices:
            for x in (translate(base_vertex(xi, i)), base_vertex(xi, i)):
                want = _knitted_from(q, x, knit)
                assert list(hom_values(q, x).items()) == list(want.items()), (q.arrows, x)
        assert len(calls) - before == q.rank, q.arrows
    hom_values.cache_clear()
