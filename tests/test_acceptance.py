"""Acceptance gate: eleven end-to-end criteria, one test (= one verdict line) each.

Run ``pytest -v tests/test_acceptance.py``; the eleven PASSED/FAILED lines
are the gate.  Each test also prints a one-line summary of what it measured
(visible with ``-s`` or on failure).  The sweep behind the heavy criteria is
every orientation of A_2..A_5, every orientation of D_4, and eight seeded
random orientations of D_5 — 46 quivers, 606 positive roots.  Criterion 11
reads criterion 07's clauses off the cluster route on all 32 E6
orientations and a seeded E7 orientation, and checks the E7 census as
criterion 08 checks the sweep's.

Everything here is exact integer/Laurent arithmetic: no tolerances anywhere.
"""

import itertools
import time

from interval_oracle import ext1_dim, hom_dim, intervals

from qhammock import (
    ZVertex,
    all_orientations,
    arrows_out,
    base_vertex,
    build_quiver,
    coxeter_number,
    default_height,
    positive_roots,
    sample_orientations,
    serre,
    suspend,
    translate,
    translate_base,
    window_vertices,
)
from qhammock.cli import main
from qhammock.cluster import enumerate_cluster_variables
from qhammock.complexes import (
    build_complex,
    euler_char,
    validate_components,
    verify_d_squared,
    verify_exactness,
)
from qhammock.hammock import QFun, dim_hom, hammock_fun, hom_values, qfun_equal
from qhammock.laurent import LaurentPoly, mono_from_dict, mono_mul, mono_pow
from qhammock.objects import (
    ghost_object,
    hammock_object,
    is_iso,
    kr_object,
    leading_object,
    obj_pow,
    pivot_step,
    reconstruct_factorization,
    root_of_dominant,
    serre_tilt,
    tensor_obj,
)
from qhammock.qchar import (
    dominant_monomial,
    extremal_monomials,
    qchar_cluster,
    qchar_euler,
    qchar_recursion,
    variable_A,
)
from qhammock.quiver import beta_combinatorics, simple_root

SEED = 20260816


def _sweep():
    qs = []
    for n in (2, 3, 4, 5):
        qs.extend(all_orientations("A", n))
    qs.extend(all_orientations("D", 4))
    qs.extend(sample_orientations("D", 5, 8, seed=SEED))
    return qs


def Y(i, p, e=1):
    return LaurentPoly.variable(("Y", i, p), e)


# ------------------------------------------------------------------ 1


# The sixteen values printed in the source figure: the hammock function of
# the A_4 quiver 1→2→3←4 at the vertex (3,−1), read off row by row.
PRINTED_CELLS = {
    (1, -1): 0, (1, 1): 1, (1, 3): 0, (1, 5): -1,
    (2, -2): 0, (2, 0): 1, (2, 2): 1, (2, 4): -1,
    (3, -3): 0, (3, -1): 1, (3, 1): 1, (3, 3): 0,
    (4, -2): 0, (4, 0): 1, (4, 2): 0, (4, 4): 0,
}


def test_01_printed_grid_reproduced(capsys):
    t = time.perf_counter()
    code = main(
        [
            "hammock",
            "--quiver",
            '{"type": "A", "rank": 4, "arrows": [[1, 2], [2, 3], [4, 3]]}',
            "--vertex=3,-1",
            "--window=-3,5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    slots = [int(s) for s in lines[0].split("\t")[1:]]
    grid = {}
    for row in lines[1:]:
        cells = row.split("\t")
        i = int(cells[0])
        for p, c in zip(slots, cells[1:]):
            if c != ".":
                grid[(i, p)] = int(c)
    for key, want in PRINTED_CELLS.items():
        assert grid[key] == want, (key, grid[key], want)
    dt = time.perf_counter() - t
    assert dt < 1.0, f"grid took {dt:.2f}s"
    print(f"criterion 01 pass — printed grid: {len(PRINTED_CELLS)}/16 cells exact ({dt:.3f}s)")


# ------------------------------------------------------------------ 2


def test_02_mesh_identity_all_orientations():
    t = time.perf_counter()
    checked = 0
    for q in _sweep():
        xi = default_height(q)
        h = coxeter_number(q)
        lo = min(xi.values) - 3 * h // 2
        hi = max(xi.values) + 3 * h // 2
        for x in window_vertices(q, lo, hi):
            lhs = hammock_fun(q, x) + hammock_fun(q, translate(x, -1))
            rhs = QFun({}, {x: 1})
            for y in arrows_out(q, x):
                rhs = rhs + hammock_fun(q, y)
            assert qfun_equal(q, lhs, rhs), (q.arrows, x)
            checked += 1
    dt = time.perf_counter() - t
    assert dt < 30.0, f"mesh sweep took {dt:.1f}s"
    print(f"criterion 02 pass — mesh identity at {checked} vertices ({dt:.2f}s)")


# ------------------------------------------------------------------ 3


def _interval_transport(q):
    """Match the window vertices carrying modules with interval modules.

    A vertex belongs to the module region iff its dimension vector against
    the anchored projectives is nonzero; that vector must then be the 0/1
    indicator of an interval of vertices, and the region must hit every
    interval exactly once.
    """
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
        assert ones == list(range(ones[0], ones[-1] + 1))
        phi[y] = (ones[0], ones[-1])
    assert sorted(phi.values()) == sorted(intervals(n))
    assert len(phi) == n * (n + 1) // 2
    return phi


def test_03_dim_hom_matches_interval_oracle():
    t = time.perf_counter()
    chains = [
        ("A", 2, [(1, 2)]),
        ("A", 2, [(2, 1)]),
        ("A", 3, [(1, 2), (2, 3)]),
        ("A", 3, [(1, 2), (3, 2)]),
        ("A", 3, [(2, 1), (2, 3)]),
        ("A", 3, [(2, 1), (3, 2)]),
    ]
    pairs = 0
    for fam, n, arr in chains:
        q = build_quiver(fam, n, arr)
        h = coxeter_number(q)
        phi = _interval_transport(q)
        ys = sorted(phi)
        for y in ys:
            for z in ys:
                assert dim_hom(q, y, z) == hom_dim(arr, phi[y], phi[z])
                assert dim_hom(q, y, suspend(q, z)) == ext1_dim(arr, n, phi[y], phi[z])
                assert dim_hom(q, suspend(q, y), z) == 0
                pairs += 1
        # the four axioms, on a window around the base section
        for x in window_vertices(q, -3, 5):
            vals = hom_values(q, x)
            assert vals[x] == 1
            assert all(v >= 0 for v in vals.values())
            assert all(x.p <= y.p <= x.p + h for y, v in vals.items() if v)
            for y in window_vertices(q, -3, 5):
                assert dim_hom(q, x, y) == dim_hom(q, y, serre(q, x))
    dt = time.perf_counter() - t
    print(f"criterion 03 pass — oracle agreement on {pairs} pairs, 6 quivers ({dt:.2f}s)")


# ------------------------------------------------------------------ 4


def _absorb_identity_holds(q, xi, beta, i):
    step = pivot_step(q, xi, beta, i)
    lhs = tensor_obj(
        leading_object(q, xi, beta), hammock_object(q, xi, base_vertex(xi, i))
    )
    rhs = tensor_obj(
        obj_pow(kr_object(q, xi, i), step.eps),
        *[obj_pow(hammock_object(q, xi, base_vertex(xi, l)), m) for l, m in step.hin],
        leading_object(q, xi, step.beta_inj),
    )
    return is_iso(q, lhs, rhs)


def _tilt_identity_holds(q, xi, beta, i):
    bd = beta_combinatorics(q, xi, beta)
    tilted = serre_tilt(
        q,
        tensor_obj(
            leading_object(q, xi, beta),
            hammock_object(q, xi, base_vertex(xi, i)),
        ),
        [translate_base(xi, j) for j in sorted(bd.out_closure[i])],
    )
    fac = pivot_step(q, xi, beta, i).tilt
    return is_iso(q, tilted, reconstruct_factorization(q, xi, fac))


def test_04_mutation_absorb_tilt_isomorphisms():
    t = time.perf_counter()
    mesh_checks = pair_checks = 0
    for q in _sweep():
        xi = default_height(q)
        h = coxeter_number(q)
        for v in window_vertices(q, min(xi.values) - h, max(xi.values) + h):
            lhs = tensor_obj(
                serre_tilt(q, hammock_object(q, xi, v), [v]),
                hammock_object(q, xi, translate(v, -1)),
            )
            rhs = tensor_obj(
                ghost_object(q, xi, v),
                *[hammock_object(q, xi, y) for y in arrows_out(q, v)],
            )
            assert is_iso(q, lhs, rhs), (q.arrows, v)
            mesh_checks += 1
        for beta in positive_roots(q):
            bd = beta_combinatorics(q, xi, beta)
            for i in bd.support:
                assert _absorb_identity_holds(q, xi, beta, i), (q.arrows, beta, i)
                assert _tilt_identity_holds(q, xi, beta, i), (q.arrows, beta, i)
                pair_checks += 1
    dt = time.perf_counter() - t
    print(
        f"criterion 04 pass — mutation at {mesh_checks} vertices, "
        f"absorb+tilt at {pair_checks} (root, pivot) pairs ({dt:.2f}s)"
    )


# ------------------------------------------------------------------ 5


def test_05_leading_object_round_trip():
    t = time.perf_counter()
    cnt = 0
    for q in _sweep():
        xi = default_height(q)
        n = q.rank
        for beta in itertools.product(range(13), repeat=n):
            if not any(beta) or sum(beta) > 12:
                continue
            assert root_of_dominant(q, xi, leading_object(q, xi, beta)) == beta
            cnt += 1
    dt = time.perf_counter() - t
    print(f"criterion 05 pass — round trip on {cnt} orthant vectors ({dt:.1f}s)")


# ------------------------------------------------------------------ 6


def test_06_three_routes_agree_everywhere():
    t = time.perf_counter()
    cnt = 0
    for q in _sweep():
        xi = default_height(q)
        for beta in positive_roots(q):
            a = qchar_euler(q, xi, beta)
            b = qchar_recursion(q, xi, beta)
            c = qchar_cluster(q, xi, beta)
            assert a == b, (q.arrows, beta)
            assert a == c, (q.arrows, beta)
            cnt += 1
    dt = time.perf_counter() - t
    assert dt < 300.0, f"route sweep took {dt:.1f}s"
    print(f"criterion 06 pass — three routes equal on {cnt} roots, 46 quivers ({dt:.1f}s)")


# ------------------------------------------------------------------ 7


def test_07_extremal_monomials_and_positivity():
    t = time.perf_counter()
    cnt = 0
    for q in _sweep():
        xi = default_height(q)
        for beta in positive_roots(q):
            poly = qchar_euler(q, xi, beta)
            hi, lo = extremal_monomials(q, xi, poly)
            assert hi == dominant_monomial(q, xi, beta)
            drop = mono_from_dict({})
            for i, a in enumerate(beta, start=1):
                if a:
                    drop = mono_mul(drop, mono_pow(variable_A(q, xi, i), -a))
            assert lo == mono_mul(hi, drop)
            assert all(c > 0 for c in poly.terms.values())
            assert poly.terms[hi] == 1
            cnt += 1
    dt = time.perf_counter() - t
    print(f"criterion 07 pass — extremal pair + positivity on {cnt} roots ({dt:.1f}s)")


# ------------------------------------------------------------------ 8


def test_08_cluster_variable_census():
    # the enumeration itself raises InexactDivision if any exchange step
    # fails to divide, so completing the census proves exactness
    t = time.perf_counter()
    for q in _sweep():
        variables = enumerate_cluster_variables(q)
        n = q.rank
        pos = set(positive_roots(q))
        neg = {tuple(-v for v in simple_root(q, i)) for i in q.vertices}
        assert len(variables) == len(pos) + n
        assert set(variables) == pos | neg
    dt = time.perf_counter() - t
    print(f"criterion 08 pass — census |Δ+|+n with d-vector bijection, 46 quivers ({dt:.1f}s)")


# ------------------------------------------------------------------ 9


def test_09_complex_structure_and_pivot_invariance():
    t = time.perf_counter()
    built = compared = 0
    for q in _sweep():
        xi = default_height(q)
        for beta in positive_roots(q):
            bd = beta_combinatorics(q, xi, beta)
            base_chi = None
            for pvt in bd.pivot_candidates:
                fc = build_complex(q, xi, beta, pivot=pvt)
                rep = verify_d_squared(q, fc.num)
                assert rep["ok"], rep
                assert validate_components(q, xi, fc.num)
                chi = euler_char(q, xi, fc, specialize_f=-1)
                if base_chi is None:
                    base_chi = chi
                else:
                    assert chi == base_chi, (q.arrows, beta, pvt)
                    compared += 1
                built += 1
            rep2 = verify_exactness(q, xi, build_complex(q, xi, beta))
            assert rep2["ok"], rep2
    dt = time.perf_counter() - t
    print(
        f"criterion 09 pass — {built} complexes verified, "
        f"{compared} pivot-invariance comparisons ({dt:.1f}s)"
    )


# ------------------------------------------------------------------ 10


def test_10_hand_checked_goldens():
    # the three rank-one / rank-two characters worked out by hand, each
    # required from all three routes
    t = time.perf_counter()
    q1 = build_quiver("A", 1, [])
    xi1 = default_height(q1)
    want_a1 = Y(1, -1) + Y(1, 1, -1)

    q2 = build_quiver("A", 2, [(1, 2)])
    xi2 = default_height(q2)
    want_alpha1 = Y(1, -1) + Y(2, 0) * Y(1, 1, -1)
    want_theta = Y(2, -2) + Y(1, -1) * Y(2, 0, -1) + Y(1, 1, -1)

    for q, xi, beta, want in [
        (q1, xi1, (1,), want_a1),
        (q2, xi2, (1, 0), want_alpha1),
        (q2, xi2, (1, 1), want_theta),
    ]:
        assert qchar_euler(q, xi, beta) == want
        assert qchar_recursion(q, xi, beta) == want
        assert qchar_cluster(q, xi, beta) == want
    dt = time.perf_counter() - t
    print(f"criterion 10 pass — 3 golden characters × 3 routes ({dt:.2f}s)")


# ------------------------------------------------------------------ 11


def _check_cluster_character(q, xi, beta):
    """Criterion 07's four clauses on the cluster route, and the round trip."""
    poly = qchar_cluster(q, xi, beta)
    hi, lo = extremal_monomials(q, xi, poly)
    assert hi == dominant_monomial(q, xi, beta), (q.arrows, beta)
    drop = mono_from_dict({})
    for i, a in enumerate(beta, start=1):
        drop = mono_mul(drop, mono_pow(variable_A(q, xi, i), -a))
    assert lo == mono_mul(hi, drop), (q.arrows, beta)
    assert all(c > 0 for c in poly.terms.values()), (q.arrows, beta)
    assert poly.terms[hi] == 1, (q.arrows, beta)
    assert root_of_dominant(q, xi, leading_object(q, xi, beta)) == beta


def test_11_type_e6_dominant_formula_on_the_cluster_route():
    # the paper states its dominant-monomial formula for A_n and D_n only;
    # on E the cluster route is the ground truth, so criterion 07's four
    # clauses are read off qchar_cluster, with the round trip on the
    # roots: a checked observation on all 32 E6 orientations, not a theorem
    t = time.perf_counter()
    cnt = 0
    for q in all_orientations("E", 6):
        xi = default_height(q)
        for beta in positive_roots(q):
            _check_cluster_character(q, xi, beta)
            cnt += 1
    assert cnt == 32 * 36
    dt = time.perf_counter() - t
    print(
        f"criterion 11 pass — E6 extremal pair + positivity + round trip "
        f"on {cnt} pairs ({dt:.1f}s)"
    )


def test_11_type_e7_census_and_dominant_formula_on_the_cluster_route():
    # the E6 block's clauses on a seeded E7 orientation, whose census is
    # first checked as criterion 08 checks the sweep's: |Δ+| + n variables
    # whose d-vectors are the positive roots and the negative simples
    t = time.perf_counter()
    (q,) = sample_orientations("E", 7, 1, seed=1)
    variables = enumerate_cluster_variables(q)
    pos = set(positive_roots(q))
    neg = {tuple(-v for v in simple_root(q, i)) for i in q.vertices}
    assert len(pos) == 63 and len(variables) == len(pos) + 7
    assert set(variables) == pos | neg
    xi = default_height(q)
    for beta in positive_roots(q):
        _check_cluster_character(q, xi, beta)
    dt = time.perf_counter() - t
    print(
        f"criterion 11 pass — E7 census {len(variables)} = |Δ+|+n with d-vector "
        f"bijection, extremal pair + positivity + round trip on {len(pos)} roots ({dt:.1f}s)"
    )
