"""Exchange-pattern enumeration with frozen shadow variables."""

import hashlib
import random

import pytest

import qhammock.cluster as cluster
from exchange_oracle import exchange_graph_seeds, exchange_graph_variables, mutated_matrix, seed_key
from qhammock import (
    all_orientations,
    build_quiver,
    default_height,
    positive_roots,
    sample_orientations,
    simple_root,
)
from qhammock.cli import main
from qhammock.cluster import (
    FROZEN,
    enumerate_cluster_variables,
    initial_seed,
    mutate,
)
from qhammock.errors import TooLarge, UnknownRoot
from qhammock.laurent import LaurentPoly, _packing, mono_from_dict
from qhammock.qchar import qchar_cluster


def V(key, power=1):
    return LaurentPoly.variable(key, power)


def a2():
    return build_quiver("A", 2, [(1, 2)])


def test_initial_seed_shape():
    s = initial_seed(a2())
    assert s.vertices == ((1, 0), (2, 0), (1, 1), (2, 1))
    assert s.mutable_vertices() == ((1, 0), (2, 0))
    # one arrow from each mutable vertex to its shadow, plus the quiver
    # arrow reversed at level 0 and a level-crossing arrow 1->2
    assert sorted((u, v) for (u, v), b in s.matrix.items() if b > 0) == [
        ((1, 0), (1, 1)),
        ((1, 1), (2, 0)),
        ((2, 0), (1, 0)),
        ((2, 0), (2, 1)),
    ]
    # skew-symmetry on the stored part
    for (u, v), b in s.matrix.items():
        assert s.matrix[(v, u)] == -b
    assert s.cluster[(1, 0)] == V(("x", 1))
    assert s.cluster[(2, 1)] == V(("X", 2))
    for v in s.vertices:
        assert _rows_as_poly(s, s.rows[v]) == s.cluster[v]


def test_mutation_exchange_and_involution():
    q = a2()
    s = initial_seed(q)
    s2 = mutate(s, (1, 0))
    assert s2.cluster[(1, 0)] == (V(("X", 1)) + V(("x", 2))).exact_div(V(("x", 1)))
    # frozen data never moves
    assert s2.cluster[(1, 1)] == V(("X", 1))
    back = mutate(s2, (1, 0))
    assert seed_key(back) == seed_key(s)
    for v in s.mutable_vertices():
        assert back.cluster[v] == s.cluster[v]


def test_seed_rows_are_read_only():
    # a mutated seed shares the rows of the entries it did not change, so
    # an edit through one seed would corrupt the other
    s = initial_seed(a2())
    s2 = mutate(s, (1, 0))
    for seed in (s, s2):
        for v in seed.vertices:
            with pytest.raises(TypeError):
                seed.rows[v][(0, 0, 0, 0)] = 1
    fresh = mutate(initial_seed(a2()), (2, 0))
    assert mutate(s, (2, 0)).cluster[(2, 0)] == fresh.cluster[(2, 0)]


def test_rank_one_exchange():
    q = build_quiver("A", 1, [])
    s = mutate(initial_seed(q), (1, 0))
    one = LaurentPoly.one()
    assert s.cluster[(1, 0)] == (one + V(("X", 1))).exact_div(V(("x", 1)))


def test_mutation_guards():
    s = initial_seed(a2())
    with pytest.raises(ValueError):
        mutate(s, (1, 1))  # frozen
    with pytest.raises(ValueError):
        mutate(s, (9, 0))  # not a vertex


def test_matrix_mutation_rule_pentagon():
    # A2 exchange pattern is 5-periodic up to relabeling: ten alternating
    # mutations restore the initial seed exactly (5 swaps vertex roles)
    q = a2()
    s = initial_seed(q)
    cur = s
    for step in range(10):
        k = (1, 0) if step % 2 == 0 else (2, 0)
        cur = mutate(cur, k)
    assert seed_key(cur) == seed_key(s)


def _rows_as_poly(seed, rows):
    """Packed rows over the seed's 2n variable keys, sorted, as a polynomial,
    read field by field with shifts: below the degree field, column j holds
    B − e_j in the j-th field from the top, and the degree field holds the
    sum of the column fields."""
    keys = sorted(("x" if level == 0 else "X", i) for i, level in seed.vertices)
    pk = _packing(len(keys))
    width, bias = pk.top // len(keys), pk.bias
    polys = {}
    for row, c in rows.items():
        fields = [(row >> (pk.top - width * (j + 1))) & ((1 << width) - 1) for j in range(len(keys))]
        assert row >> pk.top == sum(fields)
        assert all(f < 2 * bias for f in fields)
        polys[mono_from_dict({k: bias - f for k, f in zip(keys, fields)})] = c
    return LaurentPoly(polys)


def _checked_mutate(seen):
    """``mutate`` that asserts the full matrix rule on every step it makes,
    and that every entry's rows are the polynomial the cluster holds."""

    def checked(seed, k):
        out = mutate(seed, k)
        assert dict(out.matrix) == mutated_matrix(seed, k), k
        assert not any(u[1] == v[1] == FROZEN for u, v in out.matrix)
        cluster = out.cluster  # converts every entry on each read
        assert set(out.rows) == set(cluster) == set(out.vertices)
        for v in out.vertices:
            assert _rows_as_poly(out, out.rows[v]) == cluster[v], (k, v)
        seen.append(k)
        return out

    return checked


def test_mutation_matrix_matches_full_rule_on_gate_sink_walks(monkeypatch):
    gate = [q for n in (2, 3, 4, 5) for q in all_orientations("A", n)]
    gate += [*all_orientations("D", 4), *sample_orientations("D", 5, 8, seed=20260816)]
    assert len(gate) == 46
    seen = []
    monkeypatch.setattr(cluster, "mutate", _checked_mutate(seen))
    for q in gate:
        before = len(seen)
        cluster._sink_walk(q)
        assert len(seen) > before, q.arrows


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6)])
def test_mutation_matrix_matches_full_rule_on_random_walks(family, rank):
    rng = random.Random(rank)
    check = _checked_mutate([])
    for q in sample_orientations(family, rank, 2, seed=rank):
        seed = initial_seed(q)
        for _ in range(20):
            seed = check(seed, rng.choice(seed.mutable_vertices()))


SEED_AND_VARIABLE_COUNTS = [
    ("A", 1, [], 2, 2),
    ("A", 2, [(1, 2)], 5, 5),
    ("A", 3, [(1, 2), (2, 3)], 9, 14),
    ("A", 3, [(2, 1), (2, 3)], 9, 14),
    ("A", 4, [(1, 2), (2, 3), (3, 4)], 14, 42),
    ("D", 4, [(1, 2), (2, 3), (2, 4)], 16, 50),
]


@pytest.mark.parametrize("family,rank,arrows,nvars,nseeds", SEED_AND_VARIABLE_COUNTS)
def test_finite_type_counts(family, rank, arrows, nvars, nseeds):
    q = build_quiver(family, rank, arrows)
    assert len(enumerate_cluster_variables(q)) == nvars
    assert len(exchange_graph_seeds(q)) == nseeds


SMALL_SHAPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]


@pytest.mark.parametrize("family,rank", SMALL_SHAPES)
def test_sink_walk_matches_exchange_graph(family, rank):
    for q in all_orientations(family, rank):
        walk = {p.canonical() for p in enumerate_cluster_variables(q).values()}
        assert walk == exchange_graph_variables(exchange_graph_seeds(q)), q.arrows


def test_walk_that_never_closes_is_too_large(monkeypatch):
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    enumerate_cluster_variables.cache_clear()
    monkeypatch.setattr(cluster, "mutate", lambda seed, k: seed)
    with pytest.raises(TooLarge):
        enumerate_cluster_variables(q)
    # the command line reports it as bad input, not as a traceback
    cfg = '{"type":"A","rank":3,"arrows":[[1,2],[3,2]]}'
    assert main(["cluster", "--quiver", cfg]) == 2


def test_variable_table_is_read_only():
    q = a2()
    table = enumerate_cluster_variables(q)
    before = dict(table)
    with pytest.raises(TypeError):
        table[(1, 1)] = LaurentPoly.one()
    with pytest.raises(TypeError):
        del table[(1, 0)]
    assert dict(enumerate_cluster_variables(q)) == before


def test_variable_table_entries_cannot_be_edited():
    # every call shares the cached variables, so none may be edited
    q = a2()
    xi = default_height(q)
    want = qchar_cluster(q, xi, (1, 1))
    first = enumerate_cluster_variables(q)[(1, 1)]
    with pytest.raises(TypeError):
        first.terms[()] = 1
    with pytest.raises(AttributeError):
        first.terms = {}
    assert enumerate_cluster_variables(q)[(1, 1)] is first
    assert qchar_cluster(q, xi, (1, 1)) == want != LaurentPoly.zero()
    assert len(first) == 3


def test_e6_census():
    # the walk checks the bijection with Δ₊ ∪ −Π and positivity itself;
    # the assertions restate the census from outside
    for q in sample_orientations("E", 6, 4, seed=1):
        variables = enumerate_cluster_variables(q)
        neg = {tuple(-c for c in simple_root(q, i)) for i in q.vertices}
        assert set(variables) == neg | set(positive_roots(q))
        assert len(variables) == 36 + 6
        for poly in variables.values():
            assert all(c > 0 for c in poly.terms.values())


# sha256 of the sorted (arrows, denominator vector, canonical variable)
# triples over the 46 gate quivers and four E6 orientations, recorded
# before the census moved onto exponent rows
CENSUS_DIGEST = "b1f844cb2e4c965cfdae41a555339715a3ae3aa406627a84e8bb81d72e5fd8f7"


def test_census_digest():
    # the only byte check on the x/X census that `qq cluster` prints
    gate = [q for n in (2, 3, 4, 5) for q in all_orientations("A", n)]
    gate += [*all_orientations("D", 4), *sample_orientations("D", 5, 8, seed=20260816)]
    quivers = [*gate, *sample_orientations("E", 6, 4, seed=1)]
    triples = sorted(
        (q.arrows, dvec, poly.canonical())
        for q in quivers
        for dvec, poly in enumerate_cluster_variables(q).items()
    )
    assert len(quivers) == 50 and len(triples) == 974
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == CENSUS_DIGEST


def test_variable_keys_are_denominator_vectors():
    q = a2()
    vs = enumerate_cluster_variables(q)
    neg = {tuple(-c for c in simple_root(q, i)) for i in q.vertices}
    assert set(vs) == neg | set(positive_roots(q))
    # initial variables key the negative simples
    assert vs[(-1, 0)] == V(("x", 1))
    assert vs[(0, -1)] == V(("x", 2))


def test_variable_for_root_lookup():
    q = a2()
    theta = enumerate_cluster_variables(q)[(1, 1)]
    # hand-checked: two exchanges give x_theta = (X1 + x2 + x1 X2)/(x1 x2)
    num = V(("X", 1)) + V(("x", 2)) + V(("x", 1)) * V(("X", 2))
    assert theta == num.exact_div(V(("x", 1)) * V(("x", 2)))
    assert (2, 1) not in enumerate_cluster_variables(q)
    with pytest.raises(UnknownRoot):
        qchar_cluster(q, default_height(q), (2, 1))


def test_positive_coefficients_everywhere():
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    for beta, poly in enumerate_cluster_variables(q).items():
        assert all(c > 0 for c in poly.terms.values()), beta
