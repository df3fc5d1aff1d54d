"""Truncated characters along three independent routes, plus the dominance
order machinery used to certify extremal monomials."""

import random
import sys
from itertools import combinations, product

import pytest

import laurent_oracle
from dominance_oracle import oracle_extremal, solve_cartan
from qhammock import (
    all_orientations,
    build_quiver,
    default_height,
    positive_roots,
    sample_orientations,
)
from qhammock.complexes import build_complex
from qhammock.errors import (
    Incomparable,
    NotDominant,
    UnknownRoot,
)
from qhammock.laurent import (
    MONO_ONE,
    LaurentPoly,
    mono_div,
    mono_from_dict,
    mono_key_str,
    mono_mul,
    mono_pow,
)
from qhammock.cluster import enumerate_cluster_variables
from qhammock.objects import leading_object, pivot_step
from qhammock.qchar import (
    _a_exponents,
    dominant_monomial,
    extremal_monomials,
    nakajima_leq,
    qchar_cluster,
    qchar_euler,
    qchar_recursion,
    qchar_to_json,
    qchar_to_tsv,
    variable_A,
    verify_beta,
)


def a2():
    q = build_quiver("A", 2, [(1, 2)])
    return q, default_height(q)


def Y(i, p, e=1):
    return mono_from_dict({("Y", i, p): e})


def YP(i, p, e=1):
    return LaurentPoly.variable(("Y", i, p), e)


# --------------------------------------------------------------- the ring


def test_variable_a_monomials():
    q, xi = a2()
    assert variable_A(q, xi, 1) == mono_from_dict(
        {("Y", 1, -1): 1, ("Y", 1, 1): 1, ("Y", 2, 0): -1}
    )
    assert variable_A(q, xi, 2) == mono_from_dict(
        {("Y", 2, -2): 1, ("Y", 2, 0): 1, ("Y", 1, -1): -1}
    )


def test_dominant_monomials_a2():
    q, xi = a2()
    assert dominant_monomial(q, xi, (1, 0)) == Y(1, -1)
    assert dominant_monomial(q, xi, (0, 1)) == mono_mul(Y(1, 1), Y(2, -2))
    assert dominant_monomial(q, xi, (1, 1)) == Y(2, -2)


# ------------------------------------------------------------ the goldens


def test_rank_one_character():
    q = build_quiver("A", 1, [])
    xi = default_height(q)
    chi = qchar_euler(q, xi, (1,))
    assert chi == YP(1, -1) + YP(1, 1, -1)
    assert chi == qchar_recursion(q, xi, (1,))
    assert chi == qchar_cluster(q, xi, (1,))


A2_GOLDEN = {
    (1, 0): lambda: YP(1, -1) + YP(2, 0) * YP(1, 1, -1),
    (0, 1): lambda: YP(1, -1) * YP(1, 1) * YP(2, 0, -1) + YP(1, 1) * YP(2, -2),
    (1, 1): lambda: YP(1, -1) * YP(2, 0, -1) + YP(1, 1, -1) + YP(2, -2),
}


def test_a2_characters_golden_all_routes():
    q, xi = a2()
    for beta, want in A2_GOLDEN.items():
        w = want()
        assert qchar_euler(q, xi, beta) == w
        assert qchar_recursion(q, xi, beta) == w
        assert qchar_cluster(q, xi, beta) == w


def test_cluster_route_unknown_root():
    q, xi = a2()
    with pytest.raises(UnknownRoot):
        qchar_cluster(q, xi, (2, 1))


def test_recursion_result_cannot_be_edited():
    # the memo hands the same polynomial to every caller, so none may edit it
    q, xi = a2()
    first = qchar_recursion(q, xi, (1, 1))
    want = first.canonical()
    with pytest.raises(TypeError):
        first.terms[MONO_ONE] = 1
    with pytest.raises(AttributeError):
        first.terms = {}
    assert qchar_recursion(q, xi, (1, 1)) is first
    assert first.canonical() == want
    assert first == qchar_euler(q, xi, (1, 1))


@pytest.mark.parametrize("beta", [(1, -1), (0, -2), (-1, -1)])
@pytest.mark.parametrize("route", [build_complex, qchar_recursion, leading_object])
def test_base_cases_refuse_other_vectors_with_a_negative_entry(route, beta):
    # only a nonnegative β or a negative simple root −α_i may enter a step
    q, xi = a2()
    with pytest.raises(NotDominant):
        route(q, xi, beta)


@pytest.mark.parametrize(
    "family,arrows", [("A", [(1, 2)]), ("D", [(2, 1), (3, 2), (2, 4)])], ids=["A2", "D4"]
)
def test_negative_simple_gives_its_base_variable_on_every_route(family, arrows):
    # χ(−α_j) = Y(j, ξ(j)): the base case of the recursion, the one-summand
    # build, and the initial cluster variable
    q = build_quiver(family, len(arrows) + 1, arrows)
    xi = default_height(q)
    if family == "A":
        assert xi.values == (1, 0)  # so the answers are Y(1, 1) and Y(2, 0)
    for j in q.vertices:
        beta = tuple(-1 if k == j else 0 for k in q.vertices)
        for route in (qchar_euler, qchar_recursion, qchar_cluster):
            assert route(q, xi, beta) == YP(j, xi.ht(j)), (route.__name__, j)

def _library_caches():
    """Every lru_cache bound in a loaded qhammock module, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qhammock" or name.startswith("qhammock."):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    found[value.__qualname__] = value
    return found


def test_routes_agree_from_cold_caches():
    q = build_quiver("D", 4, [(2, 1), (3, 2), (2, 4)])
    xi = default_height(q)
    routes = (qchar_euler, qchar_recursion, qchar_cluster)
    roots = positive_roots(q)
    warm = [route(q, xi, beta).canonical() for route in routes for beta in roots]
    caches = _library_caches()
    assert set(caches) == {
        "positive_roots",
        "hom_values",
        "hammock_object",
        "ghost_object",
        "_section_objects",
        "_canonical_step",
        "_tilt_outcome",
        "_canonical_build",
        "_canonical_recursion",
        "enumerate_cluster_variables",
    }
    for cache in caches.values():
        cache.cache_clear()
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())
    assert [route(q, xi, beta).canonical() for route in routes for beta in roots] == warm
    memos = [
        caches[name]
        for name in ("_canonical_build", "_canonical_recursion", "enumerate_cluster_variables")
    ]
    before = [memo.cache_info().hits for memo in memos]
    for route in routes:
        route(q, xi, roots[-1])
    assert all(memo.cache_info().hits > hits for memo, hits in zip(memos, before))


def test_three_routes_small_sweep():
    quivers = list(all_orientations("A", 3)) + [
        build_quiver("D", 4, [(1, 2), (2, 3), (2, 4)]),
        build_quiver("D", 4, [(2, 1), (3, 2), (2, 4)]),
    ]
    for q in quivers:
        xi = default_height(q)
        for beta in positive_roots(q):
            a = qchar_euler(q, xi, beta)
            assert a == qchar_recursion(q, xi, beta), (q.arrows, beta)
            assert a == qchar_cluster(q, xi, beta), (q.arrows, beta)


def test_characters_live_in_truncated_ring():
    q = build_quiver("A", 4, [(1, 2), (2, 3), (4, 3)])
    xi = default_height(q)
    sections = {("Y", i, xi.ht(i) - shift) for i in q.vertices for shift in (0, 2)}
    for beta in positive_roots(q):
        assert qchar_euler(q, xi, beta).variables() <= sections


# ----------------------------------------------------------- dominance order


def test_nakajima_order_basics():
    q, xi = a2()
    m_hi = dominant_monomial(q, xi, (1, 1))  # Y[2,-2]
    chi = qchar_euler(q, xi, (1, 1))
    for m in chi.terms:
        assert nakajima_leq(q, xi, m, m_hi)
    assert nakajima_leq(q, xi, m_hi, m_hi)  # reflexive
    # the three terms form a ladder: bottom *A_1 = middle, middle *A_2 = top
    bottom = mono_from_dict({("Y", 1, 1): -1})
    middle = mono_from_dict({("Y", 1, -1): 1, ("Y", 2, 0): -1})
    assert not nakajima_leq(q, xi, m_hi, bottom)
    assert mono_mul(bottom, variable_A(q, xi, 1)) == middle
    assert mono_mul(middle, variable_A(q, xi, 2)) == m_hi


def test_nakajima_order_incomparable_pair():
    q, xi = a2()
    m1 = Y(1, -1)  # dominant monomial of alpha_1
    m2 = mono_mul(Y(1, 1), Y(2, -2))  # dominant monomial of alpha_2
    assert not nakajima_leq(q, xi, m1, m2)
    assert not nakajima_leq(q, xi, m2, m1)


def test_extremal_monomials_golden():
    q, xi = a2()
    hi, lo = extremal_monomials(q, xi, qchar_euler(q, xi, (1, 1)))
    assert hi == Y(2, -2)
    assert lo == Y(1, 1, -1)
    # lowest = highest shifted down by the full A-monomial stack
    down = mono_mul(
        mono_pow(variable_A(q, xi, 1), -1), mono_pow(variable_A(q, xi, 2), -1)
    )
    assert lo == mono_mul(hi, down)


def test_extremal_monomials_raise_on_ties():
    q, xi = a2()
    mix = qchar_euler(q, xi, (1, 0)) + qchar_euler(q, xi, (0, 1))
    with pytest.raises(Incomparable):
        extremal_monomials(q, xi, mix)


def test_verify_beta_report():
    q, xi = a2()
    rep = verify_beta(q, xi, (1, 1))
    assert rep == {
        "beta": [1, 1],
        "routes_agree": True,
        "cluster_available": True,
        "highest_is_dominant": True,
        "lowest_is_antidominant": True,
        "coefficients_positive": True,
        "leading_coefficient_one": True,
        "terms": 3,
        "ok": True,
    }


def test_verify_beta_without_cluster_route():
    # non-root positive vectors have no cluster variable; the clause is
    # reported as unavailable rather than failed
    q, xi = a2()
    rep = verify_beta(q, xi, (2, 1))
    assert rep["cluster_available"] is False
    assert rep["routes_agree"] is True
    assert rep["ok"] is True


# ----------------------------------------------------- product structure


def test_multiplicativity_on_compatible_sums():
    q, xi = a2()
    chi = lambda b: qchar_euler(q, xi, b)
    assert chi((2, 0)) == chi((1, 0)) ** 2
    assert chi((0, 2)) == chi((0, 1)) ** 2
    assert chi((2, 2)) == chi((1, 1)) ** 2
    assert chi((2, 1)) == chi((1, 0)) * chi((1, 1))
    assert chi((1, 2)) == chi((0, 1)) * chi((1, 1))


def test_incompatible_product_is_exchange_shadow():
    # alpha_1 + alpha_2 = theta is NOT a compatible pair: the product of
    # their characters picks up the frozen shadow of the exchange relation
    q, xi = a2()
    chi = lambda b: qchar_euler(q, xi, b)
    X1 = YP(1, -1) * YP(1, 1)
    X2 = YP(2, -2) * YP(2, 0)
    assert chi((1, 0)) * chi((0, 1)) == X1 * chi((1, 1)) + X2


def test_rank_one_powers():
    q = build_quiver("A", 1, [])
    xi = default_height(q)
    for k in range(2, 5):
        assert qchar_euler(q, xi, (k,)) == qchar_euler(q, xi, (1,)) ** k


# ------------------------------------------- dominance against the oracle


def outcome(find, q, xi, poly):
    """The extremal pair, or the Incomparable message."""
    try:
        return find(q, xi, poly)
    except Incomparable as exc:
        return str(exc)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_extremal_monomials_match_pairwise_oracle(family, rank):
    for n, q in enumerate(all_orientations(family, rank)):
        xi = default_height(q)
        chis = [qchar_recursion(q, xi, beta) for beta in positive_roots(q)]
        for chi in chis:
            assert extremal_monomials(q, xi, chi) == oracle_extremal(q, xi, chi)
        # sums of two characters, mostly incomparable; the oracle is
        # quadratic in the terms, so rank 4 keeps to two orientations
        if rank < 4 or n < 2:
            for a, b in combinations(chis, 2):
                assert outcome(extremal_monomials, q, xi, a + b) == outcome(
                    oracle_extremal, q, xi, a + b
                )


def test_extremal_monomials_one_sided_extremum():
    q, xi = a2()
    m = Y(2, -2)
    A_1, A_2 = variable_A(q, xi, 1), variable_A(q, xi, 2)
    up = LaurentPoly({m: 1, mono_mul(m, A_1): 1, mono_mul(m, A_2): 1})
    down = LaurentPoly({m: 1, mono_div(m, A_1): 1, mono_div(m, A_2): 1})
    for poly, msg in ((up, "0 maxima, 1 minima"), (down, "1 maxima, 0 minima")):
        assert outcome(extremal_monomials, q, xi, poly) == outcome(oracle_extremal, q, xi, poly)
        assert outcome(extremal_monomials, q, xi, poly).endswith(msg)


def test_extremal_monomials_with_ghost_variable():
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    xi = default_height(q)
    chi = qchar_recursion(q, xi, (1, 1, 1))
    ghost = mono_from_dict({("f", 2): 1})
    hi, lo = extremal_monomials(q, xi, chi)
    # a ghost shared by every term cancels from every ratio
    shared = chi * LaurentPoly.monomial(ghost)
    assert extremal_monomials(q, xi, shared) == (mono_mul(hi, ghost), mono_mul(lo, ghost))
    assert extremal_monomials(q, xi, shared) == oracle_extremal(q, xi, shared)
    # a ghost on one term alone makes that term incomparable with the rest
    lone = chi + LaurentPoly.monomial(mono_mul(lo, ghost))
    assert outcome(extremal_monomials, q, xi, lone) == outcome(oracle_extremal, q, xi, lone)
    assert outcome(extremal_monomials, q, xi, lone).endswith("0 maxima, 0 minima")


def test_extremal_monomials_single_monomial():
    q, xi = a2()
    for m in (MONO_ONE, Y(1, -1), mono_from_dict({("f", 1): 1, ("Y", 2, 0): -3})):
        poly = LaurentPoly.monomial(m, 5)
        assert extremal_monomials(q, xi, poly) == (m, m) == oracle_extremal(q, xi, poly)


def test_a_exponents_recover_k_exactly():
    quivers = [
        q
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
        for q in all_orientations(family, rank)
    ] + [q for rank in (6, 7, 8) for q in sample_orientations("E", rank, 2, seed=rank)]
    rng = random.Random(20261019)
    for q in quivers:
        xi = default_height(q)
        k = [rng.randint(-3, 3) for _ in q.vertices]
        k[rng.randrange(q.rank)] = rng.randint(-3, -1)
        sections = [("Y", i, xi.ht(i) - shift) for i in q.vertices for shift in (0, 2)]
        # a ghost and a variable off the two sections ride along on both sides
        i = rng.choice(q.vertices)
        powers = {key: rng.randint(-3, 3) for key in sections}
        powers.update({("f", i): 2, ("Y", i, xi.ht(i) + 2): -1})
        base = mono_from_dict(powers)
        raised = base
        for v, e in zip(q.vertices, k):
            raised = mono_mul(raised, mono_pow(variable_A(q, xi, v), e))
        assert _a_exponents(q, xi, base, raised) == tuple(k), q.arrows
        ratio = dict(mono_div(raised, base))
        sums = [sum(ratio.get(("Y", v, xi.ht(v) - s), 0) for s in (0, 2)) for v in q.vertices]
        assert solve_cartan(q, sums) == k, q.arrows
        for key in sections:
            for e in (1, -1):
                moved = mono_mul(raised, mono_from_dict({key: e}))
                assert _a_exponents(q, xi, base, moved) is None, (q.arrows, key, e)
        stray = mono_from_dict({("Y", i, xi.ht(i) - 4): 1})
        assert _a_exponents(q, xi, base, mono_mul(raised, stray)) is None, q.arrows
        assert _a_exponents(q, xi, mono_mul(base, stray), raised) is None, q.arrows


# ------------------------------------------------------------- emission


def test_qchar_tsv_and_json():
    q, xi = a2()
    chi = qchar_euler(q, xi, (1, 1))
    assert qchar_to_tsv(chi) == (
        "monomial\tcoefficient\n"
        "Y:1:-1^1 Y:2:0^-1\t1\n"
        "Y:1:1^-1\t1\n"
        "Y:2:-2^1\t1\n"
    )
    assert qchar_to_json(chi) == [
        {"coeff": 1, "mono": {"Y:1:-1": 1, "Y:2:0": -1}},
        {"coeff": 1, "mono": {"Y:1:1": -1}},
        {"coeff": 1, "mono": {"Y:2:-2": 1}},
    ]


# ----------------------------------------------- one-pass kernels, refereed

GATE_SEED = 20260816  # the acceptance sweep's seed, which draws its D5 sample


def _gate_quivers():
    qs = [q for n in (2, 3, 4, 5) for q in all_orientations("A", n)]
    qs += list(all_orientations("D", 4))
    return qs + list(sample_orientations("D", 5, 8, seed=GATE_SEED))


E6_SAMPLE = sample_orientations("E", 6, 2, seed=1)


def _small_vectors(n, total):
    """Every nonzero nonnegative vector of length n with sum ≤ total."""
    return [v for v in product(range(total + 1), repeat=n) if 0 < sum(v) <= total]


def test_recursion_matches_its_three_product_form():
    # χ(β) = (X_i^ε·H^in·χ(β_inj) + K·H·χ(β_proj)) / Y(i, ξ(i)), as three
    # products of polynomials, on every orthant vector of sum ≤ 4 of
    # A2–A4 and D4 and on the roots of an E6 sample
    checked = 0
    cases = [(q, _small_vectors(q.rank, 4)) for n in (2, 3, 4) for q in all_orientations("A", n)]
    cases += [(q, _small_vectors(4, 4)) for q in all_orientations("D", 4)]
    cases += [(q, positive_roots(q)) for q in E6_SAMPLE]
    for q, vectors in cases:
        xi = default_height(q)
        for beta in vectors:
            step = pivot_step(q, xi, beta)
            pivot = mono_from_dict({("Y", step.pivot, xi.ht(step.pivot)): -1})
            want = (
                LaurentPoly.monomial(xi.classes.decode(step.absorb_class))
                * qchar_recursion(q, xi, step.beta_inj)
                + LaurentPoly.monomial(xi.classes.decode(step.tilt_class))
                * qchar_recursion(q, xi, step.tilt.remainder)
            ) * LaurentPoly.monomial(pivot)
            assert qchar_recursion(q, xi, beta) == want, (q.arrows, beta)
            checked += 1
    assert checked == 1340


def test_cluster_route_matches_substitution():
    # the census term's section class against substituting x_i ↦ Y(i, ξ(i))
    # and X_i ↦ Y(i, ξ(i)−2)·Y(i, ξ(i)), on the gate quivers and an E6
    # sample, negative simple roots included
    checked = 0
    for q in _gate_quivers() + list(E6_SAMPLE):
        xi = default_height(q)
        mapping = {}
        for i in q.vertices:
            up, low = ("Y", i, xi.ht(i)), ("Y", i, xi.ht(i) - 2)
            mapping[("x", i)] = LaurentPoly.variable(up)
            mapping[("X", i)] = LaurentPoly.monomial(mono_from_dict({up: 1, low: 1}))
        for d, var in enumerate_cluster_variables(q).items():
            want = laurent_oracle.substitute(var, mapping)
            got = qchar_cluster(q, xi, d)
            assert list(got.terms.items()) == list(want.terms.items()), (q.arrows, d)
            checked += 1
    assert checked == 606 + 2 * 36 + sum(q.rank for q in _gate_quivers()) + 2 * 6
