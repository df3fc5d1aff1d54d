"""Complex construction: tensor/cone algebra and the beta recursion."""

import hashlib
import json
from dataclasses import FrozenInstanceError
from types import MappingProxyType

import pytest

import qhammock.complexes as complexes
import qhammock.objects as objects
from qhammock import (
    ZVertex,
    all_orientations,
    beta_combinatorics,
    build_quiver,
    default_height,
    positive_roots,
    sample_orientations,
    simple_root,
)
from qhammock.complexes import (
    Complex,
    Component,
    FractionComplex,
    build_complex,
    complex_to_json,
    cone,
    euler_char,
    single_complex,
    tensor_complex,
    validate_components,
    verify_d_squared,
    verify_exactness,
)
from qhammock.errors import (
    InconsistentConnector,
    InvariantViolation,
    NegativeDegree,
    NotDominant,
    NotInSupport,
)
from qhammock.laurent import (
    MONO_ONE,
    LaurentPoly,
    mono_from_dict,
    mono_key_str,
)
from qhammock.objects import class_object, variable_A
from qhammock.qchar import qchar_euler, qchar_recursion

import laurent_oracle
from connector_oracle import resolve_connectors_per_leaf


def a2():
    q = build_quiver("A", 2, [(1, 2)])
    return q, default_height(q)


def Y(i, p, e=1):
    return LaurentPoly.variable(("Y", i, p), e)


def enc(xi, powers):
    """The class of a {key: exponent} monomial, by the one encoder."""
    return xi.classes.encode(mono_from_dict(powers))


def K(xi, i):
    """The class of K_i = Y(τ base_i) ⊗ Y(base_i)."""
    return enc(xi, {("Y", i, xi.ht(i) - 2): 1, ("Y", i, xi.ht(i)): 1})


def F(xi, i):
    """The class of the ghost F(τ base_i)."""
    return enc(xi, {("f", i): 1})


def k1_and_tilt(q, xi):
    """The class of K_1 and of its tilt at τ base_1, K_1·f_1·A_1⁻¹."""
    k1 = K(xi, 1)
    return k1, k1 + F(xi, 1) - xi.classes.encode(variable_A(q, xi, 1))


# ------------------------------------------------------------ raw algebra


def test_complex_container_checks():
    q, xi = a2()
    y = enc(xi, {("Y", 1, 1): 1})
    with pytest.raises(NegativeDegree):
        Complex({-1: [y]})
    with pytest.raises(NegativeDegree):
        single_complex(y, -2)
    with pytest.raises(InconsistentConnector):
        Complex({0: [y], 1: [y]}, {0: [Component(0, 1, ("eta", 1), 1)]})
    c = Complex({0: [y], 2: [y]})
    assert c.degrees() == [0, 2]
    assert c.summand_count() == 2
    assert not c.is_zero() and Complex().is_zero()


def test_complex_refuses_non_canonical_classes():
    # a class is one int of the height's packing, so an unsorted monomial
    # would never cancel against its sorted twin in an Euler sum: the one
    # encoder refuses a monomial that is not canonical, a Complex refuses a
    # class that is not an int (a tuple, a bool, a float) and an int with
    # an exponent outside its 16-bit field, and a product of classes that
    # leaves its field is refused too, never wrapped into another class
    q, xi = a2()
    u = ((("f", 1), 1), (("Y", 1, 1), 1))
    s = xi.classes.encode(tuple(sorted(u)))
    for bad in (u, ((("Y", 1, 1), 1), (("Y", 1, 1), 1)), ((("f", 1), 0),)):
        with pytest.raises(ValueError):
            xi.classes.encode(bad)
    for bad in (tuple(sorted(u)), True, float(s)):
        with pytest.raises(TypeError, match="degree 1"):
            Complex({0: [s], 1: [bad]})
        with pytest.raises(TypeError):
            single_complex(bad)
    wide = enc(xi, {("Y", 1, 1): 2**14})
    for bad in (3 * 2**14, -(2**15) * 2**16, wide + wide):
        with pytest.raises(OverflowError, match="degree 1"):
            Complex({0: [s], 1: [bad]})
    with pytest.raises(OverflowError):
        tensor_complex(single_complex(wide), single_complex(wide))
    assert euler_char(q, xi, FractionComplex(Complex({0: [s], 1: [s]}), (0, 0))) == LaurentPoly.zero()


def test_tensor_unit_and_counts():
    q, xi = a2()
    k = single_complex(K(xi, 1), 0)
    assert tensor_complex(k, single_complex(0)).summand_count() == 1
    g = single_complex(F(xi, 1), 1)
    prod = tensor_complex(k, g)
    assert prod.degrees() == [1]
    assert tensor_complex(k, Complex()).is_zero()


def test_tensor_koszul_sign():
    q, xi = a2()
    y = enc(xi, {("Y", 1, 1): 1})
    k1, t = k1_and_tilt(q, xi)
    c = Complex({0: [k1], 1: [t]}, {0: [Component(0, 0, ("eta", 1), 1)]})
    # put a degree-1 term on the left; the right factor's differential
    # must pick up the Koszul twist
    left = single_complex(y, 1)
    prod = tensor_complex(left, c)
    assert [comp.sign for comp in prod.diffs[1]] == [-1]
    prod0 = tensor_complex(single_complex(y, 0), c)
    assert [comp.sign for comp in prod0.diffs[0]] == [1]


def test_cone_blocks_and_guards():
    # connectors are tagged by label; validate_components tells whether the
    # target is the tilt of the source at that label's translated base vertex
    q, xi = a2()
    k1, t = k1_and_tilt(q, xi)
    assert xi.classes.decode(t) == mono_from_dict({("f", 1): 1, ("Y", 2, 0): 1})
    dom = single_complex(k1, 1)
    cod = single_complex(t, 1)
    e = cone(dom, cod, {1: [(0, 0, ("eta", 1), 1)]})
    assert validate_components(q, xi, e)
    assert e.degrees() == [0, 1]
    assert e.diffs[0][0] == Component(0, 0, ("eta", 1), 1)
    # cod block sign negation
    codd = Complex({0: [k1], 1: [t]}, {0: [Component(0, 0, ("eta", 1), 1)]})
    e2 = cone(Complex(), codd)
    assert e2.diffs[0][0].sign == -1
    with pytest.raises(NegativeDegree):
        cone(single_complex(k1, 0), Complex())
    # target is not the tilt of the source
    wrong = cone(dom, single_complex(k1, 1), {1: [(0, 0, ("eta", 1), 1)]})
    assert not validate_components(q, xi, wrong)
    with pytest.raises(InconsistentConnector):
        cone(dom, cod, {1: [(0, 5, ("eta", 1), 1)]})


# ----------------------------------------------------------- the recursion


A2_SHAPES = {
    # beta -> (denominator, class keys per degree)
    (1, 0): ({1: 1}, [["Y:1:-1^1 Y:1:1^1"], ["Y:2:0^1 f:1^1"]]),
    (0, 1): (
        {2: 1},
        [["Y:1:1^1 Y:2:-2^1 Y:2:0^1"], ["Y:1:-1^1 Y:1:1^1 f:2^1"]],
    ),
    (1, 1): (
        {1: 1, 2: 1},
        [
            ["Y:1:1^1 Y:2:-2^1 Y:2:0^1"],
            ["Y:1:-1^1 Y:1:1^1 f:2^1"],
            ["Y:2:0^1 f:1^1 f:2^1"],
        ],
    ),
}


def test_a2_complex_shapes_frozen():
    q, xi = a2()
    for beta, (den, rows) in A2_SHAPES.items():
        fc = build_complex(q, xi, beta)
        assert fc.den == den
        decode = xi.classes.decode
        got = [[mono_key_str(decode(m)) for m in fc.num.terms[n]] for n in fc.num.degrees()]
        assert got == rows, beta


def test_a2_euler_characteristics_golden():
    q, xi = a2()
    chi = {
        beta: euler_char(q, xi, build_complex(q, xi, beta), specialize_f=-1)
        for beta in positive_roots(q)
    }
    assert chi[(1, 0)] == Y(1, -1) + Y(2, 0) * Y(1, 1, -1)
    assert chi[(0, 1)] == Y(1, -1) * Y(1, 1) * Y(2, 0, -1) + Y(1, 1) * Y(2, -2)
    assert chi[(1, 1)] == Y(1, -1) * Y(2, 0, -1) + Y(1, 1, -1) + Y(2, -2)


def test_pivot_invariance_and_guard():
    q, xi = a2()
    a = euler_char(q, xi, build_complex(q, xi, (1, 1), pivot=1), specialize_f=-1)
    b = euler_char(q, xi, build_complex(q, xi, (1, 1), pivot=2), specialize_f=-1)
    assert a == b
    with pytest.raises(NotInSupport):
        build_complex(q, xi, (1, 0), pivot=2)
    with pytest.raises(NotDominant):
        build_complex(q, xi, (1, -1))


def test_negative_simple_base_case():
    # a negative simple root bottoms out at the base hammock object, whose
    # class is the plain base-section variable
    q, xi = a2()
    fc = build_complex(q, xi, (0, -1))
    assert fc.den == {}
    assert fc.num.degrees() == [0]
    assert euler_char(q, xi, fc) == Y(2, 0)
    assert euler_char(q, xi, build_complex(q, xi, (-1, 0))) == Y(1, 1)
    # a forced pivot must lie in the support, here {j} for −α_j
    assert euler_char(q, xi, build_complex(q, xi, (-1, 0), pivot=1)) == Y(1, 1)
    with pytest.raises(NotInSupport):
        build_complex(q, xi, (-1, 0), pivot=2)


def test_zero_vector_gives_unit():
    q, xi = a2()
    fc = build_complex(q, xi, (0, 0))
    assert fc.num.degrees() == [0]
    assert euler_char(q, xi, fc) == LaurentPoly.one()
    # the zero vector has no support, so no pivot can be forced on it
    with pytest.raises(NotInSupport):
        build_complex(q, xi, (0, 0), pivot=1)


def _check_structure(quivers):
    for q in quivers:
        xi = default_height(q)
        for beta in positive_roots(q):
            fc = build_complex(q, xi, beta)
            rep = verify_d_squared(q, fc.num)
            assert rep["ok"], (q.arrows, beta, rep["violations"][:2])
            assert validate_components(q, xi, fc.num)
            exact = verify_exactness(q, xi, fc)
            assert exact["ok"], (q.arrows, beta, exact["failures"][:2])


def test_structure_checks_over_a3_roots():
    _check_structure(all_orientations("A", 3))


def test_structure_checks_over_e6_sample():
    # the exactness check has no rank cap: it runs on E6 as on A3
    _check_structure(sample_orientations("E", 6, 4, seed=1))


def test_denominator_is_the_positive_part_of_beta():
    # C[β] carries β, and den is derived from it on each read: β's positive
    # part at every canonical and forced-pivot build, so empty at 0 and −α_j
    for n in (2, 3, 4):
        for q in all_orientations("A", n):
            xi = default_height(q)
            builds = {((0,) * n, None)}
            for j in q.vertices:
                minus = tuple(-v for v in simple_root(q, j))
                builds |= {(minus, None), (minus, j)}
            for beta in positive_roots(q):
                pivots = (None, *beta_combinatorics(q, xi, beta).pivot_candidates)
                builds |= {(beta, p) for p in pivots}
            for beta, pivot in builds:
                fc = build_complex(q, xi, beta, pivot=pivot)
                assert fc.beta == beta
                assert type(fc.den) is MappingProxyType
                assert fc.den == {k: b for k, b in enumerate(beta, 1) if b > 0}, (beta, pivot)


def test_exactness_check_reads_the_degree_zero_identity():
    # clause (1): the degree-0 term is the single summand Y[β]·Y^den.  A
    # dominant but wrong summand, a doubled one, an extra degree-0
    # summand and a missing degree 0 each fail it; the build passes
    q, xi = a2()
    fc = build_complex(q, xi, (1, 1))
    (lead,) = fc.num.terms[0]
    # Y[(1, 1)] = Y(2, ξ(2)−2) on 1 → 2, times Y(1, ξ(1))·Y(2, ξ(2))
    assert lead == enc(xi, {("Y", 2, xi.ht(2) - 2): 1, ("Y", 1, 1): 1, ("Y", 2, 0): 1})
    assert verify_exactness(q, xi, fc) == {"ok": True, "failures": []}
    hand_made = [
        [0],
        [lead + lead],
        [lead, lead],
        [lead, 0],
    ]
    for row in hand_made:
        rep = verify_exactness(q, xi, FractionComplex(Complex({0: row}), (1, 1)))
        assert rep == {
            "ok": False,
            "failures": ["degree-0 term is not the single summand Y[β]·Y^den"],
        }, row
    shifted = FractionComplex(Complex({1: [lead]}), (1, 1))
    assert not verify_exactness(q, xi, shifted)["ok"]
    # the base cases carry no denominator: Y[β] alone
    for beta in [(0, 0), (-1, 0), (0, -1)]:
        base = build_complex(q, xi, beta)
        assert verify_exactness(q, xi, base)["ok"], beta
        assert not verify_exactness(q, xi, FractionComplex(base.num, (1, 1)))["ok"], beta


def test_complex_json_schema():
    q, xi = a2()
    j = complex_to_json(q, xi, build_complex(q, xi, (1, 1)))
    assert set(j) == {"denominator", "terms", "differentials"}
    assert j["denominator"] == {"1": 1, "2": 1}
    assert set(j["terms"]) == {"0", "1", "2"}
    for row in j["terms"].values():
        for obj in row:
            assert {"multiset", "gens", "deltas"} <= set(obj)
    assert j["differentials"] == {
        "0": [[0, 0, "eta_2", 1]],
        "1": [[0, 0, "eta_1", -1]],
    }


def test_built_complex_is_read_only():
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    before = qchar_euler(q, xi, (1, 1, 1))
    fc = build_complex(q, xi, (1, 1, 1))
    for view in (fc.den, fc.num.terms, fc.num.diffs):
        with pytest.raises(AttributeError):
            view.clear()
        with pytest.raises(TypeError):
            view[0] = ()
    assert qchar_euler(q, xi, (1, 1, 1)) == before


def test_built_summands_are_classes():
    # a summand is its class: an int of the height's packing, which decodes
    # to an immutable tuple of (variable, exponent) pairs in canonical order
    # and encodes back to itself (Obj is covered in test_objects.py)
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    fc = build_complex(q, xi, (1, 1, 1))
    for row in fc.num.terms.values():
        assert type(row) is tuple
        for c in row:
            m = xi.classes.decode(c)
            assert type(c) is int and xi.classes.encode(m) == c, c
            assert m == mono_from_dict(dict(m)), m
            assert all(type(key) is tuple and type(e) is int for key, e in m), m
    assert validate_components(q, xi, fc.num)


def test_built_summands_are_read_only():
    # a built summand is an immutable class int, and the object it
    # materialises to is read-only as well
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    fc = build_complex(q, xi, (1, 1, 1))
    for row in fc.num.terms.values():
        for m in row:
            with pytest.raises(TypeError):
                m[0] = ((1, 0), 1)
            obj = class_object(q, xi, m)
            with pytest.raises(AttributeError):
                obj.mult.clear()
            with pytest.raises(TypeError):
                obj.mult[ZVertex(1, 0)] = 1
    assert validate_components(q, xi, build_complex(q, xi, (1, 1, 1)).num)


def test_built_summands_cannot_be_reassigned():
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    before = qchar_euler(q, xi, (1, 1, 1))
    for m in (m for row in build_complex(q, xi, (1, 1, 1)).num.terms.values() for m in row):
        obj = class_object(q, xi, m)
        for name in ("fun", "mult"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        for view in (obj.fun.gens, obj.fun.deltas):
            with pytest.raises(AttributeError):
                view.clear()
            with pytest.raises(TypeError):
                view[ZVertex(1, 0)] = 1
        with pytest.raises(AttributeError):
            obj.fun.gens = {}
    assert qchar_euler(q, xi, (1, 1, 1)) == before


def test_fraction_complex_is_frozen():
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    fc = build_complex(q, xi, (1, 1, 1))
    den = dict(fc.den)
    with pytest.raises(FrozenInstanceError):
        fc.den = {9: 9}
    with pytest.raises(FrozenInstanceError):
        fc.num = single_complex(0)
    with pytest.raises(FrozenInstanceError):
        fc.beta = (2, 2, 2)
    assert dict(build_complex(q, xi, (1, 1, 1)).den) == den


# ------------------------------------------------------ connector search


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
)
def test_connectors_match_per_leaf_oracle(monkeypatch, family, rank):
    # every cone of every pivot build, sub-builds included (fresh memo);
    # on D5 the search cuts branches, so the referee sees it backtrack
    library = complexes._resolve_connectors
    join = complexes._join_parities
    matched = []
    cuts = []

    def counted(classes, equations):
        joined = join(classes, equations)
        cuts.append(joined is None)
        return joined

    def refereed(q, xi, i, dom, cod):
        got = library(q, xi, i, dom, cod)
        assert got == resolve_connectors_per_leaf(q, xi, i, dom, cod)
        matched.append(sum(len(conns) for conns in got.values()))
        return got

    monkeypatch.setattr(complexes, "_resolve_connectors", refereed)
    monkeypatch.setattr(complexes, "_join_parities", counted)
    complexes._canonical_build.cache_clear()
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for beta in positive_roots(q):
            for p in beta_combinatorics(q, xi, beta).pivot_candidates:
                build_complex(q, xi, beta, pivot=p)
    assert sum(matched) > 0
    if (family, rank) == ("D", 5):
        assert sum(cuts) > 0


def _pivot_builds(families):
    """(q, xi, build) for every pivot candidate of every positive root of
    every orientation, in all_orientations / positive_roots order."""
    for family, rank in families:
        for q in all_orientations(family, rank):
            xi = default_height(q)
            for beta in positive_roots(q):
                for p in beta_combinatorics(q, xi, beta).pivot_candidates:
                    yield q, xi, build_complex(q, xi, beta, pivot=p)


def test_pivot_builds_match_golden_digest():
    # the Euler-route builds are facts: any change to the object or complex
    # layer must leave every byte that complex_to_json prints unchanged
    families = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
    digest = hashlib.sha256()
    count = 0
    for q, xi, fc in _pivot_builds(families):
        digest.update(json.dumps(complex_to_json(q, xi, fc), sort_keys=True).encode())
        count += 1
    assert count == 929
    assert digest.hexdigest() == "0fcce6d4190d7c52db65feb6e545b47adc0cbd84441622e9a0caead187e8734b"


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_one_pass_tensor_matches_tensor_complex(family, rank):
    # _tensor_between(l·r, k, C, m) is single(l, k) ⊗ C ⊗ single(r, m)
    for q, xi, fc in _pivot_builds([(family, rank)]):
        l, r = K(xi, 1), F(xi, rank)
        for k in range(3):
            for m in range(3):
                got = complexes._tensor_between(l + r, k, fc.num, m)
                want = tensor_complex(
                    tensor_complex(single_complex(l, k), fc.num), single_complex(r, m)
                )
                assert (got.terms, got.diffs) == (want.terms, want.diffs), (k, m)


@pytest.mark.parametrize("orientation", [1, 9, 22, 25])
def test_e6_euler_route_finishes(monkeypatch, orientation):
    # a search that rebuilds the whole ledger at every complete matching
    # passes 20,000 solver calls on (1,2,3,2,1,1) of orientation 1 alone
    # without finishing; one that closes a square only once every key
    # read from its dom summand is decided makes over 230,000 calls on
    # each of orientations 9, 22 and 25
    q = list(all_orientations("E", 6))[orientation]
    xi = default_height(q)
    join = complexes._join_parities
    calls = []

    def budgeted(classes, equations):
        calls.append(1)
        if len(calls) > 5000:
            raise RuntimeError("connector search over its budget of 5,000 solver calls")
        return join(classes, equations)

    monkeypatch.setattr(complexes, "_join_parities", budgeted)
    complexes._canonical_build.cache_clear()
    for beta in positive_roots(q):
        assert qchar_euler(q, xi, beta) == qchar_recursion(q, xi, beta), beta
        # the class lookup's connectors are real tilts on E6 too
        fc = build_complex(q, xi, beta)
        assert validate_components(q, xi, fc.num), beta
        assert verify_d_squared(q, fc.num)["ok"], beta


@pytest.mark.parametrize("side", ["left", "right"])
def test_dangling_component_is_an_engine_error(side):
    # the check must raise even under python -O, so not as an assert
    q, xi = a2()
    y = enc(xi, {("Y", 1, 1): 1})
    k1, t = k1_and_tilt(q, xi)
    c = Complex({0: [k1], 1: [t]}, {0: [Component(0, 0, ("eta", 1), 1)]})
    c.terms = {0: c.terms[0]}  # the component now points at a missing degree
    pair = (c, single_complex(y, 0)) if side == "left" else (single_complex(y, 0), c)
    with pytest.raises(InvariantViolation):
        tensor_complex(*pair)


def test_builds_and_validation_build_no_object(monkeypatch):
    # the build's two exchange identities and validate_components are
    # checked on classes: with the one tensor pass that makes objects
    # broken, every pivot build of A2–A4 (sub-builds included, fresh memo)
    # and its component check still run
    def no_objects(pairs):
        raise AssertionError("a summand object was built")

    monkeypatch.setattr(objects, "_tensor_powers", no_objects)
    complexes._canonical_build.cache_clear()
    for rank in (2, 3, 4):
        for q in all_orientations("A", rank):
            xi = default_height(q)
            for beta in positive_roots(q):
                for p in beta_combinatorics(q, xi, beta).pivot_candidates:
                    fc = build_complex(q, xi, beta, pivot=p)
                    assert validate_components(q, xi, fc.num), (q.arrows, beta, p)
    with pytest.raises(AssertionError, match="object was built"):
        class_object(q, xi, fc.num.terms[0][0])


@pytest.mark.parametrize("broken", ["leading_object", "cone", "serre_tilt"])
def test_degree_zero_violation_is_an_engine_error(monkeypatch, broken):
    # a forced pivot bypasses the build memo, so the checks run.  The
    # checks read the Y[β] class and the tilt's Serre images: a wrong Y[β]
    # class fails the degree-0 identity, and a tilt that leaves its
    # members in place fails the tilt identity
    q, xi = a2()
    if broken == "leading_object":
        monkeypatch.setattr(complexes, "_dominant_class", lambda *args: 0)
    elif broken == "serre_tilt":
        # build once unbroken, so the cached ghost objects keep their
        # true Serre images and only the check's own reading breaks; the
        # tilt outcomes are cached per quiver, so drop the true ones
        build_complex(q, xi, (1, 1), pivot=1)
        monkeypatch.setattr(objects, "serre", lambda q, z: z)
        objects._tilt_outcome.cache_clear()
    else:
        two = Complex({0: [0, 0]})
        monkeypatch.setattr(complexes, "cone", lambda *args, **kwargs: two)
    try:
        with pytest.raises(InvariantViolation):
            build_complex(q, xi, (1, 1), pivot=1)
    finally:
        # and no outcome decided under the broken Serre map outlives the test
        objects._tilt_outcome.cache_clear()


# ------------------------------------------------- one-pass kernels, moved checks


def _euler_by_substitution(xi, fc, specialize_f):
    """The Euler characteristic as a composition of ring operations: the
    signed class sum as a polynomial, every f_i substituted by the
    constant (laurent_oracle's term-by-term referee), then an exact
    division by Y^β."""
    signed = {}
    for n, row in fc.num.terms.items():
        for c in row:
            m = xi.classes.decode(c)
            signed[m] = signed.get(m, 0) + (-1) ** n
    total = LaurentPoly(signed)
    if specialize_f is not None:
        subs = {
            var: LaurentPoly.monomial(MONO_ONE, specialize_f)
            for var in total.variables()
            if var[0] == "f"
        }
        if subs:
            total = laurent_oracle.substitute(total, subs)
    den = mono_from_dict({("Y", k, xi.ht(k)): b for k, b in fc.den.items()})
    return total.exact_div(LaurentPoly.monomial(den))


def _outcome(f, *args):
    """f's value with its term order, or the type and text of what it raised."""
    try:
        poly = f(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)
    return list(poly.terms.items())


SPECIALIZATIONS = [None, -1, 1, 2]


def test_euler_char_matches_substitution_then_division():
    # every pivot build of A2–A4 and every canonical root build of an E6
    # sample, at each specialization of the ghosts
    builds = list(_pivot_builds([("A", 2), ("A", 3), ("A", 4)]))
    for q in sample_orientations("E", 6, 1, seed=1):
        xi = default_height(q)
        builds += [(q, xi, build_complex(q, xi, beta)) for beta in positive_roots(q)]
    assert len(builds) == 119 + 36
    for q, xi, fc in builds:
        for f in SPECIALIZATIONS:
            want = _euler_by_substitution(xi, fc, f)
            assert _outcome(euler_char, q, xi, fc, f) == list(want.terms.items()), f


def test_euler_char_negative_ghost_power_raises_as_substitution_does():
    # hand-made classes with f_1^{-1}: exact at ±1 and unspecialized, and
    # InexactDivision at 2 where the referee substitution raises too (its
    # text differs, so euler_char's own is pinned); a class whose signs
    # cancel is never specialized, so it raises nowhere
    q, xi = a2()
    y, yk = enc(xi, {("Y", 1, 1): 1}), enc(xi, {("Y", 2, 0): 2})
    inverse_ghost = enc(xi, {("f", 1): -1, ("Y", 1, 1): 1})
    squared = enc(xi, {("f", 1): 2, ("f", 2): -3, ("Y", 2, 0): 1})
    hand_made = [
        FractionComplex(Complex({0: [inverse_ghost]}), (1, 0)),
        FractionComplex(Complex({0: [y, squared], 1: [inverse_ghost]}), (1, 1)),
        FractionComplex(Complex({0: [inverse_ghost, yk], 1: [inverse_ghost]}), (0, 1)),
        FractionComplex(Complex({0: [squared], 2: [yk], 3: [y]}), (0, 0)),
    ]
    raised = 0
    for fc in hand_made:
        for f in SPECIALIZATIONS:
            want = _outcome(_euler_by_substitution, xi, fc, f)
            got = _outcome(euler_char, q, xi, fc, f)
            if want[0] is complexes.InexactDivision:
                assert got == (want[0], "cannot invert non-unit coefficient in substitution")
                raised += 1
            else:
                assert got == want, (fc.num, f)
    assert raised == 3
    with pytest.raises(TypeError):
        euler_char(q, xi, hand_made[0], specialize_f=-1.0)


def _mapped_report(rep, k, m):
    """A d² report of l ⊗ C ⊗ r read back onto C: degrees down by k + m,
    component signs times (−1)^k."""
    flip = -1 if k % 2 else 1
    return {
        "ok": rep["ok"],
        "violations": [
            {
                "degree": v["degree"] - k - m,
                "first": (*v["first"][:3], v["first"][3] * flip),
                "second": (*v["second"][:3], v["second"][3] * flip),
                "group_sum": v["group_sum"],
            }
            for v in rep["violations"]
        ],
    }


def test_tensored_side_has_its_sub_builds_d_squared_report():
    # a cone side is l ⊗ C ⊗ r with one summand on each side, so its d²
    # report is C's moved up k + m degrees, the signs twisted by (−1)^k:
    # checked on every canonical build of A2–A4, as built and with one
    # component sign broken
    checked = broken = 0
    for rank in (2, 3, 4):
        for q in all_orientations("A", rank):
            xi = default_height(q)
            l, r = K(xi, 1), F(xi, rank)
            for beta in positive_roots(q):
                c = build_complex(q, xi, beta).num
                variants = [c]
                if c.diffs:
                    n = min(c.diffs)
                    first, *rest = c.diffs[n]
                    flipped = [first._replace(sign=-first.sign), *rest]
                    variants.append(Complex(c.terms, {**c.diffs, n: flipped}))
                for cx in variants:
                    want = verify_d_squared(q, cx)
                    for k in range(4):
                        for m in (0, 2):
                            side = complexes._tensor_between(l + r, k, cx, m)
                            assert _mapped_report(verify_d_squared(q, side), k, m) == want
                    checked += 1
                    broken += not want["ok"]
    assert checked > 200 and broken > 5


def test_broken_cone_sign_raises_when_the_build_is_made(monkeypatch):
    # every canonical build checks its own d² ledger once: with the first
    # connector's sign flipped in every cone, C[(1,1,1)] of A3 1←2→3
    # raises as it is made, though nothing reads its ledger afterwards
    q = build_quiver("A", 3, [(2, 1), (2, 3)])
    xi = default_height(q)
    cone_ = complexes.cone

    def flipped(dom, cod, connectors=None):
        connectors = {n: list(conns) for n, conns in (connectors or {}).items()}
        if connectors:
            s, t, tag, sign = connectors[min(connectors)][0]
            connectors[min(connectors)][0] = (s, t, tag, -sign)
        return cone_(dom, cod, connectors)

    monkeypatch.setattr(complexes, "cone", flipped)
    complexes._canonical_build.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match=r"d² ledger of C\[\(1, 1, 1\)\]"):
            build_complex(q, xi, (1, 1, 1))
    finally:
        # no build made with the broken sign outlives the test
        complexes._canonical_build.cache_clear()
