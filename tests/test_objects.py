"""Object calculus: constructors, tilts, factorization, exchange identities."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

import qhammock.complexes as complexes
import qhammock.hammock as hammock
import qhammock.objects as objects
from qhammock import (
    ZVertex,
    all_orientations,
    arrows_out,
    base_vertex,
    beta_combinatorics,
    build_complex,
    build_quiver,
    default_height,
    positive_roots,
    sample_orientations,
    serre,
    suspend,
    translate,
    translate_base,
    window_vertices,
)
from qhammock.errors import InvariantViolation, NotContained, NotDominant, ParityViolation
from qhammock.hammock import QFun, hammock_fun, hom_values
from qhammock.laurent import mono_from_dict, mono_mul
from qhammock.objects import (
    Obj,
    class_object,
    dominant_exponents,
    dominant_monomial,
    factor_dominant,
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
from qhammock.quiver import b_vector, root_support

from connector_oracle import tiltable
from object_oracle import leading_object_by_copies, qfun_equal_by_evaluation


def a2():
    q = build_quiver("A", 2, [(1, 2)])
    return q, default_height(q)


# ------------------------------------------------------------- raw objects


def test_obj_invariants():
    with pytest.raises(ValueError):
        Obj({ZVertex(1, 1): -1})
    a = Obj({ZVertex(1, 1): 0, ZVertex(2, 0): 2})
    assert a.mult == {ZVertex(2, 0): 2}
    assert a.size() == 2
    assert repr(a) == "Obj{(2,0)^2}"
    u = Obj()
    assert u.size() == 0 and u == Obj({}, QFun())
    # an object is its multiset and function, and a product also its
    # factors, from which it sums the multiset on first read; classes are
    # computed apart
    assert Obj.__slots__ == ("mult", "fun", "_factors")
    assert a._factors == () and u._factors == ()


def test_hammock_object_carries_hom_multiset():
    q, xi = a2()
    x = ZVertex(1, 1)
    a = hammock_object(q, xi, x)
    assert a.mult == {ZVertex(1, 1): 1, ZVertex(2, 2): 1}


def test_kr_object_class():
    q, xi = a2()
    k1 = kr_object(q, xi, 1)
    assert k1 == tensor_obj(
        hammock_object(q, xi, translate_base(xi, 1)), hammock_object(q, xi, base_vertex(xi, 1))
    )
    # Y(1,-1) carries {(1,-1),(2,0)}, Y(1,1) carries {(1,1),(2,2)}
    assert k1.size() == 4
    assert k1.mult == {
        ZVertex(1, -1): 1,
        ZVertex(2, 0): 1,
        ZVertex(1, 1): 1,
        ZVertex(2, 2): 1,
    }


def test_ghost_object():
    q, xi = a2()
    tx1 = translate_base(xi, 1)
    f1 = ghost_object(q, xi, tx1)

    assert f1.mult == {serre(q, tx1): 1, suspend(q, tx1): 1}
    assert f1.fun == QFun()
    # memoised like hammock_object; an invalid vertex raises on every call
    assert ghost_object(q, xi, tx1) is f1
    x = ZVertex(1, 1)
    assert ghost_object(q, xi, x).mult == {serre(q, x): 1, suspend(q, x): 1}
    for _ in range(2):
        with pytest.raises(ParityViolation):
            ghost_object(q, xi, ZVertex(1, 0))


def test_class_object_refuses_keys_no_summand_has():
    # a Complex is public input, so a class is checked when it is read
    q, xi = a2()
    k1 = kr_object(q, xi, 1)
    assert class_object(q, xi, mono_from_dict({("Y", 1, -1): 1, ("Y", 1, 1): 1})) == k1
    f2 = ghost_object(q, xi, translate_base(xi, 2))
    assert class_object(q, xi, mono_from_dict({("f", 2): 2})) == obj_pow(f2, 2)
    for bad in (
        {("Y", 1, 1): -1},  # a negative exponent
        {("f", 1): 1, ("Y", 2, -2): 2, ("Y", 2, 0): -1},
        {("Y", 1, 3): 1},  # vertex 1 sits at slots 1 and -1
        {("Y", 3, 0): 1},  # no vertex 3
        {("f", 0): 1},
        {("x", 1): 1},
    ):
        with pytest.raises(ValueError):
            class_object(q, xi, mono_from_dict(bad))


def test_tensor_and_power():
    q, xi = a2()
    y = hammock_object(q, xi, ZVertex(1, 1))
    sq = tensor_obj(y, y)
    assert sq == obj_pow(y, 2)
    assert sq.mult == {ZVertex(1, 1): 2, ZVertex(2, 2): 2}
    assert obj_pow(y, 0) == Obj()
    with pytest.raises(ValueError):
        obj_pow(y, -1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_power_equals_repeated_tensor(family, rank):
    # obj_pow scales by n; it must agree with tensoring n copies
    q = next(iter(all_orientations(family, rank)))
    xi = default_height(q)
    y = hammock_object(q, xi, base_vertex(xi, 1))
    objs = [
        y,
        hammock_object(q, xi, ZVertex(1, xi.ht(1) + 2)),  # off the base sections
        ghost_object(q, xi, translate_base(xi, 2)),
        kr_object(q, xi, rank),
        serre_tilt(q, tensor_obj(y, y), [base_vertex(xi, 1)]),  # tilted
    ]
    for a in objs:
        for n in range(6):
            pow_n, copies = obj_pow(a, n), tensor_obj(*[a] * n)
            assert pow_n.canonical() == copies.canonical(), (a, n)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_leading_object_matches_copy_oracle(family, rank):
    # and dominant_monomial, read off the same factors, names Y[β]
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for beta in itertools.product(range(7), repeat=rank):
            if any(beta) and sum(beta) <= 6:
                got, want = leading_object(q, xi, beta), leading_object_by_copies(q, xi, beta)
                assert got.canonical() == want.canonical(), (q.arrows, beta)
                assert class_object(q, xi, dominant_monomial(q, xi, beta)) == got, (q.arrows, beta)


# ------------------------------------------------- shared hammock objects


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_hammock_object_is_built_once(family, rank):
    # every vertex of both base sections and of a window off them
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for x in window_vertices(q, min(xi.values) - 6, max(xi.values) + 6):
            obj = hammock_object(q, xi, x)
            fresh = Obj(hom_values(q, x), hammock_fun(q, x))
            assert obj.canonical() == fresh.canonical(), x
            assert hammock_object(q, xi, (x.i, x.p)).canonical() == fresh.canonical(), x
            assert hammock_object(q, xi, x) is obj


def test_shared_hammock_object_cannot_be_edited():
    q, xi = a2()
    for x in (base_vertex(xi, 1), translate_base(xi, 2), ZVertex(1, 5)):
        obj = hammock_object(q, xi, x)
        before = obj.canonical()
        edits = [
            lambda: setattr(obj, "mult", {}),
            lambda: delattr(obj, "fun"),
            lambda: setattr(obj.fun, "gens", {}),
            lambda: obj.mult.__setitem__(x, 5),
            lambda: obj.fun.gens.__setitem__(x, 2),
            lambda: obj.fun.deltas.__setitem__(x, 1),
        ]
        for edit in edits:
            with pytest.raises((AttributeError, TypeError)):
                edit()
        again = hammock_object(q, xi, x)
        assert again is obj and again.canonical() == before
    # nothing is remembered for an invalid vertex: it raises every time
    for _ in range(2):
        for bad in (ZVertex(1, 0), (3, 1)):
            with pytest.raises(ParityViolation):
                hammock_object(q, xi, bad)


def _perturbed(g: QFun) -> list[QFun]:
    """g with an extra delta one translate left of its leftmost coefficient
    v, with an extra generator at v, and with one generator moved one
    translate to the right: each differs from g."""
    v = min([*g.gens, *g.deltas], key=lambda z: (z.p, z.i))
    out = [g + QFun({}, {translate(v): 1}), g + QFun({v: 1})]
    if g.gens:
        w = min(g.gens, key=lambda z: (z.p, z.i))
        gens = dict(g.gens)
        c = gens.pop(w)
        gens[translate(w, -1)] = gens.get(translate(w, -1), 0) + c
        out.append(QFun(gens, g.deltas))
    return out


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_qfun_equal_matches_evaluation_oracle(monkeypatch, family, rank):
    # every is_iso of every pivot build, sub-builds included (fresh memo)
    library = hammock.qfun_equal
    seen = []

    def refereed(q, f, g):
        got = library(q, f, g)
        assert got == qfun_equal_by_evaluation(q, f, g), (q.arrows, f, g)
        seen.append((q, f, g, got))
        return got

    monkeypatch.setattr(hammock, "qfun_equal", refereed)
    monkeypatch.setattr(objects, "qfun_equal", refereed)
    complexes._canonical_build.cache_clear()
    objects._tilt_outcome.cache_clear()
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for beta in positive_roots(q):
            for p in beta_combinatorics(q, xi, beta).pivot_candidates:
                build_complex(q, xi, beta, pivot=p)
    assert seen
    sample = [(q, f, g) for q, f, g, got in seen[:: max(1, len(seen) // 300)] if got]
    for q, f, g in sample:
        for h in _perturbed(g):
            assert library(q, f, h) is qfun_equal_by_evaluation(q, f, h) is False, (f, h)


# ------------------------------------------------------------------- tilts


def test_serre_tilt_moves_member():
    q, xi = a2()
    x = ZVertex(1, 1)
    y = hammock_object(q, xi, x)
    t = serre_tilt(q, y, [x])
    assert t.mult == {ZVertex(2, 2): 2}
    with pytest.raises(NotContained):
        serre_tilt(q, y, [ZVertex(2, 0)])
    with pytest.raises(NotContained):
        serre_tilt(q, y, [x, x])


def _assert_as_if_checked(o: Obj) -> None:
    """o, made by the trusted constructors, equals the same data passed
    through the checking ones, holds no zero entry, and refuses edits."""
    fresh = Obj(dict(o.mult), QFun(dict(o.fun.gens), dict(o.fun.deltas)))
    assert o.canonical() == fresh.canonical(), o
    for coeffs in (o.mult, o.fun.gens, o.fun.deltas):
        assert all(type(v) is ZVertex and c for v, c in coeffs.items()), (o, coeffs)
    v = ZVertex(1, 1)
    edits = [
        lambda: setattr(o, "mult", {}),
        lambda: setattr(o.fun, "deltas", {}),
        lambda: o.mult.__setitem__(v, 1),
        lambda: o.fun.gens.__setitem__(v, 1),
        lambda: o.fun.deltas.__setitem__(v, 1),
    ]
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit()


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_trusted_objects_match_checked_construction(family, rank):
    # the object of every summand class of every canonical and forced
    # build, and leading_object over a small orthant, come out of
    # _tensor_powers and serre_tilt
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for beta in positive_roots(q):
            pivots = beta_combinatorics(q, xi, beta).pivot_candidates
            for p in (None, *pivots):
                for row in build_complex(q, xi, beta, pivot=p).num.terms.values():
                    for m in row:
                        _assert_as_if_checked(class_object(q, xi, m))
        for beta in itertools.product(range(4), repeat=rank):
            if any(beta) and sum(beta) <= 4:
                _assert_as_if_checked(leading_object(q, xi, beta))


def test_trusted_construction_edge_cases():
    q, xi = a2()
    x = ZVertex(1, 1)
    y = hammock_object(q, xi, x)
    # the tilted member's count drops to zero: its key vanishes
    t = serre_tilt(q, y, [x])
    assert x not in t.mult and t.mult == {ZVertex(2, 2): 2}
    assert t.fun.deltas == {x: -1}
    # an empty tilt changes nothing
    same = serre_tilt(q, y, [])
    assert same.canonical() == y.canonical()
    _assert_as_if_checked(same)
    # a tensor whose deltas (or generators) cancel keeps no zero entry
    back = tensor_obj(t, Obj({}, QFun({}, {x: 1})))
    assert back.fun.deltas == {}
    flat = tensor_obj(y, Obj({}, QFun({x: -1})))
    assert flat.fun.gens == {}
    for o in (t, back, flat, tensor_obj(y, Obj()), obj_pow(y, 3)):
        _assert_as_if_checked(o)


def test_made_functions_keep_no_alias_of_their_inputs():
    # hammock._qfun keeps the maps it is handed: each maker hands it a
    # fresh dict or a presentation's own read-only view, so mutating the
    # caller's dicts afterwards changes none of the results
    q, xi = a2()
    x, y = translate_base(xi, 1), base_vertex(xi, 2)
    gens, deltas, mult = {x: 2, y: 1}, {x: 1}, {x: 3, y: 1}
    more_gens, more_deltas = {y: -1}, {x: -1, y: 4}
    a = Obj(mult, QFun(gens, deltas))
    b = Obj({y: 2}, QFun(more_gens, more_deltas))
    made = [
        a,
        b,
        serre_tilt(q, a, [x, x]),
        Obj({}, a.fun + b.fun),
        Obj({}, a.fun.scaled(3)),
        Obj({}, a.fun - a.fun),
        tensor_obj(a, b),
    ]
    before = [o.canonical() for o in made]
    for coeffs in (gens, deltas, mult, more_gens, more_deltas):
        for v in list(coeffs):
            coeffs[v] += 5
        coeffs[ZVertex(2, 4)] = 7
    assert [o.canonical() for o in made] == before
    assert made[5].fun.gens == {} and made[5].fun.deltas == {}
    for o in made:
        _assert_as_if_checked(o)


def test_tiltable_detects_admissible_vertices():
    q, xi = a2()
    assert tiltable(q, xi, kr_object(q, xi, 1)) == (1,)
    assert tiltable(q, xi, hammock_object(q, xi, base_vertex(xi, 2))) == ()


# ------------------------------------------------------- dominant calculus


def _assert_refused(q, xi, a, text):
    """Every reader of the exponents refuses a with the same NotDominant text."""
    for read in (dominant_exponents, root_of_dominant, factor_dominant):
        with pytest.raises(NotDominant) as exc:
            read(q, xi, a)
        assert str(exc.value) == text, (read.__name__, str(exc.value))


def test_dominant_exponents_reads_base_sections():
    q, xi = a2()
    k1 = kr_object(q, xi, 1)
    c, d = dominant_exponents(q, xi, k1)
    assert c == {1: 1, 2: 0} and d == {1: 1, 2: 0}
    t = serre_tilt(q, k1, [translate_base(xi, 1)])
    _assert_refused(q, xi, t, "function carries pointwise deltas")  # tilt leaves a delta
    off = hammock_object(q, xi, ZVertex(1, 3))
    _assert_refused(q, xi, off, f"generator {ZVertex(1, 3)} off the base sections")
    # a generator at a label outside the quiver is off the base sections
    # too: label 0 must not read the last vertex's height, nor rank + 1
    # fall off the end of the heights
    for v in (ZVertex(0, -2), ZVertex(0, 0), ZVertex(3, -2), ZVertex(3, 0)):
        _assert_refused(q, xi, Obj({}, QFun({v: 1})), f"generator {v} off the base sections")
    # the checks run deltas first, then each generator in turn, a negative
    # coefficient before a slot off the sections
    lo, up, far = translate_base(xi, 1), base_vertex(xi, 2), ZVertex(1, 3)
    negative = "negative generator coefficient at {}".format
    for gens, deltas, text in [
        ({up: -1}, {}, negative(up)),
        ({far: -1}, {}, negative(far)),
        ({ZVertex(0, 0): -2}, {}, negative(ZVertex(0, 0))),
        ({lo: 1, up: -1}, {}, negative(up)),
        ({far: 1, up: -1}, {}, f"generator {far} off the base sections"),
        ({up: -1, far: 1}, {}, negative(up)),
        ({far: -1}, {lo: 1}, "function carries pointwise deltas"),
    ]:
        _assert_refused(q, xi, Obj({}, QFun(gens, deltas)), text)


def _factor_dominant_by_dicts(q, xi, a):
    """factor_dominant as the dict recursion computed it before the
    exponents were read by slot: c and d by vertex from each generator's
    height, then a_i = max(0, c_i − d_i + Σ_{i→j} a_j) by ascending
    (height, label), for a dominant a."""
    c = dict.fromkeys(q.vertices, 0)
    d = dict.fromkeys(q.vertices, 0)
    for (i, p), coeff in a.fun.gens.items():
        (c if p == xi.ht(i) - 2 else d)[i] = coeff
    avec, slack = {}, {}
    for i in sorted(q.vertices, key=lambda k: (q.potential(k), k)):
        raw = c[i] - d[i] + sum(avec[j] for j in q.arrows_from(i))
        avec[i] = max(0, raw)
        if raw < 0:
            slack[i] = -raw
    k_exp = tuple((i, min(c[i], d[i])) for i in q.vertices if min(c[i], d[i]))
    return c, d, objects.Factorization(
        (), k_exp, tuple(sorted(slack.items())), tuple(avec[i] for i in q.vertices)
    )


def test_leading_object_a2_classes():
    q, xi = a2()
    want = {
        (1, 0): {("Y", 1, -1): 1},
        (0, 1): {("Y", 1, 1): 1, ("Y", 2, -2): 1},
        (1, 1): {("Y", 2, -2): 1},
    }
    for beta, mono in want.items():
        assert dominant_monomial(q, xi, beta) == mono_from_dict(mono)
        assert class_object(q, xi, mono_from_dict(mono)) == leading_object(q, xi, beta)


def test_leading_object_negative_simple():
    q, xi = a2()
    a = leading_object(q, xi, (0, -1))
    assert is_iso(q, a, hammock_object(q, xi, base_vertex(xi, 2)))
    with pytest.raises(NotDominant):
        leading_object(q, xi, (1, -1))
    with pytest.raises(NotDominant):
        leading_object(q, xi, (0, -2))


def test_root_of_dominant_inverts_leading_object():
    # round-trip on every orientation of A3 over a small positive box
    for q in all_orientations("A", 3):
        xi = default_height(q)
        for b1 in range(3):
            for b2 in range(3):
                for b3 in range(3):
                    beta = (b1, b2, b3)
                    if not any(beta):
                        continue
                    a = leading_object(q, xi, beta)
                    assert root_of_dominant(q, xi, a) == beta


def test_factor_dominant_round_trip():
    q, xi = a2()
    for beta in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        a = leading_object(q, xi, beta)
        fac = factor_dominant(q, xi, a)
        assert fac.k_exp == () and fac.h_exp == () and fac.f_list == ()
        assert fac.remainder == beta
        assert is_iso(q, a, reconstruct_factorization(q, xi, fac))
    k1 = kr_object(q, xi, 1)
    a = tensor_obj(k1, leading_object(q, xi, (1, 1)))
    fac = factor_dominant(q, xi, a)
    assert fac.k_exp == ((1, 1),)
    assert fac.remainder == (1, 1)
    assert is_iso(q, a, reconstruct_factorization(q, xi, fac))



def _b_reading(q, beta):
    """Y[β] as (vertex, on the base section, exponent) triples, read apart
    from the library: Y(base_j) for a negative simple −α_j, otherwise one
    triple per nonzero entry of quiver.b_vector, Y(τ base_i)^{b_i} for
    b_i > 0 and Y(base_i)^{−b_i} for b_i < 0."""
    if min(beta) < 0:
        (j,) = [k for k, b in enumerate(beta, 1) if b]
        assert beta[j - 1] == -1, beta
        return [(j, True, 1)]
    return [(i, b < 0, abs(b)) for i, b in zip(q.vertices, b_vector(q, beta)) if b]


def _leading_object_by_lookups(q, xi, beta):
    """Y[β] as one hammock_object lookup per b-vector factor."""
    factors = [
        (base_vertex(xi, i) if on_base else translate_base(xi, i), e)
        for i, on_base, e in _b_reading(q, beta)
    ]
    return objects._tensor_powers((hammock_object(q, xi, x), e) for x, e in factors)


def _dominant_monomial_by_reading(q, xi, beta):
    """Y[β]'s class from the b-vector reading, through mono_from_dict's sort."""
    return mono_from_dict(
        {("Y", i, xi.ht(i) - 2 * (not on_base)): e for i, on_base, e in _b_reading(q, beta)}
    )


def _orthant_and_negative_simples(rank):
    """Every orthant vector of sum ≤ 6, then each negative simple root."""
    vectors = [beta for beta in itertools.product(range(7), repeat=rank) if sum(beta) <= 6]
    return vectors + [tuple(-(k == j) for k in range(rank)) for j in range(rank)]


def _off_dominant(q, xi, a):
    """a's function with a delta added, with a generator off the two base
    sections, and with a negative generator coefficient."""
    gens = dict(a.fun.gens)
    return [
        Obj({}, QFun(gens, {translate_base(xi, 1): 1})),
        Obj({}, QFun({**gens, ZVertex(1, xi.ht(1) + 2): 1})),
        Obj({}, QFun({**gens, base_vertex(xi, 1): -1})),
    ]


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]
)
def test_section_table_matches_per_factor_lookups(family, rank):
    # leading_object takes its factors from the per-quiver section table
    # and writes its function by slot, and the exponents are read back by
    # slot: against the constructions they replace (the tensor pass over
    # the same factors, the dict recursion), on every orthant vector of
    # sum ≤ 6 and every negative simple root
    vectors = _orthant_and_negative_simples(rank)
    for q in all_orientations(family, rank):
        xi = default_height(q)
        pairs = objects._section_objects(q, xi)[0]
        for beta in vectors:
            a = leading_object(q, xi, beta)
            assert a.canonical() == _leading_object_by_lookups(q, xi, beta).canonical(), beta
            b = objects._tensor_powers(
                (pairs[i - 1][on_base][0], e) for i, on_base, e in _b_reading(q, beta)
            )
            assert dict(a.fun.gens) == dict(b.fun.gens), (q.arrows, beta)
            assert dict(a.fun.deltas) == dict(b.fun.deltas) == {}, (q.arrows, beta)
            assert dict(a.mult) == dict(b.mult), (q.arrows, beta)
            # with a Y(base_l) factor, the max-recursion clamps (frontier slack)
            slack = tensor_obj(a, hammock_object(q, xi, base_vertex(xi, sum(beta) % rank + 1)))
            for o in (a, slack):
                c, d, fac = _factor_dominant_by_dicts(q, xi, o)
                exps = dominant_exponents(q, xi, o)
                assert exps == (c, d) and all(list(m) == list(q.vertices) for m in exps)
                assert factor_dominant(q, xi, o) == fac, (q.arrows, beta)
                assert root_of_dominant(q, xi, o) == fac.remainder
            if min(beta) < 0:
                continue
            assert root_of_dominant(q, xi, a) == beta
            for bad in _off_dominant(q, xi, a):
                with pytest.raises(NotDominant):
                    root_of_dominant(q, xi, bad)
                with pytest.raises(NotDominant):
                    factor_dominant(q, xi, bad)
        # class_object reads the same table, and refuses as it did
        for key, e in [
            (("Y", 1, xi.ht(1) + 2), 1),
            (("Y", rank, xi.ht(rank) - 4), 2),
            (("Y", rank + 1, xi.ht(1)), 1),
            (("f", 0), 1),
            (("Y", 1, xi.ht(1)), -1),
            (("f", rank), -2),
        ]:
            with pytest.raises(ValueError) as exc:
                class_object(q, xi, ((key, e),))
            assert str(exc.value) == (
                f"class factor {key}^{e} is not a power on the two base sections"
            )


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]
)
def test_dominant_monomial_is_the_b_vector_reading(family, rank):
    # dominant_monomial emits its pairs in vertex order without a sort:
    # against the test's own reading of quiver.b_vector, sorted by
    # mono_from_dict, on every orthant vector of sum ≤ 6 and every
    # negative simple root
    vectors = _orthant_and_negative_simples(rank)
    for q in all_orientations(family, rank):
        xi = default_height(q)
        for beta in vectors:
            want = _dominant_monomial_by_reading(q, xi, beta)
            assert dominant_monomial(q, xi, beta) == want, (q.arrows, beta)


def test_dominant_monomial_is_the_b_vector_reading_on_e6():
    # the same reading on the roots of an E6 sample and each negative
    # simple root, and the class names the object Y[β]
    for q in sample_orientations("E", 6, 4, seed=1):
        xi = default_height(q)
        vectors = list(positive_roots(q)) + _orthant_and_negative_simples(6)[-6:]
        for beta in vectors:
            m = dominant_monomial(q, xi, beta)
            assert m == _dominant_monomial_by_reading(q, xi, beta), (q.arrows, beta)
            assert class_object(q, xi, m).canonical() == leading_object(q, xi, beta).canonical()


def test_refusal_texts_of_non_dominant_vectors():
    # a vector with a negative entry other than −α_j is refused by Y[β]'s
    # one reader, with the same text for the object and its class
    q = build_quiver("A", 4, [(1, 2), (3, 2), (3, 4)])
    xi = default_height(q)
    for beta in [(-1, -1, 0, 0), (-2, 0, 0, 0), (1, -1, 0, 0)]:
        for read in (leading_object, dominant_monomial):
            with pytest.raises(NotDominant) as exc:
                read(q, xi, beta)
            assert str(exc.value) == f"{beta} is neither nonnegative nor a negative simple root"


def test_factor_dominant_frontier_slack():
    # off the Y[β] family the max-recursion clamps a negative raw exponent,
    # and what it clamps away comes back as a Y(base_l) factor in h_exp
    q, xi = a2()
    a = hammock_object(q, xi, base_vertex(xi, 1))
    fac = factor_dominant(q, xi, a)
    assert fac.h_exp == ((1, 1),)
    assert fac.remainder == (0, 0)
    assert is_iso(q, a, reconstruct_factorization(q, xi, fac))
    q = build_quiver("A", 3, [(1, 2), (2, 3)])
    xi = default_height(q)
    a = tensor_obj(leading_object(q, xi, (0, 1, 1)), hammock_object(q, xi, base_vertex(xi, 1)))
    fac = factor_dominant(q, xi, a)
    assert fac.h_exp == ((1, 1),)
    assert fac.remainder == (0, 1, 1)
    assert is_iso(q, a, reconstruct_factorization(q, xi, fac))


# ------------------------------------------------------ deferred multisets


def _unsummed(o: Obj) -> bool:
    """o is a product whose multiset is not summed yet.  Reads the mult
    slot through its descriptor, which does not fill it."""
    try:
        Obj.mult.__get__(o, Obj)
    except AttributeError:
        return True
    return False


def _scaled(pairs) -> dict:
    """Σ n·m over (coefficient map m, n) pairs, zero entries dropped: the
    referee's own sum, sharing no code with objects."""
    total = Counter()
    for m, n in pairs:
        for v, c in m.items():
            total[v] += c * n
    return {v: c for v, c in total.items() if c}


def _assert_reads_like(q, make, eager):
    """Each read of a fresh product from make(), taken as its first read
    (the one that sums the multiset), agrees with the eager object of the
    same data, and so does the same read again."""
    reads = {
        "mult": lambda o: o.mult == eager.mult,
        "size": lambda o: o.size() == eager.size(),
        "==": lambda o: o == eager and eager == o,
        "hash": lambda o: hash(o) == hash(eager),
        "repr": lambda o: repr(o) == repr(eager),
        "json": lambda o: o.to_json_dict() == eager.to_json_dict(),
        "is_iso": lambda o: is_iso(q, o, eager) and is_iso(q, eager, o),
    }
    for name, read in reads.items():
        o = make()
        assert o.fun == eager.fun and _unsummed(o), name
        assert read(o), (name, o, eager)
        assert not _unsummed(o) and read(o), name


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]
)
def test_leading_object_sums_its_multiset_on_first_read(family, rank):
    # referee: Y[β] holds the hom multisets of its b-vector factors scaled
    # by the exponents, summed here.  The round trip never sums it, and
    # every first read agrees with the eager Obj(...) of the same data
    rng = random.Random(20261019 + 10 * rank)
    for q in all_orientations(family, rank):
        xi = default_height(q)
        sample = {tuple(rng.randrange(13) for _ in q.vertices) for _ in range(40)}
        sample.discard((0,) * rank)
        sample |= {tuple(-(k == j) for k in q.vertices) for j in q.vertices}
        for beta in sorted(sample):
            if min(beta) < 0:
                factors = [(base_vertex(xi, beta.index(-1) + 1), 1)]
            else:
                factors = [
                    (translate_base(xi, i) if b > 0 else base_vertex(xi, i), abs(b))
                    for i, b in zip(q.vertices, b_vector(q, beta))
                    if b
                ]
            eager = Obj(_scaled((hom_values(q, x), n) for x, n in factors), QFun(dict(factors)))
            o = leading_object(q, xi, beta)
            if min(beta) >= 0:
                assert root_of_dominant(q, xi, o) == beta, (q.arrows, beta)
            assert _unsummed(o), (q.arrows, beta)
            _assert_reads_like(q, lambda: leading_object(q, xi, beta), eager)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_class_object_sums_its_multiset_on_first_read(rank):
    # referee: the object of every summand class of every pivot build of
    # A2–A4 holds the hom multisets of its Y factors and the ghost pairs
    # {S z, Σ z}, z = τ base_i, of its f factors, scaled and summed here
    for q in all_orientations("A", rank):
        xi = default_height(q)
        classes = {
            m
            for beta in positive_roots(q)
            for p in beta_combinatorics(q, xi, beta).pivot_candidates
            for row in build_complex(q, xi, beta, pivot=p).num.terms.values()
            for m in row
        }
        for m in sorted(classes):
            mult, gens = [], {}
            for key, e in m:
                if key[0] == "f":
                    z = translate_base(xi, key[1])
                    mult.append(({serre(q, z): 1, suspend(q, z): 1}, e))
                else:
                    x = ZVertex(key[1], key[2])
                    mult.append((hom_values(q, x), e))
                    gens[x] = e
            eager = Obj(_scaled(mult), QFun(gens))
            _assert_reads_like(q, lambda: class_object(q, xi, m), eager)


def test_tensor_and_power_sum_their_multisets_on_first_read():
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    xi = default_height(q)
    y = hammock_object(q, xi, base_vertex(xi, 1))
    objs = [
        y,
        hammock_object(q, xi, ZVertex(1, xi.ht(1) + 2)),  # off the base sections
        ghost_object(q, xi, translate_base(xi, 2)),
        serre_tilt(q, tensor_obj(y, y), [base_vertex(xi, 1)]),  # carries a delta
        Obj({ZVertex(2, 0): 3}, QFun({ZVertex(3, 1): -1}, {ZVertex(1, 1): 2})),
    ]

    def data(pairs):
        pairs = list(pairs)
        fun = QFun(
            _scaled((a.fun.gens, n) for a, n in pairs),
            _scaled((a.fun.deltas, n) for a, n in pairs),
        )
        return Obj(_scaled((a.mult, n) for a, n in pairs), fun)

    for a, b in itertools.product(objs, repeat=2):
        _assert_reads_like(q, lambda: tensor_obj(a, b), data([(a, 1), (b, 1)]))
    for a, n in itertools.product(objs, (1, 2, 5)):
        _assert_reads_like(q, lambda: obj_pow(a, n), data([(a, n)]))
    # products of products: each factor that is still unsummed is summed
    # when the outer product is made, and the outer one waits for its read
    k1, lead = kr_object(q, xi, 1), leading_object(q, xi, (1, 2, 1))
    want = data([(k1, 1), (lead, 2)])
    _assert_reads_like(q, lambda: tensor_obj(k1, obj_pow(lead, 2)), want)
    _assert_reads_like(q, lambda: obj_pow(tensor_obj(k1, lead, lead), 1), want)
    # so a fold far deeper than the recursion limit reads its multiset
    acc = Obj()
    for _ in range(1500):
        acc = tensor_obj(acc, y)
    assert acc.mult == _scaled([(y.mult, 1500)]) and acc.fun == QFun({base_vertex(xi, 1): 1500})
    # the empty product is made with its (empty) multiset
    assert not _unsummed(obj_pow(y, 0)) and not _unsummed(tensor_obj())


def test_round_trip_sums_no_multiset(monkeypatch):
    # the round trip reads only the function: with the summing of a
    # product's multiset broken, leading_object → root_of_dominant still
    # holds on every orientation of A2–A4 over a box
    def no_multiset(self, name):
        raise AssertionError(f"a multiset was summed ({name})")

    monkeypatch.setattr(Obj, "__getattr__", no_multiset)
    for rank in (2, 3, 4):
        for q in all_orientations("A", rank):
            xi = default_height(q)
            for beta in itertools.product(range(4), repeat=rank):
                if any(beta):
                    assert root_of_dominant(q, xi, leading_object(q, xi, beta)) == beta
    with pytest.raises(AssertionError, match="multiset was summed"):
        repr(leading_object(q, xi, beta))


# --------------------------------------------------- exchange identities


def test_mutation_identity_window_a2():
    # tilting a single generator against its own vertex trades it for the
    # ghost at that vertex times the mesh neighbors
    for q in all_orientations("A", 2):
        xi = default_height(q)
        for v in window_vertices(q, -4, 4):
            lhs = tensor_obj(
                serre_tilt(q, hammock_object(q, xi, v), [v]),
                hammock_object(q, xi, translate(v, -1)),
            )
            rhs = tensor_obj(
                ghost_object(q, xi, v),
                *[hammock_object(q, xi, y) for y in arrows_out(q, v)],
            )
            assert is_iso(q, lhs, rhs)


def test_mutation_identity_spec_instance():
    # the named instance: mutating K_1 at the translated base vertex of
    # A2 yields the ghost there times Y at the base vertex of 2
    q, xi = a2()
    tx1 = translate_base(xi, 1)
    lhs = tensor_obj(
        serre_tilt(q, kr_object(q, xi, 1), [tx1]),
        hammock_object(q, xi, translate(tx1, -1)),
    )
    rhs = tensor_obj(
        ghost_object(q, xi, tx1),
        hammock_object(q, xi, base_vertex(xi, 1)),
        *[hammock_object(q, xi, y) for y in arrows_out(q, tx1)],
    )
    assert is_iso(q, lhs, rhs)


def _absorb_identity_holds(q, xi, beta, i):
    from qhammock.objects import absorb_frontier, frontier_injection_factor

    eps, beta_next = absorb_frontier(q, xi, beta, i)
    hin = frontier_injection_factor(q, xi, beta, i)
    lhs = tensor_obj(
        leading_object(q, xi, beta), hammock_object(q, xi, base_vertex(xi, i))
    )
    rhs = tensor_obj(
        obj_pow(kr_object(q, xi, i), eps),
        *[
            obj_pow(hammock_object(q, xi, base_vertex(xi, l)), m)
            for l, m in sorted(hin.items())
        ],
        leading_object(q, xi, beta_next),
    )
    return is_iso(q, lhs, rhs)


def _tilt_by_objects(q, xi, src, dst, zs):
    """The object route the class check replaces: is_iso of the tilted
    source and the target, or the type of the exception raised."""
    try:
        return is_iso(q, serre_tilt(q, class_object(q, xi, src), zs), class_object(q, xi, dst))
    except (ValueError, NotContained) as exc:
        return type(exc)


def _tilt_by_classes(q, xi, src, dst, zs):
    try:
        return objects._tilt_holds(q, xi, src, dst, zs)
    except (ValueError, NotContained) as exc:
        return type(exc)


def _tilt_cases(q, xi):
    """(src, dst, members) of every η component of every pivot build, and
    of each build's own tilt identity, whose members are the whole
    out-closure of the pivot."""
    for beta in positive_roots(q):
        for p in beta_combinatorics(q, xi, beta).pivot_candidates:
            c = build_complex(q, xi, beta, pivot=p).num
            for n, comps in c.diffs.items():
                for comp in comps:
                    z = translate_base(xi, comp.tag[1])
                    yield c.terms[n][comp.src], c.terms[n + 1][comp.dst], (z,)
            step = pivot_step(q, xi, beta, p)
            src = mono_mul(dominant_monomial(q, xi, beta), mono_from_dict({("Y", p, xi.ht(p)): 1}))
            ghosts = mono_from_dict({("f", j): 1 for j in step.tilt.f_list})
            dst = mono_mul(
                mono_mul(ghosts, step.tilt_class), dominant_monomial(q, xi, step.tilt.remainder)
            )
            yield src, dst, tuple(translate_base(xi, j) for j in step.tilt.f_list)


def _tilt_perturbations(q, xi, src, dst, zs):
    """The case itself and seven ways to break it: a factor more on dst or
    on src, the members moved to the next vertex (a wrong tag), dst with
    one factor removed, a negative exponent, an off-section key, and
    Y(base_1) as the source, which holds no member.  Where a member's
    Serre image is another τ base vertex (linear A_n), the members are
    also extended by those images, after them and before them, so an
    earlier member's image can count for a later one."""
    on_base = mono_from_dict({("Y", 1, xi.ht(1)): 1})
    tau = {translate_base(xi, j) for j in q.vertices}
    chain = tuple(objects.serre(q, z) for z in zs if objects.serre(q, z) in tau - set(zs))
    if chain:
        yield src, dst, zs + chain
        yield src, dst, chain + zs
    yield src, dst, zs
    yield on_base, dst, zs
    yield src, mono_mul(dst, on_base), zs
    yield mono_mul(src, mono_from_dict({("f", 1): 1})), dst, zs
    if q.rank > 1:
        yield src, dst, tuple(translate_base(xi, z.i % q.rank + 1) for z in zs)
    yield src, mono_mul(dst, ((dst[-1][0], -1),)), zs
    yield mono_mul(src, ((src[0][0], -src[0][1] - 1),)), dst, zs
    yield src, mono_mul(dst, mono_from_dict({("Y", 1, xi.ht(1) + 2): 1})), zs


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]
)
def test_tilt_holds_matches_object_route(family, rank):
    # the class check (objects._tilt_holds) against serre_tilt + is_iso on
    # class_objects: the same bool or the same exception type on every η
    # component and every build's multi-member tilt, real and perturbed.
    # Each case is decided cold (the outcome cache cleared before it) and
    # again warm, in reverse order, with every outcome of the quiver
    # cached, so a warm answer first decided for another source of the
    # same ratio must agree too.  On A1 the Serre image of τ base_1 is
    # τ base_1 itself.
    outcomes = set()
    for q in all_orientations(family, rank):
        xi = default_height(q)
        cases = dict.fromkeys(
            case
            for real in _tilt_cases(q, xi)
            for case in _tilt_perturbations(q, xi, *real)
        )
        wants = {}
        for src, dst, zs in cases:
            wants[src, dst, zs] = want = _tilt_by_objects(q, xi, src, dst, zs)
            objects._tilt_outcome.cache_clear()
            assert _tilt_by_classes(q, xi, src, dst, zs) == want, (q.arrows, src, dst, zs)
            outcomes.add(want)
        for src, dst, zs in cases:
            _tilt_by_classes(q, xi, src, dst, zs)
        for (src, dst, zs), want in reversed(wants.items()):
            assert _tilt_by_classes(q, xi, src, dst, zs) == want, (q.arrows, src, dst, zs)
    assert outcomes == {True, False, ValueError, NotContained}
    if family == "A" and rank == 1:
        z = translate_base(xi, 1)
        assert objects.serre(q, z) == z


def test_tilt_outcome_cache_keeps_the_per_call_checks():
    # the outcome of a (ratio, members) pair is cached per quiver, but the
    # factor keys and the containment count read the call's own classes.
    # On A2, the η_1 component of C[(1, 1)]: src Y(1,-1)·Y(1,1)·f_2,
    # dst Y(2,0)·f_1·f_2, member z = τ base_1
    q, xi = a2()
    c = build_complex(q, xi, (1, 1)).num
    (comp,) = c.diffs[1]
    src, dst = c.terms[1][comp.src], c.terms[2][comp.dst]
    z, w = translate_base(xi, comp.tag[1]), translate_base(xi, 3 - comp.tag[1])
    objects._tilt_outcome.cache_clear()
    assert objects._tilt_holds(q, xi, src, dst, [z])  # warm, holding
    # the same ratio with a bad key on both sides: class_object's ValueError
    off = mono_from_dict({("Y", 1, xi.ht(1) + 2): 1})
    with pytest.raises(ValueError, match="not a power on the two base sections"):
        objects._tilt_holds(q, xi, mono_mul(src, off), mono_mul(dst, off), [z])
    with pytest.raises(ValueError, match="not a power on the two base sections"):
        class_object(q, xi, mono_mul(src, off))
    neg = ((("Y", 2, xi.ht(2)), -1),)
    with pytest.raises(ValueError, match="not a power on the two base sections"):
        objects._tilt_holds(q, xi, mono_mul(src, neg), mono_mul(dst, neg), [z])
    # a source of a holding ratio holds its members (it holds the ratio's
    # negative part, by additivity), so containment is checked against a
    # ratio that fails: the same ratio tilted at w, once from a source
    # that holds w and once from src, which does not
    extra = mono_from_dict({("Y", w.i, w.p): 1})
    assert class_object(q, xi, src).mult.get(w, 0) == 0
    assert objects._tilt_holds(q, xi, mono_mul(src, extra), mono_mul(dst, extra), [w]) is False
    with pytest.raises(NotContained):
        objects._tilt_holds(q, xi, src, dst, [w])
    assert objects._tilt_holds(q, xi, src, dst, [z])
    # two outcomes decided; the last two calls read them
    info = objects._tilt_outcome.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2), info


def _tilt_identity_holds(q, xi, beta, i):
    from qhammock.objects import tilt_leading
    from qhammock.quiver import beta_combinatorics

    bd = beta_combinatorics(q, xi, beta)
    tilted = serre_tilt(
        q,
        tensor_obj(
            leading_object(q, xi, beta),
            hammock_object(q, xi, base_vertex(xi, i)),
        ),
        [translate_base(xi, j) for j in sorted(bd.out_closure[i])],
    )
    fac = tilt_leading(q, xi, beta, i)
    return is_iso(q, tilted, reconstruct_factorization(q, xi, fac))


def _head_classes_hold(q, xi, beta, i):
    """The exchange step's head classes name the heads of both identities:
    class_object(absorb_class) ⊗ Y[β_inj] ≅ Y[β] ⊗ Y(base_i), and the
    tilt of Y[β] ⊗ Y(base_i) over the out-closure of i is
    class_object(f-block · tilt_class) ⊗ Y[β − dim P_i]."""
    step = pivot_step(q, xi, beta, i)
    out_cl = sorted(beta_combinatorics(q, xi, beta).out_closure[i])
    lhs = tensor_obj(leading_object(q, xi, beta), hammock_object(q, xi, base_vertex(xi, i)))
    absorbed = tensor_obj(
        class_object(q, xi, step.absorb_class), leading_object(q, xi, step.beta_inj)
    )
    tilted = serre_tilt(q, lhs, [translate_base(xi, j) for j in out_cl])
    ghosts = mono_from_dict({("f", j): 1 for j in out_cl})
    tilt_head = class_object(q, xi, mono_mul(ghosts, step.tilt_class))
    remainder = leading_object(q, xi, step.tilt.remainder)
    return is_iso(q, lhs, absorbed) and is_iso(q, tilted, tensor_obj(tilt_head, remainder))


def test_absorb_and_tilt_identities_small():
    for q in all_orientations("A", 2):
        xi = default_height(q)
        for beta in positive_roots(q):
            for i in root_support(beta):
                assert _absorb_identity_holds(q, xi, beta, i)
                assert _tilt_identity_holds(q, xi, beta, i)
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    xi = default_height(q)
    for beta in positive_roots(q):
        for i in root_support(beta):
            assert _absorb_identity_holds(q, xi, beta, i)
            assert _tilt_identity_holds(q, xi, beta, i)
    # the head classes, at every support pivot of every root of A2–A5 and D4
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]:
        for q in all_orientations(family, rank):
            xi = default_height(q)
            for beta in positive_roots(q):
                for i in root_support(beta):
                    assert _head_classes_hold(q, xi, beta, i), (q.arrows, beta, i)


@pytest.mark.parametrize(
    "skew",
    [
        lambda fac: replace(fac, remainder=tuple(c + 1 for c in fac.remainder)),
        lambda fac: replace(fac, h_exp=((1, 1),)),
    ],
    ids=["remainder", "slack"],
)
def test_tilt_bookkeeping_failure_is_an_engine_error(monkeypatch, skew):
    # the two checks must raise even under python -O, so not as asserts
    real = objects._max_recursion
    monkeypatch.setattr(objects, "_max_recursion", lambda q, c, d: skew(real(q, c, d)))
    q = build_quiver("A", 3, [(1, 2), (3, 2)])
    with pytest.raises(InvariantViolation):
        objects.tilt_leading(q, default_height(q), (1, 1, 1), 1)
