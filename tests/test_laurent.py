"""Integer Laurent polynomial layer: canonical monomials, exact division."""

import heapq
import random

import pytest

import laurent_oracle
from qhammock import (
    LaurentPoly,
    MONO_ONE,
    all_orientations,
    beta_combinatorics,
    build_complex,
    default_height,
    mono_from_dict,
    mono_key_str,
    positive_roots,
    sample_orientations,
)
from qhammock.laurent import _div_rows, _mul_rows, _packing, mono_div, mono_mul, mono_pow
from qhammock.errors import InexactDivision
from qhammock.qchar import qchar_to_json


X1 = ("x", 1)
X2 = ("x", 2)
Y = ("Y", 2, -1)


def V(key, power=1):
    return LaurentPoly.variable(key, power)


def test_mono_canonical_form():
    m = mono_from_dict({X2: 3, X1: 1, Y: 0})
    assert m == ((X1, 1), (X2, 3))  # sorted, zero exponent dropped
    assert mono_from_dict({}) == MONO_ONE


def test_mono_arithmetic():
    a = mono_from_dict({X1: 2, Y: -1})
    b = mono_from_dict({X1: -2, X2: 5})
    assert mono_mul(a, b) == mono_from_dict({X2: 5, Y: -1})
    assert mono_pow(a, 3) == mono_from_dict({X1: 6, Y: -3})
    assert mono_pow(a, 0) == MONO_ONE
    assert mono_div(mono_mul(a, b), b) == a


def test_mono_key_str_format():
    assert mono_key_str(mono_from_dict({Y: 1})) == "Y:2:-1^1"
    assert mono_key_str(mono_from_dict({X1: -2, Y: 1})) == "Y:2:-1^1 x:1^-2"


def test_poly_ring_identities():
    x, y = V(X1), V(X2)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x - x == LaurentPoly.zero()
    assert x * LaurentPoly.zero() == LaurentPoly.zero()
    assert x * LaurentPoly.one() == x
    assert -(x - y) == y - x


def test_poly_equality_is_canonical():
    x, y = V(X1), V(X2)
    p = x + y + x  # 2x + y, accumulated in a messy order
    q = y + 2 * x
    assert p == q
    assert hash(p) == hash(q)
    assert p.canonical() == q.canonical()


def test_poly_cannot_be_edited():
    # memoised characters and cluster variables are shared with every caller
    p = V(X1) + 2 * V(X2)
    with pytest.raises(TypeError):
        p.terms[MONO_ONE] = 1
    with pytest.raises(TypeError):
        del p.terms[mono_from_dict({X1: 1})]
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(AttributeError):
        del p.terms
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p == LaurentPoly({mono_from_dict({X1: 1}): 1, mono_from_dict({X2: 1}): 2})


def test_arithmetic_leaves_its_operands_unchanged():
    x, y = V(X1), V(X2, -1)
    p, q = x + y, x - 3 * y
    want = (p.canonical(), q.canonical())
    p + q, p - q, -p, p * q, p * 3, p * 0, p**3, p.exact_div(V(X1)), (p * q).exact_div(q)
    assert (p.canonical(), q.canonical()) == want


def test_laurent_negative_powers():
    xinv = V(X1, -1)
    x = V(X1)
    assert xinv * x == LaurentPoly.one()
    assert (xinv * xinv * x) == xinv


def test_pow_is_the_repeated_product_without_a_wasted_square(monkeypatch):
    p = V(X1) + 2 * V(X2) - V(Y, -1)
    products = [LaurentPoly.one()]
    for _ in range(6):
        products.append(products[-1] * p)
    assert [p**n for n in range(7)] == products
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for n, most in ((1, 1), (2, 2)):
        calls.clear()
        power = p**n
        assert len(calls) <= most, (n, len(calls))
        assert power == products[n]


def test_pow_negative_refused():
    x = V(X1)
    with pytest.raises(ValueError):
        (x + x) ** -1


def test_exact_div_monomial_path():
    x, y = V(X1), V(X2)
    p = (x + y) * x
    assert p.exact_div(x) == x + y
    # Laurent direction: dividing by x^2 produces negative exponents
    assert p.exact_div(x * x) == LaurentPoly.one() + y * V(X1, -1)


def test_exact_div_general_and_refusal():
    x, y = V(X1), V(X2)
    assert (x * x - y * y).exact_div(x + y) == x - y
    assert (x * x * x - y * y * y).exact_div(x - y) == x * x + x * y + y * y
    with pytest.raises(InexactDivision):
        (x + y).exact_div(x - y)
    with pytest.raises(InexactDivision):
        (x + y + LaurentPoly.one()).exact_div(x + x)  # 2x doesn't divide
    with pytest.raises(InexactDivision):
        (x + LaurentPoly.one()).exact_div(2 * (x + LaurentPoly.one()))  # quotient 1/2


def test_exact_div_laurent_shift():
    # numerators and denominators with mixed negative exponents
    x, y = V(X1), V(X2)
    num = V(X1, -2) + V(X2, 1) * V(X1, -3)
    den = V(X1, -3)
    assert num.exact_div(den) == x + y


def test_constructor_rejects_non_int_coefficients():
    from fractions import Fraction

    with pytest.raises(TypeError):
        LaurentPoly({MONO_ONE: 1.0})
    with pytest.raises(TypeError):
        LaurentPoly({MONO_ONE: Fraction(1, 1)})
    with pytest.raises(TypeError):
        LaurentPoly({MONO_ONE: True})


def test_monomial_predicates():
    x = V(X1)
    assert x.is_monomial()
    assert not LaurentPoly.zero().is_monomial()
    assert (x + x).is_monomial()  # coefficient 2, single monomial
    assert not (x + V(X2)).is_monomial()
    m, c = (x + x).as_monomial()
    assert m == mono_from_dict({X1: 1}) and c == 2


def test_sorted_terms_and_json_deterministic():
    x, y = V(X1), V(X2)
    p = y + x * x - x * y
    once = p.sorted_terms()
    again = (x * x + y - x * y).sorted_terms()
    assert once == again
    assert qchar_to_json(p) == qchar_to_json(x * x - x * y + y)


def test_variables_collected():
    p = V(X1) * V(Y, -2) + V(X2)
    assert p.variables() == {X1, X2, Y}


# ---------------------------------------------------------------- packed rows

PACKED_VARS = [("X", 1), ("X", 2), ("X", 3), ("x", 1), ("x", 2), ("x", 3)]


def _random_poly(rng, terms):
    return LaurentPoly(
        {
            mono_from_dict({k: rng.randint(-3, 3) for k in rng.sample(PACKED_VARS, rng.randint(0, 4))}): rng.choice(
                [-3, -2, -1, 1, 2, 3]
            )
            for _ in range(terms)
        }
    )


def _same_as_referee(ours, referee):
    """The same quotient from both, or InexactDivision from both."""
    try:
        expected = referee()
    except InexactDivision:
        with pytest.raises(InexactDivision):
            ours()
        return False
    assert ours() == expected
    return True


def test_packed_division_matches_fraction_referee():
    # six columns with exponents on both sides of zero: exact, scaled and
    # plain divisions through the packed kernel decide as ℚ does
    rng = random.Random(29)
    exact = inexact = 0
    for _ in range(150):
        a, b = _random_poly(rng, rng.randint(1, 4)), _random_poly(rng, rng.randint(2, 4))
        if len(b) < 2:
            continue
        assert (a * b).exact_div(b) == a
        k, m = rng.choice([-2, 1, 3]), rng.choice([-2, 1, 2])
        for num, den in ((a * b * k, b * m), (a, b), (a * b + LaurentPoly.one(), b)):
            if _same_as_referee(lambda: num.exact_div(den), lambda: laurent_oracle.exact_div(num, den)):
                exact += 1
            else:
                inexact += 1
    assert exact > 50 and inexact > 50, (exact, inexact)


def test_heap_pops_rows_in_graded_lex_order():
    # the least packed int is the graded-lex leading row, and popping a
    # heap of packed rows walks them in graded-lex order, greatest first
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 6)
        pk = _packing(m)
        rows = list({tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randint(1, 12))})
        packed = [pk.pack(r) for r in rows]
        assert pk.exponents(min(packed)) == max(zip(map(sum, rows), rows))[1]
        heapq.heapify(packed)
        popped = [pk.exponents(heapq.heappop(packed)) for _ in rows]
        assert popped == [r for _, r in sorted(zip(map(sum, rows), rows), reverse=True)]
        assert all(pk.degree(pk.pack(r)) == sum(r) for r in rows)


def test_exponent_too_wide_for_its_field_raises():
    pk = _packing(3)
    top = pk.bias
    assert pk.exponents(pk.pack([top, 1 - top, 0])) == (top, 1 - top, 0)
    for row in ([top + 1, 0, 0], [0, -top, 0], [0, 0, 2 * top]):
        with pytest.raises(OverflowError):
            pk.pack(row)
    # products and quotients that would carry out of a field raise
    # instead of wrapping into the next column
    edge = {pk.pack([0, top, 0]): 1}
    with pytest.raises(OverflowError):
        _mul_rows(edge, {pk.pack([0, 1, 0]): 1}, pk)
    with pytest.raises(OverflowError):
        _mul_rows({pk.pack([0, 0, 1 - top]): 1}, {pk.pack([0, 0, -1]): 1}, pk)
    assert _mul_rows(edge, {pk.pack([1, -1, 0]): 2}, pk) == {pk.pack([1, top - 1, 0]): 2}
    # x^B + y^−5 over x + 1: a quotient row could climb to x^(B+4)
    num = {pk.pack([top, 0, 0]): 1, pk.pack([0, -5, 0]): 1}
    with pytest.raises(OverflowError):
        _div_rows(num, {pk.pack([1, 0, 0]): 1, pk.pack([0, 0, 0]): 1}, pk)
    # exact_div widens its fields to its exponents, up to 64 bits
    x, y = V(X1), V(X2)
    for n in (10, 1 << 20, 1 << 40):
        assert ((V(X1, n) + y) * (x + y)).exact_div(x + y) == V(X1, n) + y
    with pytest.raises(OverflowError):
        ((V(X1, 1 << 70) + y) * (x + y)).exact_div(x + y)


def _summand_classes(q):
    """The height of q and every summand class of every canonical and
    forced-pivot build of its positive roots, each class once, in order."""
    xi = default_height(q)
    seen = {}
    for beta in positive_roots(q):
        for p in (None, *beta_combinatorics(q, xi, beta).pivot_candidates):
            for row in build_complex(q, xi, beta, pivot=p).num.terms.values():
                seen.update(dict.fromkeys(row))
    return xi, list(seen)


REFEREE_QUIVERS = [
    *(q for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
      for q in all_orientations(family, rank)),
    *sample_orientations("E", 6, 4, seed=1),
]


@pytest.mark.parametrize("q", REFEREE_QUIVERS, ids=lambda q: f"{q.family}{q.rank}:{q.arrows}")
def test_packed_classes_match_the_monomial_arithmetic(q):
    # referee for the class packing: every summand class of every build
    # decodes to a canonical monomial that encodes back to it, distinct
    # classes are distinct monomials, and the sum and difference of two
    # classes decode to mono_mul and mono_div of their monomials
    xi, classes = _summand_classes(q)
    packing = xi.classes
    monos = [packing.decode(c) for c in classes]
    assert len(set(monos)) == len(classes)
    for c, m in zip(classes, monos):
        assert m == mono_from_dict(dict(m)) and packing.encode(m) == c, m
        assert packing.decode(packing.encode(m)) == m
    pairs = [*zip(classes, classes[1:] + classes[:1]), *zip(classes, reversed(classes))]
    for a, b in pairs:
        ma, mb = packing.decode(a), packing.decode(b)
        assert packing.decode(a + b) == mono_mul(ma, mb)
        assert packing.decode(a - b) == mono_div(ma, mb)
        assert packing.decode(0) == MONO_ONE == packing.decode(a - a)


@pytest.mark.parametrize("q", REFEREE_QUIVERS[:: len(REFEREE_QUIVERS) // 8])
def test_packed_class_overflow_raises_and_never_aliases(q):
    # an exponent beyond its field (−2^14, 2^14] is refused by the encoder,
    # and a sum or difference that leaves a field raises where it is read
    # or checked: the wrapped int is never taken for another class
    xi, classes = _summand_classes(q)
    packing = xi.classes
    for key in packing.keys:
        for e in (2**14 + 1, -(2**14), 2**20):
            with pytest.raises(OverflowError):
                packing.encode(((key, e),))
        top, low = packing.encode(((key, 2**14),)), packing.encode(((key, 1 - 2**14),))
        assert packing.decode(top) == ((key, 2**14),)
        for wide in (top + top, low + low, low - top, top - low):
            with pytest.raises(OverflowError):
                packing.decode(wide)
            with pytest.raises(OverflowError):
                packing.check(wide)
            with pytest.raises(OverflowError):
                packing.check_sums([*classes, wide])
        for c in classes[:5]:
            m = packing.decode(c)
            if dict(m).get(key, 0) > 0:
                with pytest.raises(OverflowError):
                    packing.decode(c + top)
    packing.check_sums(classes)
    with pytest.raises(OverflowError):
        packing.decode(2 ** (16 * len(packing.keys)))
