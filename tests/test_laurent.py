"""Integer Laurent polynomial layer: canonical monomials, exact division."""

import pytest

from qhammock import LaurentPoly, MONO_ONE, mono_from_dict, mono_key_str
from qhammock.laurent import mono_div, mono_mul, mono_pow
from qhammock.errors import InexactDivision


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
    p.substitute({X1: q, X2: x})
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


def test_substitute_basics():
    x, y = V(X1), V(X2)
    p = x * x + y
    assert p.substitute({X1: y}) == y * y + y
    assert p.substitute({}) == p
    # unmapped variables pass through
    assert p.substitute({X2: LaurentPoly.one()}) == x * x + LaurentPoly.one()


def test_substitute_negative_power_needs_monomial():
    x, y = V(X1), V(X2)
    inv = V(X1, -1)
    assert inv.substitute({X1: y * y}) == V(X2, -2)
    with pytest.raises(InexactDivision):
        inv.substitute({X1: x + y})
    with pytest.raises(InexactDivision):
        inv.substitute({X1: y + y})  # coefficient 2 is not invertible over Z
    with pytest.raises(InexactDivision):
        inv.substitute({X1: LaurentPoly.zero()})


def test_substitute_keeps_integer_coefficients():
    # regression: int ** negative-int promotes to float in Python; a unit
    # coefficient run through a negative-power substitution must stay int
    inv = V(X1, -1)
    out = inv.substitute({X1: LaurentPoly.monomial(mono_from_dict({X2: 1}), -1)})
    assert all(type(c) is int for c in out.terms.values())
    assert out == LaurentPoly.monomial(mono_from_dict({X2: -1}), -1)


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
    assert p.to_json_dict() == (x * x - x * y + y).to_json_dict()


def test_variables_collected():
    p = V(X1) * V(Y, -2) + V(X2)
    assert p.variables() == {X1, X2, Y}
