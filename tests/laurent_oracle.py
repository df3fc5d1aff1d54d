"""Term-by-term Laurent referee: substitution and exact division.

``substitute`` builds each term as a product of one polynomial per
variable, and ``exact_div`` runs the long division over ``Fraction`` and
checks integrality only at the end.  Both are plain definitions.  The
library has no substitution: the routes map their terms in one pass
(``euler_char`` specializes its ghosts, ``qchar_cluster`` sends census
variables to section classes), and ``substitute`` is the referee those
maps must agree with, InexactDivision where it raises included.
``exact_div`` is the referee for the library's integer division: same
result, or InexactDivision from both.
"""

from __future__ import annotations

from fractions import Fraction

from qhammock.errors import InexactDivision
from qhammock.laurent import MONO_ONE, LaurentPoly, mono_div, mono_from_dict, mono_pow


def substitute(poly: LaurentPoly, mapping) -> LaurentPoly:
    """Replace each mapped variable, one polynomial product per variable."""
    out = LaurentPoly()
    for m, c in poly.terms.items():
        term = LaurentPoly({MONO_ONE: c})
        for k, e in m:
            img = mapping.get(k)
            if img is None:
                term = term * LaurentPoly.variable(k, e)
            elif e >= 0:
                term = term * img**e
            else:
                if not img.is_monomial():
                    raise InexactDivision("negative power of a non-monomial image")
                im, ic = img.as_monomial()
                if ic * ic != 1:
                    raise InexactDivision("cannot invert non-unit coefficient")
                term = term * LaurentPoly.monomial(mono_pow(im, e), ic if e % 2 else 1)
        out = out + term
    return out


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den by long division over ℚ; InexactDivision unless integral."""
    if not den.terms:
        raise ZeroDivisionError("Laurent division by zero")
    if not num.terms:
        return LaurentPoly()
    if den.is_monomial():
        bm, bc = den.as_monomial()
        out = {}
        for m, c in num.terms.items():
            q, r = divmod(c, bc)
            if r:
                raise InexactDivision("coefficient not divisible")
            out[mono_div(m, bm)] = q
        return LaurentPoly(out)

    keys = sorted(num.variables() | den.variables())

    def stripped(poly):
        rows = {tuple(dict(m).get(k, 0) for k in keys): Fraction(c) for m, c in poly.terms.items()}
        mins = [min(r[j] for r in rows) for j in range(len(keys))]
        return {tuple(a - b for a, b in zip(r, mins)): c for r, c in rows.items()}, mins

    work, num_shift = stripped(num)
    divisor, den_shift = stripped(den)

    def order_key(v):
        return (sum(v), v)

    lead_den = max(divisor, key=order_key)
    quo: dict[tuple, Fraction] = {}
    while work:
        lead = max(work, key=order_key)
        diff = tuple(a - b for a, b in zip(lead, lead_den))
        if any(d < 0 for d in diff):
            raise InexactDivision("remainder is nonzero")
        coeff = work[lead] / divisor[lead_den]
        quo[diff] = quo.get(diff, Fraction(0)) + coeff
        for dv, dc in divisor.items():
            tgt = tuple(a + b for a, b in zip(diff, dv))
            newc = work.get(tgt, Fraction(0)) - coeff * dc
            if newc:
                work[tgt] = newc
            else:
                work.pop(tgt, None)

    out = {}
    for v, c in quo.items():
        if c == 0:
            continue
        if c.denominator != 1:
            raise InexactDivision("quotient has fractional coefficient")
        powers = {k: v[j] + num_shift[j] - den_shift[j] for j, k in enumerate(keys)}
        out[mono_from_dict(powers)] = int(c)
    res = LaurentPoly(out)
    if res * den != num:
        raise InexactDivision("verification of exact division failed")
    return res
