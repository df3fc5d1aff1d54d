"""Pairwise dominance oracle: one Cartan solve per ordered pair of terms.

m ≤ m' when m'/m is a nonnegative integer product of the root monomials
A_i.  The exponent vector is found by exact-fraction Gaussian elimination
of the Cartan system on the per-vertex section sums of the ratio, and is
then checked by rebuilding the ratio from ``variable_A``.  The extrema are
the terms that dominate (or are dominated by) every term, found by
comparing all T² ordered pairs.  The library writes every term against
the first one instead and takes a componentwise max and min; the two must
agree, including the ``Incomparable`` message.
"""

from __future__ import annotations

from fractions import Fraction

from qhammock.errors import Incomparable
from qhammock.laurent import MONO_ONE, LaurentPoly, Mono, mono_div, mono_mul, mono_pow
from qhammock.qchar import variable_A
from qhammock.quiver import DynkinQuiver, HeightFunction


def solve_cartan(q: DynkinQuiver, v: list[int]) -> list[Fraction] | None:
    """Solve C·k = v for the Cartan matrix of the underlying tree."""
    n = q.rank
    rows = []
    for i in q.vertices:
        row = [Fraction(0)] * n
        row[i - 1] = Fraction(2)
        for j in q.neighbors(i):
            row[j - 1] = Fraction(-1)
        row.append(Fraction(v[i - 1]))
        rows.append(row)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def oracle_leq(q: DynkinQuiver, xi: HeightFunction, lower: Mono, upper: Mono) -> bool:
    """upper / lower is a nonnegative integer product of root monomials."""
    ratio = mono_div(upper, lower)
    if ratio == MONO_ONE:
        return True
    powers = dict(ratio)
    if any(k[0] != "Y" for k in powers):
        return False
    sums = [0] * q.rank
    for i in q.vertices:
        p = xi.ht(i)
        sums[i - 1] = powers.get(("Y", i, p - 2), 0) + powers.get(("Y", i, p), 0)
    k_vec = solve_cartan(q, sums)
    if k_vec is None:
        return False
    if any(k.denominator != 1 or k < 0 for k in k_vec):
        return False
    rebuilt = MONO_ONE
    for i in q.vertices:
        rebuilt = mono_mul(rebuilt, mono_pow(variable_A(q, xi, i), int(k_vec[i - 1])))
    return rebuilt == ratio


def oracle_extremal(
    q: DynkinQuiver, xi: HeightFunction, poly: LaurentPoly
) -> tuple[Mono, Mono]:
    """(greatest, least) term by comparing every ordered pair of terms."""
    monos = list(poly.terms)
    if not monos:
        raise Incomparable("the zero polynomial has no extremal monomials")
    highest = [m for m in monos if all(oracle_leq(q, xi, o, m) for o in monos)]
    lowest = [m for m in monos if all(oracle_leq(q, xi, m, o) for o in monos)]
    if len(highest) != 1 or len(lowest) != 1:
        raise Incomparable(
            f"no unique extremal pair: {len(highest)} maxima, {len(lowest)} minima"
        )
    return highest[0], lowest[0]
