"""Sparse multivariate Laurent polynomials with integer coefficients.

Monomials are canonical sorted tuples of (variable key, exponent) pairs with
nonzero exponents; variable keys are themselves tuples such as ("Y", i, p),
("f", i), ("x", i) or ("X", i).  Keeping keys structured (instead of strings)
lets the character and cluster layers share one arithmetic core.  Products
and quotients merge the two canonical tuples in one pass, so a result is
canonical without a sort and shares the untouched (key, exponent) pairs of
its inputs.

Division is exact or it is an error.  Polynomial division runs on
exponent rows ({tuple of exponents over a sorted key list: coefficient}),
in one long-division loop over the integers that the cluster layer shares:
graded lex picks the leading terms, and it is translation-invariant, so
the rows are divided as they are, with no shift to nonnegative exponents.
A quotient exponent below the numerator's column minimum less the
divisor's is a nonzero remainder.  InexactDivision is raised there, at the
first step whose leading coefficient the divisor's does not divide, or
when the product check at the end fails.
"""

from __future__ import annotations

from itertools import compress
from operator import add, sub
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import InexactDivision

VarKey = tuple
Mono = tuple  # tuple[tuple[VarKey, int], ...], sorted by key

MONO_ONE: Mono = ()

__all__ = [
    "Mono",
    "MONO_ONE",
    "mono_from_dict",
    "mono_mul",
    "mono_pow",
    "mono_div",
    "mono_key_str",
    "LaurentPoly",
]


def mono_from_dict(powers: Mapping[VarKey, int]) -> Mono:
    """Canonical monomial from a {variable key: exponent} mapping."""
    return tuple(sorted((k, e) for k, e in powers.items() if e != 0))


def mono_mul(a: Mono, b: Mono) -> Mono:
    """a·b of two canonical monomials, by one merge of their pairs."""
    if not a:
        return b
    if not b:
        return a
    return _merge(a, b, 1)


def _merge(a: Mono, b: Mono, sign: int) -> Mono:
    """a·b^sign (sign ±1) in one pass over the two sorted tuples: a pair
    whose key is on one side only is reused as it is (b's negated when
    sign is −1), shared keys add their exponents, and a zero drops out."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (ka, ea), (kb, eb) = pa, pb = a[i], b[j]
        if ka == kb:
            if e := ea + sign * eb:
                out.append((ka, e))
            i += 1
            j += 1
        elif ka < kb:
            out.append(pa)
            i += 1
        else:
            out.append(pb if sign > 0 else (kb, -eb))
            j += 1
    out.extend(a[i:])
    out.extend(b[j:] if sign > 0 else [(k, -e) for k, e in b[j:]])
    return tuple(out)


def mono_pow(a: Mono, n: int) -> Mono:
    if n == 0 or not a:
        return MONO_ONE
    return tuple((k, e * n) for k, e in a)


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b as a Laurent monomial (always exact), by the same merge."""
    return _merge(a, b, -1) if b else a


def mono_key_str(m: Mono) -> str:
    """Stable plain-text key for JSON output, e.g. "Y:2:-1^1 Y:1:0^-1"."""
    return " ".join(f"{':'.join(map(str, k))}^{e}" for k, e in m) or "1"


def _mono_json(m: Mono) -> dict[str, int]:
    """A monomial as a JSON object, e.g. {"Y:2:-1": 1, "f:1": 1}."""
    return {":".join(str(piece) for piece in k): e for k, e in m}


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in structured variables.

    Immutable: terms is a read-only view and cannot be reassigned, so a
    memoised polynomial is safe to hand to every caller.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        out: dict[Mono, int] = {}
        if terms:
            for m, c in terms.items():
                # bool is an int subclass but never a sensible coefficient;
                # floats would compare equal to ints and hide exactness bugs
                if type(c) is not int:
                    raise TypeError(f"coefficient {c!r} is not an int")
                if c:
                    out[m] = c
        object.__setattr__(self, "terms", MappingProxyType(out))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"LaurentPoly is immutable: cannot change {name}")

    __delattr__ = __setattr__

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({MONO_ONE: 1})

    @classmethod
    def monomial(cls, m: Mono, coeff: int = 1) -> "LaurentPoly":
        return cls({m: coeff})

    @classmethod
    def variable(cls, key: VarKey, power: int = 1) -> "LaurentPoly":
        return cls({mono_from_dict({key: power}): 1})

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = self.terms.copy()
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _wrap(out)

    def __neg__(self) -> "LaurentPoly":
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return _wrap({m: c * other for m, c in self.terms.items()})
        out: dict[Mono, int] = {}
        other_terms = other.terms.items()
        for ma, ca in self.terms.items():
            for mb, cb in other_terms:
                m = mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative polynomial power; use exact_div")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Mono, int]]:
        return iter(sorted(self.terms.items()))

    # -- queries -----------------------------------------------------

    def canonical(self) -> tuple[tuple[Mono, int], ...]:
        """Hashable canonical form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_monomial(self) -> tuple[Mono, int]:
        """The unique (monomial, coefficient) pair; error if not a monomial."""
        if len(self.terms) != 1:
            raise ValueError("polynomial is not a single monomial")
        return next(iter(self.terms.items()))

    def variables(self) -> set[VarKey]:
        seen: set[VarKey] = set()
        for m in self.terms:
            for k, _ in m:
                seen.add(k)
        return seen

    def coeff(self, m: Mono) -> int:
        return self.terms.get(m, 0)

    # -- substitution ------------------------------------------------

    def substitute(self, mapping: Mapping[VarKey, "LaurentPoly"]) -> "LaurentPoly":
        """Replace each mapped variable by a Laurent polynomial.

        Variables not in the mapping pass through unchanged.  A mapped
        variable raised to a negative power requires the image to be a
        single monomial with coefficient ±1 (otherwise division would be
        needed); those are the only cases this routine refuses.

        Each term is folded in one pass: unmapped variables and monomial
        images go into one exponent dict and one coefficient, and
        polynomials are multiplied only for a non-monomial image.
        """
        out: dict[Mono, int] = {}
        for m, c in self.terms.items():
            powers: dict[VarKey, int] = {}
            factors: list[LaurentPoly] = []
            for k, e in m:
                img = mapping.get(k)
                if img is None:
                    powers[k] = powers.get(k, 0) + e
                    continue
                if len(img.terms) != 1:
                    if e < 0:
                        raise InexactDivision("negative power of a non-monomial image")
                    factors.append(img**e)
                    continue
                (im, ic), = img.terms.items()
                if e >= 0:
                    c *= ic**e
                elif ic * ic != 1:
                    raise InexactDivision(
                        "cannot invert non-unit coefficient in substitution"
                    )
                elif e % 2:
                    # ic is ±1, so its e-th power is ic or 1; int ** negative
                    # would silently promote to float
                    c *= ic
                for kk, ee in im:
                    powers[kk] = powers.get(kk, 0) + ee * e
            mono = mono_from_dict(powers)
            if not factors:
                out[mono] = out.get(mono, 0) + c
                continue
            term = LaurentPoly.monomial(mono, c)
            for f in factors:
                term = term * f
            for tm, tc in term.terms.items():
                out[tm] = out.get(tm, 0) + tc
        return _wrap({m: c for m, c in out.items() if c})

    # -- exact division ----------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return self / other, raising InexactDivision unless exact over ℤ.

        A monomial divisor divides term by term; otherwise both sides
        become exponent rows over their sorted variables and go through
        ``_div_rows``, and the quotient comes back as monomials.
        """
        if not other.terms:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.terms:
            return LaurentPoly()
        if other.is_monomial():
            bm, bc = other.as_monomial()
            out: dict[Mono, int] = {}
            for m, c in self.terms.items():
                q, r = divmod(c, bc)
                if r:
                    raise InexactDivision("coefficient not divisible")
                out[mono_div(m, bm)] = q
            return _wrap(out)

        keys = sorted(self.variables() | other.variables())
        index = {k: j for j, k in enumerate(keys)}

        def rows(poly: LaurentPoly) -> dict[tuple[int, ...], int]:
            out = {}
            for m, c in poly.terms.items():
                row = [0] * len(keys)
                for k, e in m:
                    row[index[k]] = e
                out[tuple(row)] = c
            return out

        return _poly_from_rows(_div_rows(rows(self), rows(other)), keys)

    # -- presentation ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m == MONO_ONE:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(mono_key_str(m))
            else:
                parts.append(f"{c}*{mono_key_str(m)}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict[str, int]:
        """JSON-friendly {monomial string: coefficient} with sorted keys."""
        return {mono_key_str(m): c for m, c in self.sorted_terms()}


def _lead(rows: dict[tuple, int]) -> tuple:
    """The leading row in graded lex (total degree first, then the row
    itself), compared as (degree, row) pairs without a key function."""
    return max(zip(map(sum, rows), rows))[1]


def _mul_rows(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    """The product of two polynomials on exponent rows over one key list."""
    out: dict[tuple, int] = {}
    for ra, ca in a.items():
        for rb, cb in b.items():
            r = tuple(map(add, ra, rb))
            s = out.get(r, 0) + ca * cb
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def _div_rows(num: dict[tuple, int], den: dict[tuple, int]) -> dict[tuple, int]:
    """num / den on exponent rows over one key list, exact over ℤ or
    InexactDivision; both sides nonzero.

    Long division in graded lex.  Per-column minima are additive over
    products, so every exponent of an exact quotient is at least the
    numerator's column minimum less the divisor's; a leading term that
    asks for less is a nonzero remainder, and the bound also ends the
    loop, since the leading exponent strictly falls at every step.  When
    the quotient is integral every step's leading coefficient is a
    multiple of the divisor's (leading terms multiply in a monomial
    order), so a step that does not divide proves the division inexact.
    """
    low = tuple(map(sub, map(min, zip(*num)), map(min, zip(*den))))
    lead_den = _lead(den)
    lead_c = den[lead_den]
    den_terms = den.items()
    quo: dict[tuple, int] = {}
    work = dict(num)
    while work:
        lead = _lead(work)
        diff = tuple(map(sub, lead, lead_den))
        if min(map(sub, diff, low)) < 0:
            raise InexactDivision("remainder is nonzero")
        coeff, rem = divmod(work[lead], lead_c)
        if rem:
            raise InexactDivision("quotient has fractional coefficient")
        quo[diff] = coeff
        for dv, dc in den_terms:
            tgt = tuple(map(add, diff, dv))
            newc = work.get(tgt, 0) - coeff * dc
            if newc:
                work[tgt] = newc
            else:
                work.pop(tgt, None)
    if _mul_rows(quo, den) != num:
        raise InexactDivision("verification of exact division failed")
    return quo


def _poly_from_rows(rows: dict[tuple, int], keys: Sequence[VarKey]) -> LaurentPoly:
    """Exponent rows over the sorted keys as a polynomial; a row's nonzero
    exponents, read in key order, are already a canonical monomial."""
    return _wrap({tuple(compress(zip(keys, row), row)): c for row, c in rows.items()})


def _wrap(terms: dict[Mono, int]) -> LaurentPoly:
    """A polynomial around a dict that is already clean (int coefficients,
    no zeros) and that no one else holds; skips __init__'s checks."""
    res = object.__new__(LaurentPoly)
    object.__setattr__(res, "terms", MappingProxyType(terms))
    return res
