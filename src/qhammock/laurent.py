"""Sparse multivariate Laurent polynomials with integer coefficients.

Monomials are canonical sorted tuples of (variable key, exponent) pairs with
nonzero exponents; variable keys are themselves tuples such as ("Y", i, p),
("f", i), ("x", i) or ("X", i).  Keeping keys structured (instead of strings)
lets the character and cluster layers share one arithmetic core.  Products
and quotients merge the two canonical tuples in one pass, so a result is
canonical without a sort and shares the untouched (key, exponent) pairs of
its inputs.

Division is exact or it is an error.  Polynomial division runs on packed
exponent rows ({row: coefficient}, each row one int over a sorted key
list, after Monagan–Pearce's packed exponent vectors), in one
long-division loop over the integers that the cluster layer shares.  A
product of two rows is one integer addition, and graded lex, which picks
the leading terms, is the order of the ints, so the leading row of the
work is popped from a heap (Johnson's heap-driven sparse division, with
cancelled rows skipped).  Graded lex is translation-invariant, so the
rows are divided as they are, with no shift to nonnegative exponents.  A
quotient exponent below the numerator's column minimum less the
divisor's is a nonzero remainder, found by one guard-bit mask test per
step.  InexactDivision is raised there, at the first step whose leading
coefficient the divisor's does not divide, or when the product check at
the end fails; an exponent too wide for its field raises OverflowError
and never wraps into the next column.

Summand classes of complexes live on the same fields, as the second
form of the one packing (``_Packing``): a class over a height's 3n
section keys is the displacement of its packed row from the zero row
with the degree field left off, so the unit class is 0, a product is
one integer addition and a ratio one subtraction.  The encoder
(``_Packing.encode``) and the decoder (``decode``, by the same signed
unpack that reads a row) are the only ways between a class and its
monomial, and a sum that leaves a field raises OverflowError where it
is checked or read, never aliasing another class.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, lt, mul
from struct import Struct, calcsize
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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

    # -- exact division ----------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return self / other, raising InexactDivision unless exact over ℤ.

        A monomial divisor divides term by term; otherwise both sides
        become packed rows over their sorted variables, in fields wide
        enough for their exponents, and go through ``_div_rows``, and the
        quotient comes back as monomials.
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
        terms = (*self.terms, *other.terms)
        span = max(abs(e) for m in terms for _, e in m)
        # every row the division forms stays within (4·|keys| + 3)·span of
        # zero: _div_rows' degree bound, with each exponent at most span
        pk = _packing(len(keys), 8 * len(keys) * span)
        one = 1 << pk.top  # a row unit is a class unit plus one degree
        units = {k: u + one for k, u in zip(keys, pk.units)}

        def rows(poly: LaurentPoly) -> dict[int, int]:
            return {pk.zero - sum(e * units[k] for k, e in m): c for m, c in poly.terms.items()}

        return _poly_from_rows(_div_rows(rows(self), rows(other), pk), keys, pk)

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


class _Packing:
    """Exponent vectors over m columns, each packed into one int, in two
    forms of one layout: a row and a class.

    Column j sits in a field of w bits (w = 16, 32 or 64), column 0
    highest, and holds an exponent in (−B, B], B = 2^(w−2).  A row (the
    census, ``exact_div``) is nonnegative: field j holds B − e_j, with
    its top (guard) bit clear, and the sum of the fields, m·B − deg e,
    sits on top.  The map is affine, so a product of rows is
    ``a + b − zero`` and a quotient ``a − b + zero``, with ``zero`` the
    packed zero row.  A sum or difference of two valid rows (plus or less
    ``zero``) whose exponent left its field shows a guard bit in the
    lowest such field, since no carry or borrow reaches that field from
    below.  Descending graded lex (total degree, then the exponents from
    column 0) is ascending int order, so the leading row is the least int.

    A class (a summand class over a height's keys) is the displacement of
    its row from the zero row with the degree field left off,
    Σ e_j·2^(w(m−1−j)): the unit class is 0, a product is ``a + b``, a
    ratio ``a − b``, and a class hashes as an int.  A class whose
    exponent left its field shows a guard bit in its row's fields
    ``low − c`` (``check``, ``check_sums``), so it raises OverflowError
    and never aliases another class.  ``encode`` and ``decode`` are the
    only ways between a class and its monomial over the keys.  Both forms
    unpack one way (``exponents``), by one signed ``struct`` call.
    """

    __slots__ = (
        "keys", "field", "units", "bias", "top", "zero", "guard",
        "_width", "_end", "_low", "_lift", "_nbytes", "_fields",
    )

    def __init__(self, m: int, code: str, keys: Sequence[VarKey] = ()):
        self.keys = keys = tuple(keys)
        self.field = dict(zip(keys, range(m)))
        self._width = width = 8 * calcsize(">" + code)
        self.bias = bias = 1 << (width - 2)
        self.top = top = width * m
        self._end = end = 1 << top
        ones = (end - 1) // ((1 << width) - 1)  # a 1 in every field
        self._low = low = bias * ones  # the zero row's fields below its degree
        self.zero = (m * bias << top) + low
        self.guard = ones << (width - 1)
        self._lift = (bias - 1) * ones
        # by column j, the class that raises exponent j by one
        self.units = tuple(1 << s for s in range(top - width, -1, -width))
        self._nbytes = top // 8
        self._fields = Struct(f">{m}{code.lower()}").unpack

    def _fit(self, exps: Iterable[int]) -> bool:
        """Whether every exponent lies in (−bias, bias], its field's range."""
        bias = self.bias
        return all(-bias < e <= bias for e in exps)

    def pack(self, row: Sequence[int]) -> int:
        """The packed row of an exponent row; OverflowError if an exponent
        is too wide for its field."""
        if not self._fit(row):
            raise OverflowError(f"exponent row {tuple(row)} too wide for its fields")
        return self.zero - sum(map(mul, row, self.units)) - (sum(row) << self.top)

    def encode(self, m: Mono) -> int:
        """The class of a canonical monomial over the keys: ValueError for a
        key off the list or a monomial that is not canonical, OverflowError
        for an exponent too wide for its field."""
        keys = [k for k, _ in m]
        if not (all(e for _, e in m) and all(map(lt, keys, keys[1:]))):
            raise ValueError(f"{m!r} is not a canonical monomial")
        field = self.field
        if not set(keys) <= field.keys():
            raise ValueError(f"{m!r} has a key off the {len(self.keys)} class keys")
        if not self._fit(e for _, e in m):
            raise OverflowError(f"{m!r} has an exponent too wide for its field")
        return sum(e * self.units[field[k]] for k, e in m)

    def check(self, c: int) -> int:
        """c itself, if it is a class over the m fields; OverflowError if not."""
        row = self._low - c
        if row & self.guard or not 0 <= row < self._end:
            raise _too_wide()
        return c

    def check_sums(self, classes: Iterable[int]) -> None:
        """OverflowError unless each class, a sum or difference of two
        checked ones, kept every exponent in its field: one guard test for
        all of them (a negative row's lowest overflowing field shows its
        guard bit in two's complement)."""
        low, seen = self._low, 0
        for c in classes:
            seen |= low - c
        if seen & self.guard:
            raise _too_wide()

    def nonneg(self, c: int) -> bool:
        """Whether c is a class over the m fields with no negative exponent,
        by one range test on all fields: each field bias − e lies in
        [0, bias]."""
        row = self._low - c
        return 0 <= row < self._end and not (row | row + self._lift) & self.guard

    def read(self, c: int) -> tuple[int, ...]:
        """The exponents of a class, in key order, read as its row's fields;
        OverflowError if c is not a class over the m fields."""
        return self.exponents(self._low - self.check(c))

    def decode(self, c: int) -> Mono:
        """The canonical monomial of a class: its nonzero exponents in key order."""
        e = self.read(c)
        return tuple(compress(zip(self.keys, e), e))

    def exponents(self, row: int) -> tuple[int, ...]:
        """The exponent row of a packed row, by one C-level unpack: its
        fields below the degree are ``low − c`` for the class c of its
        exponents, c + guard holds e + 2^(w−1) in each field with no
        carry, and flipping each field's top bit makes it e in two's
        complement, read by one signed unpack."""
        guard = self.guard
        c = self._low - (row & self._end - 1)
        return self._fields(((c + guard) ^ guard).to_bytes(self._nbytes, "big"))

    def corner(self, rows: Iterable[int], least: bool) -> int:
        """The column-wise least (or greatest) exponents of the rows, packed
        with a zero degree field, all fields at once: (a | guard) − b keeps
        the guard bit of exactly the fields where a's is at least b's (no
        borrow crosses a field, as both are below the guard), and those
        bits, spread over their fields, pick a's field or b's."""
        guard, drop = self.guard, self._width - 1
        mask = self._end - 1
        rows = iter(rows)
        a = next(rows) & mask
        for b in rows:
            b &= mask
            ge = ((a | guard) - b) & guard
            pick = (a ^ b) & (ge - (ge >> drop))
            a = b ^ pick if least else a ^ pick
        return a

    def degree(self, row: int) -> int:
        return self.top // self._width * self.bias - (row >> self.top)


def _packing(m: int, span: int = 0, keys: Sequence[VarKey] = ()) -> _Packing:
    """The narrowest packing of m columns whose fields hold every exponent
    of magnitude up to span (16 bits at span 0: the census, a height)."""
    for code in "HIQ":
        if span < 1 << (8 * calcsize(">" + code) - 2):
            return _Packing(m, code, keys)
    raise OverflowError(f"exponents of magnitude {span} are too wide for a packed row")


def _too_wide() -> OverflowError:
    return OverflowError("exponent too wide for its field in a packed row")


def _classes_fit(classes: Collection[int]) -> bool:
    """Whether every int is a class over some number of 16-bit fields (the
    width of a height's packing) with each exponent in its field: the
    fields are read over one more than the widest class spans, so a carry
    or borrow out of its top field shows too."""
    if not classes:
        return True
    pk = _packing(max(abs(c).bit_length() for c in classes) // 16 + 2)
    return not any((pk._low - c) & pk.guard for c in classes)


def _mul_rows(a: Mapping[int, int], b: Mapping[int, int], pk: _Packing) -> dict[int, int]:
    """The product of two polynomials on packed rows; the guard bits of
    every sum, or-ed together, tell whether it fits its fields."""
    zero = pk.zero
    out: dict[int, int] = {}
    get = out.get
    b_terms = b.items()
    seen = 0
    for ra, ca in a.items():
        ra -= zero
        for rb, cb in b_terms:
            r = ra + rb
            seen |= r
            out[r] = get(r, 0) + ca * cb
    if seen & pk.guard:
        raise _too_wide()
    for r in [r for r, c in out.items() if not c]:
        del out[r]
    return out


def _div_rows(num: Mapping[int, int], den: Mapping[int, int], pk: _Packing) -> dict[int, int]:
    """num / den on packed rows, exact over ℤ or InexactDivision; both
    sides nonzero.

    Long division in graded lex, the leading row of the work popped from a
    heap (a row that has since cancelled is skipped).  Per-column minima
    are additive over products, so every exponent of an exact quotient is
    at least the numerator's column minimum less the divisor's; a leading
    term that asks for less is a nonzero remainder, and the bound also
    ends the loop, since the leading exponent strictly falls at every
    step.  The bound is one guard-bit test per step: ``ceiling − lead``
    has every guard bit set exactly when the quotient row lead − lead_den
    meets it.  When the quotient is integral every step's leading
    coefficient is a multiple of the divisor's (leading terms multiply in
    a monomial order), so a step that does not divide proves the division
    inexact.  Before the loop, the bound and the quotient's degree (at
    most that of the first step) are checked to keep every row the loop
    can form inside its fields.
    """
    zero, guard = pk.zero, pk.guard
    low = pk.corner(num, True) - pk.corner(den, True) + zero
    if low & guard:
        raise _too_wide()
    lead_den = min(den)
    lows = pk.exponents(low)
    # quotient exponent j ≤ deg q − Σ_{i≠j} low_i, and a divisor row adds
    # at most its column maximum (or nothing, for the quotient row itself)
    spare = pk.degree(min(num)) - pk.degree(lead_den) - sum(lows)
    tops = map(add, lows, pk.exponents(pk.corner(den, False)))
    if spare + max(*lows, *tops) > pk.bias:
        raise _too_wide()
    ceiling = low + guard + lead_den - zero
    shift = lead_den - zero
    lead_c = den[lead_den]
    rest = [(d - zero, c) for d, c in den.items() if d != lead_den]
    quo: dict[int, int] = {}
    work = dict(num)
    get, pop = work.get, work.pop
    heap = list(num)
    heapify(heap)
    while work:
        lead = heappop(heap)
        c = pop(lead, 0)
        if not c:
            continue
        if (ceiling - lead) & guard != guard:
            raise InexactDivision("remainder is nonzero")
        coeff, rem = divmod(c, lead_c)
        if rem:
            raise InexactDivision("quotient has fractional coefficient")
        q = lead - shift
        quo[q] = coeff
        for dv, dc in rest:
            tgt = q + dv
            old = get(tgt)
            if old is None:
                work[tgt] = -coeff * dc
                heappush(heap, tgt)
            elif s := old - coeff * dc:
                work[tgt] = s
            else:
                del work[tgt]
    if _mul_rows(quo, den, pk) != num:
        raise InexactDivision("verification of exact division failed")
    return quo


def _poly_from_rows(rows: Mapping[int, int], keys: Sequence[VarKey], pk: _Packing) -> LaurentPoly:
    """Packed rows over the sorted keys as a polynomial; a row's nonzero
    exponents, read in key order, are already a canonical monomial."""
    exps = map(pk.exponents, rows)
    return _wrap({tuple(compress(zip(keys, e), e)): c for e, c in zip(exps, rows.values())})


def _wrap(terms: dict[Mono, int]) -> LaurentPoly:
    """A polynomial around a dict that is already clean (int coefficients,
    no zeros) and that no one else holds; skips __init__'s checks."""
    res = object.__new__(LaurentPoly)
    object.__setattr__(res, "terms", MappingProxyType(terms))
    return res
