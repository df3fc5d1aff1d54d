"""Property tests: randomised inputs, checked against definitions."""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhammock import LaurentPoly, all_orientations, default_height, positive_roots, sample_orientations
from qhammock.cli import main
from qhammock.cluster import initial_seed, mutate
from qhammock.complexes import _join_parities
from qhammock.errors import InexactDivision, InvariantViolation
from qhammock.laurent import MONO_ONE, mono_div, mono_from_dict, mono_mul, mono_pow
from qhammock.qchar import nakajima_leq, variable_A
from qhammock.repetition import window_vertices

import laurent_oracle
from connector_oracle import solve_sign_system
from exchange_oracle import seed_key

QUIVERS = [
    q
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("D", 4))
    for q in all_orientations(family, rank)
]


@st.composite
def raised_monomials(draw):
    """A quiver, a monomial m on its two sections, and k ≥ 0 per vertex."""
    q = draw(st.sampled_from(QUIVERS))
    xi = default_height(q)
    exps = st.integers(-3, 3)
    powers = {("Y", i, xi.ht(i) - shift): draw(exps) for i in q.vertices for shift in (0, 2)}
    if draw(st.booleans()):
        powers[("f", draw(st.sampled_from(q.vertices)))] = draw(exps)
    k = draw(st.lists(st.integers(0, 3), min_size=q.rank, max_size=q.rank))
    return q, xi, mono_from_dict(powers), k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raised_monomials())
def test_nakajima_leq_holds_exactly_upwards(case):
    q, xi, m, k = case
    raised = m
    for i, e in zip(q.vertices, k):
        raised = mono_mul(raised, mono_pow(variable_A(q, xi, i), e))
    assert nakajima_leq(q, xi, m, raised)
    assert nakajima_leq(q, xi, raised, m) == (not any(k))


# every kind of variable key the library multiplies, so the merge compares
# keys of different lengths and first letters
KERNEL_VARS = [
    key
    for i in (1, 2, 3)
    for key in [("Y", i, p) for p in (-2, -1, 0, 1, 2)] + [("f", i), ("x", i), ("X", i)]
]
canonical_monomials = st.dictionaries(
    st.sampled_from(KERNEL_VARS), st.integers(-3, 3).filter(bool), max_size=8
).map(lambda powers: tuple(sorted(powers.items())))


@st.composite
def monomial_pairs(draw):
    """(a, b): independent, b sharing some of a's keys with the opposite
    exponent (partial cancellation), b = a⁻¹ (full), or one side empty."""
    a = draw(canonical_monomials)
    kind = draw(st.sampled_from(["free", "partial", "inverse", "empty"]))
    if kind == "free":
        b = draw(canonical_monomials)
    elif kind == "empty":
        b = MONO_ONE
    elif kind == "inverse":
        b = tuple((k, -e) for k, e in a)
    else:
        powers = dict(draw(canonical_monomials))
        powers.update((k, -e) for k, e in a if draw(st.booleans()))
        b = tuple(sorted(powers.items()))
    return (b, a) if draw(st.booleans()) else (a, b)


def _by_dict_and_sort(a, b, sign):
    powers = dict(a)
    for k, e in b:
        powers[k] = powers.get(k, 0) + sign * e
    return tuple(sorted((k, e) for k, e in powers.items() if e))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monomial_pairs())
def test_monomial_merge_matches_dict_and_sort(pair):
    # referee of the merge kernel: the product and the quotient of two
    # canonical monomials equal the dict-and-sort reference, and are
    # canonical (keys strictly increasing, no zero exponent)
    a, b = pair
    for got, sign in ((mono_mul(a, b), 1), (mono_div(a, b), -1)):
        assert got == _by_dict_and_sort(a, b, sign), (a, b, sign)
        assert type(got) is tuple and all(e for _, e in got)
        assert all(k1 < k2 for (k1, _), (k2, _) in zip(got, got[1:])), got
    assert mono_div(a, a) == MONO_ONE == mono_mul(a, mono_div(MONO_ONE, a))
    assert mono_mul(a, MONO_ONE) == a == mono_mul(MONO_ONE, a) == mono_div(a, MONO_ONE)


# a few variables, small exponents and coefficients: products stay small
LAURENT_VARS = [("x", 1), ("x", 2), ("Y", 1, 0)]
monomials = st.dictionaries(st.sampled_from(LAURENT_VARS), st.integers(-2, 2), max_size=3).map(mono_from_dict)
laurent_polys = st.dictionaries(monomials, st.integers(-3, 3), max_size=4).map(LaurentPoly)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_axioms(a, b, c):
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * one == a and a + zero == a and a - a == zero


@settings(max_examples=100, deadline=None, derandomize=True)
@given(laurent_polys, laurent_polys.filter(bool))
def test_exact_div_round_trip(a, b):
    assert (a * b).exact_div(b) == a


def _agrees_with_referee(ours, referee):
    """Same polynomial from both, or InexactDivision from both."""
    try:
        expected = referee()
    except InexactDivision:
        with pytest.raises(InexactDivision):
            ours()
        return
    got = ours()
    assert got == expected
    assert all(type(c) is int for c in got.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(laurent_polys, laurent_polys.filter(bool), st.integers(-3, 3), st.integers(-3, 3).filter(bool))
def test_exact_div_matches_fraction_referee(a, b, k, m):
    """Exact, scaled and inexact divisions: the integer division decides as ℚ does."""
    _agrees_with_referee(lambda: (a * b * k).exact_div(b * m), lambda: laurent_oracle.exact_div(a * b * k, b * m))
    _agrees_with_referee(lambda: a.exact_div(b), lambda: laurent_oracle.exact_div(a, b))


# four variables with exponents on both sides of zero, so the numerator's
# and the divisor's per-variable minima differ: the row kernel divides the
# rows as they are, the referee after stripping those minima
ROW_VARS = [("X", 1), ("X", 2), ("x", 1), ("x", 2)]
wide_monomials = st.dictionaries(st.sampled_from(ROW_VARS), st.integers(-4, 4), max_size=4).map(mono_from_dict)
wide_polys = st.dictionaries(wide_monomials, st.integers(-3, 3), max_size=4).map(LaurentPoly)


def _column_minima(p):
    return [min(dict(m).get(k, 0) for m in p.terms) for k in ROW_VARS]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_polys.filter(bool), wide_polys.filter(lambda p: len(p) > 1))
def test_unshifted_division_matches_stripped_referee(a, b):
    assume(_column_minima(a * b) != _column_minima(b))
    _agrees_with_referee(lambda: (a * b).exact_div(b), lambda: laurent_oracle.exact_div(a * b, b))
    assert (a * b).exact_div(b) == a
    _agrees_with_referee(lambda: a.exact_div(b), lambda: laurent_oracle.exact_div(a, b))


def _timeout(signum, frame):
    raise TimeoutError("the division did not stop")


def test_quotient_exponent_below_the_column_bound_is_inexact():
    # (x² + 1)·x⁻³ / ((x + 1)·x⁻¹): the bound on quotient exponents is
    # −3 − (−1) = −2; the quotients x⁻¹ and −x⁻² pass it, then the leading
    # remainder 2·x⁻³ asks for x⁻³, so the division must stop there (without
    # the bound it would run down a Laurent series for ever)
    x = LaurentPoly.variable(("x", 1))
    num = (x * x + LaurentPoly.one()) * LaurentPoly.variable(("x", 1), -3)
    den = (x + LaurentPoly.one()) * LaurentPoly.variable(("x", 1), -1)
    with pytest.raises(InexactDivision):
        laurent_oracle.exact_div(num, den)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        with pytest.raises(InexactDivision, match="remainder is nonzero"):
            num.exact_div(den)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SEED_QUIVERS = [
    q
    for family, rank in (("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5))
    for q in sample_orientations(family, rank, 2, seed=rank)
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SEED_QUIVERS), st.lists(st.integers(0, 4), max_size=6), st.integers(0, 4))
def test_mutation_is_an_involution(q, walk, k):
    """μ_k∘μ_k = id on a seed reached by a short mutation walk."""
    seed = initial_seed(q)
    for step in walk:
        seed = mutate(seed, seed.mutable_vertices()[step % q.rank])
    v = seed.mutable_vertices()[k % q.rank]
    back = mutate(mutate(seed, v), v)
    assert seed_key(back) == seed_key(seed)
    assert dict(back.matrix) == dict(seed.matrix)
    assert dict(back.cluster) == dict(seed.cluster)


# connector keys are (degree, summand) pairs, compared in that order
SIGN_KEYS = [(n, s) for n in (1, 2) for s in range(4)]


@st.composite
def parity_batches(draw):
    """Batches of equations Σ c·u = 0, c = ±1, over at most 8 keys: mostly
    two terms (a repeated key or pair included), sometimes one or three.
    Most two-term equations hold under one hidden assignment, so both
    solvable systems and odd cycles are common."""
    keys = draw(st.lists(st.sampled_from(SIGN_KEYS), min_size=1, max_size=8, unique=True))
    hidden = {key: draw(st.sampled_from((1, -1))) for key in keys}
    coeff, key = st.sampled_from((1, -1)), st.sampled_from(keys)
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            size = draw(st.sampled_from((2,) * 12 + (1, 3)))
            terms = [(draw(coeff), draw(key)) for _ in range(size)]
            if size == 2 and draw(st.integers(0, 7)):
                (ca, a), (_, b) = terms
                terms[1] = (-ca * hidden[a] * hidden[b], b)
            batch.append(tuple(terms))
        batches.append(batch)
    return batches


@settings(max_examples=400, deadline=None, derandomize=True)
@given(parity_batches())
def test_parity_classes_match_general_sign_solver(batches):
    """Joined one batch at a time, the classes give what the general ±1
    search of the connector oracle gives for the whole system so far."""
    classes, system = {}, []
    for batch in batches:
        wide = [terms for terms in batch if len(terms) > 2]
        if wide:  # a square of a built cone never has three routes
            with pytest.raises(InvariantViolation):
                _join_parities(classes, wide[:1])
            return
        system += [(0, terms) for terms in batch]
        before = dict(classes)
        joined = _join_parities(classes, batch)
        assert dict(classes) == before  # the caller's classes stay as they were
        solved = solve_sign_system(system)
        if joined is None:
            assert solved is None, system
            return
        assert solved is not None, system
        assert {key: joined.get(key, (key, 1))[1] for key in solved} == solved, system
        classes = joined


# JSON values of every kind a config file can hold; numbers stay small so a
# config that happens to be valid is cheap to run
_scalars = st.one_of(
    st.integers(-2, 6),
    st.integers(-2, 6).map(str),
    st.floats(-2, 6),
    st.booleans(),
    st.none(),
    st.text("AD1-x", max_size=2),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=5)
_junk = st.text("0123-,. x", max_size=6)


def _ints(n, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(lambda xs: ",".join(map(str, xs)))


_rarely = st.integers(0, 3).map(lambda k: k == 0)


@st.composite
def cli_calls(draw):
    """roots, qchar or hammock on a small quiver, with fields and flags fuzzed."""
    q = draw(st.sampled_from(QUIVERS))
    cfg = {"type": q.family, "rank": q.rank, "arrows": [list(a) for a in q.arrows]}
    # each field is fuzzed in about one call in four, so some calls are valid
    if draw(_rarely):
        cfg["xi"] = draw(st.dictionaries(st.sampled_from(["1", "2", "0", "x"]), _values, max_size=2))
    if draw(_rarely) and q.arrows:
        cfg["arrows"][0][draw(st.integers(0, 1))] = draw(_scalars)
    if draw(_rarely):
        cfg[draw(st.sampled_from(["type", "rank", "arrows", "xi", "bogus"]))] = draw(_values)
    if draw(_rarely):
        cfg = draw(_values)
    command = draw(st.sampled_from(["roots", "qchar", "hammock"]))
    argv = [command, f"--quiver={json.dumps(cfg)}"]
    if command == "qchar":
        root = st.sampled_from(positive_roots(q)).map(lambda b: ",".join(map(str, b)))
        argv.append(f"--beta={draw(root | _ints(q.rank, -1, 2) | _ints(draw(st.integers(0, 5)), -3, 6) | _junk)}")
    if command == "hammock":
        vertex = st.sampled_from(window_vertices(q, -2, 4)).map(lambda v: f"{v.i},{v.p}")
        argv.append(f"--vertex={draw(vertex | _ints(2, -3, 6) | _junk)}")
        window = draw(st.none() | _ints(2, -4, 8) | _junk)
        if window is not None:
            argv.append(f"--window={window}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_calls())
def test_fuzzed_cli_input_exits_0_or_2(argv):
    """Malformed configs and flags exit 2 with a message, never a traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    assert (code == 2) == err.getvalue().startswith("error: "), argv
