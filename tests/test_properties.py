"""Property tests: randomised inputs, checked against definitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qhammock import all_orientations, default_height
from qhammock.laurent import mono_from_dict, mono_mul, mono_pow
from qhammock.qchar import nakajima_leq, variable_A

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
