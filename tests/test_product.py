"""Differential test: the prefix-join word product against a pairwise reference.

``Element.__mul__`` joins terms on their shared middle prefix and never forms
a pair that dies.  The reference below forms every pair of terms and reduces
it with ``monomial_mul``; the two must give identical term maps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntz import Element, Monomial, monomial_mul, standard_rpfs_p


def pairwise_product(x: Element, y: Element) -> dict:
    out: dict[Monomial, Fraction] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            m = monomial_mul(mx, my)
            if m is not None:
                out[m] = out.get(m, 0) + cx * cy
    return {m: c for m, c in out.items() if c}


def assert_matches_reference(x: Element, y: Element):
    assert (x * y).terms == pairwise_product(x, y)


def operands(d):
    index = st.integers(1, d)
    words = st.lists(index, max_size=5).map(tuple)
    # Few distinct coefficients of both signs, so that joined pairs landing
    # on one output word often cancel to zero.
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    term = st.tuples(st.builds(Monomial, words, words), coeff)
    return st.lists(term, max_size=12).map(lambda terms: Element(d, terms))


@st.composite
def operand_pairs(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    return draw(operands(d)), draw(operands(d))


@settings(max_examples=150, deadline=None)
@given(operand_pairs())
def test_product_matches_pairwise_reference(pair):
    x, y = pair
    assert_matches_reference(x, y)
    assert_matches_reference(y, x)


def test_cancelling_terms_are_pruned():
    # (s1 + s1 s2*)(I - s2): s1 I and s1 s2* (-s2) both reduce to the word
    # s1, with opposite signs, so it must vanish from the result.
    x = Element(2, {((1,), ()): 1, ((1,), (2,)): 1})
    y = Element(2, {((), ()): 1, ((2,), ()): -1})
    assert (x * y).terms == pairwise_product(x, y)
    assert Monomial((1,), ()) not in (x * y).terms


@pytest.mark.parametrize("m", range(1, 9))
def test_std_o2_generator_products(std_o2, m):
    a_m = std_o2.generator(m)
    for n in range(1, 9):
        a_n = std_o2.generator(n)
        assert_matches_reference(a_m, a_n)
        assert_matches_reference(a_m, a_n.adjoint())


def test_std_rpfs3_component_products():
    system = standard_rpfs_p(3)
    gens = [system.green_component(alpha, n) for alpha in range(1, 4) for n in (1, 2)]
    gens += [g.adjoint() for g in gens]
    for x in gens:
        for y in gens:
            assert_matches_reference(x, y)
