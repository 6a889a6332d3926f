"""The tensor backend against the word algebra, its reference.

A charge-zero word is a matrix unit of M_d^{(x)n}, and the generator
z^k(a) is the string M^{(x)k} (x) a.  The zero test, product and adjoint of
``cuntz.tensor`` are checked against ``normal_form``, ``Element.__mul__`` and
``Element.adjoint`` on random elements, its product and transpose tables
against the matrices whose ids they hold, and the CAR, Green and trilinear
reports of a system (tensor path) against those of its word generators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntz import config
from cuntz.algebra import Element, Monomial, raise_monomial
from cuntz.errors import CuntzError, ResourceLimitError
from cuntz.parafermion import (
    GreenSystem,
    standard_rpfs2,
    standard_rpfs_p,
    verify_green_relations,
    verify_trilinear,
)
from cuntz.rfs import (
    GeneratorFamily,
    RecursiveMap,
    RfsSystem,
    standard_rfs_o2,
    standard_rfs_p,
    verify_car,
)
from cuntz.serialize import system_from_dict
from cuntz import tensor
from cuntz.tensor import Tensor, _intern, _matmul, _matrix, _transpose, sandwich_power
from test_golden import FLIPPED_GREEN, NEGATIVE_CONTROL


# -- random charge-zero elements ------------------------------------------------


def coefficients():
    return st.one_of(st.integers(-3, 3).filter(bool),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))


@st.composite
def charge_zero(draw, d, max_level=4, max_terms=4):
    """Words of levels 0..max_level mixed in one element."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        level = draw(st.integers(0, max_level))
        word = st.lists(st.integers(1, d), min_size=level, max_size=level).map(tuple)
        terms[Monomial(draw(word), draw(word))] = draw(coefficients())
    return Element(d, terms)


@st.composite
def cancelling(draw):
    """x minus a rewriting of x (some words raised one level, a scalar split
    into an int and a Fraction part), plus perhaps a small remainder: zero or
    not, never zero by its stored terms alone."""
    d = draw(st.sampled_from([2, 3, 4]))
    x = draw(charge_zero(d, max_level=3))
    rewritten = Element.zero(d)
    for m, c in x.terms.items():
        part = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
        word = raise_monomial(m, d) if draw(st.booleans()) else Element._make(d, {m: 1})
        rewritten = rewritten + word.scale(c - part) + Element._make(d, {m: 1}).scale(part)
    rest = draw(charge_zero(d, max_level=4, max_terms=1))
    return x - rewritten + rest


@settings(max_examples=100, deadline=None)
@given(cancelling())
def test_zero_test_matches_normal_form(x):
    assert Tensor.from_element(x).is_zero() == x.normal_form().is_zero


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda d: st.tuples(charge_zero(d, max_level=3), charge_zero(d, max_level=3))))
def test_product_and_adjoint_match_words(pair):
    x, y = pair
    tx, ty = Tensor.from_element(x), Tensor.from_element(y)
    xy = x * y
    assert (tx * ty - Tensor.from_element(xy)).is_zero()
    assert (tx * ty).is_zero() == xy.normal_form().is_zero
    assert (tx.adjoint() - Tensor.from_element(x.adjoint())).is_zero()
    assert (tx + ty).equals(Tensor.from_element(x + y))


# -- the zero test's rules -------------------------------------------------------


E11, E12, E22 = ((1, 1, 1),), ((1, 2, 1),), ((2, 2, 1),)
I2 = ((1, 1, 1), (2, 2, 1))


def key(*factors):
    """A tensor key: the interned ids of the site factors."""
    return tuple(_intern(m) for m in factors)


def test_shared_zero_factor_is_zero():
    # e11 (x) 0 + e22 (x) 0: the columns differ at site 1 and share a zero factor.
    assert Tensor(2, {key(E11, ()): 1, key(E22, ()): 1}).is_zero()
    assert not Tensor(2, {key(E11, E12): 1, key(E22, E12): 1}).is_zero()
    # Only once the last three columns cancel (I = e11 + e22) do the two
    # left share the zero factor at site 2.
    assert Tensor(2, {key(E11, (), E11): 1, key(E22, (), E11): 1, key(E11, E12, E11): 1,
                      key(E22, E12, E11): 1, key(I2, E12, E11): -1}).is_zero()


def test_equal_right_parts_merge():
    # e11 (x) e12 + e22 (x) e12 - I (x) e12 = 0 only once the columns merge.
    assert Tensor(2, {key(E11, E12): 1, key(E22, E12): 1, key(I2, E12): -1}).is_zero()
    assert not Tensor(2, {key(E11, E12): 1, key(E22, E12): 1, key(I2, E22): -1}).is_zero()


def test_identity_padding():
    # s1 s1* + s2 s2* = I: level-1 words against a level-0 word.
    x = Tensor.from_element(Element(2, {((1,), (1,)): 1, ((2,), (2,)): 1}))
    assert x.equals(Tensor.identity(2))
    assert not x.equals(Tensor.zero(2))


def test_product_trims_a_last_site_that_multiplies_to_identity():
    # M M = I for M = diag(1, -1): a last site that is I is dropped from the
    # key, and an I before a site that is not stays.
    m = ((1, 1, 1), (2, 2, -1))
    assert (Tensor(2, {key(m): 1}) * Tensor(2, {key(m): 1})).terms == {key(): 1}
    assert (Tensor(2, {key(E11, m): 3}) * Tensor(2, {key(E11, m): 1})).terms == {key(E11): 3}
    assert (Tensor(2, {key(m, m): 1}) * Tensor(2, {key(m): -1})).terms == {key(I2, m): -1}


def test_identity_is_built_only_to_pad_a_shorter_key():
    # Keys of one length are compared as they are; padding builds I (d
    # entries), which the cap bounds.
    with config.scoped_max_terms(1):
        assert not Tensor(2, {key(E11): 1, key(E22): 1}).is_zero()
        with pytest.raises(ResourceLimitError) as err:
            Tensor(2, {key(E11): 1, key(E22): 1, key(): -1}).is_zero()
    assert (err.value.what, err.value.count, err.value.operation) == (
        "identity entries", 2, "tensor")
    assert Tensor(2, {key(E11): 1, key(E22): 1, key(): -1}).is_zero()


# -- the factor table ----------------------------------------------------------


@st.composite
def matrices(draw, d):
    cells = st.tuples(st.integers(1, d), st.integers(1, d))
    return _matrix(draw(st.dictionaries(cells, coefficients(), max_size=d * d)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
def test_product_and_transpose_tables_match_the_matrices(pair):
    a, b = pair
    ia, ib = key(a, b)
    tensor._product(ia, ib), tensor._transposed(ia)
    assert tensor._FACTORS[tensor._PRODUCTS[(ia, ib)]] == _matmul(a, b)
    assert tensor._FACTORS[tensor._TRANSPOSES[ia]] == _transpose(a)


def test_equal_factors_share_an_id():
    m = tuple((i, 3 - i, Fraction(i, 3)) for i in (1, 2))
    assert key(m) == key(_matrix({(2, 1): Fraction(2, 3), (1, 2): Fraction(1, 3)}))
    assert key(()) == (0,)
    x = Tensor.from_element(Element(2, {((1, 2), (2, 1)): 3, ((2,), (1,)): Fraction(1, 2)}))
    assert x.adjoint().adjoint().terms == x.terms


def test_zero_test_keeps_no_padding_identity():
    # s1 s1* - 1 on d = 3000 letters pads the empty key with I, whose 3000
    # entries the elimination lists; no table keeps them.
    d = 3000
    x = Tensor.from_element(Element(d, {((1,), (1,)): 1, ((), ()): -1}))
    assert not x.is_zero()
    assert max(map(len, tensor._FACTORS)) < d
    assert d not in tensor._UNITS


def test_charge_nonzero_has_no_tensor_form():
    with pytest.raises(CuntzError):
        Tensor.from_element(Element.word(2, (1,), ()))


@pytest.mark.parametrize("terms", [
    ((1, 1, 1), (-1, 2, 2)),
    ((1, 1, 2), (1, 2, 1), (-1, 1, 1), (1, 2, 2)),
    ((1, 1, 2), (-1, 2, 1), (1, 2, 2), (1, 1, 1), (-1, 1, 1)),
])
def test_sandwich_power_is_the_iterated_map(terms):
    z = RecursiveMap(2, terms)
    seed = Element(2, {((1,), (2,)): 1, ((1, 2), (2, 2)): 2, ((), ()): Fraction(1, 2)})
    for k in range(5):
        word = z.power(k, seed)
        tensor = sandwich_power(z.sandwich_matrix(), seed, k)
        assert (tensor - Tensor.from_element(word)).is_zero()
        assert (tensor.adjoint() - Tensor.from_element(word.adjoint())).is_zero()


def test_sums_and_products_are_capped():
    x = Tensor.from_element(Element(2, {((1,), (1,)): 1, ((1, 1), (2, 1)): 1}))
    with config.scoped_max_terms(1):
        with pytest.raises(ResourceLimitError) as err:
            x * x.adjoint() + x
    assert err.value.operation == "tensor"


# -- reports: tensor path against word path -------------------------------------


# A symmetric sign matrix that is not diagonal, and one that is not symmetric.
NON_DIAGONAL = ((1, 1, 2), (1, 2, 1), (-1, 1, 1), (1, 2, 2))
ASYMMETRIC = ((1, 1, 2), (-1, 2, 1), (1, 2, 2))


def _o2_with_map(terms):
    return RfsSystem(standard_rfs_o2(validate=False).seeds, RecursiveMap(2, terms),
                     standard_rfs_o2(validate=False).phi, validate=False)


RFS = {
    "std-o2": (lambda: standard_rfs_o2(validate=False), 10),
    **{f"std-rfs-p:{p}": (lambda p=p: standard_rfs_p(p, validate=False), 10 if p < 3 else 7)
       for p in range(1, 7)},
    "negative-control": (lambda: system_from_dict(NEGATIVE_CONTROL, validate=False), 6),
    "non-diagonal": (lambda: _o2_with_map(NON_DIAGONAL), 6),
    "asymmetric": (lambda: _o2_with_map(ASYMMETRIC), 6),
}


@pytest.mark.parametrize("name", list(RFS))
def test_car_report_matches_word_path(name):
    build, n_max = RFS[name]
    system = build()
    assert verify_car(system, n_max).results == verify_car(system.family(), n_max).results


def _rpfs2_with_map(terms):
    g = standard_rpfs2(validate=False)
    return GreenSystem(g.seeds, (RecursiveMap(4, terms), g.zetas[1]), g.phis, validate=False)


GREEN = {
    **{f"std-rpfs:{p}": (lambda p=p: standard_rpfs_p(p, validate=False), 3 if p < 4 else 2)
       for p in range(1, 5)},
    "flipped-green": (lambda: system_from_dict(FLIPPED_GREEN, validate=False), 3),
    "non-diagonal": (lambda: _rpfs2_with_map(
        ((1, 1, 2), (1, 2, 1), (1, 3, 3), (-1, 4, 4))), 3),
    "asymmetric": (lambda: _rpfs2_with_map(
        ((1, 1, 2), (-1, 2, 1), (1, 3, 4), (-1, 4, 4))), 3),
}


class _WordComponents:
    """A Green system's component generators, taken from GeneratorFamily objects."""

    def __init__(self, g):
        self.p, self.d = g.p, g.d
        self._families = {a: GeneratorFamily(g.d, lambda n, a=a: g.component(a, n))
                          for a in range(1, g.p + 1)}

    def component(self, alpha, n):
        return self._families[alpha].generator(n)


@pytest.mark.parametrize("name", list(GREEN))
def test_green_and_trilinear_reports_match_word_path(name):
    build, L = GREEN[name]
    g = build()
    assert verify_green_relations(g, L).results == \
        verify_green_relations(_WordComponents(g), L).results
    assert verify_trilinear(g, L).results == \
        verify_trilinear(g.family(), L).results


def test_controls_fail_on_both_paths():
    assert not verify_car(system_from_dict(NEGATIVE_CONTROL, validate=False), 4).ok
    flipped = system_from_dict(FLIPPED_GREEN, validate=False)
    assert not verify_green_relations(flipped, 3).ok
    assert not verify_trilinear(flipped, 3).ok
    assert not verify_car(_o2_with_map(ASYMMETRIC), 4).ok

