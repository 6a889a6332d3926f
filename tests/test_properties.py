"""Law-level properties over randomized inputs."""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from cuntz import (
    Element,
    Monomial,
    decode_index,
    fock_index,
    identity,
    monomial_mul,
    parse_element,
    phi1,
    raise_monomial,
    rho,
    span_rank,
)
from cuntz import rfs as rfs_module
from cuntz.representation import StateVector, rep_apply
from cuntz.serialize import element_from_dict, element_to_dict


def monomials(d, max_len=2):
    index = st.integers(1, d)
    words = st.lists(index, max_size=max_len).map(tuple)
    return st.builds(Monomial, words, words)


def coefficients():
    return st.one_of(
        st.integers(-3, 3).filter(bool).map(Fraction),
        st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
    )


def elements(d, max_len=2, max_terms=3):
    return st.lists(
        st.tuples(monomials(d, max_len), coefficients()), max_size=max_terms
    ).map(lambda terms: Element(d, terms))


common = settings(max_examples=60, deadline=None)


@common
@given(elements(2), elements(2))
def test_mul_distributes_over_add(x, y):
    z = identity(2)
    assert ((x + y) * z) == (x * z + y * z)
    assert (z * (x + y)) == (z * x + z * y)


@common
@given(monomials(2), monomials(2), monomials(2))
def test_monomial_mul_associative(x, y, z):
    xy = monomial_mul(x, y)
    yz = monomial_mul(y, z)
    left = monomial_mul(xy, z) if xy else None
    right = monomial_mul(x, yz) if yz else None
    assert left == right


@common
@given(elements(3))
def test_adjoint_involution(x):
    assert x.adjoint().adjoint() == x


@common
@given(elements(2), elements(2))
def test_adjoint_antihomomorphism(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


@common
@given(elements(2))
def test_normal_form_idempotent(x):
    nf = x.normal_form()
    assert nf.normal_form() == nf


@common
@given(elements(2))
def test_normal_form_preserves_meaning(x):
    assert x.equals(x.normal_form())


@common
@given(monomials(2))
def test_raise_monomial_preserves_equality(m):
    raised = raise_monomial(m, 2)
    assert raised.equals(Element(2, {m: 1}))


@common
@given(elements(2), elements(2))
def test_grades_multiply(x, y):
    sums = {gx + gy for gx in x.grades() for gy in y.grades()}
    assert (x * y).grades() <= sums


@settings(max_examples=25, deadline=None)
@given(elements(2, max_len=2, max_terms=2), elements(2, max_len=2, max_terms=2))
def test_endomorphism_laws(x, y):
    for endo in (rho(2), phi1()):
        assert endo.apply(x * y).equals(endo.apply(x) * endo.apply(y))
        assert endo.apply(x.adjoint()).equals(endo.apply(x).adjoint())
    assert rho(2).apply(identity(2)).equals(identity(2))


@common
@given(elements(2), st.integers(1, 48))
def test_representation_consistency(x, n):
    v = StateVector.unit(n)
    assert rep_apply(x, v) == rep_apply(x.normal_form(), v)


@common
@given(elements(2, max_terms=2), elements(2, max_terms=2), st.integers(1, 32))
def test_representation_multiplicative(x, y, n):
    v = StateVector.unit(n)
    assert rep_apply(x * y, v) == rep_apply(x, rep_apply(y, v))


@common
@given(elements(2))
def test_equality_is_symmetric_difference(x):
    assert x.equals(x)
    assert (x - x).normal_form().is_zero


@common
@given(elements(3))
def test_json_round_trip(x):
    assert element_from_dict(element_to_dict(x)) == x


@common
@given(elements(2))
def test_text_round_trip(x):
    assert parse_element(str(x), 2) == x


@common
@given(st.lists(st.integers(1, 20), unique=True).map(sorted).map(tuple))
def test_fock_decode_inverse(modes):
    assert decode_index(fock_index(modes)) == modes


@common
@given(st.integers(1, 2**24))
def test_fock_encode_inverse(index):
    assert fock_index(decode_index(index)) == index


# -- coefficients stay exact ---------------------------------------------------


def stored_exactly(values):
    """Every value is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in values)


def exact(values):
    """No value is a float: each is an int or a Fraction."""
    return all(type(c) in (int, Fraction) for c in values)


scale_factors = st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=4))


@common
@given(elements(3), scale_factors)
def test_scale_stores_integral_values_as_int(x, k):
    assert stored_exactly(x.scale(k).terms.values())
    assert stored_exactly(StateVector({1: 1, 2: Fraction(1, 2), 3: -2}).scale(k).amps.values())


@common
@given(elements(2, max_len=3),
       st.dictionaries(st.integers(1, 40), coefficients(), min_size=1, max_size=4))
def test_rep_apply_amplitudes_are_exact(x, amps):
    assert exact(rep_apply(x, StateVector(amps)).amps.values())


def level_one(d):
    """Charge-zero elements s_i s_j* with exact coefficients."""
    word = st.tuples(st.integers(1, d), st.integers(1, d)).map(
        lambda ij: Monomial((ij[0],), (ij[1],)))
    return st.lists(st.tuples(word, coefficients()), min_size=1, max_size=3).map(
        lambda terms: Element(d, terms))


@common
@given(st.lists(level_one(2), min_size=1, max_size=3), scale_factors.filter(bool))
def test_span_rank_rows_are_exact(gens, k):
    tables = []
    eliminate = rfs_module.eliminate

    def recording(rows, coords):
        tables.append(rows)
        return eliminate(rows, coords)

    with mock.patch.object(rfs_module, "eliminate", recording):
        rank = span_rank(gens, 1, 2).rank
        assert span_rank([g.scale(k) for g in gens], 1, 2).rank == rank
    assert all(stored_exactly(row.values()) for rows in tables for _, row in rows.values())


@common
@given(st.integers(1, 5), elements(2, max_len=1))
def test_spectrum_polynomial_factors_are_exact(p, a):
    # prod_k (N + (k - p/2) I) with N = [a*, a] / 2, built as the spectrum check does.
    number = (a.adjoint() * a - a * a.adjoint()).scale(Fraction(1, 2))
    assert stored_exactly(number.terms.values())
    unit = identity(2)
    product = identity(2)
    for k in range(p + 1):
        shift = unit.scale(Fraction(k) - Fraction(p, 2))
        assert stored_exactly(shift.terms.values())
        assert (type(shift.coefficient((), ())) is int) == ((2 * k - p) % 2 == 0)
        product = product * (number + shift)
        assert exact(product.terms.values())
