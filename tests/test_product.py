"""Differential test: the prefix-join word product against a pairwise reference.

``Element.__mul__`` joins terms on their shared middle prefix and never forms
a pair that dies.  The reference below forms every pair of terms and reduces
it with ``monomial_mul``; the two must give identical term maps.

Each element keeps the index it was joined by, one per role (left or right
operand), from its first product on.  The cached-index tests repeat products
and reuse one element in both roles, and hold every result to the reference.

Coefficients are stored as ``int`` when integral and as ``Fraction``
otherwise, and arithmetic may leave an integral ``Fraction`` behind.  The
mixed tests hold the product, ``normal_form`` and ``rep_apply`` on such
operands to the same computation with every coefficient a ``Fraction``.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntz import (Element, Monomial, StateVector, algebra, monomial_mul, rep_apply,
                   standard_rpfs_p, verify_normalization)
from cuntz.serialize import element_to_dict


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
    gens = [system.component(alpha, n) for alpha in range(1, 4) for n in (1, 2)]
    gens += [g.adjoint() for g in gens]
    for x in gens:
        for y in gens:
            assert_matches_reference(x, y)


# Integers, proper fractions and integral Fractions, so that every pairing of
# stored types occurs and joined pairs often cancel.
MIXED = [1, -1, 2, -3, Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


def mixed_operands(d):
    index = st.integers(1, d)
    words = st.lists(index, max_size=4).map(tuple)
    monomials = st.builds(Monomial, words, words)
    # _make keeps each coefficient's stored type, integral Fractions included.
    return st.dictionaries(monomials, st.sampled_from(MIXED), max_size=10).map(
        lambda terms: Element._make(d, terms))


def as_fractions(x: Element) -> Element:
    return Element._make(x.d, {m: Fraction(c) for m, c in x.terms.items()})


def reference_action(x: Element, amps: dict) -> dict:
    """x acting on sum_n amps[n] e_n in Fractions, one word and one index at a time.

    s_b* maps e_N to e_m when N = d(m-1) + b and kills it otherwise; s_a maps
    e_m to e_{d(m-1)+a}.  The annihilation word acts first, b1 innermost.
    """
    d = x.d
    out: dict[int, Fraction] = {}
    for m, c in x.terms.items():
        for n, amp in amps.items():
            for b in m.annihilate:
                q, r = divmod(n - b, d)
                if r or q < 0:
                    break
                n = q + 1
            else:
                for a in reversed(m.create):
                    n = d * (n - 1) + a
                out[n] = out.get(n, 0) + Fraction(c) * Fraction(amp)
    return {n: c for n, c in out.items() if c}


@st.composite
def mixed_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    x, y = draw(mixed_operands(d)), draw(mixed_operands(d))
    amps = draw(st.dictionaries(st.integers(1, d**4), st.sampled_from(MIXED), max_size=4))
    return x, y, StateVector._make(amps)


@settings(max_examples=100, deadline=None)
@given(mixed_cases())
def test_mixed_coefficients_match_fraction_reference(case):
    x, y, v = case
    fx, fy = as_fractions(x), as_fractions(y)
    assert (x * y).terms == pairwise_product(fx, fy)
    assert rep_apply(x, v).amps == reference_action(fx, v.amps)
    # The normal form is the same element: equal to the Fraction path's, and
    # acting like x on sum_n n e_n up to e_{d^4} (distinct amplitudes, so a
    # permutation of basis vectors shows).
    nf = x.normal_form()
    assert nf.terms == fx.normal_form().terms
    probe = {n: n for n in range(1, x.d**4 + 1)}
    assert reference_action(nf, probe) == reference_action(fx, probe)
    assert (x * y).normal_form().terms == (fx * fy).normal_form().terms
    assert x.equals(fx) and (x * y).equals(fx * fy)


def int_operands(d):
    index = st.integers(1, d)
    words = st.lists(index, max_size=4).map(tuple)
    coeff = st.sampled_from([1, -1, 2, -3])
    return st.lists(st.tuples(st.builds(Monomial, words, words), coeff),
                    max_size=10).map(lambda terms: Element(d, terms))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(int_operands(d), int_operands(d))))
def test_int_operands_stay_int(pair):
    x, y = pair
    v = StateVector({n: c for n, c in enumerate((1, -2, 3), start=1)})
    results = [(x * y).terms, (x + y).terms, x.normal_form().terms, (x * y).adjoint().terms,
               rep_apply(x, v).amps, x.scale(-2).terms]
    assert all(type(c) is int for r in results for c in r.values())


# -- the join index kept on each element ----------------------------------------


def single_words(d):
    index = st.integers(1, d)
    words = st.lists(index, max_size=5).map(tuple)
    return st.builds(lambda c, a, k: Element(d, {(c, a): k}), words, words,
                     st.sampled_from([1, -1, 2]))


def any_operands(d):
    return st.one_of(operands(d), single_words(d), st.just(Element.zero(d)))


@st.composite
def operand_triples(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    return tuple(draw(any_operands(d)) for _ in range(3))


def snapshot(x: Element):
    return dict(x.terms), str(x), element_to_dict(x), Element._make(x.d, dict(x.terms))


@settings(max_examples=100, deadline=None)
@given(operand_triples())
def test_cached_index_matches_pairwise_reference(triple):
    x, y, z = triple
    before = [snapshot(e) for e in triple]
    # Each element as left operand, as right operand and as both, in an order
    # that reuses an index built by an earlier product; then all again, now
    # that every index exists.
    for _ in range(2):
        for a, b in ((x, y), (y, x), (x, x), (z, x), (x, z), (y, z), (z, z)):
            assert_matches_reference(a, b)
    for e, (terms, text, as_dict, copy) in zip(triple, before):
        assert e.terms == terms
        assert str(e) == text
        assert element_to_dict(e) == as_dict
        assert e == copy


def test_cached_index_keeps_element_immutable():
    x = Element(2, {((1,), (2,)): 1, ((2,), (1, 1)): -1})
    y = Element(2, {((2,), ()): 2, ((1, 2), (1,)): 1})
    first = x * y
    assert x * y == first and (x * y).terms == pairwise_product(x, y)
    for name in ("d", "_terms", "_left", "_right"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip_without_the_index(duplicate):
    x = Element(2, {((1,), (2,)): 1, ((2,), (1, 1)): Fraction(-1, 2), ((), ()): 3})
    x * x  # x holds both join indexes
    assert duplicate(algebra.identity(2)) == algebra.identity(2)
    y = duplicate(x)
    assert y == x and y.equals(x) and y.terms is not x.terms
    assert all(type(m) is Monomial for m in y.terms)
    with pytest.raises(AttributeError):
        y.d = 3
    assert not hasattr(y, "_left") and not hasattr(y, "_right")
    assert (y * y).terms == pairwise_product(x, x)
    assert hasattr(y, "_left") and hasattr(y, "_right")


def test_normalization_sweep_indexes_each_image_once_per_role(monkeypatch, rfs3):
    # 209 sweep words at depth 2 and d = 8.  Every product goes through the
    # prefix join, one-word operands included: each word X is an operand of
    # the word products x*y and each image z(X) of the image products, 418
    # products apiece.  Each of the 418 elements is grouped once as left and
    # once as right operand, so 4 * 209 groupings in all.
    calls, grouped = [], []
    join_index = algebra._join_index

    def counting(terms, side):
        grouped.append(terms)  # kept alive, so no id is reused
        calls.append((id(terms), side))
        return join_index(terms, side)

    monkeypatch.setattr(algebra, "_join_index", counting)
    report = verify_normalization(rfs3, depth=2)
    assert report.ok
    assert len(set(calls)) == len(calls) == 4 * 209


def test_equals_on_equal_terms_skips_normal_form(monkeypatch):
    calls = []
    normal_form = Element.normal_form
    monkeypatch.setattr(Element, "normal_form",
                        lambda self: calls.append(self) or normal_form(self))
    x = Element(3, {((1, 2), (3,)): 2, ((), ()): -1, ((3,), ()): Fraction(1, 2)})
    assert x.equals(Element._make(3, dict(x.terms)))
    assert x.equals(x)
    assert Element.zero(3).equals(Element.zero(3))
    assert calls == []
    # As many terms but not equal: the difference is formed and raised.
    assert not x.equals(x.scale(2))
    assert len(calls) == 1
    calls.clear()
    # Equal in O_3 but not term by term: the normal form decides.
    unit = Element.word(3, (), ())
    assert unit.equals(Element(3, {((i,), (i,)): 1 for i in (1, 2, 3)}))
    assert len(calls) == 1
