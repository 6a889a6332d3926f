"""Generator-image endomorphisms: validation, application, built-ins."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntz import (
    Element,
    EndomorphismValidationError,
    Endomorphism,
    Monomial,
    canonical_endomorphism,
    identity,
    identity_endomorphism,
    isometry,
    phi1,
    phi2,
    rho,
    validate_endomorphism,
)
from cuntz import endomorphisms
from cuntz.endomorphisms import is_rho
from sampling import random_element


def test_rho_images_are_valid():
    endo = validate_endomorphism(rho(2).images)
    assert endo.d == 2
    assert not endo.relation_failures()


def test_phi1_and_phi2_validate():
    assert not phi1().relation_failures()
    assert not phi2().relation_failures()


def test_duplicate_image_rejected():
    s1 = isometry(2, 1)
    with pytest.raises(EndomorphismValidationError) as err:
        validate_endomorphism([s1, s1])
    assert any("s1* s2" in failure for failure in err.value.failures)


def test_non_unital_images_rejected():
    # two orthogonal isometries that do not fill the space: completeness fails
    s1 = isometry(3, 1)
    s2 = isometry(3, 2)
    s3 = isometry(3, 3)
    with pytest.raises(EndomorphismValidationError) as err:
        validate_endomorphism([s1 * s1, s2, s3 * s1])
    assert any("completeness" in failure for failure in err.value.failures)


def test_canonical_endomorphism_on_word():
    # rho(s1 s2*) = s1 s1 s2* s1* + s2 s1 s2* s2*
    x = Element.word(2, (1,), (2,))
    expected = Element(2, {((1, 1), (1, 2)): 1, ((2, 1), (2, 2)): 1})
    assert canonical_endomorphism(x) == expected
    assert rho(2).apply(x).equals(expected)


def test_identity_endomorphism_fixes_everything(rng):
    endo = identity_endomorphism(2)
    for _ in range(20):
        x = random_element(rng, 2)
        assert endo.apply(x) == x


def test_canonical_matches_image_form_on_random_elements(rng):
    endo = rho(2)
    for _ in range(20):
        x = random_element(rng, 2)
        assert canonical_endomorphism(x).equals(endo.apply(x))


def test_unitality():
    for endo in (rho(2), phi1(), phi2()):
        assert endo.apply(identity(2)).equals(identity(2))


def test_multiplicativity_and_star(rng):
    endos = [rho(2), phi1(), phi2()]
    for endo in endos:
        for _ in range(12):
            x, y = random_element(rng, 2), random_element(rng, 2)
            assert endo.apply(x * y).equals(endo.apply(x) * endo.apply(y))
            assert endo.apply(x.adjoint()).equals(endo.apply(x).adjoint())


def test_apply_endomorphism_matches_method():
    x = Element.word(2, (1,), (2,))
    assert rho(2)(x) == rho(2).apply(x)


def test_mismatched_d_rejected():
    from cuntz import AlphabetMismatchError

    with pytest.raises(AlphabetMismatchError):
        rho(2).apply(Element.word(3, (1,), ()))


def test_image_count_must_match_d():
    from cuntz import IndexRangeError

    with pytest.raises(IndexRangeError):
        Endomorphism([isometry(3, 1), isometry(3, 2)])


# -- sandwich form of rho against the generator-image path --------------------


def elements(d):
    index = st.integers(1, d)
    words = st.lists(index, max_size=4).map(tuple)
    # Few coefficients of both signs, so that image terms landing on one word
    # often cancel.
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    term = st.tuples(st.builds(Monomial, words, words), coeff)
    return st.lists(term, max_size=10).map(lambda terms: Element(d, terms))


@st.composite
def rho_inputs(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    return d, draw(elements(d))


def image_path_reference(endo, x):
    """Sum of c * g(A) g(B)* over the terms c s_A s_B* of x, via Element addition."""
    out = Element.zero(x.d)
    for m, c in x.terms.items():
        img = endo.image_of_word(m.create) * endo.image_of_word(m.annihilate).adjoint()
        out = out + img.scale(c)
    return out


@settings(max_examples=150, deadline=None)
@given(rho_inputs())
def test_rho_sandwich_matches_image_path(case):
    d, x = case
    sandwich = rho(d)
    image_form = Endomorphism(list(sandwich.images))
    assert not image_form.is_canonical
    got = sandwich.apply(x)
    assert got.terms == image_form.apply(x).terms
    assert got.equals(canonical_endomorphism(x))
    assert is_rho(sandwich) and is_rho(image_form)


@settings(max_examples=100, deadline=None)
@given(elements(2))
def test_image_path_accumulates_like_addition(x):
    for endo in (phi1(), phi2(), identity_endomorphism(2), Endomorphism(rho(2).images)):
        assert endo.apply(x).terms == image_path_reference(endo, x).terms


def test_is_rho_rejects_other_endomorphisms():
    others = [phi1(), phi2()] + [identity_endomorphism(d) for d in (2, 3, 4)]
    assert not any(is_rho(endo) for endo in others)


def test_rho_maps_the_unit_to_itself():
    # rho(I) = sum_i s_i s_i* = I; the sandwich form keeps the unit word.
    x = Element(3, {((), ()): 2, ((1,), ()): 1})
    assert rho(3).apply(x) == Element(3, {((), ()): 2, ((1, 1), (1,)): 1,
                                          ((2, 1), (2,)): 1, ((3, 1), (3,)): 1})
    assert canonical_endomorphism(identity(3)).equals(identity(3))


def test_rho_images_are_built_on_first_read(monkeypatch):
    endo = rho(5)
    calls = []
    real = endomorphisms.canonical_endomorphism
    monkeypatch.setattr(endomorphisms, "canonical_endomorphism",
                        lambda x: calls.append(x) or real(x))
    endo.apply(Element.word(5, (1, 2), (3,)))
    assert calls == []
    assert endo.images[2] == Element(5, {((i, 3), (i,)): 1 for i in range(1, 6)})
    assert len(calls) == 5
    endo.images
    assert len(calls) == 5


@pytest.mark.parametrize("endo, letter", [(phi2, 1), (phi1, 2)])
def test_long_word_image_is_the_product_of_images(endo, letter):
    # A 1500-letter word is deeper than the recursion limit; its image is
    # built from the longest cached prefix in a loop, caching every prefix.
    e = endo()
    image = e.images[letter - 1]
    products = [identity(2)]
    for _ in range(1500):
        products.append(products[-1] * image)
    assert e.image_of_word((letter,) * 1500).equals(products[1500])
    assert e.image_of_word((letter,) * 700) is e.image_of_word((letter,) * 700)
    assert e.image_of_word((letter,) * 700).equals(products[700])
