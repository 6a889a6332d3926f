"""Word arithmetic, canonical form, grading, and the text grammar."""

from fractions import Fraction

import pytest

from cuntz import (
    Element,
    IndexRangeError,
    Monomial,
    ParseError,
    anticommutator,
    grade_decompose,
    identity,
    is_u1_invariant,
    isometry,
    iter_monomials,
    monomial_mul,
    parse_element,
    raise_monomial,
)
from cuntz import config
from cuntz.algebra import sweep_words, unit_words
from cuntz.errors import ResourceLimitError
from cuntz.representation import StateVector, rep_apply


def mono(create, annihilate):
    return Monomial(tuple(create), tuple(annihilate))


def word(d, create, annihilate, coeff=1):
    return Element.word(d, create, annihilate, coeff)


def rep_agree(x, y, n_max=16):
    """Independent oracle: two elements act identically on e_1..e_{n_max}."""
    return all(
        rep_apply(x, StateVector.unit(n)) == rep_apply(y, StateVector.unit(n))
        for n in range(1, n_max + 1)
    )


class TestMonomialMul:
    def test_single_cancellation(self):
        assert monomial_mul(mono([1], [2]), mono([2], [])) == mono([1], [])

    def test_mismatch_kills_product(self):
        assert monomial_mul(mono([1], [2]), mono([1], [])) is None

    def test_hand_reduction_longer_words(self):
        # s1 s2* s1* . s1 s2* s2* = s1 s2* s2* s2*; cross-checked in the
        # representation below.
        x, y = mono([1], [1, 2]), mono([1], [2, 2])
        product = monomial_mul(x, y)
        assert product == mono([1], [2, 2, 2])
        as_elements = word(2, [1], [1, 2]) * word(2, [1], [2, 2])
        composed_action = lambda n: rep_apply(
            word(2, [1], [1, 2]), rep_apply(word(2, [1], [2, 2]), StateVector.unit(n)))
        for n in range(1, 17):
            assert rep_apply(as_elements, StateVector.unit(n)) == composed_action(n)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(IndexRangeError):
            monomial_mul(mono([3], []), mono([1], []), d=2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_associative_on_words(self, d):
        words = list(iter_monomials(d, 2))[:40]
        for x in words[:10]:
            for y in words[10:20]:
                for z in words[20:30]:
                    xy = monomial_mul(x, y)
                    yz = monomial_mul(y, z)
                    left = monomial_mul(xy, z) if xy else None
                    right = monomial_mul(x, yz) if yz else None
                    assert left == right


class TestElementArithmetic:
    def test_delta_product(self):
        # (s1 s2*)(s2 s1*) = s1 s1*
        out = word(2, [1], [2]) * word(2, [2], [1])
        assert out == word(2, [1], [1])

    def test_seed_squares_to_zero(self):
        # a^2 = 0 for a = s1 s2* + s3 s4* over four letters
        a = Element(4, {mono([1], [2]): 1, mono([3], [4]): 1})
        assert (a * a).is_zero

    def test_endomorphism_image_product(self):
        # (s1 s1* + s2 s1 s2*) . s2 s2 reduces to the single word s2 s1 s2;
        # oracle: identical action on e_1..e_16.
        x = Element(2, {mono([1], [1]): 1, mono([2, 1], [2]): 1})
        y = word(2, [2, 2], [])
        out = x * y
        assert out == word(2, [2, 1, 2], [])
        assert rep_agree(out, x * y)
        composed = lambda n: rep_apply(x, rep_apply(y, StateVector.unit(n)))
        for n in range(1, 17):
            assert rep_apply(out, StateVector.unit(n)) == composed(n)

    def test_alphabet_mismatch(self):
        from cuntz import AlphabetMismatchError

        with pytest.raises(AlphabetMismatchError):
            word(2, [1], []) * word(3, [1], [])

    def test_scalar_arithmetic(self):
        a = word(2, [1], [2])
        assert (2 * a - a - a).is_zero
        assert (a.scale(Fraction(1, 2)) * 2) == a


class TestAdjoint:
    def test_single_word(self):
        assert word(2, [1], [2]).adjoint() == word(2, [2], [1])

    def test_involution(self, rng):
        from cuntz.sampling import random_element

        for _ in range(30):
            x = random_element(rng, 2)
            assert x.adjoint().adjoint() == x

    def test_antihomomorphism(self, rng):
        from cuntz.sampling import random_element

        for _ in range(30):
            x, y = random_element(rng, 2), random_element(rng, 2)
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()

    def test_seed_adjoint_product(self):
        a = word(2, [1], [2])
        assert (a.adjoint() * a).equals(word(2, [2], [2]))
        assert rep_agree(a.adjoint() * a, word(2, [2], [2]))


class TestRaiseAndNormalForm:
    def test_identity_raises_to_completeness(self):
        out = raise_monomial(mono([], []), 2)
        assert out == Element(2, {mono([1], [1]): 1, mono([2], [2]): 1})

    def test_raise_single_word(self):
        out = raise_monomial(mono([1], [2]), 2)
        assert out == Element(2, {mono([1, 1], [2, 1]): 1, mono([1, 2], [2, 2]): 1})

    def test_double_raise_preserves_action(self):
        # raising twice gives d^2 terms, all equal to the original element
        x = mono([1], [2])
        once = raise_monomial(x, 2)
        twice = Element.zero(2)
        for m, c in once.terms.items():
            twice = twice + raise_monomial(m, 2).scale(c)
        assert len(twice) == 4
        assert twice.equals(word(2, [1], [2]))
        assert rep_agree(twice, word(2, [1], [2]), n_max=32)

    def test_completeness_relation(self):
        lhs = Element(2, {mono([1], [1]): 1, mono([2], [2]): 1}) - identity(2)
        assert lhs.normal_form().is_zero

    def test_seed_anticommutator_is_identity(self):
        a = word(2, [1], [2])
        assert (anticommutator(a, a.adjoint()) - identity(2)).normal_form().is_zero

    def test_fixed_point(self):
        x = word(2, [1], [2])
        assert x.normal_form() == x

    def test_idempotent(self, rng):
        from cuntz.sampling import random_element

        for _ in range(30):
            x = random_element(rng, 2)
            assert x.normal_form().normal_form() == x.normal_form()

    def test_raising_budget_counts_d_to_the_gap(self, monkeypatch):
        from cuntz import ResourceLimitError

        # I + s1^3 (s1^3)* in O_3: I becomes 27 words, the other word stays one.
        x = identity(3) + word(3, [1] * 3, [1] * 3)
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "28")
        assert len(x.normal_form()) == 27
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "27")
        with pytest.raises(ResourceLimitError) as err:
            x.normal_form()
        assert (err.value.count, err.value.cap, err.value.operation) == (28, 27, "normal_form")

    def test_budget_ignores_elements_that_need_no_raising(self, monkeypatch):
        monkeypatch.setenv("CUNTZ_MAX_TERMS", "1")
        x = word(2, [1], [2]) + word(2, [2], [1])
        assert x.normal_form() == x


class TestEquals:
    def test_identity_vs_completeness(self):
        assert identity(2).equals(Element(2, {mono([1], [1]): 1, mono([2], [2]): 1}))

    def test_distinct_words_differ(self):
        assert not word(2, [1], [2]).equals(word(2, [2], [1]))

    def test_recursive_map_normalization_instance(self, std_o2):
        # z(X) z(Y) = phi(XY) at X = s1, Y = s1*
        x, y = isometry(2, 1), isometry(2, 1).adjoint()
        lhs = std_o2.zeta.apply(x) * std_o2.zeta.apply(y)
        assert lhs.equals(std_o2.phi.apply(x * y))


class TestGrading:
    def test_seed_is_invariant(self, std_o2):
        a = std_o2.seeds[0]
        assert is_u1_invariant(a)
        assert set(grade_decompose(a)) == {0}

    def test_single_isometry_not_invariant(self):
        s1 = isometry(2, 1)
        assert not is_u1_invariant(s1)
        assert set(grade_decompose(s1)) == {1}

    def test_charge_mixing_endomorphism_output(self):
        # phi1 applied to s1 s2* lands in charges {-2, -1}
        from cuntz import phi1

        image = phi1().apply(word(2, [1], [2]))
        assert set(grade_decompose(image)) == {-2, -1}
        assert not is_u1_invariant(image)
        # frozen expansion: s1 (s2 s2 s1)* + s2 s1 (s2 s2 s2)*
        expected = Element(2, {mono([1], [2, 2, 1]): 1, mono([2, 1], [2, 2, 2]): 1})
        assert image == expected

    def test_grade_multiplicativity(self, rng):
        from cuntz.sampling import random_element

        for _ in range(20):
            x, y = random_element(rng, 2), random_element(rng, 2)
            sums = {gx + gy for gx in x.grades() for gy in y.grades()}
            assert (x * y).grades() <= sums


class TestTextGrammar:
    @pytest.mark.parametrize("text,d", [
        ("s1 s2*", 2),
        ("s1 s3* - s2 s4*", 4),
        ("I", 2),
        ("0", 2),
        ("1/2 I + 3 s1 s1*", 2),
        ("- s2 s1 s2* s2*", 2),
        ("s[11] s[10]*", 12),
    ])
    def test_round_trip(self, text, d):
        el = parse_element(text, d)
        assert parse_element(str(el), d) == el

    def test_rendering_conventions(self):
        el = Element(4, {mono([1], [3]): 1, mono([2], [4]): -1})
        assert str(el) == "s1 s3* - s2 s4*"
        assert str(identity(2)) == "I"
        assert str(Element.zero(2)) == "0"
        assert str(Element(2, {mono([], []): Fraction(1, 2)})) == "1/2 I"
        assert str(Element(12, {mono([11], []): 1})) == "s[11]"

    def test_annihilation_letters_render_in_operator_order(self):
        # annihilate word (1,2) means (s1 s2)* = s2* s1*
        el = Element(2, {mono([], [1, 2]): 1})
        assert str(el) == "s2* s1*"
        assert parse_element("s2* s1*", 2) == el

    def test_rejects_bad_input(self):
        with pytest.raises(ParseError):
            parse_element("s1* s2", 2)  # creation after annihilation
        with pytest.raises(ParseError):
            parse_element("s1 +", 2)
        with pytest.raises(ParseError):
            parse_element("q5", 2)
        with pytest.raises(IndexRangeError):
            parse_element("s3", 2)

    def test_zero_element_renders_and_parses(self):
        assert parse_element("0", 2).is_zero


class TestConstructionGuards:
    def test_small_alphabet_rejected(self):
        with pytest.raises(IndexRangeError):
            Element(1, {})
        with pytest.raises(IndexRangeError):
            identity(1)

    def test_zero_coefficients_pruned(self):
        el = Element(2, {mono([1], []): 0})
        assert el.is_zero

    def test_like_terms_merge(self):
        el = Element(2, [(mono([1], []), 1), (mono([1], []), -1)])
        assert el.is_zero


class TestExactCoefficients:
    """Integral coefficients are stored as int; floats never enter."""

    def test_integral_coefficients_are_ints(self):
        el = Element(2, {mono([1], []): Fraction(4, 2), mono([2], []): "-3", mono([], []): 5})
        assert all(type(c) is int for c in el.terms.values())
        assert el.coefficient([1], []) == 2 and el.coefficient([2], [2]) == 0
        assert type(Element(2, {mono([1], []): Fraction(1, 2)}).coefficient([1], [])) is Fraction
        assert [el.terms for el in unit_words(2, [mono([1], [2]), mono([], [])])] == [
            {mono([1], [2]): 1}, {mono([], []): 1}]
        assert type(unit_words(2, [mono([1], [2])])[0].terms[mono([1], [2])]) is int

    def test_scale_by_a_fraction_keeps_integral_results_int(self):
        el = Element(2, {mono([1], []): 2, mono([2], []): 3}).scale(Fraction(1, 2))
        assert el.terms == {mono([1], []): 1, mono([2], []): Fraction(3, 2)}
        assert type(el.terms[mono([1], [])]) is int

    def test_element_rejects_a_float_coefficient(self):
        with pytest.raises(TypeError, match="0.1"):
            Element(2, {((1,), ()): 0.1})
        with pytest.raises(TypeError, match=r"\(1\+2j\)"):
            Element.word(2, (1,), (), 1 + 2j)

    def test_scale_rejects_a_float_factor(self):
        with pytest.raises(TypeError, match="0.5"):
            isometry(2, 1).scale(0.5)
        with pytest.raises(TypeError):
            isometry(2, 1) * 0.5

    def test_text_coefficients_are_exact(self):
        el = parse_element("4/2 s1 - 3 s2 + 1/3 I", 2)
        assert el.terms == {mono([1], []): 2, mono([2], []): -3, mono([], []): Fraction(1, 3)}
        assert type(el.terms[mono([1], [])]) is int
        with pytest.raises(ParseError, match="1/0"):
            parse_element("1/0 s1", 2)

    def test_random_coefficients_are_stored_exactly(self, rng):
        from cuntz.sampling import random_coefficient

        values = [random_coefficient(rng) for _ in range(200)]
        assert all(value and (type(value) is int or
                              (type(value) is Fraction and value.denominator == 2))
                   for value in values)
        assert {type(value) for value in values} == {int, Fraction}


class TestSweepWords:
    """The sweep word list is counted by its closed form before it is built."""

    @pytest.mark.parametrize("d, depth", [(2, 0), (2, 3), (3, 2), (4, 1), (8, 2)])
    def test_closed_form_counts_the_words(self, d, depth):
        monomials, elements = sweep_words(d, depth, "demo")
        assert monomials == list(iter_monomials(d, depth))
        assert len(monomials) == sum((t + 1) * d**t for t in range(depth + 1))
        assert [el.terms for el in elements] == [{m: 1} for m in monomials]

    def test_budget_names_the_sweep_and_its_candidates(self):
        # 49 words of O_2 up to length 3; their ordered pairs number 2401.
        with config.scoped_max_terms(49):
            assert len(sweep_words(2, 3, "demo")[0]) == 49
            with pytest.raises(ResourceLimitError) as err:
                sweep_words(2, 3, "demo.pairs", lambda n: n * n)
        assert (err.value.count, err.value.what, err.value.operation) == (
            2401, "candidates", "sweep demo.pairs")

    def test_huge_alphabet_is_refused_without_listing(self):
        d = 10**30
        with pytest.raises(ResourceLimitError) as err:
            sweep_words(d, 1, "demo")
        assert err.value.count == 1 + 2 * d
