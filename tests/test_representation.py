"""Action on the indexed basis, Fock indexing, vacuum shifts."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from cuntz import (
    Element,
    GreenSystem,
    IndexRangeError,
    RecursiveMap,
    ResourceLimitError,
    RfsSystem,
    StateVector,
    apply_generator,
    apply_generator_adjoint,
    bogoliubov_family,
    decode_index,
    fock_build,
    fock_index,
    generalized_rfs_o2d,
    rep_apply,
    rep_generator,
    rfs_p_fock_index,
    rho,
    standard_rfs_o2,
    standard_rfs_p,
    standard_rpfs_p,
    verify_car,
    verify_vacuum,
)
from cuntz import config
from cuntz.sampling import random_element

e = StateVector.unit


class TestGeneratorAction:
    def test_s1_fixes_e1(self):
        assert apply_generator(1, e(1), 2) == e(1)

    def test_adjoint_annihilates_wrong_branch(self):
        # s1* e_{2n} = 0 over two letters
        for n in (1, 2, 5):
            assert apply_generator_adjoint(1, e(2 * n), 2).is_zero
            assert apply_generator_adjoint(2, e(2 * n), 2) == e(n)

    def test_branch_arithmetic(self):
        assert apply_generator(2, e(3), 2) == e(6)

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            apply_generator(3, e(1), 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cuntz_relations_on_basis(self, d):
        for n in range(1, 65):
            v = e(n)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    out = apply_generator_adjoint(i, apply_generator(j, v, d), d)
                    assert out == (v if i == j else StateVector.zero())
            total = StateVector.zero()
            for i in range(1, d + 1):
                total = total + apply_generator(i, apply_generator_adjoint(i, v, d), d)
            assert total == v

    def test_large_indices_are_exact(self):
        # branch indices grow geometrically; stay exact far past 64 bits
        v = e(1)
        for _ in range(200):
            v = apply_generator(2, v, 2)
        (index, amp), = v.items()
        assert amp == 1 and index == 2**200


class TestRepApply:
    def test_word_action(self):
        assert rep_apply(Element.word(2, (1,), (2,)), e(2)) == e(1)

    def test_seed_anticommutator_acts_as_identity(self, std_o2):
        a = std_o2.seeds[0]
        x = a * a.adjoint() + a.adjoint() * a
        for n in range(1, 17):
            assert rep_apply(x, e(n)) == e(n)

    def test_normal_form_acts_identically(self, rng):
        for _ in range(40):
            x = random_element(rng, 2)
            for n in (1, 2, 3, 17, 32):
                assert rep_apply(x, e(n)) == rep_apply(x.normal_form(), e(n))

    def test_products_compose(self, rng):
        for _ in range(25):
            x, y = random_element(rng, 2), random_element(rng, 2)
            for n in (1, 5, 32):
                assert rep_apply(x * y, e(n)) == rep_apply(x, rep_apply(y, e(n)))

    def test_linear_combinations(self):
        x = Element(2, {((1,), ()): Fraction(1, 2), ((2,), ()): 1})
        out = rep_apply(x, e(1))
        assert out == StateVector({1: Fraction(1, 2), 2: 1})


class TestFockIndexing:
    def test_paper_values(self):
        assert fock_index([1]) == 2
        assert fock_index([]) == 1
        assert fock_index([1, 2]) == 4

    def test_decode_round_trip(self):
        for index in range(1, 2**12 + 1):
            assert fock_index(decode_index(index)) == index
        assert decode_index(fock_index([2, 5, 9])) == (2, 5, 9)

    def test_modes_must_increase(self):
        with pytest.raises(IndexRangeError):
            fock_index([2, 2])
        with pytest.raises(IndexRangeError):
            fock_index([3, 1])


class TestFockBuild:
    def test_single_modes(self, std_o2):
        assert fock_build(std_o2, [1]) == e(2)
        assert fock_build(std_o2, [3]) == e(5)

    def test_vacuum(self, std_o2):
        assert fock_build(std_o2, []) == e(1)

    def test_pair_common_to_p2(self, std_o2, rfs2):
        assert fock_build(std_o2, [1, 2]) == e(4)
        assert fock_build(rfs2, [1, 2]) == e(4)

    @pytest.mark.parametrize("modes", [(1,), (2, 3), (1, 4, 6), (5,), (1, 2, 3, 4)])
    def test_all_systems_agree(self, std_o2, rfs2, rfs3, modes):
        target = e(fock_index(modes))
        for system in (std_o2, rfs2, rfs3):
            assert fock_build(system, modes) == target

    def test_cyclicity_at_desk_scale(self, std_o2):
        # every e_N, N <= 64, is reached from the vacuum
        for index in range(1, 65):
            assert fock_build(std_o2, decode_index(index)) == e(index)


class TestVacuum:
    def test_standard_families(self, std_o2, rfs3):
        assert verify_vacuum(std_o2, 8).ok
        assert verify_vacuum(rfs3, 9).ok

    def test_projection_family_fails(self, std_o2):
        from cuntz import GeneratorFamily

        bad = GeneratorFamily(2, lambda n: Element.word(2, (1,), (1,)))
        report = verify_vacuum(bad, 2)
        assert not report.ok
        assert report.first_failure().witness


class TestBogoliubov:
    def test_empty_flip_is_identity(self, std_o2):
        family = bogoliubov_family(std_o2, [])
        for n in range(1, 5):
            assert family.generator(n) == std_o2.generator(n)

    def test_flipped_modes_create_on_old_vacuum(self, std_o2):
        family = bogoliubov_family(std_o2, [1, 2])
        assert rep_apply(family.generator(1), e(1)) == e(2)

    def test_shifted_vacuum(self, std_o2):
        # after swapping modes {1,2}, e_4 is annihilated by every generator
        family = bogoliubov_family(std_o2, [1, 2])
        vac = e(fock_index([1, 2]))
        for n in range(1, 7):
            assert rep_apply(family.generator(n), vac).is_zero

    def test_car_preserved(self, std_o2):
        family = bogoliubov_family(std_o2, [1, 2])
        assert verify_car(family, 4).ok


class TestRfsPFockIndex:
    def test_single_pair(self):
        assert rfs_p_fock_index([(1, 1)], 2) == 2

    def test_coincident_level_merges_digits(self):
        assert rfs_p_fock_index([(1, 1), (1, 2)], 2) == 4

    def test_mixed_levels(self):
        assert rfs_p_fock_index([(1, 1), (2, 2)], 2) == 10

    def test_agrees_with_flat_fock_index(self):
        pairs = [(1, 2), (2, 1), (3, 2)]
        p = 2
        flat = [p * (m - 1) + i for m, i in pairs]
        assert rfs_p_fock_index(pairs, p) == fock_index(flat)

    def test_agrees_with_fock_build_over_four_letters(self, rfs2):
        pairs = [(1, 1), (2, 2)]
        flat = [2 * (m - 1) + i for m, i in pairs]
        index = rfs_p_fock_index(pairs, 2)
        assert fock_build(rfs2, flat) == e(index)

    def test_monotonicity_enforced(self):
        with pytest.raises(IndexRangeError):
            rfs_p_fock_index([(1, 2), (1, 1)], 2)
        with pytest.raises(IndexRangeError):
            rfs_p_fock_index([(1, 3)], 2)


class TestStateVector:
    def test_no_zero_amplitudes(self):
        assert StateVector({3: 0}).is_zero

    def test_rejects_bad_index(self):
        with pytest.raises(IndexRangeError):
            StateVector({0: 1})

    def test_arithmetic(self):
        v = StateVector({1: 1, 2: Fraction(1, 2)})
        w = StateVector({2: Fraction(-1, 2), 3: 2})
        assert (v + w) == StateVector({1: 1, 3: 2})
        assert (v - v).is_zero
        assert 2 * v == StateVector({1: 2, 2: 1})

    def test_rendering(self):
        assert str(StateVector.zero()) == "0"
        assert str(e(4)) == "e_4"
        assert str(StateVector({2: Fraction(1, 2)})) == "1/2 e_2"


# A sign matrix that is not diagonal: each digit is read by two sandwiches,
# so the sandwich action branches at every level.
NON_DIAGONAL = ((1, 1, 2), (1, 2, 1), (-1, 1, 1), (1, 2, 2))
# Not symmetric, so the adjoint must transpose the sandwiches; the last two
# sandwiches cancel.
ASYMMETRIC = ((1, 1, 2), (-1, 2, 1), (1, 2, 2), (1, 1, 1), (-1, 1, 1))


# A four-letter map that branches on digits 1, 2 and 4 and is not symmetric.
GREEN_NON_DIAGONAL = ((1, 1, 2), (1, 2, 1), (-1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 3, 4),
                      (-1, 4, 4))


def non_diagonal_system(terms=NON_DIAGONAL):
    seeds = standard_rfs_o2(validate=False).seeds
    return RfsSystem(seeds, RecursiveMap(2, terms), rho(2), label="non-diagonal",
                     validate=False)


def non_diagonal_green():
    """std-rpfs:2 with component 2's map replaced by GREEN_NON_DIAGONAL."""
    base = standard_rpfs_p(2, validate=False)
    return GreenSystem(base.seeds, (base.zetas[0], RecursiveMap(4, GREEN_NON_DIAGONAL)),
                       base.phis, label="green-non-diagonal", validate=False)


SANDWICH_SYSTEMS = {
    "std-o2": standard_rfs_o2,
    "std-rfs-p:2": lambda: standard_rfs_p(2),
    "std-rfs-p:3": lambda: standard_rfs_p(3),
    "rfs-o4": lambda: generalized_rfs_o2d(2, [1, 3], [2, 4]),
    "non-diagonal": non_diagonal_system,
    "asymmetric": lambda: non_diagonal_system(terms=ASYMMETRIC),
    "std-rpfs:2": lambda: standard_rpfs_p(2),
    "std-rpfs:3": lambda: standard_rpfs_p(3),
    "green-non-diagonal": non_diagonal_green,
}

# Every built-in fermion system (std-o2 and std-rfs-p:<p>, p up to the default limit).
BUILT_IN_RFS = {"std-o2": lambda: standard_rfs_o2(validate=False),
                **{f"std-rfs-p:{p}": (lambda p=p: standard_rfs_p(p, validate=False))
                   for p in range(1, 7)}}


@cache
def sandwich_system(name):
    return SANDWICH_SYSTEMS[name]()


@st.composite
def sandwich_cases(draw):
    name = draw(st.sampled_from(sorted(SANDWICH_SYSTEMS)))
    system = sandwich_system(name)
    d = system.d
    # Few coefficients of both signs, so that images of distinct basis
    # vectors landing on one index often cancel.
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    amps = draw(st.lists(st.tuples(st.integers(1, d**6), coeff), min_size=1, max_size=4))
    # A std-rpfs:3 generator n expands into 12 * 8^(n-1) words.
    n = draw(st.integers(1, 4 if isinstance(system, GreenSystem) else 9))
    return name, n, StateVector(amps), draw(st.booleans())


class TestSandwichAction:
    """``rep_generator`` against ``rep_apply`` on the expanded generator."""

    @settings(max_examples=200, deadline=None)
    @given(sandwich_cases())
    def test_matches_expanded_generator(self, case):
        name, n, v, adjoint = case
        system = sandwich_system(name)
        x = system.generator(n)
        expected = rep_apply(x.adjoint() if adjoint else x, v)
        assert rep_generator(system, n, v, adjoint) == expected

    @pytest.mark.parametrize("name", list(BUILT_IN_RFS))
    def test_fock_and_vacuum_match_expansion_path(self, name):
        system = BUILT_IN_RFS[name]()
        # A GeneratorFamily always acts through its expanded generators.
        reference = system.family()
        for n in range(1, 11):
            assert (verify_vacuum(system, n).to_json_lines()
                    == verify_vacuum(reference, n).to_json_lines())
        mode_lists = [(n,) for n in range(1, 11)] + [(n, n + 1) for n in range(1, 10)]
        mode_lists += [(1, 4, 6, 9), tuple(range(1, 11))]
        for modes in mode_lists:
            assert fock_build(system, modes) == fock_build(reference, modes)

    def test_failing_vacuum_matches_expansion_path(self):
        swapped = RfsSystem((Element.word(2, (2,), (1,)),), standard_rfs_o2().zeta, rho(2),
                            validate=False)
        report = verify_vacuum(swapped, 4)
        assert report.to_json_lines() == verify_vacuum(swapped.family(), 4).to_json_lines()
        assert report.first_failure().witness == "A_1 e_1 = e_2"

    def test_other_families_act_through_expansion(self, std_o2):
        family = bogoliubov_family(std_o2, [1, 2])
        for n in range(1, 5):
            for adjoint in (False, True):
                x = family.generator(n)
                expected = rep_apply(x.adjoint() if adjoint else x, e(4))
                assert rep_generator(family, n, e(4), adjoint) == expected

    def test_large_mode_is_not_expanded(self, std_o2):
        # A_2000 has 2^1999 words; in sandwich form it moves e_1 to one vector.
        assert rep_generator(std_o2, 2000, e(1), adjoint=True) == e(2**1999 + 1)
        assert rep_generator(std_o2, 2000, e(1)).is_zero
        assert fock_build(std_o2, [1, 2000]) == e(fock_index([1, 2000]))

    def test_branching_is_held_to_the_cap(self):
        # Four levels that each double the vector pass a cap of 16, not one of 8.
        system = non_diagonal_system()
        with config.scoped_max_terms(16):
            assert len(rep_generator(system, 5, e(1), True)) == 16
        with config.scoped_max_terms(8):
            with pytest.raises(ResourceLimitError, match="in rep_generator"):
                rep_generator(system, 5, e(1), True)

    def test_scoped_cap_reaches_branching(self):
        # The CLI's --max-terms sets this scope for one command.
        system = non_diagonal_system()
        with config.scoped_max_terms(8):
            with pytest.raises(ResourceLimitError, match="cap 8 in rep_generator"):
                rep_generator(system, 5, e(1), True)
        assert len(rep_generator(system, 5, e(1), True)) == 16

    def test_bad_index(self, std_o2):
        with pytest.raises(IndexRangeError):
            rep_generator(std_o2, 0, e(1))


class TestExactAmplitudes:
    def test_integral_amplitudes_are_ints(self):
        v = StateVector({1: Fraction(6, 3), 2: Fraction(1, 2)})
        assert type(v.amps[1]) is int and type(v.amps[2]) is Fraction
        assert type(StateVector.unit(3).amps[3]) is int
        assert type(v.scale(2).amps[2]) is int

    def test_vector_rejects_a_float_amplitude(self):
        with pytest.raises(TypeError, match="0.1"):
            StateVector({1: 0.1})

    def test_scale_rejects_a_float_factor(self):
        with pytest.raises(TypeError, match="0.5"):
            e(1).scale(0.5)
