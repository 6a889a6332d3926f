"""Green components, parastatistics relations, Klein transformation."""

from fractions import Fraction

import pytest

from cuntz import (
    Element,
    GeneratorFamily,
    GreenSystem,
    IndexRangeError,
    Monomial,
    RecursiveMap,
    StateVector,
    anticommutator,
    commutator,
    identity,
    is_u1_invariant,
    klein_factor,
    rep_apply,
    standard_rfs_p,
    standard_rpfs_p,
    verify_cross_commutation,
    verify_green_normalization,
    verify_green_recursive,
    verify_green_relations,
    verify_green_seed,
    verify_klein_identities,
    verify_parafermion_vacuum,
    verify_spectrum_polynomial,
    verify_trilinear,
)

e = StateVector.unit


class TestStandardRpfs2:
    def test_frozen_seeds(self, rpfs2):
        assert rpfs2.seeds[0] == Element(4, {Monomial((1,), (2,)): 1,
                                             Monomial((3,), (4,)): 1})
        assert rpfs2.seeds[1] == Element(4, {Monomial((1,), (3,)): 1,
                                             Monomial((2,), (4,)): 1})

    def test_map_signs(self, rpfs2):
        assert rpfs2.zetas[0].signs() == (1, -1, 1, -1)
        assert rpfs2.zetas[1].signs() == (1, 1, -1, -1)

    def test_seeds_commute(self, rpfs2):
        zero = Element.zero(4)
        assert commutator(rpfs2.seeds[0], rpfs2.seeds[1]).equals(zero)
        assert commutator(rpfs2.seeds[0], rpfs2.seeds[1].adjoint()).equals(zero)

    def test_seed_is_fermionic(self, rpfs2):
        assert anticommutator(rpfs2.seeds[0], rpfs2.seeds[0].adjoint()).equals(identity(4))

    def test_condition_sweeps(self, rpfs2):
        assert verify_green_seed(rpfs2).ok
        assert verify_green_recursive(rpfs2, depth=1).ok
        assert verify_green_normalization(rpfs2, depth=1).ok
        assert verify_cross_commutation(rpfs2, depth=1).ok

    def test_non_commuting_maps_fail_cross_commutation(self, rpfs2):
        # Both maps square to I, but their sign matrices do not commute.
        skew = RecursiveMap(4, ((1, 1, 1), (1, 1, 2), (-1, 2, 2), (1, 3, 3), (-1, 4, 4)))
        system = GreenSystem(rpfs2.seeds, [rpfs2.zetas[0], skew], rpfs2.phis,
                             validate=False)
        report = verify_cross_commutation(system, depth=1)
        assert {r.check: r.witness for r in report.failures()} == {
            "cross-commutation.certificate": "sign matrices of maps 1 and 2 do not commute",
            "cross-commutation.sampled": "[z_1(I), z_2(I)] != 0",
        }


class TestStandardRpfsP:
    def test_p1_is_plain_fermion_triad(self):
        system = standard_rpfs_p(1)
        fermion = standard_rfs_p(1)
        assert system.seeds[0] == fermion.seeds[0]
        assert system.zetas[0].terms == fermion.zeta.terms

    def test_p2_matches_explicit_construction(self, rpfs2):
        system = standard_rpfs_p(2)
        assert system.seeds == rpfs2.seeds
        assert all(za.terms == zb.terms for za, zb in zip(system.zetas, rpfs2.zetas))

    def test_p3_condition_sweeps(self):
        system = standard_rpfs_p(3)
        assert verify_green_seed(system).ok
        assert verify_green_recursive(system, depth=1).ok
        assert verify_cross_commutation(system, depth=1).ok

    def test_p_out_of_range(self):
        with pytest.raises(IndexRangeError):
            standard_rpfs_p(0)
        with pytest.raises(IndexRangeError):
            standard_rpfs_p(5)


class TestGreenComponents:
    def test_base_component_is_seed(self, rpfs2):
        assert rpfs2.green_component(1, 1) == rpfs2.seeds[0]

    def test_component_fermi_relations(self, rpfs2):
        report = verify_green_relations(rpfs2, 4)
        assert report.ok

    def test_components_stay_invariant(self, rpfs2):
        for alpha in (1, 2):
            for n in range(1, 5):
                assert is_u1_invariant(rpfs2.green_component(alpha, n))

    def test_parafermion_generator_sum(self, rpfs2):
        expected = Element(4, {
            Monomial((1,), (2,)): 1, Monomial((3,), (4,)): 1,
            Monomial((1,), (3,)): 1, Monomial((2,), (4,)): 1,
        })
        assert rpfs2.parafermion_generator(1) == expected

    def test_generators_not_nilpotent_but_trilinear(self, rpfs2):
        one = rpfs2.parafermion_generator(1)
        two = rpfs2.parafermion_generator(2)
        assert not (one * one).equals(Element.zero(4))
        inner = commutator(one, two)
        assert commutator(one, inner).equals(Element.zero(4))


class TestTrilinear:
    def test_p2_range4(self, rpfs2):
        assert verify_trilinear(rpfs2, 4).ok

    def test_p1_reduces_to_car(self):
        assert verify_trilinear(standard_rpfs_p(1), 4).ok

    def test_dropped_component_fails(self, rpfs2):
        # drop a_1^{(2)} from the first generator only: the mixed relation
        # [a_1, [a_1*, a_2]] = 2 a_2 then loses the second component of a_2
        def mutated(n):
            if n == 1:
                return rpfs2.green_component(1, 1)
            return rpfs2.parafermion_generator(n)

        report = verify_trilinear(GeneratorFamily(4, mutated), 2)
        assert not report.ok
        assert report.first_failure().witness

    def test_single_component_family_is_plain_car(self, rpfs2):
        # one full component alone is a fermion family: trilinear still
        # holds (order one), while the order-two checks reject it
        family = rpfs2.component_family(1)
        assert verify_trilinear(family, 2).ok
        assert not verify_spectrum_polynomial(family, 1, p=2).ok
        assert not verify_parafermion_vacuum(family, 1, p=2).ok

    def test_adjoint_identity_sign(self, rpfs2):
        # [a_1*, [a_1, a_1*]] = +2 a_1*, fixing the sign of the
        # involution image of the number-action relation
        a = rpfs2.parafermion_generator(1)
        lhs = commutator(a.adjoint(), commutator(a, a.adjoint()))
        assert lhs.equals(a.adjoint().scale(2))


class TestSpectrum:
    def test_p1_number_operator_roots(self):
        system = standard_rpfs_p(1)
        a = system.parafermion_generator(1)
        number = commutator(a.adjoint(), a).scale(Fraction(1, 2))
        unit = identity(2)
        half = Fraction(1, 2)
        product = (number - unit.scale(half)) * (number + unit.scale(half))
        assert product.equals(Element.zero(2))

    def test_p2_range3(self, rpfs2):
        assert verify_spectrum_polynomial(rpfs2, 3).ok

    def test_single_car_generator_fails_p2_polynomial(self, std_o2):
        # a plain fermion generator has the order-1 spectrum, not order-2
        report = verify_spectrum_polynomial(std_o2, 2, p=2)
        assert not report.ok

    def test_wrong_order_witness(self, rpfs2):
        report = verify_spectrum_polynomial(rpfs2, 3, p=1)
        assert report.first_failure().witness == "degree-2 polynomial of N_1 does not vanish"


class TestParafermionVacuum:
    def test_eigenvalue_two(self, rpfs2):
        one = rpfs2.parafermion_generator(1)
        assert rep_apply(one * one.adjoint(), e(1)) == e(1).scale(2)

    def test_off_diagonal_vanishes(self, rpfs2):
        one = rpfs2.parafermion_generator(1)
        two = rpfs2.parafermion_generator(2)
        assert rep_apply(one * two.adjoint(), e(1)).is_zero

    def test_p1_reduces_to_fermi_vacuum(self):
        system = standard_rpfs_p(1)
        a = system.parafermion_generator(1)
        assert rep_apply(a * a.adjoint(), e(1)) == e(1)

    def test_suite(self, rpfs2):
        assert verify_parafermion_vacuum(rpfs2, 4).ok

    def test_wrong_order_witness(self, rpfs2):
        report = verify_parafermion_vacuum(rpfs2, 3, p=1)
        assert [r.check for r in report.failures()] == ["pf-vacuum.eigenvalue"]
        assert report.first_failure().witness == "a_1 a_1* e_1 = 2 e_1"


class TestGreenRelationsHigherOrder:
    def test_p3_relations(self):
        system = standard_rpfs_p(3)
        assert verify_green_relations(system, 3).ok

    def test_p3_components_invariant(self):
        system = standard_rpfs_p(3)
        for alpha in (1, 2, 3):
            for n in (1, 2, 3):
                assert is_u1_invariant(system.green_component(alpha, n))

    def test_generators_are_component_sums(self, rpfs2):
        for n in range(1, 5):
            total = Element.zero(4)
            for alpha in (1, 2):
                total = total + rpfs2.green_component(alpha, n)
            assert rpfs2.parafermion_generator(n) == total


class TestProperSubsetWitness:
    def test_parafermion_words_span_less_than_green_words(self, rpfs2):
        # at level 1 the component seeds and adjoints fill all 16 matrix
        # units, while words in the summed generator saturate at rank 10:
        # the parastatistics algebra sits strictly inside the invariant part
        from cuntz import span_rank

        pf = rpfs2.parafermion_generator(1)
        pf_rank = span_rank([pf, pf.adjoint()], 1, 8)
        green_gens = [rpfs2.seeds[0], rpfs2.seeds[1]]
        green_gens += [g.adjoint() for g in green_gens]
        green_rank = span_rank(green_gens, 1, 4)
        assert green_rank.rank == 16 and green_rank.complete
        assert pf_rank.rank == 10
        assert pf_rank.rank < green_rank.rank


class TestKleinFactor:
    def test_empty_product_is_identity(self, rfs2):
        assert klein_factor(rfs2, []).equals(identity(4))

    def test_mode1_frozen_expansion(self, rfs2):
        # I - 2 a_1* a_1 with a_1 = s1 s2* + s3 s4*:
        # a_1* a_1 = s2 s2* + s4 s4*, so the parity reads
        # s1 s1* + s3 s3* - s2 s2* - s4 s4*
        factor = klein_factor(rfs2, [1])
        expected = Element(4, {
            Monomial((1,), (1,)): 1, Monomial((3,), (3,)): 1,
            Monomial((2,), (2,)): -1, Monomial((4,), (4,)): -1,
        })
        assert factor.equals(expected)

    def test_self_adjoint_involution(self, rfs2):
        for modes in ([1], [2], [1, 2], [1, 3]):
            factor = klein_factor(rfs2, modes)
            assert factor.equals(factor.adjoint())
            assert (factor * factor).equals(identity(4))

    def test_factors_commute(self, rfs2):
        f1 = klein_factor(rfs2, [1])
        f2 = klein_factor(rfs2, [2])
        assert commutator(f1, f2).equals(Element.zero(4))

    def test_commutes_with_other_modes(self, rfs2):
        factor = klein_factor(rfs2, [1])
        for n in (2, 3, 4):
            assert commutator(factor, rfs2.generator(n)).equals(Element.zero(4))


class TestKleinIdentities:
    def test_suite_passes(self):
        report = verify_klein_identities(3, depth=2)
        assert report.ok

    def test_untwisted_witnesses(self, monkeypatch):
        # With every parity factor replaced by I, each twisted identity fails
        # at its first candidate in scan order.
        monkeypatch.setattr("cuntz.parafermion.klein_factor",
                            lambda family, modes: identity(family.d))
        report = verify_klein_identities(3, depth=1)
        witnesses = {r.check: r.witness for r in report.failures()}
        assert witnesses == {
            "klein.seed2": "a^(2) != (I - 2 a_1* a_1) a_2: s1 s3* - s2 s4*",
            "klein.map1": "z_1^1(I) != parity twist",
            "klein.map2": "z_2^1(I) != parity twist",
            "klein.green1": "component 1 generator 2 mismatch",
            "klein.green2": "component 2 generator 1 mismatch",
        }

    def test_seed_relations_explicitly(self, rfs2, rpfs2):
        assert rpfs2.seeds[0].normal_form() == rfs2.seeds[0].normal_form()
        twisted = klein_factor(rfs2, [1]) * rfs2.seeds[1]
        assert rpfs2.seeds[1].equals(twisted)

    def test_first_twist_explicitly(self, rfs2, rpfs2):
        # component 1, generator 2: parity over mode 2 twists z(a_1)
        lhs = rpfs2.green_component(1, 2)
        rhs = klein_factor(rfs2, [2]) * rfs2.generator(3)
        assert lhs.equals(rhs)
