"""Recursive systems: constructors, embeddings, condition suites, span rank."""

import copy
import pickle
from fractions import Fraction

import pytest

from cuntz import config
from cuntz import rfs as rfs_module
from cuntz.reports import FAIL, INCONCLUSIVE, PASS, Report
from cuntz import (
    Element,
    IndexRangeError,
    Monomial,
    RecursiveMap,
    ResourceLimitError,
    RfsSystem,
    SpanResult,
    SystemValidationError,
    anticommutator,
    compose_with_endomorphism,
    generalized_rfs_o2d,
    identity,
    is_u1_invariant,
    phi1,
    rho,
    span_dimension_check,
    span_rank,
    standard_rfs_o2,
    standard_rfs_p,
    validate_system,
    verify_all,
    verify_car,
    verify_normalization,
    verify_recursive_condition,
    verify_seed_condition,
)

def flip_seed_sign(system, seed_index, term_index):
    """Rebuild a system with one seed coefficient negated, skipping validation."""
    seeds = list(system.seeds)
    items = seeds[seed_index].sorted_terms()
    mutated = {m: (-c if k == term_index else c) for k, (m, c) in enumerate(items)}
    seeds[seed_index] = Element(system.d, mutated)
    return RfsSystem(seeds, system.zeta, system.phi, label="mutant", validate=False)


def flip_zeta_sign(system, term_index):
    terms = [((-s if k == term_index else s), u, v)
             for k, (s, u, v) in enumerate(system.zeta.terms)]
    return RfsSystem(system.seeds, RecursiveMap(system.d, tuple(terms)), system.phi,
                     label="mutant", validate=False)


def suites_all_pass(system, depth=2):
    return (verify_seed_condition(system).ok
            and verify_recursive_condition(system, depth=depth).ok
            and verify_normalization(system, depth=depth).ok)


def some_suite_fails(system, depth=2):
    return not suites_all_pass(system, depth=depth)


class TestStandardO2:
    def test_seed(self, std_o2):
        assert std_o2.seeds[0] == Element.word(2, (1,), (2,))

    def test_all_conditions(self, std_o2):
        assert verify_seed_condition(std_o2).ok
        assert verify_recursive_condition(std_o2, depth=2).ok
        assert verify_normalization(std_o2, depth=2).ok

    def test_first_generator_is_seed(self, std_o2):
        assert std_o2.generator(1) == std_o2.seeds[0]

    def test_second_generator_frozen_expansion(self, std_o2):
        expected = Element(2, {Monomial((1, 1), (1, 2)): 1, Monomial((2, 1), (2, 2)): -1})
        assert std_o2.generator(2) == expected
        # independent check: A_2 = z(a) computed by the bare map
        assert std_o2.zeta.apply(std_o2.seeds[0]) == expected

    def test_term_count_growth(self, std_o2):
        for n in range(1, 11):
            assert len(std_o2.generator(n)) == 2 ** (n - 1)

    def test_zeta_power_matches_free_iteration(self, std_o2):
        a = std_o2.seeds[0]
        assert std_o2.zeta.power(0, a) == a
        assert std_o2.zeta.power(3, a) == std_o2.generator(4)

    def test_generators_store_int_coefficients(self):
        system = standard_rfs_o2()
        for n in range(1, 6):
            assert all(type(c) is int for c in system.generator(n).terms.values())
        assert len(system.generator(5)) == 16

    def test_generators_are_invariant(self, std_o2):
        for n in range(1, 7):
            assert is_u1_invariant(std_o2.generator(n))


class TestGeneralizedO2d:
    def test_plus_partition_gives_paper_seed(self):
        system = generalized_rfs_o2d(2, (1, 3), (2, 4))
        assert system.seeds[0] == Element(4, {Monomial((1,), (2,)): 1,
                                              Monomial((3,), (4,)): 1})

    def test_specializes_to_standard(self, std_o2):
        system = generalized_rfs_o2d(1, (1,), (2,))
        assert system.seeds[0] == std_o2.seeds[0]
        assert system.zeta.terms == std_o2.zeta.terms

    def test_signed_partition_reproduces_second_seed(self, rfs2):
        # parts {1,2},{3,4} with eps = (+,-) give s1 s3* - s2 s4*
        system = generalized_rfs_o2d(2, (1, 2), (3, 4), eps=(1, -1))
        assert system.seeds[0] == rfs2.seeds[1]
        assert suites_all_pass(system)

    def test_three_pair_partition_over_six_letters(self):
        system = generalized_rfs_o2d(3, (1, 3, 5), (2, 4, 6))
        assert system.d == 6
        assert suites_all_pass(system, depth=1)
        assert verify_car(system, 4).ok

    def test_invalid_partition_rejected(self):
        with pytest.raises(IndexRangeError):
            generalized_rfs_o2d(2, (1, 2), (2, 4))
        with pytest.raises(IndexRangeError):
            generalized_rfs_o2d(2, (2, 1), (3, 4))
        with pytest.raises(IndexRangeError):
            generalized_rfs_o2d(2, (1, 2), (3, 4), eps=(-1, 1))

    def test_bad_seed_system_fails_validation(self):
        # a projection seed cannot satisfy {a, a*} = I
        seed = Element.word(2, (1,), (1,))
        zeta = RecursiveMap(2, ((1, 1, 1), (-1, 2, 2)))
        with pytest.raises(SystemValidationError):
            RfsSystem((seed,), zeta, rho(2))


class TestStandardRfsP:
    def test_p1_collapses_to_standard(self, std_o2):
        system = standard_rfs_p(1)
        assert system.seeds[0] == std_o2.seeds[0]
        assert system.zeta.terms == std_o2.zeta.terms

    def test_p2_frozen_values(self, rfs2):
        assert rfs2.seeds[0] == Element(4, {Monomial((1,), (2,)): 1,
                                            Monomial((3,), (4,)): 1})
        assert rfs2.seeds[1] == Element(4, {Monomial((1,), (3,)): 1,
                                            Monomial((2,), (4,)): -1})
        assert tuple(s for s, _, _ in rfs2.zeta.terms) == (1, -1, -1, 1)

    def test_p3_passes_all_suites(self, rfs3):
        assert verify_seed_condition(rfs3).ok
        assert verify_recursive_condition(rfs3, depth=2).ok

    def test_p_out_of_range(self):
        with pytest.raises(IndexRangeError):
            standard_rfs_p(0)
        with pytest.raises(IndexRangeError):
            standard_rfs_p(7)

    def test_generator_indexing(self, rfs2):
        # n-1 = p(q-1) + (i-1): n=2 -> seed 2, n=3 -> z(a_1)
        assert rfs2.generator(2) == rfs2.seeds[1]
        assert rfs2.generator(3) == rfs2.zeta.apply(rfs2.seeds[0])

    def test_growth_law(self, rfs2, rfs3):
        # term count of z^{n-1}(a_i) is (number of sandwiches)^{n-1} x seed terms
        for system in (rfs2, rfs3):
            base = len(system.seeds[0])
            sandwiches = len(system.zeta.terms)
            for n in range(1, 4):
                assert len(system.component(1, n)) == base * sandwiches ** (n - 1)


class TestCar:
    def test_standard_o2_range8(self, std_o2):
        assert verify_car(std_o2, 8).ok

    def test_rfs2_range6(self, rfs2):
        assert verify_car(rfs2, 6).ok

    def test_explicit_normal_forms(self, std_o2):
        unit = identity(2)
        for m in range(1, 5):
            for n in range(m, 5):
                gm, gn = std_o2.generator(m), std_o2.generator(n)
                assert anticommutator(gm, gn).normal_form().is_zero
                mixed = anticommutator(gm, gn.adjoint())
                expected = unit if m == n else Element.zero(2)
                assert (mixed - expected).normal_form().is_zero

    def test_composed_family_satisfies_car(self, std_o2):
        family = compose_with_endomorphism(std_o2, phi1())
        assert verify_car(family, 4).ok

    def test_composition_functorial(self, std_o2):
        endo = phi1()
        family = compose_with_endomorphism(std_o2, endo)
        for m in range(1, 4):
            for n in range(1, 4):
                lhs = anticommutator(family.generator(m), family.generator(n))
                rhs = endo.apply(anticommutator(std_o2.generator(m), std_o2.generator(n)))
                assert lhs.equals(rhs)

    def test_rho_composition_stays_invariant(self, std_o2):
        family = compose_with_endomorphism(std_o2, rho(2))
        for n in range(1, 5):
            assert is_u1_invariant(family.generator(n))

    def test_phi1_composition_leaves_invariant_sector(self, std_o2):
        family = compose_with_endomorphism(std_o2, phi1())
        grades = {m.excess for m in family.generator(1).terms}
        assert grades == {-2, -1}


class TestRecursiveConditionDiagnostics:
    def test_all_plus_map_fails_fast(self, std_o2):
        # the all-plus map is the canonical endomorphism: it commutes with
        # the seed instead of anticommuting, witnessed already at depth 1
        bad = RfsSystem(std_o2.seeds, RecursiveMap(2, ((1, 1, 1), (1, 2, 2))),
                        std_o2.phi, validate=False)
        report = verify_recursive_condition(bad, depth=1)
        assert not report.ok
        names = {r.check for r in report.failures()}
        assert "recursive.certificate" in names
        assert "recursive.sampled" in names

    def test_certificate_passes_for_standard(self, rfs2):
        report = verify_recursive_condition(rfs2, depth=1)
        certs = [r for r in report if r.check == "recursive.certificate"]
        assert len(certs) == rfs2.p and all(r.passed for r in certs)

    def test_flipping_any_zeta_sign_breaks_rfs2(self, rfs2):
        for k in range(len(rfs2.zeta.terms)):
            assert not verify_recursive_condition(flip_zeta_sign(rfs2, k), depth=2).ok


class TestNormalizationSweep:
    def test_standard_pass(self, std_o2):
        report = verify_normalization(std_o2, depth=2)
        assert report.ok
        cert = [r for r in report if r.check == "normalization.certificate"]
        assert cert[0].params["applicable"] is True

    def test_diagonal_sign_flips_keep_normalization(self, rfs2):
        # products contract pairwise, so diagonal sign flips cancel; the
        # recursive condition, not normalization, catches those mutants
        mutant = flip_zeta_sign(rfs2, 2)
        assert verify_normalization(mutant, depth=1).ok
        assert not verify_recursive_condition(mutant, depth=1).ok

    def test_wrong_endomorphism_caught_by_sweep(self, std_o2):
        # declaring a charge-mixing endomorphism as the normalizer: the
        # matrix certificate does not apply and the pair sweep refutes it
        bad = RfsSystem(std_o2.seeds, std_o2.zeta, phi1(), validate=False)
        report = verify_normalization(bad, depth=1)
        assert not report.ok
        by_name = {r.check: r for r in report}
        assert by_name["normalization.certificate"].params["applicable"] is False
        assert by_name["normalization.certificate"].status == "inconclusive"
        assert by_name["normalization.sampled"].status == "fail"


class TestMutations:
    def test_every_seed_sign_flip_breaks_p2_p3(self):
        for p in (2, 3):
            system = standard_rfs_p(p)
            for i in range(p):
                for k in range(len(system.seeds[i])):
                    mutant = flip_seed_sign(system, i, k)
                    assert not verify_seed_condition(mutant).ok, (p, i, k)

    def test_every_zeta_sign_flip_breaks_p1_p2_p3(self):
        for p in (1, 2, 3):
            system = standard_rfs_p(p)
            for k in range(len(system.zeta.terms)):
                mutant = flip_zeta_sign(system, k)
                assert some_suite_fails(mutant), (p, k)

    def test_whole_seed_negation_is_a_symmetry(self):
        # negating an entire seed preserves all three conditions and the
        # embedded relations; with a one-term seed (p = 1) the single
        # possible sign flip is exactly this symmetry, so it must pass.
        system = standard_rfs_p(1)
        mutant = flip_seed_sign(system, 0, 0)
        assert suites_all_pass(mutant)
        assert verify_car(mutant, 4).ok

    def test_seed_negation_symmetry_at_p2(self, rfs2):
        seeds = [(-1) * rfs2.seeds[0], rfs2.seeds[1]]
        mutant = RfsSystem(seeds, rfs2.zeta, rfs2.phi, validate=False)
        assert verify_seed_condition(mutant).ok


class TestSignFormulaCrossCheck:
    def test_p4_seeds_pass_and_every_flip_breaks(self):
        # the closed formulas stay consistent up to the default cap region,
        # and the seed condition alone pins every single sign at p = 4
        system = standard_rfs_p(4)
        assert verify_seed_condition(system).ok
        for i in range(4):
            for k in range(len(system.seeds[i])):
                assert not verify_seed_condition(flip_seed_sign(system, i, k)).ok

    def test_unsigned_second_seed_fails_pairing(self, rfs2):
        # with a_2 = s1 s3* + s2 s4* (no minus) the pair is not fermionic
        seeds = (rfs2.seeds[0],
                 Element(4, {Monomial((1,), (3,)): 1, Monomial((2,), (4,)): 1}))
        system = RfsSystem(seeds, rfs2.zeta, rfs2.phi, validate=False)
        report = verify_seed_condition(system)
        bad = report.first_failure()
        assert bad is not None and bad.check == "seed.anticommute"
        assert "a_1, a_2" in bad.witness


class TestSpanDimension:
    def test_o2_level1(self, std_o2):
        result = span_dimension_check(std_o2, 1)
        assert (result.rank, result.expected, result.complete) == (4, 4, True)

    def test_o2_level2(self, std_o2):
        result = span_dimension_check(std_o2, 2)
        assert (result.rank, result.expected, result.complete) == (16, 16, True)

    def test_rfs2_level1(self, rfs2):
        result = span_dimension_check(rfs2, 1)
        assert (result.rank, result.expected, result.complete) == (16, 16, True)

    @pytest.mark.parametrize("system, k, expected", [
        ("std-o2", 1, SpanResult(4, 4, True, 4)),
        ("std-o2", 2, SpanResult(16, 16, True, 48)),
        ("std-rfs-p:2", 1, SpanResult(16, 16, True, 48)),
    ])
    def test_span_result_is_pinned(self, std_o2, rfs2, system, k, expected):
        # Every field, products_considered included: the elimination order
        # must not change which products count as independent.
        assert span_dimension_check(std_o2 if system == "std-o2" else rfs2, k) == expected

    def test_basis_cap_guard(self, rfs3, monkeypatch):
        # Level 3 of d = 8 has 8^6 = 262,144 basis words, past the basis cap
        # of 65,536: the guard refuses before any product is formed.
        products = []
        monkeypatch.setattr(Element, "__mul__", lambda x, y: products.append((x, y)))
        with pytest.raises(ResourceLimitError) as err:
            span_dimension_check(rfs3, 3)
        assert (err.value.count, err.value.cap, err.value.what, err.value.operation) == (
            8**6, 65_536, "basis size", "span_rank")
        assert products == []

    def test_scaled_generators_keep_rank_and_exact_rows(self, std_o2, monkeypatch):
        # Scaled generators give pivots other than +-1, so the elimination
        # divides; every division must stay exact, so no row value is a float.
        tables = []
        eliminate = rfs_module.eliminate

        def recording(rows, coords):
            tables.append(rows)
            return eliminate(rows, coords)

        monkeypatch.setattr(rfs_module, "eliminate", recording)
        gens = [std_o2.generator(n) for n in (1, 2)]
        gens += [g.adjoint() for g in gens]
        unscaled = span_rank(gens, 2, 4)
        assert (unscaled.rank, unscaled.complete) == (16, True)
        for factors in ((2, 2, 2, 2), (3, 3, 3, 3), (2, 3, Fraction(1, 3), -2)):
            scaled = span_rank([g.scale(k) for g, k in zip(gens, factors)], 2, 4)
            assert scaled.rank == unscaled.rank
        values = [c for rows in tables for _, row in rows.values() for c in row.values()]
        assert values and all(type(c) in (int, Fraction) for c in values)
        # Each row is scaled so that its pivot is 1.
        for rows in tables:
            assert all(row[pivot] == 1 for pivot, (_, row) in rows.items())


class TestResourceCaps:
    """Generators grown as words are held to the one scoped term cap."""

    def test_zeta_power_respects_cap(self):
        system = standard_rfs_o2()
        with config.scoped_max_terms(8), pytest.raises(ResourceLimitError) as err:
            system.generator(6)
        assert err.value.count > 8

    def test_family_cap(self, std_o2):
        family = compose_with_endomorphism(std_o2, rho(2))
        with config.scoped_max_terms(2), pytest.raises(ResourceLimitError):
            family.generator(3)

    def test_cap_errors_name_the_generator(self, std_o2):
        system = standard_rfs_o2()
        family = compose_with_endomorphism(std_o2, rho(2))
        for grow, cap in ((lambda: system.generator(6), 8), (lambda: family.generator(3), 2)):
            with config.scoped_max_terms(cap), pytest.raises(ResourceLimitError) as err:
                grow()
            assert err.value.operation == "generator"

    def test_zero_cap_is_not_the_default(self):
        # A scoped cap of 0 is a cap of zero terms, not "unset".
        system = standard_rfs_o2()
        with config.scoped_max_terms(0), pytest.raises(ResourceLimitError) as err:
            system.generator(2)
        assert err.value.cap == 0


# std-o2 with the identity endomorphism, given by its images, as phi: valid.
IDENTITY_PHI = {
    "kind": "rfs", "d": 2, "p": 1,
    "seeds": [{"d": 2, "terms": [{"coeff": "1", "create": [1], "annihilate": [2]}]}],
    "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": -1, "left": 2, "right": 2}],
    "phi": {"images": [{"d": 2, "terms": [{"coeff": "1", "create": [i], "annihilate": []}]}
                       for i in (1, 2)]},
}
# std-o2 with the charge-one term s1 s1 s2* added to the seed: a* a is no longer
# a projection, so the seed conditions fail.
CHARGED_SEED = {**IDENTITY_PHI, "phi": "rho", "seeds": [{"d": 2, "terms": [
    {"coeff": "1", "create": [1], "annihilate": [2]},
    {"coeff": "1", "create": [1, 1], "annihilate": [2]}]}]}


class TestValidationDecisions:
    """Both system kinds validate through one triad validation; each kind
    accepts and rejects what its own validation did before."""

    @pytest.mark.parametrize("name, valid", [
        ("negative-control", False), ("identity-phi", True), ("charged-seed", False),
        ("flipped-green", False), ("identity-phi-green", True),
    ])
    def test_accepts_and_rejects(self, name, valid):
        from test_golden import FLIPPED_GREEN, NEGATIVE_CONTROL

        from cuntz.serialize import system_from_dict

        green = {**FLIPPED_GREEN, "triads": [FLIPPED_GREEN["triads"][0], {
            **FLIPPED_GREEN["triads"][1],
            "zeta": [{"sign": s, "left": i, "right": i}
                     for i, s in zip((1, 2, 3, 4), (1, 1, -1, -1))],
            "phi": {"images": [{"d": 4, "terms": [
                {"coeff": "1", "create": [i], "annihilate": []}]} for i in (1, 2, 3, 4)]}}]}
        payload = {"negative-control": NEGATIVE_CONTROL, "identity-phi": IDENTITY_PHI,
                   "charged-seed": CHARGED_SEED, "flipped-green": FLIPPED_GREEN,
                   "identity-phi-green": green}[name]
        if valid:
            assert system_from_dict(payload)._validate().ok
        else:
            with pytest.raises(SystemValidationError):
                system_from_dict(payload)


class TestValidationWords:
    """Validation lists the words of length <= 1 only to refute a failed
    recursive certificate."""

    def _count_sweeps(self, monkeypatch):
        built = []
        words = rfs_module.sweep_words
        monkeypatch.setattr(rfs_module, "sweep_words",
                            lambda *args: built.append(args[2]) or words(*args))
        return built

    def test_a_holding_certificate_lists_no_words(self, monkeypatch):
        built = self._count_sweeps(monkeypatch)
        standard_rfs_p(3)
        assert built == []

    def test_a_failed_certificate_is_refuted_on_words(self, monkeypatch, std_o2):
        built = self._count_sweeps(monkeypatch)
        # z = s1 X s1* + s2 X s2*: z(I) = I, so {a_1, z(I)} = 2 a_1 != 0.
        report = validate_system(RfsSystem(std_o2.seeds, RecursiveMap(2, (
            (1, 1, 1), (1, 2, 2))), rho(2), validate=False))
        assert built == ["recursive.certificate"]
        line = next(r for r in report if r.check == "recursive.certificate")
        assert line.status == "fail" and line.witness == "{a_1, z(I)} != 0"


class TestSignMatrix:
    """A map holds its net sign matrix as a ``cuntz.tensor`` matrix."""

    def test_net_signs_as_sorted_entries(self):
        z = RecursiveMap(2, ((-1, 2, 2), (1, 1, 2), (1, 1, 1), (-1, 1, 2)))
        assert z.sandwich_matrix() == ((1, 1, 1), (2, 2, -1))
        assert z.apply(Element.word(2, (1,), (2,))) == Element(2, {
            Monomial((1, 1), (1, 2)): 1, Monomial((2, 1), (2, 2)): -1})

    @pytest.mark.parametrize("terms, symmetric, normalizing", [
        (((1, 1, 1), (-1, 2, 2)), True, True),
        (((1, 1, 2), (1, 2, 1)), True, True),
        (((1, 1, 2), (-1, 2, 1)), False, False),
        (((1, 1, 1),), True, False),
        (((1, 1, 1), (1, 1, 2), (-1, 2, 2)), False, True),  # an involution
    ])
    def test_certificates_are_matrix_identities(self, terms, symmetric, normalizing):
        z = RecursiveMap(2, terms)
        assert z.is_adjoint_compatible() is symmetric
        assert rfs_module.normalization_matrix_holds(z) is normalizing


class TestValidateSystem:
    def test_report_shape(self, rfs2):
        report = validate_system(rfs2)
        assert report.ok
        checks = {r.check for r in report}
        assert "seed.mixed" in checks
        assert "normalization.certificate" in checks

    def test_verify_all_merges(self, std_o2):
        report = verify_all(std_o2, depth=1, car_range=4)
        assert report.ok
        assert {r.check for r in report} >= {"seed.square", "recursive.sampled",
                                             "normalization.sampled", "car.mixed"}


class TestCertifiedScan:
    """The ``<prefix>condition`` verdict of a certificate and its sweep."""

    @staticmethod
    def scan(certificate, predicate, always_conclude):
        report = Report()
        rfs_module.certified_scan(report, "demo.", {"seed": 1}, certificate, {"depth": 1},
                                  range(3), predicate, lambda i: f"word {i}",
                                  always_conclude=always_conclude)
        return {r.check: r for r in report}

    @pytest.mark.parametrize("always_conclude", [True, False])
    def test_failed_certificate_and_clean_sweep_is_inconclusive(self, always_conclude):
        lines = self.scan((False, "no certificate"), lambda i: True, always_conclude)
        assert lines["demo.certificate"].status == FAIL
        assert lines["demo.sampled"].status == PASS
        assert lines["demo.condition"].status == INCONCLUSIVE
        assert lines["demo.condition"].witness is None

    @pytest.mark.parametrize("always_conclude", [True, False])
    def test_failed_certificate_and_witness_fails(self, always_conclude):
        lines = self.scan((False, "no certificate"), lambda i: i != 1, always_conclude)
        assert lines["demo.sampled"].status == FAIL
        assert lines["demo.sampled"].witness == "word 1"
        if always_conclude:
            assert lines["demo.condition"].status == FAIL
        else:  # a concluded verdict is only reported when asked for
            assert "demo.condition" not in lines


class TestDeepComponent:
    def test_component_fills_the_memo_in_a_loop(self):
        # s1 X s1* keeps one term per level, so level 1500 is cheap, and
        # deeper than the recursion limit.
        zeta = RecursiveMap(2, ((1, 1, 1),))
        seed = Element.word(2, (1,), (2,))
        system = RfsSystem([seed], zeta, rho(2), validate=False)
        assert system.component(1, 3) == zeta.power(2, seed)
        assert system.component(1, 1500) == Element.word(2, (1,) * 1500, (1,) * 1499 + (2,))
        assert system.component(1, 700) == zeta.power(699, seed)

    def test_a_miss_applies_the_map_once_per_new_level(self, monkeypatch):
        zeta = RecursiveMap(2, ((1, 1, 1),))
        system = RfsSystem([Element.word(2, (1,), (2,))], zeta, rho(2), validate=False)
        calls = []
        apply = RecursiveMap.apply
        monkeypatch.setattr(RecursiveMap, "apply",
                            lambda self, x: calls.append(x) or apply(self, x))
        system.component(1, 500)
        system.component(1, 501)
        assert len(calls) == 500

    def test_levels_past_the_cap_are_refused(self):
        # A map that keeps one term per level never meets the term cap, so
        # the level count itself is held to it, before any level is built.
        zeta = RecursiveMap(2, ((1, 1, 1),))
        system = RfsSystem([Element.word(2, (1,), (2,))], zeta, rho(2), validate=False)
        with config.scoped_max_terms(1000):
            assert len(system.component(1, 1000)) == 1
            with pytest.raises(ResourceLimitError,
                               match="levels count 1001 exceeds cap 1000 in generator"):
                system.component(1, 1001)

    @pytest.mark.parametrize("cap", [524_287, 524_288])
    def test_terms_are_counted_before_any_level_is_built(self, monkeypatch, cap):
        # Level 20 of std-o2 has 2^19 = 524,288 terms: a cap one short of
        # that refuses it without applying the map, and a cap of exactly
        # that lets all 19 levels be built.  The map is stubbed out so that
        # the test does not build half a million terms.
        calls = []
        monkeypatch.setattr(RecursiveMap, "apply", lambda self, x: calls.append(x) or x)
        system = standard_rfs_o2(validate=False)
        with config.scoped_max_terms(cap):
            if cap < 2 ** 19:
                with pytest.raises(ResourceLimitError,
                                   match="terms count 524288 exceeds cap 524287 in generator"):
                    system.component(1, 20)
                assert calls == []
            else:
                system.component(1, 20)
                assert len(calls) == 19


class TestRecords:
    """RecursiveMap and SpanResult are immutable values."""

    TERMS = ((1, 1, 1), (-1, 2, 2))

    def test_maps_compare_and_hash_by_value(self):
        zeta = RecursiveMap(2, self.TERMS)
        twin = RecursiveMap(2, tuple(self.TERMS))
        assert zeta == twin and not zeta != twin and hash(zeta) == hash(twin)
        assert {zeta: 1}[twin] == 1
        for other in (RecursiveMap(3, self.TERMS), RecursiveMap(2, self.TERMS[:1])):
            assert other != zeta and not other == zeta

    def test_map_is_immutable(self):
        zeta = RecursiveMap(2, self.TERMS)
        for field in ("d", "terms", "_matrix"):
            with pytest.raises(AttributeError):
                setattr(zeta, field, 3)
        with pytest.raises(AttributeError):
            del zeta.d
        assert zeta == RecursiveMap(2, self.TERMS)

    @pytest.mark.parametrize("d, terms, message", [
        (2, ((2, 1, 1),), "sandwich sign must be +-1, got 2"),
        (2, ((1, 0, 1),), "sandwich indices (0,1) outside 1..2"),
        (1, ((1, 1, 1),), "alphabet size must be >= 2, got 1"),
    ])
    def test_map_validation_errors(self, d, terms, message):
        with pytest.raises(IndexRangeError) as err:
            RecursiveMap(d, terms)
        assert str(err.value) == message

    def test_map_copies_and_pickles_to_an_equal_map(self):
        zeta = RecursiveMap(2, self.TERMS)
        for twin in (copy.copy(zeta), copy.deepcopy(zeta), pickle.loads(pickle.dumps(zeta))):
            assert twin == zeta and twin.sandwich_matrix() == zeta.sandwich_matrix()

    @pytest.mark.parametrize("index, value", [(0, 5), (1, 5), (2, False), (3, 7)])
    def test_span_result_compares_every_field(self, index, value):
        fields = [4, 4, True, 4]
        same = SpanResult(*fields)
        fields[index] = value
        other = SpanResult(*fields)
        assert same == SpanResult(4, 4, True, 4) and hash(same) == hash(SpanResult(4, 4, True, 4))
        assert other != same and not other == same

    def test_span_result_is_immutable(self):
        result = SpanResult(4, 4, True, 4)
        for field in ("rank", "expected", "complete", "products_considered"):
            with pytest.raises(AttributeError):
                setattr(result, field, 0)
