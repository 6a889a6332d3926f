"""Acceptance criteria A1..A9.

Every check is exact (rational arithmetic, no tolerances); one line per
criterion is printed so `pytest tests/test_acceptance.py -v -s` doubles
as the acceptance report.  The randomized sweep (A9) uses a fixed seed.
"""

import itertools
import random
from fractions import Fraction

from cuntz import (
    Element,
    bogoliubov_family,
    anticommutator,
    commutator,
    compose_with_endomorphism,
    fock_build,
    fock_index,
    grade_decompose,
    identity,
    phi1,
    phi2,
    rep_apply,
    span_dimension_check,
    standard_rfs_o2,
    standard_rfs_p,
    standard_rpfs2,
    validate_endomorphism,
    verify_car,
    verify_klein_identities,
    verify_normalization,
    verify_recursive_condition,
    verify_seed_condition,
)
from cuntz.representation import StateVector
from cuntz.rfs import RfsSystem, RecursiveMap
from cuntz.sampling import random_element

e = StateVector.unit


def conclude(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_a1_car_relations_standard_o2():
    system = standard_rfs_o2()
    unit = identity(2)
    ok = True
    for m in range(1, 9):
        gm = system.generator(m)
        for n in range(m, 9):
            gn = system.generator(n)
            if not anticommutator(gm, gn).normal_form().is_zero:
                ok = False
            mixed = anticommutator(gm, gn.adjoint())
            expected = unit if m == n else Element.zero(2)
            if not (mixed - expected).normal_form().is_zero:
                ok = False
    conclude("A1", ok, "CAR relations for the standard O_2 system, m <= n <= 8")


def test_a2_span_witness():
    system = standard_rfs_o2()
    r1 = span_dimension_check(system, 1)
    r2 = span_dimension_check(system, 2)
    ok = (r1.rank, r2.rank) == (4, 16) and r1.complete and r2.complete
    conclude("A2", ok, f"span ranks k=1: {r1.rank}/4, k=2: {r2.rank}/16")


def test_a3_fock_binary_formula():
    systems = [standard_rfs_o2(), standard_rfs_p(2), standard_rfs_p(3)]
    ok = True
    count = 0
    for size in range(1, 7):
        for modes in itertools.combinations(range(1, 7), size):
            count += 1
            index = sum(1 << (n - 1) for n in modes) + 1
            assert index == fock_index(modes)
            for system in systems:
                if fock_build(system, modes) != e(index):
                    ok = False
    conclude("A3", ok and count == 63,
             f"{count} nonempty mode sets of {{1..6}} hit their binary index, p in {{1,2,3}}")


def _mutated_seed(system, seed_index, term_index):
    seeds = list(system.seeds)
    items = seeds[seed_index].sorted_terms()
    seeds[seed_index] = Element(
        system.d, {m: (-c if k == term_index else c) for k, (m, c) in enumerate(items)})
    return RfsSystem(seeds, system.zeta, system.phi, label="mutant", validate=False)


def _mutated_zeta(system, term_index):
    terms = tuple((-s if k == term_index else s, u, v)
                  for k, (s, u, v) in enumerate(system.zeta.terms))
    return RfsSystem(system.seeds, RecursiveMap(system.d, terms), system.phi,
                     label="mutant", validate=False)


def _suites_pass(system, depth=2):
    return (verify_seed_condition(system).ok
            and verify_recursive_condition(system, depth=depth).ok
            and verify_normalization(system, depth=depth).ok)


def test_a4_rfs_p_validation_and_mutations():
    ok = True
    for p in (1, 2, 3):
        system = standard_rfs_p(p)
        if not _suites_pass(system, depth=2):
            ok = False
        if not verify_car(system, 3 * p).ok:
            ok = False
        # single-sign mutations of the closed formulas must be caught --
        # except that negating an entire seed is a symmetry of all the
        # conditions (a_i -> -a_i preserves them and the embedded
        # relations), which for the one-term seed at p = 1 is the only
        # possible seed flip; assert the symmetry rather than a failure.
        for i in range(p):
            terms = len(system.seeds[i])
            for k in range(terms):
                mutant = _mutated_seed(system, i, k)
                if terms == 1:
                    if not (_suites_pass(mutant) and verify_car(mutant, 3 * p).ok):
                        ok = False
                elif _suites_pass(mutant):
                    ok = False
        for k in range(len(system.zeta.terms)):
            if _suites_pass(_mutated_zeta(system, k)):
                ok = False
    conclude("A4", ok, "closed formulas verify for p in {1,2,3}; sign mutations caught")


def test_a5_parafermion_relations():
    system = standard_rpfs2()
    ok = True

    gens = [system.generator(n) for n in range(1, 5)]
    adjs = [a.adjoint() for a in gens]
    zero = Element.zero(4)
    for l in range(4):
        for m in range(4):
            for n in range(4):
                if not commutator(gens[l], commutator(gens[m], gens[n])).equals(zero):
                    ok = False
                expected = gens[n].scale(2) if l == m else zero
                if not commutator(gens[l], commutator(adjs[m], gens[n])).equals(expected):
                    ok = False

    unit = identity(4)
    for n in range(1, 4):
        a = system.generator(n)
        number = commutator(a.adjoint(), a).scale(Fraction(1, 2))
        product = (number - unit) * number * (number + unit)
        if not product.equals(zero):
            ok = False

    vac = e(1)
    for m in range(4):
        for n in range(4):
            image = rep_apply(gens[m] * adjs[n], vac)
            expected = vac.scale(2) if m == n else StateVector.zero()
            if image != expected:
                ok = False
    conclude("A5", ok, "trilinear (l,m,n <= 4), spectrum (n <= 3), vacuum eigenvalue 2")


def test_a6_klein_identities():
    report = verify_klein_identities(L=3, depth=2)
    conclude("A6", report.ok, "Klein checks (i)-(iv), n <= 3, word length <= 2")


def test_a7_endomorphism_behavior():
    ok = True
    try:
        validate_endomorphism(phi1().images)
        validate_endomorphism(phi2().images)
    except Exception:
        ok = False
    system = standard_rfs_o2()
    family = compose_with_endomorphism(system, phi1())
    if not verify_car(family, 4).ok:
        ok = False
    grades = grade_decompose(family.generator(1))
    nonzero_offgrade = any(g != 0 and not el.is_zero for g, el in grades.items())
    if not nonzero_offgrade:
        ok = False
    conclude("A7", ok, "phi1/phi2 validate; pushed family keeps CAR; image leaves charge 0")


def test_a8_bogoliubov_vacuum_shift():
    system = standard_rfs_o2()
    family = bogoliubov_family(system, [1, 2])
    vac = e(fock_index([1, 2]))
    ok = all(rep_apply(family.generator(n), vac).is_zero for n in range(1, 7))
    if not verify_car(family, 4).ok:
        ok = False
    conclude("A8", ok, "swapped family annihilates e_4 (n <= 6) and keeps CAR (m,n <= 4)")


def test_a9_oracle_coherence():
    rng = random.Random(271828)
    pool = [random_element(rng, 2, max_length=3) for _ in range(200)]
    ok = True
    for x in pool:
        nf = x.normal_form()
        for n in range(1, 33):
            if rep_apply(x, e(n)) != rep_apply(nf, e(n)):
                ok = False
    for x, y in zip(pool, pool[1:] + pool[:1]):
        product = x * y
        for n in range(1, 33):
            if rep_apply(product, e(n)) != rep_apply(x, rep_apply(y, e(n))):
                ok = False
    conclude("A9", ok, "200 seeded elements: normal form and products act consistently")
