"""Recursive parafermion systems on 2^p letters.

A system of order p carries one fermionic triad per component index
alpha: a seed, a sandwich map, and a normalizing endomorphism.  Within a
component the usual recursive-fermion conditions hold; across components
everything commutes, and the maps preserve commutation.  Summing the p
component families gives generators obeying the parastatistics trilinear
relations together with the order-p spectrum polynomial of the number
operator, and acting on the standard representation's vacuum yields the
order-p vacuum eigenvalue.

The trilinear suite also covers the involution images of the two defining
double-commutator identities and the mixed form reached by one Jacobi
step; their right-hand sides are fixed here by direct computation in the
fermion picture, since only the base identities are usually written out.

A :class:`GreenSystem` is a triad system (``cuntz.rfs.TriadSystem``) whose
triads each carry their own map and endomorphism, so its component memo,
tensor dispatch, certificate-plus-sweep reports and validation are the ones
the fermion systems use.

The Green, trilinear and spectrum checks take their operands from
``cuntz.rfs.operands``: for a system with charge-zero seeds they run on
tensors (``cuntz.tensor``), where the n-th component generator is the
string M_alpha^{(x)(n-1)} (x) a^(alpha) and a parafermion generator the sum
of p such strings.  The vacuum checks act through
``cuntz.representation.rep_generator``, which applies each component in
sandwich form.  Any other source, and the Klein identities, stay on the
word algebra.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Optional, Sequence

from . import config
from .algebra import (
    Element,
    Monomial,
    anticommutator,
    commutator,
    identity,
    sweep_words,
)
from .endomorphisms import Endomorphism, is_rho, rho
from .errors import IndexRangeError
from .representation import StateVector, rep_generator
from .reports import Report
from .rfs import (
    RecursiveMap,
    TriadSystem,
    adjoint_certificate,
    bimodule_certificate,
    certified_scan,
    normalization_certificate,
    normalization_sweep,
    operands,
    standard_rfs_p,
    validate_triads,
)
from .tensor import _matmul


class GreenSystem(TriadSystem):
    """p component triads (seed, map, endomorphism) on d = 2^p letters; the
    n-th parafermion generator is the sum of the components' n-th generators."""

    __slots__ = ()

    def __init__(self, seeds: Sequence[Element], zetas: Sequence[RecursiveMap],
                 phis: Sequence[Endomorphism], label: str = "rpfs",
                 validate: bool = True):
        super().__init__(seeds, zetas, phis, label, validate)

    def _generator(self, n, component):
        return functools.reduce(operator.add,
                                (component(alpha, n) for alpha in range(1, self.p + 1)))

    def _validate(self) -> Report:
        return validate_green_system(self)


# -- constructors -------------------------------------------------------------


def standard_rpfs2(validate: bool = True) -> GreenSystem:
    """The order-2 system on four letters, written out explicitly."""
    seed1 = Element(4, {Monomial((1,), (2,)): 1, Monomial((3,), (4,)): 1})
    zeta1 = RecursiveMap(4, ((1, 1, 1), (-1, 2, 2), (1, 3, 3), (-1, 4, 4)))
    seed2 = Element(4, {Monomial((1,), (3,)): 1, Monomial((2,), (4,)): 1})
    zeta2 = RecursiveMap(4, ((1, 1, 1), (1, 2, 2), (-1, 3, 3), (-1, 4, 4)))
    endo = rho(4)
    return GreenSystem((seed1, seed2), (zeta1, zeta2), (endo, endo),
                       label="std-rpfs:2", validate=validate)


def standard_rpfs_p_seed_terms(p: int, alpha: int) -> dict[Monomial, int]:
    """Closed-formula component seed: all plus signs, block-shifted pairs."""
    terms: dict[Monomial, int] = {}
    for k in range(1, 2 ** (p - alpha) + 1):
        for ell in range(1, 2 ** (alpha - 1) + 1):
            cidx = 2**alpha * (k - 1) + ell
            aidx = 2 ** (alpha - 1) * (2 * k - 1) + ell
            terms[Monomial((cidx,), (aidx,))] = 1
    return terms


def standard_rpfs_p_zeta_signs(p: int, alpha: int) -> tuple[int, ...]:
    return tuple(-1 if ((i - 1) >> (alpha - 1)) % 2 else 1 for i in range(1, 2**p + 1))


def standard_rpfs_p(p: int, validate: bool = True) -> GreenSystem:
    """The order-p system on 2^p letters from the closed formulas."""
    if not 1 <= p <= config.DEFAULT_P_MAX_RPFS:
        raise IndexRangeError(f"p must lie in 1..{config.DEFAULT_P_MAX_RPFS}, got {p}")
    d = 2**p
    seeds, zetas = [], []
    for alpha in range(1, p + 1):
        seeds.append(Element(d, standard_rpfs_p_seed_terms(p, alpha)))
        signs = standard_rpfs_p_zeta_signs(p, alpha)
        zetas.append(RecursiveMap(d, tuple((s, i, i) for i, s in enumerate(signs, start=1))))
    endo = rho(d)
    return GreenSystem(seeds, zetas, [endo] * p, label=f"std-rpfs:{p}", validate=validate)


# -- condition verification ----------------------------------------------------


def verify_green_seed(g: GreenSystem) -> Report:
    """Seed conditions: fermionic within a component, commuting across."""
    report = Report()
    zero = Element.zero(g.d)
    unit = identity(g.d)
    p = g.p

    report.scan("green-seed.square", {"components": p}, range(p),
                lambda a: (g.seeds[a] * g.seeds[a]).equals(zero),
                lambda a: f"(a^({a + 1}))^2 != 0")
    report.scan("green-seed.self", {"components": p}, range(p),
                lambda a: anticommutator(g.seeds[a], g.seeds[a].adjoint()).equals(unit),
                lambda a: "{a^(%d), a^(%d)*} != I" % (a + 1, a + 1))
    cross = [(a, b) for a in range(p) for b in range(p) if a != b]
    report.scan("green-seed.cross-commute", {"components": p}, cross,
                lambda ab: commutator(g.seeds[ab[0]], g.seeds[ab[1]]).equals(zero),
                lambda ab: "[a^(%d), a^(%d)] != 0" % (ab[0] + 1, ab[1] + 1))
    report.scan("green-seed.cross-mixed", {"components": p}, cross,
                lambda ab: commutator(g.seeds[ab[0]], g.seeds[ab[1]].adjoint()).equals(zero),
                lambda ab: "[a^(%d), a^(%d)*] != 0" % (ab[0] + 1, ab[1] + 1))
    return report


def verify_green_recursive(g: GreenSystem,
                           depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Per component: anticommutation with its own map; commutation with others."""
    report = Report()
    zero = Element.zero(g.d)
    monomials, elements = sweep_words(g.d, depth, "green-recursive.sampled")
    images = [[z.apply(el) for el in elements] for z in g.zetas]
    words = range(len(monomials))

    for a in range(g.p):
        certified_scan(
            report, "green-recursive.", {"component": a + 1},
            bimodule_certificate(g.seeds[a], g.zetas[a], +1),
            {"depth": depth, "monomials": len(monomials)}, words,
            lambda idx: anticommutator(g.seeds[a], images[a][idx]).equals(zero),
            lambda idx: "{a^(%d), z_%d(%s)} != 0" % (a + 1, a + 1, monomials[idx]),
            always_conclude=False)
        adjoint_certificate(report, "green-recursive.adjoint", {"component": a + 1}, g.zetas[a])

    for a, b in itertools.permutations(range(g.p), 2):
        certified_scan(
            report, "green-recursive.cross-", {"component": a + 1, "map": b + 1},
            bimodule_certificate(g.seeds[a], g.zetas[b], -1), {"depth": depth}, words,
            lambda idx: commutator(g.seeds[a], images[b][idx]).equals(zero),
            lambda idx: "[a^(%d), z_%d(%s)] != 0" % (a + 1, b + 1, monomials[idx]),
            always_conclude=False)
    return report


def verify_green_normalization(g: GreenSystem,
                               depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    report = Report()
    words = sweep_words(g.d, depth, "green-normalization.sampled", lambda n: n * n)
    for a in range(g.p):
        normalization_certificate(report, "green-normalization.certificate",
                                  {"component": a + 1}, g.zetas[a], is_rho(g.phis[a]),
                                  witness=False)
        normalization_sweep(report, "green-normalization.sampled",
                            {"component": a + 1, "depth": depth}, g.zetas[a], g.phis[a], words,
                            lambda x, y: "z_%d(%s) z_%d(%s) != phi(product)" % (
                                a + 1, x, a + 1, y))
    return report


def _matrices_commute(za: RecursiveMap, zb: RecursiveMap) -> bool:
    ma, mb = za.sandwich_matrix(), zb.sandwich_matrix()
    return _matmul(ma, mb) == _matmul(mb, ma)


def verify_cross_commutation(g: GreenSystem, depth: int = 1) -> Report:
    """Maps preserve commutation: [z_a(X), z_b(Y)] = 0 whenever [X, Y] = 0.

    Exact certificate: the sandwich sign matrices commute.  The sampled
    sweep scans commuting word pairs up to the given depth.
    """
    report = Report()
    zero = Element.zero(g.d)
    pairs_ab = [(a, b) for a in range(g.p) for b in range(a, g.p)]
    report.scan("cross-commutation.certificate", {"pairs": len(pairs_ab)}, pairs_ab,
                lambda ab: _matrices_commute(g.zetas[ab[0]], g.zetas[ab[1]]),
                lambda ab: f"sign matrices of maps {ab[0] + 1} and {ab[1] + 1} do not commute")

    # Finding the commuting word pairs tests every ordered pair.
    monomials, elements = sweep_words(g.d, depth, "cross-commutation.sampled",
                                      lambda n: n * n)
    commuting = [(i, j) for i in range(len(monomials)) for j in range(len(monomials))
                 if commutator(elements[i], elements[j]).equals(zero)]
    candidates = [(a, b, i, j) for a, b in pairs_ab for i, j in commuting]

    def ok(item):
        a, b, i, j = item
        return commutator(g.zetas[a].apply(elements[i]),
                          g.zetas[b].apply(elements[j])).equals(zero)

    report.scan("cross-commutation.sampled", {"depth": depth, "word-pairs": len(commuting)},
                candidates, ok,
                lambda item: "[z_%d(%s), z_%d(%s)] != 0" % (
                    item[0] + 1, monomials[item[2]], item[1] + 1, monomials[item[3]]))
    return report


def validate_green_system(g: GreenSystem) -> Report:
    """Construction-time validation from the exact certificates only: the
    triad checks (:func:`cuntz.rfs.validate_triads`), then that each seed
    commutes with every other component's map and that the maps' sign
    matrices commute."""
    report = validate_triads(g, verify_green_seed(g), "component", "green-recursive.",
                             "green-recursive.adjoint", "green-normalization.certificate")
    for a, b in itertools.permutations(range(g.p), 2):
        cert_ok, witness = bimodule_certificate(g.seeds[a], g.zetas[b], -1)
        report.add("green-recursive.cross-certificate", {"component": a + 1, "map": b + 1},
                   cert_ok, witness=witness)
    for a in range(g.p):
        for b in range(a, g.p):
            ok = _matrices_commute(g.zetas[a], g.zetas[b])
            report.add("cross-commutation.certificate",
                       {"components": (a + 1, b + 1)}, ok)
    return report


def verify_green_relations(g: GreenSystem, L: int) -> Report:
    """Component families: fermionic within, commuting across, up to index L.

    The predicates run on tensors when the seeds are charge-zero.  Candidate
    counts meet the sweep budget, in scan order, before any operand is built.
    """
    config.check_sweep("green.anticommute", g.p * L * (L + 1) // 2)
    config.check_sweep("green.cross-commute", g.p * (g.p - 1) * L * L)
    report = Report()
    _, component, zero, unit = operands(g)
    comp = {(a, n): component(a, n)
            for a in range(1, g.p + 1) for n in range(1, L + 1)}

    same = [(a, m, n) for a in range(1, g.p + 1)
            for m in range(1, L + 1) for n in range(m, L + 1)]

    def anti_ok(item):
        a, m, n = item
        return anticommutator(comp[(a, m)], comp[(a, n)]).equals(zero)

    report.scan("green.anticommute", {"L": L}, same, anti_ok,
                lambda t: "{a_%d^(%d), a_%d^(%d)} != 0" % (t[1], t[0], t[2], t[0]))

    def mixed_ok(item):
        a, m, n = item
        rhs = unit if m == n else zero
        return anticommutator(comp[(a, m)], comp[(a, n)].adjoint()).equals(rhs)

    report.scan("green.mixed", {"L": L}, same, mixed_ok,
                lambda t: "{a_%d^(%d), a_%d^(%d)*} wrong" % (t[1], t[0], t[2], t[0]))

    cross = [(a, b, m, n) for a in range(1, g.p + 1) for b in range(1, g.p + 1)
             if a != b for m in range(1, L + 1) for n in range(1, L + 1)]

    def cross_ok(item):
        a, b, m, n = item
        return commutator(comp[(a, m)], comp[(b, n)]).equals(zero)

    report.scan("green.cross-commute", {"L": L}, cross, cross_ok,
                lambda t: "[a_%d^(%d), a_%d^(%d)] != 0" % (t[2], t[0], t[3], t[1]))

    def cross_mixed_ok(item):
        a, b, m, n = item
        return commutator(comp[(a, m)], comp[(b, n)].adjoint()).equals(zero)

    report.scan("green.cross-mixed", {"L": L}, cross, cross_mixed_ok,
                lambda t: "[a_%d^(%d), a_%d^(%d)*] != 0" % (t[2], t[0], t[3], t[1]))
    return report


# -- parafermion relations -----------------------------------------------------


def verify_trilinear(source, L: int) -> Report:
    """Double-commutator relations for generators 1..L.

    Checked families (indices run over 1..L; delta is Kronecker's):

        [a_l, [a_m,  a_n ]] = 0
        [a_l, [a_m*, a_n ]] = 2 delta_lm a_n
        [a_l*,[a_m*, a_n*]] = 0
        [a_l*,[a_m,  a_n*]] = 2 delta_lm a_n*
        [a_l, [a_m*, a_n*]] = 2 delta_lm a_n* - 2 delta_ln a_m*

    The last three follow from the first two by the involution and one
    Jacobi step; antisymmetric inner brackets are checked once per
    unordered pair.  A GreenSystem with charge-zero seeds is checked on
    tensors, any other source on its word generators.  Candidate counts
    meet the sweep budget, in scan order, before any operand is built.
    """
    config.check_sweep("trilinear.comm-comm", L * L * (L - 1) // 2)
    config.check_sweep("trilinear.number-action", L ** 3)
    generator, _, zero, _ = operands(source)
    gens = [generator(n) for n in range(1, L + 1)]
    adjs = [x.adjoint() for x in gens]
    report = Report()

    inner_aa = {(m, n): commutator(gens[m], gens[n])
                for m in range(L) for n in range(m + 1, L)}
    inner_sa = {(m, n): commutator(adjs[m], gens[n])
                for m in range(L) for n in range(L)}
    inner_as = {(m, n): commutator(gens[m], adjs[n])
                for m in range(L) for n in range(L)}
    inner_ss = {(m, n): commutator(adjs[m], adjs[n])
                for m in range(L) for n in range(m + 1, L)}

    skew = [(l, m, n) for l in range(L) for m in range(L) for n in range(m + 1, L)]
    full = [(l, m, n) for l in range(L) for m in range(L) for n in range(L)]

    report.scan("trilinear.comm-comm", {"L": L}, skew,
                lambda t: commutator(gens[t[0]], inner_aa[(t[1], t[2])]).equals(zero),
                lambda t: "[a_%d, [a_%d, a_%d]] != 0" % (t[0] + 1, t[1] + 1, t[2] + 1))

    report.scan("trilinear.number-action", {"L": L}, full,
                lambda t: commutator(gens[t[0]], inner_sa[(t[1], t[2])]).equals(
                    gens[t[2]].scale(2) if t[0] == t[1] else zero),
                lambda t: "[a_%d, [a_%d*, a_%d]] wrong" % (t[0] + 1, t[1] + 1, t[2] + 1))

    report.scan("trilinear.comm-comm-adjoint", {"L": L}, skew,
                lambda t: commutator(adjs[t[0]], inner_ss[(t[1], t[2])]).equals(zero),
                lambda t: "[a_%d*, [a_%d*, a_%d*]] != 0" % (t[0] + 1, t[1] + 1, t[2] + 1))

    report.scan("trilinear.number-action-adjoint", {"L": L}, full,
                lambda t: commutator(adjs[t[0]], inner_as[(t[1], t[2])]).equals(
                    adjs[t[2]].scale(2) if t[0] == t[1] else zero),
                lambda t: "[a_%d*, [a_%d, a_%d*]] wrong" % (t[0] + 1, t[1] + 1, t[2] + 1))

    def jacobi_rhs(l, m, n):
        out = zero
        if l == m:
            out = out + adjs[n].scale(2)
        if l == n:
            out = out - adjs[m].scale(2)
        return out

    report.scan("trilinear.jacobi-mixed", {"L": L}, skew,
                lambda t: commutator(gens[t[0]], inner_ss[(t[1], t[2])]).equals(
                    jacobi_rhs(t[0], t[1], t[2])),
                lambda t: "[a_%d, [a_%d*, a_%d*]] wrong" % (t[0] + 1, t[1] + 1, t[2] + 1))
    return report


def verify_spectrum_polynomial(source, L: int, p: Optional[int] = None) -> Report:
    """prod_{k=0..p} (N_n + (k - p/2) I) = 0 with N_n = [a_n*, a_n] / 2."""
    if p is None:
        p = source.p
    config.check_sweep("spectrum.polynomial", L)
    generator, _, zero, unit = operands(source)
    report = Report()
    half = Fraction(1, 2)

    def ok(n):
        a = generator(n)
        number = commutator(a.adjoint(), a).scale(half)
        product = unit
        for k in range(p + 1):
            product = product * (number + unit.scale(Fraction(k) - Fraction(p, 2)))
        return product.equals(zero)

    report.scan("spectrum.polynomial", {"L": L, "p": p}, range(1, L + 1), ok,
                lambda n: f"degree-{p + 1} polynomial of N_{n} does not vanish")
    return report


def verify_parafermion_vacuum(source, L: int, p: Optional[int] = None) -> Report:
    """In the standard representation: a_n e_1 = 0 and a_m a_n* e_1 = p delta e_1."""
    if p is None:
        p = source.p
    config.check_sweep("pf-vacuum.annihilation", L)
    config.check_sweep("pf-vacuum.eigenvalue", L * L)
    report = Report()
    vacuum = StateVector.unit(1)

    report.scan("pf-vacuum.annihilation", {"L": L}, range(1, L + 1),
                lambda n: rep_generator(source, n, vacuum).is_zero,
                lambda n: f"a_{n} e_1 = {rep_generator(source, n, vacuum)}")

    def image(pair):
        m, n = pair
        return rep_generator(source, m, rep_generator(source, n, vacuum, adjoint=True))

    pairs = [(m, n) for m in range(1, L + 1) for n in range(1, L + 1)]
    report.scan("pf-vacuum.eigenvalue", {"L": L, "p": p}, pairs,
                lambda pair: image(pair) == (vacuum.scale(p) if pair[0] == pair[1]
                                             else StateVector.zero()),
                lambda pair: "a_%d a_%d* e_1 = %s" % (*pair, image(pair)))
    return report


def verify_parafermion(g: GreenSystem, L: int) -> Report:
    """Trilinear + spectrum + vacuum, the full parastatistics battery."""
    report = verify_trilinear(g, L)
    report.extend(verify_spectrum_polynomial(g, L))
    report.extend(verify_parafermion_vacuum(g, L))
    return report


# -- Klein transformation ------------------------------------------------------


def klein_factor(family, modes: Sequence[int]) -> Element:
    """Product over the listed modes of (I - 2 A_k* A_k), increasing k.

    Each factor is the parity operator of one mode: self-adjoint, squares
    to I, and commutes with the factors of other modes.
    """
    d = family.d
    out = identity(d)
    for k in sorted(set(modes)):
        a = family.generator(k)
        out = out * (identity(d) - (a.adjoint() * a).scale(2))
    return out


def verify_klein_identities(L: int = 3, depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Relate the order-2 parafermion system to the 2-seed fermion system.

    Checks, with A_n the fermion generators and K(S) the parity product
    over modes S:  (i) the first seeds agree on the nose; (ii) the second
    parafermion seed is K({1}) A_2; (iii) the component maps iterate as
    parity-twisted powers of the fermion map on all words up to ``depth``;
    (iv) every component generator is a parity twist of a fermion one.
    """
    report = Report()
    fermi = standard_rfs_p(2)
    para = standard_rpfs2()
    d = 4

    nf_left = para.seeds[0].normal_form()
    nf_right = fermi.seeds[0].normal_form()
    report.add("klein.seed1", {}, nf_left == nf_right,
               witness=None if nf_left == nf_right else
               f"{nf_left} vs {nf_right}")

    expected = klein_factor(fermi, [1]) * fermi.seeds[1]
    same = para.seeds[1].equals(expected)
    report.add("klein.seed2", {}, same, witness=None if same else
               f"a^(2) != (I - 2 a_1* a_1) a_2: {expected.normal_form()}")

    monomials, elements = sweep_words(d, depth, "klein.map1", lambda n: L * n)
    # The largest operands, built into the memos the green lines read: one
    # past the term cap is refused before any map power is formed.
    for component in (1, 2):
        para.component(component, L)
        fermi.generator(2 * L - 2 + component)

    @functools.cache
    def twist(component: int, n: int) -> Element:
        """The parity factor of the component's map at power n - 1: K over the
        even modes below 2n - 1 for component 1, over the odd ones for 2."""
        return klein_factor(fermi, range(3 - component, 2 * n - 1, 2))

    for component in (1, 2):
        def twisted_ok(item, _c=component):
            n, idx = item
            lhs = para.zetas[_c - 1].power(n - 1, elements[idx])
            rhs = twist(_c, n) * fermi.zeta.power(n - 1, elements[idx])
            return lhs.equals(rhs)

        candidates = [(n, idx) for n in range(1, L + 1) for idx in range(len(monomials))]
        report.scan(f"klein.map{component}", {"L": L, "depth": depth}, candidates, twisted_ok,
                    lambda item: "z_%d^%d(%s) != parity twist" % (
                        component, item[0] - 1, monomials[item[1]]))

    # Component c's generator n is twist(c, n + c - 1) A_{2n-2+c}.
    for component in (1, 2):
        report.scan(f"klein.green{component}", {"L": L}, range(1, L + 1),
                    lambda n, _c=component: para.component(_c, n).equals(
                        twist(_c, n + _c - 1) * fermi.generator(2 * n - 2 + _c)),
                    lambda n, _c=component: f"component {_c} generator {n} mismatch")
    return report
