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

The Green relations and the trilinear relations of a system with
charge-zero seeds run on tensors (``cuntz.tensor``): the n-th component
generator is the string M_alpha^{(x)(n-1)} (x) a^(alpha), a parafermion
generator the sum of p such strings.  Any other source, the spectrum and
vacuum suites and the Klein identities stay on the word algebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import config
from .algebra import (
    Element,
    Monomial,
    anticommutator,
    commutator,
    identity,
    is_u1_invariant,
    iter_monomials,
    unit_words,
)
from .endomorphisms import Endomorphism, is_rho, rho
from .errors import (
    AlphabetMismatchError,
    IndexRangeError,
    ResourceLimitError,
    SystemValidationError,
)
from .representation import StateVector, rep_apply
from .reports import INCONCLUSIVE, Report, check_sweep_size
from .rfs import (
    GeneratorFamily,
    RecursiveMap,
    _matrix_product,
    _zero_and_unit,
    anticommute_certificate,
    commute_certificate,
    normalization_matrix_holds,
    standard_rfs_p,
)
from .tensor import sandwich_power


class GreenSystem:
    """p component triads (seed, map, endomorphism) on d = 2^p letters."""

    __slots__ = ("p", "d", "seeds", "zetas", "phis", "label", "max_terms",
                 "validation", "_pow")

    def __init__(self, seeds: Sequence[Element], zetas: Sequence[RecursiveMap],
                 phis: Sequence[Endomorphism], label: str = "rpfs",
                 validate: bool = True, max_terms: Optional[int] = None):
        seeds, zetas, phis = tuple(seeds), tuple(zetas), tuple(phis)
        if not (len(seeds) == len(zetas) == len(phis)) or not seeds:
            raise IndexRangeError("need one (seed, map, endomorphism) triad per component")
        d = zetas[0].d
        if any(s.d != d for s in seeds) or any(z.d != d for z in zetas) \
                or any(f.d != d for f in phis):
            raise AlphabetMismatchError("triads must share one alphabet size")
        self.p = len(seeds)
        self.d = d
        self.seeds = seeds
        self.zetas = zetas
        self.phis = phis
        self.label = label
        self.max_terms = max_terms
        self.validation = None
        self._pow: dict[tuple[int, int], Element] = {}
        if validate:
            report = validate_green_system(self)
            self.validation = report
            if report.failures():
                raise SystemValidationError(report)

    def green_component(self, alpha: int, n: int) -> Element:
        """The n-th generator of component alpha (both 1-based)."""
        if not 1 <= alpha <= self.p:
            raise IndexRangeError(f"component {alpha} outside 1..{self.p}")
        if not isinstance(n, int) or n < 1:
            raise IndexRangeError(f"generator index must be >= 1, got {n}")
        key = (alpha, n - 1)
        cached = self._pow.get(key)
        if cached is None:
            if n == 1:
                cached = self.seeds[alpha - 1]
            else:
                cached = self.zetas[alpha - 1].apply(self.green_component(alpha, n - 1))
                cap = config.max_terms_cap(self.max_terms)
                if len(cached) > cap:
                    raise ResourceLimitError(len(cached), cap, operation="generator")
            self._pow[key] = cached
        return cached

    def parafermion_generator(self, n: int) -> Element:
        """Sum of the n-th generators of all components."""
        total = Element.zero(self.d)
        for alpha in range(1, self.p + 1):
            total = total + self.green_component(alpha, n)
        return total

    def parafermion_family(self) -> GeneratorFamily:
        return GeneratorFamily(self.d, self.parafermion_generator,
                               label=f"{self.label}+sum", max_terms=self.max_terms)

    def component_family(self, alpha: int) -> GeneratorFamily:
        return GeneratorFamily(self.d, lambda n: self.green_component(alpha, n),
                               label=f"{self.label}[{alpha}]", max_terms=self.max_terms)

    def __repr__(self):
        return f"GreenSystem({self.label}, d={self.d}, p={self.p})"


def green_component(g: GreenSystem, alpha: int, n: int) -> Element:
    return g.green_component(alpha, n)


def parafermion_generator(g: GreenSystem, n: int) -> Element:
    return g.parafermion_generator(n)


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


def standard_rpfs_p(p: int, p_max: Optional[int] = None, validate: bool = True) -> GreenSystem:
    """The order-p system on 2^p letters from the closed formulas."""
    limit = p_max if p_max is not None else config.DEFAULT_P_MAX_RPFS
    if not 1 <= p <= limit:
        raise IndexRangeError(f"p must lie in 1..{limit}, got {p}")
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
    monomials = list(iter_monomials(g.d, depth))
    elements = unit_words(g.d, monomials)
    images = [[z.apply(el) for el in elements] for z in g.zetas]

    for a in range(g.p):
        cert_ok, cert_witness = anticommute_certificate(g.seeds[a], g.zetas[a])
        report.add("green-recursive.certificate", {"component": a + 1}, cert_ok,
                   witness=cert_witness)
        bad = report.scan(
            "green-recursive.sampled",
            {"component": a + 1, "depth": depth, "monomials": len(monomials)},
            range(len(monomials)),
            lambda idx: anticommutator(g.seeds[a], images[a][idx]).equals(zero),
            lambda idx: "{a^(%d), z_%d(%s)} != 0" % (a + 1, a + 1, monomials[idx]))
        if not cert_ok and bad is None:
            report.add("green-recursive.condition", {"component": a + 1}, False,
                       status=INCONCLUSIVE)

        sym_ok = g.zetas[a].is_adjoint_compatible()
        report.add("green-recursive.adjoint", {"component": a + 1}, sym_ok,
                   witness=None if sym_ok else "sign matrix is not symmetric")

    for a in range(g.p):
        for b in range(g.p):
            if a == b:
                continue
            cert_ok, cert_witness = commute_certificate(g.seeds[a], g.zetas[b])
            report.add("green-recursive.cross-certificate",
                       {"component": a + 1, "map": b + 1}, cert_ok, witness=cert_witness)
            bad = report.scan(
                "green-recursive.cross-sampled",
                {"component": a + 1, "map": b + 1, "depth": depth},
                range(len(monomials)),
                lambda idx: commutator(g.seeds[a], images[b][idx]).equals(zero),
                lambda idx: "[a^(%d), z_%d(%s)] != 0" % (a + 1, b + 1, monomials[idx]))
            if not cert_ok and bad is None:
                report.add("green-recursive.cross-condition",
                           {"component": a + 1, "map": b + 1}, False, status=INCONCLUSIVE)
    return report


def verify_green_normalization(g: GreenSystem,
                               depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    report = Report()
    monomials = list(iter_monomials(g.d, depth))
    n = len(monomials)
    check_sweep_size("green-normalization.sampled", n * n)
    elements = unit_words(g.d, monomials)
    for a in range(g.p):
        applicable = is_rho(g.phis[a])
        if applicable:
            cert_ok = normalization_matrix_holds(g.zetas[a])
            report.add("green-normalization.certificate",
                       {"component": a + 1, "applicable": True}, cert_ok)
        else:
            report.add("green-normalization.certificate",
                       {"component": a + 1, "applicable": False}, False,
                       status=INCONCLUSIVE)
        images = [g.zetas[a].apply(el) for el in elements]

        def pair_ok(pair):
            ix, iy = pair
            return (images[ix] * images[iy]).equals(
                g.phis[a].apply(elements[ix] * elements[iy]))

        report.scan("green-normalization.sampled",
                    {"component": a + 1, "depth": depth, "pairs": n * n},
                    itertools.product(range(n), range(n)), pair_ok,
                    lambda pair: "z_%d(%s) z_%d(%s) != phi(product)" % (
                        a + 1, monomials[pair[0]], a + 1, monomials[pair[1]]))
    return report


def _matrices_commute(za: RecursiveMap, zb: RecursiveMap, d: int) -> bool:
    ma, mb = za.sandwich_matrix(), zb.sandwich_matrix()
    return _matrix_product(ma, mb, d) == _matrix_product(mb, ma, d)


def verify_cross_commutation(g: GreenSystem, depth: int = 1) -> Report:
    """Maps preserve commutation: [z_a(X), z_b(Y)] = 0 whenever [X, Y] = 0.

    Exact certificate: the sandwich sign matrices commute.  The sampled
    sweep scans commuting word pairs up to the given depth.
    """
    report = Report()
    zero = Element.zero(g.d)
    pairs_ab = [(a, b) for a in range(g.p) for b in range(a, g.p)]
    bad_cert = None
    for a, b in pairs_ab:
        if not _matrices_commute(g.zetas[a], g.zetas[b], g.d):
            bad_cert = (a, b)
            break
    report.add("cross-commutation.certificate", {"pairs": len(pairs_ab)}, bad_cert is None,
               witness=None if bad_cert is None else
               f"sign matrices of maps {bad_cert[0] + 1} and {bad_cert[1] + 1} do not commute")

    monomials = list(iter_monomials(g.d, depth))
    elements = unit_words(g.d, monomials)
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
    """Construction-time validation from the exact certificates only."""
    report = verify_green_seed(g)
    for a in range(g.p):
        cert_ok, witness = anticommute_certificate(g.seeds[a], g.zetas[a])
        report.add("green-recursive.certificate", {"component": a + 1}, cert_ok,
                   witness=witness)
        sym_ok = g.zetas[a].is_adjoint_compatible()
        report.add("green-recursive.adjoint", {"component": a + 1}, sym_ok)
        if is_rho(g.phis[a]):
            report.add("green-normalization.certificate",
                       {"component": a + 1, "applicable": True},
                       normalization_matrix_holds(g.zetas[a]))
        else:
            failures = g.phis[a].relation_failures()
            report.add("endomorphism.relations", {"component": a + 1}, not failures,
                       witness=failures[0] if failures else None)
        for b in range(g.p):
            if a != b:
                cert_ok, witness = commute_certificate(g.seeds[a], g.zetas[b])
                report.add("green-recursive.cross-certificate",
                           {"component": a + 1, "map": b + 1}, cert_ok, witness=witness)
    for a in range(g.p):
        for b in range(a, g.p):
            ok = _matrices_commute(g.zetas[a], g.zetas[b], g.d)
            report.add("cross-commutation.certificate",
                       {"components": (a + 1, b + 1)}, ok)
    return report


def _tensor_components(source):
    """(alpha, n) -> the n-th generator of component alpha as a tensor
    (``cuntz.tensor``), for a GreenSystem whose seeds are charge-zero; None
    for any other source, which keeps its word generators."""
    if not isinstance(source, GreenSystem) \
            or not all(is_u1_invariant(s) for s in source.seeds):
        return None
    matrices = [z.sandwich_matrix() for z in source.zetas]
    return lambda alpha, n: sandwich_power(matrices[alpha - 1], source.seeds[alpha - 1],
                                           n - 1)


def verify_green_relations(g: GreenSystem, L: int) -> Report:
    """Component families: fermionic within, commuting across, up to index L.

    The predicates run on tensors when the seeds are charge-zero.
    """
    report = Report()
    component = _tensor_components(g)
    zero, unit = _zero_and_unit(component is not None, g.d)
    component = component or g.green_component
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


def _pf_generator_fn(source):
    if hasattr(source, "parafermion_generator"):
        return source.parafermion_generator
    if hasattr(source, "generator"):
        return source.generator
    return source


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
    tensors, any other source on its word generators.
    """
    component = _tensor_components(source)
    if component is None:
        fn = _pf_generator_fn(source)
        gens = [fn(n) for n in range(1, L + 1)]
    else:
        gens = []
        for n in range(1, L + 1):
            total = component(1, n)
            for alpha in range(2, source.p + 1):
                total = total + component(alpha, n)
            gens.append(total)
    d = gens[0].d
    zero, _ = _zero_and_unit(component is not None, d)
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
    fn = _pf_generator_fn(source)
    report = Report()
    half = Fraction(1, 2)

    def ok(n):
        a = fn(n)
        number = commutator(a.adjoint(), a).scale(half)
        unit = identity(a.d)
        product = identity(a.d)
        for k in range(p + 1):
            product = product * (number + unit.scale(Fraction(k) - Fraction(p, 2)))
        return product.equals(Element.zero(a.d))

    report.scan("spectrum.polynomial", {"L": L, "p": p}, range(1, L + 1), ok,
                lambda n: f"degree-{p + 1} polynomial of N_{n} does not vanish")
    return report


def verify_parafermion_vacuum(source, L: int, p: Optional[int] = None) -> Report:
    """In the standard representation: a_n e_1 = 0 and a_m a_n* e_1 = p delta e_1."""
    if p is None:
        p = source.p
    fn = _pf_generator_fn(source)
    report = Report()
    vacuum = StateVector.unit(1)
    gens = [fn(n) for n in range(1, L + 1)]

    bad = None
    for n in range(L):
        image = rep_apply(gens[n], vacuum)
        if not image.is_zero:
            bad = (n + 1, image)
            break
    report.add("pf-vacuum.annihilation", {"L": L}, bad is None,
               witness=None if bad is None else f"a_{bad[0]} e_1 = {bad[1]}")

    def pair_ok(pair):
        m, n = pair
        image = rep_apply(gens[m] * gens[n].adjoint(), vacuum)
        expected = vacuum.scale(p) if m == n else StateVector.zero()
        return image == expected

    pairs = [(m, n) for m in range(L) for n in range(L)]
    report.scan("pf-vacuum.eigenvalue", {"L": L, "p": p}, pairs, pair_ok,
                lambda pair: "a_%d a_%d* e_1 = %s" % (
                    pair[0] + 1, pair[1] + 1,
                    rep_apply(gens[pair[0]] * gens[pair[1]].adjoint(), vacuum)))
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
    report.add("klein.seed2", {}, para.seeds[1].equals(expected),
               witness=None if para.seeds[1].equals(expected) else
               f"a^(2) != (I - 2 a_1* a_1) a_2: {expected.normal_form()}")

    monomials = list(iter_monomials(d, depth))
    elements = unit_words(d, monomials)

    def map_modes(component: int, n: int) -> list[int]:
        if component == 1:
            return [2 * k for k in range(1, n)]
        return [2 * k - 1 for k in range(1, n)]

    for component in (1, 2):
        def twisted_ok(item, _c=component):
            n, idx = item
            factor = klein_factor(fermi, map_modes(_c, n))
            lhs = para.zetas[_c - 1].power(n - 1, elements[idx])
            rhs = factor * fermi.zeta.power(n - 1, elements[idx])
            return lhs.equals(rhs)

        candidates = [(n, idx) for n in range(1, L + 1) for idx in range(len(monomials))]
        report.scan(f"klein.map{component}", {"L": L, "depth": depth}, candidates, twisted_ok,
                    lambda item: "z_%d^%d(%s) != parity twist" % (
                        component, item[0] - 1, monomials[item[1]]))

    def green1_ok(n):
        lhs = para.green_component(1, n)
        if n == 1:
            rhs = fermi.generator(1)
        else:
            rhs = klein_factor(fermi, [2 * k for k in range(1, n)]) * fermi.generator(2 * n - 1)
        return lhs.equals(rhs)

    report.scan("klein.green1", {"L": L}, range(1, L + 1), green1_ok,
                lambda n: f"component 1 generator {n} mismatch")

    def green2_ok(n):
        lhs = para.green_component(2, n)
        rhs = klein_factor(fermi, [2 * k - 1 for k in range(1, n + 1)]) * fermi.generator(2 * n)
        return lhs.equals(rhs)

    report.scan("klein.green2", {"L": L}, range(1, L + 1), green2_ok,
                lambda n: f"component 2 generator {n} mismatch")
    return report
