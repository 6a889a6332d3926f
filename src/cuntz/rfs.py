"""Recursive fermion systems: seeds, recursive maps, and the induced embeddings.

A system is a seed list (a_1..a_p), a recursive map z acting by single-letter
sandwiches X -> sum_t sign_t s_{u_t} X s_{v_t}*, and a normalizing unital
*-endomorphism phi.  The defining conditions are

    i)   seed:          {a_i, a_j} = 0,  {a_i, a_j*} = delta_ij I
    ii)  recursive:     {a_i, z(X)} = 0 and z(X)* = z(X*) for all X
    iii) normalization: z(X) z(Y) = phi(XY) for all X, Y

Once they hold, A_{p(n-1)+i} = z^{n-1}(a_i) satisfies the canonical
anticommutation relations, i.e. the family embeds a fermion algebra.

Conditions ii) and iii) quantify over all of O_d.  Each is checked two
ways: a formal certificate over the free bimodule (finite and exact --
sufficient always, and also necessary for the adjoint and normalization
certificates), plus a sampled sweep over all words up to a configured
total letter count ("depth").  Certificate failure with a clean sweep is
reported as inconclusive rather than being silently trusted either way.
Growth reads one term cap (:func:`cuntz.config.max_terms_cap`): components
grown as words, and every sweep's candidates, counted before they are built.

Both system kinds are triad systems (:class:`TriadSystem`): p triads of a
seed, a map and an endomorphism.  A fermion system (:class:`RfsSystem`) is
the case where every triad shares one map and one endomorphism; an order-p
parafermion system (``cuntz.parafermion.GreenSystem``) gives each triad its
own.  The component memo, the tensor dispatch (:func:`operands`), the
certificate-plus-sweep report (:func:`certified_scan`), the normalization
pair sweep and the construction-time validation (:func:`validate_triads`)
are written once, here, for both.

A check on the generators takes them from :func:`operands`.  For a system
with charge-zero seeds they are tensors (``cuntz.tensor``): A_n = z^k(a_i)
is the Jordan-Wigner string M^{(x)k} (x) a_i of the map's sign matrix M,
one term per seed term where the word basis holds 2^k words or more.  Any
other family gives its word generators, the reference, and every witness
is rendered from words.  A check on Fock vectors acts through
``cuntz.representation.rep_generator`` instead.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional, Sequence

from . import config
from .algebra import (
    Element,
    Monomial,
    Scalar,
    _word,
    accumulate,
    anticommutator,
    eliminate,
    identity,
    is_u1_invariant,
    isometry,
    sweep_budget,
    sweep_words,
    term_sort_key,
)
from .endomorphisms import Endomorphism, is_rho, rho
from .errors import (
    AlphabetMismatchError,
    CuntzError,
    IndexRangeError,
    ResourceLimitError,
    SystemValidationError,
)
from .reports import INCONCLUSIVE, Report, sweep_first_failure
from .tensor import Matrix, Tensor, _is_identity, _matmul, _matrix, _transpose, sandwich_power


class RecursiveMap:
    """X -> sum_t sign_t s_{u_t} X s_{v_t}* with signs in {+1, -1}.

    Single-letter sandwiches cover every recursive map used by the
    constructions in scope and keep the condition certificates decidable.
    Immutable: equal maps (same d, same terms in the same order) hash equal.
    """

    __slots__ = ("d", "terms", "_matrix")

    def __init__(self, d: int, terms: tuple[tuple[int, int, int], ...]):
        if d < 2:
            raise IndexRangeError(f"alphabet size must be >= 2, got {d}")
        for sign, u, v in terms:
            if sign not in (1, -1):
                raise IndexRangeError(f"sandwich sign must be +-1, got {sign}")
            if not (1 <= u <= d and 1 <= v <= d):
                raise IndexRangeError(f"sandwich indices ({u},{v}) outside 1..{d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_matrix", _matrix(
            accumulate({}, (((u, v), sign) for sign, u, v in terms))))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.d, self.terms) == (other.d, other.terms)

    def __hash__(self):
        return hash((self.d, self.terms))

    def __repr__(self):
        return f"RecursiveMap(d={self.d!r}, terms={self.terms!r})"

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return RecursiveMap, (self.d, self.terms)

    def apply(self, x: Element) -> Element:
        """Sandwich by the net sign matrix: distinct letter pairs and distinct
        words give distinct words, so no terms merge or cancel."""
        if x.d != self.d:
            raise AlphabetMismatchError(f"d mismatch: {x.d} vs {self.d}")
        return Element._make(self.d, {_word((u,) + a, (v,) + b): sign * c
                                      for u, v, sign in self._matrix
                                      for (a, b), c in x.terms.items()})

    def power(self, n: int, x: Element) -> Element:
        for _ in range(n):
            x = self.apply(x)
        return x

    def sandwich_matrix(self) -> Matrix:
        """Net sign per (left, right) letter pair, as a ``cuntz.tensor`` matrix."""
        return self._matrix

    def is_adjoint_compatible(self) -> bool:
        """Exact test of z(X)* = z(X*) for all X: the sign matrix is symmetric."""
        return _transpose(self._matrix) == self._matrix


def normalization_matrix_holds(z: RecursiveMap) -> bool:
    """Exact test of z(X) z(Y) = rho(XY): the contracted square is the identity.

    Contracting the middle letters with s_i* s_j = delta_ij I turns the
    double sandwich sum into the matrix square of the sign matrix; the
    identity matrix is exactly the canonical endomorphism's sandwich form.
    Valid as an iff whenever the declared phi equals rho on images.
    """
    square = _matmul(z.sandwich_matrix(), z.sandwich_matrix())
    return _is_identity(square, z.d)


def bimodule_certificate(seed: Element, z: RecursiveMap, relation_sign: int):
    """Formal expansion of a (anti)commutator with a sandwich map.

    Collects {a, z(X)} (relation_sign=+1) or [a, z(X)] (relation_sign=-1)
    as a sum of left (x) right word pairs with X left open; identical
    vanishing is sufficient for the relation to hold for every X.
    Returns (ok, witness).
    """
    d = seed.d
    pairs: dict[tuple[Monomial, Monomial], Scalar] = {}
    for sign, u, v in z.terms:
        right_word, left_word = Monomial((), (v,)), Monomial((u,), ())
        accumulate(pairs, (((m, right_word), sign * c)
                           for m, c in (seed * isometry(d, u)).terms.items()))
        accumulate(pairs, (((left_word, m), sign * relation_sign * c)
                           for m, c in (Element.word(d, (), (v,)) * seed).terms.items()))
    if not pairs:
        return True, None
    (lw, rw), c = min(pairs.items(),
                      key=lambda kv: (term_sort_key(kv[0][0]), term_sort_key(kv[0][1])))
    return False, f"leftover {c} * ({lw}) X ({rw})"


class GeneratorFamily:
    """An indexed family n -> element of O_d; the unit of account for
    anticommutation and vacuum sweeps.  Generators are cached."""

    def __init__(self, d: int, fn: Callable[[int], Element], label: str = "family"):
        self.d = d
        self.label = label
        self._fn = fn
        self._cache: dict[int, Element] = {}

    def generator(self, n: int) -> Element:
        _check_generator_index(n)
        cached = self._cache.get(n)
        if cached is None:
            cached = self._fn(n)
            config.check_cap(len(cached), "generator")
            self._cache[n] = cached
        return cached

    def __repr__(self):
        return f"GeneratorFamily({self.label}, d={self.d})"


def _check_generator_index(n):
    if not isinstance(n, int) or n < 1:
        raise IndexRangeError(f"generator index must be >= 1, got {n}")


class TriadSystem:
    """p triads (seed a_alpha, map z_alpha, endomorphism phi_alpha) on d letters.

    Component alpha's n-th generator is z_alpha^{n-1}(a_alpha); a subclass
    says how the generators of the system are made from the components
    (:meth:`_generator`).  Treat instances as immutable; the only internal
    mutation is the memo of components, keyed by (alpha, n), with its top
    level per component.
    """

    __slots__ = ("d", "p", "seeds", "zetas", "phis", "label", "_memo", "_top")

    # Whether all triads share one map and endomorphism (a fermion system).
    shared_map = False

    def __init__(self, seeds: Sequence[Element], zetas: Sequence[RecursiveMap],
                 phis: Sequence[Endomorphism], label: str, validate: bool):
        seeds, zetas, phis = tuple(seeds), tuple(zetas), tuple(phis)
        if not (len(seeds) == len(zetas) == len(phis)) or not seeds:
            raise IndexRangeError("need one (seed, map, endomorphism) triad per component")
        d = zetas[0].d
        if any(x.d != d for x in seeds + zetas + phis):
            raise AlphabetMismatchError("seeds, maps and endomorphisms must share d")
        self.d = d
        self.p = len(seeds)
        self.seeds = seeds
        self.zetas = zetas
        self.phis = phis
        self.label = label
        self._memo: dict[tuple[int, int], Element] = {
            (alpha, 1): seed for alpha, seed in enumerate(seeds, start=1)}
        # The memo of component alpha holds levels 1..self._top[alpha - 1].
        self._top = [1] * self.p
        if validate:
            report = self._validate()
            if report.failures():
                raise SystemValidationError(report)

    def component(self, alpha: int, n: int) -> Element:
        """z_alpha^{n-1}(a_alpha), the n-th generator of component alpha (both 1-based)."""
        if not 1 <= alpha <= self.p:
            raise IndexRangeError(f"component {alpha} outside 1..{self.p}")
        _check_generator_index(n)
        cached = self._memo.get((alpha, n))
        if cached is None:
            # Fill the memo upwards from its top level.  The level count is
            # held to the term cap first: a map that keeps its term count
            # would otherwise be applied n - 1 times, however large n is.
            config.check_cap(n, "generator", what="levels")
            zeta, top = self.zetas[alpha - 1], self._top[alpha - 1]
            cached = self._memo[(alpha, top)]
            # The map merges no terms, so each level has exactly width times
            # the terms of the one below: count up to the first level past
            # the cap, or to n, before any level is built.
            width, cap = len(zeta.sandwich_matrix()), config.max_terms_cap()
            count, level = len(cached) * width, top + 1
            while width > 1 and level < n and count <= cap:
                count, level = count * width, level + 1
            config.check_cap(count, "generator")
            for level in range(top + 1, n + 1):
                cached = zeta.apply(cached)
                self._memo[(alpha, level)] = cached
                self._top[alpha - 1] = level
        return cached

    def tensor_component(self, alpha: int, n: int) -> Tensor:
        """The same as a tensor, M_alpha^{(x)(n-1)} (x) a_alpha; the seed must be
        charge-zero."""
        return sandwich_power(self.zetas[alpha - 1].sandwich_matrix(), self.seeds[alpha - 1],
                              n - 1)

    def generator(self, n: int) -> Element:
        """The n-th generator of the system, n >= 1."""
        _check_generator_index(n)
        return self._generator(n, self.component)

    def family(self) -> GeneratorFamily:
        return GeneratorFamily(self.d, self.generator, label=self.label)

    def __repr__(self):
        return f"{type(self).__name__}({self.label}, d={self.d}, p={self.p})"


class RfsSystem(TriadSystem):
    """A recursive fermion system: p seeds sharing one map ``zeta`` and one
    endomorphism ``phi``.  A_{p(n-1)+i} = z^{n-1}(a_i)."""

    __slots__ = ()
    shared_map = True

    def __init__(self, seeds: Sequence[Element], zeta: RecursiveMap, phi: Endomorphism,
                 label: str = "rfs", validate: bool = True):
        seeds = tuple(seeds)
        super().__init__(seeds, (zeta,) * len(seeds), (phi,) * len(seeds), label, validate)

    @property
    def zeta(self) -> RecursiveMap:
        return self.zetas[0]

    @property
    def phi(self) -> Endomorphism:
        return self.phis[0]

    def _generator(self, n, component):
        power, seed_index = divmod(n - 1, self.p)
        return component(seed_index + 1, power + 1)

    def _validate(self) -> Report:
        return validate_system(self)


# -- constructors ------------------------------------------------------------


def standard_rfs_o2(validate: bool = True) -> RfsSystem:
    """The basic system in O_2: seed s1 s2*, map s1 X s1* - s2 X s2*."""
    seed = Element.word(2, (1,), (2,))
    zeta = RecursiveMap(2, ((1, 1, 1), (-1, 2, 2)))
    return RfsSystem((seed,), zeta, rho(2), label="std-o2", validate=validate)


def generalized_rfs_o2d(d: int, upper: Sequence[int], lower: Sequence[int],
                        eps: Optional[Sequence[int]] = None,
                        eps_prime: Optional[Sequence[int]] = None,
                        validate: bool = True) -> RfsSystem:
    """One-seed system in O_{2d} from an ordered split of {1..2d}.

    ``upper``/``lower`` are the two ordered index parts (upper[0] must be 1);
    the seed is sum_k eps_k s_{upper_k} s_{lower_k}* and the map carries
    eps'_k on the upper sandwiches and -eps'_k on the lower ones.  Leading
    signs are normalized to +1.
    """
    if d < 1:
        raise IndexRangeError(f"d must be >= 1, got {d}")
    upper, lower = tuple(upper), tuple(lower)
    size = 2 * d
    if len(upper) != d or len(lower) != d:
        raise IndexRangeError(f"parts must each list {d} indices")
    if sorted(upper + lower) != list(range(1, size + 1)):
        raise IndexRangeError(f"parts must split 1..{size} exactly")
    if upper[0] != 1:
        raise IndexRangeError("the first upper index must be 1")
    eps = tuple(eps) if eps is not None else (1,) * d
    eps_prime = tuple(eps_prime) if eps_prime is not None else (1,) * d
    if len(eps) != d or len(eps_prime) != d:
        raise IndexRangeError("sign lists must have one entry per pair")
    if any(s not in (1, -1) for s in eps + eps_prime):
        raise IndexRangeError("signs must be +-1")
    if eps[0] != 1 or eps_prime[0] != 1:
        raise IndexRangeError("leading signs must be +1")
    seed = Element(size, {Monomial((u,), (l,)): e for e, u, l in zip(eps, upper, lower)})
    sandwiches = []
    for e, u, l in zip(eps_prime, upper, lower):
        sandwiches.append((e, u, u))
        sandwiches.append((-e, l, l))
    zeta = RecursiveMap(size, tuple(sandwiches))
    return RfsSystem((seed,), zeta, rho(size), label=f"rfs-o{size}", validate=validate)


def _floor_sign(numerator: int, levels: int) -> int:
    """(-1) to the power sum_{m=1..levels} floor(numerator / 2^{m-1})."""
    exponent = sum(numerator >> (m - 1) for m in range(1, levels + 1))
    return -1 if exponent % 2 else 1


def standard_rfs_p_seed_terms(p: int, i: int) -> dict[Monomial, int]:
    """Closed-formula seed a_i of the p-seed system on 2^p letters."""
    terms: dict[Monomial, int] = {}
    for k in range(1, 2 ** (p - i) + 1):
        for ell in range(1, 2 ** (i - 1) + 1):
            sign = _floor_sign(ell - 1, i - 1)
            cidx = 2**i * (k - 1) + ell
            aidx = 2 ** (i - 1) * (2 * k - 1) + ell
            terms[Monomial((cidx,), (aidx,))] = sign
    return terms


def standard_rfs_p_zeta_signs(p: int) -> tuple[int, ...]:
    return tuple(_floor_sign(i - 1, p) for i in range(1, 2**p + 1))


def standard_rfs_p(p: int, validate: bool = True) -> RfsSystem:
    """The p-seed system on 2^p letters whose image is the full
    charge-zero subalgebra; seeds and map come from closed formulas."""
    if not 1 <= p <= config.DEFAULT_P_MAX_RFS:
        raise IndexRangeError(f"p must lie in 1..{config.DEFAULT_P_MAX_RFS}, got {p}")
    d = 2**p
    seeds = [Element(d, standard_rfs_p_seed_terms(p, i)) for i in range(1, p + 1)]
    zeta = RecursiveMap(d, tuple((s, i, i) for i, s in
                                 enumerate(standard_rfs_p_zeta_signs(p), start=1)))
    return RfsSystem(seeds, zeta, rho(d), label=f"std-rfs-p:{p}", validate=validate)


# -- verification ------------------------------------------------------------


def verify_seed_condition(sys) -> Report:
    """Exact check of the seed conditions, reported per relation family."""
    report = Report()
    seeds = sys.seeds
    p = len(seeds)

    def square_ok(i):
        return (seeds[i] * seeds[i]).equals(Element.zero(sys.d))

    report.scan("seed.square", {"seeds": p}, range(p), square_ok,
                lambda i: f"a_{i + 1}^2 = {(seeds[i] * seeds[i]).normal_form()}")

    pairs = [(i, j) for i in range(p) for j in range(i, p)]

    def anti_ok(pair):
        i, j = pair
        return anticommutator(seeds[i], seeds[j]).equals(Element.zero(sys.d))

    report.scan("seed.anticommute", {"pairs": len(pairs)}, pairs, anti_ok,
                lambda pr: "{a_%d, a_%d} = %s" % (
                    pr[0] + 1, pr[1] + 1,
                    anticommutator(seeds[pr[0]], seeds[pr[1]]).normal_form()))

    unit = identity(sys.d)

    def mixed_ok(pair):
        i, j = pair
        lhs = anticommutator(seeds[i], seeds[j].adjoint())
        rhs = unit if i == j else Element.zero(sys.d)
        return lhs.equals(rhs)

    report.scan("seed.mixed", {"pairs": len(pairs)}, pairs, mixed_ok,
                lambda pr: "{a_%d, a_%d*} = %s" % (
                    pr[0] + 1, pr[1] + 1,
                    anticommutator(seeds[pr[0]], seeds[pr[1]].adjoint()).normal_form()))
    return report


def adjoint_certificate(report: Report, check: str, params: dict, zeta: RecursiveMap):
    """The exact certificate of z(X)* = z(X*): the sign matrix is symmetric."""
    ok = zeta.is_adjoint_compatible()
    report.add(check, params, ok, witness=None if ok else "sign matrix is not symmetric")


def _verdict(certificate_ok: bool, bad) -> tuple[bool, Optional[str]]:
    """(ok, status) of a condition from its sufficient certificate and the first
    failure ``bad`` of its sweep: a witness fails it, and a failed certificate
    without one leaves it inconclusive."""
    if not certificate_ok and bad is None:
        return False, INCONCLUSIVE
    return certificate_ok and bad is None, None


def certified_scan(report: Report, prefix: str, params: dict, certificate,
                   sweep_params: dict, candidates, predicate, render, always_conclude: bool):
    """Report a condition checked by a certificate and a sampled sweep.

    Adds ``<prefix>certificate`` from the ``(ok, witness)`` pair, then
    ``<prefix>sampled`` from a :meth:`Report.scan` of the candidates, then
    the verdict of both (:func:`_verdict`) as ``<prefix>condition``: always
    with ``always_conclude``, else only when it is inconclusive.
    """
    certificate_ok, witness = certificate
    report.add(prefix + "certificate", params, certificate_ok, witness=witness)
    bad = report.scan(prefix + "sampled", {**params, **sweep_params}, candidates, predicate,
                      render)
    ok, status = _verdict(certificate_ok, bad)
    if always_conclude or status:
        report.add(prefix + "condition", params, ok, status=status)


def verify_recursive_condition(sys, depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Formal certificate plus sampled sweep for the recursive condition."""
    report = Report()
    d = sys.d
    monomials, elements = sweep_words(d, depth, "recursive.sampled")
    images = [sys.zeta.apply(el) for el in elements]
    zero = Element.zero(d)

    for i, seed in enumerate(sys.seeds, start=1):
        certified_scan(
            report, "recursive.", {"seed": i}, bimodule_certificate(seed, sys.zeta, +1),
            {"depth": depth, "monomials": len(monomials)}, range(len(monomials)),
            lambda idx: anticommutator(seed, images[idx]).equals(zero),
            lambda idx: "{a_%d, z(%s)} = %s" % (
                i, monomials[idx], anticommutator(seed, images[idx]).normal_form()),
            always_conclude=True)

    adjoint_certificate(report, "recursive.adjoint-certificate", {}, sys.zeta)

    def adjoint_ok(idx):
        return images[idx].adjoint().equals(sys.zeta.apply(elements[idx].adjoint()))

    report.scan("recursive.adjoint-sampled", {"depth": depth, "monomials": len(monomials)},
                range(len(monomials)), adjoint_ok,
                lambda idx: f"z({monomials[idx]})* != z(({monomials[idx]})*)")
    return report


def normalization_certificate(report: Report, check: str, params: dict, zeta: RecursiveMap,
                              applicable: bool, witness: bool = True):
    """The exact normalization certificate, which applies when phi is rho; an
    inapplicable one is inconclusive.  ``witness`` names a failed one."""
    if not applicable:
        report.add(check, {**params, "applicable": False}, False, status=INCONCLUSIVE)
        return
    ok = normalization_matrix_holds(zeta)
    report.add(check, {**params, "applicable": True}, ok,
               witness=None if ok or not witness else
               "contracted sandwich square is not the identity")


def normalization_sweep(report: Report, check: str, params: dict, zeta: RecursiveMap,
                        phi: Endomorphism, words, render):
    """One line for z(X) z(Y) = phi(XY) over every ordered pair of sweep words.

    ``words`` is a :func:`sweep_words` pair whose budget counted the pairs;
    ``render`` names a failing pair from its two words.
    """
    monomials, elements = words
    n = len(monomials)
    images = [zeta.apply(el) for el in elements]

    def pair_ok(pair):
        ix, iy = pair
        return (images[ix] * images[iy]).equals(phi.apply(elements[ix] * elements[iy]))

    report.scan(check, {**params, "pairs": n * n}, itertools.product(range(n), range(n)),
                pair_ok, lambda pair: render(monomials[pair[0]], monomials[pair[1]]))


def verify_normalization(sys, depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Matrix certificate (when phi is canonical) plus the pair sweep."""
    report = Report()
    normalization_certificate(report, "normalization.certificate", {}, sys.zeta,
                              is_rho(sys.phi))
    normalization_sweep(report, "normalization.sampled", {"depth": depth}, sys.zeta, sys.phi,
                        sweep_words(sys.d, depth, "normalization.sampled", lambda n: n * n),
                        lambda x, y: f"z({x}) z({y}) != phi(product)")
    return report


def operands(source):
    """What the predicates of a check run on: ``(generator, component, zero, unit)``.

    A triad system whose seeds are charge-zero gives tensors
    (``cuntz.tensor``): each component generator is one Jordan-Wigner string
    per seed term, and the system's generators are made from them as from
    words.  Any other source gives its word generators and components, the
    reference; a function the source lacks is None.
    """
    if isinstance(source, TriadSystem) and all(is_u1_invariant(s) for s in source.seeds):
        return (lambda n: source._generator(n, source.tensor_component),
                source.tensor_component, Tensor.zero(source.d), Tensor.identity(source.d))
    return (getattr(source, "generator", None), getattr(source, "component", None),
            Element.zero(source.d), identity(source.d))


def car_budget(n_max: int):
    """The sweep budget of :func:`verify_car`: N(N+1)/2 pairs per line."""
    config.check_sweep("car.anticommute", n_max * (n_max + 1) // 2)


def verify_car(family, n_max: int) -> Report:
    """Anticommutation relations for generators 1..n_max of a family.

    The predicates run on tensors for a system with charge-zero seeds; a
    witness is always rendered from the family's word generators.  The
    N(N+1)/2 pairs meet the sweep budget before any operand is built.
    """
    car_budget(n_max)
    report = Report()
    generator, _, zero, unit = operands(family)
    gens = [generator(n) for n in range(1, n_max + 1)]
    adjs = [g.adjoint() for g in gens]
    pairs = [(m, n) for m in range(n_max) for n in range(m, n_max)]

    def anti_ok(pair):
        m, n = pair
        return anticommutator(gens[m], gens[n]).equals(zero)

    report.scan("car.anticommute", {"N": n_max, "pairs": len(pairs)}, pairs, anti_ok,
                lambda pr: "{A_%d, A_%d} = %s" % (
                    pr[0] + 1, pr[1] + 1,
                    anticommutator(family.generator(pr[0] + 1),
                                   family.generator(pr[1] + 1)).normal_form()))

    def mixed_ok(pair):
        m, n = pair
        rhs = unit if m == n else zero
        return anticommutator(gens[m], adjs[n]).equals(rhs)

    report.scan("car.mixed", {"N": n_max, "pairs": len(pairs)}, pairs, mixed_ok,
                lambda pr: "{A_%d, A_%d*} = %s" % (
                    pr[0] + 1, pr[1] + 1,
                    anticommutator(family.generator(pr[0] + 1),
                                   family.generator(pr[1] + 1).adjoint()).normal_form()))
    return report


def validate_triads(sys, report: Report, key: str, prefix: str, adjoint_check: str,
                    normalization_check: str) -> Report:
    """Construction-time validation of a triad system from exact parts only.

    ``report`` holds the seed conditions.  Added to it: per seed, the
    certificate that it anticommutes with its map (``<prefix>certificate``;
    a failed one is refuted on the words of length <= 1, built only then
    and under the sweep budget, when it can be, and is inconclusive
    otherwise); then per map, once when the triads share
    it, its adjoint certificate and either the normalization certificate
    (phi is rho) or phi's defining relations.  Lines of one component carry
    ``{key: alpha}``.
    """
    zero = Element.zero(sys.d)
    for alpha, seed in enumerate(sys.seeds, start=1):
        zeta = sys.zetas[alpha - 1]
        certificate_ok, witness = bimodule_certificate(seed, zeta, +1)
        if not certificate_ok:
            monomials, elements = sweep_words(sys.d, 1, prefix + "certificate")
        bad = None if certificate_ok else sweep_first_failure(
            lambda idx: anticommutator(seed, zeta.apply(elements[idx])).equals(zero),
            range(len(monomials)))
        ok, status = _verdict(certificate_ok, bad)
        if bad is not None:
            witness = "{a_%d, z(%s)} != 0" % (alpha, monomials[bad])
        report.add(prefix + "certificate", {key: alpha}, ok, status=status, witness=witness)
    for alpha in range(1, 2 if sys.shared_map else sys.p + 1):
        params = {} if sys.shared_map else {key: alpha}
        zeta, phi = sys.zetas[alpha - 1], sys.phis[alpha - 1]
        adjoint_certificate(report, adjoint_check, params, zeta)
        if is_rho(phi):
            normalization_certificate(report, normalization_check, params, zeta, True)
        else:
            failures = phi.relation_failures()
            report.add("endomorphism.relations", params, not failures,
                       witness=failures[0] if failures else None)
    return report


def validate_system(sys) -> Report:
    """Construction-time validation: exact parts only (no deep sweeps)."""
    return validate_triads(sys, verify_seed_condition(sys), "seed", "recursive.",
                           "recursive.adjoint-certificate", "normalization.certificate")


def verify_all(sys, depth: int = config.DEFAULT_SWEEP_DEPTH,
               car_range: Optional[int] = None) -> Report:
    """The seed, recursive, normalization and CAR checks, in that order.

    The sweeps of the suite that are counted in closed form (recursive,
    normalization, CAR) meet the sweep budget in suite order before the
    first check runs.  A suite that one of them would stop exits at once,
    with the message that sweep's own check gives.
    """
    n_max = car_range if car_range is not None else config.default_car_range(sys.p)
    sweep_budget(sys.d, depth, "recursive.sampled")
    sweep_budget(sys.d, depth, "normalization.sampled", lambda n: n * n)
    car_budget(n_max)
    report = verify_seed_condition(sys)
    report.extend(verify_recursive_condition(sys, depth=depth))
    report.extend(verify_normalization(sys, depth=depth))
    report.extend(verify_car(sys, n_max))
    return report


def compose_with_endomorphism(sys, e: Endomorphism) -> GeneratorFamily:
    """The pushed-forward family n -> e(A_n); relations are inherited."""
    if e.d != sys.d:
        raise AlphabetMismatchError(f"d mismatch: {e.d} vs {sys.d}")
    return GeneratorFamily(sys.d, lambda n: e.apply(sys.generator(n)),
                           label=f"{sys.label}+endo")


# -- exact span rank ---------------------------------------------------------


class SpanResult(NamedTuple):
    rank: int
    expected: int
    complete: bool
    products_considered: int


def _level_coordinates(el: Element, k: int, d: int) -> Optional[dict[Monomial, Scalar]]:
    """Coordinates of a charge-zero element in the level-k word basis."""
    nf = el.normal_form()
    if nf.is_zero:
        return None

    def raised():
        for m, c in nf.terms.items():
            gap = k - len(m.create)
            if m.excess != 0 or gap < 0:
                raise CuntzError(f"word {m} leaves the level-{k} charge-zero space")
            for w in itertools.product(range(1, d + 1), repeat=gap):
                yield Monomial(m.create + w, m.annihilate + w), c

    return accumulate({}, raised()) or None


def span_rank(generators: Sequence[Element], k: int, max_len: int) -> SpanResult:
    """Exact rank of words in the given charge-zero generators at level k.

    Products of up to ``max_len`` factors are reduced into the level-k
    word basis (dimension d^{2k}) by fraction-exact Gaussian elimination
    (:func:`cuntz.algebra.eliminate`).  A basis larger than
    ``config.DEFAULT_SPAN_BASIS_CAP`` is refused before any product.
    """
    if k < 1:
        raise IndexRangeError(f"k must be >= 1, got {k}")
    if not generators:
        raise IndexRangeError("need at least one generator")
    d = generators[0].d
    expected = d ** (2 * k)
    if expected > (cap := config.DEFAULT_SPAN_BASIS_CAP):
        raise ResourceLimitError(expected, cap, "basis size", "span_rank")
    gens = list(generators)

    basis: dict = {}
    considered = 0
    queue = [(identity(d), 0)]
    eliminate(basis, _level_coordinates(identity(d), k, d))
    while queue and len(basis) < expected:
        frontier, length = queue.pop(0)
        if length >= max_len:
            continue
        for g in gens:
            product = frontier * g
            considered += 1
            coords = _level_coordinates(product, k, d) if product else None
            if coords is None:
                continue
            rank = len(basis)
            eliminate(basis, coords)
            if len(basis) > rank:  # the product is independent of the rows so far
                queue.append((product, length + 1))
                if len(basis) == expected:
                    break
    return SpanResult(len(basis), expected, len(basis) == expected, considered)


def span_dimension_check(sys, k: int) -> SpanResult:
    """Exact rank of products of the first p*k embedded generators and adjoints.

    A complete span witnesses that the embedded algebra exhausts the
    charge-zero subalgebra at level k.  For one seed this needs
    generators 1..k; a p-seed system contributes p generators per level,
    hence generators 1..p*k and products of up to twice that many factors.
    """
    count = sys.p * k
    gens = [sys.generator(n) for n in range(1, count + 1)]
    gens += [g.adjoint() for g in gens]
    return span_rank(gens, k, 2 * count)
