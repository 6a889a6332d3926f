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

The CAR check of a system with charge-zero seeds runs on tensors
(``cuntz.tensor``): A_n = z^k(a_i) is the Jordan-Wigner string
M^{(x)k} (x) a_i of the map's sign matrix M, one term per seed term where
the word basis holds 2^k words or more.  Any other family, and every
witness, stays on the word algebra, which is the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import config
from .algebra import (
    Element,
    Monomial,
    Scalar,
    anticommutator,
    exact_scalar,
    identity,
    is_u1_invariant,
    isometry,
    iter_monomials,
    term_sort_key,
    unit_words,
)
from .endomorphisms import Endomorphism, is_rho, rho
from .errors import (
    AlphabetMismatchError,
    CuntzError,
    IndexRangeError,
    ResourceLimitError,
    SystemValidationError,
)
from .reports import INCONCLUSIVE, Report, check_sweep_size
from .tensor import Tensor, sandwich_power


@dataclass(frozen=True)
class RecursiveMap:
    """X -> sum_t sign_t s_{u_t} X s_{v_t}* with signs in {+1, -1}.

    Single-letter sandwiches cover every recursive map used by the
    constructions in scope and keep the condition certificates decidable.
    """

    d: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.d < 2:
            raise IndexRangeError(f"alphabet size must be >= 2, got {self.d}")
        for sign, u, v in self.terms:
            if sign not in (1, -1):
                raise IndexRangeError(f"sandwich sign must be +-1, got {sign}")
            if not (1 <= u <= self.d and 1 <= v <= self.d):
                raise IndexRangeError(f"sandwich indices ({u},{v}) outside 1..{self.d}")

    def apply(self, x: Element) -> Element:
        if x.d != self.d:
            raise AlphabetMismatchError(f"d mismatch: {x.d} vs {self.d}")
        out: dict[Monomial, Scalar] = {}
        for sign, u, v in self.terms:
            for m, c in x.terms.items():
                key = Monomial((u,) + m.create, (v,) + m.annihilate)
                cc = c if sign > 0 else -c
                acc = out.get(key)
                if acc is not None:
                    cc = acc + cc
                if cc:
                    out[key] = cc
                elif key in out:
                    del out[key]
        return Element._make(self.d, out)

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def power(self, n: int, x: Element) -> Element:
        for _ in range(n):
            x = self.apply(x)
        return x

    def sandwich_matrix(self) -> dict[tuple[int, int], int]:
        """Net sign per (left, right) letter pair."""
        matrix: dict[tuple[int, int], int] = {}
        for sign, u, v in self.terms:
            total = matrix.get((u, v), 0) + sign
            if total:
                matrix[(u, v)] = total
            elif (u, v) in matrix:
                del matrix[(u, v)]
        return matrix

    def is_adjoint_compatible(self) -> bool:
        """Exact test of z(X)* = z(X*) for all X: the sign matrix is symmetric."""
        matrix = self.sandwich_matrix()
        return all(matrix.get((v, u), 0) == c for (u, v), c in matrix.items())

    def signs(self) -> tuple[int, ...]:
        return tuple(sign for sign, _, _ in self.terms)


def apply_zeta(z: RecursiveMap, x: Element) -> Element:
    return z.apply(x)


def zeta_power(z: RecursiveMap, n: int, x: Element) -> Element:
    return z.power(n, x)


def _matrix_product(left: dict, right: dict, d: int) -> dict:
    """Product of two sandwich sign matrices, as sparse ``(row, column)`` dicts."""
    out: dict[tuple[int, int], int] = {}
    for (u, v), a in left.items():
        for w in range(1, d + 1):
            b = right.get((v, w), 0)
            if not b:
                continue
            total = out.get((u, w), 0) + a * b
            if total:
                out[(u, w)] = total
            elif (u, w) in out:
                del out[(u, w)]
    return out


def normalization_matrix_holds(z: RecursiveMap) -> bool:
    """Exact test of z(X) z(Y) = rho(XY): the contracted square is the identity.

    Contracting the middle letters with s_i* s_j = delta_ij I turns the
    double sandwich sum into the matrix square of the sign matrix; the
    identity matrix is exactly the canonical endomorphism's sandwich form.
    Valid as an iff whenever the declared phi equals rho on images.
    """
    matrix = z.sandwich_matrix()
    square = _matrix_product(matrix, matrix, z.d)
    return square == {(i, i): 1 for i in range(1, z.d + 1)}


def _pair_key(pair):
    left, right = pair
    return (term_sort_key(left), term_sort_key(right))


def _bimodule_certificate(seed: Element, z: RecursiveMap, relation_sign: int):
    """Formal expansion of a (anti)commutator with a sandwich map.

    Collects {a, z(X)} (relation_sign=+1) or [a, z(X)] (relation_sign=-1)
    as a sum of left (x) right word pairs with X left open; identical
    vanishing is sufficient for the relation to hold for every X.
    Returns (ok, witness).
    """
    d = seed.d
    pairs: dict[tuple[Monomial, Monomial], Scalar] = {}

    def add(key, c):
        acc = pairs.get(key)
        if acc is not None:
            c = acc + c
        if c:
            pairs[key] = c
        elif key in pairs:
            del pairs[key]

    for sign, u, v in z.terms:
        factor = sign
        left = seed * isometry(d, u)
        right_word = Monomial((), (v,))
        for m, c in left.terms.items():
            add((m, right_word), factor * c)
        right = Element.word(d, (), (v,)) * seed
        left_word = Monomial((u,), ())
        factor2 = factor if relation_sign > 0 else -factor
        for m, c in right.terms.items():
            add((left_word, m), factor2 * c)
    if not pairs:
        return True, None
    (lw, rw), c = min(pairs.items(), key=lambda kv: _pair_key(kv[0]))
    return False, f"leftover {c} * ({lw}) X ({rw})"


def anticommute_certificate(seed: Element, z: RecursiveMap):
    return _bimodule_certificate(seed, z, +1)


def commute_certificate(seed: Element, z: RecursiveMap):
    return _bimodule_certificate(seed, z, -1)


class GeneratorFamily:
    """An indexed family n -> element of O_d; the unit of account for
    anticommutation and vacuum sweeps.  Generators are cached."""

    def __init__(self, d: int, fn: Callable[[int], Element], label: str = "family",
                 max_terms: Optional[int] = None):
        self.d = d
        self.label = label
        self.max_terms = max_terms
        self._fn = fn
        self._cache: dict[int, Element] = {}

    def generator(self, n: int) -> Element:
        if not isinstance(n, int) or n < 1:
            raise IndexRangeError(f"generator index must be >= 1, got {n}")
        cached = self._cache.get(n)
        if cached is None:
            cached = self._fn(n)
            cap = config.max_terms_cap(self.max_terms)
            if len(cached) > cap:
                raise ResourceLimitError(len(cached), cap, operation="generator")
            self._cache[n] = cached
        return cached

    def __repr__(self):
        return f"GeneratorFamily({self.label}, d={self.d})"


class RfsSystem:
    """A validated recursive fermion system.

    Treat instances as immutable; the only internal mutation is the
    memo of iterated map applications, keyed by (seed index, power).
    """

    __slots__ = ("d", "p", "seeds", "zeta", "phi", "label", "max_terms",
                 "validation", "_pow")

    def __init__(self, seeds: Sequence[Element], zeta: RecursiveMap, phi: Endomorphism,
                 label: str = "rfs", validate: bool = True,
                 max_terms: Optional[int] = None):
        seeds = tuple(seeds)
        if not seeds:
            raise IndexRangeError("a system needs at least one seed")
        d = zeta.d
        if any(seed.d != d for seed in seeds) or phi.d != d:
            raise AlphabetMismatchError("seeds, map and endomorphism must share d")
        self.d = d
        self.p = len(seeds)
        self.seeds = seeds
        self.zeta = zeta
        self.phi = phi
        self.label = label
        self.max_terms = max_terms
        self.validation = None
        self._pow: dict[tuple[int, int], Element] = {}
        if validate:
            report = validate_system(self)
            self.validation = report
            if report.failures():
                raise SystemValidationError(report)

    def zeta_power(self, seed_index: int, power: int) -> Element:
        key = (seed_index, power)
        cached = self._pow.get(key)
        if cached is None:
            if power == 0:
                cached = self.seeds[seed_index]
            else:
                cached = self.zeta.apply(self.zeta_power(seed_index, power - 1))
                cap = config.max_terms_cap(self.max_terms)
                if len(cached) > cap:
                    raise ResourceLimitError(len(cached), cap, operation="generator")
            self._pow[key] = cached
        return cached

    def generator(self, n: int) -> Element:
        """The n-th embedded fermion generator, n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise IndexRangeError(f"generator index must be >= 1, got {n}")
        power, seed_index = divmod(n - 1, self.p)
        return self.zeta_power(seed_index, power)

    def family(self) -> GeneratorFamily:
        return GeneratorFamily(self.d, self.generator, label=self.label,
                               max_terms=self.max_terms)

    def __repr__(self):
        return f"RfsSystem({self.label}, d={self.d}, p={self.p})"


def embed_generator(sys: RfsSystem, n: int) -> Element:
    return sys.generator(n)


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


def standard_rfs_p(p: int, p_max: Optional[int] = None, validate: bool = True) -> RfsSystem:
    """The p-seed system on 2^p letters whose image is the full
    charge-zero subalgebra; seeds and map come from closed formulas."""
    limit = p_max if p_max is not None else config.DEFAULT_P_MAX_RFS
    if not 1 <= p <= limit:
        raise IndexRangeError(f"p must lie in 1..{limit}, got {p}")
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


def verify_recursive_condition(sys, depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Formal certificate plus sampled sweep for the recursive condition."""
    report = Report()
    d = sys.d
    monomials = list(iter_monomials(d, depth))
    elements = unit_words(d, monomials)
    images = [sys.zeta.apply(el) for el in elements]
    zero = Element.zero(d)

    for i, seed in enumerate(sys.seeds, start=1):
        cert_ok, cert_witness = anticommute_certificate(seed, sys.zeta)
        report.add("recursive.certificate", {"seed": i}, cert_ok, witness=cert_witness)

        def sampled_ok(idx):
            return anticommutator(seed, images[idx]).equals(zero)

        bad = report.scan(
            "recursive.sampled", {"seed": i, "depth": depth, "monomials": len(monomials)},
            range(len(monomials)), sampled_ok,
            lambda idx: "{a_%d, z(%s)} = %s" % (
                i, monomials[idx], anticommutator(seed, images[idx]).normal_form()))
        if cert_ok:
            status = None
            ok = bad is None  # certificate is sound, but report a sweep conflict
        elif bad is None:
            status, ok = INCONCLUSIVE, False
        else:
            status, ok = None, False
        report.add("recursive.condition", {"seed": i}, ok, status=status)

    adjoint_exact = sys.zeta.is_adjoint_compatible()
    report.add("recursive.adjoint-certificate", {}, adjoint_exact,
               witness=None if adjoint_exact else "sign matrix is not symmetric")

    def adjoint_ok(idx):
        return images[idx].adjoint().equals(sys.zeta.apply(elements[idx].adjoint()))

    report.scan("recursive.adjoint-sampled", {"depth": depth, "monomials": len(monomials)},
                range(len(monomials)), adjoint_ok,
                lambda idx: f"z({monomials[idx]})* != z(({monomials[idx]})*)")
    return report


def verify_normalization(sys, depth: int = config.DEFAULT_SWEEP_DEPTH) -> Report:
    """Matrix certificate (when phi is canonical) plus the pair sweep."""
    report = Report()
    d = sys.d
    applicable = is_rho(sys.phi)
    if applicable:
        cert_ok = normalization_matrix_holds(sys.zeta)
        report.add("normalization.certificate", {"applicable": True}, cert_ok,
                   witness=None if cert_ok else "contracted sandwich square is not the identity")
    else:
        report.add("normalization.certificate", {"applicable": False}, False,
                   status=INCONCLUSIVE)

    monomials = list(iter_monomials(d, depth))
    n = len(monomials)
    check_sweep_size("normalization.sampled", n * n)
    elements = unit_words(d, monomials)
    images = [sys.zeta.apply(el) for el in elements]
    pairs = list(itertools.product(range(n), range(n)))

    def pair_ok(pair):
        ix, iy = pair
        return (images[ix] * images[iy]).equals(sys.phi.apply(elements[ix] * elements[iy]))

    report.scan("normalization.sampled", {"depth": depth, "pairs": len(pairs)}, pairs, pair_ok,
                lambda pair: "z(%s) z(%s) != phi(product)" % (
                    monomials[pair[0]], monomials[pair[1]]))
    return report


def _zero_and_unit(tensors: bool, d: int):
    """The zero and unit of tensor or of word operands."""
    if tensors:
        return Tensor.zero(d), Tensor.identity(d)
    return Element.zero(d), identity(d)


def _car_operands(family, n_max: int):
    """Generators 1..n_max with the zero and unit of their kind.

    An RfsSystem whose seeds are charge-zero gives tensors (``cuntz.tensor``),
    A_n = z^k(a_i) built as one Jordan-Wigner string per seed term.  Any other
    family gives its generators as words.
    """
    tensors = isinstance(family, RfsSystem) and all(is_u1_invariant(s) for s in family.seeds)
    if tensors:
        matrix = family.zeta.sandwich_matrix()
        gens = [sandwich_power(matrix, family.seeds[i], k)
                for k, i in (divmod(n, family.p) for n in range(n_max))]
    else:
        gens = [family.generator(n) for n in range(1, n_max + 1)]
    return (gens, *_zero_and_unit(tensors, family.d))


def verify_car(family, n_max: int) -> Report:
    """Anticommutation relations for generators 1..n_max of a family.

    The predicates run on tensors for a system with charge-zero seeds; a
    witness is always rendered from the family's word generators.
    """
    report = Report()
    gens, zero, unit = _car_operands(family, n_max)
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


def validate_system(sys) -> Report:
    """Construction-time validation: exact parts only (no deep sweeps)."""
    report = verify_seed_condition(sys)
    for i, seed in enumerate(sys.seeds, start=1):
        cert_ok, cert_witness = anticommute_certificate(seed, sys.zeta)
        if cert_ok:
            report.add("recursive.certificate", {"seed": i}, True)
            continue
        # The certificate is only sufficient; look for a cheap refutation
        # before declaring the construction undecided.
        bad = None
        monomials = list(iter_monomials(sys.d, 1))
        for m, el in zip(monomials, unit_words(sys.d, monomials)):
            if not anticommutator(seed, sys.zeta.apply(el)).equals(Element.zero(sys.d)):
                bad = m
                break
        if bad is not None:
            report.add("recursive.certificate", {"seed": i}, False,
                       witness="{a_%d, z(%s)} != 0" % (i, bad))
        else:
            report.add("recursive.certificate", {"seed": i}, False,
                       status=INCONCLUSIVE, witness=cert_witness)
    adjoint_exact = sys.zeta.is_adjoint_compatible()
    report.add("recursive.adjoint-certificate", {}, adjoint_exact,
               witness=None if adjoint_exact else "sign matrix is not symmetric")
    if is_rho(sys.phi):
        cert_ok = normalization_matrix_holds(sys.zeta)
        report.add("normalization.certificate", {"applicable": True}, cert_ok,
                   witness=None if cert_ok else "contracted sandwich square is not the identity")
    else:
        failures = sys.phi.relation_failures()
        report.add("endomorphism.relations", {}, not failures,
                   witness=failures[0] if failures else None)
    return report


def verify_all(sys, depth: int = config.DEFAULT_SWEEP_DEPTH,
               car_range: Optional[int] = None) -> Report:
    report = verify_seed_condition(sys)
    report.extend(verify_recursive_condition(sys, depth=depth))
    report.extend(verify_normalization(sys, depth=depth))
    n_max = car_range if car_range is not None else config.default_car_range(sys.p)
    report.extend(verify_car(sys, n_max))
    return report


def compose_with_endomorphism(sys, e: Endomorphism) -> GeneratorFamily:
    """The pushed-forward family n -> e(A_n); relations are inherited."""
    if e.d != sys.d:
        raise AlphabetMismatchError(f"d mismatch: {e.d} vs {sys.d}")
    return GeneratorFamily(sys.d, lambda n: e.apply(sys.generator(n)),
                           label=f"{sys.label}+endo")


# -- exact span rank ---------------------------------------------------------


@dataclass(frozen=True)
class SpanResult:
    rank: int
    expected: int
    complete: bool
    products_considered: int


def _level_coordinates(el: Element, k: int, d: int) -> Optional[dict[Monomial, Scalar]]:
    """Coordinates of a charge-zero element in the level-k word basis."""
    nf = el.normal_form()
    if nf.is_zero:
        return None
    coords: dict[Monomial, Scalar] = {}
    for m, c in nf.terms.items():
        gap = k - len(m.create)
        if m.excess != 0 or gap < 0:
            raise CuntzError(f"word {m} leaves the level-{k} charge-zero space")
        if gap == 0:
            keys = (m,)
        else:
            keys = (Monomial(m.create + w, m.annihilate + w)
                    for w in itertools.product(range(1, d + 1), repeat=gap))
        for key in keys:
            acc = coords.get(key)
            cc = c if acc is None else acc + c
            if cc:
                coords[key] = cc
            elif key in coords:
                del coords[key]
    return coords or None


def _reduce_insert(rows: dict[Monomial, dict[Monomial, Scalar]], coords) -> bool:
    """Reduce ``coords`` against the pivot rows; keep what is left as a new row.

    Each row is scaled so its pivot (its least word) is 1.  Returns whether
    a row was added, i.e. whether ``coords`` was independent of the rows.
    """
    while coords:
        pivot = min(coords, key=term_sort_key)
        row = rows.get(pivot)
        if row is None:
            # Fraction, not int, division: the row stays exact.
            inverse = 1 / Fraction(coords[pivot])
            rows[pivot] = {m: exact_scalar(c * inverse) for m, c in coords.items()}
            return True
        factor = coords[pivot]
        for m, c in row.items():
            cc = coords.get(m, 0) - factor * c
            if cc:
                coords[m] = cc
            elif m in coords:
                del coords[m]
    return False


def span_rank(generators: Sequence[Element], k: int, max_len: int,
              basis_cap: Optional[int] = None) -> SpanResult:
    """Exact rank of words in the given charge-zero generators at level k.

    Products of up to ``max_len`` factors are reduced into the level-k
    word basis (dimension d^{2k}) by fraction-exact Gaussian elimination.
    """
    if k < 1:
        raise IndexRangeError(f"k must be >= 1, got {k}")
    if not generators:
        raise IndexRangeError("need at least one generator")
    d = generators[0].d
    expected = d ** (2 * k)
    cap = basis_cap if basis_cap is not None else config.DEFAULT_SPAN_BASIS_CAP
    if expected > cap:
        raise ResourceLimitError(expected, cap, what="basis size")
    gens = list(generators)

    rows: dict[Monomial, dict[Monomial, Scalar]] = {}
    considered = 0
    queue = [(identity(d), 0)]
    _reduce_insert(rows, _level_coordinates(identity(d), k, d))
    while queue and len(rows) < expected:
        frontier, length = queue.pop(0)
        if length >= max_len:
            continue
        for g in gens:
            product = frontier * g
            considered += 1
            coords = _level_coordinates(product, k, d) if product else None
            if coords is not None and _reduce_insert(rows, coords):
                queue.append((product, length + 1))
                if len(rows) == expected:
                    break
    return SpanResult(len(rows), expected, len(rows) == expected, considered)


def span_dimension_check(sys, k: int, basis_cap: Optional[int] = None) -> SpanResult:
    """Exact rank of products of the first p*k embedded generators and adjoints.

    A complete span witnesses that the embedded algebra exhausts the
    charge-zero subalgebra at level k.  For one seed this needs
    generators 1..k; a p-seed system contributes p generators per level,
    hence generators 1..p*k and products of up to twice that many factors.
    """
    count = sys.p * k
    gens = [sys.generator(n) for n in range(1, count + 1)]
    gens += [g.adjoint() for g in gens]
    return span_rank(gens, k, 2 * count, basis_cap=basis_cap)
