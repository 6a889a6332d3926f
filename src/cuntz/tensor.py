"""Charge-zero elements of O_d as sums of elementary tensors of d x d matrices.

A charge-zero word s_A s_B* with |A| = |B| = n is the matrix unit
e_{a1 b1} (x) ... (x) e_{an bn} of M_d^{(x)n}.  Words multiply like matrix
units, the adjoint transposes every site, and completeness,
s_A s_B* = sum_i s_{Ai} s_{Bi}*, is padding with I at site n + 1.  So the
charge-zero subalgebra of O_d is the infinite tensor product of M_d, and a
:class:`Tensor` holds an element of it as a sum of elementary tensors of
exact (``int`` or ``Fraction``) matrices, every site past the end being I.

So a key never ends in I, and one rule says which factor is I: a matrix of
exactly the d entries (i, i, 1), tested without building anything.  Every
key is trimmed of its trailing identity factors by that test.  The d x d
identity itself is built in one place only: :meth:`Tensor.is_zero` pads a
shorter key with it, after the term cap admits its d entries, so an
alphabet too large to list exits at the cap instead of exhausting memory.

A single-letter sandwich map X -> sum_t sign_t s_{u_t} X s_{v_t}* is
X -> M (x) X, with M the map's sign matrix; ``cuntz.rfs.RecursiveMap`` holds
M as a :data:`Matrix` of this module, and its symmetry and normalization
certificates are matrix identities here.  So the generator
A_{p(n-1)+i} = z^{n-1}(a_i) is the Jordan-Wigner string
M^{(x)(n-1)} (x) a_i: one elementary tensor per word of the seed, where the
word basis holds 2^(n-1) words or more (:func:`sandwich_power`).

Equality is decided exactly by :meth:`Tensor.is_zero`, an elimination one
site at a time whose rank never exceeds the number of terms.  The CAR,
Green, trilinear and spectrum checks get their tensors from
``cuntz.rfs.operands``; the word algebra of :mod:`cuntz.algebra` stays the
reference.
"""

from __future__ import annotations

from . import config
from .algebra import Element, Scalar, accumulate, eliminate, exact_scalar, is_u1_invariant
from .errors import CuntzError

# A d x d matrix: its nonzero entries (row, column, value), sorted, with
# letters 1..d as indices.  The empty tuple is the zero matrix.
Matrix = tuple[tuple[int, int, Scalar], ...]
# One elementary tensor: the factors of sites 1, 2, ...; sites past the end
# are I, so a key never ends in the identity matrix.
Sites = tuple[Matrix, ...]


def _matrix(entries: dict[tuple[int, int], Scalar]) -> Matrix:
    return tuple(sorted((i, j, c) for (i, j), c in entries.items() if c))


def _is_identity(m: Matrix, d: int) -> bool:
    """Whether ``m`` is the d x d identity; builds nothing."""
    return len(m) == d and all(e == (i, i, 1) for i, e in enumerate(m, 1))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    rows: dict[int, list] = {}
    for k, j, y in b:
        rows.setdefault(k, []).append((j, y))
    out: dict[tuple[int, int], Scalar] = {}
    for i, k, x in a:
        for j, y in rows.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + x * y
    return _matrix(out)


def _transpose(a: Matrix) -> Matrix:
    return tuple(sorted((j, i, c) for i, j, c in a))


def _trimmed(sites: Sites, d: int) -> Sites:
    """``sites`` without its trailing identity factors: the one form of a key."""
    while sites and _is_identity(sites[-1], d):
        sites = sites[:-1]
    return sites


class Tensor:
    """A charge-zero element of O_d: ``terms`` maps :data:`Sites` to coefficients.

    A sum, a product or a converted element holds at most the term cap of
    :func:`cuntz.config.max_terms_cap`; past it ResourceLimitError names
    ``tensor``.  Instances are immutable by convention.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Sites, Scalar]):
        self.d = d
        self.terms = terms

    @classmethod
    def zero(cls, d: int) -> "Tensor":
        return cls(d, {})

    @classmethod
    def identity(cls, d: int) -> "Tensor":
        return cls(d, {(): 1})

    @classmethod
    def from_element(cls, x: Element) -> "Tensor":
        """The tensor form of a charge-zero element; its words of one level
        that share all but their last letter pair become one term."""
        if not is_u1_invariant(x):
            raise CuntzError("only a charge-zero element has a tensor form")
        last: dict[Sites, dict[tuple[int, int], Scalar]] = {}
        out: dict[Sites, Scalar] = {}
        for (create, annihilate), c in x.terms.items():
            if not create:
                out[()] = c  # the one identity word
                continue
            prefix = tuple(((a, b, 1),) for a, b in zip(create[:-1], annihilate[:-1]))
            last.setdefault(prefix, {})[(create[-1], annihilate[-1])] = c
        accumulate(out, ((_trimmed(prefix + (_matrix(entries),), x.d), 1)
                         for prefix, entries in last.items()))
        return cls._capped(x.d, out)

    @classmethod
    def _capped(cls, d: int, terms: dict) -> "Tensor":
        config.check_cap(len(terms), "tensor")
        return cls(d, terms)

    def __add__(self, other: "Tensor") -> "Tensor":
        return Tensor._capped(self.d, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Tensor":
        return Tensor(self.d, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def scale(self, k: Scalar) -> "Tensor":
        k = exact_scalar(k)
        if not k:
            return Tensor.zero(self.d)
        return Tensor(self.d, {s: exact_scalar(c * k) for s, c in self.terms.items()})

    def __mul__(self, other: "Tensor") -> "Tensor":
        """Site by site; a pair of terms with a zero site product is dropped."""
        d = self.d
        products: dict[tuple[Matrix, Matrix], Matrix] = {}

        def pairs():
            for sa, ca in self.terms.items():
                for sb, cb in other.terms.items():
                    sites = []
                    for pair in zip(sa, sb):
                        ab = products.get(pair)
                        if ab is None:
                            ab = products[pair] = _matmul(*pair)
                        if not ab:
                            break
                        sites.append(ab)
                    else:
                        # Past the shorter operand the longer one's factors stay.
                        n = len(sites)
                        sites.extend(sa[n:] or sb[n:])
                        yield _trimmed(tuple(sites), d), ca * cb

        return Tensor._capped(d, accumulate({}, pairs()))

    def adjoint(self) -> "Tensor":
        """The *-involution: every site factor transposed."""
        return Tensor(self.d, {tuple(_transpose(m) for m in sites): c
                               for sites, c in self.terms.items()})

    def is_zero(self) -> bool:
        """Exact test of X = 0, one site at a time from the left.

        At site k, X = sum_t L_t (x) R_t, with L_t the factors before k and
        R_t those from k on.  The left parts are kept as coordinate rows over
        a basis of independent tensors.  At each site:

        - columns with equal right parts are merged by adding their rows; a
          row that cancels is dropped;
        - if every column carries the same nonzero factor F, the basis takes
          on (x) F and the rows stay; a shared zero factor makes X zero;
        - otherwise each row is extended by its column's factor, over the
          basis (x) matrix units, and re-expressed by elimination over a
          basis of the extended rows' span.  That basis never outgrows the
          number of columns.

        Past the last site every right part is empty, so one column is left,
        and X = 0 exactly when its row is zero.  Keys shorter than the
        longest are first padded with I, whose d entries count against the
        term cap (``identity entries``).
        """
        if not self.terms:
            return True
        d = self.d
        dd = d * d
        n = max(len(sites) for sites in self.terms)
        padded = list(self.terms)
        if any(len(sites) < n for sites in padded):
            # I has d entries: a huge alphabet meets the cap before it is listed.
            config.check_cap(d, "tensor", what="identity entries")
            unit = tuple((i, i, 1) for i in range(1, d + 1))
            padded = [sites + (unit,) * (n - len(sites)) for sites in padded]
        # Sites whose factor every column shares are passed over up front.
        varying = []
        for k, factors in enumerate(zip(*padded)):
            if factors.count(factors[0]) < len(factors):
                varying.append(k)
            elif not factors[0]:
                return True
        cols = [(sites, {0: c}) for sites, c in zip(padded, self.terms.values())]
        # Past the last site every right part is empty: one merged column.
        for k in varying + [n]:
            merged: dict[Sites, tuple] = {}
            for sites, row in cols:
                key = sites[k:]
                seen = merged.get(key)
                merged[key] = (sites, row) if seen is None else (
                    sites, accumulate(seen[1], row.items()))
            cols = [col for col in merged.values() if col[1]]
            if k == n or not cols:
                return not cols
            factor = cols[0][0][k]
            if factor and all(sites[k] == factor for sites, _ in cols):
                continue
            basis: dict[int, tuple[int, dict]] = {}
            extended = []
            for sites, row in cols:
                vec = {}
                for j, x in row.items():
                    base = j * dd - d - 1
                    for a, b, y in sites[k]:
                        vec[base + a * d + b] = x * y
                coords = eliminate(basis, vec)
                if coords:
                    extended.append((sites, coords))
            cols = extended

    def equals(self, other: "Tensor") -> bool:
        """Equality in O_d, exact."""
        return (self - other).is_zero()

    def __repr__(self) -> str:
        return f"Tensor(d={self.d}, {len(self.terms)} terms)"


def sandwich_power(matrix: Matrix, seed: Element, k: int) -> Tensor:
    """z^k(seed) = M^{(x)k} (x) seed for the sandwich map whose sign matrix M
    is ``matrix`` (:meth:`cuntz.rfs.RecursiveMap.sandwich_matrix`); ``seed``
    must be charge-zero."""
    base = Tensor.from_element(seed)
    string = (matrix,) * k
    return Tensor._capped(seed.d, accumulate(
        {}, ((_trimmed(string + sites, seed.d), c) for sites, c in base.terms.items())))

