"""The standard permutation representation of O_d and its Fock restriction.

On the basis {e_n : n >= 1}, the generator s_i moves e_n to e_{d(n-1)+i};
the d shifted copies of the index set are disjoint and cover it, which is
exactly what the defining relations ask of isometries.  Restricting the
representation to an embedded fermion family exposes e_1 as a vacuum, and
products of embedded creation operators land on single basis vectors whose
index encodes the occupied modes in binary.

Basis indices grow like 2^(n-1), so they are plain Python integers
(arbitrary precision); amplitudes are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import config
from .algebra import Element
from .errors import IndexRangeError, ResourceLimitError
from .reports import Report
from .rfs import GeneratorFamily, RfsSystem


class StateVector:
    """Finitely supported vector: map basis index -> rational amplitude."""

    __slots__ = ("amps",)

    def __init__(self, amps=None):
        clean: dict[int, Fraction] = {}
        if amps:
            items = amps.items() if hasattr(amps, "items") else amps
            for n, c in items:
                if not isinstance(n, int) or n < 1:
                    raise IndexRangeError(f"basis index must be a positive integer, got {n!r}")
                c = Fraction(c)
                if not c:
                    continue
                acc = clean.get(n)
                c = c if acc is None else acc + c
                if c:
                    clean[n] = c
                elif n in clean:
                    del clean[n]
        self.amps = clean

    @classmethod
    def _make(cls, amps: dict) -> "StateVector":
        self = object.__new__(cls)
        self.amps = amps
        return self

    @classmethod
    def zero(cls) -> "StateVector":
        return cls._make({})

    @classmethod
    def unit(cls, n: int) -> "StateVector":
        if not isinstance(n, int) or n < 1:
            raise IndexRangeError(f"basis index must be a positive integer, got {n!r}")
        return cls._make({n: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.amps

    def __bool__(self) -> bool:
        return bool(self.amps)

    def __len__(self) -> int:
        return len(self.amps)

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self.amps.items())

    def __add__(self, other: "StateVector") -> "StateVector":
        out = dict(self.amps)
        for n, c in other.amps.items():
            acc = out.get(n)
            c = c if acc is None else acc + c
            if c:
                out[n] = c
            elif n in out:
                del out[n]
        return StateVector._make(out)

    def __neg__(self) -> "StateVector":
        return StateVector._make({n: -c for n, c in self.amps.items()})

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-other)

    def scale(self, k) -> "StateVector":
        k = Fraction(k)
        if not k:
            return StateVector._make({})
        return StateVector._make({n: c * k for n, c in self.amps.items()})

    def __rmul__(self, k) -> "StateVector":
        if isinstance(k, (int, Fraction)):
            return self.scale(k)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.amps == other.amps

    __hash__ = None

    def __str__(self) -> str:
        if not self.amps:
            return "0"
        parts = []
        for n, c in self.items():
            body = f"e_{n}" if c == 1 else f"{c} e_{n}"
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"StateVector(<{self}>)"


def apply_generator(i: int, v: StateVector, d: int) -> StateVector:
    """s_i in the standard representation: e_n -> e_{d(n-1)+i}."""
    if not 1 <= i <= d:
        raise IndexRangeError(f"index {i} outside 1..{d}")
    return StateVector._make({d * (n - 1) + i: c for n, c in v.amps.items()})


def apply_generator_adjoint(i: int, v: StateVector, d: int) -> StateVector:
    """s_i*: e_N -> e_m when N = d(m-1)+i, else the term is annihilated."""
    if not 1 <= i <= d:
        raise IndexRangeError(f"index {i} outside 1..{d}")
    out: dict[int, Fraction] = {}
    for n, c in v.amps.items():
        q, r = divmod(n - i, d)
        if r or q < 0:
            continue
        m = q + 1
        acc = out.get(m)
        c = c if acc is None else acc + c
        if c:
            out[m] = c
        elif m in out:
            del out[m]
    return StateVector._make(out)


def rep_apply(x: Element, v: StateVector) -> StateVector:
    """Act by an element: per word, annihilation letters first (b1 innermost),
    then creation letters (am innermost), summed with coefficients."""
    d = x.d
    total: dict[int, Fraction] = {}
    for m, coeff in x.terms.items():
        w = v
        for b in m.annihilate:
            w = apply_generator_adjoint(b, w, d)
            if not w.amps:
                break
        for a in reversed(m.create):
            if not w.amps:
                break
            w = apply_generator(a, w, d)
        for n, c in w.amps.items():
            cc = coeff * c
            acc = total.get(n)
            if acc is not None:
                cc = acc + cc
            if cc:
                total[n] = cc
            elif n in total:
                del total[n]
    return StateVector._make(total)


def rep_generator(family, n: int, v: StateVector, adjoint: bool = False) -> StateVector:
    """Act on v by the family's n-th generator A_n, or by A_n* if ``adjoint``.

    For a recursive fermion system, A_n = z^k(a_i) with n - 1 = p k + (i - 1)
    acts in sandwich form and is never expanded into its 2^k words.  A
    sandwich s_u X s_v* of z meets a basis vector with s_v* first, and
    s_v* e_N = e_m exactly when N = d(m-1) + v.  So the k outer levels read
    the last k base-d digits off N, the seed acts on the e_M that is left,
    and each level then applies sign * s_u for every sandwich whose v is its
    digit, innermost level first.  The adjoint uses a_i* and the transposed
    sandwiches.  A diagonal sign matrix never branches, so the cost per basis
    vector is O(k); a branching map is held to the term cap.

    Any other family acts by ``rep_apply`` on its expanded generator.
    """
    if not isinstance(family, RfsSystem):
        x = family.generator(n)
        return rep_apply(x.adjoint() if adjoint else x, v)
    if not isinstance(n, int) or n < 1:
        raise IndexRangeError(f"generator index must be >= 1, got {n}")
    d = family.d
    k, i = divmod(n - 1, family.p)
    seed = family.seeds[i]
    # written[r]: (sign, letter written) of each sandwich that reads digit r
    written: dict[int, list[tuple[int, int]]] = {r: [] for r in range(1, d + 1)}
    for sign, left, right in family.zeta.terms:
        if adjoint:
            left, right = right, left
        written[right].append((sign, left))
    if adjoint:
        seed = seed.adjoint()
    cap = config.max_terms_cap(family.max_terms)
    total: dict[int, Fraction] = {}
    for index, amp in v.amps.items():
        digits = []
        for _ in range(k):
            index, r = divmod(index - 1, d)
            index += 1
            digits.append(r + 1)
        w = rep_apply(seed, StateVector._make({index: amp})).amps
        for r in reversed(digits):
            if not w:
                break
            out: dict[int, Fraction] = {}
            for sign, u in written[r]:
                for m, c in w.items():
                    key = d * (m - 1) + u
                    cc = c if sign > 0 else -c
                    acc = out.get(key)
                    if acc is not None:
                        cc = acc + cc
                    if cc:
                        out[key] = cc
                    elif key in out:
                        del out[key]
            if len(out) > cap:
                raise ResourceLimitError(len(out), cap, operation="rep_generator")
            w = out
        for m, c in w.items():
            acc = total.get(m)
            if acc is not None:
                c = acc + c
            if c:
                total[m] = c
            elif m in total:
                del total[m]
    return StateVector._make(total)


# -- Fock indexing ------------------------------------------------------------


def _check_modes(modes) -> tuple[int, ...]:
    modes = tuple(modes)
    for n in modes:
        if not isinstance(n, int) or n < 1:
            raise IndexRangeError(f"mode {n!r} must be a positive integer")
    if any(a >= b for a, b in zip(modes, modes[1:])):
        raise IndexRangeError(f"modes must be strictly increasing, got {modes}")
    return modes


def fock_index(modes: Iterable[int]) -> int:
    """Occupied modes -> basis index: 1 plus the occupancy bits."""
    modes = _check_modes(modes)
    return sum(1 << (n - 1) for n in modes) + 1


def decode_index(index: int) -> tuple[int, ...]:
    """Basis index -> occupied modes, read off the binary digits of index-1."""
    if not isinstance(index, int) or index < 1:
        raise IndexRangeError(f"basis index must be a positive integer, got {index!r}")
    bits = index - 1
    modes = []
    n = 1
    while bits:
        if bits & 1:
            modes.append(n)
        bits >>= 1
        n += 1
    return tuple(modes)


def fock_build(family, modes: Iterable[int]) -> StateVector:
    """Apply the family's creation operators for the given modes to e_1.

    Modes are strictly increasing and applied innermost-last, i.e. the
    largest mode hits the vacuum first, matching the operator order of
    A_{n1}* A_{n2}* ... A_{nk}* e_1.
    """
    modes = _check_modes(modes)
    v = StateVector.unit(1)
    for n in reversed(modes):
        v = rep_generator(family, n, v, adjoint=True)
    return v


def verify_vacuum(family, n_max: int) -> Report:
    """Check that e_1 is annihilated by generators 1..n_max."""
    report = Report()
    vacuum = StateVector.unit(1)
    bad = None
    for n in range(1, n_max + 1):
        image = rep_generator(family, n, vacuum)
        if not image.is_zero:
            bad = (n, image)
            break
    report.add("vacuum.annihilation", {"N": n_max}, bad is None,
               witness=None if bad is None else f"A_{bad[0]} e_1 = {bad[1]}")
    return report


def bogoliubov_family(family, flip: Iterable[int]) -> GeneratorFamily:
    """Swap annihilators and creators on a finite set of modes.

    The swapped family still satisfies the anticommutation relations and
    annihilates the basis vector indexed by the flipped mode set, which
    therefore serves as its vacuum.
    """
    flip_set = frozenset(_check_modes(sorted(set(flip))))
    base = family.generator

    def gen(n: int) -> Element:
        el = base(n)
        return el.adjoint() if n in flip_set else el

    label = getattr(family, "label", "family")
    return GeneratorFamily(family.d, gen, label=f"{label}+swap{sorted(flip_set)}")


def rfs_p_fock_index(pairs: Sequence[tuple[int, int]], p: int) -> int:
    """Basis index for p-seed mode pairs (m_j, i_j), 1 <= i_j <= p.

    The flat mode p(m_j - 1) + i_j must be strictly increasing; repeated
    m values merge into one base-2^p digit, which is what the returned
    1 + sum 2^{p(m_j-1)+i_j-1} computes.  Agrees with ``fock_index`` on
    the flat modes.
    """
    if p < 1:
        raise IndexRangeError(f"p must be >= 1, got {p}")
    flats = []
    for m, i in pairs:
        if not 1 <= i <= p:
            raise IndexRangeError(f"seed index {i} outside 1..{p}")
        if m < 1:
            raise IndexRangeError(f"level {m} must be >= 1")
        flats.append(p * (m - 1) + i)
    if any(a >= b for a, b in zip(flats, flats[1:])):
        raise IndexRangeError("flat modes must be strictly increasing")
    return sum(1 << (f - 1) for f in flats) + 1
