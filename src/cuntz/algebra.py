"""Exact arithmetic in the Cuntz algebra O_d.

O_d (d >= 2) is generated by isometries s_1, ..., s_d subject to

    s_i* s_j = delta_ij I,        s_1 s_1* + ... + s_d s_d* = I.

The first relation reduces any product of generators and adjoints to a
single word s_{a1}..s_{am} (s_{b1}..s_{bn})*, so finite rational linear
combinations of such words are closed under the *-algebra operations.
The second relation makes words of different lengths linearly dependent;
``normal_form`` resolves that by raising every word of an element to a
common length per grade, which yields a canonical representative and a
decision procedure for equality.

The product of two words is nonzero only when one middle word is a prefix
of the other, so ``Element.__mul__`` indexes both operands by their middle
words and joins them on the shared prefix: its cost follows the number of
surviving term pairs, not the product of the operand sizes.  Each element
builds its index once per role, left or right operand, the first time a
product needs it, and keeps it: an element used in many products (the
images of a recursive map in the normalization sweep) is indexed once.

Orientation convention: a :class:`Monomial` stores the creation word
``(a1..am)`` and the annihilation word ``(b1..bn)``, where the operator
meaning of the annihilation word is ``(s_{b1}..s_{bn})* = s_{bn}*..s_{b1}*``.

Coefficients (the values of ``Element.terms``) are exact rationals of type
``Scalar = int | Fraction``: the constructors and ``scale`` store an integral
coefficient as an ``int`` and any other as a :class:`fractions.Fraction`.
The constructions in scope have coefficients +-1, so their products and sums
run in ``int`` arithmetic; a ``Fraction`` appears only where a division
makes one (a scale by 1/2, a pivot in ``span_rank``).  Mixed arithmetic
stays exact, and an integral ``Fraction`` it leaves behind compares, hashes
and prints like the ``int``.  Floating point never enters:
:func:`exact_scalar` refuses float and complex coefficients.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from . import config
from .errors import AlphabetMismatchError, IndexRangeError, ParseError

Scalar = Union[int, Fraction]


class Monomial(NamedTuple):
    """A word s_{a1}..s_{am} (s_{b1}..s_{bn})* given by its two index tuples.

    The empty word on both sides is the identity I.
    """

    create: tuple[int, ...]
    annihilate: tuple[int, ...]

    @property
    def excess(self) -> int:
        """Charge of the word under the gauge grading: |create| - |annihilate|."""
        return len(self.create) - len(self.annihilate)

    @property
    def is_identity(self) -> bool:
        return not self.create and not self.annihilate

    def __str__(self) -> str:
        return monomial_to_text(self)


_tuple_new = tuple.__new__


def _word(create: tuple[int, ...], annihilate: tuple[int, ...]) -> Monomial:
    """``Monomial(create, annihilate)`` without the NamedTuple constructor's
    call overhead, for the builders that form a word per term."""
    return _tuple_new(Monomial, (create, annihilate))


def exact_scalar(c) -> Scalar:
    """A coefficient in stored form: an ``int`` when integral, else a ``Fraction``.

    Accepts anything ``Fraction`` accepts exactly (ints, rationals, 'p/q'
    strings); a float or complex value raises TypeError, since its binary
    expansion would enter exact arithmetic as a spurious rational.
    """
    if type(c) is int:
        return c
    if isinstance(c, (float, complex)):
        raise TypeError(
            f"coefficient {c!r} is a {type(c).__name__}; use an int, a Fraction or a 'p/q' string"
        )
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def accumulate(out: dict, items) -> dict:
    """Add each ``(key, value)`` of ``items`` into ``out``; a key whose sum is
    zero is dropped.  Returns ``out``."""
    get = out.get
    for key, c in items:
        acc = get(key)
        if acc is not None:
            c = acc + c
        if c:
            out[key] = c
        elif acc is not None:
            del out[key]
    return out


def eliminate(basis: dict, vec: dict) -> dict:
    """Coordinates of ``vec`` over ``basis``, which grows when ``vec`` leaves its span.

    ``basis`` maps a pivot to ``(index, row)``: the row's pivot entry is 1 and
    its other keys are larger.  Reducing ``vec`` at its least key each time
    collects its coordinates; what is left becomes a new row, with index
    ``len(basis)``.  Whether a vector is independent of the rows does not
    depend on the key order.  ``vec`` is consumed.
    """
    coords: dict[int, Scalar] = {}
    while vec:
        pivot = min(vec)
        c = vec[pivot]
        entry = basis.get(pivot)
        if entry is None:
            if c in (1, -1) and all(type(v) is int for v in vec.values()):
                if c == -1:
                    vec = {key: -v for key, v in vec.items()}
            else:
                # Fraction, not int, division: the row stays exact, and each
                # value is stored in the form exact_scalar gives it.
                inverse = 1 / Fraction(c)
                vec = {key: exact_scalar(v * inverse) for key, v in vec.items()}
            index = len(basis)
            basis[pivot] = (index, vec)
            coords[index] = c
            return coords
        index, row = entry
        coords[index] = c
        # Inline, not accumulate: rows are short and reduced very often, and
        # a call per reduction costs the tensor zero test time.
        for key, v in row.items():
            cc = vec.get(key, 0) - c * v
            if cc:
                vec[key] = cc
            elif key in vec:
                del vec[key]
    return coords


def _check_d(d) -> int:
    # ``type``, not ``isinstance``, here and in _check_word: a bool (JSON
    # ``true``) is an int, but neither an alphabet size nor a letter.
    if type(d) is not int or d < 2:
        raise IndexRangeError(f"alphabet size must be an integer >= 2, got {d!r}")
    return d


def _check_word(word, d) -> tuple[int, ...]:
    word = tuple(word)
    for i in word:
        if type(i) is not int or not 1 <= i <= d:
            raise IndexRangeError(f"index {i!r} outside 1..{d}")
    return word


def monomial_mul(x: Monomial, y: Monomial, d: Optional[int] = None) -> Optional[Monomial]:
    """Reduced product of two words, or None when the product is zero.

    The annihilation word of ``x`` meets the creation word of ``y`` head-on;
    the orthogonality relation cancels matching letters one by one, so the
    product survives exactly when one word is a prefix of the other.
    """
    if d is not None:
        _check_word(x.create, d), _check_word(x.annihilate, d)
        _check_word(y.create, d), _check_word(y.annihilate, d)
    xa, yc = x.annihilate, y.create
    la, lc = len(xa), len(yc)
    if la <= lc:
        if xa != yc[:la]:
            return None
        return Monomial(x.create + yc[la:], y.annihilate)
    if yc != xa[:lc]:
        return None
    return Monomial(x.create, y.annihilate + xa[lc:])


def _join_index(terms: dict, side: int) -> tuple[dict, list[int]]:
    """Terms grouped by their annihilation word (``side`` 1, a left operand)
    or creation word (``side`` 0, a right operand): ``{word: [(other word,
    coefficient), ...]}``, with the sorted lengths of the grouping words."""
    groups: dict[tuple, list] = {}
    other = 1 - side
    for m, c in terms.items():
        word = m[side]
        entries = groups.get(word)
        if entries is None:
            groups[word] = [(m[other], c)]
        else:
            entries.append((m[other], c))
    return groups, sorted({len(word) for word in groups})


def term_sort_key(m: Monomial):
    """Canonical term order: by grade, then creation length, then words."""
    return (m.excess, len(m.create), m.create, m.annihilate)


class Element:
    """Finite rational linear combination of words, tagged with d.

    Instances are immutable by convention: all operations return new
    elements and ``terms`` must be treated as read-only.  Structural
    equality (``==``) compares stored terms; mathematical equality in O_d
    is :meth:`equals`, which canonicalizes the difference first.
    """

    # ``_left`` and ``_right`` hold the join indexes of ``__mul__``; they are
    # set on the first product that needs them, never by a constructor.
    __slots__ = ("d", "_terms", "_left", "_right")

    def __init__(self, d: int, terms=None):
        _check_d(d)
        clean: dict[Monomial, Scalar] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            accumulate(clean, ((Monomial(_check_word(m[0], d), _check_word(m[1], d)),
                                exact_scalar(c)) for m, c in items))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_terms", clean)

    # -- construction -----------------------------------------------------

    @classmethod
    def _make(cls, d: int, terms: dict) -> "Element":
        """Internal constructor: caller guarantees valid, zero-free terms."""
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, d: int) -> "Element":
        return cls(d)

    @classmethod
    def word(cls, d: int, create, annihilate, coeff: Scalar = 1) -> "Element":
        return cls(d, {(tuple(create), tuple(annihilate)): coeff})

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild through _make; the join indexes stay behind.
        return Element._make, (self.d, dict(self._terms))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """The term map (read-only by convention)."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self.sorted_terms())

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def coefficient(self, create, annihilate) -> Scalar:
        return self._terms.get(Monomial(tuple(create), tuple(annihilate)), 0)

    # -- ring operations ---------------------------------------------------

    def _require_same_d(self, other: "Element"):
        if self.d != other.d:
            raise AlphabetMismatchError(f"d mismatch: {self.d} vs {other.d}")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_d(other)
        return Element._make(self.d, accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "Element":
        return Element._make(self.d, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, k: Scalar) -> "Element":
        k = exact_scalar(k)
        if not k:
            return Element._make(self.d, {})
        return Element._make(self.d, {m: exact_scalar(c * k) for m, c in self._terms.items()})

    def __mul__(self, other) -> "Element":
        """Product in O_d; a scalar operand scales.

        A pair of terms x = xc xa^adj, y = yc ya^adj survives exactly when
        one of the middle words xa, yc is a prefix of the other.  Terms of
        ``self`` are grouped by xa and terms of ``other`` by yc; each group
        is probed once per word length occurring on the other side with the
        prefix of that length (a hash join on the common prefix of length
        min(|xa|, |yc|)).  The cost is linear in the operands times the
        number of distinct word lengths, plus the pairs that survive.

        Each operand is indexed once per element and role: the grouping is
        built the first time the element is a left (or right) operand of a
        join and kept on it for its later products.
        """
        if type(other) is not Element:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, Element):
                return NotImplemented
        self._require_same_d(other)
        xt, yt = self._terms, other._terms
        out: dict[Monomial, Scalar] = {}
        get = out.get
        if xt and yt:
            try:
                left, left_lengths = self._left
            except AttributeError:
                index = _join_index(xt, 1)
                object.__setattr__(self, "_left", index)
                left, left_lengths = index
            try:
                right, right_lengths = other._right
            except AttributeError:
                index = _join_index(yt, 0)
                object.__setattr__(other, "_right", index)
                right, right_lengths = index
            # |xa| <= |yc|: xa == yc[:la], the rest of yc moves to the left.
            for yc, ys in right.items():
                lc = len(yc)
                for la in left_lengths:
                    if la > lc:
                        break
                    xs = left.get(yc[:la])
                    if xs is None:
                        continue
                    tail = yc[la:]
                    for xc, ca in xs:
                        create = xc + tail
                        for ya, cb in ys:
                            key = _word(create, ya)
                            acc = get(key)
                            out[key] = ca * cb if acc is None else acc + ca * cb
            # |xa| > |yc|: yc == xa[:lc], the rest of xa moves to the right.
            for xa, xs in left.items():
                la = len(xa)
                for lc in right_lengths:
                    if lc >= la:
                        break
                    ys = right.get(xa[:lc])
                    if ys is None:
                        continue
                    tail = xa[lc:]
                    for ya, cb in ys:
                        annihilate = ya + tail
                        for xc, ca in xs:
                            key = _word(xc, annihilate)
                            acc = get(key)
                            out[key] = ca * cb if acc is None else acc + ca * cb
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        return Element._make(self.d, out)

    def __rmul__(self, other) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "Element":
        """The *-involution: reverses words, keeps (rational) coefficients."""
        return Element._make(
            self.d, {_word(a, c): k for (c, a), k in self._terms.items()}
        )

    # -- canonical form ----------------------------------------------------

    def normal_form(self) -> "Element":
        """Canonical representative: per grade, all words raised to equal length.

        Within each grade class the completeness relation lets a word of
        creation length l < L absorb every suffix of length L - l; after
        raising, like words merge and zero coefficients are pruned.  The
        result is idempotent, and x.equals(y) iff (x - y).normal_form()
        is zero.

        A word raised by ``gap`` letters becomes d^gap words.  When raising
        would form more words than the term cap allows, ResourceLimitError
        is raised before any word is formed.
        """
        d = self.d
        by_excess: dict[int, list[tuple[Monomial, Scalar]]] = {}
        for m, c in self._terms.items():
            by_excess.setdefault(m.excess, []).append((m, c))
        pending: list[tuple[Monomial, Scalar, int]] = []
        words = 0
        for grade_terms in by_excess.values():
            target = max(len(m.create) for m, _ in grade_terms)
            for m, c in grade_terms:
                gap = target - len(m.create)
                pending.append((m, c, gap))
                words += d ** gap
        if words > len(pending):
            config.check_cap(words, "normal_form")
        alphabet = range(1, d + 1)
        # The words that are not raised are distinct terms of self: none merge.
        out = {m: c for m, c, gap in pending if not gap}
        return Element._make(self.d, accumulate(out, (
            (_word(m.create + w, m.annihilate + w), c)
            for m, c, gap in pending if gap
            for w in itertools.product(alphabet, repeat=gap))))

    def equals(self, other: "Element") -> bool:
        """Mathematical equality in O_d (exact, via the normal form)."""
        if not isinstance(other, Element):
            raise TypeError(f"cannot compare Element with {type(other).__name__}")
        self._require_same_d(other)
        # No coefficient is stored as 0, so the difference below is empty
        # exactly when the term maps are equal.
        if self._terms == other._terms:
            return True
        # Inline, not accumulate: equals runs once per sweep candidate, and a
        # call per comparison costs the rfs-sweep workload time.
        diff = dict(self._terms)
        for m, c in other._terms.items():
            acc = diff.get(m)
            c = -c if acc is None else acc - c
            if c:
                diff[m] = c
            elif m in diff:
                del diff[m]
        return Element._make(self.d, diff).normal_form().is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; use equals()/structural __eq__ only

    # -- grading -----------------------------------------------------------

    def grades(self) -> set[int]:
        return {m.excess for m in self._terms}

    def __str__(self) -> str:
        return element_to_text(self)

    def __repr__(self) -> str:
        return f"Element(d={self.d}, <{element_to_text(self)}>)"


# -- named elements and helpers ----------------------------------------------


def identity(d: int) -> Element:
    """The unit I of O_d."""
    return Element.word(d, (), ())


def isometry(d: int, i: int) -> Element:
    """The generating isometry s_i of O_d."""
    _check_d(d)
    if not 1 <= i <= d:
        raise IndexRangeError(f"index {i} outside 1..{d}")
    return Element.word(d, (i,), ())


def unit_words(d: int, monomials) -> list[Element]:
    """One element 1 * m per word m; the words must already be valid for d."""
    return [Element._make(d, {m: 1}) for m in monomials]


# The context of a sweep word count too long to print: 28 digits, and the
# widest exponent range.
_WIDE = decimal.Context(Emax=decimal.MAX_EMAX, traps=[decimal.InvalidOperation])


def sweep_budget(d: int, depth: int, check: str, candidates=lambda n: n):
    """Hold the sweep ``check`` to the sweep budget
    (:func:`cuntz.config.check_sweep`): its ``candidates(n)`` over the
    n = sum_{t <= depth} (t + 1) d^t words of total letter count <= depth.
    n is taken in closed form: exactly while d^(depth+1) has few enough
    digits to print (``sys.get_int_max_str_digits()``, or its default when
    that is off), past that as a 28-digit Decimal, so a refused count is
    never formed in full."""
    printable = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    with decimal.localcontext(_WIDE):
        if (depth + 1) * math.log10(d) < printable:
            n = (d ** (depth + 1) * ((depth + 1) * (d - 1) - 1) + 1) // (d - 1) ** 2
        else:
            n = decimal.Decimal(d) ** (depth + 1) * ((depth + 1) * (d - 1) - 1) / (d - 1) ** 2
        config.check_sweep(check, candidates(n))


def sweep_words(d: int, depth: int, check: str,
                candidates=lambda n: n) -> tuple[list[Monomial], list[Element]]:
    """The words of total letter count <= depth (:func:`iter_monomials`), with
    each as an element, for the sweep ``check``, whose count meets
    :func:`sweep_budget` before any word is built."""
    sweep_budget(d, depth, check, candidates)
    monomials = list(iter_monomials(d, depth))
    return monomials, unit_words(d, monomials)


def raise_monomial(x: Monomial, d: int) -> Element:
    """Rewrite a word via completeness: x = sum_i s_{A i} (s_{B i})^adj."""
    x = Monomial(_check_word(x[0], d), _check_word(x[1], d))
    return Element._make(
        d,
        {Monomial(x.create + (i,), x.annihilate + (i,)): 1 for i in range(1, d + 1)},
    )


def grade_decompose(x: Element) -> dict[int, Element]:
    """Split an element by gauge charge |create| - |annihilate|."""
    parts: dict[int, dict[Monomial, Scalar]] = {}
    for m, c in x.terms.items():
        parts.setdefault(m.excess, {})[m] = c
    return {g: Element._make(x.d, t) for g, t in sorted(parts.items())}


def is_u1_invariant(x: Element) -> bool:
    """True iff only charge-0 words occur (the gauge-invariant subalgebra)."""
    return all(m.excess == 0 for m in x.terms)


def commutator(x: Element, y: Element) -> Element:
    return x * y - y * x


def anticommutator(x: Element, y: Element) -> Element:
    return x * y + y * x


# -- word enumeration (used by the condition sweeps) ------------------------


def iter_monomials(d: int, max_length: int) -> Iterator[Monomial]:
    """All words of total letter count <= max_length, in a fixed order."""
    for total in range(max_length + 1):
        for la in range(total, -1, -1):
            for create in itertools.product(range(1, d + 1), repeat=la):
                for annihilate in itertools.product(range(1, d + 1), repeat=total - la):
                    yield Monomial(create, annihilate)


# -- text rendering and parsing ---------------------------------------------
#
# Grammar: terms joined by '+'/'-'; a term is an optional 'p/q' or integer
# coefficient followed by letters 's1', 's[12]' (indices > 9 bracketed),
# each optionally starred, or 'I'.  Creation letters precede starred ones;
# the starred letters appear in operator order, i.e. the reverse of the
# stored annihilation word.


def _letter(i: int, star: bool) -> str:
    body = f"s[{i}]" if i > 9 else f"s{i}"
    return body + "*" if star else body


def monomial_to_text(m: Monomial) -> str:
    if m.is_identity:
        return "I"
    parts = [_letter(i, False) for i in m.create]
    parts += [_letter(i, True) for i in reversed(m.annihilate)]
    return " ".join(parts)


def element_to_text(x: Element) -> str:
    if x.is_zero:
        return "0"
    pieces: list[str] = []
    for m, c in x.sorted_terms():
        negative = c < 0
        mag = -c if negative else c
        body = monomial_to_text(m)
        if mag != 1:
            body = f"{mag} {body}"
        if not pieces:
            pieces.append(f"- {body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


_TOKEN = re.compile(
    r"(?P<frac>\d+/\d+)|(?P<int>\d+)|(?P<letter>s(?:\[\d+\]|\d)\*?)|(?P<ident>I)|(?P<sign>[+-])|(?P<junk>\S)"
)


def _tokenize(text: str):
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "junk":
            raise ParseError(f"unexpected character {match.group()!r} at {match.start()}")
        yield kind, match.group()


def parse_element(text: str, d: int) -> Element:
    """Parse the grammar emitted by :func:`element_to_text`."""
    _check_d(d)
    terms: list[tuple[Monomial, Scalar]] = []
    sign = 1
    coeff: Optional[Scalar] = None
    create: list[int] = []
    annihilate_rev: list[int] = []
    in_term = False
    dangling_sign = False

    def flush():
        nonlocal sign, coeff, create, annihilate_rev, in_term
        if not in_term:
            raise ParseError("empty term")
        c = coeff if coeff is not None else 1
        mono = Monomial(tuple(create), tuple(reversed(annihilate_rev)))
        terms.append((mono, sign * c))
        sign, coeff, create, annihilate_rev, in_term = 1, None, [], [], False

    for kind, tok in _tokenize(text):
        if kind != "sign":
            dangling_sign = False
        if kind == "sign":
            if dangling_sign:
                raise ParseError("consecutive signs")
            if in_term:
                flush()
            dangling_sign = True
            if tok == "-":
                sign = -sign
        elif kind in ("frac", "int"):
            if in_term or coeff is not None:
                raise ParseError(f"unexpected number {tok!r}")
            try:
                coeff = int(tok) if kind == "int" else exact_scalar(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {tok!r}: {exc}") from exc
            in_term = True  # a bare number stands for that multiple of I
        elif kind == "ident":
            if create or annihilate_rev:
                raise ParseError("I may not follow letters")
            in_term = True
        elif kind == "letter":
            star = tok.endswith("*")
            digits = tok.rstrip("*")[1:].strip("[]")
            idx = int(digits)
            if not 1 <= idx <= d:
                raise IndexRangeError(f"index {idx} outside 1..{d}")
            if star:
                annihilate_rev.append(idx)
            elif annihilate_rev:
                raise ParseError("creation letter after an annihilation letter")
            else:
                create.append(idx)
            in_term = True
    if in_term:
        flush()
    elif dangling_sign or coeff is not None or create or annihilate_rev:
        raise ParseError("trailing incomplete term")
    if not terms:
        raise ParseError("empty input")
    return Element(d, terms)
