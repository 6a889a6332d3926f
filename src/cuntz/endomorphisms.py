"""Unital *-endomorphisms of O_d given by generator images.

An endomorphism is pinned down by the images g_i of the d generators; it
is well defined exactly when the images satisfy the same relations as the
generators themselves, which is a finite, exactly decidable check.

The canonical endomorphism rho(X) = sum_i s_i X s_i* is kept in its
sandwich form instead: applying it prepends the letter i to both words of
every term, and its generator images are derived only when read.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import Element, Monomial, Scalar, _word, accumulate, identity, isometry
from .errors import AlphabetMismatchError, EndomorphismValidationError, IndexRangeError


class Endomorphism:
    """Generator-image description of a unital *-endomorphism.

    ``apply`` extends the images multiplicatively and *-compatibly to any
    element.  Images are cached per word, on the instance, since recursive
    systems apply the same endomorphism to the same short words over and
    over; a word's prefixes are not cached.  The instance built by
    :func:`rho` is applied by re-indexing words and holds no images until
    ``images`` is read.
    """

    __slots__ = ("d", "_images", "_word_cache", "_canonical")

    def __init__(self, images: Sequence[Element]):
        images = tuple(images)
        if not images:
            raise IndexRangeError("an endomorphism needs at least two images")
        d = images[0].d
        if len(images) != d:
            raise IndexRangeError(f"expected {d} images, got {len(images)}")
        if any(img.d != d for img in images):
            raise AlphabetMismatchError("images carry mixed alphabet sizes")
        self._init(d, images, canonical=False)

    @classmethod
    def _sandwich_form(cls, d: int) -> "Endomorphism":
        """The canonical endomorphism of O_d, without generator images."""
        self = object.__new__(cls)
        self._init(d, None, canonical=True)
        return self

    def _init(self, d: int, images: Optional[tuple], canonical: bool):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_images", images)
        object.__setattr__(self, "_word_cache", {(): identity(d)})
        object.__setattr__(self, "_canonical", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism is immutable")

    @property
    def images(self) -> tuple[Element, ...]:
        """The generator images g_i; derived on first read for rho."""
        if self._images is None:
            object.__setattr__(self, "_images", tuple(
                canonical_endomorphism(isometry(self.d, i)) for i in range(1, self.d + 1)))
        return self._images

    @property
    def is_canonical(self) -> bool:
        """True for the sandwich form built by :func:`rho`."""
        return self._canonical

    def image_of_word(self, word: tuple[int, ...]) -> Element:
        cached = self._word_cache.get(word)
        if cached is None:
            # The product of the letters' images, left to right.
            images = self.images
            cached = images[word[0] - 1]
            for letter in word[1:]:
                cached = cached * images[letter - 1]
            self._word_cache[word] = cached
        return cached

    def apply(self, x: Element) -> Element:
        if x.d != self.d:
            raise AlphabetMismatchError(f"d mismatch: {x.d} vs {self.d}")
        if self._canonical:
            return Element._make(self.d, _sandwich_terms(x, keep_unit=True))
        out: dict[Monomial, Scalar] = {}
        for (create, annihilate), c in x.terms.items():
            img = self.image_of_word(create) * self.image_of_word(annihilate).adjoint()
            accumulate(out, ((m, k * c) for m, k in img.terms.items()))
        return Element._make(self.d, out)

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def relation_failures(self) -> list[str]:
        """Which defining relations the images break (empty when valid)."""
        failures = []
        unit = identity(self.d)
        for i, gi in enumerate(self.images, start=1):
            gi_star = gi.adjoint()
            for j, gj in enumerate(self.images, start=1):
                prod = gi_star * gj
                expected = unit if i == j else Element.zero(self.d)
                if not prod.equals(expected):
                    failures.append(
                        f"image of s{i}* s{j}: expected {expected}, got {prod.normal_form()}"
                    )
        total = Element.zero(self.d)
        for g in self.images:
            total = total + g * g.adjoint()
        if not total.equals(unit):
            failures.append(f"completeness: sum of g_i g_i* = {total.normal_form()} != I")
        return failures


def validate_endomorphism(images: Sequence[Element]) -> Endomorphism:
    """Build an endomorphism, raising with the failed relations if any."""
    endo = Endomorphism(images)
    failures = endo.relation_failures()
    if failures:
        raise EndomorphismValidationError(failures)
    return endo


def _sandwich_terms(x: Element, keep_unit: bool) -> dict[Monomial, Scalar]:
    """Terms of sum_i s_i X s_i*: each word gains the letter i on both sides.

    Distinct words stay distinct, so nothing merges and no coefficient
    vanishes.  With ``keep_unit`` the identity word maps to itself
    (sum_i s_i s_i* = I), as a unital endomorphism's image of I.
    """
    letters = [(i,) for i in range(1, x.d + 1)]
    out: dict[Monomial, Scalar] = {}
    for m, c in x.terms.items():
        create, annihilate = m
        if keep_unit and not create and not annihilate:
            out[m] = c
            continue
        for i in letters:
            out[_word(i + create, i + annihilate)] = c
    return out


def canonical_endomorphism(x: Element) -> Element:
    """X -> sum_i s_i X s_i*, computed by direct sandwiching."""
    return Element._make(x.d, _sandwich_terms(x, keep_unit=False))


def identity_endomorphism(d: int) -> Endomorphism:
    return Endomorphism([isometry(d, i) for i in range(1, d + 1)])


def rho(d: int) -> Endomorphism:
    """The canonical endomorphism X -> sum_i s_i X s_i*, in sandwich form."""
    return Endomorphism._sandwich_form(d)


def phi1() -> Endomorphism:
    """A gauge-charge-mixing endomorphism of O_2: s1 -> s1 s1* + s2 s1 s2*, s2 -> s2 s2."""
    g1 = Element(2, {((1,), (1,)): 1, ((2, 1), (2,)): 1})
    g2 = Element.word(2, (2, 2), ())
    return validate_endomorphism([g1, g2])


def phi2() -> Endomorphism:
    """A second charge-mixing endomorphism of O_2: s1 -> s2 s1* + s1 s2 s2*, s2 -> s1 s1."""
    g1 = Element(2, {((2,), (1,)): 1, ((1, 2), (2,)): 1})
    g2 = Element.word(2, (1, 1), ())
    return validate_endomorphism([g1, g2])


def is_rho(e: Endomorphism) -> bool:
    """Exact test whether the images coincide with the canonical endomorphism's."""
    if e.is_canonical:
        return True
    return all(
        e.images[i - 1].equals(canonical_endomorphism(isometry(e.d, i)))
        for i in range(1, e.d + 1)
    )
