"""Seeded random words and elements for oracle sweeps and fuzz tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Element, Monomial, Scalar, exact_scalar


def random_monomial(rng: random.Random, d: int, max_length: int = 3) -> Monomial:
    total = rng.randint(0, max_length)
    la = rng.randint(0, total)
    create = tuple(rng.randint(1, d) for _ in range(la))
    annihilate = tuple(rng.randint(1, d) for _ in range(total - la))
    return Monomial(create, annihilate)


def random_coefficient(rng: random.Random) -> Scalar:
    value = 0
    while not value:
        value = exact_scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2))))
    return value


def random_element(rng: random.Random, d: int, max_length: int = 3,
                   max_terms: int = 4) -> Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_monomial(rng, d, max_length)] = random_coefficient(rng)
    return Element(d, terms)
