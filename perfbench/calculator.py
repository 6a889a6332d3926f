"""Seeded single-element requests for the ``calculator`` workload.

Every request is built so that its answer is known from the construction
and the reference arithmetic in ``reference.py``, never from ``cuntz``.
The mix of request kinds, alphabet sizes and depth gaps is a fixed table;
the seed only picks letters, coefficients, which term gets rewritten and
the order of the stream, so every seed carries the same amount of work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

from . import reference as ref

# (kind, d, gap, count) per pass.  ``gap`` is how much longer the deep
# word is than the short ones, so raising a short word costs d^gap terms.
SCHEDULE = (
    [("apply", d, gap, 120) for d in (2, 3, 4) for gap in (0, 1, 2, 3, 4)]
    + [("normal-form", 2, gap, n) for gap, n in ((0, 80), (1, 80), (2, 80), (3, 60),
                                                 (4, 40), (5, 30), (6, 20), (8, 40))]
    + [("normal-form", 3, gap, n) for gap, n in ((0, 60), (1, 60), (2, 50), (3, 30),
                                                 (4, 20), (5, 40))]
    + [("normal-form", 4, gap, n) for gap, n in ((0, 60), (1, 60), (2, 40), (3, 20),
                                                 (4, 40), (5, 15))]
    + [(kind, d, gap, n) for kind in ("equals-true", "equals-false")
       for d, gap, n in ((2, 1, 60), (2, 3, 40), (2, 6, 20), (2, 8, 20), (3, 1, 60),
                         (3, 3, 20), (3, 5, 30), (4, 1, 60), (4, 2, 30), (4, 4, 30))]
    + [("endo-apply:rho", 4, gap, n) for gap, n in ((0, 60), (1, 40), (2, 20), (3, 30))]
    + [(f"endo-apply:{phi}", 2, gap, n) for phi in ("phi1", "phi2")
       for gap, n in ((0, 40), (1, 30), (2, 20), (3, 10))]
)

# Longest word (letters on both sides) fed to phi1/phi2.  phi1(s2) = s2 s2
# and phi2(s2) = s1 s1 double a word's length, so an image can put a long
# word next to short ones of its grade, and the normal form then raises
# the short ones: about 4x the terms per extra letter.  One such request
# at depth 11 took ~9 s and ~660 MB, more than all other requests
# together.  Budgets for that growth are a separate item; this cap keeps
# the tail bounded so no single request dominates verdict_s.  A deep word
# has at most 3 + 2 * gap letters.
PHI_MAX_DEPTH = 9

N_SHORT = 3


def _word(rng: random.Random, d: int, n: int) -> tuple:
    return tuple(rng.randint(1, d) for _ in range(n))


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def mixed_element(rng: random.Random, d: int, gap: int) -> dict:
    """Three short words and one word ``gap`` letters deeper, all of one grade."""
    grade = rng.choice((-1, 0, 1))
    short = max(0, grade) + 1
    deep = (_word(rng, d, short + gap), _word(rng, d, short + gap - grade))
    x = {deep: _coeff(rng)}
    while len(x) < N_SHORT + 1:
        x.setdefault((_word(rng, d, short), _word(rng, d, short - grade)), _coeff(rng))
    return x


def _raised(word: tuple, k: int, d: int) -> list:
    """The d^k words that ``word`` equals by k completeness rewrites."""
    c, a = word
    return [(c + w, a + w) for w in product(range(1, d + 1), repeat=k)]


def _element(x: dict, d: int) -> str:
    """Element JSON text, as an ``--element`` file would hold it."""
    return json.dumps({"d": d, "terms": [{"coeff": str(k), "create": list(c),
                                          "annihilate": list(a)} for (c, a), k in x.items()]})


def _equal_pair(rng: random.Random, d: int, gap: int, perturb: bool):
    """x and a rewrite of x; with ``perturb`` the deep coefficient is shifted."""
    x = mixed_element(rng, d, gap)
    deep = max(x, key=lambda m: len(m[0]))
    short = rng.choice([m for m in x if m != deep])
    y = {m: k for m, k in x.items() if m != short}
    for m in _raised(short, gap, d):
        ref.accumulate(y, m, x[short])
    if perturb:
        # x - y then carries -shift * deep, one nonzero word, so x != y.
        ref.accumulate(y, deep, rng.choice((1, -1)) * Fraction(1, rng.choice((1, 2))))
    return _element(x, d), _element(y, d)


def _fock_vector(rng: random.Random, x: dict, d: int) -> dict:
    """Three basis vectors e_N with N = s_B e_m for a word s_A s_B* of x,
    so that the adjoint letters of that word do not annihilate them."""
    amps = {}
    for _ in range(3):
        _, annihilate = rng.choice(list(x))
        n = rng.randint(1, d)
        for i in reversed(annihilate):
            n = d * (n - 1) + i
        amps[n] = _coeff(rng)
    return amps


def make_request(rng: random.Random, kind: str, d: int, gap: int) -> tuple:
    """(kind, inputs, expected answer) for one request; inputs are JSON texts."""
    if kind.startswith("equals"):
        a, b = _equal_pair(rng, d, gap, perturb=kind == "equals-false")
        return kind, (a, b), kind == "equals-true"
    if kind.startswith("endo-apply:"):
        name = kind.split(":", 1)[1]
        x = mixed_element(rng, d, gap)
        if name != "rho" and max(len(c) + len(a) for c, a in x) > PHI_MAX_DEPTH:
            raise ValueError(f"{kind} gap {gap} exceeds the depth cap {PHI_MAX_DEPTH}")
        images = ref.rho_images(d) if name == "rho" else ref.PHI_IMAGES[name]
        answer = ref.to_dict(ref.normal_form(ref.endo_image(images, x), d), d)
        return kind, (name, _element(x, d)), answer
    x = mixed_element(rng, d, gap)
    if kind == "normal-form":
        return kind, (_element(x, d),), ref.to_dict(ref.normal_form(x, d), d)
    amps = _fock_vector(rng, x, d)
    vector = json.dumps({"terms": [{"index": str(n), "coeff": str(k)}
                                   for n, k in sorted(amps.items())]})
    image = ref.rep_apply(x, d, amps)
    answer = {"terms": [{"index": str(n), "coeff": str(k)} for n, k in sorted(image.items())]}
    return kind, (_element(x, d), vector), answer


def make_stream(seed: int):
    """The requests of one pass, in a seeded order, generated one at a time."""
    rng = random.Random(seed)
    plan = [(kind, d, gap) for kind, d, gap, count in SCHEDULE for _ in range(count)]
    rng.shuffle(plan)
    for kind, d, gap in plan:
        yield make_request(rng, kind, d, gap)
