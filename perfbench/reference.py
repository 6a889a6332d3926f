"""Reference arithmetic for the known answers of the calculator workload.

Written from the defining relations of O_d alone and sharing no code with
``cuntz``, so an answer computed here does not depend on the code under
test.  Elements are plain dicts ``(create, annihilate) -> Fraction`` with
the annihilation word stored un-starred, as in the package's JSON schema.
Speed is not a goal: these run while the inputs are generated, before any
timer starts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def accumulate(out: dict, key, c) -> None:
    old = out.get(key)
    c = c if old is None else old + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def mul(x: dict, y: dict) -> dict:
    """Word product: s_B* s_C survives only when one word is a prefix of the other."""
    out: dict = {}
    for (xc, xa), cx in x.items():
        for (yc, ya), cy in y.items():
            n = min(len(xa), len(yc))
            if xa[:n] != yc[:n]:
                continue
            key = (xc + yc[n:], ya + xa[n:])
            accumulate(out, key, cx * cy)
    return out


def adjoint(x: dict) -> dict:
    return {(a, c): k for (c, a), k in x.items()}


def normal_form(x: dict, d: int) -> dict:
    """Raise every word to the longest creation length of its grade.

    Completeness, sum_i s_i s_i* = I, rewrites s_A s_B* as the sum over
    i of s_{Ai} s_{Bi}*; repeating it to a common length per grade gives
    the canonical representative.
    """
    target: dict[int, int] = {}
    for c, a in x:
        grade = len(c) - len(a)
        target[grade] = max(target.get(grade, 0), len(c))
    out: dict = {}
    for (c, a), k in x.items():
        gap = target[len(c) - len(a)] - len(c)
        for w in product(range(1, d + 1), repeat=gap):
            accumulate(out, (c + w, a + w), k)
    return out


def to_dict(x: dict, d: int) -> dict:
    """The documented element JSON, terms in canonical order."""
    keys = sorted(x, key=lambda m: (len(m[0]) - len(m[1]), len(m[0]), m[0], m[1]))
    return {"d": d, "terms": [{"coeff": str(x[m]), "create": list(m[0]),
                               "annihilate": list(m[1])} for m in keys]}


def endo_image(images: list, x: dict) -> dict:
    """phi(x) from the generator images: phi(s_A s_B*) = g_A g_B*."""
    out: dict = {}
    for (c, a), k in x.items():
        left = {((), ()): Fraction(1)}
        for i in c:
            left = mul(left, images[i - 1])
        right = {((), ()): Fraction(1)}
        for i in a:
            right = mul(right, images[i - 1])
        for key, v in mul(left, adjoint(right)).items():
            accumulate(out, key, k * v)
    return out


def rho_images(d: int) -> list:
    """Canonical endomorphism: s_i -> sum_j s_j s_i s_j*."""
    return [{((j, i), (j,)): Fraction(1) for j in range(1, d + 1)} for i in range(1, d + 1)]


# phi1 and phi2 of O_2 as documented in the package README and docstrings.
PHI_IMAGES = {
    "phi1": [{((1,), (1,)): Fraction(1), ((2, 1), (2,)): Fraction(1)},
             {((2, 2), ()): Fraction(1)}],
    "phi2": [{((2,), (1,)): Fraction(1), ((1, 2), (2,)): Fraction(1)},
             {((1, 1), ()): Fraction(1)}],
}


def rep_apply(x: dict, d: int, vector: dict) -> dict:
    """Permutation representation: s_i e_n = e_{d(n-1)+i}; s_i* inverts it."""
    out: dict = {}
    for (c, a), k in x.items():
        for n, amp in vector.items():
            for b in a:
                q, r = divmod(n - b, d)
                if r or q < 0:
                    break
                n = q + 1
            else:
                for i in reversed(c):
                    n = d * (n - 1) + i
                accumulate(out, n, k * amp)
    return out
