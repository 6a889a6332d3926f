"""JSON schemas for elements, vectors, systems and endomorphisms.

Element:    {"d": int, "terms": [{"coeff": "p/q", "create": [..], "annihilate": [..]}]}
Vector:     {"terms": [{"index": "decimal string", "coeff": "p/q"}]}
RFS:        {"kind": "rfs", "d": int, "p": int, "seeds": [element..],
             "zeta": [{"sign": +-1, "left": u, "right": v}..],
             "phi": "rho" | {"images": [element..]}}
Parafermion: {"kind": "rpfs", "p": int, "d": int,
             "triads": [{"seed": element, "zeta": [..], "phi": ..}..]}

Emission is deterministic: terms are listed in the canonical order and
arbitrary-precision values (basis indices, coefficients) travel as decimal
strings.  The annihilation word is stored in the un-starred order.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebra import Element
from .endomorphisms import Endomorphism, phi1, phi2, rho, validate_endomorphism
from .errors import CuntzError, SchemaError
from .parafermion import GreenSystem, standard_rpfs_p
from .representation import StateVector
from .rfs import RecursiveMap, RfsSystem, standard_rfs_o2, standard_rfs_p


def _expect(condition, message):
    if not condition:
        raise SchemaError(message)


def _coeff_out(c: Fraction) -> str:
    return str(c)


def _coeff_in(raw) -> Fraction:
    _expect(isinstance(raw, str), f"coefficient must be a 'p/q' string, got {raw!r}")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad coefficient {raw!r}: {exc}") from exc


def element_to_dict(x: Element) -> dict:
    return {
        "d": x.d,
        "terms": [
            {"coeff": _coeff_out(c), "create": list(m.create),
             "annihilate": list(m.annihilate)}
            for m, c in x.sorted_terms()
        ],
    }


def element_from_dict(obj) -> Element:
    _expect(isinstance(obj, dict), "element must be an object")
    _expect(isinstance(obj.get("d"), int), "element needs an integer 'd'")
    raw_terms = obj.get("terms", [])
    _expect(isinstance(raw_terms, list), "'terms' must be a list")
    terms = []
    for entry in raw_terms:
        _expect(isinstance(entry, dict), "each term must be an object")
        create = entry.get("create", [])
        annihilate = entry.get("annihilate", [])
        _expect(isinstance(create, list) and isinstance(annihilate, list),
                "'create'/'annihilate' must be integer lists")
        terms.append(((tuple(create), tuple(annihilate)), _coeff_in(entry.get("coeff"))))
    try:
        return Element(obj["d"], terms)
    except CuntzError as exc:
        raise SchemaError(str(exc)) from exc


def vector_to_dict(v: StateVector) -> dict:
    return {"terms": [{"index": str(n), "coeff": _coeff_out(c)} for n, c in v.items()]}


def vector_from_dict(obj) -> StateVector:
    _expect(isinstance(obj, dict), "vector must be an object")
    raw_terms = obj.get("terms", [])
    _expect(isinstance(raw_terms, list), "'terms' must be a list")
    amps = []
    for entry in raw_terms:
        _expect(isinstance(entry, dict), "each term must be an object")
        raw_index = entry.get("index")
        _expect(isinstance(raw_index, str) and raw_index.isascii() and raw_index.isdigit(),
                f"'index' must be a decimal string, got {raw_index!r}")
        try:
            index = int(raw_index)
        except ValueError as exc:  # more digits than the interpreter converts
            raise SchemaError(f"'index' has {len(raw_index)} digits, more than this "
                              "interpreter converts to an integer") from exc
        amps.append((index, _coeff_in(entry.get("coeff"))))
    try:
        return StateVector(amps)
    except CuntzError as exc:
        raise SchemaError(str(exc)) from exc


def zeta_to_list(z: RecursiveMap) -> list:
    return [{"sign": s, "left": u, "right": v} for s, u, v in z.terms]


def zeta_from_list(raw, d: int) -> RecursiveMap:
    _expect(isinstance(raw, list), "'zeta' must be a list of sandwich terms")
    terms = []
    for entry in raw:
        _expect(isinstance(entry, dict), "each sandwich term must be an object")
        sign, left, right = entry.get("sign"), entry.get("left"), entry.get("right")
        _expect(sign in (1, -1), f"'sign' must be +-1, got {sign!r}")
        _expect(isinstance(left, int) and isinstance(right, int),
                "'left'/'right' must be integers")
        terms.append((sign, left, right))
    try:
        return RecursiveMap(d, tuple(terms))
    except CuntzError as exc:
        raise SchemaError(str(exc)) from exc


def _phi_to_json(phi: Endomorphism, d: int):
    if phi.is_canonical or phi.images == rho(d).images:
        return "rho"
    return {"images": [element_to_dict(img) for img in phi.images]}


def _phi_from_json(raw, d: int) -> Endomorphism:
    if raw is None or raw == "rho":
        return rho(d)
    _expect(isinstance(raw, dict) and "images" in raw,
            "'phi' must be \"rho\" or {\"images\": [..]}")
    images = [element_from_dict(entry) for entry in raw["images"]]
    return Endomorphism(images)


def rfs_to_dict(sys: RfsSystem) -> dict:
    return {
        "kind": "rfs",
        "d": sys.d,
        "p": sys.p,
        "seeds": [element_to_dict(seed) for seed in sys.seeds],
        "zeta": zeta_to_list(sys.zeta),
        "phi": _phi_to_json(sys.phi, sys.d),
    }


def rfs_from_dict(obj, validate: bool = True) -> RfsSystem:
    _expect(isinstance(obj, dict), "system must be an object")
    d = obj.get("d")
    _expect(isinstance(d, int), "system needs an integer 'd'")
    seeds_raw = obj.get("seeds")
    _expect(isinstance(seeds_raw, list) and seeds_raw, "system needs a 'seeds' list")
    seeds = [element_from_dict(entry) for entry in seeds_raw]
    zeta = zeta_from_list(obj.get("zeta"), d)
    phi = _phi_from_json(obj.get("phi"), d)
    if "p" in obj:
        _expect(obj["p"] == len(seeds), "'p' must match the number of seeds")
    try:
        return RfsSystem(seeds, zeta, phi, label=obj.get("label", "json-rfs"),
                         validate=validate)
    except SchemaError:
        raise
    except CuntzError:
        raise
    except Exception as exc:  # malformed structure that slipped through
        raise SchemaError(str(exc)) from exc


def green_to_dict(g: GreenSystem) -> dict:
    return {
        "kind": "rpfs",
        "p": g.p,
        "d": g.d,
        "triads": [
            {"seed": element_to_dict(g.seeds[a]), "zeta": zeta_to_list(g.zetas[a]),
             "phi": _phi_to_json(g.phis[a], g.d)}
            for a in range(g.p)
        ],
    }


def green_from_dict(obj, validate: bool = True) -> GreenSystem:
    _expect(isinstance(obj, dict), "system must be an object")
    d = obj.get("d")
    _expect(isinstance(d, int), "system needs an integer 'd'")
    triads_raw = obj.get("triads")
    _expect(isinstance(triads_raw, list) and triads_raw, "system needs a 'triads' list")
    seeds, zetas, phis = [], [], []
    for entry in triads_raw:
        _expect(isinstance(entry, dict), "each triad must be an object")
        seeds.append(element_from_dict(entry.get("seed")))
        zetas.append(zeta_from_list(entry.get("zeta"), d))
        phis.append(_phi_from_json(entry.get("phi"), d))
    if "p" in obj:
        _expect(obj["p"] == len(seeds), "'p' must match the number of triads")
    return GreenSystem(seeds, zetas, phis, label=obj.get("label", "json-rpfs"),
                       validate=validate)


def system_to_dict(system) -> dict:
    if isinstance(system, GreenSystem):
        return green_to_dict(system)
    return rfs_to_dict(system)


def system_from_dict(obj, validate: bool = True):
    _expect(isinstance(obj, dict), "system must be an object")
    kind = obj.get("kind")
    if kind is None:
        kind = "rpfs" if "triads" in obj else "rfs"
    if kind == "rfs":
        return rfs_from_dict(obj, validate=validate)
    if kind == "rpfs":
        return green_from_dict(obj, validate=validate)
    raise SchemaError(f"unknown system kind {kind!r}")


def system_from_spec(spec: str, validate: bool = True):
    """Resolve a CLI system spec: a built-in name or a JSON file path.

    Built-ins: ``std-o2``, ``std-rfs-p:<p>``, ``std-rpfs:<p>``.
    """
    if spec == "std-o2":
        return standard_rfs_o2()
    if spec.startswith("std-rfs-p:"):
        return standard_rfs_p(_parse_order(spec))
    if spec.startswith("std-rpfs:"):
        return standard_rpfs_p(_parse_order(spec))
    if not os.path.exists(spec):
        raise SchemaError(f"unknown system spec {spec!r} (not a built-in, not a file)")
    with open(spec, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {spec}: {exc}") from exc
    return system_from_dict(obj, validate=validate)


def _parse_order(spec: str) -> int:
    raw = spec.split(":", 1)[1]
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"bad order in system spec {spec!r}") from exc


def endomorphism_from_spec(spec: str, d: int) -> Endomorphism:
    """Resolve an endomorphism spec: ``rho``, ``phi1``, ``phi2`` or a JSON file."""
    if spec == "rho":
        return rho(d)
    if spec in ("phi1", "phi2"):
        if d != 2:
            raise SchemaError(f"{spec} is an endomorphism of O_2, element has d={d}")
        return phi1() if spec == "phi1" else phi2()
    if not os.path.exists(spec):
        raise SchemaError(f"unknown endomorphism spec {spec!r}")
    with open(spec, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {spec}: {exc}") from exc
    _expect(isinstance(obj, dict) and isinstance(obj.get("images"), list),
            "endomorphism JSON needs an 'images' list")
    images = [element_from_dict(entry) for entry in obj["images"]]
    endo = validate_endomorphism(images)
    if endo.d != d:
        raise SchemaError(f"endomorphism acts on O_{endo.d}, element has d={d}")
    return endo
