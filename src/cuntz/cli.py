"""Batch command-line interface.

Commands: embed, verify, fock, apply, normal-form, endo-apply.
Exit codes: 0 all checks passed / output produced; 1 mathematical failure
(with a symbolic witness); 2 usage or schema error; 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config
from .algebra import Element
from .errors import (
    AlphabetMismatchError,
    ConfigError,
    CuntzError,
    IndexRangeError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    SystemValidationError,
    decimal_digits,
)
from .parafermion import (
    GreenSystem,
    verify_cross_commutation,
    verify_green_normalization,
    verify_green_recursive,
    verify_green_relations,
    verify_green_seed,
    verify_klein_identities,
    verify_parafermion,
    verify_parafermion_vacuum,
    verify_spectrum_polynomial,
    verify_trilinear,
)
from .representation import StateVector, fock_build, fock_index, rep_apply, verify_vacuum
from .reports import Report
from .rfs import (
    verify_all,
    verify_car,
    verify_normalization,
    verify_recursive_condition,
    verify_seed_condition,
)
from .serialize import (
    element_from_dict,
    element_to_dict,
    endomorphism_from_spec,
    load_json,
    system_from_spec,
    vector_from_dict,
    vector_to_dict,
)

RFS_SUITES = ("seed", "recursive", "normalization", "car", "vacuum", "all")
RPFS_SUITES = ("seed", "recursive", "normalization", "cross", "green", "trilinear",
               "spectrum", "vacuum", "parafermion", "all")
ALL_SUITES = sorted(set(RFS_SUITES) | set(RPFS_SUITES) | {"klein"})


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _non_negative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuntz",
        description="Exact symbolic computation with recursive fermion and "
                    "parafermion systems in Cuntz algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, system_required=True):
        p.add_argument("--system", required=system_required,
                       help="built-in name (std-o2, std-rfs-p:<p>, std-rpfs:<p>) "
                            "or a JSON system file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-terms", type=_positive_int, default=None,
                       help="abort when a grown element exceeds this term count "
                            f"(default from ${config.MAX_TERMS_ENV})")

    p_embed = sub.add_parser("embed", help="print an embedded generator in normal form")
    add_common(p_embed)
    p_embed.add_argument("--n", type=int, required=True, help="generator index, 1-based")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    add_common(p_verify, system_required=False)
    p_verify.add_argument("--suite", required=True, choices=ALL_SUITES)
    p_verify.add_argument("--N", type=_positive_int, default=None, help="generator range")
    p_verify.add_argument("--L", type=_positive_int, default=None,
                          help="parafermion index range")
    p_verify.add_argument("--depth", type=_non_negative_int,
                          default=config.DEFAULT_SWEEP_DEPTH,
                          help="total word length for sampled sweeps")

    p_fock = sub.add_parser("fock", help="basis index and vector for occupied modes")
    add_common(p_fock)
    p_fock.add_argument("--modes", required=True,
                        help="comma-separated strictly increasing modes; '' for vacuum")

    p_apply = sub.add_parser("apply", help="act by an element on a state vector")
    p_apply.add_argument("--element", required=True, help="element JSON file")
    p_apply.add_argument("--vector", required=True, help="vector JSON file")
    p_apply.add_argument("--format", choices=("text", "json"), default="text")

    p_nf = sub.add_parser("normal-form", help="canonical normal form of an element")
    p_nf.add_argument("--element", required=True, help="element JSON file")
    p_nf.add_argument("--format", choices=("text", "json"), default="text")

    p_endo = sub.add_parser("endo-apply", help="apply an endomorphism to an element")
    p_endo.add_argument("--endo", required=True,
                        help="rho, phi1, phi2, or an endomorphism JSON file")
    p_endo.add_argument("--element", required=True, help="element JSON file")
    p_endo.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _print_element(el: Element, fmt: str):
    if fmt == "json":
        print(json.dumps(element_to_dict(el)))
    else:
        print(el)


def _print_vector(v: StateVector, fmt: str):
    if fmt == "json":
        print(json.dumps(vector_to_dict(v)))
    else:
        print(v)


def _print_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        text = report.to_json_lines()
        if text:
            print(text)
    else:
        for result in report:
            tag = result.status.upper()
            line = f"[{tag}] {result.check} {json.dumps(result.params)}"
            if result.witness:
                line += f" witness: {result.witness}"
            print(line)
        print(f"-- {report.summary()}")
    return 0 if report.ok else 1


def _parse_modes(raw: str):
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(chunk) for chunk in raw.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad mode list {raw!r}") from exc


def _cmd_embed(args) -> int:
    system = system_from_spec(args.system)
    if args.n < 1:
        raise IndexRangeError(f"--n must be >= 1, got {args.n}")
    element = system.generator(args.n).normal_form()
    _print_element(element, args.format)
    return 0


def _cmd_verify(args) -> int:
    suite = args.suite
    if suite == "klein":
        report = verify_klein_identities(L=args.L or 3, depth=args.depth)
        return _print_report(report, args.format)
    if not args.system:
        raise SchemaError(f"suite {suite!r} needs --system")
    system = system_from_spec(args.system, validate=False)
    if isinstance(system, GreenSystem):
        L = args.L or args.N or 4
        runners = {
            "seed": lambda: verify_green_seed(system),
            "recursive": lambda: verify_green_recursive(system, depth=args.depth),
            "normalization": lambda: verify_green_normalization(system, depth=args.depth),
            "cross": lambda: verify_cross_commutation(system, depth=min(args.depth, 1)),
            "green": lambda: verify_green_relations(system, L),
            "trilinear": lambda: verify_trilinear(system, L),
            "spectrum": lambda: verify_spectrum_polynomial(system, L),
            "vacuum": lambda: verify_parafermion_vacuum(system, L),
            "parafermion": lambda: verify_parafermion(system, L),
            "all": lambda: _green_all(system, args.depth, L),
        }
    else:
        n_max = args.N or config.default_car_range(system.p)
        runners = {
            "seed": lambda: verify_seed_condition(system),
            "recursive": lambda: verify_recursive_condition(system, depth=args.depth),
            "normalization": lambda: verify_normalization(system, depth=args.depth),
            "car": lambda: verify_car(system, n_max),
            "vacuum": lambda: verify_vacuum(system, n_max),
            "all": lambda: verify_all(system, depth=args.depth, car_range=n_max),
        }
    runner = runners.get(suite)
    if runner is None:
        raise SchemaError(f"suite {suite!r} does not apply to this system kind")
    return _print_report(runner(), args.format)


def _green_all(system, depth, L) -> Report:
    report = verify_green_seed(system)
    report.extend(verify_green_recursive(system, depth=depth))
    report.extend(verify_green_normalization(system, depth=depth))
    report.extend(verify_cross_commutation(system, depth=1))
    report.extend(verify_green_relations(system, L))
    report.extend(verify_parafermion(system, L))
    return report


def _require_printable(index: int):
    """Refuse a basis index with more decimal digits than Python will print."""
    try:
        str(index)
    except ValueError:
        raise ResourceLimitError(decimal_digits(index), sys.get_int_max_str_digits(),
                                 what="index digits", operation="fock") from None


def _cmd_fock(args) -> int:
    system = system_from_spec(args.system)
    if isinstance(system, GreenSystem):
        raise SchemaError("fock applies to fermion systems, not parafermion ones")
    modes = _parse_modes(args.modes)
    index = fock_index(modes)
    _require_printable(index)
    vector = fock_build(system, modes)
    _require_printable(max(vector.amps, default=1))
    match = vector == StateVector.unit(index)
    if args.format == "json":
        print(json.dumps({
            "index": str(index),
            "modes": list(modes),
            "binary": bin(index - 1)[2:],
            "vector": vector_to_dict(vector),
            "match": match,
        }))
    else:
        print(f"index: {index}")
        print(f"modes: {','.join(map(str, modes)) or '(vacuum)'}")
        print(f"binary(index-1): {bin(index - 1)[2:]}")
        print(f"vector: {vector}")
        print(f"match: {'yes' if match else 'NO'}")
    return 0 if match else 1


def _cmd_apply(args) -> int:
    element = element_from_dict(load_json(args.element))
    vector = vector_from_dict(load_json(args.vector))
    _print_vector(rep_apply(element, vector), args.format)
    return 0


def _cmd_normal_form(args) -> int:
    element = element_from_dict(load_json(args.element))
    _print_element(element.normal_form(), args.format)
    return 0


def _cmd_endo_apply(args) -> int:
    element = element_from_dict(load_json(args.element))
    endo = endomorphism_from_spec(args.endo, element.d)
    if endo.is_canonical:
        # rho gives d words per term, and keeps the identity word as one.
        unit = ((), ()) in element.terms
        config.check_cap(element.d * (len(element) - unit) + unit, "endo-apply")
    _print_element(endo.apply(element).normal_form(), args.format)
    return 0


_HANDLERS = {
    "embed": _cmd_embed,
    "verify": _cmd_verify,
    "fock": _cmd_fock,
    "apply": _cmd_apply,
    "normal-form": _cmd_normal_form,
    "endo-apply": _cmd_endo_apply,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cap = config.max_terms_cap()  # reject a malformed $CUNTZ_MAX_TERMS up front
        # Scope the cap even without --max-terms, so the many cap checks of
        # one command do not each read the environment again.
        with config.scoped_max_terms(getattr(args, "max_terms", None) or cap):
            return _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except SystemValidationError as exc:
        print(f"invalid system: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, ParseError, IndexRangeError, AlphabetMismatchError,
            ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CuntzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
