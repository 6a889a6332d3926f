"""The four workloads: their jobs, seeded inputs and known answers.

A job is one thing a user asks the ``cuntz`` command for.  The verify and
fock jobs call ``cuntz.cli.main`` in-process with stdout captured; the
calculator jobs call the same functions the element commands' handlers
call (JSON text -> ``element_from_dict`` -> operation -> ``element_to_dict``
-> JSON text).  Every name is looked up on ``cuntz.cli`` at call time, so
the tracer's rebound wrappers are the ones that run.  Each job carries a
check against an answer known without the code under test; the check
returns ``None`` or a one-line description of the mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from typing import Callable, NamedTuple, Optional

from cuntz import cli

from . import calculator


class Job(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Workload(NamedTuple):
    jobs: list
    # What the workload's CLI calls build, as ("system", spec, validate)
    # or ("endo", spec, d); setup_s times building it in a fresh interpreter.
    setup: list
    # SHA-256 of every generated input: equal digests, equal load.
    digest: str


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- CLI jobs ------------------------------------------------------------------


def _cli(argv: list) -> Callable[[], tuple]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return run


def _report_lines(output) -> tuple:
    code, text, err = output
    return code, [json.loads(line) for line in text.splitlines() if line.strip()], err


def expect_all_pass(required: dict) -> Callable:
    """Exit 0, at least one line, every line passing, and the listed
    check -> params lines present (params fixed by the suite's definition)."""
    def check(output):
        code, lines, err = _report_lines(output)
        if code != 0:
            return f"exit {code}, expected 0: {err.strip()[:200]}"
        if not lines:
            return "empty report"
        failing = [line["check"] for line in lines if line.get("pass") is not True]
        if failing:
            return f"checks not passing: {failing}"
        for name, params in required.items():
            if not any(line["check"] == name and line["params"] == params for line in lines):
                return f"no {name} line with params {params}"
        return None
    return check


def sweep_size(d: int, depth: int) -> int:
    """Words of total letter count <= depth: sum over t of (t + 1) d^t."""
    return sum((t + 1) * d**t for t in range(depth + 1))


# std-o2 with the map's second sign flipped to +1: z(X) = s1 X s1* + s2 X s2*.
# Then z(I) = I, so {a_1, z(I)} = 2 a_1 = 2 s1 s2* and the recursive
# condition fails on its first sampled word.
NEGATIVE_CONTROL = {
    "kind": "rfs", "d": 2, "p": 1, "label": "std-o2-flipped",
    "seeds": [{"d": 2, "terms": [{"coeff": "1", "create": [1], "annihilate": [2]}]}],
    "zeta": [{"sign": 1, "left": 1, "right": 1}, {"sign": 1, "left": 2, "right": 2}],
    "phi": "rho",
}


def expect_negative_control(output):
    code, lines, err = _report_lines(output)
    if code != 1:
        return f"exit {code}, expected 1: {err.strip()[:200]}"
    failing = [line for line in lines if line.get("pass") is not True]
    if not failing or failing[0]["check"] != "recursive.certificate":
        return f"first failing check is not recursive.certificate: {failing[:1]}"
    sampled = [line for line in lines if line["check"] == "recursive.sampled"]
    want = "{a_1, z(I)} = 2 s1 s2*"
    if not sampled or sampled[0].get("witness") != want:
        return f"recursive.sampled witness {sampled[:1]}, expected {want!r}"
    return None


def fock_index(modes) -> int:
    """Basis index of the occupied modes: 1 + sum of 2^(n-1)."""
    return 1 + sum(1 << (n - 1) for n in modes)


def expect_fock(modes) -> Callable:
    index = fock_index(modes)
    want = {"index": str(index), "modes": list(modes), "binary": bin(index - 1)[2:],
            "vector": {"terms": [{"index": str(index), "coeff": "1"}]}, "match": True}

    def check(output):
        code, text, err = output
        if code != 0:
            return f"exit {code}, expected 0: {err.strip()[:200]}"
        got = json.loads(text)
        return None if got == want else f"fock {modes}: got {text.strip()[:200]}"
    return check


def rfs_sweep(seed: int, control_path: str) -> Workload:
    """The full std-rfs-p:3 suite plus the negative control; no seeded part."""
    d, depth, n_car = 8, 2, 9
    words = sweep_size(d, depth)
    required = {
        "recursive.sampled": {"seed": 1, "depth": depth, "monomials": words},
        "normalization.sampled": {"depth": depth, "pairs": words * words},
        "car.anticommute": {"N": n_car, "pairs": n_car * (n_car + 1) // 2},
    }
    positive = ["verify", "--system", "std-rfs-p:3", "--suite", "all",
                "--depth", str(depth), "--format", "json"]
    negative = ["verify", "--system", control_path, "--suite", "all",
                "--depth", str(depth), "--format", "json"]
    jobs = [Job("verify std-rfs-p:3 all", _cli(positive), expect_all_pass(required)),
            Job("verify negative control", _cli(negative), expect_negative_control)]
    return Workload(jobs, [("system", "std-rfs-p:3", False), ("system", control_path, False)],
                    digest({"argv": [positive, negative[:2] + negative[3:]],
                            "control": NEGATIVE_CONTROL}))


def parafermion(seed: int) -> Workload:
    """Parastatistics battery of std-rpfs:3 and the Klein identities; no seeded part."""
    para = ["verify", "--system", "std-rpfs:3", "--suite", "parafermion", "--L", "3",
            "--format", "json"]
    klein = ["verify", "--suite", "klein", "--L", "3", "--format", "json"]
    jobs = [Job("verify std-rpfs:3 parafermion L=3", _cli(para),
                expect_all_pass({"spectrum.polynomial": {"L": 3, "p": 3},
                                 "pf-vacuum.eigenvalue": {"L": 3, "p": 3}})),
            Job("verify klein L=3", _cli(klein),
                expect_all_pass({"klein.green1": {"L": 3}, "klein.green2": {"L": 3}}))]
    return Workload(jobs, [("system", "std-rpfs:3", False)], digest([para, klein]))


# Fock requests per pass.  Each occupies mode 16 plus a seeded set of modes
# up to 12.  Generator n of std-o2 has 2^(n-1) terms, so mode 16 sets the
# cost and the lower modes add at most an eighth: every request, and every
# seed, carries nearly the same load.
FOCK_REQUESTS = 4


def car_deep(seed: int) -> Workload:
    """CAR up to mode 11, vacuum up to 16 and seeded Fock states on std-o2."""
    rng = random.Random(seed)
    car = ["verify", "--system", "std-o2", "--suite", "car", "--N", "11", "--format", "json"]
    vacuum = ["verify", "--system", "std-o2", "--suite", "vacuum", "--N", "16",
              "--format", "json"]
    jobs = [Job("verify std-o2 car N=11", _cli(car),
                expect_all_pass({"car.anticommute": {"N": 11, "pairs": 66},
                                 "car.mixed": {"N": 11, "pairs": 66}})),
            Job("verify std-o2 vacuum N=16", _cli(vacuum),
                expect_all_pass({"vacuum.annihilation": {"N": 16}}))]
    mode_lists = []
    for _ in range(FOCK_REQUESTS):
        modes = sorted(rng.sample(range(1, 13), rng.randint(0, 12))) + [16]
        mode_lists.append(modes)
        argv = ["fock", "--system", "std-o2", "--modes", ",".join(map(str, modes)),
                "--format", "json"]
        jobs.append(Job(f"fock {modes}", _cli(argv), expect_fock(modes)))
    return Workload(jobs, [("system", "std-o2", False), ("system", "std-o2", True)],
                    digest({"argv": [car, vacuum], "fock": mode_lists}))


# -- calculator ----------------------------------------------------------------


def _normal_form(text):
    return json.dumps(cli.element_to_dict(cli.element_from_dict(json.loads(text)).normal_form()))


def _equals(a, b):
    return cli.element_from_dict(json.loads(a)).equals(cli.element_from_dict(json.loads(b)))


def _endo_apply(name, text):
    x = cli.element_from_dict(json.loads(text))
    endo = cli.endomorphism_from_spec(name, x.d)
    return json.dumps(cli.element_to_dict(endo.apply(x).normal_form()))


def _apply(text, vector):
    x = cli.element_from_dict(json.loads(text))
    return json.dumps(cli.vector_to_dict(cli.rep_apply(x, cli.vector_from_dict(json.loads(vector)))))


# Request kind (before any ":<endomorphism>") -> what its CLI handler calls.
HANDLERS = {"normal-form": _normal_form, "equals-true": _equals, "equals-false": _equals,
            "endo-apply": _endo_apply, "apply": _apply}


def _expect_value(label: str, answer) -> Callable:
    """Compare with the known answer; JSON answers are kept as digests."""
    if isinstance(answer, bool):
        return lambda got: None if got is answer else f"{label}: got {got!r}"
    want = digest(answer)
    return lambda got: None if digest(json.loads(got)) == want else f"{label}: output differs"


def calculator_workload(seed: int) -> Workload:
    """A seeded stream of single-element requests over d in {2, 3, 4}."""
    jobs, inputs = [], hashlib.sha256()
    for i, (kind, args, answer) in enumerate(calculator.make_stream(seed)):
        handler = HANDLERS[kind.split(":")[0]]
        label = f"#{i} {kind}"
        jobs.append(Job(label, (lambda h=handler, a=args: h(*a)),
                        _expect_value(label, answer)))
        inputs.update(json.dumps([kind, args]).encode())
    setup = [("endo", "rho", 4), ("endo", "phi1", 2), ("endo", "phi2", 2)]
    return Workload(jobs, setup, inputs.hexdigest())


def build(name: str, seed: int, control_path: str) -> Workload:
    if name == "rfs-sweep":
        return rfs_sweep(seed, control_path)
    if name == "car-deep":
        return car_deep(seed)
    if name == "parafermion":
        return parafermion(seed)
    return calculator_workload(seed)


WORKLOADS = ("rfs-sweep", "car-deep", "parafermion", "calculator")
