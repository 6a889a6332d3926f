"""Verification reports: one line per check, JSON-lines serializable.

Checks carry a three-valued status.  ``inconclusive`` appears when a
sufficient-but-not-necessary certificate fails while the sampled sweep
found no witness; it is not a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import config

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: dict
    status: str
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        out = {"check": self.check, "params": self.params, "pass": self.passed}
        if self.status != PASS and self.status != FAIL:
            out["status"] = self.status
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    def add(self, check: str, params: dict, ok: bool, witness: Optional[str] = None,
            status: Optional[str] = None) -> CheckResult:
        result = CheckResult(check, params, status or (PASS if ok else FAIL), witness)
        self.results.append(result)
        return result

    def scan(self, check: str, params: dict, candidates: Iterable, predicate: Callable,
             render: Callable[..., str]):
        """Add one line for a family of sub-checks; return its first failure.

        The candidates are scanned in order.  The line passes when every
        candidate satisfies ``predicate``; otherwise it fails with
        ``render(bad)`` as the witness, ``bad`` being the first failing
        candidate, which is returned (None on a pass).  The scan goes
        through the module-level ``sweep_first_failure``, so a wrapper bound
        to that name (``perfbench/trace.py``) sees every sweep.  A sized
        candidate list longer than the term cap is refused before any
        predicate runs (:func:`cuntz.config.check_sweep`).
        """
        if hasattr(candidates, "__len__"):
            config.check_sweep(check, len(candidates))
        bad = sweep_first_failure(predicate, candidates)
        self.add(check, params, bad is None, witness=None if bad is None else render(bad))
        return bad

    def extend(self, other: "Report") -> "Report":
        self.results.extend(other.results)
        return self

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def first_failure(self) -> Optional[CheckResult]:
        for r in self.results:
            if not r.passed:
                return r
        return None

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"all {len(self.results)} checks passed"
        head = bad[0]
        text = f"{len(bad)}/{len(self.results)} checks failed; first: {head.check}"
        if head.witness:
            text += f" (witness: {head.witness})"
        return text

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(r.to_json_dict(), sort_keys=False) for r in self.results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)


def sweep_first_failure(predicate: Callable, items: Iterable):
    """First item failing ``predicate`` (None if all pass), scanning in order.

    ``predicate`` returns True on success.
    """
    for item in items:
        if not predicate(item):
            return item
    return None
