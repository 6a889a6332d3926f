"""Verification reports: one line per check, JSON-lines serializable.

Checks carry a three-valued status.  ``inconclusive`` appears when a
sufficient-but-not-necessary certificate fails while the sampled sweep
found no witness; it is not a pass.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

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


def sweep_first_failure(predicate: Callable, items: Iterable, jobs: int = 1,
                        chunk: int = 256):
    """First item failing ``predicate`` (None if all pass), scanning in order.

    ``predicate`` returns True on success.  With jobs > 1 the scan works
    through fixed chunks so the reported witness is identical to the
    sequential one.
    """
    if jobs <= 1:
        for item in items:
            if not predicate(item):
                return item
        return None
    buffer: list = []
    items = list(items)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for start in range(0, len(items), chunk):
            block = items[start:start + chunk]
            for item, ok in zip(block, pool.map(predicate, block)):
                if not ok:
                    return item
    return None
