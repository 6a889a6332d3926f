"""Report plumbing: statuses, JSON lines, deterministic parallel scans."""

import json

from cuntz.reports import (
    INCONCLUSIVE,
    CheckResult,
    Report,
    sweep_first_failure,
)


def test_pass_fail_statuses():
    report = Report()
    report.add("alpha", {"k": 1}, True)
    report.add("beta", {}, False, witness="residual s1 s2*")
    assert not report.ok
    assert report.first_failure().check == "beta"
    assert "alpha" not in report.summary()
    assert "beta" in report.summary()


def test_inconclusive_is_not_a_pass():
    report = Report()
    report.add("gamma", {}, False, status=INCONCLUSIVE)
    assert not report.ok
    payload = json.loads(report.to_json_lines())
    assert payload["pass"] is False
    assert payload["status"] == "inconclusive"


def test_json_lines_shape():
    report = Report()
    report.add("delta", {"N": 4}, True)
    report.add("epsilon", {}, False, witness="w")
    lines = [json.loads(line) for line in report.to_json_lines().splitlines()]
    assert lines[0] == {"check": "delta", "params": {"N": 4}, "pass": True}
    assert lines[1]["witness"] == "w"


def test_extend_merges_in_order():
    first, second = Report(), Report()
    first.add("a", {}, True)
    second.add("b", {}, True)
    first.extend(second)
    assert [r.check for r in first] == ["a", "b"]


def test_sweep_first_failure_matches_sequential():
    items = list(range(1000))
    predicate = lambda x: x % 419 != 0 or x == 0
    assert sweep_first_failure(predicate, items, jobs=1) == 419
    assert sweep_first_failure(predicate, items, jobs=4) == 419
    assert sweep_first_failure(lambda x: True, items, jobs=4) is None


def test_check_result_passed():
    assert CheckResult("x", {}, "pass").passed
    assert not CheckResult("x", {}, "fail").passed
    assert not CheckResult("x", {}, INCONCLUSIVE).passed
