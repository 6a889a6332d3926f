"""Report plumbing: statuses, JSON lines, first-failure scans."""

import json

import pytest

from cuntz import config
from cuntz.errors import ResourceLimitError
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
    assert sweep_first_failure(predicate, items) == 419
    assert sweep_first_failure(lambda x: True, items) is None


def _never_rendered(item):
    raise AssertionError(f"render called on a pass: {item!r}")


def test_scan_pass_line_has_no_witness():
    report = Report()
    bad = report.scan("zeta", {"N": 3}, range(3), lambda x: True, _never_rendered)
    assert bad is None
    assert report.results == [CheckResult("zeta", {"N": 3}, "pass")]


def test_scan_fail_line_renders_first_failure_in_order():
    report = Report()
    rendered = []

    def render(item):
        rendered.append(item)
        return f"bad {item}"

    bad = report.scan("eta", {}, [5, 8, 3, 6, 9], lambda x: x % 3 != 0, render)
    assert bad == 3
    assert rendered == [3]
    assert report.results == [CheckResult("eta", {}, "fail", "bad 3")]


def test_scan_accepts_a_one_shot_iterator():
    report = Report()
    bad = report.scan("theta", {}, iter([(0, 1), (1, 1)]), lambda t: t[0] != t[1],
                      lambda t: "%d = %d" % t)
    assert bad == (1, 1)
    assert report.first_failure().witness == "1 = 1"


def test_check_result_passed():
    assert CheckResult("x", {}, "pass").passed
    assert not CheckResult("x", {}, "fail").passed
    assert not CheckResult("x", {}, INCONCLUSIVE).passed


def test_scan_refuses_a_sized_list_past_the_cap():
    seen = []
    with config.scoped_max_terms(2):
        with pytest.raises(ResourceLimitError) as err:
            Report().scan("demo", {}, [1, 2, 3], seen.append, str)
        assert Report().scan("demo", {}, [1, 2], lambda x: True, str) is None
    assert seen == []
    assert (err.value.what, err.value.operation, err.value.count) == (
        "candidates", "sweep demo", 3)


class TestRecords:
    """A CheckResult is an immutable value; a Report compares by its lines
    and owns its own list."""

    FIELDS = {"check": "x", "params": {"k": 1}, "status": "pass", "witness": None}

    @pytest.mark.parametrize("field, value", [
        ("check", "y"), ("params", {"k": 2}), ("status", "fail"), ("witness", "w")])
    def test_check_result_compares_every_field(self, field, value):
        same, twin = CheckResult(**self.FIELDS), CheckResult("x", {"k": 1}, "pass")
        other = CheckResult(**{**self.FIELDS, field: value})
        assert same == twin and not same != twin
        assert other != same and not other == same

    def test_check_result_is_immutable(self):
        result = CheckResult(**self.FIELDS)
        for field in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(result, field, "changed")
        assert result == CheckResult(**self.FIELDS)

    def test_reports_compare_by_their_lines(self):
        line = CheckResult(**self.FIELDS)
        assert Report() == Report() and Report([line]) == Report(results=[line])
        assert Report([line]) != Report() and not Report([line]) == Report()

    def test_new_reports_never_share_a_list(self):
        first, second = Report(), Report()
        first.add("a", {}, True)
        assert second.results == [] and first.results is not second.results
