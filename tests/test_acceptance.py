"""Acceptance gate: every criterion at its stated tolerance, full profile.

Run with -v to see one test per criterion; each prints its PASS/FAIL line
with the elapsed time and asserts both the checks and the runtime budget.
The check collector that criteria and command-line reports share is tested
at the end.
"""

import math

import pytest

from conifold_lab.acceptance import CRITERIA, Profile, run_criteria, run_criterion
from conifold_lab.checks import Checks

FULL = Profile.full(seed=0)


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid):
    result = run_criterion(cid, FULL)
    print(result.line())
    for name, info in result.details.items():
        print(f"    {name}: {info}")
    assert result.passed, "; ".join(result.failures)
    assert result.elapsed < result.budget


def test_a_raise_is_that_criterion_failure(monkeypatch):
    """An exception inside a criterion fails that criterion with its type and
    message; its time is kept and the later criteria still run."""

    def raising(profile):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(CRITERIA, "C02", raising)
    c01, c02, c04 = run_criteria(Profile.fast(), ["C04", "C02", "C01"])
    assert (c02.cid, c02.passed, c02.title) == ("C02", False, "raised an exception")
    assert c02.failures == ["ZeroDivisionError: division by zero"] and c02.details == {}
    assert c02.elapsed >= 0.0 and c02.line().startswith("C02 FAIL")
    assert c01.passed and c04.passed


class TestChecks:
    def test_nan_measurement_fails_le(self):
        chk = Checks()
        chk.le("residual", float("nan"), 1e-8)
        assert not chk.all_passed
        assert chk.failures == ["residual: nan > 1e-08"]
        [item] = chk.items
        assert (item["name"], item["passed"], item["tolerance"]) == ("residual", False, 1e-8)
        assert math.isnan(item["measured"])

    def test_views_agree(self):
        chk = Checks()
        chk.le("small", 0.5, 1.0)
        chk.le("large", 2.0, 1.0)
        chk.true("flag", False, measured="reason")
        chk.true("plain", True)
        chk.equal("count", 3, 4)
        chk.note("info", [1, 2])
        assert [item["name"] for item in chk.items] == list(chk.details)
        assert [item["passed"] for item in chk.items] == [True, False, False, True, False, True]
        assert chk.failures == ["large: 2.0 > 1.0", "flag: expected true", "count: 3 != 4"]
        assert chk.details == {
            "small": {"measured": 0.5, "tolerance": 1.0},
            "large": {"measured": 2.0, "tolerance": 1.0},
            "flag": {"measured": "reason"},
            "plain": {"measured": True},
            "count": {"measured": 3, "expected": 4},
            "info": {"measured": [1, 2]},
        }
        for item in chk.items:
            assert item["measured"] == chk.details[item["name"]]["measured"]
            assert item["tolerance"] == chk.details[item["name"]].get("tolerance")
        assert not chk.all_passed
        passing = Checks()
        passing.le("small", 0.5, 1.0)
        passing.note("info", 1)
        assert passing.all_passed and passing.failures == []

    @pytest.mark.parametrize("values,passed", [
        ([3.0, 2.0, 1.0], True),
        ([5.0], True),
        ([], True),
        ([3.0, math.nan, 1.0], False),
        ([3.0, 2.0, math.nan], False),
        ([2.0, 2.0, 1.0], False),
        ([1.0, 2.0], False),
    ])
    def test_decreasing_is_strict(self, values, passed):
        """Each value below the one before it; an equal neighbour or a NaN fails."""
        chk = Checks()
        chk.decreasing("sups", values)
        assert chk.all_passed is passed
        assert chk.failures == ([] if passed else ["sups: expected true"])

    def test_decreasing_records_the_values_unless_told(self):
        chk = Checks()
        chk.decreasing("from_iterator", map(abs, [-3.0, 2.0, -1.0]))
        chk.decreasing("ends", [3.0, 2.0, 1.0], measured=[3.0, 1.0])
        assert chk.details == {"from_iterator": {"measured": [3.0, 2.0, 1.0]}, "ends": {"measured": [3.0, 1.0]}}
        assert [item["tolerance"] for item in chk.items] == [None, None] and chk.all_passed
