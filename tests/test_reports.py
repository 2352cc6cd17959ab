"""Verification reports: case counting and the rendering of big integers."""

import json
import sys

from asmlab import VerificationReport
from asmlab.reports import decimal


def unlimited_str(value: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_is_str_without_the_digit_limit():
    for value in (0, 7, -7, 10**640 - 1, 10**640, 10**5000 + 1, -(10**5000 + 1), 3**20000):
        assert decimal(value) == unlimited_str(value)


def test_empty_report_fails():
    report = VerificationReport("identity", "n=0")
    assert report.cases == 0
    assert not report.passed() and report.status == "fail"
    obj = report.to_json_obj()
    assert obj["cases"] == 0 and obj["status"] == "fail" and obj["counterexamples"] == []


def test_report_counts_every_case():
    report = VerificationReport("identity", "n=1")
    report.record({"i": 1}, 5, 5)
    assert report.cases == 1 and report.status == "pass"
    report.record({"i": 2}, 10**5000, 10**5000 + 1)
    obj = json.loads(report.to_json())
    assert obj["cases"] == 2 and obj["status"] == "fail"
    (bad,) = obj["counterexamples"]
    assert bad["input"] == {"i": "2"}
    assert bad["actual"] == unlimited_str(10**5000 + 1)
