"""Structured pass/fail records for identity checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: str() refuses integers longer than sys.get_int_max_str_digits() digits;
#: Python accepts no nonzero limit below 640, so this many digits always pass
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


@dataclass
class VerificationReport:
    """Outcome of one identity check over a parameter range.

    Every examined case goes through `record`.  `counterexamples` holds
    (input, expected, actual) triples; the check passes iff it examined at
    least one case and none of them failed.
    """

    identity: str
    parameter_range: str
    counterexamples: list = field(default_factory=list)
    cases: int = 0

    @property
    def status(self) -> str:
        return "pass" if self.passed() else "fail"

    def passed(self) -> bool:
        return self.cases > 0 and not self.counterexamples

    def record(self, case, expected, actual) -> None:
        self.cases += 1
        if expected != actual:
            self.counterexamples.append((case, expected, actual))

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "range": self.parameter_range,
            "status": self.status,
            "cases": self.cases,
            "counterexamples": [
                {"input": _plain(case), "expected": _plain(exp), "actual": _plain(act)}
                for case, exp, act in self.counterexamples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def decimal(value: int) -> str:
    """Decimal text of an integer of any size, digit for digit what str()
    gives where str() accepts it."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    chunks = []  # lowest chunk first
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(value))
    return sign + "".join(reversed(chunks))


def _plain(value):
    """JSON-safe rendering; big integers become decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return decimal(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)
