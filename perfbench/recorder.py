"""Layer-call recorder: timing, spans, counters and the correctness tally.

A `Recorder` wraps every call the benchmark makes into an asmlab layer.
Untraced, it notes when the first layer call happened, so the wall time can
start there, and times the reference loop between layer calls (see
`reference`).  Traced, it also keeps one span per layer call in memory and
writes them out when the repetition ends.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

#: span name prefix of the benchmark's own code
BENCH = "bench"

#: at most this many failing cases are echoed to stderr per repetition
_SHOWN_FAILURES = 5

#: the reference loop is timed before a layer call once this many seconds
#: have passed since it last ran; it costs about 1 % of the run
REFERENCE_EVERY_S = 0.1


def reference() -> int:
    """A fixed loop of pure-Python integer arithmetic, independent of asmlab.

    The host this benchmark was made on changes speed by 20-45 % over tens
    of seconds, far more than any bound could absorb.  The loop's duration,
    timed between layer calls all through a repetition, measures the host's
    speed at that time, so run.py can scale the wall time to a fixed
    reference speed.  It allocates no container, so the garbage collector
    never runs inside it and the size of asmlab's heap does not reach it.
    """
    x, acc = 1, 0
    for k in range(4000):
        x = (x * 1103515245 + 12345) % 2305843009213693951
        acc ^= x >> (k & 31)
    return acc


class Recorder:
    """Spans, counters and case outcomes of one cold repetition."""

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.first_call = None
        self.reference_times = []  # seconds of each timed reference loop
        self._last_reference = None
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []  # indices of spans not yet closed
        self.counters = {}
        self.attempted = 0
        self.failed = 0

    # -- layer calls ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `<layer>.<operation>`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str):
        now = time.perf_counter()
        if self.first_call is None:
            self.first_call = self._last_reference = now
        elif now - self._last_reference >= REFERENCE_EVERY_S:
            self._time_reference(now)
        return _Span(self, name) if self.traced else _NULL_SPAN

    def _time_reference(self, start: float) -> None:
        reference()
        end = self._last_reference = time.perf_counter()
        self.reference_times.append(end - start)
        if self.traced:
            parent = self._open[-1] if self._open else None
            self.spans.append([BENCH + ".reference", start, end, parent])

    def wall_s(self, end: float) -> float:
        """Seconds from the first layer call to `end`, less the time spent
        in the reference loop."""
        return end - self.first_call - sum(self.reference_times)

    def open_root(self) -> None:
        """Open the benchmark's own span, parent of every layer span."""
        if self.traced:
            self._open.append(len(self.spans))
            self.spans.append([BENCH + ".run", time.perf_counter(), None, None])

    def close_root(self) -> None:
        if self.traced:
            self.spans[self._open.pop()][2] = time.perf_counter()

    # -- counters and cases --------------------------------------------------

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def check(self, label: str, expected, actual) -> bool:
        """Record one examined case; it fails unless actual == expected."""
        self.attempted += 1
        if expected == actual:
            return True
        self._fail(label, f"expected {_short(expected)}, got {_short(actual)}")
        return False

    def case(self, label: str, fn):
        """Run fn as one case: it returns (expected, actual), and the case
        fails if they differ or fn raises."""
        try:
            expected, actual = fn()
        except Exception:  # any error inside a case is that case's failure
            self.attempted += 1
            self._fail(label, traceback.format_exc(limit=3).strip())
            return False
        return self.check(label, expected, actual)

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= _SHOWN_FAILURES:
            print(f"FAIL [{self.run_id}] {label}: {detail}", file=sys.stderr)

    # -- results -------------------------------------------------------------

    def span_totals(self) -> dict:
        """Total and self seconds per span name.

        Self time is a span's duration minus the part its child spans cover.
        """
        total, own = {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child_time[idx])
        return {"total": total, "self": own}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def span_overhead(calls: int = 20000) -> float:
    """Seconds tracing adds to one layer call: a traced span minus an
    untraced one, each timed over `calls` empty calls."""
    cost = {}
    for traced in (True, False):
        rec = Recorder("overhead", traced)
        rec.open_root()
        began = time.perf_counter()
        for _ in range(calls):
            with rec.span(BENCH + ".empty"):
                pass
        cost[traced] = (time.perf_counter() - began) / calls
    return cost[True] - cost[False]


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._open[-1] if rec._open else None
        self.idx = len(rec.spans)
        rec.spans.append([self.name, time.perf_counter(), None, parent])
        rec._open.append(self.idx)
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.idx][2] = time.perf_counter()
        self.rec._open.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
