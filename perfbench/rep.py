"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py; prints one JSON object with the repetition's raw
timings, the mean duration of the reference loop timed through it and over
its first second, its counters and its case tally.  Set-up runs from the
parent's spawn time to the first layer call (interpreter start, `import
asmlab`, seeded inputs); the wall time runs from the first layer call to the
last check, less the time spent in the reference loop.  Both clocks are
`time.perf_counter`, which is system-wide (CLOCK_MONOTONIC) on Linux.

    python3 perfbench/rep.py WORKLOAD SEED MODE SPAWNED RUN_ID

MODE is `plain` or `traced`.
"""

import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the paths above)
from recorder import Recorder, span_overhead  # noqa: E402

#: set-up is scaled by the reference loops timed closest after it: the first
#: ones, about one second into the repetition
SETUP_REFERENCE_LOOPS = 10


def main(argv) -> int:
    name, seed, mode, spawned, run_id = argv
    make_inputs, run = workloads.WORKLOADS[name]
    inputs = make_inputs(random.Random(int(seed)))
    rec = Recorder(run_id, mode == "traced")
    rec.open_root()
    run(rec, inputs)
    end = time.perf_counter()
    rec.close_root()
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest asmlab
    # process this one started (0 if it started none)
    usage = {who: resource.getrusage(who).ru_maxrss / 1024 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
    result = {
        "setup_s": rec.first_call - float(spawned),
        "wall_s": rec.wall_s(end),
        "reference_s": statistics.mean(rec.reference_times),
        "setup_reference_s": statistics.mean(rec.reference_times[:SETUP_REFERENCE_LOOPS]),
        "peak_rss_mb": usage[resource.RUSAGE_SELF],
        "cli_peak_rss_mb": usage[resource.RUSAGE_CHILDREN],
        "attempted": rec.attempted,
        "failed": rec.failed,
        "counters": rec.counters,
        "caches": workloads.cache_stats(),
    }
    if rec.traced:
        result["spans"] = rec.span_totals()
        result["trace_overhead_s"] = len(rec.spans) * span_overhead()
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        rec.write_spans(os.path.join(workloads.OUT_DIR, f"spans-{run_id}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
