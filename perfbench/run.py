"""asmlab benchmark: cold, layered, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports asmlab from `src/`).
Each repetition runs in a fresh interpreter (rep.py), because asmlab's
caches are process-wide and unbounded and a warm repeat would time cache
hits.  Repetitions of the same seeded inputs follow each other for about S
seconds (the last one may run over by half a repetition); each metric is the
median over them.

Times are in reference seconds: a measured time scaled by REFERENCE_S over
the duration of a fixed pure-Python loop (recorder.reference) timed at the
same time.  The host the benchmark was made on drifts in speed by 20-45 %
over minutes, which moves raw times of the same code by more than any bound
allows; the ratio to the loop does not drift with it.  The wall time of a
repetition is scaled by the mean loop time measured between its layer calls;
its set-up time by the mean of the first loops, timed in its first second.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
traces every repetition and reports the per-layer metrics: span totals and
self time per layer, the tracing overhead (spans times the in-process cost
of one traced span over an untraced one), the raw wall time and the loop's
duration, the CLI processes' peak memory, and the exact counters.  Spans
are written to .perfbench/spans-<run>.jsonl.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  The exit code is non-zero if any case failed, no case was
examined, a repetition crashed, or the checkout holds no asmlab source.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a run must exit within 180 s: no repetition starts after LAST_START_S,
#: and every process is stopped REP_TIMEOUT_S after the run began
LAST_START_S = 120
REP_TIMEOUT_S = 170
#: seconds the reference loop takes at the reference speed; the host this
#: benchmark was made on runs it in 0.9-2.4 ms
REFERENCE_S = 0.0012


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_rep(workload: str, seed: int, mode: str, run_id: str, deadline: float) -> dict:
    """One repetition in its own process group, so a timeout also stops the
    asmlab processes and pool workers it started.  Adds `scale`, the factor
    from its raw wall time to reference seconds, and its set-up time in
    reference seconds."""
    spawned = time.perf_counter()
    timeout = deadline - spawned
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), mode, repr(spawned), run_id],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"repetition {run_id} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {run_id} exited {proc.returncode}")
    rep = json.loads(out.decode().splitlines()[-1])
    rep["scale"] = REFERENCE_S / rep["reference_s"]
    rep["setup_s"] *= REFERENCE_S / rep["setup_reference_s"]
    return rep


def layer_metrics(reps: list, attempted: int, failed: int) -> dict:
    """Every per-layer value the traced repetitions give, by metric name."""
    values = {}
    for key in ("total", "self"):
        names = {name for rep in reps for name in rep["spans"][key]}
        for name in names:
            median = statistics.median(rep["spans"][key].get(name, 0.0) * rep["scale"] for rep in reps)
            if key == "total":
                values[name + "_s"] = median
            else:
                layer = name.split(".")[0] + ".self_s"
                values[layer] = values.get(layer, 0.0) + median
    values.update(reps[0]["counters"])
    values.update(reps[0]["caches"])
    values["cli.peak_rss_mb"] = max(rep["cli_peak_rss_mb"] for rep in reps)
    values["bench.trace_overhead_s"] = statistics.median(rep["trace_overhead_s"] * rep["scale"] for rep in reps)
    values["bench.wall_raw_s"] = statistics.median(rep["wall_s"] for rep in reps)
    values["bench.reference_loop_s"] = statistics.median(rep["reference_s"] for rep in reps)
    values["bench.failed_frac"] = failed / attempted
    return values


def main() -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "asmlab", "__init__.py")):
        print(f"error: no asmlab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + REP_TIMEOUT_S
    mode = "traced" if args.trace else "plain"
    reps, durations, problems = [], [], []
    while True:
        run_id = f"{args.workload}-s{args.seed}-r{len(reps)}-{mode}"
        began = time.perf_counter()
        try:
            rep = run_rep(args.workload, args.seed, mode, run_id, deadline)
        except (RuntimeError, ValueError, IndexError, KeyError) as exc:
            problems.append(str(exc))
            break
        reps.append(rep)
        durations.append(time.perf_counter() - began)
        if rep["failed"] or not rep["attempted"]:
            problems.append(f"{run_id}: {rep['failed']} of {rep['attempted']} cases failed")
            break
        if (rep["counters"], rep["caches"]) != (reps[0]["counters"], reps[0]["caches"]):
            problems.append(f"{run_id}: counters differ from the first repetition of the same inputs")
            break
        elapsed = time.perf_counter() - start
        # stop when another repetition would most likely end past S seconds
        if elapsed + statistics.median(durations) / 2 > args.seconds or elapsed > LAST_START_S:
            break

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1), "metrics": {}}))
        return 1

    if args.trace:
        available = layer_metrics(reps, attempted, failed)
        wanted = bench["per_layer"]
    else:
        available = {
            "wall_s": statistics.median(rep["wall_s"] * rep["scale"] for rep in reps),
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        wanted = bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in available:
            metrics[name] = {"value": available[name], "unit": metric["unit"]}
        elif "_cache_" not in name:  # a layer this workload never calls
            metrics[name] = {"value": 0, "unit": metric["unit"]}
    print(
        f"{args.workload} seed={args.seed}: {len(reps)} repetitions in {time.perf_counter() - start:.1f} s; "
        "raw wall_s, reference loop ms: "
        + ", ".join(f"{rep['wall_s']:.3f} {rep['reference_s'] * 1e3:.3f}" for rep in reps),
        file=sys.stderr,
    )
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
