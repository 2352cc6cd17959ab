"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --seeds 10 [--workload NAME ...] [--trace] [--out FILE]

For each workload, runs run.py once per seed (1..N) and reports, per
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them.  With --trace it also makes
one traced run per workload (seed 1) and keeps its per-layer metrics.  The
record carries nproc, the Python version and the platform, since every
figure depends on them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        timeout=200,
    )
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.decode()[-2000:]}")
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main() -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        began = time.perf_counter()
        runs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in record["seeds"]]
        entry = {"attempted": [r["attempted"] for r in runs], "end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
        if args.trace:
            traced = one_run(workload, 1, spec["run_seconds"], 1)
            entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        line = ", ".join(
            f"{name} {s['median']:.4g} spread {s['spread']:.3f}/{bounds[name]}"
            for name, s in entry["end_to_end"].items()
        )
        print(f"{workload} ({time.perf_counter() - began:.0f} s): {line}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
