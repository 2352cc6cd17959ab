"""Tests of the benchmark itself (not part of the asmlab suite).

    python3 -m pytest -q perfbench

They check that the correctness gate counts injected mismatches, crashes
and non-zero CLI exits as failures, that counters repeat exactly for a
seed, and that `--jobs 2 table` prints the same bytes as the serial table.
Injected mismatches live here, in patched copies, never in src/.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import recorder  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder, span_overhead  # noqa: E402


def rep(workload: str, seed: int, root: str = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "rep.py"), workload, str(seed), "traced",
         repr(time.perf_counter()), f"test-{workload}-{seed}"],
        cwd=root,
        capture_output=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_self_time_subtracts_children():
    rec = Recorder("t", traced=True)
    rec.open_root()
    with rec.span("cli.outer"):
        rec.call("objects.inner", time.sleep, 0.02)
    rec.close_root()
    spans = rec.span_totals()
    assert spans["total"]["objects.inner"] >= 0.02
    assert spans["self"]["cli.outer"] < spans["total"]["cli.outer"] - 0.015
    assert spans["self"]["objects.inner"] == spans["total"]["objects.inner"]
    assert [s[3] for s in rec.spans] == [None, 0, 1]


def test_untraced_recorder_keeps_no_spans():
    rec = Recorder("t", traced=False)
    rec.open_root()
    assert rec.call("objects.x", len, "abc") == 3
    rec.close_root()
    assert rec.spans == [] and rec.first_call is not None


def test_reference_loop_is_timed_between_calls_and_left_out_of_wall(monkeypatch):
    monkeypatch.setattr(recorder, "REFERENCE_EVERY_S", 0.0)
    rec = Recorder("t", traced=True)
    rec.open_root()
    for _ in range(3):
        rec.call("objects.x", time.sleep, 0.005)
    end = time.perf_counter()
    rec.close_root()
    # the first call starts the clock; each later one times the loop first
    assert len(rec.reference_times) == 2 and min(rec.reference_times) > 0
    assert rec.wall_s(end) == pytest.approx(end - rec.first_call - sum(rec.reference_times))
    assert rec.span_totals()["total"]["bench.reference"] == pytest.approx(sum(rec.reference_times))


def test_tracing_costs_more_than_an_untraced_call():
    assert 0 < span_overhead(2000) < 1e-3


def test_injected_mismatch_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "a_nij_direct", lambda n, i, j: -1)
    rec = Recorder("t", traced=False)
    workloads.closed_form_table(rec, 6, [(1, 2), (3, 3)])
    assert (rec.attempted, rec.failed) == (2, 2)


def test_exception_in_a_case_is_a_failure(monkeypatch):
    def broken(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(workloads, "count_trapezoids", broken)
    rec = Recorder("t", traced=False)
    workloads.extraction_cells(rec, 3, [((1,), ()), ((), (2,))])
    assert (rec.attempted, rec.failed) == (2, 2)


def test_nonzero_cli_exit_is_a_failure():
    rec = Recorder("t", traced=False)
    rec.case("usage error", lambda: (True, workloads.run_cli(rec, "cli.count", ["count", "trapezoids"])))
    assert (rec.attempted, rec.failed) == (1, 1)
    assert rec.counters["cli.nonzero_exits"] == 1


def test_gamma_inputs_stay_in_the_identity_domain():
    specs = workloads.expand_inputs(random.Random(3))["gamma"]
    assert len(specs) == len(workloads.GAMMA_ORDERS) * workloads.GAMMA_PER_ORDER
    assert all(workloads.gamma_domain_ok(n, s, i) for n, _, s, i in specs)


def test_table_jobs2_is_byte_identical():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "asmlab.cli", *jobs, "table", "--which", "a_nij", "--n", "20"],
            cwd=ROOT, env=env, capture_output=True, timeout=60, check=True,
        ).stdout
        for jobs in ([], ["--jobs", "2"])
    ]
    assert outs[0] and outs[0] == outs[1]


EXPECTED_COUNTS = {
    "extract-expand": {
        "polynomials.alpha_terms": 15082,
        "coefficients.extract_calls": 79 + 4 * workloads.EXTRACT_SAMPLE_3 + 5 * workloads.EXTRACT_SAMPLE_4,
        "coefficients.table_cells": 5 * 625,
    },
    "oracle-cli": {
        "enumeration.triangles_enumerated": 218348,
        "objects.triangles_mapped": 7436,
        "closed_forms.cells": 3600,
        "cli.nonzero_exits": 0,
    },
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_counters_repeat_exactly_for_a_seed(workload):
    first, second = rep(workload, 11), rep(workload, 11)
    assert first["failed"] == 0 and first["attempted"] > 0
    assert (first["attempted"], first["counters"], first["caches"]) == (
        second["attempted"], second["counters"], second["caches"],
    )
    assert first["reference_s"] > 0
    for name, value in EXPECTED_COUNTS[workload].items():
        assert first["counters"][name] == value
    # only oracle-cli starts asmlab processes, whose peak is kept apart
    assert (first["cli_peak_rss_mb"] > 0) == (workload == "oracle-cli")


def _copy_checkout(dest, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(root, workload="oracle-cli"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, timeout=180,
    )


def test_run_without_source_fails(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0 and not proc.stdout


def test_run_with_a_wrong_program_fails(tmp_path):
    """A defect planted in a copy of the program fails the run."""
    _copy_checkout(tmp_path)
    path = tmp_path / "src" / "asmlab" / "closed_forms.py"
    text = path.read_text()
    planted = text.replace("    return value.numerator\n\n\ndef check_relation", "    return value.numerator + 1\n\n\ndef check_relation")
    assert planted != text
    path.write_text(planted)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
