"""Smoke test of the benchmark itself.

Runs every workload in ``--smoke`` size, untraced and traced, and checks that
the result line names exactly the metrics of ``BENCHMARK.json`` with their
units, that every output check passes, and that the traced run leaves the
package unpatched.  Checks that an operation carrying a known defect counts
as a wrong output when it fails in any way other than the defect's symptom,
that timings are scaled to the reference host speed, and that passes repeat
within the time budget.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import slitgrid
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert result["correct"], out.getvalue()
    assert 0 <= result["failed"] < result["attempted"]
    assert not hasattr(slitgrid.grating.sin_pi, "__wrapped__")
    assert not hasattr(slitgrid.cli.main, "__wrapped__")


@pytest.mark.parametrize(
    "defect", [workloads.PHASE_NAN_DEFECT, workloads.IGNORED_FLAG_DEFECT, workloads.PARSEVAL_N1_DEFECT]
)
def test_defect_op_failing_another_way_is_a_wrong_output(defect):
    def crash():
        raise RuntimeError("boom")

    other = workloads.CliResult(3, "", "Traceback")
    ops = [
        workloads.Op("defect", lambda: other, lambda result: "exit 3", lambda result: 0, defect),
        workloads.Op("defect", crash, lambda result: None, lambda result: 0, defect),
    ]
    outcome = run.execute(ops)
    assert outcome.failed == 2
    assert not outcome.defects
    assert len(outcome.unexpected) == 2


def test_timings_scale_to_the_reference_speed():
    reference = run.Yardstick.REFERENCE_S
    outcome = run.Outcome(1)
    outcome.samples[0] = [(0.010, 2 * reference), (0.004, reference), (0.030, 3 * reference)]
    assert outcome.latencies(reference) == pytest.approx([0.005])
    assert outcome.latencies() == [0.010]


def test_passes_repeat_within_the_time_budget():
    ops = [workloads.Op("noop", lambda: None, lambda result: None, lambda result: 1)]
    outcome = run.execute(ops, seconds=0.05)
    assert run.MIN_PASSES <= outcome.passes <= run.MAX_PASSES
    assert len(outcome.samples[0]) == outcome.passes == outcome.executions
    assert run.execute(ops).passes == 1
