"""Tests of the benchmark itself: reference checks, tracing and its contract.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import spans
import workloads
import worker

sys.path.insert(0, str(run.SRC))

# `ocft ginibre-check --lambda 1 --gamma 1 --samples 200000 --seed 7` at N = 2
# and N = 4, as the CLI printed them when this benchmark was written
GINIBRE_PASSED = (
    '{"command": "ginibre-check", "n": 2, "lambda": {"re": 1.0, "im": 0.0}, '
    '"gamma": {"re": 1.0, "im": 0.0}, "seed": 7, '
    '"closed_ratio": {"re": 2.5, "im": 0.0}, '
    '"pipeline_ratio": {"re": 2.499999999996257, "im": 0.0}, '
    '"pipeline_rel_err": 1.497113544246531e-12, '
    '"mc_ratio": {"re": 2.5203888634443765, "im": 0.0}, '
    '"mc_std_error": 0.011943577692127923, "samples": 200000, '
    '"mc_z_score": 1.7070984900793107, "threshold": 3.0, "passed": true}\n'
)
GINIBRE_FAILED = (
    '{"command": "ginibre-check", "n": 4, "lambda": {"re": 1.0, "im": 0.0}, '
    '"gamma": {"re": 1.0, "im": 0.0}, "seed": 7, '
    '"closed_ratio": {"re": 2.708333333333333, "im": 0.0}, '
    '"pipeline_ratio": {"re": 2.708347728565605, "im": 0.0}, '
    '"pipeline_rel_err": 5.315162685038699e-06, '
    '"mc_ratio": {"re": 2.714132334035663, "im": 0.0}, '
    '"mc_std_error": 0.022577673388142375, "samples": 200000, '
    '"mc_z_score": 0.2568466910933104, "threshold": 3.0, "passed": false}\n'
)

SMALL_OPS = [
    ["verify-cft", "--variant", "son", "--colors", "2", "--flavors", "1",
     "--samples", "2000"],
    ["verify-cft", "--variant", "fermionic", "--colors", "2", "--flavors", "2",
     "--samples", "2000"],
    ["verify-cft", "--variant", "bosonic", "--colors", "6", "--flavors", "2",
     "--samples", "500", "--probes", "2"],
    ["moment", "--n", "2", "--m", "1", "--z", "1.3", "--g", "0.5,0.8",
     "--method", "pfaffian"],
    ["moment", "--n", "2", "--m", "2", "--z", "1.0", "--g", "1.0,1.0",
     "--method", "pfaffian"],
    ["moment", "--n", "2", "--m", "1", "--z", "1.3", "--g", "0.5,0.8",
     "--method", "mc", "--samples", "2000"],
    ["jacobi", "--n", "2", "--a", "1", "--b", "2", "--lambda", "1.5", "--gamma", "1.2",
     "--method", "pfaffian"],
    ["ginibre-check", "--n", "2", "--lambda", "1", "--gamma", "1", "--samples", "2000"],
]
SMALL_OPS = [argv + ["--workers", "1", "--seed", "5"] for argv in SMALL_OPS]


def _ginibre_4():
    (op,) = [op for op in workloads.build("jacobi", 0) if op.name == "ginibre-4"]
    return op


def test_checker_marks_exit_3_ginibre_as_failed():
    op = _ginibre_4()
    result = {"exit": 3, "stdout": GINIBRE_FAILED, "error": None}
    verdict = checks.check(op, result, checks.parse(result), None)
    assert verdict.failed
    assert not verdict.wrong  # the program's own verdict, not a wrong number
    assert verdict.digits is not None and 5.2 < verdict.digits < 5.3


def test_checker_passes_a_passing_ginibre_record():
    op = _ginibre_4()
    result = {"exit": 0, "stdout": GINIBRE_PASSED, "error": None}
    verdict = checks.check(op, result, checks.parse(result), None)
    assert not verdict.failed and not verdict.wrong


def test_checker_fails_ops_that_raise_or_print_nothing():
    op = _ginibre_4()
    for result in (
        {"exit": None, "stdout": "", "error": "RuntimeError: boom"},
        {"exit": 2, "stdout": "", "error": None},
        {"exit": 0, "stdout": "not json", "error": None},
    ):
        verdict = checks.check(op, result, checks.parse(result), None)
        assert verdict.failed and verdict.wrong


def test_traced_self_times_fit_in_the_traced_wall_time():
    from ocft import cli, haar

    originals = (cli.run, haar._SAMPLERS["O"])
    plain = worker.run_pass(SMALL_OPS, trace=False)
    traced = worker.run_pass(SMALL_OPS, trace=True)
    assert (cli.run, haar._SAMPLERS["O"]) == originals  # wrappers removed

    stats, top_level = spans.layer_stats(traced["spans"])
    assert sum(s["self_s"] for s in stats.values()) <= traced["wall_s"]
    assert top_level <= traced["wall_s"]
    values, unmeasured = spans.layer_metrics(traced["spans"], traced["wall_s"])
    assert unmeasured == []
    assert 0.0 < values["trace.covered"] <= 1.0
    assert stats["cli"]["calls"] == len(SMALL_OPS)
    # SO(N) draws go through the O(N) sampler once, not twice
    assert stats["haar.sample"]["draws"] == 2000 + 2000 + 500 + 2000
    for name in ("cft.lhs", "cft.bosonic_z", "grassmann.gmul", "linalg.pfaffian",
                 "moments.pfaffian_batch", "moments.integral", "haar.mc_expectation",
                 "jacobi.pfaffian_route", "jacobi.quadrature", "jacobi.ginibre_mc"):
        assert stats[name]["calls"] > 0, name

    ops = [workloads.Op(f"op{i}", "ok", tuple(a)) for i, a in enumerate(SMALL_OPS)]
    ops[1] = workloads.Op("fermionic-2-2", "fermionic", tuple(SMALL_OPS[1]))
    checked = run.verify(ops, [plain, traced])
    assert checked["nondeterministic"] == []  # tracing leaves stdout byte-identical
    assert checked["correct"] and checked["failed"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == spans.PER_LAYER


def test_a_layer_the_wrappers_cannot_reach_is_reported_unmeasured(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "cft.lhs", [("ocft.cft", "no_such_function")])
    recorder = spans.Recorder()
    with spans.recording(recorder):
        pass
    assert recorder.unmeasured == {"cft.lhs"}
    _, missing = spans.layer_metrics([], 1.0, recorder.unmeasured)
    assert missing == ["cft.lhs.calls", "cft.lhs.samples", "cft.lhs.monomials",
                       "cft.lhs.self_s"]
