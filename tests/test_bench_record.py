"""scripts/bench_record.py against stub checkouts whose benchmark echoes its arguments."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# A stand-in for perfbench/run.py: wall_s = OFFSET + seed, and one op of the
# three fails on "jacobi"; a record line comes before the summary line, and
# every run is logged to runs.log in the checkout, its PYTHONPYCACHEPREFIX and
# PYTHONDONTWRITEBYTECODE to pycache.log.  With --trace 0, seed s makes s - 38
# passes whose peak RSS climbs from OFFSET + s + 10 MB; with --trace 1 it
# makes s - 40 untraced passes, climbing from 1000 MB.  The stdout digest is
# "<workload>-<seed>-SALT"; of the two ops, "steady" has the digest "fixed"
# and "salted" has "SALT" at seed 42 ("fixed" at the others) on --trace 0
# runs, and "traced-OFFSET" on --trace 1 runs.  Each run takes well under a
# second, whatever --seconds says.  Every run is also logged, as "<checkout
# directory name> <seed>", to order.log in the directory that holds the
# checkouts.  The checkout's pytest.py stands in for pytest, which the
# tier-1 run starts with ``python -m pytest`` in the checkout: it logs its
# arguments, PYTHONPATH and PYTHONPYCACHEPREFIX to tier1.log, prints a
# durations table of two tests and reports one failed and OFFSET * 10 + 9
# passed tests.
PYTEST_STUB = """
import os, sys
with open("tier1.log", "a") as log:
    log.write(f"{' '.join(sys.argv[1:])}|{os.environ.get('PYTHONPATH')}|"
              f"{os.environ.get('PYTHONPYCACHEPREFIX')}\\n")
print("....F..... [100%]")
print("=========== slowest 10 durations ===========")
print("2.50s call     tests/test_a.py::test_slow[a b]")
print("0.30s setup    tests/test_b.py::test_fixture")
print()
print("(8 durations < 0.005s hidden.  Use -vv to show these durations.)")
print(f"1 failed, {int(OFFSET * 10) + 9} passed in 2.80s")
sys.exit(1)
"""
STUB = """
import argparse, json, os
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
with open("runs.log", "a") as log:
    log.write(f"{a.workload} {a.seed} {a.trace} {a.seconds}\\n")
with open(os.path.join(os.path.dirname(os.getcwd()), "order.log"), "a") as log:
    log.write(f"{os.path.basename(os.getcwd())} {a.seed}\\n")
with open("pycache.log", "a") as log:
    log.write(f"{os.environ.get('PYTHONPYCACHEPREFIX')} "
              f"{os.environ.get('PYTHONDONTWRITEBYTECODE')}\\n")
if a.trace == "1":
    metrics = {"haar.sample.calls": {"value": OFFSET + 10, "unit": "count"}}
else:
    metrics = {"wall_s": {"value": OFFSET + int(a.seed), "unit": "s"}}
failed = int(a.workload == "jacobi")
seed, traced = int(a.seed), a.trace == "1"
first = 1000 if traced else OFFSET + seed + 10
count = seed - (40 if traced else 38)
passes = [{"traced": False, "peak_rss_mb": first + i} for i in range(count)]
if traced:
    passes = [q for p in passes for q in (p, {"traced": True, "peak_rss_mb": 2000})]
salted = "traced-OFFSET" if traced else "SALT" if seed == 42 else "fixed"
ops = [{"op": "steady", "exit": 0, "sha256": "fixed"},
       {"op": "salted", "exit": 0, "sha256": salted}]
print(json.dumps({"workload": a.workload, "seed": seed, "trace": int(a.trace),
                  "passes": passes, "ops": ops,
                  "ops_sha256": f"{a.workload}-{seed}-SALT"}))
print(json.dumps({"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}))
"""


def make_checkout(root: Path, offset: float, salt: str = "same", stub: str = STUB) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        stub.replace("OFFSET", repr(offset)).replace("SALT", salt)
    )
    (root / "pytest.py").write_text(PYTEST_STUB.replace("OFFSET", repr(offset)))
    return root


def test_medians_per_column_and_interleaved_order(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = make_checkout(tmp_path / "parent", 0.0)
    change = make_checkout(tmp_path / "change", 0.5)
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main([f"parent={parent}", f"change={change}", "--pr", "7",
                              "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["pr"] == 7 and result["seeds"] == [41, 42, 43]
    assert set(result["columns"]) == {"parent", "change"}
    assert set(result["workloads"]) == {"identity", "moments", "jacobi"}
    moments = result["workloads"]["moments"]
    assert moments["parent"]["metrics"] == {"wall_s": 42.0, "haar.sample.calls": 10.0}
    assert moments["change"]["metrics"] == {"wall_s": 42.5, "haar.sample.calls": 10.5}
    assert moments["change"]["runs"] == 6 and moments["change"]["correct"]
    assert moments["parent"]["fail_ratio"] == 0.0
    assert result["workloads"]["jacobi"]["parent"]["fail_ratio"] == pytest.approx(1 / 3)
    # pass counts and first- and last-pass RSS come from the --trace 0 runs
    # only: seed s makes s - 38 passes, whose peaks climb from s + 10 MB
    assert moments["parent"]["untraced_passes"] == 4
    assert moments["parent"]["first_pass_peak_rss_mb"] == 52.0
    assert moments["change"]["first_pass_peak_rss_mb"] == 52.5
    assert moments["parent"]["last_pass_peak_rss_mb"] == 55.0
    assert moments["change"]["last_pass_peak_rss_mb"] == 55.5
    # the stdout digest of every seed, and one flag for the pair of columns
    assert moments["parent"]["ops_sha256"] == {
        str(seed): f"moments-{seed}-same" for seed in (41, 42, 43)
    }
    assert all(result["workloads"][w]["same_stdout"] is True for w in result["workloads"])
    # per-op digests come from the --trace 0 runs only
    assert all(result["workloads"][w]["differing_ops"] == [] for w in result["workloads"])
    # both traces at every seed, at the benchmark's run length, in each checkout
    log = (parent / "runs.log").read_text().split("\n")[:-1]
    assert log[:6] == [f"identity {seed} {trace} 30" for seed in (41, 42, 43)
                       for trace in (0, 1)]
    # one fresh bytecode cache per column, written to, outside both checkouts
    # and removed at the end
    prefixes = [set((checkout / "pycache.log").read_text().split("\n")[:-1])
                for checkout in (parent, change)]
    assert [len(p) for p in prefixes] == [1, 1] and prefixes[0] != prefixes[1]
    for (line,) in prefixes:
        prefix, dont_write = line.split(" ")
        assert dont_write == "None"
        path = Path(prefix)
        assert path.is_absolute() and not path.exists()
        assert not path.is_relative_to(parent) and not path.is_relative_to(change)
    # one tier-1 run per column, in its checkout, with src on PYTHONPATH and
    # the column's bytecode cache
    for name, checkout, passed in (("parent", parent, 9), ("change", change, 14)):
        tier1 = result["columns"][name]["tier1"]
        assert tier1["wall_s"] > 0 and (tier1["passed"], tier1["failed"]) == (passed, 1)
        assert tier1["slowest"] == [
            {"test": "tests/test_a.py::test_slow[a b]", "phase": "call", "s": 2.5},
            {"test": "tests/test_b.py::test_fixture", "phase": "setup", "s": 0.3},
        ]
        (line,) = (checkout / "tier1.log").read_text().split("\n")[:-1]
        argv, pythonpath, prefix = line.split("|")
        assert argv == "-q --continue-on-collection-errors --durations=10"
        assert pythonpath.split(os.pathsep)[0] == "src"
        assert {f"{prefix} None"} == set((checkout / "pycache.log").read_text().split("\n")[:-1])


def test_tier1_without_a_summary_raises(tmp_path):
    checkout = make_checkout(tmp_path / "broken", 0.0)
    (checkout / "pytest.py").write_text("raise SystemExit(4)\n")
    with pytest.raises(RuntimeError, match="tier-1 exited 4 without a summary"):
        bench_record.run_tier1(checkout, tmp_path / "pycache")


def test_same_stdout_flag(tmp_path):
    parent = make_checkout(tmp_path / "parent", 0.0, salt="a")
    change = make_checkout(tmp_path / "change", 0.5, salt="b")
    twin = make_checkout(tmp_path / "twin", 0.5, salt="a")
    out = tmp_path / "BENCH_8.json"
    assert bench_record.main([f"parent={parent}", f"change={change}", "--pr", "8",
                              "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert [workloads[w]["same_stdout"] for w in workloads] == [False] * 3
    assert workloads["jacobi"]["change"]["ops_sha256"]["43"] == "jacobi-43-b"
    # the op whose own digest differs at one seed of the untraced runs
    assert [workloads[w]["differing_ops"] for w in workloads] == [["salted"]] * 3
    # the flag and the op list compare a pair; three columns get neither
    assert bench_record.main([f"parent={parent}", f"change={change}", f"twin={twin}",
                              "--pr", "8", "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert all("same_stdout" not in workloads[w] for w in workloads)
    assert all("differing_ops" not in workloads[w] for w in workloads)


def test_failed_run_raises(tmp_path):
    checkout = make_checkout(tmp_path / "broken", 0.0)
    (checkout / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_record.run_benchmark(checkout, "moments", 41, 0, tmp_path / "pycache")


def test_rejects_checkout_without_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main([f"parent={tmp_path}", "--pr", "1"])


# the claim's stub: wall_s = seed + OFFSET at even seeds and seed - OFFSET at
# odd ones, min_digits = 15 - OFFSET, and a per-layer count the claim drops
CLAIM_STUB = STUB.replace(
    'metrics = {"wall_s": {"value": OFFSET + int(a.seed), "unit": "s"}}',
    'metrics = {"wall_s": {"value": int(a.seed) + OFFSET * (-1) ** int(a.seed), "unit": "s"}, '
    '"min_digits": {"value": 15 - OFFSET, "unit": "digits"}, '
    '"haar.sample.calls": {"value": 1, "unit": "count"}}',
)


def test_claim_runs_alternating_pairs_and_counts_wins(tmp_path):
    assert CLAIM_STUB != STUB
    parent = make_checkout(tmp_path / "parent", 0.0, stub=CLAIM_STUB)
    change = make_checkout(tmp_path / "change", 0.5, stub=CLAIM_STUB)
    out = tmp_path / "BENCH_9.json"
    out.write_text(json.dumps({"pr": 9, "workloads": "kept"}))
    assert bench_record.main([f"parent={parent}", f"change={change}", "--pr", "9",
                              "--out", str(out), "--claim", "moments",
                              "--seeds", "44-46,50"]) == 0
    result = json.loads(out.read_text())
    # the claim goes beside what the file held
    assert result["pr"] == 9 and result["workloads"] == "kept"
    claim = result["claim"]
    assert (claim["workload"], claim["seeds"], claim["seconds"]) == ("moments",
                                                                     [44, 45, 46, 50], 30)
    assert set(claim["columns"]) == {"parent", "change"}
    assert claim["correct"] and claim["failed_ops"] == 0 and claim["differing_ops"] == []
    # one untraced run per seed and column, the pair's order flipping per seed
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 44", "change 44", "change 45", "parent 45",
                     "parent 46", "change 46", "change 50", "parent 50"]
    assert (parent / "runs.log").read_text().split("\n")[:-1] == [
        f"moments {seed} 0 30" for seed in (44, 45, 46, 50)
    ]
    # the end-to-end metrics of BENCHMARK.json and the first pass's peak RSS
    metrics = claim["metrics"]
    assert set(metrics) == {"wall_s", "min_digits", "first_pass_peak_rss_mb"}
    wall = metrics["wall_s"]
    assert wall["better"] == "lower"
    assert wall["parent"] == {"values": [44, 45, 46, 50], "median": 45.5, "q1": 44.75,
                              "q3": 47.0}
    assert wall["change"]["values"] == [44.5, 44.5, 46.5, 50.5]
    assert wall["wins"] == {"parent": 3, "change": 1}
    assert metrics["min_digits"]["better"] == "higher"
    assert metrics["min_digits"]["wins"] == {"parent": 4, "change": 0}
    # seed s makes s - 38 passes, whose peaks climb from OFFSET + s + 10 MB
    rss = metrics["first_pass_peak_rss_mb"]
    assert rss["change"]["values"] == [54.5, 55.5, 56.5, 60.5]
    assert rss["wins"] == {"parent": 4, "change": 0}


def test_claim_names_the_ops_whose_stdout_differs(tmp_path):
    parent = make_checkout(tmp_path / "parent", 0.0, salt="a")
    change = make_checkout(tmp_path / "change", 0.0, salt="b")
    out = tmp_path / "BENCH_9.json"
    assert bench_record.main([f"parent={parent}", f"change={change}", "--pr", "9",
                              "--out", str(out), "--claim", "jacobi", "--seeds", "41-42"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["differing_ops"] == ["salted"]
    # one op of three fails on every jacobi run
    assert claim["failed_ops"] == 4
    assert claim["metrics"]["wall_s"]["wins"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("twin, argv", [
    (False, ["--claim", "moments"]),
    (False, ["--seeds", "44-53"]),
    (False, ["--claim", "moments", "--seeds", "44"]),
    (True, ["--claim", "moments", "--seeds", "44-45"]),
])
def test_claim_refuses_incomplete_options(tmp_path, twin, argv):
    # a claim needs both options, two seeds or more, and two columns
    parent = make_checkout(tmp_path / "parent", 0.0)
    change = make_checkout(tmp_path / "change", 0.5)
    columns = [f"parent={parent}", f"change={change}"] + [f"twin={change}"] * twin
    with pytest.raises(SystemExit):
        bench_record.main([*columns, "--pr", "9", "--out", str(tmp_path / "out.json"), *argv])
    assert not (tmp_path / "order.log").exists()


def test_claim_refuses_another_changes_file(tmp_path):
    parent = make_checkout(tmp_path / "parent", 0.0)
    change = make_checkout(tmp_path / "change", 0.5)
    out = tmp_path / "BENCH_8.json"
    out.write_text(json.dumps({"pr": 8}))
    with pytest.raises(SystemExit):
        bench_record.main([f"parent={parent}", f"change={change}", "--pr", "9",
                           "--out", str(out), "--claim", "moments", "--seeds", "44-45"])
    assert json.loads(out.read_text()) == {"pr": 8}
