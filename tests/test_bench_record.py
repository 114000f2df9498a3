"""scripts/bench_record.py against stub checkouts whose benchmark echoes its arguments."""

import importlib.util
import json
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
# second, whatever --seconds says.
STUB = """
import argparse, json, os
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
with open("runs.log", "a") as log:
    log.write(f"{a.workload} {a.seed} {a.trace} {a.seconds}\\n")
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


def make_checkout(root: Path, offset: float, salt: str = "same") -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB.replace("OFFSET", repr(offset)).replace("SALT", salt)
    )
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
