"""Record benchmark medians for one change as ``BENCH_<pr>.json``.

Runs ``python3 perfbench/run.py`` in each given checkout, for the three
workloads at seeds 41-43 and the benchmark's 30 s run length, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics), and writes the median of every metric over the seeds, one column
per checkout:

    python3 scripts/bench_record.py --pr 9 parent=../parent change=.

Runs are interleaved so that host drift hits every column alike: for each
(workload, seed, trace) the checkouts run one after another, and the order
of the checkouts flips from one seed to the next.  Each column records the
checkout's commit (``git describe --always --dirty``, where it is a git
checkout), and each workload the failed-op share and whether every run was
correct.  From the run records of the ``--trace 0`` runs, which give the
end-to-end metrics, each column also keeps the median number of untraced
passes and the median ``peak_rss_mb`` of the first and of the last pass: a
pass's ``ru_maxrss`` includes the memory of the runner that spawned it, which
grows with the passes it holds, so a faster checkout can report a higher
``peak_rss_mb`` for no change in its own memory, and the gap between the two
shows how much of it is the runner's.  They also give each
column's ``ops_sha256`` per seed, the digest of every op's stdout; with two
columns, each workload gets a ``same_stdout`` flag, true when the two
columns' digests agree at every seed, and ``differing_ops``, the names of
the ops whose own stdout digest (from the run record's ``ops`` list)
differs between the two columns at any seed.  Each column also records one
run of the tier-1 suite in its checkout, ``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``, under
``"tier1"``: its wall time, its passed and failed counts (errors count as
failed) and its ten slowest tests (``--durations=10``).

With ``--claim WORKLOAD --seeds 44-53`` it runs a claim instead: one
``--trace 0`` run of the workload per seed in each of two checkouts, at the
same run length, the order of the pair flipping from one seed to the next,
and records, for every end-to-end metric of ``BENCHMARK.json`` and for the
first pass's ``peak_rss_mb``, each column's values, median and quartiles and
the number of seeds at which each column was better.  The claim goes under the key
``"claim"`` of the output file, beside whatever else the file holds:

    python3 scripts/bench_record.py --pr 9 --claim moments --seeds 44-53 \
        parent=../parent change=.

Each column compiles its sources afresh: its runs get their own temporary
``PYTHONPYCACHEPREFIX``, made outside the checkouts and removed at the end,
which perfbench's workers inherit, so no checkout is measured on the stale
bytecode of its ``__pycache__`` directories.  ``PYTHONDONTWRITEBYTECODE`` is
dropped from their environment, so the first run fills the cache and every
later interpreter of the column reads it, as it would read ``__pycache__``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("identity", "moments", "jacobi")
SEEDS = (41, 42, 43)
SECONDS = 30
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")


def _environment(pycache: Path) -> dict:
    """This process's environment with bytecode cached under ``pycache``."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_benchmark(checkout: Path, workload: str, seed: int, trace: int,
                  pycache: Path) -> tuple[dict, dict]:
    """The last two stdout lines of one `perfbench/run.py` run, with its
    bytecode cached under ``pycache``: its run record and its summary record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=_environment(pycache), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}"
        )
    record, summary = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(summary)


def run_tier1(checkout: Path, pycache: Path) -> dict:
    """One run of the tier-1 suite in ``checkout``, with its bytecode cached
    under ``pycache``: its wall time, passed and failed counts and ten
    slowest tests, read off pytest's durations table and summary line."""
    env = _environment(pycache)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    summary = re.fullmatch(r"=* ?(.*\d+ \w+.*) in [\d.]+s.*", lines[-1] if lines else "")
    if summary is None:
        raise RuntimeError(f"{checkout}: tier-1 exited {proc.returncode} without a "
                           f"summary: {(proc.stdout + proc.stderr)[-2000:]}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary[1])}
    table = proc.stdout.partition("slowest 10 durations")[2]
    slowest = [{"test": test, "phase": phase, "s": float(s)}
               for s, phase, test in re.findall(r"(?m)^([\d.]+)s (\w+) +(.+)$", table)]
    return {
        "wall_s": wall_s,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "slowest": slowest,
    }


def commit_of(checkout: Path) -> str | None:
    """The checked-out commit, suffixed "-dirty" if the tree has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def summarise(runs: list[tuple[dict, dict]]) -> dict:
    """Per-metric medians, the failed-op share and correctness of a run list,
    and the untraced pass count, first- and last-pass peak RSS and per-seed
    stdout digest of its untraced runs."""
    summaries = [summary for _, summary in runs]
    untraced = [record["passes"] for record, _ in runs if record["trace"] == 0]
    values: dict[str, list[float]] = {}
    for summary in summaries:
        for name, metric in summary["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {
        "runs": len(summaries),
        "correct": all(s["correct"] for s in summaries),
        "fail_ratio": sum(s["failed"] for s in summaries)
        / max(1, sum(s["attempted"] for s in summaries)),
        "untraced_passes": statistics.median(
            sum(not p["traced"] for p in passes) for passes in untraced
        ),
        "first_pass_peak_rss_mb": statistics.median(
            passes[0]["peak_rss_mb"] for passes in untraced
        ),
        "last_pass_peak_rss_mb": statistics.median(
            passes[-1]["peak_rss_mb"] for passes in untraced
        ),
        "ops_sha256": {
            str(record["seed"]): record["ops_sha256"]
            for record, _ in runs
            if record["trace"] == 0
        },
        "metrics": {name: statistics.median(v) for name, v in sorted(values.items())},
    }


def op_digests(runs: list[tuple[dict, dict]]) -> dict[tuple[int, str], str]:
    """(seed, op name) -> the op's stdout sha256, over the untraced runs."""
    return {
        (record["seed"], op["op"]): op["sha256"]
        for record, _ in runs
        if record["trace"] == 0
        for op in record["ops"]
    }


def differing_ops(first_runs: list[tuple[dict, dict]],
                  second_runs: list[tuple[dict, dict]]) -> list[str]:
    """The ops whose stdout digest differs between two run lists at any seed."""
    first, second = op_digests(first_runs), op_digests(second_runs)
    return sorted({op for seed, op in first.keys() | second.keys()
                   if first.get((seed, op)) != second.get((seed, op))})


def record(columns: dict[str, Path], pr: int) -> dict:
    names = list(columns)
    runs = {w: {name: [] for name in names} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        pycaches = {name: Path(tmp) / f"pycache-{i}" for i, name in enumerate(names)}
        for w in WORKLOADS:
            for i, seed in enumerate(SEEDS):
                order = names if i % 2 == 0 else names[::-1]
                for trace in (0, 1):
                    for name in order:
                        runs[w][name].append(
                            run_benchmark(columns[name], w, seed, trace, pycaches[name])
                        )
                        print(f"bench_record: {w} seed {seed} trace {trace} {name} done",
                              file=sys.stderr, flush=True)
        tier1 = {name: run_tier1(columns[name], pycaches[name]) for name in names}
    workloads = {w: {name: summarise(runs[w][name]) for name in names} for w in WORKLOADS}
    if len(names) == 2:
        for w, summaries in workloads.items():
            first, second = (summaries[name]["ops_sha256"] for name in names)
            summaries["same_stdout"] = first == second
            summaries["differing_ops"] = differing_ops(*(runs[w][name] for name in names))
    return {
        "pr": pr,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "columns": {name: {"commit": commit_of(columns[name]), "tier1": tier1[name]}
                    for name in names},
        "workloads": workloads,
    }


def spread(values: list[float]) -> dict:
    """The values in seed order, their median and their quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def claim(columns: dict[str, Path], workload: str, seeds: list[int]) -> dict:
    """Alternating ``--trace 0`` runs of one workload in two checkouts, one
    pair per seed, the first column first at the 1st, 3rd, ... seed: each
    column's spread of every end-to-end metric and of the first pass's peak
    RSS, and each column's wins over the pairs (ties count for neither)."""
    names = list(columns)
    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    better["first_pass_peak_rss_mb"] = better["peak_rss_mb"]
    values = {name: {} for name in names}
    runs = {name: [] for name in names}
    correct, failed = True, 0
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        for i, seed in enumerate(seeds):
            for name in names if i % 2 == 0 else names[::-1]:
                pycache = Path(tmp) / f"pycache-{names.index(name)}"
                run, summary = run_benchmark(columns[name], workload, seed, 0, pycache)
                runs[name].append((run, summary))
                correct &= summary["correct"]
                failed += summary["failed"]
                metrics = {k: v["value"] for k, v in summary["metrics"].items()}
                metrics["first_pass_peak_rss_mb"] = run["passes"][0]["peak_rss_mb"]
                for metric, value in metrics.items():
                    if metric in better:
                        values[name].setdefault(metric, []).append(value)
                print(f"bench_record: claim {workload} seed {seed} {name} done",
                      file=sys.stderr, flush=True)
    metrics = {}
    for metric in sorted(values[names[0]].keys() & values[names[1]].keys()):
        pairs = list(zip(values[names[0]][metric], values[names[1]][metric]))
        sign = 1 if better[metric] == "lower" else -1
        metrics[metric] = {
            "better": better[metric],
            **{name: spread(values[name][metric]) for name in names},
            "wins": {names[0]: sum(sign * (a - b) < 0 for a, b in pairs),
                     names[1]: sum(sign * (b - a) < 0 for a, b in pairs)},
        }
    return {
        "workload": workload,
        "seeds": seeds,
        "seconds": SECONDS,
        "columns": {name: {"commit": commit_of(columns[name])} for name in names},
        "correct": correct,
        "failed_ops": failed,
        "differing_ops": differing_ops(*runs.values()),
        "metrics": metrics,
    }


def _seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges: '44-53' or '41,44-46'."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("a claim needs at least two seeds")
    return seeds


def _column(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    checkout = Path(path)
    if not (checkout / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} has no perfbench/run.py")
    return name, checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("columns", nargs="+", type=_column, metavar="NAME=DIR",
                        help="a column name and the checkout it is measured in")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json")
    parser.add_argument("--claim", choices=WORKLOADS, metavar="WORKLOAD",
                        help="run alternating pairs of this workload, one per --seeds seed")
    parser.add_argument("--seeds", type=_seeds, help="the claim's seeds, e.g. 44-53")
    args = parser.parse_args(argv)
    columns = dict(args.columns)
    if len(columns) != len(args.columns):
        parser.error("column names must be distinct")
    if (args.claim is None) != (args.seeds is None):
        parser.error("--claim and --seeds go together")
    if args.claim and len(columns) != 2:
        parser.error("a claim compares two columns")
    out = args.out or Path(f"BENCH_{args.pr}.json")
    result = json.loads(out.read_text()) if out.exists() else {}
    if result.get("pr", args.pr) != args.pr:
        parser.error(f"{out} records another change")
    if args.claim:
        result["pr"] = args.pr
        result["claim"] = claim(columns, args.claim, args.seeds)
    else:
        result.update(record(columns, args.pr))
    out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
