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
passes and the median ``peak_rss_mb`` of the first pass: a pass's
``ru_maxrss`` includes the memory of the runner that spawned it, which grows
with the passes it holds, so a faster checkout can report a higher
``peak_rss_mb`` for no change in its own memory.  They also give each
column's ``ops_sha256`` per seed, the digest of every op's stdout; with two
columns, each workload gets a ``same_stdout`` flag, true when the two
columns' digests agree at every seed.

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
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("identity", "moments", "jacobi")
SEEDS = (41, 42, 43)
SECONDS = 30


def run_benchmark(checkout: Path, workload: str, seed: int, trace: int,
                  pycache: Path) -> tuple[dict, dict]:
    """The last two stdout lines of one `perfbench/run.py` run, with its
    bytecode cached under ``pycache``: its run record and its summary record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}"
        )
    record, summary = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(summary)


def commit_of(checkout: Path) -> str | None:
    """The checked-out commit, suffixed "-dirty" if the tree has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def summarise(runs: list[tuple[dict, dict]]) -> dict:
    """Per-metric medians, the failed-op share and correctness of a run list,
    and the untraced pass count, first-pass peak RSS and per-seed stdout
    digest of its untraced runs."""
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
        "ops_sha256": {
            str(record["seed"]): record["ops_sha256"]
            for record, _ in runs
            if record["trace"] == 0
        },
        "metrics": {name: statistics.median(v) for name, v in sorted(values.items())},
    }


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
    workloads = {w: {name: summarise(runs[w][name]) for name in names} for w in WORKLOADS}
    if len(names) == 2:
        for summaries in workloads.values():
            first, second = (summaries[name]["ops_sha256"] for name in names)
            summaries["same_stdout"] = first == second
    return {
        "pr": pr,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "columns": {name: {"commit": commit_of(columns[name])} for name in names},
        "workloads": workloads,
    }


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
    args = parser.parse_args(argv)
    columns = dict(args.columns)
    if len(columns) != len(args.columns):
        parser.error("column names must be distinct")
    result = record(columns, args.pr)
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
