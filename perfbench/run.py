"""Benchmark of `ocft` through its CLI entry point, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity --seed 0 --seconds 30 --trace 0

Workloads are listed in `workloads.py`.  Traffic is one client in a closed
loop: each pass runs the workload's ops one at a time, in a fixed order,
through `ocft.cli.run(argv, out, err)` in a fresh interpreter, and passes
repeat until the next one would end after `--seconds`.  Every op's stdout is
checked against a reference (`checks.py`) and its sha256 is compared across
passes, which must be byte-identical.

With `--trace 0` the run reports the end-to-end metrics: the median pass
wall time, the median time to import `ocft.cli` in a fresh interpreter, the
median peak resident set of a pass, and the fewest correct digits against
an exact reference.  With `--trace 1` passes alternate between untraced and
traced, and the run reports per-layer busy time and work counts from the
traced passes (`spans.py`), plus the tracing overhead.

Standard output carries one JSON record of the run (software versions, BLAS
threads, per-op exit codes and digests, failures) and, as its last line,
{"correct", "attempted", "failed", "metrics"}.  `failed` counts ops that
raised, exited non-zero or missed their reference check; `correct` is false
if an op gave no result or a wrong number against an exact reference, or if
passes disagreed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads
from worker import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("min_digits", "digits"),
]
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ocft.cli; "
    "print(time.perf_counter() - t)"
)


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    """The same library, BLAS threading and worker setting on every commit."""
    env = dict(os.environ)
    env.pop("OCFT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def _child(argv: list[str], stdin: str | None, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left within {RUN_LIMIT_S:.0f} s")
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            input=stdin,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=HERE.parent,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a pass did not end within {RUN_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_times(deadline: float) -> list[float]:
    """Import times of `ocft.cli` in fresh interpreters, after one warm-up."""
    probe = ["-c", _IMPORT_PROBE]
    _child(probe, None, deadline)
    return [float(_child(probe, None, deadline)) for _ in range(SETUP_PROBES)]


def run_pass(ops, traced: bool, deadline: float) -> dict:
    job = json.dumps({"argvs": [op.argv for op in ops], "trace": traced})
    started = time.monotonic()
    result = json.loads(_child([str(HERE / "worker.py")], job, deadline))
    result["elapsed_s"] = time.monotonic() - started
    if Path(result["ocft"]).resolve() != (SRC / "ocft").resolve():
        raise BenchmarkError(f"measured {result['ocft']}, not {SRC / 'ocft'}")
    return result


def run_passes(ops, seconds: float, trace: bool, deadline: float) -> list[dict]:
    """Passes until the next would end after ``seconds``; untraced and traced
    alternate when ``trace`` is set, with at least one of each."""
    modes = [False, True] if trace else [False]
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        passes.append(run_pass(ops, modes[len(passes) % len(modes)], deadline))
        if len(passes) < len(modes):
            continue
        next_mode = modes[len(passes) % len(modes)]
        predicted = [p["elapsed_s"] for p in passes if p["traced"] == next_mode][-1]
        now = time.monotonic()
        if now - started + predicted > seconds or now + predicted > deadline:
            return passes


def _digest(result: dict) -> tuple[int | None, str]:
    return result["exit"], hashlib.sha256(result["stdout"].encode()).hexdigest()


def verify(ops, passes: list[dict]) -> dict:
    """Reference checks on every pass, and byte-identity of passes."""
    attempted = failed = 0
    wrong = False
    failures: dict[str, str] = {}
    digits: list[float] = []
    for index, p in enumerate(passes):
        records = {}
        for op, result in zip(ops, p["ops"], strict=True):
            records[op.name] = checks.parse(result)
            verdict = checks.check(op, result, records[op.name], records.get(op.ref))
            attempted += 1
            failed += verdict.failed
            wrong |= verdict.wrong
            if verdict.failed:
                failures.setdefault(op.name, verdict.reason)
            if index == 0 and verdict.digits is not None:
                digits.append(verdict.digits)
    digests = [[_digest(result) for result in p["ops"]] for p in passes]
    differing = sorted(
        {op.name for d in digests[1:] for op, a, b in zip(ops, digests[0], d) if a != b}
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong and not differing,
        "failures": failures,
        "nondeterministic": differing,
        "min_digits": min(digits, default=0.0),
        "ops": [
            {"op": op.name, "exit": code, "sha256": digest}
            for op, (code, digest) in zip(ops, digests[0])
        ],
        "ops_sha256": hashlib.sha256(
            "".join(digest for _, digest in digests[0]).encode()
        ).hexdigest(),
    }


def end_to_end(passes: list[dict], setup: list[float], checked: dict) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "min_digits": checked["min_digits"],
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced passes; overhead is traced minus untraced wall time."""
    traced = [p for p in passes if p["traced"]]
    per_pass, unmeasured = [], set()
    for p in traced:
        values, missing = spans.layer_metrics(p["spans"], p["wall_s"], p["unmeasured"])
        per_pass.append(values)
        unmeasured.update(missing)
    metrics = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - (
        statistics.median(p["wall_s"] for p in passes if not p["traced"])
    )
    return metrics, sorted(unmeasured)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ocft" / "cli.py").is_file():
        print(f"perfbench: no ocft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks compute closed-form references
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        ops = workloads.build(args.workload, args.seed)
        setup = [] if args.trace else setup_times(deadline)
        passes = run_passes(ops, args.seconds, bool(args.trace), deadline)
    except (BenchmarkError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = verify(ops, passes)
    untraced = [p for p in passes if not p["traced"]]
    unmeasured: list[str] = []
    if args.trace:
        values, unmeasured = per_layer(passes)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        values = end_to_end(untraced, setup, checked)
        units = dict(END_TO_END)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "env": passes[0]["env"],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "peak_rss_mb", "elapsed_s")}
            for p in passes
        ],
        "setup_s": setup,
        "fail_ratio": checked["failed"] / checked["attempted"],
        **{k: checked[k] for k in ("failures", "nondeterministic", "ops")},
        "ops_sha256": checked["ops_sha256"],
        "unmeasured": unmeasured,
    }
    print(json.dumps(record))
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checked["correct"],
                "attempted": checked["attempted"],
                "failed": checked["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
