"""One pass of a workload, run in a fresh interpreter.

Reads {"argvs": [[...], ...], "trace": bool} as JSON on stdin, runs each
argv through `ocft.cli.run` in order (one client, closed loop), and writes
one JSON object to stdout: wall time from the start of the first op to the
end of the last, peak resident set, each op's exit code and output, the
spans when traced, and the software the pass ran on.

Each pass gets its own process so that every pass starts with the cold
in-process caches an `ocft` invocation starts with.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import spans

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Versions and settings that change timings and must match across commits."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_pass(argvs, trace: bool) -> dict:
    from ocft import cli

    recorder = spans.Recorder()
    ops = []
    with spans.recording(recorder) if trace else contextlib.nullcontext():
        started = time.perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                code, error = cli.run(list(argv), out, err), None
            except Exception:  # recorded; the op counts as failed
                code, error = None, traceback.format_exc()
            ops.append({"exit": code, "stdout": out.getvalue(), "error": error})
        wall_s = time.perf_counter() - started
    return {
        "traced": trace,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "spans": recorder.spans,
        "unmeasured": sorted(recorder.unmeasured),
        "ocft": os.path.dirname(cli.__file__),
        "env": environment(),
    }


if __name__ == "__main__":
    job = json.load(sys.stdin)
    json.dump(run_pass(job["argvs"], job["trace"]), sys.stdout)
