"""Seeded differential sweeps between the deterministic routes of a subcommand.

Each query is drawn from a plain numpy ``Generator`` with a fixed seed, inside
the range the CLI validates, and runs through ``cli.run`` once per route.
"""

import io
import json

import numpy as np

from ocft.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    return run(argv, out=out, err=err), out.getvalue()


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def test_moment_closed_and_pfaffian_agree_at_m1():
    # 400 queries with N <= 40, |Re z|, |Im z| <= 50 and g in [0, 20]
    rng = np.random.default_rng(33)
    for _ in range(400):
        n = int(rng.integers(1, 41))
        query = ["moment", f"--n={n}", "--m=1", f"--z={_csv(rng.uniform(-50, 50, 2))}",
                 f"--g={_csv(rng.uniform(0, 20, n))}"]
        (code, closed), (code_pf, pf) = (invoke(query + [f"--method={method}"])
                                         for method in ("closed", "pfaffian"))
        assert code == code_pf, query
        if code == 0:
            want, got = (complex(*json.loads(out)["value"].values()) for out in (closed, pf))
            assert abs(got - want) <= 1e-8 * abs(want), query


def test_jacobi_pfaffian_and_quadrature_agree_to_the_bit():
    # 12 queries per kind of lambda gamma, each kind's first at N = 16, a + b = 20
    rng = np.random.default_rng(34)
    for kind in ("real", "negative", "complex"):
        for i in range(12):
            n = 16 if i == 0 else int(rng.integers(1, 17))
            a = int(rng.integers(0, 21))
            b = 20 - a if i == 0 else int(rng.integers(0, 21 - a))
            lam, gam = rng.uniform(0.1, 3.0, 2)
            lam = _csv([lam, rng.uniform(-2.0, 2.0)] if kind == "complex" else [lam])
            gam = _csv([-gam if kind == "negative" else gam])
            query = ["jacobi", f"--n={n}", f"--a={a}", f"--b={b}", f"--lambda={lam}",
                     f"--gamma={gam}"]
            (code, pf), (code_qd, qd) = (invoke(query + [f"--method={method}"])
                                         for method in ("pfaffian", "quadrature"))
            assert code == code_qd == 0, query
            assert qd == pf.replace('"method": "pfaffian"', '"method": "quadrature"'), query
