"""Reference checks on the stdout of each benchmark op.

An op fails if it raises, exits non-zero, or misses its reference check.
The deterministic tolerances are the acceptance suite's: 1e-8 relative for
the m = 1 Pfaffian route against the closed form, 1e-5 between the Jacobi
Pfaffian and quadrature routes, and exact equality for the constant monomial
row.  Monte-Carlo bands are 4 standard errors, the `verify-cft` threshold
(the acceptance suite uses 3 at 1e6 samples and fixed seeds; these ops run
at every seed with fewer samples).

Checks against a deterministic reference are "exact": missing one means a
wrong number, and the run is not correct.  A Monte-Carlo band or the
program's own exit-3 verdict can miss by chance or through a known defect;
those count as failed ops only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

Z_BAND = 4.0
M1_PFAFFIAN_RTOL = 1e-8
JACOBI_RTOL = 1e-5
DIGITS_CAP = 15.0


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool  # an exact check missed, or the op produced no usable output
    reason: str = ""
    digits: float | None = None  # -log10 of the error against an exact reference


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if rel_err <= 10.0**-DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def _cnum(field: dict) -> complex:
    return complex(field["re"], field["im"])


def _value(record: dict) -> complex:
    return _cnum(record["value"])


def _closed_m1(record: dict) -> float:
    from ocft.moments import MomentQuery, moment_m1_closed

    return moment_m1_closed(MomentQuery(z=_cnum(record["z"]), g=tuple(record["g"])))


def _band(value: complex, se: float, reference: complex, what: str):
    if se > 0:
        z = abs(value - reference) / se
    else:
        z = 0.0 if value == reference else math.inf
    return z <= Z_BAND, f"{what}: z = {z:.2f} > {Z_BAND}", None


# Each check maps (record, reference record) to (ok, reason if not ok, digits).


def _ok(record, ref):
    finite = "value" not in record or math.isfinite(abs(_value(record)))
    return finite, "value is not finite", None


def _verdict(record, ref):
    return True, "", None


def _fermionic(record, ref):
    (const,) = [row for row in record["rows"] if row["mask"] == 0]
    lhs, rhs = _cnum(const["lhs"]), _cnum(const["rhs"])
    errors = [abs(lhs - 1.0)]
    if "normalization_ratio" in record["extras"]:
        errors.append(abs(record["extras"]["normalization_ratio"] - 1.0))
    ok = lhs == 1.0 and rhs == 1.0
    return ok, f"constant row lhs {lhs}, rhs {rhs}, not 1", digits(max(errors))


def _m1_pfaffian(record, ref):
    closed = _closed_m1(record)
    rel = abs(_value(record) - closed) / abs(closed)
    return rel <= M1_PFAFFIAN_RTOL, f"rel err {rel:.2e} vs closed form", digits(rel)


def _m1_mc(record, ref):
    reference = _closed_m1(record)
    return _band(_value(record), record["std_error"], reference, "vs closed form")


def _haar_o11_sq(record, ref):
    if record["entries"] != "1,1;1,1" or record["group"] != "O":
        return False, "reference is E[O_11^2] over O(N) only", None
    return _band(_value(record), record["std_error"], 1.0 / record["n"], "vs 1/N")


def _pair_z(record, ref):
    se = math.hypot(record["std_error"], ref["std_error"])
    return _band(_value(record), se, _value(ref), "vs reference route")


def _pair_rel(record, ref):
    rel = abs(_value(record) - _value(ref)) / abs(_value(ref))
    return rel <= JACOBI_RTOL, f"rel err {rel:.2e} vs quadrature", digits(rel)


def _ginibre(record, ref):
    # the verdict itself is the exit code; the pipeline error is deterministic
    return True, "", digits(record["pipeline_rel_err"])


# name -> (check, whether its reference is exact)
CHECKS = {
    "ok": (_ok, True),
    "verdict": (_verdict, True),
    "fermionic": (_fermionic, True),
    "m1_pfaffian": (_m1_pfaffian, True),
    "m1_mc": (_m1_mc, False),
    "haar_o11_sq": (_haar_o11_sq, False),
    "pair_z": (_pair_z, False),
    "pair_rel": (_pair_rel, True),
    "ginibre": (_ginibre, True),
}


def parse(result: dict) -> dict | None:
    """The op's JSON record, or None if it raised or printed none."""
    if result["exit"] is None:
        return None
    try:
        return json.loads(result["stdout"])
    except json.JSONDecodeError:
        return None


def check(op, result: dict, record: dict | None, ref: dict | None) -> Verdict:
    """Verdict on ``op`` from its exit code, its record and its reference's record.

    ``result`` holds the op's ``exit`` code (None if it raised) and ``error``.
    """
    if result["exit"] is None:
        return Verdict(True, True, f"raised {result['error']}")
    if result["exit"] == 2 or record is None:
        return Verdict(True, True, f"exit {result['exit']} without a result")
    if op.ref is not None and ref is None:
        return Verdict(True, True, f"reference op {op.ref} has no result")
    fn, exact = CHECKS[op.check]
    try:
        ok, reason, dig = fn(record, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(True, True, f"malformed result: {type(exc).__name__} {exc}")
    if not ok:
        return Verdict(True, exact, reason, dig)
    if result["exit"] != 0:
        return Verdict(True, False, f"exit {result['exit']} (verification failed)", dig)
    return Verdict(False, False, "", dig)
