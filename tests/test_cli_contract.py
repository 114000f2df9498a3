"""The CLI's output contract, swept over extreme option values.

Every case runs in-process through ``cli.run`` with small sample counts.  It
must end in exit 0, 2 or 3 without an exception out of ``run`` and without a
``RuntimeWarning``; exit 2 prints nothing on stdout, exit 0 or 3 strict JSON.
Values go in as ``--option=value``, so argparse reads -1e300 as a value.  The
subcommands and their routes are the keys of ``cli._RUNNERS``: every route
must have a sweep, and a route that draws nothing must print the same bytes
whatever ``--seed``, ``--workers`` and ``--samples`` say.
"""

import io
import json
import time
import tracemalloc
import warnings

import pytest

from ocft.cli import _RUNNERS, build_parser, run
from ocft.haar import MAX_HAAR_MOMENT_N
from ocft.jacobi import (
    MAX_GINIBRE_N, MAX_PFAFFIAN_AB, MAX_PFAFFIAN_N, MAX_SELBERG_AB, MAX_SELBERG_N,
)
from ocft.moments import MAX_M2_COMPLEX_N

# tried on every numeric option of a base command
EXTREMES = ("0", "1", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "1,1")
NUMERIC = {"--a", "--b", "--colors", "--flavors", "--g", "--gamma", "--lambda", "--m", "--n",
           "--probes", "--samples", "--seed", "--threshold", "--tol", "--workers", "--z"}
MATRICES = (
    "5", "[1]", "[[null]]", "[[[1]]]", "[[true, 0], [0, true]]", '[["1"]]', '"x"', "{}",
    "[[", "[]", "[[]]", "[[0]]", "[[0, 1]]", "[[0, 1], [-1]]", "[[0, 1], [2, 0]]",
    "[[0, [1, 1]], [[-1, -1], 0]]", "[[0, [1, 2, 3]], [[-1, -2], 0]]",
    "[[0, 1e-300], [-1e-300, 0]]", "[[0, 1e300], [-1e300, 0]]", "[[0, 1e308], [-1e308, 0]]",
    "[[0, 1e400], [-1e400, 0]]", "[[0, Infinity], [-Infinity, 0]]", "[[NaN]]",
    "[[0, 1" + "0" * 400 + "], [-1, 0]]",
    "[[0, 1e160, 0, 0], [-1e160, 0, 0, 0], [0, 0, 0, 1e160], [0, 0, -1e160, 0]]",
)
GINIBRE = {"--n": "2", "--lambda": "1", "--gamma": "1", "--samples": "50"}
CFT = {"--colors": "2", "--flavors": "2", "--samples": "50", "--workers": "1"}
MOMENT = {"--n": "2", "--z": "1.3", "--g": "0.5,1.0"}
JACOBI = {"--n": "2", "--a": "1", "--b": "1", "--lambda": "1.5", "--gamma": "1.2"}
# subcommand -> [(base options, {option: values tried besides EXTREMES})]
SWEEPS = {
    "pfaffian": [({"--matrix": "[[0, 1], [-1, 0]]", "--tol": "1e-12"}, {"--matrix": MATRICES})],
    "haar-moment": [(
        {"--n": "2", "--entries": "1,1;2,2", "--samples": "50", "--seed": "0", "--workers": "1"},
        {"--n": ("8", str(MAX_HAAR_MOMENT_N), str(MAX_HAAR_MOMENT_N + 1)),
         "--entries": ("0,0", "3,3", "1", "1,1;", "x,y"), "--group": ("SO",),
         "--workers": ("51",)},
    )],
    "moment": [
        ({**MOMENT, "--method": method, **extra},
         {"--m": ("2", "3", "1000"), "--z": ("1e300,1", "1e200,1e200", "1e-300,1e-300"),
          "--g": ("nan,1", "inf,1", "1e300,1", "1e-300,0", "-1,1", "1", "0,0", "")})
        for method, extra in (("closed", {}), ("pfaffian", {}), ("pfaffian", {"--m": "2"}),
                              ("pfaffian", {"--m": "2", "--z": "0.9,0.4"}),
                              ("mc", {"--samples": "50"}),
                              ("mc", {"--samples": "50", "--m": "2"}))
    ] + [
        # the Monte Carlo's N cap and one past it, with a --g of matching length
        ({**MOMENT, "--method": "mc", "--samples": "50", "--n": str(n),
          "--g": ",".join(["1"] * n)}, {})
        for n in (MAX_HAAR_MOMENT_N, MAX_HAAR_MOMENT_N + 1)
    ],
    "jacobi": [
        ({**JACOBI, "--method": method},
         {"--n": (str(MAX_PFAFFIAN_N), str(MAX_PFAFFIAN_N + 1)),
          "--a": (str(MAX_PFAFFIAN_AB - 1), str(MAX_PFAFFIAN_AB))})
        for method in ("pfaffian", "quadrature")
    ],
    "ginibre-check": [
        ({**GINIBRE, "--threshold": "3", "--seed": "0"},
         {"--n": (str(MAX_GINIBRE_N), str(MAX_GINIBRE_N + 1))}),
        ({**GINIBRE, "--n": "1"}, {}),  # the closed form 1 + lg is 0 at lg = -1
    ],
    "verify-cft": [
        ({"--variant": variant, **CFT, "--threshold": "4"},
         {"--colors": ("4", "5"), "--flavors": ("3", "4"), "--workers": ("51",)})
        for variant in ("fermionic", "son")
    ] + [
        ({"--variant": "bosonic", **CFT, "--colors": "5", "--probes": "2", "--threshold": "4"},
         {"--colors": ("4", "6", str(MAX_HAAR_MOMENT_N), str(MAX_HAAR_MOMENT_N + 1)),
          "--flavors": ("3",), "--workers": ("51",)}),
    ],
}
# commands that must exit 2
REFUSED = [
    *(["pfaffian", f"--matrix={m}"] for m in ("5", "[1]", "[[null]]", "[[[1]]]",
                                              "[[0,1e300],[-1e300,0]]")),
    ["ginibre-check", "--n=4", "--lambda=1e100", "--gamma=1e-100", "--samples=2000"],
    ["moment", "--method=mc", "--samples=50", "--z=1.3", f"--n={MAX_HAAR_MOMENT_N + 1}",
     f"--g={','.join(['1'] * (MAX_HAAR_MOMENT_N + 1))}"],
    ["moment", "--method=pfaffian", "--m=2", "--z=0.9,0.4", f"--n={MAX_M2_COMPLEX_N + 1}",
     f"--g={','.join(['1'] * (MAX_M2_COMPLEX_N + 1))}"],
    # one past the radial grid's exact range: N = 2 nodes - 4m + 3
    *(["moment", "--method=pfaffian", f"--m={m}", "--z=1", f"--n={n}",
       f"--g={','.join(['1'] * n)}"] for m, n in ((1, 256), (2, 60))),
    *([*argv, f"--threshold={value}"]
      for argv in (["verify-cft", "--variant=fermionic", "--colors=2", "--flavors=1"],
                   ["ginibre-check", *(f"{k}={v}" for k, v in GINIBRE.items())])
      for value in ("-1", "0", "nan", "inf", "-inf")),
]


def _cases(command):
    seen = set()
    for base, extras in SWEEPS[command]:
        for option in dict.fromkeys([*base, *extras]):
            for value in (*(EXTREMES if option in NUMERIC else ()), *extras.get(option, ())):
                argv = tuple(_argv(command, {**base, option: value}))
                if argv not in seen:
                    seen.add(argv)
                    yield list(argv)


def _strict(constant):
    raise ValueError(f"non-finite {constant} in stdout")


def _violation(argv, exits=(0, 2, 3)):
    """How the run of ``argv`` breaks the contract, or None if it keeps it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(argv, out=out, err=err)
        except Exception as exc:
            return f"{type(exc).__name__} out of run: {exc}"
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    out = out.getvalue()
    if code not in exits:
        return f"exit {code}: {err.getvalue().strip()}"
    if runtime:
        return f"RuntimeWarning {runtime}"
    if code == 2:
        return f"stdout on exit 2: {out!r}" if out else None
    try:
        json.loads(out, parse_constant=_strict)
    except ValueError as exc:
        return f"stdout is not strict JSON ({exc}): {out!r}"
    return None


def _failures(cases, **kwargs):
    return "\n".join(f"{' '.join(argv)}: {why}" for argv in cases
                     if (why := _violation(argv, **kwargs)))


def _argv(command, options):
    return [command, *(f"{k}={v}" for k, v in options.items())]


def _route(command, base):
    """The (subcommand, route) key that a sweep's base options select."""
    return command, getattr(build_parser().parse_args(_argv(command, base)), "route", None)


# one test per subcommand, looping over its cases, keeps the sweep to seconds
@pytest.mark.parametrize("command", list(dict.fromkeys(command for command, _ in _RUNNERS)))
def test_extreme_values_keep_the_contract(command):
    assert not (failures := _failures(_cases(command))), failures


def test_every_route_has_a_sweep():
    swept = {_route(command, base) for command, sweeps in SWEEPS.items() for base, _ in sweeps}
    assert swept == set(_RUNNERS)


@pytest.mark.parametrize("key", [key for key, route in _RUNNERS.items() if not route.draws],
                         ids=lambda key: "-".join(filter(None, key)))
def test_a_route_that_draws_nothing_ignores_seed_workers_and_samples(key):
    command = key[0]
    base = next(base for base, _ in SWEEPS[command] if _route(command, base) == key)
    argv = _argv(command, {k: v for k, v in base.items()
                           if k not in ("--seed", "--workers", "--samples")})
    samples = hasattr(build_parser().parse_args(argv), "samples")
    runs = []
    for seed, workers, count in (("0", "1", "50"), ("7", "3", "2")):
        out, err = io.StringIO(), io.StringIO()
        extra = [f"--seed={seed}", f"--workers={workers}"] + [f"--samples={count}"] * samples
        runs.append((run(argv + extra, out=out, err=err), out.getvalue()))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


def test_unusable_input_exits_two():
    assert not (failures := _failures(REFUSED, exits=(2,))), failures


@pytest.mark.parametrize("option, value", [
    ("--n", MAX_SELBERG_N), ("--n", MAX_SELBERG_N + 1), ("--n", 1_000_000),
    ("--a", 1_000_000), ("--b", 1_000_000),
])
def test_closed_form_sizes_end_within_a_second(option, value):
    # the Jacobi closed form refuses an N past float64 before its exact products
    argv = ["jacobi", *(f"{k}={v}" for k, v in {**JACOBI, option: value}.items()),
            "--method=quadrature"]
    started = time.perf_counter()
    assert (why := _violation(argv, exits=(0, 2))) is None, why
    assert time.perf_counter() - started < 1.0


def test_jacobi_at_the_selberg_cap_ends_within_five_seconds():
    # the exact S(lg) / S(1) at both caps and a complex lambda gamma, where
    # the weights carry 27,550-bit integers: 0.65 s on 2 vCPUs
    half = MAX_SELBERG_AB // 2
    argv = ["jacobi", f"--n={MAX_SELBERG_N}", f"--a={half}", f"--b={half}",
            "--lambda=0.31,0.2", "--gamma=0.77", "--method=quadrature"]
    started = time.perf_counter()
    assert (why := _violation(argv, exits=(0,))) is None, why
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("group", ["O", "SO"])
def test_one_entry_at_the_haar_size_cap_is_quick_and_small(group):
    # one column of O(64) is drawn, not all 64^2 Gaussians; numpy reports its
    # arrays to tracemalloc
    argv = ["haar-moment", f"--n={MAX_HAAR_MOMENT_N}", "--entries=1,1", f"--group={group}"]
    tracemalloc.start()
    try:
        started = time.perf_counter()
        why = _violation(argv, exits=(0,))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert why is None, why
    assert elapsed < 2.0
    assert peak < 64 * 2**20


def _traced_peak(argv):
    """The violation of ``argv`` with exit 0 required, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        why = _violation(argv, exits=(0,))
        return why, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WHOLE_DRAWS_AT_THE_CAP = {
    # 2,500 draws of O(64) in batches of 64, each drawn ahead of its turn; one
    # batch of all 2,500 was 82 MB, and at the default samples two batches of
    # 20,000 draws were 1,287 MiB
    "moment": ["moment", f"--n={MAX_HAAR_MOMENT_N}", "--z=1.3", "--method=mc",
               "--g=" + ",".join(["0.1"] * MAX_HAAR_MOMENT_N), "--samples=2500"],
    # entries that read every row and column take whole draws too
    "haar-moment": ["haar-moment", f"--n={MAX_HAAR_MOMENT_N}", "--samples=2500",
                    "--entries=" + ";".join(f"{i},{i}" for i in range(1, MAX_HAAR_MOMENT_N + 1))],
    # 2,500 Gaussians per draw: 104 draws per batch, where all 4,000 were one
    # batch of 80 MB
    "ginibre-check": ["ginibre-check", f"--n={MAX_GINIBRE_N}", "--lambda=1", "--gamma=1",
                      "--samples=4000", "--seed=0"],
    # 4,096 Gaussians per O(64) draw and 3,906 per flavour draw, so 64 and 67
    # rows per batch, where the probe count alone gave one batch of all
    # 4,000 rows on each side, 276 MiB
    "verify-cft": ["verify-cft", "--variant=bosonic", f"--colors={MAX_HAAR_MOMENT_N}",
                   f"--flavors={MAX_HAAR_MOMENT_N // 2 - 1}", "--probes=1", "--samples=4000",
                   "--seed=0", "--workers=1"],
}


@pytest.mark.parametrize("command", list(WHOLE_DRAWS_AT_THE_CAP))
def test_whole_draws_at_the_size_cap_stay_within_the_batch_budget(command):
    # a batch holds at most haar.BATCH_ENTRIES values whatever N is
    why, peak = _traced_peak(WHOLE_DRAWS_AT_THE_CAP[command])
    assert why is None, why
    assert peak < 64 * 2**20


def test_many_bosonic_probes_keep_the_batch_small():
    # each side's batch holds _batch_rows(probes) rows, so its (rows, probes)
    # values stay near haar.BATCH_ENTRIES whatever --probes is; 20,000 rows of
    # 2,000 complex probes were 640 MB per side
    argv = ["verify-cft", "--variant=bosonic", "--colors=3", "--flavors=1", "--probes=2000",
            "--samples=20000", "--seed=0", "--workers=1"]
    tracemalloc.start()
    try:
        why = _violation(argv, exits=(0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert why is None, why
    assert peak < 64 * 2**20
