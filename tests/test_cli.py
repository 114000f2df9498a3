import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ocft import cft, cli
from ocft.cli import build_parser, parse_complex, run
from ocft.haar import RngStream

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("2,0") == 2.0
        assert parse_complex("2") == 2.0
        assert parse_complex("1.5,-0.5") == 1.5 - 0.5j

    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = invoke(["no-such-command"])
        assert code == 2

    def test_bad_value_is_usage_error(self):
        code, _, err = invoke(
            ["moment", "--n", "2", "--z", "1,0", "--g", "1.0", "--method", "closed"]
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["pfaffian", "--matrix", "[[0, 1], [-1, 0]]"],
            ["moment", "--n", "1", "--z", "2", "--g", "1", "--method", "closed"],
            ["moment", "--n", "2", "--m", "2", "--z", "0.9,0.4", "--g", "0.6,1.2",
             "--method", "pfaffian"],
            ["jacobi", "--n", "2", "--a", "0", "--b", "0", "--lambda", "1.5",
             "--gamma", "1.2"],
            ["ginibre-check", "--n", "1", "--lambda", "1", "--gamma", "1",
             "--samples", "1000"],
        ],
        ids=["pfaffian", "moment-closed", "moment-pfaffian", "jacobi", "ginibre"],
    )
    def test_worker_count_below_one_is_usage_error(self, argv, workers):
        code, out, err = invoke(argv + ["--workers", workers])
        assert code == 2 and out == ""
        assert "--workers" in err


def fresh_process(argv):
    """Exit code and stdout of ``argv`` run by a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "ocft.cli", *argv], capture_output=True,
                          text=True, check=False, env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stdout


class TestSharedParser:
    JACOBI = ["jacobi", "--n", "2", "--a", "1", "--b", "2", "--lambda", "1.5",
              "--gamma", "1.2"]

    def test_parser_is_built_once_across_runs(self, monkeypatch):
        # every build gives each subcommand its common options once
        built = []
        add_common = cli._add_common
        monkeypatch.setattr(cli, "_add_common", lambda p: built.append(p.prog) or add_common(p))
        build_parser.cache_clear()
        for seed in range(10):
            assert invoke(self.JACOBI + ["--seed", str(seed)])[0] == 0
            assert invoke(["jacobi", "--n", "two"])[0] == 2
        assert sorted(built) == sorted(f"ocft {name}" for name in cli._RUNNERS)

    @pytest.mark.parametrize(
        "bad, argv, message",
        [
            (JACOBI + ["--method", "closed"], JACOBI, "invalid choice"),
            (["ginibre-check", "--n", "2", "--lambda", "1", "--gamma", "1", "--samples",
              "many"],
             ["ginibre-check", "--n", "2", "--lambda", "1", "--gamma", "1", "--samples",
              "3000", "--seed", "5"],
             "invalid int value"),
        ],
        ids=["jacobi-default-method", "ginibre"],
    )
    def test_usage_error_leaves_the_next_run_as_a_fresh_process_runs_it(
        self, bad, argv, message
    ):
        code, out, err = invoke(bad)
        assert code == 2 and out == ""
        assert message in err and err.startswith("usage: ocft ")
        code, out, _ = invoke(argv)
        assert code == 0
        assert (code, out) == fresh_process(argv)

    @pytest.mark.parametrize("argv", [["--help"], ["jacobi", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert run(argv, err=io.StringIO()) == 0
        assert capsys.readouterr().out.startswith("usage: ocft")
        assert invoke(self.JACOBI)[0] == 0


class TestPfaffian:
    def test_two_by_two(self):
        code, out, _ = invoke(
            ["pfaffian", "--matrix", "[[0, [3, 4]], [[-3, -4], 0]]"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == {"re": 3.0, "im": 4.0}
        assert rec["det_residual"] < 1e-12


class TestMoment:
    def test_closed_value(self):
        code, out, _ = invoke(
            ["moment", "--n", "1", "--m", "1", "--z", "2,0", "--g", "1",
             "--method", "closed"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(5.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_overflow_exits_two(self):
        code, out, err = invoke(["moment", "--n", "2", "--m", "1", "--z", "1e200",
                                 "--g", "1,1", "--method", "closed"])
        assert code == 2 and out == ""
        assert "overflow" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["closed", "pfaffian"])
    def test_overflow_message_names_n_and_the_largest_g(self, method):
        # not all 200 singular values, which made a 1.6 KB line
        code, out, err = invoke(["moment", "--n", "200", "--m", "1", "--z", "1",
                                 "--g", ",".join(["1e3"] * 200), "--method", method])
        assert code == 2 and out == ""
        assert "overflow" in err and "N = 200, max |g| = 1000.0" in err
        assert len(err) < 100

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "1", "--z", "1e200", "--method", "mc", "--samples", "100"],
            ["--m", "2", "--z", "1e100", "--method", "pfaffian"],
            ["--m", "2", "--z", "1e100,1", "--method", "pfaffian"],
        ],
        ids=["mc", "pfaffian", "pfaffian-complex"],
    )
    def test_non_finite_estimate_exits_two(self, argv):
        code, out, err = invoke(["moment", "--n", "2", "--g", "1,1", *argv])
        assert code == 2 and out == ""
        assert "overflow" in err

    def test_output_is_strict_json(self, monkeypatch):
        from ocft import cli

        monkeypatch.setattr(cli, "moment_m1_closed", lambda query: math.nan)
        code, out, err = invoke(["moment", "--n", "1", "--z", "2", "--g", "1",
                                 "--method", "closed"])
        assert code == 2 and out == ""
        assert "JSON" in err

    def test_pfaffian_method(self):
        code, out, _ = invoke(
            ["moment", "--n", "2", "--z", "1,0", "--g", "0.5,1.5",
             "--method", "pfaffian"]
        )
        assert code == 0
        rec = json.loads(out)
        closed = invoke(
            ["moment", "--n", "2", "--z", "1,0", "--g", "0.5,1.5",
             "--method", "closed"]
        )[1]
        assert rec["value"]["re"] == pytest.approx(
            json.loads(closed)["value"], rel=1e-8
        )

    @pytest.mark.parametrize("z", ["1,0", "0.9,0.4"])
    def test_pfaffian_method_ignores_the_seed(self, z):
        argv = ["moment", "--n", "2", "--m", "2", "--z", z, "--g", "0.6,1.2",
                "--method", "pfaffian", "--seed"]
        one, two = (json.loads(invoke(argv + [seed])[1]) for seed in ("1", "2"))
        assert (one["value"], one["std_error"], one["samples"]) == (
            two["value"], two["std_error"], two["samples"])
        assert (one["std_error"], one["samples"]) == (0.0, 0)

    def test_mc_method_reports_error_bars(self):
        code, out, _ = invoke(
            ["moment", "--n", "1", "--z", "2,0", "--g", "1", "--method", "mc",
             "--samples", "20000", "--seed", "5"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["std_error"] > 0
        assert abs(rec["value"]["re"] - 5.0) <= 3 * rec["std_error"]

    def test_record_names_the_worker_count(self):
        # the mc value depends on the shard count, so the record states it
        argv = ["moment", "--n", "2", "--z", "1.3", "--g", "0.5,0.8", "--method",
                "mc", "--samples", "2000", "--seed", "0", "--workers"]
        one, two = (json.loads(invoke(argv + [w])[1]) for w in ("1", "2"))
        assert list(one)[list(one).index("seed") + 1] == "workers"
        assert (one["workers"], two["workers"]) == (1, 2)
        assert one["value"] != two["value"]


    @pytest.mark.parametrize("method, m, named", [("closed", "1", False),
                                                  ("pfaffian", "1", False),
                                                  ("pfaffian", "2", False),
                                                  ("mc", "2", True)])
    def test_only_the_mc_record_names_seed_and_workers(self, method, m, named):
        code, out, _ = invoke(["moment", "--n", "2", "--m", m, "--z", "1.3", "--g",
                               "0.5,0.8", "--method", method, "--samples", "2000",
                               "--seed", "4", "--workers", "2"])
        assert code == 0
        keys = list(json.loads(out))
        assert keys[:6] == ["command", "n", "m", "z", "g", "method"]
        if named:
            assert keys[6:8] == ["seed", "workers"]
        else:
            assert "seed" not in keys and "workers" not in keys

    def test_mc_size_cap(self):
        from ocft.cli import MAX_HAAR_MOMENT_N

        def argv(n):
            return ["moment", "--n", str(n), "--m", "1", "--z", "1.3", "--g",
                    ",".join(["1"] * n), "--method", "mc", "--samples", "50"]

        code, out, _ = invoke(argv(MAX_HAAR_MOMENT_N))
        assert code == 0 and json.loads(out)["n"] == MAX_HAAR_MOMENT_N
        code, out, err = invoke(argv(MAX_HAAR_MOMENT_N + 1))
        assert code == 2 and out == ""
        assert f"capped at N = {MAX_HAAR_MOMENT_N}" in err
        # the cap is the Monte Carlo's: the exact routes keep their own ranges
        code, _, _ = invoke(argv(MAX_HAAR_MOMENT_N + 1)[:-4] + ["--method", "closed"])
        assert code == 0


class TestHaarMoment:
    def test_second_moment(self):
        code, out, _ = invoke(
            ["haar-moment", "--n", "3", "--entries", "1,1;1,1",
             "--samples", "50000", "--seed", "1"]
        )
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["value"]["re"] - 1 / 3) <= 3 * rec["std_error"]

    def test_worker_environment_variable_is_ignored(self, monkeypatch):
        argv = ["haar-moment", "--n", "2", "--entries", "1,1", "--samples",
                "5000", "--seed", "4"]
        monkeypatch.delenv("OCFT_WORKERS", raising=False)
        unset = invoke(argv)
        monkeypatch.setenv("OCFT_WORKERS", "3")
        code, out, _ = invoke(argv)
        assert code == 0 and out == unset[1]
        assert json.loads(out)["workers"] == 1

    def test_shards_without_draws_build_no_generator(self, monkeypatch):
        # 2 draws of 4 entries start no draw-ahead thread; a generator per
        # shard would take about 25 s at a million shards
        argv = ["haar-moment", "--n", "2", "--entries", "1,1", "--samples", "2",
                "--seed", "4", "--workers"]
        built, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator",
                            lambda self: built.append(self) or generator(self))
        code, many, _ = invoke(argv + ["1000000"])
        assert code == 0 and len(built) == 2
        code, two, _ = invoke(argv + ["2"])
        assert code == 0 and built[2:] == built[:2]
        many, two = json.loads(many), json.loads(two)
        assert (many["value"], many["std_error"]) == (two["value"], two["std_error"])
        assert (many["workers"], two["workers"]) == (1_000_000, 2)

    def test_entry_bounds_checked(self):
        code, _, _ = invoke(
            ["haar-moment", "--n", "2", "--entries", "3,1", "--samples", "100"]
        )
        assert code == 2

    def test_size_cap(self):
        from ocft.cli import MAX_HAAR_MOMENT_N

        argv = ["haar-moment", "--entries", "1,1", "--samples", "50", "--n"]
        code, out, _ = invoke(argv + [str(MAX_HAAR_MOMENT_N)])
        assert code == 0 and json.loads(out)["n"] == MAX_HAAR_MOMENT_N
        code, out, err = invoke(argv + [str(MAX_HAAR_MOMENT_N + 1)])
        assert code == 2 and out == ""
        assert f"capped at N = {MAX_HAAR_MOMENT_N}" in err


class TestJacobi:
    def test_methods_agree(self):
        # the same record but for "method", across the Pfaffian route's range
        from ocft.jacobi import MAX_PFAFFIAN_AB, MAX_PFAFFIAN_N

        half = MAX_PFAFFIAN_AB // 2
        for n, a, b, lam in [(2, 1, 1, "1.5"), (1, 0, 0, "1.5"), (3, 1, 2, "0"),
                             (6, 0, 0, "0.9,0.4"), (MAX_PFAFFIAN_N, 2, 3, "1.5"),
                             (4, half, half, "-1.1"),
                             (MAX_PFAFFIAN_N, half, MAX_PFAFFIAN_AB - half, "1.5")]:
            argv = ["jacobi", "--n", str(n), "--a", str(a), "--b", str(b),
                    "--lambda", lam, "--gamma", "1.2", "--method"]
            code_pf, out_pf, _ = invoke(argv + ["pfaffian"])
            code_qd, out_qd, _ = invoke(argv + ["quadrature"])
            assert code_pf == code_qd == 0
            assert out_qd == out_pf.replace('"method": "pfaffian"', '"method": "quadrature"')
            assert '"method": "quadrature"' in out_qd

    def test_quadrature_size_cap(self):
        from ocft.jacobi import MAX_SELBERG_N

        argv = ["jacobi", "--a", "1", "--b", "2", "--lambda", "1.5", "--gamma", "0.7",
                "--method", "quadrature", "--n"]
        for n in (1, 5, 6, 17, 100, MAX_SELBERG_N):
            code, out, _ = invoke(argv + [str(n)])
            assert code == 0 and math.isfinite(json.loads(out)["value"]["re"])
        code, out, err = invoke(argv + [str(MAX_SELBERG_N + 1)])
        assert code == 2 and out == ""
        assert "capped" in err

    def test_pfaffian_zero_product(self):
        code, out, _ = invoke(["jacobi", "--n", "3", "--a", "1", "--b", "2", "--lambda", "0",
                               "--gamma", "1", "--method", "pfaffian"])
        rec = json.loads(out)
        assert code == 0 and rec["value"]["im"] == 0.0
        assert 0.0 < rec["value"]["re"] < 1.0

    def test_pfaffian_size_cap(self):
        from ocft.jacobi import MAX_PFAFFIAN_N

        argv = ["jacobi", "--a", "0", "--b", "0", "--lambda", "1.5", "--gamma", "1.2",
                "--method", "pfaffian", "--n"]
        code, out, _ = invoke(argv + [str(MAX_PFAFFIAN_N)])
        assert code == 0 and json.loads(out)["value"]["im"] == 0.0
        code, out, err = invoke(argv + [str(MAX_PFAFFIAN_N + 1)])
        assert code == 2 and out == ""
        assert "capped" in err


    @pytest.mark.parametrize("method", ["pfaffian", "quadrature"])
    def test_validated_sizes_finish_or_exit_two(self, method):
        for n in (1, 4, 5, 16, 17):
            for a, b in ((0, 0), (20, 20), (300, 300)):
                code, out, err = invoke(
                    ["jacobi", "--n", str(n), "--a", str(a), "--b", str(b),
                     "--lambda", "1.5", "--gamma", "1.2", "--method", method]
                )
                if code == 0:
                    value = json.loads(out)["value"]
                    assert math.isfinite(value["re"]) and math.isfinite(value["im"])
                else:
                    assert code == 2 and out == "" and err.startswith("error: ")

    def test_pfaffian_matches_aomoto(self):
        # Aomoto's M_k / M_0 = binom(N, k) prod_{i<=k} (2a+1+N-i) / (2a+2b+2N+2-i),
        # here binom(4, k) prod_{i<=k} (45 - i) / (90 - i)
        moments = [1.0]
        for k in range(1, 5):
            moments.append(moments[-1] * (5 - k) / k * (45 - k) / (90 - k))
        weighted = [m / math.comb(4, k) for k, m in enumerate(moments)]
        lg = 1.5 * 1.2
        exact = sum(w * lg ** (4 - k) for k, w in enumerate(weighted)) / sum(weighted)
        code, out, _ = invoke(["jacobi", "--n", "4", "--a", "20", "--b", "20",
                               "--lambda", "1.5", "--gamma", "1.2", "--method", "pfaffian"])
        assert code == 0
        assert json.loads(out)["value"]["re"] == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("method", ["pfaffian", "quadrature"])
    def test_large_exponents_exit_two(self, method):
        # each route's a + b cap, MAX_PFAFFIAN_AB = 100 and MAX_SELBERG_AB = 1e18
        a = {"pfaffian": "200", "quadrature": str(10**18)}[method]
        code, out, err = invoke(["jacobi", "--n", "4", "--a", a, "--b", "200",
                                 "--lambda", "1.5", "--gamma", "1.2", "--method", method])
        assert code == 2 and out == ""
        assert "capped" in err


class TestGinibreCheck:
    def test_passes_and_reports_two(self):
        code, out, _ = invoke(
            ["ginibre-check", "--n", "1", "--lambda", "1", "--gamma", "1",
             "--samples", "100000", "--seed", "0"]
        )
        rec = json.loads(out)
        assert code == 0 and rec["passed"]
        assert rec["closed_ratio"]["re"] == pytest.approx(2.0)
        assert abs(rec["mc_ratio"]["re"] - 2.0) <= 3 * rec["mc_std_error"]

    def test_four_colours_pass(self):
        # the exact Gaussian inner moments remove the old 5e-6 pipeline error
        code, out, _ = invoke(
            ["ginibre-check", "--n", "4", "--lambda", "1", "--gamma", "1",
             "--samples", "200000", "--seed", "7"]
        )
        rec = json.loads(out)
        assert code == 0 and rec["passed"]
        assert rec["pipeline_rel_err"] <= 1e-12

    def test_size_cap_gives_a_finite_verdict(self):
        from ocft.jacobi import MAX_GINIBRE_N

        argv = ["ginibre-check", "--lambda", "1", "--gamma", "1", "--samples", "2000",
                "--seed", "1", "--n"]
        code, out, _ = invoke(argv + [str(MAX_GINIBRE_N)])
        rec = json.loads(out)
        assert code == 0 and rec["passed"]
        assert math.isfinite(rec["mc_std_error"]) and rec["mc_std_error"] > 0.0
        assert rec["pipeline_rel_err"] <= 1e-12
        code, out, _ = invoke(argv + [str(MAX_GINIBRE_N + 1)])
        assert code == 2 and out == ""

    def test_negative_lg_at_the_cap_passes(self):
        # the alternating sum at lg = -14.5 lost digits in float arithmetic:
        # pipeline_rel_err read 1.7e-4 against the 1e-6 gate, and the run
        # exited 3; both routes now round the exact rational once
        code, out, _ = invoke(["ginibre-check", "--n", "50", "--lambda=-14.5", "--gamma", "1",
                               "--samples", "2000", "--seed", "1"])
        rec = json.loads(out)
        assert code == 0 and rec["passed"]
        assert rec["pipeline_rel_err"] == 0.0
        assert rec["closed_ratio"] == rec["pipeline_ratio"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_overflow_exits_two(self):
        code, out, err = invoke(["ginibre-check", "--n", "2", "--lambda", "1e200",
                                 "--gamma", "1", "--samples", "2000"])
        assert code == 2 and out == ""
        assert "overflow" in err

    def test_size_cap_is_checked_before_the_closed_form(self):
        # no route runs above the cap
        code, out, err = invoke(["ginibre-check", "--n", "200", "--lambda", "1",
                                 "--gamma", "1", "--samples", "2000"])
        assert code == 2 and out == ""
        assert "capped" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_monte_carlo_overflow_exits_two(self):
        # lg = 1 has a finite closed form, but the Monte-Carlo dets overflow
        code, out, err = invoke(["ginibre-check", "--n", "4", "--lambda", "1e100",
                                 "--gamma", "1e-100", "--samples", "2000"])
        assert code == 2 and out == ""
        assert "overflow" in err


class TestVerifyCft:
    def test_fermionic_small(self):
        code, out, _ = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "1",
             "--flavors", "1", "--samples", "10000"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] and rec["max_abs_z"] <= rec["threshold"]

    @pytest.mark.parametrize("variant, colors, flavors", [("fermionic", "2", "2"),
                                                          ("son", "2", "2"),
                                                          ("fermionic", "8", "1")])
    def test_record_masks_are_python_ints(self, variant, colors, flavors):
        # json.dumps refuses numpy integers with a TypeError that run() does not catch
        from ocft.cli import _RUNNERS

        args = build_parser().parse_args(
            ["verify-cft", "--variant", variant, "--colors", colors, "--flavors", flavors,
             "--samples", "20"])
        record, _ = _RUNNERS["verify-cft"](args)
        assert record["rows"] and all(type(row["mask"]) is int for row in record["rows"])
        json.dumps(record)

    def test_verification_failure_exit_code(self):
        # an absurdly tight threshold forces exit code 3
        code, out, _ = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "2",
             "--flavors", "2", "--samples", "5000", "--threshold", "1e-6"]
        )
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_reports_family_wise_bound(self):
        code, out, _ = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "2",
             "--flavors", "2", "--samples", "5000", "--seed", "3"]
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["rows_tested"] == sum(
            1 for r in rec["rows"] if math.hypot(r["lhs_se"], r["rhs_se"]) > 0
        )
        assert rec["row_threshold"] == pytest.approx(
            cft.sidak_row_bound(rec["threshold"], rec["rows_tested"])
        )
        assert rec["row_threshold"] > rec["threshold"]

    def test_mutated_flavour_side_still_fails(self, monkeypatch):
        # dropping the (-1)^u of the exact flavour side must not pass
        exact = cft.rhs_exact_coefficients

        def unsigned(n_colour, n_flavour):
            # pair p = (U, V) of size u sits on table row p (P + 1)
            sizes = np.array([len(u) for u, _ in cft._minor_pairs(n_colour)])
            out = exact(n_colour, n_flavour)
            out[np.arange(sizes.size) * (sizes.size + 1)] *= (-1.0) ** sizes
            return out

        monkeypatch.setattr(cft, "rhs_exact_coefficients", unsigned)
        code, out, _ = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "3",
             "--flavors", "2", "--samples", "100000", "--seed", "0"]
        )
        rec = json.loads(out)
        assert code == 3 and rec["max_abs_z"] > rec["row_threshold"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "variant, colors, flavors",
        [("fermionic", "2", "2"), ("bosonic", "4", "1"), ("son", "2", "1")],
    )
    def test_worker_count_below_one_is_usage_error(
        self, variant, colors, flavors, workers
    ):
        code, out, err = invoke(
            ["verify-cft", "--variant", variant, "--colors", colors,
             "--flavors", flavors, "--samples", "1000", "--workers", workers]
        )
        assert code == 2 and out == ""
        assert "workers" in err

    def test_flavour_count_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the colour side was sampled")

        monkeypatch.setattr(cft, "lhs_coefficient_means", no_sampling)
        code, _, err = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "2",
             "--flavors", "3", "--samples", "100000"]
        )
        assert code == 2 and "n <= 2" in err

    @pytest.mark.parametrize("variant", ["son", "fermionic"])
    @pytest.mark.parametrize("colors, flavors", [("3", "0"), ("3", "-1"), ("-1", "1")])
    def test_sizes_checked_before_sampling(self, monkeypatch, variant, colors, flavors):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the colour side was sampled")

        monkeypatch.setattr(cft, "lhs_coefficient_means", no_sampling)
        code, out, err = invoke(
            ["verify-cft", "--variant", variant, "--colors", colors,
             "--flavors", flavors, "--samples", "1000"]
        )
        assert code == 2 and out == ""
        assert "need N >= 1 and n >= 1" in err

    def test_son_variant_runs_above_three_colours(self):
        code, out, _ = invoke(
            ["verify-cft", "--variant", "son", "--colors", "4", "--flavors", "2",
             "--samples", "10000", "--seed", "1"]
        )
        assert code == 0 and json.loads(out)["passed"] is True

    def test_son_variant_shares_the_fermionic_cap(self):
        code, out, err = invoke(
            ["verify-cft", "--variant", "son", "--colors", "9", "--flavors", "1"]
        )
        assert code == 2 and out == ""
        assert "N*n = 9 exceeds the cap of 8" in err

    def test_bosonic_size_cap(self):
        argv = ["verify-cft", "--variant", "bosonic", "--flavors", "1", "--samples", "50",
                "--colors"]
        code, out, _ = invoke(argv + [str(cft.MAX_BOSONIC_N)])
        assert code in (0, 3) and json.loads(out)["colors"] == cft.MAX_BOSONIC_N
        code, out, err = invoke(argv + [str(cft.MAX_BOSONIC_N + 1)])
        assert code == 2 and out == ""
        assert f"capped at N = {cft.MAX_BOSONIC_N}" in err

    def test_bosonic_variant_rejects_zero_flavours(self):
        done = subprocess.run(
            [sys.executable, "-m", "ocft.cli", "verify-cft", "--variant", "bosonic",
             "--colors", "3", "--flavors", "0"],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert "need N >= 1 and n >= 1" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_bosonic_variant_serialises(self):
        code, out, _ = invoke(
            ["verify-cft", "--variant", "bosonic", "--colors", "4",
             "--flavors", "1", "--samples", "20000", "--probes", "3",
             "--seed", "2"]
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["passed"] is True and len(rec["rows"]) == 3

    @pytest.mark.parametrize("colors, flavors", [("5", "2"), ("14", "4")])
    def test_bosonic_variant_covers_every_valid_size(self, colors, flavors):
        # N = 2n + 1 has density exponent -1/2; (14, 4) is far from the
        # region a rejection sampler can reach
        started = time.perf_counter()
        code, out, _ = invoke(
            ["verify-cft", "--variant", "bosonic", "--colors", colors,
             "--flavors", flavors, "--samples", "10", "--probes", "2"]
        )
        assert code == 0 and json.loads(out)["passed"] is True
        assert time.perf_counter() - started < 5.0

    def test_byte_identical_reruns(self):
        argv = ["verify-cft", "--variant", "son", "--colors", "2",
                "--flavors", "1", "--samples", "20000", "--seed", "7"]
        _, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert first == second

    def test_csv_format(self):
        code, out, _ = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "1",
             "--flavors", "2", "--samples", "5000", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mask,label,")
        assert len(lines) >= 2

    def test_timing_on_stderr_not_stdout(self):
        _, out, err = invoke(
            ["verify-cft", "--variant", "fermionic", "--colors", "1",
             "--flavors", "1", "--samples", "5000"]
        )
        assert "elapsed" in err and "elapsed" not in out


def test_readme_cli_lines_parse():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("ocft ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_cli_import_does_not_load_scipy():
    code = "import sys, ocft.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
