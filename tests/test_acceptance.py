"""Acceptance suite: one test per release criterion, full stated scale.

Each test prints a PASS line with its headline numbers (run pytest with -s
to see them).  Monte-Carlo criteria use fixed seeds; the z-score bands are
exact-tolerance gates at those seeds.
"""

import time

import numpy as np
import pytest

from ocft.cft import (
    normalization_audit,
    verify_bosonic_cft,
    verify_fermionic_cft,
)
from jacobi_oracles import (
    alpha_closed, alpha_entry_quadrature, inner_pfaffian, inner_symmetrized,
    mehta_determinant,
)
from ocft.haar import RngStream
from haar_oracles import sample_orthogonal_batch
from ocft.jacobi import (
    JacobiQuery,
    ginibre_closed,
    ginibre_mc,
    ginibre_pipeline,
    jacobi_pfaffian,
    jacobi_quadrature,
)
from ocft.linalg import determinant, pfaffian
from ocft.moments import (
    MomentQuery,
    moment_m1_closed,
    moment_mc,
    moment_pfaffian_integral,
)
from random_inputs import random_skew

MILLION = 1_000_000


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion1Pfaffian:
    def test_pfaffian_identities(self):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        dims = rng.choice(np.arange(2, 13, 2), size=200)
        worst_sq = worst_congr = 0.0
        for dim in dims:
            a = random_skew(int(dim), rng)
            pf = pfaffian(a)
            det = determinant(a)
            worst_sq = max(worst_sq, abs(pf**2 - det) / abs(det))
            b = rng.standard_normal((int(dim),) * 2) + 1j * rng.standard_normal(
                (int(dim),) * 2
            )
            lhs = pfaffian(b @ a @ b.T)
            rhs = determinant(b) * pf
            worst_congr = max(worst_congr, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        elapsed = time.perf_counter() - started
        assert worst_sq <= 1e-9
        assert worst_congr <= 1e-9
        assert elapsed < 5.0
        report(
            "1 pfaffian",
            f"200 matrices dims 2-12, pf^2=det err {worst_sq:.1e}, "
            f"congruence err {worst_congr:.1e}, {elapsed:.1f}s",
        )


class TestCriterion2HaarMoments:
    def test_degree_two_moments(self):
        started = time.perf_counter()
        worst = 0.0
        for n, seed in ((2, 202), (3, 203), (4, 208)):
            gen = RngStream(seed).generator()
            nsq = n * n
            sums = np.zeros((nsq, nsq))
            sums_sq = np.zeros((nsq, nsq))
            done = 0
            while done < MILLION:
                b = min(50_000, MILLION - done)
                o = sample_orthogonal_batch(n, b, gen).reshape(b, nsq)
                sums += o.T @ o
                osq = o * o
                sums_sq += osq.T @ osq
                done += b
            mean = sums / MILLION
            var = np.maximum(sums_sq / MILLION - mean**2, 0.0)
            se = np.sqrt(var / MILLION)
            target = np.eye(nsq) / n
            z = np.abs(mean - target) / np.maximum(se, 1e-12)
            worst = max(worst, float(z.max()))
            assert z.max() <= 3.0, f"N={n}: max z = {z.max():.2f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(
            "2 haar moments",
            f"N in 2..4, 1e6 samples each, worst z {worst:.2f}, {elapsed:.0f}s",
        )


class TestCriterion3MomentM1:
    def test_closed_form_equals_monte_carlo(self):
        started = time.perf_counter()
        assert moment_m1_closed(MomentQuery(z=2.0, g=(1.0,))) == pytest.approx(
            5.0, rel=1e-12
        )
        param_rng = np.random.default_rng(303)
        worst = 0.0
        for n in range(1, 7):
            queries = []
            for _ in range(3):
                z = complex(param_rng.normal(), param_rng.normal())
                g = tuple(param_rng.uniform(0.2, 1.5, size=n))
                queries.append(MomentQuery(z=z, g=g))
            # one set of Haar draws per dimension, shared by the 3 queries
            gen = RngStream(304 + n).generator()
            sums = np.zeros(3)
            sums_sq = np.zeros(3)
            eye = np.eye(n)
            done = 0
            while done < MILLION:
                b = min(50_000, MILLION - done)
                o = sample_orthogonal_batch(n, b, gen)
                for qi, q in enumerate(queries):
                    mats = q.z * eye - np.asarray(q.g)[:, None] * o
                    vals = np.abs(np.linalg.det(mats)) ** 2
                    sums[qi] += vals.sum()
                    sums_sq[qi] += (vals**2).sum()
                done += b
            for qi, q in enumerate(queries):
                mean = sums[qi] / MILLION
                var = max(sums_sq[qi] / MILLION - mean**2, 0.0)
                se = np.sqrt(var / MILLION)
                z = abs(mean - moment_m1_closed(q)) / max(se, 1e-12)
                worst = max(worst, z)
                assert z <= 3.0, f"N={n} query {qi}: z = {z:.2f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(
            "3 m=1 identity",
            f"N in 1..6, 3 queries each at 1e6 samples, worst z {worst:.2f}, "
            f"exact point 5.0, {elapsed:.0f}s",
        )


class TestCriterion4PfaffianIntegral:
    def test_m1_quadrature_path(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for n in (1, 2, 3, 5):
            z = complex(rng.normal(), rng.normal())
            g = tuple(rng.uniform(0.2, 1.6, size=n))
            q = MomentQuery(z=z, g=g)
            got = moment_pfaffian_integral(q).mean.real
            want = moment_m1_closed(q)
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-8
        report("4a m=1 pfaffian integral", f"rel err {worst:.1e}")

    def test_m2_against_monte_carlo(self):
        started = time.perf_counter()
        configs = [
            (2, MomentQuery(z=1.0, g=(1.0, 1.0), m=2), 405),
            (3, MomentQuery(z=1.2, g=(0.5, 1.0, 1.5), m=2), 406),
            # complex z: the exact U(4) average against the independent Monte Carlo
            (2, MomentQuery(z=0.9 + 0.4j, g=(0.6, 1.2), m=2), 407),
            (3, MomentQuery(z=0.3 + 1.1j, g=(0.5, 1.0, 1.5), m=2), 408),
        ]
        worst = 0.0
        for n, q, seed in configs:
            pf_est = moment_pfaffian_integral(q)
            mc_est = moment_mc(q, MILLION, RngStream(seed))
            z = abs(pf_est.mean - mc_est.mean) / np.hypot(
                pf_est.std_error, mc_est.std_error
            )
            worst = max(worst, z)
            assert z <= 3.0, f"N={n}: combined z = {z:.2f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0
        report(
            "4b m=2 pfaffian integral",
            f"N in 2,3, real and complex z, vs 1e6-sample MC, worst z {worst:.2f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion5FermionicCft:
    def test_coefficientwise_identity(self):
        started = time.perf_counter()
        worst = 0.0
        for n_colour, seed in ((1, 505), (2, 506), (3, 507)):
            rep = verify_fermionic_cft(n_colour, 2, MILLION, RngStream(seed))
            worst = max(worst, rep.max_abs_z)
            assert rep.passed, f"(N,n)=({n_colour},2): max|z| = {rep.max_abs_z:.2f}"
            assert rep.masks[0] == 0 and rep.lhs[0] == 1.0 and rep.rhs[0] == 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 900.0
        report(
            "5 fermionic identity",
            f"(N,2) for N in 1..3 at 1e6 samples, worst max|z| {worst:.2f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion6BosonicCft:
    def test_probe_identity(self):
        started = time.perf_counter()
        worst = 0.0
        for n_colour, seed in ((4, 606), (6, 607)):
            rep = verify_bosonic_cft(n_colour, 1, 10, MILLION, RngStream(seed))
            worst = max(worst, rep.max_abs_z)
            assert rep.passed, f"N={n_colour}: max|z| = {rep.max_abs_z:.2f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0
        report(
            "6 bosonic identity",
            f"N in 4,6 with 10 probes at 1e6 samples, worst max|z| {worst:.2f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion7JacobiOracles:
    def test_three_oracle_agreement(self):
        started = time.perf_counter()
        worst_inner = worst_ratio = 0.0
        for n in (2, 3):
            for a in (0, 1, 2):
                for b in (0, 1, 2):
                    for c in (0.0, 0.5, 2.0):
                        sym = complex(inner_symmetrized(n, a, b, c))
                        pf = complex(inner_pfaffian(n, a, b, c))
                        md = complex(
                            mehta_determinant(JacobiQuery(1, 1, a, b, n), c)
                        )
                        scale = abs(sym)
                        worst_inner = max(
                            worst_inner,
                            abs(sym - pf) / scale,
                            abs(sym - md) / scale,
                        )
                    q = JacobiQuery(1.5, 1.2, a, b, n)
                    pf_ratio = jacobi_pfaffian(q)
                    qd_ratio = jacobi_quadrature(q)
                    worst_ratio = max(
                        worst_ratio, abs(pf_ratio - qd_ratio) / abs(qd_ratio)
                    )
        elapsed = time.perf_counter() - started
        assert worst_inner <= 1e-5
        assert worst_ratio <= 1e-5
        assert elapsed < 300.0
        report(
            "7 jacobi oracles",
            f"N in 2,3 x (a,b) in 0..2^2: inner err {worst_inner:.1e}, "
            f"ratio err {worst_ratio:.1e}, {elapsed:.0f}s",
        )


class TestCriterion8Ginibre:
    def test_pipeline_and_monte_carlo(self):
        started = time.perf_counter()
        assert ginibre_closed(1.0, 1.0, 1) == pytest.approx(2.0, rel=1e-12)
        worst_pipe = worst_z = 0.0
        for n, seed in ((1, 808), (2, 809), (3, 810)):
            for lg in (0.5, 1.0, 2.0):
                closed = ginibre_closed(lg, 1.0, n)
                pipe = ginibre_pipeline(lg, 1.0, n)
                worst_pipe = max(worst_pipe, abs(pipe - closed) / abs(closed))
            est = ginibre_mc(1.0, 1.0, n, 400_000, RngStream(seed))
            z = est.z_score(ginibre_closed(1.0, 1.0, n))
            worst_z = max(worst_z, z)
            assert z <= 3.0, f"N={n}: z = {z:.2f}"
        elapsed = time.perf_counter() - started
        assert worst_pipe <= 1e-6
        assert elapsed < 300.0
        report(
            "8 ginibre consistency",
            f"N in 1..3: pipeline err {worst_pipe:.1e}, worst MC z {worst_z:.2f}, "
            f"{elapsed:.0f}s (locks the [0,inf) radial domain)",
        )


class TestCriterion9AlphaKernel:
    def test_closed_form_against_defining_integral(self):
        started = time.perf_counter()
        flagged = []
        worst = 0.0
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)):
                    for r in (0.0, 0.5, 2.0):
                        for lg in (0.5, 1.0, 3.0):
                            closed = alpha_closed(i, j, a, b, r, lg)
                            direct = alpha_entry_quadrature(i, j, a, b, r, lg)
                            err = abs(closed - direct) / max(abs(direct), 1e-14)
                            worst = max(worst, err)
                            if err > 1e-6:
                                flagged.append(
                                    (i, j, a, b, r, lg, closed, direct, err)
                                )
        elapsed = time.perf_counter() - started
        if flagged:
            lines = "\n".join(
                f"  alpha[{i},{j}] a={a} b={b} r={r} lg={lg}: "
                f"closed {c:.12g} vs integral {d:.12g} (rel {e:.2e})"
                for i, j, a, b, r, lg, c, d, e in flagged
            )
            pytest.fail(
                "closed-form alpha disagrees with its defining integral "
                f"(transcription typo?) on {len(flagged)} cells:\n{lines}"
            )
        assert elapsed < 60.0
        report(
            "9 alpha kernel",
            f"675 grid cells, worst rel err {worst:.1e}, {elapsed:.0f}s",
        )


class TestCriterion10NormalizationAudit:
    def test_self_consistent_normalisation(self):
        ratios = {}
        for n_colour in (2, 4, 6):
            audit = normalization_audit(n_colour)
            ratios[n_colour] = audit["ratio"]
        # the verification suite must pass under self-normalisation
        rep = verify_fermionic_cft(2, 2, 200_000, RngStream(1010))
        assert rep.passed
        report(
            "10 normalization audit",
            "closed-form/self-consistent ratios "
            + ", ".join(f"N={n}: {r:.12f}" for n, r in ratios.items())
            + f"; verification max|z| {rep.max_abs_z:.2f}",
        )
