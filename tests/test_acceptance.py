"""Acceptance suite: one test per verification criterion, timed and reported.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts both the numeric tolerance and the runtime ceiling.

Criterion 5a (subcritical survival below 0.01 at p = 0.45) is stated at
depth K = 40.  Its survival is the Binomial(2, 0.45) branching residual
1 - q_K, with q <- (0.55 + 0.45 q)^2 iterated K times from 0.  That residual
decays like c * 0.9^K: 0.0781 at K = 14, eight times the bound, so no correct
simulator could meet it there; 0.0092 at K = 33, the first depth below the
bound but within one standard error of it; 0.0043 at K = 40, below half the
bound.  The companion check 5c verifies the estimator against the exact
depth-14 residual.
"""

import math
import random
import time

import numpy as np

from perclab import (
    ExponentSpec,
    PercolationParams,
    ProbSequence,
    WitnessSpec,
    branching_extinction_prob,
    build_witness,
    estimate_boxdim,
    estimate_measure,
    estimate_survival,
    full_report,
    generate,
)

WINDOW = (64, 512)


def _report(tag: str, ok: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} {tag}: {detail} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"{tag}: {detail}"
    assert elapsed < limit, f"{tag}: runtime {elapsed:.2f}s over {limit}s"


def test_criterion_1_constant_family_dimension_identities():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in (1, 2, 3):
        for m in (2, 3):
            for p in (0.55, 0.7, 0.9):
                if p <= float(m) ** (-n):
                    continue
                rep = full_report(ProbSequence.mfp(p), n, m)
                want = n + math.log(p) / math.log(m)
                for value in (rep.hausdorff, rep.packing, rep.box_lower, rep.box_upper):
                    worst = max(worst, abs(value - want))
                # every surviving case: Assouad is n almost surely, not the formula
                assert rep.assouad == n
                assert rep.expected_measure == 0.0
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (constant-family identities)",
        worst < 1e-9 and checked == 18,
        elapsed,
        1.0,
        f"{checked} configs, worst |dim - (n + log_m p)| = {worst:.2e}",
    )


def test_criterion_2_two_family_table():
    t0 = time.perf_counter()
    worst_analytic = 0.0
    worst_windowed = 0.0
    for n, m in ((1, 2), (2, 3)):
        for p in (0.55, 0.7, 0.9):
            head = ProbSequence.power_head(p, 1.5)
            ana = full_report(head, n, m, window=WINDOW)
            worst_analytic = max(
                worst_analytic,
                abs(ana.expected_measure - 0.0),
                abs(ana.hausdorff - (n + math.log(p) / math.log(m))),
            )
            win = full_report(head, n, m, window=WINDOW, method="windowed")
            worst_windowed = max(
                worst_windowed,
                abs(win.expected_measure - 0.0),
                abs(win.hausdorff - (n + math.log(p) / math.log(m))),
            )
            tele = ProbSequence.power_telescope(p, 0.5)
            ana = full_report(tele, n, m, window=WINDOW)
            worst_analytic = max(
                worst_analytic,
                abs(ana.expected_measure - p),
                abs(ana.hausdorff - n),
            )
            win = full_report(tele, n, m, window=WINDOW, method="windowed")
            worst_windowed = max(
                worst_windowed,
                abs(win.expected_measure - p),
                abs(win.hausdorff - n),
            )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (two-family table)",
        worst_analytic < 1e-9 and worst_windowed < 5e-3,
        elapsed,
        1.0,
        f"analytic err {worst_analytic:.2e}, windowed err {worst_windowed:.2e}",
    )


def test_criterion_3_level_count_mean():
    t0 = time.perf_counter()
    params = PercolationParams(2, 2, 2, ProbSequence.mfp(0.9), seed=303)
    rep = estimate_measure(params, 10_000)
    mean_x2 = rep.estimate * 16
    se_x2 = rep.std_error * 16
    target = 16 * 0.81
    ok = abs(mean_x2 - target) < 4 * se_x2
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (depth-2 count mean)",
        ok,
        elapsed,
        10.0,
        f"mean X_2 = {mean_x2:.3f} vs {target} (4SE = {4 * se_x2:.3f})",
    )


def test_criterion_4_expected_measure():
    t0 = time.perf_counter()
    params = PercolationParams(1, 2, 12, ProbSequence.power_telescope(0.5, 0.5), seed=404)
    rep = estimate_measure(params, 2000)
    want_theory = 0.5 ** (1 - 2.0**-12)
    ok = abs(rep.theory - want_theory) < 1e-12 and abs(rep.z_score) < 4
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (expected measure)",
        ok,
        elapsed,
        30.0,
        f"estimate {rep.estimate:.5f}, theory {rep.theory:.5f}, z = {rep.z_score:.2f}",
    )


def test_criterion_4b_harmonic_expected_measure():
    # p_k = p^(1/k): the depth-K measure p^(H_K) decays to 0 while p_k -> 1
    t0 = time.perf_counter()
    harmonic_k = sum(1.0 / k for k in range(1, 10))
    details = []
    ok = True
    for p in (0.1, 0.5):
        rep = estimate_measure(PercolationParams(2, 2, 9, ProbSequence.power_harmonic(p), seed=1), 4000)
        ok &= abs(rep.theory - p**harmonic_k) < 1e-12 * rep.theory and abs(rep.z_score) < 5
        details.append(f"p={p}: estimate {rep.estimate:.5f}, theory {rep.theory:.5f}, z = {rep.z_score:.2f}")
    elapsed = time.perf_counter() - t0
    _report("criterion 4b (harmonic expected measure)", ok, elapsed, 30.0, "; ".join(details))


def test_criterion_5a_survival_subcritical_bound():
    """Empirical survival < 0.01 at p = 0.45 (m^n p = 0.9), R = 10^4, depth 40.

    At depth 14 the bound cannot hold: the exact residual there is
    1 - q_14 = 0.0781, and 5c shows the engine matches it.  The residual
    falls below 0.01 first at K = 33 (0.0092), too close to the bound for a
    sampled estimate to clear it reliably.  K = 40 is chosen from the exact
    oracle: 1 - q_40 = 0.0043, so with 10^4 replicates (SE about 0.00066) the
    bound sits more than 8 standard errors above the mean.  The premise is
    asserted, so a change to the oracle or the depth fails loudly here.
    """
    depth = 40
    t0 = time.perf_counter()
    residual = 1.0 - branching_extinction_prob(0.45, 2, depth=depth)
    assert residual <= 0.005, f"exact depth-{depth} residual {residual:.4f} leaves no margin"
    params = PercolationParams(1, 2, depth, ProbSequence.mfp(0.45), seed=505)
    rep = estimate_survival(params, 10_000)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5a (subcritical survival < 0.01)",
        rep.estimate < 0.01,
        elapsed,
        60.0,
        f"estimate {rep.estimate:.4f} at K = {depth} vs exact residual {residual:.4f}",
    )


def test_criterion_5b_survival_supercritical():
    t0 = time.perf_counter()
    params = PercolationParams(1, 2, 14, ProbSequence.mfp(0.8), seed=505)
    rep = estimate_survival(params, 10_000)
    ok = abs(rep.estimate - 0.9375) < 0.02 and abs(rep.theory - 0.9375) < 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5b (supercritical survival)",
        ok,
        elapsed,
        60.0,
        f"estimate {rep.estimate:.4f} vs fixed point 0.9375",
    )


def test_criterion_5c_survival_subcritical_exact_oracle():
    """Companion check: the estimator matches the exact depth-14 residual."""
    t0 = time.perf_counter()
    params = PercolationParams(1, 2, 14, ProbSequence.mfp(0.45), seed=505)
    rep = estimate_survival(params, 10_000)
    residual = 1.0 - branching_extinction_prob(0.45, 2, depth=14)
    se = max(rep.std_error, 1e-12)
    ok = abs(rep.estimate - residual) < 4 * se
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5c (subcritical residual vs exact oracle)",
        ok,
        elapsed,
        60.0,
        f"estimate {rep.estimate:.4f} vs exact residual {residual:.4f} (4SE = {4 * se:.4f})",
    )


def test_criterion_6_box_dimension():
    t0 = time.perf_counter()
    params = PercolationParams(2, 2, 10, ProbSequence.mfp(0.9), seed=606)
    rep = estimate_boxdim(params, 20, fit_levels=(4, 10))
    want = 2 + math.log2(0.9)
    ok = abs(rep.slope - want) < 0.15 and rep.replicates_used == 20
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (box-counting slope)",
        ok,
        elapsed,
        120.0,
        f"slope {rep.slope:.4f} vs {want:.4f}, r2 {rep.r_squared:.4f}, attempts {rep.attempts}",
    )


def test_criterion_7_witness_ledger():
    t0 = time.perf_counter()
    ok = True
    # (r, l) = (0.5, 0)
    rep = build_witness(WitnessSpec(r=0.5, l=0.0, n=1, m=2))
    ok &= rep.combined_dim == 0.5 and rep.combined_measure == 0.0
    # (1, 0): an integer target at r = n is met exactly
    rep = build_witness(WitnessSpec(r=1.0, l=0.0, n=1, m=2))
    ok &= rep.combined_dim == 1.0 and rep.combined_measure == 0.0
    # (1, 1.5)
    rep15 = build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2))
    ok &= rep15.combined_dim == 1.0 and rep15.combined_measure == 1.5
    # (2, 2.5) in the plane
    rep = build_witness(WitnessSpec(r=2.0, l=2.5, n=2, m=2))
    ok &= rep.combined_dim == 2.0 and rep.combined_measure == 2.5

    # Monte Carlo cross-check on the (1, 1.5) witness
    carrier = next(c for c in rep15.components if c.label == "measure_carrier")
    params = PercolationParams(1, 2, 12, carrier.seq, seed=707)
    est = estimate_measure(params, 2000)
    scaled_est = carrier.region.volume * est.estimate
    scaled_theory = carrier.region.volume * est.theory  # 1.5 minus the finite-depth deficit
    z_ok = abs(est.z_score) < 4
    ok &= z_ok
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7 (witness ledger)",
        bool(ok),
        elapsed,
        60.0,
        f"targets exact; MC scaled estimate {scaled_est:.4f} vs {scaled_theory:.4f}, z = {est.z_score:.2f}",
    )


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    families = ("mfp", "head", "telescope", "power_tail")
    checked = 0
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        m = rng.choice((2, 3))
        p = rng.uniform(0.3, 0.97)
        kind = rng.choice(families)
        if kind == "mfp":
            seq = ProbSequence.mfp(p)
        elif kind == "head":
            seq = ProbSequence.power_head(p, rng.uniform(1.0, 3.0))
        elif kind == "telescope":
            seq = ProbSequence.power_telescope(p, rng.uniform(0.05, 0.9))
        else:
            tail = rng.uniform(0.5, 1.5)
            vals = sorted((rng.uniform(tail, 2.0) for _ in range(rng.randint(0, 3))), reverse=True)
            seq = ProbSequence.power(p, ExponentSpec.explicit_list(vals, tail))
        rep = full_report(seq, n, m)
        # dimension ordering
        assert 0.0 <= rep.hausdorff <= rep.packing + 1e-9 <= rep.assouad + 2e-9
        assert rep.assouad <= n + 1e-9
        # measure / dimension equivalence, both directions
        if rep.expected_measure > 0.0:
            assert abs(rep.hausdorff - n) < 1e-9
        if rep.hausdorff < n - 1e-6:
            assert rep.expected_measure == 0.0
        # nesting + bit-identical regeneration on a small realization
        params = PercolationParams(n, m, 3, seq, seed=rng.getrandbits(64))
        a = generate(params)
        b = generate(params)
        assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
        for k in range(1, 4):
            parents = {tuple(row) for row in a.levels[k - 1].tolist()}
            for row in a.levels[k].tolist():
                assert tuple(x // m for x in row) in parents
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (property suites)",
        checked == 200,
        elapsed,
        60.0,
        f"{checked} random catalog configurations",
    )
