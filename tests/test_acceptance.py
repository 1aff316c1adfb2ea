"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Monte Carlo results
are cached per configuration for the session, and their compute time is
charged to the criterion that claims a runtime budget regardless of
which test triggered the run first.

Per-round criteria (Monte Carlo, fee series, absolute residuals) run on
the desk-scale grid: the two extreme-premium combinations, (100, 5,
0.5) with rho in {-0.1, -0.5}, have expected game lengths of 8.7e4 and
5.0e20 rounds, where simulation exceeds any round cap and the
equilibrium probability itself falls below double-precision resolution.
Those combinations are checked in closed form only, and the exclusion
rule itself is asserted here.
"""

import json
import subprocess
import sys
import time

from paytobid import (
    GameMode,
    CarlUtility,
    bid_probability,
    closed_form_revenue,
    expected_passage_time,
    prob_two_player_endgame,
    endgame_time_fraction,
    revenue_series,
    run_replications,
)
from paytobid.simulator import BLOCK_SIZE

from helpers import (
    EXTREME_COMBOS,
    FEASIBLE_COMBOS,
    FULL_COMBOS,
    MC_COUNT,
    MC_LENGTH_BUDGET,
    MONEY_GRID,
    RHO_NEGATIVE,
    SUBGAME_SEEDS,
    attrition_params,
    attrition_seed,
    expected_length,
    make_params,
    mc_count_for,
    revenue_seed,
)
from reference import indifference_residual, solve_equilibrium_by_bisection


def report(cid, ok, detail):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_risk_neutral_revenue_equals_value(mc):
    problems = []
    slowest = 0.0
    for money in MONEY_GRID:
        params = make_params(money, rho=0.0, n=3)
        if closed_form_revenue(params).total != params.value:
            problems.append(f"{money}: closed form not bit-exact")
        result = mc(params, GameMode.WITH_REENTRY, MC_COUNT, revenue_seed(money, 0.0, 3))
        spent = mc.duration(params, GameMode.WITH_REENTRY, MC_COUNT, revenue_seed(money, 0.0, 3))
        slowest = max(slowest, spent)
        if abs(result.mean_revenue - params.value) > 3.0 * result.se_revenue:
            problems.append(f"{money}: MC {result.mean_revenue:.4f} off by >3 SE")
        if spent > 30.0:
            problems.append(f"{money}: took {spent:.1f}s > 30s")
        if result.truncated_replications != 0:
            problems.append(f"{money}: {result.truncated_replications} truncated games")
    report(
        "C01",
        not problems,
        problems or f"total == value bit-exact and MC within 3 SE on "
        f"{len(MONEY_GRID)} points (slowest {slowest:.1f}s)",
    )


def test_c02_risk_loving_premium(mc):
    problems = []
    closed_points = mc_points = 0
    for money in MONEY_GRID:
        for rho in RHO_NEGATIVE:
            params = make_params(money, rho=rho, n=3)
            closed_points += 1
            if not closed_form_revenue(params).total > params.value:
                problems.append(f"{money} rho={rho}: no premium")
            if (money, rho) in EXTREME_COMBOS:
                # Simulation is impossible here by construction; assert
                # the exclusion rule rather than silently skipping.
                if not expected_length(money, rho) > MC_LENGTH_BUDGET:
                    problems.append(f"{money} rho={rho}: wrongly excluded from MC")
                continue
            count = mc_count_for(money, rho)
            result = mc(params, GameMode.WITH_REENTRY, count, revenue_seed(money, rho, 3))
            mc_points += 1
            total = closed_form_revenue(params).total
            if abs(result.mean_revenue - total) > 3.0 * result.se_revenue:
                problems.append(
                    f"{money} rho={rho}: MC {result.mean_revenue:.4f} vs {total:.4f} off >3 SE"
                )
    report(
        "C02",
        not problems,
        problems or f"premium on all {closed_points} points, MC confirms on "
        f"{mc_points} desk-scale points ({len(EXTREME_COMBOS)} extreme points closed-form only)",
    )


def test_c03_revenue_independent_of_player_count(mc):
    problems = []
    for money, rho in FULL_COMBOS:
        totals = {closed_form_revenue(make_params(money, rho=rho, n=n)).total for n in range(2, 11)}
        if len(totals) != 1:
            problems.append(f"{money} rho={rho}: totals differ across n: {totals}")
    money, rho = (10.0, 0.0, 1.0), -0.1
    results = {
        n: mc(make_params(money, rho=rho, n=n), GameMode.WITH_REENTRY, MC_COUNT,
              revenue_seed(money, rho, n))
        for n in (2, 5, 10)
    }
    for n_a in results:
        for n_b in results:
            if n_a >= n_b:
                continue
            a, b = results[n_a], results[n_b]
            gap = abs(a.mean_revenue - b.mean_revenue)
            if gap > 3.0 * (a.se_revenue + b.se_revenue):
                problems.append(f"MC n={n_a} vs n={n_b}: intervals do not overlap")
    report(
        "C03",
        not problems,
        problems or "closed form bit-identical for n=2..10 on 12 combos; "
        "MC intervals overlap for n in {2,5,10}",
    )


def test_c04_series_matches_closed_form():
    problems = []
    slowest = 0.0
    points = 0
    for money, rho in FEASIBLE_COMBOS:
        for n in (2, 5, 10):
            params = make_params(money, rho=rho, n=n)
            start = time.perf_counter()
            series_total = revenue_series(params, 1e-9) + params.sale_price
            spent = time.perf_counter() - start
            slowest = max(slowest, spent)
            points += 1
            gap = abs(series_total - closed_form_revenue(params).total)
            if gap > 1e-8:
                problems.append(f"{money} rho={rho} n={n}: |series - closed| = {gap:.2e}")
            if spent > 1.0:
                problems.append(f"{money} rho={rho} n={n}: took {spent:.2f}s > 1s")
    report(
        "C04",
        not problems,
        problems or f"series within 1e-8 of closed form on {points} points "
        f"(slowest {slowest * 1e3:.0f}ms)",
    )


def test_c05_equilibrium_verification():
    problems = []
    worst_root = worst_residual = 0.0
    for money, rho in FULL_COMBOS:
        params = make_params(money, rho=rho, n=10)
        for k in range(2, 11):
            gap = abs(
                solve_equilibrium_by_bisection(params, k, 1e-10) - bid_probability(params, k)
            )
            worst_root = max(worst_root, gap)
            if gap > 1e-9:
                problems.append(f"{money} rho={rho} k={k}: root gap {gap:.2e}")
    for money, rho in FEASIBLE_COMBOS:
        params = make_params(money, rho=rho, n=10)
        for k in range(2, 11):
            residual = abs(indifference_residual(params, k, bid_probability(params, k)))
            worst_residual = max(worst_residual, residual)
            if residual > 1e-12:
                problems.append(f"{money} rho={rho} k={k}: residual {residual:.2e}")
    report(
        "C05",
        not problems,
        problems or f"bisection agrees within 1e-9 (worst {worst_root:.1e}) and "
        f"residual within 1e-12 (worst {worst_residual:.1e})",
    )


def test_c06_subgame_utility_matches_wealth_utility():
    problems = []
    kernel = CarlUtility(-0.1)
    for wealth in (0.0, 5.0):
        for mode, n in ((GameMode.WITH_REENTRY, 3), (GameMode.NO_REENTRY, 4)):
            params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=n)
            result = run_replications(
                params, mode, MC_COUNT, SUBGAME_SEEDS[(wealth, mode.value)],
                initial_wealth=wealth,
            )
            target = kernel.evaluate(wealth)
            if abs(result.mean_player_utility - target) > 3.0 * result.se_player_utility:
                problems.append(
                    f"w0={wealth} {mode.value}: {result.mean_player_utility:.5f} "
                    f"vs u(w0)={target:.5f}"
                )
    report(
        "C06",
        not problems,
        problems or "E[u(w0 + net)] within 3 SE of u(w0) for w0 in {0, 5}, both modes",
    )


def test_c07_attrition_dp_versus_simulation(mc):
    problems = []
    total_compute = 0.0
    for ratio in (10, 100):
        for n in (3, 4, 5):
            params = attrition_params(n, ratio)
            seed = attrition_seed(n, ratio)
            result = mc(params, GameMode.NO_REENTRY, MC_COUNT, seed)
            total_compute += mc.duration(params, GameMode.NO_REENTRY, MC_COUNT, seed)
            checks = [
                ("rounds to 1", result.mean_effective_length,
                 result.se_effective_length, expected_passage_time(params, 1)),
                ("rounds to 2", result.mean_rounds_to_two,
                 result.se_rounds_to_two, expected_passage_time(params, 2)),
                ("funnel prob", result.two_player_passage_fraction,
                 result.se_two_player_passage_fraction, prob_two_player_endgame(params)),
            ]
            for label, mean, se, dp in checks:
                if abs(mean - dp) > 3.0 * se:
                    problems.append(f"n={n} v/c={ratio} {label}: {mean:.4f} vs DP {dp:.4f}")
    if total_compute > 120.0:
        problems.append(f"compute time {total_compute:.0f}s > 120s")
    report(
        "C07",
        not problems,
        problems or f"DP within 3 SE of MC on 6 points, 3 statistics each "
        f"(compute {total_compute:.0f}s)",
    )


def test_c08_attrition_limit_trends():
    ladder = [10.0, 100.0, 1000.0]
    lengths, funnels, fractions = [], [], []
    for ratio in ladder:
        params = attrition_params(4, ratio)
        lengths.append(expected_passage_time(params, 1))
        funnels.append(prob_two_player_endgame(params))
        fractions.append(endgame_time_fraction(params))
    problems = []
    if not lengths[0] < lengths[1] < lengths[2]:
        problems.append(f"game length not increasing: {lengths}")
    if not funnels[0] < funnels[1] < funnels[2]:
        problems.append(f"funnel probability not increasing: {funnels}")
    if not fractions[0] > fractions[1] > fractions[2]:
        problems.append(f"endgame time fraction not decreasing: {fractions}")
    report(
        "C08",
        not problems,
        problems or "along v/c in {10,100,1000}: length up "
        f"({lengths[0]:.1f}->{lengths[2]:.1f}), funnel up ({funnels[0]:.3f}->{funnels[2]:.3f}), "
        f"fraction down ({fractions[0]:.3f}->{fractions[2]:.3f})",
    )


def test_c09_utility_identity_suite():
    problems = []
    amounts = [-10.0, -3.0, -0.5, 0.0, 1.0, 4.5, 10.0]
    for rho in (0.0, -0.01, -0.1, -1.0):
        kernel = CarlUtility(rho)
        for w in amounts:
            for x in amounts:
                direct = kernel.evaluate(w + x)
                gap = abs(kernel.shift_decompose(w, x) - direct)
                if gap > 1e-12 * max(1.0, abs(direct)):
                    problems.append(f"shift identity rho={rho} w={w} x={x}: {gap:.2e}")
    for rho in (-0.01, -0.1, -1.0):
        kernel = CarlUtility(rho)
        for x in (0.1, 0.5, 1.0, 4.5, 10.0):
            if not kernel.evaluate(x) < x * kernel.derivative(x):
                problems.append(f"superlinearity fails rho={rho} x={x}")
            for alpha in (0.1, 0.5, 1.0, 3.0):
                if not kernel.evaluate((1 + alpha) * x) > (1 + alpha) * kernel.evaluate(x):
                    problems.append(f"scaling gain fails rho={rho} x={x} alpha={alpha}")
    for rho in (-1e-3, -1e-6, -1e-9):
        kernel = CarlUtility(rho)
        for x in (0.0, 0.5, 1.0, 10.0, 100.0):
            if abs(kernel.evaluate(x) - x) > abs(rho) * x * x:
                problems.append(f"continuity envelope fails rho={rho} x={x}")
    report("C09", not problems, problems or "shift identity, growth inequalities and "
           "near-neutral envelope hold on the full grid")


def test_c10_determinism():
    problems = []
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=4)
    # Five blocks, the last one partial, so the rerun spans the reduction across blocks.
    count = 4 * BLOCK_SIZE + 1_000
    first = run_replications(params, GameMode.NO_REENTRY, count, 123)
    second = run_replications(params, GameMode.NO_REENTRY, count, 123)
    if json.dumps(first._asdict()) != json.dumps(second._asdict()):
        problems.append("rerun differs")
    argv = [
        sys.executable, "-m", "paytobid.cli", "simulate",
        "--n", "3", "--value", "10", "--bid-fee", "1", "--rho", "-0.1",
        "--replications", "800", "--seed", "42", "--format", "csv",
    ]
    out_a = subprocess.run(argv, capture_output=True).stdout
    out_b = subprocess.run(argv, capture_output=True).stdout
    if out_a != out_b or not out_a:
        problems.append("CLI rerun not byte-identical")
    report("C10", not problems, problems or "rerun and CLI output "
           "byte-identical for fixed (config, seed)")
