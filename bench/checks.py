"""Row checks: every output row of a paytobid command against the oracles.

A check returns a list of problems, one string each; an empty list
means the row is right.  Nothing here compares against a stored copy
of earlier output: each expected value comes from ``oracles`` or from a
property the method must have (p(k) strictly decreasing, no truncated
game, Monte Carlo means within a z bound of their expectation).
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Dict, List

import numpy as np

import oracles

# Closed forms against mpmath, and the attrition DP against the chain.
CLOSED_FORM_RTOL = 1e-12
CHAIN_RTOL = 1e-9
# The series may miss the exact fee by its truncation tolerance plus this.
SERIES_SLACK = 1e-9
# Family-wise false-alarm rate of all z checks of one run.  The target is
# 1e-4; a tenth of it leaves room for the skew of geometric game lengths,
# which at the bound can double one tail of a t statistic.
RUN_FALSE_ALARM = 1e-5

PARAM_FIELDS = ("n", "value", "sale_price", "bid_fee", "rho")


def z_bound(checks: int) -> float:
    """Two-sided Bonferroni bound for ``checks`` z tests in one run."""
    return NormalDist().inv_cdf(1.0 - RUN_FALSE_ALARM / (2.0 * checks))


def _rel_err(got, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _close(problems: List[str], name: str, got, want: float, rtol: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        problems.append(f"{name} is {got!r}, expected {want!r}")
    elif _rel_err(got, want) > rtol:
        problems.append(
            f"{name} {got!r} vs oracle {want!r} (rel err {_rel_err(got, want):.3g} > {rtol:g})"
        )


def _within_z(problems: List[str], name: str, mean, se, want: float, z: float) -> None:
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (mean, se)) or se <= 0:
        problems.append(f"{name}: mean {mean!r}, se {se!r} are not a finite estimate")
    elif abs(mean - want) > z * se:
        problems.append(
            f"{name} {mean!r} is {abs(mean - want) / se:.2f} se from oracle {want!r} (bound {z:.2f})"
        )


def _expect(problems: List[str], row: Dict, fields: Dict) -> None:
    for name, want in fields.items():
        if row.get(name) != want:
            problems.append(f"{name} is {row.get(name)!r}, expected {want!r}")


def check_params(row: Dict, point: Dict) -> List[str]:
    """The row echoes its grid point."""
    problems: List[str] = []
    _expect(problems, row, {f: point[f] for f in PARAM_FIELDS})
    return problems


def check_equilibrium(rows: List[Dict], point: Dict, lam: float, p: List[float]) -> List[List[str]]:
    """Rows k = 2..n of one grid point; p[k] is the oracle p(k).

    The table can be long, so the tests run on arrays and only a row
    that fails one of them is described.
    """
    k = np.arange(2, 2 + len(rows))
    got_k = np.array([row.get("k") for row in rows], dtype=float)
    bid = np.array([row.get("bid_probability") for row in rows], dtype=float)
    win = np.array([row.get("win_probability") for row in rows], dtype=float)
    want = np.asarray(p, dtype=float)[k]
    bad = (got_k != k) | ~(np.abs(bid - want) <= CLOSED_FORM_RTOL * want)
    bad |= ~(np.abs(win - lam) <= CLOSED_FORM_RTOL * lam)
    bad[1:] |= ~(bid[1:] < bid[:-1])
    echo = [point[f] for f in PARAM_FIELDS]
    out = []
    for i, row in enumerate(rows):
        if not bad[i] and [row.get(f) for f in PARAM_FIELDS] == echo:
            out.append([])
            continue
        problems = check_params(row, point)
        _expect(problems, row, {"k": int(k[i])})
        _close(problems, "bid_probability", row.get("bid_probability"), float(want[i]), CLOSED_FORM_RTOL)
        _close(problems, "win_probability", row.get("win_probability"), lam, CLOSED_FORM_RTOL)
        if i and not bid[i] < bid[i - 1]:
            problems.append(f"p({k[i]}) = {bid[i]!r} is not below p({k[i] - 1}) = {bid[i - 1]!r}")
        out.append(problems)
    return out


def check_revenue(row: Dict, point: Dict, tol: float, ref: oracles.Reentry) -> List[str]:
    """Closed-form and series columns of one revenue row, replications 0.

    A row the program itself marks FAILED is a failed operation, but its
    closed-form columns are still output and still checked; its series
    columns are not, since the failure the program reports is the series'.
    """
    failed = row.get("status") == "FAILED"
    problems = check_params(row, point)
    for name, want in (
        ("total", ref.total),
        ("fee_component", ref.closed_fee),
        ("hazard", ref.hazard),
        ("expected_entrants", ref.entrants),
        ("expected_length", ref.length),
    ):
        _close(problems, name, row.get(name), want, CLOSED_FORM_RTOL)
    _expect(problems, row, {
        "sale_price_component": point["sale_price"],
        "mc_mean_revenue": None, "mc_se_revenue": None, "replications": 0,
    })
    if not failed:
        series = row.get("series_fee")
        if not isinstance(series, float) or abs(series - ref.exact_fee) > tol + SERIES_SLACK:
            problems.append(
                f"series_fee {series!r} vs exact fee {ref.exact_fee!r} beyond {tol + SERIES_SLACK:g}"
            )
        elif row.get("series_total") != point["sale_price"] + series:
            problems.append(f"series_total {row.get('series_total')!r} is not s + series_fee")
    return problems


def check_attrition(row: Dict, point: Dict, chain: oracles.Chain) -> List[str]:
    """Analytic attrition columns of one row against the chain, replications 0."""
    n = point["n"]
    problems = check_params(row, point)
    e1, e2 = float(chain.rounds_to_one[n]), float(chain.rounds_to_two[n])
    _close(problems, "expected_rounds_to_one", row.get("expected_rounds_to_one"), e1, CHAIN_RTOL)
    _close(problems, "expected_rounds_to_two", row.get("expected_rounds_to_two"), e2, CHAIN_RTOL)
    if n >= 3:
        _close(problems, "endgame_time_fraction", row.get("endgame_time_fraction"), e2 / e1, CHAIN_RTOL)
        _close(problems, "two_player_endgame_prob", row.get("two_player_endgame_prob"),
               float(chain.funnel[n]), CHAIN_RTOL)
    else:
        _expect(problems, row, {"endgame_time_fraction": None, "two_player_endgame_prob": None})
    _expect(problems, row, {"mc_mean_rounds_to_one": None, "replications": 0})
    return problems


class SimExpectation:
    """Expected means of one simulate row, from the oracle for its mode."""

    def __init__(self, point: Dict, mode: str):
        n = point["n"]
        v, s, c, rho = point["value"], point["sale_price"], point["bid_fee"], point["rho"]
        self.no_reentry = mode == "no-reentry"
        self.tracks_two = self.no_reentry and n > 2
        if self.no_reentry:
            chain = oracles.attrition_chain(float(oracles.win_ratio(v, s, c, rho)), n)
            self.revenue = s + c * float(chain.bids[n])
            self.length = float(chain.rounds_to_one[n])
            self.raw_length = float(chain.raw_rounds[n])
            self.rounds_to_two = float(chain.rounds_to_two[n])
            self.funnel = float(chain.funnel[n])
            self.active_draws = float(chain.active_draws[n])
        else:
            ref = oracles.Reentry.at(n, v, s, c, rho)
            self.revenue = ref.total
            self.length = ref.length
            self.raw_length = ref.raw_length

    def z_checks(self) -> int:
        """How many z tests check_simulate makes on a row."""
        return 6 if self.tracks_two else 4


def check_simulate(row: Dict, point: Dict, fixed: Dict, want: SimExpectation, z: float) -> List[str]:
    """Monte Carlo means of one simulate row within z standard errors."""
    problems = check_params(row, point)
    _expect(problems, row, {
        "mode": fixed["mode"], "replications": fixed["replications"], "seed": fixed["seed"],
        "initial_wealth": fixed["initial_wealth"], "truncated_replications": 0,
    })
    _within_z(problems, "mean_revenue", row.get("mean_revenue"), row.get("se_revenue"), want.revenue, z)
    _within_z(problems, "mean_effective_length", row.get("mean_effective_length"),
              row.get("se_effective_length"), want.length, z)
    _within_z(problems, "mean_raw_length", row.get("mean_raw_length"),
              row.get("se_raw_length"), want.raw_length, z)
    with oracles.mpmath.workdps(oracles.DIGITS):
        fair = float(oracles.carl(fixed["initial_wealth"], point["rho"]))
    _within_z(problems, "mean_player_utility", row.get("mean_player_utility"),
              row.get("se_player_utility"), fair, z)
    if want.tracks_two:
        _within_z(problems, "mean_rounds_to_two", row.get("mean_rounds_to_two"),
                  row.get("se_rounds_to_two"), want.rounds_to_two, z)
        # A Bernoulli mean: use its exact standard error, which stays
        # positive when every game in the sample went the same way.
        q = want.funnel
        exact_se = math.sqrt(q * (1.0 - q) / fixed["replications"])
        _within_z(problems, "two_player_passage_fraction",
                  row.get("two_player_passage_fraction"), exact_se, q, z)
    else:
        _expect(problems, row, {"two_player_passage_fraction": None, "mean_rounds_to_two": None})
    return problems
