"""Tests of the benchmark's oracles and row checks.

Run with: PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from paytobid import cli  # noqa: E402


@pytest.mark.parametrize("rho", [0.0, -0.05, -0.2])
@pytest.mark.parametrize("value", [10.0, 100.0])
def test_chain_at_two_players_is_geometric(value, rho):
    """Two players: the no-re-entry game is the re-entry game, length 1/h."""
    ref = oracles.Reentry.at(2, value, 0.0, 1.0, rho)
    chain = oracles.attrition_chain(ref.lam, 2)
    assert chain.rounds_to_one[2] == pytest.approx(1.0 / ref.hazard, rel=1e-12)
    assert chain.raw_rounds[2] == pytest.approx(ref.raw_length, rel=1e-12)
    assert chain.bids[2] == pytest.approx(ref.closed_fee, rel=1e-12)
    assert chain.active_draws[2] == pytest.approx(2 * ref.raw_length, rel=1e-12)


def _enumerated_chain(lam, n):
    """Expectations from each start by exact enumeration of bid subsets.

    Every subset of the k active players is one outcome of a raw round;
    the empty subset is a replay.  The first-step system over the
    transient states is solved as one dense mpmath system.
    """
    with mpmath.workdps(40):
        states = list(range(2, n + 1))
        move = {k: {m: mpmath.mpf(0) for m in range(1, k + 1)} for k in states}
        reward = {k: [mpmath.mpf(0)] * 6 for k in states}
        for k in states:
            p = oracles.bid_probability(lam, k)
            replay = (1 - p) ** k
            for subset in itertools.product((0, 1), repeat=k):
                m = sum(subset)
                if m:
                    move[k][m] += p**m * (1 - p) ** (k - m) / (1 - replay)
            bidders = sum(m * move[k][m] for m in move[k])
            reward[k] = [1, 1 if k > 2 else 0, 0, bidders, 1 / (1 - replay), k / (1 - replay)]
        solved = []
        for q in range(6):
            # Rounds to <= 2 and the funnel stop at two players.
            stop_at_two = q in (1, 2)
            live = [k for k in states if not (stop_at_two and k == 2)]
            fixed_two = mpmath.mpf(1) if q == 2 else mpmath.mpf(0)
            a = mpmath.matrix(len(live), len(live))
            b = mpmath.matrix(len(live), 1)
            for i, k in enumerate(live):
                b[i] = reward[k][q] + (move[k][2] * fixed_two if stop_at_two else 0)
                for j, m in enumerate(live):
                    a[i, j] = (1 if i == j else 0) - move[k].get(m, 0)
            x = mpmath.lu_solve(a, b)
            solved.append({k: float(x[i]) for i, k in enumerate(live)})
        return solved


@pytest.mark.parametrize("value,rho", [(10.0, 0.0), (100.0, 0.0), (10.0, -0.1)])
def test_chain_matches_enumeration_at_three_players(value, rho):
    lam = oracles.win_ratio(value, 0.0, 1.0, rho)
    chain = oracles.attrition_chain(float(lam), 3)
    exact = _enumerated_chain(lam, 3)
    columns = (chain.rounds_to_one, chain.rounds_to_two, chain.funnel,
               chain.bids, chain.raw_rounds, chain.active_draws)
    for column, want in zip(columns, exact):
        for k, value_k in want.items():
            assert column[k] == pytest.approx(value_k, rel=1e-12)


def test_chain_keeps_working_where_binomials_overflow():
    chain = oracles.attrition_chain(0.01, 1500)
    assert all(0.0 < chain.funnel[k] < 1.0 for k in (3, 1500))
    assert chain.bids[1500] == pytest.approx(100.0, rel=1e-9)  # revenue = v at rho = 0


def _rows(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.argv()) == 0
    return json.loads(out.getvalue())["rows"]


SIM = {"replications": 2000, "seed": 11, "initial_wealth": 0.5}
COMMANDS = {
    "simulate-no-reentry": run.Command(
        "simulate", {**run.params(5, 10, 0, 1, 0), "mode": "no-reentry", **SIM}),
    "simulate-reentry": run.Command(
        "simulate", {**run.params(3, 10, 0, 1, -0.1), "mode": "reentry", **SIM}),
    "revenue": run.Command(
        "revenue", {**run.params(30, 100, 5, 0.5, 0), "replications": 0, "tol": 1e-9},
        (("rho", (0.0, -0.1)),)),
    "attrition": run.Command(
        "attrition", {**run.params(2, 50, 0, 1, 0), "replications": 0}, (("n", (2, 3, 20)),)),
    "equilibrium": run.Command("equilibrium", run.params(50, 20, 0, 1, -0.05)),
}


@pytest.fixture(scope="module")
def outputs():
    return {name: (run.Job(command), _rows(command)) for name, command in COMMANDS.items()}


def _check(job, rows):
    return job.check(rows, checks.z_bound(max(1, job.z_checks)))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_real_rows_pass(outputs, name):
    job, rows = outputs[name]
    failed, problems = _check(job, rows)
    assert problems == []
    # Only the series row at rho = -0.1 fails, and the program says so.
    assert failed == (1 if name == "revenue" else 0)


def _shift(column, se_column):
    """Move a Monte Carlo mean just past the z bound of its own run."""
    def tamper(rows, job):
        rows[0][column] += (checks.z_bound(job.z_checks) + 0.5) * rows[0][se_column]
    return tamper


def _bump(column, index=0, factor=1 + 1e-6):
    def tamper(rows, job):
        rows[index][column] *= factor
    return tamper


def _swap_p(rows, job):
    rows[3]["bid_probability"], rows[4]["bid_probability"] = (
        rows[4]["bid_probability"], rows[3]["bid_probability"])


def _set(column, value, index=0):
    def tamper(rows, job):
        rows[index][column] = value
    return tamper


def _drop_last(rows, job):
    rows.pop()


TAMPERS = [
    ("simulate-no-reentry", _shift("mean_revenue", "se_revenue")),
    ("simulate-no-reentry", _shift("mean_rounds_to_two", "se_rounds_to_two")),
    ("simulate-no-reentry", _shift("mean_raw_length", "se_raw_length")),
    ("simulate-no-reentry", _bump("two_player_passage_fraction", factor=0.8)),
    ("simulate-no-reentry", _set("truncated_replications", 1)),
    ("simulate-reentry", _shift("mean_revenue", "se_revenue")),
    ("simulate-reentry", _shift("mean_effective_length", "se_effective_length")),
    ("simulate-reentry", _shift("mean_player_utility", "se_player_utility")),
    ("simulate-reentry", _set("mean_rounds_to_two", 1.0)),
    ("revenue", _bump("series_fee", factor=1 + 1e-10)),
    ("revenue", _bump("hazard", index=1, factor=1 + 1e-11)),
    ("revenue", _set("status", "OK", index=1)),
    ("attrition", _bump("two_player_endgame_prob", index=2, factor=1 + 1e-8)),
    ("attrition", _bump("expected_rounds_to_one", index=1, factor=1 + 1e-8)),
    ("equilibrium", _bump("bid_probability", index=10, factor=1 + 1e-11)),
    ("equilibrium", _swap_p),
    ("equilibrium", _drop_last),
]


@pytest.mark.parametrize("name,tamper", TAMPERS, ids=lambda t: getattr(t, "__name__", t))
def test_tampered_row_is_flagged(outputs, name, tamper):
    job, rows = outputs[name]
    rows = copy.deepcopy(rows)
    tamper(rows, job)
    _, problems = _check(job, rows)
    assert problems


def test_crashed_command_counts_every_row_failed(outputs):
    job, _ = outputs["attrition"]
    failed, problems = _check(job, [])
    assert failed == job.operations
    assert problems  # and the missing rows are named
