"""Command-line surface: tables, formats, exit codes, config merging."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import paytobid
import paytobid.cli as cli
from paytobid import (
    AuctionParams,
    SimulationResult,
    bid_probability,
    closed_form_revenue,
    win_probability,
)
from paytobid.cli import main
from paytobid.equilibrium import bid_probabilities

from helpers import NO_SHRINK, domain_points, make_params

BASE = ["--n", "3", "--value", "10", "--sale-price", "0", "--bid-fee", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.endswith("\n")
    return rows


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

def test_equilibrium_table_values(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", *BASE, "--rho", "0", "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert [r["k"] for r in rows] == ["2", "3"]
    params = make_params((10.0, 0.0, 1.0), n=3)
    assert float(rows[0]["bid_probability"]) == bid_probability(params, 2)
    assert float(rows[1]["bid_probability"]) == bid_probability(params, 3)
    assert float(rows[0]["win_probability"]) == float(rows[1]["win_probability"])


def test_fee_invariant_violation_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["equilibrium", "--n", "2", "--value", "10", "--bid-fee", "12"]
    )
    assert code == 2
    assert out == ""
    assert "bid_fee < value - sale_price" in err


def test_positive_rho_exits_2(capsys):
    code, _, err = run_cli(capsys, ["equilibrium", *BASE, "--rho", "0.1"])
    assert code == 2
    assert "rho <= 0" in err


def test_missing_required_setting_exits_2(capsys):
    code, _, err = run_cli(capsys, ["equilibrium", "--n", "3"])
    assert code == 2
    assert "value" in err


# ---------------------------------------------------------------------------
# revenue
# ---------------------------------------------------------------------------

def test_revenue_row_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["revenue", *BASE, "--rho", "-0.1"])
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["rows"]
    breakdown = closed_form_revenue(make_params((10.0, 0.0, 1.0), rho=-0.1, n=3))
    assert row["status"] == "OK"
    assert row["total"] == breakdown.total
    assert abs(row["series_total"] - row["total"]) <= 1e-9 + 1e-9
    assert row["mc_mean_revenue"] is None


@pytest.mark.parametrize("n", ["2", "3"])
def test_revenue_series_beyond_its_budget_exits_3(capsys, n):
    argv = ["--n", n, "--value", "100", "--sale-price", "5", "--bid-fee", "0.5", "--rho", "-0.5"]
    code, out, err = run_cli(capsys, ["revenue", *argv])
    assert code == 3
    assert out == ""
    assert "fee series" in err


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_non_finite_tol_exits_2(capsys, tol):
    # --tol inf once printed an OK row: series_fee 2.118 against a fee of 10.
    code, out, err = run_cli(capsys, ["revenue", *BASE, f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert "truncation tolerance" in err


def test_breakdown_fields_are_revenue_columns():
    # _revenue_rows spreads the breakdown's _asdict() into its row.
    fields = list(closed_form_revenue(make_params((10.0, 0.0, 1.0)))._asdict())
    assert fields == [
        "sale_price_component", "fee_component", "total", "hazard", "expected_entrants",
        "expected_length",
    ]
    assert set(fields) <= set(cli.TABLES["revenue"].columns)


UNDERFLOW = "win ratio u(bid_fee) / u(value - sale_price) underflows to 0"


@pytest.mark.parametrize(
    "argv,message",
    [
        # u(v - s) = e**700 / 1 against u(c) = 1e-300.
        (["equilibrium", "--n", "3", "--value", "700", "--bid-fee", "1e-300", "--rho=-1"], UNDERFLOW),
        (["equilibrium", "--n", "3", "--value", "1e308", "--bid-fee", "1e-300"], UNDERFLOW),
        (["revenue", "--n", "3", "--value", "1e308", "--bid-fee", "1e-300"], UNDERFLOW),
        (["attrition", "--n", "3", "--value", "1e308", "--bid-fee", "1e-300"], UNDERFLOW),
        # u(c) and u(v - s) round to the same float, so lambda is 1.
        (
            [
                "revenue", "--n", "3", "--value", "0.002646798246996781",
                "--bid-fee", "0.0026467982469967804", "--rho=-0.07978924461484152",
            ],
            "rounds to 1",
        ),
        (
            [
                "attrition", "--n", "3", "--value", "0.002646798246996781",
                "--bid-fee", "0.0026467982469967804", "--rho=-0.07978924461484152",
            ],
            "rounds to 1",
        ),
        # Leaving two players takes a chance of 2e-309, so the expected
        # rounds pass the float range.
        (
            ["attrition", "--n", "10", "--value", "1", "--bid-fee", "1e-309"],
            "overflow",
        ),
        # At the lambda = 1 point above p(k) would be -0, with no chain to fail.
        (
            [
                "equilibrium", "--n", "3", "--value", "0.002646798246996781",
                "--bid-fee", "0.0026467982469967804", "--rho=-0.07978924461484152",
            ],
            "rounds to 1",
        ),
        # Nobody would ever bid, so every round would be replayed.
        (
            [
                "simulate", "--n", "3", "--value", "0.002646798246996781",
                "--bid-fee", "0.0026467982469967804", "--rho=-0.07978924461484152",
                "--replications", "10",
            ],
            "rounds to 1",
        ),
        # s + c * u(v - s) / u(c) = 1e308 + 1e307 * 1.79 passes the float
        # range; the row once read "total": Infinity with status OK.
        (
            [
                "revenue", "--n", "3", "--value", "1.79e308", "--sale-price", "1e308",
                "--bid-fee", "1e307", "--rho=-1e-308",
            ],
            "passes the float range",
        ),
    ],
)
def test_win_ratio_at_the_float_edges_exits_3(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert message in err


def test_revenue_monte_carlo_column(capsys):
    code, out, _ = run_cli(
        capsys, ["revenue", *BASE, "--rho", "0", "--replications", "3000", "--seed", "5"]
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "OK"
    assert row["replications"] == 3000
    assert abs(row["mc_mean_revenue"] - 10.0) <= 3.0 * row["mc_se_revenue"]


def test_revenue_monte_carlo_column_simulates_the_configured_mode(capsys):
    """By Wald's identity the closed form holds without re-entry too."""
    argv = ["--n", "10", *BASE[2:], "--rho=-0.1", "--mode", "no-reentry",
            "--replications", "3000", "--seed", "1018"]
    code, out, _ = run_cli(capsys, ["revenue", *argv])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "OK"
    assert abs(row["mc_mean_revenue"] - row["total"]) <= 3.0 * row["mc_se_revenue"]
    code, out, _ = run_cli(capsys, ["simulate", *argv])
    assert code == 0
    (sim,) = json.loads(out)["rows"]
    assert (row["mc_mean_revenue"], row["mc_se_revenue"]) == (sim["mean_revenue"], sim["se_revenue"])


def test_revenue_marked_failed_when_checks_break(capsys, monkeypatch):
    junk = SimulationResult(
        replications=100, truncated_replications=0, initial_wealth=0.0,
        mean_revenue=99.0, se_revenue=1e-6,
        mean_effective_length=1.0, se_effective_length=1e-6,
        mean_raw_length=1.0, se_raw_length=1e-6,
        mean_player_utility=0.0, se_player_utility=1e-6,
        two_player_passage_fraction=None, se_two_player_passage_fraction=None,
        mean_rounds_to_two=None, se_rounds_to_two=None,
    )
    monkeypatch.setattr(cli, "run_replications", lambda *a, **k: junk)
    code, out, _ = run_cli(
        capsys, ["revenue", *BASE, "--rho", "0", "--replications", "100"]
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "FAILED"
    assert "3 standard errors" in row["reason"]


def test_revenue_sweep_reports_skipped_combinations(capsys):
    code, out, _ = run_cli(
        capsys, ["revenue", *BASE, "--rho", "0", "--sweep", "c=1,12", "--format", "csv"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["status"] for r in rows] == ["OK", "SKIPPED"]
    assert "bid_fee < value - sale_price" in rows[1]["reason"]
    assert rows[1]["total"] == ""


def test_sweep_combinations_are_crossed(capsys):
    code, out, _ = run_cli(
        capsys,
        ["equilibrium", *BASE, "--rho", "0", "--sweep", "n=2,3", "--sweep", "v=10,20"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    seen = {(r["n"], r["value"]) for r in rows}
    assert seen == {(2, 10.0), (2, 20.0), (3, 10.0), (3, 20.0)}


def test_bad_sweep_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["revenue", *BASE, "--sweep", "zzz=1,2"])
    assert code == 2
    assert "sweep" in err


# ---------------------------------------------------------------------------
# attrition
# ---------------------------------------------------------------------------

def test_attrition_ladder_trends(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "attrition", "--n", "4", "--value", "10", "--bid-fee", "1",
            "--sweep", "v=10,100,1000",
        ],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    to_one = [r["expected_rounds_to_one"] for r in rows]
    funnel = [r["two_player_endgame_prob"] for r in rows]
    fraction = [r["endgame_time_fraction"] for r in rows]
    assert to_one[0] < to_one[1] < to_one[2]
    assert funnel[0] < funnel[1] < funnel[2]
    assert fraction[0] > fraction[1] > fraction[2]
    assert rows[0]["mc_mean_rounds_to_one"] is None


def test_attrition_monte_carlo_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "attrition", "--n", "3", "--value", "10", "--bid-fee", "1",
            "--replications", "2000", "--seed", "9",
        ],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (
        abs(row["mc_mean_rounds_to_one"] - row["expected_rounds_to_one"])
        <= 4.0 * row["mc_se_rounds_to_one"]
    )
    assert row["mc_two_player_fraction"] is not None


@pytest.mark.parametrize(
    "argv,expected",
    [
        # Frozen from a 60-digit evaluation of the chain; C(1500, m)
        # overflows a float.
        (
            ["--n", "1500", "--value", "100", "--bid-fee", "1"],
            {
                "expected_rounds_to_one": 47.443497937512176,
                "expected_rounds_to_two": 4.5098425740352253,
                "two_player_endgame_prob": 0.85017139333617723,
            },
        ),
        # lambda is about 1e-23, so 1 - T[2, 2] rounds to 0 in floats.
        (
            ["--n", "2", "--value", "1000", "--bid-fee", "1", "--rho", "-0.05"],
            {"expected_rounds_to_one": 5.0561679923540723e22, "expected_rounds_to_two": 0.0},
        ),
    ],
)
def test_attrition_at_the_edges_of_the_domain(capsys, argv, expected):
    code, out, _ = run_cli(capsys, ["attrition", *argv])
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "OK"
    for column, value in expected.items():
        assert row[column] == pytest.approx(value, rel=1e-9)


def test_sweep_keeps_its_good_rows_when_a_point_fails(capsys):
    # u(1e6) is past the exp range at rho = -0.05: the row function raises.
    point = ["--bid-fee", "1", "--rho=-0.05"]
    code, out, err = run_cli(
        capsys, ["attrition", "--n", "2", "--value", "10", *point, "--sweep", "n=2,3",
                 "--sweep", "v=10,1e6"]
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [(r["status"], r["n"], r["value"]) for r in rows] == [
        ("OK", 2, 10.0), ("FAILED", 2, 1e6), ("OK", 3, 10.0), ("FAILED", 3, 1e6)
    ]
    for row in rows[1::2]:
        assert row["reason"].startswith("|rho * x| = 50000 exceeds the exp range")
    # Without a sweep the same point still fails the run.
    code, out, err = run_cli(capsys, ["attrition", "--n", "2", "--value", "1e6", *point])
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: |rho * x| = 50000 exceeds the exp range")


def test_failed_sweep_row_reports_what_a_skipped_row_does(capsys):
    # At rho = -0.1 the square of u(3529), about 1e154, overflows in the
    # utility estimate; rho = 0.5 is outside the domain.
    argv = ["simulate", *BASE, "--mode", "reentry", "--replications", "8",
            "--initial-wealth", "3529", "--sweep", "rho=0,-0.1,0.5"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    ok, failed, skipped = json.loads(out)["rows"]
    assert (ok["status"], failed["status"], skipped["status"]) == ("OK", "FAILED", "SKIPPED")
    assert failed["reason"] == "overflow encountered in square"

    def filled(row):
        return {column for column, value in row.items() if value is not None}

    assert filled(failed) == filled(skipped) == {
        "status", "reason", "n", "value", "sale_price", "bid_fee", "rho", "mode", "replications"
    }


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_requires_replications(capsys):
    code, _, err = run_cli(capsys, ["simulate", *BASE])
    assert code == 2
    assert "replications" in err


def test_simulate_two_players_has_no_passage_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", "--n", "2", "--value", "10", "--bid-fee", "1",
            "--mode", "no-reentry", "--replications", "500", "--seed", "1",
        ],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["two_player_passage_fraction"] is None
    assert row["mean_rounds_to_two"] is None
    assert row["truncated_replications"] == 0


def test_simulate_rerun_is_byte_identical(capsys):
    argv = [
        "simulate", *BASE, "--rho", "-0.1", "--mode", "no-reentry",
        "--replications", "1000", "--seed", "77", "--format", "csv",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


# The hazard is about 2e-21, and without re-entry p(2) = 1 - lambda rounds to
# 1.0, so in either mode a game bids on to whatever cap it is given.
TINY_HAZARD = ["--n", "3", "--value", "100", "--sale-price", "5", "--bid-fee", "0.5", "--rho=-0.5"]


@pytest.mark.parametrize("mode", ["reentry", "no-reentry"])
def test_simulate_with_every_game_truncated_exits_2(capsys, mode):
    # Both games bid on to the cap.  A player who bid in every round has
    # lost 1500, beyond the exp range of the utility kernel at this rho;
    # truncated games enter no mean, so their utility is never evaluated.
    code, out, err = run_cli(
        capsys,
        ["simulate", *TINY_HAZARD, "--replications", "2", "--round-cap", "3000", "--mode", mode],
    )
    assert code == 2
    assert out == ""
    assert "all 2 replications hit the round cap 3000" in err


def test_sweep_keeps_its_good_rows_when_every_game_of_a_point_hits_the_cap(capsys):
    # The point of the test above, next to rho = 0, where both games end.
    code, out, err = run_cli(
        capsys,
        [
            "simulate", "--n", "3", "--value", "100", "--sale-price", "5", "--bid-fee", "0.5",
            "--rho=-0.5", "--replications", "2", "--round-cap", "3000", "--sweep", "rho=0,-0.5",
        ],
    )
    assert (code, err) == (0, "")
    ok, failed = json.loads(out)["rows"]
    assert (ok["status"], ok["rho"], ok["truncated_replications"]) == ("OK", 0.0, 0)
    assert (failed["status"], failed["rho"]) == ("FAILED", -0.5)
    assert failed["reason"].startswith("all 2 replications hit the round cap 3000; ")


@pytest.mark.parametrize("mode", ["reentry", "no-reentry"])
def test_simulate_beyond_the_raw_round_budget_exits_3(mode):
    # lambda is one ulp below 1, so p(5) is about 2.8e-17 and nearly every
    # raw round would be a replay.  A subprocess, so a hang fails the test.
    proc = subprocess.run(
        [
            sys.executable, "-m", "paytobid.cli", "simulate", "--n", "5", "--value", "1",
            "--bid-fee", "0.9999999999999999", "--replications", "10", "--mode", mode,
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "the budget is 1e+11 raw rounds" in proc.stderr


# lambda is near 1, so all three players pass in nearly every raw round.
REPLAYS = ["--n", "3", "--value", "1", "--bid-fee", "0.9999999999"]


@pytest.mark.parametrize("mode", ["reentry", "no-reentry"])
@pytest.mark.parametrize(
    "point",
    [
        TINY_HAZARD,
        # The start state is left within a few rounds, but the two-player
        # tail ends with chance about 1.3e-21 per round.
        ["--n", "10", *TINY_HAZARD[2:]],
        REPLAYS,
    ],
    ids=["tiny-hazard", "two-player-tail", "replays"],
)
def test_simulate_beyond_the_step_budget_of_one_game_exits_3(point, mode):
    # The raw-round budget of the run lets each of these through, but its
    # one game would play the whole cap of 10**7 lockstep steps, or more,
    # which once took minutes.  A subprocess, so a hang fails the test.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "paytobid.cli", "simulate", *point, "--replications", "1",
         "--mode", mode],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "the budget is 1e+06 raw rounds per game" in proc.stderr
    if point == REPLAYS:  # the game expects one effective round; the rest are replays
        assert "since all 3 players pass with chance 1 - 1.5e-10;" in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "revenue", "attrition"])
def test_seed_beyond_a_philox_key_exits_2(capsys, command):
    argv = [command, *BASE, "--replications", "10", "--seed", str(2**128)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: master seed must be below 2**128, got {2**128}\n"


@pytest.mark.parametrize(
    "seed, message",
    [
        ("-1", "must be a non-negative integer, got -1"),
        (str(2**128), f"must be below 2**128, got {2**128}"),
    ],
    ids=["negative", "2**128"],
)
def test_seed_is_refused_before_the_raw_round_budget(capsys, seed, message):
    # The point of the budget test above: a bad seed is a configuration
    # error, whatever the run would cost.
    argv = ["simulate", "--n", "5", "--value", "1", "--bid-fee", "0.9999999999999999",
            "--replications", "10", f"--seed={seed}"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: master seed {message}\n"


# u(3529) is about 1e154 at rho = -0.1, so its squares overflow; at n = 100
# and rho = -0.001 a game's sum of 100 utilities near 1e307 does.  At a fee
# of 1e307 the game of seed 3 makes more than 17 bids, so its revenue
# overflows in either mode.  Such a row once reported an infinite figure
# with exit 0, after numpy's warning.
OVERFLOWS = [  # mode, n, rho, wealth, op, then value, bid fee, replications, seed
    ("reentry", 3, -0.1, 3529, "square", 10, 1, 8, 0),
    ("reentry", 100, -0.001, 699990, "reduce", 10, 1, 8, 0),
    ("no-reentry", 100, -0.001, 699990, "multiply", 10, 1, 8, 0),
    ("reentry", 30, 0.0, 0, "multiply", 1.7e308, 1e307, 1, 3),
    ("no-reentry", 30, 0.0, 0, "multiply", 1.7e308, 1e307, 1, 3),
]


@pytest.mark.parametrize(
    "mode, n, rho, wealth, op, value, fee, replications, seed",
    OVERFLOWS,
    ids=["-".join(map(str, case[:5])) for case in OVERFLOWS],
)
def test_utility_estimate_past_the_float_range_exits_3(
    capsys, mode, n, rho, wealth, op, value, fee, replications, seed
):
    argv = ["simulate", "--n", str(n), "--value", str(value), "--bid-fee", str(fee),
            f"--rho={rho}", "--mode", mode, "--replications", str(replications),
            "--seed", str(seed), "--initial-wealth", str(wealth)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: overflow encountered in {op}\n"


@pytest.mark.parametrize("source", ["flag", "json"])
@pytest.mark.parametrize("wealth", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_wealth_exits_2(capsys, tmp_path, source, wealth):
    argv = ["simulate", *BASE, "--replications", "10"]
    if source == "flag":
        argv.append(f"--initial-wealth={wealth!r}")
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"initial_wealth": wealth}))  # NaN, Infinity, -Infinity
        argv += ["--config", str(config)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: initial wealth must be finite, got {wealth!r}\n"


# ---------------------------------------------------------------------------
# formats and config files
# ---------------------------------------------------------------------------

def test_csv_and_json_carry_identical_values(capsys):
    argv = ["revenue", *BASE, "--rho", "-0.05", "--replications", "400", "--seed", "2"]
    code_j, out_j, _ = run_cli(capsys, argv + ["--format", "json"])
    code_c, out_c, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code_j == code_c == 0
    json_rows = json.loads(out_j)["rows"]
    csv_rows = parse_csv(out_c)
    assert len(json_rows) == len(csv_rows) == 1
    for column, json_value in json_rows[0].items():
        cell = csv_rows[0][column]
        if json_value is None:
            assert cell == ""
        elif isinstance(json_value, float):
            assert float(cell) == json_value  # exact round-trip at 17 digits
        else:
            assert cell == str(json_value)


def test_config_file_assignments_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# base experiment\n"
        "n = 4\n"
        "value = 10\n"
        "bid-fee = 1\n"
        "rho = -0.1\n"
    )
    code, out, _ = run_cli(
        capsys, ["equilibrium", "--config", str(config), "--n", "2"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [2]  # flag wins over the file
    assert rows[0]["rho"] == -0.1


def test_config_file_json_document(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"n": 3, "value": 10, "bid_fee": 1, "sweep": ["c=1,2"]})
    )
    code, out, _ = run_cli(capsys, ["equilibrium", "--config", str(config)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["bid_fee"] for r in rows} == {1.0, 2.0}


@pytest.mark.parametrize("sweep", [5, [5], None, {"n": "2"}])
def test_json_sweep_of_the_wrong_type_exits_2(capsys, tmp_path, sweep):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 3, "value": 10, "bid_fee": 1, "sweep": sweep}))
    code, out, err = run_cli(capsys, ["equilibrium", "--config", str(config)])
    assert code == 2
    assert out == ""
    assert "sweep" in err


# A non-default value for every setting, and a command whose output shows it.
SETTING_CASES = {
    "n": ("equilibrium", 4),
    "value": ("equilibrium", 20.0),
    "sale_price": ("revenue", 1.5),
    "bid_fee": ("equilibrium", 2.0),
    "rho": ("revenue", -0.05),
    "mode": ("simulate", "no-reentry"),
    "replications": ("simulate", 30),
    "seed": ("simulate", 8),
    "round_cap": ("simulate", 2),
    "tol": ("revenue", 1e-4),
    "format": ("equilibrium", "csv"),
    "initial_wealth": ("simulate", 0.75),
}


def test_setting_cases_cover_every_setting():
    assert set(SETTING_CASES) == set(cli.SETTINGS)


# bool is an int subclass, so int(True) would read a JSON true as 1.
NUMERIC_SETTINGS = [key for key, setting in cli.SETTINGS.items() if setting.type in (int, float)]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("key", NUMERIC_SETTINGS)
def test_json_bool_setting_exits_2(capsys, tmp_path, key, flag):
    command, _ = SETTING_CASES[key]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 3, "value": 10, "bid_fee": 1, "replications": 20, key: flag}))
    code, out, err = run_cli(capsys, [command, "--config", str(config)])
    assert code == 2
    assert out == ""
    kind = cli.SETTINGS[key].type.__name__
    assert err == f"error: config key {key!r}: {flag!r} is not a {kind}\n"


FLOAT_SETTINGS = [key for key, setting in cli.SETTINGS.items() if setting.type is float]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("key", FLOAT_SETTINGS)
def test_json_integer_past_the_float_range_exits_2(capsys, tmp_path, key, sign):
    command, _ = SETTING_CASES[key]
    config = tmp_path / "run.json"
    doc = {"n": 3, "value": 10, "bid_fee": 1, "replications": 20, key: sign * 10**400}
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [command, "--config", str(config)])
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r}: int too large to convert to float\n"


@pytest.mark.parametrize(
    "text", [b"n = 3\nvalue = 10\xff\nbid-fee = 1\n", b'{"n": 3, "value": 10, "\xff": 1}'],
    ids=["lines", "json"],
)
def test_config_file_that_is_not_utf8_exits_2(capsys, tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    code, out, err = run_cli(capsys, ["equilibrium", "--config", str(config)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read config file {str(config)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "text", ['{"n": 3, "value": 10, "bid_fee": 1}', "n = 3\nvalue = 10\nbid-fee = 1\n"],
    ids=["json", "lines"],
)
def test_config_file_with_a_byte_order_mark_is_read(capsys, tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbf" + text.encode())  # as some Windows editors save it
    code, out, err = run_cli(capsys, ["equilibrium", "--config", str(config)])
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, ["equilibrium", "--n", "3", "--value", "10", "--bid-fee", "1"])[1]


@pytest.mark.parametrize(
    "flags,config",
    [
        (["--sweep", "n=2,3", "--sweep", "n=4"], None),
        ([], {"sweep": ["n=2,3", "n=4"]}),
        ([], "sweep = n=2,3\nsweep = n=4\n"),
        (["--sweep", "n=4"], "sweep = n=2,3\n"),
    ],
    ids=["flags", "json-list", "lines", "file-and-flag"],
)
def test_repeated_sweep_axis_exits_2(capsys, tmp_path, flags, config):
    argv = ["equilibrium", *BASE, *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: sweep 'n=4' repeats the n axis; list all its values in one sweep\n"


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--sweep", "n="], None, "error: sweep 'n=' lists no values\n"),
        (["--sweep", "n=a,3"], None, "error: bad sweep value in 'n=a,3': "),
        ([], '{"n": 3,', "is not valid JSON: "),
        ([], "n 3\n", "line 1: expected key = value\n"),
    ],
    ids=["empty-sweep", "bad-sweep-value", "bad-json", "no-equals-sign"],
)
def test_bad_sweep_or_config_text_exits_2(capsys, tmp_path, flags, config, message):
    argv = ["equilibrium", *BASE, *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("encoding", ["lines", "json"])
@pytest.mark.parametrize("key", list(SETTING_CASES))
def test_config_file_and_flags_agree(capsys, tmp_path, key, encoding):
    command, value = SETTING_CASES[key]
    values = {"n": 3, "value": 10.0, "bid_fee": 1.0, key: value}
    if command == "simulate":
        values.setdefault("replications", 20)

    def flags(skip=None):
        return [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if k != skip]

    config = tmp_path / "run.cfg"
    if encoding == "json":
        config.write_text(json.dumps(values))
    else:
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    code_flags, out_flags, _ = run_cli(capsys, [command, *flags()])
    code_file, out_file, _ = run_cli(capsys, [command, "--config", str(config)])
    _, out_without, _ = run_cli(capsys, [command, *flags(skip=key)])
    assert code_flags == code_file == 0
    assert out_file == out_flags
    assert out_flags != out_without  # the case really exercises the setting


def test_unknown_config_key_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("frobnicate = 3\n")
    code, _, err = run_cli(capsys, ["equilibrium", "--config", str(config), *BASE])
    assert code == 2
    assert "frobnicate" in err


# Subcommand -> the run settings that it does not read: 11 of the 48
# (subcommand, setting) pairs.
UNREAD = {
    "equilibrium": ("mode", "replications", "seed", "round_cap", "tol", "initial_wealth"),
    "revenue": ("initial_wealth",),
    "attrition": ("mode", "tol", "initial_wealth"),
    "simulate": ("tol",),
}
UNREAD_PAIRS = [(command, key) for command, keys in UNREAD.items() for key in keys]


@pytest.mark.parametrize("source", ["flag", "json", "lines"])
@pytest.mark.parametrize("command, key", UNREAD_PAIRS)
def test_unread_setting_is_refused(capsys, tmp_path, command, key, source):
    # A value the setting accepts where it is read: only the subcommand refuses it.
    value = SETTING_CASES[key][1]
    values = {"n": 3, "value": 10.0, "bid_fee": 1.0}
    if command == "simulate":
        values["replications"] = 20
    argv = [command, *(f"--{k.replace('_', '-')}={v}" for k, v in values.items())]
    unread = f"--{key.replace('_', '-')}={value}"
    if source == "flag":
        argv.append(unread)
    else:
        config = tmp_path / "run.cfg"
        config.write_text(json.dumps({key: value}) if source == "json" else f"{key} = {value}\n")
        argv += ["--config", str(config)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag the subcommand lacks
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if source == "flag":
        # The subcommand's parser prints its usage, then its error.
        assert captured.err.startswith(f"usage: paytobid {command} [-h] ")
        assert captured.err.splitlines()[-1] == (
            f"paytobid {command}: error: unrecognized arguments: {unread}"
        )
    else:
        assert captured.err == f"error: {command} does not read config key {key!r}\n"


@pytest.mark.parametrize("replications", [True, False], ids=["replications", "none"])
@pytest.mark.parametrize("command", list(cli.TABLES))
def test_commands_read_exactly_their_settings(capsys, monkeypatch, command, replications):
    spec = cli.TABLES[command]
    expected = {*spec.settings, "n", "value", "sale_price", "bid_fee", "rho", "format", "sweep"}
    reads = set()

    class ReadLog(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                reads.add(name)
            return super().__getattribute__(name)

    def resolve_config(args):
        cfg = resolve(args)
        assert set(vars(cfg)) == {*spec.setting_keys(), "sweep"}
        return ReadLog(**vars(cfg))

    resolve = cli.resolve_config
    monkeypatch.setattr(cli, "resolve_config", resolve_config)
    argv = [command, *BASE, "--rho=-0.1"]
    if replications and "replications" in spec.settings:
        argv += ["--replications", "20"]
    code, _, _ = run_cli(capsys, argv)
    if replications or command == "equilibrium":
        assert code == 0
        assert reads == expected
    else:
        assert reads < expected


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "paytobid.cli", "equilibrium", *BASE, "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("status,reason,n,")


# Help and error cases of the command line, each parsed by main.
PARSER_CASES = {
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in cli.TABLES},
    "no-command": [],
    "unknown-command": ["frobnicate", *BASE],
    "unrecognized-argument": ["simulate", *BASE, "--frobnicate", "1"],
    "bad-value": ["revenue", "--n", "three"],
    "bad-choice": ["simulate", *BASE, "--mode", "sometimes"],
}


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=list(PARSER_CASES))
def test_subcommand_parser_prints_what_the_full_parser_prints(capsys, argv):
    # main builds the flags of the subcommand it runs and bare stubs of
    # the others; every help and error text must stay the full parser's.
    def outcome(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        captured = capsys.readouterr()
        return stop.value.code, captured.out, captured.err

    assert outcome(main) == outcome(cli.build_parser().parse_args)


def test_cli_import_leaves_the_process_pool_out():
    # No command runs a process pool, and importing one would cost every
    # command time at startup.
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, paytobid.cli; "
            "assert 'concurrent.futures.process' not in sys.modules",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


CLOSED_FORM_POINT = ["--n", "4", "--value", "10", "--bid-fee", "1", "--rho=-0.1"]


@pytest.mark.parametrize(
    "argv,last_row",
    [
        (["equilibrium", *CLOSED_FORM_POINT], {"k": 4}),
        (["revenue", "--replications", "0", *CLOSED_FORM_POINT],
         {"status": "OK", "replications": 0}),
        (["attrition", "--replications", "0", *CLOSED_FORM_POINT],
         {"status": "OK", "replications": 0}),
        # The benchmark's null command, which times start-up.
        (["equilibrium", "--n", "2", "--value", "2", "--bid-fee", "1"], {"k": 2}),
    ],
    ids=["equilibrium", "revenue", "attrition", "null-command"],
)
def test_closed_forms_run_without_numpy(argv, last_row):
    # The closed forms and the attrition chain are scalar arithmetic.
    # numpy's import alone costs a process 36-38 ms, and that of
    # dataclasses, which imports inspect, about 17 ms.  A JSON table
    # needs no csv module either.
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, paytobid.cli; "
            f"code = paytobid.cli.main({argv!r}); "
            "assert code == 0, code; "
            "loaded = [m for m in ('numpy', 'dataclasses', 'inspect', 'csv') if m in sys.modules]; "
            "assert not loaded, loaded",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert last_row.items() <= json.loads(proc.stdout)["rows"][-1].items()


def test_simulate_runs_without_dataclasses():
    # Every record of the package is a NamedTuple; dataclasses costs a
    # process its import, about 17 ms, and the simulator needs none.
    argv = ["simulate", *CLOSED_FORM_POINT, "--replications", "1"]
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, paytobid.cli; "
            f"code = paytobid.cli.main({argv!r}); "
            "assert code == 0, code; "
            "assert 'numpy' in sys.modules; "
            "assert 'dataclasses' not in sys.modules",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(proc.stdout)["rows"]
    assert (row["status"], row["replications"]) == ("OK", 1)


# Runs in a fresh process with ctypes.CDLL replaced before paytobid is
# imported: by a C library whose mallopt records its arguments, one
# without mallopt, or one that cannot be loaded.  The library's own run
# must make no mallopt call; the CLI's sweep of two points makes one.
FAKE_LIBC = """
import ctypes, json, sys

calls = []


class Libc:
    def __init__(self, name, *args, **kwargs):
        if sys.argv[1] == "no-libc":
            raise OSError("no C library")

    def __getattr__(self, name):
        if name != "mallopt" or sys.argv[1] == "no-mallopt":
            raise AttributeError(name)

        def mallopt(param, value):
            calls.append([param, value])
            return 1

        return mallopt


ctypes.CDLL = Libc
from paytobid import AuctionParams, GameMode, run_replications
import paytobid.cli

run_replications(AuctionParams(3, 10.0, 0.0, 1.0, -0.1), GameMode.WITH_REENTRY, 100, 1)
assert calls == [], calls
code = paytobid.cli.main(sys.argv[2:])
print(json.dumps([code, calls]), file=sys.stderr)
"""


@pytest.mark.parametrize("libc", ["records", "no-mallopt", "no-libc"])
def test_only_the_cli_keeps_freed_memory(libc):
    argv = ["simulate", *BASE, "--rho=-0.1", "--replications", "100", "--sweep", "n=2,3"]
    plain = subprocess.run(
        [sys.executable, "-m", "paytobid.cli", *argv], capture_output=True, check=True
    )
    proc = subprocess.run(
        [sys.executable, "-c", FAKE_LIBC, libc, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, calls = json.loads(proc.stderr)
    assert code == 0
    assert calls == ([[-2, 32 << 20]] if libc == "records" else [])  # M_TOP_PAD, once
    assert proc.stdout.encode("utf-8") == plain.stdout


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the top pad is a setting of glibc's malloc"
)
def test_simulate_faults_each_page_of_its_peak_about_once():
    # Without the top pad, glibc's malloc gives each block's freed arrays
    # back to the OS, and this run took about 26,000 minor faults against
    # some 11,900 pages at its peak.  A process's ru_maxrss counts the
    # memory of the process that started it, so a small launcher starts
    # the CLI and reports its usage.
    launcher = (
        "import json, os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_minflt, usage.ru_maxrss]))\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", launcher, sys.executable, "-m", "paytobid.cli", "simulate",
            "--n", "50", "--value", "10", "--bid-fee", "1", "--rho=-0.1",
            "--replications", "40000", "--seed", "1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    code, faults, peak_kib = json.loads(proc.stdout)
    assert code == 0
    assert faults <= peak_kib / (os.sysconf("SC_PAGE_SIZE") / 1024)


# Names the package no longer exports: the scalar game and the bisection
# are the tests' references (tests/reference.py), the hazard and the
# entrants are fields of equilibrium.odds_at, and the p(k) table is
# equilibrium.bid_probabilities.
GONE_FROM_THE_PACKAGE = (
    "GameRecord", "PolicyCoverageError", "RoundOutcome", "play_one_game",
    "indifference_residual", "solve_equilibrium_by_bisection", "hazard_rate",
    "expected_entrants", "RiskCoefficient", "EquilibriumPolicy",
)


def test_every_exported_name_resolves():
    # A fresh process, so the lazy names are looked up before anything
    # else has imported their submodules.
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import paytobid\n"
            "assert set(paytobid.__all__) <= set(dir(paytobid))\n"
            "for name in paytobid.__all__:\n"
            "    getattr(paytobid, name)\n"
            "from paytobid import attrition, simulator\n"
            "assert paytobid.run_replications is simulator.run_replications\n"
            "assert paytobid.GameMode is simulator.GameMode\n"
            "assert paytobid.attrition_profile is attrition.attrition_profile\n"
            "from importlib import import_module\n"
            "for module, names in paytobid._EXPORTS.items():\n"
            "    home = import_module('paytobid.' + module)\n"
            "    for name in names:\n"
            "        assert getattr(paytobid, name) is getattr(home, name), name\n"
            f"for name in {GONE_FROM_THE_PACKAGE!r} + ('no_such_name',):\n"
            "    try:\n"
            "        getattr(paytobid, name)\n"
            "    except AttributeError:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(name + ' resolved')\n",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_exported_names_are_pinned():
    assert set(paytobid.__all__) == {
        "AttritionProfile", "AuctionParams", "CarlUtility", "DEFAULT_ROUND_CAP", "GameMode",
        "ParameterError", "RevenueBreakdown", "RiskCoefficientError", "SeriesLengthError",
        "SimulationResult", "UtilityRangeError", "attrition_profile", "bid_count_distribution",
        "bid_probability", "closed_form_revenue", "endgame_time_fraction",
        "expected_passage_time", "prob_two_player_endgame", "revenue_series",
        "revenue_supremum", "run_replications", "win_probability",
    }
    assert len(paytobid.__all__) == 22


def test_package_import_loads_no_submodule():
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, paytobid; "
            "loaded = sorted(m for m in sys.modules if m.startswith('paytobid.')); "
            "assert not loaded, loaded",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_ends_quietly():
    # Python buffers stdout by default and then reports the closed pipe
    # on write; half a megabyte of output overfills any pipe buffer.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "paytobid.cli", "equilibrium", "--n", "2000", *BASE[2:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


# Cells of a table row: every JSON scalar, with the float edges and the
# strings that JSON escapes, plus the text that separates two rows.
TRICKY_TEXT = ['"', "\\", "\n", "},\n      {", "\u00e9\u2603\U0001d11e", "\ud800", "\x00"]
json_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.text(max_size=3), st.sampled_from(TRICKY_TEXT))).map("".join),
)
json_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, -0.0]),
    json_text,
)


@st.composite
def tables(draw):
    """Columns and blocks: a block holds each of its columns as a scalar
    or as a list of one cell per row, 0 to 4 rows long."""
    columns = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(0, 4))
        column_list = st.lists(json_cells, min_size=size, max_size=size)
        picked = draw(st.lists(st.sampled_from(columns), unique=True))
        blocks.append({c: draw(st.one_of(json_cells, column_list)) for c in picked})
    return columns, blocks


def expand(columns, blocks):
    """The rows a list of blocks stands for, one dict per row."""
    rows = []
    for block in blocks:
        sizes = [len(v) for v in block.values() if isinstance(v, list)]
        for i in range(sizes[0] if sizes else 1):
            cells = {c: block.get(c) for c in columns}
            rows.append({c: v[i] if isinstance(v, list) else v for c, v in cells.items()})
    return rows


@settings(max_examples=300, phases=NO_SHRINK)
@given(st.sampled_from(list(cli.TABLES)), tables())
@example("equilibrium", (["k"], []))
@example("revenue", (["k"], [{"k": 1}]))
@example("simulate", (["k"], [{"k": "},\n      {"}, {}]))
@example("equilibrium", (["%s", "a%%b", "%"], [{"%s": [1, "%s"], "a%%b": "%d"}, {"%": []}]))
# Two list columns, with a scalar column before, between and after them.
@example("equilibrium", (["s", "k", "mid", "p", "end"],
                         [{"s": "OK", "k": [2, 3], "mid": 0.5, "p": [0.25, None], "end": True}]))
# Empty list columns: the block has no rows, and the blocks around it do.
@example("revenue", (["a", "b", "c"], [{"c": 1}, {"a": [], "b": [], "c": 2}, {"c": 3}]))
# % and " in a column name and in a string cell, scalar and listed.
@example("attrition", (['%"s', 'a"b%', "c"],
                       [{'%"s': ['"%s"', "100%"], 'a"b%': '%(x)s"', "c": [1, 2]}]))
def test_json_render_matches_indented_dumps(command, table):
    columns, blocks = table
    payload = {"command": command, "rows": expand(columns, blocks)}
    assert cli.render(command, columns, blocks, "json") == json.dumps(payload, indent=2) + "\n"


def csv_writer_text(columns, rows):
    """csv.writer's text of a header and rows, each cell as _csv_cell writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cli._csv_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


@settings(max_examples=300, phases=NO_SHRINK)
@given(st.sampled_from(list(cli.TABLES)), tables())
@example("equilibrium", (["k"], []))
@example("equilibrium", (["%s", "a,b"], [{"%s": [1, "x\ny"], "a,b": '"'}, {"%s": []}]))
def test_csv_render_matches_csv_writer(command, table):
    columns, blocks = table
    expected = csv_writer_text(columns, expand(columns, blocks))
    assert cli.render(command, columns, blocks, "csv") == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("lists", [([1, 2], [3]), ([1], [2, 3]), ([], [1]), ([1], [])])
def test_list_columns_of_unequal_length_raise(fmt, lists):
    block = {"a": lists[0], "b": "scalar", "c": lists[1]}
    with pytest.raises(ValueError):
        cli.render("equilibrium", ["a", "b", "c"], [block], fmt)


def equilibrium_table_of(n):
    """Columns and rows of `equilibrium` at (n, 10, 0, 1, 0), from the p(k) table."""
    lam = win_probability(make_params((10.0, 0.0, 1.0), n=n))
    fixed = {"status": "OK", "reason": None, "n": n, "value": 10.0, "sale_price": 0.0,
             "bid_fee": 1.0, "rho": 0.0}
    rows = [{**fixed, "k": k, "bid_probability": p, "win_probability": lam}
            for k, p in enumerate(bid_probabilities(math.log(lam), n), start=2)]
    return list(rows[0]), rows


def test_long_equilibrium_table_is_byte_identical_to_json_dumps(capsys):
    _, rows = equilibrium_table_of(3000)
    code, out, err = run_cli(capsys, ["equilibrium", "--n", "3000", *BASE[2:]])
    assert (code, err) == (0, "")
    assert out == json.dumps({"command": "equilibrium", "rows": rows}, indent=2) + "\n"


def test_long_equilibrium_csv_is_byte_identical_to_csv_writer(capsys):
    columns, rows = equilibrium_table_of(3000)
    code, out, err = run_cli(capsys, ["equilibrium", "--n", "3000", *BASE[2:], "--format", "csv"])
    assert (code, err) == (0, "")
    assert out == csv_writer_text(columns, rows)


@pytest.mark.parametrize("rho", [0.0, -0.1])
def test_equilibrium_rows_carry_the_bid_table(capsys, rho):
    # JSON prints each float as its repr, so the rows read back bit for bit.
    params = make_params((10.0, 0.0, 1.0), rho=rho, n=20_000)
    code, out, err = run_cli(capsys, ["equilibrium", "--n", "20000", *BASE[2:], f"--rho={rho}"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    lam = win_probability(params)
    assert [row["k"] for row in rows] == list(range(2, 20_001))
    assert [row["bid_probability"] for row in rows] == bid_probabilities(math.log(lam), 20_000)
    assert {row["win_probability"] for row in rows} == {lam}


# ---------------------------------------------------------------------------
# the valid domain: n >= 2, 0 < c < v - s, rho <= 0
# ---------------------------------------------------------------------------

# simulate is left out: its budgets bound every game, but a game at the
# per-game budget still plays 10^6 lockstep steps, longer than the deadline.
@pytest.mark.parametrize("command", ["equilibrium", "revenue", "attrition"])
def test_valid_domain_exits_cleanly(command):
    @settings(max_examples=100, deadline=timedelta(seconds=5), phases=NO_SHRINK)
    @given(domain_points())
    def check(flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *flags])
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or out.getvalue() == ""

    check()


# Games at this point end in a few rounds, so simulate stays fast.
FAST_POINT = {"n": 3, "value": 10.0, "sale_price": 0.0, "bid_fee": 1.0, "rho": -0.1}
# Values each run setting accepts.  Replications stay at most 50, and a
# round cap of 20 or more truncates almost no game at FAST_POINT.
ACCEPTED = {
    "replications": st.integers(1, 50),
    "seed": st.integers(0, 2**128 - 1),
    "round_cap": st.integers(20, 2**130),
    "tol": st.floats(1e-300, 1.0),
    "initial_wealth": st.floats(-20.0, 20.0),
    "mode": st.sampled_from(["reentry", "no-reentry"]),
    "format": st.sampled_from(["json", "csv"]),
}
# Values at or past the edge of each run setting, besides the bools and
# the non-finite floats.  The raw-round budget refuses 10**12 or more
# replications before the run plays.  An integer of 10**400 is past the
# float range, which a float setting of a JSON config file must refuse.
EDGES = {
    "replications": st.one_of(st.sampled_from([-1, 0, 2.5]), st.integers(10**12, 2**130)),
    "seed": st.one_of(st.sampled_from([-1, 2.5]), st.integers(2**128, 2**130), st.floats()),
    "round_cap": st.one_of(st.sampled_from([-1, 0, 1, 2.5]), st.floats()),
    "tol": st.one_of(st.integers(-(10**400), 10**400), st.floats()),
    "initial_wealth": st.one_of(st.integers(-(10**400), 10**400), st.floats()),
    "mode": st.sampled_from(["both", None, 3]),
    "format": st.sampled_from(["xml", None, 1]),
}


def run_settings(command):
    """The run settings of ACCEPTED that ``command`` reads."""
    return {*cli.TABLES[command].settings, "format"}


@st.composite
def run_configs(draw, command, edge):
    """(flags, config-file settings, file encoding) of ``command`` at FAST_POINT.

    The run setting ``edge`` is a bool, a non-finite float or one of its
    EDGES, and the other run settings that ``command`` reads take
    accepted values.  Each run setting but the edge and the replication
    count may be left out, and every setting present is a flag or a
    config-file entry.
    """
    at_edge = st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]), EDGES[edge])
    values = dict(FAST_POINT)
    for key, accepted in ACCEPTED.items():
        if key == edge:
            values[key] = draw(at_edge)
        elif key in run_settings(command):
            values[key] = draw(accepted)
    flags, doc = [], {}
    for key, value in values.items():
        optional = key in ACCEPTED and key not in (edge, "replications")
        where = draw(st.sampled_from(["flag", "file", "absent"][: 3 if optional else 2]))
        if where == "flag":
            text = value if isinstance(value, str) else repr(value)
            flags.append(f"--{key.replace('_', '-')}={text}")
        elif where == "file":
            doc[key] = value
    return flags, doc, draw(st.sampled_from(["json", "lines"]))


def setting_text(flags, doc, key):
    """The text of setting key as a run reads it: its flag, else its config entry."""
    prefix = f"--{key.replace('_', '-')}="
    texts = [flag[len(prefix):] for flag in flags if flag.startswith(prefix)]
    return texts[0] if texts else str(doc.get(key, 0.0))


def reads_non_finite(flags, doc, key):
    """Whether a run reads the float setting key as NaN or +-inf.

    A flag or a key = value line reads an integer past the float range
    as infinite (a JSON file refuses it), and a bool is refused anyway.
    """
    try:
        return not math.isfinite(float(setting_text(flags, doc, key)))
    except ValueError:  # "True" or "False"
        return False


def reads_negative(flags, doc, key):
    """Whether a run reads the integer setting key as a negative count."""
    try:
        return int(setting_text(flags, doc, key)) < 0
    except ValueError:  # a bool, a fraction or a non-finite float, refused anyway
        return False


# simulate runs only at FAST_POINT: the tiny-hazard points of the domain
# can still bid on toward the round cap.
@pytest.mark.parametrize("edge", list(ACCEPTED))
@pytest.mark.parametrize("command", list(cli.TABLES))
def test_run_settings_exit_cleanly(tmp_path, command, edge):
    config = tmp_path / "run.cfg"

    @settings(max_examples=50, deadline=timedelta(seconds=5), phases=NO_SHRINK)
    @given(run_configs(command, edge))
    def check(case):
        flags, doc, encoding = case
        if encoding == "json":
            config.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        else:
            config.write_text("".join(f"{k} = {v}\n" for k, v in doc.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", str(config), *flags])
            except SystemExit as exc:  # argparse refuses a flag it cannot convert
                code = exc.code
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or out.getvalue() == ""
        if edge not in run_settings(command):
            assert code == 2, "a setting the command does not read is refused"
        if command == "revenue" and reads_non_finite(flags, doc, "tol"):
            assert code == 2, "a tolerance that is not finite cannot bound the series"
        if reads_negative(flags, doc, "replications"):
            assert code == 2, "a negative replication count is refused"
        if any(isinstance(v, bool) for v in doc.values()):
            assert code == 2, "a config file's true or false is not a setting"
        if encoding == "json" and any(
            cli.SETTINGS[k].type is float and isinstance(v, int) and abs(v) > sys.float_info.max
            for k, v in doc.items()
        ):
            assert code == 2, "a JSON integer past the float range is not a float setting"

    check()


# Points the per-round figures once got wrong: at n = 130 the hazard and
# the entrants, built from 1 - p, both read 0.5116 for about 1, and with
# lambda one ulp below 1 the chance that any of 5 players bids rounded
# to 0 (exit 3).  Both must exit 0.
EXIT_0_EDGES = (
    ["--n=130", "--value=110.23471016620003", "--sale-price=0.0",
     "--bid-fee=110.23471016619925", "--rho=-4.057716745082637e-05"],
    ["--n=5", "--value=1.0", "--sale-price=0.0", "--bid-fee=0.9999999999999999", "--rho=0.0"],
)
# u(c) and u(v - s) both overflow to inf here, which once made lambda and
# the whole row NaN with status OK and exit 0.
OVERFLOWING_UTILITY = ["--n=10", "--value=1e+267", "--sale-price=0.0",
                       "--bid-fee=9.999999999999999e+266", "--rho=-1e-265"]


@settings(max_examples=100, deadline=timedelta(seconds=5), phases=NO_SHRINK)
@given(domain_points())
@example(EXIT_0_EDGES[0])
@example(EXIT_0_EDGES[1])
@example(OVERFLOWING_UTILITY)
def test_revenue_rows_match_the_oracle(flags):
    """Every exit-0 revenue row against 60-digit mpmath, within 1e-12 relative.

    lambda and the total are checked against the exact ratio of
    utilities.  p(n), the hazard, the entrants and the length are checked
    at the program's own lambda: within ulps of 1, the rounding of
    lambda alone moves 1 - lambda, and with it p(n), by far more than
    1e-12.  series_fee is left out: its weights are powers of 1 - h as
    rounded to a float, which is off by about 1e-16 / h.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["revenue", *flags])
    assert code in (0, 2, 3), err.getvalue()
    assert code == 0 or flags not in EXIT_0_EDGES, err.getvalue()
    if code != 0:
        return
    (row,) = json.loads(out.getvalue())["rows"]
    fields = ("n", "value", "sale_price", "bid_fee", "rho")
    params = AuctionParams(**{key: row[key] for key in fields})
    lam = win_probability(params)
    k = params.n
    with mp.workdps(60):
        rho, fee = mpf(params.rho), mpf(params.bid_fee)
        prize = mpf(params.value - params.sale_price)
        u = (lambda x: x) if rho == 0 else (lambda x: mp.expm1(-rho * x) / -rho)
        q = mpf(lam) ** (mpf(1) / (k - 1))
        entrants = k * (1 - q) / (1 - q**k)
        checks = [
            ("lambda", lam, u(fee) / u(prize)),
            ("total", row["total"], params.sale_price + fee * u(prize) / u(fee)),
            ("p(n)", bid_probability(params, k), 1 - q),
            ("hazard", row["hazard"], lam * entrants),
            ("expected_entrants", row["expected_entrants"], entrants),
            ("expected_length", row["expected_length"], 1 / (lam * entrants)),
        ]
        for name, got, exact in checks:
            assert abs(got - exact) <= 1e-12 * abs(exact), (name, got, exact)
