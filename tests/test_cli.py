"""Command-line surface: tables, formats, exit codes, config merging."""

import csv
import io
import json
import subprocess
import sys

import pytest

import paytobid.cli as cli
from paytobid import SimulationResult, bid_probability, closed_form_revenue
from paytobid.cli import main

from helpers import make_params

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


def test_revenue_monte_carlo_column(capsys):
    code, out, _ = run_cli(
        capsys, ["revenue", *BASE, "--rho", "0", "--replications", "3000", "--seed", "5"]
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "OK"
    assert row["replications"] == 3000
    assert abs(row["mc_mean_revenue"] - 10.0) <= 3.0 * row["mc_se_revenue"]


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


def test_unknown_config_key_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("frobnicate = 3\n")
    code, _, err = run_cli(capsys, ["equilibrium", "--config", str(config), *BASE])
    assert code == 2
    assert "frobnicate" in err


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "paytobid.cli", "equilibrium", *BASE, "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("status,reason,n,")
