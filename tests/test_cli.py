"""Command-line surface: tables, formats, exit codes, config merging."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import paytobid.cli as cli
from paytobid import (
    AuctionParams,
    EquilibriumPolicy,
    SimulationResult,
    bid_probability,
    closed_form_revenue,
    win_probability,
)
from paytobid.cli import main

from helpers import domain_points, make_params

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


def test_simulate_with_every_game_truncated_exits_2(capsys):
    # At rho = -0.5 the hazard is about 2e-21, so both games bid on to
    # the cap.  A player who bid in every round has lost 1500, beyond
    # the exp range of the utility kernel at this rho; truncated games
    # enter no mean, so their utility is never evaluated.
    code, out, err = run_cli(
        capsys,
        [
            "simulate", "--n", "3", "--value", "100", "--sale-price", "5", "--bid-fee", "0.5",
            "--rho=-0.5", "--replications", "2", "--round-cap", "3000",
        ],
    )
    assert code == 2
    assert out == ""
    assert "all 2 replications hit the round cap 3000" in err


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


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "paytobid.cli", "equilibrium", *BASE, "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("status,reason,n,")


def test_cli_import_leaves_the_process_pool_out():
    # Only a run with more than one worker needs the pool; its import
    # costs every other command time at startup.
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


@pytest.mark.parametrize(
    "argv,last_row",
    [
        (["equilibrium"], {"k": 4}),
        (["revenue", "--replications", "0"], {"status": "OK", "replications": 0}),
        (["attrition", "--replications", "0"], {"status": "OK", "replications": 0}),
    ],
    ids=["equilibrium", "revenue", "attrition"],
)
def test_closed_forms_run_without_numpy(argv, last_row):
    # The closed forms and the attrition chain are scalar arithmetic, and
    # numpy's import alone costs a process about 0.18 s.
    argv = [*argv, "--n", "4", "--value", "10", "--bid-fee", "1", "--rho=-0.1"]
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, paytobid.cli; "
            f"code = paytobid.cli.main({argv!r}); "
            "assert code == 0, code; "
            "assert 'numpy' not in sys.modules",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert last_row.items() <= json.loads(proc.stdout)["rows"][-1].items()


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
            "try:\n"
            "    paytobid.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no_such_name resolved')\n",
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


@settings(max_examples=300)
@given(st.sampled_from(list(cli.TABLES)), tables())
@example("equilibrium", (["k"], []))
@example("revenue", (["k"], [{"k": 1}]))
@example("simulate", (["k"], [{"k": "},\n      {"}, {}]))
@example("equilibrium", (["%s", "a%%b", "%"], [{"%s": [1, "%s"], "a%%b": "%d"}, {"%": []}]))
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


@settings(max_examples=300)
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
    """Columns and rows of `equilibrium` at (n, 10, 0, 1, 0), from the policy."""
    policy = EquilibriumPolicy.from_params(make_params((10.0, 0.0, 1.0), n=n))
    fixed = {"status": "OK", "reason": None, "n": n, "value": 10.0, "sale_price": 0.0,
             "bid_fee": 1.0, "rho": 0.0}
    rows = [{**fixed, "k": k, "bid_probability": p, "win_probability": policy.win_prob}
            for k, p in policy.bid_prob.items()]
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


# ---------------------------------------------------------------------------
# the valid domain: n >= 2, 0 < c < v - s, rho <= 0
# ---------------------------------------------------------------------------

# simulate is left out: its raw-round budget bounds the replays, but a
# game may still bid on to its round cap of 10^7 effective rounds.
@pytest.mark.parametrize("command", ["equilibrium", "revenue", "attrition"])
def test_valid_domain_exits_cleanly(command):
    @settings(max_examples=100, deadline=timedelta(seconds=5))
    @given(domain_points())
    def check(flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *flags])
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or out.getvalue() == ""

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


@settings(max_examples=100, deadline=timedelta(seconds=5))
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
