"""Equilibrium mixing probabilities and their bisection cross-check."""

import inspect
import math
import pickle

import pytest

from paytobid import (
    AuctionParams,
    CarlUtility,
    ParameterError,
    RiskCoefficientError,
    attrition_profile,
    bid_probability,
    closed_form_revenue,
    endgame_time_fraction,
    expected_passage_time,
    prob_two_player_endgame,
    win_probability,
)
from paytobid.equilibrium import bid_probabilities, round_odds

from helpers import FEASIBLE_COMBOS, FULL_COMBOS, MONEY_GRID, make_params, mp_utility
from reference import indifference_residual, solve_equilibrium_by_bisection


# ---------------------------------------------------------------------------
# Parameter validation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(n=1, value=10.0, sale_price=0.0, bid_fee=1.0), "n >= 2"),
        (dict(n=2, value=0.0, sale_price=0.0, bid_fee=1.0), "value > 0"),
        (dict(n=2, value=10.0, sale_price=-1.0, bid_fee=1.0), "sale_price >= 0"),
        (dict(n=2, value=10.0, sale_price=0.0, bid_fee=0.0), "bid_fee > 0"),
        (dict(n=2, value=10.0, sale_price=0.0, bid_fee=12.0), "bid_fee < value - sale_price"),
        (dict(n=2, value=10.0, sale_price=9.5, bid_fee=0.5), "bid_fee < value - sale_price"),
        (dict(n=2, value=float("inf"), sale_price=0.0, bid_fee=1.0), "finite"),
    ],
)
def test_invalid_params_rejected(kwargs, fragment):
    with pytest.raises(ParameterError) as excinfo:
        AuctionParams(**kwargs)
    assert fragment in str(excinfo.value)


def test_positive_rho_rejected_at_construction():
    with pytest.raises(RiskCoefficientError):
        AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=0.1)


def test_non_integer_player_count_rejected():
    with pytest.raises(ParameterError):
        AuctionParams(n=2.0, value=10.0, sale_price=0.0, bid_fee=1.0)
    with pytest.raises(ParameterError):
        AuctionParams(n=True, value=10.0, sale_price=0.0, bid_fee=1.0)


# ---------------------------------------------------------------------------
# The records: frozen tuples, and the checked ones checked on every path.
# ---------------------------------------------------------------------------

PARAMS = AuctionParams(n=3, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1)


@pytest.mark.parametrize(
    "record",
    [
        PARAMS,
        CarlUtility(-0.1),
        closed_form_revenue(PARAMS),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_frozen(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "a record holds its fields only"


@pytest.mark.parametrize(
    "change,error",
    [
        (dict(n=1), ParameterError),
        (dict(n=3.0), ParameterError),
        (dict(value=math.nan), ParameterError),
        (dict(bid_fee=10.0), ParameterError),
        (dict(rho=0.1), RiskCoefficientError),
    ],
)
def test_replace_and_make_check_the_params(change, error):
    with pytest.raises(error):
        PARAMS._replace(**change)
    with pytest.raises(error):
        AuctionParams._make({**PARAMS._asdict(), **change}.values())
    assert PARAMS._replace(n=4) == AuctionParams(4, 10.0, 0.0, 1.0, -0.1)


def test_unpickling_checks_the_params():
    copy = pickle.loads(pickle.dumps(PARAMS))
    assert copy == PARAMS and type(copy) is AuctionParams
    # A tuple laid out as params with n = 1, built around the checks:
    # loading its pickle calls AuctionParams again.
    forged = tuple.__new__(AuctionParams, (1, 10.0, 0.0, 1.0, -0.1))
    with pytest.raises(ParameterError):
        pickle.loads(pickle.dumps(forged))


def test_params_equality_hash_and_repr():
    same = AuctionParams(3, 10.0, 0.0, 1.0, -0.1)
    assert same == PARAMS and hash(same) == hash(PARAMS)
    assert AuctionParams(4, 10.0, 0.0, 1.0, -0.1) != PARAMS
    # The hash of the tuple of fields, as the frozen dataclass it was had.
    assert hash(PARAMS) == hash((3, 10.0, 0.0, 1.0, -0.1))
    assert repr(PARAMS) == (
        "AuctionParams(n=3, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1)"
    )
    assert AuctionParams(3, 10.0, 0.0, 1.0).rho == 0.0


# ---------------------------------------------------------------------------
# Closed-form probabilities.
# ---------------------------------------------------------------------------

def test_bid_probability_risk_neutral_two_players():
    params = AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=0.0)
    assert bid_probability(params, 2) == pytest.approx(0.9, rel=1e-14)


def test_bid_probability_three_players():
    params = AuctionParams(n=3, value=10.0, sale_price=0.0, bid_fee=1.0, rho=0.0)
    # 1 - sqrt(0.1), frozen from the 50-digit evaluation.
    assert bid_probability(params, 3) == pytest.approx(0.6837722339831621, rel=1e-13)


def test_bid_probability_risk_loving():
    params = AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1)
    expected = 1.0 - mp_utility(-0.1, 1.0) / mp_utility(-0.1, 10.0)
    assert expected == pytest.approx(0.9387929754399109, rel=1e-15)  # frozen
    assert bid_probability(params, 2) == pytest.approx(expected, rel=1e-13)


def test_bid_probability_requires_two_active_players():
    params = make_params(MONEY_GRID[0])
    with pytest.raises(ParameterError):
        bid_probability(params, 1)
    with pytest.raises(ParameterError):
        bid_probability(params, 0)


def test_win_probability_values():
    assert win_probability(make_params((10.0, 0.0, 1.0))) == pytest.approx(0.1, rel=1e-15)
    assert win_probability(make_params((10.0, 9.0, 0.5))) == pytest.approx(0.5, rel=1e-15)
    risk = make_params((10.0, 0.0, 1.0), rho=-0.1)
    # u(1)/u(10), frozen from the 50-digit evaluation.
    assert win_probability(risk) == pytest.approx(0.06120702456008912, rel=1e-14)


@pytest.mark.parametrize("money,rho", FULL_COMBOS)
@pytest.mark.parametrize("k", range(2, 11))
def test_win_probability_consistent_with_mixing(money, rho, k):
    params = make_params(money, rho=rho, n=10)
    lam = win_probability(params)
    p = bid_probability(params, k)
    assert abs((1.0 - p) ** (k - 1) - lam) <= 1e-12


@pytest.mark.parametrize("money,rho", FULL_COMBOS)
def test_mixing_decreasing_in_player_count(money, rho):
    params = make_params(money, rho=rho, n=10)
    probs = [bid_probability(params, k) for k in range(2, 11)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


# Strict interiority needs the equilibrium to be representable: on the
# extreme premium corner the win ratio drops below one ulp of 1.0 and
# p(2) rounds to exactly 1.0 (see helpers.FEASIBLE_COMBOS).
@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
def test_mixing_interior(money, rho):
    params = make_params(money, rho=rho, n=10)
    assert all(0.0 < bid_probability(params, k) < 1.0 for k in range(2, 11))


def test_policy_table_matches_pointwise_formula():
    params = make_params(MONEY_GRID[1], rho=-0.05, n=8)
    lam = win_probability(params)
    table = bid_probabilities(math.log(lam), params.n)
    assert len(table) == 7  # p(2), ..., p(8)
    for k, p in enumerate(table, start=2):
        assert p == pytest.approx(bid_probability(params, k), rel=1e-15)
        assert p == pytest.approx(1.0 - lam ** (1.0 / (k - 1)), rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, -0.02, -0.1])
def test_policy_table_is_round_odds_bit_for_bit(rho):
    params = make_params(MONEY_GRID[1], rho=rho, n=20_000)
    log_lam = math.log(win_probability(params))
    table = bid_probabilities(log_lam, params.n)
    assert len(table) == 20_000 - 1
    differ = [k for k, p in enumerate(table, start=2)
              if p.hex() != round_odds(log_lam, k).bid.hex()]
    assert not differ, differ[:5]


def test_policy_takes_no_wealth_input():
    assert set(inspect.signature(bid_probability).parameters) == {"params", "k"}
    assert list(inspect.signature(bid_probabilities).parameters) == ["log_lam", "n"]


def test_attrition_figures_take_the_start_from_params():
    # Without re-entry the chain is Markov in the count, so each figure
    # is a function of the grid point, and the start is params.n.
    for figure in (attrition_profile, prob_two_player_endgame, endgame_time_fraction):
        assert set(inspect.signature(figure).parameters) == {"params"}
    assert set(inspect.signature(expected_passage_time).parameters) == {"params", "target"}


# ---------------------------------------------------------------------------
# Indifference residual and bisection.
# ---------------------------------------------------------------------------

def test_residual_spot_values():
    params = AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=0.0)
    assert indifference_residual(params, 2, 0.0) == pytest.approx(9.0, rel=1e-15)
    assert indifference_residual(params, 2, 1.0) == pytest.approx(-1.0, rel=1e-15)


@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("k", [2, 5, 10])
def test_residual_vanishes_at_equilibrium(money, rho, k):
    params = make_params(money, rho=rho, n=10)
    assert abs(indifference_residual(params, k, bid_probability(params, k))) <= 1e-12


def test_residual_strictly_decreasing_in_p():
    params = make_params(MONEY_GRID[0], rho=-0.1)
    grid = [i / 20 for i in range(21)]
    values = [indifference_residual(params, 3, p) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bisection_frozen_examples():
    neutral = AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=0.0)
    assert solve_equilibrium_by_bisection(neutral, 2, 1e-10) == pytest.approx(0.9, abs=1e-10)
    risk = AuctionParams(n=2, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1)
    assert solve_equilibrium_by_bisection(risk, 2, 1e-10) == pytest.approx(
        0.9387929754399109, abs=1e-9
    )
    # 1 - 0.1**(1/4), frozen from the 50-digit evaluation.
    assert solve_equilibrium_by_bisection(neutral, 5, 1e-10) == pytest.approx(
        0.4376586748096509, abs=1e-9
    )


@pytest.mark.parametrize("money,rho", FULL_COMBOS)
@pytest.mark.parametrize("k", range(2, 11))
def test_bisection_agrees_with_closed_form(money, rho, k):
    params = make_params(money, rho=rho, n=10)
    root = solve_equilibrium_by_bisection(params, k, 1e-10)
    assert abs(root - bid_probability(params, k)) <= 1e-9


def test_bisection_validates_inputs():
    params = make_params(MONEY_GRID[0])
    with pytest.raises(ParameterError):
        solve_equilibrium_by_bisection(params, 1, 1e-10)
    with pytest.raises(ParameterError):
        solve_equilibrium_by_bisection(params, 2, 0.0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_bisection_refuses_a_non_finite_tolerance(tol):
    # An infinite tolerance once stopped before the first halving and
    # returned 0.5 here, where p(3) = 0.7526.
    params = AuctionParams(3, 10.0, 0.0, 1.0, -0.1)
    with pytest.raises(ParameterError, match="tolerance"):
        solve_equilibrium_by_bisection(params, 3, tol=tol)
