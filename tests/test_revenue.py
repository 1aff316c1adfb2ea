"""Revenue: hazard, entrants, series vs closed form, comparative statics."""

import math

import pytest

from paytobid import (
    AuctionParams,
    GameMode,
    ParameterError,
    SeriesLengthError,
    bid_probability,
    closed_form_revenue,
    revenue_series,
    revenue_supremum,
    win_probability,
)
from paytobid.equilibrium import odds_at

from helpers import (
    FEASIBLE_COMBOS,
    FULL_COMBOS,
    MC_COUNT,
    MONEY_GRID,
    enumerate_two_player_round,
    make_params,
    revenue_seed,
)


def two_player_params(win_ratio):
    """Params whose two-player bid probability is 1 - win_ratio."""
    return AuctionParams(n=2, value=1.0, sale_price=0.0, bid_fee=win_ratio, rho=0.0)


# ---------------------------------------------------------------------------
# Hazard rate and expected entrants against the exact enumeration oracle.
# ---------------------------------------------------------------------------

def test_hazard_matches_enumeration_at_p09():
    params = two_player_params(0.1)  # p(2) = 0.9
    exactly_one, _ = enumerate_two_player_round(0.9)
    assert exactly_one == pytest.approx(0.18 / 0.99, rel=1e-15)  # frozen
    assert odds_at(params, 2).hazard == pytest.approx(exactly_one, rel=1e-12)


def test_hazard_two_player_simplification():
    # k = 2 collapses to 2(1-p)/(2-p); spot value p = 0.5 -> 2/3.
    params = two_player_params(0.5)
    p = bid_probability(params, 2)
    assert p == pytest.approx(0.5, rel=1e-14)
    assert odds_at(params, 2).hazard == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert odds_at(params, 2).hazard == pytest.approx(2 * (1 - p) / (2 - p), rel=1e-12)


def test_hazard_vanishes_as_everyone_bids():
    # Huge value/fee ratio drives p toward 1 and the hazard toward 0.
    params = AuctionParams(n=2, value=1e6, sale_price=0.0, bid_fee=1.0, rho=0.0)
    p = bid_probability(params, 2)
    h = odds_at(params, 2).hazard
    assert h < 1e-5
    assert h == pytest.approx(2 * p * (1 - p) / (1 - (1 - p) ** 2), rel=1e-12)


def test_expected_entrants_enumeration_values():
    _, mean_bids = enumerate_two_player_round(0.9)
    assert mean_bids == pytest.approx(1.8 / 0.99, rel=1e-15)  # frozen
    assert odds_at(two_player_params(0.1), 2).entrants == pytest.approx(mean_bids, rel=1e-12)
    _, mean_bids_half = enumerate_two_player_round(0.5)
    assert mean_bids_half == pytest.approx(4.0 / 3.0, rel=1e-15)  # frozen
    assert odds_at(two_player_params(0.5), 2).entrants == pytest.approx(
        mean_bids_half, rel=1e-12
    )


def test_expected_entrants_approaches_everyone():
    # p -> 1: all k players bid in every effective round.
    params = AuctionParams(n=4, value=1e27, sale_price=0.0, bid_fee=1.0, rho=0.0)
    assert odds_at(params, 4).entrants == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_expected_entrants_bounds(money, rho, k):
    params = make_params(money, rho=rho, n=10)
    p = bid_probability(params, k)
    q = odds_at(params, k).entrants
    assert k * p < q <= k


# ---------------------------------------------------------------------------
# Series versus closed form.
# ---------------------------------------------------------------------------

def test_series_single_term_is_per_round_fee_flow():
    params = make_params(MONEY_GRID[0])
    per_round = params.bid_fee * odds_at(params, params.n).entrants
    # A tolerance above the whole tail keeps exactly the first term.
    assert revenue_series(params, truncation_tol=1e9) == pytest.approx(per_round, rel=1e-15)


def test_series_at_a_hazard_within_an_ulp_of_1_is_one_term():
    # lambda is one ulp below 1, so h = 2 lambda / (1 + lambda) is within
    # half an ulp of 1 (the kernel rounds it to 1), and every weight
    # after the first is below the rounding of the sum.
    params = AuctionParams(n=2, value=1.0, sale_price=0.0, bid_fee=0.9999999999999999, rho=0.0)
    assert revenue_series(params) == params.bid_fee * odds_at(params, 2).entrants


# Per-round routes need a desk-scale hazard: past the budget the
# rounding of (1 - hazard) alone drifts a million-term series beyond
# any absolute tolerance (see helpers).
@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("n", [2, 5, 10])
def test_series_agrees_with_closed_form(money, rho, n):
    params = make_params(money, rho=rho, n=n)
    tol = 1e-9
    series_total = revenue_series(params, tol) + params.sale_price
    assert abs(series_total - closed_form_revenue(params).total) <= tol + 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_series_refuses_a_vanishing_hazard(n):
    # The hazard is about 1.3e-21 at n = 2 and 2e-21 at n = 3, too small
    # for 1 - h to differ from 1, so the weights would never decay.
    params = make_params((100.0, 5.0, 0.5), rho=-0.5, n=n)
    with pytest.raises(SeriesLengthError):
        revenue_series(params)


def test_series_requires_positive_tolerance():
    with pytest.raises(ParameterError):
        revenue_series(make_params(MONEY_GRID[0]), truncation_tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_series_refuses_a_non_finite_tolerance(tol):
    # An infinite tolerance once stopped the series after one term, and
    # the CLI's check then forgave any gap to the closed form.
    with pytest.raises(ParameterError):
        revenue_series(make_params(MONEY_GRID[0]), truncation_tol=tol)


# ---------------------------------------------------------------------------
# Closed form.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("money", MONEY_GRID)
@pytest.mark.parametrize("n", [2, 3, 7])
def test_risk_neutral_total_is_exactly_the_value(money, n):
    params = make_params(money, rho=0.0, n=n)
    assert closed_form_revenue(params).total == params.value  # bit-exact


def test_risk_loving_frozen_value():
    params = make_params((10.0, 0.0, 1.0), rho=-0.1)
    # u(10)/u(1), frozen from the 50-digit evaluation.
    assert closed_form_revenue(params).total == pytest.approx(16.33799399966362, rel=1e-14)


def test_breakdown_internal_identities():
    for money, rho in FEASIBLE_COMBOS:
        params = make_params(money, rho=rho, n=4)
        b = closed_form_revenue(params)
        assert b.total == b.sale_price_component + b.fee_component
        assert b.expected_length == pytest.approx(1.0 / b.hazard, rel=1e-15)
        # Geometric-series identity: fees = per-round flow / hazard.
        assert b.fee_component == pytest.approx(
            params.bid_fee * b.expected_entrants / b.hazard, rel=1e-12
        )


@pytest.mark.parametrize("money,rho", FULL_COMBOS)
def test_total_is_identical_across_player_counts(money, rho):
    totals = {closed_form_revenue(make_params(money, rho=rho, n=n)).total for n in range(2, 11)}
    assert len(totals) == 1  # bit-identical


@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("n", [2, 5, 10])
def test_per_round_flow_over_hazard_is_count_free(money, rho, n):
    params = make_params(money, rho=rho, n=n)
    p = bid_probability(params, n)
    flow_over_hazard = (
        params.bid_fee * odds_at(params, n).entrants / odds_at(params, n).hazard
    )
    assert flow_over_hazard == pytest.approx(
        params.bid_fee / (1.0 - p) ** (n - 1), rel=1e-12
    )
    assert flow_over_hazard == pytest.approx(
        params.bid_fee / win_probability(params), rel=1e-12
    )


@pytest.mark.parametrize("money,rho", [(m, r) for (m, r) in FULL_COMBOS if r < 0])
def test_risk_loving_premium(money, rho):
    params = make_params(money, rho=rho)
    assert closed_form_revenue(params).total > params.value


def test_comparative_statics_three_point_stencils():
    base = dict(n=3, value=10.0, sale_price=2.0, bid_fee=0.5, rho=-0.1)
    total = lambda **kw: closed_form_revenue(AuctionParams(**{**base, **kw})).total

    mid = total()
    assert total(value=9.0) < mid < total(value=11.0)          # increasing in value
    assert total(sale_price=1.0) > mid > total(sale_price=3.0)  # decreasing in sale price
    assert total(bid_fee=0.25) > mid > total(bid_fee=1.0)       # decreasing in fee
    assert total(rho=-0.05) < mid < total(rho=-0.2)             # more risk-loving pays more


# ---------------------------------------------------------------------------
# Supremum.
# ---------------------------------------------------------------------------

def test_supremum_values():
    risk = make_params((10.0, 0.0, 1.0), rho=-0.1)
    # u(10), frozen from the 50-digit evaluation.
    assert revenue_supremum(risk) == pytest.approx(17.182818284590454, rel=1e-14)
    neutral = make_params((10.0, 0.0, 1.0), rho=0.0)
    assert revenue_supremum(neutral) == 10.0
    # A negative zero is risk neutrality too: the value comes back unchanged.
    assert revenue_supremum(make_params((10.0, 0.0, 1.0), rho=-0.0)) == 10.0


@pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("c", [0.01, 0.1, 1.0])
def test_supremum_bounds_every_fee_schedule(s, c):
    params = AuctionParams(n=3, value=10.0, sale_price=s, bid_fee=c, rho=-0.1)
    assert closed_form_revenue(params).total < revenue_supremum(params)


# ---------------------------------------------------------------------------
# Geometric length against the simulator.
# ---------------------------------------------------------------------------

def test_expected_length_within_monte_carlo_interval(mc):
    money, rho = (10.0, 0.0, 1.0), 0.0
    params = make_params(money, rho=rho, n=3)
    result = mc(params, GameMode.WITH_REENTRY, MC_COUNT, revenue_seed(money, rho, 3))
    expected = closed_form_revenue(params).expected_length
    assert abs(result.mean_effective_length - expected) <= 3.0 * result.se_effective_length
