"""Attrition DP: bidder-count distribution, passage times, endgame funnel."""

import math
import operator

import pytest
from hypothesis import assume, given, settings
from mpmath import mp, mpf

from paytobid import (
    AuctionParams,
    GameMode,
    ParameterError,
    bid_count_distribution,
    attrition_profile,
    bid_probability,
    endgame_time_fraction,
    expected_passage_time,
    hazard_rate,
    prob_two_player_endgame,
)

from helpers import (
    ATTRITION_POINTS,
    FEASIBLE_COMBOS,
    MC_COUNT,
    attrition_params,
    attrition_seed,
    domain_points,
    enumerate_two_player_round,
    make_params,
    mp_attrition_chain,
)

LADDER = [10.0, 100.0, 1000.0]


def ladder_params(ratio, n=4):
    return AuctionParams(n=n, value=ratio, sale_price=0.0, bid_fee=1.0, rho=0.0)


# ---------------------------------------------------------------------------
# Exit probability q = 1 - p(k) and the bidder-count distribution.
# ---------------------------------------------------------------------------

def test_exit_probability_values():
    two = attrition_params(2, 10)
    assert 1.0 - bid_probability(two, 2) == pytest.approx(0.1, rel=1e-14)
    three = attrition_params(3, 10)
    # sqrt(0.1), frozen from the 50-digit evaluation.
    assert 1.0 - bid_probability(three, 3) == pytest.approx(0.31622776601683794, rel=1e-13)


def test_exit_probability_vanishes_with_the_win_ratio():
    # q = 1e-6 at k = 2: P(one bidder) = 2 (1 - q) q / (1 - q**2) = 2q / (1 + q).
    dist = bid_count_distribution(ladder_params(1e6, n=2), 2)
    assert dist[0] == pytest.approx(2e-6 / (1.0 + 1e-6), rel=1e-10)


def test_exit_probability_requires_two_players():
    with pytest.raises(ParameterError):
        bid_count_distribution(attrition_params(2, 10), 1)


def test_distribution_matches_two_player_enumeration():
    params = attrition_params(2, 10)  # q = 0.1, bid probability 0.9
    dist = bid_count_distribution(params, 2)
    exactly_one, _ = enumerate_two_player_round(0.9)
    assert dist[0] == pytest.approx(exactly_one, rel=1e-12)
    assert dist[0] == pytest.approx(0.18 / 0.99, rel=1e-12)  # frozen
    assert dist[1] == pytest.approx(0.81 / 0.99, rel=1e-12)  # frozen


@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("k", range(2, 11))
def test_distribution_normalized(money, rho, k):
    dist = bid_count_distribution(make_params(money, rho=rho, n=10), k)
    assert len(dist) == k
    assert abs(math.fsum(dist) - 1.0) <= 1e-12
    assert all(x >= 0 for x in dist)


def test_distribution_concentrates_on_everyone_bidding():
    params = ladder_params(1e6, n=3)
    dist = bid_count_distribution(params, 3)
    assert dist[2] > 0.99


# ---------------------------------------------------------------------------
# End probability P(one bidder) is the hazard rate, module-independently.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("money,rho", FEASIBLE_COMBOS)
@pytest.mark.parametrize("k", range(2, 11))
def test_end_probability_equals_hazard_rate(money, rho, k):
    params = make_params(money, rho=rho, n=10)
    assert abs(bid_count_distribution(params, k)[0] - hazard_rate(params, k)) <= 1e-12


def test_end_probability_spot_values():
    end = bid_count_distribution(attrition_params(2, 10), 2)[0]
    assert end == pytest.approx(0.18 / 0.99, rel=1e-12)
    # q = 0.5 (bid probability one half): 2 * 0.25 / 0.75 = 2/3.
    half = AuctionParams(n=2, value=1.0, sale_price=0.0, bid_fee=0.5, rho=0.0)
    assert bid_count_distribution(half, 2)[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_end_probability_vanishes_with_the_win_ratio():
    assert bid_count_distribution(ladder_params(1e6, n=3), 3)[0] < 1e-3


# ---------------------------------------------------------------------------
# Passage times.
# ---------------------------------------------------------------------------

def test_two_player_passage_is_geometric():
    params = attrition_params(2, 10)
    # 1 / P(exactly one bid) = 0.99 / 0.18 = 5.5, frozen.
    assert expected_passage_time(params, 2, 1) == pytest.approx(5.5, rel=1e-12)


def test_passage_time_trivial_and_invalid_targets():
    params = attrition_params(4, 10)
    assert expected_passage_time(params, 3, 3) == 0.0
    assert expected_passage_time(params, 2, 5) == 0.0
    with pytest.raises(ParameterError):
        expected_passage_time(params, 4, 0)
    with pytest.raises(ParameterError):
        expected_passage_time(params, 1, 1)


def test_passage_time_at_least_one_round():
    for n in (2, 3, 4, 5):
        for target in range(1, n):
            assert expected_passage_time(attrition_params(n, 10), n, target) >= 1.0


def test_reaching_two_never_later_than_the_end():
    for ratio in LADDER:
        params = ladder_params(ratio)
        assert expected_passage_time(params, 4, 2) <= expected_passage_time(params, 4, 1)


def test_game_length_grows_with_value_fee_ratio():
    lengths = [expected_passage_time(ladder_params(r), 4, 1) for r in LADDER]
    assert lengths[0] < lengths[1] < lengths[2]


def test_chain_keeps_precision_when_rounds_repeat():
    # At v/c = 1000 and rho = -0.05, lambda is about 1e-23: a round of
    # three players leaves all three in with chance 1 - 1e-11, and
    # 1 - T[k, k] taken as a difference keeps only five digits.
    params = AuctionParams(n=3, value=1000.0, sale_price=0.0, bid_fee=1.0, rho=-0.05)
    with mp.workdps(60):
        rho = mpf(params.rho)
        lam = mp.expm1(-rho * mpf(params.bid_fee)) / mp.expm1(-rho * mpf(params.value))

        def row(k):
            q = lam ** (mpf(1) / (k - 1))
            return [mp.binomial(k, m) * (1 - q) ** m * q ** (k - m) / (1 - q**k) for m in range(k + 1)]

        two, three = row(2), row(3)
        to_two = 1 / (three[1] + three[2])
        to_one = (1 + three[2] / two[1]) * to_two
        funnel = three[2] * to_two
    assert expected_passage_time(params, 3, 1) == pytest.approx(float(to_one), rel=1e-12)
    assert expected_passage_time(params, 3, 2) == pytest.approx(float(to_two), rel=1e-12)
    assert prob_two_player_endgame(params, 3) == pytest.approx(float(funnel), rel=1e-12)


# ---------------------------------------------------------------------------
# Two-player endgame probability.
# ---------------------------------------------------------------------------

def test_endgame_prob_three_player_closed_form():
    params = attrition_params(3, 10)
    dist = bid_count_distribution(params, 3)
    expected = dist[1] / (dist[0] + dist[1])
    assert prob_two_player_endgame(params, 3) == pytest.approx(expected, rel=1e-12)


def test_endgame_prob_requires_three_players():
    with pytest.raises(ParameterError):
        prob_two_player_endgame(attrition_params(3, 10), 2)


def test_endgame_prob_interior_for_four_players():
    assert 0.0 < prob_two_player_endgame(attrition_params(4, 10), 4) < 1.0


def test_endgame_prob_climbs_toward_one():
    for n in (3, 4):
        probs = [prob_two_player_endgame(ladder_params(r, n=n), n) for r in LADDER]
        assert probs[0] < probs[1] < probs[2]
        assert probs[2] > 0.9


# ---------------------------------------------------------------------------
# Endgame time fraction.
# ---------------------------------------------------------------------------

def test_time_fraction_interior_and_shrinking():
    fractions = [endgame_time_fraction(ladder_params(r), 4) for r in LADDER]
    assert all(0.0 < f < 1.0 for f in fractions)
    assert fractions[0] > fractions[1] > fractions[2]


def test_time_fraction_requires_three_players():
    with pytest.raises(ParameterError):
        endgame_time_fraction(attrition_params(3, 10), 2)


# ---------------------------------------------------------------------------
# Every figure from one solve.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", LADDER)
@pytest.mark.parametrize("n", [2, 3, 10, 150])
def test_profile_matches_the_pointwise_ops(n, ratio):
    params = ladder_params(ratio, n)
    profile = attrition_profile(params, n)
    assert profile.rounds_to_one == pytest.approx(expected_passage_time(params, n, 1), rel=1e-12)
    assert profile.rounds_to_two == pytest.approx(expected_passage_time(params, n, 2), rel=1e-12)
    if n >= 3:
        assert profile.two_player_endgame_prob == pytest.approx(
            prob_two_player_endgame(params, n), rel=1e-12
        )
    else:
        assert profile.two_player_endgame_prob is None


@pytest.mark.parametrize("ratio", [1.01, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [3, 50, 300])
def test_profile_matches_a_40_digit_chain(n, ratio):
    params = ladder_params(ratio, n)
    for got, exact in zip(attrition_profile(params, n), mp_attrition_chain(params)):
        assert abs(got - exact) <= 1e-12 * abs(exact), (got, exact)


def whole_row_profile(params):
    """The profile's three figures from every entry of every row, or None on overflow."""
    n = params.n
    one, two, funnel = ([0.0, 0.0] for _ in range(3))  # x[0] = x[1] = 0
    for k in range(2, n + 1):
        row = bid_count_distribution(params, k)
        leave = math.fsum(row[: k - 1])
        for x, r in ((one, 1.0), (two, float(k > 2)), (funnel, row[1] if k >= 3 else 0.0)):
            total = r + math.fsum(map(operator.mul, row[1 : k - 1], x[2:k]))
            x.append(total / leave if leave else math.inf)
            if not math.isfinite(x[-1]):
                return None
    return one[n], two[n], funnel[n] if n >= 3 else None


@settings(max_examples=50, deadline=None)
@given(domain_points())
def test_windowed_rows_solve_as_whole_rows(flags):
    values = dict(flag[2:].split("=", 1) for flag in flags)
    params = AuctionParams(
        n=int(values["n"]), value=float(values["value"]),
        sale_price=float(values["sale-price"]), bid_fee=float(values["bid-fee"]),
        rho=float(values["rho"]),
    )
    assume(params.n <= 400)
    try:
        expected = whole_row_profile(params)
    except (ArithmeticError, ValueError) as exc:  # lambda out of reach: both refuse
        with pytest.raises(type(exc)):
            attrition_profile(params, params.n)
        return
    if expected is None:
        with pytest.raises(FloatingPointError, match="overflow"):
            attrition_profile(params, params.n)
        return
    got = attrition_profile(params, params.n)
    assert (got.two_player_endgame_prob is None) == (expected[2] is None)
    for value, reference in zip(got, expected):
        if reference is not None:
            assert abs(value - reference) <= 1e-12 * abs(reference), (value, reference)


def test_profile_requires_two_players():
    with pytest.raises(ParameterError):
        attrition_profile(attrition_params(3, 10), 1)


# ---------------------------------------------------------------------------
# DP against the simulator.
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("n,ratio", ATTRITION_POINTS)
def test_dp_matches_simulation(mc, n, ratio):
    params = attrition_params(n, ratio)
    result = mc(params, GameMode.NO_REENTRY, MC_COUNT, attrition_seed(n, ratio))
    dp_length = expected_passage_time(params, n, 1)
    assert abs(result.mean_effective_length - dp_length) <= 3.0 * result.se_effective_length
    if n > 2:
        dp_two = expected_passage_time(params, n, 2)
        assert abs(result.mean_rounds_to_two - dp_two) <= 3.0 * result.se_rounds_to_two
        dp_funnel = prob_two_player_endgame(params, n)
        assert (
            abs(result.two_player_passage_fraction - dp_funnel)
            <= 3.0 * result.se_two_player_passage_fraction
        )
    else:
        assert result.mean_rounds_to_two is None
        assert result.two_player_passage_fraction is None
