"""Attrition DP: bidder-count distribution, passage times, endgame funnel."""

import contextlib
import io
import json
import math
import operator
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from paytobid import (
    AuctionParams,
    GameMode,
    ParameterError,
    bid_count_distribution,
    attrition_profile,
    bid_probability,
    closed_form_revenue,
    endgame_time_fraction,
    expected_passage_time,
    prob_two_player_endgame,
    win_probability,
)
from paytobid.attrition import _funnel_reward, _solve
from paytobid.cli import main
from paytobid.equilibrium import odds_at, round_odds

from helpers import (
    ATTRITION_POINTS,
    FEASIBLE_COMBOS,
    MC_COUNT,
    NO_SHRINK,
    attrition_params,
    attrition_seed,
    domain_points,
    enumerate_two_player_round,
    log_uniform,
    make_params,
    mp_attrition_chain,
)
from reference import solve_every_state

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
    assert abs(bid_count_distribution(params, k)[0] - odds_at(params, k).hazard) <= 1e-12


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
    assert expected_passage_time(params, 1) == pytest.approx(5.5, rel=1e-12)


def test_passage_time_trivial_and_invalid_targets():
    params = attrition_params(4, 10)
    assert expected_passage_time(params._replace(n=3), 3) == 0.0
    assert expected_passage_time(params._replace(n=2), 5) == 0.0
    with pytest.raises(ParameterError):
        expected_passage_time(params, 0)
    with pytest.raises(ParameterError):  # a start of one player is no AuctionParams
        expected_passage_time(params._replace(n=1), 1)


def test_passage_time_at_least_one_round():
    for n in (2, 3, 4, 5):
        for target in range(1, n):
            assert expected_passage_time(attrition_params(n, 10), target) >= 1.0


def test_reaching_two_never_later_than_the_end():
    for ratio in LADDER:
        params = ladder_params(ratio)
        assert expected_passage_time(params, 2) <= expected_passage_time(params, 1)


def test_game_length_grows_with_value_fee_ratio():
    lengths = [expected_passage_time(ladder_params(r), 1) for r in LADDER]
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
    assert expected_passage_time(params, 1) == pytest.approx(float(to_one), rel=1e-12)
    assert expected_passage_time(params, 2) == pytest.approx(float(to_two), rel=1e-12)
    assert prob_two_player_endgame(params) == pytest.approx(float(funnel), rel=1e-12)


# ---------------------------------------------------------------------------
# Two-player endgame probability.
# ---------------------------------------------------------------------------

def test_endgame_prob_three_player_closed_form():
    params = attrition_params(3, 10)
    dist = bid_count_distribution(params, 3)
    expected = dist[1] / (dist[0] + dist[1])
    assert prob_two_player_endgame(params) == pytest.approx(expected, rel=1e-12)


def test_endgame_prob_requires_three_players():
    with pytest.raises(ParameterError):
        prob_two_player_endgame(attrition_params(2, 10))


def test_endgame_prob_interior_for_four_players():
    assert 0.0 < prob_two_player_endgame(attrition_params(4, 10)) < 1.0


def test_endgame_prob_climbs_toward_one():
    for n in (3, 4):
        probs = [prob_two_player_endgame(ladder_params(r, n=n)) for r in LADDER]
        assert probs[0] < probs[1] < probs[2]
        assert probs[2] > 0.9


# ---------------------------------------------------------------------------
# Endgame time fraction.
# ---------------------------------------------------------------------------

def test_time_fraction_interior_and_shrinking():
    fractions = [endgame_time_fraction(ladder_params(r)) for r in LADDER]
    assert all(0.0 < f < 1.0 for f in fractions)
    assert fractions[0] > fractions[1] > fractions[2]


def test_time_fraction_requires_three_players():
    with pytest.raises(ParameterError):
        endgame_time_fraction(attrition_params(2, 10))


# ---------------------------------------------------------------------------
# Every figure from one solve.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", LADDER)
@pytest.mark.parametrize("n", [2, 3, 10, 150])
def test_profile_matches_the_pointwise_ops(n, ratio):
    params = ladder_params(ratio, n)
    profile = attrition_profile(params)
    assert profile.rounds_to_one == pytest.approx(expected_passage_time(params, 1), rel=1e-12)
    assert profile.rounds_to_two == pytest.approx(expected_passage_time(params, 2), rel=1e-12)
    if n >= 3:
        assert profile.two_player_endgame_prob == pytest.approx(
            prob_two_player_endgame(params), rel=1e-12
        )
    else:
        assert profile.two_player_endgame_prob is None


@pytest.mark.parametrize("n,ratio", ATTRITION_POINTS)
def test_profile_is_the_source_of_the_two_player_views(n, ratio):
    params = attrition_params(n, ratio)
    profile = attrition_profile(params)
    if n < 3:
        assert profile.endgame_time_fraction is None
        return
    assert profile.endgame_time_fraction == endgame_time_fraction(params)
    assert profile.endgame_time_fraction == profile.rounds_to_two / profile.rounds_to_one
    # The chain solves each reward column on its own, so the funnel of
    # the three-column profile is the funnel solved alone, bit for bit.
    assert profile.two_player_endgame_prob == prob_two_player_endgame(params)


def test_funnel_stays_finite_where_the_profile_overflows():
    # lambda = 1e-310, so two players leave their state with chance
    # 2e-310 and the expected lengths pass the float range; the funnel,
    # solved alone, does not.
    params = AuctionParams(n=4, value=1e300, sale_price=0.0, bid_fee=1e-10)
    with pytest.raises(FloatingPointError, match="overflow"):
        attrition_profile(params)
    assert prob_two_player_endgame(params) == 1.0


@pytest.mark.parametrize("ratio", [1.01, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [3, 50, 300])
def test_profile_matches_a_40_digit_chain(n, ratio):
    params = ladder_params(ratio, n)
    for got, exact in zip(attrition_profile(params), mp_attrition_chain(params)):
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
            attrition_profile(params)
        return
    if expected is None:
        with pytest.raises(FloatingPointError, match="overflow"):
            attrition_profile(params)
        return
    got = attrition_profile(params)
    assert (got.two_player_endgame_prob is None) == (expected[2] is None)
    for value, reference in zip(got, expected):
        if reference is not None:
            assert abs(value - reference) <= 1e-12 * abs(reference), (value, reference)


def flag_params(flags):
    values = dict(flag[2:].split("=", 1) for flag in flags)
    return AuctionParams(
        n=int(values["n"]), value=float(values["value"]),
        sale_price=float(values["sale-price"]), bid_fee=float(values["bid-fee"]),
        rho=float(values["rho"]),
    )


def profile_rewards(k, row):
    """attrition_profile's three reward columns."""
    return 1.0, float(k > 2), _funnel_reward(k, row)


def profile_bits(solve, params):
    """The profile's figures as float.hex, or the type of the error the solve raises."""
    try:
        one, two, funnel = solve(params, params.n, profile_rewards)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return one.hex(), two.hex(), funnel.hex() if params.n >= 3 else None


def cut_profile(params, n, _):
    return attrition_profile(params)


# Row n of this start is cut well below n - 1, so the cut solve skips
# most states; the second overflows at two players, so both solves raise.
CUT_ROW = ["--n=2000", "--value=100.0", "--sale-price=0.0", "--bid-fee=1.0", "--rho=0.0"]
OVERFLOWING_START = ["--n=4", "--value=1e+300", "--sale-price=0.0", "--bid-fee=1e-10",
                     "--rho=0.0"]


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(domain_points(max_n=2000))
@example(CUT_ROW)
@example(OVERFLOWING_START)
def test_cut_solve_is_the_whole_solve_bit_for_bit(flags):
    # The cut solve reads the same row entries, and each of its states
    # sums them with fsum in the same order, so every float is the same;
    # a start whose states overflow raises the same error either way.
    params = flag_params(flags)
    assert profile_bits(cut_profile, params) == profile_bits(solve_every_state, params)


def two_player_identity(params, rounds_to_two, funnel):
    """rounds_to_one from the identity: a two-player state lasts (1 + lambda) / (2 lambda)."""
    lam = win_probability(params)
    return rounds_to_two + funnel * (1.0 + lam) / (2.0 * lam)


def test_a_million_players_solve_within_a_second():
    # Row n keeps a few dozen entries, so the solve builds about as many
    # states whatever n is; no whole solve is cheap here, so the figure
    # is checked through the two-player identity.
    params = AuctionParams(n=10**6, value=100.0, sale_price=0.0, bid_fee=1.0, rho=0.0)
    flags = ["attrition", "--n", "1000000", "--value", "100", "--bid-fee", "1"]
    out = io.StringIO()
    start = time.perf_counter()
    profile = attrition_profile(params)
    with contextlib.redirect_stdout(out):
        code = main(flags)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    (row,) = json.loads(out.getvalue())["rows"]
    assert row["expected_rounds_to_one"] == profile.rounds_to_one
    assert row["expected_rounds_to_two"] == profile.rounds_to_two
    closed = two_player_identity(params, profile.rounds_to_two, profile.two_player_endgame_prob)
    assert abs(profile.rounds_to_one - closed) <= 1e-12 * profile.rounds_to_one


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(
    st.integers(3, 1500),
    log_uniform(0, 2),
    log_uniform(-6, math.log10(0.98)),
    st.floats(-1.0, 0.0),
)
def test_two_player_identity(n, value, share, rho):
    params = AuctionParams(n=n, value=value, sale_price=0.0, bid_fee=value * share, rho=rho)
    profile = attrition_profile(params)
    closed = two_player_identity(params, profile.rounds_to_two, profile.two_player_endgame_prob)
    assert abs(profile.rounds_to_one - closed) <= 1e-12 * profile.rounds_to_one


@pytest.mark.parametrize("ratio", [1.01, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [3, 50, 300])
def test_two_player_identity_at_the_40_digit_points(n, ratio):
    params = ladder_params(ratio, n)
    one, two, funnel = mp_attrition_chain(params)
    with mp.workdps(40):
        lam = mpf(params.bid_fee) / (mpf(params.value) - mpf(params.sale_price))
        assert abs(one - (two + funnel * (1 + lam) / (2 * lam))) <= mpf(10) ** -30 * one
    profile = attrition_profile(params)
    closed = two_player_identity(params, profile.rounds_to_two, profile.two_player_endgame_prob)
    assert abs(profile.rounds_to_one - closed) <= 1e-12 * profile.rounds_to_one


def wald_gap(params):
    """Relative gap of s + c E[bids] from the chain to the closed-form revenue.

    Wald: the expected bids of a game sum the expected bids of each
    effective round, so s + c E[bids] is the paper's revenue, whatever
    n.  None where either side passes the float range.
    """
    try:
        log_lam = math.log(win_probability(params))
        (bids,) = _solve(params, lambda k, row: (round_odds(log_lam, k).entrants,))
        total = closed_form_revenue(params).total
    except ArithmeticError:  # an expectation or u(x) past the float range
        return None
    chain = params.sale_price + params.bid_fee * bids
    if not (math.isfinite(chain) and math.isfinite(total)):
        return None
    return abs(chain - total) / total


# Row k's entries carry a relative error of about 1.4 lgamma(k + 1)
# times the double epsilon, from log C(k, m) taken as a difference of
# lgammas; that passes 1e-12 from about 500 players on.  The property is
# checked below that, and the starts past it are pinned as a known
# failure, which passes once the rows are built to their rounding.
WALD_MAX_N = 400


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(domain_points(max_n=WALD_MAX_N))
def test_chain_bids_are_the_closed_form_revenue(flags):
    gap = wald_gap(flag_params(flags))
    assume(gap is not None)
    assert gap <= 1e-12


@pytest.mark.xfail(strict=True, reason="rows lose lgamma(k + 1) * eps to cancellation")
@pytest.mark.parametrize("n,fee", [(979, 0.9999999720566346), (1500, 0.999999999999)])
def test_chain_bids_are_the_closed_form_revenue_past_a_few_hundred_players(n, fee):
    gap = wald_gap(AuctionParams(n=n, value=1.0, sale_price=0.0, bid_fee=fee, rho=0.0))
    assert gap <= 1e-12


def test_profile_requires_two_players():
    with pytest.raises(ParameterError):  # a start of one player is no AuctionParams
        attrition_profile(attrition_params(1, 10))


# ---------------------------------------------------------------------------
# DP against the simulator.
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("n,ratio", ATTRITION_POINTS)
def test_dp_matches_simulation(mc, n, ratio):
    params = attrition_params(n, ratio)
    result = mc(params, GameMode.NO_REENTRY, MC_COUNT, attrition_seed(n, ratio))
    dp_length = expected_passage_time(params, 1)
    assert abs(result.mean_effective_length - dp_length) <= 3.0 * result.se_effective_length
    if n > 2:
        dp_two = expected_passage_time(params, 2)
        assert abs(result.mean_rounds_to_two - dp_two) <= 3.0 * result.se_rounds_to_two
        dp_funnel = prob_two_player_endgame(params)
        assert (
            abs(result.two_player_passage_fraction - dp_funnel)
            <= 3.0 * result.se_two_player_passage_fraction
        )
    else:
        assert result.mean_rounds_to_two is None
        assert result.two_player_passage_fraction is None
