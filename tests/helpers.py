"""Shared grids, seeds, strategies and oracle helpers for the test suite.

Simulation configurations used in more than one test module are pinned
here so the session-wide Monte Carlo cache (see conftest) can reuse the
runs: identical (params, mode, count, seed) keys hit the same entry.
"""

import math

from hypothesis import Phase, assume
from hypothesis import strategies as st
from mpmath import mp, mpf

from paytobid import AuctionParams
from paytobid.equilibrium import odds_at

# (value, sale_price, bid_fee) triples every analytic test sweeps.
MONEY_GRID = [(10.0, 0.0, 1.0), (100.0, 5.0, 0.5), (10.0, 9.0, 0.5)]
RHO_NEGATIVE = [-0.05, -0.1, -0.5]
RHO_GRID = [0.0, *RHO_NEGATIVE]

MC_COUNT = 100_000

# No-re-entry passage-time grid: (starting players, value / fee ratio).
ATTRITION_POINTS = [(n, ratio) for ratio in (10, 100) for n in (2, 3, 4, 5)]


def make_params(money, rho=0.0, n=3):
    v, s, c = money
    return AuctionParams(n=n, value=v, sale_price=s, bid_fee=c, rho=rho)


# ---------------------------------------------------------------------------
# Feasibility of per-round evaluation on a grid point.
#
# A combination is desk-scale when one expected game fits the round
# budget.  Beyond that the per-round routes break down together, not
# just slow down: Monte Carlo needs more rounds than any cap, the fee
# series needs so many terms that the rounding of (1 - hazard) itself
# biases the sum past any absolute tolerance, and the equilibrium
# probability stops being representable (at (100, 5, 0.5), rho = -0.5
# the win ratio is ~6.7e-22, so p(2) rounds to exactly 1.0).
# Closed-form checks still run on every combination.
# ---------------------------------------------------------------------------

MC_LENGTH_BUDGET = 2_000.0


def expected_length(money, rho, n=3):
    return 1.0 / odds_at(make_params(money, rho=rho, n=n), n).hazard


FULL_COMBOS = [(m, r) for m in MONEY_GRID for r in RHO_GRID]
FEASIBLE_COMBOS = [mr for mr in FULL_COMBOS if expected_length(*mr) <= MC_LENGTH_BUDGET]
EXTREME_COMBOS = [mr for mr in FULL_COMBOS if expected_length(*mr) > MC_LENGTH_BUDGET]


def mc_count_for(money, rho):
    """Replication count scaled so a run stays near 3e6 round draws."""
    return min(MC_COUNT, max(2_000, int(3e6 / expected_length(money, rho))))


def attrition_params(n, ratio):
    return AuctionParams(n=n, value=float(ratio), sale_price=0.0, bid_fee=1.0, rho=0.0)


def attrition_seed(n, ratio):
    return 7000 + 7 * n + (1 if ratio == 100 else 0)


def revenue_seed(money, rho, n):
    i = MONEY_GRID.index(money)
    j = RHO_GRID.index(rho)
    return 31000 + 100 * i + 10 * j + n


SUBGAME_SEEDS = {(0.0, "reentry"): 61, (5.0, "reentry"): 62,
                 (0.0, "no-reentry"): 63, (5.0, "no-reentry"): 64}


# ---------------------------------------------------------------------------
# The valid domain: n >= 2, 0 < c < v - s, rho <= 0.
# ---------------------------------------------------------------------------

# The phases of the slow property tests: every phase but shrinking, so a
# failure is reported as first found, in seconds rather than minutes of
# shrinking.  Each test still draws all of its max_examples when it passes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def domain_points(draw, max_n=1000):
    """Flags of a valid point: log-uniform magnitudes, c near 0 or near v - s.

    n is log-uniform from 2 to max_n.  rho is drawn through rho * (v - s),
    the curvature of the utility over the prize, so every scale of the
    prize meets every degree of risk love.
    """
    n = round(draw(log_uniform(math.log10(2), math.log10(max_n))))
    sale_price = draw(st.one_of(st.just(0.0), log_uniform(-300, 300)))
    value = sale_price + draw(log_uniform(-300, 300))
    room = value - sale_price
    assume(math.isfinite(value) and room > 0.0)
    fee = draw(
        st.one_of(
            log_uniform(-330, 0).map(lambda share: room * share),
            log_uniform(-17, 0).map(lambda gap: room * (1.0 - gap)),
            st.integers(1, 4).map(lambda ulps: room - ulps * math.ulp(room)),
        )
    )
    rho = draw(st.one_of(st.just(0.0), log_uniform(-8, 3).map(lambda t: -t / room)))
    assume(0.0 < fee < room)
    AuctionParams(n=n, value=value, sale_price=sale_price, bid_fee=fee, rho=rho)
    return [f"--n={n}", f"--value={value!r}", f"--sale-price={sale_price!r}",
            f"--bid-fee={fee!r}", f"--rho={rho!r}"]


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------

def mp_utility(rho, x):
    """50-digit reference evaluation of (1 - exp(-rho*x)) / rho."""
    with mp.workdps(50):
        rho, x = mpf(repr(rho)), mpf(repr(x))
        if rho == 0:
            return float(x)
        return float((1 - mp.e ** (-rho * x)) / rho)


def enumerate_two_player_round(p):
    """Exact statistics of one two-player round conditioned on >= 1 bid.

    Enumerates the four joint outcomes and returns (P(exactly one bid),
    expected number of bids).
    """
    outcomes = {
        (True, True): p * p,
        (True, False): p * (1 - p),
        (False, True): (1 - p) * p,
        (False, False): (1 - p) * (1 - p),
    }
    at_least_one = 1.0 - outcomes[(False, False)]
    exactly_one = (outcomes[(True, False)] + outcomes[(False, True)]) / at_least_one
    mean_bids = (
        sum(prob * (a + b) for (a, b), prob in outcomes.items()) / at_least_one
    )
    return exactly_one, mean_bids


def three_se_apart(mean_a, se_a, value_b):
    """True when value_b lies outside mean_a +/- 3 standard errors."""
    return abs(mean_a - value_b) > 3.0 * se_a


def mp_attrition_chain(params, dps=40):
    """Rounds to one, rounds to two and the two-player funnel from params.n players.

    The whole no-re-entry chain in dps-digit arithmetic: the win ratio
    u(c) / u(v - s), then every row from m = 1 to k, each a binomial law
    conditioned on at least one bid, solved by forward substitution.
    """
    n = params.n
    with mp.workdps(dps):
        rho = mpf(params.rho)
        u = (lambda x: x) if rho == 0 else (lambda x: mp.expm1(-rho * x) / -rho)
        lam = u(mpf(params.bid_fee)) / u(mpf(params.value) - mpf(params.sale_price))
        one, two, funnel = ([mpf(0)] * 2 for _ in range(3))  # x[0] = x[1] = 0
        for k in range(2, n + 1):
            q = lam ** (mpf(1) / (k - 1))
            ratio = (1 - q) / q
            term = k * (1 - q) * q ** (k - 1) / (1 - q**k)  # T[k, 1]
            row = [term]
            for m in range(2, k + 1):
                term = term * (k - m + 1) / m * ratio
                row.append(term)
            leave = mp.fsum(row[: k - 1])
            moves = row[1 : k - 1]
            for x, r in ((one, 1), (two, int(k > 2)), (funnel, row[1] if k >= 3 else 0)):
                x.append((r + mp.fdot(moves, x[2:k])) / leave)
        return one[n], two[n], funnel[n]
