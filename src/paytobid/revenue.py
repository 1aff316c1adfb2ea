"""Seller revenue: hazard rate, entrants per round, fee series, closed form.

An "effective round" is a round conditioned on at least one bid
(all-pass rounds are replayed under the tie-breaking rule, so they
carry no fees and no information).  With stationary mixing the game
length is geometric in the hazard rate and the fee income telescopes
into the closed form s + c * u(v - s) / u(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equilibrium import AuctionParams, ParameterError, bid_probability

DEFAULT_TRUNCATION_TOL = 1e-9
# Most terms revenue_series will sum (about a second of work), and the
# size of the numpy chunks it sums them in.
SERIES_TERM_BUDGET = 100_000_000
SERIES_CHUNK = 65_536


class SeriesLengthError(ArithmeticError):
    """The fee series cannot reach its tolerance within SERIES_TERM_BUDGET terms."""


@dataclass(frozen=True)
class RevenueBreakdown:
    """Expected seller income split into sale price and bid fees.

    hazard, expected_entrants and expected_length are evaluated at the
    full player count; total itself does not depend on it.
    """

    sale_price_component: float
    fee_component: float
    total: float
    hazard: float
    expected_entrants: float
    expected_length: float


def _busy_probability(p: float, k: int) -> float:
    """1 - (1-p)**k, the chance that at least one of k players bids.

    Raises ZeroDivisionError when p is too small for 1 - p to differ
    from 1 in floating point (the win ratio is within an ulp or so of
    1), since every per-round statistic divides by this chance.
    """
    busy = 1.0 - (1.0 - p) ** k
    if busy == 0.0:
        raise ZeroDivisionError(
            f"the bid probability {p:.3g} leaves 1 - p equal to 1 in floating point, "
            f"so the chance that any of {k} players bids rounds to 0"
        )
    return busy


def hazard_rate(params: AuctionParams, k: int) -> float:
    """Chance an effective round ends the game (exactly one bid).

    k * p * (1-p)**(k-1) / (1 - (1-p)**k), the probability of a single
    bidder conditional on not all k players passing.  Raises
    ZeroDivisionError where the denominator rounds to 0.
    """
    p = bid_probability(params, k)
    return k * p * (1.0 - p) ** (k - 1) / _busy_probability(p, k)


def expected_entrants(params: AuctionParams, k: int) -> float:
    """Expected number of fee-paying bids in an effective round.

    k * p / (1 - (1-p)**k); always above k * p because conditioning on
    at least one bid removes the zero-bid outcome, and never above k.
    Raises ZeroDivisionError where the denominator rounds to 0.
    """
    p = bid_probability(params, k)
    return k * p / _busy_probability(p, k)


def revenue_series(
    params: AuctionParams, truncation_tol: float = DEFAULT_TRUNCATION_TOL
) -> float:
    """Fee income summed round by round under stationary mixing.

    Sums c * Q * (1-h)**(t-1) over rounds t = 1..T, where T is the first
    round whose exact geometric tail (1-h)**T * c * Q / h falls below the
    truncation tolerance; T is worked out from that tail before anything
    is summed.  The weights are powers of 1 - h as rounded to a float,
    evaluated in numpy chunks of at most SERIES_CHUNK terms whose partial
    sums are added exactly.  That rounding moves h by up to about 1e-16,
    so the relative error of the sum is about 1e-16 / h.  Returns the
    fee component only; add the sale price for the total.  Defined for
    the stationary (re-entry) regime.

    Raises SeriesLengthError, without summing, when h rounds to 0 or T
    exceeds SERIES_TERM_BUDGET; the closed form still holds there.
    """
    if not truncation_tol > 0:
        raise ParameterError(
            f"truncation tolerance must be positive, got {truncation_tol!r}"
        )
    h = hazard_rate(params, params.n)
    per_round_fees = params.bid_fee * expected_entrants(params, params.n)
    if h == 0.0:
        raise SeriesLengthError(
            "the hazard rate rounds to 0, so the fee series never reaches its tolerance"
        )
    # T is the first t with t * log(1 - h) < log(tol * h / (c * Q)).  A
    # hazard that rounds up to 1 ends every game in its first round.
    log_decay = math.log1p(-h) if h < 1.0 else -math.inf
    log_tail = math.log(truncation_tol) + math.log(h) - math.log(per_round_fees)
    count = log_tail / log_decay if log_tail < 0.0 else 0.0
    if count >= SERIES_TERM_BUDGET:
        raise SeriesLengthError(
            f"the fee series needs about {count:.3g} terms at hazard {h:.3g} to reach "
            f"tolerance {truncation_tol:.3g}; the budget is {SERIES_TERM_BUDGET} terms"
        )
    import numpy as np  # here, so the closed form starts without numpy's import

    terms = math.floor(count) + 1
    decay = 1.0 - h
    chunks = (
        np.power(decay, np.arange(lo, min(lo + SERIES_CHUNK, terms), dtype=np.float64)).sum()
        for lo in range(0, terms, SERIES_CHUNK)
    )
    return per_round_fees * math.fsum(chunks)


def closed_form_revenue(params: AuctionParams) -> RevenueBreakdown:
    """Expected revenue s + c * u(v - s) / u(c) with its round statistics.

    The total carries no dependence on the player count: the per-round
    fee flow and the hazard both vary with n but their ratio collapses
    to c / (1-p)**(n-1) = c * u(v-s) / u(c).  At rho = 0 the total
    reduces to the object value itself.
    """
    u = params.utility
    fee = params.bid_fee * (
        u.evaluate(params.value - params.sale_price) / u.evaluate(params.bid_fee)
    )
    h = hazard_rate(params, params.n)
    # For extreme premiums the mixing probability rounds to exactly 1
    # and the representable hazard underflows to 0; the total is still
    # well defined, so report the degenerate length as infinite rather
    # than failing.
    length = math.inf if h == 0.0 else 1.0 / h
    return RevenueBreakdown(
        sale_price_component=params.sale_price,
        fee_component=fee,
        total=params.sale_price + fee,
        hazard=h,
        expected_entrants=expected_entrants(params, params.n),
        expected_length=length,
    )


def revenue_supremum(params: AuctionParams) -> float:
    """Least upper bound of the total over all valid (sale_price, bid_fee).

    Equals u(value) for rho < 0, approached as sale_price = 0 and
    bid_fee -> 0; for rho = 0 the supremum is the object value itself
    (the closed form is constant in (s, c) there).
    """
    if params.rho == 0.0:
        return params.value
    return params.utility.evaluate(params.value)
