"""Seller revenue: the closed form, its supremum and the fee series.

An "effective round" is a round conditioned on at least one bid
(all-pass rounds are replayed under the tie-breaking rule, so they
carry no fees and no information).  With stationary mixing the game
length is geometric in the hazard rate and the fee income telescopes
into the closed form s + c * u(v - s) / u(c).  The per-round figures
of k active players, the hazard and the expected entrants among them,
are fields of equilibrium.odds_at(params, k).  The fee series is summed
in closed form, so this module is scalar arithmetic and needs no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .equilibrium import AuctionParams, ParameterError, odds_at, round_odds, win_probability

DEFAULT_TRUNCATION_TOL = 1e-9


class SeriesLengthError(ArithmeticError):
    """The hazard rate is too small for 1 - h to differ from 1 in floating point.

    The fee series then has no decay to sum; the closed form still holds.
    """


class RevenueBreakdown(NamedTuple):
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


def revenue_series(
    params: AuctionParams, truncation_tol: float = DEFAULT_TRUNCATION_TOL
) -> float:
    """Fee income summed round by round under stationary mixing.

    Sums c * Q * (1-h)**(t-1) over rounds t = 1..T, where T is the first
    round whose exact geometric tail (1-h)**T * c * Q / h falls below the
    truncation tolerance.  The weights are powers of d = 1 - h as rounded
    to a float, and their sum is the closed geometric form
    (1 - d**T) / (1 - d).  The rounding of d moves h by up to about
    1e-16, so the relative error of the sum is about 1e-16 / h.  Returns
    the fee component only; add the sale price for the total.  Defined
    for the stationary (re-entry) regime.

    Raises ParameterError unless the tolerance is positive and finite,
    and SeriesLengthError when h is too small to move d off 1; the
    closed form still holds there.
    """
    if not truncation_tol > 0:
        raise ParameterError(
            f"truncation tolerance must be positive, got {truncation_tol!r}"
        )
    # An infinite tolerance would stop the series after one term and let
    # the CLI's series check pass any gap to the closed form.
    if truncation_tol == math.inf:
        raise ParameterError("truncation tolerance must be finite, got inf")
    odds = odds_at(params, params.n)
    h = odds.hazard
    per_round_fees = params.bid_fee * odds.entrants
    decay = 1.0 - h
    if 1.0 - decay == 0.0:
        raise SeriesLengthError(
            f"the hazard rate {h:.3g} leaves 1 - h equal to 1 in floating point, "
            "so the fee series never decays"
        )
    # A hazard that rounds to 1 ends every game in its first round.
    if decay <= 0.0:
        return per_round_fees
    # T is the first t with t * log(1 - h) < log(tol * h / (c * Q)).
    log_tail = math.log(truncation_tol) + math.log(h) - math.log(per_round_fees)
    terms = math.floor(log_tail / math.log1p(-h) if log_tail < 0.0 else 0.0) + 1
    return per_round_fees * -math.expm1(terms * math.log(decay)) / (1.0 - decay)


def closed_form_revenue(params: AuctionParams) -> RevenueBreakdown:
    """Expected revenue s + c * u(v - s) / u(c) with its round statistics.

    The total carries no dependence on the player count: the per-round
    fee flow and the hazard both vary with n but their ratio collapses
    to c / (1-p)**(n-1) = c / lambda, the fee over the win ratio that
    win_probability forms.  At rho = 0 the total reduces to the object
    value itself.  Raises FloatingPointError when the total passes the
    float range, which s + c / lambda can near the largest float.
    """
    lam = win_probability(params)
    fee = params.bid_fee / lam
    odds = round_odds(math.log(lam), params.n)
    total = params.sale_price + fee
    if not math.isfinite(total):
        raise FloatingPointError(
            "overflow: the revenue s + c * u(v - s) / u(c) passes the float range"
        )
    return RevenueBreakdown(
        sale_price_component=params.sale_price,
        fee_component=fee,
        total=total,
        hazard=odds.hazard,
        expected_entrants=odds.entrants,
        expected_length=1.0 / odds.hazard,
    )


def revenue_supremum(params: AuctionParams) -> float:
    """Least upper bound of the total over all valid (sale_price, bid_fee).

    Equals u(value), approached as sale_price = 0 and bid_fee -> 0; for
    rho = 0 that is the object value itself, returned unchanged (the
    closed form is constant in (s, c) there).
    """
    return params.utility.evaluate(params.value)
