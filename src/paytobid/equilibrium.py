"""Symmetric equilibrium of the bid/no-bid fee auction.

Every active player mixes independently each round.  With k active
players the equilibrium bid probability is

    p(k) = 1 - (u(c) / u(v - s)) ** (1 / (k - 1)),

where c is the bid fee, v the object value, s the sale price and u the
CARL utility kernel.  The ratio lambda = u(c)/u(v-s) is also the
probability that any bidding player wins the object in a given round,
independent of k.  A bisection solver provides an independent check of
the closed form through the indifference condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .utility import CarlUtility, RiskCoefficient


class ParameterError(ValueError):
    """Auction parameters violate a model invariant."""


@dataclass(frozen=True)
class AuctionParams:
    """Primitive tuple of the auction: player count, money amounts, risk.

    Invariants enforced at construction: n >= 2, value > 0,
    sale_price >= 0, bid_fee > 0, bid_fee < value - sale_price, and
    rho <= 0.  The last inequality on the fee is what keeps the mixing
    probability interior; without it no symmetric equilibrium with
    0 < p < 1 exists and every downstream formula would be undefined.
    """

    n: int
    value: float
    sale_price: float
    bid_fee: float
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ParameterError(f"player count n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ParameterError(f"player count must satisfy n >= 2, got {self.n}")
        for name in ("value", "sale_price", "bid_fee", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.value <= 0:
            raise ParameterError(f"object value must satisfy value > 0, got {self.value}")
        if self.sale_price < 0:
            raise ParameterError(
                f"sale price must satisfy sale_price >= 0, got {self.sale_price}"
            )
        if self.bid_fee <= 0:
            raise ParameterError(f"bid fee must satisfy bid_fee > 0, got {self.bid_fee}")
        if not self.bid_fee < self.value - self.sale_price:
            raise ParameterError(
                "bid fee must satisfy bid_fee < value - sale_price "
                f"(got bid_fee={self.bid_fee}, value - sale_price="
                f"{self.value - self.sale_price}); no interior mixing "
                "probability exists otherwise"
            )
        # Raises RiskCoefficientError for rho > 0.
        RiskCoefficient(self.rho)

    @property
    def utility(self) -> CarlUtility:
        return CarlUtility.from_value(self.rho)


def require_count(value: int, minimum: int, message: str) -> None:
    """Raise ParameterError unless value is an int (not a bool) >= minimum.

    message is formatted with the offending value: "... got {!r}".
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(message.format(value))


def require_active_count(k: int) -> None:
    require_count(
        k,
        2,
        "active player count must be an integer >= 2, got {!r}; "
        "a one-player auction has already ended",
    )


def win_probability(params: AuctionParams) -> float:
    """Chance a bidding player wins the object in any given round.

    Equals u(bid_fee) / u(value - sale_price), strictly inside (0, 1);
    the same ratio for every active player count.
    """
    u = params.utility
    return u.evaluate(params.bid_fee) / u.evaluate(params.value - params.sale_price)


def _bid_probability(log_lam: float, k: int) -> float:
    # -expm1 keeps precision when the k-th root of lambda is close to 1.
    return -math.expm1(log_lam / (k - 1))


def bid_probability(params: AuctionParams, k: int) -> float:
    """Equilibrium probability of playing Bid with k active players."""
    require_active_count(k)
    return _bid_probability(math.log(win_probability(params)), k)


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Bid-probability table p(k) for k = 2..n plus the win ratio.

    ``win_prob`` is computed once per parameter set; each p(k) is
    derived from its logarithm so the table stays strictly decreasing
    in k even in the last floating-point bits.
    """

    win_prob: float
    bid_prob: Mapping[int, float]

    @classmethod
    def from_params(cls, params: AuctionParams) -> "EquilibriumPolicy":
        lam = win_probability(params)
        log_lam = math.log(lam)
        table = {k: _bid_probability(log_lam, k) for k in range(2, params.n + 1)}
        return cls(win_prob=lam, bid_prob=table)


def indifference_residual(params: AuctionParams, k: int, p: float) -> float:
    """Gap between the utility of bidding and of staying out at mix p.

    Returns u(value - sale_price) * (1 - p)**(k - 1) - u(bid_fee).
    Strictly decreasing in p, zero exactly at the equilibrium mix.
    """
    require_active_count(k)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"mixing probability must lie in [0, 1], got {p!r}")
    u = params.utility
    prize = u.evaluate(params.value - params.sale_price)
    return prize * (1.0 - p) ** (k - 1) - u.evaluate(params.bid_fee)


def solve_equilibrium_by_bisection(
    params: AuctionParams, k: int, tol: float = 1e-10
) -> float:
    """Root of the indifference condition, found without the closed form.

    The residual is positive at p -> 0 and negative at p -> 1 for any
    valid parameter set, and strictly monotone in between, so plain
    bisection on [1e-15, 1 - 1e-15] converges to the unique root.
    """
    require_active_count(k)
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol!r}")
    lo, hi = 1e-15, 1.0 - 1e-15
    while (hi - lo) / 2.0 > tol:
        mid = (lo + hi) / 2.0
        r = indifference_residual(params, k, mid)
        if r > 0.0:
            lo = mid
        elif r < 0.0:
            hi = mid
        else:
            return mid
    return (lo + hi) / 2.0
