"""Symmetric equilibrium of the bid/no-bid fee auction.

Every active player mixes independently each round.  With k active
players the equilibrium bid probability is

    p(k) = 1 - (u(c) / u(v - s)) ** (1 / (k - 1)),

where c is the bid fee, v the object value, s the sale price and u the
CARL utility kernel.  The ratio lambda = u(c)/u(v-s) is also the
probability that any bidding player wins the object in a given round,
independent of k.  round_odds derives every per-round figure of the
game from log lambda: p(k), the chance that somebody bids, the expected
bids of a round and the chance that it ends the game.  The tests check
p(k) independently, by bisection on the indifference condition.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping, NamedTuple

from .utility import CarlUtility, CheckedRecord, ParameterError, UtilityRangeError

# DEFAULT_ROUND_CAP and GameMode set up a Monte Carlo run.  They live
# here, where numpy is not imported, so the CLI can name them without
# loading the simulator.
DEFAULT_ROUND_CAP = 10_000_000  # effective rounds before a game stops as truncated


class GameMode(enum.Enum):
    """Whether a player who passes may bid again in a later round."""

    WITH_REENTRY = "reentry"
    NO_REENTRY = "no-reentry"


class _AuctionParamsFields(NamedTuple):
    n: int
    value: float
    sale_price: float
    bid_fee: float
    rho: float = 0.0


class AuctionParams(CheckedRecord, _AuctionParamsFields):
    """Primitive tuple of the auction: player count, money amounts, risk.

    Invariants enforced at construction: n >= 2, value > 0,
    sale_price >= 0, bid_fee > 0, bid_fee < value - sale_price, and
    rho <= 0.  The last inequality on the fee is what keeps the mixing
    probability interior; without it no symmetric equilibrium with
    0 < p < 1 exists and every downstream formula would be undefined.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_count(self.n, 2, "player count must be an integer n >= 2, got {!r}")
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
        # rho is finite here, so this raises only for rho > 0, as a
        # RiskCoefficientError, which is a ParameterError.
        CarlUtility(self.rho)
        return self

    @property
    def utility(self) -> CarlUtility:
        return CarlUtility(self.rho)


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
    the same ratio for every active player count.  Raises
    UtilityRangeError when the ratio underflows to 0 (a tiny fee against
    a huge prize), since every formula takes its logarithm, or rounds to
    1 (u(bid_fee) and u(value - sale_price) are the same float), since
    then no player ever bids.
    """
    u = params.utility
    lam = u.evaluate(params.bid_fee) / u.evaluate(params.value - params.sale_price)
    if lam == 0.0:
        raise UtilityRangeError(
            "the win ratio u(bid_fee) / u(value - sale_price) underflows to 0"
        )
    if lam >= 1.0:
        raise UtilityRangeError(
            "the win ratio u(bid_fee) / u(value - sale_price) rounds to 1, "
            "so no player ever bids"
        )
    return lam


class RoundOdds(NamedTuple):
    """The per-round figures of k active players, all derived from log lambda.

    Each player passes with q = lambda ** (1 / (k - 1)), and log_q holds
    its logarithm.  bid is p(k) = 1 - q, busy = 1 - q**k the chance that
    at least one of the k bids, entrants = k p / busy the expected bids
    of an effective round (one with a bid), and hazard = k p q**(k - 1) /
    busy = lambda * entrants the chance that it ends the game.
    """

    log_q: float
    bid: float
    busy: float
    entrants: float
    hazard: float


def _bid(log_lam: float, k: int) -> float:
    """p(k) = 1 - lambda ** (1 / (k - 1)), as -expm1(log q)."""
    return -math.expm1(log_lam / (k - 1))


def round_odds(log_lam: float, k: int) -> RoundOdds:
    """RoundOdds of k >= 2 active players at a win ratio lambda in (0, 1).

    bid and busy come from expm1, which keeps them to a few ulps when q
    is close to 1, and the hazard takes q**(k - 1) as lambda itself, so
    no figure is built from 1 - p, which cancels when p is close to 1
    (Higham, *Accuracy and Stability of Numerical Algorithms*, on expm1
    and log1p).  busy > 0 whenever log_lam < 0, so the hazard, lambda
    times entrants >= 1, is positive too.
    """
    log_q = log_lam / (k - 1)
    bid = _bid(log_lam, k)
    busy = -math.expm1(k * log_q)
    entrants = k * bid / busy
    return RoundOdds(log_q, bid, busy, entrants, math.exp(log_lam) * entrants)


def odds_at(params: AuctionParams, k: int) -> RoundOdds:
    """round_odds of k active players under params."""
    require_active_count(k)
    return round_odds(math.log(win_probability(params)), k)


def bid_probability(params: AuctionParams, k: int) -> float:
    """Equilibrium probability of playing Bid with k active players."""
    return odds_at(params, k).bid


class EquilibriumPolicy(NamedTuple):
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
        table = {k: _bid(log_lam, k) for k in range(2, params.n + 1)}
        return cls(win_prob=lam, bid_prob=table)

