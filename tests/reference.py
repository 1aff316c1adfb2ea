"""The tests' independent references: a scalar game, a bisection, a whole solve.

``play_one_game`` plays one game of the bid/no-bid rules in a plain
Python loop, drawing one uniform per active player in roster order, and
can log every effective round.  ``solve_equilibrium_by_bisection``
finds p(k) from the indifference condition without the closed form.
``solve_every_state`` forward-solves the attrition chain over every
state from 2 to n, where the package solves only the states a start
reads.  Neither the CLI nor any of the paper's results calls them, so
they live here rather than in ``paytobid``: the package keeps only what
it runs, and the tests keep a second, deliberately simple statement of
the game, of the equilibrium and of the chain solve to hold the batched
engine, the closed form and the cut solve against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from paytobid import DEFAULT_ROUND_CAP, AuctionParams, EquilibriumPolicy, GameMode, ParameterError
from paytobid.attrition import _transition_rows
from paytobid.equilibrium import require_active_count, require_count, win_probability
from paytobid.simulator import _tracks_two_players


class PolicyCoverageError(LookupError):
    """The policy table lacks an entry for an active player count."""


@dataclass(frozen=True)
class RoundOutcome:
    """One effective round: who bid, out of how many, after how many replays."""

    effective_round_index: int
    resubmission_count: int
    bidder_ids: frozenset
    active_count_before: int
    ended: bool


@dataclass
class GameRecord:
    """Full account of a single game.

    net_money[i] is player i's money change: -fee * own bids, plus
    value - sale_price for the winner.  revenue is the seller's take:
    fee * total bids, plus the sale price when somebody actually won.
    rounds_to_at_most_two / reached_two_player_state are tracked only
    without re-entry and with more than two starting players.
    """

    winner: Optional[int]
    net_money: np.ndarray
    revenue: float
    bid_counts: np.ndarray
    effective_length: int
    raw_length: int
    truncated: bool
    rounds: Optional[List[RoundOutcome]]
    rounds_to_at_most_two: Optional[int]
    reached_two_player_state: bool



def play_one_game(
    params: AuctionParams,
    mode: GameMode,
    policy: EquilibriumPolicy,
    rng_stream,
    round_cap: int = DEFAULT_ROUND_CAP,
    collect_rounds: bool = True,
) -> GameRecord:
    """Play a single game to completion (or to the round cap).

    rng_stream needs one method, random(k) -> array of k uniforms, one
    per active player in roster order; a numpy Generator fits.  Games
    that hit the cap come back flagged as truncated with no winner and
    no sale-price income, never silently dropped.
    """
    require_count(round_cap, 1, "round cap must be an integer >= 1, got {!r}")
    n = params.n
    track_two = _tracks_two_players(mode, n)
    active = np.arange(n)
    bid_counts = np.zeros(n, dtype=np.int64)
    rounds: Optional[List[RoundOutcome]] = [] if collect_rounds else None
    effective = 0
    raw = 0
    winner: Optional[int] = None
    truncated = False
    rounds_to_two: Optional[int] = None
    reached_two = False

    while True:
        k = int(active.size)
        p = policy.bid_prob.get(k)
        if p is None:
            raise PolicyCoverageError(
                f"policy table has no bid probability for {k} active players"
            )
        resubmissions = 0
        while True:
            mask = rng_stream.random(k) < p
            raw += 1
            if mask.any():
                break
            resubmissions += 1  # all passed: replay the round
        bidders = active[mask]
        effective += 1
        bid_counts[bidders] += 1
        n_bid = int(bidders.size)
        ended = n_bid == 1
        if collect_rounds:
            rounds.append(
                RoundOutcome(
                    effective_round_index=effective,
                    resubmission_count=resubmissions,
                    bidder_ids=frozenset(int(i) for i in bidders),
                    active_count_before=k,
                    ended=ended,
                )
            )
        if track_two and rounds_to_two is None and n_bid <= 2:
            rounds_to_two = effective
        if ended:
            winner = int(bidders[0])
            break
        if mode is GameMode.NO_REENTRY:
            active = bidders
            if n_bid == 2:
                reached_two = True
        if effective >= round_cap:
            truncated = True
            break

    net = -params.bid_fee * bid_counts.astype(np.float64)
    revenue = params.bid_fee * float(bid_counts.sum())
    if winner is not None:
        net[winner] += params.value - params.sale_price
        revenue = params.sale_price + revenue
    return GameRecord(
        winner=winner,
        net_money=net,
        revenue=revenue,
        bid_counts=bid_counts,
        effective_length=effective,
        raw_length=raw,
        truncated=truncated,
        rounds=rounds,
        rounds_to_at_most_two=rounds_to_two if track_two else None,
        reached_two_player_state=reached_two if track_two else False,
    )


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
    Raises ParameterError unless tol is positive and finite.
    """
    require_active_count(k)
    # An infinite tolerance would stop before the first halving and
    # return the middle of the bracket, whatever the root.
    if not (tol > 0 and math.isfinite(tol)):
        raise ParameterError(f"tolerance must be positive and finite, got {tol!r}")
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


def solve_every_state(
    params: AuctionParams,
    n: int,
    reward: Callable[[int, List[float]], Sequence[float]],
) -> List[float]:
    """x[n], one entry per reward column, solving x[k] = r[k] + sum_m T[k, m] x[m].

    The attrition chain's windowed forward solve over every state from
    2 to n, as the package ran it before it learned to skip the states
    that x[n] never reads.  reward(k, row) gives the columns of r[k]
    from row k of T, as _transition_rows builds it.  x is 0 on the ended
    game (k <= 1).  Holds O(n * columns) floats.  Raises
    FloatingPointError when an expectation of any state overflows the
    float range.
    """
    columns: List[List[float]] = []  # column j holds x[2], x[3], ... of reward j
    ks = range(2, n + 1)
    for k, row in zip(ks, _transition_rows(math.log(win_probability(params)), ks)):
        rewards = reward(k, row)
        if k == 2:
            columns = [[] for _ in rewards]
        leave = math.fsum(row[: k - 1])
        moves = row[1 : k - 1]  # T[k, m] for 2 <= m < k, as far as the row reaches
        for x, r in zip(columns, rewards):
            total = r + math.fsum(map(operator.mul, moves, x))
            x.append(total / leave if leave else math.inf)
            if not math.isfinite(x[-1]):
                raise FloatingPointError(
                    f"overflow: an expectation of the chain from {k} players passes the "
                    f"float range; leaving that state has chance {leave!r}"
                )
    return [x[-1] for x in columns]
