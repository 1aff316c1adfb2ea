"""No-re-entry attrition as an absorbing Markov chain on the active count.

Without re-entry only the bidders of an effective round stay in the
game, and the equilibrium is Markov perfect in the number of active
players.  The game is therefore an absorbing chain on that count that
only moves down (Kemeny & Snell, *Finite Markov Chains*, 1960).  With
k players active each one stays out with q = lambda ** (1 / (k - 1)),
and all-pass rounds are replayed, so the bidder count of an effective
round is binomial conditioned on at least one bid:

    T[k, m] = C(k, m) (1 - q)**m q**(k - m) / (1 - q**k),   m = 1..k.

One bidder wins the object, so state 1 absorbs.  Every quantity below
is an expectation x solving (I - Q) x = r over the states k >= 2, with
x = 0 on the ended game; T is lower triangular, so ascending k is a
forward substitution.  Rows are built in log space from lgamma, and
the self-loop complement 1 - T[k, k] is summed from the row's other
entries, so nothing overflows at large k and nothing cancels when
T[k, k] is close to 1.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .equilibrium import (
    AuctionParams,
    require_active_count,
    require_count,
    round_odds,
    win_probability,
)


def _transition_rows(params: AuctionParams, ks: range) -> Iterator[np.ndarray]:
    """Row k of the chain for each k in ks: entry m - 1 holds T[k, m]."""
    log_lam = math.log(win_probability(params))
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(ks[-1] + 1)])
    for k in ks:
        m = np.arange(1, k + 1)
        odds = round_odds(log_lam, k)  # busy = 1 - q**k is the replay normaliser
        yield np.exp(
            log_fact[k] - log_fact[m] - log_fact[k - m]
            + m * math.log(odds.bid) + (k - m) * odds.log_q - math.log(odds.busy)
        )


def _solve(
    params: AuctionParams,
    n: int,
    reward: Callable[[int, np.ndarray], object],
    shape: Tuple[int, ...] = (),
) -> np.ndarray:
    """x[k] for k = 0..n solving x[k] = r[k] + sum_m T[k, m] x[m].

    reward(k, row) gives r[k] from row k of T.  x is 0 on the ended
    game (k <= 1), and a state whose reward is 0 and that leads only to
    such states solves to 0, which is how a caller makes the states at
    or below its target absorbing.  Holds O(n * prod(shape)) floats.
    Raises FloatingPointError when an expectation overflows the float
    range, as it does once leaving some state is less likely than 1e-308.
    """
    x = np.zeros((n + 1, *shape))
    ks = range(2, n + 1)
    with np.errstate(over="raise"):
        for k, row in zip(ks, _transition_rows(params, ks)):
            x[k] = (reward(k, row) + row[1 : k - 1] @ x[2:k]) / row[: k - 1].sum()
    return x


def _funnel_reward(k: int, row: np.ndarray) -> float:
    """One-step chance of landing on exactly two players, from k >= 3."""
    return float(row[1]) if k >= 3 else 0.0


def bid_count_distribution(params: AuctionParams, k: int) -> np.ndarray:
    """Distribution of the number of bidders in an effective round.

    Entry m-1 holds P(m bidders) = C(k, m) (1-q)**m q**(k-m) / (1 - q**k)
    for m = 1..k, with q the per-player exit probability; the zero-bid
    outcome is conditioned away by the replay rule.  Entry 0 is the
    chance the round ends the game, the revenue module's hazard rate.
    """
    require_active_count(k)
    return next(_transition_rows(params, range(k, k + 1)))


def expected_passage_time(params: AuctionParams, n_players: int, target: int) -> float:
    """Expected effective rounds before <= target players remain.

    Defined for a start of n_players without re-entry; returns 0 when
    n_players <= target (nothing to wait for).  target = 1 is the
    expected length of the whole game.
    """
    require_count(target, 1, "target player count must be an integer >= 1, got {!r}")
    require_count(n_players, 2, "starting player count must be an integer >= 2, got {!r}")
    return float(_solve(params, n_players, lambda k, row: float(k > target))[n_players])


def prob_two_player_endgame(params: AuctionParams, n_players: int) -> float:
    """Chance the game passes through a two-player state before ending.

    Solves P(k) = [P(Z=2) + sum_{3<=j<k} P(Z=j) P(j)] / (1 - P(Z=k))
    ascending in k, where Z is the bidder count of an effective round.
    Requires n_players >= 3; with two starting players the event is
    vacuous.
    """
    require_count(
        n_players, 3, "two-player endgame requires a start of at least 3 players, got {!r}"
    )
    return float(_solve(params, n_players, _funnel_reward)[n_players])


class AttritionProfile(NamedTuple):
    """The attrition figures of one start, from a single chain solve."""

    rounds_to_one: float
    rounds_to_two: float
    two_player_endgame_prob: Optional[float]  # None below three players


def attrition_profile(params: AuctionParams, n_players: int) -> AttritionProfile:
    """Rounds to <= 1 and <= 2 players, and the funnel, for one start.

    Equals expected_passage_time at targets 1 and 2 and
    prob_two_player_endgame, but solves the chain once with a
    three-column reward instead of once per figure.
    """
    require_count(n_players, 2, "starting player count must be an integer >= 2, got {!r}")
    rounds_to_one, rounds_to_two, funnel = _solve(
        params,
        n_players,
        lambda k, row: (1.0, float(k > 2), _funnel_reward(k, row)),
        shape=(3,),
    )[n_players]
    return AttritionProfile(
        float(rounds_to_one), float(rounds_to_two), float(funnel) if n_players >= 3 else None
    )


def endgame_time_fraction(params: AuctionParams, n_players: int) -> float:
    """Share of the expected game length spent getting down to 2 players.

    expected_passage_time(n, 2) / expected_passage_time(n, 1); shrinks
    toward zero as the value-to-fee ratio grows, i.e. the two-player
    war eats the whole game.
    """
    require_count(
        n_players, 3, "endgame fraction requires a start of at least 3 players, got {!r}"
    )
    profile = attrition_profile(params, n_players)
    return profile.rounds_to_two / profile.rounds_to_one
