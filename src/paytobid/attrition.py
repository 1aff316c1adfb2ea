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
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .equilibrium import AuctionParams, require_active_count, require_count, win_probability


def _transition_rows(params: AuctionParams, ks: range) -> Iterator[np.ndarray]:
    """Row k of the chain for each k in ks: entry m - 1 holds T[k, m]."""
    log_lam = math.log(win_probability(params))
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(ks[-1] + 1)])
    for k in ks:
        m = np.arange(1, k + 1)
        log_q = log_lam / (k - 1)
        log_bid = math.log(-math.expm1(log_q))
        log_busy = math.log(-math.expm1(k * log_q))  # replay normaliser 1 - q**k
        yield np.exp(
            log_fact[k] - log_fact[m] - log_fact[k - m]
            + m * log_bid + (k - m) * log_q - log_busy
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
    """
    x = np.zeros((n + 1, *shape))
    ks = range(2, n + 1)
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


def endgame_time_fraction(params: AuctionParams, n_players: int) -> float:
    """Share of the expected game length spent getting down to 2 players.

    expected_passage_time(n, 2) / expected_passage_time(n, 1); shrinks
    toward zero as the value-to-fee ratio grows, i.e. the two-player
    war eats the whole game.
    """
    require_count(
        n_players, 3, "endgame fraction requires a start of at least 3 players, got {!r}"
    )
    return expected_passage_time(params, n_players, 2) / expected_passage_time(
        params, n_players, 1
    )


@dataclass(frozen=True)
class AttritionTable:
    """All attrition quantities for player counts up to params.n.

    win_prob: the ratio u(c)/u(v-s) shared by every row.
    bid_count_dist: k -> distribution over 1..k bidders (rows sum to 1).
    two_player_endgame_prob: k -> funnel probability, for k >= 3.
    expected_rounds: (k, target) -> expected effective rounds, target < k.
    """

    win_prob: float
    bid_count_dist: Dict[int, np.ndarray]
    two_player_endgame_prob: Dict[int, float]
    expected_rounds: Dict[Tuple[int, int], float]

    @classmethod
    def build(cls, params: AuctionParams) -> "AttritionTable":
        n = params.n
        ks = range(2, n + 1)
        targets = np.arange(1, n)
        # Column target - 1 holds the rounds to <= target from every start.
        rounds = _solve(params, n, lambda k, row: targets < k, shape=(n - 1,))
        funnel = _solve(params, n, _funnel_reward)
        return cls(
            win_prob=win_probability(params),
            bid_count_dist=dict(zip(ks, _transition_rows(params, ks))),
            two_player_endgame_prob={k: float(funnel[k]) for k in range(3, n + 1)},
            expected_rounds={
                (k, target): float(rounds[k, target - 1])
                for k in ks
                for target in range(1, k)
            },
        )
