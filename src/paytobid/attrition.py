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

A row's mass lies within a few dozen bidder counts of its mode, which
sits near -ln(lambda) whatever k is, so the solve builds a row only as
far as a double can see it.  Row k keeps every m up to the mode, and
m = 1 (the hazard) and m = 2 (the funnel) always; above the mode it
keeps each m while T[k, m] is at least 2**-64 of T[k, mode].  When
that walk reaches k - 1 the whole row is kept, T[k, k] included;
otherwise T[k, k] is left out with the rest of the tail, which the
solve never reads, since the complement is summed from m < k.  The
entries dropped are each below 2**-64 of the mode and shrink
geometrically past it.  The probabilities they multiply are at most 1,
and an expectation grows by at most 1 / (1 - T[k, k]) per state:
x[k] <= max over m < k of x[m], plus 1 / (1 - T[k, k]).  So dropping
them moves no figure by more than its rounding, and every sum is taken
with math.fsum.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, takewhile
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

from .equilibrium import (
    AuctionParams,
    require_active_count,
    require_count,
    round_odds,
    win_probability,
)

# A row entry this far below the row's mode, in log units, is below
# 2**-64 of it.
_LOG_WINDOW = 64.0 * math.log(2.0)


def _transition_rows(
    params: AuctionParams, ks: range, window: float = _LOG_WINDOW
) -> Iterator[List[float]]:
    """Row k of the chain for each k in ks: entry m - 1 holds T[k, m].

    The row keeps m = 1 up to the mode and m = 2, then each m above
    them while its log term is within window of the mode's.  A walk
    that reaches k - 1 keeps T[k, k] too, so a window of math.inf keeps
    every row whole.
    """
    log_lam = math.log(win_probability(params))
    log_fact = [math.lgamma(i + 1.0) for i in range(ks[-1] + 1)]
    for k in ks:
        odds = round_odds(log_lam, k)  # busy = 1 - q**k is the replay normaliser
        # log T[k, m] = log C(k, m) + m log(1 - q) + (k - m) log q - log busy
        base = log_fact[k] + k * odds.log_q - math.log(odds.busy)
        slope = math.log(odds.bid) - odds.log_q
        terms = (base - log_fact[k - m] - log_fact[m] + m * slope for m in range(1, k + 1))
        mode = min(max(int((k + 1) * odds.bid), 1), k - 1)
        logs = list(islice(terms, min(max(mode, 2), k - 1)))
        # The walk takes the first term below the floor from the generator
        # and drops it; the terms past it are never built.
        logs += takewhile((logs[mode - 1] - window).__le__, islice(terms, k - 1 - len(logs)))
        if len(logs) == k - 1:
            logs.append(next(terms))
        yield list(map(math.exp, logs))


def _solve(
    params: AuctionParams,
    n: int,
    reward: Callable[[int, List[float]], Sequence[float]],
) -> List[float]:
    """x[n], one entry per reward column, solving x[k] = r[k] + sum_m T[k, m] x[m].

    reward(k, row) gives the columns of r[k] from row k of T, as
    _transition_rows builds it.  x is 0 on the ended game (k <= 1), and
    a state whose reward is 0 and that leads only to such states solves
    to 0, which is how a caller makes the states at or below its target
    absorbing.  Holds O(n * columns) floats.  Raises FloatingPointError
    when an expectation overflows the float range, as it does once
    leaving some state is less likely than 1e-308.
    """
    columns: List[List[float]] = []  # column j holds x[2], x[3], ... of reward j
    ks = range(2, n + 1)
    for k, row in zip(ks, _transition_rows(params, ks)):
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


def _funnel_reward(k: int, row: List[float]) -> float:
    """One-step chance of landing on exactly two players, from k >= 3."""
    return row[1] if k >= 3 else 0.0


def bid_count_distribution(params: AuctionParams, k: int) -> List[float]:
    """Distribution of the number of bidders in an effective round.

    Entry m-1 holds P(m bidders) = C(k, m) (1-q)**m q**(k-m) / (1 - q**k)
    for m = 1..k, with q the per-player exit probability; the zero-bid
    outcome is conditioned away by the replay rule.  Entry 0 is the
    chance the round ends the game, the revenue module's hazard rate.
    The row is whole: all k entries, however small.
    """
    require_active_count(k)
    return next(_transition_rows(params, range(k, k + 1), window=math.inf))


def expected_passage_time(params: AuctionParams, n_players: int, target: int) -> float:
    """Expected effective rounds before <= target players remain.

    Defined for a start of n_players without re-entry; returns 0 when
    n_players <= target (nothing to wait for).  target = 1 is the
    expected length of the whole game.
    """
    require_count(target, 1, "target player count must be an integer >= 1, got {!r}")
    require_count(n_players, 2, "starting player count must be an integer >= 2, got {!r}")
    (length,) = _solve(params, n_players, lambda k, row: (float(k > target),))
    return length


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
    (funnel,) = _solve(params, n_players, lambda k, row: (_funnel_reward(k, row),))
    return funnel


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
        params, n_players, lambda k, row: (1.0, float(k > 2), _funnel_reward(k, row))
    )
    return AttritionProfile(rounds_to_one, rounds_to_two, funnel if n_players >= 3 else None)


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
