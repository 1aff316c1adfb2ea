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
T[k, k] is close to 1.  log C(k, m) is a difference of lgammas of about
k ln k, so an entry of row k carries a relative error of up to about
lgamma(k + 1) times the double epsilon: against 50-digit mpmath, 1.7e-12
at k = 979 and 4e-10 at k = 10**6.

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

A start reads only the states its own row reaches, and those read only
states below them.  So the solve for a start of n builds row n and the
rows 2..top(n), with top(n) a few dozen counts above the mode, and
never the rows in between: its cost is set by the window, not by n.

The chain is Markov in the count, so every figure is a function of the
grid point alone.  Each public function takes the start from params.n,
which AuctionParams has already checked to be at least 2, and the rows
read the point only through log lambda, which a solve forms once.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, islice, takewhile
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
    log_lam: float, ks: range, window: float = _LOG_WINDOW
) -> Iterator[List[float]]:
    """Row k of the chain for each k in ks: entry m - 1 holds T[k, m].

    The rows read the grid point only through log_lam, the logarithm of
    the win ratio lambda, which is the same for every k.  The row keeps
    m = 1 up to the mode and m = 2, then each m above them while its
    log term is within window of the mode's.  A walk that reaches k - 1
    keeps T[k, k] too, so a window of math.inf keeps every row whole.
    Each log-factorial is math.lgamma(i + 1.0), taken only for the i
    that a kept entry reads, so a row costs its own width whatever k is.
    """
    lgamma = math.lgamma
    for k in ks:
        odds = round_odds(log_lam, k)  # busy = 1 - q**k is the replay normaliser
        # log T[k, m] = log C(k, m) + m log(1 - q) + (k - m) log q - log busy
        base = lgamma(k + 1.0) + k * odds.log_q - math.log(odds.busy)
        slope = math.log(odds.bid) - odds.log_q
        terms = (base - lgamma(k - m + 1.0) - lgamma(m + 1.0) + m * slope for m in range(1, k + 1))
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
    reward: Callable[[int, List[float]], Sequence[float]],
) -> List[float]:
    """x[n], one entry per reward column, solving x[k] = r[k] + sum_m T[k, m] x[m].

    n is params.n, the start.  lambda is formed once, and every row is
    built from its logarithm.  reward(k, row) gives the columns of r[k]
    from row k of T, as _transition_rows builds it.  x is 0 on the ended
    game (k <= 1), and a state whose reward is 0 and that leads only to
    such states solves to 0, which is how a caller makes the states at
    or below its target absorbing.

    x[n] reads x[m] only for the m < n that row n keeps, and each of
    those reads only states below it.  So the solve builds row n first,
    forward-solves the states 2..top, where top = min(len(row n), n - 1),
    and then solves x[n] from row n; the states between top and n are
    never built.  top sits a few dozen counts above -ln(lambda) whatever
    n is, so the solve holds O(window * columns) floats, and it is the
    whole forward solve when row n is kept whole.  Raises
    FloatingPointError when an expectation it solves overflows the
    float range, as it does once leaving such a state is less likely
    than 1e-308.
    """
    n = params.n
    log_lam = math.log(win_probability(params))
    (last,) = _transition_rows(log_lam, range(n, n + 1))
    ks = range(2, min(len(last), n - 1) + 1)
    rows = chain(_transition_rows(log_lam, ks), [last])
    columns: List[List[float]] = []  # column j holds x[2], ..., x[top] of reward j
    for k, row in zip(chain(ks, [n]), rows):
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
    log_lam = math.log(win_probability(params))
    return next(_transition_rows(log_lam, range(k, k + 1), window=math.inf))


def expected_passage_time(params: AuctionParams, target: int) -> float:
    """Expected effective rounds before <= target players remain.

    Defined for a start of params.n players without re-entry; returns 0
    when params.n <= target (nothing to wait for).  target = 1 is the
    expected length of the whole game.
    """
    require_count(target, 1, "target player count must be an integer >= 1, got {!r}")
    (length,) = _solve(params, lambda k, row: (float(k > target),))
    return length


def prob_two_player_endgame(params: AuctionParams) -> float:
    """Chance a game of params.n players passes through a two-player state.

    Solves P(k) = [P(Z=2) + sum_{3<=j<k} P(Z=j) P(j)] / (1 - P(Z=k))
    ascending in k, where Z is the bidder count of an effective round.
    Requires params.n >= 3; with two starting players the event is
    vacuous.  Solved alone, it stays finite where attrition_profile overflows.
    """
    require_count(
        params.n, 3, "two-player endgame requires a start of at least 3 players, got {!r}"
    )
    (funnel,) = _solve(params, lambda k, row: (_funnel_reward(k, row),))
    return funnel


class AttritionProfile(NamedTuple):
    """The attrition figures of one start, from a single chain solve."""

    rounds_to_one: float
    rounds_to_two: float
    two_player_endgame_prob: Optional[float]  # None below three players

    @property
    def endgame_time_fraction(self) -> Optional[float]:
        """rounds_to_two / rounds_to_one; None below three players."""
        if self.two_player_endgame_prob is None:
            return None
        return self.rounds_to_two / self.rounds_to_one


def attrition_profile(params: AuctionParams) -> AttritionProfile:
    """Rounds to <= 1 and <= 2 players, and the funnel, from params.n players.

    Equals expected_passage_time(params, 1), expected_passage_time(params, 2)
    and prob_two_player_endgame(params), but solves the chain once with a
    three-column reward instead of once per figure.
    """
    rounds_to_one, rounds_to_two, funnel = _solve(
        params, lambda k, row: (1.0, float(k > 2), _funnel_reward(k, row))
    )
    return AttritionProfile(rounds_to_one, rounds_to_two, funnel if params.n >= 3 else None)


def endgame_time_fraction(params: AuctionParams) -> float:
    """Share of the expected game length spent getting down to 2 players.

    expected_passage_time(params, 2) / expected_passage_time(params, 1)
    for a start of params.n >= 3 players; shrinks toward zero as the
    value-to-fee ratio grows, i.e. the two-player war eats the whole game.
    """
    require_count(
        params.n, 3, "endgame fraction requires a start of at least 3 players, got {!r}"
    )
    return attrition_profile(params).endgame_time_fraction
