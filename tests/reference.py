"""The tests' independent references: a scalar game, a bisection, a whole solve.

``play_one_game`` plays one game of the bid/no-bid rules in a plain
Python loop, drawing one uniform per active player in roster order, and
can log every effective round.  ``play_block`` plays a block of games in
lockstep as the package once did: with re-entry from arrays of uniforms,
and without it from one array binomial per step, where the package
compares raw Philox words with an integer cut and draws the two-player
tail as one scalar binomial.  ``solve_equilibrium_by_bisection``
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
from paytobid.simulator import BlockRecord, _revenue, _tracks_two_players


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


def play_block(params, mode, bid_prob, rng, size, round_cap) -> BlockRecord:
    """_play_block's games, from the uniforms and per-game binomials of ``rng``.

    The same rules and the same draws as the package's engines, asked for
    in another form: with re-entry a step fills a (running x n) array of
    uniforms and compares it with p(n), and without re-entry it draws one
    binomial(k, p(k)) per running game from the arrays of their counts,
    also once every game is down to two players.  So on the same stream
    both return the same BlockRecord, array for array.
    """
    play = play_count_block if mode is GameMode.NO_REENTRY else play_roster_block
    return play(params, bid_prob, rng, size, round_cap)


def play_roster_block(params, bid_prob, rng, size, round_cap) -> BlockRecord:
    """play_block with re-entry: every player draws in every raw round.

    The running games are the columns of one state matrix: a row of bids
    so far per player, then the effective rounds and the game's slot.
    No entry passes round_cap or size, so the matrix is int32 unless the
    cap needs int64.  A step adds the round's bids to the player rows, so
    a replay, a round without a bid, adds nothing.  A game's column is
    written out when it ends, and a game that ends without a sole bidder
    hit the round cap, which no game can reach before step round_cap.
    """
    n = params.n
    state = np.zeros((n + 2, size), dtype=np.int32 if round_cap < 2**31 else np.int64)
    state[n + 1] = np.arange(size)
    uniforms = np.empty((size, n))
    count_type = np.min_scalar_type(n)  # holds a round's bidder count
    ended = np.empty((size, n + 1), dtype=np.int64)  # bids per player, then effective rounds
    raw = np.empty(size, dtype=np.int64)
    winner = np.full(size, -1, dtype=np.int64)
    step = 0
    while state.shape[1]:
        step += 1
        bids = (rng.random(out=uniforms[: state.shape[1]]) < bid_prob[n]).T.copy()
        n_bid = bids.sum(axis=0, dtype=count_type)
        state[:n] += bids
        state[n] += n_bid > 0
        done = n_bid == 1
        if step >= round_cap:
            done |= state[n] >= round_cap
        d = np.flatnonzero(done)
        if d.size:
            g = state[n + 1, d]
            ended[g] = state[: n + 1, d].T
            raw[g] = step  # every step was a raw round of each game
            sole = n_bid[d] == 1
            winner[g[sole]] = bids[:, d[sole]].argmax(axis=0)
            state = np.take(state, np.flatnonzero(~done), axis=1)

    bid_counts = ended[:, :n]
    sold = np.flatnonzero(winner >= 0)
    won = np.zeros((size, n), dtype=bool)
    won[sold, winner[sold]] = True
    untracked = np.zeros(size, dtype=np.int64)
    return BlockRecord(
        winner=winner,
        revenue=_revenue(params, winner, bid_counts.sum(axis=1)),
        effective_length=ended[:, n],
        raw_length=raw,
        truncated=winner < 0,
        rounds_to_at_most_two=untracked,
        reached_two_player_state=untracked.astype(bool),
        holder=np.broadcast_to(np.arange(size)[:, None], (size, n)),
        players=np.broadcast_to(np.int64(1), (size, n)),
        bid_counts=bid_counts,
        won=won,
    )


def play_count_block(params, bid_prob, rng, size, round_cap) -> BlockRecord:
    """play_block without re-entry: one bidder count per game and raw round.

    With k players active, m = 0 bidders is a replay.  Any m >= 1 is an
    effective round, after which the k - m players who passed stop for
    good holding one bid fewer than the rounds played, since they bid
    in every round before.  m = 1 ends the game with the winner holding
    one bid per round; at the round cap the m survivors hold as much and
    nothing is sold.

    A step updates the active count and effective rounds of every running
    game in place, and logs (game, k, m, rounds) of each round in which
    players stopped or the game hit the cap.  One pass over the log after
    the loop builds the holdings and the per-game arrays.  A game logs at
    most n rounds, and none while its count stays put, so a long
    two-player endgame adds nothing to the block's memory.
    """
    n = params.n
    slots = np.arange(size)  # the running games
    active = np.full(size, n, dtype=np.int64)  # active count, follows slots
    rounds = np.zeros(size, dtype=np.int64)  # effective rounds so far, follows slots
    raw = np.empty(size, dtype=np.int64)
    log = []  # (game, k, m, rounds) of the rounds in which players stopped or the cap hit
    step = 0
    while slots.size:
        step += 1
        bidders = rng.binomial(active, bid_prob[active])
        played = bidders > 0
        rounds += played
        event = played & (bidders < active)
        if step >= round_cap:
            event |= rounds >= round_cap
        e = np.flatnonzero(event)
        if e.size:  # only these games' active counts change
            g, k, m, r = slots[e], active[e], bidders[e], rounds[e]
            log.append((g, k, m, r))
            active[e] = m
            done = (m == 1) | (r >= round_cap)
            if done.any():
                raw[g[done]] = step  # every step was a raw round of each game
                keep = np.ones(slots.size, dtype=bool)
                keep[e[done]] = False
                slots, active, rounds = slots[keep], active[keep], rounds[keep]

    g, k, m, rounds = (np.concatenate(part) for part in zip(*log))
    done = (m == 1) | (rounds >= round_cap)
    stop = k > m
    # The players who stopped, in round order, then each game's final
    # holding: every game lists its holdings in the order it closed them.
    last = m[done]
    holder = np.concatenate((g[stop], g[done]))
    players = np.concatenate(((k - m)[stop], last))
    bid_counts = np.concatenate((rounds[stop] - 1, rounds[done]))
    won = np.concatenate((np.zeros(holder.size - last.size, dtype=bool), last == 1))
    winner = np.full(size, -1, dtype=np.int64)
    winner[holder[won]] = np.flatnonzero(won)
    effective = np.empty(size, dtype=np.int64)
    effective[g[done]] = rounds[done]
    rounds_to_two = np.zeros(size, dtype=np.int64)
    reached_two = np.zeros(size, dtype=bool)
    if _tracks_two_players(GameMode.NO_REENTRY, n):
        # A count never rises, so the first round to leave at most two
        # bidders is the one round from k > 2 to m <= 2, and a game
        # reaches m = 2 first in such a round.
        first = (k > 2) & (m <= 2)
        rounds_to_two[g[first]] = rounds[first]
        reached_two[g[m == 2]] = True
    return BlockRecord(
        winner=winner,
        revenue=_revenue(params, winner, np.bincount(holder, players * bid_counts, size)),
        effective_length=effective,
        raw_length=raw,
        truncated=winner < 0,
        rounds_to_at_most_two=rounds_to_two,
        reached_two_player_state=reached_two,
        holder=holder,
        players=players,
        bid_counts=bid_counts,
        won=won,
    )
