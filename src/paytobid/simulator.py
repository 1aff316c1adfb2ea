"""Exact round-by-round Monte Carlo engine for the bid/no-bid game.

Game rules, per round: every active player independently plays Bid
with the equilibrium probability for the current active count.  Every
bid costs the fee immediately.  A round in which nobody bids is
replayed (it counts toward the raw length only).  A round with exactly
one bidder ends the game: that player wins the object and pays the
sale price.  With re-entry the active set is always the full roster;
without it, the active set of the next round is the set of bidders.

``run_replications`` plays these rules with numpy; the tests keep a
scalar one-game engine as their reference.  Before playing, it bounds
one game's expected raw rounds from below, in either mode, and refuses
a run past its raw-round budgets.  Replications are cut into
consecutive blocks whose size depends only on the mode and n, and block
b draws only from the counter-based stream derived from (master_seed,
b).  One loop plays, reduces and summarises the blocks in replication
order, so results are bit-reproducible.  A block is played in lockstep:
each step is one raw round of every running game of the block, and it
asks the block's stream once, for the running games in slot order.  The
step does only what the next request needs; a game's outcome is written
out once, when it ends or after the loop.

With re-entry a step asks the stream's bit generator for one row of n
raw 64-bit Philox words per game, one per player in roster order, and
compares each word with an integer cut that stands for p(n) exactly, so
every bid is the one a uniform drawn from that word would give.  The
running games are the columns of one state matrix: their bids per
player, effective rounds and slots.  A block holds at most
BLOCK_SIZE * 64 (player, game) entries, or one game where n is larger,
which bounds memory.  Without re-entry the equilibrium is Markov in the
active count k (Kemeny & Snell, *Finite Markov Chains*, 1960), so a game
keeps only k and its effective rounds, and a step draws one
binomial(k, p(k)) bidder count.  Counts never rise, so once every
running game is down to two players a step draws all its counts in one
scalar binomial(2, p(2)) call, which numpy answers with the same numbers
as a per-game array of (2, p(2)).  Players are then known only as
holdings, groups who left in the same round with the same bids.  A step
logs only the rounds in which players left or the cap was hit, and one
pass over that round log builds the block's outcome, so a block of
BLOCK_SIZE games holds O(n * games) values at most, and O(games) for any
n once play is down to two players.  _tracks_two_players says which
games report two-player figures.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .equilibrium import (
    DEFAULT_ROUND_CAP,
    AuctionParams,
    EquilibriumPolicy,
    GameMode,
    ParameterError,
    RoundOdds,
    odds_at,
    require_count,
    round_odds,
)

# Most raw rounds a run may be expected to play, over all its games.
RAW_ROUND_BUDGET = 10**11
# Most raw rounds one game may be expected to play, in either mode.  The
# games of a block play in lockstep, each step costing some microseconds
# however few games still run, so one long game holds up its block.
GAME_STEP_BUDGET = 10**6


class RawRoundBudgetError(ArithmeticError):
    """A run would be expected to play more raw rounds than a budget allows.

    The budgets are RAW_ROUND_BUDGET over all games, and GAME_STEP_BUDGET
    for one game, in either mode.
    """


class AllTruncatedError(ParameterError, ArithmeticError):
    """Every replication of a run hit the round cap.

    Also an ArithmeticError: it is an outcome of the draws, which a sweep
    reports as a failed grid point.
    """


class SimulationResult(NamedTuple):
    """Aggregates over completed replications, with CLT standard errors.

    Standard errors are sample-sd / sqrt(completed count).  Truncated
    replications (round cap hit) are excluded from every mean and
    reported through truncated_replications.  Per-player utility is the
    mean over players of u(initial_wealth + net money), averaged per
    replication first.  The two-player fields are None unless the run
    was no-re-entry with n > 2.
    """

    replications: int
    truncated_replications: int
    initial_wealth: float
    mean_revenue: float
    se_revenue: float
    mean_effective_length: float
    se_effective_length: float
    mean_raw_length: float
    se_raw_length: float
    mean_player_utility: float
    se_player_utility: float
    two_player_passage_fraction: Optional[float]
    se_two_player_passage_fraction: Optional[float]
    mean_rounds_to_two: Optional[float]
    se_rounds_to_two: Optional[float]


def _philox_stream(master_seed: int, index: int) -> np.random.Generator:
    """Stream number ``index`` of the Philox key ``master_seed``.

    Philox is counter-based: jumping by the index yields disjoint,
    random-access streams from a single key, so each block's draws
    depend on its index alone.
    """
    return np.random.Generator(np.random.Philox(key=master_seed).jumped(index))


def _tracks_two_players(mode: GameMode, n: int) -> bool:
    return mode is GameMode.NO_REENTRY and n > 2


# Replications per block without re-entry; block b of a run draws from stream b.
BLOCK_SIZE = 4096


def _block_size(mode: GameMode, n: int) -> int:
    """Games per block: BLOCK_SIZE, or BLOCK_SIZE * 64 (player, game) entries with re-entry."""
    return BLOCK_SIZE if mode is GameMode.NO_REENTRY else max(1, BLOCK_SIZE * 64 // n)


class BlockRecord(NamedTuple):
    """Per-game outcome arrays of a block, and the holdings of its players.

    The per-game fields hold one entry per replication.
    rounds_to_at_most_two is 0 while a game has not reached two or fewer
    bidders, and like reached_two_player_state is tracked only where
    _tracks_two_players holds.

    A holding is a group of players of one game who end it alike:
    ``players`` players of game ``holder`` each made ``bid_counts`` bids,
    and ``won`` marks the winner's holding.  With re-entry the holding
    arrays are (size x n) matrices, one player per entry in roster order,
    and winner is the winning player's index.  Without re-entry players
    carry no labels: the arrays are flat, with one holding per group of
    players who stopped in the same round and one for the winner (or for
    the survivors at the round cap), and winner is the flat index of the
    winner's holding.  The holdings of one game appear in the order the
    game closed them, its final holding last, though games interleave.
    winner is -1 for a truncated game, and only for one.
    """

    winner: np.ndarray
    revenue: np.ndarray
    effective_length: np.ndarray
    raw_length: np.ndarray
    truncated: np.ndarray
    rounds_to_at_most_two: np.ndarray
    reached_two_player_state: np.ndarray
    holder: np.ndarray
    players: np.ndarray
    bid_counts: np.ndarray
    won: np.ndarray


def _bid_prob_table(params: AuctionParams) -> np.ndarray:
    """p(k) indexed by the active count k; entries 0 and 1 are unused."""
    return np.array([0.0, 0.0, *EquilibriumPolicy.from_params(params).bid_prob.values()])


def _play_block(
    params: AuctionParams,
    mode: GameMode,
    bid_prob: np.ndarray,
    rng: np.random.Generator,
    size: int,
    round_cap: int,
) -> BlockRecord:
    """Play a block of ``size`` games in lockstep under the module's game rules.

    A game stops flagged as truncated after ``round_cap`` effective
    rounds.  Each engine asks ``rng`` once per step, keeps the running
    games' state compact in slot order and tests the cap only from step
    ``round_cap`` on, since a game plays at most one effective round per
    step.
    """
    play = _play_count_block if mode is GameMode.NO_REENTRY else _play_roster_block
    return play(params, bid_prob, rng, size, round_cap)


def _revenue(params: AuctionParams, winner: np.ndarray, total_bids: np.ndarray) -> np.ndarray:
    """Seller revenue per game: the fee on every bid, plus the sale price if sold."""
    revenue = params.bid_fee * total_bids.astype(np.float64)
    sold = winner >= 0
    revenue[sold] = params.sale_price + revenue[sold]
    return revenue


def _net_money(params: AuctionParams, bid_counts: np.ndarray, won: np.ndarray) -> np.ndarray:
    """Money change of a player per holding: -fee per bid, value - sale_price if won."""
    net = -params.bid_fee * bid_counts.astype(np.float64)
    net[won] += params.value - params.sale_price
    return net


def _last_bid_word(p: float) -> np.uint64:
    """The largest raw 64-bit word x for which the uniform drawn from x is below p.

    ``Generator.random`` turns a raw Philox word x into the uniform
    u = (x >> 11) * 2**-53, so u < p exactly when x >> 11 < ceil(p * 2**53),
    that is when x <= ceil(p * 2**53) * 2**11 - 1.  At p = 1.0 the bound is
    2**64 - 1, the largest word, so every word bids; a bound of
    ceil(p * 2**53) * 2**11 itself would not fit a uint64 there.
    """
    return np.uint64(math.ceil(p * 2.0**53) * 2**11 - 1)


def _play_roster_block(params, bid_prob, rng, size, round_cap) -> BlockRecord:
    """_play_block with re-entry: every player draws in every raw round.

    A step asks the stream's bit generator for one raw word per running
    game and player, and a player bids where the word is at most
    _last_bid_word(p(n)): the bids of uniforms drawn from those words,
    without forming any.

    The running games are the columns of one state matrix: a row of bids
    so far per player, then the effective rounds and the game's slot.
    No entry passes round_cap or size, so the matrix is int32 unless the
    cap needs int64.  A step adds the round's bids to the player rows, so
    a replay, a round without a bid, adds nothing.  A game's column is
    written out when it ends.  Before step round_cap a game ends only
    with a sole bidder, and from then on a game that ends without one
    hit the round cap.
    """
    n = params.n
    state = np.zeros((n + 2, size), dtype=np.int32 if round_cap < 2**31 else np.int64)
    state[n + 1] = np.arange(size)
    last_bid = _last_bid_word(bid_prob[n])
    count_type = np.min_scalar_type(n)  # holds a round's bidder count
    ended = np.empty((size, n + 1), dtype=np.int64)  # bids per player, then effective rounds
    raw = np.empty(size, dtype=np.int64)
    winner = np.full(size, -1, dtype=np.int64)
    step = 0
    while state.shape[1]:
        step += 1
        words = rng.bit_generator.random_raw(state.shape[1] * n)
        bids = (words.reshape(-1, n) <= last_bid).T.copy()
        n_bid = bids.sum(axis=0, dtype=count_type)
        state[:n] += bids
        state[n] += n_bid > 0
        done = n_bid == 1
        capped = step >= round_cap
        if capped:
            done |= state[n] >= round_cap
        d = np.flatnonzero(done)
        if d.size:
            g = state[n + 1, d]
            ended[g] = state[: n + 1, d].T
            raw[g] = step  # every step was a raw round of each game
            if capped:
                sole = n_bid[d] == 1
                g, d = g[sole], d[sole]
            winner[g] = bids[:, d].argmax(axis=0)
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


def _play_count_block(params, bid_prob, rng, size, round_cap) -> BlockRecord:
    """_play_block without re-entry: one bidder count per game and raw round.

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
    two-player endgame adds nothing to the block's memory.  Once the
    largest running count is 2 every running game draws at (2, p(2)),
    so a step asks for all of them in one scalar call.
    """
    n = params.n
    slots = np.arange(size)  # the running games
    active = np.full(size, n, dtype=np.int64)  # active count, follows slots
    rounds = np.zeros(size, dtype=np.int64)  # effective rounds so far, follows slots
    raw = np.empty(size, dtype=np.int64)
    log = []  # (game, k, m, rounds) of the rounds in which players stopped or the cap hit
    tail = n == 2  # every running game is down to two players
    step = 0
    while slots.size:
        step += 1
        if tail:
            bidders = rng.binomial(2, bid_prob[2], size=slots.size)
        else:
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
            tail = active.max(initial=2) == 2  # counts never rise

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


def _holding_utility(
    params: AuctionParams, initial_wealth: float, bid_counts: np.ndarray, won: np.ndarray
) -> np.ndarray:
    """u(initial_wealth + net money) of one player of each holding.

    Net money depends only on the key 2 * bids + won, so the kernel runs
    once per key present, which keeps its range checks, and each holding
    looks its value up by key.
    """
    key = 2 * bid_counts + won
    present = np.flatnonzero(np.bincount(key.ravel()))
    amounts = initial_wealth + _net_money(params, present // 2, present % 2 == 1)
    table = np.empty(key.max(initial=0) + 1)
    u = params.utility  # a property that builds a new CarlUtility on every access
    table[present] = [u.evaluate(float(x)) for x in amounts]
    return table[key]


# The (mean, SE) fields of SimulationResult, in the order of the summary
# columns that run_replications builds; the two-player pairs come last.
_FIGURES = tuple(zip(SimulationResult._fields[3::2], SimulationResult._fields[4::2]))


def _mean_se(values: np.ndarray) -> tuple:
    with np.errstate(over="raise", invalid="raise"):  # no infinite or NaN figure
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else float("nan")
    return mean, se


def _capped_stay(leave: float, round_cap: int) -> float:
    """E[min(Geometric(leave), round_cap)]; a chance of leaving that rounds to 0 never leaves."""
    if leave <= 0.0:
        return float(round_cap)
    return -math.expm1(round_cap * math.log1p(-leave)) / leave if leave < 1.0 else 1.0


def _game_cost(params: AuctionParams, mode: GameMode, odds: RoundOdds, round_cap: int) -> tuple:
    """G, a lower bound on one game's expected raw rounds, and the reason it is so large.

    A game stays in its start state for a capped Geometric(leave) number
    of effective rounds (Kemeny & Snell), and each takes 1/busy(n) raw
    rounds on average (Wald's identity).  With re-entry leave is the
    hazard h(n) and the stay is the whole game.  Without re-entry leave is
    1 - T[n, n] = (1 - p**n - q**n) / busy(n), with 1 - x**n taken from
    expm1 for the larger of p and q, so nothing cancels.  A game that
    reaches two players then stays a capped Geometric(h(2)) number of
    effective rounds, so the funnel times that stay is a second bound.
    The funnel, at most 1, is solved only when that stay passes
    GAME_STEP_BUDGET.
    """
    n = params.n
    if mode is GameMode.WITH_REENTRY:
        why, leave = "it ends", odds.hazard
    else:
        log_q = odds.log_q  # log p = log(1 - q) from expm1 or log1p, whichever keeps it
        log_p = math.log(odds.bid) if log_q > -math.log(2.0) else math.log1p(-math.exp(log_q))
        why = f"it leaves its start of {n} players"
        leave = (-math.expm1(n * max(log_p, log_q)) - math.exp(n * min(log_p, log_q))) / odds.busy
    cost = _capped_stay(leave, round_cap) / odds.busy
    if _tracks_two_players(mode, n):
        h2 = round_odds(odds.log_q * (n - 1), 2).hazard
        tail = _capped_stay(h2, round_cap)
        if tail > GAME_STEP_BUDGET:
            from .attrition import prob_two_player_endgame

            funnel = prob_two_player_endgame(params)
            if funnel * tail > cost:
                cost, leave = funnel * tail, h2
                why = f"it reaches two players with chance {funnel:.3g} and then ends"
    return cost, f"{why} with chance {leave:.3g} per effective round"


def run_replications(
    params: AuctionParams,
    mode: GameMode,
    count: int,
    master_seed: int,
    round_cap: int = DEFAULT_ROUND_CAP,
    *,
    initial_wealth: float = 0.0,
) -> SimulationResult:
    """Run independent replications and aggregate them.

    The aggregate is a pure function of (params, mode, count,
    master_seed, round_cap, initial_wealth): block b of _block_size(mode,
    n) games draws from the stream of (master_seed, b), and the blocks
    are played and reduced in replication order.

    Raises FloatingPointError when a game's revenue or a player utility
    figure leaves the float range: the revenue can at a fee near the
    largest float, and the utility at a large initial wealth with rho < 0.

    Raises AllTruncatedError when every replication hits the round cap.

    Raises RawRoundBudgetError, before playing, when the games would be
    expected to play more than RAW_ROUND_BUDGET raw rounds in all, or one
    game more than GAME_STEP_BUDGET, since a block plays one lockstep step
    per raw round of its longest game.  Both checks read _game_cost's G,
    which is at least 1/busy(n), busy(n) = 1 - (1 - p(n))**n being the
    chance that a round of n players is not replayed.
    """
    require_count(count, 1, "replication count must be an integer >= 1, got {!r}")
    require_count(round_cap, 1, "round cap must be an integer >= 1, got {!r}")
    require_count(master_seed, 0, "master seed must be a non-negative integer, got {!r}")
    if master_seed >= 2**128:
        raise ParameterError(f"master seed must be below 2**128, got {master_seed!r}")
    if not math.isfinite(initial_wealth):
        raise ParameterError(f"initial wealth must be finite, got {initial_wealth!r}")
    bid_prob = _bid_prob_table(params)
    odds = odds_at(params, params.n)
    cost, reason = _game_cost(params, mode, odds, round_cap)
    if count * cost > RAW_ROUND_BUDGET:
        if cost * odds.busy <= 1.0 / odds.busy:  # a game waits longer than it lasts
            reason = f"all {params.n} players pass with chance 1 - {odds.busy:.3g}"
        raise RawRoundBudgetError(
            f"{count} replications would play about {count * cost:.3g} raw rounds, since "
            f"{reason}; the budget is {RAW_ROUND_BUDGET:.0e} raw rounds"
        )
    if cost > GAME_STEP_BUDGET:
        raise RawRoundBudgetError(
            f"one game would play about {cost:.3g} raw rounds, since {reason}; the budget "
            f"is {GAME_STEP_BUDGET:.0e} raw rounds per game"
        )

    block = _block_size(mode, params.n)
    rows = []
    with np.errstate(over="raise"):  # a revenue or utility sum past the float range raises
        for b, start in enumerate(range(0, count, block)):
            size, stream = min(block, count - start), _philox_stream(master_seed, b)
            game = _play_block(params, mode, bid_prob, stream, size, round_cap)
            kept = slice(None)  # the holdings of completed games, without a copy if that is all
            if game.truncated.any():
                kept = ~game.truncated if game.bid_counts.ndim == 2 else ~game.truncated[game.holder]
            # Utility is evaluated for completed games only; a truncated one reads 0.
            held = _holding_utility(params, initial_wealth, game.bid_counts[kept], game.won[kept])
            if held.ndim == 2:  # re-entry: a row per game, summed along the roster
                per_game = np.zeros(size)
                per_game[kept] = held.sum(axis=1)
            else:
                per_game = np.bincount(game.holder[kept], held * game.players[kept], minlength=size)
            # One column per pair of _FIGURES, in its order, then the truncation flag.
            rows.append(np.column_stack((
                game.revenue, game.effective_length, game.raw_length, per_game / params.n,
                game.reached_two_player_state, game.rounds_to_at_most_two, game.truncated,
            )))
            del game, kept, held, per_game  # so no two blocks' arrays are held at once
    summary = np.vstack(rows)
    completed = summary[summary[:, -1] == 0.0] if summary[:, -1].any() else summary
    truncated_count = int(count - completed.shape[0])
    if completed.shape[0] == 0:
        raise AllTruncatedError(
            f"all {count} replications hit the round cap {round_cap}; "
            "no completed games to aggregate"
        )

    figures = dict.fromkeys(SimulationResult._fields[3:])  # None where not tracked
    reported = _FIGURES if _tracks_two_players(mode, params.n) else _FIGURES[:-2]
    for column, (mean, se) in enumerate(reported):
        figures[mean], figures[se] = _mean_se(completed[:, column])
    return SimulationResult(
        replications=count,
        truncated_replications=truncated_count,
        initial_wealth=initial_wealth,
        **figures,
    )
