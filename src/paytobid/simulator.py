"""Exact round-by-round Monte Carlo engine for the bid/no-bid game.

Game rules, per round: every active player independently plays Bid
with the equilibrium probability for the current active count.  Every
bid costs the fee immediately.  A round in which nobody bids is
replayed (it counts toward the raw length only).  A round with exactly
one bidder ends the game: that player wins the object and pays the
sale price.  With re-entry the active set is always the full roster;
without it, the active set of the next round is the set of bidders.

Two engines play these rules.  ``play_one_game`` is the scalar
reference: one game, one Python loop, a full per-round log on request.
``run_replications`` plays games in lockstep blocks of BLOCK_SIZE
replications with numpy, one row of uniforms per running game and
step.  Replications are cut into consecutive blocks, and block b owns
the counter-based random stream derived from (master_seed, b).  Workers
receive whole blocks and the reduction runs in replication order, so
results are bit-reproducible and independent of the worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .equilibrium import AuctionParams, EquilibriumPolicy, ParameterError, require_count

DEFAULT_ROUND_CAP = 10_000_000


class PolicyCoverageError(LookupError):
    """The policy table lacks an entry for an active player count."""


class GameMode(enum.Enum):
    WITH_REENTRY = "reentry"
    NO_REENTRY = "no-reentry"


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


@dataclass(frozen=True)
class SimulationResult:
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


class UtilityEstimate(NamedTuple):
    mean: float
    se: float


def _philox_stream(master_seed: int, index: int) -> np.random.Generator:
    """Stream number ``index`` of the Philox key ``master_seed``.

    Philox is counter-based: jumping by the index yields disjoint,
    random-access streams from a single key, so any subset of them can
    run anywhere without changing the numbers drawn.
    """
    require_count(master_seed, 0, "master seed must be a non-negative integer, got {!r}")
    return np.random.Generator(np.random.Philox(key=master_seed).jumped(index))


def replication_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent random stream for one game of the scalar engine.

    Feeds ``play_one_game`` directly; distinct indices give disjoint
    streams.  ``run_replications`` does not use it: its batched engine
    draws one stream per block of replications, so game i of a run is
    not the game this stream plays.
    """
    return _philox_stream(master_seed, index)


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
    if round_cap < 1:
        raise ParameterError(f"round cap must be >= 1, got {round_cap!r}")
    n = params.n
    track_two = mode is GameMode.NO_REENTRY and n > 2
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


# Replications per lockstep block; block b of a run draws from stream b.
BLOCK_SIZE = 4096


class BlockRecord(NamedTuple):
    """Per-game outcome arrays of one block, one row per replication.

    The fields mirror GameRecord without the round log.  winner is -1
    for a truncated game.  rounds_to_at_most_two is 0 while a game has
    not reached two or fewer bidders, and like reached_two_player_state
    is tracked only without re-entry and with more than two players.
    """

    winner: np.ndarray
    net_money: np.ndarray
    revenue: np.ndarray
    bid_counts: np.ndarray
    effective_length: np.ndarray
    raw_length: np.ndarray
    truncated: np.ndarray
    rounds_to_at_most_two: np.ndarray
    reached_two_player_state: np.ndarray


def _bid_prob_table(params: AuctionParams) -> np.ndarray:
    """p(k) indexed by the active count k; entries 0 and 1 are unused."""
    table = np.zeros(params.n + 1)
    for k, p in EquilibriumPolicy.from_params(params).bid_prob.items():
        table[k] = p
    return table


def _play_block(
    params: AuctionParams,
    mode: GameMode,
    bid_prob: np.ndarray,
    rng: np.random.Generator,
    size: int,
    round_cap: int,
) -> BlockRecord:
    """Play ``size`` games in lockstep under the rules of play_one_game.

    Each step is one raw round of every running game: an (alive x n)
    matrix of uniforms, masked to the active players without re-entry
    and compared against p(k) of each game's active count.  A row with
    no bid is replayed, a row with one bid ends its game, and a game
    stops flagged as truncated after ``round_cap`` effective rounds.
    """
    n = params.n
    no_reentry = mode is GameMode.NO_REENTRY
    track_two = no_reentry and n > 2
    games = np.arange(size)  # replication slots still playing
    active = np.ones((size, n), dtype=bool)  # rows follow ``games``
    bid_counts = np.zeros((size, n), dtype=np.int64)
    effective = np.zeros(size, dtype=np.int64)
    raw = np.zeros(size, dtype=np.int64)
    winner = np.full(size, -1, dtype=np.int64)
    truncated = np.zeros(size, dtype=bool)
    rounds_to_two = np.zeros(size, dtype=np.int64)
    reached_two = np.zeros(size, dtype=bool)
    step = 0
    while games.size:
        step += 1
        draws = rng.random((games.size, n))
        if no_reentry:
            bids = (draws < bid_prob[active.sum(axis=1)][:, None]) & active
        else:
            bids = draws < bid_prob[n]
        n_bid = bids.sum(axis=1)
        played = np.flatnonzero(n_bid)  # rows that made an effective round
        g, b, nb = games[played], bids[played], n_bid[played]
        effective[g] += 1
        bid_counts[g] += b
        if track_two:
            first = (nb <= 2) & (rounds_to_two[g] == 0)
            rounds_to_two[g[first]] = effective[g[first]]
            reached_two[g[nb == 2]] = True
        ended = nb == 1
        winner[g[ended]] = b[ended].argmax(axis=1)
        capped = ~ended & (effective[g] >= round_cap)
        truncated[g[capped]] = True
        if no_reentry:
            active[played] = b
        done = played[ended | capped]
        if done.size:
            raw[games[done]] = step  # every step was a raw round of each game
            keep = np.ones(games.size, dtype=bool)
            keep[done] = False
            games = games[keep]
            active = active[keep]

    fee = params.bid_fee
    won = np.flatnonzero(winner >= 0)
    net = -fee * bid_counts.astype(np.float64)
    net[won, winner[won]] += params.value - params.sale_price
    revenue = fee * bid_counts.sum(axis=1).astype(np.float64)
    revenue[won] = params.sale_price + revenue[won]
    return BlockRecord(
        winner=winner,
        net_money=net,
        revenue=revenue,
        bid_counts=bid_counts,
        effective_length=effective,
        raw_length=raw,
        truncated=truncated,
        rounds_to_at_most_two=rounds_to_two,
        reached_two_player_state=reached_two,
    )


# Per-replication summary columns produced by _simulate_blocks.
_REVENUE, _EFF_LEN, _RAW_LEN, _UTILITY, _ROUNDS_TO_TWO, _REACHED_TWO, _TRUNCATED = range(7)


def _simulate_blocks(
    params: AuctionParams,
    mode: GameMode,
    master_seed: int,
    round_cap: int,
    initial_wealth: float,
    count: int,
    first_block: int,
    stop_block: int,
) -> np.ndarray:
    """Summary rows of blocks [first_block, stop_block) of a run of ``count``."""
    bid_prob = _bid_prob_table(params)
    u = params.utility
    track_two = mode is GameMode.NO_REENTRY and params.n > 2
    parts = []
    for block in range(first_block, stop_block):
        size = min(BLOCK_SIZE, count - block * BLOCK_SIZE)
        game = _play_block(
            params, mode, bid_prob, _philox_stream(master_seed, block), size, round_cap
        )
        # One kernel call per distinct amount keeps its range checks.
        amounts, where = np.unique(initial_wealth + game.net_money, return_inverse=True)
        utility = np.array([u.evaluate(float(x)) for x in amounts])
        per_player = utility[where.reshape(game.net_money.shape)]
        untracked = np.full(size, np.nan)
        parts.append(
            np.column_stack(
                (
                    game.revenue,
                    game.effective_length,
                    game.raw_length,
                    per_player.sum(axis=1) / params.n,
                    game.rounds_to_at_most_two if track_two else untracked,
                    game.reached_two_player_state if track_two else untracked,
                    game.truncated,
                )
            )
        )
    return np.vstack(parts)


def _mean_se(values: np.ndarray) -> tuple:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else float("nan")
    return mean, se


def run_replications(
    params: AuctionParams,
    mode: GameMode,
    count: int,
    master_seed: int,
    round_cap: int = DEFAULT_ROUND_CAP,
    *,
    initial_wealth: float = 0.0,
    workers: int = 1,
) -> SimulationResult:
    """Run independent replications and aggregate them.

    The aggregate is a pure function of (params, mode, count,
    master_seed, round_cap, initial_wealth): replications are cut into
    blocks of BLOCK_SIZE, block b always uses the stream derived from
    (master_seed, b), workers receive whole blocks and the reduction
    runs in replication order, so the result is byte-identical for any
    worker count.
    """
    if count < 1:
        raise ParameterError(f"replication count must be >= 1, got {count!r}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers!r}")
    if round_cap < 1:
        raise ParameterError(f"round cap must be >= 1, got {round_cap!r}")

    blocks = -(-count // BLOCK_SIZE)
    jobs = min(workers, blocks)
    if jobs == 1:
        summary = _simulate_blocks(
            params, mode, master_seed, round_cap, initial_wealth, count, 0, blocks
        )
    else:
        bounds = [blocks * w // jobs for w in range(jobs + 1)]
        args = [
            (params, mode, master_seed, round_cap, initial_wealth, count, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_simulate_blocks, *zip(*args)))
        summary = np.vstack(parts)

    completed = summary[summary[:, _TRUNCATED] == 0.0]
    truncated_count = int(count - completed.shape[0])
    if completed.shape[0] == 0:
        raise ParameterError(
            f"all {count} replications hit the round cap {round_cap}; "
            "no completed games to aggregate"
        )

    mean_rev, se_rev = _mean_se(completed[:, _REVENUE])
    mean_eff, se_eff = _mean_se(completed[:, _EFF_LEN])
    mean_raw, se_raw = _mean_se(completed[:, _RAW_LEN])
    mean_util, se_util = _mean_se(completed[:, _UTILITY])
    track_two = mode is GameMode.NO_REENTRY and params.n > 2
    if track_two:
        frac, se_frac = _mean_se(completed[:, _REACHED_TWO])
        t_two, se_two = _mean_se(completed[:, _ROUNDS_TO_TWO])
    else:
        frac = se_frac = t_two = se_two = None

    return SimulationResult(
        replications=count,
        truncated_replications=truncated_count,
        initial_wealth=initial_wealth,
        mean_revenue=mean_rev,
        se_revenue=se_rev,
        mean_effective_length=mean_eff,
        se_effective_length=se_eff,
        mean_raw_length=mean_raw,
        se_raw_length=se_raw,
        mean_player_utility=mean_util,
        se_player_utility=se_util,
        two_player_passage_fraction=frac,
        se_two_player_passage_fraction=se_frac,
        mean_rounds_to_two=t_two,
        se_rounds_to_two=se_two,
    )


def estimate_subgame_utility(
    params: AuctionParams,
    mode: GameMode,
    initial_wealth: float,
    count: int,
    master_seed: int,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> UtilityEstimate:
    """Monte Carlo estimate of E[u(initial_wealth + net money)].

    In equilibrium this equals u(initial_wealth) in both modes: the
    game is utility-fair, so the estimate's confidence interval should
    cover that value.
    """
    result = run_replications(
        params, mode, count, master_seed, round_cap, initial_wealth=initial_wealth
    )
    return UtilityEstimate(result.mean_player_utility, result.se_player_utility)
