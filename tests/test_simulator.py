"""Game engine rules, stream determinism, aggregation, analytic oracles."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy import stats

from paytobid import (
    DEFAULT_ROUND_CAP,
    AuctionParams,
    CarlUtility,
    GameMode,
    ParameterError,
    SimulationResult,
    bid_count_distribution,
    closed_form_revenue,
    run_replications,
    win_probability,
)
from paytobid.equilibrium import bid_probabilities, bid_probability, odds_at
from paytobid.simulator import (
    _FIGURES,
    BLOCK_SIZE,
    BlockRecord,
    RawRoundBudgetError,
    _bid_prob_table,
    _block_size,
    _capped_stay,
    _game_cost,
    _last_bid_word,
    _net_money,
    _philox_stream,
    _play_block,
)

from helpers import (
    MC_COUNT,
    NO_SHRINK,
    attrition_params,
    attrition_seed,
    domain_points,
    flag_params,
    make_params,
    revenue_seed,
)
from reference import PolicyCoverageError, play_block, play_one_game


class ForcedStream:
    """Plays back scripted per-round uniforms; below-probability means Bid."""

    def __init__(self, draws, cycle=False):
        self.draws = [np.asarray(d, dtype=float) for d in draws]
        self.cycle = cycle
        self.position = 0

    def random(self, k):
        if self.position >= len(self.draws) and self.cycle:
            self.position = 0
        draw = self.draws[self.position]
        self.position += 1
        assert draw.size == k, f"scripted draw has size {draw.size}, engine asked for {k}"
        return draw


BID = 0.0     # certainly below any interior bid probability
PASS = 0.999  # certainly above any bid probability on these grids


class ScriptedBinomials:
    """Plays back scripted bidder counts, one array per raw round.

    Each entry is (active counts the engine must ask about, bidder
    counts to return), both over the running games in slot order.  The
    engine may ask with arrays of (k, p), one entry per running game, or
    with one (k, p) and size=running, which stands for that (k, p) in
    every entry.
    """

    def __init__(self, table, rounds):
        self.table = table
        self.rounds = list(rounds)

    def binomial(self, k, p, size=None):
        expected, bidders = self.rounds.pop(0)
        if size is not None:
            k, p = np.full(size, k), np.full(size, p)
        assert k.tolist() == expected
        assert p.tolist() == self.table[expected].tolist()
        return np.asarray(bidders, dtype=np.int64)


def holdings_of(params, block, game):
    """Sorted (bids, players, net money) of one game of a no-re-entry block."""
    mine = block.holder == game
    return sorted(
        zip(
            block.bid_counts[mine].tolist(),
            block.players[mine].tolist(),
            _net_money(params, block.bid_counts[mine], block.won[mine]).tolist(),
        )
    )


def per_player_bids(block, n):
    """(games x n) bid counts of a no-re-entry block, players in no set order."""
    order = np.argsort(block.holder, kind="stable")
    return np.repeat(block.bid_counts[order], block.players[order]).reshape(-1, n)


def policy_of(params):
    """p(k) by active count k = 2..n, the mapping play_one_game reads."""
    log_lam = math.log(win_probability(params))
    return dict(zip(range(2, params.n + 1), bid_probabilities(log_lam, params.n)))


def draw_table(params):
    """The simulator's p(k) table of params, indexed by k."""
    return _bid_prob_table(math.log(win_probability(params)), params.n)


def reentry_setup(n=3):
    params = make_params((10.0, 0.0, 1.0), n=n)
    return params, policy_of(params)


# ---------------------------------------------------------------------------
# Scripted single games: the rules, one at a time.
# ---------------------------------------------------------------------------

def test_sole_bidder_wins_immediately():
    params, policy = reentry_setup()
    record = play_one_game(
        params, GameMode.WITH_REENTRY, policy, ForcedStream([[BID, PASS, PASS]])
    )
    assert record.winner == 0
    assert record.revenue == params.sale_price + params.bid_fee
    assert record.effective_length == 1
    assert record.raw_length == 1
    assert not record.truncated
    assert record.net_money[0] == pytest.approx(10.0 - 0.0 - 1.0)
    assert record.net_money[1] == record.net_money[2] == 0.0
    (outcome,) = record.rounds
    assert outcome.bidder_ids == frozenset({0})
    assert outcome.ended and outcome.active_count_before == 3
    assert outcome.resubmission_count == 0


def test_all_pass_round_is_replayed():
    params, policy = reentry_setup()
    record = play_one_game(
        params,
        GameMode.WITH_REENTRY,
        policy,
        ForcedStream([[PASS, PASS, PASS], [PASS, BID, PASS]]),
    )
    assert record.winner == 1
    assert record.effective_length == 1
    assert record.raw_length == 2
    assert record.revenue == params.sale_price + params.bid_fee
    (outcome,) = record.rounds
    assert outcome.resubmission_count == 1


def test_no_reentry_survivors_are_the_bidders():
    params = make_params((10.0, 0.0, 1.0), n=4)
    policy = policy_of(params)
    record = play_one_game(
        params,
        GameMode.NO_REENTRY,
        policy,
        ForcedStream([[BID, PASS, BID, PASS], [BID, PASS]]),
    )
    first, second = record.rounds
    assert first.bidder_ids == frozenset({0, 2})
    assert not first.ended
    # Survivors {0, 2} move on; the engine now asks for two draws and
    # mixes at the two-player probability.
    assert second.active_count_before == 2
    assert second.bidder_ids == frozenset({0})
    assert record.winner == 0
    assert record.reached_two_player_state
    assert record.rounds_to_at_most_two == 1
    assert record.bid_counts.tolist() == [2, 0, 1, 0]


def test_reentry_keeps_everyone_active():
    params, policy = reentry_setup()
    record = play_one_game(
        params,
        GameMode.WITH_REENTRY,
        policy,
        ForcedStream([[BID, BID, PASS], [PASS, BID, PASS]]),
    )
    # Two bidders continue the game, but all three players stay in.
    assert [r.active_count_before for r in record.rounds] == [3, 3]
    assert record.winner == 1
    assert record.bid_counts.tolist() == [1, 2, 0]


def test_two_survivors_who_both_bid_stay_at_two():
    params = make_params((10.0, 0.0, 1.0), n=3)
    policy = policy_of(params)
    record = play_one_game(
        params,
        GameMode.NO_REENTRY,
        policy,
        ForcedStream([[BID, BID, PASS], [BID, BID], [PASS, BID]]),
    )
    assert [r.active_count_before for r in record.rounds] == [3, 2, 2]
    assert record.winner == 1


def test_round_cap_truncates_with_flag():
    params, policy = reentry_setup()
    record = play_one_game(
        params,
        GameMode.WITH_REENTRY,
        policy,
        ForcedStream([[BID, BID, PASS]], cycle=True),
        round_cap=5,
    )
    assert record.truncated
    assert record.winner is None
    assert record.effective_length == 5
    # No sale happened: the seller keeps only the fees.
    assert record.revenue == pytest.approx(params.bid_fee * 10)
    assert record.net_money.tolist() == pytest.approx([-5.0, -5.0, 0.0])


def test_missing_policy_entry_is_a_configuration_error():
    params = make_params((10.0, 0.0, 1.0), n=4)
    partial = {2: 0.9}
    with pytest.raises(PolicyCoverageError):
        play_one_game(params, GameMode.WITH_REENTRY, partial, ForcedStream([[BID] * 4]))


def test_accounting_identity_per_game():
    params = make_params((100.0, 5.0, 0.5), n=4)
    policy = policy_of(params)
    for index in range(50):
        record = play_one_game(
            params, GameMode.WITH_REENTRY, policy, _philox_stream(99, index)
        )
        total_bids = int(record.bid_counts.sum())
        assert record.revenue - params.sale_price == params.bid_fee * total_bids
        assert total_bids == sum(len(r.bidder_ids) for r in record.rounds)
        assert record.raw_length == record.effective_length + sum(
            r.resubmission_count for r in record.rounds
        )
        for outcome in record.rounds:
            assert outcome.bidder_ids
            assert outcome.ended == (len(outcome.bidder_ids) == 1)
        assert record.rounds[-1].ended


def test_no_reentry_round_chain_is_consistent():
    params = attrition_params(5, 10)
    policy = policy_of(params)
    for index in range(50):
        record = play_one_game(
            params, GameMode.NO_REENTRY, policy, _philox_stream(123, index)
        )
        for prev, nxt in zip(record.rounds, record.rounds[1:]):
            assert len(prev.bidder_ids) >= 2
            assert nxt.active_count_before == len(prev.bidder_ids)


# ---------------------------------------------------------------------------
# Streams and determinism.
# ---------------------------------------------------------------------------

def test_replication_streams_are_reproducible_and_distinct():
    a = _philox_stream(7, 3).random(8)
    b = _philox_stream(7, 3).random(8)
    c = _philox_stream(7, 4).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_master_seed_must_be_a_non_negative_integer():
    with pytest.raises(ParameterError):
        run_replications(make_params((10.0, 0.0, 1.0), n=3), GameMode.WITH_REENTRY, 10, -1)


def test_master_seed_must_fit_a_philox_key():
    # A Philox key holds 128 bits; numpy's own ValueError must not escape.
    params = make_params((10.0, 0.0, 1.0), n=3)
    for mode in GameMode:
        with pytest.raises(ParameterError, match=r"below 2\*\*128"):
            run_replications(params, mode, 10, 2**128)
        assert run_replications(params, mode, 10, 2**128 - 1).replications == 10


def test_rerun_is_identical():
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=3)
    first = run_replications(params, GameMode.WITH_REENTRY, 2_000, 11)
    second = run_replications(params, GameMode.WITH_REENTRY, 2_000, 11)
    assert first == second


def test_initial_wealth_changes_only_the_utility_estimate():
    params = make_params((10.0, 0.0, 1.0), n=3)
    base = run_replications(params, GameMode.WITH_REENTRY, 2_000, 17)
    shifted = run_replications(
        params, GameMode.WITH_REENTRY, 2_000, 17, initial_wealth=5.0
    )
    changed = {"mean_player_utility", "se_player_utility", "initial_wealth"}
    for field in base._fields:
        if field in changed:
            continue
        assert getattr(base, field) == getattr(shifted, field), field


@pytest.mark.parametrize("wealth", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", list(GameMode))
def test_initial_wealth_must_be_finite(monkeypatch, mode, wealth):
    def refuse(*args):
        raise AssertionError("played a block")

    monkeypatch.setattr("paytobid.simulator._play_block", refuse)
    with pytest.raises(ParameterError, match="initial wealth must be finite"):
        run_replications(make_params((10.0, 0.0, 1.0), n=3), mode, 10, 1, initial_wealth=wealth)


# At rho = -0.1 a wealth of 3529 puts u near 1e154, so the utility's
# squares overflow; at n = 100 and rho = -0.001 a game's sum of 100
# utilities near 1e307 does.
@pytest.mark.parametrize("n, rho, wealth", [(3, -0.1, 3529.0), (100, -0.001, 699990.0)])
@pytest.mark.parametrize("mode", list(GameMode))
def test_utility_estimate_past_the_float_range_raises(mode, n, rho, wealth):
    params = make_params((10.0, 0.0, 1.0), rho=rho, n=n)
    with pytest.raises(FloatingPointError, match="overflow"):
        run_replications(params, mode, 8, 0, initial_wealth=wealth)


def test_policy_functions_take_no_wealth():
    assert "wealth" not in inspect.signature(play_one_game).parameters
    bound = inspect.signature(play_one_game).parameters
    assert set(bound) == {
        "params", "mode", "policy", "rng_stream", "round_cap", "collect_rounds"
    }


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def test_truncated_games_counted_not_averaged():
    params = make_params((1000.0, 0.0, 1.0), n=2)  # long two-player wars
    result = run_replications(params, GameMode.WITH_REENTRY, 300, 21, round_cap=3)
    assert result.truncated_replications > 0
    assert result.replications == 300
    # Completed games are at most 3 effective rounds by construction.
    assert result.mean_effective_length <= 3.0


def test_replication_count_validated():
    # Counts are ints >= 1, not bools or floats: True is not one
    # replication, and 2.5 is neither a count nor a cap.
    params = make_params((10.0, 0.0, 1.0))
    for count, settings in [
        (0, {}),
        (True, {}),
        (2.5, {}),
        (10, {"round_cap": 0}),
        (10, {"round_cap": 2.5}),
    ]:
        with pytest.raises(ParameterError):
            run_replications(params, GameMode.WITH_REENTRY, count, 1, **settings)
    policy = policy_of(params)
    for round_cap in (0, 2.5, True):
        with pytest.raises(ParameterError):
            play_one_game(params, GameMode.WITH_REENTRY, policy, _philox_stream(1, 0), round_cap)


def test_two_player_fields_absent_outside_their_domain():
    params = make_params((10.0, 0.0, 1.0), n=3)
    reentry = run_replications(params, GameMode.WITH_REENTRY, 500, 3)
    assert reentry.two_player_passage_fraction is None
    assert reentry.mean_rounds_to_two is None
    two = attrition_params(2, 10)
    no_reentry_two = run_replications(two, GameMode.NO_REENTRY, 500, 3)
    assert no_reentry_two.two_player_passage_fraction is None


def test_figure_table_names_every_result_field():
    # run_replications fills every (mean, SE) field from _FIGURES; any
    # other field of the result must be one it sets by name.
    named = ["replications", "truncated_replications", "initial_wealth"]
    figures = [name for pair in _FIGURES for name in pair]
    fields = list(SimulationResult._fields)
    assert sorted(named + figures) == sorted(fields)


def test_symmetric_bid_frequencies_chi_square():
    # Equilibrium play is exchangeable across players: per-player bid
    # totals should look like draws from a uniform split (1% level).
    params = make_params((10.0, 0.0, 1.0), n=4)
    policy = policy_of(params)
    counts = np.zeros(4, dtype=np.int64)
    for index in range(3_000):
        record = play_one_game(
            params,
            GameMode.WITH_REENTRY,
            policy,
            _philox_stream(2024, index),
            collect_rounds=False,
        )
        counts += record.bid_counts
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


# ---------------------------------------------------------------------------
# The batched engine against the scalar reference play_one_game.
# ---------------------------------------------------------------------------

DIFFERENTIAL_GAMES = 5_000
# Twelve comparisons at this level keep the family-wise false-alarm
# rate near 1%.  KS on integer-valued samples is conservative.
DIFFERENTIAL_LEVEL = 1e-3


@pytest.mark.parametrize("mode", list(GameMode))
def test_batched_engine_matches_scalar_distributions(mode):
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=4)
    policy = policy_of(params)
    scalar = [
        play_one_game(
            params, mode, policy, _philox_stream(4242, index), collect_rounds=False
        )
        for index in range(DIFFERENTIAL_GAMES)
    ]
    # A different Philox key keeps the two samples independent.
    block = _play_block(
        params,
        mode,
        draw_table(params),
        np.random.Generator(np.random.Philox(key=4343)),
        DIFFERENTIAL_GAMES,
        DEFAULT_ROUND_CAP,
    )
    assert (block.winner >= 0).all()
    samples = {
        "effective length": ([g.effective_length for g in scalar], block.effective_length),
        "raw length": ([g.raw_length for g in scalar], block.raw_length),
        "revenue": ([g.revenue for g in scalar], block.revenue),
    }
    if mode is GameMode.WITH_REENTRY:
        for player in range(params.n):
            samples[f"bids of player {player}"] = (
                [g.bid_counts[player] for g in scalar],
                block.bid_counts[:, player],
            )
    else:
        samples["rounds to two"] = (
            [g.rounds_to_at_most_two for g in scalar],
            block.rounds_to_at_most_two,
        )
        # The count-level engine does not label players.  They are
        # exchangeable, so one player drawn uniformly from each game bids
        # like the scalar engine's player 0.
        chosen = np.random.default_rng(4444).integers(params.n, size=DIFFERENTIAL_GAMES)
        samples["bids of a uniformly chosen player"] = (
            [g.bid_counts[0] for g in scalar],
            per_player_bids(block, params.n)[np.arange(DIFFERENTIAL_GAMES), chosen],
        )
    for label, (reference, batched) in samples.items():
        p_value = stats.ks_2samp(reference, batched).pvalue
        assert p_value > DIFFERENTIAL_LEVEL, f"{mode.value} {label}: p = {p_value:.1e}"


# ---------------------------------------------------------------------------
# The batched engine's effective length against its exact law.
# ---------------------------------------------------------------------------

def exact_length_law(params, mode, tail=1e-12):
    """P(L = t) at entry t - 1, for t = 1, 2, ... until less than tail of the mass is left.

    The count chain moves the active players: without re-entry along the
    whole rows of bid_count_distribution, and with re-entry the count
    stays n, so a round ends the game with the hazard h(n) and L is
    Geometric(h(n)).  P(L = t) is the mass that first reaches one player
    in round t, pushed from the start state.
    """
    n = params.n
    chain = np.zeros((n + 1, n + 1))
    if mode is GameMode.WITH_REENTRY:
        hazard = odds_at(params, n).hazard
        chain[n, [1, n]] = hazard, 1.0 - hazard
    else:
        for k in range(2, n + 1):
            chain[k, 1 : k + 1] = bid_count_distribution(params, k)
    state = np.zeros(n + 1)
    state[n] = 1.0
    law = []
    while state.sum() >= tail:
        state = state @ chain
        law.append(state[1])
        state[1] = 0.0
    return np.array(law)


def length_chi2_p_value(lengths, law):
    """p-value of a chi-square test of lengths against law, P(L = t) at entry t - 1.

    Consecutive lengths are merged into bins that each expect at least
    five games, and the last bin takes every length past the others.
    """
    games = lengths.size
    below = np.cumsum(law)  # P(L <= t)
    edges, since = [], 0.0
    for t, p in enumerate(law, start=1):
        since += p
        if games * min(since, 1.0 - below[t - 1]) >= 5.0:
            edges.append(t)
            since = 0.0
    observed = np.bincount(np.searchsorted(edges, lengths), minlength=len(edges) + 1)
    expected = games * np.diff([0.0, *below[np.array(edges) - 1], 1.0])
    return stats.chisquare(observed, expected).pvalue


# Each case has its own Philox key, fixed before the test was first run.
LENGTH_LAW_SEEDS = {
    (GameMode.WITH_REENTRY, 2): 4601,
    (GameMode.WITH_REENTRY, 3): 4602,
    (GameMode.NO_REENTRY, 3): 4603,
    (GameMode.NO_REENTRY, 5): 4604,
    (GameMode.NO_REENTRY, 20): 4605,
}


@pytest.mark.parametrize("mode, n", list(LENGTH_LAW_SEEDS))
def test_effective_length_follows_its_exact_law(mode, n):
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=n)
    law = exact_length_law(params, mode)
    assert abs(math.fsum(law) - 1.0) <= 1e-11
    block = _play_block(
        params,
        mode,
        draw_table(params),
        np.random.Generator(np.random.Philox(key=LENGTH_LAW_SEEDS[mode, n])),
        DIFFERENTIAL_GAMES,
        DEFAULT_ROUND_CAP,
    )
    assert (block.winner >= 0).all()
    p_value = length_chi2_p_value(block.effective_length, law)
    assert p_value > DIFFERENTIAL_LEVEL, f"{mode.value} n={n}: p = {p_value:.1e}"


@pytest.mark.parametrize("round_cap", [3, DEFAULT_ROUND_CAP])
def test_single_game_block_replays_the_scalar_game(round_cap):
    # With re-entry a one-game block draws one row of n uniforms per
    # raw round, exactly as play_one_game does, so on the same stream
    # both engines must play the same game.
    params = make_params((10.0, 0.0, 1.0), n=3)
    policy = policy_of(params)
    table = draw_table(params)
    for index in range(200):
        game = play_one_game(
            params, GameMode.WITH_REENTRY, policy, _philox_stream(8, index), round_cap
        )
        block = _play_block(
            params, GameMode.WITH_REENTRY, table, _philox_stream(8, index), 1, round_cap
        )
        assert block.winner[0] == (-1 if game.winner is None else game.winner)
        assert block.won[0].tolist() == [i == game.winner for i in range(params.n)]
        assert block.bid_counts[0].tolist() == game.bid_counts.tolist()
        net = _net_money(params, block.bid_counts[0], block.won[0])
        assert net.tolist() == game.net_money.tolist()
        assert block.revenue[0] == game.revenue
        assert block.effective_length[0] == game.effective_length
        assert block.raw_length[0] == game.raw_length
        assert (block.winner[0] < 0) == game.truncated


# ---------------------------------------------------------------------------
# One block, one stream, one request per lockstep step.
# ---------------------------------------------------------------------------

class RecordingBitGenerator:
    """A Philox bit generator that logs how many raw words each request asks for."""

    def __init__(self, bit_generator, log):
        self.bit_generator = bit_generator
        self.log = log

    def random_raw(self, size):
        self.log.append(size)
        return self.bit_generator.random_raw(size)


class RecordingStream:
    """A Philox stream that logs what the engine asks of every draw."""

    def __init__(self, key, log):
        self.log = log
        self.generator = np.random.Generator(np.random.Philox(key=key))
        self.bit_generator = RecordingBitGenerator(self.generator.bit_generator, log)

    def binomial(self, k, p, size=None):
        self.log.append(tuple(np.broadcast_to(k, size or np.shape(k)).tolist()))
        return self.generator.binomial(k, p, size)


@pytest.mark.parametrize("mode", list(GameMode))
@pytest.mark.parametrize("round_cap", [4, DEFAULT_ROUND_CAP])
def test_block_asks_its_stream_once_per_step(mode, round_cap):
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=4)
    log = []
    block = _play_block(
        params, mode, draw_table(params), RecordingStream(900, log), 47, round_cap
    )
    # Step t asks for the games still running, i.e. those whose raw
    # length is at least t, in slot order.
    raw = block.raw_length
    running = [int((raw >= t).sum()) for t in range(1, raw.max() + 1)]
    if mode is GameMode.WITH_REENTRY:  # n raw words per running game
        assert log == [games * params.n for games in running]
    else:  # one bidder count per running game, asked at its active count
        assert [len(counts) for counts in log] == running
        assert all(2 <= k <= params.n for counts in log for k in counts)
    assert (block.winner < 0).any() == (round_cap == 4)


# Frozen results of two small runs of the block stream contract: block b
# of a run draws from Philox(seed).jumped(b), and a block's size depends
# only on (mode, n).  A change to which numbers a game draws, or in what
# order they are used, changes these values.
PINNED_RUNS = {
    GameMode.WITH_REENTRY: (
        AuctionParams(n=3, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1),
        77,
        {
            "truncated_replications": 0,
            "mean_revenue": 15.955666666666668,
            "se_revenue": 0.17300798157764413,
            "mean_effective_length": 6.975444444444444,
            "se_effective_length": 0.068877084086829,
            "mean_raw_length": 7.092,
            "se_raw_length": 0.07020447930032621,
            "mean_player_utility": 1.730834424804005,
            "se_player_utility": 0.04610775514228434,
            "two_player_passage_fraction": None,
            "se_two_player_passage_fraction": None,
            "mean_rounds_to_two": None,
            "se_rounds_to_two": None,
        },
    ),
    GameMode.NO_REENTRY: (
        AuctionParams(n=5, value=10.0, sale_price=0.0, bid_fee=1.0, rho=-0.1),
        78,
        {
            "truncated_replications": 0,
            "mean_revenue": 16.425,
            "se_revenue": 0.17646395185814,
            "mean_effective_length": 8.108222222222222,
            "se_effective_length": 0.08645928667424958,
            "mean_raw_length": 8.179444444444444,
            "se_raw_length": 0.08683751422415899,
            "mean_player_utility": 1.6194106752030901,
            "se_player_utility": 0.026306594660839455,
            "two_player_passage_fraction": 0.6972222222222222,
            "se_two_player_passage_fraction": 0.004843401623755966,
            "mean_rounds_to_two": 1.9473333333333334,
            "se_rounds_to_two": 0.013109502128869995,
        },
    ),
}


@pytest.mark.parametrize("mode", list(GameMode))
def test_stream_contract_is_pinned(mode):
    params, seed, frozen = PINNED_RUNS[mode]
    result = run_replications(params, mode, 9_000, seed, initial_wealth=1.5)
    assert result._asdict() == {
        "replications": 9_000, "initial_wealth": 1.5, **frozen
    }


# Frozen results of one capped run per mode, recorded with the engines
# that kept each running game's counts in separate arrays.  About a third
# of the re-entry games and two thirds of the others hit the cap, so the
# path that leaves truncated games out of the utility column and out of
# every mean is held byte for byte.  Each entry is (params, seed, round
# cap, utility kernel calls, figures); the kernel runs twice for the win
# ratio, which a run forms once, and once per amount of net money that a
# completed game's holdings reach.
CAPPED_RUNS = {
    GameMode.WITH_REENTRY: (
        AuctionParams(n=10, value=100.0, sale_price=0.0, bid_fee=1.0, rho=-0.01),
        79,
        40,
        54,
        {
            "truncated_replications": 1053,
            "mean_revenue": 71.96404725218285,
            "se_revenue": 1.140994452323009,
            "mean_effective_length": 16.894196199280945,
            "se_effective_length": 0.25389190205249706,
            "mean_raw_length": 16.945043656908062,
            "se_raw_length": 0.25469363893830826,
            "mean_player_utility": 10.711349971799338,
            "se_player_utility": 0.12480825666897555,
            "two_player_passage_fraction": None,
            "se_two_player_passage_fraction": None,
            "mean_rounds_to_two": None,
            "se_rounds_to_two": None,
        },
    ),
    GameMode.NO_REENTRY: (
        AuctionParams(n=6, value=100.0, sale_price=0.0, bid_fee=1.0, rho=-0.01),
        80,
        30,
        62,
        {
            "truncated_replications": 2022,
            "mean_revenue": 30.494887525562373,
            "se_revenue": 0.6438535112584026,
            "mean_effective_length": 13.192229038854805,
            "se_effective_length": 0.29000325938613425,
            "mean_raw_length": 13.199386503067485,
            "se_raw_length": 0.29001816101617517,
            "mean_player_utility": 22.342260446786163,
            "se_player_utility": 0.1680251765999486,
            "two_player_passage_fraction": 0.7024539877300614,
            "se_two_player_passage_fraction": 0.014626443112704024,
            "mean_rounds_to_two": 4.591002044989775,
            "se_rounds_to_two": 0.12175376354269445,
        },
    ),
}


@pytest.mark.parametrize("mode", list(GameMode))
def test_capped_run_is_pinned(monkeypatch, mode):
    params, seed, round_cap, evaluations, frozen = CAPPED_RUNS[mode]
    calls = []
    evaluate = CarlUtility.evaluate
    monkeypatch.setattr(CarlUtility, "evaluate", lambda u, x: calls.append(x) or evaluate(u, x))
    result = run_replications(params, mode, 3_000, seed, round_cap, initial_wealth=1.5)
    assert result._asdict() == {"replications": 3_000, "initial_wealth": 1.5, **frozen}
    assert len(calls) == evaluations


@pytest.mark.parametrize("mode", list(GameMode))
def test_state_width_does_not_change_the_games(mode):
    # A round cap of 2**31 or more needs int64 counts, and any smaller cap
    # fits int32; on the same stream both must play the same games.
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=4)
    table = draw_table(params)
    narrow, wide = (
        _play_block(params, mode, table, _philox_stream(6, 0), 500, cap) for cap in (10**7, 2**31)
    )
    for field in BlockRecord._fields:
        assert np.array_equal(getattr(narrow, field), getattr(wide, field)), field


# ---------------------------------------------------------------------------
# The engines draw what their reference draws.
# ---------------------------------------------------------------------------

# At lambda = 1e-17 < 2**-54, p(2) = 1 - lambda rounds to 1.0: every
# player bids in every round, so every game hits the round cap.
CERTAIN_BID = AuctionParams(n=2, value=1e17, sale_price=0.0, bid_fee=1.0, rho=0.0)


@pytest.mark.parametrize(
    "p",
    [5e-324, 2.0**-1060, 0.5, 1.0 - 2.0**-53, bid_probability(CERTAIN_BID, 2)],
    ids=["smallest-subnormal", "subnormal", "half", "below-one", "p2-rounds-to-one"],
)
def test_raw_word_cut_is_the_uniform_test_at_the_edges(p):
    assert bid_probability(CERTAIN_BID, 2) == 1.0
    key = 2301
    words = np.random.Philox(key=key).random_raw(10_000)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(10_000)
    assert np.array_equal(words <= _last_bid_word(p), uniforms < p)
    # Random words seldom fall next to the cut, so test the words that
    # do, with the map from word to uniform that random() applies above.
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, uniforms)
    cut = _last_bid_word(p)
    near = np.array(
        [w for w in range(int(cut) - 2**11 - 1, int(cut) + 2**11 + 2) if 0 <= w < 2**64],
        dtype=np.uint64,
    )
    assert np.array_equal(near <= cut, (near >> np.uint64(11)) * 2.0**-53 < p)


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    key=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_raw_word_cut_is_the_uniform_test(p, key):
    words = np.random.Philox(key=key).random_raw(1_000)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(1_000)
    assert np.array_equal(words <= _last_bid_word(p), uniforms < p)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(
    mode=st.sampled_from(list(GameMode)),
    n=st.one_of(st.integers(2, 6), st.integers(7, 1000)),
    ratio=st.floats(1.05, 100.0),
    rho=st.floats(-0.05, 0.0),
    size=st.one_of(st.just(1), st.integers(2, 48)),
    round_cap=st.one_of(st.sampled_from([1, 2, 3, 4]), st.integers(5, 300)),
    key=st.integers(min_value=0, max_value=2**64 - 1),
)
@example(mode=GameMode.WITH_REENTRY, n=3, ratio=10.0, rho=-0.1, size=1, round_cap=2, key=1)
@example(mode=GameMode.NO_REENTRY, n=5, ratio=10.0, rho=-0.1, size=40, round_cap=4, key=2)
@example(mode=GameMode.NO_REENTRY, n=2, ratio=10.0, rho=0.0, size=40, round_cap=DEFAULT_ROUND_CAP,
         key=3)
@example(mode=GameMode.WITH_REENTRY, n=2, ratio=1e17, rho=0.0, size=5, round_cap=4, key=4)
@example(mode=GameMode.NO_REENTRY, n=2, ratio=1e17, rho=0.0, size=5, round_cap=4, key=5)
@example(mode=GameMode.NO_REENTRY, n=1000, ratio=100.0, rho=0.0, size=48, round_cap=2**31,
         key=6)
def test_block_is_the_reference_block(mode, n, ratio, rho, size, round_cap, key):
    # The package compares raw words with an integer cut where the
    # reference compares uniforms with p(n), and draws the two-player
    # tail as one scalar binomial where the reference draws one per
    # game; on the same stream both must play the same games.
    params = AuctionParams(n=n, value=ratio, sale_price=0.0, bid_fee=1.0, rho=rho)
    table = draw_table(params)
    streams = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
    block, reference = (
        play(params, mode, table, stream, size, round_cap)
        for play, stream in zip((_play_block, play_block), streams)
    )
    for field in BlockRecord._fields:
        mine, theirs = getattr(block, field), getattr(reference, field)
        assert mine.dtype == theirs.dtype, field
        assert np.array_equal(mine, theirs), field


# ---------------------------------------------------------------------------
# The count-level engine of no-re-entry games.
# ---------------------------------------------------------------------------

def test_count_block_accounts_for_every_round():
    params = make_params((100.0, 5.0, 0.5), n=5)
    table = draw_table(params)
    script = ScriptedBinomials(
        table,
        [
            ([5, 5, 5], [0, 5, 1]),  # game 0 replays, all of 1 bid, 2 has one bidder
            ([5, 5], [3, 2]),  # two players of game 0 and three of game 1 stop
            ([3, 2], [2, 0]),  # one more of game 0 stops; game 1 replays
            ([2, 2], [2, 1]),  # game 0 stays at two; game 1 ends
            ([2], [0]),  # game 0 replays
            ([2], [1]),  # game 0 ends
        ],
    )
    block = _play_block(params, GameMode.NO_REENTRY, table, script, 3, DEFAULT_ROUND_CAP)
    assert not script.rounds
    assert block.effective_length.tolist() == [4, 3, 1]
    assert block.raw_length.tolist() == [6, 4, 1]  # 2, 1 and 0 replays
    assert (block.winner >= 0).all()
    assert block.rounds_to_at_most_two.tolist() == [2, 2, 1]
    assert block.reached_two_player_state.tolist() == [True, True, False]
    # Players who stop after round r hold r - 1 bids; the winner holds
    # one bid per round and gains value - sale_price = 95.
    assert holdings_of(params, block, 0) == [(0, 2, 0.0), (1, 1, -0.5), (3, 1, -1.5), (4, 1, 93.0)]
    assert holdings_of(params, block, 1) == [(1, 3, -0.5), (2, 1, -1.0), (3, 1, 93.5)]
    assert holdings_of(params, block, 2) == [(0, 4, 0.0), (1, 1, 94.5)]
    # Sale price plus the fee on 8, 8 and 1 bids.
    assert block.revenue.tolist() == [9.0, 9.0, 5.5]
    for game, rounds in enumerate([4, 3, 1]):
        held = block.winner[game]
        assert block.holder[held] == game
        assert (block.bid_counts[held], block.players[held]) == (rounds, 1)


def test_count_block_truncates_at_the_round_cap():
    params = make_params((100.0, 5.0, 0.5), n=4)
    table = draw_table(params)
    script = ScriptedBinomials(table, [([4], [3]), ([3], [0]), ([3], [3]), ([3], [2])])
    block = _play_block(params, GameMode.NO_REENTRY, table, script, 1, 3)
    assert not script.rounds
    assert block.winner.tolist() == [-1]
    assert block.effective_length.tolist() == [3]
    assert block.raw_length.tolist() == [4]
    assert block.rounds_to_at_most_two.tolist() == [3]
    assert block.reached_two_player_state.tolist() == [True]
    # The two survivors hold a bid per round; nothing is sold, so the
    # seller keeps only the fees on 0 + 2 + 3 + 3 bids.
    assert holdings_of(params, block, 0) == [(0, 1, 0.0), (2, 1, -1.0), (3, 2, -1.5)]
    assert block.revenue.tolist() == [4.0]


def test_count_block_holdings_cover_the_roster():
    params = attrition_params(50, 100)
    block = _play_block(
        params,
        GameMode.NO_REENTRY,
        draw_table(params),
        _philox_stream(5, 0),
        500,
        DEFAULT_ROUND_CAP,
    )
    assert (np.bincount(block.holder, block.players) == params.n).all()
    bids = np.bincount(block.holder, block.bid_counts * block.players)
    assert (block.revenue == params.sale_price + params.bid_fee * bids).all()
    assert (block.bid_counts <= block.effective_length[block.holder]).all()
    assert (block.bid_counts[block.winner] == block.effective_length).all()
    assert (block.raw_length >= block.effective_length).all()


@pytest.mark.parametrize("mode, n", [(GameMode.NO_REENTRY, 100_000), (GameMode.WITH_REENTRY, 1000)])
def test_block_memory_does_not_grow_with_the_roster(mode, n):
    # Without re-entry each game keeps only its active count, so a full
    # block at n = 10**5 stays small; a (BLOCK_SIZE x n) array of 8-byte
    # values alone would take 3.3 GB.  With re-entry a block holds at
    # most BLOCK_SIZE * 64 (player, game) entries, so BLOCK_SIZE games
    # at n = 1000 are 16 blocks of at most 262 games.
    params = attrition_params(n, 10)
    tracemalloc.start()
    try:
        result = run_replications(params, mode, BLOCK_SIZE, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.truncated_replications == 0
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("mode, n", [(GameMode.NO_REENTRY, 200), (GameMode.WITH_REENTRY, 50)])
def test_run_holds_one_block_at_a_time(mode, n):
    # A block's arrays are freed before the next block is played, so a run
    # of three blocks peaks about as high as a run of one: 1.2 and 1.0
    # times as high here, against 1.5 to 1.6 with two blocks held at once.
    params = attrition_params(n, 100)
    peaks = []
    for count in (_block_size(mode, n), 3 * _block_size(mode, n)):
        tracemalloc.start()
        try:
            run_replications(params, mode, count, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.4 * peaks[0], peaks


# ---------------------------------------------------------------------------
# Oracles: simulation reproduces the analytic quantities.
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("rho", [0.0, -0.1])
def test_mean_revenue_matches_closed_form(mc, rho):
    money = (10.0, 0.0, 1.0)
    params = make_params(money, rho=rho, n=3)
    result = mc(params, GameMode.WITH_REENTRY, MC_COUNT, revenue_seed(money, rho, 3))
    breakdown = closed_form_revenue(params)
    assert abs(result.mean_revenue - breakdown.total) <= 3.0 * result.se_revenue
    assert (
        abs(result.mean_effective_length - breakdown.expected_length)
        <= 3.0 * result.se_effective_length
    )
    assert result.truncated_replications == 0


@pytest.mark.slow
def test_subgame_utility_is_wealth_utility(mc):
    params = make_params((10.0, 0.0, 1.0), rho=-0.1, n=3)
    result = run_replications(params, GameMode.WITH_REENTRY, 20_000, 909, initial_wealth=5.0)
    target = params.utility.evaluate(5.0)
    assert abs(result.mean_player_utility - target) <= 3.0 * result.se_player_utility


def test_raw_length_at_least_effective_length(mc):
    params = attrition_params(3, 10)
    result = mc(params, GameMode.NO_REENTRY, MC_COUNT, attrition_seed(3, 10))
    assert result.mean_raw_length >= result.mean_effective_length


@pytest.mark.parametrize("mode", list(GameMode))
def test_replays_add_the_exact_raw_rounds(mode):
    # At (n, v, s, c) = (4, 2, 0, 1) the win ratio is 1/2, so with k
    # players active an all-pass round comes with chance q**k, where
    # q = 2**(-1 / (k - 1)), and is replayed.
    n, lam = 4, 0.5
    params = AuctionParams(n=n, value=2.0, sale_price=0.0, bid_fee=1.0)

    def busy(k):  # chance that a raw round is effective
        return 1.0 - lam ** (k / (k - 1))

    def moves(k):  # bidder count m of an effective round -> its chance
        q = lam ** (1.0 / (k - 1))
        return {m: math.comb(k, m) * (1 - q) ** m * q ** (k - m) / busy(k) for m in range(1, k + 1)}

    if mode is GameMode.WITH_REENTRY:
        exact_effective = 1.0 / moves(n)[1]
        exact_raw = exact_effective / busy(n)
    else:
        # Expected rounds still to come with k active, ascending from
        # the ended game; the self-loop m = k moves to the left side.
        effective, raw = {1: 0.0}, {1: 0.0}
        for k in range(2, n + 1):
            t = moves(k)
            leave = 1.0 - t[k]
            effective[k] = (1.0 + sum(t[m] * effective[m] for m in range(1, k))) / leave
            raw[k] = (1.0 / busy(k) + sum(t[m] * raw[m] for m in range(1, k))) / leave
        exact_effective, exact_raw = effective[n], raw[n]

    result = run_replications(params, mode, 20_000, 2024)
    assert abs(result.mean_effective_length - exact_effective) <= 3.0 * result.se_effective_length
    assert abs(result.mean_raw_length - exact_raw) <= 3.0 * result.se_raw_length


def exact_raw_rounds(params, mode, lam, dps=30):
    """Expected raw rounds of one uncapped game at the win ratio lam: in all, and in its start.

    Whole chain rows in dps-digit arithmetic: row k holds
    T[k, m] = C(k, m) p**m q**(k - m) / busy(k), and each effective round
    with k active takes 1/busy(k) raw rounds on average.  With re-entry
    only m = 1 leaves the start; without it every m < k does, and the
    game goes on from m.  A state's chance of leaving is summed from the
    entries that leave it, so nothing cancels.
    """
    n = params.n
    with mp.workdps(dps):
        log_lam = mp.log(mpf(lam))
        raw = [mpf(0), mpf(0)]  # raw[k]: raw rounds still to come with k active
        for k in range(2, n + 1) if mode is GameMode.NO_REENTRY else [n]:
            log_q = log_lam / (k - 1)
            p, q, busy = -mp.expm1(log_q), mp.exp(log_q), -mp.expm1(k * log_q)
            row = [mp.binomial(k, m) * p**m * q ** (k - m) / busy for m in range(k)]
            moves = row[2:k] if mode is GameMode.NO_REENTRY else []
            leave = row[1] + mp.fsum(moves)
            start = 1 / (busy * leave)  # raw rounds spent with k active
            raw.append(start + mp.fdot(moves, raw[2:k]) / leave)
        return raw[-1], start


@pytest.mark.parametrize("leave", [0.0, -1e-300, 1e-300, 0.25, 1.0 - 2**-53, 1.0, 1.0 + 2**-52])
def test_capped_stay_is_the_capped_geometric_mean(leave):
    # E[min(L, cap)] = sum over t < cap of P(L > t) = sum of (1 - leave)**t;
    # a chance of leaving that rounds to 0 or below never leaves.
    stay = mp.fsum((1 - mpf(min(max(leave, 0.0), 1.0))) ** t for t in range(7))
    assert _capped_stay(leave, 7) == pytest.approx(float(stay), rel=1e-15)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(
    flags=domain_points(max_n=30),
    mode=st.sampled_from(GameMode),
    round_cap=st.sampled_from([DEFAULT_ROUND_CAP, 2**62]),
)
@example(  # the two-player tail holds the game
    flags=["--n=10", "--value=100.0", "--sale-price=5.0", "--bid-fee=0.5", "--rho=-0.5"],
    mode=GameMode.NO_REENTRY,
    round_cap=DEFAULT_ROUND_CAP,
)
@example(  # all three players bid in all but about 3e-6 of the rounds
    flags=["--n=3", "--value=1e+12", "--sale-price=0.0", "--bid-fee=1.0", "--rho=0.0"],
    mode=GameMode.NO_REENTRY,
    round_cap=2**62,
)
def test_game_cost_is_at_most_the_exact_raw_length(flags, mode, round_cap):
    # G bounds one game's expected raw rounds from below, and where the
    # cap cannot bind it is at least the exact raw rounds of the start state.
    params = flag_params(flags)
    try:
        lam = win_probability(params)
    except ArithmeticError:  # lambda out of reach: run_replications refuses it too
        assume(False)
    cost, _ = _game_cost(params, mode, odds_at(params, params.n), round_cap)
    total, start = exact_raw_rounds(params, mode, lam)
    assert cost <= total * (1 + mpf(1e-12)), (cost, total)
    if round_cap == 2**62 and start < 2**52:
        assert cost >= start * (1 - mpf(1e-9)), (cost, start)


@pytest.mark.parametrize("mode", list(GameMode))
def test_many_long_games_pass_the_raw_round_budget(mode):
    # Each game expects about 5e5 raw rounds, within the budget of one
    # game, and nearly no replays; a million of them would play 5e11.
    params = AuctionParams(n=2, value=1e6, sale_price=0.0, bid_fee=1.0)
    with pytest.raises(RawRoundBudgetError, match=r"about 5e\+11 raw rounds, since it .* 2e-06"):
        run_replications(params, mode, 10**6, 1)
