"""Reference values for the benchmark, computed without paytobid's code.

Two independent routes to the paper's numbers:

* ``Reentry`` evaluates the stationary (re-entry) quantities in mpmath
  at 50 significant digits: the CARL utility, the win ratio
  lambda = u(c)/u(v-s), p(k) = 1 - lambda**(1/(k-1)), the hazard h,
  the expected entrants Q, the exact fee c*Q/h and the closed-form
  revenue s + c*u(v-s)/u(c).
* ``attrition_chain`` treats the no-re-entry game as an absorbing
  Markov chain on the active count (Kemeny & Snell, *Finite Markov
  Chains*, 1960).  Its transition matrix is built in log space with
  lgamma, so it does not overflow where a binomial coefficient would,
  and its expectations come from one forward substitution over the
  lower-triangular system (I - Q) x = r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

DIGITS = 50


def carl(x, rho):
    """u(x) = (1 - exp(-rho x)) / rho, and u(x) = x at rho = 0, in mpmath."""
    x, rho = mpmath.mpf(x), mpmath.mpf(rho)
    if rho == 0:
        return x
    return -mpmath.expm1(-rho * x) / rho


def win_ratio(value, sale_price, bid_fee, rho):
    """lambda = u(c) / u(v - s) in mpmath."""
    with mpmath.workdps(DIGITS):
        return carl(bid_fee, rho) / carl(mpmath.mpf(value) - mpmath.mpf(sale_price), rho)


def bid_probability(lam, k: int):
    """p(k) = 1 - lambda**(1/(k-1)) in mpmath, for a ratio from win_ratio."""
    with mpmath.workdps(DIGITS):
        return -mpmath.expm1(mpmath.log(lam) / (k - 1))


@dataclass(frozen=True)
class Reentry:
    """Stationary quantities of the re-entry game at n players."""

    lam: float
    p: float
    hazard: float
    entrants: float
    exact_fee: float
    closed_fee: float
    total: float
    length: float
    raw_length: float

    @classmethod
    def at(cls, n: int, value: float, sale_price: float, bid_fee: float, rho: float) -> "Reentry":
        with mpmath.workdps(DIGITS):
            lam = win_ratio(value, sale_price, bid_fee, rho)
            p = bid_probability(lam, n)
            stay = 1 - p
            busy = 1 - stay**n  # chance a raw round has a bid
            hazard = n * p * stay ** (n - 1) / busy
            entrants = n * p / busy
            c = mpmath.mpf(bid_fee)
            closed_fee = c * carl(mpmath.mpf(value) - mpmath.mpf(sale_price), rho) / carl(c, rho)
            return cls(
                lam=float(lam),
                p=float(p),
                hazard=float(hazard),
                entrants=float(entrants),
                exact_fee=float(c * entrants / hazard),
                closed_fee=float(closed_fee),
                total=float(mpmath.mpf(sale_price) + closed_fee),
                length=float(1 / hazard),
                raw_length=float(1 / (hazard * busy)),
            )


@dataclass(frozen=True)
class Chain:
    """Expectations of the no-re-entry game from each start k = 0..n.

    Entries 0 and 1 are unused except where noted.  rounds_to_one is
    the expected number of effective rounds until one player is left
    (the game length), rounds_to_two until at most two are left,
    funnel the chance of a round with exactly two bidders, bids the
    expected number of fee-paying bids, raw_rounds the expected rounds
    including all-pass replays, and active_draws the expected number
    of (active player, raw round) pairs, i.e. the uniforms the rules
    need.
    """

    transition: np.ndarray
    rounds_to_one: np.ndarray
    rounds_to_two: np.ndarray
    funnel: np.ndarray
    bids: np.ndarray
    raw_rounds: np.ndarray
    active_draws: np.ndarray


def transition_matrix(lam: float, n: int) -> np.ndarray:
    """T[k, m] = P(m bidders | k active, at least one bid), k = 2..n, m = 1..k.

    Every active player stays out with q = lambda**(1/(k-1)).  Built in
    log space: log C(k, m) from lgamma, log q and log(1 - q) from log
    and log1p-style expm1, and the replay normaliser 1 - q**k as
    -expm1(k log q).
    """
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    k = np.arange(2, n + 1, dtype=np.float64)[:, None]
    m = np.arange(0, n + 1, dtype=np.float64)[None, :]
    log_q = math.log(lam) / (k - 1.0)
    log_bid = np.log(-np.expm1(log_q))
    log_busy = np.log(-np.expm1(k * log_q))
    ki = k.astype(np.int64)
    mi = np.minimum(m.astype(np.int64), ki)
    valid = (m >= 1) & (m <= k)
    log_t = (
        log_fact[ki] - log_fact[mi] - log_fact[ki - mi]
        + m * log_bid + (k - m) * log_q - log_busy
    )
    t = np.zeros((n + 1, n + 1))
    t[2:] = np.where(valid, np.exp(np.where(valid, log_t, 0.0)), 0.0)
    return t


def attrition_chain(lam: float, n: int) -> Chain:
    """First-step expectations of the absorbing chain for starts 2..n.

    Each quantity solves x[k] = r[k] + sum_m T[k, m] x[m] with x fixed
    on the absorbing states.  The chain only moves down, so ascending k
    is a forward substitution; the self-loop is divided out through
    1 - T[k, k], summed directly from the other entries of row k so it
    keeps full precision when T[k, k] is close to 1.
    """
    if n < 2:
        raise ValueError(f"chain needs n >= 2, got {n}")
    t = transition_matrix(lam, n)
    ks = np.arange(n + 1, dtype=np.float64)
    idx = np.arange(n + 1)
    leave = np.array([t[k, 1:k].sum() for k in range(n + 1)])
    log_q = np.zeros(n + 1)
    log_q[2:] = math.log(lam) / (ks[2:] - 1.0)
    busy = np.ones(n + 1)
    busy[2:] = -np.expm1(ks[2:] * log_q[2:])
    bidders = t @ idx  # expected bids per effective round
    # Columns: rounds_to_one, rounds_to_two, funnel, bids, raw, draws.
    reward = np.column_stack(
        (np.ones(n + 1), np.ones(n + 1), np.zeros(n + 1), bidders, 1.0 / busy, ks / busy)
    )
    x = np.zeros((n + 1, 6))
    x[2] = reward[2] / leave[2]
    x[2, 1], x[2, 2] = 0.0, 1.0  # two players: already at <= 2, and in the funnel
    for k in range(3, n + 1):
        x[k] = (reward[k] + t[k, 2:k] @ x[2:k]) / leave[k]
    return Chain(t, *x.T)
