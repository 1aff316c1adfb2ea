"""Pay-to-bid auction analysis.

Closed-form equilibrium bid probabilities, seller revenue and
no-re-entry attrition dynamics for the bid/no-bid fee auction with
risk-loving (CARL) bidders, cross-validated by an exact Monte Carlo
simulator of the round-based game.

The names of ``attrition`` and ``simulator`` load on first use (PEP
562).  The chain and the Monte Carlo need numpy, whose import costs a
process about 0.18 s, while the closed forms of ``equilibrium`` and
``revenue`` are scalar arithmetic: importing the package, or running
``paytobid equilibrium`` or ``paytobid revenue`` without Monte Carlo
replications, loads neither.
"""

from .equilibrium import (
    DEFAULT_ROUND_CAP,
    AuctionParams,
    EquilibriumPolicy,
    GameMode,
    ParameterError,
    bid_probability,
    indifference_residual,
    solve_equilibrium_by_bisection,
    win_probability,
)
from .revenue import (
    RevenueBreakdown,
    SeriesLengthError,
    closed_form_revenue,
    expected_entrants,
    hazard_rate,
    revenue_series,
    revenue_supremum,
)
from .utility import (
    CarlUtility,
    RiskCoefficient,
    RiskCoefficientError,
    UtilityRangeError,
)

# Submodule -> the exported names it defines, imported on first use.
_LAZY_NAMES = {
    "attrition": (
        "AttritionProfile", "attrition_profile", "bid_count_distribution",
        "endgame_time_fraction", "expected_passage_time", "prob_two_player_endgame",
    ),
    "simulator": (
        "GameRecord", "PolicyCoverageError", "RoundOutcome", "SimulationResult",
        "play_one_game", "run_replications",
    ),
}
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name: str):
    # Any other name, a submodule's included, is not an attribute yet, so
    # that `from paytobid import attrition` goes on to import the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AttritionProfile",
    "AuctionParams",
    "CarlUtility",
    "DEFAULT_ROUND_CAP",
    "EquilibriumPolicy",
    "GameMode",
    "GameRecord",
    "ParameterError",
    "PolicyCoverageError",
    "RevenueBreakdown",
    "RiskCoefficient",
    "RiskCoefficientError",
    "RoundOutcome",
    "SeriesLengthError",
    "SimulationResult",
    "UtilityRangeError",
    "attrition_profile",
    "bid_count_distribution",
    "bid_probability",
    "closed_form_revenue",
    "endgame_time_fraction",
    "expected_entrants",
    "expected_passage_time",
    "hazard_rate",
    "indifference_residual",
    "play_one_game",
    "prob_two_player_endgame",
    "revenue_series",
    "revenue_supremum",
    "run_replications",
    "solve_equilibrium_by_bisection",
    "win_probability",
]

__version__ = "0.1.0"
