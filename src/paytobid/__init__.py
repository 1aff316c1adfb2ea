"""Pay-to-bid auction analysis.

Closed-form equilibrium bid probabilities, seller revenue and
no-re-entry attrition dynamics for the bid/no-bid fee auction with
risk-loving (CARL) bidders, cross-validated by an exact Monte Carlo
simulator of the round-based game.
"""

from .attrition import (
    AttritionProfile,
    AttritionTable,
    attrition_profile,
    bid_count_distribution,
    endgame_time_fraction,
    expected_passage_time,
    prob_two_player_endgame,
)
from .equilibrium import (
    AuctionParams,
    EquilibriumPolicy,
    ParameterError,
    bid_probability,
    indifference_residual,
    solve_equilibrium_by_bisection,
    win_probability,
)
from .revenue import (
    SERIES_TERM_BUDGET,
    RevenueBreakdown,
    SeriesLengthError,
    closed_form_revenue,
    expected_entrants,
    hazard_rate,
    revenue_series,
    revenue_supremum,
)
from .simulator import (
    DEFAULT_ROUND_CAP,
    GameMode,
    GameRecord,
    PolicyCoverageError,
    RoundOutcome,
    SimulationResult,
    UtilityEstimate,
    estimate_subgame_utility,
    play_one_game,
    replication_stream,
    run_replications,
)
from .utility import (
    CarlUtility,
    RiskCoefficient,
    RiskCoefficientError,
    UtilityRangeError,
)

__all__ = [
    "AttritionProfile",
    "AttritionTable",
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
    "SERIES_TERM_BUDGET",
    "SeriesLengthError",
    "SimulationResult",
    "UtilityEstimate",
    "UtilityRangeError",
    "attrition_profile",
    "bid_count_distribution",
    "bid_probability",
    "closed_form_revenue",
    "endgame_time_fraction",
    "estimate_subgame_utility",
    "expected_entrants",
    "expected_passage_time",
    "hazard_rate",
    "indifference_residual",
    "play_one_game",
    "prob_two_player_endgame",
    "replication_stream",
    "revenue_series",
    "revenue_supremum",
    "run_replications",
    "solve_equilibrium_by_bisection",
    "win_probability",
]

__version__ = "0.1.0"
