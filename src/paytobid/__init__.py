"""Pay-to-bid auction analysis.

Closed-form equilibrium bid probabilities, seller revenue and
no-re-entry attrition dynamics for the bid/no-bid fee auction with
risk-loving (CARL) bidders, cross-validated by an exact Monte Carlo
simulator of the round-based game.  The package holds what the CLI and
the paper's results run; the test suite keeps its own independent
references, a scalar one-game engine and a bisection of the
indifference condition.

Every exported name loads its submodule on first use (PEP 562), and
importing the package loads no submodule.  Only the Monte Carlo needs
numpy, whose import costs a process 36-38 ms; the closed forms and
the attrition chain are scalar arithmetic, so ``paytobid equilibrium``,
``revenue`` and ``attrition`` without Monte Carlo replications never
load it, and a process that runs without bytecode compiles only the
submodules it uses.
"""

# Submodule -> the names it exports.
_EXPORTS = {
    "attrition": (
        "AttritionProfile", "attrition_profile", "bid_count_distribution",
        "endgame_time_fraction", "expected_passage_time", "prob_two_player_endgame",
    ),
    "equilibrium": (
        "DEFAULT_ROUND_CAP", "AuctionParams", "EquilibriumPolicy", "GameMode",
        "bid_probability", "win_probability",
    ),
    "revenue": (
        "RevenueBreakdown", "SeriesLengthError", "closed_form_revenue", "revenue_series",
        "revenue_supremum",
    ),
    "simulator": ("SimulationResult", "run_replications"),
    "utility": (
        "CarlUtility", "ParameterError", "RiskCoefficientError", "UtilityRangeError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Any other name, a submodule's included, is not an attribute yet, so
    # that `from paytobid import attrition` goes on to import the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
