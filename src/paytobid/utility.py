"""Constant absolute risk-loving (CARL) utility kernel.

The kernel is u(x) = (1 - exp(-rho * x)) / rho for a risk coefficient
rho < 0, normalized so that u(0) = 0.  A coefficient of exactly 0 is
stored as-is and means risk neutrality, u(x) = x; it is never
approximated by a tiny negative float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# |rho * x| beyond this overflows double-precision exp; fail loudly
# instead of returning infinity.
EXP_ARG_LIMIT = 700.0


class RiskCoefficientError(ValueError):
    """Risk coefficient is positive (risk-averse) or not finite."""


class UtilityRangeError(OverflowError):
    """|rho * x| leaves the exp range, u(x) overflows, or u(c)/u(v - s) underflows."""


@dataclass(frozen=True)
class RiskCoefficient:
    """Arrow-Pratt coefficient restricted to the risk-loving side.

    ``value`` must satisfy value <= 0; value == 0 encodes risk
    neutrality exactly.
    """

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise RiskCoefficientError(
                f"risk coefficient must be finite, got {self.value!r}"
            )
        if self.value > 0:
            raise RiskCoefficientError(
                "risk coefficient must satisfy rho <= 0 "
                f"(risk-loving or risk-neutral), got {self.value!r}"
            )

    @property
    def is_neutral(self) -> bool:
        return self.value == 0.0


@dataclass(frozen=True)
class CarlUtility:
    """Utility kernel u(x) = (1 - exp(-rho*x)) / rho with u(0) = 0.

    For rho == 0 every operation uses the risk-neutral limit (u(x) = x,
    u'(x) = 1) so the kernel is continuous in rho at 0.  Evaluation goes
    through expm1, which keeps full precision for small |rho * x| where
    the naive formula cancels catastrophically.
    """

    rho: RiskCoefficient

    @classmethod
    def from_value(cls, rho: float) -> "CarlUtility":
        return cls(RiskCoefficient(rho))

    def _exponent(self, x: float, what: str) -> float:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")
        t = self.rho.value * x
        if abs(t) > EXP_ARG_LIMIT:
            raise UtilityRangeError(
                f"|rho * x| = {abs(t):g} exceeds the exp range "
                f"(limit {EXP_ARG_LIMIT:g}); refusing to evaluate"
            )
        return t

    def evaluate(self, x: float) -> float:
        """Utility of a monetary amount x."""
        t = self._exponent(x, "amount")
        r = self.rho.value
        if r == 0.0:
            return x
        if abs(t) < 1e-8:
            # Taylor form x * (1 - t/2 + t^2/6 - t^3/24): dividing
            # expm1(-t) by rho breaks down once t = rho*x underflows,
            # while the series keeps the exact leading term x.
            return x * (1.0 + t * (-0.5 + t * (1.0 / 6.0 - t / 24.0)))
        value = -math.expm1(-t) / r
        if math.isinf(value):  # |rho * x| is in range, but 1 / |rho| is huge
            raise UtilityRangeError(f"u({x!r}) overflows a float at rho = {r!r}")
        return value

    __call__ = evaluate

    def derivative(self, x: float) -> float:
        """Marginal utility u'(x) = exp(-rho*x); strictly positive."""
        t = self._exponent(x, "amount")
        if self.rho.value == 0.0:
            return 1.0
        return math.exp(-t)

    def shift_decompose(self, w: float, x: float) -> float:
        """Evaluate u(w + x) through the identity u(w) + exp(-rho*w)*u(x).

        The shift factor exp(-rho*w) equals the marginal utility at w,
        so a deterministic wealth shift rescales incremental utility
        without mixing into the base term.  For |rho| <= 1 and amounts in
        [-10, 10] it agrees with evaluate(w + x) to within 1e-13 of the
        term scale |u(w)| + exp(-rho*w)*|u(x)|, the size of the rounding
        a sum of those two terms carries.  Where the terms cancel, the
        error relative to the result itself can be far larger.
        """
        return self.evaluate(w) + self.derivative(w) * self.evaluate(x)
