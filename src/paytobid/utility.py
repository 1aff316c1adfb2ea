"""Constant absolute risk-loving (CARL) utility kernel.

The kernel is u(x) = (1 - exp(-rho * x)) / rho for a risk coefficient
rho < 0, normalized so that u(0) = 0.  The kernel record, CarlUtility,
is the checked coefficient itself: building one refuses a positive or
non-finite rho with RiskCoefficientError.  A coefficient of exactly 0
is stored as-is and means risk neutrality, u(x) = x exactly; it is
never approximated by a tiny negative float.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# |rho * x| beyond this overflows double-precision exp; fail loudly
# instead of returning infinity.
EXP_ARG_LIMIT = 700.0


class ParameterError(ValueError):
    """Auction parameters violate a model invariant."""


class RiskCoefficientError(ParameterError):
    """Risk coefficient is positive (risk-averse) or not finite."""


class UtilityRangeError(OverflowError):
    """|rho * x| leaves the exp range, u(x) overflows, or u(c)/u(v - s) underflows."""


class CheckedRecord:
    """Base of a NamedTuple record whose __new__ checks its fields.

    _replace builds its result through _make, which here goes through
    __new__, so no copy of a record skips the checks; unpickling calls
    __new__ too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _CarlUtilityFields(NamedTuple):
    rho: float


class CarlUtility(CheckedRecord, _CarlUtilityFields):
    """Utility kernel u(x) = (1 - exp(-rho*x)) / rho with u(0) = 0.

    The record is the checked risk coefficient: every way of building
    one (the constructor, _replace, _make, unpickling) refuses a
    non-finite or positive rho with RiskCoefficientError.  rho == 0 means
    risk neutrality exactly: every operation then uses the risk-neutral
    limit (u(x) = x, u'(x) = 1), so the kernel is continuous in rho at 0.
    Evaluation goes through expm1, which keeps full precision for small
    |rho * x| where the naive formula cancels catastrophically.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.rho):
            raise RiskCoefficientError(f"risk coefficient must be finite, got {self.rho!r}")
        if self.rho > 0:
            raise RiskCoefficientError(
                "risk coefficient must satisfy rho <= 0 "
                f"(risk-loving or risk-neutral), got {self.rho!r}"
            )
        return self

    def _exponent(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"amount must be finite, got {x!r}")
        t = self.rho * x
        if abs(t) > EXP_ARG_LIMIT:
            raise UtilityRangeError(
                f"|rho * x| = {abs(t):g} exceeds the exp range "
                f"(limit {EXP_ARG_LIMIT:g}); refusing to evaluate"
            )
        return t

    def evaluate(self, x: float) -> float:
        """Utility of a monetary amount x."""
        t = self._exponent(x)
        r = self.rho
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

    def derivative(self, x: float) -> float:
        """Marginal utility u'(x) = exp(-rho*x); strictly positive."""
        t = self._exponent(x)
        if self.rho == 0.0:
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
