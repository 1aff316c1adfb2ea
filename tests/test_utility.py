"""Utility kernel: frozen spot values, algebraic identities, error paths."""

import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paytobid
from paytobid import (
    CarlUtility,
    ParameterError,
    RiskCoefficientError,
    UtilityRangeError,
    equilibrium,
    utility,
)

from helpers import mp_utility

RHO_IDENTITY_GRID = [0.0, -0.01, -0.1, -1.0]
AMOUNT_GRID = [-10.0, -3.0, -0.5, 0.0, 1.0, 4.5, 10.0]


def u(rho):
    return CarlUtility(rho)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def test_evaluate_zero_is_zero():
    assert u(-0.1).evaluate(0.0) == 0.0


def test_evaluate_risk_neutral_is_identity():
    assert u(0.0).evaluate(5.0) == 5.0
    assert u(0.0).evaluate(-3.25) == -3.25


def test_evaluate_frozen_value():
    # (e - 1) / 0.1, frozen from the 50-digit evaluation.
    assert u(-0.1).evaluate(10.0) == pytest.approx(17.182818284590454, rel=1e-15)


@pytest.mark.parametrize("rho", RHO_IDENTITY_GRID)
@pytest.mark.parametrize("x", AMOUNT_GRID)
def test_evaluate_matches_high_precision_oracle(rho, x):
    assert u(rho).evaluate(x) == pytest.approx(mp_utility(rho, x), rel=1e-14, abs=1e-15)


def test_derivative_values():
    assert u(0.0).derivative(7.0) == 1.0
    assert u(-0.1).derivative(0.0) == 1.0
    # e**1, frozen from the 50-digit evaluation.
    assert u(-0.2).derivative(5.0) == pytest.approx(2.718281828459045, rel=1e-15)


@pytest.mark.parametrize("rho", RHO_IDENTITY_GRID)
@pytest.mark.parametrize("x", AMOUNT_GRID)
def test_derivative_strictly_positive(rho, x):
    assert u(rho).derivative(x) > 0.0


# ---------------------------------------------------------------------------
# Wealth-shift identity.
# ---------------------------------------------------------------------------

def test_shift_decompose_values():
    assert u(0.0).shift_decompose(3.0, 4.0) == pytest.approx(7.0, rel=1e-15)
    assert u(-0.1).shift_decompose(0.0, 10.0) == pytest.approx(17.182818284590454, rel=1e-15)
    # u(5), frozen from the 50-digit evaluation.
    assert u(-0.1).shift_decompose(2.0, 3.0) == pytest.approx(6.487212707001281, rel=1e-13)


@pytest.mark.parametrize("rho", RHO_IDENTITY_GRID)
@pytest.mark.parametrize("w", AMOUNT_GRID)
@pytest.mark.parametrize("x", AMOUNT_GRID)
def test_shift_decompose_equals_direct_evaluation(rho, w, x):
    kernel = u(rho)
    direct = kernel.evaluate(w + x)
    assert abs(kernel.shift_decompose(w, x) - direct) <= 1e-12 * max(1.0, abs(direct))


# The guarantee is stated for |rho| <= 1 and amounts in [-10, 10], and
# relative to the scale of the two terms: where they cancel, as in the
# example (two terms of about 1e4 summing to -0.22), no arrangement in
# doubles holds a bound relative to the result.
@settings(deadline=None, max_examples=200)
@given(
    rho=st.floats(min_value=-1.0, max_value=0.0),
    w=st.floats(min_value=-10.0, max_value=10.0),
    x=st.floats(min_value=-10.0, max_value=10.0),
)
@example(rho=-0.9375, w=9.75, x=-10.0)
@example(rho=-0.875, w=10.0, x=-10.0)
def test_shift_decompose_identity_property(rho, w, x):
    kernel = u(rho)
    scale = abs(kernel.evaluate(w)) + kernel.derivative(w) * abs(kernel.evaluate(x))
    assert abs(kernel.shift_decompose(w, x) - kernel.evaluate(w + x)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Shape: monotone, convex, superlinear for rho < 0.
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(
    rho=st.floats(min_value=-2.0, max_value=0.0),
    x1=st.floats(min_value=-10.0, max_value=10.0),
    gap=st.floats(min_value=1e-3, max_value=10.0),
)
def test_strictly_increasing(rho, x1, gap):
    kernel = u(rho)
    assert kernel.evaluate(x1 + gap) > kernel.evaluate(x1)


@pytest.mark.parametrize("rho", [-0.01, -0.1, -1.0])
@pytest.mark.parametrize("x1", AMOUNT_GRID)
@pytest.mark.parametrize("x2", AMOUNT_GRID)
def test_midpoint_convexity(rho, x1, x2):
    kernel = u(rho)
    mid = kernel.evaluate((x1 + x2) / 2.0)
    assert mid <= (kernel.evaluate(x1) + kernel.evaluate(x2)) / 2.0 + 1e-12


@pytest.mark.parametrize("rho", [-0.01, -0.1, -1.0])
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 4.5, 10.0])
def test_superlinear_below_tangent_through_origin(rho, x):
    kernel = u(rho)
    assert kernel.evaluate(x) < x * kernel.derivative(x)


@pytest.mark.parametrize("rho", [-0.01, -0.1, -1.0])
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 4.5, 10.0])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 3.0])
def test_scaling_gain_is_positive(rho, x, alpha):
    # Convexity through the origin: u((1+a)x) exceeds (1+a) u(x).
    kernel = u(rho)
    assert kernel.evaluate((1.0 + alpha) * x) - (1.0 + alpha) * kernel.evaluate(x) > 0.0


@pytest.mark.parametrize("rho", [-0.01, -0.1, -1.0])
@pytest.mark.parametrize("x,y", [(2.0, 1.0), (10.0, 0.5), (7.0, 6.0), (1.0, 0.1)])
def test_utility_ratio_beats_money_ratio(rho, x, y):
    kernel = u(rho)
    assert kernel.evaluate(x) / kernel.evaluate(y) > x / y


# ---------------------------------------------------------------------------
# Continuity in rho at 0.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [-1e-3, -1e-6, -1e-9, -1e-12])
@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 10.0, 100.0])
def test_near_neutral_taylor_envelope(rho, x):
    assert abs(u(rho).evaluate(x) - x) <= abs(rho) * x * x


# ---------------------------------------------------------------------------
# Lottery comparisons survive a constant wealth shift (exact enumeration).
# ---------------------------------------------------------------------------

LOTTERY_PAIRS = [
    # (outcomes, probs) pairs with clearly separated expected utilities.
    (([-1.0, 3.0], [0.5, 0.5]), ([0.5], [1.0])),
    (([0.0, 10.0], [0.9, 0.1]), ([0.0, 2.0], [0.5, 0.5])),
    (([-5.0, 5.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, 0.5])),
]


def expected_utility(kernel, outcomes, probs, shift=0.0):
    return math.fsum(p * kernel.evaluate(x + shift) for x, p in zip(outcomes, probs))


@pytest.mark.parametrize("rho", [-0.05, -0.3, -1.0])
@pytest.mark.parametrize("lottery_x,lottery_y", LOTTERY_PAIRS)
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 1.5, 4.0])
def test_comparison_invariant_under_wealth_shift(rho, lottery_x, lottery_y, alpha):
    kernel = u(rho)
    base = expected_utility(kernel, *lottery_x) - expected_utility(kernel, *lottery_y)
    shifted = expected_utility(kernel, *lottery_x, shift=alpha) - expected_utility(
        kernel, *lottery_y, shift=alpha
    )
    assert abs(base) > 1e-9  # pairs are chosen with a real gap
    assert math.copysign(1.0, base) == math.copysign(1.0, shifted)


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------

def test_positive_rho_rejected():
    with pytest.raises(RiskCoefficientError):
        CarlUtility(0.1)
    with pytest.raises(RiskCoefficientError):
        CarlUtility(1e-12)


def test_kernel_built_directly_is_checked_and_evaluates():
    # The kernel record is the checked coefficient: a risk-averse rho is
    # refused on construction, and a valid one evaluates as before.
    with pytest.raises(RiskCoefficientError):
        CarlUtility(0.5)
    assert CarlUtility(-0.1).evaluate(1.0) == 1.0517091807564762


def test_input_errors_are_one_family():
    # The CLI reports every ParameterError, a bad rho included, with exit 2.
    assert issubclass(RiskCoefficientError, ParameterError)
    assert utility.ParameterError is equilibrium.ParameterError is paytobid.ParameterError


@pytest.mark.parametrize("bad", [0.1, math.nan, math.inf])
def test_every_copy_of_a_risk_coefficient_is_checked(bad):
    kernel = CarlUtility(-0.1)
    with pytest.raises(RiskCoefficientError):
        kernel._replace(rho=bad)
    with pytest.raises(RiskCoefficientError):
        CarlUtility._make([bad])
    forged = tuple.__new__(CarlUtility, (bad,))  # built around the check
    with pytest.raises(RiskCoefficientError):
        pickle.loads(pickle.dumps(forged))
    assert pickle.loads(pickle.dumps(kernel)) == kernel


def test_kernel_equality_hash_and_repr():
    kernel = CarlUtility(-0.1)
    assert kernel == CarlUtility(rho=-0.1)
    assert hash(kernel) == hash(CarlUtility(rho=-0.1))
    assert kernel != CarlUtility(-0.2)
    assert repr(kernel) == "CarlUtility(rho=-0.1)"


def test_non_finite_rho_rejected():
    with pytest.raises(RiskCoefficientError):
        CarlUtility(float("nan"))
    with pytest.raises(RiskCoefficientError):
        CarlUtility(float("-inf"))


def test_overflow_guard():
    kernel = u(-1.0)
    with pytest.raises(UtilityRangeError):
        kernel.evaluate(701.0)
    with pytest.raises(UtilityRangeError):
        kernel.evaluate(-701.0)
    with pytest.raises(UtilityRangeError):
        kernel.derivative(701.0)
    with pytest.raises(UtilityRangeError):
        kernel.shift_decompose(701.0, 0.0)
    # |rho * x| = 100 is inside the guard, but u(x) = expm1(100) / 1e-265
    # is not a float.
    with pytest.raises(UtilityRangeError):
        u(-1e-265).evaluate(1e267)
    # 700 exactly is still inside the guard.
    assert math.isfinite(kernel.evaluate(-700.0))


def test_non_finite_amount_rejected():
    with pytest.raises(ValueError):
        u(-0.1).evaluate(float("nan"))
    with pytest.raises(ValueError):
        u(0.0).derivative(float("inf"))
