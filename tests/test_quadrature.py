import math
import time

import numpy as np
import pytest

from georadon import quadrature as Q
from georadon.errors import (DivergenceError, DomainError,
                             QuadratureError)
from georadon.quadrature import (DEFAULT_QUADRATURE, QuadratureSpec,
                                 integrate_to_infinity, integrate_weighted)


def beta_fn(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@pytest.mark.parametrize("p_lo, p_hi", [(0.0, 0.0), (-0.5, 0.0), (0.0, -0.5),
                                        (-0.5, 0.5), (1.5, -0.75), (-0.9, 2.0)])
def test_weighted_beta_closed_form(p_lo, p_hi):
    # int_a^b (u-a)^p (b-u)^q (u-a)^2 du = (b-a)^(p+q+3) B(p+3, q+1)
    a, b = 0.5, 2.0
    got = integrate_weighted(lambda u: (u - a) ** 2, a, b, p_lo, p_hi)
    want = (b - a) ** (p_lo + p_hi + 3.0) * beta_fn(p_lo + 3.0, p_hi + 1.0)
    assert abs(got - want) <= DEFAULT_QUADRATURE.rel_tol * abs(want)


def _weighted_spending(core, a, b, p_lo, p_hi):
    """``integrate_weighted`` with its budget in view: the row it is, run
    by the ladder with 200 units, and the units that row spends.  The value
    is checked to be ``integrate_weighted``'s own, bit for bit."""
    left = np.array([200])
    (value,), (error,) = Q._integrate_rows(
        lambda u, keys: core(u.ravel()).reshape(u.shape),
        (np.zeros(1, np.intp), *(np.array([v], dtype=float)
                                 for v in (a, b, p_lo, p_hi)),
         np.empty((1, 0, 3))), QuadratureSpec(), left, False)
    assert error is None
    assert value.hex() == integrate_weighted(core, a, b, p_lo, p_hi).hex()
    return value, 200 - int(left[0])


def _peak(u):
    return 1.0 / (1e-4 + (u - 0.3) ** 2)


#: int_0^1 of the peak: (atan(0.7/0.01) + atan(0.3/0.01)) / 0.01
_PEAK_INTEGRAL = (math.atan(70.0) + math.atan(30.0)) / 0.01


def test_narrow_peak_forces_bisection():
    got, spent = _weighted_spending(_peak, 0.0, 1.0, 0.0, 0.0)
    assert spent > 1          # more than the one top-level ladder
    assert abs(got - _PEAK_INTEGRAL) <= 1e-10 * _PEAK_INTEGRAL


def test_bisecting_integral_keeps_its_bits_and_budget():
    # both endpoint exponents nonzero and a kink at 0.3: the ladder bisects
    # 12 times, and every half folds the weight it does not own into its
    # integrand in the order of the recursion (recorded before the halves
    # were batched as rows)
    got, spent = _weighted_spending(
        lambda u: np.exp(-u) * (1.0 + np.abs(u - 0.3)), 0.0, 1.0, -0.5, 0.3)
    assert got.hex() == '0x1.a10c9e7b2a3d5p+0'
    assert spent == 25


@pytest.mark.parametrize("centre, width, want, spent", [
    (0.3, 0.05, '0x1.340a004a8e271p-3', 25),
    (0.31, 0.02, '0x1.d84fb33925289p-5', 23),
    (0.7, 0.1, '0x1.3fd6bf212c41cp-3', 25)])
def test_bisection_applies_the_endpoint_weights_in_recursion_order(
        centre, width, want, spent):
    # a kinked bump that bisects: the halves next to its kink carry both
    # endpoint weights as smooth factors, and most of the value, so
    # multiplying them in another order moves the last bits (recorded
    # before the halves were batched as rows)
    got, units = _weighted_spending(
        lambda u: np.exp(-((u - centre) / width) ** 2) * (
            1.0 + np.abs(u - centre)), 0.0, 1.0, -0.5, 0.3)
    assert got.hex() == want
    assert units == spent


def test_exhausted_budget_raises():
    with pytest.raises(QuadratureError):
        integrate_weighted(_peak, 0.0, 1.0, 0.0, 0.0,
                           QuadratureSpec(max_subdivisions=2))


def test_endpoint_exponent_at_minus_one_diverges():
    with pytest.raises(DivergenceError):
        integrate_weighted(np.ones_like, 0.0, 1.0, -1.0, 0.0)


@pytest.mark.parametrize("a, b, p_lo", [(math.nan, 1.0, 0.0),
                                        (0.0, math.nan, -1.5),
                                        (0.0, math.inf, 0.0)])
def test_non_finite_end_is_refused_before_spending(a, b, p_lo):
    # a NaN end made the row look empty (0.0), an infinite one spent the
    # whole budget before it raised
    start = time.perf_counter()
    with pytest.raises(DomainError, match="ends must be finite"):
        integrate_weighted(np.exp, a, b, p_lo, 0.0)
    assert time.perf_counter() - start < 0.01


def test_empty_interval_is_zero():
    assert integrate_weighted(np.ones_like, 1.0, 1.0, 0.0, 0.0) == 0.0


def test_infinite_interval_certifies_cubic_tail():
    # int_0^inf u^(-1/2) (1+u)^-3 du = B(1/2, 5/2)
    got = integrate_to_infinity(lambda u: (1.0 + u) ** -3.0, 0.0, -0.5, 3.5)
    want = beta_fn(0.5, 2.5)
    assert abs(got - want) <= 1e-10 * want
    got = integrate_to_infinity(lambda u: u ** -3.0, 1.0, 0.0, 3.0)
    assert abs(got - 0.5) <= 1e-10


def test_infinite_interval_rejects_harmonic_tail():
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda u: 1.0 / (1.0 + u), 0.0, 0.0, 1.0)
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda u: 1.0 / (1.0 + u), 0.0, 0.0, math.inf)


def test_tail_batch_refuses_each_exponent_alone():
    # tails whose first segment carries a weight no rule can hold sit
    # beside a good tail: each gets its own error before any row spends,
    # and the good one the bits of its own call
    got = Q._integrate_tails(lambda u, keys: (1.0 + u) ** -3.0,
                             [(0.0, -1.2, 3.0, 1.0, 0.0),
                              (0.0, -0.5, 3.5, 1.0, 0.0),
                              (0.0, math.nan, 3.0, 1.0, 0.0)], QuadratureSpec())
    assert isinstance(got[0], DivergenceError)
    assert str(got[0]) == ("endpoint exponent <= -1 is not integrable "
                           "(p_lo=-1.2, p_hi=0.0)")
    assert type(got[2]) is ValueError
    want = integrate_to_infinity(lambda u: (1.0 + u) ** -3.0, 0.0, -0.5, 3.5)
    assert got[1].hex() == want.hex()
