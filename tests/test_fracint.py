import math

import numpy as np
import pytest

from conftest import TIGHT, rel_err
from georadon import profiles as P
from georadon.errors import (DifferentiationInstabilityError, DivergenceError,
                             DomainError)
from georadon.fracint import (check_decay, ek_deriv_left, ek_deriv_right,
                              ek_left, ek_right)


def test_left_integral_of_constant_is_square():
    one = P.power(0.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(ek_left(1.0, one, t) - t * t) < 1e-13 * t * t


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
def test_left_power_law_mapping(alpha, beta):
    # r^(2b) -> Gamma(b+1)/Gamma(a+b+1) t^(2(a+b)), from the Beta integral
    f = P.power(2 * beta, hi=math.inf)
    t = np.array([0.4, 1.0, 1.7])
    want = math.gamma(beta + 1) / math.gamma(alpha + beta + 1) \
        * t ** (2 * (alpha + beta))
    assert rel_err(ek_left(alpha, f, t), want) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_right_gaussian_fixed_point(alpha):
    f = P.gaussian()
    t = np.linspace(0.0, 2.5, 9)
    assert rel_err(ek_right(alpha, f, t), np.exp(-t * t)) < 1e-10


def test_right_elementary_power():
    # alpha=1, f = r^-4: (2/Gamma(1)) int_1^inf r^-3 dr = 1
    f = P.power(-4.0, lo=1e-12)
    assert abs(ek_right(1.0, f, 1.0) - 1.0) < 1e-9


def test_right_divergence_for_constant():
    one = P.power(0.0)     # decay hint 0: the tail criterion fails
    with pytest.raises(DivergenceError):
        ek_right(1.0, one, 1.0)


def test_right_needs_decay_hint_on_infinite_domain():
    f = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: np.exp(-r),
                    arg_kind=P.ArgKind.EuclideanRadius)
    with pytest.raises(DomainError):
        ek_right(1.0, f, 1.0)


def test_check_decay():
    assert check_decay(P.gaussian(), 3.0, 1.0)
    assert check_decay(P.power(-3.0, lo=1e-6), 1.0, 1.0)
    assert not check_decay(P.power(0.0), 1.0, 1.0)
    # no hint: measured doubling increments must fall below abs_tol
    no_hint = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: np.exp(-r * r),
                          arg_kind=P.ArgKind.EuclideanRadius)
    assert check_decay(no_hint, 1.0, 1.0)
    slow = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: 1.0 / (1.0 + r),
                       arg_kind=P.ArgKind.EuclideanRadius)
    assert not check_decay(slow, 1.0, 1.0)


def test_deriv_left_inverts_square():
    phi = P.power(2.0, hi=math.inf)     # ek_left(1, 1, t) = t^2
    for t in (0.3, 1.0, 2.2):
        assert abs(ek_deriv_left(1.0, phi, t) - 1.0) < 1e-10


def test_deriv_left_round_trip_pointwise():
    f = P.gaussian()
    phi = P.tabulate(lambda x: ek_left(0.5, f, x, TIGHT), 0.0, 2.0,
                     P.ArgKind.EuclideanRadius, n=160)
    got = ek_deriv_left(0.5, phi, 0.7)
    assert abs(got - math.exp(-0.49)) < 1e-7


def test_deriv_right_gaussian():
    # e^{-t^2} is its own right integral for every order
    phi = P.gaussian()
    t = np.array([0.6, 1.2, 2.0])
    for alpha in (0.5, 1.0, 2.0):
        assert rel_err(ek_deriv_right(alpha, phi, t), np.exp(-t * t)) < 1e-7


def test_noisy_samples_fail_the_noise_gate():
    # a Gaussian table whose samples carry seeded 1e-3 noise: the
    # differentiated noise stays above the gate at every node count
    rng = np.random.default_rng(3)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x) + 1e-3 * rng.standard_normal(x.shape)

    noisy = P.Profile1D(lo=0.0, hi=math.inf, fn=fn, decay_hint=math.inf,
                        label="noisy gaussian")
    t = np.array([0.6, 1.2, 2.0])
    with pytest.raises(DifferentiationInstabilityError, match="noise"):
        ek_deriv_left(1.0, noisy, t)
    with pytest.raises(DifferentiationInstabilityError, match="noise"):
        ek_deriv_right(1.5, noisy, t)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_round_trips_both_sides(alpha, euclid_catalog):
    ts_r = np.linspace(0.5, 4.0, 16)
    ts_l = np.linspace(0.2, 3.0, 16)
    for f in euclid_catalog:
        if f.support is not None:
            phi = P.tabulate(lambda x: ek_right(alpha, f, x, TIGHT), 1e-3,
                             f.support, P.ArgKind.EuclideanRadius, n=240,
                             support=f.support, square_variable=True)
        else:
            # moderate degree: the scaled ratios are near-polynomial, and a
            # lower degree keeps quadrature noise at frequencies whose third
            # derivative stays small
            phi = P.tabulate(lambda x: ek_right(alpha, f, x, TIGHT), 1e-3, 6.5,
                             P.ArgKind.EuclideanRadius, n=128,
                             decay_hint=math.inf, square_variable=True,
                             scale_fn=lambda x: np.exp(-x * x))
        assert rel_err(ek_deriv_right(alpha, phi, ts_r), f(ts_r)) < 1e-6
        phi_l = P.tabulate(lambda x: ek_left(alpha, f, x, TIGHT), 0.0, 3.6,
                           P.ArgKind.EuclideanRadius, n=200)
        assert rel_err(ek_deriv_left(alpha, phi_l, ts_l), f(ts_l)) < 1e-6


def test_left_semigroup():
    f = P.gaussian()
    t = np.linspace(0.3, 3.0, 9)
    for (a, b) in ((0.5, 1.0), (1.5, 1.0), (0.7, 0.8)):
        inner = P.tabulate(lambda x: ek_left(b, f, x, TIGHT), 0.0, 4.0,
                           P.ArgKind.EuclideanRadius, n=220)
        lhs = ek_left(a, inner, t)
        rhs = ek_left(a + b, f, t)
        assert rel_err(lhs, rhs) < 1e-8


def test_right_support_locality_exact():
    f = P.bump(1.0)
    for alpha in (0.5, 1.0, 2.5):
        assert ek_right(alpha, f, 1.0) == 0.0
        assert ek_right(alpha, f, 1.7) == 0.0
        assert ek_right(alpha, f, 30.0) == 0.0


def test_grid_profile_constraints():
    with pytest.raises(DomainError):
        P.from_grid(np.linspace(0, 1, 5), np.ones(5), P.ArgKind.EuclideanRadius)
    x = np.linspace(0, 1, 12)
    x2 = x.copy()
    x2[5] = x2[4]
    with pytest.raises(DomainError):
        P.from_grid(x2, np.ones(12), P.ArgKind.EuclideanRadius)
    prof = P.from_grid(x, x ** 2, P.ArgKind.EuclideanRadius)
    assert abs(prof(0.5) - 0.25) < 1e-3
