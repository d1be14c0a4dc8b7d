import math
import warnings

import numpy as np
import pytest

from georadon import inversion as IV
from georadon import mc as MC
from georadon import profiles as P
from georadon import radial as R
from georadon.errors import SmoothnessError
from georadon.quadrature import DEFAULT_QUADRATURE


def _zonal(fn, *derivatives):
    return P.Profile1D(0.0, math.inf, fn, P.ArgKind.GeodesicDistance,
                       decay_hint=math.inf, derivatives=derivatives)


def _gaussian():
    return P.gaussian(arg_kind=P.ArgKind.GeodesicDistance)


def _eigenfunction(lam):
    # sin(lam rho) / (lam sinh rho): zonal eigenfunction with
    # eigenvalue -(1 + lam^2) of the radial Laplacian in dimension 3
    def u(r):
        return np.sin(lam * r)

    def u1(r):
        return lam * np.cos(lam * r)

    def u2(r):
        return -lam * lam * np.sin(lam * r)

    def v(r):
        return 1.0 / (lam * np.sinh(r))

    def v1(r):
        return -np.cosh(r) / (lam * np.sinh(r) ** 2)

    def v2(r):
        return (2 * np.cosh(r) ** 2 - np.sinh(r) ** 2) / (lam * np.sinh(r) ** 3)

    return _zonal(
        lambda r: u(r) * v(r),
        lambda r: u1(r) * v(r) + u(r) * v1(r),
        lambda r: u2(r) * v(r) + 2 * u1(r) * v1(r) + u(r) * v2(r))


def test_laplacian_of_constant_is_zero():
    h = _zonal(lambda r: np.ones_like(np.asarray(r, dtype=float)),
               lambda r: np.zeros_like(np.asarray(r, dtype=float)),
               lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    rho = np.linspace(0.0, 2.0, 9)
    assert float(np.max(np.abs(IV.beltrami_laplace_zonal(4, h)(rho)))) == 0.0


def test_laplacian_of_cosh():
    h = _zonal(np.cosh, np.sinh, np.cosh, np.sinh, np.cosh)
    rho = np.linspace(0.0, 2.5, 21)
    for n in (3, 4, 5):
        lap = IV.beltrami_laplace_zonal(n, h)
        want = n * np.cosh(rho)
        assert float(np.max(np.abs(lap(rho) - want) / want)) < 1e-14


def test_laplacian_eigenfunction():
    lam = 1.7
    h = _eigenfunction(lam)
    lap = IV.beltrami_laplace_zonal(3, h)
    rho = np.linspace(0.3, 2.0, 15)
    want = -(1 + lam * lam) * h(rho)
    assert float(np.max(np.abs(lap(rho) - want) / np.abs(want))) < 1e-8


def test_laplacian_limit_at_origin():
    h = _gaussian()
    for n in (3, 4):
        lap = IV.beltrami_laplace_zonal(n, h)
        # h''(0) = -2 for exp(-rho^2), so the limit is -2n
        assert abs(float(lap(0.0)) + 2.0 * n) < 1e-10


def test_laplacian_needs_two_derivatives():
    h = _zonal(lambda r: np.asarray(r) ** 2)
    with pytest.raises(SmoothnessError):
        IV.beltrami_laplace_zonal(3, h)


def test_poly_laplace_identity_and_linearity():
    h = _gaussian()
    rho = np.linspace(0.1, 2.0, 9)
    ident = IV.poly_laplace(0, 3, h)
    assert np.array_equal(ident(rho), h(rho))
    p1 = IV.poly_laplace(1, 3, h)
    scaled = IV.poly_laplace(1, 3, h.scaled(3.0))
    assert float(np.max(np.abs(scaled(rho) - 3.0 * p1(rho)))) < 1e-12


def test_poly_laplace_first_factor():
    # m=1, n=3: the factor is -Laplacian + (2-3)(2-1) = -Laplacian - 1
    lam = 1.3
    h = _eigenfunction(lam)
    out = IV.poly_laplace(1, 3, h)
    rho = np.linspace(0.3, 1.8, 9)
    want = lam * lam * h(rho)       # (1 + lam^2) h - h
    assert float(np.max(np.abs(out(rho) - want) / np.abs(want))) < 1e-8


def test_chain_identity_small():
    h = IV.zonal_bump(1.2)
    p = R.TransformParams(3, 1, 2)
    rot = MC.sample_rotation(3, MC._rng(MC.McSpec(1, 1), 0))
    z = MC.GeodesicElement(3, 2, rot, 0.6)
    lhs, rhs = IV.chain_identity(p, h, z, MC.McSpec(seed=13, n_samples=60000),
                                 support=1.2)
    assert abs(lhs.value - rhs) <= 4 * lhs.std_error
    assert rhs > 0


def test_chain_identity_zero():
    zero = _zonal(lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    p = R.TransformParams(3, 1, 2)
    z = MC.GeodesicElement(3, 2, np.eye(3), 0.6)
    lhs, rhs = IV.chain_identity(p, zero, z, MC.McSpec(seed=3, n_samples=2000),
                                 support=1.0)
    assert lhs.value == 0.0 and rhs == 0.0


@pytest.mark.parametrize("a", [1.18, 1.19, 1.29])
def test_tabulated_forward_of_bump_supports(a):
    # the lowest Chebyshev node of the squared-variable tabulation used to
    # land just below cosh-distance 1 for these supports
    p = R.TransformParams(3, 0, 1)
    h = IV.as_cosh_profile(IV.zonal_bump(a), support=a)
    tab = IV._tabulated_forward(p, h, DEFAULT_QUADRATURE)
    s = np.linspace(1.0, 0.999 * math.cosh(a), 7)
    want = R.radon_hyper_zonal(p, h, s)
    assert float(np.max(np.abs(tab(s) - want))) < 1e-10 * float(
        np.max(np.abs(want)))


@pytest.mark.parametrize("sigma", [0.5, 0.8, 1.2])
def test_tabulated_forward_without_support(sigma):
    # a Gaussian h has no support: the table runs to cosh-distance 12 and
    # must hold the transform itself, not a quotient by a fixed Gaussian
    # scale that spans dozens of decades there
    p = R.TransformParams(4, 0, 1)
    h = IV.as_cosh_profile(P.gaussian(sigma, P.ArgKind.GeodesicDistance))
    tab = IV._tabulated_forward(p, h, DEFAULT_QUADRATURE)
    s = np.linspace(1.0, 11.9, 60)
    want = np.asarray(R.radon_hyper_zonal(p, h, s))
    assert float(np.max(np.abs(tab(s) - want))) <= 1e-10 * float(
        np.max(np.abs(want)))


def test_fit_even_spline_recovers_polynomial():
    rho = np.linspace(0.0, 2.0, 33)
    truth = 1.0 - rho ** 2 + 0.1 * rho ** 4
    rng = np.random.default_rng(5)
    noisy = truth + 1e-4 * rng.standard_normal(len(rho))
    fit = IV.fit_even_spline(rho, noisy, np.full(len(rho), 1e-4))
    assert float(np.max(np.abs(fit(rho) - truth))) < 2e-3
    # derivative at 0 vanishes by the even extension
    assert abs(float(fit.derivative(1, np.array([1e-8]))[0])) < 1e-2


def test_fit_even_spline_rejects_unexplainable_data():
    rho = np.linspace(0.0, 2.0, 41)
    wild = np.sin(40 * rho)
    with pytest.raises(IV.SmoothingResidualError):
        IV.fit_even_spline(rho, wild, np.full(len(rho), 1e-8))


def test_dm_recovers_bump_small_sample():
    warnings.filterwarnings("ignore")
    n, k, m = 3, 1, 1
    h = IV.zonal_bump(1.2)
    h_prof = IV.as_cosh_profile(h, support=1.2)
    pk = R.TransformParams(n, 0, k)
    phi = P.tabulate(lambda s: R.radon_hyper_zonal(pk, h_prof, s), 1.0,
                     math.cosh(1.2), P.ArgKind.CoshDistance, n=200,
                     support=math.cosh(1.2), square_variable=True)
    rec = IV.d_m(phi, m, pk, MC.McSpec(seed=101, n_samples=120000))
    rho = np.linspace(0.0, 2.0, 21)
    err = float(np.max(np.abs(rec(rho) - h(rho)))) / float(np.max(np.abs(h(rho))))
    assert err < 8e-2


def test_support_demo():
    p = R.TransformParams(3, 1, 2)
    rep = IV.support_demo(p, IV.zonal_bump(1.0), 1.0,
                          MC.McSpec(seed=5, n_samples=1000))
    assert rep.forward_max_beyond == 0.0
    assert rep.chain_max_beyond == 0.0
    assert rep.reconstruction_sup_beyond < 1e-3


def test_support_demo_gaussian_forward_decay():
    # non-compact input admissible under the tail-weight condition: the
    # forward transform simply decays; nothing vanishes exactly
    p = R.TransformParams(3, 0, 1)
    h_prof = IV.as_cosh_profile(_gaussian())
    far = R.radon_hyper_zonal(p, h_prof, np.array([math.cosh(3.2)]))
    near = R.radon_hyper_zonal(p, h_prof, np.array([1.0]))
    assert 0 < far[0] < 1e-3 * near[0]


def test_dm_log_kernel_branch_converges():
    # above the sine-kernel window in even dimension the logarithmic form
    # applies; it needs four stable derivatives of the smoothed data, so it
    # is markedly more sample-hungry than the order-one cases
    warnings.filterwarnings("ignore")
    n, k, m = 4, 2, 2
    h = IV.zonal_bump(1.2)
    h_prof = IV.as_cosh_profile(h, support=1.2)
    pk = R.TransformParams(n, 0, k)
    phi = P.tabulate(lambda s: R.radon_hyper_zonal(pk, h_prof, s), 1.0,
                     math.cosh(1.2), P.ArgKind.CoshDistance, n=200,
                     support=math.cosh(1.2), square_variable=True)
    rec = IV.d_m(phi, m, pk, MC.McSpec(seed=505, n_samples=2000000))
    rho = np.linspace(0.0, 2.0, 21)
    err = float(np.max(np.abs(rec(rho) - h(rho)))) / float(np.max(np.abs(h(rho))))
    assert err < 0.2


def test_zonal_bump_second_derivative_is_the_derivative_of_the_first():
    b = IV.zonal_bump(1.5)
    d1, d2 = b.derivatives
    x = np.array([-1.2, -0.4, 0.0, 0.3, 0.9, 1.3, 1.6])
    h = 1e-5
    fd = (d1(x + h) - d1(x - h)) / (2.0 * h)
    assert np.max(np.abs(d2(x) - fd)) < 1e-8 * np.max(np.abs(d2(x)))
    assert d2(np.array([1.6]))[0] == 0.0
