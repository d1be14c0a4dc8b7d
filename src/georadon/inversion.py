"""Rank-one inversion chain on the hyperboloid: the composition identity
(j-to-k of a point transform equals the k-point transform), the zonal
Laplace-Beltrami operator, its polynomial, the sine-kernel dual operator,
and the reconstruction pipeline.

The reconstruction is Monte-Carlo-limited by design: the weighted dual
transform is estimated on a distance grid, smoothed by an even
least-squares quintic spline chosen by generalized cross-validation, and
only then differentiated.

Zonal functions are ``Profile1D`` instances of geodesic distance
(``ArgKind.GeodesicDistance``) on [0, inf).  The Laplacian and its
polynomial combine the unmasked ``fn`` and ``derivatives`` of their
inputs; only the outermost call applies the domain and support mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import radial as R
from .errors import DomainError, GeoradonError, SmoothnessError
from .mc import (GeodesicElement, McSpec, dual_sine_mc, radon_hyper_mc,
                 zonal_function)
from .models import Model, integrate_radial
from .profiles import ArgKind, Profile1D, bump, reparametrize, tabulate
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .special import log_gamma

#: the geodesic distances at which ``d_m`` estimates the dual transform;
#: a reconstruction lives on [0, RHO_MAX]
RHO_MAX = 2.6
RHO_GRID = np.linspace(0.0, RHO_MAX, 33)
RHO_GRID.flags.writeable = False


class SmoothingResidualError(GeoradonError, ArithmeticError):
    """The smoothing fit cannot explain the Monte Carlo data."""


def _zonal(fn: Callable, derivatives: Sequence[Callable],
           label: str) -> Profile1D:
    """A zonal function of geodesic distance on [0, inf) with the given
    derivative chain; its even extension at 0 is assumed smooth.  The decay
    is declared faster than any exponential: the chain only integrates these
    functions inside a support."""
    return Profile1D(lo=0.0, hi=math.inf, fn=fn,
                     arg_kind=ArgKind.GeodesicDistance, decay_hint=math.inf,
                     derivatives=tuple(derivatives), label=label)


def zonal_bump(a: float) -> Profile1D:
    """The bump of ``profiles.bump`` in geodesic distance, with the second
    derivative (by the quotient rule) that the Laplacian needs."""
    b = bump(a, arg_kind=ArgKind.GeodesicDistance)

    def d2(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < a
        xi = x[inside]
        den = a * a - xi * xi
        g1 = -2.0 * a * a * xi / den ** 2
        g2 = -2.0 * a * a * (a * a + 3.0 * xi * xi) / den ** 3
        out[inside] = np.exp(1.0 - a * a / den) * (g1 * g1 + g2)
        return out

    return replace(b, derivatives=b.derivatives + (d2,))


def as_cosh_profile(h: Profile1D, support: Optional[float] = None
                    ) -> Profile1D:
    """View a zonal function as a profile of the cosh of the distance, cut
    at ``support`` when one is given and at its own support otherwise."""
    return reparametrize(h if support is None else replace(h, support=support),
                         ArgKind.CoshDistance)


# -- differential operators -----------------------------------------------------

def _coth_minus_inv(rho: np.ndarray) -> np.ndarray:
    """coth(rho) - 1/rho, stable near 0."""
    out = np.empty_like(rho)
    small = rho < 0.05
    rs = rho[small]
    out[small] = rs / 3.0 - rs ** 3 / 45.0 + 2.0 * rs ** 5 / 945.0
    rb = rho[~small]
    out[~small] = 1.0 / np.tanh(rb) - 1.0 / rb
    return out


def beltrami_laplace_zonal(n: int, h: Profile1D) -> Profile1D:
    """Radial Laplace-Beltrami operator: h'' + (n-1) coth(rho) h'.

    The rho -> 0 limit is n * h''(0) by the even extension.  The returned
    function carries a derivative chain two orders shallower than h's,
    valid on rho > 0.
    """
    depth = len(h.derivatives or ())
    if depth < 2:
        raise SmoothnessError("the Laplacian needs two derivatives")

    def fn(rho):
        h1 = h.derivative(1, rho)
        h2 = h.derivative(2, rho)
        # h'(rho)/rho is stable down to rho = 0 where it tends to h''(0)
        ratio = np.where(rho > 0.0, h1 / np.where(rho > 0, rho, 1.0), h2)
        return h2 + (n - 1.0) * (ratio + _coth_minus_inv(rho) * h1)

    return _zonal(fn, [_laplacian_derivative(n, h, q)
                       for q in range(1, depth - 1)], f"lap[{h.label}]")


def _coth_derivatives(rho: np.ndarray, order: int):
    """[coth, coth', ..., coth^(order)] via the polynomial recursion
    c' = 1 - c^2 (valid for rho > 0)."""
    c = 1.0 / np.tanh(rho)
    polys = [np.array([0.0, 1.0])]          # coth itself, as P(c) = c
    for _ in range(order):
        p = polys[-1]
        dp = np.polynomial.polynomial.polyder(p)
        # chain rule: d/drho P(c) = P'(c) (1 - c^2)
        nxt = np.polynomial.polynomial.polymul(dp, np.array([1.0, 0.0, -1.0]))
        polys.append(nxt)
    return [np.polynomial.polynomial.polyval(c, p) for p in polys]


def _laplacian_derivative(n: int, h: Profile1D, q: int) -> Callable:
    def d(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        # the coth recursion is singular at 0; use the even extension there
        # (odd-order derivatives vanish linearly, even ones plateau)
        small = rho < 1e-4
        safe = np.where(small, 1e-4, rho)
        cths = _coth_derivatives(safe, q)
        out = h.derivative(q + 2, safe)
        for i in range(q + 1):
            out = out + (n - 1.0) * math.comb(q, i) * cths[q - i] \
                * h.derivative(i + 1, safe)
        if q % 2 == 1 and np.any(small):
            out = np.where(small, out * rho / 1e-4, out)
        return out
    return d


def poly_laplace(m: int, n: int, h: Profile1D) -> Profile1D:
    """Product of the m factors (-Laplacian + (2i-n)(2i-1)), i = 1..m."""
    if m < 0:
        raise DomainError("m must be nonnegative")
    depth = len(h.derivatives or ())
    if depth < 2 * m:
        raise SmoothnessError(
            f"poly_laplace needs {2 * m} derivatives, have {depth}")
    out = h
    for i in range(1, m + 1):
        lap = beltrami_laplace_zonal(n, out)
        shift = (2.0 * i - n) * (2.0 * i - 1.0)
        out = _combine(lap, out, shift)
    return out


def _combine(lap: Profile1D, h: Profile1D, shift: float) -> Profile1D:
    """-lap + shift * h; lap, the Laplacian of h, is the shallower chain."""
    def fn(rho):
        return -lap.fn(rho) + shift * h.fn(rho)

    derivs = [(lambda q: (lambda rho: -lap.derivative(q, rho)
                          + shift * h.derivative(q, rho)))(q)
              for q in range(1, len(lap.derivatives) + 1)]
    return _zonal(fn, derivs, f"(-lap+{shift})[{h.label}]")


# -- smoothing -------------------------------------------------------------------

def fit_even_spline(rho: np.ndarray, values: np.ndarray,
                    std_errors: np.ndarray) -> Profile1D:
    """Even least-squares quintic spline through noisy grid data.

    The data is mirrored through 0 to enforce the even extension, fitted
    with candidate interior knot counts, and the generalized
    cross-validation score picks the smoothing level.  Raises
    ``SmoothingResidualError`` when even the best fit leaves residuals more
    than 8x above the reported Monte Carlo noise.
    """
    from scipy.interpolate import LSQUnivariateSpline

    rho = np.asarray(rho, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(rho)
    rho, values = rho[order], values[order]
    std_errors = np.asarray(std_errors, dtype=float)[order]
    pos = rho > 1e-12
    x = np.concatenate([-rho[pos][::-1], rho])
    y = np.concatenate([values[pos][::-1], values])

    best = None
    hi = rho[-1]
    for n_knots in (2, 4, 6, 8, 10, 12):
        inner = np.linspace(-hi, hi, n_knots + 2)[1:-1]
        try:
            spl = LSQUnivariateSpline(x, y, inner, k=5)
        except Exception:
            continue
        resid = float(np.sum((spl(x) - y) ** 2))
        dof = n_knots + 6
        gcv = resid / max(1.0 - dof / len(x), 0.05) ** 2
        if best is None or gcv < best[0]:
            best = (gcv, spl)
    if best is None:
        raise SmoothingResidualError("no admissible spline fit")
    spl = best[1]

    noise = float(np.median(std_errors)) + 1e-300
    rms = math.sqrt(float(np.mean((spl(rho) - values) ** 2)))
    if rms > 8.0 * max(noise, 1e-12 * float(np.max(np.abs(values)))):
        raise SmoothingResidualError(
            f"smoothing residual {rms:.3e} far exceeds the Monte Carlo "
            f"noise level {noise:.3e}")

    derivs = [(lambda q: (lambda r: spl.derivative(q)(
        np.asarray(r, dtype=float))))(q) for q in range(1, 5)]
    return _zonal(lambda r: spl(np.asarray(r, dtype=float)), derivs, "spline")


# -- the inversion chain ----------------------------------------------------------

def chain_identity(p: R.TransformParams, h: Profile1D,
                   z: GeodesicElement, mc: McSpec,
                   support: Optional[float] = None,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Monte Carlo check of the composition identity: the j-to-k transform
    of the point transform of h equals the k-point transform of h.  A
    ``support`` replaces h's own (see ``as_cosh_profile``).

    Returns (lhs estimate, exact rhs value).
    """
    n, j, k = p.n, p.j, p.k
    if j == 0:
        raise DomainError("the chain check needs j >= 1")
    h_prof = as_cosh_profile(h, support)
    pj = R.TransformParams(n, 0, j)
    rj = _tabulated_forward(pj, h_prof, spec)
    lhs = radon_hyper_mc(p, zonal_function(rj), z, mc)
    pk = R.TransformParams(n, 0, k)
    rhs = R.radon_hyper_zonal(pk, h_prof, math.cosh(z.distance), spec)
    return lhs, float(rhs)


def _tabulated_forward(p: R.TransformParams, f: Profile1D,
                       spec: QuadratureSpec) -> Profile1D:
    """The point transform of f tabulated on [1, top] in cosh-distance and
    zero beyond; top is f's support, or 12 when f has none.

    The transform is tabulated as it is, with no scale divided out: it
    decays like f(acosh s), far more slowly than any fixed Gaussian scale,
    and a quotient by one would span dozens of decades.
    """
    top = f.upper_limit if math.isfinite(f.upper_limit) else 12.0
    return tabulate(lambda s: R.radon_hyper_zonal(p, f, s, spec),
                    1.0, top, ArgKind.CoshDistance, n=200, support=top,
                    square_variable=True)


def d_m(phi: Profile1D, m: int, p: R.TransformParams, mc: McSpec,
        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Profile1D:
    """The inversion operator: weighted dual transform of the zonal function
    phi, smoothed, then hit with the Laplacian polynomial.

    Odd n uses the sinh-power kernel of order 2m - k for every m >= k/2;
    even n uses it only for k/2 <= m <= n/2 - 1 (the order-zero case falls
    back to the plain dual average, the vanishing-order limit) and otherwise
    the logarithmic-kernel form with its mean correction term.  The dual
    transform is estimated on ``RHO_GRID``.
    """
    n, k = p.n, p.k

    if n % 2 == 1 or (k / 2.0 <= m <= n / 2.0 - 1.0):
        if m < k / 2.0:
            raise DomainError(f"need m >= k/2, got m={m}, k={k}")
        alpha = 2.0 * m - k
        ests = dual_sine_mc(float(alpha), p, phi, RHO_GRID, mc,
                            kernel="sine" if alpha > 0 else "plain")
        vals = np.array([e.value for e in ests])
        errs = np.array([e.std_error for e in ests])
        smooth = fit_even_spline(RHO_GRID, vals, errs)
        return poly_laplace(m, n, smooth)

    # even-n logarithmic branch
    c_log = 2.0 ** (1.0 - n) * math.pi ** (-n / 2.0) / math.gamma(n / 2.0)
    ests = dual_sine_mc(0.0, p, phi, RHO_GRID, mc, kernel="log")
    vals = c_log * np.array([e.value for e in ests])
    errs = c_log * np.array([e.std_error for e in ests])
    smooth = fit_even_spline(RHO_GRID, vals, errs)
    lead = poly_laplace(n // 2, n, smooth)
    mean_term = (-1.0) ** (n // 2) * math.exp(
        log_gamma((n + 1) / 2.0) - 0.5 * (n + 1) * math.log(math.pi)) \
        * integrate_radial(Model.Hyperboloid, n, k, phi, spec)

    def fn(rho):
        return -lead.fn(rho) + mean_term

    derivs = [(lambda q: (lambda r: -np.asarray(lead.derivative(q, r))))(q)
              for q in range(1, len(lead.derivatives) + 1)]
    return _zonal(fn, derivs, "dm-log")


def reconstruct(phi: Profile1D, p: R.TransformParams, m: int, mc: McSpec,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Profile1D:
    """Full reconstruction: recover the j-plane transform of the underlying
    point function from its j-to-k transform, on [0, RHO_MAX]."""
    h_rec = d_m(phi, m, p, mc, spec)
    if p.j == 0:
        return Profile1D(lo=0.0, hi=RHO_MAX, fn=h_rec.fn,
                         arg_kind=ArgKind.GeodesicDistance,
                         label="reconstructed")
    pj = R.TransformParams(p.n, 0, p.j)
    prof = as_cosh_profile(h_rec, support=RHO_MAX)

    def fn(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        return np.asarray(R.radon_hyper_zonal(pj, prof, np.cosh(rho), spec))

    return Profile1D(lo=0.0, hi=RHO_MAX, fn=fn,
                     arg_kind=ArgKind.GeodesicDistance, label="reconstructed")


@dataclass(frozen=True)
class SupportReport:
    forward_max_beyond: float        # j-plane transform past the radius
    chain_max_beyond: float          # j-to-k of it past the radius
    reconstruction_sup_beyond: float # inverted profile past the radius


def support_demo(p: R.TransformParams, h: Profile1D, a: float,
                 mc: McSpec, spec: QuadratureSpec = DEFAULT_QUADRATURE
                 ) -> SupportReport:
    """Numerical demonstration of support locality for compactly supported
    zonal input: the forward transforms vanish beyond the support radius
    exactly (kernel support), and radial inversion of the k-transform stays
    small there.

    The inversion is run on a tabulation that does not declare the support,
    so the smallness of the reconstruction beyond it is a genuine outcome.
    """
    n, j, k = p.n, p.j, p.k
    h_prof = as_cosh_profile(h, support=a)
    far = np.cosh(np.linspace(a * 1.05, a * 1.9, 7))
    pj = R.TransformParams(n, 0, j) if j > 0 else None
    pk = R.TransformParams(n, 0, k)

    if pj is not None:
        fwd_j = np.abs(np.asarray(R.radon_hyper_zonal(pj, h_prof, far, spec)))
        rj = _tabulated_forward(pj, h_prof, spec)
        chain = np.abs(np.asarray(R.radon_hyper_zonal(
            R.TransformParams(n, j, k), rj, far, spec)))
    else:
        fwd_j = np.zeros(1)
        chain = np.abs(np.asarray(R.radon_hyper_zonal(pk, h_prof, far, spec)))

    transformed = tabulate(
        lambda s: R.radon_hyper_zonal(pk, h_prof, s, spec), 1.0,
        math.cosh(1.9 * a), ArgKind.CoshDistance, n=220, decay_hint=math.inf,
        square_variable=True)
    rec = R.invert_radial(Model.Hyperboloid, pk, transformed,
                          out_range=(1.0 + 1e-6, math.cosh(1.85 * a)),
                          spec=spec, check_residual=False,
                          deriv_noise_rel=2e-3)
    beyond = np.cosh(np.linspace(a * 1.05, a * 1.8, 24))
    sup = float(np.max(np.abs(rec(beyond)))) / max(
        float(np.max(np.abs(h(np.linspace(0, a, 24))))), 1e-300)
    return SupportReport(float(np.max(fwd_j)), float(np.max(chain)), sup)
