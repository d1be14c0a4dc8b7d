"""Deterministic identity suite: transition formulas, duality/measure
equalities, closed-form conformance, and operator round trips.

Each entry compares two independently computed sides of an identity on
radial/zonal profiles and reports the maximum relative error against its
tolerance.  The CLI ``verify`` command and the acceptance tests both run
this registry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import radial as R
from .fracint import ek_right
from .models import Model, WeightOp, apply_weight, convert_distance, \
    integrate_radial
from .profiles import ArgKind, Profile1D, bump, gaussian, reparametrize
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .special import gamma as gamma_fn
from .special import lambda1, lambda2, sphere_area


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _rel(lhs, rhs) -> float:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _weighted(fn, lo, hi, kind, support, edge) -> Profile1D:
    return Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=kind, support=support,
                     edge_exponent=edge)


def _hyper_gauss_geodesic() -> Profile1D:
    return Profile1D(lo=0.0, hi=math.inf,
                     fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                     arg_kind=ArgKind.GeodesicDistance, decay_hint=math.inf,
                     label="zonal gaussian")


def _hyper_gauss_cosh() -> Profile1D:
    return Profile1D(lo=1.0, hi=math.inf, fn=lambda s: np.exp(1.0 - s * s),
                     arg_kind=ArgKind.CoshDistance, decay_hint=math.inf,
                     label="zonal gaussian")


# -- transition identities ----------------------------------------------------

def transition_hyper_via_chord(spec: QuadratureSpec) -> IdentityResult:
    """Zonal hyperbolic transform against the weighted chord route."""
    p = R.TransformParams(4, 1, 2)
    f_geo = _hyper_gauss_geodesic()
    f_cosh = _hyper_gauss_cosh()
    rho = np.linspace(0.1, 2.0, 24)
    lhs = R.radon_hyper_zonal(p, f_cosh, np.cosh(rho), spec)
    mf = apply_weight(WeightOp.M, p, f_geo)
    rb = R.transform_profile(Model.BeltramiKlein, False, p, mf, spec)
    rhs = apply_weight(WeightOp.N, p, rb)(rho)
    return IdentityResult("transition_hyper_via_chord", _rel(lhs, rhs), 1e-8)


def transition_affine_via_elliptic(spec: QuadratureSpec) -> IdentityResult:
    p = R.TransformParams(4, 1, 2)
    f = gaussian()
    r = np.linspace(0.1, 2.2, 24)
    lhs = R.radon_affine_radial(p, f, r, spec)
    m0f = reparametrize(apply_weight(WeightOp.M0, p, f), ArgKind.CosAngle)
    r0 = R.transform_profile(Model.Elliptic, False, p, m0f, spec)
    rhs = apply_weight(WeightOp.N0, p, reparametrize(r0, ArgKind.Angle))(r)
    return IdentityResult("transition_affine_via_elliptic", _rel(lhs, rhs), 1e-8)


def transition_hyper_via_projective(spec: QuadratureSpec) -> IdentityResult:
    """Hyperbolic forward against the projective route, with the projective
    transform itself computed through the chord model (two-path check)."""
    p = R.TransformParams(4, 1, 2)
    f_geo = _hyper_gauss_geodesic()
    f_cosh = _hyper_gauss_cosh()
    rho = np.linspace(0.15, 1.8, 20)
    lhs = R.radon_hyper_zonal(p, f_cosh, np.cosh(rho), spec)

    m1f = apply_weight(WeightOp.M1, p, f_geo)          # projective angle
    g_ball = apply_weight(WeightOp.M0_INV, p, m1f)     # -> ball chords
    g_ball = reparametrize(g_ball, ArgKind.BallRadius)
    rb = R.transform_profile(Model.BeltramiKlein, False, p, g_ball, spec)
    r_pi = apply_weight(WeightOp.N0_INV, p, rb)        # projective transform
    rhs = apply_weight(WeightOp.N1, p, r_pi)(rho)
    return IdentityResult("transition_hyper_via_projective", _rel(lhs, rhs), 1e-8)


def dual_affine_via_inversion_map(spec: QuadratureSpec) -> IdentityResult:
    """Dual transform against the distance-inverted forward route."""
    p = R.TransformParams(5, 1, 2)
    phi = gaussian()
    r = np.linspace(0.25, 2.0, 20)
    lhs = R.dual_affine_radial(p, phi, r, spec)
    v = apply_weight(WeightOp.V, p, phi)
    p_sw = R.TransformParams(p.n, p.n - p.k - 1, p.n - p.j - 1)
    fwd = R.transform_profile(Model.EuclideanAffine, False, p_sw, v, spec)
    rhs = apply_weight(WeightOp.U, p, fwd)(r)
    return IdentityResult("dual_affine_via_inversion_map", _rel(lhs, rhs), 1e-8)


def elliptic_orthogonality(spec: QuadratureSpec) -> IdentityResult:
    """Forward zonal kernel with flipped indices equals the dual kernel."""
    p = R.TransformParams(5, 1, 2)
    p_sw = R.TransformParams(p.n, p.n - p.k - 1, p.n - p.j - 1)

    def base(u):
        u = np.asarray(u, dtype=float)
        return np.exp(-2.0 * u * u) + 0.3 * u * u

    x = np.linspace(0.08, 0.95, 24)
    lhs = R.radon_elliptic_zonal(
        p_sw, Profile1D(lo=0.0, hi=1.0 + 1e-12, fn=base,
                        arg_kind=ArgKind.CosAngle), x, spec)
    rhs = R.dual_elliptic_zonal(
        p, Profile1D(lo=0.0, hi=1.0 + 1e-12, fn=base,
                     arg_kind=ArgKind.SinAngle), x, spec)
    return IdentityResult("elliptic_orthogonality", _rel(lhs, rhs), 1e-8)


# -- duality and measure identities --------------------------------------------

def mass_duality_chord(spec) -> IdentityResult:
    """Total mass is preserved by the forward chord transform."""
    p = R.TransformParams(4, 1, 2)
    f = gaussian(arg_kind=ArgKind.BallRadius)
    f = Profile1D(lo=0.0, hi=1.0, fn=f.fn, arg_kind=ArgKind.BallRadius)
    fwd = R.transform_profile(Model.BeltramiKlein, False, p, f, spec)
    lhs = integrate_radial(Model.BeltramiKlein, p.n, p.k, fwd, spec)
    rhs = integrate_radial(Model.BeltramiKlein, p.n, p.j, f, spec)
    return IdentityResult("mass_duality_chord", _rel(lhs, rhs), 1e-8)


def power_weight_duality_chord(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    f = Profile1D(lo=0.0, hi=1.0, fn=lambda r: np.exp(-r * r),
                  arg_kind=ArgKind.BallRadius)
    pw = alpha + p.k - p.n
    fwd = R.transform_profile(Model.BeltramiKlein, False, p, f, spec)
    lhs = integrate_radial(Model.BeltramiKlein, p.n, p.k, fwd, spec,
                           weight=lambda s: s ** pw, weight_origin_power=pw)
    rhs = lambda2(alpha, p.n, p.j, p.k) * integrate_radial(
        Model.BeltramiKlein, p.n, p.j, f, spec,
        weight=lambda r: r ** pw, weight_origin_power=pw)
    return IdentityResult("power_weight_duality_chord", _rel(lhs, rhs), 1e-8)


def boundary_weight_duality_chord(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    f = bump(0.7, arg_kind=ArgKind.BallRadius)
    fwd = R.transform_profile(Model.BeltramiKlein, False, p, f, spec)
    lhs = integrate_radial(
        Model.BeltramiKlein, p.n, p.k, fwd, spec,
        weight=lambda s: (1 - s * s) ** ((p.j - p.n) / 2.0))
    rhs = integrate_radial(
        Model.BeltramiKlein, p.n, p.j, f, spec,
        weight=lambda r: (1 - r * r) ** ((p.k - p.n) / 2.0))
    return IdentityResult("boundary_weight_duality_chord", _rel(lhs, rhs), 1e-8)


def cap_weight_duality_dual_chord(spec, a: float) -> IdentityResult:
    """Dual-transform duality against truncated-cap weights at radius a."""
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    phi = Profile1D(lo=0.0, hi=1.0, fn=lambda s: np.exp(-s * s),
                    arg_kind=ArgKind.BallRadius)
    dual = R.transform_profile(Model.BeltramiKlein, True, p, phi, spec)
    capped = Profile1D(lo=0.0, hi=1.0, fn=dual.fn, arg_kind=ArgKind.BallRadius,
                       support=min(a, 1.0 - 1e-12) if a < 1 else None)
    if a < 1:
        lhs = integrate_radial(Model.BeltramiKlein, p.n, p.j, capped, spec)
    else:
        lhs = integrate_radial(Model.BeltramiKlein, p.n, p.j, dual, spec)
    e_out = (alpha + p.k - p.j) / 2.0 - 1.0
    rhs_prof = _weighted(
        lambda s: np.exp(-s * s) * np.where(s < a, (a * a - s * s) ** e_out, 0.0),
        0.0, 1.0, ArgKind.BallRadius,
        support=min(a, 1.0 - 1e-15) if a <= 1 else a, edge=e_out)
    rhs = lambda1(alpha, p.j, p.k) * integrate_radial(
        Model.BeltramiKlein, p.n, p.k, rhs_prof, spec)
    return IdentityResult(f"cap_weight_duality_dual_chord_a{a}",
                          _rel(lhs, rhs), 1e-8)


def singular_weight_duality_dual_chord(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    phi = Profile1D(lo=0.0, hi=1.0, fn=lambda s: np.exp(-s * s),
                    arg_kind=ArgKind.BallRadius)
    dual = R.transform_profile(Model.BeltramiKlein, True, p, phi, spec)
    pw_l = -(alpha + p.k - p.j)
    lhs = integrate_radial(
        Model.BeltramiKlein, p.n, p.j, dual, spec,
        weight=lambda t: t ** pw_l * (1 - t * t) ** (alpha / 2.0 - 1.0),
        weight_origin_power=pw_l)
    e_out = (alpha + p.k - p.j) / 2.0 - 1.0
    lhs_rhs = integrate_radial(
        Model.BeltramiKlein, p.n, p.k, phi, spec,
        weight=lambda s: s ** (-alpha) * (1 - s * s) ** e_out,
        weight_origin_power=-alpha)
    rhs = lambda1(alpha, p.j, p.k) * lhs_rhs
    return IdentityResult("singular_weight_duality_dual_chord",
                          _rel(lhs, rhs), 1e-8)


def ball_average_duality_affine(spec) -> IdentityResult:
    """Integral of the dual transform over a ball as a weighted average."""
    p = R.TransformParams(5, 1, 2)
    phi = gaussian()
    dual = R.transform_profile(Model.EuclideanAffine, True, p, phi, spec)
    capped = Profile1D(lo=0.0, hi=math.inf, fn=dual.fn,
                       arg_kind=ArgKind.EuclideanRadius, support=1.0)
    lhs = integrate_radial(Model.EuclideanAffine, p.n, p.j, capped, spec)
    gap = p.half_gap
    c = math.pi ** gap / gamma_fn(1.0 + gap)
    rhs_prof = _weighted(
        lambda s: np.exp(-s * s) * np.where(s < 1.0, (1 - s * s) ** gap, 0.0),
        0.0, math.inf, ArgKind.EuclideanRadius, support=1.0, edge=gap)
    rhs = c * integrate_radial(Model.EuclideanAffine, p.n, p.k, rhs_prof, spec)
    return IdentityResult("ball_average_duality_affine", _rel(lhs, rhs), 1e-8)


def inversion_map_weighted_mass(spec) -> IdentityResult:
    """Weighted mass is preserved by the distance-inversion map."""
    p = R.TransformParams(5, 1, 2)
    phi = gaussian()
    w = lambda x: (1 + x * x) ** (-(p.j + 1) / 2.0)
    lhs = integrate_radial(Model.EuclideanAffine, p.n, p.k, phi, spec, weight=w)
    v = apply_weight(WeightOp.V, p, phi)
    rhs = sphere_area(p.n - p.k - 1) / sphere_area(p.k) * integrate_radial(
        Model.EuclideanAffine, p.n, p.n - p.k - 1, v, spec, weight=w)
    return IdentityResult("inversion_map_weighted_mass", _rel(lhs, rhs), 1e-8)


def measure_lift_affine_elliptic(spec) -> IdentityResult:
    n, d = 4, 1
    f = gaussian()
    lhs = integrate_radial(Model.EuclideanAffine, n, d, f, spec)
    g = Profile1D(lo=0.0, hi=math.pi / 2,
                  fn=lambda th: np.exp(-np.tan(th) ** 2) / np.cos(th) ** (n + 1),
                  arg_kind=ArgKind.Angle)
    rhs = sphere_area(n) / sphere_area(d) * integrate_radial(
        Model.Elliptic, n, d, g, spec)
    return IdentityResult("measure_lift_affine_elliptic", _rel(lhs, rhs), 1e-8)


def measure_lift_ball_hyperboloid(spec) -> IdentityResult:
    n, d = 4, 1
    f = Profile1D(lo=0.0, hi=1.0, fn=lambda b: np.exp(-b * b),
                  arg_kind=ArgKind.BallRadius)
    lhs = integrate_radial(Model.BeltramiKlein, n, d, f, spec)
    g = Profile1D(lo=0.0, hi=math.inf,
                  fn=lambda rho: np.exp(-np.tanh(rho) ** 2)
                  / np.cosh(rho) ** (n + 1),
                  arg_kind=ArgKind.GeodesicDistance, decay_hint=math.inf)
    rhs = integrate_radial(Model.Hyperboloid, n, d, g, spec)
    return IdentityResult("measure_lift_ball_hyperboloid", _rel(lhs, rhs), 1e-8)


def measure_lift_hyperboloid_projective(spec) -> IdentityResult:
    n, d = 4, 1
    f = _hyper_gauss_geodesic()
    lhs = integrate_radial(Model.Hyperboloid, n, d, f, spec)
    g = Profile1D(
        lo=0.0, hi=math.pi / 4,
        fn=lambda th: np.exp(-np.sinh(np.arctanh(np.tan(th))) ** 2)
        / np.cos(2 * th) ** ((n + 1) / 2.0),
        arg_kind=ArgKind.Angle)
    rhs = sphere_area(n) / sphere_area(d) * integrate_radial(
        Model.Projective, n, d, g, spec)
    return IdentityResult("measure_lift_hyperboloid_projective",
                          _rel(lhs, rhs), 1e-8)


def mass_duality_hyper(spec) -> IdentityResult:
    p = R.TransformParams(4, 1, 2)
    f = _hyper_gauss_cosh()
    fwd = R.transform_profile(Model.Hyperboloid, False, p, f, spec)
    lhs = integrate_radial(Model.Hyperboloid, p.n, p.k, fwd, spec)
    rhs = integrate_radial(Model.Hyperboloid, p.n, p.j, f, spec)
    return IdentityResult("mass_duality_hyper", _rel(lhs, rhs), 1e-8)


def weighted_mass_duality_hyper(spec) -> IdentityResult:
    p = R.TransformParams(4, 1, 2)
    f = _hyper_gauss_cosh()
    fwd = R.transform_profile(Model.Hyperboloid, False, p, f, spec)
    lhs = integrate_radial(
        Model.Hyperboloid, p.n, p.k, fwd, spec,
        weight=lambda rho: np.cosh(rho) ** (p.j - p.n))
    rhs = integrate_radial(
        Model.Hyperboloid, p.n, p.j, f, spec,
        weight=lambda rho: np.cosh(rho) ** (p.k - p.n))
    return IdentityResult("weighted_mass_duality_hyper", _rel(lhs, rhs), 1e-8)


def tangent_weight_duality_hyper(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    f = _hyper_gauss_cosh()
    pw = alpha + p.k - p.n

    def u_w(rho):
        return np.tanh(rho) ** pw * np.cosh(rho) ** (p.j - p.n)

    def v_w(rho):
        return np.tanh(rho) ** pw * np.cosh(rho) ** (p.k - p.n)

    fwd = R.transform_profile(Model.Hyperboloid, False, p, f, spec)
    lhs = integrate_radial(Model.Hyperboloid, p.n, p.k, fwd, spec,
                           weight=u_w, weight_origin_power=pw)
    rhs = lambda2(alpha, p.n, p.j, p.k) * integrate_radial(
        Model.Hyperboloid, p.n, p.j, f, spec, weight=v_w,
        weight_origin_power=pw)
    return IdentityResult("tangent_weight_duality_hyper", _rel(lhs, rhs), 1e-8)


def cap_duality_dual_hyper(spec) -> IdentityResult:
    """Ball-restricted integral of the dual transform (cap kernel)."""
    p = R.TransformParams(4, 1, 2)
    b = 1.0
    phi = gaussian(arg_kind=ArgKind.SinhDistance)
    dual = R.transform_profile(Model.Hyperboloid, True, p, phi, spec)
    capped = Profile1D(lo=0.0, hi=math.inf, fn=dual.fn,
                       arg_kind=ArgKind.SinhDistance, support=math.sinh(b))
    lhs = integrate_radial(Model.Hyperboloid, p.n, p.j, capped, spec,
                           weight=lambda rho: np.cosh(rho) ** (-(p.k + 1.0)))
    gap = p.half_gap
    c2 = math.pi ** gap / (gamma_fn(gap + 1.0) * math.cosh(b) ** (p.k - p.j))
    chb2 = math.cosh(b) ** 2

    def rhs_fn(rho):
        rho = np.asarray(rho, dtype=float)
        ch = np.cosh(rho)
        return np.where(rho < b, np.exp(-np.sinh(rho) ** 2)
                        * np.maximum(chb2 - ch * ch, 0.0) ** gap
                        * ch ** (-(p.k + 1.0)), 0.0)

    rhs_prof = _weighted(rhs_fn, 0.0, math.inf, ArgKind.GeodesicDistance,
                         support=b, edge=gap)
    rhs = c2 * integrate_radial(Model.Hyperboloid, p.n, p.k, rhs_prof, spec)
    return IdentityResult("cap_duality_dual_hyper", _rel(lhs, rhs), 1e-8)


def cosh_weight_duality_dual_hyper(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    phi = gaussian(arg_kind=ArgKind.SinhDistance)
    dual = R.transform_profile(Model.Hyperboloid, True, p, phi, spec)
    w = lambda rho: np.cosh(rho) ** (-(p.k - 1.0 + alpha))
    lhs = integrate_radial(Model.Hyperboloid, p.n, p.j, dual, spec, weight=w)
    rhs = lambda1(alpha, p.j, p.k) * integrate_radial(
        Model.Hyperboloid, p.n, p.k, phi, spec, weight=w)
    return IdentityResult("cosh_weight_duality_dual_hyper", _rel(lhs, rhs), 1e-8)


def tangent_weight_duality_dual_hyper(spec) -> IdentityResult:
    """Tangent-power weighted duality for the hyperbolic dual transform.

    Both sides carry the cosh power -(k-1+alpha); this is the form that
    follows from the chord-model pair under the measure lift and that
    matches direct quadrature (the asymmetric variant does not).
    """
    p = R.TransformParams(5, 1, 2)
    alpha = 2.0
    phi = gaussian(arg_kind=ArgKind.SinhDistance)
    dual = R.transform_profile(Model.Hyperboloid, True, p, phi, spec)
    pw_l = p.j - p.k - alpha
    ch_pow = -(p.k - 1.0 + alpha)
    lhs = integrate_radial(
        Model.Hyperboloid, p.n, p.j, dual, spec,
        weight=lambda rho: np.tanh(rho) ** pw_l * np.cosh(rho) ** ch_pow,
        weight_origin_power=pw_l)
    rhs = lambda1(alpha, p.j, p.k) * integrate_radial(
        Model.Hyperboloid, p.n, p.k, phi, spec,
        weight=lambda rho: np.tanh(rho) ** (-alpha) * np.cosh(rho) ** ch_pow,
        weight_origin_power=-alpha)
    return IdentityResult("tangent_weight_duality_dual_hyper",
                          _rel(lhs, rhs), 1e-8)


# -- closed forms and operator round trips --------------------------------------

def closed_form_identity(cf: R.ClosedFormId, spec) -> IdentityResult:
    pair = R.closed_form_pair(cf)
    if cf is R.ClosedFormId.HYPER_CAP:
        grid = np.linspace(1.0, 1.98, 64)
    else:
        grid = np.linspace(0.05, 0.95, 64)
    got = np.asarray(R.evaluate_closed_form(pair, grid, spec))
    want = pair.expected(grid)
    scale = np.maximum(np.abs(want), 1e-300)
    err = float(np.max(np.abs(got - want) / scale))
    return IdentityResult(f"closed_form_{cf.value}", err, 1e-8)


def gaussian_fixed_point(spec) -> IdentityResult:
    f = gaussian()
    t = np.linspace(0.0, 3.0, 16)
    errs = []
    for alpha in (0.5, 1.0, 2.0):
        got = ek_right(alpha, f, t, spec)
        errs.append(_rel(got, np.exp(-t * t)))
    return IdentityResult("gaussian_fixed_point_right_integral",
                          max(errs), 1e-10)


def weight_op_round_trips(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    x_rho = np.linspace(0.02, 2.5, 64)
    x_ball = np.linspace(0.01, 0.95, 64)
    x_eu = np.linspace(0.02, 2.5, 64)
    errs = []
    geo = _hyper_gauss_geodesic()
    ball = Profile1D(lo=0.0, hi=1.0, fn=lambda b: np.exp(-b * b),
                     arg_kind=ArgKind.BallRadius)
    eu = gaussian()
    pairs = [
        (WeightOp.M, WeightOp.M_INV, geo, x_rho),
        (WeightOp.N_INV, WeightOp.N, geo, x_rho),
        (WeightOp.P, WeightOp.P_INV, geo, x_rho),
        (WeightOp.Q_INV, WeightOp.Q, geo, x_rho),
        (WeightOp.M0, WeightOp.M0_INV, eu, x_eu),
        (WeightOp.N0_INV, WeightOp.N0, eu, x_eu),
        (WeightOp.P0, WeightOp.P0_INV, eu, x_eu),
        (WeightOp.Q0_INV, WeightOp.Q0, eu, x_eu),
        (WeightOp.M1, WeightOp.M1_INV, geo, x_rho),
        (WeightOp.N1_INV, WeightOp.N1, geo, x_rho),
        (WeightOp.P1, WeightOp.P1_INV, geo, x_rho),
        (WeightOp.Q1_INV, WeightOp.Q1, geo, x_rho),
    ]
    for fwd, inv, prof, grid in pairs:
        back = apply_weight(inv, p, apply_weight(fwd, p, prof))
        errs.append(float(np.max(np.abs(back(grid) - prof(grid)))))
    return IdentityResult("weight_op_round_trips", max(errs), 1e-14)


def conversion_cycle(spec) -> IdentityResult:
    vals = np.linspace(0.01, 0.93, 64)
    a = convert_distance(vals, Model.EuclideanAffine, Model.Elliptic)
    b = convert_distance(a, Model.Elliptic, Model.Hyperboloid)
    c = convert_distance(b, Model.Hyperboloid, Model.BeltramiKlein)
    d = convert_distance(c, Model.BeltramiKlein, Model.EuclideanAffine)
    return IdentityResult("conversion_cycle", float(np.max(np.abs(d - vals))),
                          1e-14)


# -- registry -------------------------------------------------------------------

def identity_suite(spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Run every deterministic identity; returns a list of IdentityResult."""
    runs: list[Callable] = [
        transition_hyper_via_chord,
        transition_affine_via_elliptic,
        transition_hyper_via_projective,
        dual_affine_via_inversion_map,
        elliptic_orthogonality,
        mass_duality_chord,
        power_weight_duality_chord,
        boundary_weight_duality_chord,
        lambda s: cap_weight_duality_dual_chord(s, 0.5),
        lambda s: cap_weight_duality_dual_chord(s, 1.0),
        singular_weight_duality_dual_chord,
        ball_average_duality_affine,
        inversion_map_weighted_mass,
        measure_lift_affine_elliptic,
        measure_lift_ball_hyperboloid,
        measure_lift_hyperboloid_projective,
        mass_duality_hyper,
        weighted_mass_duality_hyper,
        tangent_weight_duality_hyper,
        cap_duality_dual_hyper,
        cosh_weight_duality_dual_hyper,
        tangent_weight_duality_dual_hyper,
        gaussian_fixed_point,
        weight_op_round_trips,
        conversion_cycle,
    ]
    results = [fn(spec) for fn in runs]
    results.extend(closed_form_identity(cf, spec) for cf in R.ClosedFormId)
    return results
