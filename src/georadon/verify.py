"""Deterministic identity suite: transition formulas, duality/measure
equalities, closed-form conformance, and operator round trips, each
reported as the maximum relative error of two independently computed
sides against a tolerance.  The CLI ``verify`` command and the acceptance
tests both run it.

The paper's transitions, dualities and measure lifts hold at every
admissible triple (n, j, k): each is one row ``(name, triple, grid, sides)``
of ``IDENTITIES``, where ``sides(p)`` gives its two sides at the triple p
and ``triple`` is the row's default.  With a grid both sides are routes,
compared there: a profile, then steps -- a ``WeightOp`` (``apply_weight``),
an ``ArgKind`` (``reparametrize``), a number (the support is cut there) or
a transform row ``(model, dual, swapped)`` (``transform_profile`` at p, or
at the swapped triple (n, n-k-1, n-j-1)).  Without one both sides are
pairings ``(c, model, d, route, weight)``: the number
``c * integrate_radial(model, n, d, route)``, weighted by the monomial
``hub(x)^a conf(x)^b`` of the model for ``weight = (a, b)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial as R
from .fracint import ek_right
from .models import (CANONICAL_KIND, CANONICAL_RANGE, Model, WeightOp,
                     apply_weight, convert_distance, integrate_radial)
from .profiles import (ArgKind, Exponential, Profile1D, bump, cut, gaussian,
                       reparametrize)
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


# -- the two evaluators -------------------------------------------------------

def _route(route, p: R.TransformParams, spec: QuadratureSpec) -> Profile1D:
    """The profile at the end of a route."""
    f, *steps = route
    for step in steps:
        if isinstance(step, WeightOp):
            f = apply_weight(step, p, f)
        elif isinstance(step, ArgKind):
            f = reparametrize(f, step)
        elif isinstance(step, float):
            f = cut(f, step)
        else:
            model, dual, swapped = step
            q = R.TransformParams(p.n, p.n - p.k - 1, p.n - p.j - 1) \
                if swapped else p
            f = R.transform_profile(model, dual, q, f, spec)
    return f


#: each model's (hub, conformal factor, decay) in its canonical coordinate:
#: a pairing weight (a, b) is hub(x)^a conf(x)^b, with origin power a and
#: the decay at infinity decay(a, b) (None on the ball, which ends at 1)
_MONOMIAL = {
    Model.BeltramiKlein: (lambda x: x, lambda x: 1 - x * x, lambda a, b: None),
    Model.Hyperboloid: (np.tanh, np.cosh, lambda a, b: Exponential(-b)),
    Model.EuclideanAffine: (lambda x: x, lambda x: 1 + x * x,
                            lambda a, b: -(a + 2.0 * b))}


def _pairing(side, p: R.TransformParams, spec: QuadratureSpec) -> float:
    c, model, d, route, weight = side
    f = _route(route, p, spec)
    if weight is None:
        return c * integrate_radial(model, p.n, d, f, spec)
    (a, b), (hub, conf, decay) = weight, _MONOMIAL[model]
    w = Profile1D(lo=0.0, hi=CANONICAL_RANGE[model][1],
                  fn=lambda x: hub(x) ** a * conf(x) ** b,
                  arg_kind=CANONICAL_KIND[model], decay_hint=decay(a, b),
                  origin_power=a)
    return c * integrate_radial(model, p.n, d, f, spec, weight=w)


def run_identity(row, p, spec: QuadratureSpec) -> IdentityResult:
    """One row of ``IDENTITIES`` at the triple ``p`` (a ``TransformParams``;
    None for the row's own)."""
    name, triple, grid, sides = row
    p = p or R.TransformParams(*triple)
    lhs, rhs = sides(p)
    if grid is None:
        err = _rel(_pairing(lhs, p, spec), _pairing(rhs, p, spec))
    else:
        err = _rel(_route(lhs, p, spec)(grid), _route(rhs, p, spec)(grid))
    return IdentityResult(name, err, 1e-8)


# -- profiles of the table ----------------------------------------------------

_ALPHA = 2.0      # the power of the weighted dualities and their constants

_GAUSS = gaussian()
_SINH_GAUSS = gaussian(arg_kind=ArgKind.SinhDistance)
_BALL_GAUSS = Profile1D(lo=0.0, hi=1.0, fn=lambda b: np.exp(-b * b),
                        arg_kind=ArgKind.BallRadius)
#: the zonal gaussian exp(-sinh^2 rho), in geodesic and in cosh distance
_GEO_GAUSS = Profile1D(lo=0.0, hi=math.inf,
                       fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                       arg_kind=ArgKind.GeodesicDistance, decay_hint=math.inf,
                       label="zonal gaussian")
_COSH_GAUSS = Profile1D(lo=1.0, hi=math.inf, fn=lambda s: np.exp(1.0 - s * s),
                        arg_kind=ArgKind.CoshDistance, decay_hint=math.inf,
                        label="zonal gaussian")


def _elliptic_base(kind: ArgKind) -> Profile1D:
    return Profile1D(lo=0.0, hi=1.0 + 1e-12,
                     fn=lambda u: np.exp(-2.0 * u * u) + 0.3 * u * u,
                     arg_kind=kind)


def _chord_cap(p: R.TransformParams, a: float) -> Profile1D:
    """exp(-s^2) (a^2 - s^2)_+^e, e = (alpha+k-j)/2 - 1, on the ball."""
    e = (_ALPHA + p.k - p.j) / 2.0 - 1.0
    return Profile1D(
        lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
        fn=lambda s: np.exp(-s * s)
        * np.where(s < a, (a * a - s * s) ** e, 0.0),
        support=min(a, 1.0 - 1e-15) if a <= 1 else a, edge_exponent=e)


def _affine_cap(p: R.TransformParams) -> Profile1D:
    """exp(-s^2) (1 - s^2)_+^((k-j)/2) on affine planes."""
    gap = p.half_gap
    return Profile1D(
        lo=0.0, hi=math.inf, arg_kind=ArgKind.EuclideanRadius,
        fn=lambda s: np.exp(-s * s)
        * np.where(s < 1.0, (1 - s * s) ** gap, 0.0),
        support=1.0, edge_exponent=gap)


def _hyper_cap(p: R.TransformParams, b: float) -> Profile1D:
    """exp(-sinh^2) (cosh^2 b - cosh^2)_+^((k-j)/2) cosh^-(k+1), geodesic."""
    gap = p.half_gap
    chb2 = math.cosh(b) ** 2

    def fn(rho):
        rho = np.asarray(rho, dtype=float)
        ch = np.cosh(rho)
        return np.where(rho < b, np.exp(-np.sinh(rho) ** 2)
                        * np.maximum(chb2 - ch * ch, 0.0) ** gap
                        * ch ** (-(p.k + 1.0)), 0.0)

    return Profile1D(lo=0.0, hi=math.inf, fn=fn,
                     arg_kind=ArgKind.GeodesicDistance, support=b,
                     edge_exponent=gap)


# the measure lifts of the affine, ball and hyperboloid gaussians

def _lift_angle(n: int) -> Profile1D:
    return Profile1D(
        lo=0.0, hi=math.pi / 2,
        fn=lambda th: np.exp(-np.tan(th) ** 2) / np.cos(th) ** (n + 1),
        arg_kind=ArgKind.Angle)


def _lift_geodesic(n: int) -> Profile1D:
    return Profile1D(
        lo=0.0, hi=math.inf,
        fn=lambda rho: np.exp(-np.tanh(rho) ** 2) / np.cosh(rho) ** (n + 1),
        arg_kind=ArgKind.GeodesicDistance, decay_hint=Exponential(n + 1.0))


def _lift_projective(n: int) -> Profile1D:
    return Profile1D(
        lo=0.0, hi=math.pi / 4,
        fn=lambda th: np.exp(-np.sinh(np.arctanh(np.tan(th))) ** 2)
        / np.cos(2 * th) ** ((n + 1) / 2.0),
        arg_kind=ArgKind.Angle)


# -- the table ----------------------------------------------------------------

_AFF, _BK, _HYP = Model.EuclideanAffine, Model.BeltramiKlein, Model.Hyperboloid
_ELL, _PRJ = Model.Elliptic, Model.Projective


def _cap_chord_row(a: float):
    """Dual chord transform against a truncated-cap weight at radius a."""
    cut = (a,) if a < 1 else ()
    return (f"cap_weight_duality_dual_chord_a{a}", (5, 1, 2), None, lambda p: (
        (1.0, _BK, p.j, (_BALL_GAUSS, (_BK, True, False)) + cut, None),
        (lambda1(_ALPHA, p.j, p.k), _BK, p.k, (_chord_cap(p, a),), None)))


IDENTITIES = (
    # -- transitions: two routes on one grid
    # zonal hyperbolic transform against the weighted chord route
    ("transition_hyper_via_chord", (4, 1, 2), np.linspace(0.1, 2.0, 24),
     lambda p: ((_COSH_GAUSS, (_HYP, False, False), ArgKind.GeodesicDistance),
                (_GEO_GAUSS, WeightOp.M, (_BK, False, False), WeightOp.N))),
    ("transition_affine_via_elliptic", (4, 1, 2), np.linspace(0.1, 2.2, 24),
     lambda p: ((_GAUSS, (_AFF, False, False)),
                (_GAUSS, WeightOp.M0, ArgKind.CosAngle, (_ELL, False, False),
                 ArgKind.Angle, WeightOp.N0))),
    # the projective transform itself computed through the chord model
    ("transition_hyper_via_projective", (4, 1, 2), np.linspace(0.15, 1.8, 20),
     lambda p: ((_COSH_GAUSS, (_HYP, False, False), ArgKind.GeodesicDistance),
                (_GEO_GAUSS, WeightOp.M1, WeightOp.M0_INV, ArgKind.BallRadius,
                 (_BK, False, False), WeightOp.N0_INV, WeightOp.N1))),
    # dual transform against the distance-inverted forward route
    ("dual_affine_via_inversion_map", (5, 1, 2), np.linspace(0.25, 2.0, 20),
     lambda p: ((_GAUSS, (_AFF, True, False)),
                (_GAUSS, WeightOp.V, (_AFF, False, True), WeightOp.U))),
    # forward kernel at the swapped triple equals the dual kernel.  Both
    # rows have the same c, pre and post there and run ek_left on one
    # function, so the error is 0.0 by construction; the row stays as a
    # guard of the table (a step or row that routes elsewhere shows here).
    ("elliptic_orthogonality", (5, 1, 2), np.linspace(0.08, 0.95, 24),
     lambda p: ((_elliptic_base(ArgKind.CosAngle), (_ELL, False, True)),
                (_elliptic_base(ArgKind.SinAngle), (_ELL, True, False)))),
    # -- dualities and measure lifts: two pairings
    # total mass is preserved by the forward chord transform
    ("mass_duality_chord", (4, 1, 2), None, lambda p: (
        (1.0, _BK, p.k, (_BALL_GAUSS, (_BK, False, False)), None),
        (1.0, _BK, p.j, (_BALL_GAUSS,), None))),
    ("power_weight_duality_chord", (5, 1, 2), None, lambda p: (
        (1.0, _BK, p.k, (_BALL_GAUSS, (_BK, False, False)),
         (_ALPHA + p.k - p.n, 0)),
        (lambda2(_ALPHA, p.n, p.j, p.k), _BK, p.j, (_BALL_GAUSS,),
         (_ALPHA + p.k - p.n, 0)))),
    ("boundary_weight_duality_chord", (5, 1, 2), None, lambda p: (
        (1.0, _BK, p.k, (bump(0.7, arg_kind=ArgKind.BallRadius),
                         (_BK, False, False)), (0, (p.j - p.n) / 2.0)),
        (1.0, _BK, p.j, (bump(0.7, arg_kind=ArgKind.BallRadius),),
         (0, (p.k - p.n) / 2.0)))),
    _cap_chord_row(0.5),
    _cap_chord_row(1.0),
    ("singular_weight_duality_dual_chord", (5, 1, 2), None, lambda p: (
        (1.0, _BK, p.j, (_BALL_GAUSS, (_BK, True, False)),
         (-(_ALPHA + p.k - p.j), _ALPHA / 2.0 - 1.0)),
        (lambda1(_ALPHA, p.j, p.k), _BK, p.k, (_BALL_GAUSS,),
         (-_ALPHA, (_ALPHA + p.k - p.j) / 2.0 - 1.0)))),
    # integral of the dual transform over a ball as a weighted average
    ("ball_average_duality_affine", (5, 1, 2), None, lambda p: (
        (1.0, _AFF, p.j, (_GAUSS, (_AFF, True, False), 1.0), None),
        (math.pi ** p.half_gap / gamma_fn(1.0 + p.half_gap), _AFF, p.k,
         (_affine_cap(p),), None))),
    # weighted mass is preserved by the distance-inversion map
    ("inversion_map_weighted_mass", (5, 1, 2), None, lambda p: (
        (1.0, _AFF, p.k, (_GAUSS,), (0, -(p.j + 1) / 2.0)),
        (sphere_area(p.n - p.k - 1) / sphere_area(p.k), _AFF, p.n - p.k - 1,
         (_GAUSS, WeightOp.V), (0, -(p.j + 1) / 2.0)))),
    ("measure_lift_affine_elliptic", (4, 1, 2), None, lambda p: (
        (1.0, _AFF, p.j, (_GAUSS,), None),
        (sphere_area(p.n) / sphere_area(p.j), _ELL, p.j, (_lift_angle(p.n),),
         None))),
    ("measure_lift_ball_hyperboloid", (4, 1, 2), None, lambda p: (
        (1.0, _BK, p.j, (_BALL_GAUSS,), None),
        (1.0, _HYP, p.j, (_lift_geodesic(p.n),), None))),
    ("measure_lift_hyperboloid_projective", (4, 1, 2), None, lambda p: (
        (1.0, _HYP, p.j, (_GEO_GAUSS,), None),
        (sphere_area(p.n) / sphere_area(p.j), _PRJ, p.j,
         (_lift_projective(p.n),), None))),
    ("mass_duality_hyper", (4, 1, 2), None, lambda p: (
        (1.0, _HYP, p.k, (_COSH_GAUSS, (_HYP, False, False)), None),
        (1.0, _HYP, p.j, (_COSH_GAUSS,), None))),
    ("weighted_mass_duality_hyper", (4, 1, 2), None, lambda p: (
        (1.0, _HYP, p.k, (_COSH_GAUSS, (_HYP, False, False)), (0, p.j - p.n)),
        (1.0, _HYP, p.j, (_COSH_GAUSS,), (0, p.k - p.n)))),
    ("tangent_weight_duality_hyper", (5, 1, 2), None, lambda p: (
        (1.0, _HYP, p.k, (_COSH_GAUSS, (_HYP, False, False)),
         (_ALPHA + p.k - p.n, p.j - p.n)),
        (lambda2(_ALPHA, p.n, p.j, p.k), _HYP, p.j, (_COSH_GAUSS,),
         (_ALPHA + p.k - p.n, p.k - p.n)))),
    # ball-restricted integral of the dual transform (cap kernel)
    ("cap_duality_dual_hyper", (4, 1, 2), None, lambda p: (
        (1.0, _HYP, p.j, (_SINH_GAUSS, (_HYP, True, False), math.sinh(1.0)),
         (0, -(p.k + 1.0))),
        (math.pi ** p.half_gap / (gamma_fn(p.half_gap + 1.0)
                                  * math.cosh(1.0) ** (p.k - p.j)),
         _HYP, p.k, (_hyper_cap(p, 1.0),), None))),
    ("cosh_weight_duality_dual_hyper", (5, 1, 2), None, lambda p: (
        (1.0, _HYP, p.j, (_SINH_GAUSS, (_HYP, True, False)),
         (0, -(p.k - 1.0 + _ALPHA))),
        (lambda1(_ALPHA, p.j, p.k), _HYP, p.k, (_SINH_GAUSS,),
         (0, -(p.k - 1.0 + _ALPHA))))),
    # both sides carry the cosh power -(k-1+alpha): the form that follows
    # from the chord-model pair under the measure lift and that matches
    # direct quadrature (the asymmetric variant does not)
    ("tangent_weight_duality_dual_hyper", (5, 1, 2), None, lambda p: (
        (1.0, _HYP, p.j, (_SINH_GAUSS, (_HYP, True, False)),
         (p.j - p.k - _ALPHA, -(p.k - 1.0 + _ALPHA))),
        (lambda1(_ALPHA, p.j, p.k), _HYP, p.k, (_SINH_GAUSS,),
         (-_ALPHA, -(p.k - 1.0 + _ALPHA))))),
)


# -- closed forms and operator round trips ------------------------------------

def closed_form_identity(cf: R.ClosedFormId, p, spec) -> IdentityResult:
    """One closed-form pair at the triple ``p`` (None for the entry's own)."""
    pair = R.closed_form_pair(cf, p=p)
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
    t = np.linspace(0.0, 3.0, 16)
    errs = []
    for alpha in (0.5, 1.0, 2.0):
        got = ek_right(alpha, _GAUSS, t, spec)
        errs.append(_rel(got, np.exp(-t * t)))
    return IdentityResult("gaussian_fixed_point_right_integral",
                          max(errs), 1e-10)


def weight_op_round_trips(spec) -> IdentityResult:
    p = R.TransformParams(5, 1, 2)
    x = np.linspace(0.02, 2.5, 64)
    errs = []
    geo, eu = _GEO_GAUSS, _GAUSS
    pairs = [
        (WeightOp.M, WeightOp.M_INV, geo),
        (WeightOp.N_INV, WeightOp.N, geo),
        (WeightOp.P, WeightOp.P_INV, geo),
        (WeightOp.Q_INV, WeightOp.Q, geo),
        (WeightOp.M0, WeightOp.M0_INV, eu),
        (WeightOp.N0_INV, WeightOp.N0, eu),
        (WeightOp.P0, WeightOp.P0_INV, eu),
        (WeightOp.Q0_INV, WeightOp.Q0, eu),
        (WeightOp.M1, WeightOp.M1_INV, geo),
        (WeightOp.N1_INV, WeightOp.N1, geo),
        (WeightOp.P1, WeightOp.P1_INV, geo),
        (WeightOp.Q1_INV, WeightOp.Q1, geo),
    ]
    for fwd, inv, prof in pairs:
        back = apply_weight(inv, p, apply_weight(fwd, p, prof))
        errs.append(float(np.max(np.abs(back(x) - prof(x)))))
    return IdentityResult("weight_op_round_trips", max(errs), 1e-14)


def conversion_cycle(spec) -> IdentityResult:
    vals = np.linspace(0.01, 0.93, 64)
    a = convert_distance(vals, Model.EuclideanAffine, Model.Elliptic)
    b = convert_distance(a, Model.Elliptic, Model.Hyperboloid)
    c = convert_distance(b, Model.Hyperboloid, Model.BeltramiKlein)
    d = convert_distance(c, Model.BeltramiKlein, Model.EuclideanAffine)
    return IdentityResult("conversion_cycle", float(np.max(np.abs(d - vals))),
                          1e-14)


# -- registry -----------------------------------------------------------------

def identity_suite(spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Run every deterministic identity; returns a list of IdentityResult."""
    results = [run_identity(row, None, spec) for row in IDENTITIES]
    results += [fn(spec) for fn in (gaussian_fixed_point,
                                    weight_op_round_trips, conversion_cycle)]
    results.extend(closed_form_identity(cf, None, spec)
                   for cf in R.ClosedFormId)
    return results
