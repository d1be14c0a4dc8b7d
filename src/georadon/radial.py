"""Exact forward and dual transforms of radial/zonal functions in all five
models, the closed-form catalog, existence predicates with sharp exponents,
and radial inversion.

Every operator here is a weighted one-dimensional fractional integral,
left-sided for the duals and the elliptic forward map, right-sided for the
other forward maps, with power weights in front.  Inversion therefore
strips the weights, applies the matching fractional derivative, and
restores the weights; it inverts the forward map exactly as discretized
rather than through an independent scheme.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, DomainError, GeoradonError
from .fracint import ek_deriv_left, ek_deriv_right, ek_left, ek_right
from .models import Model, WeightOp, apply_weight
from .profiles import (ArgKind, Exponential, Profile1D, cut, reparametrize,
                       transformed)
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .special import beta as beta_fn
from .special import lambda1, lambda2, sphere_area
from .spectral import ChebInterpolant, cheb_nodes


class ReconstructionError(GeoradonError, ArithmeticError):
    """Re-applying the forward map to a reconstruction missed the data."""


#: the largest n whose unit sphere has an area that is a normal double
#: (|S^438| = 3.8e-309); every transform constant holds such areas
MAX_DIMENSION = 437


@dataclass(frozen=True)
class TransformParams:
    """The index triple (n, j, k): j-geodesics integrated over k-geodesics."""

    n: int
    j: int
    k: int

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIMENSION:
            raise DomainError(
                f"need 2 <= n <= {MAX_DIMENSION}, got n={self.n}")
        if not (0 <= self.j < self.k <= self.n - 1):
            raise DomainError(
                f"need 0 <= j < k <= n-1, got (n,j,k)=({self.n},{self.j},{self.k})")

    @property
    def half_gap(self) -> float:
        """(k - j)/2, the fractional order of every kernel here."""
        return 0.5 * (self.k - self.j)


def _as_array(x):
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return xv, np.ndim(x) == 0


def _maybe_scalar(vals, scalar):
    return float(vals[0]) if scalar else vals


# -- the transform table -----------------------------------------------------------

@dataclass(frozen=True)
class Transform:
    """One (model, direction) as a weighted fractional integral of order
    (k-j)/2, in one coordinate for input and output:

        out(x) = c * x^post * EK[y^pre f(y)](x),

    EK left-sided (``left``) or right-sided, ``weights`` = (c, pre, post) as
    functions of the index triple.  ``span`` = [lo, hi) is the coordinate
    range of the input and the output; a right-sided integral stops at a
    finite ``hi``.  A projective row instead runs the hyperboloid row of the
    same direction: ``route`` = (j-side, k-side) weight operators from the
    hyperboloid, whose inverses bring the input there and the output back.
    """

    name: str                      # the public function
    kind: ArgKind                  # coordinate of the input and the output
    dual: bool
    span: tuple
    left: bool = False
    weights: tuple = ()
    route: Optional[tuple] = None


_PLANE = (lambda p: math.pi ** p.half_gap, lambda p: 0.0, lambda p: 0.0)
_HYPER = (lambda p: math.pi ** p.half_gap, lambda p: p.j - 1.0,
          lambda p: 1.0 - p.k)
_ELLIPTIC = (lambda p: sphere_area(p.j) * math.pi ** p.half_gap
             / sphere_area(p.k), lambda p: p.j - 1.0, lambda p: 1.0 - p.k)
#: every dual shares one left-sided kernel:
#: (c / r^(n-j-2)) int_0^r phi(s)(r^2-s^2)^((k-j)/2-1) s^(n-k-1) ds
_DUAL = (lambda p: math.pi ** p.half_gap * sphere_area(p.n - p.k - 1)
         / sphere_area(p.n - p.j - 1), lambda p: p.n - p.k - 2.0,
         lambda p: p.j + 2.0 - p.n)

_HALF_LINE = (0.0, math.inf)
_TO_ONE = math.nextafter(1.0, 2.0)       # a half-open end that takes in 1

TRANSFORMS = {(m, t.dual): t for m, t in (
    (Model.EuclideanAffine,
     Transform("radon_affine_radial", ArgKind.EuclideanRadius, False,
               _HALF_LINE, weights=_PLANE)),
    (Model.BeltramiKlein,
     Transform("radon_chord_radial", ArgKind.BallRadius, False, (0.0, 1.0),
               weights=_PLANE)),
    (Model.Hyperboloid,
     Transform("radon_hyper_zonal", ArgKind.CoshDistance, False,
               (1.0, math.inf), weights=_HYPER)),
    (Model.Elliptic,
     Transform("radon_elliptic_zonal", ArgKind.CosAngle, False,
               (math.ulp(0.0), _TO_ONE), left=True, weights=_ELLIPTIC)),
    (Model.Projective,
     Transform("radon_projective_zonal", ArgKind.Angle, False,
               (0.0, math.pi / 4), route=(WeightOp.M1, WeightOp.N1))),
    (Model.EuclideanAffine,
     Transform("dual_affine_radial", ArgKind.EuclideanRadius, True,
               _HALF_LINE, left=True, weights=_DUAL)),
    (Model.BeltramiKlein,
     Transform("dual_chord_radial", ArgKind.BallRadius, True, (0.0, 1.0),
               left=True, weights=_DUAL)),
    (Model.Hyperboloid,
     Transform("dual_hyper_zonal", ArgKind.SinhDistance, True, _HALF_LINE,
               left=True, weights=_DUAL)),
    (Model.Elliptic,
     Transform("dual_elliptic_zonal", ArgKind.SinAngle, True, (0.0, _TO_ONE),
               left=True, weights=_DUAL)),
    (Model.Projective,
     Transform("dual_projective_zonal", ArgKind.Angle, True,
               (0.0, math.pi / 4), route=(WeightOp.P1, WeightOp.Q1))),
)}


def transform_function(model: Model, dual: bool = False) -> Callable:
    """The public forward (or dual) transform of a model."""
    return globals()[TRANSFORMS[model, dual].name]


def _check_span(t: Transform, xv):
    """Raise ``DomainError`` unless every ``xv`` lies in the row's span."""
    lo, hi = t.span
    if not np.all((xv >= lo) & (xv < hi)):
        raise DomainError(
            f"{t.name} needs {t.kind.value} coordinates in [{lo}, {hi})")


def _transform(model: Model, dual: bool, p: TransformParams, f: Profile1D,
               x, spec: QuadratureSpec):
    t = TRANSFORMS[model, dual]
    if f.arg_kind is not t.kind:
        raise DomainError(f"{t.name} expects a {t.kind.value} profile")
    xv, scalar = _as_array(x)
    _check_span(t, xv)
    vals = _kernel(t, p, f, xv, spec) if t.route is None \
        else np.atleast_1d(_routed(t, p, f, spec)(xv))
    return _maybe_scalar(vals, scalar)


def _kernel(t: Transform, p: TransformParams, f: Profile1D, xv,
            spec: QuadratureSpec):
    """c x^post EK[y^pre f](x) of a row that is not routed.

    A right-sided integral stops at a finite end of the span, and over an
    unbounded range ``ek_right`` certifies its tail.  On a left-sided row
    post = -(2a + pre), so below x = 1e-7 the powers cancel: for an input
    f = x^q h with h regular at 0 the value is the Beta integral
    c B(a, (pre + q)/2 + 1) x^q h(0) / Gamma(a), finite for q > -2 - pre.
    """
    c, pre, post = t.weights
    a = p.half_gap
    if not t.left:
        g = (cut(f, t.span[1]) if math.isfinite(t.span[1]) else f) \
            .with_power(pre(p))
        return c(p) * xv ** post(p) * np.asarray(ek_right(a, g, xv, spec))
    g = f.with_power(pre(p))
    if g.origin_power <= -2.0:
        raise DivergenceError(
            f"{t.name} diverges: the input is not locally integrable "
            f"against s^{pre(p) + 1.0:g} near 0")
    vals = np.empty_like(xv)
    tiny = xv < 1e-7
    if np.any(~tiny):
        vals[~tiny] = c(p) * xv[~tiny] ** post(p) \
            * np.asarray(ek_left(a, g, xv[~tiny], spec))
    if np.any(tiny):
        q, x0 = f.origin_power, max(f.lo, 1e-9)
        if q < 0.0 and np.any(xv[tiny] == 0.0):
            raise DivergenceError(
                f"{t.name} is infinite at 0 for an input x^{q:g} near 0")
        h0 = float(f(np.array([x0]))[0]) / x0 ** q
        vals[tiny] = c(p) * beta_fn(a, (pre(p) + q) / 2.0 + 1.0) \
            / math.gamma(a) * h0 * xv[tiny] ** q
    return vals


def _inverse(op: WeightOp) -> WeightOp:
    """The inverse weight operator ("M1" -> "M1inv")."""
    return WeightOp(op.value + "inv")


def _routed(t: Transform, p: TransformParams, f: Profile1D,
            spec: QuadratureSpec) -> Profile1D:
    """A projective transform computed through the hyperboloid: strip the
    projective weights, transform there, restore."""
    j_op, k_op = t.route
    via = TRANSFORMS[Model.Hyperboloid, t.dual]
    g = reparametrize(apply_weight(_inverse(j_op), p, f), via.kind)
    lazy = transform_profile(Model.Hyperboloid, t.dual, p, g, spec)
    mid = reparametrize(lazy, ArgKind.GeodesicDistance)
    return apply_weight(_inverse(k_op), p, mid)


# -- forward transforms --------------------------------------------------------

def radon_affine_radial(p: TransformParams, f0: Profile1D, s,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward transform of a radial function on affine planes.

    F(s) = sigma_{k-j-1} * int_s^inf f0(r) (r^2-s^2)^((k-j)/2-1) r dr.
    Raises ``DivergenceError`` when the tail criterion fails (the transform
    would then be identically infinite).
    """
    return _transform(Model.EuclideanAffine, False, p, f0, s, spec)


def radon_chord_radial(p: TransformParams, f0: Profile1D, s,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward chord transform on the unit ball; the integral stops at 1."""
    return _transform(Model.BeltramiKlein, False, p, f0, s, spec)


def radon_hyper_zonal(p: TransformParams, f1: Profile1D, s,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward zonal transform on the hyperboloid, in the variable
    s = cosh(distance) >= 1:

    F(s) = sigma_{k-j-1} s^(1-k) int_s^inf f1(r)(r^2-s^2)^((k-j)/2-1) r^j dr.
    """
    return _transform(Model.Hyperboloid, False, p, f1, s, spec)


def radon_elliptic_zonal(p: TransformParams, f1: Profile1D, s,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward zonal transform on the compact Grassmannian, in the variable
    s = cos(angle) in (0, 1]:

    F(s) = [sig_j sig_{k-j-1} / (sig_k s^(k-1))]
           * int_0^s f1(t)(s^2-t^2)^((k-j)/2-1) t^j dt.
    """
    return _transform(Model.Elliptic, False, p, f1, s, spec)


def radon_projective_zonal(p: TransformParams, f: Profile1D, theta,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward zonal transform in the projective model, computed through the
    hyperboloid: strip the projective weights, transform there, restore."""
    return _transform(Model.Projective, False, p, f, theta, spec)


# -- dual transforms -------------------------------------------------------------

def dual_affine_radial(p: TransformParams, phi0: Profile1D, r,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual transform of a radial function on affine k-planes."""
    return _transform(Model.EuclideanAffine, True, p, phi0, r, spec)


def dual_chord_radial(p: TransformParams, phi0: Profile1D, r,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual chord transform on the unit ball (same kernel, r < 1)."""
    return _transform(Model.BeltramiKlein, True, p, phi0, r, spec)


def dual_elliptic_zonal(p: TransformParams, phi1: Profile1D, r,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual zonal transform on the compact Grassmannian, r = sin(angle)."""
    return _transform(Model.Elliptic, True, p, phi1, r, spec)


def dual_hyper_zonal(p: TransformParams, phi1: Profile1D, r,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual zonal transform on the hyperboloid, r = sinh(distance)."""
    return _transform(Model.Hyperboloid, True, p, phi1, r, spec)


def dual_projective_zonal(p: TransformParams, phi: Profile1D, theta,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual zonal transform in the projective model via the hyperboloid."""
    return _transform(Model.Projective, True, p, phi, theta, spec)


# -- profile wrappers (lazy transform results) ----------------------------------

def transform_profile(model: Model, dual: bool, p: TransformParams,
                      f: Profile1D,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> Profile1D:
    """The forward (or dual) transform of ``f`` as a lazy profile on the
    row's span, with ``f``'s record carried through the row
    (``profiles.transformed``; a right-sided row cuts ``f`` at a finite end
    of the span first).  A projective row takes the record of its route.
    """
    t = TRANSFORMS[model, dual]
    lo, hi = t.span

    def fn(x):
        fwd = transform_function(model, dual)
        return np.asarray(fwd(p, f, np.atleast_1d(x), spec))

    label = f"{t.name}[{f.label}]"
    if t.route is not None:
        return replace(_routed(t, p, f, spec), lo=lo, hi=hi, fn=fn,
                       label=label)
    c, pre, post = t.weights
    if not t.left and math.isfinite(hi):
        f = cut(f, hi)
    return transformed(f, fn, t.kind, lo, hi, p.half_gap, pre(p), post(p),
                       t.left, label)


# -- closed-form catalog ---------------------------------------------------------

class ClosedFormId(enum.Enum):
    """Analytic input/output pairs used for conformance testing."""

    CHORD_INVERSE_POWER = "chord_inverse_power"   # forward chord, singular power
    CHORD_CAP = "chord_cap"                       # forward chord, truncated cap
    DUAL_CHORD_POWER = "dual_chord_power"         # dual chord, pure power
    DUAL_CHORD_EDGE = "dual_chord_edge"           # dual chord, boundary blow-up
    HYPER_CAP = "hyper_cap"                       # forward hyperbolic, cut cap


_CF_DEFAULTS = {
    ClosedFormId.CHORD_INVERSE_POWER: dict(alpha=2.0, n=5, j=1, k=2),
    ClosedFormId.CHORD_CAP: dict(alpha=2.0, a=1.0, n=4, j=0, k=2),
    ClosedFormId.DUAL_CHORD_POWER: dict(alpha=2.0, n=4, j=0, k=2),
    ClosedFormId.DUAL_CHORD_EDGE: dict(n=4, j=0, k=2),
    ClosedFormId.HYPER_CAP: dict(alpha=2.0, a=2.0, n=3, j=0, k=1),
}


@dataclass(frozen=True)
class ClosedFormPair:
    params: TransformParams
    input: Profile1D
    expected: Profile1D
    constant: float
    model: Model          # the transform the pair belongs to
    dual: bool


def closed_form_pair(cf: ClosedFormId, p: Optional[TransformParams] = None,
                     alpha: Optional[float] = None,
                     a: Optional[float] = None) -> ClosedFormPair:
    """Analytic (input, expected output, constant) for one catalog entry."""
    d = _CF_DEFAULTS[cf]
    if p is None:
        p = TransformParams(d["n"], d["j"], d["k"])
    alpha = d.get("alpha") if alpha is None else alpha
    a = d.get("a") if a is None else a
    n, j, k = p.n, p.j, p.k

    if cf is ClosedFormId.CHORD_INVERSE_POWER:
        lam = lambda1(alpha, j, k)
        pin = -(alpha + k - j)
        ein = alpha / 2.0 - 1.0
        fin = Profile1D(
            lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
            fn=lambda r: r ** pin * (1.0 - r * r) ** ein,
            origin_power=pin, support=1.0, edge_exponent=ein,
            core=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            label="inverse-power cap")
        eout = (alpha + k - j) / 2.0 - 1.0
        fout = Profile1D(
            lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
            fn=lambda s: lam * (1.0 - s * s) ** eout * s ** (-alpha),
            origin_power=-alpha, support=1.0, edge_exponent=eout,
            label="expected")
        return ClosedFormPair(p, fin, fout, lam, Model.BeltramiKlein, False)

    if cf is ClosedFormId.CHORD_CAP:
        lam = lambda1(alpha, j, k)
        ein = alpha / 2.0 - 1.0
        fin = Profile1D(
            lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
            fn=lambda r: np.where(r < a, (a * a - r * r) ** ein, 0.0),
            support=a, edge_exponent=ein,
            core=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            label="truncated cap")
        eout = (alpha + k - j) / 2.0 - 1.0
        fout = Profile1D(
            lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
            fn=lambda s: lam * np.where(s < a, (a * a - s * s) ** eout, 0.0)
            if eout != 0.0 else lam * (np.asarray(s) < a).astype(float),
            support=a, edge_exponent=eout, label="expected")
        return ClosedFormPair(p, fin, fout, lam, Model.BeltramiKlein, False)

    if cf is ClosedFormId.DUAL_CHORD_POWER:
        lam = lambda2(alpha, n, j, k)
        pw = alpha + k - n
        fin = Profile1D(lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
                        fn=lambda s: s ** pw, origin_power=pw, label="power")
        fout = Profile1D(lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
                         fn=lambda r: lam * r ** pw, origin_power=pw,
                         label="expected")
        return ClosedFormPair(p, fin, fout, lam, Model.BeltramiKlein, True)

    if cf is ClosedFormId.DUAL_CHORD_EDGE:
        fin = Profile1D(lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
                        fn=lambda s: (1.0 - s * s) ** ((j - n) / 2.0),
                        label="boundary blow-up")
        fout = Profile1D(lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
                         fn=lambda r: (1.0 - r * r) ** ((k - n) / 2.0),
                         label="expected")
        return ClosedFormPair(p, fin, fout, 1.0, Model.BeltramiKlein, True)

    if cf is ClosedFormId.HYPER_CAP:
        if not a > 1.0:
            raise DomainError("the hyperbolic cap needs a > 1")
        lam = lambda1(alpha, j, k) / a ** (k - j)
        ein = alpha / 2.0 - 1.0
        pw = 1.0 - alpha - k
        fin = Profile1D(
            lo=1.0, hi=math.inf, arg_kind=ArgKind.CoshDistance,
            fn=lambda s: np.where(s < a, (a * a - s * s) ** ein * s ** pw, 0.0),
            support=a, edge_exponent=ein,
            core=lambda s: np.asarray(s, dtype=float) ** pw,
            label="hyperbolic cap")
        eout = (alpha + k - j) / 2.0 - 1.0
        fout = Profile1D(
            lo=1.0, hi=math.inf, arg_kind=ArgKind.CoshDistance,
            fn=lambda s: lam * np.where(s < a, (a * a - s * s) ** eout * s ** pw,
                                        0.0),
            support=a, edge_exponent=eout, label="expected")
        return ClosedFormPair(p, fin, fout, lam, Model.Hyperboloid, False)

    raise DomainError(f"unknown closed form {cf}")


def evaluate_closed_form(pair: ClosedFormPair, coords,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Run the transform the pair belongs to on its input."""
    return transform_function(pair.model, pair.dual)(pair.params, pair.input,
                                                     coords, spec)


# -- existence predicates --------------------------------------------------------

class ExistenceKind(enum.Enum):
    AFFINE_WEIGHTED_L1 = "affine_weighted_l1"      # tail-weight integrability
    AFFINE_FORWARD_POWER = "affine_forward_power"  # sup |tau|^lam |f| bound
    AFFINE_DUAL_POWER = "affine_dual_power"        # sup |zeta|^del |phi| bound
    HYPER_FORWARD_POWER = "hyper_forward_power"    # sup cosh^lam |f| bound
    HYPER_DUAL_POWER = "hyper_dual_power"          # sup sinh^del |phi| bound
    AFFINE_LEBESGUE = "affine_lebesgue"            # L^p exponent bound
    HYPER_LEBESGUE = "hyper_lebesgue"              # L^p exponent bound


class Verdict(enum.Enum):
    SUFFICIENT = "sufficient"
    SHARP_VIOLATION = "sharp-violation"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExistenceResult:
    verdict: Verdict
    threshold: float
    witness_exponent: Optional[float] = None
    note: str = ""


def _sharp_exponent(kind: ExistenceKind, p: TransformParams):
    """The sharp exponent of a condition at p, and the side of it on which
    the condition holds."""
    n, j, k = p.n, p.j, p.k
    return {
        ExistenceKind.AFFINE_WEIGHTED_L1: (k - j, "above"),
        ExistenceKind.AFFINE_FORWARD_POWER: (k - j, "above"),
        ExistenceKind.AFFINE_DUAL_POWER: (n - k, "below"),
        ExistenceKind.HYPER_FORWARD_POWER: (k - 1, "above"),
        ExistenceKind.HYPER_DUAL_POWER: (n - k, "below"),
        ExistenceKind.AFFINE_LEBESGUE: ((n - j) / (k - j), "below"),
        ExistenceKind.HYPER_LEBESGUE: ((n - 1) / max(k - 1, 1e-12), "below"),
    }[kind]


def existence_predicate(kind: ExistenceKind, p: TransformParams,
                        subject) -> ExistenceResult:
    """Evaluate a sufficient existence condition on an exponent or profile.

    The conditions are one-sided: SUFFICIENT certifies convergence,
    SHARP_VIOLATION means the subject sits at or past an exponent where an
    explicit witness diverges, and INCONCLUSIVE is returned when a profile
    carries no usable hints (the criteria are sufficient, not necessary).
    """
    thr, side = _sharp_exponent(kind, p)

    if isinstance(subject, Profile1D):
        expo = None
        if kind in (ExistenceKind.AFFINE_WEIGHTED_L1,
                    ExistenceKind.AFFINE_FORWARD_POWER,
                    ExistenceKind.HYPER_FORWARD_POWER):
            if subject.support is not None and math.isfinite(subject.support):
                return ExistenceResult(Verdict.SUFFICIENT, thr,
                                       note="compact support")
            expo = subject.decay_hint
            if isinstance(expo, Exponential):
                # a rate above 0 outruns every power
                expo = math.inf if expo.rate > 0.0 else None
        elif kind in (ExistenceKind.AFFINE_DUAL_POWER,
                      ExistenceKind.HYPER_DUAL_POWER):
            expo = -subject.origin_power if subject.origin_power != 0.0 else 0.0
        if expo is None:
            return ExistenceResult(Verdict.INCONCLUSIVE, thr,
                                   note="no usable hint on the profile")
        subject = expo

    x = float(subject)
    if side == "above":
        if x > thr:
            return ExistenceResult(Verdict.SUFFICIENT, thr)
        return ExistenceResult(Verdict.SHARP_VIOLATION, thr, witness_exponent=x,
                               note=f"power witness at exponent {x} diverges")
    if x < thr:
        return ExistenceResult(Verdict.SUFFICIENT, thr)
    return ExistenceResult(Verdict.SHARP_VIOLATION, thr, witness_exponent=x,
                           note=f"power witness at exponent {x} diverges")


def sharp_witness_profile(kind: ExistenceKind, p: TransformParams) -> Profile1D:
    """The divergence witness at the sharp exponent for each condition."""
    thr = float(_sharp_exponent(kind, p)[0])
    powers = {  # x^-thr: lo, argument, origin exponent, label
        ExistenceKind.AFFINE_FORWARD_POWER: (
            1e-12, ArgKind.EuclideanRadius, -thr, "sharp forward power"),
        ExistenceKind.AFFINE_DUAL_POWER: (
            1e-300, ArgKind.EuclideanRadius, -thr, "sharp dual power"),
        ExistenceKind.HYPER_FORWARD_POWER: (
            1.0, ArgKind.CoshDistance, 0.0, "sharp hyper forward"),
        ExistenceKind.HYPER_DUAL_POWER: (
            1e-300, ArgKind.SinhDistance, -thr, "sharp hyper dual"),
    }
    if kind in powers:
        lo, arg_kind, origin, label = powers[kind]
        return Profile1D(lo=lo, hi=math.inf, arg_kind=arg_kind,
                         fn=lambda x: x ** (-thr), decay_hint=thr,
                         origin_power=origin, label=label)
    if kind is ExistenceKind.AFFINE_LEBESGUE:
        pw = (p.j - p.n) / thr                  # = j - k at the critical p
        return Profile1D(lo=0.0, hi=math.inf, arg_kind=ArgKind.EuclideanRadius,
                         fn=lambda r: (2.0 + r) ** pw / np.log(2.0 + r),
                         decay_hint=-pw, label="critical Lebesgue witness")
    if kind is ExistenceKind.HYPER_LEBESGUE and p.k > 1:
        # at k = 1 the bound p < (n-1)/(k-1) does not limit p: no witness
        pw = (1 - p.n) / thr                    # = 1 - k at the critical p
        return Profile1D(lo=1.0, hi=math.inf, arg_kind=ArgKind.CoshDistance,
                         fn=lambda s: s ** pw / np.log(1.0 + s),
                         decay_hint=-pw, label="critical hyper witness")
    raise DomainError(f"no witness for {kind}")


def truncated_forward_values(p: TransformParams, f: Profile1D, s: float,
                             cutoffs,
                             spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Forward-transform integrals truncated at increasing upper cutoffs.

    A divergence witness shows monotone growth across the cutoffs; a
    convergent input shows stabilization.
    """
    model = Model.Hyperboloid if f.arg_kind is ArgKind.CoshDistance \
        else Model.EuclideanAffine
    t = TRANSFORMS[model, False]
    return np.asarray([_kernel(t, p, cut(f, float(c)), s, spec)
                       for c in cutoffs])


def truncated_dual_values(p: TransformParams, phi: Profile1D, r: float,
                          lower_cutoffs,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dual-transform integrals truncated below at shrinking cutoffs."""
    rv, scalar = _as_array(r)
    return np.asarray([_maybe_scalar(_kernel(
        TRANSFORMS[Model.EuclideanAffine, True], p, _masked(phi, float(eps)),
        rv, spec), scalar) for eps in lower_cutoffs])


def _masked(phi: Profile1D, eps: float) -> Profile1D:
    """``phi`` set to 0 below ``eps``: a lower cut, a breakpoint, and no
    power at the origin."""
    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= eps, phi.fn(s), 0.0)

    return Profile1D(lo=0.0, hi=phi.hi, fn=fn, arg_kind=phi.arg_kind,
                     decay_hint=phi.decay_hint, breakpoints=(eps,),
                     label="masked")


# -- inversion --------------------------------------------------------------------

#: bound on the relative forward residual of a checked inversion
RESIDUAL_TOL = 1e-3


def invert_radial(model: Model, p: TransformParams, transformed: Profile1D,
                  out_range, dual: bool = False,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE,
                  check_residual: bool = True,
                  deriv_noise_rel: float = 1e-6) -> Profile1D:
    """Recover the input profile from a forward (or dual) transform result
    on the window ``out_range`` = (lo, hi).

    The transform is a power-weighted fractional integral, so inversion
    strips the weights, applies the matching fractional derivative on a
    96-interval Chebyshev grid over the window, and restores the weights.
    When ``check_residual`` is set, the forward map is re-applied to the
    reconstruction on the same window and a relative residual above
    ``RESIDUAL_TOL`` raises ``ReconstructionError``.  Every row, projective
    routes included, returns one window profile (``_window_profile``): on
    the row's span, constant (its value at ``lo``) below ``lo``, zero past
    ``hi``, with ``lo`` declared as a breakpoint where that extension
    kinks.  So a forward (right-sided) map fails the residual check when
    the window ends before the data is negligible, and a left-sided map
    when the window starts where the input is not yet flat.  A window with
    lo >= hi or outside the row's span raises ``DomainError``.
    """
    t = TRANSFORMS[model, dual]
    if transformed.arg_kind is not t.kind:
        raise DomainError(f"expected a {t.kind.value} profile")
    lo, hi = float(out_range[0]), float(out_range[1])
    if not lo < hi:
        raise DomainError(f"inversion window needs lo < hi, got ({lo}, {hi})")
    _check_span(t, np.array([lo, hi]))
    if t.route is not None:
        rec = _window_profile(t, _invert_routed(t, p, transformed, (lo, hi),
                                                spec, deriv_noise_rel),
                              lo, hi, transformed)
    else:
        c, pre, post = t.weights
        stripped = transformed.with_power(-post(p)).scaled(1.0 / c(p))
        grid = cheb_nodes(96, lo, hi)
        deriv = ek_deriv_left if t.left else ek_deriv_right
        vals = grid ** (-pre(p)) * deriv(p.half_gap, stripped, grid, spec,
                                         noise_rel=deriv_noise_rel)
        a, b = float(grid[0]), float(grid[-1])
        rec = _window_profile(t, ChebInterpolant(a, b, vals), a, b,
                              transformed)
    if check_residual:
        fwd = transform_function(model, dual)
        _residual_check(lambda x: np.asarray(fwd(p, rec, x, spec)),
                        transformed, lo, hi)
    return rec


def _invert_routed(t: Transform, p: TransformParams, transformed: Profile1D,
                   out_range, spec, deriv_noise_rel):
    """Invert a projective transform on the hyperboloid: apply the route's
    k-side operator, invert there, apply its j-side operator."""
    j_op, k_op = t.route
    via = TRANSFORMS[Model.Hyperboloid, t.dual]
    lift = math.sinh if t.dual else math.cosh
    # the window pulled back to the hyperboloid, kept off the origin
    window = tuple(lift(max(math.atanh(math.tan(th)), 1e-3))
                   for th in out_range)
    w = reparametrize(apply_weight(k_op, p, transformed), via.kind)
    rec_h = invert_radial(Model.Hyperboloid, p, w, window, dual=t.dual,
                          spec=spec, check_residual=False,
                          deriv_noise_rel=deriv_noise_rel)
    return apply_weight(j_op, p,
                        reparametrize(rec_h, ArgKind.GeodesicDistance))


def _window_profile(t: Transform, inner: Callable, lo: float, hi: float,
                    transformed: Profile1D) -> Profile1D:
    """The reconstruction ``inner`` on the window [lo, hi] as a profile on
    the row's span up to hi: ``fn`` clips to the window, so the profile is
    constant below lo, and 0 past its domain end hi (no tail to declare).
    The constant extension kinks at lo, declared as a breakpoint so that
    left-sided integrals split there."""
    def fn(x):
        return inner(np.clip(np.asarray(x, dtype=float), lo, hi))

    return Profile1D(lo=t.span[0], hi=hi * (1 + 1e-12), fn=fn, arg_kind=t.kind,
                     support=transformed.support, breakpoints=(lo,),
                     label=f"inverted[{transformed.label}]")


def _residual_check(fwd, transformed: Profile1D, lo: float, hi: float):
    probes = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 5)
    want = transformed(probes)
    got = np.asarray(fwd(probes))
    scale = max(float(np.max(np.abs(want))), 1e-300)
    resid = float(np.max(np.abs(got - want))) / scale
    if resid > RESIDUAL_TOL:
        raise ReconstructionError(
            f"forward residual {resid:.2e} exceeds {RESIDUAL_TOL:.0e}; the "
            "data does not look like a transform of a smooth profile")
