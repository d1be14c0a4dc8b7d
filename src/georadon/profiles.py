"""Single-variable radial/zonal profiles with argument-kind tags.

A profile is a function of one nonnegative coordinate together with the
metadata the quadrature and differentiation engines need: what the
coordinate means (``ArgKind``), how many analytic derivatives are
available, and its endpoint record: the algebraic structure
``f(x) = x^o (S^2-x^2)_+^e * core(x)`` with a smooth core, the decay at
infinity, and the breakpoints.

This module is the one place that knows how the record moves under a
map (a power, a constant, a support ``cut``, a change of coordinate in a
family, ``reparametrize``, or across families, ``carry_across``, the
inversion x -> 1/x, ``inverted``, a transform row, ``transformed``) and
what decay an integrand has in its integration coordinate (``tail``).
Each rule moves an exponent by the map's local power at the end it acts
on; an end that lands where the factorization has no slot goes into the
core, which ``Profile1D.factored`` then divides out of the values.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SmoothnessError
from .spectral import ChebInterpolant

#: Arguments larger than this are treated as "at infinity" by re-parametrized
#: profiles; every profile evaluates to 0 there.
HUGE_ARG = 1e12


# -- decay at infinity ---------------------------------------------------------

@dataclass(frozen=True)
class Exponential:
    """A decay like e^(-rate x): |f| <= C e^(-(rate - eps) x) for every
    eps > 0, so a power of x beside it changes nothing (rate < 0: growth).
    A ``decay_hint`` is None (unknown), an exponent d with
    |f| <= C x^(-(d - eps)), an ``Exponential``, or ``math.inf``: faster
    than any exponential of the family's base coordinate (the geodesic
    distance for cosh and sinh, so faster than any of their powers)."""

    rate: float


def integrable(decay) -> bool:
    """Whether a decay certifies an integral to infinity."""
    if isinstance(decay, Exponential):
        return decay.rate > 0.0
    return decay is not None and decay > 1.0


def decay_times(*decays):
    """The decay of a product: unknown if a factor's is, ``math.inf`` if a
    factor's is, else the sum of the rates, or of the exponents when no
    factor is exponential (a power does not change a rate)."""
    if None in decays or math.inf in decays:
        return None if None in decays else math.inf
    rates = [d.rate for d in decays if isinstance(d, Exponential)]
    return Exponential(sum(rates)) if rates else sum(decays)


def _along(decay, law):
    """The decay of f(x) in y, for y growing like x^law (law a number),
    e^x (``"exp"``) or log x (``"log"``)."""
    if decay is None or decay == math.inf or law == 1.0:
        return decay
    rate = decay.rate if isinstance(decay, Exponential) else None
    if law == "exp":
        # x^-d is (log y)^-d for y = e^x: slower than any power of y
        return 0.0 if rate is None else rate
    if rate is None:
        return Exponential(decay) if law == "log" else decay / law
    # e^-(rate log y) and e^-(rate y^(1/law)) outrun every power of y
    return math.inf if rate > 0.0 else None


def tail(f: Profile1D, law: float, *factors):
    """The decay of the integrand f(x) * factors in its integration
    coordinate y ~ x^law: f's decay carried along y times the factors'
    decays in y.  ``quadrature._octaves`` certifies it.  ``DomainError``
    when f declares none: a decay is declared, never measured."""
    if f.decay_hint is None:
        raise DomainError("a profile on an infinite domain needs a decay_hint")
    return decay_times(_along(f.decay_hint, law), *factors)


class ArgKind(enum.Enum):
    """Meaning of a profile's coordinate."""

    EuclideanRadius = "euclidean_radius"    # distance of an affine plane to o
    BallRadius = "ball_radius"              # chord distance inside the unit ball
    CoshDistance = "cosh_distance"          # cosh of hyperbolic geodesic distance
    SinhDistance = "sinh_distance"          # sinh of hyperbolic geodesic distance
    TanhDistance = "tanh_distance"          # tanh of hyperbolic geodesic distance
    GeodesicDistance = "geodesic_distance"  # hyperbolic geodesic distance itself
    CosAngle = "cos_angle"                  # cosine of the elliptic angle
    SinAngle = "sin_angle"                  # sine of the elliptic angle
    Angle = "angle"                         # elliptic/projective angle itself


@dataclass(frozen=True)
class Profile1D:
    """A tagged single-variable function on [lo, hi).

    ``fn`` must accept and return numpy arrays, and it and ``core`` must
    be elementwise: the quadratures evaluate the nodes of many rules in
    one call and rely on each value being the one a call on that point
    alone would give.  ``decay_hint`` is the decay at infinity in the
    profile's own coordinate: an exponent rho with
    |f(x)| <= C (1+x)^(-rho), an ``Exponential`` rate, or ``math.inf``
    (see ``Exponential``).  Every map carries it into its image's
    coordinate, and a tail is certified from it alone (``tail``), never
    measured: on an infinite domain every tail integral (a right-sided
    operator, ``integrate_radial``) raises ``DomainError`` without it.
    ``origin_power`` o and ``edge_exponent`` e expose the factorization
    ``f(x) = x^o * (S^2 - x^2)_+^e * core(x)`` (S = ``support``) that lets
    the quadratures fold algebraic endpoint singularities into Gauss-Jacobi
    weights; ``core`` must then be smooth and evaluable at the endpoints.
    ``breakpoints`` are points where ``fn`` or its derivatives may jump:
    ``ek_left`` and ``ek_right`` split their integrals there, and the
    fixed-grid psi samplers of the fractional derivatives are skipped for a
    profile that declares any.
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    arg_kind: ArgKind = ArgKind.EuclideanRadius
    decay_hint: Optional[float] = None
    derivatives: Optional[Sequence[Callable]] = None
    origin_power: float = 0.0
    support: Optional[float] = None
    edge_exponent: float = 0.0
    core: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: tuple = ()
    label: str = ""

    def __post_init__(self):
        if not (self.hi > self.lo >= 0.0):
            raise DomainError(f"Profile1D: invalid domain [{self.lo}, {self.hi})")
        if self.support is not None and self.support <= self.lo:
            raise DomainError("Profile1D: support radius below the domain start")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        eps = 1e-12 * max(1.0, self.lo)     # absorb float noise at the edge
        inside = (x >= self.lo - eps) & (x < self.hi)
        if self.support is not None:
            inside &= x < self.support
        inside &= x < HUGE_ARG
        vals = None
        if np.any(inside):
            # the inside points are the call's own copy; ``out`` is made
            # after fn, so the two are never alive beside fn's arrays
            xin = x[inside]
            vals = self.fn(np.maximum(xin, self.lo, out=xin))
            del xin
        out = np.zeros_like(x)
        if vals is not None:
            out[inside] = vals
        return float(out[0]) if scalar else out

    def derivative(self, order: int, x):
        """Analytic derivative of the given order; raises if unavailable."""
        if not self.derivatives or len(self.derivatives) < order:
            raise SmoothnessError(
                f"profile {self.label or '<anon>'} has no analytic derivative "
                f"of order {order}")
        x = np.asarray(x, dtype=float)
        return self.derivatives[order - 1](x)

    @property
    def upper_limit(self) -> float:
        """Effective upper integration limit (support cap or domain end)."""
        s = self.hi if self.support is None else min(self.hi, self.support)
        return s

    def factored(self):
        """(o, e, S, core) with f(x) = x^o (S^2-x^2)_+^e core(x)."""
        if self.core is not None:
            return self.origin_power, self.edge_exponent, self.support, self.core
        if self.origin_power == 0.0 and self.edge_exponent == 0.0:
            return 0.0, 0.0, self.support, self.fn
        # Reconstruct the core by dividing the algebraic factors back out.
        o, e, s = self.origin_power, self.edge_exponent, self.support

        def core(x):
            x = np.asarray(x, dtype=float)
            v = self.fn(x)
            if o != 0.0:
                v = v / x ** o
            if e != 0.0:
                v = v / (s * s - x * x) ** e
            return v

        return o, e, s, core

    # -- derived profiles ---------------------------------------------------

    def with_power(self, shift: float) -> "Profile1D":
        """x^shift * f(x), tracking the origin exponent."""
        if shift == 0.0:
            return self
        o, e, s, core = self.factored()
        base_fn = self.fn

        def fn(x):
            return x ** shift * base_fn(x)

        return Profile1D(
            lo=self.lo, hi=self.hi, fn=fn, arg_kind=self.arg_kind,
            decay_hint=decay_times(self.decay_hint, -shift), derivatives=None,
            origin_power=o + shift, support=s,
            edge_exponent=e, core=core, breakpoints=self.breakpoints,
            label=f"x^{shift}*{self.label}" if self.label else "")

    def scaled(self, c: float) -> "Profile1D":
        o, e, s, core = self.factored()
        base_fn = self.fn

        def fn(x):
            return c * base_fn(x)

        def core2(x):
            return c * core(x)

        derivs = None
        if self.derivatives:
            derivs = tuple((lambda d: (lambda x: c * d(x)))(d) for d in self.derivatives)
        return Profile1D(lo=self.lo, hi=self.hi, fn=fn, arg_kind=self.arg_kind,
                         decay_hint=self.decay_hint, derivatives=derivs,
                         origin_power=o, support=s, edge_exponent=e, core=core2,
                         breakpoints=self.breakpoints,
                         label=f"{c}*{self.label}" if self.label else "")


# -- changes of coordinate ----------------------------------------------------

@dataclass(frozen=True)
class _Reparam:
    """One elementwise change of coordinate between two argument kinds.

    ``pull`` takes new coordinates to old ones (arrays, guarded against
    float noise at the ends); ``push`` takes one old coordinate to the new
    one (domain ends and support radius).  A support is kept only where
    ``push`` is increasing and below ``top``, past which it saturates.
    ``pad`` widens the half-open domain to take in a closed image end.
    """

    pull: Callable[[np.ndarray], np.ndarray]
    push: Callable[[float], float]
    increasing: bool = True
    top: float = math.inf
    pad: float = 0.0


_REPARAM = {
    (ArgKind.GeodesicDistance, ArgKind.CoshDistance):
        _Reparam(lambda s: np.arccosh(np.maximum(s, 1.0)), math.cosh),
    (ArgKind.GeodesicDistance, ArgKind.SinhDistance):
        _Reparam(np.arcsinh, math.sinh),
    (ArgKind.CoshDistance, ArgKind.GeodesicDistance):
        _Reparam(np.cosh, lambda s: math.acosh(max(s, 1.0))),
    (ArgKind.SinhDistance, ArgKind.GeodesicDistance):
        _Reparam(np.sinh, math.asinh),
    (ArgKind.Angle, ArgKind.CosAngle):
        _Reparam(lambda t: np.arccos(np.clip(t, -1.0, 1.0)),
                 lambda th: max(math.cos(min(th, math.pi / 2)), 0.0),
                 increasing=False, pad=1e-12),
    (ArgKind.Angle, ArgKind.SinAngle):
        _Reparam(lambda t: np.arcsin(np.clip(t, -1.0, 1.0)),
                 lambda th: math.sin(min(th, math.pi / 2)),
                 top=math.pi / 2, pad=1e-12),
    (ArgKind.CosAngle, ArgKind.Angle):
        _Reparam(np.cos, lambda t: math.acos(min(t, 1.0)), increasing=False),
    (ArgKind.SinAngle, ArgKind.Angle):
        _Reparam(np.sin, lambda t: math.asin(min(t, 1.0)), top=1.0),
}

#: the power of the distance to the origin of the new coordinate in the
#: distance to the support at the end of the old range: cos is linear at
#: pi/2, quadratic at 0 (1 - t^2 = sin^2)
_TO_ORIGIN = {(ArgKind.Angle, ArgKind.CosAngle): 1.0,
              (ArgKind.CosAngle, ArgKind.Angle): 2.0}

#: how the new coordinate grows with the old one at infinity (``_along``):
#: cosh and sinh like e^rho; the other kinds end at a finite point
_LAWS = {(ArgKind.GeodesicDistance, ArgKind.CoshDistance): "exp",
         (ArgKind.GeodesicDistance, ArgKind.SinhDistance): "exp",
         (ArgKind.CoshDistance, ArgKind.GeodesicDistance): "log",
         (ArgKind.SinhDistance, ArgKind.GeodesicDistance): "log"}

# The chart: every kind reaches its family base through a direct map of
# ``_REPARAM``, and every base reaches the hub, the plane distance.

#: family base of the kinds that are not their own base
_BASE = {ArgKind.CoshDistance: ArgKind.GeodesicDistance,
         ArgKind.SinhDistance: ArgKind.GeodesicDistance,
         ArgKind.CosAngle: ArgKind.Angle,
         ArgKind.SinAngle: ArgKind.Angle}


def _same(v):
    return v


#: each base's map to the hub, its inverse, and the end of its hub range
_HUB = {
    ArgKind.GeodesicDistance: (np.tanh, np.arctanh, 1.0),
    ArgKind.Angle: (np.tan, np.arctan, math.inf),
    ArgKind.EuclideanRadius: (_same, _same, math.inf),
    ArgKind.BallRadius: (_same, _same, 1.0),
    ArgKind.TanhDistance: (_same, _same, 1.0),
}

#: closed domain of the kinds not taking every nonnegative number
_DOMAIN = {ArgKind.CoshDistance: (1.0, math.inf),
           ArgKind.CosAngle: (0.0, 1.0),
           ArgKind.SinAngle: (0.0, 1.0),
           ArgKind.BallRadius: (0.0, 1.0),
           ArgKind.TanhDistance: (0.0, 1.0)}

#: kinds whose coordinates are the same number (the models' hub variable)
SAME_VALUE_KINDS = frozenset(k for k, m in _HUB.items() if m[0] is _same)


def base_of(kind: ArgKind) -> ArgKind:
    """The family base of a kind: geodesic distance, angle, or the kind."""
    return _BASE.get(kind, kind)


def hub_end(kind: ArgKind) -> float:
    """End of the hub range (plane distance) that the kind's family covers."""
    return _HUB[base_of(kind)][2]


def domain(kind: ArgKind) -> tuple:
    """Closed (least, greatest) coordinate of a kind."""
    return _DOMAIN.get(kind, (0.0, math.inf))


def convert(v, frm: ArgKind, to: ArgKind) -> np.ndarray:
    """Coordinates ``v`` of kind ``frm`` as kind ``to`` (arrays, unchecked).

    Inside a family the direct maps are used; across families the value
    goes through the hub.
    """
    v = np.asarray(v, dtype=float)
    if frm is to:
        return v
    bf, bt = base_of(frm), base_of(to)
    if frm is not bf:
        v = _REPARAM[bf, frm].pull(v)
    if bf is not bt:
        v = _HUB[bt][1](_HUB[bf][0](v))
    if to is not bt:
        v = _REPARAM[to, bt].pull(v)
    return v


def _beyond(v, frm: ArgKind, to: ArgKind) -> bool:
    """Whether a value of kind ``frm`` lies past the hub range of ``to``;
    never inside one family."""
    return base_of(frm) is not base_of(to) and bool(
        np.any(convert(v, frm, ArgKind.EuclideanRadius) >= hub_end(to)))


def _end_image(v: float, frm: ArgKind, to: ArgKind) -> Optional[float]:
    """A domain end or support radius ``v`` of kind ``frm`` as kind ``to``
    (NumPy on 0-d arrays), or None where it has no image short of the end
    of ``to``'s range.  An infinite ``v`` is the end of ``frm``'s range."""
    if math.isinf(v):
        v, frm = hub_end(frm), ArgKind.EuclideanRadius
    if _beyond(v, frm, to):
        return None
    return float(convert(v, frm, to))


def _image(f: Profile1D, kind: ArgKind, lo: float, hi: float, pull, factor,
           origin: float, support, decay, points, label: str) -> Profile1D:
    """factor(x) * f(pull(x)) (or f(pull(x))) on [lo, hi) of ``kind``,
    with f's edge exponent at a carried support and the points inside as
    breakpoints."""
    def fn(x):
        v = f(pull(np.asarray(x, dtype=float)))
        return v if factor is None else factor(x) * v

    return Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=kind, decay_hint=decay,
                     origin_power=origin, support=support,
                     edge_exponent=0.0 if support is None else f.edge_exponent,
                     breakpoints=tuple(sorted(b for b in points
                                              if lo < b < hi)),
                     label=label)


def reparametrize(f: Profile1D, kind: ArgKind) -> Profile1D:
    """The profile f as a function of another coordinate kind.

    Kinds that share values (plane distance, ball radius, tanh of distance)
    are re-tagged with all metadata kept.  Otherwise the new profile lives
    on the image of [least coordinate, f.hi) and evaluates f (with its own
    domain and support) at the pulled-back coordinate.  The origin keeps
    its exponent where the map fixes it (sinh, sin and their inverses),
    and cosh and cos move it to 1, into the core; the support keeps its
    edge exponent where the map increases below ``top``, and where it
    decreases is a lower cut, a breakpoint, or at the end of the range the
    new origin (``_TO_ORIGIN``); the decay moves along ``_LAWS``.
    """
    if f.arg_kind is kind:
        return f
    if {f.arg_kind, kind} <= SAME_VALUE_KINDS:
        return replace(f, arg_kind=kind)
    m = _REPARAM.get((f.arg_kind, kind))
    if m is None:
        raise DomainError(f"cannot reparametrize {f.arg_kind} as {kind}")
    start = domain(f.arg_kind)[0]
    ends = (m.push(start), m.push(f.hi))
    lo, hi = ends if m.increasing else ends[::-1]
    support = None
    if m.increasing and f.support is not None and f.support < m.top:
        try:
            support = m.push(f.support)
        except OverflowError:
            raise DomainError(f"support {f.support!r} overflows as {kind}")
    origin = f.origin_power if start == m.push(0.0) == 0.0 else 0.0
    cuts = f.breakpoints
    if not m.increasing and f.support is not None:
        if abs(float(m.pull(0.0)) - f.support) <= 1e-12 * f.support:
            # a support at the end of the range lands on the new origin
            origin = f.edge_exponent * _TO_ORIGIN[f.arg_kind, kind]
        else:
            cuts += (f.support,)
    return _image(f, kind, lo, hi + m.pad, m.pull, None, origin, support,
                  _along(f.decay_hint, _LAWS.get((f.arg_kind, kind), 1.0)),
                  [m.push(b) for b in cuts], f.label)


def carry_across(f: Profile1D, kind: ArgKind, lo: float, hi: float, factor,
                 far_power: float, label: str) -> Profile1D:
    """factor(x) * f(x as f's kind) on [lo, hi) of ``kind``, another
    family's coordinate, where ``factor`` is 1 at the origin and
    eps^far_power at distance eps from the end of f's range.  The hub maps
    fix the origin with slope 1, so it and a support short of hi keep their
    exponents.  An infinite hi faces f's range end (b = 1), where f's
    exponent (its edge exponent if its support ends there) plus
    ``far_power`` is a power of 1 - tanh(rho) ~ 2 e^(-2 rho): a rate."""
    src = f.arg_kind
    support = None
    if f.support is not None and math.isfinite(f.support):
        support = _end_image(f.support, src, kind)
    decay = None
    if math.isinf(hi) and kind is ArgKind.GeodesicDistance:
        end = support is None and f.support is not None and float(
            convert(f.support, src, ArgKind.EuclideanRadius)) == 1.0
        decay = math.inf if support is not None else Exponential(
            2.0 * ((f.edge_exponent if end else 0.0) + far_power))
    points = [_end_image(b, src, kind) for b in f.breakpoints]
    return _image(f, kind, lo, hi, lambda x: convert(x, kind, src), factor,
                  f.origin_power, support, decay,
                  [b for b in points if b is not None], label)


def inverted(f: Profile1D, c: float, p: float, label: str) -> Profile1D:
    """c x^p f(1/x) of the plane distance on (0, inf), which swaps the
    origin and infinity: f's origin power o is the decay o - p, an exponent
    d of its decay the origin power d + p (a faster decay goes into the
    core), and the breakpoints and support move to their reciprocals."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        return c * x ** p * f(1.0 / x)

    d = f.decay_hint
    cuts = f.breakpoints + ((f.support,) if f.support is not None else ())
    return Profile1D(
        lo=1e-300, hi=math.inf, fn=fn, arg_kind=ArgKind.EuclideanRadius,
        decay_hint=f.origin_power - p,
        origin_power=d + p if isinstance(d, (int, float)) and d < math.inf
        else 0.0,
        breakpoints=tuple(sorted(1.0 / b for b in cuts if 0.0 < b < math.inf)),
        label=label)


def cut(f: Profile1D, cap: float) -> Profile1D:
    """``f`` cut at ``cap``.  A declared support past the cap is smooth
    there, so its edge factor (S^2 - x^2)^e joins the core and the cut
    edge carries exponent 0."""
    if f.support is not None and f.support <= cap:
        return f
    o, e, s, core = f.factored()
    if s is not None and e != 0.0:
        inner = core

        def core(x):
            return (s * s - x * x) ** e * inner(x)
    return Profile1D(lo=f.lo, hi=max(f.hi, cap * (1 + 1e-12)), fn=f.fn,
                     arg_kind=f.arg_kind, decay_hint=f.decay_hint,
                     origin_power=o, support=cap, edge_exponent=0.0,
                     core=core if o != 0.0 else None,
                     breakpoints=f.breakpoints, label=f.label)


def transformed(f: Profile1D, fn, kind: ArgKind, lo: float, hi: float,
                a: float, pre: float, post: float, left: bool,
                label: str) -> Profile1D:
    """``fn``, the transform c x^post EK[y^pre f](x) of order a, on [lo, hi)
    with f's record carried through the row.  A right-sided row (f cut at
    a finite span end first) keeps f's support, raises its edge exponent by
    a, is finite at 0, and turns an exponent d into d - pre - 2a - post.  A
    left-sided row is the Beta integral near 0 (origin power o + pre + 2a +
    post), and x^(post+2a-2) int_0^x r^(pre+1) f dr at infinity: decay
    d - pre - 2a - post until r^(pre+1) f is integrable, 2 - 2a - post
    then."""
    d, shift = f.decay_hint, pre + 2.0 * a + post
    exponent = d is not None and not isinstance(d, Exponential) and d < math.inf
    support = f.support if not left and f.support is not None \
        and math.isfinite(f.support) else None
    if not left:
        decay = d - shift if exponent else d
    elif exponent or integrable(d) or d == math.inf:
        decay = min(d - shift if exponent else math.inf, 2.0 - 2.0 * a - post)
    else:
        decay = None
    return Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=kind, decay_hint=decay,
                     origin_power=f.origin_power + shift if left else 0.0,
                     support=support, edge_exponent=0.0 if support is None
                     else f.edge_exponent + a,
                     breakpoints=tuple(b for b in f.breakpoints if lo < b < hi),
                     label=label)


def from_grid(x: np.ndarray, y: np.ndarray, arg_kind: ArgKind,
              order: int = 3, decay_hint: Optional[float] = None) -> Profile1D:
    """Profile from a sampled grid with spline interpolation of given order."""
    from scipy.interpolate import make_interp_spline

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 8:
        raise DomainError("from_grid: need at least 8 nodes")
    if np.any(np.diff(x) <= 0):
        raise DomainError("from_grid: grid must be strictly increasing")
    if not 0 <= order < len(x):
        raise DomainError(
            f"from_grid: spline order {order} needs 0 <= order < {len(x)}")
    spl = make_interp_spline(x, y, k=order)

    def fn(t):
        return spl(np.clip(t, x[0], x[-1]))

    derivs = tuple(spl.derivative(q) for q in range(1, order))
    return Profile1D(lo=float(x[0]), hi=float(x[-1]) * (1 + 1e-12) + 1e-300,
                     fn=fn, arg_kind=arg_kind, decay_hint=decay_hint,
                     derivatives=derivs, label="grid")


def tabulate(fn, lo: float, hi: float, arg_kind: ArgKind, n: int = 128,
             decay_hint: Optional[float] = None, support: Optional[float] = None,
             scale_fn=None, square_variable: bool = False) -> Profile1D:
    """Chebyshev tabulation of a smooth callable; cheap to re-evaluate.

    Only valid when ``fn`` is smooth on [lo, hi]; the interpolant is clamped
    to that window and zero outside a declared support.  When ``scale_fn``
    is given, ``fn/scale_fn`` is interpolated and the scale multiplied back,
    preserving relative accuracy through rapidly decaying tails.  With
    ``square_variable`` the interpolation runs in y = x^2, which keeps
    even profiles free of square-root kinks under later differentiation.
    """
    if square_variable:
        ylo, yhi = lo * lo, hi * hi

        def sample(y):
            return _scaled_sample(fn, scale_fn, np.sqrt(np.clip(y, ylo, yhi)))

        interp = ChebInterpolant.fit(sample, ylo, yhi, n)

        def ev(x):
            x = np.asarray(x, dtype=float)
            y = x * x
            y = np.clip(y, ylo, yhi, out=y if y.ndim else None)
            out = interp(y)
            return out * scale_fn(x) if scale_fn is not None else out

        derivs = None
    elif scale_fn is None:
        interp = ChebInterpolant.fit(
            lambda x: np.asarray(fn(x), dtype=float), lo, hi, n)

        def ev(x):
            return interp(np.clip(x, lo, hi))

        derivs = tuple(
            (lambda d: (lambda x: d(np.clip(x, lo, hi))))(interp.derivative(q))
            for q in range(1, 5))
    else:
        interp = ChebInterpolant.fit(
            lambda x: _scaled_sample(fn, scale_fn, x), lo, hi, n)

        def ev(x):
            return interp(np.clip(x, lo, hi)) * scale_fn(x)

        derivs = None
    return Profile1D(lo=lo, hi=hi * (1 + 1e-12), fn=ev, arg_kind=arg_kind,
                     decay_hint=decay_hint, derivatives=derivs, support=support,
                     label="cheb")


def _scaled_sample(fn, scale_fn, x):
    vals = np.asarray(fn(x), dtype=float)
    if scale_fn is None:
        return vals
    return vals / np.asarray(scale_fn(x), dtype=float)


# -- named analytic families ------------------------------------------------

def _hermite_chain(sigma: float):
    """Derivatives of orders 1..8 of exp(-(x/sigma)^2) via the Hermite
    recursion."""
    inv = 1.0 / sigma

    def deriv(q):
        def d(x):
            u = x * inv
            h_prev = np.ones_like(u)
            h = 2.0 * u
            for _ in range(q - 1):
                h, h_prev = 2.0 * u * h - 2.0 * (_ + 1) * h_prev, h
            return (-inv) ** q * h * np.exp(-u * u)
        return d

    return tuple(deriv(q) for q in range(1, 9))


def gaussian(sigma: float = 1.0, arg_kind: ArgKind = ArgKind.EuclideanRadius,
             lo: float = 0.0) -> Profile1D:
    """exp(-(x/sigma)^2) with full analytic derivative chain."""
    if not sigma > 0:
        raise DomainError(f"gaussian: sigma must be positive, got {sigma}")

    def fn(x):
        return np.exp(-(x / sigma) ** 2)

    return Profile1D(lo=lo, hi=math.inf, fn=fn, arg_kind=arg_kind,
                     decay_hint=math.inf, derivatives=_hermite_chain(sigma),
                     label=f"gaussian({sigma})")


def gaussian_power(p: float) -> Profile1D:
    """x^p * exp(-x^2) of the plane distance; p >= 0 keeps the chain
    simple."""
    def fn(x):
        return x ** p * np.exp(-x ** 2)

    derivs = None
    if p == int(p) and p >= 0:
        # Leibniz on x^p * gaussian, using the Hermite chain.
        g_chain = (lambda x: np.exp(-x ** 2),) + _hermite_chain(1.0)
        ip = int(p)

        def deriv(q):
            def d(x):
                out = np.zeros_like(np.asarray(x, dtype=float))
                for i in range(min(q, ip) + 1):
                    cpow = math.comb(q, i) * math.perm(ip, i)
                    out += cpow * x ** (ip - i) * g_chain[q - i](x)
                return out
            return d

        derivs = tuple(deriv(q) for q in range(1, 7))
    return Profile1D(lo=0.0, hi=math.inf, fn=fn, decay_hint=math.inf,
                     derivatives=derivs, origin_power=p,
                     label=f"x^{p}*gaussian(1.0)")


def bump(a: float, arg_kind: ArgKind = ArgKind.EuclideanRadius,
         lo: float = 0.0) -> Profile1D:
    """Smooth compactly supported bump exp(1 - a^2/(a^2 - x^2)) on [0, a)."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < a
        xi = x[inside]
        out[inside] = np.exp(1.0 - a * a / (a * a - xi * xi))
        return out

    def d1(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < a
        xi = x[inside]
        den = a * a - xi * xi
        out[inside] = np.exp(1.0 - a * a / den) * (-2.0 * a * a * xi / den ** 2)
        return out

    return Profile1D(lo=lo, hi=math.inf, fn=fn, arg_kind=arg_kind,
                     decay_hint=math.inf, derivatives=(d1,), support=a,
                     label=f"bump({a})")


def power(p: float, lo: float = 0.0, hi: float = math.inf,
          arg_kind: ArgKind = ArgKind.EuclideanRadius) -> Profile1D:
    """Pure power x^p."""
    def fn(x):
        return x ** p

    def _falling(q):
        c = 1.0
        for i in range(q):
            c *= p - i
        return lambda x: c * np.asarray(x, dtype=float) ** (p - q)

    derivs = tuple(_falling(q) for q in range(1, 5))
    return Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=arg_kind,
                     decay_hint=-p, derivatives=derivs, origin_power=p,
                     label=f"power({p})")


def truncated_power_pair(alpha: float, a: float, inner_power: float,
                         arg_kind: ArgKind) -> Profile1D:
    """x^inner_power * (a^2 - x^2)_+^(alpha/2 - 1) with factored endpoints."""
    e = alpha / 2.0 - 1.0

    def core(x):
        return np.asarray(x, dtype=float) ** 0 * 1.0

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = x < a
        xi = x[inside]
        out[inside] = xi ** inner_power * (a * a - xi * xi) ** e
        return out

    return Profile1D(lo=0.0, hi=math.inf, fn=fn, arg_kind=arg_kind,
                     decay_hint=math.inf, origin_power=inner_power, support=a,
                     edge_exponent=e, core=core,
                     label=f"x^{inner_power}(a2-x2)^{e}")
