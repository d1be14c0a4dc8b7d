"""Single-variable radial/zonal profiles with argument-kind tags.

A profile is a function of one nonnegative coordinate together with the
metadata the quadrature and differentiation engines need: what the
coordinate means (``ArgKind``), how fast the function decays, how many
analytic derivatives are available, and any algebraic endpoint structure
``f(x) = x^o (S^2-x^2)_+^e * core(x)`` with a smooth core.
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
    alone would give.  ``decay_hint`` is an
    exponent rho with |f(x)| <= C (1+x)^(-rho) (``math.inf`` for
    super-polynomial decay).  A tail is certified from it alone, never
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
        out = np.zeros_like(x)
        eps = 1e-12 * max(1.0, self.lo)     # absorb float noise at the edge
        inside = (x >= self.lo - eps) & (x < self.hi)
        if self.support is not None:
            inside &= x < self.support
        inside &= x < HUGE_ARG
        if np.any(inside):
            out[inside] = self.fn(np.maximum(x[inside], self.lo))
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

        dec = None if self.decay_hint is None else self.decay_hint - shift
        return Profile1D(
            lo=self.lo, hi=self.hi, fn=fn, arg_kind=self.arg_kind,
            decay_hint=dec, derivatives=None, origin_power=o + shift, support=s,
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


def reparametrize(f: Profile1D, kind: ArgKind) -> Profile1D:
    """The profile f as a function of another coordinate kind.

    Kinds that share values (plane distance, ball radius, tanh of distance)
    are re-tagged with all metadata kept.  Otherwise the new profile lives
    on the image of [least coordinate, f.hi), maps f's support where the
    map is increasing, keeps the decay hint and the label, and evaluates f
    (with its own domain and support) at the pulled-back coordinate; origin
    and edge exponents and breakpoints are not carried.
    """
    if f.arg_kind is kind:
        return f
    if {f.arg_kind, kind} <= SAME_VALUE_KINDS:
        return replace(f, arg_kind=kind)
    m = _REPARAM.get((f.arg_kind, kind))
    if m is None:
        raise DomainError(f"cannot reparametrize {f.arg_kind} as {kind}")
    ends = (m.push(domain(f.arg_kind)[0]), m.push(f.hi))
    lo, hi = ends if m.increasing else ends[::-1]
    support = None
    if m.increasing and f.support is not None and f.support < m.top:
        try:
            support = m.push(f.support)
        except OverflowError:
            raise DomainError(f"support {f.support!r} overflows as {kind}")

    def fn(x):
        return f(m.pull(np.asarray(x, dtype=float)))

    return Profile1D(lo=lo, hi=hi + m.pad, fn=fn, arg_kind=kind,
                     decay_hint=f.decay_hint, support=support, label=f.label)


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
            y = np.clip(x * x, ylo, yhi)
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
