"""The five constant-curvature models, coordinate conversions between them,
their radial measure densities, and the weight operators linking transforms
across models.

Every coordinate kind is a bijection onto a common hub variable (the
Euclidean plane distance r), so all pairwise conversions compose exactly:

    euclidean radius r      = tan(elliptic angle)      [lifted planes]
    ball radius b           = r            (chords are planes meeting B_n)
    hyperbolic distance rho = artanh(b)                 [ball <-> hyperboloid]
    projective angle        = elliptic angle, restricted below pi/4.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .profiles import SAME_VALUE_KINDS, ArgKind, Profile1D
from .quadrature import (DEFAULT_QUADRATURE, QuadratureSpec, _Budget,
                         integrate_to_infinity, integrate_weighted)
from .special import sphere_area


class Model(enum.Enum):
    """The five realizations of the underlying constant-curvature spaces."""

    EuclideanAffine = "euclidean_affine"   # affine planes in R^n,  r in [0, inf)
    BeltramiKlein = "beltrami_klein"       # chords of the unit ball, r in [0, 1)
    Hyperboloid = "hyperboloid"            # geodesic distance, rho in [0, inf)
    Elliptic = "elliptic"                  # subspace angle, theta in [0, pi/2)
    Projective = "projective"              # subspace angle, theta in [0, pi/4)


CANONICAL_KIND = {
    Model.EuclideanAffine: ArgKind.EuclideanRadius,
    Model.BeltramiKlein: ArgKind.BallRadius,
    Model.Hyperboloid: ArgKind.GeodesicDistance,
    Model.Elliptic: ArgKind.Angle,
    Model.Projective: ArgKind.Angle,
}

CANONICAL_RANGE = {
    Model.EuclideanAffine: (0.0, math.inf),
    Model.BeltramiKlein: (0.0, 1.0),
    Model.Hyperboloid: (0.0, math.inf),
    Model.Elliptic: (0.0, math.pi / 2),
    Model.Projective: (0.0, math.pi / 4),
}


# -- coordinate conversions ---------------------------------------------------

def _to_hub(kind: ArgKind, v):
    v = np.asarray(v, dtype=float)
    if kind in SAME_VALUE_KINDS:
        return v
    if kind is ArgKind.GeodesicDistance:
        return np.tanh(v)
    if kind is ArgKind.CoshDistance:
        return np.sqrt(np.maximum(v * v - 1.0, 0.0)) / v
    if kind is ArgKind.SinhDistance:
        return v / np.sqrt(1.0 + v * v)
    if kind is ArgKind.Angle:
        return np.tan(v)
    if kind is ArgKind.CosAngle:
        return np.sqrt(np.maximum(1.0 - v * v, 0.0)) / v
    if kind is ArgKind.SinAngle:
        return v / np.sqrt(np.maximum(1.0 - v * v, 1e-300))
    raise DomainError(f"unknown coordinate kind {kind}")


def _from_hub(kind: ArgKind, r):
    r = np.asarray(r, dtype=float)
    if kind in SAME_VALUE_KINDS:
        return r
    if kind is ArgKind.GeodesicDistance:
        return np.arctanh(r)
    if kind is ArgKind.CoshDistance:
        return 1.0 / np.sqrt(np.maximum(1.0 - r * r, 1e-300))
    if kind is ArgKind.SinhDistance:
        return r / np.sqrt(np.maximum(1.0 - r * r, 1e-300))
    if kind is ArgKind.Angle:
        return np.arctan(r)
    if kind is ArgKind.CosAngle:
        return 1.0 / np.sqrt(1.0 + r * r)
    if kind is ArgKind.SinAngle:
        return r / np.sqrt(1.0 + r * r)
    raise DomainError(f"unknown coordinate kind {kind}")


_HUB_RANGE = {
    ArgKind.EuclideanRadius: (0.0, math.inf),
    ArgKind.Angle: (0.0, math.inf),
    ArgKind.CosAngle: (0.0, math.inf),
    ArgKind.SinAngle: (0.0, math.inf),
    ArgKind.BallRadius: (0.0, 1.0),
    ArgKind.TanhDistance: (0.0, 1.0),
    ArgKind.GeodesicDistance: (0.0, 1.0),
    ArgKind.CoshDistance: (0.0, 1.0),
    ArgKind.SinhDistance: (0.0, 1.0),
}


def _kind_of(which) -> ArgKind:
    if isinstance(which, ArgKind):
        return which
    if isinstance(which, Model):
        return CANONICAL_KIND[which]
    raise DomainError(f"expected ArgKind or Model, got {which!r}")


def convert_distance(value, frm, to):
    """Convert a distance coordinate between kinds/models (scalar or array).

    Raises ``DomainError`` when the value leaves the source range or has no
    representation in the target (e.g. Euclidean radius >= 1 has no ball
    image).  Conversion cycles compose to the identity at machine precision.
    """
    kf, kt = _kind_of(frm), _kind_of(to)
    v = np.asarray(value, dtype=float)
    if isinstance(frm, Model):
        lo, hi = CANONICAL_RANGE[frm]
        if np.any(v < lo) or np.any(v >= hi):
            raise DomainError(f"value outside the canonical range of {frm}")
    r = _to_hub(kf, v)
    if np.any(r < -1e-15):
        raise DomainError("negative distance coordinate")
    hub_hi = _HUB_RANGE[kt][1]
    if np.any(r >= hub_hi):
        raise DomainError(
            f"hub value {float(np.max(r)):.6g} not representable as {kt}")
    if isinstance(to, Model):
        lo, hi = CANONICAL_RANGE[to]
        out = _from_hub(kt, r)
        if np.any(out >= hi):
            raise DomainError(f"converted value outside the range of {to}")
        return out if np.ndim(value) else float(out)
    out = _from_hub(kt, r)
    return out if np.ndim(value) else float(out)


def kelvin_map(r):
    """Distance inversion r -> 1/r on the punctured affine Grassmannian."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("kelvin_map is defined for r > 0 only")
    out = 1.0 / r
    return out if out.ndim else float(out)


def kelvin_index(n: int, d: int) -> int:
    """Plane-dimension relabeling d -> n - d - 1 under the inversion map."""
    if not (0 <= d <= n - 1):
        raise DomainError(f"kelvin_index: need 0 <= d <= n-1, got n={n}, d={d}")
    return n - d - 1


# -- weight (transition) operators -------------------------------------------

class WeightOp(enum.Enum):
    """Weight/reparametrization operators between model pairs.

    The plain letters act between the hyperboloid and the ball, the
    0-suffixed family between affine planes and the elliptic Grassmannian,
    the 1-suffixed family between the hyperboloid and the projective ball,
    and U, V realize the distance-inversion conjugation on affine planes.
    M/N act on the forward-transform side (j- resp. k-index), P/Q on the
    dual side.
    """

    M = "M"
    N = "N"
    P = "P"
    Q = "Q"
    M_INV = "Minv"
    N_INV = "Ninv"
    P_INV = "Pinv"
    Q_INV = "Qinv"
    M0 = "M0"
    N0 = "N0"
    P0 = "P0"
    Q0 = "Q0"
    M0_INV = "M0inv"
    N0_INV = "N0inv"
    P0_INV = "P0inv"
    Q0_INV = "Q0inv"
    M1 = "M1"
    N1 = "N1"
    P1 = "P1"
    Q1 = "Q1"
    M1_INV = "M1inv"
    N1_INV = "N1inv"
    P1_INV = "P1inv"
    Q1_INV = "Q1inv"
    U = "U"
    V = "V"


@dataclass(frozen=True)
class _OpSpec:
    source: Model
    target: Model
    role: str                       # "j-side" or "k-side"
    weight: Callable                # weight(x_target, n, j, k)
    cosh_decay: Optional[Callable] = None   # weight decay exponent in cosh


def _pairs():
    E, B, H, L, PJ = (Model.EuclideanAffine, Model.BeltramiKlein,
                      Model.Hyperboloid, Model.Elliptic, Model.Projective)

    def sig_ratio(a, b):
        return lambda n, j, k: sphere_area(a(n, j, k)) / sphere_area(b(n, j, k))

    table = {
        # hyperboloid <-> ball
        WeightOp.M: _OpSpec(H, B, "j-side",
                            lambda x, n, j, k: (1 - x * x) ** (-(k + 1) / 2.0)),
        WeightOp.N: _OpSpec(B, H, "k-side",
                            lambda x, n, j, k: np.cosh(x) ** (-(j + 1.0)),
                            cosh_decay=lambda n, j, k: j + 1.0),
        WeightOp.M_INV: _OpSpec(B, H, "j-side",
                                lambda x, n, j, k: np.cosh(x) ** (-(k + 1.0)),
                                cosh_decay=lambda n, j, k: k + 1.0),
        WeightOp.N_INV: _OpSpec(H, B, "k-side",
                                lambda x, n, j, k: (1 - x * x) ** (-(j + 1) / 2.0)),
        WeightOp.P: _OpSpec(H, B, "k-side",
                            lambda x, n, j, k: (1 - x * x) ** ((j - n) / 2.0)),
        WeightOp.Q: _OpSpec(B, H, "j-side",
                            lambda x, n, j, k: np.cosh(x) ** (k - n + 0.0),
                            cosh_decay=lambda n, j, k: n - k + 0.0),
        WeightOp.P_INV: _OpSpec(B, H, "k-side",
                                lambda x, n, j, k: np.cosh(x) ** (j - n + 0.0),
                                cosh_decay=lambda n, j, k: n - j + 0.0),
        WeightOp.Q_INV: _OpSpec(H, B, "j-side",
                                lambda x, n, j, k: (1 - x * x) ** ((k - n) / 2.0)),
        # affine <-> elliptic
        WeightOp.M0: _OpSpec(E, L, "j-side",
                             lambda x, n, j, k: (sphere_area(k) / sphere_area(j))
                             * np.cos(x) ** (-(k + 1.0))),
        WeightOp.N0: _OpSpec(L, E, "k-side",
                             lambda x, n, j, k: (1 + x * x) ** (-(j + 1) / 2.0)),
        WeightOp.P0: _OpSpec(E, L, "k-side",
                             lambda x, n, j, k: np.cos(x) ** (j - n + 0.0)),
        WeightOp.Q0: _OpSpec(L, E, "j-side",
                             lambda x, n, j, k: (1 + x * x) ** ((k - n) / 2.0)),
        WeightOp.M0_INV: _OpSpec(L, E, "j-side",
                                 lambda x, n, j, k: (sphere_area(j) / sphere_area(k))
                                 * (1 + x * x) ** (-(k + 1) / 2.0)),
        WeightOp.N0_INV: _OpSpec(E, L, "k-side",
                                 lambda x, n, j, k: np.cos(x) ** (-(j + 1.0))),
        WeightOp.P0_INV: _OpSpec(L, E, "k-side",
                                 lambda x, n, j, k: (1 + x * x) ** ((j - n) / 2.0)),
        WeightOp.Q0_INV: _OpSpec(E, L, "j-side",
                                 lambda x, n, j, k: np.cos(x) ** (k - n + 0.0)),
        # hyperboloid <-> projective
        WeightOp.M1: _OpSpec(H, PJ, "j-side",
                             lambda x, n, j, k: (sphere_area(k) / sphere_area(j))
                             * np.cos(2 * x) ** (-(k + 1) / 2.0)),
        WeightOp.N1: _OpSpec(PJ, H, "k-side",
                             lambda x, n, j, k: np.cosh(2 * x) ** (-(j + 1) / 2.0),
                             cosh_decay=lambda n, j, k: j + 1.0),
        WeightOp.P1: _OpSpec(H, PJ, "k-side",
                             lambda x, n, j, k: np.cos(2 * x) ** ((j - n) / 2.0)),
        WeightOp.Q1: _OpSpec(PJ, H, "j-side",
                             lambda x, n, j, k: np.cosh(2 * x) ** ((k - n) / 2.0),
                             cosh_decay=lambda n, j, k: n - k + 0.0),
        WeightOp.M1_INV: _OpSpec(PJ, H, "j-side",
                                 lambda x, n, j, k: (sphere_area(j) / sphere_area(k))
                                 * np.cosh(2 * x) ** (-(k + 1) / 2.0),
                                 cosh_decay=lambda n, j, k: k + 1.0),
        WeightOp.N1_INV: _OpSpec(H, PJ, "k-side",
                                 lambda x, n, j, k: np.cos(2 * x) ** (-(j + 1) / 2.0)),
        WeightOp.P1_INV: _OpSpec(PJ, H, "k-side",
                                 lambda x, n, j, k: np.cosh(2 * x) ** ((j - n) / 2.0),
                                 cosh_decay=lambda n, j, k: n - j + 0.0),
        WeightOp.Q1_INV: _OpSpec(H, PJ, "j-side",
                                 lambda x, n, j, k: np.cos(2 * x) ** ((k - n) / 2.0)),
    }
    return table


_OP_TABLE = _pairs()


def weight_op_signature(op: WeightOp):
    """(source model, target model, role) triple of a weight operator."""
    if op is WeightOp.U or op is WeightOp.V:
        return (Model.EuclideanAffine, Model.EuclideanAffine,
                "j-side" if op is WeightOp.U else "k-side")
    s = _OP_TABLE[op]
    return (s.source, s.target, s.role)


def _inversion_weight_profile(op: WeightOp, params, f: Profile1D) -> Profile1D:
    """U: c*|x|^(k-n) (f o inv);  V: |x|^(j-n) (f o inv) on punctured planes."""
    n, j, k = params.n, params.j, params.k
    if op is WeightOp.U:
        c = sphere_area(n - k - 1) / sphere_area(n - j - 1)
        p = k - n
    else:
        c = 1.0
        p = j - n

    def fn(x):
        x = np.asarray(x, dtype=float)
        return c * x ** p * f(1.0 / x)

    dec = None
    if f.decay_hint is not None:
        dec = -p          # f(1/x) -> f(0) bounded; the power rules the tail
    return Profile1D(lo=1e-300, hi=math.inf, fn=fn,
                     arg_kind=ArgKind.EuclideanRadius, decay_hint=dec,
                     origin_power=0.0,
                     label=f"{op.value}[{f.label}]")


def apply_weight(op: WeightOp, params, f: Profile1D) -> Profile1D:
    """Apply a weight operator to a radial profile, reparametrizing it into
    the target model's canonical coordinate.

    The result is lazily composed (weight times re-parametrized eval), so an
    operator followed by its inverse reproduces the original values exactly
    up to the round trip of the coordinate map itself.
    """
    if op in (WeightOp.U, WeightOp.V):
        return _inversion_weight_profile(op, params, f)
    s = _OP_TABLE[op]
    n, j, k = params.n, params.j, params.k
    src_kind = CANONICAL_KIND[s.source]
    # kinds sharing the hub coordinate are interchangeable; this lets the
    # affine<->elliptic weights act on ball profiles (landing in the
    # projective angle range) and vice versa
    if f.arg_kind is not src_kind \
            and not {f.arg_kind, src_kind} <= SAME_VALUE_KINDS:
        raise DomainError(
            f"{op.value} expects a profile in {src_kind} (canonical for "
            f"{s.source}), got {f.arg_kind}")
    src_kind = f.arg_kind if f.arg_kind is not src_kind else src_kind
    tgt = s.target
    tgt_kind = CANONICAL_KIND[tgt]
    lo, hi = CANONICAL_RANGE[tgt]
    # the target domain is the image of the source domain
    src_top = min(f.hi, CANONICAL_RANGE[s.source][1])
    hub_hi = float(_to_hub(src_kind, np.asarray(src_top))) \
        if math.isfinite(src_top) else _HUB_RANGE[src_kind][1]
    if hub_hi < _HUB_RANGE[tgt_kind][1]:
        hi = min(hi, float(_from_hub(tgt_kind, np.asarray(hub_hi))))
    weight = s.weight

    def fn(x):
        x = np.asarray(x, dtype=float)
        src = _from_hub(src_kind, _to_hub(tgt_kind, x))
        return weight(x, n, j, k) * f(src)

    support = None
    if f.support is not None and math.isfinite(f.support):
        hub_s = float(_to_hub(src_kind, np.asarray(f.support)))
        if hub_s < _HUB_RANGE[tgt_kind][1]:
            support = float(_from_hub(tgt_kind, np.asarray(hub_s)))
    if f.decay_hint is not None and math.isinf(f.decay_hint):
        decay = math.inf
    elif s.cosh_decay is not None and math.isfinite(src_top):
        # bounded source domain: the weight's cosh power rules the tail
        decay = s.cosh_decay(n, j, k)
    else:
        decay = None
    return Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=tgt_kind, decay_hint=decay,
                     support=support,
                     label=f"{op.value}[{f.label}]")



# -- radial measures ----------------------------------------------------------

def measure_density(model: Model, n: int, d: int, x,
                    kind: Optional[ArgKind] = None):
    """Density w(x) with  int f dtau = int f(x) w(x) dx  for radial f.

    ``kind`` selects the coordinate the density is expressed in; the default
    is the model's canonical coordinate.  Scalar or array input.
    """
    if not (0 <= d <= n - 1):
        raise DomainError(f"measure_density: need 0 <= d <= n-1, got d={d}")
    kind = kind or CANONICAL_KIND[model]
    x = np.asarray(x, dtype=float)
    lo, hi = CANONICAL_RANGE[model]
    sig = sphere_area(n - d - 1)
    a = n - d - 1

    if model in (Model.EuclideanAffine, Model.BeltramiKlein):
        if kind not in (ArgKind.EuclideanRadius, ArgKind.BallRadius):
            raise DomainError(f"{model} density is expressed in plane distance")
        if model is Model.BeltramiKlein and np.any(x >= 1.0):
            raise DomainError("ball radius must be < 1")
        out = sig * x ** a
    elif model is Model.Hyperboloid:
        if kind is ArgKind.GeodesicDistance:
            out = sig * np.sinh(x) ** a * np.cosh(x) ** d
        elif kind is ArgKind.CoshDistance:
            out = sig * (x * x - 1.0) ** ((n - d) / 2.0 - 1.0) * x ** d
        elif kind is ArgKind.SinhDistance:
            out = sig * x ** a * (1.0 + x * x) ** ((d - 1) / 2.0)
        elif kind is ArgKind.TanhDistance:
            out = sig * x ** a / (1.0 - x * x) ** ((n + 1) / 2.0)
        else:
            raise DomainError(f"unsupported coordinate {kind} for {model}")
    elif model in (Model.Elliptic, Model.Projective):
        norm = sphere_area(d) * sig / sphere_area(n)
        if model is Model.Projective and np.any(x >= math.pi / 4):
            raise DomainError("projective angle must be < pi/4")
        if kind is ArgKind.Angle:
            out = norm * np.sin(x) ** a * np.cos(x) ** d
        elif kind is ArgKind.CosAngle:
            out = norm * (1.0 - x * x) ** ((n - d) / 2.0 - 1.0) * x ** d
        elif kind is ArgKind.SinAngle:
            out = norm * x ** a * (1.0 - x * x) ** ((d - 1) / 2.0)
        else:
            raise DomainError(f"unsupported coordinate {kind} for {model}")
    else:
        raise DomainError(f"unknown model {model}")
    return out if out.ndim else float(out)


def integrate_radial(model: Model, n: int, d: int, f: Profile1D,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE,
                     weight: Optional[Callable] = None,
                     weight_origin_power: float = 0.0) -> float:
    """Integral of a radial/zonal profile over the model's geodesic space.

    ``f`` may be expressed in any coordinate kind compatible with the model;
    it is pulled back to the canonical coordinate.  ``weight`` is an optional
    extra factor in the canonical coordinate (used by the identity suite);
    if it carries an algebraic singularity c*x^p at the origin, pass p as
    ``weight_origin_power`` so it folds into the Gauss-Jacobi exponent.
    """
    kind = CANONICAL_KIND[model]
    lo, hi = CANONICAL_RANGE[model]

    def integrand(x):
        vals = measure_density(model, n, d, x, kind)
        if weight is not None:
            vals = vals * weight(x)
        if f.arg_kind is kind:
            return vals * f(x)
        src = _from_hub(f.arg_kind, _to_hub(kind, np.asarray(x, dtype=float)))
        return vals * f(src)

    # support cap expressed in the canonical coordinate
    top = hi
    if f.support is not None and math.isfinite(f.support):
        hub_s = float(_to_hub(f.arg_kind, np.asarray(f.support)))
        if hub_s < _HUB_RANGE[kind][1]:
            top = min(top, float(_from_hub(kind, np.asarray(hub_s))))

    o = float(n - d - 1) + weight_origin_power
    if o <= -1.0:
        raise DomainError("integrand is not integrable at the origin")
    budget = _Budget(spec.max_subdivisions)
    edge = 0.0
    if f.support is not None and math.isfinite(f.support) \
            and f.edge_exponent != 0.0 and math.isfinite(top) and top < hi:
        edge = f.edge_exponent

    def core(x):
        x = np.asarray(x, dtype=float)
        vals = integrand(x) / x ** o
        if edge != 0.0:
            # vals contains (S^2 - src^2)^e; re-express it as the Jacobi
            # weight (top - x)^e times a smooth ratio^e factor
            src_x = x if f.arg_kind is kind \
                else _from_hub(f.arg_kind, _to_hub(kind, x))
            num = np.maximum(f.support ** 2 - src_x ** 2, 0.0)
            ratio = num / np.maximum(top - x, 1e-300)
            vals = np.where(num > 0,
                            vals / np.maximum(num, 1e-300) ** edge * ratio ** edge,
                            0.0)
        return vals

    if math.isfinite(top):
        return integrate_weighted(core, lo, top, o, edge, spec, budget)
    # infinite canonical range: euclidean or hyperboloid
    decay = 2.0 if f.decay_hint is None else f.decay_hint
    return integrate_to_infinity(core, 0.0, o, decay, spec)


# -- hyperboloid geometry ------------------------------------------------------

def point_to_subhyperboloid_distance(z, k: int) -> float:
    """Geodesic distance from a point of the unit hyperboloid to the base
    k-geodesic (the sub-hyperboloid spanned by the last k+1 coordinates).

    ``z`` has n+1 entries; the quadratic form is -z_1^2 - ... - z_n^2 +
    z_{n+1}^2 and must equal 1 within 1e-10.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[-1] - 1
    if not (0 <= k <= n - 1):
        raise DomainError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    q = z[..., -1] ** 2 - np.sum(z[..., :-1] ** 2, axis=-1)
    if np.any(np.abs(q - 1.0) > 1e-10) or np.any(z[..., -1] <= 0):
        raise DomainError("point does not lie on the unit hyperboloid")
    # pseudo-norm of the projection onto the last k+1 coordinates
    pn2 = z[..., -1] ** 2 - np.sum(z[..., n - k:n] ** 2, axis=-1)
    out = np.arccosh(np.maximum(np.sqrt(np.maximum(pn2, 1.0)), 1.0))
    return float(out) if out.ndim == 0 else out
