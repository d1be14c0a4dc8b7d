"""The five constant-curvature models, coordinate conversions between them,
their radial measure densities, and the weight operators linking transforms
across models.

Coordinates change through the one chart of ``profiles.convert``: directly
inside a family (hyperbolic distance with its cosh and sinh, the angle with
its cosine and sine), and across families through the hub, the Euclidean
plane distance r:

    euclidean radius r      = tan(elliptic angle)      [lifted planes]
    ball radius b           = r            (chords are planes meeting B_n)
    hyperbolic distance rho = artanh(b)                 [ball <-> hyperboloid]
    projective angle        = elliptic angle, restricted below pi/4.

Each weight operator is a power of the conformal factor of its model pair
(``_PAIRS``), with the exponent named by its letter (``_LETTERS``).
"""
from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .errors import DomainError
from .profiles import (SAME_VALUE_KINDS, ArgKind, Exponential, Profile1D,
                       _beyond, _end_image, base_of, carry_across, convert,
                       domain, inverted, reparametrize, tail)
from .quadrature import (DEFAULT_QUADRATURE, QuadratureSpec,
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

def _kind_of(which) -> ArgKind:
    if isinstance(which, ArgKind):
        return which
    if isinstance(which, Model):
        return CANONICAL_KIND[which]
    raise DomainError(f"expected ArgKind or Model, got {which!r}")


def convert_distance(value, frm, to):
    """Convert a distance coordinate between kinds/models (scalar or array).

    Raises ``DomainError`` when the value leaves the domain of its kind or
    the canonical range of its model, or has no representation in the
    target (e.g. Euclidean radius >= 1 has no ball image).
    """
    kf, kt = _kind_of(frm), _kind_of(to)
    v = np.asarray(value, dtype=float)
    lo, hi = domain(kf)
    if np.any(v < lo) or np.any(v > hi):
        raise DomainError(f"{kf} coordinate outside [{lo}, {hi}]")
    if isinstance(frm, Model):
        lo, hi = CANONICAL_RANGE[frm]
        if np.any(v < lo) or np.any(v >= hi):
            raise DomainError(f"value outside the canonical range of {frm}")
    if _beyond(v, kf, kt):
        raise DomainError(f"value not representable as {kt}")
    out = convert(v, kf, kt)
    if isinstance(to, Model) and np.any(out >= CANONICAL_RANGE[to][1]):
        raise DomainError(f"converted value outside the range of {to}")
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


#: the three model pairs by suffix: each side's model and its conformal
#: factor Omega = base(x) ** power, and whether M carries sigma_k / sigma_j.
#: Omega is cosh rho = (1 - b^2)^(-1/2), 1/cos theta = (1 + r^2)^(1/2) and
#: cosh(2 rho)^(1/2) = cos(2 theta)^(-1/2).
_PAIRS = {
    "": ((Model.Hyperboloid, np.cosh, 1.0),
         (Model.BeltramiKlein, lambda x: 1 - x * x, -0.5), False),
    "0": ((Model.EuclideanAffine, lambda x: 1 + x * x, 0.5),
          (Model.Elliptic, np.cos, -1.0), True),
    "1": ((Model.Hyperboloid, lambda x: np.cosh(2 * x), 0.5),
          (Model.Projective, lambda x: np.cos(2 * x), -0.5), True),
}

#: each letter's exponent of the target's Omega, and its role; an inverse
#: negates the exponent
_LETTERS = {"M": (lambda n, j, k: k + 1, "j-side"),
            "N": (lambda n, j, k: -(j + 1), "k-side"),
            "P": (lambda n, j, k: n - j, "k-side"),
            "Q": (lambda n, j, k: k - n, "j-side")}


def _sides(op: WeightOp):
    """(source side, target side, inverse, ratio) of a pair operator: M and
    P map a pair's first side to its second, N and Q back, and an inverse
    the other way; ratio tells whether the weight carries sphere areas."""
    letter, suffix = op.value[0], op.value[1:]
    inverse = suffix.endswith("inv")
    first, second, ratio = _PAIRS[suffix.removesuffix("inv")]
    if (letter in "MP") == inverse:
        first, second = second, first
    return first, second, inverse, ratio and letter == "M"


def weight_op_signature(op: WeightOp):
    """(source model, target model, role) triple of a weight operator."""
    if op is WeightOp.U or op is WeightOp.V:
        return (Model.EuclideanAffine, Model.EuclideanAffine,
                "j-side" if op is WeightOp.U else "k-side")
    src, tgt, _, _ = _sides(op)
    return (src[0], tgt[0], _LETTERS[op.value[0]][1])


def _inversion_weight_profile(op: WeightOp, params, f: Profile1D) -> Profile1D:
    """U: c*|x|^(k-n) (f o inv);  V: |x|^(j-n) (f o inv) on punctured planes."""
    n, j, k = params.n, params.j, params.k
    if op is WeightOp.U:
        return inverted(f, sphere_area(n - k - 1) / sphere_area(n - j - 1),
                        k - n, f"{op.value}[{f.label}]")
    return inverted(f, 1.0, j - n, f"{op.value}[{f.label}]")


def apply_weight(op: WeightOp, params, f: Profile1D) -> Profile1D:
    """Apply a weight operator to a radial profile, reparametrizing it into
    the target model's canonical coordinate.

    The result is lazily composed (weight times re-parametrized eval), so an
    operator followed by its inverse reproduces the original values exactly
    up to the round trip of the coordinate map itself.  The record moves by
    ``profiles.carry_across``: the weight Omega^e is 1 at the origin, and at
    the end of a finite side's range, where that side's base has a simple
    zero, it is the power eps^(power * e) of the distance eps to it.
    """
    if op in (WeightOp.U, WeightOp.V):
        return _inversion_weight_profile(op, params, f)
    (source, _, src_power), (tgt, base, power), inverse, ratio = _sides(op)
    n, j, k = params.n, params.j, params.k
    src_kind = CANONICAL_KIND[source]
    # kinds sharing the hub coordinate are interchangeable; this lets the
    # affine<->elliptic weights act on ball profiles (landing in the
    # projective angle range) and vice versa
    if f.arg_kind is not src_kind \
            and not {f.arg_kind, src_kind} <= SAME_VALUE_KINDS:
        raise DomainError(
            f"{op.value} expects a profile in {src_kind} (canonical for "
            f"{source}), got {f.arg_kind}")
    src_kind = f.arg_kind
    tgt_kind = CANONICAL_KIND[tgt]
    lo, hi = CANONICAL_RANGE[tgt]
    # the target domain is the image of the source domain
    src_top = min(f.hi, CANONICAL_RANGE[source][1])
    top = _end_image(src_top, src_kind, tgt_kind)
    if top is not None:
        hi = min(hi, top)
    e = _LETTERS[op.value[0]][0](n, j, k)
    if inverse:
        e = -e
    c = 1.0
    if ratio:
        c = sphere_area(j) / sphere_area(k) if inverse \
            else sphere_area(k) / sphere_area(j)
    q = power * e

    def weight(x):
        return c * base(np.asarray(x, dtype=float)) ** q

    return carry_across(f, tgt_kind, lo, hi, weight, src_power * e,
                        f"{op.value}[{f.label}]")


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
    sig = sphere_area(n - d - 1)
    a = n - d - 1

    if model in (Model.EuclideanAffine, Model.BeltramiKlein):
        if kind not in (ArgKind.EuclideanRadius, ArgKind.BallRadius):
            raise DomainError(f"{model} density is expressed in plane distance")
        density = {kind: lambda: sig * x ** a}
    elif model is Model.Hyperboloid:
        density = {
            ArgKind.GeodesicDistance:
                lambda: sig * np.sinh(x) ** a * np.cosh(x) ** d,
            ArgKind.CoshDistance:
                lambda: sig * (x * x - 1.0) ** ((n - d) / 2.0 - 1.0) * x ** d,
            ArgKind.SinhDistance:
                lambda: sig * x ** a * (1.0 + x * x) ** ((d - 1) / 2.0),
            ArgKind.TanhDistance:
                lambda: sig * x ** a / (1.0 - x * x) ** ((n + 1) / 2.0)}
    elif model in (Model.Elliptic, Model.Projective):
        norm = sphere_area(d) * sig / sphere_area(n)
        density = {
            ArgKind.Angle: lambda: norm * np.sin(x) ** a * np.cos(x) ** d,
            ArgKind.CosAngle:
                lambda: norm * (1.0 - x * x) ** ((n - d) / 2.0 - 1.0) * x ** d,
            ArgKind.SinAngle:
                lambda: norm * x ** a * (1.0 - x * x) ** ((d - 1) / 2.0)}
    else:
        raise DomainError(f"unknown model {model}")
    if kind not in density:
        raise DomainError(f"unsupported coordinate {kind} for {model}")
    # the range is checked before the density is evaluated; the chart clips
    # a value outside its kind's domain, so test both
    (lo, hi), (klo, khi) = CANONICAL_RANGE[model], domain(kind)
    y = convert(x, kind, CANONICAL_KIND[model])
    if not np.all((x >= klo) & (x <= khi) & (y >= lo) & (y < hi)):
        raise DomainError(f"{kind.value} coordinate outside the range of {model}")
    out = density[kind]()
    return out if out.ndim else float(out)


def integrate_radial(model: Model, n: int, d: int, f: Profile1D,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE,
                     weight=None) -> float:
    """Integral of a radial/zonal profile over the model's geodesic space.

    ``f`` may be expressed in any coordinate kind compatible with the
    model; it is pulled back to the canonical coordinate, and so is its
    record (``reparametrize``, or ``carry_across`` from another family).
    ``weight`` is an optional extra factor, a profile in the canonical
    coordinate with its own record (used by the identity suite); a bare
    callable is taken as bounded with no power at the origin.  The origin
    powers of the measure, the weight and f fold into the Gauss-Jacobi
    exponent, and f's edge exponent where its support ends inside the
    range.  On an infinite range the tail is certified by the decay of
    measure x weight x f in the canonical coordinate (``profiles.tail``),
    so f must declare one (``DomainError`` otherwise).
    """
    kind = CANONICAL_KIND[model]
    lo, hi = CANONICAL_RANGE[model]
    g = reparametrize(f, kind) if base_of(f.arg_kind) is base_of(kind) \
        or {f.arg_kind, kind} <= SAME_VALUE_KINDS \
        else carry_across(f, kind, lo, hi, None, 0.0, f.label)
    if weight is not None and not isinstance(weight, Profile1D):
        weight = Profile1D(lo=lo, hi=hi, fn=weight, arg_kind=kind,
                           decay_hint=0.0)
    weights = () if weight is None else (weight,)

    def integrand(x):
        vals = measure_density(model, n, d, x, kind)
        for w in weights:
            vals = vals * w(x)
        return vals * f(convert(x, kind, f.arg_kind))

    # support cap expressed in the canonical coordinate
    top = hi
    if f.support is not None and math.isfinite(f.support):
        cap = _end_image(f.support, f.arg_kind, kind)
        if cap is not None:
            top = min(top, cap)

    o = float(n - d - 1) + sum(w.origin_power for w in weights) \
        + g.origin_power
    if o <= -1.0:
        raise DomainError("integrand is not integrable at the origin")
    edge = g.edge_exponent if top < hi else 0.0

    def core(x):
        x = np.asarray(x, dtype=float)
        vals = integrand(x) / x ** o
        if edge != 0.0:
            # the record's edge factor (top^2 - x^2)^e as the Jacobi weight
            # (top - x)^e times a smooth ratio^e factor
            num = np.maximum(top ** 2 - x ** 2, 0.0)
            ratio = num / np.maximum(top - x, 1e-300)
            vals = np.where(num > 0,
                            vals / np.maximum(num, 1e-300) ** edge * ratio ** edge,
                            0.0)
        return vals

    if math.isfinite(top):
        return integrate_weighted(core, lo, top, o, edge, spec)
    # infinite canonical range: euclidean or hyperboloid, whose measure
    # sinh^(n-d-1) cosh^d grows like e^((n-1) rho)
    measure = Exponential(1.0 - n) if model is Model.Hyperboloid \
        else float(d + 1 - n)
    decay = tail(g, 1.0, *(w.decay_hint for w in weights), measure)
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
    out = _distance_to_base(z, n, k)
    return float(out) if out.ndim == 0 else out


def _distance_to_base(z: np.ndarray, n: int, d: int) -> np.ndarray:
    """Distance of points z of the hyperboloid to the base d-geodesic,
    through the pseudo-norm of their projection onto its d+1 coordinates."""
    pn2 = z[..., n] ** 2 - np.sum(z[..., n - d:n] ** 2, axis=-1)
    return np.arccosh(np.maximum(np.sqrt(np.maximum(pn2, 1.0)), 1.0))
