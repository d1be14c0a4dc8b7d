import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georadon import models as M
from georadon import profiles as P
from georadon.errors import DomainError
from georadon.fracint import ek_right
from georadon.quadrature import QuadratureSpec
from georadon.radial import TransformParams, radon_hyper_zonal
from georadon.special import beta
from georadon.spectral import cheb_nodes

K = P.ArgKind

#: (kind, interior grid) of every coordinate that reparametrize maps
_GRIDS = {
    K.GeodesicDistance: np.linspace(0.03, 18.0, 41),
    K.CoshDistance: np.linspace(1.02, 40.0, 41),
    K.SinhDistance: np.linspace(0.03, 40.0, 41),
    K.Angle: np.linspace(0.03, 1.5, 41),
    K.CosAngle: np.linspace(0.03, 0.98, 41),
    K.SinAngle: np.linspace(0.03, 0.98, 41),
    K.EuclideanRadius: np.linspace(0.03, 0.98, 41),
    K.BallRadius: np.linspace(0.03, 0.98, 41),
    K.TanhDistance: np.linspace(0.03, 0.98, 41),
}
_PAIRS = [(K.GeodesicDistance, K.CoshDistance),
          (K.GeodesicDistance, K.SinhDistance),
          (K.Angle, K.CosAngle), (K.Angle, K.SinAngle),
          (K.EuclideanRadius, K.BallRadius),
          (K.BallRadius, K.TanhDistance),
          (K.TanhDistance, K.EuclideanRadius)]
_ROUND_TRIPS = _PAIRS + [(b, a) for a, b in _PAIRS]


def _natural(kind, fn):
    lo = 1.0 if kind is K.CoshDistance else 0.0
    hi = 1.0 + 1e-12 if kind in (K.CosAngle, K.SinAngle) else math.inf
    return P.Profile1D(lo=lo, hi=hi, fn=fn, arg_kind=kind, label="f")


@pytest.mark.parametrize("src,via", _ROUND_TRIPS,
                         ids=[f"{a.value}-{b.value}" for a, b in _ROUND_TRIPS])
def test_reparametrize_round_trip(src, via):
    x = _GRIDS[src]
    # a step profile whose steps sit between the grid points comes back
    # bit for bit; a smooth one within rounding of the two maps
    steps = 0.5 * (x[1:] + x[:-1])
    step = _natural(src, lambda t: np.searchsorted(steps, t) + 0.25)
    back = P.reparametrize(P.reparametrize(step, via), src)
    assert back.arg_kind is src
    assert np.array_equal(back(x), step(x))
    smooth = _natural(src, lambda t: np.exp(-0.3 * t) + t)
    back = P.reparametrize(P.reparametrize(smooth, via), src)
    np.testing.assert_allclose(back(x), smooth(x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("src,dst,image,pad", [
    (K.GeodesicDistance, K.CoshDistance, math.cosh, 0.0),
    (K.GeodesicDistance, K.SinhDistance, math.sinh, 0.0),
    (K.CoshDistance, K.GeodesicDistance, math.acosh, 0.0),
    (K.SinhDistance, K.GeodesicDistance, math.asinh, 0.0),
    (K.Angle, K.SinAngle, math.sin, 1e-12),
    (K.SinAngle, K.Angle, math.asin, 0.0),
])
def test_reparametrize_maps_support_and_hi(src, dst, image, pad):
    lo = 1.0 if src is K.CoshDistance else 0.0
    f = P.Profile1D(lo=lo, hi=lo + 0.9, fn=np.cos, arg_kind=src,
                    support=lo + 0.7, decay_hint=3.0)
    g = P.reparametrize(f, dst)
    assert g.support == image(f.support)
    assert g.hi == image(f.hi) + pad
    assert g.lo == image(lo)
    # an exponent of geodesic distance is none of cosh or sinh distance
    # (a power of log), and one of cosh or sinh distance is a rate of
    # geodesic distance; the angle maps end at a finite point
    want = {K.GeodesicDistance: 0.0, K.CoshDistance: P.Exponential(3.0),
            K.SinhDistance: P.Exponential(3.0)}.get(src, 3.0)
    assert g.decay_hint == want


def test_reparametrize_decreasing_maps_drop_support():
    f = P.Profile1D(lo=0.0, hi=1.2, fn=np.cos, arg_kind=K.Angle, support=1.0)
    g = P.reparametrize(f, K.CosAngle)
    assert g.support is None
    assert (g.lo, g.hi) == (math.cos(1.2), 1.0 + 1e-12)
    h = P.reparametrize(g, K.Angle)
    assert h.support is None
    assert (h.lo, h.hi) == (0.0, math.pi / 2)


def test_reparametrize_retag_keeps_metadata():
    f = P.truncated_power_pair(3.0, 0.8, 1.5, K.EuclideanRadius)
    g = P.reparametrize(f, K.BallRadius)
    assert g.arg_kind is K.BallRadius
    assert (g.origin_power, g.edge_exponent, g.support, g.core) \
        == (f.origin_power, f.edge_exponent, f.support, f.core)
    assert P.reparametrize(f, K.EuclideanRadius) is f


def test_reparametrize_rejects_unrelated_kinds():
    with pytest.raises(DomainError):
        P.reparametrize(P.gaussian(arg_kind=K.CoshDistance, lo=1.0), K.Angle)


@settings(deadline=None)      # the first example builds the quadrature rules
@given(a=st.floats(1.0, 1.4, exclude_min=True))
def test_squared_variable_tabulation_of_hyper_transform(a):
    # the lowest node of the tabulation in y = x^2 can round to just below
    # cosh-distance 1, where the transform is not defined
    p = TransformParams(3, 0, 1)
    h = P.reparametrize(P.bump(a, K.GeodesicDistance), K.CoshDistance)
    top = h.upper_limit

    def fn(s):
        return radon_hyper_zonal(p, h, s)

    tab = P.tabulate(fn, 1.0, top, K.CoshDistance, n=16, support=top,
                     square_variable=True)
    x = np.sqrt(np.clip(cheb_nodes(16, 1.0, top * top), 1.0, top * top))
    want = fn(x)
    assert float(np.max(np.abs(tab(x) - want))) <= 1e-12 * float(
        np.max(np.abs(want)))


# -- the endpoint record against the values it describes -----------------------

#: the end of each kind's range where a family's support or edge may sit
_ENDS = {K.BallRadius: 1.0, K.Angle: math.pi / 2, K.CosAngle: 1.0,
         K.SinAngle: 1.0}
_PROJECTIVE_END = math.pi / 4


def _family(name, kind, end, x):
    """power, gaussian, bump or truncated_power_pair in ``kind``, its
    parameters read from the draws x in [0, 1)^3; a support lies inside
    ``end``, or at it for x[1] = 0."""
    start = P.domain(kind)[0]
    a = end * (1.0 - 0.7 * x[1]) if math.isfinite(end) \
        else start + 0.5 + 2.0 * x[1]
    if name == "power":
        return P.power(-0.9 + 2.9 * x[0], lo=start, arg_kind=kind)
    if name == "gaussian":
        return P.gaussian(0.5 + x[0], arg_kind=kind, lo=start)
    if name == "bump":
        return P.bump(a, arg_kind=kind, lo=start)
    return P.truncated_power_pair(1.2 + 2.6 * x[0], a, 1.8 * x[2], kind)


def _slope(g, x1, x2, scale=math.log):
    """d log|g| / d scale(x) between x1 and x2, or None where g vanishes."""
    v1, v2 = (abs(float(v)) for v in g(np.array([x1, x2])))
    if min(v1, v2) < 1e-250:
        return None
    return math.log(v2 / v1) / (scale(x2) - scale(x1))


def _check_record(g):
    """The carried record of g against the values: the origin power and
    the edge exponent are the log-log slopes at the origin and at the
    support (a flat end is the exponent 0 with a flat core), and the decay
    bounds the slope at infinity with nothing to spare."""
    if g.lo <= 1e-12:
        o = _slope(g, 1e-7, 2e-7)
        assert o is None or abs(o - g.origin_power) < 1e-3, (o, g)
    if g.support is not None and math.isfinite(g.support):
        s = g.support
        e = _slope(g, s * (1 - 1e-7), s * (1 - 2e-7),
                   lambda x: math.log(s - x))
        assert (abs(e - g.edge_exponent) < 1e-3 if e is not None and e < 50
                else g.edge_exponent == 0.0), (e, g)
        return
    d = g.decay_hint
    if not math.isinf(g.hi) or d is None:
        return
    # values that underflow decay faster than any record says (a flat core)
    if d == math.inf:
        # faster than any exponential of the family's base coordinate
        hyper = g.arg_kind in (K.CoshDistance, K.SinhDistance)
        rate = _slope(g, *((1e3, 1.25e3, math.asinh) if hyper
                           else (20.0, 25.0, lambda x: x)))
        assert rate is None or rate < -5.0, (rate, g)
    elif isinstance(d, P.Exponential):
        rate = _slope(g, 20.0, 25.0, lambda x: x)
        assert rate is None or abs(rate + d.rate) < 1e-6, (rate, g)
    else:
        # a power of log is the exponent 0: its slope falls like 1/log x
        slope = _slope(g, 1e10, 2e10)
        assert slope is None or abs(slope + d) < (0.15 if d == 0.0 else 1e-3), \
            (slope, g)


_FAMILIES = ("power", "gaussian", "bump", "truncated_power_pair")
#: a support sits at the end of a finite range, or well inside it
_DRAWS = st.tuples(st.floats(0.0, 0.99),
                   st.one_of(st.just(0.0), st.floats(0.05, 0.99)),
                   st.floats(0.0, 0.99))


@pytest.mark.parametrize("family", _FAMILIES)
@settings(deadline=None, max_examples=12)
@given(x=_DRAWS, t=st.sampled_from([(3, 0, 1), (4, 1, 2), (5, 1, 3),
                                    (6, 2, 5)]))
def test_weight_ops_carry_the_record_of_the_closed_form(family, x, t):
    # every weight operator on every family in its source coordinate
    p = TransformParams(*t)
    for op in M.WeightOp:
        src = M.weight_op_signature(op)[0]
        end = _PROJECTIVE_END if src is M.Model.Projective \
            else _ENDS.get(M.CANONICAL_KIND[src], math.inf)
        if src in (M.Model.Elliptic, M.Model.Projective):
            # the float end of an angle range has a finite image
            # (tan(pi/2) = 1.6e16): keep the support inside it
            end *= 0.99
        f = _family(family, M.CANONICAL_KIND[src], end, x)
        _check_record(f)
        _check_record(M.apply_weight(op, p, f))


@pytest.mark.parametrize("family", _FAMILIES)
@settings(deadline=None, max_examples=12)
@given(x=_DRAWS)
def test_reparametrize_carries_the_record_of_the_closed_form(family, x):
    # every change of coordinate of the chart on every family
    for src, dst in P._REPARAM:
        f = _family(family, src, _ENDS.get(src, math.inf), x)
        _check_record(f)
        _check_record(P.reparametrize(f, dst))


@settings(deadline=None, max_examples=40)
@given(a=st.floats(0.5, 2.0), d=st.floats(1.25, 1.6), t=st.floats(1.0, 5.0))
def test_power_tail_is_certified_to_the_tail_tolerance(a, d, t):
    # the power family's decay carried into ek_right's u = r^2 - t^2 is
    # d = -p/2 + 1 - a, a slow algebraic tail; the certified truncation
    # stays within twice the requested tail tolerance of the closed form
    # t^(2a+p) B(a, -p/2-a) / Gamma(a)
    p = -2.0 * (a + d - 1.0)
    f = P.power(p, lo=1.0)
    assert P.tail(f, 2.0, 1.0 - a) == pytest.approx(d)
    tol = 1e-4
    got = ek_right(a, f, t, QuadratureSpec(truncation_tail_tol=tol))
    want = t ** (2 * a + p) * beta(a, -p / 2 - a) / math.gamma(a)
    assert abs(got - want) <= 2 * tol * want
