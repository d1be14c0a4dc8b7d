import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georadon import profiles as P
from georadon.errors import DomainError
from georadon.radial import TransformParams, radon_hyper_zonal
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
    assert g.decay_hint == 3.0


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
