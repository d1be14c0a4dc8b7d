import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import rel_err
from georadon import models as M
from georadon import profiles as P
from georadon.errors import DomainError
from georadon.radial import TransformParams
from georadon.special import sphere_area


def test_convert_examples():
    assert abs(M.convert_distance(1.0, M.Model.EuclideanAffine,
                                  M.Model.Elliptic) - math.pi / 4) < 1e-15
    got = M.convert_distance(math.tanh(1.0), M.Model.BeltramiKlein,
                             M.Model.Hyperboloid)
    assert abs(got - 1.0) < 1e-14
    for model in M.Model:
        assert M.convert_distance(0.0, model, M.Model.EuclideanAffine) == 0.0


@given(st.floats(min_value=1e-6, max_value=0.95))
def test_convert_cycle_is_identity(v):
    a = M.convert_distance(v, M.Model.EuclideanAffine, M.Model.Elliptic)
    b = M.convert_distance(a, M.Model.Elliptic, M.Model.Hyperboloid)
    c = M.convert_distance(b, M.Model.Hyperboloid, M.Model.BeltramiKlein)
    d = M.convert_distance(c, M.Model.BeltramiKlein, M.Model.EuclideanAffine)
    assert abs(d - v) < 1e-14


@given(st.floats(min_value=0.05, max_value=0.95),
       st.sampled_from(list(P.ArgKind)), st.sampled_from(list(P.ArgKind)))
def test_convert_round_trips_between_every_pair_of_kinds(r, frm, to):
    # r is the plane distance, which every kind represents
    v = float(P.convert(r, P.ArgKind.EuclideanRadius, frm))
    back = M.convert_distance(M.convert_distance(v, frm, to), to, frm)
    assert abs(back - v) <= 1e-14 * max(1.0, v)


def test_convert_hyperbolic_tail_is_exact():
    K = P.ArgKind
    rho = np.linspace(0.0, 20.0, 201)
    assert rel_err(M.convert_distance(rho, K.GeodesicDistance,
                                      K.CoshDistance), np.cosh(rho)) <= 1e-15
    assert rel_err(M.convert_distance(rho, K.GeodesicDistance,
                                      K.SinhDistance), np.sinh(rho)) <= 1e-15
    back = M.convert_distance(np.cosh(rho), K.CoshDistance,
                              K.GeodesicDistance)
    assert float(np.max(np.abs(back - rho))) <= 1e-15


@pytest.mark.parametrize("value, frm", [
    (0.5, P.ArgKind.CoshDistance), (1.5, P.ArgKind.CosAngle),
    (1.5, P.ArgKind.SinAngle), (1.5, P.ArgKind.BallRadius),
    (1.5, P.ArgKind.TanhDistance), (-0.1, P.ArgKind.GeodesicDistance),
    (-0.1, P.ArgKind.CosAngle)])
def test_convert_rejects_values_outside_their_kind(value, frm):
    to = P.ArgKind.Angle if frm is P.ArgKind.GeodesicDistance \
        else P.ArgKind.EuclideanRadius
    with pytest.raises(DomainError):
        M.convert_distance(value, frm, to)
    with pytest.raises(DomainError):
        M.convert_distance(value, frm, P.base_of(frm))


def test_convert_between_argument_kinds():
    # cosh of the distance whose tanh is 0.6
    got = M.convert_distance(0.6, P.ArgKind.TanhDistance, P.ArgKind.CoshDistance)
    assert abs(got - 1.25) < 1e-14
    got = M.convert_distance(1.0, P.ArgKind.EuclideanRadius, P.ArgKind.SinAngle)
    assert abs(got - math.sqrt(0.5)) < 1e-15


def test_convert_range_errors():
    with pytest.raises(DomainError):
        M.convert_distance(2.0, M.Model.EuclideanAffine, M.Model.BeltramiKlein)
    with pytest.raises(DomainError):
        M.convert_distance(1.2, M.Model.BeltramiKlein, M.Model.Hyperboloid)


def test_kelvin_map():
    assert M.kelvin_map(2.0) == 0.5
    assert M.kelvin_map(1.0) == 1.0
    with pytest.raises(DomainError):
        M.kelvin_map(0.0)
    assert M.kelvin_index(5, 1) == 3


def test_measure_density_examples():
    assert abs(M.measure_density(M.Model.EuclideanAffine, 3, 1, 1.0)
               - 2 * math.pi) < 1e-14
    got = M.measure_density(M.Model.Hyperboloid, 3, 1, 2.0,
                            P.ArgKind.CoshDistance)
    assert abs(got - 4 * math.pi) < 1e-13
    with pytest.raises(DomainError):
        M.measure_density(M.Model.EuclideanAffine, 3, 3, 1.0)


def test_measure_density_range_is_read_in_the_model_coordinate():
    # projective angle 0.3 is inside the model, 1.2 and 0.8 are not
    proj = M.Model.Projective
    got = M.measure_density(proj, 4, 1, math.cos(0.3), P.ArgKind.CosAngle)
    want = M.measure_density(proj, 4, 1, 0.3) / math.sin(0.3)
    assert rel_err(got, want) < 1e-14
    for x, kind in ((math.cos(1.2), P.ArgKind.CosAngle),
                    (math.sin(0.8), P.ArgKind.SinAngle)):
        with pytest.raises(DomainError):
            M.measure_density(proj, 4, 1, x, kind)
    # values outside their kind's domain, which the chart would clip
    for model, x, kind in ((M.Model.BeltramiKlein, 1.0, None),
                           (M.Model.Elliptic, 1.3, P.ArgKind.CosAngle),
                           (M.Model.Hyperboloid, 0.5, P.ArgKind.CoshDistance)):
        with pytest.raises(DomainError):
            M.measure_density(model, 5, 1, x, kind)


def test_measure_density_checks_the_range_before_evaluating():
    # an out-of-range cosh distance raises without a NumPy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            M.measure_density(M.Model.Hyperboloid, 4, 1, 0.5,
                              P.ArgKind.CoshDistance)


_DENSITY_KINDS = {
    M.Model.EuclideanAffine: ((0.3, 0.7), (P.ArgKind.EuclideanRadius,
                                           P.ArgKind.BallRadius)),
    M.Model.BeltramiKlein: ((0.3, 0.7), (P.ArgKind.EuclideanRadius,
                                         P.ArgKind.BallRadius)),
    M.Model.Hyperboloid: ((0.3, 1.1, 2.0), (
        P.ArgKind.GeodesicDistance, P.ArgKind.CoshDistance,
        P.ArgKind.SinhDistance, P.ArgKind.TanhDistance)),
    M.Model.Elliptic: ((0.3, 0.9, 1.3), (P.ArgKind.Angle, P.ArgKind.CosAngle,
                                         P.ArgKind.SinAngle)),
    M.Model.Projective: ((0.2, 0.5, 0.7), (P.ArgKind.Angle,
                                           P.ArgKind.CosAngle,
                                           P.ArgKind.SinAngle)),
}


def test_measure_density_is_the_canonical_density_times_the_jacobian():
    # w_kind(x) = w(y) |dy/dx| with y the canonical coordinate of x, the
    # derivative by central differences of the chart
    for model, (points, kinds) in _DENSITY_KINDS.items():
        canon = M.CANONICAL_KIND[model]
        y = np.array(points)
        for kind in kinds:
            x = P.convert(y, canon, kind)
            h = 1e-6 * np.maximum(1.0, x)
            dydx = (P.convert(x + h, kind, canon)
                    - P.convert(x - h, kind, canon)) / (2 * h)
            for n in range(1, 8):
                for d in range(n):
                    got = M.measure_density(model, n, d, x, kind)
                    want = M.measure_density(model, n, d, y) * np.abs(dydx)
                    assert np.max(np.abs(got / want - 1.0)) < 1e-8, \
                        (model, kind, n, d)


def test_integrate_radial_oracles():
    f = P.gaussian()
    assert abs(M.integrate_radial(M.Model.EuclideanAffine, 3, 1, f)
               - math.pi) < 1e-10
    one = P.power(0.0, hi=1.0, arg_kind=P.ArgKind.BallRadius)
    assert abs(M.integrate_radial(M.Model.BeltramiKlein, 3, 1, one)
               - math.pi) < 1e-12
    h = P.power(-4.0, lo=1.0, arg_kind=P.ArgKind.CoshDistance, hi=math.inf)
    assert abs(M.integrate_radial(M.Model.Hyperboloid, 3, 1, h)
               - math.pi) < 1e-9
    # elliptic/projective densities integrate to the Haar-probability masses
    one_a = P.power(0.0, hi=math.pi / 2, arg_kind=P.ArgKind.Angle)
    assert abs(M.integrate_radial(M.Model.Elliptic, 4, 1, one_a) - 1.0) < 1e-10


def test_weight_op_signatures():
    src, tgt, role = M.weight_op_signature(M.WeightOp.M)
    assert (src, tgt, role) == (M.Model.Hyperboloid, M.Model.BeltramiKlein,
                                "j-side")
    src, tgt, role = M.weight_op_signature(M.WeightOp.N0)
    assert (src, tgt) == (M.Model.Elliptic, M.Model.EuclideanAffine)
    assert M.weight_op_signature(M.WeightOp.U)[2] == "j-side"


#: (operator, its inverse), each pair led by the one acting on the
#: hyperboloid or on affine planes
_INVERSE_PAIRS = [(M.WeightOp(f"{a}{s}{'' if a in 'MP' else 'inv'}"),
                   M.WeightOp(f"{a}{s}{'inv' if a in 'MP' else ''}"))
                  for s in ("", "0", "1") for a in "MNPQ"]


@pytest.mark.parametrize("fwd, inv", _INVERSE_PAIRS,
                         ids=lambda op: op.value)
def test_weight_op_inverse_pairs_pointwise(fwd, inv):
    p = TransformParams(5, 1, 2)
    if M.weight_op_signature(fwd)[0] is M.Model.Hyperboloid:
        f = P.Profile1D(lo=0.0, hi=math.inf,
                        fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                        arg_kind=P.ArgKind.GeodesicDistance,
                        decay_hint=math.inf)
        x = np.linspace(0.01, 2.5, 64)
    else:
        f = P.gaussian()
        x = np.linspace(0.01, 4.0, 64)
    back = M.apply_weight(inv, p, M.apply_weight(fwd, p, f))
    assert float(np.max(np.abs(back(x) - f(x)))) < 1e-14


#: grid in the target model's canonical coordinate
_WEIGHT_GRID = {M.Model.BeltramiKlein: (0.05, 0.3, 0.6, 0.9, 0.99),
                M.Model.Hyperboloid: (0.0, 0.4, 1.3, 3.0, 8.0),
                M.Model.EuclideanAffine: (0.0, 0.3, 1.0, 4.0, 30.0),
                M.Model.Elliptic: (0.0, 0.2, 0.7, 1.2, 1.55),
                M.Model.Projective: (0.0, 0.1, 0.4, 0.7, 0.78)}

#: first 16 hex digits of the SHA-256 of the float.hex of (lo, hi, values)
#: and the decay hint of apply_weight(op, p, power(0.0)) in the source
#: model's coordinate, over three triples, recorded from one hand-written
#: weight function per operator.  The decay of an operator into the
#: hyperboloid is its carried record: a rate for the plain pair, and none
#: for the projective pair, whose image ends at a finite geodesic radius
_WEIGHT_GOLDEN = {
    "M": "b1b0b92ec70c3a66", "N": "4f1fa2a92b0104d6",
    "P": "4c0df7cf11da5742", "Q": "8de4d8ab2c96f9e8",
    "Minv": "52eac4ee7401bca0", "Ninv": "22588654d00714db",
    "Pinv": "877a441f89b23ab9", "Qinv": "95a7c520f8e6bb7d",
    "M0": "658af5b4725ab2e2", "N0": "2d70e21524230f9c",
    "P0": "264d386aaae18ec8", "Q0": "537e2266dd921baa",
    "M0inv": "ba965b99de41b3f7", "N0inv": "3f8232cce1647e39",
    "P0inv": "95540c466127416c", "Q0inv": "40f12ac9a4b0a107",
    "M1": "77537485e7513e5a", "N1": "78b06971fcb7ecce",
    "P1": "ae50dafdfa40e879", "Q1": "fab998385ce2dc94",
    "M1inv": "0dbe8e4d84538a6e", "N1inv": "35fb8da9611b0698",
    "P1inv": "aa77cfa1a975d059", "Q1inv": "b8005454f54fdeb3",
}


@pytest.mark.parametrize("name", sorted(_WEIGHT_GOLDEN))
def test_weight_ops_keep_their_bytes(name):
    op = M.WeightOp(name)
    src, tgt, _ = M.weight_op_signature(op)
    h = hashlib.sha256()
    for t in ((3, 0, 1), (5, 1, 2), (7, 2, 5)):
        g = M.apply_weight(op, TransformParams(*t),
                           P.power(0.0, arg_kind=M.CANONICAL_KIND[src]))
        vals = g(np.array(_WEIGHT_GRID[tgt]))
        h.update(" ".join(float(v).hex()
                          for v in (g.lo, g.hi, *vals)).encode())
        h.update(repr(g.decay_hint).encode())
    assert h.hexdigest()[:16] == _WEIGHT_GOLDEN[name]


def test_apply_weight_example_values():
    p = TransformParams(5, 1, 2)
    one = P.power(0.0, arg_kind=P.ArgKind.GeodesicDistance)
    mf = M.apply_weight(M.WeightOp.M, p, one)
    r = np.array([0.3, 0.7])
    assert rel_err(mf(r), (1 - r * r) ** (-(p.k + 1) / 2)) < 1e-14
    m1 = M.apply_weight(M.WeightOp.M1, p, one)
    th = np.array([0.2, 0.6])
    want = sphere_area(p.k) / sphere_area(p.j) * np.cos(2 * th) ** (-1.5)
    assert rel_err(m1(th), want) < 1e-14


def test_apply_weight_kind_mismatch():
    p = TransformParams(4, 1, 2)
    wrong = P.gaussian(arg_kind=P.ArgKind.CosAngle)
    with pytest.raises(DomainError):
        M.apply_weight(M.WeightOp.M, p, wrong)


def test_point_to_subhyperboloid_distance():
    n, k = 4, 2
    z = np.zeros(n + 1)
    z[n - k - 1] = math.sinh(0.8)
    z[n] = math.cosh(0.8)
    assert abs(M.point_to_subhyperboloid_distance(z, k) - 0.8) < 1e-12
    origin = np.zeros(n + 1)
    origin[n] = 1.0
    assert M.point_to_subhyperboloid_distance(origin, k) == 0.0
    inside = np.zeros(n + 1)
    inside[n - 1] = math.sinh(1.0)
    inside[n] = math.cosh(1.0)
    assert M.point_to_subhyperboloid_distance(inside, k) == 0.0
    bad = np.ones(n + 1)
    with pytest.raises(DomainError):
        M.point_to_subhyperboloid_distance(bad, k)
