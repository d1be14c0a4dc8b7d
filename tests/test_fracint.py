import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TIGHT, rel_err
from georadon import fracint as F
from georadon import profiles as P
from georadon import quadrature as Q
from georadon import radial as R
from georadon.errors import (DifferentiationInstabilityError, DivergenceError,
                             DomainError, QuadratureError)
from georadon.fracint import (check_decay, ek_deriv_left, ek_deriv_right,
                              ek_left, ek_right)
from georadon.quadrature import QuadratureSpec


def test_left_integral_of_constant_is_square():
    one = P.power(0.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(ek_left(1.0, one, t) - t * t) < 1e-13 * t * t


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
def test_left_power_law_mapping(alpha, beta):
    # r^(2b) -> Gamma(b+1)/Gamma(a+b+1) t^(2(a+b)), from the Beta integral
    f = P.power(2 * beta, hi=math.inf)
    t = np.array([0.4, 1.0, 1.7])
    want = math.gamma(beta + 1) / math.gamma(alpha + beta + 1) \
        * t ** (2 * (alpha + beta))
    assert rel_err(ek_left(alpha, f, t), want) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_right_gaussian_fixed_point(alpha):
    f = P.gaussian()
    t = np.linspace(0.0, 2.5, 9)
    assert rel_err(ek_right(alpha, f, t), np.exp(-t * t)) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("breakpoints", [(0.5, 1.0), (0.5, 1.0, 1.5)])
def test_right_gaussian_fixed_point_with_breakpoints(alpha, breakpoints):
    # on an infinite domain every finite segment between the declared
    # breakpoints carries the weight u^(a-1) of the substituted integral
    f = dataclasses.replace(P.gaussian(), breakpoints=breakpoints,
                            derivatives=None)
    t = np.array([0.1, 0.3, 0.7, 1.2, 2.0])
    assert rel_err(ek_right(alpha, f, t), np.exp(-t * t)) < 1e-10


def test_right_elementary_power():
    # alpha=1, f = r^-4: (2/Gamma(1)) int_1^inf r^-3 dr = 1
    f = P.power(-4.0, lo=1e-12)
    assert abs(ek_right(1.0, f, 1.0) - 1.0) < 1e-9


def test_right_divergence_for_constant():
    one = P.power(0.0)     # decay hint 0: the tail criterion fails
    with pytest.raises(DivergenceError):
        ek_right(1.0, one, 1.0)


def test_right_needs_decay_hint_on_infinite_domain():
    f = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: np.exp(-r),
                    arg_kind=P.ArgKind.EuclideanRadius)
    with pytest.raises(DomainError):
        ek_right(1.0, f, 1.0)


def test_check_decay():
    assert check_decay(P.gaussian(), 3.0)
    assert check_decay(P.power(-3.0, lo=1e-6), 1.0)
    assert not check_decay(P.power(0.0), 1.0)
    # no hint: a decay is declared, never measured, whether the profile
    # decays fast or slowly
    no_hint = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: np.exp(-r * r),
                          arg_kind=P.ArgKind.EuclideanRadius)
    with pytest.raises(DomainError, match="needs a decay_hint"):
        check_decay(no_hint, 1.0)
    slow = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: 1.0 / (1.0 + r),
                       arg_kind=P.ArgKind.EuclideanRadius)
    with pytest.raises(DomainError, match="needs a decay_hint"):
        check_decay(slow, 1.0)


def test_deriv_left_inverts_square():
    phi = P.power(2.0, hi=math.inf)     # ek_left(1, 1, t) = t^2
    for t in (0.3, 1.0, 2.2):
        assert abs(ek_deriv_left(1.0, phi, t) - 1.0) < 1e-10


def test_deriv_left_round_trip_pointwise():
    f = P.gaussian()
    phi = P.tabulate(lambda x: ek_left(0.5, f, x, TIGHT), 0.0, 2.0,
                     P.ArgKind.EuclideanRadius, n=160)
    got = ek_deriv_left(0.5, phi, 0.7)
    assert abs(got - math.exp(-0.49)) < 1e-7


def test_deriv_right_gaussian():
    # e^{-t^2} is its own right integral for every order
    phi = P.gaussian()
    t = np.array([0.6, 1.2, 2.0])
    for alpha in (0.5, 1.0, 2.0):
        assert rel_err(ek_deriv_right(alpha, phi, t), np.exp(-t * t)) < 1e-7


def test_noisy_samples_fail_the_noise_gate():
    # a Gaussian table whose samples carry seeded 1e-3 noise: the
    # differentiated noise stays above the gate at every node count
    rng = np.random.default_rng(3)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x) + 1e-3 * rng.standard_normal(x.shape)

    noisy = P.Profile1D(lo=0.0, hi=math.inf, fn=fn, decay_hint=math.inf,
                        label="noisy gaussian")
    t = np.array([0.6, 1.2, 2.0])
    with pytest.raises(DifferentiationInstabilityError, match="noise"):
        ek_deriv_left(1.0, noisy, t)
    with pytest.raises(DifferentiationInstabilityError, match="noise"):
        ek_deriv_right(1.5, noisy, t)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_round_trips_both_sides(alpha, euclid_catalog):
    ts_r = np.linspace(0.5, 4.0, 16)
    ts_l = np.linspace(0.2, 3.0, 16)
    for f in euclid_catalog:
        if f.support is not None:
            phi = P.tabulate(lambda x: ek_right(alpha, f, x, TIGHT), 1e-3,
                             f.support, P.ArgKind.EuclideanRadius, n=240,
                             support=f.support, square_variable=True)
        else:
            # moderate degree: the scaled ratios are near-polynomial, and a
            # lower degree keeps quadrature noise at frequencies whose third
            # derivative stays small
            phi = P.tabulate(lambda x: ek_right(alpha, f, x, TIGHT), 1e-3, 6.5,
                             P.ArgKind.EuclideanRadius, n=128,
                             decay_hint=math.inf, square_variable=True,
                             scale_fn=lambda x: np.exp(-x * x))
        assert rel_err(ek_deriv_right(alpha, phi, ts_r), f(ts_r)) < 1e-6
        phi_l = P.tabulate(lambda x: ek_left(alpha, f, x, TIGHT), 0.0, 3.6,
                           P.ArgKind.EuclideanRadius, n=200)
        assert rel_err(ek_deriv_left(alpha, phi_l, ts_l), f(ts_l)) < 1e-6


def test_left_semigroup():
    f = P.gaussian()
    t = np.linspace(0.3, 3.0, 9)
    for (a, b) in ((0.5, 1.0), (1.5, 1.0), (0.7, 0.8)):
        inner = P.tabulate(lambda x: ek_left(b, f, x, TIGHT), 0.0, 4.0,
                           P.ArgKind.EuclideanRadius, n=220)
        lhs = ek_left(a, inner, t)
        rhs = ek_left(a + b, f, t)
        assert rel_err(lhs, rhs) < 1e-8


def test_right_support_locality_exact():
    f = P.bump(1.0)
    for alpha in (0.5, 1.0, 2.5):
        assert ek_right(alpha, f, 1.0) == 0.0
        assert ek_right(alpha, f, 1.7) == 0.0
        assert ek_right(alpha, f, 30.0) == 0.0


def test_grid_profile_constraints():
    with pytest.raises(DomainError):
        P.from_grid(np.linspace(0, 1, 5), np.ones(5), P.ArgKind.EuclideanRadius)
    x = np.linspace(0, 1, 12)
    x2 = x.copy()
    x2[5] = x2[4]
    with pytest.raises(DomainError):
        P.from_grid(x2, np.ones(12), P.ArgKind.EuclideanRadius)
    prof = P.from_grid(x, x ** 2, P.ArgKind.EuclideanRadius)
    assert abs(prof(0.5) - 0.25) < 1e-3


# -- pinned values -------------------------------------------------------------
# float.hex of the fractional integrals and of every transform row, recorded
# before the first two ladder rungs of every split segment were evaluated in
# one call; that change must not move a bit.  The right-breakpoints values
# at t = 0 and 0.4, where both breakpoints lie above t, were re-recorded when
# every finite segment of the infinite-domain ek_right got its u^(a-1)
# weight; they agree with scipy's quad of the substituted integral to 2e-11.

def _kinked(r):
    return np.exp(-r * r) * (1.0 + np.abs(r - 0.6))


_EK_PROFILES = {
    "breakpoints": P.Profile1D(lo=0.0, hi=math.inf, fn=_kinked,
                               decay_hint=math.inf, breakpoints=(0.6, 1.1)),
    "edge": P.truncated_power_pair(3.0, 1.2, 1.0, P.ArgKind.EuclideanRadius),
    "origin": P.gaussian_power(1.5),
}

_EK_GOLDEN = {
    'left-breakpoints-0.5': ('0x0.0p+0', '0x1.0c47263d9f63ep-1', '0x1.81b39259d41b7p-1', '0x1.3a6cb547eab26p-1'),
    'right-breakpoints-0.5': ('0x1.5901a1df75211p+0', '0x1.1298fbc6c642dp+0', '0x1.2d6ea3aab8212p-1', '0x1.fc52934fd3872p-4'),
    'left-breakpoints-1.5': ('0x0.0p+0', '0x1.fa94740372265p-5', '0x1.3fa708f4b620ep-1', '0x1.f6e28416b5bb9p+0'),
    'right-breakpoints-1.5': ('0x1.921bb076a5ffap+0', '0x1.613694784ed33p+0', '0x1.6d8f30ade22ddp-1', '0x1.19fb71025624ap-3'),
    'left-edge-0.5': ('0x0.0p+0', '0x1.4d9ae8e59ebb5p-3', '0x1.73501bc0c6951p-1', '0x1.42cbca4e60368p-2'),
    'right-edge-0.5': ('0x1.4cc5c64a6d7eap-1', '0x1.7dc1d5b26d1d5p-1', '0x1.a43122b9106adp-2', '0x0.0p+0'),
    'left-edge-1.5': ('0x0.0p+0', '0x1.b1703625ae408p-7', '0x1.b3d85fb45d25cp-2', '0x1.594ab5fa8b8adp+0'),
    'right-edge-1.5': ('0x1.7f5a9ecc86546p-1', '0x1.44f397b217b7dp-1', '0x1.83b7e4f0fc879p-4', '0x0.0p+0'),
    'left-origin-0.5': ('0x0.0p+0', '0x1.29154de06d19bp-4', '0x1.88d24f48faf57p-2', '0x1.b3af33f46e071p-2'),
    'right-origin-0.5': ('0x1.05d3f8993290bp-1', '0x1.280b15836a32bp-1', '0x1.f6a5422bc1161p-2', '0x1.1b6255a18769bp-3'),
    'left-origin-1.5': ('0x0.0p+0', '0x1.5f3ab2e6abda3p-8', '0x1.bbc90b216b5fbp-3', '0x1.0df9f183218f2p+0'),
    'right-origin-1.5': ('0x1.4748f6bf7f34dp+0', '0x1.30b27d664bd89p+0', '0x1.6f39df850e179p-1', '0x1.56f5e85c54555p-3'),
}


@pytest.mark.parametrize("case", sorted(_EK_GOLDEN))
def test_ek_pinned_bits(case):
    side, name, alpha = case.split("-")
    ek = ek_left if side == "left" else ek_right
    got = ek(float(alpha), _EK_PROFILES[name], np.array([0.0, 0.4, 1.0, 1.7]))
    assert tuple(float(v).hex() for v in got) == _EK_GOLDEN[case]


#: three points inside each row's span
_ROW_POINTS = {P.ArgKind.EuclideanRadius: (0.0, 0.5, 1.3),
               P.ArgKind.BallRadius: (0.1, 0.4, 0.8),
               P.ArgKind.CoshDistance: (1.1, 1.5, 2.5),
               P.ArgKind.SinhDistance: (0.2, 0.8, 1.5),
               P.ArgKind.CosAngle: (0.3, 0.6, 0.95),
               P.ArgKind.SinAngle: (0.2, 0.5, 0.9),
               P.ArgKind.Angle: (0.1, 0.3, 0.6)}

_ROW_GOLDEN = {
    'radon_affine_radial': ('0x1.3d9facc650cdap+0', '0x1.7d62acd2bc410p-1', '0x1.42fda342c0293p-5'),
    'radon_chord_radial': ('0x1.2962c8283b80fp+0', '0x1.acea87873e459p-1', '0x1.0a8dc7cb41b66p-2'),
    'radon_hyper_zonal': ('0x1.870512737535dp-4', '0x1.12ad4feba0ea1p-7', '0x1.80aeb764b0ab0p-20'),
    'radon_elliptic_zonal': ('0x1.c5ae1678caf72p-1', '0x1.41acc113e1039p-1', '0x1.6155e6caf4cbcp-2'),
    'radon_projective_zonal': ('0x1.004af7fe2c51cp-1', '0x1.ae1df588988e4p-2', '0x1.b13d8ac32e5f4p-3'),
    'dual_affine_radial': ('0x1.0000000000002p+0', '0x1.70bf441a569e2p-1', '0x1.6f20c0d2f7a15p-3'),
    'dual_chord_radial': ('0x1.f9172e337cd67p-1', '0x1.9dd6287127c7ep-1', '0x1.d0df4a7b8f236p-2'),
    'dual_hyper_zonal': ('0x1.e5066a126305ap-1', '0x1.d0df4a7b8f236p-2', '0x1.060e0ee1e4da7p-3'),
    'dual_elliptic_zonal': ('0x1.e5066a126305ap-1', '0x1.70bf441a569e2p-1', '0x1.83e57e422f5e9p-2'),
    'dual_projective_zonal': ('0x1.f9185b8a92171p-1', '0x1.c6063c681cc5dp-1', '0x1.45f514fb58eeap-1'),
}


@pytest.mark.parametrize("model, dual", sorted(R.TRANSFORMS, key=str), ids=str)
def test_transform_rows_pinned_bits(model, dual):
    row = R.TRANSFORMS[model, dual]
    lo = 1.0 if row.kind is P.ArgKind.CoshDistance else 0.0
    f = P.gaussian(0.7, arg_kind=row.kind, lo=lo)
    got = R.transform_function(model, dual)(R.TransformParams(4, 1, 2), f,
                                            np.array(_ROW_POINTS[row.kind]))
    assert tuple(float(v).hex() for v in got) == _ROW_GOLDEN[row.name]


#: float.hex of the fractional derivatives, one case per fixed-grid psi
#: sampler branch, recorded before the samplers took whole vectors of points
_PSI_CASES = {
    "right-gaussian": (ek_deriv_right, 1.5, P.gaussian(1.0), (0.4, 1.0, 1.7)),
    "right-edge": (ek_deriv_right, 1.5,
                   P.truncated_power_pair(3.0, 1.2, 1.0, P.ArgKind.EuclideanRadius),
                   (0.3, 0.7, 1.0)),
    "right-soft-cap": (ek_deriv_right, 1.5, P.bump(1.5), (0.3, 0.7, 1.2)),
    "left-power": (ek_deriv_left, 0.5, P.power(1.0), (0.4, 1.0, 1.7)),
    # the window ends at the cap, where the fixed grid falls back to ek_left
    "left-capped": (ek_deriv_left, 0.5, P.power(1.0, hi=1.5), (0.4, 1.0, 1.4)),
}

_PSI_GOLDEN = {
    'right-gaussian': ('0x1.b44c30d03e045p-1', '0x1.78b56362cf502p-2', '0x1.c747c3f3435a4p-5'),
    'right-edge': ('-0x1.1ddf077e636a1p+2', '-0x1.249a23d7428bdp+0', '-0x1.661e3d97f1879p-1'),
    'right-soft-cap': ('0x1.0f38be014cf33p-4', '0x1.5c951968d96bap-3', '0x1.8af71d086ed5fp-1'),
    'left-power': ('0x1.c5bf891b4ee45p-1', '0x1.c5bf891b4ee6dp-1', '0x1.c5bf891b4ee43p-1'),
    'left-capped': ('0x1.c5bf891b4ee7dp-1', '0x1.c5bf891b4eef0p-1', '0x1.c5bf891b4ed77p-1'),
}


@pytest.mark.parametrize("case", sorted(_PSI_GOLDEN))
def test_fractional_derivative_pinned_bits(case):
    deriv, alpha, phi, t = _PSI_CASES[case]
    got = deriv(alpha, phi, np.array(t))
    assert tuple(float(v).hex() for v in got) == _PSI_GOLDEN[case]


def test_projective_point_subdivision_budget():
    # one projective point is one split integral of 51 geometric segments,
    # each of which spends one unit: 40 is too few, 60 enough
    g = P.gaussian(0.5, arg_kind=P.ArgKind.Angle)
    p = R.TransformParams(4, 1, 2)
    with pytest.raises(QuadratureError, match="budget exhausted"):
        R.radon_projective_zonal(p, g, 0.3, QuadratureSpec(max_subdivisions=40))
    got = R.radon_projective_zonal(p, g, 0.3, QuadratureSpec(max_subdivisions=60))
    assert got.hex() == '0x1.253657247b32fp-2'


def _single(u_core, shapes=None):
    """A one-dimensional integrand as the row integrand of a batch; the
    shape and the range of every node block it sees go to ``shapes``."""
    def core(u, keys):
        if shapes is not None:
            shapes.append((u.shape, float(u.min()), float(u.max())))
        return u_core(u.ravel()).reshape(u.shape)
    return core


def test_split_integral_with_bisecting_segment():
    # a kink at u = 0.7 inside the segment [0.5, 1.0]: only that segment's
    # rungs disagree, so it alone climbs the ladder, and its halves and
    # theirs bisect inside it; the others are accepted at 32 nodes
    shapes = []
    left = np.array([50])
    got, = Q._integrate_splits(
        _single(lambda u: np.exp(-u) * (1.0 + np.abs(u - 0.7)), shapes),
        [(0.0, 3.0, -0.5, 0.25, [0.5, 1.0, 2.0])], QuadratureSpec(), left)
    assert got.hex() == '0x1.ab0b04bdb37bcp+1'
    assert left.tolist() == [36]
    (first, _, _), climb = shapes[0], shapes[1:4]
    assert first == (4, 48)
    assert [s[0] for s in climb] == [(1, 64), (1, 128), (1, 256)]
    assert all(0.5 < lo and hi < 1.0 for _, lo, hi in climb)
    halves = [s for s in shapes[4:] if s[0][1] == 48]
    assert halves and all(0.5 < lo and hi < 1.0 for _, lo, hi in halves)


def _rule_alone(core, a, b, p_lo, p_hi, n):
    """The n-node rule on [a, b] applied to one integrand alone."""
    x, w = Q._rule(n, p_lo, p_hi)
    h = 0.5 * (b - a)
    return float(h ** (1.0 + p_lo + p_hi) * np.dot(w, core(a + h * (x + 1.0))))


def _ladder_one_by_one(core, a, b, p_lo, p_hi, spec, budget, hint):
    """One integral up the node ladder, one rule at a time, and down its
    bisections depth first, each half folding the endpoint weight it does
    not own into its integrand: the recursion whose bits and budget the
    row ladder keeps.  ``budget`` is a one-element list of units left,
    one spent per ladder entry."""
    if b <= a:
        return 0.0
    budget[0] -= 1
    prev = None
    for n in (16, 32, 64, 128, 256):
        cur = _rule_alone(core, a, b, p_lo, p_hi, n)
        if prev is not None and Q._rungs_agree(prev, cur, spec, hint):
            return cur
        prev = cur
    mid = 0.5 * (a + b)
    left = _ladder_one_by_one(lambda u: core(u) * (b - u) ** p_hi,
                              a, mid, p_lo, 0.0, spec, budget, hint)
    right = _ladder_one_by_one(lambda u: core(u) * (u - a) ** p_lo,
                               mid, b, 0.0, p_hi, spec, budget, hint)
    return left + right


def _split_one_by_one(u_core, lo, hi, p_lo, p_hi, interior, spec, budget):
    """One split integral one segment at a time: the loop whose bits the
    batch must keep."""
    points = [lo] + [p for p in interior if lo < p < hi] + [hi]
    segs = [(a, b, p_lo if a == lo else 0.0, p_hi if b == hi else 0.0)
            for a, b in zip(points[:-1], points[1:])]

    def core_of(a, b):
        def core(u):
            vals = u_core(u)
            if a != lo and p_lo != 0.0:
                vals = vals * (u - lo) ** p_lo
            if b != hi and p_hi != 0.0:
                vals = vals * (hi - u) ** p_hi
            return vals
        return core

    scale = 0.0
    for a, b, jl, jh in segs:
        scale += abs(_rule_alone(core_of(a, b), a, b, jl, jh, 32))
    return sum(_ladder_one_by_one(core_of(a, b), a, b, jl, jh, spec, budget,
                                  scale)
               for a, b, jl, jh in segs)


_SPLIT_CASES = {
    "one": (np.exp, -1.0, 2.0, -0.5, 0.5, []),
    "two": (lambda u: np.cos(3.0 * u) / (1.0 + u), 0.0, 2.0, 0.0, 0.7, [1.0]),
    "four": (lambda u: np.cos(3.0 * u) / (1.0 + u), 0.0, 8.0, 0.3, -0.4,
             [1.0, 2.0, 4.0]),
    "kinked": (lambda u: np.exp(-u) * (1.0 + np.abs(u - 0.7)), 0.0, 3.0, -0.5,
               0.25, [0.5, 1.0, 2.0]),
    "geometric": (lambda u: np.exp(-np.sqrt(u)), 0.0, 2.0 ** 21, -0.5, 1.5,
                  [2.0 ** i for i in range(20)]),
    # accepted at 64, 128 and 256 nodes
    "climb-64": (lambda u: np.cos(40.0 * u), 0.0, 1.0, -0.5, 0.0, []),
    "climb-128": (lambda u: np.cos(100.0 * u), 0.0, 1.0, -0.5, 0.0, []),
    "climb-256": (lambda u: np.cos(250.0 * u), 0.0, 1.0, -0.5, 0.0, []),
    # both endpoint weights: a segment accepted at 64 nodes, one bisecting
    "climb-split": (lambda u: np.cos(30.0 * u * u) * (1.0 + np.abs(u - 1.3)),
                    0.0, 2.0, -0.3, 0.6, [1.0]),
}


@pytest.mark.parametrize("cases", [["one"], ["two"], ["four"], ["kinked"],
                                   ["geometric"],
                                   ["four", "geometric", "kinked", "one", "two"],
                                   ["kinked", "one", "kinked", "two"],
                                   ["climb-64", "climb-128", "climb-256",
                                    "climb-split", "one"]],
                         ids="+".join)
def test_split_batch_keeps_the_bits_of_the_segment_loop(cases):
    # a batch of several integrals, each with its own integrand and budget,
    # gives every integral the bits and the budget of its own segment loop
    spec = QuadratureSpec()
    args = [_SPLIT_CASES[c] for c in cases]
    fns = [a[0] for a in args]

    def core(u, keys):
        return np.array([fns[k](row) for k, row in zip(keys.tolist(), u)])

    left = np.full(len(args), 200)
    got = Q._integrate_splits(core, [a[1:] for a in args], spec, left)
    for (u_core, *rest), value, units in zip(args, got, left.tolist()):
        one = [200]
        want = _split_one_by_one(u_core, *rest, spec, one)
        assert value.hex() == want.hex()
        assert units == one[0]


def test_climbing_rows_share_each_rung_call():
    # four integrals of one segment each, accepted at 32, 64, 128 and 256
    # nodes: one core call for the 16- and 32-node rungs of all four, then
    # one per rung on the rows still climbing, and one unit of budget each
    cases = ["one", "climb-64", "climb-128", "climb-256"]
    fns = [_SPLIT_CASES[c][0] for c in cases]
    shapes = []

    def core(u, keys):
        shapes.append(u.shape)
        return np.array([fns[k](row) for k, row in zip(keys.tolist(), u)])

    left = np.full(len(cases), 200)
    Q._integrate_splits(core, [_SPLIT_CASES[c][1:] for c in cases],
                        QuadratureSpec(), left)
    assert shapes == [(4, 48), (3, 64), (2, 128), (1, 256)]
    assert left.tolist() == [199] * 4


def test_split_batch_keeps_each_integrals_error():
    # an integral whose exponent no rule can carry (with breakpoints inside
    # it) and one whose budget runs out sit between two good integrals of
    # one batch: each keeps its own error and budget (recorded before the
    # rows were batched as columns), and the good ones the bits and budget
    # of their own segment loop
    spec = QuadratureSpec()
    args = [_SPLIT_CASES["two"],
            (np.exp, 0.0, 3.0, -0.5, -1.0, [0.5, 1.0, 2.0]),
            _SPLIT_CASES["kinked"], _SPLIT_CASES["one"]]
    fns = [a[0] for a in args]

    def core(u, keys):
        return np.array([fns[k](row) for k, row in zip(keys.tolist(), u)])

    left = np.array([200, 200, 5, 200])
    got = Q._integrate_splits(core, [a[1:] for a in args], spec, left)
    assert isinstance(got[1], DivergenceError)
    assert str(got[1]) == ("endpoint exponent <= -1 is not integrable "
                           "(p_lo=0.0, p_hi=-1.0)")
    assert isinstance(got[2], QuadratureError)
    assert str(got[2]) == "quadrature subdivision budget exhausted"
    assert left[1:3].tolist() == [200, -3]
    for i in (0, 3):
        one = [200]
        want = _split_one_by_one(*args[i], spec, one)
        assert got[i].hex() == want.hex()
        assert left[i] == one[0]


def _count_rows(monkeypatch, module):
    """Wrap ``module._integrate_rows`` so that the node blocks of every
    call go to the returned list, one list of u shapes per call."""
    calls, rows = [], module._integrate_rows

    def counted(core, *args):
        calls.append([])

        def seen(u, keys):
            calls[-1].append(u.shape)
            return core(u, keys)
        return rows(seen, *args)

    monkeypatch.setattr(module, "_integrate_rows", counted)
    return calls


def test_projective_point_work(monkeypatch):
    # the 51 segments of one projective point all have agreeing rungs, so
    # none climbs past 32 nodes; four points make a block of three (the
    # first past 128 rows) and a block of one
    batches = []
    splits = Q._integrate_splits

    def counted_splits(core, items, spec, left):
        batches.append([1 + sum(lo < p < hi for p in interior)
                        for lo, hi, _, _, interior in items])
        return splits(core, items, spec, left)

    monkeypatch.setattr(F, "_integrate_splits", counted_splits)
    calls = _count_rows(monkeypatch, Q)
    p = R.TransformParams(4, 1, 2)
    g = P.gaussian(0.5, arg_kind=P.ArgKind.Angle)
    R.radon_projective_zonal(p, g, 0.3)
    assert batches == [[51]]
    batches.clear()
    R.radon_projective_zonal(p, g, np.array([0.2, 0.3, 0.3, 0.5]))
    assert batches == [[51] * 3, [51]]
    assert calls == [[(51, 48)], [(153, 48)], [(51, 48)]]


#: the five profile families of the batch property: an infinite-domain
#: gaussian, a support edge with a Jacobi exponent, an origin power on a
#: finite domain, a Chebyshev table and declared breakpoints (with the
#: infinite tail after them)
_BATCH_PROFILES = {
    "gaussian": P.gaussian(0.8),
    "edge": P.truncated_power_pair(3.0, 1.2, 0.0, P.ArgKind.EuclideanRadius),
    "origin": P.power(1.5, hi=2.0),
    "table": P.tabulate(lambda x: np.exp(-x * x) * np.cos(x), 0.0, 2.5,
                        P.ArgKind.EuclideanRadius, n=48),
    "breakpoints": _EK_PROFILES["breakpoints"],
}


def _outcome(fn):
    """float.hex of every value, or the type and text of the error."""
    try:
        return tuple(float(v).hex() for v in np.atleast_1d(fn()))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(side=st.sampled_from(["left", "right"]),
       name=st.sampled_from(sorted(_BATCH_PROFILES)),
       alpha=st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.5]),
       t=st.lists(st.sampled_from([0.0, 0.6, 1.1, 1.2, 2.0, 2.5, 4.0])
                  | st.floats(0.0, 3.0), min_size=1, max_size=6))
def test_batch_equals_the_point_loop(side, name, alpha, t):
    # t = 0, the breakpoints 0.6 and 1.1, the support edge 1.2, points past
    # every support or domain end and repeated points: the vector call gives
    # each point the bits of its own call, or raises what the first failing
    # point raises
    ek = ek_left if side == "left" else ek_right
    f = _BATCH_PROFILES[name]
    points = _outcome(lambda: [ek(alpha, f, ti) for ti in t])
    assert _outcome(lambda: ek(alpha, f, np.array(t))) == points


@pytest.mark.parametrize("t, error", [([0.2, 8.0], QuadratureError),
                                      ([8.0, -1.0], QuadratureError),
                                      ([-1.0, 8.0], DomainError),
                                      ([0.2, 0.2], None)])
def test_batch_raises_the_first_failing_point(t, error):
    # three units: t = 0.2 is one segment, t = 8 five geometric segments; a
    # point's setup error comes after the errors of the points before it
    spec = QuadratureSpec(max_subdivisions=3)
    g = P.gaussian()
    if error is None:
        assert ek_left(1.5, g, np.array(t), spec).tolist() == \
            [ek_left(1.5, g, ti, spec) for ti in t]
        return
    with pytest.raises(error) as vector:
        ek_left(1.5, g, np.array(t), spec)
    with pytest.raises(error) as point:
        for ti in t:
            ek_left(1.5, g, ti, spec)
    assert str(vector.value) == str(point.value)


@pytest.mark.parametrize("case, per_try", [("right-gaussian", [1, 1]),
                                           ("left-capped", [2])])
def test_fixed_grid_psi_one_core_call_per_ladder_try(monkeypatch, case,
                                                     per_try):
    # every sample point of a ladder try shares one core call (97 calls a
    # try before); the left sampler's point at the cap adds its adaptive one
    deriv, alpha, phi, t = _PSI_CASES[case]
    calls = []

    def fn(x):
        calls.append(np.size(x))
        return phi.fn(x)

    counts = []
    ladder = F._ladder

    def counted_ladder(sample_y, *args):
        def sample(y):
            before = len(calls)
            out = sample_y(y)
            counts.append(len(calls) - before)
            return out
        return ladder(sample, *args)

    monkeypatch.setattr(F, "_ladder", counted_ladder)
    deriv(alpha, dataclasses.replace(phi, fn=fn), np.array(t))
    assert counts == per_try


def test_projective_point_calls_its_input_once():
    # each geometric segment used to evaluate the profile chain three times
    # (a coarse pass and the 16- and 32-node rungs): 153 calls for one point
    g = P.gaussian(0.5, arg_kind=P.ArgKind.Angle)
    calls = []

    def fn(x):
        calls.append(np.size(x))
        return g.fn(x)

    f = dataclasses.replace(g, fn=fn)
    R.radon_projective_zonal(R.TransformParams(4, 1, 2), f, 0.3)
    assert 1 <= len(calls) <= 3


def test_right_integral_at_zero_of_nonintegrable_origin_power_diverges():
    # r^-1.5 against the kernel's r^0 at t = 0 on a finite support: the
    # lower Jacobi exponent is -1.25, which no rule can carry
    f = P.truncated_power_pair(3.0, 1.2, -1.5, P.ArgKind.EuclideanRadius)
    with pytest.raises(DivergenceError):
        ek_right(0.5, f, 0.0)


def test_left_integral_where_its_value_underflows():
    # t^2.5 underflows at t = 1e-300 and 5e-324, where the core r^1.5 / r^1.5
    # of the power's factored form is 0/0 on every node: the value is 0,
    # with no warning
    f = P.power(1.5, hi=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ek_left(0.5, f, np.array([5e-324, 1e-300, 1e-100]))
    assert [v.hex() for v in got.tolist()] == \
        ['0x0.0p+0', '0x0.0p+0', '0x1.295bc52bb4f52p-831']


_RATIONAL = P.Profile1D(lo=0.0, hi=math.inf, fn=lambda r: (1 + r * r) ** -2.5,
                        decay_hint=5.0)


@pytest.mark.parametrize("t", [10.0, 100.0, 1e3, 1e4])
def test_right_integral_of_algebraic_tails_at_large_t(t):
    # the integrand in u = r^2 - t^2 is flat up to u ~ t^2, past the first
    # octaves, and that growth is no divergence.  2 int_t^inf r^-3 dr = t^-2
    # and
    # 2 int_t^inf (1+r^2)^(-5/2) r dr = (2/3)(1+t^2)^(-3/2)
    cases = [(P.power(-4.0, lo=1.0), t ** -2.0),
             (_RATIONAL, (2.0 / 3.0) * (1.0 + t * t) ** -1.5)]
    for f, want in cases:
        # relative to the value at a relative-only tolerance, and within
        # the default absolute tolerance at the default one
        tight = ek_right(1.0, f, t, QuadratureSpec(rel_tol=1e-12,
                                                   abs_tol=1e-300))
        assert abs(tight - want) <= 1e-11 * want
        assert abs(ek_right(1.0, f, t) - want) <= 1e-12
