import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import TIGHT, rel_err, sup_rel_err
from georadon import profiles as P
from georadon import radial as R
from georadon import fracint, quadrature
from georadon.errors import (DifferentiationInstabilityError, DivergenceError,
                             DomainError)
from georadon.models import Model
from georadon.special import lambda2, sphere_area


def brute_forward_affine(p, f0, s, upper=np.inf):
    a = (p.k - p.j) / 2.0
    val, _ = quad(lambda r: f0(r) * (r * r - s * s) ** (a - 1.0) * r,
                  s, upper, limit=400)
    return sphere_area(p.k - p.j - 1) * val


def brute_dual(p, phi0, r):
    a = (p.k - p.j) / 2.0
    c = sphere_area(p.k - p.j - 1) * sphere_area(p.n - p.k - 1) \
        / sphere_area(p.n - p.j - 1)
    val, _ = quad(lambda s: phi0(s) * (r * r - s * s) ** (a - 1.0)
                  * s ** (p.n - p.k - 1), 0.0, r, limit=400)
    return c / r ** (p.n - p.j - 2) * val


def test_params_validation():
    with pytest.raises(DomainError):
        R.TransformParams(3, 1, 1)
    with pytest.raises(DomainError):
        R.TransformParams(3, 0, 3)
    with pytest.raises(DomainError):
        R.TransformParams(1, 0, 1)


def test_affine_gaussian_closed_form():
    for (n, j, k) in ((4, 0, 2), (5, 1, 3), (3, 0, 1)):
        p = R.TransformParams(n, j, k)
        s = np.linspace(0.0, 2.5, 11)
        got = R.radon_affine_radial(p, P.gaussian(), s)
        want = math.pi ** ((k - j) / 2) * np.exp(-s * s)
        assert rel_err(got, want) < 1e-12


def test_affine_elementary_tail():
    # r^(j-k-2) cut below 1, k-j=2: the transform is pi/s^2 past the cut
    p = R.TransformParams(5, 1, 3)

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1.0, r ** (p.j - p.k - 2.0), 0.0)

    f = P.Profile1D(lo=0.0, hi=math.inf, fn=fn,
                    arg_kind=P.ArgKind.EuclideanRadius, decay_hint=4.0,
                    breakpoints=(1.0,))
    for s in (1.2, 2.0):
        got = R.radon_affine_radial(p, f, s)
        want, _ = quad(lambda r: 2 * math.pi * r ** (-3.0), s, np.inf)
        assert abs(got - want) < 1e-9 * abs(want)


def test_affine_divergence_error():
    p = R.TransformParams(4, 0, 2)
    with pytest.raises(DivergenceError):
        R.radon_affine_radial(p, P.power(0.0), 1.0)


def test_zero_profile_maps_to_zero():
    p = R.TransformParams(4, 0, 2)
    zero = P.Profile1D(lo=0.0, hi=math.inf,
                       fn=lambda r: np.zeros_like(np.asarray(r)),
                       arg_kind=P.ArgKind.EuclideanRadius, decay_hint=math.inf)
    assert R.radon_affine_radial(p, zero, 1.0) == 0.0
    assert R.dual_affine_radial(p, zero, 1.0) == 0.0


def test_dual_transforms_of_constant_are_one():
    for (n, j, k) in ((4, 0, 2), (5, 1, 2), (6, 2, 4)):
        p = R.TransformParams(n, j, k)
        one_b = P.power(0.0, hi=1.0, arg_kind=P.ArgKind.BallRadius)
        assert abs(R.dual_chord_radial(p, one_b, 0.5) - 1.0) < 1e-12
        one_e = P.power(0.0, hi=math.inf)
        assert abs(R.dual_affine_radial(p, one_e, 1.3) - 1.0) < 1e-12
        one_c = P.power(0.0, hi=1.0 + 1e-9, arg_kind=P.ArgKind.CosAngle)
        assert abs(R.radon_elliptic_zonal(p, one_c, 0.7) - 1.0) < 1e-12
        one_s = P.power(0.0, hi=1.0 + 1e-9, arg_kind=P.ArgKind.SinAngle)
        assert abs(R.dual_elliptic_zonal(p, one_s, 0.7) - 1.0) < 1e-12


def test_dual_against_brute_quadrature():
    p = R.TransformParams(5, 1, 2)
    phi = P.gaussian()
    for r in (0.4, 1.1, 2.3):
        got = R.dual_affine_radial(p, phi, r)
        want = brute_dual(p, lambda s: math.exp(-s * s), r)
        assert abs(got - want) < 1e-9 * abs(want)


def test_dual_sharp_singularity_rejected():
    # phi ~ s^(k-n) is exactly non-integrable against s^(n-k-1)
    p = R.TransformParams(5, 1, 2)
    phi = P.power(float(p.k - p.n), lo=1e-300)
    with pytest.raises(DivergenceError):
        R.dual_affine_radial(p, phi, 1.0)


def test_elliptic_zonal_power_rule():
    # F1 = t^q maps to a Beta multiple of s^q
    p = R.TransformParams(5, 1, 2)
    q_exp = 2.0
    f1 = P.power(q_exp, hi=1.0 + 1e-9, arg_kind=P.ArgKind.CosAngle)
    a = (p.k - p.j) / 2.0
    c = sphere_area(p.j) * sphere_area(p.k - p.j - 1) / sphere_area(p.k)
    want_c = c * 0.5 * math.gamma((p.j + q_exp + 1) / 2) * math.gamma(a) \
        / math.gamma((p.j + q_exp + 1) / 2 + a)
    for s in (0.3, 0.8, 1.0):
        got = R.radon_elliptic_zonal(p, f1, s)
        assert abs(got - want_c * s ** q_exp) < 1e-11 * abs(want_c)


def test_hyper_zonal_example_value():
    pair = R.closed_form_pair(R.ClosedFormId.HYPER_CAP)
    got = R.evaluate_closed_form(pair, 1.0)
    assert abs(got - math.sqrt(3.0)) < 1e-10


def test_radon_hyper_zonal_of_gaussian_identity():
    # f1 = e^{-r^2} r^{1-j} maps to pi^((k-j)/2) s^(1-k) e^{-s^2}
    for (n, j, k) in ((3, 0, 1), (5, 1, 3)):
        p = R.TransformParams(n, j, k)
        f1 = P.Profile1D(lo=1.0, hi=math.inf,
                         fn=lambda r: np.exp(-r * r) * r ** (1.0 - j),
                         arg_kind=P.ArgKind.CoshDistance, decay_hint=math.inf)
        s = np.linspace(1.0, 2.5, 7)
        got = R.radon_hyper_zonal(p, f1, s)
        want = math.pi ** ((k - j) / 2) * s ** (1.0 - k) * np.exp(-s * s)
        assert rel_err(got, want) < 1e-11


@pytest.mark.parametrize("cf", list(R.ClosedFormId))
def test_closed_forms_at_defaults(cf):
    pair = R.closed_form_pair(cf)
    grid = np.linspace(1.0, 1.98, 64) if cf is R.ClosedFormId.HYPER_CAP \
        else np.linspace(0.05, 0.95, 64)
    got = np.asarray(R.evaluate_closed_form(pair, grid))
    assert rel_err(got, pair.expected(grid)) < 1e-8


def test_closed_forms_other_regimes():
    # j > 0 with j+k >= n, and fractional kernel order
    pair = R.closed_form_pair(R.ClosedFormId.CHORD_CAP,
                              R.TransformParams(5, 1, 3), alpha=3.0, a=0.8)
    grid = np.linspace(0.05, 0.75, 33)
    got = np.asarray(R.evaluate_closed_form(pair, grid))
    assert rel_err(got, pair.expected(grid)) < 1e-8
    pair2 = R.closed_form_pair(R.ClosedFormId.DUAL_CHORD_POWER,
                               R.TransformParams(5, 1, 3), alpha=1.5)
    grid2 = np.linspace(0.05, 0.9, 33)
    got2 = np.asarray(R.evaluate_closed_form(pair2, grid2))
    assert rel_err(got2, pair2.expected(grid2)) < 1e-8


def test_chord_cap_past_the_ball_edge_matches_the_bare_profile():
    # a declared support beyond the cap: (a^2 - r^2)^e is smooth at the
    # ball's edge, so the metadata must not change the transform
    f = _chord_cap(1.2, 3.0)
    bare = P.Profile1D(lo=f.lo, hi=f.hi, fn=f.fn, arg_kind=f.arg_kind)
    p, s = R.TransformParams(4, 0, 2), [0.2, 0.5, 0.8]
    assert rel_err(R.radon_chord_radial(p, f, s),
                   R.radon_chord_radial(p, bare, s)) < 1e-10


def test_projective_round_trip_by_construction(hyper_gauss_cosh):
    from georadon.models import WeightOp, apply_weight
    p = R.TransformParams(4, 1, 2)
    geo = P.Profile1D(lo=0.0, hi=math.inf,
                      fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                      arg_kind=P.ArgKind.GeodesicDistance, decay_hint=math.inf)
    f_pi = apply_weight(WeightOp.M1, p, geo)
    th = np.linspace(0.05, 0.6, 9)
    got = np.asarray(R.radon_projective_zonal(p, f_pi, th))
    # by the weighted-route definition this equals the stripped hyperbolic
    # forward transform
    rho = np.arctanh(np.tan(th))
    direct = np.asarray(R.radon_hyper_zonal(p, hyper_gauss_cosh, np.cosh(rho)))
    want = direct * np.cos(2 * th) ** (-(p.j + 1) / 2.0)
    assert rel_err(got, want) < 1e-10


def test_projective_against_chord_route(hyper_gauss_cosh):
    from georadon.models import WeightOp, apply_weight
    p = R.TransformParams(4, 1, 2)
    geo = P.Profile1D(lo=0.0, hi=math.inf,
                      fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                      arg_kind=P.ArgKind.GeodesicDistance, decay_hint=math.inf)
    f_pi = apply_weight(WeightOp.M1, p, geo)
    th = np.linspace(0.05, 0.6, 9)
    got = np.asarray(R.radon_projective_zonal(p, f_pi, th))
    g_ball = P.reparametrize(apply_weight(WeightOp.M0_INV, p, f_pi),
                             P.ArgKind.BallRadius)
    rb = P.Profile1D(lo=0.0, hi=1.0,
                     fn=lambda b: np.asarray(
                         R.radon_chord_radial(p, g_ball, np.atleast_1d(b))),
                     arg_kind=P.ArgKind.BallRadius)
    via_chord = apply_weight(WeightOp.N0_INV, p, rb)(th)
    assert rel_err(got, via_chord) < 1e-8


# -- existence predicates and sharpness ------------------------------------------

def test_existence_verdicts():
    p = R.TransformParams(5, 1, 2)
    K, V = R.ExistenceKind, R.Verdict
    assert R.existence_predicate(K.AFFINE_FORWARD_POWER, p,
                                 p.k - p.j + 0.5).verdict is V.SUFFICIENT
    assert R.existence_predicate(K.AFFINE_FORWARD_POWER, p,
                                 p.k - p.j).verdict is V.SHARP_VIOLATION
    assert R.existence_predicate(K.AFFINE_DUAL_POWER, p,
                                 p.n - p.k - 0.5).verdict is V.SUFFICIENT
    assert R.existence_predicate(K.AFFINE_DUAL_POWER, p,
                                 p.n - p.k).verdict is V.SHARP_VIOLATION
    assert R.existence_predicate(K.HYPER_FORWARD_POWER, p,
                                 p.k - 1).verdict is V.SHARP_VIOLATION
    assert R.existence_predicate(K.HYPER_DUAL_POWER, p,
                                 p.n - p.k).verdict is V.SHARP_VIOLATION
    crit = (p.n - p.j) / (p.k - p.j)
    assert R.existence_predicate(K.AFFINE_LEBESGUE, p,
                                 crit).verdict is V.SHARP_VIOLATION
    assert R.existence_predicate(K.AFFINE_LEBESGUE, p,
                                 crit - 0.2).verdict is V.SUFFICIENT
    # profiles: compact support certifies; no hints -> inconclusive
    assert R.existence_predicate(K.AFFINE_FORWARD_POWER, p,
                                 P.bump(1.0)).verdict is V.SUFFICIENT
    hintless = P.Profile1D(lo=0.0, hi=math.inf,
                           fn=lambda r: np.exp(-r),
                           arg_kind=P.ArgKind.EuclideanRadius)
    assert R.existence_predicate(K.AFFINE_FORWARD_POWER, p,
                                 hintless).verdict is V.INCONCLUSIVE
    # the tail-weighted integrability criterion reduces to the same exponent
    assert R.existence_predicate(K.AFFINE_WEIGHTED_L1, p,
                                 P.power(-3.0, lo=1e-6)).verdict is V.SUFFICIENT
    assert R.existence_predicate(K.AFFINE_WEIGHTED_L1, p,
                                 float(p.k - p.j)).verdict is V.SHARP_VIOLATION


def _growth_table_checks(vals):
    incs = np.diff(vals)
    assert np.all(incs > 0)
    assert vals[-1] > 1.5 * vals[0]


def test_sharp_forward_witness_grows():
    p = R.TransformParams(5, 1, 2)
    w = R.sharp_witness_profile(R.ExistenceKind.AFFINE_FORWARD_POWER, p)
    cutoffs = 2.0 * 2.0 ** np.arange(7)
    vals = R.truncated_forward_values(p, w, 1.0, cutoffs)
    _growth_table_checks(vals)
    # sufficient side stabilizes: increments shrink geometrically
    good = P.power(-(p.k - p.j + 0.5), lo=1e-6)
    gvals = R.truncated_forward_values(p, good, 1.0, cutoffs)
    gincs = np.diff(gvals)
    assert np.all(gincs[1:] < 0.75 * gincs[:-1])


def test_sharp_lebesgue_witness_grows():
    p = R.TransformParams(5, 1, 2)
    w = R.sharp_witness_profile(R.ExistenceKind.AFFINE_LEBESGUE, p)
    cutoffs = 4.0 * 2.0 ** np.arange(7)
    vals = R.truncated_forward_values(p, w, 1.0, cutoffs)
    _growth_table_checks(vals)


def test_sharp_hyper_forward_witness_grows():
    p = R.TransformParams(5, 1, 2)
    w = R.sharp_witness_profile(R.ExistenceKind.HYPER_FORWARD_POWER, p)
    cutoffs = 4.0 * 2.0 ** np.arange(7)
    vals = R.truncated_forward_values(p, w, 1.5, cutoffs)
    _growth_table_checks(vals)


def test_sharp_dual_witnesses_grow():
    p = R.TransformParams(5, 1, 2)
    cuts = 0.5 ** np.arange(1, 8)
    for kind in (R.ExistenceKind.AFFINE_DUAL_POWER,
                 R.ExistenceKind.HYPER_DUAL_POWER):
        w = R.sharp_witness_profile(kind, p)
        vals = R.truncated_dual_values(p, w, 1.0, cuts)
        _growth_table_checks(vals)


def test_hyper_lebesgue_witness_needs_k_above_one():
    # at k = 1 the bound p < (n-1)/(k-1) does not limit p: no witness
    for t in ((3, 0, 1), (4, 0, 1), (5, 0, 1)):
        with pytest.raises(DomainError):
            R.sharp_witness_profile(R.ExistenceKind.HYPER_LEBESGUE,
                                    R.TransformParams(*t))
    w = R.sharp_witness_profile(R.ExistenceKind.HYPER_LEBESGUE,
                                R.TransformParams(4, 1, 2))
    assert w.decay_hint == 1.0


def test_existence_verdicts_match_the_kernels():
    # power(-e) is a sharp violation exactly when its transform diverges:
    # at e = thr - 0.25 and e = thr, and one exponent well on the
    # sufficient side (e = thr + 2 forward, thr - 0.75 dual)
    K = R.ExistenceKind
    rows = ((K.AFFINE_FORWARD_POWER, R.radon_affine_radial, 1.0, 2.0),
            (K.HYPER_FORWARD_POWER, R.radon_hyper_zonal, 1.5, 2.0),
            (K.AFFINE_DUAL_POWER, R.dual_affine_radial, 1.0, -0.75),
            (K.HYPER_DUAL_POWER, R.dual_hyper_zonal, 1.0, -0.75))
    cases = 0
    for p in _triples(6):
        for kind, fn, x, far in rows:
            w = R.sharp_witness_profile(kind, p)
            thr = R.existence_predicate(kind, p, 0.0).threshold
            for e in (thr - 0.25, thr, thr + far):
                f = P.power(-e, lo=w.lo, arg_kind=w.arg_kind)
                verdict = R.existence_predicate(kind, p, f).verdict
                try:
                    fn(p, f, x)
                    diverges = False
                except DivergenceError:
                    diverges = True
                assert diverges == (verdict is R.Verdict.SHARP_VIOLATION), \
                    (kind, p, e, verdict)
                cases += 1
    assert cases == 420


# -- inversion --------------------------------------------------------------------

def test_invert_affine_forward_gaussian():
    p = R.TransformParams(4, 0, 2)
    F = P.Profile1D(lo=0.0, hi=math.inf,
                    fn=lambda s: math.pi * np.exp(-s * s),
                    arg_kind=P.ArgKind.EuclideanRadius, decay_hint=math.inf)
    rec = R.invert_radial(Model.EuclideanAffine, p, F, out_range=(0.1, 3.0))
    grid = np.linspace(0.15, 2.8, 32)
    assert rel_err(rec(grid), np.exp(-grid ** 2)) < 1e-4


def test_invert_zero_is_zero():
    p = R.TransformParams(4, 0, 2)
    zero = P.Profile1D(lo=0.0, hi=math.inf,
                       fn=lambda s: np.zeros_like(np.asarray(s)),
                       arg_kind=P.ArgKind.EuclideanRadius, decay_hint=math.inf)
    rec = R.invert_radial(Model.EuclideanAffine, p, zero, out_range=(0.1, 3.0),
                          check_residual=False)
    assert float(np.max(np.abs(rec(np.linspace(0.2, 2.5, 16))))) < 1e-12


def test_invert_hyper_forward(hyper_gauss_cosh):
    for (n, j, k) in ((3, 0, 1), (5, 1, 3)):
        p = R.TransformParams(n, j, k)
        F = P.tabulate(lambda s: R.radon_hyper_zonal(p, hyper_gauss_cosh, s,
                                                     TIGHT),
                       1.0, 4.6, P.ArgKind.CoshDistance, n=200,
                       decay_hint=math.inf, scale_fn=lambda s: np.exp(-s * s))
        rec = R.invert_radial(Model.Hyperboloid, p, F, out_range=(1.01, 3.5))
        grid = np.linspace(1.05, 3.2, 32)
        assert rel_err(rec(grid), hyper_gauss_cosh(grid)) < 1e-4


def test_invert_dual_hyper():
    p = R.TransformParams(5, 1, 3)
    phi = P.gaussian(arg_kind=P.ArgKind.SinhDistance)
    Phi = P.tabulate(lambda r: R.dual_hyper_zonal(p, phi, r, TIGHT), 1e-3, 5.0,
                     P.ArgKind.SinhDistance, n=200, decay_hint=2.0,
                     square_variable=True)
    rec = R.invert_radial(Model.Hyperboloid, p, Phi, dual=True,
                          out_range=(0.05, 3.0))
    grid = np.linspace(0.1, 2.8, 32)
    assert rel_err(rec(grid), phi(grid)) < 1e-4


def test_invert_support_locality():
    p = R.TransformParams(4, 0, 2)
    fb = P.bump(0.6, arg_kind=P.ArgKind.BallRadius)
    Fb = P.tabulate(lambda s: R.radon_chord_radial(p, fb, s, TIGHT), 0.0, 0.6,
                    P.ArgKind.BallRadius, n=240, support=0.6,
                    square_variable=True)
    # forward support locality is exact
    assert R.radon_chord_radial(p, fb, 0.7) == 0.0
    assert R.radon_chord_radial(p, fb, 0.95) == 0.0
    rec = R.invert_radial(Model.BeltramiKlein, p, Fb, out_range=(0.02, 0.55))
    grid = np.linspace(0.05, 0.5, 32)
    assert sup_rel_err(rec(grid), fb(grid)) < 1e-4
    # inversion beyond the support radius is exactly zero
    from georadon.fracint import ek_deriv_right
    assert float(np.max(np.abs(ek_deriv_right(1.0, Fb,
                                              np.array([0.7, 0.9]))))) == 0.0


def _cut_support_profile(origin_power):
    """r^o (1.69 - r^2)^0.5 on the ball, its support 1.3 past the ball's
    edge, declared with edge exponent 0.5."""
    return P.Profile1D(lo=0.0, hi=1.0, arg_kind=P.ArgKind.BallRadius,
                       fn=lambda r: r ** origin_power * np.sqrt(1.69 - r * r),
                       origin_power=origin_power, support=1.3,
                       edge_exponent=0.5)


def test_transform_profile_edge_where_the_span_cuts_the_support():
    # the chord row stops at 1, inside the input's support: the input is
    # smooth there, so the image's edge exponent is (k-j)/2 alone, as
    # measured from its values
    p = R.TransformParams(4, 0, 1)
    g = R.transform_profile(Model.BeltramiKlein, False, p,
                            _cut_support_profile(0.0))
    assert (g.support, g.edge_exponent) == (1.0, p.half_gap)
    s = np.array([1.0 - 1e-3, 1.0 - 1e-6])
    vals = g(s)
    measured = math.log(vals[1] / vals[0]) / math.log(
        (1.0 - s[1] ** 2) / (1.0 - s[0] ** 2))
    assert abs(measured - g.edge_exponent) < 1e-2
    core = vals / (1.0 - s * s) ** g.edge_exponent
    assert abs(core[1] / core[0] - 1.0) < 0.05


@pytest.mark.parametrize("triple", [(4, 0, 1), (5, 1, 3)])
def test_chord_forward_folds_a_support_past_the_ball(triple):
    # a support past the ball's edge with an origin power: the cap at 1
    # folds the edge factor (S^2 - r^2)^e into the quadrature core
    p = R.TransformParams(*triple)
    f = _cut_support_profile(0.5)
    s = np.array([0.1, 0.5, 0.9])
    got = R.radon_chord_radial(p, f, s)
    want = [brute_forward_affine(p, f, si, upper=1.0) for si in s]
    assert sup_rel_err(got, want) < 1e-8


@functools.lru_cache(maxsize=None)
def _projective_dual_data():
    """The (4,1,2) projective dual image of P1 exp(-sinh^2 rho), tabulated
    on [0, 0.76], and the input."""
    from georadon.models import WeightOp, apply_weight
    p = R.TransformParams(4, 1, 2)
    geo = P.Profile1D(lo=0.0, hi=math.inf,
                      fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                      arg_kind=P.ArgKind.GeodesicDistance, decay_hint=math.inf)
    phi = apply_weight(WeightOp.P1, p, geo)
    trans_d = P.tabulate(
        lambda x: np.asarray(R.dual_projective_zonal(p, phi, np.atleast_1d(x),
                                                     TIGHT)),
        0.0, 0.76, P.ArgKind.Angle, n=160)
    return p, phi, trans_d


@pytest.mark.parametrize("window", [(0.02, 0.7), (0.05, 0.7), (0.05, 0.5),
                                    (0.02, 0.76)])
def test_invert_projective_dual_extends_the_window(window):
    # the routed reconstruction is the same window profile as every other
    # row's, constant below lo: the re-applied dual sees the input's flat
    # start and the residual check passes (each window failed it, at
    # 8.6e-3 to 7.4e-2, while the routed profile was 0 below lo)
    p, phi, trans_d = _projective_dual_data()
    rec = R.invert_radial(Model.Projective, p, trans_d, dual=True,
                          out_range=window)
    assert rec.lo == 0.0 and rec.breakpoints == (window[0],)
    assert np.all(rec(np.linspace(0.0, window[0], 7)) == rec(window[0]))
    th = np.linspace(*window, 24)
    assert rel_err(rec(th), phi(th)) < 1e-5


def test_invert_projective_dual_rejects_a_window_past_the_flat_start():
    # a left-sided map needs the input below lo: at 0.2 it is not flat yet
    p, _, trans_d = _projective_dual_data()
    with pytest.raises(R.ReconstructionError, match="forward residual"):
        R.invert_radial(Model.Projective, p, trans_d, dual=True,
                        out_range=(0.2, 0.7))


def test_invert_projective_both_directions():
    from georadon.models import WeightOp, apply_weight
    p = R.TransformParams(4, 1, 2)
    geo = P.Profile1D(lo=0.0, hi=math.inf,
                      fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                      arg_kind=P.ArgKind.GeodesicDistance, decay_hint=math.inf)
    th = np.linspace(0.02, 0.6, 24)
    F = apply_weight(WeightOp.M1, p, geo)
    trans = P.tabulate(
        lambda x: np.asarray(R.radon_projective_zonal(p, F, np.atleast_1d(x),
                                                      TIGHT)),
        0.0, 0.76, P.ArgKind.Angle, n=160)
    rec = R.invert_radial(Model.Projective, p, trans, out_range=(0.02, 0.7),
                          check_residual=False)
    assert rel_err(rec(th), F(th)) < 1e-4
    _, phi, trans_d = _projective_dual_data()
    rec_d = R.invert_radial(Model.Projective, p, trans_d, dual=True,
                            out_range=(0.02, 0.7), check_residual=False)
    assert rel_err(rec_d(th), phi(th)) < 1e-4


def test_dual_kernel_value_at_zero():
    # the powers cancel in the r -> 0 limit and the Beta constant survives
    for (n, j, k) in ((5, 1, 2), (4, 0, 2)):
        p = R.TransformParams(n, j, k)
        one = P.power(0.0, hi=math.inf)
        assert abs(R.dual_affine_radial(p, one, 0.0) - 1.0) < 1e-12


def _triples(n_max):
    return [R.TransformParams(n, j, k) for n in range(2, n_max + 1)
            for k in range(1, n) for j in range(k)]


def test_left_sided_rows_cancel_their_powers():
    # post = -(2a + pre) on every left-sided row: the x -> 0 limit of
    # c x^post EK[y^pre f](x) is then the Beta integral
    rows = [t for t in R.TRANSFORMS.values() if t.left]
    assert {t.name for t in rows} == {
        "radon_elliptic_zonal", "dual_affine_radial", "dual_chord_radial",
        "dual_hyper_zonal", "dual_elliptic_zonal"}
    for t in rows:
        _, pre, post = t.weights
        for p in _triples(9):
            assert post(p) == -(2.0 * p.half_gap + pre(p)), (t.name, p)


def test_elliptic_constant_stays_one_down_to_tiny_cosines():
    # the constant 1 maps to 1; below s = 1e-7 the value is the Beta limit,
    # so s^(1-k) never overflows
    one = P.power(0.0, hi=1.0 + 1e-9, arg_kind=P.ArgKind.CosAngle)
    for t in ((3, 0, 1), (4, 1, 3), (5, 1, 2), (6, 2, 5)):
        p = R.TransformParams(*t)
        for s in (1e-200, 1e-60, 1e-9, 0.5):
            assert abs(R.radon_elliptic_zonal(p, one, s) - 1.0) < 1e-12, (t, s)


@pytest.mark.parametrize("row, f", [
    (R.radon_elliptic_zonal,
     P.power(0.5, hi=1.0 + 1e-9, arg_kind=P.ArgKind.CosAngle)),
    (R.dual_affine_radial, P.power(0.5))], ids=["elliptic", "dual-affine"])
def test_left_sided_rows_scale_an_origin_power_below_1e_7(row, f):
    # below 1e-7 a left-sided row takes the Beta limit of x^q h(x): the value
    # at 1e-9 is the x^q scaling of the integrals at 1e-6 and 1e-5
    p = R.TransformParams(4, 1, 2)
    got = row(p, f, 1e-9)
    for x in (1e-6, 1e-5):
        assert rel_err(got, row(p, f, x) * (1e-9 / x) ** 0.5) < 1e-9


def test_left_sided_limit_at_0_of_an_origin_power():
    # x^q h(x) maps to 0 at x = 0 for q > 0 and is infinite there for q < 0
    p = R.TransformParams(4, 1, 2)
    assert R.dual_affine_radial(p, P.power(0.5), 0.0) == 0.0
    with pytest.raises(DivergenceError):
        R.dual_affine_radial(p, P.power(-0.5), 0.0)


def test_invert_rejects_a_window_outside_the_span():
    p = R.TransformParams(3, 0, 1)
    for model, dual, data, window in (
            (Model.Hyperboloid, False, P.power(-2.0, lo=1.0,
                                                 arg_kind=P.ArgKind.CoshDistance),
             (0.05, 0.5)),
            (Model.BeltramiKlein, True, P.power(1.0, hi=1.0,
                                                arg_kind=P.ArgKind.BallRadius),
             (0.05, 1.0)),
            (Model.EuclideanAffine, False, P.gaussian(), (0.5, 0.5)),
            (Model.Projective, False, P.power(0.0, hi=math.pi / 4,
                                              arg_kind=P.ArgKind.Angle),
             (0.3, 0.9)),
            # the pulled-back hyperboloid window collapses to a point
            (Model.Projective, False, P.power(0.0, hi=math.pi / 4,
                                              arg_kind=P.ArgKind.Angle),
             (0.0, 1e-9))):
        with pytest.raises(DomainError):
            R.invert_radial(model, p, data, out_range=window, dual=dual)


def test_invert_residual_check_rejects_garbage():
    p = R.TransformParams(4, 0, 2)
    noise = P.Profile1D(lo=0.0, hi=math.inf,
                        fn=lambda s: np.exp(-s) * (1.0 + 0.5 * np.sin(40 * s)),
                        arg_kind=P.ArgKind.EuclideanRadius, decay_hint=math.inf)
    with pytest.raises(DifferentiationInstabilityError):
        R.invert_radial(Model.EuclideanAffine, p, noise, out_range=(0.1, 3.0))


# (model, triple, data, dual, window the residual check rejects, window it
# accepts); each data set is a transform of a smooth profile, but a
# reconstruction that is constant below its window (left-sided rows) or zero
# past it (right-sided rows) does not reproduce it on the short window
_RESIDUAL_CASES = {
    "ball-dual-power": (Model.BeltramiKlein, (6, 1, 3),
                        lambda: P.power(1.5, lo=1e-12,
                                        arg_kind=P.ArgKind.BallRadius),
                        True, (0.3, 0.95), (0.05, 0.95)),
    "elliptic-gaussian": (Model.Elliptic, (4, 1, 3),
                          lambda: P.gaussian(0.8, arg_kind=P.ArgKind.CosAngle),
                          False, (0.4, 1.0), (0.05, 1.0)),
    "affine-gaussian": (Model.EuclideanAffine, (4, 0, 2),
                        lambda: P.gaussian(1.0), False, (0.1, 1.0), (0.1, 4.0)),
}


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
def test_invert_residual_check_rejects_short_window(case):
    model, triple, data, dual, short, _ = _RESIDUAL_CASES[case]
    with pytest.raises(R.ReconstructionError, match="forward residual"):
        R.invert_radial(model, R.TransformParams(*triple), data(),
                        out_range=short, dual=dual)


def test_invert_residual_check_accepts_full_window():
    for model, triple, data, dual, _, full in _RESIDUAL_CASES.values():
        R.invert_radial(model, R.TransformParams(*triple), data(),
                        out_range=full, dual=dual)


def test_invert_residual_check_work(monkeypatch):
    # the reconstruction declares its window start, where its constant
    # extension kinks, so each left-sided re-application sums smooth pieces
    # instead of bisecting: 16 segments over its split integrals.  Only the
    # segments whose first two rungs disagree climb to 64 nodes (all 16
    # did before the segments were batched), and no row is bisected.
    segments, calls = [], []
    splits, rows = quadrature._integrate_splits, quadrature._integrate_rows

    def counted_splits(core, items, spec, left):
        segments.extend(1 + sum(lo < p < hi for p in interior)
                        for lo, hi, _, _, interior in items)
        return splits(core, items, spec, left)

    def counted_rows(core, *args):
        calls.append([])

        def seen(u, keys):
            calls[-1].append(u.shape)
            return core(u, keys)
        return rows(seen, *args)

    monkeypatch.setattr(fracint, "_integrate_splits", counted_splits)
    monkeypatch.setattr(quadrature, "_integrate_rows", counted_rows)
    for case, n_climbing in (("ball-dual-power", 6), ("elliptic-gaussian", 0)):
        model, triple, data, dual, _, full = _RESIDUAL_CASES[case]
        segments.clear()
        calls.clear()
        rec = R.invert_radial(model, R.TransformParams(*triple), data(),
                              out_range=full, dual=dual)
        lo, = rec.breakpoints
        assert lo == pytest.approx(full[0])
        assert np.all(rec(np.linspace(rec.lo, lo, 7)) == rec(lo))
        assert sum(segments) == 16
        assert sum(rows for call in calls for rows, n in call
                   if n == 64) == n_climbing
        # a bisection would start a second round of 16- and 32-node rungs
        assert all(n != 48 for call in calls for _, n in call[1:])


@pytest.mark.parametrize("triple, calls, nodes", [((3, 0, 1), 6, 7632),
                                                  ((5, 1, 3), 6, 7920)])
def test_hyper_zonal_grid_is_one_batch(hyper_gauss_cosh, triple, calls, nodes):
    # the 32 infinite tails of a grid share each octave's core call: one
    # call for the first segments and one per octave round, where a loop
    # over the points made 318 and 330 calls on the same 7,632 and 7,920
    # nodes
    sizes = []

    def fn(x):
        sizes.append(np.size(x))
        return hyper_gauss_cosh.fn(x)

    f = dataclasses.replace(hyper_gauss_cosh, fn=fn)
    R.radon_hyper_zonal(R.TransformParams(*triple), f, np.linspace(1.0, 3.0, 32))
    assert len(sizes) == calls
    assert sum(sizes) == nodes


# -- the coordinate span of each transform row -------------------------------------

_ROWS = sorted(R.TRANSFORMS, key=lambda key: (key[0].value, key[1]))


def _row_id(key):
    return R.TRANSFORMS[key].name


def _row_input(model, dual, p):
    """A smooth input in the row's coordinate, with no support."""
    from georadon.models import WeightOp, apply_weight
    kind = R.TRANSFORMS[model, dual].kind
    if model is Model.Projective:
        geo = P.Profile1D(lo=0.0, hi=math.inf,
                          fn=lambda rho: np.exp(-np.sinh(rho) ** 2),
                          arg_kind=P.ArgKind.GeodesicDistance,
                          decay_hint=math.inf)
        return apply_weight(WeightOp.P1 if dual else WeightOp.M1, p, geo)
    if kind is P.ArgKind.CoshDistance:
        return P.Profile1D(lo=1.0, hi=math.inf,
                           fn=lambda s: np.exp(1.0 - s * s), arg_kind=kind,
                           decay_hint=math.inf)
    return P.gaussian(0.8, arg_kind=kind)


@pytest.mark.parametrize("key", _ROWS, ids=_row_id)
def test_span_rejects_points_outside(key):
    # the span [lo, hi) is half-open: the float just below lo is out, and
    # so is a finite hi; a negative radius must not reach a dual's r = 0 limit
    t = R.TRANSFORMS[key]
    p = R.TransformParams(4, 1, 2)
    f = _row_input(*key, p)
    fwd = R.transform_function(*key)
    lo, hi = t.span
    outside = [math.nextafter(lo, -math.inf), lo - 1.0]
    if math.isfinite(hi):
        outside.append(hi)
    for x in outside:
        with pytest.raises(DomainError, match=t.name):
            fwd(p, f, x)
        with pytest.raises(DomainError):
            fwd(p, f, np.array([0.5 * (lo + min(hi, lo + 1.0)), x]))


def test_elliptic_spans_take_in_both_ends():
    p = R.TransformParams(4, 1, 2)
    cos_in = _row_input(Model.Elliptic, False, p)
    sin_in = _row_input(Model.Elliptic, True, p)
    assert math.isfinite(R.radon_elliptic_zonal(p, cos_in, 1.0))
    assert math.isfinite(R.dual_elliptic_zonal(p, sin_in, 1.0))
    assert math.isfinite(R.dual_elliptic_zonal(p, sin_in, 0.0))
    with pytest.raises(DomainError):
        R.radon_elliptic_zonal(p, cos_in, 0.0)


#: (row, triple) pairs; the projective rows cost 10-25 ms a point
_PROFILE_CASES = [(key, t) for key in _ROWS
                  for t in ((4, 1, 2), (5, 0, 3))]


@pytest.mark.parametrize("key, triple", _PROFILE_CASES,
                         ids=[f"{_row_id(k)}-{t[0]}{t[1]}{t[2]}"
                              for k, t in _PROFILE_CASES])
def test_transform_profile_matches_transform_function(key, triple):
    t = R.TRANSFORMS[key]
    p = R.TransformParams(*triple)
    f = _row_input(*key, p)
    lo, hi = t.span
    top = min(hi, lo + 2.0)
    rng = np.random.default_rng(sum(triple) + 10 * key[1])
    count = 2 if t.route is not None else 6
    x = np.sort(lo + (top - lo) * rng.uniform(0.02, 0.98, count))
    lazy = R.transform_profile(*key, p, f)
    assert (lazy.arg_kind, lazy.lo, lazy.hi) == (t.kind, lo, hi)
    got = lazy(x)
    want = np.asarray(R.transform_function(*key)(p, f, x))
    assert got.tobytes() == want.tobytes()


def _hyper_cap(a, alpha):
    return R.closed_form_pair(R.ClosedFormId.HYPER_CAP, alpha=alpha, a=a).input


def _chord_cap(a, alpha):
    return R.closed_form_pair(R.ClosedFormId.CHORD_CAP, alpha=alpha, a=a).input


@pytest.mark.parametrize("triple", [(3, 0, 1), (4, 1, 2), (6, 1, 4)])
def test_transform_profile_metadata(triple):
    p = R.TransformParams(*triple)
    gap = p.half_gap
    # forward hyperboloid: the input's support, edge exponent raised by gap
    for f in (_hyper_cap(2.0, 3.0), _hyper_cap(1.5, 2.0),
              _row_input(Model.Hyperboloid, False, p)):
        g = R.transform_profile(Model.Hyperboloid, False, p, f)
        assert g.support == f.support
        assert g.edge_exponent == (0.0 if f.support is None
                                   else f.edge_exponent + gap)
        assert g.decay_hint == f.decay_hint
    # forward chord: the support is cut at the ball's edge
    for f in (_chord_cap(0.7, 3.0), _chord_cap(0.9, 2.0),
              P.gaussian(arg_kind=P.ArgKind.BallRadius),
              P.bump(1.5, arg_kind=P.ArgKind.BallRadius)):
        g = R.transform_profile(Model.BeltramiKlein, False, p, f)
        assert g.support == min(1.0 if f.support is None else f.support, 1.0)
        assert g.edge_exponent == gap + (0.0 if f.support is None
                                         else f.edge_exponent)
    # duals carry no support, and decay at least like r^-(n-k)
    for f in (P.gaussian(arg_kind=P.ArgKind.SinhDistance),
              P.power(-0.5, lo=0.0, arg_kind=P.ArgKind.SinhDistance),
              P.Profile1D(lo=0.0, hi=math.inf, fn=np.exp,
                          arg_kind=P.ArgKind.SinhDistance)):
        g = R.transform_profile(Model.Hyperboloid, True, p, f)
        assert (g.support, g.edge_exponent) == (None, 0.0)
        assert g.decay_hint == (None if f.decay_hint is None
                                else min(f.decay_hint, p.n - p.k))


@pytest.mark.parametrize("triple, sigma", [((4, 1, 3), 0.5), ((4, 1, 3), 0.75),
                                           ((4, 0, 2), 0.5), ((4, 0, 2), 0.75)])
def test_invert_projective_residual_on_the_given_window(triple, sigma):
    # grid data as a CLI invert job receives it; the residual re-applies
    # the transform on out_range, not on a fixed window of its own
    n, j, k = triple
    p = R.TransformParams(*triple)
    theta = np.linspace(0.0, 0.784, 600)
    data = (np.cos(2 * theta) ** (-(j + 1) / 2)
            * np.exp(-1.0 / (1.0 - np.tan(theta) ** 2) / sigma ** 2))
    prof = P.from_grid(theta, data, P.ArgKind.Angle, order=5)
    rec = R.invert_radial(Model.Projective, p, prof, out_range=(0.3, 0.78))
    x = np.linspace(0.3, 0.78, 16)
    c2 = 1.0 / (1.0 - np.tan(x) ** 2)
    want = sphere_area(k) / sphere_area(j) * np.cos(2 * x) ** (-(k + 1) / 2) \
        * (2 * c2 / sigma ** 2 - (k - 1)) * np.exp(-c2 / sigma ** 2) \
        / (2 * math.pi)
    assert sup_rel_err(rec(x), want) < 1e-4


@pytest.mark.parametrize("triple", [(4, 0, 2), (5, 1, 3), (6, 1, 4)])
def test_transform_profile_declares_no_faster_decay_than_it_has(triple):
    # the forward affine image of (1+r^2)^(-5/2) at (4,0,2) decays like
    # s^-3, not like its input's s^-5.  On every row with an infinite span
    # the declared exponent stays at or below the log-log slope measured
    # between 40 and 80
    p = R.TransformParams(*triple)
    for key, t in R.TRANSFORMS.items():
        if math.isfinite(t.span[1]):
            continue
        lo = t.span[0]
        f = P.Profile1D(lo=lo, hi=math.inf, arg_kind=t.kind, decay_hint=5.0,
                        fn=lambda x: (1.0 + x * x) ** -2.5)
        g = R.transform_profile(*key, p, f)
        v40, v80 = g(np.array([40.0, 80.0]))
        assert g.decay_hint <= -math.log(v80 / v40) / math.log(2.0) + 0.02
    fwd = R.transform_profile(Model.EuclideanAffine, False, p,
                              P.Profile1D(lo=0.0, hi=math.inf, decay_hint=5.0,
                                          fn=lambda x: (1.0 + x * x) ** -2.5))
    assert fwd.decay_hint == 5.0 - (p.k - p.j)
