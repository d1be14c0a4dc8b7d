import dataclasses
import hashlib
import math
import os
import warnings
import weakref

import numpy as np
import pytest

from conftest import TIGHT
from georadon import inversion as IV
from georadon import mc as MC
from georadon import profiles as P
from georadon import radial as R
from georadon.errors import (DomainError, KernelSingularityWarning,
                             McConvergenceWarning)
from georadon.models import integrate_radial, Model
from georadon.quadrature import DEFAULT_QUADRATURE, integrate_weighted
from georadon.special import (dual_transform_limit_constant, gamma_nk,
                              sphere_area)


def _rng(seed=0, chunk=0):
    return MC._rng(MC.McSpec(seed, 1), chunk)


def test_rotations_are_special_orthogonal():
    for n in range(1, 8):
        q = MC.sample_rotations(n, 512, _rng(1))
        assert np.max(np.abs(np.einsum("bij,bik->bjk", q, q)
                             - np.eye(n))) < 1e-12
        assert np.max(np.abs(np.linalg.det(q) - 1.0)) < 1e-10
    assert np.array_equal(MC.sample_rotation(1, _rng(2)), np.eye(1))


def _det_haar_factor(g):
    """The Haar factor with its sign repair read from an LU determinant."""
    if g.shape[-1] == 1:
        return g
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    q = q * d[:, None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def test_householder_parity_is_the_sign_of_the_determinant():
    # the Q of a Gaussian matrix's QR is m - 1 Householder reflections and
    # the identity, so det Q = (-1)^(m-1); 200,000 draws for each m
    for m in range(2, 8):
        for chunk in range(4):
            q = np.linalg.qr(MC._haar_gaussian(m, 50000, _rng(21, chunk)))[0]
            assert np.all(np.sign(np.linalg.det(q)) == (-1.0) ** (m - 1)), m


def test_haar_factor_keeps_the_bytes_of_the_determinant_repair():
    for m in range(1, 8):
        for size in (1, 256, 8192):
            for seed in (0, 1):
                old = _det_haar_factor(MC._haar_gaussian(m, size, _rng(seed)))
                new = MC.sample_rotations(m, size, _rng(seed))
                assert new.tobytes() == old.tobytes(), (m, size, seed)


def _estimate(term_fn, spec):
    """The estimate of one budget whose chunks have the terms
    ``term_fn(rng, count)``."""
    return MC._estimates(lambda units: np.concatenate(
        [term_fn(rng, count) for _, _, count, rng in units]), [spec], 1)[0]


def _drifting_terms(steady_chunks):
    """Terms of standard deviation 1 for the first chunks, then 2 (the
    chunks must run in order, on one thread)."""
    calls = []

    def terms(rng, count):
        scale = 1.0 if len(calls) < steady_chunks else 2.0
        calls.append(count)
        return scale * rng.standard_normal(count)
    return terms


def test_estimate_warns_when_the_standard_error_stops_shrinking(monkeypatch):
    monkeypatch.setenv("GEORADON_THREADS", "1")
    spec = MC.McSpec(seed=5, n_samples=8 * MC.CHUNK)
    with warnings.catch_warnings():
        warnings.simplefilter("error", McConvergenceWarning)
        steady = _estimate(lambda rng, count: rng.standard_normal(count),
                              spec)
    assert 0.0 < steady.std_error < 0.01
    # steady terms end at about 0.5 of the first quarter's standard error,
    # these at about 0.9, above the 0.8 at which the estimate warns
    with pytest.warns(McConvergenceWarning, match="not shrinking"):
        _estimate(_drifting_terms(2), spec)


def test_haar_first_moments_vanish():
    q = MC.sample_rotations(3, 100000, _rng(3))
    col_means = q.mean(axis=0)
    se = 1.0 / math.sqrt(3 * 100000)      # column entries have variance 1/n
    assert np.max(np.abs(col_means)) < 4 * se * 3
    tr = q.trace(axis1=1, axis2=2)
    assert abs(tr.mean()) < 4 * tr.std() / math.sqrt(len(tr))


def test_estimator_determinism_and_thread_independence():
    p = R.TransformParams(3, 0, 1)
    f = MC.radial_plane_function(P.gaussian())
    z = MC.GeodesicElement(3, 1, np.eye(3), 0.9)
    fz = MC.zonal_function(P.Profile1D(
        lo=1.0, hi=math.inf, fn=lambda s: np.exp(1.0 - s * s),
        arg_kind=P.ArgKind.CoshDistance, decay_hint=math.inf))
    spec = MC.McSpec(seed=11, n_samples=30000)
    a = MC.radon_hyper_mc(p, fz, z, spec)
    b = MC.radon_hyper_mc(p, fz, z, spec)
    assert a.value == b.value and a.std_error == b.std_error
    old = os.environ.get("GEORADON_THREADS")
    try:
        os.environ["GEORADON_THREADS"] = "4"
        c = MC.radon_hyper_mc(p, fz, z, spec)
    finally:
        if old is None:
            os.environ.pop("GEORADON_THREADS", None)
        else:
            os.environ["GEORADON_THREADS"] = old
    assert a.value == c.value

    eta = np.array([[0.0], [0.0], [1.0]])
    plane = MC.AffinePlane(MC.Frame(eta), np.array([0.8, 0.0, 0.0]))
    e1 = MC.radon_affine_mc(p, f, plane, spec)
    e2 = MC.radon_affine_mc(p, f, plane, spec)
    assert e1.value == e2.value


def test_bad_thread_count_is_a_domain_error(monkeypatch):
    monkeypatch.setenv("GEORADON_THREADS", "abc")
    with pytest.raises(DomainError, match="GEORADON_THREADS"):
        MC.worker_threads()
    # an estimator fails before it starts a pool
    monkeypatch.setattr(MC, "ThreadPoolExecutor", None)
    with pytest.raises(DomainError, match="GEORADON_THREADS"):
        _estimate(lambda rng, count: rng.standard_normal(count),
                     MC.McSpec(seed=1, n_samples=3 * MC.CHUNK))


def _cpus(monkeypatch, count):
    """A process that may run on ``count`` CPUs, through the affinity mask
    where the platform has one and the CPU count elsewhere."""
    monkeypatch.setattr(MC.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(MC.os, "cpu_count", lambda: count)


def test_thread_count_is_capped_at_the_cpu_count(monkeypatch):
    _cpus(monkeypatch, 3)
    monkeypatch.setenv("GEORADON_THREADS", "100000")
    assert MC.worker_threads() == 3
    monkeypatch.setenv("GEORADON_THREADS", "2")
    assert MC.worker_threads() == 2
    # without an affinity mask, the CPU count caps the pool
    monkeypatch.delattr(MC.os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("GEORADON_THREADS", "100000")
    assert MC.worker_threads() == 3


def test_thread_count_is_capped_at_the_affinity_mask(monkeypatch):
    # a process pinned to one of the machine's CPUs runs one worker and
    # starts no pool
    monkeypatch.setattr(MC.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(MC.os, "cpu_count", lambda: 2)
    monkeypatch.delenv("GEORADON_THREADS", raising=False)
    assert MC.worker_threads() == 1
    monkeypatch.setenv("GEORADON_THREADS", "2")
    assert MC.worker_threads() == 1
    monkeypatch.setattr(MC, "ThreadPoolExecutor", None)
    spec = MC.McSpec(seed=1, n_samples=3 * MC.CHUNK)
    est = _estimate(lambda rng, count: rng.standard_normal(count), spec)
    assert est.n_samples == spec.n_samples


def test_pool_is_capped_at_the_chunk_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for the thread pool; runs the chunks in this thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(MC, "ThreadPoolExecutor", SerialPool)
    _cpus(monkeypatch, 64)
    monkeypatch.setenv("GEORADON_THREADS", "64")
    spec = MC.McSpec(seed=1, n_samples=2 * MC.CHUNK + 5)
    est = _estimate(lambda rng, count: rng.standard_normal(count), spec)
    assert sizes == [3]
    monkeypatch.setenv("GEORADON_THREADS", "1")
    assert _estimate(lambda rng, count: rng.standard_normal(count),
                        spec) == est
    assert type(est.value) is float and type(est.std_error) is float


def test_convergence_rate():
    p = R.TransformParams(3, 0, 1)
    f = MC.radial_plane_function(P.gaussian())
    eta = np.array([[0.0], [0.0], [1.0]])
    plane = MC.AffinePlane(MC.Frame(eta), np.array([0.8, 0.0, 0.0]))
    e_n = MC.radon_affine_mc(p, f, plane, MC.McSpec(seed=5, n_samples=30000))
    e_4n = MC.radon_affine_mc(p, f, plane, MC.McSpec(seed=5, n_samples=120000))
    ratio = e_4n.std_error / e_n.std_error
    assert 0.4 <= ratio <= 0.6


def test_affine_mc_matches_radial_oracle():
    p = R.TransformParams(3, 0, 1)
    f = MC.radial_plane_function(P.gaussian())
    eta = np.array([[0.0], [0.0], [1.0]])
    plane = MC.AffinePlane(MC.Frame(eta), np.array([0.8, 0.0, 0.0]))
    est = MC.radon_affine_mc(p, f, plane, MC.McSpec(seed=42, n_samples=100000))
    exact = R.radon_affine_radial(p, P.gaussian(), 0.8)
    assert est.agrees_with(exact)


def test_affine_mc_zero_function():
    p = R.TransformParams(4, 1, 2)
    zero = lambda batch: np.zeros(batch.frames.shape[0])
    eta = np.zeros((4, 2))
    eta[2, 0] = eta[3, 1] = 1.0
    plane = MC.AffinePlane(MC.Frame(eta), np.array([0.5, 0.0, 0.0, 0.0]))
    est = MC.radon_affine_mc(p, zero, plane, MC.McSpec(seed=1, n_samples=4000))
    assert est.value == 0.0


def test_dual_mc_constant_is_exact():
    p = R.TransformParams(4, 1, 2)
    one = lambda batch: np.ones(batch.frames.shape[0])
    xi = np.zeros((4, 1))
    xi[3, 0] = 1.0
    plane = MC.AffinePlane(MC.Frame(xi), np.array([0.7, 0.3, 0.0, 0.0]))
    est = MC.dual_affine_mc(p, one, plane, MC.McSpec(seed=2, n_samples=2000))
    assert est.value == 1.0 and est.std_error == 0.0


def test_dual_mc_matches_radial_oracle():
    p = R.TransformParams(4, 1, 2)
    phi = MC.radial_plane_function(P.gaussian())
    xi = np.zeros((4, 1))
    xi[3, 0] = 1.0
    u = np.array([0.7, 0.3, 0.0, 0.0])
    plane = MC.AffinePlane(MC.Frame(xi), u)
    est = MC.dual_affine_mc(p, phi, plane, MC.McSpec(seed=7, n_samples=100000))
    exact = R.dual_affine_radial(p, P.gaussian(), float(np.linalg.norm(u)))
    assert est.agrees_with(exact)


def test_dual_mc_rotation_invariance():
    # a radial phi has the same dual at tau and at Q tau for Q in SO(4),
    # which rotates both the frame and the offset
    p = R.TransformParams(4, 1, 2)
    phi = MC.radial_plane_function(P.gaussian())
    xi = np.zeros((4, 1))
    xi[3, 0] = 1.0
    u = np.array([0.6, 0.0, 0.2, 0.0])
    q = MC.sample_rotation(4, _rng(9))
    e1 = MC.dual_affine_mc(p, phi, MC.AffinePlane(MC.Frame(xi), u),
                           MC.McSpec(seed=3, n_samples=60000))
    e2 = MC.dual_affine_mc(p, phi, MC.AffinePlane(MC.Frame(q @ xi), q @ u),
                           MC.McSpec(seed=4, n_samples=60000))
    comb = math.hypot(e1.std_error, e2.std_error)
    assert abs(e1.value - e2.value) <= 4 * comb


def test_hyper_mc_matches_zonal_oracle(hyper_gauss_cosh):
    p = R.TransformParams(3, 0, 1)
    fz = MC.zonal_function(hyper_gauss_cosh)
    z = MC.GeodesicElement(3, 1, np.eye(3), 0.9)
    est = MC.radon_hyper_mc(p, fz, z, MC.McSpec(seed=11, n_samples=100000))
    exact = R.radon_hyper_zonal(p, hyper_gauss_cosh, math.cosh(0.9))
    assert est.agrees_with(exact)


def test_hyper_mc_rotation_gauge_independence(hyper_gauss_cosh):
    # the same geodesic represented with two different aligning rotations
    p = R.TransformParams(4, 1, 2)
    fz = MC.zonal_function(hyper_gauss_cosh)
    rng = _rng(8)
    rot = MC.sample_rotation(4, rng)
    # stabilizer element: rotate within the complement and the plane block
    beta = np.eye(4)
    beta[:1, :1] = 1.0
    blk = MC.sample_rotation(2, rng)
    beta[2:, 2:] = blk
    z1 = MC.GeodesicElement(4, 2, rot, 0.7)
    z2 = MC.GeodesicElement(4, 2, rot @ beta, 0.7)
    e1 = MC.radon_hyper_mc(p, fz, z1, MC.McSpec(seed=21, n_samples=60000))
    e2 = MC.radon_hyper_mc(p, fz, z2, MC.McSpec(seed=22, n_samples=60000))
    comb = math.hypot(e1.std_error, e2.std_error)
    assert abs(e1.value - e2.value) <= 4 * comb


def test_duality_check_affine_radial():
    p = R.TransformParams(3, 0, 1)
    f = MC.radial_plane_function(P.gaussian())
    phi = MC.radial_plane_function(P.gaussian())
    lhs, rhs = MC.duality_check_mc("affine", f, phi, p,
                                   MC.McSpec(seed=5, n_samples=30000))
    comb = math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) <= 4 * comb
    fw = P.tabulate(lambda s: R.radon_affine_radial(p, P.gaussian(), s, TIGHT),
                    0.0, 6.0, P.ArgKind.EuclideanRadius, n=160,
                    decay_hint=math.inf)
    det = integrate_radial(Model.EuclideanAffine, p.n, p.k, fw,
                           weight=lambda s: np.exp(-s * s))
    assert abs(lhs.value - det) <= 4 * lhs.std_error


def test_duality_check_zero():
    p = R.TransformParams(3, 0, 1)
    zero = lambda batch: np.zeros(batch.frames.shape[0] if hasattr(batch, "frames")
                                  else batch.matrices.shape[0])
    lhs, rhs = MC.duality_check_mc("affine", zero, zero, p,
                                   MC.McSpec(seed=6, n_samples=5000))
    assert lhs.value == 0.0 and rhs.value == 0.0


def test_duality_check_chord():
    p = R.TransformParams(4, 0, 2)
    fprof = P.bump(0.8, arg_kind=P.ArgKind.BallRadius)
    f = MC.radial_plane_function(fprof)
    phi = lambda batch: np.exp(-batch.distances ** 2)
    lhs, rhs = MC.duality_check_mc("chord", f, phi, p,
                                   MC.McSpec(seed=12, n_samples=30000))
    comb = math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) <= 4 * comb


def test_duality_check_hyper(hyper_gauss_cosh):
    p = R.TransformParams(3, 0, 1)
    f = MC.zonal_function(hyper_gauss_cosh)
    phi = MC.zonal_function(P.gaussian(arg_kind=P.ArgKind.SinhDistance))
    lhs, rhs = MC.duality_check_mc("hyper", f, phi, p,
                                   MC.McSpec(seed=9, n_samples=30000))
    comb = math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) <= 4 * comb


def test_dual_sine_origin_reduces_to_radial_integral(hyper_gauss_cosh):
    n, k, alpha = 3, 1, 1.0
    p = R.TransformParams(n, 0, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelSingularityWarning)
        ests = MC.dual_sine_mc(alpha, p, hyper_gauss_cosh, [0.0],
                               MC.McSpec(seed=21, n_samples=200000))
    det = gamma_nk(alpha, n, k) * sphere_area(n - k - 1) * integrate_weighted(
        lambda r: np.sinh(r) ** (n - k - 1 + alpha + k - n)
        * np.cosh(r) ** k * np.exp(1.0 - np.cosh(r) ** 2),
        0.0, 12.0, 0.0, 0.0)
    assert ests[0].agrees_with(det)


def test_dual_sine_emits_singularity_warning(hyper_gauss_cosh):
    p = R.TransformParams(3, 0, 1)
    with pytest.warns(KernelSingularityWarning):
        MC.dual_sine_mc(1.0, p, hyper_gauss_cosh, [0.0],
                        MC.McSpec(seed=2, n_samples=20000))


def test_dual_sine_grid_is_smooth(hyper_gauss_cosh):
    p = R.TransformParams(3, 0, 1)
    rho = np.linspace(0.0, 1.5, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelSingularityWarning)
        ests = MC.dual_sine_mc(1.0, p, hyper_gauss_cosh, rho,
                               MC.McSpec(seed=23, n_samples=150000))
    vals = np.array([e.value for e in ests])
    second = np.abs(np.diff(vals, 2))
    assert np.max(second) < 0.2 * np.max(np.abs(vals))



def _eager_hyper_elements(n, d, rng, count):
    """The sampler the lazy batch replaces: Haar rotations formed at once,
    the radius, and the full Lorentz products; (rotations, rho, products)."""
    rot = MC.sample_rotations(n, count, rng)
    s = np.minimum(rng.uniform(0.0, 1.0, count), 1.0 - 1e-12)
    rho = np.arctanh(s)
    return rot, rho, \
        MC._embed_block(rot, n, range(n)) \
        @ MC._boost(n, d, np.cosh(rho), np.sinh(rho))


def _row_distance(left, right, n, d):
    """The distance read of a batch whose right factors were formed: row n
    of each product through one einsum."""
    return MC._distance_to_base(np.einsum("j,bjl->bl", left[n], right), n, d)


def test_factored_batch_matches_full_products_bitwise():
    # the lazily factored batch must hold the bytes of the eager products
    # it replaces, draw the same numbers, and read distances without
    # forming a rotation
    for n in range(1, 8):
        for d in range(n):
            for size in (1, 257):
                lazy, eager = _rng(31, 100 * n + d), _rng(31, 100 * n + d)
                batch, _ = MC.sample_hyper_elements(n, d, [(lazy, size)])
                rot, rho, full = _eager_hyper_elements(n, d, eager, size)
                assert batch.n == n and batch.dim == d
                assert lazy.standard_normal() == eager.standard_normal()
                assert np.array_equal(batch.rho, rho)
                assert np.array_equal(batch.distance_to_origin(),
                                      MC._distance_to_base(full[:, n, :],
                                                           n, d))
                assert "rotations" not in batch.__dict__
                assert np.array_equal(batch.rotations, rot)
                assert np.array_equal(batch.matrices, full)
                assert batch.matrices is batch.right
    rng = _rng(33)
    for n in range(2, 8):
        for k in range(1, n):
            for j in range(k):
                # the j-geodesics of a k-geodesic as radon_hyper_mc builds
                # them: the inner sample on coordinates n-k..n behind the
                # k-geodesic's left factor
                left = MC._embed_block(MC.sample_rotation(n, rng), n,
                                       range(n)) \
                    @ MC.hyperbolic_rotation(n, k, rng.uniform(0.0, 2.5))
                key = 100 * n + 10 * k + j
                inner, _ = MC.sample_hyper_elements(
                    k, j, [(_rng(34, key), 257)])
                small = _eager_hyper_elements(k, j, _rng(34, key), 257)[2]
                right = MC._embed_block(small, n, range(n - k, n + 1))
                batch = dataclasses.replace(inner, left=left)
                assert batch.n == n
                assert np.array_equal(batch.distance_to_origin(),
                                      _row_distance(left, right, n, j))
                assert "right" not in batch.__dict__
                assert np.array_equal(batch.right, right)
                assert np.array_equal(batch.matrices, np.einsum(
                    "ij,bjl->bil", left, right))
        for d in range(n):
            # a left factor whose row n reaches S's coordinates: the read
            # forms the right factors
            left = MC.hyperbolic_rotation(n, 0, rng.uniform(0.1, 2.0))
            inner, _ = MC.sample_hyper_elements(n, d, [(rng, 65)])
            batch = dataclasses.replace(inner, left=left)
            got = batch.distance_to_origin()
            assert "right" in batch.__dict__
            assert np.array_equal(got, _row_distance(left, inner.right, n, d))


#: float.hex of (value, std_error), recorded from the estimators as they
#: were when every grid point and sample formed the full Lorentz product
_GOLDEN = {
    "plain": [("0x1.45f306dc9c882p-4", "0x1.6b3f182f8a4c5p-37"),
              ("0x1.bf5d5d3904448p-5", "0x1.6520e5461ad42p-14"),
              ("0x1.b0afc6f9d12f2p-7", "0x1.e33b4b81d2dd8p-14")],
    "sine": [("0x1.11b192a48c003p-3", "0x1.d8c37e11594e3p-12"),
             ("0x1.c82ed1e26ac7bp-4", "0x1.31bfa5c7266c3p-11")],
    "radon": [("0x1.788d192ecdf20p-2", "0x1.43e490306238ep-10")],
}


def _hyper_goldens_radon():
    """radon_hyper_mc of the goldens: (4, 1, 2) at a 2-geodesic z."""
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.eye(4)
    rot[0, 0] = rot[2, 2] = c
    rot[0, 2], rot[2, 0] = -s, s
    fz = MC.zonal_function(P.gaussian(1.0, P.ArgKind.CoshDistance, lo=1.0))
    z = MC.GeodesicElement(4, 2, rot, 0.6)
    return [MC.radon_hyper_mc(R.TransformParams(4, 1, 2), fz, z,
                              MC.McSpec(seed=63, n_samples=20000))]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_hyperbolic_estimators_keep_their_bytes(monkeypatch, threads):
    # 20000 samples are three chunks, so the reduction order is exercised
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p = R.TransformParams(4, 1, 2)
    phi = P.gaussian(0.8, P.ArgKind.GeodesicDistance)
    got = {"plain": MC.dual_sine_mc(0.0, p, phi, [0.0, 0.7, 1.6],
                                    MC.McSpec(seed=61, n_samples=20000),
                                    kernel="plain")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelSingularityWarning)
        got["sine"] = MC.dual_sine_mc(1.5, p, phi, [0.0, 0.9],
                                      MC.McSpec(seed=62, n_samples=20000))
    got["radon"] = _hyper_goldens_radon()
    for name, ests in got.items():
        assert [(e.value.hex(), e.std_error.hex()) for e in ests] \
            == _GOLDEN[name], name


def _chain_phi(n, k):
    """The chain's data: the tabulated (n, 0, k) transform of the bump of
    radius 1.2."""
    h = IV.as_cosh_profile(IV.zonal_bump(1.2), support=1.2)
    return IV._tabulated_forward(R.TransformParams(n, 0, k), h,
                                 DEFAULT_QUADRATURE)


#: SHA-256 of the lines "value.hex() std_error.hex()" of the plain kernel on
#: the chain's table over RHO_GRID, recorded when every grid point formed
#: the row of its own Lorentz product and called phi on its own
_PLAIN_CHAIN_GOLDEN = {
    (3, 0, 1): "9c78c3a7cb234d719dd9561a88804c3b"
               "1bfc8aa5dbec1a660370310e96502450",
    (4, 1, 2): "b01199f3a73765c369d70350d4cedf1a"
               "25e828bbc3262ca2b7079d2a47ec858a",
    (5, 2, 3): "580b74ca0dd77c23b4e0f428d01f8c57"
               "93ec4f22385f6e3db6a965b665c9d5e0",
    (6, 2, 5): "87680792732d14d50badda532b5b2858"
               "16a432556263b2bf3b32ed43b99d256b",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed,triple", [(101, (3, 0, 1)), (102, (4, 1, 2)),
                                         (103, (5, 2, 3)), (104, (6, 2, 5))])
def test_plain_kernel_keeps_its_bytes_on_the_chain_table(monkeypatch, threads,
                                                         seed, triple):
    # k = 1, 2, 3 and n - 1; 20000 samples are three chunks
    monkeypatch.setenv("GEORADON_THREADS", threads)
    phi = _chain_phi(triple[0], triple[2])
    ests = MC.dual_sine_mc(0.0, R.TransformParams(*triple), phi, IV.RHO_GRID,
                           MC.McSpec(seed=seed, n_samples=20000),
                           kernel="plain")
    text = "\n".join(f"{e.value.hex()} {e.std_error.hex()}" for e in ests)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == _PLAIN_CHAIN_GOLDEN[triple]


#: float.hex of radon_hyper_mc's (value, std_error) at budgets that
#: straddle block edges (four chunks and one sample, three chunks, 100,000
#: samples), recorded when ``f`` was called once per chunk
_ZONAL_BLOCK_GOLDEN = {
    ("chain", 4 * MC.CHUNK + 1): ("0x1.948468c3ec1afp-1",
                                  "0x1.dac93f0f90291p-9"),
    ("chain", 3 * MC.CHUNK): ("0x1.94d8a4bf7b423p-1", "0x1.11d752e1adbf4p-8"),
    ("chain", 100_000): ("0x1.960e716d1bfc6p-1", "0x1.10a7423fbc1dbp-9"),
    ("gauss", 4 * MC.CHUNK + 1): ("0x1.8bfd3b9058e5cp-2",
                                  "0x1.212ef241e100dp-10"),
    ("gauss", 3 * MC.CHUNK): ("0x1.8d1fca3bc6db7p-2", "0x1.4cf6ef49fce36p-10"),
    ("gauss", 100_000): ("0x1.8d2a5195c318ep-2", "0x1.4a31d501ba738p-11"),
}


def _zonal_block_case(name):
    """(params, profile, z): the chain's lhs at (4, 1, 2) on its table, or a
    Gaussian at (3, 0, 1), whose inner geodesics are points (SO(1))."""
    c, s = math.cos(0.4), math.sin(0.4)
    if name == "chain":
        rot = np.eye(4)
        rot[0, 0] = rot[2, 2] = c
        rot[0, 2], rot[2, 0] = -s, s
        return (R.TransformParams(4, 1, 2), _chain_phi(4, 1),
                MC.GeodesicElement(4, 2, rot, 0.6))
    rot = np.eye(3)
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1], rot[1, 0] = -s, s
    return (R.TransformParams(3, 0, 1),
            P.gaussian(1.0, P.ArgKind.CoshDistance, lo=1.0),
            MC.GeodesicElement(3, 1, rot, 0.5))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", ["chain", "gauss"])
def test_radon_hyper_keeps_its_bytes_over_multi_chunk_blocks(monkeypatch,
                                                             threads, name):
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p, profile, z = _zonal_block_case(name)
    zonal = MC.zonal_function(profile)
    for f in (zonal, lambda batch: zonal(batch)):
        # the zonal read, and the same function undeclared
        for budget in (4 * MC.CHUNK + 1, 3 * MC.CHUNK, 100_000):
            est = MC.radon_hyper_mc(p, f, z, MC.McSpec(seed=151,
                                                       n_samples=budget))
            assert (est.value.hex(), est.std_error.hex()) \
                == _ZONAL_BLOCK_GOLDEN[name, budget]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_radon_hyper_calls_f_once_per_block(monkeypatch, threads):
    # 100,000 samples are 13 chunks.  A zonal read evaluates its profile
    # once per block of up to eight chunks: 2 blocks of 7 and 6 chunks, one
    # per worker.  Any other f is called once per block of up to four: 4,
    # 3, 3 and 3 chunks, a multiple of the two workers.  A call per chunk
    # made 13
    _cpus(monkeypatch, 2)
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p, profile, z = _zonal_block_case("gauss")
    spec = MC.McSpec(seed=151, n_samples=100_000)
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return profile.fn(x)

    est = MC.radon_hyper_mc(
        p, MC.zonal_function(dataclasses.replace(profile, fn=counted)), z,
        spec)
    c = MC.CHUNK
    assert sorted(sizes) == [5 * c + 1696, 7 * c]
    assert (est.value.hex(), est.std_error.hex()) \
        == _ZONAL_BLOCK_GOLDEN["gauss", 100_000]

    sizes.clear()
    zonal = MC.zonal_function(profile)

    def general(batch):
        sizes.append(len(batch.rho))
        return zonal(batch)

    est = MC.radon_hyper_mc(p, general, z, spec)
    assert sorted(sizes) == [2 * c + 1696, 3 * c, 3 * c, 4 * c]
    assert (est.value.hex(), est.std_error.hex()) \
        == _ZONAL_BLOCK_GOLDEN["gauss", 100_000]


class _WatchedGenerator:
    """A generator that keeps a weak reference to each array its Gaussian
    draws fill (the base of an ``out`` view)."""

    def __init__(self, rng, filled: list):
        self._rng, self._filled = rng, filled

    def standard_normal(self, *args, **kwargs):
        got = self._rng.standard_normal(*args, **kwargs)
        self._filled.append(weakref.ref(got if got.base is None
                                        else got.base))
        return got

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_zonal_radon_hyper_keeps_no_haar_draw(monkeypatch, threads):
    # a zonal read factors no Haar draw, and while its profile runs no
    # block of Gaussians is alive: each chunk draws its own, in order, into
    # a buffer of one chunk's rows, and the bytes are those of the golden
    monkeypatch.setenv("GEORADON_THREADS", threads)

    def forbidden(*args, **kwargs):
        raise AssertionError("a zonal read factored a Haar draw")

    monkeypatch.setattr(MC, "_haar_factor", forbidden)
    filled, rng = [], MC._rng
    monkeypatch.setattr(MC, "_rng", lambda spec, chunk_index:
                        _WatchedGenerator(rng(spec, chunk_index), filled))
    p, profile, z = _zonal_block_case("chain")
    held = []

    def watched(x):
        held.extend(len(g) for g in (ref() for ref in filled)
                    if g is not None)
        return profile.fn(x)

    f = MC.zonal_function(dataclasses.replace(profile, fn=watched))
    for budget in (4 * MC.CHUNK + 1, 3 * MC.CHUNK, 100_000):
        est = MC.radon_hyper_mc(p, f, z, MC.McSpec(seed=151,
                                                   n_samples=budget))
        assert (est.value.hex(), est.std_error.hex()) \
            == _ZONAL_BLOCK_GOLDEN["chain", budget]
    # 5 + 3 + 13 chunks, each with its (count, 2, 2) draw
    assert len(filled) == 21
    assert all(rows <= MC.CHUNK for rows in held)


def test_boosted_distances_match_the_lorentz_row_bitwise():
    # the references are the products the kernels used to read, at every
    # point of the chain's grid: for the plain kernel, row n of the boost to
    # x times the embedded Haar rotation; for the sine and log kernels,
    # A^{-1} x = G A^T G x (G = diag(-I_n, 1)) through one einsum over the
    # full products A = E(S) boost(rho_s)
    sh = np.array([math.sinh(r) for r in IV.RHO_GRID])
    ch = np.array([math.cosh(r) for r in IV.RHO_GRID])
    for n in range(2, 10):
        for k in range(1, n):
            batch, _ = MC.sample_hyper_elements(n, k, [(_rng(32, n), 257)])
            rot = batch.rotations
            plain = MC._boosted_distances(sh, ch, rot[:, n - 1, n - k:], None)
            boosted = MC._boosted_distances(
                sh, ch, rot[:, n - 1, n - k:],
                (np.cosh(batch.rho), rot[:, n - 1, n - k - 1]
                 * np.sinh(batch.rho)))
            right = MC._embed_block(rot, n, range(n))
            for i, r in enumerate(IV.RHO_GRID):
                assert np.array_equal(plain[i], _row_distance(
                    MC.hyperbolic_rotation(n, 0, r), right, n, k))
                gx = np.zeros(n + 1)
                gx[n - 1], gx[n] = -sh[i], ch[i]
                inv = np.einsum("bji,j->bi", batch.matrices, gx)
                inv[:, :-1] *= -1.0
                assert np.array_equal(boosted[i],
                                      MC._distance_to_base(inv, n, k))


def test_plain_kernel_calls_phi_once_per_block(monkeypatch):
    # one phi call per block of grid points and chunk, and no Lorentz
    # matrices: the distances come from one row of the Haar draw
    calls = []
    table = _chain_phi(4, 2)

    def counted(x):
        calls.append(x.size)
        return table.fn(x)

    phi = dataclasses.replace(table, fn=counted)
    monkeypatch.setenv("GEORADON_THREADS", "1")

    def forbidden(*args, **kwargs):
        raise AssertionError("the plain kernel forms Lorentz products")

    monkeypatch.setattr(MC, "_embed_block", forbidden)
    monkeypatch.setattr(MC.np, "einsum", forbidden)
    chunks = 3
    MC.dual_sine_mc(0.0, R.TransformParams(4, 1, 2), phi, IV.RHO_GRID,
                    MC.McSpec(seed=5, n_samples=2 * MC.CHUNK + 1),
                    kernel="plain")
    blocks = -(-len(IV.RHO_GRID) // MC._PHI_BLOCK)
    assert 1 < MC._PHI_BLOCK < len(IV.RHO_GRID)
    assert len(calls) <= chunks * blocks


#: SHA-256 of the lines "value.hex() std_error.hex()" of the sine and log
#: kernels on the chain's table over RHO_GRID at 20000 samples, and whether
#: the kernel was clamped, recorded when every grid point formed the full
#: Lorentz products and applied their pseudo-inverse to x
_SINE_LOG_CHAIN_GOLDEN = {
    ("sine", 2.0, (3, 1, 2), 111): (
        False, "1bbf0d819e3b446dea746063dcc35167"
               "0cf86d6905dfbf60bc0921dd9f92087b"),
    ("sine", 1.0, (5, 1, 3), 112): (
        True, "583f8d651489474a837c99450666fa5f"
              "8f2501e51b4c4ca8c55abe9a123b3f85"),
    ("sine", 1.0, (7, 2, 4), 113): (
        True, "c267d246dfa41b030e4073ec1641a1cf"
              "5f15e782d5bd2558194ed8c8cc43edde"),
    ("log", 0.0, (4, 1, 2), 114): (
        True, "874dd9c91d355e8b6d7f699b8ebdd01a"
              "0896880b602925ab4077fb02d28ca82f"),
    ("log", 0.0, (6, 2, 4), 115): (
        True, "e88231d39e58b0bf0676c25fa22bcd08"
              "4aff2f3f2c3d0baed1d9ba989d3a81ba"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", list(_SINE_LOG_CHAIN_GOLDEN))
def test_sine_and_log_kernels_keep_their_bytes_on_the_chain_table(
        monkeypatch, threads, case):
    monkeypatch.setenv("GEORADON_THREADS", threads)
    kernel, alpha, triple, seed = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ests = MC.dual_sine_mc(alpha, R.TransformParams(*triple),
                               _chain_phi(triple[0], triple[2]), IV.RHO_GRID,
                               MC.McSpec(seed=seed, n_samples=20000),
                               kernel=kernel)
    clamped = any(issubclass(w.category, KernelSingularityWarning)
                  for w in caught)
    text = "\n".join(f"{e.value.hex()} {e.std_error.hex()}" for e in ests)
    assert (clamped, hashlib.sha256(text.encode()).hexdigest()) \
        == _SINE_LOG_CHAIN_GOLDEN[case]


@pytest.mark.parametrize("kernel,alpha", [("sine", 1.5), ("log", 0.0)])
def test_sine_and_log_kernels_read_one_row_of_the_haar_draw(monkeypatch,
                                                            kernel, alpha):
    # no Lorentz product is formed: the distances come from row n-1 of each
    # sample's Haar factor, whose QR still runs once per chunk
    monkeypatch.setenv("GEORADON_THREADS", "1")
    qr_calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        qr_calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel forms Lorentz products")

    monkeypatch.setattr(MC.np.linalg, "qr", counted)
    monkeypatch.setattr(MC, "_embed_block", forbidden)
    monkeypatch.setattr(MC.np, "einsum", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelSingularityWarning)
        MC.dual_sine_mc(alpha, R.TransformParams(4, 1, 2), _chain_phi(4, 2),
                        IV.RHO_GRID,
                        MC.McSpec(seed=5, n_samples=2 * MC.CHUNK + 1),
                        kernel=kernel)
    assert qr_calls == [(c, 4, 4) for c in (MC.CHUNK, MC.CHUNK, 1)]


@pytest.mark.parametrize("seed,triple", [(70, (3, 1, 2)), (71, (4, 1, 2)),
                                         (72, (5, 1, 3)), (73, (4, 1, 3))])
def test_plain_dual_sine_matches_exact_zonal_dual(seed, triple):
    # for zonal phi the plain kernel averages phi over the k-geodesics
    # through x: the hyperboloid dual zonal transform of the point, scaled
    p = R.TransformParams(*triple)
    phi = P.gaussian(0.8, P.ArgKind.GeodesicDistance)
    rho = np.linspace(0.0, 2.6, 33)
    ests = MC.dual_sine_mc(0.0, p, phi, rho,
                           MC.McSpec(seed=seed, n_samples=40000),
                           kernel="plain")
    exact = dual_transform_limit_constant(p.n, p.k) * np.asarray(
        R.dual_hyper_zonal(R.TransformParams(p.n, 0, p.k),
                           P.reparametrize(phi, P.ArgKind.SinhDistance),
                           np.sinh(rho)))
    for e, want in zip(ests, exact):
        # sigma is 0 at rho = 0, where every geodesic through x sits at
        # distance 0 and the estimate is exact up to rounding
        assert abs(e.value - want) <= 4 * e.std_error + 1e-12 * abs(want)

def test_frame_and_plane_validation():
    bad = np.ones((3, 2))
    with pytest.raises(Exception):
        MC.Frame(bad)
    eta = np.zeros((3, 1))
    eta[2, 0] = 1.0
    with pytest.raises(Exception):
        MC.AffinePlane(MC.Frame(eta), np.array([0.0, 0.0, 0.5]))


def _duality_inputs(which):
    """(params, f, phi) of the duality goldens for each geometry."""
    if which == "affine":
        return (R.TransformParams(3, 0, 1),
                MC.radial_plane_function(P.gaussian()),
                lambda batch: np.exp(-batch.distances ** 2)
                * (1.0 + batch.offsets[:, 0] ** 2))
    if which == "chord":
        return (R.TransformParams(4, 0, 2),
                MC.radial_plane_function(
                    P.bump(0.8, arg_kind=P.ArgKind.BallRadius)),
                lambda batch: np.exp(-batch.distances ** 2))
    return (R.TransformParams(4, 1, 2),
            MC.zonal_function(P.gaussian(1.0, P.ArgKind.CoshDistance,
                                         lo=1.0)),
            MC.zonal_function(P.gaussian(arg_kind=P.ArgKind.SinhDistance)))


@pytest.mark.parametrize("which", ["affine", "chord", "hyper"])
def test_duality_check_uses_every_generator_once(monkeypatch, which):
    # the outer draws and every inner estimate of both sides each need a
    # generator of their own: a repeated (stream, chunk) key would make two
    # of them draw the same numbers
    keys = []
    rng = MC._rng

    def recording(spec, chunk):
        keys.append((spec.stream_id, chunk))
        return rng(spec, chunk)

    monkeypatch.setattr(MC, "_rng", recording)
    p, f, phi = _duality_inputs(which)
    MC.duality_check_mc(which, f, phi, p, MC.McSpec(seed=5, n_samples=2000))
    assert len(keys) == len(set(keys)) > 2 * 64


#: float.hex of (lhs value, lhs std_error, rhs value, rhs std_error),
#: recorded once the outer and inner streams of both sides were disjoint
_DUALITY_GOLDEN = {
    "affine": ("0x1.bde6df3336c9ap+1", "0x1.9172db8355629p-2",
               "0x1.b111061e14f25p+1", "0x1.c4b681759d5fdp-2"),
    "chord": ("0x1.8c734174761d7p-2", "0x1.4aabadd6a2816p-4",
              "0x1.1a9b26528d18ep-2", "0x1.66a0ba1664b2ap-4"),
    "hyper": ("0x1.cc348405355f6p-1", "0x1.77b134bc6eaefp-4",
              "0x1.a56c14d7e2b6dp-1", "0x1.a6eb0aef92ebep-4"),
    # at 10,000 samples: two outer chunks and four blocks of inner
    # estimates a side, recorded when each inner estimate was a call of
    # its own
    ("affine", 10_000): ("0x1.aa7c0a28c28f6p+1", "0x1.3d83ed2ab47b9p-2",
                         "0x1.9f025dc239573p+1", "0x1.5f4179e9be825p-2"),
    ("chord", 10_000): ("0x1.90c67a1bcadfbp-2", "0x1.0e7fcd40c754fp-4",
                        "0x1.3919ddd772192p-2", "0x1.3865cc6d3924bp-4"),
    ("hyper", 10_000): ("0x1.bf31a8ac46871p-1", "0x1.21bad0e2c6b45p-4",
                        "0x1.d1c01cb2dfa33p-1", "0x1.67a4d23598e35p-4"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("which", ["affine", "chord", "hyper"])
def test_duality_check_keeps_its_bytes(monkeypatch, which, threads):
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p, f, phi = _duality_inputs(which)
    lhs, rhs = MC.duality_check_mc(which, f, phi, p,
                                   MC.McSpec(seed=81, n_samples=2000))
    got = (lhs.value.hex(), lhs.std_error.hex(), rhs.value.hex(),
           rhs.std_error.hex())
    assert got == _DUALITY_GOLDEN[which]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("which", ["affine", "chord", "hyper"])
def test_duality_check_keeps_its_bytes_over_blocks(monkeypatch, which,
                                                   threads):
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p, f, phi = _duality_inputs(which)
    lhs, rhs = MC.duality_check_mc(which, f, phi, p,
                                   MC.McSpec(seed=81, n_samples=10_000))
    got = (lhs.value.hex(), lhs.std_error.hex(), rhs.value.hex(),
           rhs.std_error.hex())
    assert got == _DUALITY_GOLDEN[which, 10_000]


def test_units_pack_into_blocks_in_order():
    # a unit is one chunk of one budget; a block holds whole units, at most
    # CHUNK samples, and each unit draws from its own (stream, chunk) key
    blocks = []

    def terms(units):
        blocks.append([(t, start, count) for t, start, count, _ in units])
        return np.concatenate([rng.standard_normal(count)
                               for _, _, count, rng in units])

    specs = [MC.McSpec(3, n, stream_id=s)
             for s, n in enumerate((9000, 300, 20000, 8192))]
    parts = MC._unit_sums(specs, terms, 1)
    c = MC.CHUNK
    assert blocks == [[(0, 0, c)], [(0, c, 808), (1, 0, 300)], [(2, 0, c)],
                      [(2, c, c)], [(2, 2 * c, 3616)], [(3, 0, c)]]
    # each unit's sums are those of its chunk drawn alone
    for spec, chunks in zip(specs, parts):
        for i, (count, total, squares) in enumerate(chunks):
            alone = MC._rng(spec, i).standard_normal(count)
            assert (count, total, squares) \
                == (len(alone), np.sum(alone), np.sum(alone * alone))


def _bounded_lorentz(batch):
    """A function of geodesics that reads a Lorentz-matrix entry, so each
    batch forms its rotations; bounded at any boost."""
    d = batch.distance_to_origin()
    return np.exp(-d * d) * (1.5 + np.tanh(batch.matrices[:, 0, 1]))


def _core_cases():
    """(public estimator, core, params, function, targets) of each
    estimator, with four targets."""
    gen = np.random.default_rng(7)

    def rotation(n):
        return MC.sample_rotation(n, gen)

    affine = R.TransformParams(4, 1, 2)
    zetas = []
    for dist in (0.6, 0.0, 1.1, 0.3):
        rot = rotation(4)
        zetas.append(MC.AffinePlane(MC.Frame(rot[:, 2:]), dist * rot[:, 0]))
    dual = R.TransformParams(5, 1, 3)
    taus = []
    for dist in (0.4, 0.9, 0.0, 1.3):
        rot = rotation(5)
        taus.append(MC.AffinePlane(MC.Frame(rot[:, 4:]), dist * rot[:, 0]))

    def offsets(batch):
        return np.exp(-batch.distances ** 2) \
            * (1.0 + batch.frames[:, 0, 0] ** 2 + batch.offsets[:, 1] ** 2)

    hyper = R.TransformParams(4, 1, 2)
    zs = [MC.GeodesicElement(4, 2, rotation(4), d) for d in (0.3, 0.0, 0.8,
                                                             1.2)]
    ts = [MC.GeodesicElement(4, 1, rotation(4), d) for d in (0.5, 0.0, 0.9,
                                                             0.2)]
    return {"radon_affine": (MC.radon_affine_mc, MC._radon_affine, affine,
                             offsets, zetas),
            "dual_affine": (MC.dual_affine_mc, MC._dual_affine, dual, offsets,
                            taus),
            "radon_hyper": (MC.radon_hyper_mc, MC._radon_hyper, hyper,
                            _bounded_lorentz, zs),
            "radon_hyper_zonal": (
                MC.radon_hyper_mc, MC._radon_hyper, hyper,
                MC.zonal_function(P.gaussian(1.0, P.ArgKind.CoshDistance,
                                             lo=1.0)), zs),
            "dual_hyper": (MC.dual_hyper_mc, MC._dual_hyper, hyper,
                           _bounded_lorentz, ts)}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", ["radon_affine", "dual_affine",
                                  "radon_hyper", "radon_hyper_zonal",
                                  "dual_hyper"])
def test_many_target_cores_keep_each_targets_bytes(monkeypatch, threads,
                                                   name):
    # budgets of 9,000, 300, 20,000 and 8,192 samples: units that straddle
    # chunk edges, and a cell that holds the ends of two budgets; then
    # budgets that make radon_hyper_mc's blocks of several cells hold runs
    # of more than one target (a zonal read's blocks hold several targets
    # at both)
    monkeypatch.setenv("GEORADON_THREADS", threads)
    public, core, p, fn, targets = _core_cases()[name]
    # a core takes a plane as its (frame columns, offset)
    cored = [(t.frame.columns, t.offset) if isinstance(t, MC.AffinePlane)
             else t for t in targets]
    c = MC.CHUNK
    for budgets in ((9000, 300, 20000, 8192), (4 * c + 1, 300, 3 * c, 9000)):
        specs = [MC.McSpec(seed=40 + i, n_samples=n, stream_id=i)
                 for i, n in enumerate(budgets)]
        many = core(p, fn, cored, specs)
        for target, spec, est in zip(targets, specs, many):
            alone = public(p, fn, target, spec)
            assert (est.value.hex(), est.std_error.hex(), est.n_samples) \
                == (alone.value.hex(), alone.std_error.hex(), spec.n_samples)


def test_substream_refuses_an_empty_budget():
    spec = MC.McSpec(1, 500)
    assert spec.substream(3) == MC.McSpec(1, 500, 3)
    assert spec.substream(3, 40) == MC.McSpec(1, 40, 3)
    with pytest.raises(DomainError, match="positive"):
        spec.substream(3, 0)


def _sinh_gaussian(sigma):
    return P.Profile1D(lo=0.0, hi=math.inf, arg_kind=P.ArgKind.SinhDistance,
                       decay_hint=math.inf,
                       fn=lambda r: np.exp(-(r / sigma) ** 2))


@pytest.mark.parametrize("seed,triple,dist", [(91, (4, 1, 2), 0.7),
                                              (92, (5, 2, 4), 0.4)])
def test_dual_hyper_mc_matches_zonal_oracle(seed, triple, dist):
    p = R.TransformParams(*triple)
    prof = _sinh_gaussian(0.8)
    t = MC.GeodesicElement(p.n, p.j, MC.sample_rotation(p.n, _rng(seed)),
                           dist)
    est = MC.dual_hyper_mc(p, MC.zonal_function(prof), t,
                           MC.McSpec(seed=seed, n_samples=20000))
    exact = R.dual_hyper_zonal(p, prof, math.sinh(dist))
    assert est.std_error > 0
    assert abs(est.value - exact) <= 4 * est.std_error


def _distance_to_geodesic(x, matrices, n, d):
    """Distance from the point x of the hyperboloid to the d-geodesics
    A (base), through A^{-1} x = G A^T G x with G = diag(-I_n, 1)."""
    gx = np.concatenate([-x[:n], x[n:]])
    inv = np.einsum("bji,j->bi", matrices, gx)
    inv[:, :-1] *= -1.0
    return MC._distance_to_base(inv, n, d)


@pytest.mark.parametrize("seed,triple", [(141, (4, 1, 2)), (142, (5, 2, 4)),
                                         (143, (6, 2, 4)), (144, (5, 0, 3))])
@pytest.mark.parametrize("dist", [0.0, 0.5])
def test_non_zonal_dual_hyper_mc_matches_a_moved_zonal_oracle(seed, triple,
                                                              dist):
    # phi is zonal about a point x at distance 0.6 from the base point, so
    # it reads every sampled k-geodesic through its Lorentz matrix, and
    # with it the rotation that lifts each chord (through the centre when
    # t passes through the base point).  An isometry taking x to the base
    # point makes phi zonal: its dual at t is the zonal dual at d(x, t)
    p = R.TransformParams(*triple)
    n = p.n
    prof = _sinh_gaussian(0.8)
    x = np.zeros(n + 1)
    x[:n] = math.sinh(0.6) * np.linspace(1.0, 2.0, n) \
        / np.linalg.norm(np.linspace(1.0, 2.0, n))
    x[n] = math.cosh(0.6)
    t = MC.GeodesicElement(n, p.j, MC.sample_rotation(n, _rng(seed)), dist)
    est = MC.dual_hyper_mc(
        p, lambda batch: prof(np.sinh(_distance_to_geodesic(
            x, batch.matrices, n, p.k))),
        t, MC.McSpec(seed=seed, n_samples=20000))
    at_t = MC._embed_block(t.rotation, n, range(n)) \
        @ MC.hyperbolic_rotation(n, p.j, dist)
    d_xt = _distance_to_geodesic(x, at_t[None], n, p.j)[0]
    exact = R.dual_hyper_zonal(p, prof, math.sinh(d_xt))
    assert est.std_error > 0
    assert abs(est.value - exact) <= 4 * est.std_error


def _non_zonal(batch):
    """A phi that reads every entry of the lifted Lorentz matrices, so it
    sees the columns the chord lift chooses to complete each frame."""
    n = batch.n
    w = np.linspace(-1.0, 1.0, (n + 1) * (n + 1)).reshape(n + 1, n + 1)
    return np.exp(np.sum(batch.matrices * w, axis=(1, 2)))


#: float.hex of (value, std_error) through the base point, where every
#: sampled chord runs through the centre and its lift completes its frame
#: alone.  ``_non_zonal`` reads the completing columns, which any rotation
#: keeping the frame may supply, so these pin that choice (re-recorded when
#: it became ``complete_rotation``'s)
_ORIGIN_GOLDEN = {
    (4, 1, 2): ("0x1.61961b80cbdc6p+0", "0x1.337786d30b034p-8"),
    (6, 2, 4): ("0x1.5bfcd820a53b6p+2", "0x1.71622898577cbp-5"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed,triple", [(111, (4, 1, 2)), (112, (6, 2, 4))])
def test_dual_hyper_mc_keeps_its_bytes_through_the_origin(monkeypatch, threads,
                                                          seed, triple):
    # through the base point every sampled chord runs through the centre
    monkeypatch.setenv("GEORADON_THREADS", threads)
    p = R.TransformParams(*triple)
    t = MC.GeodesicElement(p.n, p.j, MC.sample_rotation(p.n, _rng(seed)), 0.0)
    est = MC.dual_hyper_mc(p, _non_zonal, t,
                           MC.McSpec(seed=seed, n_samples=20000))
    assert (est.value.hex(), est.std_error.hex()) == _ORIGIN_GOLDEN[triple]


#: float.hex of (value, std_error) with a zonal phi off the base point,
#: recorded when the chord lift formed every chord's rotation
_ZONAL_DUAL_GOLDEN = {
    (5, 1, 2): ("0x1.42a484b07943ap-1", "0x1.595f4df8fe1e9p-15"),
    (6, 2, 4): ("0x1.7b4f4d1128413p-1", "0x1.6a6e0a6dce8ddp-14"),
}


def _zonal_dual(seed, triple):
    p = R.TransformParams(*triple)
    t = MC.GeodesicElement(p.n, p.j, MC.sample_rotation(p.n, _rng(seed)),
                           0.6)
    est = MC.dual_hyper_mc(p, MC.zonal_function(_sinh_gaussian(0.8)), t,
                           MC.McSpec(seed=seed, n_samples=20000))
    return est.value.hex(), est.std_error.hex()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed,triple", [(121, (5, 1, 2)), (122, (6, 2, 4))])
def test_dual_hyper_mc_keeps_its_bytes_with_a_zonal_phi(monkeypatch, threads,
                                                        seed, triple):
    monkeypatch.setenv("GEORADON_THREADS", threads)
    assert _zonal_dual(seed, triple) == _ZONAL_DUAL_GOLDEN[triple]


#: float.hex of the lhs (value, std_error) and of the rhs of chain_identity
#: at (4, 1, 2), recorded when radon_hyper_mc formed every Lorentz product
_CHAIN_GOLDEN = ("0x1.95b981fe3f183p-1", "0x1.30b94eb656cf9p-8",
                 "0x1.956a3aa0add78p-1")


def test_zonal_reads_form_no_rotation(monkeypatch):
    # with zonal inputs the hyperbolic estimators read distances only, and
    # a distance needs neither the Haar factor of an inner geodesic nor
    # the rotation of a lifted chord
    monkeypatch.setenv("GEORADON_THREADS", "1")
    qr_calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        qr_calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a zonal read formed a rotation")

    monkeypatch.setattr(MC.np.linalg, "qr", counted)
    monkeypatch.setattr(MC._ChordGeodesics, "rotations", property(forbidden))
    # dual_hyper_mc: of the batched QRs, one per chunk for the Haar planes
    # around the chord of t (the chord offsets are functions of their
    # columns) and none for the lift
    assert _zonal_dual(122, (6, 2, 4)) == _ZONAL_DUAL_GOLDEN[(6, 2, 4)]
    assert [a for a in qr_calls if len(a) == 3 and a[0] > 1] \
        == [(c, 4, 4) for c in (8192, 8192, 3616)]

    qr_calls.clear()
    monkeypatch.setattr(MC, "_haar_factor", forbidden)
    ests = _hyper_goldens_radon()
    assert [(e.value.hex(), e.std_error.hex()) for e in ests] \
        == _GOLDEN["radon"]
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.eye(4)
    rot[0, 0] = rot[2, 2] = c
    rot[0, 2], rot[2, 0] = -s, s
    lhs, rhs = IV.chain_identity(R.TransformParams(4, 1, 2),
                                 IV.zonal_bump(1.2),
                                 MC.GeodesicElement(4, 2, rot, 0.6),
                                 MC.McSpec(seed=131, n_samples=20000),
                                 support=1.2)
    assert (lhs.value.hex(), lhs.std_error.hex(), rhs.hex()) == _CHAIN_GOLDEN
    assert qr_calls == []


def test_dual_hyper_mc_is_exact_through_the_origin():
    # every k-geodesic containing a j-geodesic through the base point
    # passes through it, so a zonal phi is phi(0) on every sample
    p = R.TransformParams(4, 1, 2)
    prof = _sinh_gaussian(0.8)
    t = MC.GeodesicElement(4, 1, MC.sample_rotation(4, _rng(93)), 0.0)
    est = MC.dual_hyper_mc(p, MC.zonal_function(prof), t,
                           MC.McSpec(seed=93, n_samples=500))
    assert est.value == 1.0 and est.std_error == 0.0


def test_chord_lift_through_the_centre_is_a_rotation():
    # a chord through the centre has no offset direction and no boost: its
    # lift completes a rotation from its frame alone, whichever direction
    # that puts off the frame, even for a frame that holds e_0
    eye = np.eye(4)
    generic = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 2)))[0]
    frames = np.stack([generic, eye[:, [0, 3]], eye[:, [2, 3]]])
    lift = MC._ChordGeodesics(2, np.zeros(3),
                              MC.PlaneBatch(frames, np.zeros((3, 4))))
    s = lift.rotations
    assert np.allclose(s @ np.transpose(s, (0, 2, 1)), eye, atol=1e-12)
    assert np.allclose(np.linalg.det(s), 1.0)
    assert np.allclose(s[:, :, 2:], frames, atol=1e-12)
    assert np.array_equal(s, MC.complete_rotation(frames))
    form = np.diag([-1.0] * 4 + [1.0])
    m = lift.matrices
    assert np.allclose(np.transpose(m, (0, 2, 1)) @ form @ m, form, atol=1e-12)
