import math

import numpy as np
import pytest
from hypothesis import settings

from georadon.profiles import ArgKind, Profile1D, bump, gaussian, gaussian_power
from georadon.quadrature import QuadratureSpec

# the same examples on every run, at the default example count
settings.register_profile("georadon", derandomize=True)
settings.load_profile("georadon")

#: tight spec for building reference tabulations whose values feed
#: differentiation paths
TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30, max_subdivisions=600,
                       truncation_tail_tol=1e-18)


@pytest.fixture(scope="session")
def euclid_catalog():
    return [gaussian(), gaussian_power(2.0), bump(6.0)]


@pytest.fixture(scope="session")
def hyper_gauss_cosh():
    return Profile1D(lo=1.0, hi=math.inf, fn=lambda s: np.exp(1.0 - s * s),
                     arg_kind=ArgKind.CoshDistance, decay_hint=math.inf,
                     label="zonal gaussian")


def rel_err(got, want, floor=1e-300):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


def sup_rel_err(got, want):
    """Error relative to the sup of the reference over the grid."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))
