import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from georadon.spectral import ChebInterpolant

_SHAPES = [(), (1,), (8192,), (33, 64)]


@pytest.mark.parametrize("shape", _SHAPES, ids=str)
def test_interpolant_matches_chebval_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 2.5, shape)
    interp = ChebInterpolant(-0.5, 2.5, np.zeros(3))
    for n in range(1, 202):
        interp.coeffs = rng.standard_normal(n)
        want = C.chebval(interp._map(x), interp.coeffs)
        got = interp(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), n


def test_interpolant_scalar_input_stays_scalar():
    interp = ChebInterpolant(0.0, 1.0, np.linspace(1.0, 2.0, 9))
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        got = interp(x)
        assert isinstance(got, np.float64)
        assert got == C.chebval(interp._map(0.3), interp.coeffs)
