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


#: the Chebyshev variables the recurrence's in-place doubling must keep:
#: the ends and the centre, signed zeros, subnormals, the smallest normal,
#: and the largest doubles whose double is finite (below 2^1023)
_EDGES = np.array([-1.0, 1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                   2.2250738585072014e-308, np.nextafter(2.0 ** 1023, 0.0),
                   -np.nextafter(2.0 ** 1023, 0.0), 2.0 ** 1022, 1e307])


def _inputs(base):
    """0-d, 1-d, 2-d and non-contiguous arrays of the values ``base``."""
    wide = np.repeat(base, 4)
    return [base[0].copy(), base.copy(), wide.reshape(4, -1),
            wide.reshape(4, -1).T, wide[::3], wide.reshape(4, -1)[:, ::2]]


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 1.0)])
def test_interpolant_keeps_chebval_bits_at_the_edges_of_doubling(a, b):
    # the recurrence doubles the variable in place and halves it back: on
    # [-1, 1] the variable is x itself, up to the largest double below
    # 2^1023; on [0, 1] it is 2x - 1, which reaches 2^1023 and -2^1023,
    # where its double overflows.  The caller's array is never written
    x = _EDGES if a == -1.0 else np.concatenate(
        [(_EDGES + 1.0) / 2.0, [2.0 ** 1022, -2.0 ** 1022, 1e308]])
    rng = np.random.default_rng(12)
    interp = ChebInterpolant(a, b, np.zeros(3))
    for n in (3, 4, 17, 201):
        interp.coeffs = rng.standard_normal(n)
        for arg in _inputs(x):
            before = arg.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                want = C.chebval(interp._map(arg), interp.coeffs)
                got = interp(arg)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert arg.tobytes() == before.tobytes()
