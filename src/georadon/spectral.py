"""Chebyshev interpolation and spectral differentiation on an interval.

Nodes are Chebyshev points of the second kind, so halving the resolution
reuses every other node; that nesting drives the derivative noise estimate.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C


def cheb_nodes(n: int, a: float, b: float) -> np.ndarray:
    """n+1 Chebyshev extreme points on [a, b], increasing."""
    theta = np.pi * np.arange(n, -1, -1) / n
    x = np.cos(theta)
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def _values_to_coeffs(values: np.ndarray) -> np.ndarray:
    # DCT-I of samples at the extreme points; values ordered by increasing x.
    n = len(values) - 1
    v = values[::-1]
    ext = np.concatenate([v, v[-2:0:-1]])
    coeffs = np.real(np.fft.fft(ext))[: n + 1] / n
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``C.chebval(x, c)`` for an array x of the caller's own and at least
    3 coefficients; x is overwritten.

    The same recurrence in the same order, so the result is bit-for-bit
    that of ``chebval``, but in x and three buffers instead of three new
    arrays per coefficient.  The recurrence reads 2x, formed in x and
    halved back for the last step c0 + c1 x.  Halving is exact unless 2x
    overflowed, and there the first step already made c1 = c0 + c1 (2x)
    infinite or NaN, which the last product keeps whether it reads x or
    the same-signed infinity.
    """
    x *= 2.0
    c0 = np.full(x.shape, c[-2])
    c1 = np.full(x.shape, c[-1])
    spare = np.empty_like(x)
    for ci in c[-3::-1]:
        # c0, c1 = ci - c1, c0 + c1*(2x)
        np.subtract(ci, c1, out=spare)
        np.multiply(c1, x, out=c1)
        np.add(c0, c1, out=c1)
        c0, spare = spare, c0
    x *= 0.5
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c0)


class ChebInterpolant:
    """Polynomial interpolant through values at Chebyshev extreme points."""

    def __init__(self, a: float, b: float, values: np.ndarray):
        if not (b > a):
            raise ValueError("ChebInterpolant: empty interval")
        self.a = float(a)
        self.b = float(b)
        self.values = np.asarray(values, dtype=float)
        self.coeffs = _values_to_coeffs(self.values)

    @classmethod
    def fit(cls, fn, a: float, b: float, n: int) -> "ChebInterpolant":
        return cls(a, b, np.asarray(fn(cheb_nodes(n, a, b)), dtype=float))

    def _map(self, x):
        # one new array, mapped in place (a 0-d x gives a scalar), which
        # ``_clenshaw`` may take over
        t = 2.0 * np.asarray(x, dtype=float)
        t -= self.a + self.b
        t /= self.b - self.a
        return t

    def __call__(self, x):
        x = self._map(x)
        if np.ndim(x) == 0 or len(self.coeffs) < 3:
            return C.chebval(x, self.coeffs)
        return _clenshaw(x, self.coeffs)

    def derivative(self, order: int = 1) -> "ChebInterpolant":
        c = C.chebder(self.coeffs, m=order, scl=2.0 / (self.b - self.a))
        out = object.__new__(ChebInterpolant)
        out.a, out.b = self.a, self.b
        out.coeffs = c
        out.values = None
        return out

    def decimated(self) -> "ChebInterpolant":
        """Interpolant through every other node (half the resolution)."""
        if self.values is None or len(self.values) < 5 or (len(self.values) - 1) % 2:
            raise ValueError("decimated: need stored values on an even-degree grid")
        return ChebInterpolant(self.a, self.b, self.values[::2])

