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
    """``C.chebval(x, c)`` for an array x and at least 3 coefficients.

    The same recurrence in the same order, so the result is bit-for-bit
    that of ``chebval``, but in three buffers instead of three new arrays
    per coefficient.
    """
    x2 = 2.0 * x
    c0 = np.full(x.shape, c[-2])
    c1 = np.full(x.shape, c[-1])
    spare = np.empty_like(x2)
    for ci in c[-3::-1]:
        # c0, c1 = ci - c1, c0 + c1*x2
        np.subtract(ci, c1, out=spare)
        np.multiply(c1, x2, out=c1)
        np.add(c0, c1, out=c1)
        c0, spare = spare, c0
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
        return (2.0 * np.asarray(x, dtype=float) - (self.a + self.b)) / (self.b - self.a)

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

