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

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    def _map(self, x):
        return (2.0 * np.asarray(x, dtype=float) - (self.a + self.b)) / (self.b - self.a)

    def __call__(self, x):
        return C.chebval(self._map(x), self.coeffs)

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

