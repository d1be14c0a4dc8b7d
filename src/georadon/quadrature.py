"""Adaptive quadrature with algebraic endpoint weights.

The central routine integrates ``(u-a)^p (b-u)^q * core(u)`` over [a, b]
with Gauss-Jacobi rules matched to the endpoint exponents, doubling nodes
until two successive rules agree and bisecting when doubling stalls.
Infinite upper limits are handled by geometric segments with a certified
tail bound driven by the integrand's decay exponent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, QuadratureError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive integrators."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    truncation_tail_tol: float = 1e-12

    def __post_init__(self):
        tols = (self.rel_tol, self.abs_tol, self.truncation_tail_tol)
        if not all(math.isfinite(t) and t > 0 for t in tols):
            raise ValueError(
                "QuadratureSpec: tolerances must be finite and positive")
        if self.max_subdivisions <= 0:
            raise ValueError("QuadratureSpec: max_subdivisions must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()

_NODE_LADDER = (16, 32, 64, 128, 256)


@lru_cache(maxsize=512)
def _jacobi_rule(n: int, a: float, b: float):
    # imported here so that jobs without quadrature skip scipy.special
    from scipy.special import roots_jacobi
    # scipy weight is (1-x)^a (1+x)^b on [-1, 1]
    x, w = roots_jacobi(n, a, b)
    return x, w


def _rule(n: int, p_lo: float, p_hi: float):
    """Nodes/weights for (u-a)^p_lo (b-u)^p_hi on [-1,1] coordinates."""
    if p_lo <= -1.0 or p_hi <= -1.0:
        raise DivergenceError(
            f"endpoint exponent <= -1 is not integrable (p_lo={p_lo}, p_hi={p_hi})")
    return _jacobi_rule(n, round(float(p_hi), 12), round(float(p_lo), 12))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise QuadratureError("quadrature subdivision budget exhausted")


def _fixed_rule(a: float, b: float, p_lo: float, p_hi: float, n: int):
    """Nodes u, weights w and scale c of the n-node rule on [a, b]: the
    rule's value for ``core`` is ``c * dot(w, core(u))``."""
    x, w = _rule(n, p_lo, p_hi)
    h = 0.5 * (b - a)
    return a + h * (x + 1.0), w, h ** (1.0 + p_lo + p_hi)


def _weighted_fixed(core, a: float, b: float, p_lo: float, p_hi: float, n: int) -> float:
    u, w, scale = _fixed_rule(a, b, p_lo, p_hi, n)
    return float(scale * np.dot(w, core(u)))


def weighted_nodes(a: float, b: float, p_lo: float, p_hi: float, n: int):
    """Nodes u and weights W with int (u-a)^p_lo (b-u)^p_hi h(u) du = sum W h(u).

    A fixed (non-adaptive) rule; useful when integrals at many parameter
    values must share one grid so their errors vary smoothly.
    """
    u, w, scale = _fixed_rule(a, b, p_lo, p_hi, n)
    return u, w * scale


def integrate_weighted(core, a: float, b: float, p_lo: float, p_hi: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE,
                       budget: _Budget | None = None,
                       scale_hint: float = 0.0) -> float:
    """Integral of (u-a)^p_lo (b-u)^p_hi core(u) over [a, b], adaptive.

    ``core`` must be smooth on (a, b) and finite at the endpoints; the
    algebraic endpoint behavior lives entirely in the exponents.
    """
    return _integrate_known({}, core, a, b, p_lo, p_hi, spec, budget,
                            scale_hint)


def _rungs_agree(prev: float, cur: float, spec: QuadratureSpec,
                 scale_hint: float) -> bool:
    """The ladder's stopping rule: two successive rungs agree to within the
    tolerance, relative to the larger of ``cur`` and ``scale_hint``."""
    return abs(cur - prev) <= max(spec.abs_tol,
                                  spec.rel_tol * max(abs(cur), scale_hint))


def _integrate_known(known: dict, core, a: float, b: float, p_lo: float,
                     p_hi: float, spec: QuadratureSpec, budget: _Budget | None,
                     scale_hint: float) -> float:
    """``integrate_weighted`` whose ladder takes the rungs in ``known``
    (node count -> value of that fixed rule on [a, b]) instead of
    evaluating ``core`` for them again."""
    if b <= a:
        return 0.0
    if budget is None:
        budget = _Budget(spec.max_subdivisions)
    budget.spend()

    prev = None
    for n in _NODE_LADDER:
        cur = known[n] if n in known else \
            _weighted_fixed(core, a, b, p_lo, p_hi, n)
        if prev is not None and _rungs_agree(prev, cur, spec, scale_hint):
            return cur
        prev = cur

    # Spectral doubling stalled: bisect.  The half away from an endpoint
    # weight sees that weight as a smooth factor folded into the core.
    mid = 0.5 * (a + b)

    def core_left(u):
        return core(u) * (b - u) ** p_hi

    def core_right(u):
        return core(u) * (u - a) ** p_lo

    left = integrate_weighted(core_left, a, mid, p_lo, 0.0, spec, budget, scale_hint)
    right = integrate_weighted(core_right, mid, b, 0.0, p_hi, spec, budget, scale_hint)
    return left + right


def integrate_to_infinity(core, a: float, p_lo: float,
                          decay_exponent: float,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE,
                          first_width: float = 1.0) -> float:
    """Integral of (u-a)^p_lo core(u) over [a, inf).

    ``decay_exponent`` d asserts |(u-a)^p_lo core(u)| <= C u^(-d) for large u
    with d > 1 (``math.inf`` allowed); it certifies the truncation tail.
    Raises ``DivergenceError`` when segment contributions keep growing.
    """
    budget = _Budget(spec.max_subdivisions)
    u1 = a + max(first_width, abs(a) * 1.0, 1e-6)
    total = integrate_weighted(core, a, u1, p_lo, 0.0, spec, budget)
    lo = u1
    width = u1 - a
    recent: list[float] = []
    for _ in range(64):
        hi = lo + width
        seg = integrate_weighted(lambda u: core(u) * (u - a) ** p_lo,
                                 lo, hi, 0.0, 0.0, spec, budget)
        total += seg
        recent.append(abs(seg))
        if len(recent) >= 8 and all(s > spec.abs_tol for s in recent[-8:]) \
                and all(recent[i] <= recent[i + 1] * (1 + 1e-9)
                        for i in range(len(recent) - 8, len(recent) - 1)):
            raise DivergenceError(
                "integral over [a, inf): octave contributions are not decreasing")

        stop = max(spec.abs_tol, spec.truncation_tail_tol * abs(total))
        if abs(seg) <= stop:
            # Certify the remaining tail from the decay exponent.
            if math.isinf(decay_exponent):
                return total
            if decay_exponent > 1.0:
                c_meas = abs(seg) / max(width * lo ** (-decay_exponent), 1e-300)
                tail = c_meas * hi ** (1.0 - decay_exponent) / (decay_exponent - 1.0)
                if tail <= stop:
                    return total
            else:
                raise DivergenceError(
                    f"tail decay exponent {decay_exponent} cannot certify convergence")
        lo = hi
        width *= 2.0
    raise QuadratureError("tail truncation did not converge within 64 octaves")
