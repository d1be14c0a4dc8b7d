"""Adaptive quadrature with algebraic endpoint weights.

The central routine integrates ``(u-a)^p (b-u)^q * core(u)`` over [a, b]
with Gauss-Jacobi rules matched to the endpoint exponents, doubling nodes
until two successive rules agree and bisecting when doubling stalls.
Infinite upper limits are handled by geometric segments with a certified
tail bound driven by the integrand's decay exponent.

Every integral is a row of one node ladder, ``_integrate_rows``; a single
integral is a batch of one.  The rows of an integrand family (the segments
of all target points of a fractional integral, the halves of bisected
rows) climb the ladder together, one core call per rung, and each keeps
the bits of the rule applied to it alone.
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


def weighted_nodes(a: float, b: float, p_lo: float, p_hi: float, n: int):
    """Nodes u and weights W with int (u-a)^p_lo (b-u)^p_hi h(u) du = sum W h(u).

    A fixed (non-adaptive) rule; useful when integrals at many parameter
    values must share one grid so their errors vary smoothly.
    """
    x, w = _rule(n, p_lo, p_hi)
    h = 0.5 * (b - a)
    return a + h * (x + 1.0), w * h ** (1.0 + p_lo + p_hi)


def integrate_weighted(core, a: float, b: float, p_lo: float, p_hi: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE,
                       budget: _Budget | None = None) -> float:
    """Integral of (u-a)^p_lo (b-u)^p_hi core(u) over [a, b], adaptive.

    ``core`` must be smooth on (a, b) and finite at the endpoints; the
    algebraic endpoint behavior lives entirely in the exponents.  One row
    of ``_integrate_rows`` with scale hint 0: 0 for b <= a, at no cost.
    """
    if budget is None:
        budget = _Budget(spec.max_subdivisions)
    value, = _integrate_rows(lambda u, keys: core(u.ravel()).reshape(u.shape),
                             [(0, a, b, p_lo, p_hi)], spec, [budget], ())
    if isinstance(value, Exception):
        raise value
    return value


def _rungs_agree(prev, cur, spec: QuadratureSpec, scale_hint):
    """The ladder's stopping rule: two successive rungs agree to within the
    tolerance, relative to the larger of ``cur`` and ``scale_hint``.

    Elementwise on arrays of rungs.  ``fmax`` passes over a NaN hint as
    ``max`` would, and a NaN rung never agrees."""
    return np.abs(cur - prev) <= np.fmax(
        spec.abs_tol, spec.rel_tol * np.fmax(np.abs(cur), scale_hint))


def integrate_to_infinity(core, a: float, p_lo: float,
                          decay_exponent: float,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integral of (u-a)^p_lo core(u) over [a, inf).

    ``decay_exponent`` d asserts |(u-a)^p_lo core(u)| <= C u^(-d) for large u
    with d > 1 (``math.inf`` allowed); it certifies the truncation tail.
    Raises ``DivergenceError`` when segment contributions keep growing.
    """
    total, = _integrate_tails(lambda u, keys: core(u.ravel()).reshape(u.shape),
                              [(a, p_lo, decay_exponent, 1.0)], spec)
    if isinstance(total, Exception):
        raise total
    return total


# -- batches of integrals ------------------------------------------------------

@lru_cache(maxsize=512)
def _rung_rules(kinds: tuple, ns: tuple):
    """Nodes of the ``ns``-node rules on [-1, 1], concatenated, and each
    rule's weights, stacked one row per exponent pair of ``kinds``."""
    rules = [[_rule(n, p_lo, p_hi) for n in ns] for p_lo, p_hi in kinds]
    return (np.array([np.concatenate([x for x, _ in rule]) for rule in rules]),
            [np.array([rule[i][1] for rule in rules]) for i in range(len(ns))])


def _row_dots(vals, w):
    """``np.dot(w_i, vals_i)`` for every row i of ``vals``, with ``w`` one
    row of weights per row or one shared row.

    The stacked ``np.matmul`` of (1 x n) by (n x 1) blocks makes the same
    ``ddot`` call as ``np.dot`` on each row, so every bit is kept; a
    contraction of the whole block (``vals @ w``, ``einsum``) sums in
    another order and moves the last bits.
    """
    return np.matmul(vals[:, None, :], w[..., :, None]).ravel()


def _times_power(vals, base, exps):
    """``vals * base ** e`` on every row whose exponent e = exps[row] is
    not 0; ``base(rows)`` gives the base on the rows a mask selects.

    There is one power per distinct exponent, taken as a Python scalar the
    way a one-row integrand takes it, so every value keeps its bits."""
    out = vals
    for p in set(exps.tolist()) - {0.0} if exps.any() else ():
        rows = exps == p
        if rows.all():
            out = out * base(slice(None)) ** p
        else:
            out = out.copy() if out is vals else out
            out[rows] = out[rows] * base(rows) ** p
    return out


def _rung_values(core, rows):
    """``rungs(pos, ns)``: the ``ns``-node rules of the rows that ``pos`` (a
    slice or a list) selects from ``rows``, one array per rule, from one
    ``core`` call.  A row's nodes are ``a + h*(x + 1.0)`` and its value
    ``h^(1+p+q) * dot(w, vals)`` (``_row_dots``), its smooth factors applied
    in order: the bits of its rule alone.  All rows carry as many factors."""
    cols = np.array(rows)
    keys, a = cols[:, 0].astype(np.intp), cols[:, 1]
    h = 0.5 * (cols[:, 2] - a)
    c = np.array([hs ** (1.0 + r[3] + r[4]) for hs, r in zip(h.tolist(), rows)])
    factors = cols[:, 5:].reshape(len(rows), -1, 3)
    kinds: dict = {}
    kind = np.array([kinds.setdefault(r[3:5], len(kinds)) for r in rows])
    kinds = tuple(kinds)

    def rungs(pos, ns):
        x, ws = _rung_rules(kinds, ns)
        ix = kind[pos]
        u = a[pos, None] + h[pos, None] * (x[ix] + 1.0)
        vals = core(u, keys[pos])
        for f in factors[pos].transpose(1, 0, 2):
            end = f[:, :1]
            vals = _times_power(vals, lambda m: u[m] - end[m], f[:, 1])
            vals = _times_power(vals, lambda m: end[m] - u[m], f[:, 2])
        out, start = [], 0
        for n, w in zip(ns, ws):
            out.append(c[pos] * _row_dots(vals[:, start:start + n], w[ix]))
            start += n
        return out

    return rungs


def _integrate_rows(core, rows, spec: QuadratureSpec, budgets,
                    spans) -> list:
    """Every row's integral, or the error it raised.

    Row (key, a, b, p, q, x1, r1, s1, x2, ...) integrates (u-a)^p (b-u)^q
    core(u, key) over [a, b] times its smooth factors (u-x)^r (x-u)^s, the
    weights of the ends x of its integral, in their order.
    ``core(u, keys)`` gives the integrand on a block u, a row per key.

    Rows go in rounds.  A row with b <= a is 0 at no cost; every other row
    spends one unit of its budget.  The 16- and 32-node rungs of a round
    are one core call, and each of 64, 128 and 256 nodes one more on the
    rows whose last two rungs disagree (``_rungs_agree``, relative to the
    row's scale hint).  A row that still disagrees is bisected: its halves
    are rows of the next round with its budget and hint, each with the
    endpoint weight it does not own as its last factor, and its value is
    their sum (or the first error of its halves).  The hint of the rows of
    a slice in ``spans`` is the sum of the magnitudes of their 32-node
    values, in row order; it is 0 for every other row.
    """
    rows, live = list(rows), range(len(rows))
    root, hints, out = list(live), [0.0] * len(rows), [0.0] * len(rows)
    while live := [r for r in live if rows[r][1] < rows[r][2]]:
        rungs = _rung_values(core, [rows[r] for r in live])
        coarse, last = rungs(slice(None), _NODE_LADDER[:2])
        first = dict(zip(live, last.tolist()))
        for span in spans:
            scale = 0.0
            for r in range(span.start, span.stop):
                # the finest known rung anchors the relative tolerance of
                # small segments
                scale += abs(first.get(r, 0.0))
            hints[span] = [scale] * (span.stop - span.start)
        spans = ()
        hint = np.array([hints[root[r]] for r in live])
        agree = _rungs_agree(coarse, last, spec, hint).tolist()
        climb = []
        for i, r in enumerate(live):
            try:
                budgets[root[r]].spend()
            except QuadratureError as exc:
                out[r] = exc
                continue
            if agree[i]:
                out[r] = first[r]
            else:
                climb.append(i)
        for n in _NODE_LADDER[2:]:
            if climb:
                cur, = rungs(climb, (n,))
                agree = _rungs_agree(last[climb], cur, spec,
                                     hint[climb]).tolist()
                last[climb] = cur
                for i, v, ok in zip(climb, cur.tolist(), agree):
                    if ok:
                        out[live[i]] = v
                climb = [i for i, ok in zip(climb, agree) if not ok]
        # Spectral doubling stalled: bisect.
        halves = []
        for r in (live[i] for i in climb):
            key, a, b, p, q, *factors = rows[r]
            mid = 0.5 * (a + b)
            out[r] = (len(rows), len(rows) + 1)
            halves += out[r]
            rows += [(key, a, mid, p, 0.0, *factors, b, 0.0, q),
                     (key, mid, b, 0.0, q, *factors, a, p, 0.0)]
            root += [root[r]] * 2
            out += [0.0, 0.0]
        live = halves
    for r in reversed(range(len(rows))):
        if isinstance(out[r], tuple):
            left, right = (out[half] for half in out[r])
            out[r] = left if isinstance(left, Exception) else \
                right if isinstance(right, Exception) else left + right
    return out[:len(hints)]


def _integrate_splits(core, splits, spec: QuadratureSpec) -> list:
    """Integral i of (u-lo)^p_lo (hi-u)^p_hi core(u, i) over [lo, hi], split
    at the increasing breakpoints ``interior``, for every
    ``splits[i] = (lo, hi, p_lo, p_hi, interior, budget)``.

    Every (integral, segment) pair is one row of ``_integrate_rows``, and
    the rows of an integral share its scale hint: inner segments see the
    endpoint weights of [lo, hi] as smooth.  Each integral sums its
    segments in order.  The result is one value per integral, or the
    first error of its rows (an exponent no rule can carry first).
    """
    out, rows, spans = [None] * len(splits), [], []
    for i, (lo, hi, p_lo, p_hi, interior, _) in enumerate(splits):
        points = [lo] + [p for p in interior if lo < p < hi] + [hi]
        last = len(points) - 2
        segs = [(i, a, b, p_lo if j == 0 else 0.0, p_hi if j == last else 0.0,
                 lo, 0.0 if j == 0 else p_lo, 0.0,
                 hi, 0.0, 0.0 if j == last else p_hi)
                for j, (a, b) in enumerate(zip(points, points[1:]))]
        try:
            if not (p_lo > -1.0 and p_hi > -1.0):
                _rung_rules(tuple(dict.fromkeys(s[3:5] for s in segs)),
                            _NODE_LADDER[:2])
        except Exception as exc:
            out[i] = exc
            segs = []
        spans.append(slice(len(rows), len(rows) + len(segs)))
        rows += segs
    if not rows:
        return out
    parts = _integrate_rows(core, rows, spec, [splits[r[0]][5] for r in rows],
                            spans)
    for i, span in enumerate(spans):
        if out[i] is None:
            errors = [v for v in parts[span] if isinstance(v, Exception)]
            out[i] = errors[0] if errors else sum(parts[span])
    return out


def _octaves(a: float, p_lo: float, decay_exponent: float,
             first_width: float, spec: QuadratureSpec):
    """The segment loop of one integral over [a, inf).

    Yields each segment it needs as (lo, hi, Jacobi exponent at lo, smooth
    exponent of u - a), receives the segment's value and returns the
    total: a first segment that carries the weight (u-a)^p_lo, then
    doubling octaves, each checked for divergence and stopped by the tail
    tolerance once the decay exponent certifies the rest.
    """
    u1 = a + max(first_width, abs(a) * 1.0, 1e-6)
    total = yield a, u1, p_lo, 0.0
    lo = u1
    width = u1 - a
    recent: list[float] = []
    for _ in range(64):
        hi = lo + width
        seg = yield lo, hi, 0.0, p_lo
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


def _integrate_tails(core, tails, spec: QuadratureSpec) -> list:
    """Integral i of (u-a)^p_lo core(u, i) over [a, inf) for every
    ``tails[i] = (a, p_lo, decay_exponent, first_width)``.

    Each integral runs its own ``_octaves`` loop with its own budget.  The
    segments the loops ask for next are the rows of one ``_integrate_rows``
    call: all first segments, then octave m of every integral still
    running.  The result is one value per integral, or the error it
    raised.
    """
    out = [None] * len(tails)
    loops, asks = {}, {}
    for i, tail in enumerate(tails):
        try:
            _rung_rules(((tail[1], 0.0),), _NODE_LADDER[:2])
        except Exception as exc:
            out[i] = exc
            continue
        loops[i] = _octaves(*tail, spec)
        asks[i] = next(loops[i])
    budgets = {i: _Budget(spec.max_subdivisions) for i in loops}
    while asks:
        rows = [(i, lo, hi, jl, 0.0, tails[i][0], wl, 0.0)
                for i, (lo, hi, jl, wl) in asks.items()]
        segs = _integrate_rows(core, rows, spec, [budgets[i] for i in asks],
                               ())
        nxt = {}
        for i, seg in zip(asks, segs):
            if isinstance(seg, Exception):
                out[i] = seg
                continue
            try:
                nxt[i] = loops[i].send(seg)
            except StopIteration as done:
                out[i] = done.value
            except Exception as exc:
                out[i] = exc
        asks = nxt
    return out
