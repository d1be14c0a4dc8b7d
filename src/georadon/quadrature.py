"""Adaptive quadrature with algebraic endpoint weights.

The central routine integrates ``(u-a)^p (b-u)^q * core(u)`` over [a, b]
with Gauss-Jacobi rules matched to the endpoint exponents, doubling nodes
until two successive rules agree and bisecting when doubling stalls.
Infinite upper limits are handled by geometric segments with a certified
tail bound driven by the integrand's decay exponent.

Every integral is a row of one node ladder, ``_integrate_rows``; a single
integral is a batch of one.  It is the one place that refuses an integral,
and returns one error or None per integral (an end that is NaN or
infinite, an exponent no rule carries, or a spent budget), as QUADPACK's
integrators return their flag ``ier``.
A budget is the integer array of units it spends, one per integral.  The
rows of an integrand family (the segments of all target points of a
fractional integral, the halves of bisected rows) climb the ladder
together, one core call per rung, and each keeps the bits of the rule
applied to it alone.  A batch holds its rows as columns (key, ends,
exponents, a block of smooth factors), so the work of a round outside its
core calls is array operations on the live rows; only bisected rows take
a Python loop, to sum their halves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, QuadratureError
from .profiles import Exponential, integrable


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


def weighted_nodes(a: float, b: float, p_lo: float, p_hi: float, n: int):
    """Nodes u and weights W with int (u-a)^p_lo (b-u)^p_hi h(u) du = sum W h(u).

    A fixed (non-adaptive) rule; useful when integrals at many parameter
    values must share one grid so their errors vary smoothly.
    """
    x, w = _rule(n, p_lo, p_hi)
    h = 0.5 * (b - a)
    return a + h * (x + 1.0), w * h ** (1.0 + p_lo + p_hi)


def integrate_weighted(core, a: float, b: float, p_lo: float, p_hi: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integral of (u-a)^p_lo (b-u)^p_hi core(u) over [a, b], adaptive.

    ``core`` must be smooth on (a, b) and finite at the endpoints; the
    algebraic endpoint behavior lives entirely in the exponents.  One row
    of ``_integrate_rows`` with scale hint 0: 0 for b <= a, at no cost,
    and ``DomainError`` at no cost for an end that is NaN or infinite.
    """
    (value,), (error,) = _integrate_rows(
        lambda u, keys: core(u.ravel()).reshape(u.shape),
        (np.zeros(1, np.intp), *(np.array([v], dtype=float)
                                 for v in (a, b, p_lo, p_hi)),
         np.empty((1, 0, 3))), spec, np.array([spec.max_subdivisions]), False)
    if error is not None:
        raise error
    return value


def _rungs_agree(prev, cur, spec: QuadratureSpec, scale_hint):
    """The ladder's stopping rule: two successive rungs agree to within the
    tolerance, relative to the larger of ``cur`` and ``scale_hint``.

    Elementwise on arrays of rungs.  ``fmax`` passes over a NaN hint as
    ``max`` would, and a NaN rung never agrees."""
    return np.abs(cur - prev) <= np.fmax(
        spec.abs_tol, spec.rel_tol * np.fmax(np.abs(cur), scale_hint))


def integrate_to_infinity(core, a: float, p_lo: float, decay_exponent,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integral of (u-a)^p_lo core(u) over [a, inf).

    ``decay_exponent`` is the decay of (u-a)^p_lo core(u) at infinity (a
    ``profiles`` decay: an exponent d, with |..| <= C u^(-d) for large u
    and d > 1, ``math.inf``, or an ``Exponential`` rate above 0); it
    certifies the truncation tail.  Raises ``DivergenceError`` when segment
    contributions keep growing.
    """
    total, = _integrate_tails(lambda u, keys: core(u.ravel()).reshape(u.shape),
                              [(a, p_lo, decay_exponent, 1.0, 0.0)], spec)
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
    for p in set(exps.tolist()) - {0.0} if np.count_nonzero(exps) else ():
        rows = exps == p
        if rows.all():
            out = out * base(slice(None)) ** p
        else:
            out = out.copy() if out is vals else out
            out[rows] = out[rows] * base(rows) ** p
    return out


def _kinds(p, q):
    """The distinct exponent pairs (p, q) of the rows, and each row's index
    among them: ``np.unique`` of p + iq with its inverse, without the
    overhead that dominates it on a few dozen rows."""
    pq = np.empty(len(p), complex)
    pq.real, pq.imag = p, q
    order = pq.argsort()
    pq = pq[order]
    new = np.empty(len(pq), bool)
    new[0] = True
    np.not_equal(pq[1:], pq[:-1], out=new[1:])
    kind = np.empty(len(pq), np.intp)
    kind[order] = new.cumsum() - 1
    return tuple(zip(pq[new].real.tolist(), pq[new].imag.tolist())), kind


def _refused(kinds, kind, key, a, b, errors):
    """The rows of the keys that are refused, or None when no key is.  A
    key whose rows have an end a, b that is NaN or infinite gets
    ``DomainError`` in ``errors``; with none, a key whose rows hold an
    exponent pair no rule carries (every pair of ``kinds`` must have its
    16- and 32-node rules) gets the error of its first such row."""
    ends = ~(np.isfinite(a) & np.isfinite(b))
    if ends.any():
        for k, lo, hi in zip(key[ends].tolist(), a[ends].tolist(),
                             b[ends].tolist()):
            errors[k] = errors[k] or DomainError(
                f"integration ends must be finite, got [{lo}, {hi}]")
        return np.array([e is not None for e in errors])[key]
    try:
        _rung_rules(kinds, _NODE_LADDER[:2])
        return None
    except (DivergenceError, ValueError):
        pass
    refused = {}
    for i, pair in enumerate(kinds):
        try:
            _rung_rules((pair,), _NODE_LADDER[:2])
        except (DivergenceError, ValueError) as exc:
            # an exponent <= -1 (``_rule``), or one that is NaN or
            # infinite (``roots_jacobi``)
            refused[i] = exc
    for k, i in zip(key.tolist(), kind.tolist()):
        if errors[k] is None and i in refused:
            errors[k] = refused[i]
    return np.array([e is not None for e in errors])[key]


def _rung_values(core, key, a, b, p, q, factors, kinds, kind):
    """``rungs(pos, ns)``: the ``ns``-node rules of the rows that ``pos`` (a
    slice or an index array) selects, one array per rule, from one ``core``
    call.  A row's nodes are ``a + h*(x + 1.0)`` and its value
    ``h^(1+p+q) * dot(w, vals)`` (``_row_dots``), its smooth factors applied
    in order: the bits of its rule alone.  ``kinds, kind`` are
    ``_kinds(p, q)``."""
    h = 0.5 * (b - a)
    # a libm power per row: NumPy's array power differs in the last bit on
    # some elements
    c = np.array(list(map(pow, h.tolist(), (1.0 + p + q).tolist())))

    def rungs(pos, ns):
        x, ws = _rung_rules(kinds, ns)
        ix = kind[pos]
        u = a[pos, None] + h[pos, None] * (x[ix] + 1.0)
        vals = core(u, key[pos])
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


def _integrate_rows(core, rows, spec: QuadratureSpec, left, hinted: bool):
    """Every row's integral, and per key its error or None.

    ``rows`` are the columns (key, a, b, p, q, factors), sorted by key: row
    i integrates (u-a)^p (b-u)^q core(u, key) over [a, b] times its smooth
    factors (u-x)^r (x-u)^s, one per triple (x, r, s) of ``factors[i]``
    (an (R, F, 3) block): the weights of the ends x of its integral, in
    their order.  ``core(u, keys)`` gives the integrand on a block u, a row
    per key.

    A row with b <= a is 0 at no cost.  Before any other row spends, a key
    whose rows have a NaN or infinite end, or hold an exponent pair that
    no rule carries, gets its error (``_refused``), and none of its rows
    is integrated.  The rest go in rounds.  Each row spends one unit of its
    key's budget ``left[key]`` (an integer array, updated in place), in row
    order, and a row that finds it spent goes no further: its key's error
    is ``QuadratureError``.  The 16- and 32-node rungs of a round are one
    core call, and each of 64, 128 and 256 nodes one more on the rows whose
    last two rungs disagree (``_rungs_agree``, relative to the row's scale
    hint).  A row that still disagrees is bisected: its halves are rows of
    the next round with its key, each with the endpoint weight it does not
    own as its last factor, and its value is their sum.  With ``hinted``
    the hint of a key's rows is the sum of the magnitudes of their 32-node
    values, added in row order; it is 0 otherwise.
    """
    key, a, b, p, q, factors = rows
    n_rows, errors = len(key), [None] * len(left)
    val, at, hint, kids = np.zeros(n_rows), np.arange(n_rows), None, []
    live = ~(b <= a)
    while True:
        if np.count_nonzero(live) < len(live):
            key, a, b, p, q, factors, at = (
                col[live] for col in (key, a, b, p, q, factors, at))
        if not len(key):
            break
        kinds, kind = _kinds(p, q)
        if hint is None:
            # the first round: refuse before any row spends
            refused = _refused(kinds, kind, key, a, b, errors)
            if refused is not None:
                live = ~refused
                continue
        rungs = _rung_values(core, key, a, b, p, q, factors, kinds, kind)
        coarse, last = rungs(slice(None), _NODE_LADDER[:2])
        if hint is None:
            hint = np.zeros(len(left))
            if hinted:
                # the finest known rung anchors the relative tolerance of
                # small segments; ``add.at`` adds in row order
                np.add.at(hint, key, np.abs(last))
        row_hint = hint[key]
        agree = _rungs_agree(coarse, last, spec, row_hint)
        # a row's place among the rows of its key
        spent = np.arange(len(key)) - np.searchsorted(key, key) >= left[key]
        if spent.any():
            for k in np.unique(key[spent]).tolist():
                errors[k] = errors[k] or QuadratureError(
                    "quadrature subdivision budget exhausted")
        left -= np.bincount(key, minlength=len(left))
        done = agree & ~spent
        val[at[done]] = last[done]
        climb = (~(agree | spent)).nonzero()[0]
        for n in _NODE_LADDER[2:]:
            if len(climb):
                cur, = rungs(climb, (n,))
                ok = _rungs_agree(last[climb], cur, spec, row_hint[climb])
                last[climb] = cur
                val[at[climb[ok]]] = cur[ok]
                climb = climb[~ok]
        if not len(climb):
            break
        # Spectral doubling stalled: bisect.  Even rows are the left halves
        # [a, mid], odd rows the right halves [mid, b].
        key, a, b, p, q, factors, at = (col[climb].repeat(2, axis=0) for col
                                        in (key, a, b, p, q, factors, at))
        mid = 0.5 * (a + b)
        # the endpoint weight a half does not own: (b-u)^q, (u-a)^p
        weight = np.zeros((len(key), 1, 3))
        weight[0::2, 0, 0], weight[0::2, 0, 2] = b[0::2], q[0::2]
        weight[1::2, 0, 0], weight[1::2, 0, 1] = a[1::2], p[1::2]
        factors = np.concatenate([factors, weight], axis=1)
        b[0::2], a[1::2], q[0::2], p[1::2] = mid[0::2], mid[1::2], 0.0, 0.0
        kids += zip(at[0::2].tolist(), range(len(val), len(val) + len(key), 2))
        at = np.arange(len(val), len(val) + len(key))
        val = np.concatenate([val, np.zeros(len(key))])
        live = a < b
    val = val.tolist()
    for parent, half in reversed(kids):
        val[parent] = val[half] + val[half + 1]
    return val[:n_rows], errors


def _integrate_splits(core, splits, spec: QuadratureSpec, left) -> list:
    """Integral i of (u-lo)^p_lo (hi-u)^p_hi core(u, i) over [lo, hi], split
    at the increasing breakpoints ``interior``, for every
    ``splits[i] = (lo, hi, p_lo, p_hi, interior)``, spending the budget
    ``left[i]`` (an integer array, updated in place).

    Every (integral, segment) pair is one row of ``_integrate_rows``, and
    the rows of an integral share its scale hint: inner segments see the
    endpoint weights of [lo, hi] as smooth.  Each integral sums its
    segments in order.  The result is one value per integral, or its error.
    """
    a, b, n_seg = [], [], []
    for lo, hi, _, _, interior in splits:
        cuts = [x for x in interior if lo < x < hi]
        a += [lo, *cuts]
        b += [*cuts, hi]
        n_seg.append(len(cuts) + 1)
    # the segments of integral i are the rows first[i] .. last[i]
    last = np.cumsum(n_seg) - 1
    first = last + 1 - n_seg
    key = np.arange(len(splits)).repeat(n_seg)
    # lo, hi, p_lo, p_hi of each row's integral
    lo, hi, p_lo, p_hi = np.array(list(zip(*splits))[:4], dtype=float)[:, key]
    p, q = np.zeros((2, len(key)))
    p[first], q[last] = p_lo[first], p_hi[last]
    # the weights of [lo, hi] on the segments that do not end there
    p_lo[first] = p_hi[last] = 0.0
    factors = np.zeros((len(key), 2, 3))
    factors[:, 0, 0], factors[:, 0, 1] = lo, p_lo
    factors[:, 1, 0], factors[:, 1, 2] = hi, p_hi
    parts, errors = _integrate_rows(
        core, (key, *np.array([a, b], dtype=float), p, q, factors), spec,
        left, True)
    return [sum(parts[s:e + 1]) if error is None else error
            for s, e, error in zip(first.tolist(), last.tolist(), errors)]


def _octaves(a: float, p_lo: float, decay, first_width: float, flat: float,
             spec: QuadratureSpec):
    """The segment loop of one integral over [a, inf).

    Yields each segment it needs as (lo, hi, Jacobi exponent at lo, smooth
    exponent of u - a), receives the segment's value and returns the
    total: a first segment that carries the weight (u-a)^p_lo, then
    doubling octaves, each checked for divergence once it starts past
    ``flat`` (below it the integrand has not reached its decay), and
    stopped by the tail tolerance once the decay (``profiles.tail``)
    certifies the rest: at once for ``math.inf``, by a bound for an
    exponent d > 1 or a rate above 0.  Any other decay raises
    ``DivergenceError``.
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
        if lo >= flat:
            recent.append(abs(seg))
        if len(recent) >= 8 and all(s > spec.abs_tol for s in recent[-8:]) \
                and all(recent[i] <= recent[i + 1] * (1 + 1e-9)
                        for i in range(len(recent) - 8, len(recent) - 1)):
            raise DivergenceError(
                "integral over [a, inf): octave contributions are not decreasing")

        stop = max(spec.abs_tol, spec.truncation_tail_tol * abs(total))
        if abs(seg) <= stop:
            # Certify the remaining tail from the decay.
            if decay == math.inf:
                return total
            if not integrable(decay):
                raise DivergenceError(
                    f"tail decay exponent {decay} cannot certify convergence")
            if isinstance(decay, Exponential):
                # |g| <= C e^(-rate u), C read off this segment
                rate = decay.rate * width
                tail = abs(seg) * math.exp(-rate) / rate
            else:
                tail = abs(seg) / max(width * lo ** (-decay), 1e-300) \
                    * hi ** (1.0 - decay) / (decay - 1.0)
            if tail <= stop:
                return total
        lo = hi
        width *= 2.0
    raise QuadratureError("tail truncation did not converge within 64 octaves")


def _integrate_tails(core, tails, spec: QuadratureSpec) -> list:
    """Integral i of (u-a)^p_lo core(u, i) over [a, inf) for every
    ``tails[i] = (a, p_lo, decay, first_width, flat)`` (``_octaves``).

    Each integral runs its own ``_octaves`` loop with its own budget.  The
    segments the loops ask for next are the rows of one ``_integrate_rows``
    call: all first segments, then octave m of every integral still
    running.  The result is one value per integral, or its error: the
    ladder's, or the one its loop raised.
    """
    out = [None] * len(tails)
    loops = {i: _octaves(*tail, spec) for i, tail in enumerate(tails)}
    asks = {i: next(loop) for i, loop in loops.items()}
    start = np.array([tail[0] for tail in tails], dtype=float)
    left = np.full(len(tails), spec.max_subdivisions)
    while asks:
        key = np.fromiter(asks, np.intp, len(asks))
        lo, hi, jl, wl = (np.array(col, dtype=float)
                          for col in zip(*asks.values()))
        factors = np.zeros((len(key), 1, 3))
        factors[:, 0, 0], factors[:, 0, 1] = start[key], wl
        segs, errors = _integrate_rows(
            core, (key, lo, hi, jl, np.zeros(len(key)), factors), spec, left,
            False)
        nxt = {}
        for i, seg in zip(asks, segs):
            if errors[i] is not None:
                out[i] = errors[i]
                continue
            try:
                nxt[i] = loops[i].send(seg)
            except StopIteration as done:
                out[i] = done.value
            except (DivergenceError, QuadratureError) as exc:
                out[i] = exc
        asks = nxt
    return out
