"""Abel-type fractional integrals with squared-variable kernels and their
left-inverse derivatives.

The integral pair is

    left(alpha, f)(t)  = (2/Gamma(a)) * int_0^t (t^2-r^2)^(a-1) f(r) r dr,
    right(alpha, f)(t) = (2/Gamma(a)) * int_t^inf (r^2-t^2)^(a-1) f(r) r dr,

computed after substitutions that turn the moving-endpoint singularity into
a fixed Gauss-Jacobi weight.  A vector of target points is one batch: each
point makes its own setup (domain checks, exponents, split points,
prefactor, budget), and the segments of all points are the rows of one node
block of ``quadrature._integrate_splits`` and ``_integrate_tails``, so the
profile is called once per block and ladder rung, and each value keeps the
bits of a loop over the points.  The derivatives invert them:

    deriv_left  = D^(m+1) I^(1-a0)_left,            D = (1/2t) d/dt,
    deriv_right = (-D)^m                            for integer a,
                = t^(2(1-a0)) (-D)^(m+1) t^(2a) I^(1-a0)_right t^(-2m-2)
                                                    for a = m + a0, 0 < a0 < 1,

where the half-odd-integer case is the a0 = 1/2 specialization of the
latter.  All t-differentiation happens spectrally in the variable y = t^2,
in which D is exactly d/dy; that realizes the t -> 0 limit without any
one-sided stencil.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (DifferentiationInstabilityError, DivergenceError,
                     DomainError)
from .profiles import Profile1D, integrable, tail
from .quadrature import (DEFAULT_QUADRATURE, QuadratureSpec,
                         _integrate_splits, _integrate_tails, _row_dots,
                         _times_power, weighted_nodes)
from .spectral import ChebInterpolant, cheb_nodes

__all__ = ["QuadratureSpec", "check_decay", "ek_left", "ek_right",
           "ek_deriv_left", "ek_deriv_right", "radial_derivative"]

#: Relative spectral-differentiation noise beyond which results are rejected.
DERIV_NOISE_REL = 1e-6


def check_decay(f: Profile1D, alpha: float) -> bool:
    """True iff int^inf |f(r)| r^(2*alpha-1) dr is finite by the decay
    ``f`` declares: a finite support or domain end leaves no tail, and
    otherwise ek_right's must certify (``DomainError`` when f declares no
    decay).
    """
    if f.support is not None and math.isfinite(f.support):
        return True
    return math.isfinite(f.hi) or integrable(tail(f, 2.0, 1.0 - alpha))


# -- integrals ---------------------------------------------------------------

#: rows per block of target points: a split segment or an infinite tail is
#: a row of 48 nodes in each array of the block (up to 256 for the rows
#: still climbing the ladder), and a profile chain holds a dozen such arrays
#: at once.  A 32-point projective grid (51 segments a point) in one block
#: peaks at 8.7 MB of arrays, in blocks of 128 rows at 0.8 MB
_BLOCK_ROWS = 128


def _batch(name: str, point, rows_core, alpha: float, f: Profile1D, t,
           spec: QuadratureSpec):
    """The integral at every t_i (scalar or array t), in blocks of points.

    ``point(alpha, f, fac, t_i)`` makes a point's own setup (domain
    checks, exponents, pieces, prefactor) and returns its value, or
    ``(pre, split, tail)``: the value is pre * total / Gamma(alpha), total
    the split integral (lo, hi, p_lo, p_hi, interior, param) plus the tail
    integral (a, p_lo, decay, first_width, flat, param) where they are not
    None.
    ``rows_core(fac, params)`` is their integrand on rows of nodes,
    one ``param`` per row.  Consecutive points form a block of about
    ``_BLOCK_ROWS`` rows, evaluated by ``_evaluate``.  A
    point's error is raised once the points before it are done, so a
    vector raises what a loop over its points would.
    """
    if alpha <= 0:
        raise DomainError(f"{name}: alpha must be positive, got {alpha}")
    fac = f.factored()
    out, block, size = [], [], 0
    for ti in np.atleast_1d(np.asarray(t, dtype=float)).tolist():
        try:
            pt = point(alpha, f, fac, ti)
        except Exception:
            _evaluate(block, rows_core, alpha, fac, spec)
            raise
        block.append(pt)
        if not isinstance(pt, float):
            _, split, tail = pt
            size += (len(split[4]) + 1 if split else 0) + (tail is not None)
        if size >= _BLOCK_ROWS:
            out += _evaluate(block, rows_core, alpha, fac, spec)
            block, size = [], 0
    out += _evaluate(block, rows_core, alpha, fac, spec)
    vals = np.array(out)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def _evaluate(points, rows_core, alpha: float, fac, spec: QuadratureSpec):
    """The values of a block of ``_batch`` points.

    The splits of all points are one ``_integrate_splits`` batch with a
    budget per point, then the tails of the points whose split succeeded
    one ``_integrate_tails`` batch.  The first point's error is raised.
    """
    live = [i for i, pt in enumerate(points) if not isinstance(pt, float)]
    totals: dict = {}
    splits = [i for i in live if points[i][1] is not None]
    if splits:
        totals.update(zip(splits, _integrate_splits(
            rows_core(fac, [points[i][1][5] for i in splits]),
            [points[i][1][:5] for i in splits], spec,
            np.full(len(splits), spec.max_subdivisions))))
    tails = [i for i in live if points[i][2] is not None
             and not isinstance(totals.get(i), Exception)]
    if tails:
        for i, v in zip(tails, _integrate_tails(
                rows_core(fac, [points[i][2][5] for i in tails]),
                [points[i][2][:5] for i in tails], spec)):
            totals[i] = v if i not in totals or isinstance(v, Exception) \
                else totals[i] + v
    gamma = math.gamma(alpha)
    out = []
    for i, pt in enumerate(points):
        if isinstance(pt, float):
            out.append(pt)
        elif isinstance(totals[i], Exception):
            raise totals[i]
        else:
            out.append(pt[0] * totals[i] / gamma)
    return out


def ek_left(alpha: float, f: Profile1D, t, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Left-sided fractional integral of order alpha at t (scalar or array),
    evaluated in blocks of points (``_batch``)."""
    return _batch("ek_left", _left_point, _left_rows, alpha, f, t, spec)


def _left_point(alpha: float, f: Profile1D, fac, t: float):
    if t < f.lo - 1e-12 or (math.isfinite(f.hi) and t > f.hi * (1 + 1e-9)):
        raise DomainError(f"ek_left: t={t} outside profile domain [{f.lo}, {f.hi})")
    if t <= 0.0:
        return 0.0
    o, e, s, _ = fac
    if o <= -2.0:
        raise DivergenceError(
            f"ek_left: origin exponent {o} is not locally integrable")

    # substitution r^2 = t^2 u:
    #   value = t^(2a+o)/Gamma(a) * int_0^U (1-u)^(a-1) u^(o/2)
    #           * (s^2 - t^2 u)^e core(t sqrt(u)) du
    # the factor (1-u)^(a-1) or (s^2 - t^2 u)^e that the Jacobi weight does
    # not carry is the row integrand's ``kernel`` or ``edge`` exponent
    ts = t * t
    scale_pow = t ** (2.0 * alpha + o)
    if scale_pow == 0.0:
        return 0.0      # the value underflows (the core f(r) / r^o may be 0/0)
    has_edge = s is not None and math.isfinite(s) and e != 0.0
    supported = s is not None and math.isfinite(s)
    kernel = edge = 0.0

    if supported and s <= t * (1.0 + 1e-12):
        upper = min((s / t) ** 2, 1.0)
        edge_scale = ts ** e
        if abs(upper - 1.0) < 1e-14:
            # support edge merges with the kernel endpoint
            p_hi = alpha - 1.0 + e
        else:
            p_hi = e
            kernel = alpha - 1.0
    else:
        upper = 1.0
        edge_scale = 1.0
        p_hi = alpha - 1.0
        if has_edge:
            edge = e

    r_top = t * math.sqrt(upper)
    pieces = {(rb / t) ** 2 for rb in f.breakpoints if 0.0 < rb < r_top}
    # geometric splits keep integrands concentrated near r = 0 resolved when
    # t is much larger than the profile's scale
    q = 0.25
    while q < 0.9 * r_top:
        pieces.add((q / t) ** 2)
        q *= 2.0
    return (scale_pow * edge_scale,
            (0.0, upper, o / 2.0, p_hi, sorted(pieces), (t, kernel, edge)),
            None)


def _left_rows(fac, params):
    """ek_left's integrand on rows u of the substituted variable:
    core(t sqrt(u)) times (1-u)^kernel and (s^2 - t^2 u)^edge, with
    (t, kernel, edge) the row's ``param``."""
    s, core = fac[2], fac[3]
    t, kernel, edge = (np.array(col) for col in zip(*params))
    t = t[:, None]

    def rows(u, keys):
        tk = t[keys]
        vals = core((tk * np.sqrt(u)).ravel()).reshape(u.shape)
        vals = _times_power(vals, lambda m: 1.0 - u[m], kernel[keys])
        return _times_power(vals, lambda m: s * s - (tk * tk)[m] * u[m],
                            edge[keys])

    return rows


def ek_right(alpha: float, f: Profile1D, t, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Right-sided fractional integral of order alpha at t (scalar or array),
    evaluated in blocks of points (``_batch``)."""
    return _batch("ek_right", _right_point, _right_rows, alpha, f, t, spec)


def _right_point(alpha: float, f: Profile1D, fac, t: float):
    if t < f.lo - 1e-12:
        raise DomainError(f"ek_right: t={t} below profile domain start {f.lo}")
    o, e, s, _ = fac
    top = min(s if s is not None else math.inf, f.hi)
    finite_top = math.isfinite(top)
    if finite_top and t >= top * (1.0 - 1e-15):
        return 0.0
    # the integrand u^(alpha-1) f(sqrt(t^2 + u)) in u = r^2 - t^2 ~ r^2
    decay = None if finite_top else tail(f, 2.0, 1.0 - alpha)
    if not finite_top and not integrable(decay):
        raise DivergenceError(
            f"ek_right: decay hint {f.decay_hint} gives the integrand the "
            f"decay {decay} in u = r^2 - t^2, which certifies no tail")

    # substitution u = r^2 - t^2:
    #   value = (1/Gamma(a)) int_0^(top^2 - t^2) u^(a-1) f(sqrt(t^2+u)) du
    # with the row integrand core(r) r^origin, r = sqrt(t^2 + u)
    ts = t * t
    p_lo = alpha - 1.0
    origin = o
    if t == 0.0 and o != 0.0:
        p_lo += o / 2.0       # r^o = u^(o/2) joins the lower Jacobi weight
        origin = 0.0
    param = (ts, origin, 0.0)

    pieces = {rb * rb - ts for rb in f.breakpoints if rb > t}
    if finite_top:
        upper = top * top - ts
        # geometric splits resolve integrands concentrated near u = 0 when
        # the domain is much wider than the local scale
        q = max(1.0, 2.0 * t)
        while q < 0.45 * upper:
            pieces.add(q)
            q *= 2.0
        return 1.0, (0.0, upper, p_lo, e, sorted(pieces), param), None

    # the integrand is flat in u up to about t^2, where r leaves t behind:
    # the octaves below it are not checked for divergence
    pieces = sorted(pieces)
    if not pieces:
        return 1.0, None, (0.0, p_lo, decay, max(1.0, 2.0 * t), ts, param)
    # every finite segment carries the weight u^(a-1) of [0, last piece];
    # past it the weight is the smooth factor u^p_lo of the tail's rows
    lo_u = pieces[-1]
    return (1.0, (0.0, lo_u, p_lo, 0.0, pieces[:-1], param),
            (lo_u, 0.0, decay, max(1.0, lo_u), ts, (ts, origin, p_lo)))


def _right_rows(fac, params):
    """ek_right's integrand on rows u of the substituted variable:
    core(r) r^origin u^weight with r = sqrt(t^2 + u), with
    (t^2, origin, weight) the row's ``param``."""
    core = fac[3]
    ts, origin, weight = (np.array(col) for col in zip(*params))
    ts = ts[:, None]

    def rows(u, keys):
        r = np.sqrt(ts[keys] + u)
        vals = core(r.ravel()).reshape(u.shape)
        vals = _times_power(vals, lambda m: r[m], origin[keys])
        return _times_power(vals, lambda m: u[m], weight[keys])

    return rows


# -- derivatives -------------------------------------------------------------

def _alpha_split(alpha: float):
    m = int(math.floor(alpha + 1e-12))
    a0 = alpha - m
    return (m, 0.0) if a0 < 1e-12 else (m, a0)


def _tighten(spec: QuadratureSpec) -> QuadratureSpec:
    """Quadrature tolerances for values that will be differentiated.

    Spectral differentiation amplifies sample noise, so the auxiliary
    integral is computed well below the target derivative accuracy.
    """
    return QuadratureSpec(rel_tol=min(spec.rel_tol, 1e-13),
                          abs_tol=min(spec.abs_tol, 1e-16),
                          max_subdivisions=max(spec.max_subdivisions, 400),
                          truncation_tail_tol=min(spec.truncation_tail_tol, 1e-15))


_RADIAL_D_COEFFS: dict = {}


def _radial_d_table(order: int) -> dict:
    """Coefficients a[i] with D^q f = sum_i a[i] f^(i)(t) t^(i-2q)."""
    if order in _RADIAL_D_COEFFS:
        return _RADIAL_D_COEFFS[order]
    table = {1: 0.5}
    for q in range(1, order):
        nxt: dict = {}
        for i, c in table.items():
            nxt[i + 1] = nxt.get(i + 1, 0.0) + 0.5 * c
            nxt[i] = nxt.get(i, 0.0) + 0.5 * c * (i - 2 * q)
        table = {i: c for i, c in nxt.items() if c != 0.0}
    _RADIAL_D_COEFFS[order] = table
    return table


def radial_derivative(f: Profile1D, t, order: int, sign: float = 1.0):
    """(sign*D)^order f with D = (1/2t) d/dt, via the analytic chain."""
    if order == 0:
        return f(t)
    coeffs = _radial_d_table(order)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for i, c in coeffs.items():
        out += c * f.derivative(i, t) * t ** (i - 2 * order)
    return sign ** order * out


def _window_in_y(f: Profile1D, t: np.ndarray):
    """A y = t^2 window containing all targets, clipped to the domain."""
    y = t * t
    y_min, y_max = float(np.min(y)), float(np.max(y))
    dom_lo = f.lo * f.lo
    top = f.upper_limit
    dom_hi = top * top if math.isfinite(top) else math.inf
    span = max(y_max - y_min, 0.3 * max(y_max, 1.0))
    a = max(dom_lo, y_min - 0.35 * span)
    b = y_max + 0.35 * span
    if math.isfinite(dom_hi):
        b = min(b, dom_hi)
        a = min(a, b - 1e-9 * max(1.0, b))
    if not b > a:
        raise DomainError("spectral window is empty; check the profile domain")
    return a, b


def _ladder(sample_y, a: float, b: float, y: np.ndarray, order: int,
            n_nodes: int, noise_rel: float) -> np.ndarray:
    """d^order/dy^order of ``sample_y`` at y, spectrally on [a, b].

    The noise estimate compares the full-resolution derivative with the one
    through every other node, relative to the derivative scale on the
    window (at y and at 9 points across it).  It can be limited by
    interpolant truncation (more nodes help) or by amplified sample noise
    (fewer nodes help), so node counts n, 3n/2, 3n/4 and 2n are tried in
    turn; past ``noise_rel`` at all of them the result is rejected.
    """
    noise = math.inf
    for n in (n_nodes, (3 * n_nodes) // 2, (3 * n_nodes) // 4, 2 * n_nodes):
        n += n % 2
        interp = ChebInterpolant(a, b, sample_y(cheb_nodes(n, a, b)))
        deriv = interp.derivative(order)
        d_full = np.atleast_1d(deriv(y))
        d_half = np.atleast_1d(interp.decimated().derivative(order)(y))
        probe = deriv(np.linspace(a, b, 9))
        scale = max(float(np.max(np.abs(d_full))), float(np.max(np.abs(probe))),
                    1e-300)
        noise = float(np.max(np.abs(d_full - d_half))) / scale
        if noise <= noise_rel:
            return d_full
    raise DifferentiationInstabilityError(
        f"spectral differentiation noise {noise:.2e} exceeds "
        f"{noise_rel:.0e} (order {order}, window [{a:.3g}, {b:.3g}])")


def _spectral_D_pow(sample_fn, domain_of: Profile1D, t: np.ndarray, order: int,
                    sign: float, n_nodes: int, noise_rel: float):
    """(sign*D)^order of sample_fn at t, spectrally in y = t^2 on the window
    of t in the domain of ``domain_of``."""
    a, b = _window_in_y(domain_of, t)
    d = _ladder(lambda y: sample_fn(np.sqrt(np.maximum(y, 0.0))), a, b, t * t,
                order, n_nodes, noise_rel)
    return sign ** order * d


def _integer_order(phi: Profile1D, t: np.ndarray, m: int, sign: float,
                   n_nodes: int, noise_rel: float):
    """(sign*D)^m phi at t: the analytic chain when phi has m derivatives,
    else spectral."""
    if phi.derivatives and len(phi.derivatives) >= m:
        return radial_derivative(phi, t, m, sign=sign)
    return _spectral_D_pow(phi, phi, t, m, sign, n_nodes, noise_rel)


def _psi_sampler(integral, beta: float, g: Profile1D, fixed,
                 spec: QuadratureSpec):
    """Sampler t -> integral(beta, g, t) for the fractional derivatives.

    ``fixed`` is a fixed-grid sampler of the same integral (None when the
    profile rules one out).  It takes the whole vector of sample points and
    makes one ``core`` call on the (points x nodes) block, then contracts
    each point's row with ``_row_dots``, so each value is the one a grid at
    that point alone would give.  It returns None at single points (a
    support cut); those values, and all of them when there is no fixed grid
    at all, come from one vector call of the adaptive ``integral`` at
    tightened tolerances.
    """
    tight = _tighten(spec)

    def psi(ts):
        if fixed is None:
            return np.asarray(integral(beta, g, ts, tight))
        vals = fixed(ts)
        cut = [i for i, v in enumerate(vals) if v is None]
        if cut:
            adaptive = np.atleast_1d(integral(beta, g, ts[cut], tight))
            for i, v in zip(cut, adaptive.tolist()):
                vals[i] = v
        return np.array(vals)

    return psi


def _psi_left_fixed_sampler(beta: float, g: Profile1D):
    """Sampler t -> I^beta_left g (t) on one fixed Beta-substitution grid.

    The nodes r = t sqrt(u) scale smoothly with t, so the quadrature error
    is a smooth function of t (same rationale as the right-sided sampler).
    """
    if g.breakpoints:
        return None
    o, e, s, core = g.factored()
    if o <= -2.0:
        return None
    top = min(s if s is not None else math.inf, g.hi)
    # substitute u = v^2 so nodes are linear in r: the integrand stays
    # smooth even when the profile is not exactly even in r
    vn, vw = weighted_nodes(0.0, 1.0, o + 1.0, beta - 1.0, 192)
    vw = vw * 2.0 * (1.0 + vn) ** (beta - 1.0)
    inv_gamma = 1.0 / math.gamma(beta)

    def psi(ts: np.ndarray) -> list:
        tl = ts.tolist()
        # None marks a support cut inside the range: the caller falls back
        out = [0.0 if t <= 0.0 else None for t in tl]
        on_grid = [i for i, t in enumerate(tl) if t > 0.0 and not (
            math.isfinite(top) and t >= top * (1.0 - 1e-12))]
        if on_grid:
            r = ts[on_grid, None] * vn
            vals = core(r.ravel()).reshape(r.shape)
            if e != 0.0:
                vals = vals * (top * top - r * r) ** e
            for i, d in zip(on_grid, _row_dots(vals, vw)):
                out[i] = inv_gamma * tl[i] ** (2.0 * beta + o) * d
        return out

    return psi


def ek_deriv_left(alpha: float, phi: Profile1D, t,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE,
                  noise_rel: float = DERIV_NOISE_REL):
    """Left EK derivative; inverts ``ek_left`` on its range."""
    if alpha <= 0:
        raise DomainError("ek_deriv_left: alpha must be positive")
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    m, a0 = _alpha_split(alpha)
    n_nodes = 96 if m < 2 else 128
    if a0 == 0.0:
        out = _integer_order(phi, tv, m, 1.0, n_nodes, noise_rel)
    else:
        psi = _psi_sampler(ek_left, 1.0 - a0, phi,
                           _psi_left_fixed_sampler(1.0 - a0, phi), spec)
        out = _spectral_D_pow(psi, phi, tv, m + 1, 1.0, n_nodes, noise_rel)
    return float(out[0]) if np.ndim(t) == 0 else out


def ek_deriv_right(alpha: float, phi: Profile1D, t,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE,
                   noise_rel: float = DERIV_NOISE_REL):
    """Right EK derivative; inverts ``ek_right`` on its range.

    Integer orders reduce to pure radial differentiation; fractional orders
    use the weighted form, the half-odd-integer case being its a0 = 1/2
    specialization.  Beyond the profile's support the result is exactly 0.
    """
    if alpha <= 0:
        raise DomainError("ek_deriv_right: alpha must be positive")
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    m, a0 = _alpha_split(alpha)
    n_nodes = 96 if (a0 > 0.0 or m < 1) else 128

    top = phi.upper_limit
    inside = tv < top * (1 - 1e-12) if math.isfinite(top) \
        else np.ones_like(tv, dtype=bool)
    out = np.zeros_like(tv)
    if np.any(inside):
        ti = tv[inside]
        if a0 == 0.0:
            vals = _integer_order(phi, ti, m, -1.0, n_nodes, noise_rel)
        else:
            vals = _deriv_right_fractional(alpha, m, a0, phi, ti, spec,
                                           n_nodes, noise_rel)
        out[inside] = vals
    return float(out[0]) if np.ndim(t) == 0 else out


def _psi_fixed_sampler(beta: float, g: Profile1D, y_probe: float):
    """Sampler t -> I^beta_right g (t) on one shared quadrature grid.

    The grid is built once and scales smoothly with t (u = t^2 v on infinite
    domains, u = (top^2 - t^2) w on finite ones), so the quadrature error is
    a smooth function of t and spectral differentiation does not amplify it.
    Returns None when the profile's structure rules a fixed grid out.
    """
    if g.breakpoints:
        return None
    o, e, s, core = g.factored()
    top = min(s if s is not None else math.inf, g.hi)
    inv_gamma = 1.0 / math.gamma(beta)

    if math.isfinite(top):
        probe_r = np.array([min(0.995 * top, top - 1e-12)])
        edge_val = abs(float(core(probe_r)[0])) * probe_r[0] ** o
        ref_r = np.sqrt(max(y_probe, 1e-12))
        ref_val = abs(float(core(np.array([ref_r]))[0])) * ref_r ** o
        hard_edge = edge_val > 1e-10 * max(ref_val, 1e-300)
    else:
        hard_edge = False

    if math.isfinite(top) and (e != 0.0 or hard_edge):
        # fractional or hard truncation edge: a cap-scaled grid keeps the
        # endpoint fixed in grid coordinates, so nothing crosses nodes as t
        # moves; an algebraic edge folds into the Jacobi weight
        wn, ww = weighted_nodes(0.0, 1.0, beta - 1.0, e, 160)

        def psi(ts: np.ndarray) -> list:
            tt = ts * ts
            cap = top * top - tt
            caps = cap.tolist()
            out = [0.0] * len(caps)
            on_grid = [i for i, c in enumerate(caps) if c > 0.0]
            if on_grid:
                r = np.sqrt(tt[on_grid, None] + cap[on_grid, None] * wn)
                vals = core(r.ravel()).reshape(r.shape)
                if o != 0.0:
                    vals = vals * r ** o
                for i, d in zip(on_grid, _row_dots(vals, ww)):
                    out[i] = inv_gamma * caps[i] ** (beta + e) * d
            return out

        return psi

    if math.isfinite(top):
        # soft support cap: the t-scaled grid below resolves profiles
        # concentrated near the evaluation scale; values vanish past the cap
        r_cut = top
    else:
        if g.decay_hint != math.inf:
            return None
        # probe for the radius beyond which the integrand is negligible; the
        # octave count must cover the tail for the SMALLEST evaluation point
        r_cut = max(2.0 * math.sqrt(y_probe), 2.0)
        ref = abs(float(np.max(np.abs(core(np.sqrt(y_probe) * np.ones(1))))))
        for _ in range(40):
            val = abs(float(core(np.array([r_cut]))[0])) * r_cut ** o
            if val <= 1e-18 * max(ref, 1e-300):
                break
            r_cut *= 1.4
    v_max = max(8.0, r_cut * r_cut / y_probe)
    n_oct = max(4, int(math.ceil(math.log2(v_max))))
    grids = [weighted_nodes(0.0, 1.0, beta - 1.0, 0.0, 96)]
    lo = 1.0
    for _ in range(n_oct):
        vn, vw = weighted_nodes(lo, 2.0 * lo, 0.0, 0.0, 32)
        grids.append((vn, vw * vn ** (beta - 1.0)))
        lo *= 2.0
    r_all = np.sqrt(1.0 + np.concatenate([gk[0] for gk in grids]))
    w_all = np.concatenate([gk[1] for gk in grids])

    def psi(ts: np.ndarray) -> list:
        r = ts[:, None] * r_all
        vals = core(r.ravel()).reshape(r.shape)
        if o != 0.0:
            vals = vals * r ** o
        if math.isfinite(top):
            vals = np.where(r < top, vals, 0.0)
        return [inv_gamma * t ** (2.0 * beta) * d
                for t, d in zip(ts.tolist(), _row_dots(vals, w_all))]

    return psi


def _deriv_right_fractional(alpha: float, m: int, a0: float, phi: Profile1D,
                            ti: np.ndarray, spec: QuadratureSpec,
                            n_nodes: int, noise_rel: float) -> np.ndarray:
    """t^(2(1-a0)) (-d/dy)^(m+1) [y^alpha psi(y)] with psi smooth in y.

    psi = I^(1-a0)_right [r^(-2m-2) phi] carries no singularity on y > 0, so
    only psi is differentiated spectrally; the y^alpha factor is expanded by
    the product rule to keep its fractional power out of the interpolant.
    """
    shifted = phi.with_power(-2.0 * m - 2.0)
    y_all = ti * ti
    if np.min(y_all) <= 0.0:
        raise DomainError("fractional right derivative needs t > 0")
    dom_lo = phi.lo * phi.lo
    top = phi.upper_limit
    dom_hi = top * top if math.isfinite(top) else math.inf
    psi = _psi_sampler(ek_right, 1.0 - a0, shifted,
                       _psi_fixed_sampler(1.0 - a0, shifted, float(np.min(y_all))),
                       spec)

    def chi(y):
        return y ** alpha * psi(np.sqrt(y))

    # chi = y^alpha psi is O(1)-varying but has a fractional power at y = 0;
    # geometric blocks keep each Chebyshev window away from that point.
    blocks: list[list[int]] = []
    for idx in np.argsort(y_all):
        if blocks and y_all[idx] <= 4.0 * y_all[blocks[-1][0]]:
            blocks[-1].append(idx)
        else:
            blocks.append([idx])

    out = np.empty_like(y_all)
    for block in blocks:
        yb = y_all[block]
        a = max(dom_lo, 0.65 * float(np.min(yb)))
        b = 1.4 * float(np.max(yb))
        if math.isfinite(dom_hi):
            b = min(b, dom_hi)
            a = min(a, 0.98 * b)
        out[block] = _ladder(chi, a, b, yb, m + 1, n_nodes, noise_rel)
    return (-1.0) ** (m + 1) * ti ** (2.0 * (1.0 - a0)) * out
