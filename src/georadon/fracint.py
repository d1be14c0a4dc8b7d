"""Abel-type fractional integrals with squared-variable kernels and their
left-inverse derivatives.

The integral pair is

    left(alpha, f)(t)  = (2/Gamma(a)) * int_0^t (t^2-r^2)^(a-1) f(r) r dr,
    right(alpha, f)(t) = (2/Gamma(a)) * int_t^inf (r^2-t^2)^(a-1) f(r) r dr,

computed after substitutions that turn the moving-endpoint singularity into
a fixed Gauss-Jacobi weight.  The derivatives invert them:

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
from functools import lru_cache

import numpy as np

from .errors import (DifferentiationInstabilityError, DivergenceError,
                     DomainError)
from .profiles import Profile1D
from .quadrature import (_NODE_LADDER, DEFAULT_QUADRATURE, QuadratureSpec,
                         _Budget, _integrate_known, _rule, _rungs_agree,
                         integrate_to_infinity, integrate_weighted,
                         weighted_nodes)
from .spectral import ChebInterpolant, cheb_nodes

__all__ = ["QuadratureSpec", "check_decay", "ek_left", "ek_right",
           "ek_deriv_left", "ek_deriv_right", "radial_derivative"]

#: Relative spectral-differentiation noise beyond which results are rejected.
DERIV_NOISE_REL = 1e-6

#: the ladder rungs that ``_split_weighted`` evaluates in one call
_RUNGS = _NODE_LADDER[:2]


def check_decay(f: Profile1D, alpha: float, a: float,
                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> bool:
    """True iff int_a^inf |f(r)| r^(2*alpha-1) dr can be certified finite.

    With a decay hint rho (|f| <= C(1+r)^-rho) the sufficient criterion is
    rho > 2*alpha.  Without a hint the truncated integral is measured at
    doubling cutoffs and the predicate fails when the per-doubling increment
    does not fall below ``spec.abs_tol``.
    """
    if f.support is not None and math.isfinite(f.support):
        return True
    if math.isfinite(f.hi):
        return True
    if f.decay_hint is not None:
        return f.decay_hint > 2.0 * alpha
    lo = max(a, f.lo, 1e-6)
    width = max(lo, 1.0)
    incs = []
    for _ in range(7):
        seg = integrate_weighted(
            lambda r: np.abs(f(r)) * r ** (2.0 * alpha - 1.0),
            lo, lo + width, 0.0, 0.0, spec, _Budget(40))
        incs.append(seg)
        lo += width
        width *= 2.0
    return incs[-1] <= spec.abs_tol and incs[-2] <= spec.abs_tol


@lru_cache(maxsize=512)
def _rung_pair(p_lo: float, p_hi: float):
    """Nodes of the two ``_RUNGS`` rules on [-1, 1], concatenated, and
    each rule's weights."""
    (x0, w0), (x1, w1) = (_rule(n, p_lo, p_hi) for n in _RUNGS)
    return np.concatenate((x0, x1)), w0, w1


def _split_weighted(u_core, lo: float, hi: float, p_lo: float, p_hi: float,
                    interior, spec: QuadratureSpec, budget: _Budget) -> float:
    """Integral of (u-lo)^p_lo (hi-u)^p_hi u_core(u), split at the
    increasing breakpoints ``interior``.

    All segments are evaluated as one batch.  The nodes of the first two
    ladder rungs of every segment form one block (``a + h*(x + 1.0)`` per
    row, as ``_fixed_rule`` builds them) and go through one ``u_core``
    call; the endpoint weights of [lo, hi] that inner segments see as
    smooth multiply the whole block.  Each (segment, rung) is then one
    ``np.dot`` of its rule's weights with its slice, so every value is the
    one a separate rule would give: a contraction of the whole block
    (``V @ w``, ``einsum``) sums in another order and moves the last bits.
    A segment whose two rungs agree (``_rungs_agree``) is accepted at one
    budget unit; only the others climb the ladder of ``_integrate_known``,
    which calls ``u_core`` again.  The segments are summed in order.
    """
    points = [lo] + [p for p in interior if lo < p < hi] + [hi]
    last = len(points) - 2
    # endpoint exponents of each segment; inner ends carry no weight
    exps = [(p_lo if i == 0 else 0.0, p_hi if i == last else 0.0)
            for i in range(last + 1)]
    rules = [_rung_pair(*e) for e in exps]
    ends = np.array(points)
    h = 0.5 * (ends[1:] - ends[:-1])
    u = ends[:-1, None] + h[:, None] * (np.array([r[0] for r in rules]) + 1.0)
    vals = u_core(u.ravel()).reshape(u.shape)
    if last and p_lo != 0.0:
        vals = np.concatenate((vals[:1], vals[1:] * (u[1:] - lo) ** p_lo))
    if last and p_hi != 0.0:
        vals = np.concatenate((vals[:-1] * (hi - u[:-1]) ** p_hi, vals[-1:]))

    n0 = _RUNGS[0]
    coarse, fine = [], []
    scale = 0.0
    for hs, (jl, jh), (_, w0, w1), v in zip(h.tolist(), exps, rules, vals):
        c = hs ** (1.0 + jl + jh)
        coarse.append(float(c * np.dot(w0, v[:n0])))
        fine.append(float(c * np.dot(w1, v[n0:])))
        # the finest known rung anchors the relative tolerance of small
        # segments
        scale += abs(fine[-1])

    def outer(vals, u, a, b):
        # the endpoint weights of [lo, hi] that a segment sees as smooth
        if a != lo and p_lo != 0.0:
            vals = vals * (u - lo) ** p_lo
        if b != hi and p_hi != 0.0:
            vals = vals * (hi - u) ** p_hi
        return vals

    parts = []
    for a, b, (jl, jh), r0, r1 in zip(points, points[1:], exps, coarse, fine):
        if _rungs_agree(r0, r1, spec, scale):
            budget.spend()
            parts.append(r1)
        else:
            parts.append(_integrate_known(
                dict(zip(_RUNGS, (r0, r1))),
                lambda u, a=a, b=b: outer(u_core(u), u, a, b),
                a, b, jl, jh, spec, budget, scale))
    return sum(parts)


# -- integrals ---------------------------------------------------------------

def _pointwise(name: str, scalar, alpha: float, f: Profile1D, t,
               spec: QuadratureSpec):
    """scalar(alpha, f, t_i, spec) at each t_i (scalar or array t)."""
    if alpha <= 0:
        raise DomainError(f"{name}: alpha must be positive, got {alpha}")
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.array([scalar(alpha, f, float(ti), spec) for ti in tv])
    return float(out[0]) if np.ndim(t) == 0 else out


def ek_left(alpha: float, f: Profile1D, t, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Left-sided fractional integral of order alpha at t (scalar or array)."""
    return _pointwise("ek_left", _ek_left_scalar, alpha, f, t, spec)


def _ek_left_scalar(alpha: float, f: Profile1D, t: float,
                    spec: QuadratureSpec) -> float:
    if t < f.lo - 1e-12 or (math.isfinite(f.hi) and t > f.hi * (1 + 1e-9)):
        raise DomainError(f"ek_left: t={t} outside profile domain [{f.lo}, {f.hi})")
    if t <= 0.0:
        return 0.0
    o, e, s, core = f.factored()
    if o <= -2.0:
        raise DivergenceError(
            f"ek_left: origin exponent {o} is not locally integrable")

    # substitution r^2 = t^2 u:
    #   value = t^(2a+o)/Gamma(a) * int_0^U (1-u)^(a-1) u^(o/2)
    #           * (s^2 - t^2 u)^e core(t sqrt(u)) du
    ts = t * t
    scale_pow = t ** (2.0 * alpha + o)
    has_edge = s is not None and math.isfinite(s) and e != 0.0
    supported = s is not None and math.isfinite(s)

    if supported and s <= t * (1.0 + 1e-12):
        upper = min((s / t) ** 2, 1.0)
        edge_scale = ts ** e
        if abs(upper - 1.0) < 1e-14:
            # support edge merges with the kernel endpoint
            p_hi = alpha - 1.0 + e

            def u_core(u):
                return core(t * np.sqrt(u))
        else:
            p_hi = e

            def u_core(u):
                return core(t * np.sqrt(u)) * (1.0 - u) ** (alpha - 1.0)
    else:
        upper = 1.0
        edge_scale = 1.0
        p_hi = alpha - 1.0
        if has_edge:
            def u_core(u):
                return core(t * np.sqrt(u)) * (s * s - ts * u) ** e
        else:
            def u_core(u):
                return core(t * np.sqrt(u))

    r_top = t * math.sqrt(upper)
    pieces = {(rb / t) ** 2 for rb in f.breakpoints if 0.0 < rb < r_top}
    # geometric splits keep integrands concentrated near r = 0 resolved when
    # t is much larger than the profile's scale
    q = 0.25
    while q < 0.9 * r_top:
        pieces.add((q / t) ** 2)
        q *= 2.0
    total = _split_weighted(u_core, 0.0, upper, o / 2.0, p_hi, sorted(pieces),
                            spec, _Budget(spec.max_subdivisions))
    return scale_pow * edge_scale * total / math.gamma(alpha)


def ek_right(alpha: float, f: Profile1D, t, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Right-sided fractional integral of order alpha at t (scalar or array)."""
    return _pointwise("ek_right", _ek_right_scalar, alpha, f, t, spec)


def _ek_right_scalar(alpha: float, f: Profile1D, t: float,
                     spec: QuadratureSpec) -> float:
    if t < f.lo - 1e-12:
        raise DomainError(f"ek_right: t={t} below profile domain start {f.lo}")
    o, e, s, core = f.factored()
    top = min(s if s is not None else math.inf, f.hi)
    finite_top = math.isfinite(top)
    if finite_top and t >= top * (1.0 - 1e-15):
        return 0.0
    if not finite_top:
        if f.decay_hint is None:
            raise DomainError(
                "ek_right: profile on an infinite domain needs a decay_hint")
        if not check_decay(f, alpha, max(t, f.lo, 1e-6), spec):
            raise DivergenceError(
                f"ek_right: decay hint {f.decay_hint} fails the criterion "
                f"rho > 2*alpha = {2 * alpha}")

    # substitution u = r^2 - t^2:
    #   value = (1/Gamma(a)) int_0^(top^2 - t^2) u^(a-1) f(sqrt(t^2+u)) du
    ts = t * t
    p_lo = alpha - 1.0

    if t == 0.0 and o != 0.0:
        p_lo += o / 2.0       # r^o = u^(o/2) joins the lower Jacobi weight

        def u_core(u):
            return core(np.sqrt(u))
    else:
        def u_core(u):
            r = np.sqrt(ts + u)
            vals = core(r)
            if o != 0.0:
                vals = vals * r ** o
            return vals

    pieces = {rb * rb - ts for rb in f.breakpoints if rb > t}
    if finite_top:
        upper = top * top - ts
        # geometric splits resolve integrands concentrated near u = 0 when
        # the domain is much wider than the local scale
        q = max(1.0, 2.0 * t)
        while q < 0.45 * upper:
            pieces.add(q)
            q *= 2.0
        total = _split_weighted(u_core, 0.0, upper, p_lo, e, sorted(pieces),
                                spec, _Budget(spec.max_subdivisions))
        return total / math.gamma(alpha)

    decay = math.inf if math.isinf(f.decay_hint) \
        else f.decay_hint / 2.0 + 1.0 - alpha
    pieces = sorted(pieces)
    if not pieces:
        total = integrate_to_infinity(u_core, 0.0, p_lo, decay, spec,
                                      first_width=max(1.0, 2.0 * t))
    else:
        # every finite segment carries the weight u^(a-1) of [0, last piece]
        lo_u = pieces[-1]
        total = _split_weighted(u_core, 0.0, lo_u, p_lo, 0.0, pieces[:-1],
                                spec, _Budget(spec.max_subdivisions)) \
            + integrate_to_infinity(lambda u: u_core(u) * u ** p_lo,
                                    lo_u, 0.0, decay, spec,
                                    first_width=max(1.0, lo_u))
    return total / math.gamma(alpha)


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
    makes one ``core`` call on the (points x nodes) block, then one
    ``np.dot`` per point, so each value is the one a grid at that point
    alone would give: a contraction of the whole block (``V @ w``,
    ``einsum``) sums in another order and moves the last bits.  It returns
    None at single points (a support cut); those values come from the
    adaptive ``integral`` at tightened tolerances, one point at a time, and
    in one vector call when there is no fixed grid at all.
    """
    tight = _tighten(spec)

    def psi(ts):
        if fixed is None:
            return np.asarray(integral(beta, g, ts, tight))
        return np.array([integral(beta, g, t, tight) if v is None else v
                         for t, v in zip(ts.tolist(), fixed(ts))])

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
            for i, v in zip(on_grid, vals):
                out[i] = inv_gamma * tl[i] ** (2.0 * beta + o) \
                    * float(np.dot(vw, v))
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
                for i, v in zip(on_grid, vals):
                    out[i] = inv_gamma * caps[i] ** (beta + e) \
                        * float(np.dot(ww, v))
            return out

        return psi

    if math.isfinite(top):
        # soft support cap: the t-scaled grid below resolves profiles
        # concentrated near the evaluation scale; values vanish past the cap
        r_cut = top
    else:
        if g.decay_hint is None or not math.isinf(g.decay_hint):
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
        return [inv_gamma * t ** (2.0 * beta) * float(np.dot(w_all, v))
                for t, v in zip(ts.tolist(), vals)]

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
