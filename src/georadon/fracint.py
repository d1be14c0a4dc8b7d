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

import numpy as np

from .errors import (DifferentiationInstabilityError, DivergenceError,
                     DomainError)
from .profiles import Profile1D
from .quadrature import (_NODE_LADDER, DEFAULT_QUADRATURE, QuadratureSpec,
                         _Budget, _fixed_rule, _integrate_known,
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


def _split_weighted(u_core, lo: float, hi: float, p_lo: float, p_hi: float,
                    interior, spec: QuadratureSpec, budget: _Budget) -> float:
    """Integral of (u-lo)^p_lo (hi-u)^p_hi u_core(u), split at breakpoints.

    ``u_core`` is called once on the nodes of the first two ladder rungs of
    every segment; each segment then sums its own slice, so the values are
    those of one call per rule.  Only segments whose rungs disagree call
    ``u_core`` again.
    """
    points = [lo] + [p for p in interior if lo < p < hi] + [hi]

    def outer(vals, u, a, b):
        # the endpoint weights of [lo, hi] that a segment sees as smooth
        if a != lo and p_lo != 0.0:
            vals = vals * (u - lo) ** p_lo
        if b != hi and p_hi != 0.0:
            vals = vals * (hi - u) ** p_hi
        return vals

    # (a, b, p_lo, p_hi) of each segment; inner ends carry no weight
    segs = [(a, b, p_lo if a == lo else 0.0, p_hi if b == hi else 0.0)
            for a, b in zip(points[:-1], points[1:])]
    rules = [_fixed_rule(*seg, n) for seg in segs for n in _RUNGS]
    vals = u_core(np.concatenate([u for u, _, _ in rules]))

    at = 0
    scale = 0.0
    known = []
    rule = iter(rules)
    for a, b, _, _ in segs:
        rungs = {}
        for n in _RUNGS:
            u, w, c = next(rule)
            rungs[n] = float(c * np.dot(w, outer(vals[at:at + n], u, a, b)))
            at += n
        # the finest known rung anchors the relative tolerance of small
        # segments
        scale += abs(rungs[_RUNGS[-1]])
        known.append(rungs)

    return sum(_integrate_known(rungs, lambda u, a=a, b=b: outer(u_core(u), u, a, b),
                                a, b, jl, jh, spec, budget, scale)
               for rungs, (a, b, jl, jh) in zip(known, segs))


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
    budget = _Budget(spec.max_subdivisions)
    total = 0.0
    lo_u = 0.0
    pieces = sorted(pieces)
    for b in pieces:
        total += _split_weighted(u_core, lo_u, b,
                                 p_lo if lo_u == 0.0 else 0.0, 0.0, [],
                                 spec, budget)
        lo_u = b
    if lo_u == 0.0:
        total += integrate_to_infinity(u_core, 0.0, p_lo, decay, spec,
                                       first_width=max(1.0, 2.0 * t))
    else:
        total += integrate_to_infinity(lambda u: u_core(u) * u ** p_lo,
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
    profile rules one out; it may also return None at single points).
    Missing values come from the adaptive ``integral`` at tightened
    tolerances, in one vector call when there is no fixed grid at all.
    """
    tight = _tighten(spec)

    def psi(ts):
        if fixed is None:
            return np.asarray(integral(beta, g, ts, tight))
        out = np.empty_like(ts)
        for i, ti in enumerate(ts):
            v = fixed(float(ti))
            out[i] = v if v is not None else integral(beta, g, float(ti), tight)
        return out

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

    def psi(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if math.isfinite(top) and t >= top * (1.0 - 1e-12):
            return None      # support cut inside the range: caller falls back
        r = t * vn
        vals = core(r)
        if e != 0.0:
            vals = vals * (top * top - r * r) ** e
        return inv_gamma * t ** (2.0 * beta + o) * float(np.dot(vw, vals))

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

        def psi(t: float) -> float:
            cap = top * top - t * t
            if cap <= 0.0:
                return 0.0
            r = np.sqrt(t * t + cap * wn)
            vals = core(r)
            if o != 0.0:
                vals = vals * r ** o
            return inv_gamma * cap ** (beta + e) * float(np.dot(ww, vals))

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
    v_all = np.concatenate([gk[0] for gk in grids])
    w_all = np.concatenate([gk[1] for gk in grids])

    def psi(t: float) -> float:
        r = t * np.sqrt(1.0 + v_all)
        vals = core(r)
        if o != 0.0:
            vals = vals * r ** o
        if math.isfinite(top):
            vals = np.where(r < top, vals, 0.0)
        return inv_gamma * t ** (2.0 * beta) * float(np.dot(w_all, vals))

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
