"""Workload inputs, jobs and output checks for the georadon benchmark.

Each workload is a fixed list of jobs built from the seed.  A job is one
thing a user of georadon runs: a CLI invocation (``radial``) or one call of
a public estimator or inversion function (``mc``, ``chain``).  The jobs of a
round are interleaved round-robin across job kinds, so a slow period of the
machine falls on every kind alike.

The checks run after the timed phase and count toward no metric.  Each one
compares an output against a formula worked out here, apart from the
program, or against a property the method must have (a transition identity,
a duality, a round trip).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_SALT = {"radial": 11, "mc": 23, "chain": 37}

#: copies of each (command, model) job in a radial round, each with its own
#: seeded inputs: the cost of one job moves by up to 2x with its draw, and a
#: round of several draws costs much the same whatever the seed
RADIAL_REPLICAS = 3
#: sample counts and (n, j, k) sets of the mc jobs.  Every triple of a set
#: runs once per round, so the round's cost does not depend on the seed;
#: the triples were chosen so that every job costs about the same (0.13 to
#: 0.2 s here) and a percentile never sits between a cheap and a costly job.
MC_SAMPLES = {"radon_affine_mc": 100_000, "dual_affine_mc": 80_000,
              "radon_hyper_mc": 80_000, "dual_hyper_mc": 32_000,
              "duality_check_mc": 10_000}
MC_TRIPLES = {
    "radon_affine_mc": ((5, 0, 3), (4, 2, 3), (5, 1, 3), (5, 1, 4)),
    "dual_affine_mc": ((5, 1, 2), (5, 1, 3), (6, 2, 3), (5, 1, 4)),
    "radon_hyper_mc": ((5, 0, 3), (6, 1, 2), (4, 1, 3), (5, 1, 3)),
    "dual_hyper_mc": ((5, 1, 2), (6, 3, 5), (6, 3, 4), (6, 2, 4)),
    "duality_check_mc": ((3, 0, 2), (3, 1, 2), (4, 0, 3), (4, 0, 1)),
}
MC_REPLICAS = 4
CHAIN_TRIPLES = ((3, 1, 2), (4, 1, 2), (4, 1, 3), (5, 2, 3))
CHAIN_SAMPLES = 100_000
#: support radius of the zonal bump; the acceptance value (a seeded radius
#: trips a tabulation fault on some seeds, see CHANGES.md)
CHAIN_SUPPORT = 1.2
RECONSTRUCT_TRIPLES = ((3, 1, 2), (4, 1, 2))
RECONSTRUCT_SAMPLES = 50_000
RECONSTRUCT_GRID = np.linspace(0.0, 2.0, 21)

SIGMAS = 4.0             # MC agreement band, in standard errors
CLOSED_FORM_TOL = 1e-8   # catalog and transition identities
INVERT_TOL = 1e-4        # invert∘forward against the known input
CONVERT_TOL = 1e-12      # conversion formulas and round trips
RECONSTRUCT_TOL = 0.05   # sup-relative error of the reconstruction


class JobFailed(RuntimeError):
    """A job exited with a nonzero code or raised."""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable            # run(tracer) -> output kept for the checks
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list               # one round, interleaved round-robin by kind
    check: Callable          # check(jobs, outputs: label -> output) -> list


def interleave(groups: list) -> list:
    """Round-robin merge of per-kind job lists."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _lam1(alpha, j, k):
    return math.exp(0.5 * (k - j) * math.log(math.pi) + math.lgamma(alpha / 2)
                    - math.lgamma((alpha + k - j) / 2))


def _lam2(alpha, n, j, k):
    return math.exp(math.lgamma(alpha / 2) + math.lgamma((n - j) / 2)
                    - math.lgamma((alpha + k - j) / 2) - math.lgamma((n - k) / 2))


def _sphere(m):
    """Area of the unit m-sphere."""
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def _max_rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def _sup_rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


# -- radial: CLI jobs on the exact quadrature path ------------------------------

_MODELS = ("euclidean_affine", "beltrami_klein", "hyperboloid", "elliptic",
           "projective")
_FWD_GRID = {"euclidean_affine": ("radius", 0.0, (2.5, 3.5)),
             "beltrami_klein": ("ball", 0.0, (0.9, 0.97)),
             "hyperboloid": ("cosh", 1.0, (2.5, 3.5)),
             "elliptic": ("cos_angle", (0.05, 0.1), 1.0),
             "projective": ("angle", 0.0, (0.6, 0.75))}
_DUAL_GRID = {"euclidean_affine": ("radius", 0.0, (2.5, 3.5)),
              "beltrami_klein": ("ball", 0.0, (0.9, 0.97)),
              "hyperboloid": ("sinh", 0.0, (2.5, 3.5)),
              "elliptic": ("sin_angle", 0.0, (0.9, 0.97)),
              "projective": ("angle", 0.0, (0.6, 0.75))}
_TRIPLES = [(n, j, k) for n in range(3, 7) for k in range(1, n)
            for j in range(k)]
#: convert jobs form one cycle through the five models
_CONVERT_CYCLE = (("euclidean_affine", "elliptic", (0.5, 0.95)),
                  ("elliptic", "hyperboloid", (0.45, 0.75)),
                  ("hyperboloid", "beltrami_klein", (1.0, 3.0)),
                  ("beltrami_klein", "projective", (0.8, 0.95)),
                  ("projective", "euclidean_affine", (0.45, 0.75)))
_CATALOG = ("chord_inverse_power", "chord_cap", "dual_chord_power",
            "dual_chord_edge", "hyper_cap")


def _draw(rng, v):
    return float(rng.uniform(*v)) if isinstance(v, tuple) else float(v)


def _params(t):
    return {"n": t[0], "j": t[1], "k": t[2]}


def _cli_job(kind, label, command, doc, workdir):
    from georadon import cli
    out = os.path.join(workdir, label + ".csv")
    doc = dict(doc, command=command, output={"path": out, "format": "csv"})
    path = os.path.join(workdir, label + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [command, "--job", path]

    def run(tracer):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"{label}: exit code {code}")
        return out

    return Job(kind, label, run, dict(doc))


def _read_table(path):
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return data[:, 0], data[:, 1]


def build_radial(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, _SALT["radial"]])
    fwd, dual, inv, conv, cat = [], [], [], [], []
    for r in range(RADIAL_REPLICAS):
        for model in _MODELS:
            for command, grids, group in (("transform", _FWD_GRID, fwd),
                                          ("dual", _DUAL_GRID, dual)):
                kind, lo, hi = grids[model]
                t = _TRIPLES[rng.integers(len(_TRIPLES))]
                doc = {"model": model, "params": _params(t),
                       "profile": {"family": "gaussian",
                                   "sigma": _draw(rng, (0.6, 1.0))},
                       "grid": {"kind": kind, "lo": _draw(rng, lo),
                                "hi": _draw(rng, hi), "count": 32}}
                group.append(_cli_job(command, f"{command}-{model}-{r}",
                                      command, doc, workdir))
        for src, dst, hi in _CONVERT_CYCLE:
            doc = {"convert": {"from": src, "to": dst},
                   "grid": {"lo": 0.0, "hi": _draw(rng, hi), "count": 64}}
            conv.append(_cli_job("convert", f"convert-{src}-{dst}-{r}",
                                 "convert", doc, workdir))
        for doc in _invert_docs(rng):
            sigma = doc.pop("sigma", None)
            inv.append(_cli_job("invert", f"invert-{doc['model']}-{r}",
                                "invert", doc, workdir))
            inv[-1].meta["sigma"] = sigma
        for cf in _CATALOG:
            cat.append(_cli_job("catalog", f"catalog-{cf}-{r}",
                                *_catalog_doc(cf, rng), workdir))
    jobs = interleave([fwd, dual, inv, conv, cat])
    return Workload(jobs, check_radial)


def _invert_docs(rng):
    """Invert jobs whose data is the transform of a known input.

    Forward data is a Gaussian, or for the projective model the projective
    image of the hyperboloid case, given to the CLI as a tabulated profile.
    Kernel orders (k-j)/2 = 1 keep every preimage in closed form.  Dual data
    is a pure power, whose dual preimage is a power again.
    """
    def pick(pool):
        return pool[rng.integers(len(pool))]

    even = [t for t in _TRIPLES if t[2] - t[1] == 2]
    sigma = _draw(rng, (0.6, 0.8))
    yield {"model": "euclidean_affine",
           "params": _params(pick([t for t in _TRIPLES if t[2] - t[1] <= 3])),
           "profile": {"family": "gaussian", "sigma": sigma},
           "grid": {"lo": 0.05, "hi": sigma * _draw(rng, (4.0, 4.5)),
                    "count": 32}}
    yield {"model": "beltrami_klein",
           "params": _params(pick([t for t in even if t[0] - t[2] >= 3])),
           "dual": True,
           "profile": {"family": "power", "p": _draw(rng, (1.0, 2.0))},
           "grid": {"lo": 0.05, "hi": 0.95, "count": 32}}
    sigma = _draw(rng, (0.6, 0.75))
    yield {"model": "hyperboloid", "params": _params(pick(even)),
           "profile": {"family": "gaussian", "sigma": sigma},
           "grid": {"lo": 1.0, "hi": sigma * _draw(rng, (4.0, 4.5)),
                    "count": 32}}
    yield {"model": "elliptic",
           "params": _params(pick([t for t in even if t[1] == 1])),
           "profile": {"family": "gaussian", "sigma": _draw(rng, (0.6, 0.9))},
           "grid": {"lo": 0.05, "hi": 1.0, "count": 32}}
    t = pick(even)
    sigma = _draw(rng, (0.5, 0.75))
    theta = np.linspace(0.0, 0.784, 600)
    data = (np.cos(2 * theta) ** (-(t[1] + 1) / 2)
            * np.exp(-1.0 / (1.0 - np.tan(theta) ** 2) / sigma ** 2))
    yield {"model": "projective", "params": _params(t),
           "profile": {"family": "grid", "x": theta.tolist(),
                       "y": data.tolist(), "order": 5},
           "grid": {"lo": 0.05, "hi": _draw(rng, (0.76, 0.78)), "count": 32},
           "sigma": sigma}


def _catalog_doc(cf, rng):
    """(command, job) of one closed-form catalog entry at its own (n, j, k)."""
    if cf == "chord_inverse_power":
        prof = {"alpha": _draw(rng, (1.5, 3.0))}
        return "transform", {"model": "beltrami_klein",
                             "params": {"n": 5, "j": 1, "k": 2},
                             "profile": dict(prof, family="closed_form", id=cf),
                             "grid": {"lo": 0.05, "hi": 0.95, "count": 32}}
    if cf == "chord_cap":
        a = _draw(rng, (0.8, 1.0))
        return "transform", {"model": "beltrami_klein",
                             "params": {"n": 4, "j": 0, "k": 2},
                             "profile": {"family": "closed_form", "id": cf,
                                         "alpha": _draw(rng, (1.5, 3.0)),
                                         "a": a},
                             "grid": {"lo": 0.05, "hi": 0.95 * a, "count": 32}}
    if cf == "dual_chord_power":
        return "dual", {"model": "beltrami_klein",
                        "params": {"n": 4, "j": 0, "k": 2},
                        "profile": {"family": "closed_form", "id": cf,
                                    "alpha": _draw(rng, (1.5, 3.0))},
                        "grid": {"lo": 0.05, "hi": 0.95, "count": 32}}
    if cf == "dual_chord_edge":
        return "dual", {"model": "beltrami_klein",
                        "params": {"n": 4, "j": 0, "k": 2},
                        "profile": {"family": "closed_form", "id": cf},
                        "grid": {"lo": 0.05, "hi": _draw(rng, (0.9, 0.97)),
                                 "count": 32}}
    a = _draw(rng, (1.8, 2.5))
    return "transform", {"model": "hyperboloid",
                         "params": {"n": 3, "j": 0, "k": 1},
                         "profile": {"family": "closed_form", "id": cf,
                                     "alpha": _draw(rng, (1.5, 3.0)), "a": a},
                         "grid": {"kind": "cosh", "lo": 1.0, "hi": 0.98 * a,
                                  "count": 32}}


def _catalog_expected(doc, x):
    p, prof = doc["params"], doc["profile"]
    n, j, k = p["n"], p["j"], p["k"]
    cf, alpha, a = prof["id"], prof.get("alpha"), prof.get("a")
    if cf == "chord_inverse_power":
        return _lam1(alpha, j, k) * (1 - x * x) ** ((alpha + k - j) / 2 - 1) \
            * x ** (-alpha)
    if cf == "chord_cap":
        return _lam1(alpha, j, k) * (a * a - x * x) ** ((alpha + k - j) / 2 - 1)
    if cf == "dual_chord_power":
        return _lam2(alpha, n, j, k) * x ** (alpha + k - n)
    if cf == "dual_chord_edge":
        return (1 - x * x) ** ((k - n) / 2)
    return _lam1(alpha, j, k) / a ** (k - j) \
        * (a * a - x * x) ** ((alpha + k - j) / 2 - 1) * x ** (1 - alpha - k)


def _invert_expected(doc, x):
    """The input whose transform is the invert job's data."""
    p, prof = doc["params"], doc["profile"]
    n, j, k = p["n"], p["j"], p["k"]
    a = (k - j) / 2
    model = doc["model"]
    if model == "euclidean_affine":
        s = prof["sigma"]
        return math.pi ** -a * s ** (-2 * a) * np.exp(-(x / s) ** 2)
    if model == "beltrami_klein":
        q = prof["p"]
        return x ** q / _lam2(q + n - k, n, j, k)
    if model == "elliptic":
        s = prof["sigma"]
        return _sphere(k) / (2 * math.pi * _sphere(j)) \
            * ((k - 1) - 2 * x * x / s ** 2) * np.exp(-(x / s) ** 2)
    s = prof["sigma"] if model == "hyperboloid" else doc["sigma"]
    c2 = x * x if model == "hyperboloid" else 1 / (1 - np.tan(x) ** 2)
    pre = (2 * c2 / s ** 2 - (k - 1)) * np.exp(-c2 / s ** 2) / (2 * math.pi)
    if model == "hyperboloid":
        return pre
    return _sphere(k) / _sphere(j) * np.cos(2 * x) ** (-(k + 1) / 2) * pre


def _hub(model, x):
    return {"euclidean_affine": x, "beltrami_klein": x,
            "hyperboloid": np.tanh(x), "elliptic": np.tan(x),
            "projective": np.tan(x)}[model]


def _from_hub(model, h):
    return {"euclidean_affine": h, "beltrami_klein": h,
            "hyperboloid": np.arctanh(h), "elliptic": np.arctan(h),
            "projective": np.arctan(h)}[model]


def check_radial(jobs: list, outputs: dict) -> list:
    """[(check name, worst error, tolerance)] for one round's outputs."""
    from georadon import radial as R
    from georadon.models import Model, WeightOp, apply_weight, convert_distance
    from georadon.profiles import ArgKind, Profile1D

    results = []
    for job in jobs:
        x, y = _read_table(outputs[job.label])
        doc = job.meta
        if job.kind == "catalog":
            results.append((job.label, _max_rel(y, _catalog_expected(doc, x)),
                            CLOSED_FORM_TOL))
        elif job.kind == "invert":
            results.append((job.label, _sup_rel(y, _invert_expected(doc, x)),
                            INVERT_TOL))
        elif job.kind == "convert":
            src, dst = doc["convert"]["from"], doc["convert"]["to"]
            want = _from_hub(dst, _hub(src, x))
            back = convert_distance(y, Model(dst), Model(src))
            err = max(float(np.max(np.abs(y - want))),
                      float(np.max(np.abs(back - x))))
            results.append((job.label, err, CONVERT_TOL))
        elif not np.all(np.isfinite(y)):
            results.append((job.label + "-finite", math.inf, 0.0))
        if job.kind == "transform" and doc["model"] == "euclidean_affine":
            t, s = doc["params"], doc["profile"]["sigma"]
            a = (t["k"] - t["j"]) / 2
            want = math.pi ** a * s ** (2 * a) * np.exp(-(x / s) ** 2)
            results.append((job.label + "-gaussian", _max_rel(y, want),
                            CLOSED_FORM_TOL))
        if doc.get("model") == "hyperboloid" and job.kind in ("transform",
                                                              "dual"):
            p = R.TransformParams(**doc["params"])
            s = doc["profile"]["sigma"]
            dual = job.kind == "dual"
            rho = np.arcsinh(x) if dual else np.arccosh(x)
            f_geo = Profile1D(
                lo=0.0, hi=math.inf, arg_kind=ArgKind.GeodesicDistance,
                decay_hint=math.inf,
                fn=(lambda r: np.exp(-(np.sinh(r) / s) ** 2)) if dual
                else (lambda r: np.exp(-(np.cosh(r) / s) ** 2)))
            # the same transform routed through the chord model
            ball_in = apply_weight(WeightOp.P if dual else WeightOp.M, p, f_geo)
            chord = R.dual_chord_radial if dual else R.radon_chord_radial
            ball_out = Profile1D(
                lo=0.0, hi=1.0, arg_kind=ArgKind.BallRadius,
                fn=lambda b: np.asarray(chord(p, ball_in, np.atleast_1d(b))))
            routed = apply_weight(WeightOp.Q if dual else WeightOp.N, p,
                                  ball_out)
            results.append((job.label + "-via-chord",
                            _sup_rel(y, routed(rho)), CLOSED_FORM_TOL))
    return results


# -- mc: seeded Monte Carlo estimators -------------------------------------------

def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def build_mc(seed: int, workdir: str) -> Workload:
    from georadon import mc as MC
    from georadon import radial as R
    from georadon.profiles import ArgKind, Profile1D, gaussian

    rng = np.random.default_rng([seed, _SALT["mc"]])
    groups = {name: [] for name in MC_SAMPLES}

    def spec(name):
        return MC.McSpec(seed=int(rng.integers(2 ** 31)),
                         n_samples=MC_SAMPLES[name])

    # each triple of a set once per round, paired with the seeded inputs
    # in a seeded order
    order = {name: [int(i) for i in rng.permutation(len(MC_TRIPLES[name]))]
             for name in MC_SAMPLES}

    def pick(name):
        return R.TransformParams(*MC_TRIPLES[name][order[name].pop()])

    for rep in range(MC_REPLICAS):
        # forward, affine planes: radial Gaussian at a k-plane
        p = pick("radon_affine_mc")
        rot = _rotation(rng, p.n)
        dist = _draw(rng, (0.3, 1.2))
        sigma = _draw(rng, (0.7, 1.0))
        prof = gaussian(sigma)
        plane = MC.AffinePlane(MC.Frame(rot[:, p.n - p.k:]),
                               dist * rot[:, 0])
        groups["radon_affine_mc"].append(_mc_job(
            "radon_affine_mc", rep, prof, spec("radon_affine_mc"),
            lambda f, s, p=p, plane=plane: MC.radon_affine_mc(
                p, MC.radial_plane_function(f), plane, s),
            lambda p=p, prof=prof, d=dist: R.radon_affine_radial(p, prof, d)))
        # dual, affine planes: radial Gaussian at a j-plane
        p = pick("dual_affine_mc")
        rot = _rotation(rng, p.n)
        dist = _draw(rng, (0.3, 1.2))
        prof = gaussian(_draw(rng, (0.7, 1.0)))
        tau = MC.AffinePlane(MC.Frame(rot[:, p.n - p.j:]), dist * rot[:, 0])
        groups["dual_affine_mc"].append(_mc_job(
            "dual_affine_mc", rep, prof, spec("dual_affine_mc"),
            lambda f, s, p=p, tau=tau: MC.dual_affine_mc(
                p, MC.radial_plane_function(f), tau, s),
            lambda p=p, prof=prof, d=dist: R.dual_affine_radial(p, prof, d)))
        # forward, hyperboloid: zonal Gaussian in cosh-distance at a k-geodesic
        p = pick("radon_hyper_mc")
        dist = _draw(rng, (0.3, 1.2))
        sigma = _draw(rng, (1.0, 1.5))
        prof = Profile1D(lo=1.0, hi=math.inf, arg_kind=ArgKind.CoshDistance,
                         decay_hint=math.inf,
                         fn=lambda s, c=sigma: np.exp((1.0 - s * s) / c ** 2))
        z = MC.GeodesicElement(p.n, p.k, _rotation(rng, p.n), dist)
        groups["radon_hyper_mc"].append(_mc_job(
            "radon_hyper_mc", rep, prof, spec("radon_hyper_mc"),
            lambda f, s, p=p, z=z: MC.radon_hyper_mc(
                p, MC.zonal_function(f), z, s),
            lambda p=p, prof=prof, d=dist: R.radon_hyper_zonal(
                p, prof, math.cosh(d))))
        # dual, hyperboloid: zonal Gaussian in sinh-distance at a j-geodesic
        p = pick("dual_hyper_mc")
        dist = _draw(rng, (0.3, 1.2))
        sigma = _draw(rng, (0.7, 1.0))
        prof = Profile1D(lo=0.0, hi=math.inf, arg_kind=ArgKind.SinhDistance,
                         decay_hint=math.inf,
                         fn=lambda r, c=sigma: np.exp(-(r / c) ** 2))
        t = MC.GeodesicElement(p.n, p.j, _rotation(rng, p.n), dist)
        groups["dual_hyper_mc"].append(_mc_job(
            "dual_hyper_mc", rep, prof, spec("dual_hyper_mc"),
            lambda f, s, p=p, t=t: MC.dual_hyper_mc(
                p, MC.zonal_function(f), t, s),
            lambda p=p, prof=prof, d=dist: R.dual_hyper_zonal(
                p, prof, math.sinh(d))))
        # nested duality on non-radial inputs
        p = pick("duality_check_mc")
        w = _draw(rng, (0.5, 1.5))
        groups["duality_check_mc"].append(_duality_job(
            rep, p, w, spec("duality_check_mc")))
    jobs = interleave(list(groups.values()))
    return Workload(jobs, check_mc)


def _mc_job(name, rep, prof, spec, estimate, exact):
    def run(tracer):
        f = tracer.count_input(prof) if tracer else prof
        return estimate(f, spec)

    return Job(name, f"{name}-{rep}", run, {"exact": exact})


def _duality_job(rep, p, w, spec):
    """duality_check_mc on Gaussians times a squared direction or offset
    coordinate, which makes both functions non-radial."""
    from georadon import mc as MC

    def f(batch):
        fr = batch.frames
        extra = np.sum(fr[:, 0, :] ** 2, axis=-1) if fr.shape[2] else 0.0
        return np.exp(-batch.distances ** 2) * (1.0 + w * extra)

    def phi(batch):
        return np.exp(-batch.distances ** 2) * (1.0 + w * batch.offsets[:, 0] ** 2)

    def run(tracer):
        return MC.duality_check_mc("affine", f, phi, p, spec)

    return Job("duality_check_mc", f"duality_check_mc-{rep}", run, {})


def check_mc(jobs: list, outputs: dict) -> list:
    """Distance of each estimate from its reference, in standard errors."""
    results = []
    for job in jobs:
        est = outputs[job.label]
        if job.kind == "duality_check_mc":
            lhs, rhs = est
            sig = math.hypot(lhs.std_error, rhs.std_error)
            results.append((job.label, abs(lhs.value - rhs.value) / sig,
                            SIGMAS))
        else:
            exact = float(job.meta["exact"]())
            results.append((job.label,
                            abs(est.value - exact) / est.std_error, SIGMAS))
    return results


# -- chain: the rank-one inversion chain -------------------------------------------

def build_chain(seed: int, workdir: str) -> Workload:
    from georadon import inversion as IV
    from georadon import mc as MC
    from georadon import radial as R

    rng = np.random.default_rng([seed, _SALT["chain"]])
    h = IV.zonal_bump(CHAIN_SUPPORT)
    support = CHAIN_SUPPORT
    chains, recs = [], []
    for t in CHAIN_TRIPLES:
        p = R.TransformParams(*t)
        z = MC.GeodesicElement(p.n, p.k, _rotation(rng, p.n),
                               _draw(rng, (0.4, 0.8)))
        spec = MC.McSpec(seed=int(rng.integers(2 ** 31)),
                         n_samples=CHAIN_SAMPLES)

        def run(tracer, p=p, z=z, spec=spec):
            hh = tracer.count_zonal(h) if tracer else h
            return IV.chain_identity(p, hh, z, spec, support=support)

        chains.append(Job("chain_identity", "chain_identity-%d%d%d" % t, run))
    for t in RECONSTRUCT_TRIPLES:
        p = R.TransformParams(*t)
        spec = MC.McSpec(seed=int(rng.integers(2 ** 31)),
                         n_samples=RECONSTRUCT_SAMPLES)
        recs.append(Job("reconstruct", "reconstruct-%d%d%d" % t,
                        _reconstruct_run(p, h, support, spec),
                        {"params": p, "h": h, "support": support}))
    jobs = interleave([chains, recs])
    return Workload(jobs, check_chain)


def _reconstruct_run(p, h, support, spec):
    """Data = the j-to-k transform of the j-plane transform of h, which the
    composition identity makes the k-plane transform of h; reconstruct the
    j-plane transform from it and evaluate on the check grid."""
    from georadon import inversion as IV
    from georadon import profiles as P
    from georadon import radial as R

    pk = R.TransformParams(p.n, 0, p.k)
    top = math.cosh(support)

    def run(tracer):
        hh = tracer.count_zonal(h) if tracer else h
        h_prof = IV.as_cosh_profile(hh, support=support)
        phi = P.tabulate(lambda s: R.radon_hyper_zonal(pk, h_prof, s), 1.0,
                         top, P.ArgKind.CoshDistance, n=200, support=top,
                         square_variable=True)
        rec = IV.reconstruct(phi, p, 1, spec)
        if tracer:
            with tracer.span("inversion.reconstruct_eval"):
                return np.asarray(rec(RECONSTRUCT_GRID))
        return np.asarray(rec(RECONSTRUCT_GRID))

    return run


def check_chain(jobs: list, outputs: dict) -> list:
    from georadon import inversion as IV
    from georadon import radial as R

    results = []
    for job in jobs:
        out = outputs[job.label]
        if job.kind == "chain_identity":
            lhs, rhs = out
            results.append((job.label, abs(lhs.value - rhs) / lhs.std_error,
                            SIGMAS))
        else:
            p, h = job.meta["params"], job.meta["h"]
            pj = R.TransformParams(p.n, 0, p.j)
            want = R.radon_hyper_zonal(
                pj, IV.as_cosh_profile(h, support=job.meta["support"]),
                np.cosh(RECONSTRUCT_GRID))
            results.append((job.label, _sup_rel(out, want), RECONSTRUCT_TOL))
    return results


BUILDERS = {"radial": build_radial, "mc": build_mc, "chain": build_chain}


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](seed, workdir)
