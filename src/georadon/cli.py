"""Command-line front end: transform/dual/invert/convert jobs, the identity
verification suite, Monte Carlo duality checks, and tabular output.

Jobs are single JSON documents (see README for the schema); command-line
flags override the seed, sample count, tolerance, output path, and format.
Exit codes: 0 success, 2 validation error, 3 divergence detected,
4 Monte Carlo non-convergence, 5 out of memory (a ``MemoryError`` that
escapes the job, reported in one ``error:`` line).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import inversion as IV
from . import mc as MC
from . import radial as R
from .errors import (DivergenceError, DomainError, GeoradonError,
                     McConvergenceWarning)
from .models import CANONICAL_KIND, Model, convert_distance
from .profiles import (ArgKind, Profile1D, bump, domain, from_grid, gaussian,
                       power)
from .quadrature import QuadratureSpec
from .verify import identity_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_MC = 4
EXIT_MEMORY = 5

_COMMANDS = ("transform", "dual", "invert", "convert", "verify",
             "mc-duality", "chain", "table")
_FORMATS = ("csv", "json")

_KIND_ALIASES = {k.value: k for k in ArgKind}
_KIND_ALIASES.update({
    "cosh": ArgKind.CoshDistance, "sinh": ArgKind.SinhDistance,
    "tanh": ArgKind.TanhDistance, "angle": ArgKind.Angle,
    "radius": ArgKind.EuclideanRadius, "ball": ArgKind.BallRadius,
    "distance": ArgKind.GeodesicDistance,
})

_MODELS = {m.value: m for m in Model}
_MODELS.update({"euclidean": Model.EuclideanAffine,
                "ball": Model.BeltramiKlein,
                "hyperbolic": Model.Hyperboloid})


class JobError(GeoradonError, ValueError):
    """The job document is malformed or inconsistent."""


def _require(cond, msg):
    if not cond:
        raise JobError(msg)


_MISSING = object()


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _not_nan(value) -> float:
    x = float(value)
    if math.isnan(x):
        raise ValueError("NaN is not a number")
    return x


def _integer(value) -> int:
    """An integral number: 32 and 32.0 pass; 2.7 and booleans do not."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(value, int):
        return value
    x = float(value)
    if not x.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(x)


def _field(doc: dict, key: str, cast=_finite, default=_MISSING):
    """doc[key] through ``cast``; a missing or malformed field is a JobError."""
    if key not in doc:
        _require(default is not _MISSING, f"missing field {key!r}")
        return default
    try:
        return cast(doc[key])
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad field {key!r}: {exc}") from exc


def _section(job: dict, key: str) -> dict:
    """The object job[key], added empty when absent; a JobError otherwise."""
    sec = job.setdefault(key, {})
    _require(isinstance(sec, dict), f"field {key!r} must be an object")
    return sec


def _finite_array(doc: dict, key: str) -> np.ndarray:
    x = _field(doc, key, lambda v: np.asarray(v, dtype=float))
    _require(x.ndim == 1 and np.all(np.isfinite(x)),
             f"field {key!r} must be a list of finite numbers")
    return x


def load_job(path: str, overrides: dict) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    _require(isinstance(job, dict), "job document must be a JSON object")
    if overrides.get("seed") is not None:
        _section(job, "mc")["seed"] = overrides["seed"]
    if overrides.get("samples") is not None:
        _section(job, "mc")["n_samples"] = overrides["samples"]
    if overrides.get("rel_tol") is not None:
        _section(job, "quadrature")["rel_tol"] = overrides["rel_tol"]
    if overrides.get("out") is not None:
        _section(job, "output")["path"] = overrides["out"]
    if overrides.get("format") is not None:
        _section(job, "output")["format"] = overrides["format"]
    return job


def parse_params(job) -> R.TransformParams:
    p = job.get("params")
    _require(isinstance(p, dict), "job needs params {n, j, k}")
    try:
        return R.TransformParams(*(_field(p, key, _integer) for key in "njk"))
    except DomainError as exc:
        raise JobError(str(exc)) from exc


def parse_model(job) -> Model:
    name = str(job.get("model", "")).lower()
    _require(name in _MODELS, f"unknown model {name!r}")
    return _MODELS[name]


def parse_quadrature(job) -> QuadratureSpec:
    q = _section(job, "quadrature")
    try:
        return QuadratureSpec(
            rel_tol=_field(q, "rel_tol", float, 1e-10),
            abs_tol=_field(q, "abs_tol", float, 1e-12),
            max_subdivisions=_field(q, "max_subdivisions", _integer, 200),
            truncation_tail_tol=_field(q, "truncation_tail_tol", float, 1e-12))
    except ValueError as exc:
        raise JobError(f"bad quadrature spec: {exc}") from exc


def parse_mc(job) -> MC.McSpec:
    m = _section(job, "mc")
    try:
        return MC.McSpec(seed=_field(m, "seed", _integer, 0),
                         n_samples=_field(m, "n_samples", _integer, 100000),
                         stream_id=_field(m, "stream_id", _integer, 0))
    except ValueError as exc:
        raise JobError(f"bad mc spec: {exc}") from exc


def parse_profile(spec: dict, kind: ArgKind) -> Profile1D:
    _require(isinstance(spec, dict) and "family" in spec,
             "profile needs a 'family' field")
    fam = spec["family"]
    lo = domain(kind)[0]
    if fam == "gaussian":
        return gaussian(_field(spec, "sigma", default=1.0), arg_kind=kind, lo=lo)
    if fam == "power":
        return power(_field(spec, "p"), lo=max(lo, 1e-12), arg_kind=kind)
    if fam == "bump":
        return bump(_field(spec, "a"), arg_kind=kind, lo=lo)
    if fam == "closed_form":
        cf = _closed_form_by_name(str(spec.get("id", "")))
        pair = R.closed_form_pair(cf, alpha=_field(spec, "alpha", default=None),
                                  a=_field(spec, "a", default=None))
        return pair.input
    if fam == "grid":
        x, y = _finite_array(spec, "x"), _finite_array(spec, "y")
        _require(x.shape == y.shape, "grid profile needs x and y of one length")
        return from_grid(x, y, kind, order=_field(spec, "order", _integer, 3),
                         decay_hint=_field(spec, "decay_hint", _not_nan, None))
    raise JobError(f"unknown profile family {fam!r}")


def _closed_form_by_name(name: str) -> R.ClosedFormId:
    for cf in R.ClosedFormId:
        if cf.value == name or cf.name.lower() == name.lower():
            return cf
    raise JobError(f"unknown closed form id {name!r}; choose from "
                   f"{[c.value for c in R.ClosedFormId]}")


def parse_grid(job, default_kind: ArgKind) -> tuple[np.ndarray, ArgKind]:
    g = job.get("grid")
    _require(isinstance(g, dict), "job needs a grid {lo, hi, count}")
    kind = _KIND_ALIASES.get(str(g.get("kind", default_kind.value)).lower())
    _require(kind is not None, f"unknown grid kind {g.get('kind')!r}")
    lo, hi = _field(g, "lo"), _field(g, "hi")
    count = _field(g, "count", _integer)
    _require(hi > lo and 2 <= count <= 10 ** 6,
             "grid needs hi > lo and 2 <= count <= 1e6")
    return np.linspace(lo, hi, count), kind


# -- output ---------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str, text: str):
    """Write an output file; a path that cannot be written is a JobError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise JobError(f"cannot write output: {exc}") from exc


def write_table(path: str, fmt: str, header_meta: dict, columns: dict):
    # each column as a list of Python floats, formatted in one pass
    cols = {k: np.asarray(vals, dtype=float).tolist()
            for k, vals in columns.items()}
    if fmt == "json":
        text = json.dumps({"meta": header_meta, "columns": cols},
                          indent=1, sort_keys=True) + "\n"
    else:
        lines = ["# " + " ".join(f"{k}={v}" for k, v in header_meta.items()),
                 ",".join(cols)]
        lines += map(",".join, zip(*(map(repr, c) for c in cols.values())))
        text = "\n".join(lines) + "\n"
    _write_text(path, text)


def _out_of(job, default_path: str):
    """The output path and format, checked before the job's work: a path
    under a missing directory is a JobError."""
    out = _section(job, "output")
    fmt = str(out.get("format", "csv"))
    _require(fmt in _FORMATS,
             f"unknown output format {fmt!r}; choose csv or json")
    path = str(out.get("path", default_path))
    _require(os.path.isdir(os.path.dirname(path) or "."),
             f"cannot write output: no directory for {path!r}")
    return path, fmt


# -- command handlers --------------------------------------------------------------

def _cmd_transform(job, command: str) -> int:
    """transform, dual and invert: one row of the model's transform table."""
    invert = command == "invert"
    path, fmt = _out_of(job, "invert.csv" if invert else "transform.csv")
    model = parse_model(job)
    p = parse_params(job)
    spec = parse_quadrature(job)
    dual = command == "dual" or (invert and bool(job.get("dual", False)))
    kind = R.TRANSFORMS[model, dual].kind
    prof = parse_profile(job.get("profile"), kind)
    coords, gkind = parse_grid(job, kind)
    if invert:
        rec = R.invert_radial(
            model, p, prof, dual=dual, spec=spec,
            out_range=(float(coords[0]), float(coords[-1])),
            check_residual=bool(job.get("check_residual", True)))
        vals = rec(coords)
    else:
        vals = np.asarray(R.transform_function(model, dual)(p, prof, coords,
                                                            spec))
    write_table(path, fmt,
                {"model": model.value, "variable": gkind.value,
                 "arg_kind": kind.value, "n": p.n, "j": p.j, "k": p.k},
                {"coordinate": coords, "value": vals})
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_convert(job) -> int:
    path, fmt = _out_of(job, "convert.csv")
    conv = _section(job, "convert")
    _require({"from", "to"} <= set(conv), "convert needs {from, to}")
    src = _MODELS.get(str(conv["from"]).lower()) \
        or _KIND_ALIASES.get(str(conv["from"]).lower())
    dst = _MODELS.get(str(conv["to"]).lower()) \
        or _KIND_ALIASES.get(str(conv["to"]).lower())
    _require(src is not None and dst is not None, "unknown conversion endpoints")
    coords, _ = parse_grid(job, src if isinstance(src, ArgKind)
                           else CANONICAL_KIND[src])
    vals = convert_distance(coords, src, dst)
    write_table(path, fmt,
                {"from": conv["from"], "to": conv["to"],
                 "variable": "source_coordinate",
                 "arg_kind": (src.value if isinstance(src, ArgKind)
                              else CANONICAL_KIND[src].value)},
                {"coordinate": coords, "value": np.asarray(vals)})
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_table(job) -> int:
    path, fmt = _out_of(job, "table.csv")
    model = parse_model(job) if "model" in job else Model.EuclideanAffine
    kind_default = CANONICAL_KIND[model]
    coords, gkind = parse_grid(job, kind_default)
    prof = parse_profile(job.get("profile"), gkind)
    vals = prof(coords)
    write_table(path, fmt,
                {"model": model.value, "variable": gkind.value,
                 "arg_kind": gkind.value},
                {"coordinate": coords, "value": np.asarray(vals)})
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(job) -> int:
    path, fmt = _out_of(job, "verify_report.json")
    spec = parse_quadrature(job)
    results = identity_suite(spec)
    doc = {"identities": [{"name": r.name,
                           "max_rel_err": r.max_rel_err,
                           "tol": r.tol,
                           "pass": bool(r.passed)} for r in results],
           "all_pass": bool(all(r.passed for r in results)),
           "count": len(results)}
    if fmt == "csv":
        lines = ["name,max_rel_err,tol,pass"]
        lines += [f"{r.name},{_fmt(r.max_rel_err)},{_fmt(r.tol)},"
                  f"{'PASS' if r.passed else 'FAIL'}" for r in results]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    _write_text(path, text)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"(err {r.max_rel_err:.3e}, tol {r.tol:.0e})")
    print(f"wrote {path}")
    return EXIT_OK if doc["all_pass"] else EXIT_VALIDATION


def _cmd_mc_duality(job) -> int:
    path, fmt = _out_of(job, "duality.csv")
    p = parse_params(job)
    mcspec = parse_mc(job)
    which = str(_section(job, "duality").get("which", "affine")).lower()
    if which == "hyper":
        fkind, dkind = ArgKind.CoshDistance, ArgKind.SinhDistance
        f = MC.zonal_function(parse_profile(job.get("profile"), fkind))
        phi = MC.zonal_function(parse_profile(job.get("phi", job.get("profile")),
                                              dkind))
    else:
        f = MC.radial_plane_function(
            parse_profile(job.get("profile"), ArgKind.EuclideanRadius))
        phi = MC.radial_plane_function(
            parse_profile(job.get("phi", job.get("profile")),
                          ArgKind.EuclideanRadius))
    lhs, rhs = MC.duality_check_mc(which, f, phi, p, mcspec)
    combined = math.hypot(lhs.std_error, rhs.std_error)
    write_table(path, fmt,
                {"which": which, "variable": "side", "arg_kind": "estimate",
                 "n": p.n, "j": p.j, "k": p.k,
                 "seed": mcspec.seed, "n_samples": mcspec.n_samples},
                {"side": np.array([0.0, 1.0]),
                 "value": np.array([lhs.value, rhs.value]),
                 "stderr": np.array([lhs.std_error, rhs.std_error])})
    print(f"lhs {lhs.value:.6g} +- {lhs.std_error:.2g} | "
          f"rhs {rhs.value:.6g} +- {rhs.std_error:.2g} | "
          f"difference {abs(lhs.value - rhs.value) / max(combined, 1e-300):.2f} sigma")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_chain(job) -> int:
    path, fmt = _out_of(job, "chain.csv")
    p = parse_params(job)
    mcspec = parse_mc(job)
    ch = _section(job, "chain")
    h_spec = ch.get("h", {"family": "bump", "a": 1.2})
    _require(isinstance(h_spec, dict)
             and h_spec.get("family") in ("bump", "gaussian"),
             "chain h family must be 'bump' or 'gaussian'")
    h = parse_profile(h_spec, ArgKind.GeodesicDistance)
    rho = _field(ch, "rho", default=0.6)
    _require(abs(rho) < 710.0, "chain rho must have a finite cosh (|rho| < 710)")
    rng = MC._rng(MC.McSpec(mcspec.seed, 1, mcspec.stream_id + 999), 0)
    rot = MC.sample_rotation(p.n, rng)
    z = MC.GeodesicElement(p.n, p.k, rot, rho)
    lhs, rhs = IV.chain_identity(p, h, z, mcspec)
    write_table(path, fmt,
                {"variable": "side", "arg_kind": "estimate",
                 "n": p.n, "j": p.j, "k": p.k, "rho": rho,
                 "seed": mcspec.seed, "n_samples": mcspec.n_samples},
                {"side": np.array([0.0, 1.0]),
                 "value": np.array([lhs.value, rhs]),
                 "stderr": np.array([lhs.std_error, 0.0])})
    sig = abs(lhs.value - rhs) / max(lhs.std_error, 1e-300)
    print(f"composed {lhs.value:.6g} +- {lhs.std_error:.2g} | "
          f"direct {rhs:.6g} | difference {sig:.2f} sigma")
    print(f"wrote {path}")
    return EXIT_OK


def run(job: dict, command: str) -> int:
    """Execute a parsed job; returns the process exit code."""
    if "command" in job:
        _require(str(job["command"]) == command,
                 f"job document says {job['command']!r}, invoked as {command!r}")
    handler = {
        "transform": lambda: _cmd_transform(job, command),
        "dual": lambda: _cmd_transform(job, command),
        "invert": lambda: _cmd_transform(job, command),
        "convert": lambda: _cmd_convert(job),
        "verify": lambda: _cmd_verify(job),
        "mc-duality": lambda: _cmd_mc_duality(job),
        "chain": lambda: _cmd_chain(job),
        "table": lambda: _cmd_table(job),
    }[command]
    return handler()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a
    process and reused: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="georadon",
        description="geodesic Radon transforms on constant-curvature spaces")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=_FORMATS, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        job = load_job(args.job, vars(args))
    except (OSError, json.JSONDecodeError, JobError) as exc:
        print(f"error: invalid job: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(job, args.command)
        except (JobError, DomainError) as exc:
            print(f"error: validation: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except DivergenceError as exc:
            print(f"error: divergence: {exc}", file=sys.stderr)
            return EXIT_DIVERGENCE
        except GeoradonError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except MemoryError as exc:
            detail = " ".join(str(exc).split())
            print("error: out of memory" + (f": {detail}" if detail else ""),
                  file=sys.stderr)
            return EXIT_MEMORY
    if any(issubclass(w.category, McConvergenceWarning) for w in caught):
        print("error: Monte Carlo estimator failed to converge at the "
              "n^-1/2 rate", file=sys.stderr)
        return EXIT_MC
    return code


if __name__ == "__main__":
    sys.exit(main())
