"""Spans and counters around georadon's public functions, recorded from
outside the program.

``Tracer.install`` replaces each listed function by a wrapper in every
georadon module and module-level table that holds it, under whatever name
it was imported, and ``uninstall`` puts the originals back.  A span is
(id, name, start, end, parent span, job id, info).  The parent is the
innermost open span of the same thread; worker threads of the Monte Carlo
pool start with no parent but carry the job id.  Spans stay in memory until
``write``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import statistics
import sys
import threading
import time

import numpy as np

MODELS = ("euclidean_affine", "beltrami_klein", "hyperboloid", "elliptic",
          "projective")
_FORWARD = ("radon_affine_radial", "radon_chord_radial", "radon_hyper_zonal",
            "radon_elliptic_zonal", "radon_projective_zonal")
_DUAL = ("dual_affine_radial", "dual_chord_radial", "dual_hyper_zonal",
         "dual_elliptic_zonal", "dual_projective_zonal")
ESTIMATORS = ("radon_affine_mc", "dual_affine_mc", "radon_hyper_mc",
              "dual_hyper_mc")
_MC_OUTER = ESTIMATORS + ("duality_check_mc", "dual_sine_mc")


def _points(i):
    return lambda args, kw, out: float(np.size(args[i]))


def _estimate(args, kw, out):
    spec = args[3] if len(args) > 3 else kw["mc"]
    return (float(spec.n_samples), out.std_error / max(abs(out.value), 1e-300))


def _sine_points(args, kw, out):
    spec = args[4] if len(args) > 4 else kw["mc"]
    return float(spec.n_samples * np.size(args[3]))


#: (module, function, info) for every wrapped function; the span name is
#: "<module>.<function>"
TARGETS = (
    [("cli", "main", None), ("cli", "write_table", None),
     ("cli", "load_job", None)]
    + [("cli", f, None) for f in ("parse_params", "parse_model",
                                  "parse_quadrature", "parse_mc",
                                  "parse_profile", "parse_grid")]
    + [("quadrature", "integrate_weighted", None),
       ("quadrature", "integrate_to_infinity", None),
       ("fracint", "ek_right", _points(2)), ("fracint", "ek_left", _points(2)),
       ("fracint", "ek_deriv_right", _points(2)),
       ("fracint", "ek_deriv_left", _points(2)),
       ("fracint", "check_decay", None)]
    + [("radial", f, _points(2)) for f in _FORWARD + _DUAL]
    + [("radial", "invert_radial", None),
       ("models", "apply_weight", None),
       ("models", "convert_distance", _points(0)),
       ("profiles", "tabulate", None)]
    + [("mc", f, _estimate) for f in ESTIMATORS]
    + [("mc", "duality_check_mc", None), ("mc", "dual_sine_mc", _sine_points),
       ("mc", "sample_rotations", None)]
    + [("inversion", f, None) for f in ("chain_identity", "d_m",
                                        "fit_even_spline", "reconstruct")])


class Tracer:
    def __init__(self):
        self.spans = []
        self.evals = []          # (job id, points) of the job's own input
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []       # (holder, key, original)

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record the block as a span; the block may set ``info`` on the
        record it is given."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        rec = {"info": None}
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.job,
                               rec["info"]))

    def _wrap(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kw):
            with tracer.span(name) as rec:
                out = fn(*args, **kw)
                if info is not None and out is not None:
                    rec["info"] = info(args, kw, out)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fn):
        def counted(x):
            self.evals.append((self.job, int(np.size(x))))
            return fn(x)
        return counted

    def count_input(self, prof):
        """The profile with every evaluation of it counted."""
        core = self.count(prof.core) if prof.core is not None else None
        return dataclasses.replace(prof, fn=self.count(prof.fn), core=core)

    def count_zonal(self, h):
        return dataclasses.replace(h, fn=self.count(h.fn))

    # -- patching ----------------------------------------------------------------

    def install(self):
        import georadon.cli  # noqa: F401  (loads every module that is wrapped)
        mods = [m for n, m in sys.modules.items()
                if n == "georadon" or n.startswith("georadon.")]
        for modname, fname, info in TARGETS:
            orig = getattr(sys.modules["georadon." + modname], fname)
            new = self._wrap(f"{modname}.{fname}", orig, info)
            if modname == "cli" and fname == "parse_profile":
                new = self._counting_parse(new)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((vars(mod), key, orig))
                        setattr(mod, key, new)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._patched.append((val, k2, orig))
                                val[k2] = new

    def _counting_parse(self, parse):
        def parse_profile(*args, **kw):
            return self.count_input(parse(*args, **kw))
        return parse_profile

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            holder[key] = orig
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "job", "info"],
                       "spans": self.spans}, fh)

    # -- per-layer metrics -------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer figures over the traced jobs (see the README)."""
        by_id = {s[0]: s for s in self.spans}
        child = {}
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s[1], []).append(s)

        def dur(s):
            return s[3] - s[2]

        def ancestors(s):
            while s[4] >= 0 and s[4] in by_id:
                s = by_id[s[4]]
                yield s

        def measured(name):
            return [s for s in by_name.get(name, []) if s[6] is not None]

        def top(name):
            """Spans of a transform not called from another transform,
            an inversion or a reconstruction."""
            return [s for s in measured(name)
                    if not any(a[1].startswith(("radial.", "inversion."))
                               for a in ancestors(s))]

        def per_job(spans, value):
            users = {s[5] for s in spans}
            return 1e3 * sum(value(s) for s in spans) / len(users) \
                if users else 0.0

        def calls(name):
            return len(by_name.get(name, [])) / jobs

        def ms(name):
            return per_job(by_name.get(name, []), dur)

        def self_ms(name):
            return per_job(by_name.get(name, []),
                           lambda s: dur(s) - child.get(s[0], 0.0))

        def ms_per_point(spans):
            pts = sum(s[6] for s in spans)
            return 1e3 * sum(dur(s) for s in spans) / pts if pts else 0.0

        m = {}
        parse = [s for s in self.spans if s[1].startswith("cli.parse")
                 or s[1] == "cli.load_job"]
        m["cli.parse_ms"] = per_job(parse, dur)
        m["cli.write_ms"] = ms("cli.write_table")
        m["quadrature.integrate_weighted.calls"] = calls(
            "quadrature.integrate_weighted")
        m["quadrature.integrate_weighted.self_ms"] = self_ms(
            "quadrature.integrate_weighted")
        m["quadrature.integrate_to_infinity.calls"] = calls(
            "quadrature.integrate_to_infinity")
        for f in ("ek_right", "ek_left"):
            spans = measured("fracint." + f)
            m[f"fracint.{f}.points"] = sum(s[6] for s in spans) / jobs
            m[f"fracint.{f}.ms_per_point"] = ms_per_point(spans)
        for f in ("ek_deriv_right", "ek_deriv_left"):
            m[f"fracint.{f}.ms_per_point"] = ms_per_point(
                measured("fracint." + f))
        m["fracint.check_decay.calls"] = calls("fracint.check_decay")
        for model, fwd, dual in zip(MODELS, _FORWARD, _DUAL):
            m[f"radial.forward_ms_per_point.{model}"] = ms_per_point(
                top("radial." + fwd))
            m[f"radial.dual_ms_per_point.{model}"] = ms_per_point(
                top("radial." + dual))
        m["radial.invert_radial.self_ms"] = self_ms("radial.invert_radial")
        residual = []
        for name in _FORWARD + _DUAL:
            for s in by_name.get("radial." + name, []):
                near = next((a for a in ancestors(s)
                             if a[1].startswith("radial.")), None)
                if near is not None and near[1] == "radial.invert_radial":
                    residual.append(s)
        inverts = {s[5] for s in by_name.get("radial.invert_radial", [])}
        m["radial.invert_radial.residual_ms"] = \
            1e3 * sum(dur(s) for s in residual) / len(inverts) \
            if inverts else 0.0
        m["radial.radon_hyper_zonal.points"] = sum(
            s[6] for s in measured("radial.radon_hyper_zonal")) / jobs
        m["models.apply_weight.calls"] = calls("models.apply_weight")
        m["models.convert_distance.ms_per_point"] = ms_per_point(
            measured("models.convert_distance"))
        m["profiles.input_evals"] = sum(n for _, n in self.evals) / jobs
        m["profiles.tabulate.ms"] = ms("profiles.tabulate")
        # nested estimators run in the pool's threads, where the span stack
        # starts empty: nesting is told by time within the same job
        outer = {}
        for name in _MC_OUTER:
            for s in by_name.get("mc." + name, []):
                outer.setdefault(s[5], []).append(s)

        def mc_top(name):
            return [s for s in measured(name)
                    if not any(o[0] != s[0] and o[2] <= s[2] and s[3] <= o[3]
                               for o in outer.get(s[5], ()))]

        for est in ESTIMATORS:
            spans = mc_top("mc." + est)
            secs = sum(dur(s) for s in spans)
            m[f"mc.samples_per_s.{est}"] = \
                sum(s[6][0] for s in spans) / secs if secs else 0.0
            m[f"mc.std_error.{est}"] = statistics.median(
                s[6][1] for s in spans) if spans else 0.0
        m["mc.duality_check_mc.ms"] = ms("mc.duality_check_mc")
        sine = measured("mc.dual_sine_mc")
        secs = sum(dur(s) for s in sine)
        m["mc.dual_sine_mc.point_samples_per_s"] = \
            sum(s[6] for s in sine) / secs if secs else 0.0
        m["mc.sample_rotations.calls"] = calls("mc.sample_rotations")
        m["mc.sample_rotations.ms"] = ms("mc.sample_rotations")
        m["inversion.chain_identity.ms"] = ms("inversion.chain_identity")
        m["inversion.d_m.self_ms"] = self_ms("inversion.d_m")
        m["inversion.fit_even_spline.ms"] = ms("inversion.fit_even_spline")
        m["inversion.reconstruct.ms"] = ms("inversion.reconstruct")
        m["inversion.reconstruct_eval.ms"] = ms("inversion.reconstruct_eval")
        return m
