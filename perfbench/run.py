#!/usr/bin/env python3
"""Benchmark of georadon's exact, Monte Carlo and inversion paths.

    python3 perfbench/run.py --workload radial|mc|chain --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every job kind once, all checks

Run from the root of a georadon checkout.  The program is used from
``src/`` as it stands; the benchmark installs and builds nothing.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics and
the tracing overhead.  See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
THREADS = len(os.sched_getaffinity(0))
WORKLOADS = ("radial", "mc", "chain")
#: fresh interpreter starts per run whose median is setup_s; they are
#: spread evenly over the timed phase, between rounds
SETUP_STARTS = 7


def pinned_env() -> dict:
    """Thread settings every georadon process of the benchmark runs with:
    the library's own pool at the core count (its default), BLAS and OpenMP
    at one thread so that they do not compete with it."""
    env = dict(os.environ)
    env["GEORADON_THREADS"] = str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh start: import the CLI, build the inputs, and print
    the monotonic clock (shared by all processes of the machine)."""
    import georadon.cli  # noqa: F401
    import jobs
    jobs.build(workload, seed, str(WORK / "probe" / workload))
    print(repr(_now()))


def fresh_start(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported the
    CLI and built the workload's inputs."""
    t0 = _now()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        env=pinned_env(), capture_output=True, text=True, check=True,
        timeout=120)
    return float(done.stdout.split()[-1]) - t0


def import_times() -> dict:
    """cli.import_ms (wall) and the cumulative scipy.interpolate import,
    from ``-X importtime`` of a fresh interpreter; medians of three."""
    code = ("import time; t = time.perf_counter(); import georadon.cli; "
            "print(time.perf_counter() - t)")
    cli_ms, scipy_ms = [], []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=pinned_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        cli_ms.append(1e3 * float(done.stdout.split()[-1]))
        hit = re.search(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*"
                        r"scipy\.interpolate\s*$", done.stderr, re.M)
        scipy_ms.append(int(hit.group(1)) / 1e3 if hit else 0.0)
    return {"cli.import_ms": statistics.median(cli_ms),
            "cli.import_scipy_interpolate_ms": statistics.median(scipy_ms)}


def _snapshot(out):
    """Bytes that identify a job's output, for the determinism check."""
    import numpy as np
    if isinstance(out, str):
        return Path(out).read_bytes()
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return repr(out).encode()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_starts: int) -> dict:
    """Timed rounds of one workload, then the checks.  The result's metrics
    hold an ``end_to_end`` dict when ``setup_starts`` is nonzero and a
    ``per_layer`` dict when ``trace`` is set."""
    import resource

    import jobs
    from tracing import Tracer

    imports = import_times() if trace else {}
    from georadon import quadrature
    wl = jobs.build(name, seed, str(WORK / name))
    tracer = Tracer() if trace else None

    attempted = failed = 0
    errors = []
    job_ms, kind_ms = [], {}
    rates = {False: [], True: []}
    setups = []
    first = last = None
    traced_jobs = 0
    start = time.perf_counter()
    deadline = start + seconds
    rnd = 0
    while True:
        # the fresh starts fall between rounds, spread over the timed phase,
        # so that they meet the same states of the machine as the jobs
        if len(setups) < setup_starts and time.perf_counter() - start >= \
                len(setups) * seconds / setup_starts:
            setups.append(fresh_start(name, seed))
        traced = trace and rnd % 2 == 1
        if traced:
            tracer.install()
        outs = {}
        t_round = time.perf_counter()
        for job in wl.jobs:
            if traced:
                tracer.job = traced_jobs
                traced_jobs += 1
            t0 = time.perf_counter()
            try:
                outs[job.label] = job.run(tracer if traced else None)
            except Exception as exc:    # a failed job is counted, not fatal
                failed += 1
                errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
            dt = 1e3 * (time.perf_counter() - t0)
            attempted += 1
            if not traced:
                job_ms.append(dt)
                kind_ms.setdefault(job.kind, []).append(dt)
        rates[traced].append(len(wl.jobs) / (time.perf_counter() - t_round))
        if traced:
            tracer.uninstall()
        snap = {k: _snapshot(v) for k, v in outs.items()}
        first = first if first is not None else snap
        last = snap
        rnd += 1
        if time.perf_counter() >= deadline and (not trace or rnd % 2 == 0):
            break
    while len(setups) < setup_starts:
        setups.append(fresh_start(name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_misses = quadrature._jacobi_rule.cache_info().misses

    checks = []
    try:
        checks = wl.check([j for j in wl.jobs if j.label in outs], outs)
    except Exception:
        traceback.print_exc()
        checks.append(("checks-ran", float("inf"), 0.0))
    checks.append(("deterministic-across-rounds",
                   0.0 if first == last else 1.0, 0.0))
    bad = [c for c in checks if not c[1] <= c[2]]

    for err in errors[:10]:
        print("FAILED", err)
    for label, err, tol in checks:
        print(f"check {'ok  ' if err <= tol else 'FAIL'} {label}: "
              f"{err:.3g} (limit {tol:g})")
    total = sum(job_ms) or 1.0
    for kind, vals in kind_ms.items():
        print(f"kind {kind}: {len(vals)} jobs, median "
              f"{statistics.median(vals):.2f} ms, "
              f"{100 * sum(vals) / total:.1f}% of job time")
    if len(job_ms) >= 40:
        print(f"reference: job p90 {_quantile(job_ms, 0.9):.2f} ms over "
              f"{len(job_ms)} jobs (not a metric)")
    print(f"rounds: {len(rates[False])} untraced, {len(rates[True])} traced")

    metrics = {}
    if setup_starts:
        metrics["end_to_end"] = {"setup_s": statistics.median(setups),
                                 "jobs_per_s": statistics.median(rates[False]),
                                 "job_p50_ms": statistics.median(job_ms),
                                 "peak_rss_mb": peak_rss_mb}
    if trace:
        layer = metrics["per_layer"] = dict(imports)
        layer.update(tracer.layer_metrics(traced_jobs))
        layer["quadrature.rule_cache_misses"] = float(cache_misses)
        recon = [c[1] for c in checks if c[0].startswith("reconstruct-")]
        layer["inversion.reconstruct.sup_rel_err"] = max(recon, default=0.0)
        plain = statistics.median(rates[False])
        traced_rate = statistics.median(rates[True])
        layer["trace.jobs_per_s_untraced"] = plain
        layer["trace.jobs_per_s_traced"] = traced_rate
        layer["trace.overhead_pct"] = 100.0 * (plain / traced_rate - 1.0)
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(str(WORK / f"trace-{name}-{seed}.json"))
    return {"correct": not bad, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _quantile(vals, q):
    vals = sorted(vals)
    return vals[min(len(vals) - 1, int(q * len(vals)))]


def _with_units(metrics: dict, spec: list) -> dict:
    """The metrics with their units from ``spec``, which must name exactly
    these metrics; each value must be finite."""
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing or unknown or bad:
        raise ValueError(f"metrics missing {missing}, unknown {unknown}, "
                         f"not finite {bad}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one untraced and one traced round of every "
                         "workload, with all checks")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "georadon" / "cli.py").is_file():
        print(f"error: {SRC} holds no georadon package; run from the root "
              "of a georadon checkout", file=sys.stderr)
        return 2
    os.environ.update(pinned_env())
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        ok = True
        for name in [args.workload] if args.workload else WORKLOADS:
            # one untraced and one traced round, one fresh start: both the
            # end-to-end and the per-layer metrics come out of it
            res = run_workload(name, args.seed, 0.0, True, 1)
            problems = []
            for kind in ("end_to_end", "per_layer"):
                try:
                    _with_units(res["metrics"][kind], spec[kind])
                except ValueError as exc:
                    problems.append(f"{kind}: {exc}")
            good = res["correct"] and not res["failed"] and not problems
            ok &= good
            print(f"SMOKE {name}: {'PASS' if good else 'FAIL'} "
                  f"({res['attempted']} jobs, {res['failed']} failed"
                  + "".join(f"; {p}" for p in problems) + ")")
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")

    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), 0 if args.trace else SETUP_STARTS)
    kind = "per_layer" if args.trace else "end_to_end"
    res["metrics"] = _with_units(res["metrics"][kind], spec[kind])
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
