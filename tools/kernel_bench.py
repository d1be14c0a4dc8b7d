"""Micro-benchmark of ``mc.dual_sine_mc`` with its plain, sine and log
kernels, of ``mc.radon_hyper_mc`` on the chain's table, and of the Haar
draw under every Monte Carlo estimator.

Each kernel runs on the chain's data, the tabulated (n, 0, k) transform of
the bump of radius 1.2, over ``RHO_GRID`` with 50,000 samples (seed 14):

- plain at (4, 1, 2);
- sine at (5, 1, 2) with alpha = 2;
- log at (4, 1, 2).

``GEORADON_THREADS`` is set to 1 and then 2 for the timed calls.  Prints one
JSON object: per kernel and thread count, the best and the median of 5
wall times of one call in seconds and the ``tracemalloc`` peak of one more
call in MiB, and per kernel the SHA-256 of the lines
"value.hex() std_error.hex()" of its estimates (equal across two trees
exactly when they agree byte for byte; the thread count must not move it).

The ``zonal`` row times the chain's lhs the same way: ``radon_hyper_mc``
at (4, 1, 2) on the zonal lift of the tabulated (4, 0, 1) transform of
that bump, at a 2-geodesic at distance 0.6, with 100,000 samples (seed
14).  Its times put the thread scaling of a profile of many small ufuncs
on record; a best of 5 understates contention between the two workers,
as it keeps the runs in which one of them was idle, so the 2-thread /
1-thread ratio is read off the medians.

The ``haar`` row times the Haar draw under every Monte Carlo estimator,
``mc._haar_slices(m, units)`` over one chunk of 8192 samples, for m =
2..6, on the calling thread (no worker pool): per m, the best and the
median of 5 wall times in seconds, the ``tracemalloc`` peak of one more
draw in MiB, and the SHA-256 of the bytes of its factors, from a generator
seeded afresh (seed 14, chunk 0) for every call.

    python tools/kernel_bench.py
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = (("plain", 0.0, (4, 1, 2)), ("sine", 2.0, (5, 1, 2)),
         ("log", 0.0, (4, 1, 2)))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from georadon import inversion as IV
    from georadon import mc as MC
    from georadon import radial as R
    from georadon.errors import KernelSingularityWarning
    from georadon.quadrature import DEFAULT_QUADRATURE

    h = IV.as_cosh_profile(IV.zonal_bump(1.2), support=1.2)

    def table(n, k):
        return IV._tabulated_forward(R.TransformParams(n, 0, k), h,
                                     DEFAULT_QUADRATURE)

    out = {}
    for kernel, alpha, triple in CASES:
        phi = table(triple[0], triple[2])

        def once():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KernelSingularityWarning)
                return MC.dual_sine_mc(alpha, R.TransformParams(*triple), phi,
                                       IV.RHO_GRID,
                                       MC.McSpec(seed=14, n_samples=50000),
                                       kernel=kernel)

        out[kernel] = _timed_by_threads(once)

    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.eye(4)
    rot[0, 0] = rot[2, 2] = c
    rot[0, 2], rot[2, 0] = -s, s
    zonal = MC.zonal_function(table(4, 1))
    z = MC.GeodesicElement(4, 2, rot, 0.6)
    out["zonal"] = _timed_by_threads(lambda: [MC.radon_hyper_mc(
        R.TransformParams(4, 1, 2), zonal, z,
        MC.McSpec(seed=14, n_samples=100_000))])

    def haar(m):
        units = [(0, 0, 8192, MC._rng(MC.McSpec(seed=14, n_samples=8192),
                                      0))]
        return [q for _, _, q in MC._haar_slices(m, units)]

    out["haar"] = {}
    for m in range(2, 7):
        times, digests = [], set()
        for _ in range(5):
            t0 = time.perf_counter()
            factors = haar(m)
            times.append(time.perf_counter() - t0)
            digests.add(hashlib.sha256(
                b"".join(q.tobytes() for q in factors)).hexdigest())
        out["haar"][f"m={m}"] = {"s": round(min(times), 5),
                                 "median_s": round(statistics.median(times),
                                                   5),
                                 "peak_mib": _traced_peak_mib(haar, m),
                                 "sha256": digests.pop()
                                 if len(digests) == 1 else "not repeatable"}
    print(json.dumps(out))
    return 0


def _timed_by_threads(once) -> dict:
    """Best and median of 5 wall times and the traced peak of ``once()``
    at 1 and 2 worker threads, and the SHA-256 of the estimates it returns
    (one digest for both)."""
    row, digests = {}, set()
    for threads in ("1", "2"):
        os.environ["GEORADON_THREADS"] = threads
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            ests = once()
            times.append(time.perf_counter() - t0)
            text = "\n".join(f"{e.value.hex()} {e.std_error.hex()}"
                             for e in ests)
            digests.add(hashlib.sha256(text.encode()).hexdigest())
        row[f"s_threads_{threads}"] = round(min(times), 4)
        row[f"median_s_threads_{threads}"] = round(statistics.median(times), 4)
        row[f"peak_mib_threads_{threads}"] = _traced_peak_mib(once)
    row["sha256"] = digests.pop() if len(digests) == 1 \
        else "thread-dependent"
    return row


def _traced_peak_mib(fn, *args) -> float:
    """The ``tracemalloc`` peak of one call ``fn(*args)``, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    sys.exit(main())
