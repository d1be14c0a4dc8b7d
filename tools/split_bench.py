"""Micro-benchmark of the batched quadrature behind ``ek_left``/``ek_right``.

Split batches are captured from public entry points of the tree this script
sits in (``quadrature._integrate_splits``), then replayed with a fresh
subdivision budget each time:

- ``ek_left(0.5, gaussian(), t)`` at t = 0.2, 0.4 and 0.8 is one integral of
  1, 2 and 3 segments (the geometric splits at r = 0.25, 0.5);
- one projective forward point, ``radon_projective_zonal`` at (4,1,2) on
  ``gaussian(0.5)`` of the angle at 0.3, is one integral of 51 segments.

Two 32-point grids are timed through their public calls, so they run on a
tree without the batch as well:

- ``forward-32``: ``radon_chord_radial`` at (4,1,2) on ``gaussian(0.5)`` of
  the ball radius at 32 points in [0.05, 0.95], 32 split integrals;
- ``tail-32``: ``ek_right(0.5, gaussian(), t)`` at 32 points in [0, 2.5],
  32 infinite tails;
- ``climb-32``: ``ek_left(0.5, f, t)`` at 32 points in [0.1, 2.0] of
  f(r) = exp(-r^2) (1 + |r - 0.7|) on [0, 2], whose kink at 0.7 is not a
  declared breakpoint: the segments across it pass 32 nodes and bisect.

One case times the command-line front end instead:

- ``cli-convert``: ``cli.main`` in-process on a 64-point ``convert`` job
  (Euclidean radius to elliptic angle on [0, 2], CSV) whose job and
  output files sit in a temporary directory: parsing, the job, the
  conversion and the written table.

Prints one JSON object: per case the best of 7 repeats of the mean time of
one call in microseconds, the values as float.hex (equal across two trees
exactly when the batch keeps the bits) and, for the grids, the calls of
the input profile in one call; for ``cli-convert`` the SHA-256 of the
written file in place of the values.

    python tools/split_bench.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _grids(calls: list) -> dict:
    """Case name -> the public call of a 32-point grid, whose input profile
    appends to ``calls`` once per call of it."""
    import dataclasses

    import numpy as np

    from georadon import fracint as F
    from georadon import profiles as P
    from georadon import radial as R

    def counted(f):
        def fn(x):
            calls.append(None)
            return f.fn(x)
        return dataclasses.replace(f, fn=fn)

    ball = counted(P.gaussian(0.5, arg_kind=P.ArgKind.BallRadius))
    gauss = counted(P.gaussian())
    kinked = counted(P.Profile1D(0.0, 2.0, lambda r: np.exp(-r * r) * (
        1.0 + np.abs(r - 0.7))))
    return {
        "forward-32": lambda: R.radon_chord_radial(
            R.TransformParams(4, 1, 2), ball, np.linspace(0.05, 0.95, 32)),
        "tail-32": lambda: F.ek_right(0.5, gauss, np.linspace(0.0, 2.5, 32)),
        "climb-32": lambda: F.ek_left(0.5, kinked, np.linspace(0.1, 2.0, 32)),
    }


def _captured() -> dict:
    """Segment count -> replay of the first one-integral split batch with
    that many segments, with a fresh budget of the same size."""
    import numpy as np

    from georadon import fracint as F
    from georadon import profiles as P
    from georadon import radial as R

    calls = {}
    inner = F._integrate_splits

    def capture(core, splits, spec, left):
        (lo, hi, _, _, interior), = splits
        n_seg = 1 + sum(lo < p < hi for p in interior)
        units = left.copy()
        calls.setdefault(n_seg, lambda: inner(core, splits, spec, units.copy()))
        return inner(core, splits, spec, left)

    F._integrate_splits = capture
    try:
        for t in (0.2, 0.4, 0.8):
            F.ek_left(0.5, P.gaussian(), t)
        R.radon_projective_zonal(R.TransformParams(4, 1, 2),
                                 P.gaussian(0.5, arg_kind=P.ArgKind.Angle), 0.3)
    finally:
        F._integrate_splits = inner
    return {f"split-{n}": calls[n] for n in (1, 2, 3, 51)}


def _cli_convert(tmp: Path):
    """One ``cli.main`` call of the ``cli-convert`` job in ``tmp``, and the
    path of the table it writes."""
    from georadon import cli

    table, job = tmp / "convert.csv", tmp / "convert.json"
    job.write_text(json.dumps({
        "command": "convert",
        "convert": {"from": "euclidean_affine", "to": "elliptic"},
        "grid": {"lo": 0.0, "hi": 2.0, "count": 64},
        "output": {"path": str(table), "format": "csv"}}))

    def once():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["convert", "--job", str(job)]) != 0:
                raise RuntimeError("cli-convert job failed")
    return once, table


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    calls = []
    out = {}
    for name, once in {**_captured(), **_grids(calls)}.items():
        number = 200 if name.startswith("split-") else 20
        best = min(timeit.repeat(once, number=number, repeat=7)) / number
        calls.clear()
        out[name] = {"us_per_call": round(best * 1e6, 2),
                     "value": [float(v).hex() for v in np.ravel(once())]}
        if not name.startswith("split-"):
            out[name]["input_calls"] = len(calls)
    with tempfile.TemporaryDirectory() as tmp:
        once, table = _cli_convert(Path(tmp))
        best = min(timeit.repeat(once, number=200, repeat=7)) / 200
        out["cli-convert"] = {
            "us_per_call": round(best * 1e6, 2),
            "sha256": hashlib.sha256(table.read_bytes()).hexdigest()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
