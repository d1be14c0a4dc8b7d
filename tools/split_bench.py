"""Micro-benchmark of ``fracint._split_weighted`` at 1, 2, 3 and 51 segments.

The calls are captured from public entry points of the tree this script
sits in, then replayed with a fresh subdivision budget each time:

- ``ek_left(0.5, gaussian(), t)`` at t = 0.2, 0.4 and 0.8 makes one call of
  1, 2 and 3 segments (the geometric splits at r = 0.25, 0.5);
- one projective forward point, ``radon_projective_zonal`` at (4,1,2) on
  ``gaussian(0.5)`` of the angle at 0.3, makes one call of 51 segments.

Prints one JSON object: per segment count, the best of 7 repeats of the
mean time of one call in microseconds, and the call's value as float.hex
(equal across two trees exactly when the batch keeps the bits).

    python tools/split_bench.py
"""
from __future__ import annotations

import json
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _captured() -> dict:
    """Segment count -> (args without the budget, budget size) of the first
    call with that many segments."""
    from georadon import fracint as F
    from georadon import profiles as P
    from georadon import radial as R

    calls = {}
    inner = F._split_weighted

    def capture(u_core, lo, hi, p_lo, p_hi, interior, spec, budget):
        n_seg = 1 + sum(lo < p < hi for p in interior)
        calls.setdefault(n_seg, ((u_core, lo, hi, p_lo, p_hi, interior, spec),
                                 budget.left))
        return inner(u_core, lo, hi, p_lo, p_hi, interior, spec, budget)

    F._split_weighted = capture
    try:
        for t in (0.2, 0.4, 0.8):
            F.ek_left(0.5, P.gaussian(), t)
        R.radon_projective_zonal(R.TransformParams(4, 1, 2),
                                 P.gaussian(0.5, arg_kind=P.ArgKind.Angle), 0.3)
    finally:
        F._split_weighted = inner
    return calls


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from georadon.fracint import _split_weighted
    from georadon.quadrature import _Budget

    calls = _captured()
    out = {}
    for n_seg in (1, 2, 3, 51):
        args, left = calls[n_seg]

        def once(args=args, left=left):
            return _split_weighted(*args, _Budget(left))

        number = max(20, 2000 // n_seg)
        best = min(timeit.repeat(once, number=number, repeat=7)) / number
        out[str(n_seg)] = {"us_per_call": round(best * 1e6, 2),
                           "value": once().hex()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
