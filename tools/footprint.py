"""Size and output fingerprint of the georadon source tree.

Prints three things:

- the line count of ``src/`` (``wc -l src/georadon/*.py``);
- the settable-value count: defaulted parameters of every function and
  lambda, plus the fields of every dataclass;
- one SHA-256 per (workload, seed) over the outputs of every job of
  ``perfbench/jobs.py``: the CSV text of a ``radial`` CLI job, the
  ``float.hex`` of every estimate and array element otherwise.  A last
  ``verify`` line hashes the ``float.hex`` of the 30 identity errors of
  ``identity_suite()``, and a ``kernels`` line the ``float.hex`` of
  ``dual_sine_mc`` with the plain, sine and log kernels on the chain's
  tabulated data at 20,000 samples (no benchmark job reaches the sine or
  log kernel).  A ``duality`` line hashes the ``float.hex`` of
  ``duality_check_mc`` in the affine, chord and hyperbolic geometries at
  2,000 and 10,000 samples, on inputs that read frames, offsets and
  Lorentz matrices (the benchmark checks only the affine one).  A
  ``lift`` line hashes the ``float.hex`` of non-zonal ``dual_hyper_mc``
  through the origin and off it, the only reads of the rotations that
  lift chords to geodesics.

Two trees give the same hashes exactly when their outputs agree byte for
byte, so running this on a change and on its parent is a byte-identity
check.  The job definitions are imported read-only; job files and outputs
go into a temporary directory that is removed afterwards.
``tests/test_footprint.py`` computes the seed-0 hashes in process and
compares them with ``tests/data/footprint_seed0.json``, recorded with the
``environment()`` they hold for.

``--dump DIR`` also writes the exact text behind each hash:
``DIR/<workload>-<seed>/<job label>.txt``, ``DIR/verify.txt``,
``DIR/kernels.txt``, ``DIR/duality.txt`` and ``DIR/lift.txt``.
``diff -r`` of two dumps lists every moved row.

    python tools/footprint.py [--seeds 0 1] [--workloads radial mc chain]
                              [--no-outputs] [--dump DIR]

``GEORADON_THREADS`` applies as usual; the hashes must not depend on it.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "georadon").glob("*.py"))


def line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in SOURCES)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values() -> int:
    """Defaulted parameters plus dataclass fields, over the AST."""
    count = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def _hex_text(out) -> str:
    """Exact text of a job output: float.hex of every number it holds."""
    import numpy as np

    from georadon.mc import McEstimate
    if isinstance(out, McEstimate):
        return f"({out.value.hex()},{out.std_error.hex()},{out.n_samples})"
    if isinstance(out, (tuple, list)):
        return "[" + ",".join(_hex_text(o) for o in out) + "]"
    if isinstance(out, np.ndarray):
        return f"{out.shape}:" + ",".join(float(v).hex() for v in out.ravel())
    return float(out).hex()


def _dump(dump, name: str, text: str):
    """Write ``text`` to ``dump/name`` when a dump directory is given."""
    if dump is not None:
        path = Path(dump) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def output_hash(workload: str, seed: int, workdir: str, dump) -> str:
    """SHA-256 over the labelled outputs of one round of a workload."""
    import jobs
    wl = jobs.build(workload, seed, str(Path(workdir) / workload))
    digest = hashlib.sha256()
    for job in wl.jobs:
        out = job.run(None)
        text = Path(out).read_text(encoding="utf-8") if workload == "radial" \
            else _hex_text(out)
        digest.update(f"{job.label}\n{text}\n".encode())
        _dump(dump, f"{workload}-{seed}/{job.label}.txt", text)
    return digest.hexdigest()


def identity_hash(dump) -> str:
    from georadon.verify import identity_suite
    text = "\n".join(f"{r.name} {r.max_rel_err.hex()}"
                     for r in identity_suite())
    _dump(dump, "verify.txt", text)
    return hashlib.sha256(text.encode()).hexdigest()


def kernels_hash(dump) -> str:
    """SHA-256 over the float.hex of the three kernels of ``dual_sine_mc``
    on ``RHO_GRID``, each on the chain's data: the tabulated (n, 0, k)
    transform of the bump of radius 1.2."""
    import warnings

    from georadon import inversion as IV
    from georadon import mc as MC
    from georadon import radial as R
    from georadon.errors import KernelSingularityWarning
    from georadon.quadrature import DEFAULT_QUADRATURE

    h = IV.as_cosh_profile(IV.zonal_bump(1.2), support=1.2)
    lines = []
    for kernel, alpha, triple in (("plain", 0.0, (4, 1, 2)),
                                  ("sine", 2.0, (5, 1, 2)),
                                  ("log", 0.0, (4, 1, 2))):
        n, _, k = triple
        phi = IV._tabulated_forward(R.TransformParams(n, 0, k), h,
                                    DEFAULT_QUADRATURE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelSingularityWarning)
            ests = MC.dual_sine_mc(alpha, R.TransformParams(*triple), phi,
                                   IV.RHO_GRID,
                                   MC.McSpec(seed=14, n_samples=20000),
                                   kernel=kernel)
        lines.append(f"{kernel} {_hex_text(ests)}")
    text = "\n".join(lines)
    _dump(dump, "kernels.txt", text)
    return hashlib.sha256(text.encode()).hexdigest()


def _lorentz(batch):
    """A Gaussian in the distance, times a bounded Lorentz-matrix entry,
    which forms each batch's rotations."""
    import numpy as np
    d = batch.distance_to_origin()
    return np.exp(-d * d) * (1.5 + np.tanh(batch.matrices[:, 0, 1]))


def _every_entry(batch):
    """A phi of every entry of the Lorentz matrices, so it sees every
    column of each rotation."""
    import numpy as np
    n = batch.n
    w = np.linspace(-1.0, 1.0, (n + 1) * (n + 1)).reshape(n + 1, n + 1)
    return np.exp(np.sum(batch.matrices * w, axis=(1, 2)))


def duality_hash(dump) -> str:
    """SHA-256 over the float.hex of (lhs, rhs) of ``duality_check_mc`` in
    each geometry at 2,000 and 10,000 samples: two and four blocks of
    inner estimates a side."""
    import numpy as np

    from georadon import mc as MC
    from georadon import radial as R
    from georadon.profiles import ArgKind, bump, gaussian

    def framed(batch):
        # a Gaussian in the offset, times a squared frame entry
        fr = batch.frames
        extra = np.sum(fr[:, 0, :] ** 2, axis=-1) if fr.shape[2] else 0.0
        return np.exp(-batch.distances ** 2) * (1.0 + extra)

    def offset(batch):
        return np.exp(-batch.distances ** 2) * (1.0 + batch.offsets[:, 0] ** 2)

    cases = (("affine", R.TransformParams(4, 1, 2), framed, offset),
             ("chord", R.TransformParams(4, 0, 2),
              MC.radial_plane_function(bump(0.8, arg_kind=ArgKind.BallRadius)),
              offset),
             ("hyper", R.TransformParams(4, 1, 2), _lorentz,
              MC.zonal_function(gaussian(arg_kind=ArgKind.SinhDistance))))
    lines = []
    for which, p, f, phi in cases:
        for n_samples in (2000, 10000):
            sides = MC.duality_check_mc(which, f, phi, p,
                                        MC.McSpec(seed=17, n_samples=n_samples))
            lines.append(f"{which} {n_samples} {_hex_text(sides)}")
    text = "\n".join(lines)
    _dump(dump, "duality.txt", text)
    return hashlib.sha256(text.encode()).hexdigest()


def lift_hash(dump) -> str:
    """SHA-256 over the float.hex of non-zonal ``dual_hyper_mc`` at 20,000
    samples, at (4, 1, 2), (5, 2, 4) and (6, 2, 4), at a j-geodesic
    through the origin and one at distance 0.5, with ``_lorentz`` and
    ``_every_entry``: the reads of the rotations that lift chords to
    geodesics (every other line reads zonal hyperbolic functions only)."""
    import numpy as np

    from georadon import mc as MC
    from georadon import radial as R

    lines = []
    for triple in ((4, 1, 2), (5, 2, 4), (6, 2, 4)):
        p = R.TransformParams(*triple)
        rot = MC.sample_rotation(p.n, np.random.default_rng(19))
        for dist in (0.0, 0.5):
            t = MC.GeodesicElement(p.n, p.j, rot, dist)
            for name, phi in (("lorentz", _lorentz), ("entries", _every_entry)):
                est = MC.dual_hyper_mc(p, phi, t,
                                       MC.McSpec(seed=19, n_samples=20000))
                lines.append(f"{triple} {dist} {name} {_hex_text(est)}")
    text = "\n".join(lines)
    _dump(dump, "lift.txt", text)
    return hashlib.sha256(text.encode()).hexdigest()


def hashes(seeds, workloads, workdir: str, dump):
    """(label, SHA-256) of each output line, in the order printed: one per
    (workload, seed), then ``verify``, ``kernels``, ``duality`` and
    ``lift``.  ``perfbench`` must be on ``sys.path``."""
    for workload in workloads:
        for seed in seeds:
            yield (f"{workload} seed={seed}",
                   output_hash(workload, seed, workdir, dump))
    yield "verify", identity_hash(dump)
    yield "kernels", kernels_hash(dump)
    yield "duality", duality_hash(dump)
    yield "lift", lift_hash(dump)


def environment() -> dict:
    """What the hashes hold for besides the source: the NumPy and SciPy
    versions, the BLAS NumPy was built with, and the SIMD extensions it
    found on this CPU."""
    import numpy as np
    import scipy
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--workloads", nargs="+",
                    default=["radial", "mc", "chain"])
    ap.add_argument("--no-outputs", action="store_true",
                    help="print only the two counts")
    ap.add_argument("--dump", metavar="DIR", default=None,
                    help="also write the text behind each hash under DIR")
    args = ap.parse_args(argv)
    print(f"src_lines {line_count()}")
    print(f"settable_values {settable_values()}")
    if args.no_outputs:
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory(prefix="footprint-") as tmp:
        for label, digest in hashes(args.seeds, args.workloads, tmp,
                                    args.dump):
            print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
