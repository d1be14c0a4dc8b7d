"""Monte Carlo evaluation of the transforms on general (non-radial)
functions: Haar sampling over rotation groups, plane/geodesic samplers,
and stochastic duality checks.

Determinism contract: every estimator value depends only on
(seed, stream_id, n_samples).  A budget is cut into fixed-size chunks, and
each chunk draws from its own counter-based generator, keyed by the seed,
the stream and the chunk index.  The chunks of one or many estimates are
packed into blocks that run on the worker pool; a block of planes
evaluates the integrand once per slice of its Haar draw (below), and a
block of geodesics once per run of one target's chunks, which keeps the
bits of each sample.  A zonal read of geodesics
(``zonal_function``) evaluates its profile once per block, on distances
read from each sample's radius alone, and keeps none of its Haar draw.
Each chunk is summed alone, and the chunk sums of an estimate are added
pairwise in chunk order, so results are bit-identical however the chunks
are grouped and however many threads run them.

Memory contract: a block draws, factors and uses its per-sample Haar
arrays in sequential slices of rows (``_slice_rows``: as many (m, m)
matrices as ``_SLICE_BYTES`` holds, and at least ``_SLICE_MIN``), so no
block holds more than one slice of a Haar draw, of NumPy's QR copy of it
or of its R, whatever n is.  A unit draws its rows from its own generator
in order, so the slices of a unit are its one draw, and a stacked QR gives
each matrix the bits it has alone: the slicing moves no byte.  What a
block keeps is what its estimator reads.  ``dual_affine_mc`` (and through
it ``dual_hyper_mc``) keeps nothing: each slice's Haar factor goes into
that slice's plane directions, and the integrand runs once per slice.
``radon_affine_mc`` keeps the block's Haar factors, since a unit draws its
offsets after its whole Haar draw, and runs the integrand once per slice.
The plain kernel of ``dual_sine_mc`` keeps the k entries of row n-1 of
each factor, the sine and log kernels row n-1 and the radius, and from
them each chunk stages its distances in place in the rows of its terms,
which its kernel factor and weight then overwrite in groups of rows of at
most ``_FACTOR_BYTES``, so its widest arrays besides the terms are one
group's.  A zonal ``radon_hyper_mc`` read keeps no Haar array, and a
general ``f`` is handed whole blocks of geodesics, which is refused
(``DomainError``) where one (B, n+1, n+1) array of the block would pass
``_BATCH_BYTES``.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, KernelSingularityWarning,
                     McConvergenceWarning)
from .models import Model, _distance_to_base, measure_density
from .profiles import ArgKind, Profile1D, convert
from .special import dual_transform_limit_constant, gamma_nk

CHUNK = 8192
#: the bytes of one group of a chunk's distance rows that ``dual_sine_mc``
#: hands its kernel factor in one call: max(1, _FACTOR_BYTES // (8 count))
#: rows, five of a full chunk (40,960 distances).  A profile such as the
#: chain's 201-coefficient table runs ~600 ufuncs per call, each releasing
#: the GIL, and narrow calls gain little from a second worker: Clenshaw's
#: recurrence, 2-thread speedup by points per call (2 vCPUs of a shared
#: Xeon), is 0.54 at 10k, 0.83 at 20k, 1.28 at 30k, 1.47 at 45k and 1.91
#: at 60k, and past 80k its buffers spill L2.  The chain's two reconstruct
#: jobs, median ms at 1 / 2 threads and the (4, 1, 2) job's traced peak in
#: MiB at 1 / 2 threads, by rows a full chunk's group:
#: 4 rows 300 / 264, 4.13 / 7.72; 5 rows 303 / 219, 4.30 / 8.61;
#: 6 rows 314 / 232, 4.74 / 9.50; 8 rows 325 / 201, 5.19 / 10.39.
#: Groups of 4 whose distances were formed apart peaked at 4.73 / 9.47.
_FACTOR_BYTES = 5 * 8 * CHUNK
#: the block widths of ``radon_hyper_mc``, in chunks: ``f`` runs on a
#: block's samples at once, so its ufuncs are wide, as above.  A general
#: ``f`` gets batches that can form Q, R, ``right`` and ``matrices`` for
#: every sample, so its blocks are four chunks.  A zonal read holds a few
#: values a sample, so its blocks are eight: 13 chunks on two workers are
#: then one block per worker, and each worker evaluates the profile once.
#: Median seconds of the chain's lhs (``tools/kernel_bench.py``, zonal
#: row) at 1 / 2 worker threads: width 4 with the Gaussians kept 0.026-
#: 0.029 / 0.022-0.025, width 8 without them 0.024-0.025 / 0.015.
_HYPER_BLOCK = 4
_ZONAL_BLOCK = 8
#: the byte budget of one slice of a block's Haar draw, and the fewest
#: matrices a slice holds, since a stacked QR pays per call as well as per
#: matrix.  On 2 vCPUs of a shared Xeon at 2 threads, 256 KiB slices put
#: the peak RSS of the ``mc`` benchmark at 48.6 MB against 53.0 MB with
#: whole chunks (1 MiB slices, whole chunks at its m <= 4: 56.2 MB), and
#: at 64 a slice the affine (80, 0, 1) duality check at 20,000 samples ran
#: in 8.5-10.8 s against 9.2-12.0 s with whole chunks.
_SLICE_BYTES = 1 << 18
_SLICE_MIN = 64
#: the largest (B, n+1, n+1) array of one block that a general
#: ``radon_hyper_mc`` ``f`` may be handed
_BATCH_BYTES = 1 << 29
#: distances below this are clamped in the singular sine kernel
KERNEL_FLOOR = 1e-3


def worker_threads() -> int:
    """Monte Carlo worker threads: GEORADON_THREADS capped at the CPUs this
    process may run on, else that CPU count.  The CPUs are the affinity
    mask where the platform has one, else all of them."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    env = os.environ.get("GEORADON_THREADS", "").strip()
    if not env:
        return cpus
    try:
        return min(max(1, int(env)), cpus)
    except ValueError:
        raise DomainError(
            f"GEORADON_THREADS must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class McSpec:
    """Seeded sample budget; estimators are deterministic in these fields."""

    seed: int
    n_samples: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 < self.n_samples <= 10 ** 9:
            raise DomainError("n_samples must be positive and at most 1e9")
        if self.seed < 0 or self.stream_id < 0:
            raise DomainError("seed and stream_id must be nonnegative")

    def substream(self, offset: int, n_samples: Optional[int] = None) -> "McSpec":
        """The budget ``n_samples`` (else this one's) on stream
        ``stream_id + offset``."""
        return McSpec(self.seed,
                      self.n_samples if n_samples is None else n_samples,
                      self.stream_id + offset)


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_samples: int

    def agrees_with(self, other: float) -> bool:
        """Whether ``other`` is within 4 standard errors of the value."""
        return abs(self.value - other) <= 4.0 * max(self.std_error, 1e-300)


def _rng(spec: McSpec, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=spec.seed,
                                 spawn_key=(spec.stream_id, chunk_index))
    return np.random.Generator(np.random.Philox(seq))


def _unit_sums(specs: list, terms: Callable, width: int,
               chunk: int = CHUNK) -> list:
    """(count, sum, sum of squares) of each chunk of each budget
    ``specs[t]``: one list per target, in chunk order.

    A unit is one chunk of one target.  The units, in order, are packed
    into cells of at most CHUNK samples, and no unit spans two cells.  A
    block is a run of at most ``width`` consecutive cells: the blocks are
    as few as that allows, rounded up to a multiple of the worker count
    so that each worker gets an equal share, and their sizes differ by at
    most one cell (13 cells at width 4 on two workers are blocks of 4, 3,
    3 and 3).  ``terms(units)`` gets a block's units as (target, start,
    count, rng), each with the generator of its own chunk, and returns the
    terms of their samples in unit order: a vector, or one row per
    estimate.  Each unit's slice is summed as a chunk of its own would be,
    and the blocks run on the worker pool.

    The width is the caller's: ``radon_hyper_mc`` takes ``_ZONAL_BLOCK``
    cells for a zonal read and ``_HYPER_BLOCK`` for any other ``f``, so
    its profile runs on wide arrays, and the estimators whose time is in
    Haar QRs take one, as wider blocks hold more arrays for no gain.
    """
    cells, room = [], 0
    for t, spec in enumerate(specs):
        for start in range(0, spec.n_samples, chunk):
            count = min(chunk, spec.n_samples - start)
            if count > room:
                cells.append([])
                room = CHUNK
            cells[-1].append((t, start, count))
            room -= count
    workers = worker_threads()
    n_blocks = min(len(cells), -(-len(cells) // width // workers) * workers)
    size, extra = divmod(len(cells), n_blocks)
    blocks, lo = [], 0
    for b in range(n_blocks):
        hi = lo + size + (b < extra)
        blocks.append([unit for cell in cells[lo:hi] for unit in cell])
        lo = hi

    def run(block):
        units = [(t, start, count, _rng(specs[t], start // chunk))
                 for t, start, count in block]
        vals = np.asarray(terms(units), dtype=float)
        sums, lo = [], 0
        for _, _, count in block:
            v = vals[..., lo:lo + count]
            sums.append((count, np.sum(v, axis=-1), np.sum(v * v, axis=-1)))
            lo += count
        return sums

    threads = min(workers, len(blocks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, blocks))
    else:
        done = [run(block) for block in blocks]
    parts = [[] for _ in specs]
    for block, sums in zip(blocks, done):
        for (t, _, _), part in zip(block, sums):
            parts[t].append(part)
    return parts


def _slice_rows(m: int) -> int:
    """Rows of one slice of a block's (m, m) Haar matrices."""
    return max(_SLICE_MIN, _SLICE_BYTES // (8 * m * m))


def _gaussian_slices(m: int, units: list):
    """The standard Gaussian (m, m) draws of a block's units, one slice of
    ``_slice_rows(m)`` rows at a time: yields (rows of the block, pieces,
    draws), where pieces lists the (target, rows of the slice) of each unit
    in the slice, in order.  Each unit fills its rows in order from its own
    generator, so its pieces are the bits and the stream of its one
    (count, m, m) draw.  The draws are one buffer, refilled for the next
    slice; SO(1) is {1}, so for m = 1 nothing is drawn and they are ones."""
    total = sum(count for _, _, count, _ in units)
    step = _slice_rows(m)
    buf = (np.ones if m == 1 else np.empty)((min(step, total), m, m))
    queue, left = iter(units), 0
    for lo in range(0, total, step):
        g, pieces, at = buf[:min(step, total - lo)], [], 0
        while at < len(g):
            if not left:
                t, _, left, rng = next(queue)
            take = min(left, len(g) - at)
            if m > 1:
                rng.standard_normal(out=g[at:at + take])
            pieces.append((t, slice(at, at + take)))
            at += take
            left -= take
        yield slice(lo, lo + len(g)), pieces, g


def _haar_slices(m: int, units: list):
    """``_gaussian_slices`` with each slice's draws replaced by their Haar
    factors, from one QR a slice across the units in it."""
    for rows, pieces, g in _gaussian_slices(m, units):
        yield rows, pieces, g if m == 1 else _haar_q(g)


def _joined(arrays: list) -> np.ndarray:
    """The arrays joined along the first axis; a lone one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _mean_stderr(parts: list):
    """Mean and standard error from chunk sums, added pairwise in chunk
    order so that they do not depend on the thread count."""
    n = sum(c for c, _, _ in parts)
    mean = _pairwise([s for _, s, _ in parts]) / n
    var = np.maximum(_pairwise([q for _, _, q in parts]) - n * mean * mean,
                     0.0) / max(n - 1, 1)
    return mean, np.sqrt(var / n)


def _estimates(terms: Callable, specs: list, width: int) -> list:
    """One McEstimate per budget of ``_unit_sums(specs, terms, width)``.  A
    budget of four chunks or more warns when its standard error stops
    shrinking."""
    out = []
    for spec, parts in zip(specs, _unit_sums(specs, terms, width)):
        mean, stderr = _mean_stderr(parts)
        if len(parts) >= 4:
            _, se_q = _mean_stderr(parts[:max(1, len(parts) // 4)])
            if se_q > 0 and stderr / se_q > 0.8:
                warnings.warn(
                    "running standard error is not shrinking at the n^-1/2 "
                    "rate", McConvergenceWarning, stacklevel=4)
        out.append(McEstimate(float(mean), float(stderr), spec.n_samples))
    return out


def _pairwise(vals):
    vals = list(vals)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


# -- rotation/frame machinery ---------------------------------------------------

def sample_rotations(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed batch of SO(n) matrices, shape (size, n, n)."""
    if n < 1:
        raise DomainError("rotation dimension must be >= 1")
    return _haar_factor(_haar_gaussian(n, size, rng))


def _haar_gaussian(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """The draw a Haar batch of SO(n) is factored from: standard Gaussian
    (size, n, n) matrices.  SO(1) is {1}, so for n = 1 nothing is drawn
    and the draw is its own factor."""
    if n == 1:
        return np.ones((size, 1, 1))
    return rng.standard_normal((size, n, n))


def _haar_factor(g: np.ndarray) -> np.ndarray:
    """The Haar factor (``_haar_q``) of each Gaussian matrix of a stack,
    one slice of ``_slice_rows`` matrices at a time, so that NumPy's QR
    copy and R are never formed for more than one slice."""
    m = g.shape[-1]
    if m == 1:
        return g
    q, step = np.empty_like(g), _slice_rows(m)
    for lo in range(0, len(g), step):
        q[lo:lo + step] = _haar_q(g[lo:lo + step])
    return q


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q diag(d) from the QR of each Gaussian matrix, d the signs of R's
    diagonal, the last negated where det = -1 (Haar is kept).  NumPy's QR
    is Householder, Q = H_1...H_m with H_m = I, so det(Q diag d) =
    (-1)^(m-1) prod(d) if no H_i (i < m) is I: true for Gaussian g, where
    that needs a column exactly zero below the diagonal (~2^-52 a step)."""
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[:, -1] *= (-1.0) ** (g.shape[-1] - 1) * np.prod(d, axis=-1)
    q *= d[:, None, :]
    return q


def sample_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed SO(n) matrix."""
    return sample_rotations(n, 1, rng)[0]


@dataclass(frozen=True)
class Frame:
    """Orthonormal columns spanning a linear subspace."""

    columns: np.ndarray        # (n, d)

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=float)
        object.__setattr__(self, "columns", c)
        d = c.shape[1]
        if d and np.max(np.abs(c.T @ c - np.eye(d))) > 1e-12:
            raise DomainError("frame columns are not orthonormal to 1e-12")


@dataclass(frozen=True)
class AffinePlane:
    """A d-plane as an orthonormal frame plus an orthogonal offset."""

    frame: Frame
    offset: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "offset", off)
        c = self.frame.columns
        if c.shape[1] and np.max(np.abs(c.T @ off)) > 1e-12:
            raise DomainError("offset is not orthogonal to the frame")


@dataclass(frozen=True)
class PlaneBatch:
    """Batched affine planes; ``frames`` is (B, n, d), ``offsets`` (B, n)."""

    frames: np.ndarray
    offsets: np.ndarray

    @property
    def distances(self) -> np.ndarray:
        return np.linalg.norm(self.offsets, axis=-1)


def complete_rotation(columns: np.ndarray) -> np.ndarray:
    """Deterministic g in SO(n) whose last columns are the given orthonormal
    ones.  A stack (..., n, d) of column blocks gives a stack, from one
    batched QR and one batched det: each g has the bits it has alone."""
    n, d = columns.shape[-2:]
    eye = np.broadcast_to(np.eye(n), columns.shape[:-1] + (n,))
    basis = np.linalg.qr(np.concatenate([columns, eye], axis=-1))[0]
    g = np.concatenate([basis[..., d:n], columns], axis=-1)
    # flipping a frame column keeps its span
    g[np.linalg.det(g) < 0, :, 0 if d < n else -1] *= -1.0
    return g


# -- hyperbolic elements ----------------------------------------------------------

def _embed_block(block: np.ndarray, n: int, coords) -> np.ndarray:
    """The identity of E^{n,1} with ``block`` (one matrix or a batch) on the
    coordinates ``coords``; every Lorentz matrix here is built by it."""
    idx = np.asarray(coords)
    m = np.broadcast_to(np.eye(n + 1),
                        block.shape[:-2] + (n + 1, n + 1)).copy()
    m[..., idx[:, None], idx] = block
    return m


def _boost(n: int, d: int, ch, sh) -> np.ndarray:
    """Boost by (cosh, sinh) in the (x_{n-d}, x_{n+1}) plane of E^{n,1}:
    one matrix for floats, a batch for arrays."""
    block = np.moveaxis(np.array([[ch, sh], [sh, ch]]), (0, 1), (-2, -1))
    return _embed_block(block, n, (n - d - 1, n))


def hyperbolic_rotation(n: int, d: int, r: float) -> np.ndarray:
    """Hyperbolic rotation in the (x_{n-d}, x_{n+1}) plane of E^{n,1}."""
    return _boost(n, d, math.cosh(r), math.sinh(r))


@dataclass(frozen=True)
class GeodesicElement:
    """A d-geodesic in factored form: rotation * hyperbolic shift * base."""

    n: int
    dim: int
    rotation: np.ndarray       # (n, n) spatial rotation
    distance: float


def _formed_once(fn: Callable) -> property:
    """A read-only property formed on first read and kept on the instance:
    ``functools.cached_property`` without the lock that, before Python
    3.12, it holds across every instance of the class, which would queue
    the worker threads that factor their own batches.  Two threads reading
    one batch at once both form it, with the same bytes."""
    name = fn.__name__

    def get(self):
        if name not in self.__dict__:
            self.__dict__[name] = fn(self)
        return self.__dict__[name]
    return property(get, doc=fn.__doc__)


@dataclass(frozen=True)
class GeodesicBatch:
    """Batched d-geodesics in SO_0(n,1), in factored form: element b is
    ``left @ E(S_b) @ boost(n, dim, rho[b])``.  S_b is a rotation of the
    last m spatial coordinates, E embeds it, and one ``left`` is shared by
    the batch (None is the identity, and then m = n).

    S is the Haar factor of the Gaussian draw ``source``, (B, m, m); the
    draw is made eagerly, so the generator advances as for a formed batch,
    but the factorization runs only when ``rotations``, ``right`` or
    ``matrices`` is first read.  A distance read (``distance_to_origin``)
    forms none of them when row n of ``left`` vanishes on S's coordinates,
    as it does for every batch the package builds: row n of ``left @
    E(S)`` is then row n of ``left``, so S drops out of the distance.
    ``radon_hyper_mc`` reads a zonal ``f`` without a batch at all, through
    the same distance (``_zonal_distance``).
    """

    dim: int
    rho: np.ndarray                      # (B,) boost of each element
    source: np.ndarray | PlaneBatch      # what S is formed from
    left: Optional[np.ndarray] = None    # (n+1, n+1)

    @property
    def n(self) -> int:
        return self.source.shape[1] if self.left is None \
            else len(self.left) - 1

    @_formed_once
    def rotations(self) -> np.ndarray:
        """S, shape (B, m, m)."""
        return _haar_factor(self.source)

    @_formed_once
    def right(self) -> np.ndarray:
        """The factors E(S_b) boost(rho_b), shape (B, n+1, n+1)."""
        n, rot = self.n, self.rotations
        m = rot.shape[-1]
        block = _embed_block(rot, m, range(m)) \
            @ _boost(m, self.dim, np.cosh(self.rho), np.sinh(self.rho))
        return block if m == n else \
            _embed_block(block, n, range(n - m, n + 1))

    @_formed_once
    def matrices(self) -> np.ndarray:
        """The full products, shape (B, n+1, n+1)."""
        if self.left is None:
            return self.right
        return np.einsum("ij,bjl->bil", self.left, self.right)

    def distance_to_origin(self) -> np.ndarray:
        """Geodesic distance of each element to the base point."""
        n, left = self.n, self.left
        if left is not None and np.any(left[n, n - self.source.shape[-1]:n]):
            return _distance_to_base(
                np.einsum("j,bjl->bl", left[n], self.right), n, self.dim)
        return _zonal_distance(1.0 if left is None else left[n, n], self.rho)


def _zonal_distance(corner, rho: np.ndarray) -> np.ndarray:
    """Distance to the base point of the d-geodesics ``left @ E(S) @
    boost(n, d, rho)`` when row n of ``left`` vanishes on S's m > d
    coordinates, with ``corner`` (a scalar, or one per geodesic) its entry
    n.  Row n of each product is then row n of ``left @ boost(rho)``: its
    entries n-d..n-1 are zeros of ``left``, and its entry n is 0 sinh rho
    + ``corner`` cosh rho, since the boost's other coordinate n-d-1 is one
    of S's.  The distance reads entries n-d..n, so it reads ``corner``
    cosh rho alone, with the bits of the full row."""
    return _distance_to_base((corner * np.cosh(rho))[:, None], 0, 0)


class _ChordGeodesics(GeodesicBatch):
    """Ball chords lifted to geodesics: ``source`` is the PlaneBatch of
    chords, S_b the rotation that takes the last k + 1 coordinates onto
    chord b's unit offset and frame, and rho_b artanh of its distance."""

    @property
    def n(self) -> int:
        return self.source.frames.shape[1]

    @_formed_once
    def rotations(self) -> np.ndarray:
        """S, shape (B, n, n).  A chord through the centre (offset below
        1e-14) has a boost below 1e-14, so any direction off its frame
        serves: S completes its frame alone."""
        chords = self.source
        dist = chords.distances
        u = chords.offsets / np.maximum(dist, 1e-300)[:, None]
        return _completions(chords.frames,
                            np.where((dist > 1e-14)[:, None], u, 0.0))


#: the coordinates of a zonal profile: hyperbolic distance, its cosh, sinh
#: and tanh
ZONAL_KINDS = frozenset({ArgKind.GeodesicDistance, ArgKind.CoshDistance,
                         ArgKind.SinhDistance, ArgKind.TanhDistance})


def _at_distance(profile: Profile1D) -> Callable:
    """A zonal profile as a function of the geodesic distance."""
    kind = profile.arg_kind
    if kind not in ZONAL_KINDS:
        raise DomainError(f"profile kind {kind} is not zonal")
    return lambda d: profile(convert(d, ArgKind.GeodesicDistance, kind))


def zonal_function(profile: Profile1D) -> Callable:
    """Lift a zonal profile to a function on geodesic batches: the profile
    at each geodesic's distance to the base point.  The lift declares
    itself (a ``partial`` of ``_zonal_read``), so that ``radon_hyper_mc``
    reads the profile on distances alone, without a batch."""
    return partial(_zonal_read, _at_distance(profile))


def _zonal_read(at: Callable, batch: GeodesicBatch) -> np.ndarray:
    return at(batch.distance_to_origin())


def radial_plane_function(profile: Profile1D) -> Callable:
    """Lift a radial profile to a function on plane batches."""
    def fn(batch: PlaneBatch) -> np.ndarray:
        return profile(batch.distances)
    return fn


# -- estimators -------------------------------------------------------------------

def radon_affine_mc(p, f: Callable, zeta: AffinePlane,
                    mc: McSpec) -> McEstimate:
    """Unbiased estimate of the forward transform of f at the plane zeta.

    Direction frames are sampled Haar over the rotations of the plane, the
    transverse offset from a standard Gaussian envelope with importance
    correction.  ``f`` receives a PlaneBatch and must return one value per
    plane.
    """
    return _radon_affine(p, f, [(zeta.frame.columns, zeta.offset)], [mc])[0]


def _radon_affine(p, f: Callable, zetas: list, specs: list) -> list:
    """``radon_affine_mc`` at each plane ``zetas[t]`` = (frame columns,
    offset), taken as orthonormal and orthogonal, on budget ``specs[t]``:
    one ``f`` call per slice of a block's Haar draw."""
    n, j, k = p.n, p.j, p.k
    leads, vnorm = [], []
    for eta, v in zetas:
        if eta.shape != (n, k):
            raise DomainError(f"expected an (n, k) = ({n}, {k}) frame")
        v = np.asarray(v, dtype=float)
        vnorm.append(float(np.linalg.norm(v)))
        leads.append(v / vnorm[-1] if vnorm[-1] > 0 else np.zeros(n))
    g = _completions(np.stack([eta for eta, _ in zetas]), np.stack(leads))
    log_norm = 0.5 * (k - j) * math.log(2 * math.pi)

    def terms(units):
        # a unit draws its offsets after its whole Haar draw, so the
        # block's factors gamma are kept, one slice each
        gams = list(_haar_slices(k, units))
        z = _joined([rng.standard_normal((count, k - j))
                     for _, _, count, rng in units])
        out = np.empty(len(z))
        for rows, pieces, gam in gams:
            zs = z[rows]
            w = np.exp(log_norm + np.sum(zs * zs, axis=1) / 2)
            # local coordinates inside the k-block: offset = |v| e_{n-k} +
            # z, z rotated by gamma within the k-block
            local = np.zeros((len(zs), n))
            local[:, n - k:] = np.einsum("bij,bj->bi", gam[:, :, :k - j], zs)
            offs, dirs = np.empty((len(zs), n)), np.empty((len(zs), n, j))
            for t, part in pieces:
                # each plane's samples go through its own g
                local[part, n - k - 1] = vnorm[t]
                offs[part] = local[part] @ g[t].T
                dirs[part] = np.einsum("ij,bjl->bil", g[t][:, n - k:],
                                       gam[part, :, k - j:])
            out[rows] = np.asarray(f(PlaneBatch(dirs, offs)),
                                   dtype=float) * w
        return out

    return _estimates(terms, specs, 1)


def _completions(frames: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """``complete_rotation`` of each frame of a stack (B, n, d), led by the
    unit column ``leads[b]`` unless that row is zero: a plane through the
    origin, or a chord through the centre, has one column fewer.  One
    stacked call per column count, scattered back by mask."""
    led = np.any(leads != 0.0, axis=1)
    cols = np.concatenate([leads[:, :, None], frames], axis=2)
    g = np.empty(frames.shape[:2] + frames.shape[1:2])
    for mask, block in ((led, cols), (~led, frames)):
        if np.any(mask):
            g[mask] = complete_rotation(block[mask])
    return g


def dual_affine_mc(p, phi: Callable, tau: AffinePlane,
                   mc: McSpec) -> McEstimate:
    """Unbiased estimate of the dual transform of phi at the plane tau:
    the average of phi over Haar-rotated k-planes containing tau."""
    return _dual_affine(p, phi, [(tau.frame.columns, tau.offset)], [mc])[0]


def _dual_affine(p, phi: Callable, taus: list, specs: list) -> list:
    """``dual_affine_mc`` at each plane ``taus[t]`` = (frame columns,
    offset), taken as orthonormal and orthogonal, on budget ``specs[t]``:
    one ``phi`` call per slice of a block's Haar draw."""
    n, j, k = p.n, p.j, p.k
    for xi, _ in taus:
        if xi.shape != (n, j):
            raise DomainError(f"expected an (n, j) = ({n}, {j}) frame")
    u = [np.asarray(off, dtype=float) for _, off in taus]
    # the last j columns of g[t] span the frame of taus[t]
    g = complete_rotation(np.stack([xi for xi, _ in taus]))

    def terms(units):
        out = np.empty(sum(count for _, _, count, _ in units))
        for rows, pieces, rho in _haar_slices(n - j, units):
            # the k-plane directions: rho acts on the first n-j
            # coordinates; the span of the last k base vectors becomes
            # rho(R^{k-j}) + R^j, which g takes to its first n-j columns
            # applied to rho's last k-j columns, beside its own last j
            # columns.  Rho's columns are staged in ``dirs``, so the einsum
            # reads them with a row stride of k and takes the same
            # summation path as on a zero-padded (n, k) block
            dirs, offs = np.empty((len(rho), n, k)), np.empty((len(rho), n))
            dirs[:, :n - j, :k - j] = rho[:, :, n - k:]
            del rho
            for t, part in pieces:
                d = dirs[part]
                d[:, :, :k - j] = np.einsum("ij,bjl->bil", g[t][:, :n - j],
                                            d[:, :n - j, :k - j])
                d[:, :, k - j:] = g[t][:, n - j:]
                proj = np.einsum("bnl,n->bl", d, u[t])
                offs[part] = u[t][None, :] - np.einsum("bnl,bl->bn", d, proj)
            out[rows] = phi(PlaneBatch(dirs, offs))
        return out

    return _estimates(terms, specs, 1)


def radon_hyper_mc(p, f: Callable, z: GeodesicElement, mc: McSpec) -> McEstimate:
    """Unbiased estimate of the hyperbolic forward transform at the
    k-geodesic ``z`` (factored rotation/distance form).

    The inner geodesics are sampled by a Haar rotation of the plane and a
    radial coordinate drawn uniformly in tanh-distance with the matching
    density weight; ``f`` receives a GeodesicBatch.

    ``f`` is called once per block of up to ``_HYPER_BLOCK`` chunks
    (32,768 samples), not once per chunk: a profile evaluated in one-chunk
    pieces on two workers queues them on the GIL (see ``_FACTOR_BYTES``).
    ``f`` must act on each geodesic alone, as every profile does, so the
    estimate keeps its bytes however the chunks are grouped.  A zonal
    ``f`` (``zonal_function``) is read on distances alone, in blocks of
    up to ``_ZONAL_BLOCK`` chunks (65,536 samples): each chunk still
    draws its Haar Gaussians, which fix where its radii sit in its
    stream, but a slice at a time into one buffer that nothing keeps.

    A general ``f`` gets a block's geodesics in one batch, whose
    ``matrices`` are (B, n+1, n+1) arrays.  Where one of them would take
    more than ``_BATCH_BYTES`` (512 MiB), B being the smaller of the
    budget and a block's 32,768 samples (n >= 45 at full blocks), the
    estimate is refused up front with a ``DomainError`` that names the
    bytes; a zonal read has no such batch and no such limit.
    """
    return _radon_hyper(p, f, [z], [mc])[0]


def _radon_hyper(p, f: Callable, zs: list, specs: list) -> list:
    """``radon_hyper_mc`` at each k-geodesic ``zs[t]`` on budget
    ``specs[t]``: one ``f`` call per run of one target's consecutive units
    in a block, as the geodesics of a batch share one left factor, or, for
    a zonal ``f``, one profile call per block."""
    n, j, k = p.n, p.j, p.k
    for z in zs:
        if z.n != n or z.dim != k:
            raise DomainError("z must be a k-geodesic in the same dimension")
    left = [_embed_block(z.rotation, n, range(n))
            @ hyperbolic_rotation(n, k, z.distance) for z in zs]

    def terms(units):
        vals = []
        for t, run in groupby(units, key=lambda unit: unit[0]):
            # the j-geodesics of the base k-geodesic: S on coordinates
            # n-k..n-1
            inner, w = sample_hyper_elements(
                k, j, [(rng, count) for _, _, count, rng in run])
            vals.append(np.asarray(f(replace(inner, left=left[t])),
                                   dtype=float) * w)
        return _joined(vals)

    if not (isinstance(f, partial) and f.func is _zonal_read):
        block = min(sum(spec.n_samples for spec in specs),
                    _HYPER_BLOCK * CHUNK)
        if 8 * block * (n + 1) ** 2 > _BATCH_BYTES:
            raise DomainError(
                f"a general f would be handed {block} geodesics at once, "
                f"{8 * block * (n + 1) ** 2} bytes per ({block}, {n + 1}, "
                f"{n + 1}) array, above {_BATCH_BYTES}: lift a zonal "
                "profile with zonal_function, or lower n_samples")
        return _estimates(terms, specs, _HYPER_BLOCK)
    # a zonal read: the distance of a sample needs its radius and the
    # entry (n, n) of its target's left factor, since row n of every left
    # factor (E(rotation) @ boost on coordinates n-k-1 and n) vanishes on
    # S's coordinates n-k..n-1 (``_zonal_distance``)
    at, = f.args
    assert not any(np.any(g[n, n - k:n]) for g in left)

    def zonal_terms(units):
        # each unit's Haar Gaussians only fix where its radii sit in its
        # stream: they are drawn a slice at a time and dropped
        for _ in _gaussian_slices(k, units):
            pass
        s = np.empty(sum(count for _, _, count, _ in units))
        corner = np.empty(len(s))
        lo = 0
        for t, _, count, rng in units:
            # the bits and the stream of ``uniform(0, 1, count)``
            rng.random(out=s[lo:lo + count])
            corner[lo:lo + count] = left[t][n, n]
            lo += count
        rho, w = _tanh_radii(k, j, s)
        # the profile's arrays are the block's widest: hold only the
        # distances and the weights beside them
        dist = _zonal_distance(corner, rho)
        del s, corner, rho
        return at(dist) * w

    return _estimates(zonal_terms, specs, _ZONAL_BLOCK)


def sample_hyper_elements(n: int, d: int, draws: list):
    """Haar rotation + tanh-uniform radius samples of d-geodesics, with the
    invariant-measure weights: (batch, weights).  ``draws`` lists the
    (generator, count) of each chunk in order; each chunk draws its
    (count, n, n) Haar Gaussians, into its own rows of the batch, and then
    its radii, and the Gaussians are factored when the batch's rotations
    are first read."""
    counts = [count for _, count in draws]
    # SO(1) is {1}: nothing is drawn (``_haar_gaussian``)
    gauss = (np.ones if n == 1 else np.empty)((sum(counts), n, n))
    s = np.empty(len(gauss))
    lo = 0
    for rng, count in draws:
        rows = slice(lo, lo + count)
        if n > 1:
            rng.standard_normal(out=gauss[rows])
        # the bits and the stream of ``uniform(0, 1, count)``
        rng.random(out=s[rows])
        lo += count
    rho, w = _tanh_radii(n, d, s)
    return GeodesicBatch(d, rho, gauss), w


def _tanh_radii(n: int, d: int, s: np.ndarray):
    """(radii, invariant-measure weights) of d-geodesics of the
    n-hyperboloid from the uniform draws ``s`` in tanh-distance."""
    s = np.minimum(s, 1.0 - 1e-12)
    w = measure_density(Model.Hyperboloid, n, d, s, ArgKind.TanhDistance)
    return np.arctanh(s), w


def dual_sine_mc(alpha: float, p, phi: Profile1D, rho_grid, mc: McSpec,
                 kernel: str = "sine") -> list:
    """Estimates of the weighted dual transform of a zonal function at
    points x at distances ``rho_grid`` from the base point.

    ``kernel`` selects the sinh-power family ("sine", exponent
    alpha + k - n), the logarithmic kernel ("log"), or the vanishing-order
    limit ("plain", the probability average over geodesics through x).
    One common sample set serves every grid point, so the returned curve is
    smooth in rho and the whole grid costs a single sampling pass.

    Every kernel reads the distance from x to a sampled k-geodesic off one
    row of its Haar rotation (``_boosted_distances``): no Lorentz product
    is formed, and each chunk's distances are staged in the rows of its
    terms.  The kernel factor and the weight are then applied to groups of
    those rows of at most ``_FACTOR_BYTES`` each: a call per grid point
    hands the GIL between the worker threads at every ufunc of the
    evaluation, so the threads queued on it and a second one gained
    little.
    """
    n, k = p.n, p.k
    rho_grid = np.atleast_1d(np.asarray(rho_grid, dtype=float))
    phi_at = _at_distance(phi)
    n_pts = len(rho_grid)
    # the grid points x = sinh(rho) e_{n-1} + cosh(rho) e_n
    ch = np.array([math.cosh(float(r)) for r in rho_grid])
    sh = np.array([math.sinh(float(r)) for r in rho_grid])

    plain = kernel == "plain" or (kernel == "sine" and alpha == 0.0)
    clamped = False
    if plain:
        cst, factor = dual_transform_limit_constant(n, k), phi_at
    elif kernel in ("sine", "log"):
        expo = alpha + k - n
        cst = gamma_nk(alpha, n, k) if kernel == "sine" else 1.0

        def factor(d):
            nonlocal clamped
            if expo < 0 and np.any(d < KERNEL_FLOOR):
                clamped = True
            d = np.maximum(d, KERNEL_FLOOR)
            return np.sinh(d) ** expo if kernel == "sine" \
                else np.log(np.sinh(d))
    else:
        raise DomainError(f"unknown kernel {kernel}")

    def chunk_terms(units):
        """(n_pts, count) matrix of estimator terms for one chunk."""
        (_, _, count, rng), = units
        # row n-1 of each Haar factor, one slice of the draw at a time, by
        # column: the plain kernel keeps its last k entries
        keep = k if plain else n
        row = np.empty((keep, count))
        for rows, _, q in _haar_slices(n, units):
            row[:, rows] = q[:, n - 1, n - keep:].T
        del q
        out = np.empty((n_pts, count))
        if plain:
            last, boost, weight = row, None, cst
        else:
            # a chunk draws its radii after its Haar Gaussians
            rho, w = _tanh_radii(n, k, rng.random(count))
            last = row[n - k:]
            boost = (np.cosh(rho), row[n - k - 1] * np.sinh(rho))
            # the base point is the grid point at rho = 0
            origin = _boosted_distances(np.zeros(1), np.ones(1), last, boost,
                                        np.empty((1, count)))
            weight = cst * w * phi_at(origin[0])
        _boosted_distances(sh, ch, last, boost, out)
        # the Haar rows and the boosts are dropped before the factor runs
        del row, last, boost
        most = max(1, _FACTOR_BYTES // (8 * count))
        for lo in range(0, n_pts, most):
            blk = slice(lo, lo + most)
            np.multiply(factor(out[blk]), weight, out=out[blk])
        return out

    # the chunks of a single budget run one to a block
    parts, = _unit_sums([mc], chunk_terms, 1)
    if clamped:
        warnings.warn("sampled distances approach the singular kernel; "
                      "clamped", KernelSingularityWarning, stacklevel=2)
    means, errs = _mean_stderr(parts)
    return [McEstimate(float(means[i]), float(errs[i]), mc.n_samples)
            for i in range(n_pts)]


def _boosted_distances(sh: np.ndarray, ch: np.ndarray, last: np.ndarray,
                       boost: Optional[tuple], out: np.ndarray) -> np.ndarray:
    """(points, count) distances from the grid points (sh, ch) to the
    k-geodesics A = E(S) boost(rho_s), written into ``out`` and returned,
    given the columns ``last`` = S[:, n-1, n-k:].T, (k, count), and
    ``boost`` = (cosh rho_s, S[n-1, n-k-1] sinh rho_s), or None for A =
    E(S).  The coordinates of A^{-1} x that the distance reads are sh
    S[n-1, n-k:] and ch cosh rho_s - sh S[n-1, n-k-1] sinh rho_s: one
    product or a sum of two, with exact zeros elsewhere, so these are the
    bits of ``_distance_to_base`` on A^{-1} x formed in full.  For k < 8
    each row is staged in place, its pseudo-norm summed coordinate by
    coordinate, the order ``np.sum`` takes over an axis shorter than 8;
    from 8 on it sums pairwise, and each grid point's (count, k + 1) row of
    A^{-1} x is formed for ``_distance_to_base``.  Forming the row at every
    k gave the same bits, but a 2-thread reconstruct job of the chain ran
    292 ms against 257 (median of 8) and the traced peak rose 9%.
    """
    k = len(last)
    if k >= 8:
        row = np.empty((out.shape[1], k + 1))
        for s, c, dist in zip(sh, ch, out):
            np.multiply(s, last.T, out=row[:, :k])
            row[:, k] = c if boost is None else c * boost[0] - s * boost[1]
            dist[...] = _distance_to_base(row, k, k)
        return out
    z, term = np.empty((2, out.shape[1]))
    for s, c, pn2 in zip(sh, ch, out):
        if k:
            np.square(np.multiply(s, last[0], out=pn2), out=pn2)
        else:
            pn2.fill(0.0)
        for col in last[1:]:
            pn2 += np.square(np.multiply(s, col, out=term), out=term)
        if boost is None:
            np.subtract(c * c, pn2, out=pn2)
        else:
            cosh_s, lead = boost
            np.subtract(np.multiply(c, cosh_s, out=z),
                        np.multiply(s, lead, out=term), out=z)
            np.subtract(np.square(z, out=z), pn2, out=pn2)
        np.maximum(pn2, 1.0, out=pn2)
        np.arccosh(np.maximum(np.sqrt(pn2, out=pn2), 1.0, out=pn2), out=pn2)
    return out


def dual_hyper_mc(p, phi: Callable, t: GeodesicElement, mc: McSpec) -> McEstimate:
    """Estimate of the hyperbolic dual transform at a j-geodesic: average of
    phi over Haar-rotated k-geodesics containing it, computed through the
    chord model (the k-plane is sampled around the chord of ``t``)."""
    return _dual_hyper(p, phi, [t], [mc])[0]


def _dual_hyper(p, phi: Callable, ts: list, specs: list) -> list:
    """``dual_hyper_mc`` at each j-geodesic ``ts[t]`` on budget
    ``specs[t]``, through ``_dual_affine`` on their chords."""
    n, j, k = p.n, p.j, p.k
    chords, scale = [], []
    for t in ts:
        if t.n != n or t.dim != j:
            raise DomainError("t must be a j-geodesic in the same dimension")
        # chord of t: direction = last j columns of the rotation, offset
        # along the (n-j)-th column with tanh length
        rot = t.rotation
        xi = rot[:, n - j:] if j > 0 else np.zeros((n, 0))
        u = math.tanh(t.distance) * rot[:, n - j - 1]
        chords.append((xi, u))
        scale.append(math.cosh(t.distance) ** (k - n))

    def phi_on_planes(batch: PlaneBatch) -> np.ndarray:
        # each chord lifted to a geodesic: its aligning rotation, formed
        # when read, then the shift by artanh of its distance
        dist = np.minimum(batch.distances, 1.0 - 1e-12)
        weight = (1.0 - dist * dist) ** ((j - n) / 2.0)
        return weight * phi(_ChordGeodesics(k, np.arctanh(dist), batch))

    return [McEstimate(c * est.value, c * est.std_error, est.n_samples)
            for c, est in zip(scale, _dual_affine(p, phi_on_planes, chords,
                                                  specs))]


# -- duality checks ----------------------------------------------------------------

def _outer_split(n_samples: int):
    n_out = max(64, int(math.sqrt(n_samples)))
    n_in = max(256, n_samples // n_out)
    return n_out, n_in


def duality_check_mc(which: str, f: Callable, phi: Callable, p,
                     mc: McSpec):
    """Estimate both sides of a forward/dual pairing identity.

    ``which`` selects the geometry: "affine" or "chord" (planes; ``f`` and
    ``phi`` take PlaneBatch) or "hyper" (geodesics; GeodesicBatch).  Returns
    (lhs, rhs) McEstimates computed by nested sampling: the lhs weights the
    forward estimate of f at an outer k-element by phi there, the rhs the
    dual estimate of phi at an outer j-element by f.  The outer elements
    come from the invariant measure in chunks of 64, the inner estimates
    from the estimators above: one call per side for all its outer
    elements, whose blocks run on one worker pool.  Relative to
    ``mc.stream_id``, side s (0 for the lhs) draws its outer elements on
    stream s and runs the inner estimate of outer sample i on stream
    2 + s n_out + i, so no generator is used twice and the result does not
    depend on the chunking.
    """
    if which in ("affine", "chord"):
        draw = partial(_plane_draw, ball=which == "chord")
        forward, dual = _radon_affine, _dual_affine
    elif which == "hyper":
        draw = _hyper_draw
        forward, dual = _radon_hyper, _dual_hyper
    else:
        raise DomainError(f"unknown duality geometry {which!r}")
    n_out, n_in = _outer_split(mc.n_samples)

    def side(s, d, inner, inner_arg, outer):
        def terms(units):
            draws = [draw(p.n, d, rng, count) for _, _, count, rng in units]
            elements = [element(i) for (_, _, count, _), (_, _, element)
                        in zip(units, draws) for i in range(count)]
            # the units of a block are consecutive outer samples
            first = 2 + s * n_out + units[0][1]
            vals = np.array([est.value for est in inner(
                p, inner_arg, elements,
                [mc.substream(first + i, n_in) for i in range(len(elements))])])
            weights = _joined([np.asarray(outer(batch), dtype=float)
                               for batch, _, _ in draws])
            return vals * weights * _joined([w for _, w, _ in draws])

        parts, = _unit_sums([mc.substream(s, n_out)], terms, 1, chunk=64)
        mean, stderr = _mean_stderr(parts)
        return McEstimate(float(mean), float(stderr), n_out)

    return side(0, p.k, forward, f, phi), side(1, p.j, dual, phi, f)


def _plane_draw(n, d, rng, count, ball: bool):
    """Haar d-planes with offsets uniform in the unit ball (``ball``) or
    Gaussian: (batch, importance weights, i -> (frame, offset) of plane
    i).  The frames are columns of a Haar rotation and the offsets lie in
    their complement, so they are handed on unchecked."""
    rot = sample_rotations(n, count, rng)
    frames = rot[:, :, n - d:] if d > 0 else np.zeros((count, n, 0))
    dim = n - d
    z = rng.standard_normal((count, dim))
    if ball:
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        z *= rng.uniform(0.0, 1.0, count)[:, None] ** (1.0 / dim)
        vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        w = np.full(count, vol)
    else:
        w = (2 * math.pi) ** (dim / 2.0) * np.exp(np.sum(z * z, axis=1) / 2)
    offs = np.einsum("bnl,bl->bn", rot[:, :, :dim], z)
    return PlaneBatch(frames, offs), w, lambda i: (frames[i], offs[i])


def _hyper_draw(n, d, rng, count):
    """Invariant-measure d-geodesics: (batch, weights, i -> geodesic i)."""
    batch, w = sample_hyper_elements(n, d, [(rng, count)])
    return batch, w, lambda i: GeodesicElement(n, d, batch.rotations[i],
                                               float(batch.rho[i]))
