"""Monte Carlo verification of exact moments: Haar-random unitary matrices
and uniform points on the real hypersphere, from a reproducible
counter-based stream.

Stream contract (fixed per release).  The generator is Philox-4x64 keyed by
``seed``.  A batch drawing ``w`` uniforms per sample gives sample ``s`` the
counter blocks [s*B, (s+1)*B) with B = ceil(w/4) (each block holds four
64-bit words); the first ``w`` words of those blocks, in order, map to
uniforms in (0, 1] via ((word >> 11) + 1) * 2**-53.  A Haar sample of c
columns of an n-by-n unitary uses w = 2*n*c: the first n*c words are
moduli and the next n*c phases, z = sqrt(-ln u) * exp(2*pi*i*v) is a
standard complex normal, and the n*c normals fill an n-by-c Ginibre block
row by row.  The block is orthonormalized by Gram-Schmidt, each column
swept twice against the ones before it.  That is the block's QR
factorization with a real positive diagonal in the triangular factor,
which is unique: the Q of a Householder QR after the phase fix of
Mezzadri (math-ph/0609050), to rounding.  The result is distributed as the
first c columns of a Haar unitary, and c = n gives the whole matrix.
Sphere samples use w = 2*ceil(n/2) Box-Muller words, m = ceil(n/2) radii
r_k = sqrt(-2 ln u_k) and then m angles a_k = 2*pi*v_k; the point is
(r_1 cos a_1, ..., r_m cos a_m, r_1 sin a_1, ...) cut to n coordinates and
divided by its norm.  The squared norm comes from the radii: the sum of
r_k^2 = -2 ln u_k over the full pairs, plus r_m^2 cos^2 a_m when n is odd,
so a sphere estimate computes only the coordinates whose exponent is
nonzero.  cos and sin of 2*pi*v come from one tangent (``_cos_sin_2pi``).
The uniforms are fixed bit for bit; samples are fixed up to rounding in
the transforms above.

A Haar estimate draws only the columns its query reads.  Right invariance
lets the distinct columns be relabelled, in increasing order, to 1..c, and
U^T is Haar too, so a query with fewer distinct rows than distinct columns
is transposed first (I<->J, K<->L).  Thus c is the smaller of the query's
distinct row and column counts (at least 1), never more than its degree.
Chunk partial sums are combined in fixed chunk order, so an estimate is
bit-identical for a given config regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .queries import MomentQuery, canonicalize

_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: same config, bit-identical estimate."""
    n: int
    samples: int
    seed: int
    threads: int | None = None
    chunk: int = 8192

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")
        check_threads(self.threads)


@dataclass(frozen=True)
class Estimate:
    mean: complex
    stderr: float
    samples: int


def check_threads(threads: int | None) -> None:
    """Refuse a worker count below 1 (None means the default)."""
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")


def default_threads() -> int:
    env = os.environ.get("HAAR_MOMENTS_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def mc_tolerance(est: Estimate) -> float:
    """Acceptance band: five standard errors, floored for exact zeros."""
    return max(5.0 * est.stderr, 1e-9)


# ---------------------------------------------------------------------------
# uniform stream and variate transforms

def _uniform_block(seed: int, start_sample: int, count: int,
                   per_sample: int) -> np.ndarray:
    blocks = -(-per_sample // 4)
    bg = np.random.Philox(key=seed, counter=start_sample * blocks)
    raw = bg.random_raw(count * blocks * 4).reshape(count, blocks * 4)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    return u[:, :per_sample]


def _cos_sin_2pi(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2*pi*v) and sin(2*pi*v) from one tangent: with t = tan(pi*(v -
    1/2)), they are (t^2 - 1)/(t^2 + 1) and -2t/(t^2 + 1).  numpy's float64
    tan is vectorized where its cos and sin are not."""
    t = np.tan(np.pi * (v - 0.5))
    s = 1.0 / (1.0 + t * t)
    return (t * t - 1.0) * s, -2.0 * t * s


def _haar_from_uniforms(u: np.ndarray, count: int, n: int,
                        c: int) -> np.ndarray:
    nc = n * c
    mod = np.sqrt(-np.log(u[:, :nc]))
    cos, sin = _cos_sin_2pi(u[:, nc:2 * nc])
    z = np.empty((count, nc), dtype=np.complex128)
    np.multiply(mod, cos, out=z.real)
    np.multiply(mod, sin, out=z.imag)
    # column k of every sample is the contiguous (n, count) slab q[k]
    q = z.reshape(count, n, c).transpose(2, 1, 0).copy()
    for k in range(c):
        v = q[k]
        # modified Gram-Schmidt, swept twice so that nearly dependent
        # columns still come out orthonormal to rounding
        for _ in range(2):
            for j in range(k):
                v -= q[j] * (q[j].conj() * v).sum(axis=0)
        v /= np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=0))
    return q.transpose(2, 1, 0)


def _sphere_from_uniforms(u: np.ndarray, count: int, n: int,
                          coords) -> np.ndarray:
    m = (n + 1) // 2
    r2 = -2.0 * np.log(u[:, :m])  # squared Box-Muller radii
    norm2 = r2[:, :n // 2].sum(axis=1)
    if n % 2:
        # the last pair contributes only its cosine coordinate
        norm2 += r2[:, m - 1] * _cos_sin_2pi(u[:, 2 * m - 1])[0] ** 2
    scale = 1.0 / np.sqrt(norm2)
    x = np.empty((count, len(coords)))
    for out, i in enumerate(coords):
        pair = i % m  # coordinates 0..m-1 are cosines, m..n-1 sines
        trig = _cos_sin_2pi(u[:, m + pair])[i // m]
        x[:, out] = np.sqrt(r2[:, pair]) * scale * trig
    return x


def haar_batch(n: int, count: int, seed: int, start: int = 0,
               cols: int | None = None) -> np.ndarray:
    """The first ``cols`` columns (default all n) of ``count`` Haar-random
    n-by-n unitaries, samples start..start+count, shape (count, n, cols)."""
    c = n if cols is None else cols
    if not 1 <= c <= n:
        raise ValueError("cols must be between 1 and n")
    u = _uniform_block(seed, start, count, 2 * n * c)
    return _haar_from_uniforms(u, count, n, c)


def sphere_batch(n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """``count`` uniform points on the unit sphere in R^n."""
    u = _uniform_block(seed, start, count, 2 * ((n + 1) // 2))
    return _sphere_from_uniforms(u, count, n, range(n))


# ---------------------------------------------------------------------------
# estimators

def _accumulate(cfg: SamplerConfig, values_for_range) -> Estimate:
    ranges = [(lo, min(lo + cfg.chunk, cfg.samples))
              for lo in range(0, cfg.samples, cfg.chunk)]

    def part(span):
        lo, hi = span
        v = np.asarray(values_for_range(lo, hi), dtype=np.complex128)
        re, im = v.real, v.imag
        return complex(v.sum()), float(re @ re), float(im @ im)

    threads = cfg.threads if cfg.threads is not None else default_threads()
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(part, ranges))
    else:
        parts = [part(span) for span in ranges]

    total = 0j
    sq_re = 0.0
    sq_im = 0.0
    for s, r2, i2 in parts:
        total += s
        sq_re += r2
        sq_im += i2
    count = cfg.samples
    mean = total / count
    bessel = count / (count - 1)
    var_re = max(sq_re / count - mean.real ** 2, 0.0) * bessel
    var_im = max(sq_im / count - mean.imag ** 2, 0.0) * bessel
    return Estimate(mean, math.sqrt((var_re + var_im) / count), count)


def estimate_moment(q: MomentQuery, cfg: SamplerConfig) -> Estimate:
    """Sample mean of prod conj(U)_{I_a J_a} * prod U_{K_b L_b}, drawing
    only the columns the query reads (see the module docstring)."""
    if q.n != cfg.n:
        raise ValueError("query dimension differs from sampler dimension")
    # validate as the exact routes do: relabelling the columns below would
    # otherwise hide a column index outside 1..n
    canonicalize(q)
    I, J, K, L = q.I, q.J, q.K, q.L
    if len(set(I + K)) < len(set(J + L)):
        I, J, K, L = J, I, L, K
    col = {j: c for c, j in enumerate(sorted(set(J + L)))}

    def values(lo, hi):
        u = haar_batch(cfg.n, hi - lo, cfg.seed, start=lo,
                       cols=max(len(col), 1))
        vals = np.ones(hi - lo, dtype=np.complex128)
        for i, j in zip(I, J):
            vals = vals * np.conj(u[:, i - 1, col[j]])
        for k, l in zip(K, L):
            vals = vals * u[:, k - 1, col[l]]
        return vals

    return _accumulate(cfg, values)


def estimate_sphere_moment(exponents, cfg: SamplerConfig) -> Estimate:
    """Sample mean of prod x_i^(e_i) over the sphere in R^n."""
    exponents = tuple(exponents)
    n = cfg.n
    if len(exponents) != n:
        raise ValueError("exponent vector length differs from dimension")
    coords = [i for i, e in enumerate(exponents) if e]

    def values(lo, hi):
        u = _uniform_block(cfg.seed, lo, hi - lo, 2 * ((n + 1) // 2))
        x = _sphere_from_uniforms(u, hi - lo, n, coords)
        vals = np.ones(hi - lo, dtype=np.float64)
        for col, i in enumerate(coords):
            vals = vals * x[:, col] ** exponents[i]
        return vals

    return _accumulate(cfg, values)
