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

The uniforms are made in one pass: numpy's ``Generator.random`` maps a
word to (word >> 11) * 2**-53, and adding 2**-53 in place gives the
contract's value exactly.  A Haar draw runs in tiles of about 2**15 / (n*c)
samples, so that a tile's uniforms, normals and Gram-Schmidt slabs stay in
a 4 MiB L2 cache; tiles continue one Philox stream, and each sample's
arithmetic does not depend on its tile.  A Haar estimate contracts each
tile in place as it is made, and a sphere estimate raises coordinates to
their exponents by repeated products rather than pow.

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
# matrix entries per Haar tile: its uniforms, normals and Gram-Schmidt
# slabs then stay within a 4 MiB L2 cache
_TILE_ENTRIES = 2 ** 15


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
    """Refuse a worker count below 1; None means the default, and a
    ``HAAR_MOMENTS_THREADS`` setting behind it is checked the same way."""
    if threads is None:
        default_threads()
    elif threads < 1:
        raise ValueError("threads must be at least 1")


def default_threads() -> int:
    """``HAAR_MOMENTS_THREADS`` if set and not empty, else min(4, cpus)."""
    env = os.environ.get("HAAR_MOMENTS_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError("HAAR_MOMENTS_THREADS must be an integer of at "
                         f"least 1, not {env!r}")
    return threads


def mc_tolerance(est: Estimate) -> float:
    """Acceptance band: five standard errors, floored for exact zeros."""
    return max(5.0 * est.stderr, 1e-9)


# ---------------------------------------------------------------------------
# uniform stream and variate transforms

def _uniform_stream(seed: int, start_sample: int, per_sample: int):
    """``draw(count)`` gives the uniforms of the next ``count`` samples,
    shape (count, per_sample), starting at ``start_sample``."""
    blocks = -(-per_sample // 4)
    gen = np.random.Generator(
        np.random.Philox(key=seed, counter=start_sample * blocks))

    def draw(count: int) -> np.ndarray:
        # (word >> 11) * 2**-53 + 2**-53 is the contract's uniform exactly;
        # a draw takes whole counter blocks, so the next starts a sample
        u = gen.random(count * blocks * 4)
        u += _INV_2_53
        return u.reshape(count, blocks * 4)[:, :per_sample]
    return draw


def _uniform_block(seed: int, start_sample: int, count: int,
                   per_sample: int) -> np.ndarray:
    return _uniform_stream(seed, start_sample, per_sample)(count)


def _cos_sin_2pi(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2*pi*v) and sin(2*pi*v) from one tangent: with t = tan(pi*(v -
    1/2)), they are (t^2 - 1)/(t^2 + 1) and -2t/(t^2 + 1).  numpy's float64
    tan is vectorized where its cos and sin are not."""
    t = v - 0.5
    t *= np.pi
    np.tan(t, out=t)
    t2 = t * t
    s = t2 + 1.0
    np.divide(1.0, s, out=s)
    t2 -= 1.0
    t2 *= s
    t *= -2.0
    t *= s
    return t2, t


def _haar_from_uniforms(u: np.ndarray, count: int, n: int,
                        c: int) -> np.ndarray:
    nc = n * c

    def slabs(a):
        # column k of every sample as the (n, count) slab [k]
        return a.reshape(count, n, c).transpose(2, 1, 0)

    mod = np.sqrt(-np.log(u[:, :nc]))
    cos, sin = _cos_sin_2pi(u[:, nc:2 * nc])
    q = np.empty((c, n, count), dtype=np.complex128)
    np.multiply(slabs(mod), slabs(cos), out=q.real)
    np.multiply(slabs(mod), slabs(sin), out=q.imag)
    for k in range(c):
        v = q[k]
        # modified Gram-Schmidt, swept twice so that nearly dependent
        # columns still come out orthonormal to rounding
        for _ in range(2):
            for j in range(k):
                v -= q[j] * (q[j].conj() * v).sum(axis=0)
        v /= np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=0))
    return q.transpose(2, 1, 0)


def _tile_bounds(count: int, entries: int) -> list[int]:
    """Bounds of equal tiles of about _TILE_ENTRIES / entries samples over
    0..count.  The target is at least 4, so no tile of a count >= 2 holds a
    single sample."""
    tiles = -(-count // max(4, _TILE_ENTRIES // entries))
    return [count * t // tiles for t in range(tiles + 1)]


def _haar_tiles(n: int, count: int, seed: int, start: int, c: int):
    """Yield (lo, hi, q) for samples start+lo..start+hi, tile by tile;
    q[k, i, s] is entry (i, k) of sample lo+s."""
    draw = _uniform_stream(seed, start, 2 * n * c)
    if count == 1:
        # numpy sums a lone (n, 1) slab pairwise, not row by row as in a
        # wider one, so a single sample is computed as the first of two
        yield 0, 1, _haar_from_uniforms(draw(2), 2, n, c).T[:, :, :1]
        return
    bounds = _tile_bounds(count, n * c)
    for lo, hi in zip(bounds, bounds[1:]):
        # .T gives back the (c, n, count) slabs the transform built
        yield lo, hi, _haar_from_uniforms(draw(hi - lo), hi - lo, n, c).T


def _sphere_from_uniforms(u: np.ndarray, count: int, n: int,
                          coords) -> np.ndarray:
    m = (n + 1) // 2
    # squared Box-Muller radii, one contiguous row per pair
    r2 = np.log(u[:, :m].T, out=np.empty((m, count)))
    r2 *= -2.0
    norm2 = np.zeros(count)
    for row in r2[:n // 2]:  # .sum(axis=0) would go pairwise on one sample
        norm2 += row
    if n % 2:
        # the last pair contributes only its cosine coordinate
        norm2 += r2[m - 1] * _cos_sin_2pi(u[:, 2 * m - 1])[0] ** 2
    scale = 1.0 / np.sqrt(norm2)
    x = np.empty((len(coords), count))
    for xi, i in zip(x, coords):
        pair = i % m  # coordinates 0..m-1 are cosines, m..n-1 sines
        np.sqrt(r2[pair], out=xi)
        xi *= scale
        xi *= _cos_sin_2pi(u[:, m + pair])[i // m]
    return x.T


def haar_batch(n: int, count: int, seed: int, start: int = 0,
               cols: int | None = None) -> np.ndarray:
    """The first ``cols`` columns (default all n) of ``count`` Haar-random
    n-by-n unitaries, samples start..start+count, shape (count, n, cols)."""
    c = n if cols is None else cols
    if not 1 <= c <= n:
        raise ValueError("cols must be between 1 and n")
    out = np.empty((c, n, count), dtype=np.complex128)
    for lo, hi, q in _haar_tiles(n, count, seed, start, c):
        out[:, :, lo:hi] = q
    return out.T


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


def _haar_contract(q: np.ndarray, conj, plain, out: np.ndarray) -> None:
    """out = prod conj(q[k, i]) over (k, i) in ``conj`` times prod q[k, i]
    over ``plain``, in place.  The conjugated factors are multiplied first
    and conjugated once, as conj(a) * conj(b) = conj(a * b) exactly."""
    out.fill(1.0)
    for f in conj:
        out *= q[f]
    if conj:
        np.conjugate(out, out=out)
    for f in plain:
        out *= q[f]


def _sphere_monomial(x: np.ndarray, powers) -> np.ndarray:
    """prod_j x[:, j] ** powers[j] by repeated products in place: the
    powers are small, and they spare a libm pow per value."""
    vals = np.ones(len(x))
    for xj, e in zip(x.T, powers):
        for _ in range(e):
            vals *= xj
    return vals


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
    conj = [(col[j], i - 1) for i, j in zip(I, J)]
    plain = [(col[l], k - 1) for k, l in zip(K, L)]

    def values(lo, hi):
        vals = np.empty(hi - lo, dtype=np.complex128)
        for a, b, slabs in _haar_tiles(cfg.n, hi - lo, cfg.seed, lo,
                                       max(len(col), 1)):
            _haar_contract(slabs, conj, plain, vals[a:b])
        return vals

    return _accumulate(cfg, values)


def estimate_sphere_moment(exponents, cfg: SamplerConfig) -> Estimate:
    """Sample mean of prod x_i^(e_i) over the sphere in R^n."""
    exponents = tuple(exponents)
    n = cfg.n
    if len(exponents) != n:
        raise ValueError("exponent vector length differs from dimension")
    coords = [i for i, e in enumerate(exponents) if e]
    powers = [exponents[i] for i in coords]

    def values(lo, hi):
        u = _uniform_block(cfg.seed, lo, hi - lo, 2 * ((n + 1) // 2))
        return _sphere_monomial(_sphere_from_uniforms(u, hi - lo, n, coords),
                                powers)

    return _accumulate(cfg, values)
