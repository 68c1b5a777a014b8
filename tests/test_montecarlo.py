"""Monte Carlo sampler: determinism, distribution sanity, estimator contract."""
import numpy as np
import pytest

from haarmoments.invariants import moment
from haarmoments.montecarlo import (_TILE_ENTRIES, SamplerConfig,
                                    _cos_sin_2pi, _haar_contract,
                                    _haar_from_uniforms, _haar_tiles,
                                    _tile_bounds,
                                    _sphere_from_uniforms, _sphere_monomial,
                                    _uniform_block, default_threads,
                                    estimate_moment, estimate_sphere_moment,
                                    haar_batch, mc_tolerance, sphere_batch)
from haarmoments.queries import MomentQuery


def test_uniform_stream_is_counter_addressable():
    # reading samples [0,10) in one call equals reading [0,5) and [5,10)
    w = 7
    whole = _uniform_block(123, 0, 10, w)
    head = _uniform_block(123, 0, 5, w)
    tail = _uniform_block(123, 5, 5, w)
    assert np.array_equal(whole, np.vstack([head, tail]))
    assert whole.shape == (10, 7)
    assert np.all(whole > 0) and np.all(whole <= 1)


@pytest.mark.parametrize("seed,start,count,w", [
    (0, 0, 9, 3), (123, 7, 20, 6), (2 ** 63 + 5, 1000, 11, 16),
    (2 ** 64 - 1, 3, 4, 200), (42, 5, 1, 1)])
def test_uniform_block_is_the_documented_formula(seed, start, count, w):
    # sample s reads the first w words of counter blocks [s*B, (s+1)*B),
    # B = ceil(w/4), each word mapped to ((word >> 11) + 1) * 2**-53
    blocks = -(-w // 4)
    raw = np.random.Philox(key=seed, counter=start * blocks).random_raw(
        count * blocks * 4).reshape(count, blocks * 4)[:, :w]
    ref = ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) \
        * 2.0 ** -53
    assert np.array_equal(_uniform_block(seed, start, count, w), ref)


def test_uniform_stream_differs_by_seed():
    a = _uniform_block(1, 0, 4, 5)
    b = _uniform_block(2, 0, 4, 5)
    assert not np.array_equal(a, b)


def test_cos_sin_from_tangent_match_libm():
    v = np.concatenate([_uniform_block(61, 0, 2000, 8).ravel(),
                        [2.0 ** -53, 0.25, 0.5 - 2.0 ** -53, 0.5,
                         0.5 + 2.0 ** -53, 0.75, 1.0 - 2.0 ** -53, 1.0]])
    cos, sin = _cos_sin_2pi(v)
    assert np.max(np.abs(cos - np.cos(2.0 * np.pi * v))) < 2e-15
    assert np.max(np.abs(sin - np.sin(2.0 * np.pi * v))) < 2e-15


def test_haar_batch_unitarity():
    for n in (1, 2, 5):
        us = haar_batch(n, 6, seed=7)
        assert us.shape == (6, n, n)
        eye = np.eye(n)
        for u in us:
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12


def test_haar_batch_counter_addressable():
    whole = haar_batch(3, 8, seed=11)
    head = haar_batch(3, 3, seed=11, start=0)
    tail = haar_batch(3, 5, seed=11, start=3)
    assert np.array_equal(whole, np.vstack([head, tail]))


def test_sphere_batch_normalized():
    for n in range(1, 18):
        xs = sphere_batch(n, 50, seed=3, start=n)
        assert xs.shape == (50, n)
        assert np.max(np.abs(np.sum(xs * xs, axis=1) - 1.0)) < 1e-12


def test_sphere_coordinate_subsets_match_full_draws():
    # the norm comes from the Box-Muller radii, so drawing a few coordinates
    # gives the same values as the matching columns of the full point
    rng = np.random.default_rng(0)
    for n in range(1, 18):
        w = 2 * ((n + 1) // 2)
        full = sphere_batch(n, 40, seed=71, start=9)
        u = _uniform_block(71, 9, 40, w)
        for size in range(n + 1):
            coords = sorted(rng.choice(n, size=size, replace=False))
            part = _sphere_from_uniforms(u, 40, n, coords)
            assert part.shape == (40, size)
            assert np.max(np.abs(part - full[:, coords]), initial=0) < 1e-14


def test_estimates_are_deterministic():
    q = MomentQuery.make(2, (1, 1), (1, 1), (1, 1), (1, 1))
    cfg = SamplerConfig(n=2, samples=5000, seed=99)
    a = estimate_moment(q, cfg)
    b = estimate_moment(q, cfg)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.samples == 5000


def test_estimates_independent_of_thread_count():
    q = MomentQuery.make(3, (1, 2), (1, 2), (2, 1), (2, 1))
    one = estimate_moment(q, SamplerConfig(n=3, samples=20000, seed=5,
                                           threads=1))
    four = estimate_moment(q, SamplerConfig(n=3, samples=20000, seed=5,
                                            threads=4))
    assert one.mean == four.mean
    assert one.stderr == four.stderr


def test_estimate_matches_exact_value():
    q = MomentQuery.make(3, (1,), (1,), (1,), (1,))
    est = estimate_moment(q, SamplerConfig(n=3, samples=50000, seed=17))
    tol = mc_tolerance(est)
    assert abs(est.mean.real - 1 / 3) < tol
    assert abs(est.mean.imag) < tol


def test_estimate_zero_moment():
    # E[U_11] has uniformly random phase: exactly zero in expectation
    q = MomentQuery.make(2, (), (), (1,), (1,))
    est = estimate_moment(q, SamplerConfig(n=2, samples=50000, seed=23))
    assert abs(est.mean) < mc_tolerance(est)


def test_left_invariance_under_permutation():
    # multiplying by a fixed permutation matrix must not change moments
    n, count, seed = 3, 40000, 31
    us = haar_batch(n, count, seed)
    perm = [1, 2, 0]
    vus = us[:, perm, :]  # V @ U with V the permutation matrix of perm
    for (i, j) in ((0, 0), (1, 2)):
        a = (us[:, i, j].conj() * us[:, i, j])
        b = (vus[:, i, j].conj() * vus[:, i, j])
        am, bm = a.mean(), b.mean()
        se = (a.std(ddof=1) + b.std(ddof=1)) / count ** 0.5
        assert abs(am - bm) < 5 * se + 1e-9


def test_sphere_estimator():
    est = estimate_sphere_moment((2, 2, 0),
                                 SamplerConfig(n=3, samples=50000, seed=41))
    assert abs(est.mean.real - 1 / 15) < mc_tolerance(est)
    assert est.mean.imag == 0.0


def test_sphere_estimator_of_constant_monomial_is_exactly_one():
    for n in (1, 4, 9):
        est = estimate_sphere_moment((0,) * n,
                                     SamplerConfig(n=n, samples=300, seed=5,
                                                   chunk=128))
        assert est.mean == 1.0 and est.stderr == 0.0


def test_default_threads_reads_the_environment(monkeypatch):
    monkeypatch.setenv("HAAR_MOMENTS_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("HAAR_MOMENTS_THREADS", "")  # empty means unset
    assert default_threads() >= 1


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_default_threads_refuses_bad_environment(monkeypatch, value):
    monkeypatch.setenv("HAAR_MOMENTS_THREADS", value)
    with pytest.raises(ValueError, match="HAAR_MOMENTS_THREADS"):
        default_threads()
    with pytest.raises(ValueError, match="HAAR_MOMENTS_THREADS"):
        SamplerConfig(n=2, samples=100, seed=1)
    # an explicit count does not read the variable
    assert SamplerConfig(n=2, samples=100, seed=1, threads=1).threads == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n=0, samples=100, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(n=2, samples=1, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(n=2, samples=100, seed=-1)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            SamplerConfig(n=2, samples=100, seed=1, threads=threads)
    assert SamplerConfig(n=2, samples=100, seed=1, threads=1).threads == 1


def test_estimator_validates_dimensions():
    q = MomentQuery.make(3, (1,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        estimate_moment(q, SamplerConfig(n=2, samples=100, seed=1))
    with pytest.raises(ValueError):
        estimate_sphere_moment((2, 0), SamplerConfig(n=3, samples=100, seed=1))


# ---------------------------------------------------------------------------
# column sampler: a Haar estimate draws only the columns its query reads

def test_haar_batch_columns_orthonormal_and_counter_addressable():
    for n, c in ((1, 1), (3, 1), (4, 2), (6, 3), (10, 3), (5, 5)):
        us = haar_batch(n, 12, seed=19, cols=c)
        assert us.shape == (12, n, c)
        eye = np.eye(c)
        for u in us:
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12
        head = haar_batch(n, 5, seed=19, start=0, cols=c)
        tail = haar_batch(n, 7, seed=19, start=5, cols=c)
        assert np.array_equal(us, np.vstack([head, tail]))


def test_haar_batch_all_columns_is_the_default():
    assert np.array_equal(haar_batch(4, 6, seed=3, start=2),
                          haar_batch(4, 6, seed=3, start=2, cols=4))


def test_haar_batch_rejects_bad_column_count():
    for c in (0, 4):
        with pytest.raises(ValueError):
            haar_batch(3, 2, seed=1, cols=c)


def _same(a, b):
    return a.mean == b.mean and a.stderr == b.stderr


def test_estimate_unchanged_by_column_relabelling():
    # columns are relabelled 1..c in increasing order, so any permutation
    # of 1..n that keeps the order of the used columns gives the same draw
    # (three rows, two columns: the query is not transposed)
    q = MomentQuery.make(5, (1, 3, 2), (2, 4, 4), (3, 1, 2), (4, 2, 4))
    sigma = {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
    moved = MomentQuery.make(5, q.I, [sigma[j] for j in q.J], q.K,
                             [sigma[l] for l in q.L])
    cfg = SamplerConfig(n=5, samples=3000, seed=8, chunk=1000)
    assert _same(estimate_moment(q, cfg), estimate_moment(moved, cfg))


def test_estimate_unchanged_by_transposition():
    # two rows, three columns: both presentations sample two columns
    q = MomentQuery.make(4, (1, 2, 1), (1, 2, 3), (2, 1, 1), (1, 3, 2))
    t = MomentQuery.make(4, q.J, q.I, q.L, q.K)
    cfg = SamplerConfig(n=4, samples=3000, seed=13, chunk=1000)
    assert _same(estimate_moment(q, cfg), estimate_moment(t, cfg))


def test_two_column_estimate_matches_exact_value():
    q = MomentQuery.make(10, (3, 7), (2, 9), (3, 7), (9, 2))
    exact = moment(q)[0]
    assert exact != 0
    est = estimate_moment(q, SamplerConfig(n=10, samples=40000, seed=29))
    tol = mc_tolerance(est)
    assert abs(est.mean.real - float(exact)) < tol
    assert abs(est.mean.imag) < tol


def test_estimator_rejects_indices_outside_dimension():
    cfg = SamplerConfig(n=3, samples=100, seed=1)
    for q in (MomentQuery.make(3, (1,), (4,), (1,), (4,)),
              MomentQuery.make(3, (0,), (1,), (0,), (1,)),
              MomentQuery.make(3, (1, 2), (1,), (1,), (1,))):
        with pytest.raises(ValueError):
            estimate_moment(q, cfg)


# ---------------------------------------------------------------------------
# Gram-Schmidt against a LAPACK reference

def _lapack_haar(u, count, n, c):
    """Householder QR of the same Ginibre block, with the triangular
    factor's diagonal made real positive (Mezzadri, math-ph/0609050)."""
    nc = n * c
    mod = np.sqrt(-np.log(u[:, :nc]))
    arg = 2.0 * np.pi * u[:, nc:2 * nc]
    z = (mod * np.exp(1j * arg)).reshape(count, n, c)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _orthonormality_error(us):
    c = us.shape[2]
    return np.max(np.abs(np.einsum("sik,sil->skl", us.conj(), us)
                         - np.eye(c)))


@pytest.mark.parametrize("n,c", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3),
                                 (6, 5), (10, 3), (10, 10)])
def test_haar_batch_matches_lapack_reference(n, c):
    # a QR with a real positive diagonal is unique, so Gram-Schmidt and
    # Householder agree up to rounding
    for seed in (1, 977, 2 ** 64 - 1):
        for start in (0, 13, 10 ** 6):
            us = haar_batch(n, 40, seed, start=start, cols=c)
            ref = _lapack_haar(_uniform_block(seed, start, 40, 2 * n * c),
                               40, n, c)
            assert np.max(np.abs(us - ref)) < 1e-12


@pytest.mark.parametrize("n,c", [(2, 2), (3, 2), (4, 3), (6, 5), (10, 10)])
def test_gram_schmidt_orthonormal_on_nearly_dependent_columns(n, c):
    # every column a near copy of the first: one Gram-Schmidt sweep loses
    # orthogonality in proportion to the condition number; two must not
    nc = n * c
    count = 30
    for delta in (1e-6, 1e-9, 1e-12):
        u = np.array(_uniform_block(43, 0, count, 2 * nc))
        for i in range(n):
            for k in range(1, c):
                u[:, i * c + k] = u[:, i * c] * (1 - delta * (i + 1) * k)
                u[:, nc + i * c + k] = u[:, nc + i * c]
        us = _haar_from_uniforms(u, count, n, c)
        assert np.all(np.isfinite(us))
        assert _orthonormality_error(us) < 1e-12
        # the first column is still the normalized first Ginibre column
        ref = _lapack_haar(u, count, n, c)
        assert np.max(np.abs(us[:, :, 0] - ref[:, :, 0])) < 1e-12


# ---------------------------------------------------------------------------
# cache-sized tiles and in-place contractions

@pytest.mark.parametrize("n,c", [(1, 1), (6, 5), (10, 10)])
def test_haar_batch_tiles_concatenate_bit_for_bit(n, c):
    # a draw spanning several tiles equals its pieces drawn at their own
    # offsets, single samples included
    tile = _TILE_ENTRIES // (n * c)
    count = 2 * tile + 3
    start = 5
    whole = haar_batch(n, count, 77, start=start, cols=c)
    assert len(list(_haar_tiles(n, count, 77, start, c))) >= 3
    cuts = [0, 1, 3, 4, tile + 1, count - 1, count]
    pieces = [haar_batch(n, hi - lo, 77, start=start + lo, cols=c)
              for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(whole, np.concatenate(pieces))


def test_tiles_never_hold_a_single_sample():
    for entries in (1, 30, 100, 10 ** 4, 10 ** 6):
        target = max(4, _TILE_ENTRIES // entries)
        for count in (2, 3, target + 1, 2 * target + 1, 5 * target - 1):
            bounds = _tile_bounds(count, entries)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == count
            assert 2 <= sizes.min() and sizes.max() <= target


def _contract_out_of_place(u, conj, plain):
    vals = np.ones(u.shape[2], dtype=np.complex128)
    for k, i in conj:
        vals = vals * np.conj(u[k, i])
    for k, i in plain:
        vals = vals * u[k, i]
    return vals


@pytest.mark.parametrize("conj,plain", [
    ([], []), ([(0, 0)], []), ([], [(0, 1)]),
    ([(0, 0), (1, 2)], [(1, 0), (0, 2)]),
    ([(2, 1), (0, 3), (1, 1)], [(2, 1), (1, 3), (0, 0)])])
def test_haar_contraction_matches_out_of_place_reference(conj, plain):
    slabs = haar_batch(4, 500, 12, start=3, cols=3).T  # (c, n, count)
    out = np.empty(500, dtype=np.complex128)
    _haar_contract(slabs, conj, plain, out)
    assert np.array_equal(out, _contract_out_of_place(slabs, conj, plain))


@pytest.mark.parametrize("exponents", [(3, 4), (4, 1, 4), (1, 4, 3),
                                       (3, 2), (0, 4, 0, 3)])
def test_sphere_monomial_matches_pow(exponents):
    n = max(len(exponents), 3)
    x = sphere_batch(n, 2000, 31, start=4)[:, :len(exponents)]
    ref = np.prod(x ** np.array(exponents), axis=1)
    got = _sphere_monomial(x, exponents)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_sphere_estimate_matches_pow_reference():
    e = (0, 3, 0, 4, 1)
    cfg = SamplerConfig(n=5, samples=6000, seed=19, chunk=6000)
    est = estimate_sphere_moment(e, cfg)
    vals = np.prod(sphere_batch(5, 6000, 19) ** np.array(e), axis=1)
    # odd exponents cancel: bound the error by the mean size of a value
    assert abs(est.mean.real - vals.mean()) <= 1e-14 * np.abs(vals).mean()
