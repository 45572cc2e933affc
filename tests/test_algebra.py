import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.algebra import (cnorm, cnorm_entries, cnorm_sup, cnorm_sup_slabs,
                             positivity_defect, slab_differences)
from rieffel.deformation import CutoffFamily, oscillatory_integral
from rieffel.errors import GridMismatchError
from rieffel.grids import GridSpec
from rieffel.module_space import ModuleFunction, inner_product
from rieffel.symbolic_calculus import GammaKernel, gamma_reproduce


def random_matrix(seed, k=2):
    r = np.random.default_rng(seed)
    return r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))


def test_cnorm_identity():
    assert cnorm(np.eye(2, dtype=complex)) == pytest.approx(1.0)


def test_cnorm_diagonal():
    assert cnorm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0)


def test_cnorm_nilpotent():
    # a*a = diag(0, 4), largest singular value 2
    assert cnorm(np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)) == pytest.approx(2.0)


def test_cnorm_zero_iff_zero():
    assert cnorm(np.zeros((3, 3), dtype=complex)) == 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cnorm_rejects_non_finite(bad):
    # the rule of cnorm_entries: a non-finite entry raises, never a silent nan
    with pytest.raises(np.linalg.LinAlgError):
        cnorm(np.array([[1.0, bad], [0.0, 1.0]], dtype=complex))


def test_cnorm_matches_numpy_spectral_norm():
    r = np.random.default_rng(21)
    for k in (1, 2, 3, 4):
        for _ in range(200):
            a = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
            assert cnorm(a) == float(np.linalg.norm(a, ord=2))


def test_algebra_values_are_plain_arrays():
    k = 3
    M = random_matrix(4, k)
    f = ModuleFunction.from_function(GridSpec(1, 16, 4.0), lambda x: np.exp(-x * x),
                                     algebra_dim=k)
    gauss = lambda u, v: np.exp(-(u[..., 0] ** 2 + v[..., 0] ** 2))[..., None, None] * M
    values = [inner_product(f, f),
              gamma_reproduce(lambda p: np.broadcast_to(M, p.shape[:-1] + (k, k)),
                              GammaKernel(), n=1),
              oscillatory_integral(gauss, 1, CutoffFamily(4.0, 3))[0]]
    for val in values:
        assert type(val) is np.ndarray
        assert val.shape == (k, k) and val.dtype == complex


def test_positivity_defect_psd():
    a = random_matrix(0)
    gram = a.conj().T @ a
    assert positivity_defect(gram) <= 1e-12 * cnorm(gram)


def test_positivity_defect_negative():
    a = np.diag([1.0, -2.0]).astype(complex)
    assert positivity_defect(a) == pytest.approx(2.0)


def test_positivity_defect_nonhermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert positivity_defect(a) > 0.5


def test_cnorm_entries_batched():
    stack = np.stack([np.eye(2), np.diag([3.0, -4.0]) + 0j])
    assert np.allclose(cnorm_entries(stack), [1.0, 4.0])


def test_cnorm_entries_scalar_fast_path():
    stack = np.array([[[2j]], [[-3.0 + 0j]]])
    assert np.allclose(cnorm_entries(stack), [2.0, 3.0])


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unitaries(rng, m):
    q, r = np.linalg.qr(_complex(rng, m, 2, 2))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _norm_batch(kind, rng, m=2048):
    if kind == "random":
        return _complex(rng, m, 2, 2)
    if kind == "scaled_unitary":
        return _unitaries(rng, m) * np.exp(rng.uniform(-5, 5, m))[:, None, None]
    if kind == "nearly_unitary":
        return _unitaries(rng, m) + 1e-9 * _complex(rng, m, 2, 2)
    if kind == "rank_one":
        return _complex(rng, m, 2, 1) @ _complex(rng, m, 1, 2)
    if kind == "zero":
        return np.zeros((m, 2, 2), dtype=complex)
    if kind == "tiny":
        return 1e-300 * _complex(rng, m, 2, 2)
    if kind == "huge":
        return 1e200 * _complex(rng, m, 2, 2)
    if kind == "mixed":
        return np.concatenate([_norm_batch(k, rng, m // 8) for k in (
            "random", "scaled_unitary", "nearly_unitary", "rank_one", "zero",
            "tiny", "huge")]).reshape(-1, 4, 2, 2)
    if kind == "k3":
        return _complex(rng, m, 3, 3)
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["random", "scaled_unitary", "nearly_unitary",
                                  "rank_one", "zero", "tiny", "huge", "mixed", "k3"])
def test_cnorm_entries_matches_svd(kind):
    # the k=2 closed form against the SVD; observed <= 9e-16 relative
    batch = _norm_batch(kind, np.random.default_rng(11))
    ref = np.linalg.svd(batch, compute_uv=False)[..., 0]
    got = cnorm_entries(batch)
    assert got.shape == ref.shape
    assert np.all((got == 0) == (ref == 0))
    nz = ref > 0
    assert np.all(np.abs(got[nz] - ref[nz]) <= 4e-15 * ref[nz])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_cnorm_entries_rejects_non_finite(k, bad):
    batch = np.ones((5, k, k), dtype=complex)
    batch[3, 1, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        cnorm_entries(batch)


def _sup_batch(family, k, rng, m=512):
    if family == "random":
        return _complex(rng, m, k, k)
    if family == "scaled_up":
        return 1e150 * _complex(rng, m, k, k)
    if family == "scaled_down":
        return 1e-150 * _complex(rng, m, k, k)
    if family == "rank_one":
        return _complex(rng, m, k, 1) @ _complex(rng, m, 1, k)
    if family == "phase_copies":
        # equal Frobenius and spectral norms: every matrix is a candidate
        return np.exp(1j * rng.uniform(0, 2 * np.pi, m))[:, None, None] * \
            _complex(rng, k, k)
    if family == "dominant":
        batch = 1e-3 * _complex(rng, m, k, k)
        batch[rng.integers(m)] = _complex(rng, k, k)
        return batch
    raise ValueError(family)


@pytest.mark.parametrize("family", ["random", "scaled_up", "scaled_down",
                                    "rank_one", "phase_copies", "dominant"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cnorm_sup_equals_full_max(family, k):
    # the pruned supremum is the full one bit for bit, over 10 batches each
    rng = np.random.default_rng(17 * k)
    for _ in range(10):
        batch = _sup_batch(family, k, rng).reshape(8, -1, k, k)
        assert cnorm_sup(batch) == float(cnorm_entries(batch).max())


def test_cnorm_sup_zero_and_tiny():
    assert cnorm_sup(np.zeros((4, 16, 2, 2), dtype=complex)) == 0.0
    # the squares of 1e-200 underflow to 0, yet the field is not zero
    tiny = np.full((64, 2, 2), 1e-200, dtype=complex)
    assert cnorm_sup(tiny) == float(cnorm_entries(tiny).max())
    assert cnorm_sup(tiny) == pytest.approx(2e-200, rel=1e-15)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_cnorm_sup_rejects_non_finite_in_small_matrix(k, bad):
    # the bad entry sits in a matrix far below the pruning threshold
    batch = np.ones((5, k, k), dtype=complex)
    batch[3] *= 1e-3
    batch[3, 1, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        cnorm_sup(batch)


def _peak_bytes(fn, x):
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cnorm_sup_memory_on_product_grid():
    # an N = 32, k = 2 product grid (64 MB); observed peak 0.2x the input,
    # while the full norm field and its temporaries reach about 1x
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32,) * 4 + (2, 4)).view(complex)
    assert _peak_bytes(cnorm_sup, x) <= 0.5 * x.nbytes
    assert _peak_bytes(lambda e: cnorm_entries(e).max(), x) > 0.5 * x.nbytes


def _stream(where, k, rng, slabs=5):
    """Slabs of 64 random k x k matrices of norm about 1; the slab at index
    where (if any) is scaled by 3, so it holds the maximum."""
    out = [_complex(rng, 64, k, k) for _ in range(slabs)]
    if where is not None:
        out[where] = 3 * out[where]
    return out


def _folded(slabs, reference):
    # every slab is handed over as a fresh copy and overwritten once the
    # fold has drawn the next one, as a reused slab buffer would be
    def draw():
        buf = None
        for s in slabs:
            if buf is not None:
                buf[...] = np.nan
            buf = s.copy()
            yield buf
    got = cnorm_sup_slabs(draw())
    return got, float(np.max([0.0, *map(reference, slabs)]))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_cnorm_sup_slabs_equals_max_of_cnorm_sup(where, k):
    # maximum in the first, a middle or the last slab: bit for bit, also
    # against the unpruned norms
    rng = np.random.default_rng(10 * where + k)
    slabs = _stream(where, k, rng)
    got, ref = _folded(slabs, cnorm_sup)
    assert got == ref == float(max(cnorm_entries(s).max() for s in slabs))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cnorm_sup_slabs_floor_prunes_whole_slab(k, monkeypatch):
    # slab 3, far below the running maximum of slabs 0-2, is never normed
    # (only its Frobenius pass runs); slab 4 still raises the maximum.  At
    # k = 1 the fold takes |z| itself and norms no slab at all
    rng = np.random.default_rng(k)
    slabs = _stream(4, k, rng)
    slabs[3] = 1e-3 * slabs[3]
    largest = []
    real = cnorm_entries
    monkeypatch.setattr("rieffel.algebra.cnorm_entries",
                        lambda e: largest.append(np.abs(e).max()) or real(e))
    got, ref = _folded(slabs, lambda s: float(real(s).max()))
    assert got == ref
    if k == 1:
        assert largest == []
    else:
        assert min(largest) > 1e-2 and max(largest) > 2.0


def test_cnorm_sup_slabs_floor_keeps_rank_one_above_it():
    # slab 0: unitaries (norm 1, ||A||_F^2 = 2); slab 1: rank-one matrices
    # of norm 1.1 (||A||_F^2 = 1.21), below slab 0's Frobenius maximum but
    # above the floor 1, so they set the result
    rng = np.random.default_rng(11)
    v = _complex(rng, 64, 2, 1)
    v /= np.linalg.norm(v, axis=(1, 2), keepdims=True)
    slabs = [_unitaries(rng, 64), 1.1 * v @ np.swapaxes(v.conj(), 1, 2)]
    got, ref = _folded(slabs, cnorm_sup)
    assert got == ref == pytest.approx(1.1, rel=1e-14)


def test_cnorm_sup_slabs_later_nan_at_k1():
    rng = np.random.default_rng(7)
    slabs = _stream(0, 1, rng)
    slabs[3][5] = np.nan
    got, ref = _folded(slabs, cnorm_sup)
    assert np.isnan(got) and np.isnan(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan), 0.0,
                                 1e-200, 1e200])
def test_cnorm_sup_slabs_k1_takes_modulus(bad):
    # k = 1 folds |z| directly: bit for bit the max of the moduli, NaN if
    # any is NaN, over slabs with one special entry, all-zero slabs and
    # entries whose squares underflow or overflow
    rng = np.random.default_rng(12)
    slabs = _stream(None, 1, rng)
    slabs[1][3] = bad
    slabs[2] = np.zeros_like(slabs[2])
    slabs[4] = 1e-200 * slabs[4]
    got, ref = _folded(slabs, lambda s: float(cnorm_entries(s).max()))
    assert got == ref or (np.isnan(got) and np.isnan(ref))
    assert cnorm_sup_slabs([np.zeros((8, 1, 1), dtype=complex)] * 3) == 0.0
    assert cnorm_sup_slabs([np.full((8, 1, 1), 1e-200)]) == 1e-200


def test_cnorm_sup_slabs_zero_and_empty_streams():
    assert cnorm_sup_slabs([np.zeros((8, 2, 2), dtype=complex)] * 3) == 0.0
    assert cnorm_sup_slabs(iter([])) == 0.0


@pytest.mark.parametrize("through_differences", [False, True])
def test_folds_drop_each_slab_before_drawing_the_next(through_differences):
    # a stream of temporaries must not hold two slabs at once: the previous
    # one is gone when the next is made (the slab itself, or the y of a pair),
    # on the k = 1 path as on the general one
    rng = np.random.default_rng(9)
    for k in (1, 2):
        xs = _stream(None, k, rng)
        alive = []

        def temporaries():
            for x in xs:
                t = 0.5 * x
                ref = weakref.ref(t)
                yield (x, t) if through_differences else t
                del t
                alive.append(ref() is not None)
        stream = temporaries()
        if through_differences:
            stream = slab_differences(stream)
        assert cnorm_sup_slabs(stream) == cnorm_sup(np.stack([0.5 * x for x in xs]))
        assert len(alive) == len(xs) and not any(alive)


def test_slab_differences_reuse_one_buffer():
    rng = np.random.default_rng(8)
    xs, ys = _stream(None, 2, rng), _stream(None, 2, rng)
    diffs = list(slab_differences(zip(xs, ys)))
    assert all(d is diffs[0] for d in diffs)
    # each difference is exact while it is current
    assert all(np.array_equal(d, x - y)
               for d, x, y in zip(slab_differences(zip(xs, ys)), xs, ys))


@given(st.integers(0, 10_000))
def test_cstar_identity(seed):
    a = random_matrix(seed)
    assert cnorm(a.conj().T @ a) == pytest.approx(cnorm(a) ** 2, rel=1e-10)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_norm_submultiplicative(s1, s2):
    a, b = random_matrix(s1), random_matrix(s2)
    assert cnorm(a @ b) <= cnorm(a) * cnorm(b) * (1 + 1e-12)


def test_rejects_nonsquare():
    # a (2, 3) coefficient makes k x 3 samples, which ModuleFunction refuses
    f = ModuleFunction.from_function(GridSpec(1, 16, 4.0), lambda x: np.exp(-x * x),
                                     algebra_dim=2)
    with pytest.raises(GridMismatchError):
        f.right_multiply(np.zeros((2, 3)))
