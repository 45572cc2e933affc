import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.algebra import (AlgebraElement, cnorm, cnorm_entries, cnorm_sup,
                             positivity_defect, star)


def random_matrix(seed, k=2):
    r = np.random.default_rng(seed)
    return AlgebraElement(r.normal(size=(k, k)) + 1j * r.normal(size=(k, k)))


def test_star_identity_matrix():
    a = AlgebraElement.identity(2)
    assert np.array_equal(star(a).entries, a.entries)


def test_star_nilpotent():
    a = AlgebraElement(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(star(a).entries, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_star_scalar_conjugation():
    a = AlgebraElement(np.array([[1j]]))
    assert star(a).entries[0, 0] == -1j


def test_cnorm_identity():
    assert cnorm(AlgebraElement.identity(2)) == pytest.approx(1.0)


def test_cnorm_diagonal():
    assert cnorm(AlgebraElement(np.diag([3.0, -4.0]))) == pytest.approx(4.0)


def test_cnorm_nilpotent():
    # a*a = diag(0, 4), largest singular value 2
    assert cnorm(AlgebraElement(np.array([[0.0, 2.0], [0.0, 0.0]]))) == pytest.approx(2.0)


def test_cnorm_zero_iff_zero():
    assert cnorm(AlgebraElement.zero(3)) == 0.0


def test_positivity_defect_psd():
    a = random_matrix(0)
    gram = star(a) @ a
    assert positivity_defect(gram) <= 1e-12 * cnorm(gram)


def test_positivity_defect_negative():
    a = AlgebraElement(np.diag([1.0, -2.0]))
    assert positivity_defect(a) == pytest.approx(2.0)


def test_positivity_defect_nonhermitian():
    a = AlgebraElement(np.array([[0.0, 1.0], [0.0, 0.0]]))
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


@given(st.integers(0, 10_000))
def test_star_involution(seed):
    a = random_matrix(seed)
    assert np.allclose(star(star(a)).entries, a.entries)


@given(st.integers(0, 10_000))
def test_cstar_identity(seed):
    a = random_matrix(seed)
    assert cnorm(star(a) @ a) == pytest.approx(cnorm(a) ** 2, rel=1e-10)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_norm_submultiplicative(s1, s2):
    a, b = random_matrix(s1), random_matrix(s2)
    assert cnorm(a @ b) <= cnorm(a) * cnorm(b) * (1 + 1e-12)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_star_antimultiplicative(s1, s2):
    a, b = random_matrix(s1), random_matrix(s2)
    assert np.allclose(star(a @ b).entries, (star(b) @ star(a)).entries)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        AlgebraElement(np.zeros((2, 3)))
