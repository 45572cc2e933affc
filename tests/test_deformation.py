import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.deformation import (CutoffFamily, SkewForm, approximate_identity,
                                 bump_profile, deformed_product, mollifier_hat,
                                 oscillatory_integral, twisted_coefficients)
from rieffel.errors import DivergenceError, GridMismatchError, ResolutionError
from rieffel.grids import GridSpec
from rieffel.module_space import ModuleFunction, module_norm, translate

G = GridSpec(2, 32, 8.0)
J = SkewForm.standard(0.5)


def plane_wave(grid, p, k=1):
    mesh = grid.mesh()
    arg = sum(p[d] * mesh[d] for d in range(grid.n))
    return ModuleFunction(grid, np.exp(1j * arg)[..., None, None] * np.eye(k))


def matrix_gaussian(grid, seed, alpha=0.5, k=2):
    r = np.random.default_rng(seed)
    mesh = grid.mesh()
    c = r.uniform(-1, 1, size=grid.n)
    r2 = sum((mesh[d] - c[d]) ** 2 for d in range(grid.n))
    M = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    return ModuleFunction(grid, np.exp(-alpha * r2)[..., None, None] * M)


def test_skew_form_validation():
    # J = theta Omega on n = 2, zero on n = 1; no other dimension exists
    for n in (0, 3):
        with pytest.raises(ValueError, match="only n = 1 and 2"):
            SkewForm(0.0, n)
        with pytest.raises(ValueError, match="only n = 1 and 2"):
            SkewForm.standard(n=n)
    with pytest.raises(ValueError, match="n = 1 grid"):
        SkewForm(0.5, 1)
    with pytest.raises(ValueError, match="n = 1 grid"):
        SkewForm.standard(0.5, 1)
    # a non-finite theta is refused where J is built, on either grid dimension
    for theta, n in [(np.nan, 2), (np.inf, 2), (-np.inf, 2), (np.nan, 1)]:
        with pytest.raises(ValueError, match="theta must be finite"):
            SkewForm(theta, n)
    with pytest.raises(ValueError, match="theta must be finite"):
        SkewForm.standard(np.inf)
    assert SkewForm.standard(0.5).theta == 0.5
    assert SkewForm(0.0, 1).n == 1
    assert np.array_equal(SkewForm(0.0, 1).entries, np.zeros((1, 1)))
    assert np.array_equal(SkewForm.standard(-0.7).entries,
                          np.array([[0.0, -0.7], [0.7, 0.0]]))


def test_skew_form_equality_hash_and_rescaled():
    # a form is its (theta, n): equal forms compare and hash equal, so a
    # form can key a cache
    assert SkewForm.standard() == SkewForm.standard() == SkewForm(0.5, 2)
    assert hash(SkewForm.standard()) == hash(SkewForm(0.5))
    assert SkewForm.standard(0.5) != SkewForm.standard(0.25)
    assert SkewForm(0.0, 2) != SkewForm(0.0, 1)
    assert len({SkewForm.standard(), SkewForm(0.5), SkewForm(0.0, 2)}) == 2
    assert SkewForm.standard(0.5).rescaled(-2.0) == SkewForm(-1.0)
    assert SkewForm(0.0, 1).rescaled(3.0) == SkewForm(0.0, 1)
    assert np.array_equal(SkewForm.standard(0.5).rescaled(2 * np.pi).entries,
                          2 * np.pi * SkewForm.standard(0.5).entries)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_plane_wave_law(p1, p2, q1, q2):
    # e_p x_J e_q = exp(-i p.Jq) e_{p+q} for dual-lattice frequencies
    p = G.dual_spacing * np.array([p1, p2])
    q = G.dual_spacing * np.array([q1, q2])
    prod = deformed_product(plane_wave(G, p), plane_wave(G, q), J)
    expect = complex(np.exp(-1j * (p @ J.apply(q)))) * plane_wave(G, p + q)
    assert (prod - expect).sup_norm() <= 1e-9


def test_weyl_exchange_relation():
    p = G.dual_spacing * np.array([3, -1])
    q = G.dual_spacing * np.array([1, 2])
    ab = deformed_product(plane_wave(G, p), plane_wave(G, q), J)
    ba = deformed_product(plane_wave(G, q), plane_wave(G, p), J)
    phase = complex(np.exp(-2j * (p @ J.apply(q))))
    assert (ab - phase * ba).sup_norm() <= 1e-9


def test_zero_form_collapses_to_pointwise():
    f = matrix_gaussian(G, 1)
    g = matrix_gaussian(G, 2)
    prod = deformed_product(f, g, SkewForm(0.0, 2))
    ref = ModuleFunction(G, np.einsum("...ab,...bc->...ac", f.samples, g.samples))
    assert (prod - ref).sup_norm() <= 1e-10 * ref.sup_norm()


def test_constant_identity_is_unit():
    one = ModuleFunction.from_function(G, lambda x, y: np.ones(G.shape),
                                       algebra_dim=2)
    u = matrix_gaussian(G, 3)
    assert (deformed_product(one, u, J) - u).sup_norm() <= 1e-12 * u.sup_norm()
    assert (deformed_product(u, one, J) - u).sup_norm() <= 1e-12 * u.sup_norm()


def test_left_action_shift_law():
    # L applied to a plane wave translates the left factor's argument
    p = G.dual_spacing * np.array([2, -3])
    f = matrix_gaussian(G, 4)
    lhs = deformed_product(f, plane_wave(G, p, k=2), J)
    rhs = ModuleFunction(
        G, translate(f, J.apply(p)).samples
        * plane_wave(G, p).samples[..., :1, :1])
    assert (lhs - rhs).sup_norm() <= 1e-10 * rhs.sup_norm()


def test_associativity_and_refinement():
    res = {}
    for npts in (32, 64):
        g = GridSpec(2, npts, 8.0)
        f, h, w = (matrix_gaussian(g, s, alpha=3.0) for s in (5, 6, 7))
        lhs = deformed_product(deformed_product(f, h, J), w, J)
        rhs = deformed_product(f, deformed_product(h, w, J), J)
        res[npts] = (lhs - rhs).sup_norm() / lhs.sup_norm()
    assert res[64] <= 1e-6
    assert res[64] <= res[32]


def test_left_right_actions_commute():
    g = GridSpec(2, 64, 8.0)
    f = matrix_gaussian(g, 8, alpha=1.0)
    h = matrix_gaussian(g, 9, alpha=1.0)
    u = matrix_gaussian(g, 10, alpha=1.0)
    lhs = deformed_product(f, deformed_product(u, h, J), J)
    rhs = deformed_product(deformed_product(f, u, J), h, J)
    assert (lhs - rhs).sup_norm() <= 1e-6 * lhs.sup_norm()


def direct_twisted_sum(fhat, ghat, grid, J):
    """C^(r) = (2 pi)^(-n/2) dxi^n sum_{p+q=r} e^{-i p.Jq} F^(p) G^(q), one
    p at a time over every q: index i has frequency (i - N/2) dxi, so p + q
    lands on index i + j - N/2, wrapped into the band."""
    n, npts = grid.n, grid.points
    half = npts // 2
    xi = grid.dual_axis()
    qs = np.stack(grid.dual_mesh(), axis=-1)
    out = np.zeros(fhat.shape[:n] + (fhat.shape[-2], ghat.shape[-1]), dtype=complex)
    for i in np.ndindex(*fhat.shape[:n]):
        p = xi[list(i)]
        twist = np.exp(-1j * (qs @ (J.T @ p)))  # e^{-i p.Jq}
        term = twist[..., None, None] * np.matmul(fhat[i], ghat)
        r = np.ix_(*[(i[d] + np.arange(npts) - half) % npts for d in range(n)])
        out[r] += term
    return (2 * np.pi) ** (-n / 2) * grid.dual_spacing ** n * out


@pytest.mark.parametrize("n, k, theta", [
    (2, 1, 0.5), (2, 2, 0.5), (2, 3, 0.5),
    (2, 1, -0.7), (2, 2, -0.7), (2, 3, -0.7),
    (1, 2, 0.0), (2, 2, 0.0)])
def test_twisted_coefficients_match_direct_sum(n, k, theta):
    # random full-band coefficients, so p + q wraps at the band edge
    g = GridSpec(n, 16, 8.0)
    r = np.random.default_rng([n, k, int(10 * theta) + 10])
    shape = g.shape + (k, k)
    fhat = r.normal(size=shape) + 1j * r.normal(size=shape)
    ghat = r.normal(size=shape) + 1j * r.normal(size=shape)
    Jt = SkewForm.standard(theta, n)
    fast = twisted_coefficients(fhat, ghat, g, Jt.theta)
    ref = direct_twisted_sum(fhat, ghat, g, Jt.entries)
    assert fast.shape == ref.shape
    assert np.abs(fast - ref).max() <= 1e-14 * np.abs(ref).max()


def frozen_twisted_coefficients(fhat, ghat, grid, theta, r2_offset=0):
    """The n = 2, theta != 0 kernel as it stood before its buffers were
    allocated once per call: fresh arrays for every q2, and each q2's
    channel products rolled into the accumulator by two slice-adds.  Kept
    as the bit-for-bit reference for the rewritten kernel; r2_offset moves
    the roll, as a negative control."""
    npts = grid.points
    half = npts // 2
    scale = (2 * np.pi) ** -1.0 * grid.dual_spacing ** 2
    ft = np.ascontiguousarray(fhat.transpose(2, 3, 1, 0))  # [a, b, p2, p1]
    gt = np.ascontiguousarray(ghat.transpose(2, 3, 1, 0))  # [b, c, q2, q1]
    k = ft.shape[0]
    xi = grid.dual_axis()
    txx = theta * np.outer(xi, xi)
    mods = np.exp(-1j * txx)
    bphase = np.exp(1j * txx)
    acc = np.zeros(ft.shape, dtype=complex)
    for q2 in range(npts):
        fa = np.fft.fft(ft * mods[q2], axis=-1)
        fb = np.fft.fft(gt[:, :, q2, None, :] * bphase, axis=-1)
        prod = np.empty((k, k) + fa.shape[2:], dtype=complex)
        tmp = np.empty(fa.shape[2:], dtype=complex)
        for a in range(k):
            for c in range(k):
                np.multiply(fa[a, 0], fb[0, c], out=prod[a, c])
                for b in range(1, k):
                    prod[a, c] += np.multiply(fa[a, b], fb[b, c], out=tmp)
        s = (q2 - half + r2_offset) % npts
        acc[:, :, s:] += prod[:, :, :npts - s]
        acc[:, :, :s] += prod[:, :, npts - s:]
    sign = np.where(np.arange(npts) % 2 == 0, scale, -scale)
    out = np.fft.ifft(acc * sign, axis=-1)
    return np.ascontiguousarray(out.transpose(3, 2, 0, 1))


def full_band_pair(npts, k, seed):
    r = np.random.default_rng(seed)
    shape = (npts, npts, k, k)
    return tuple(r.normal(size=shape) + 1j * r.normal(size=shape) for _ in range(2))


@pytest.mark.parametrize("theta", [0.5, -0.7])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("npts", [16, 32])
def test_twisted_coefficients_bit_identical_to_frozen_kernel(npts, k, theta):
    # full-band coefficients, so p + q wraps; the same products summed in the
    # same order give the same bits
    g = GridSpec(2, npts, 8.0)
    fhat, ghat = full_band_pair(npts, k, [npts, k, int(10 * theta) + 10])
    fast = twisted_coefficients(fhat, ghat, g, theta)
    assert np.array_equal(fast, frozen_twisted_coefficients(fhat, ghat, g, theta))
    # negative control: the reference with its r2 window off by one differs
    shifted = frozen_twisted_coefficients(fhat, ghat, g, theta, r2_offset=1)
    assert not np.array_equal(fast, shifted)
    assert np.abs(fast - shifted).max() > 1e-3 * np.abs(fast).max()


@pytest.mark.parametrize("theta", [0.5, 0.0])
def test_twisted_coefficients_pure(theta):
    # the inputs are not written, and no buffer outlives a call: interleaved
    # calls on different grids and inputs each equal an independent result
    g1, g2 = GridSpec(2, 16, 8.0), GridSpec(2, 32, 6.0)
    f1, h1 = full_band_pair(16, 2, 1)
    f2, h2 = full_band_pair(32, 3, 2)
    copies = [x.copy() for x in (f1, h1, f2, h2)]
    ref1 = direct_twisted_sum(f1, h1, g1, SkewForm.standard(theta).entries)
    ref2 = direct_twisted_sum(f2, h2, g2, SkewForm.standard(theta).entries)
    first = twisted_coefficients(f1, h1, g1, theta)
    kept = first.copy()
    second = twisted_coefficients(f2, h2, g2, theta)
    again = twisted_coefficients(f1, h1, g1, theta)
    assert all(np.array_equal(x, c) for x, c in zip((f1, h1, f2, h2), copies))
    assert np.array_equal(first, kept) and np.array_equal(again, kept)
    assert np.abs(kept - ref1).max() <= 1e-14 * np.abs(ref1).max()
    assert np.abs(second - ref2).max() <= 1e-14 * np.abs(ref2).max()
    assert np.array_equal(second, twisted_coefficients(f2, h2, g2, theta))


def test_matrix_order_of_plane_wave_product():
    # (A e_p) x_J (B e_q) = e^{-i p.Jq} A B e_{p+q}: the left factor's matrix
    # multiplies from the left, with a and b in their own places
    A = np.array([[1.0, 2.0j], [0.5, -1.0]])
    B = np.array([[0.0, 1.0], [3.0, 1.0j]])
    assert np.abs(A @ B - B @ A).max() > 1.0
    p = G.dual_spacing * np.array([3, -2])
    q = G.dual_spacing * np.array([-1, 4])
    lhs = deformed_product(plane_wave(G, p, k=2).right_multiply(A),
                           plane_wave(G, q, k=2).right_multiply(B), J)
    expect = complex(np.exp(-1j * (p @ J.apply(q)))) * \
        plane_wave(G, p + q, k=2).right_multiply(A @ B)
    assert (lhs - expect).sup_norm() <= 1e-12 * expect.sup_norm()


def test_grid_mismatch():
    f = matrix_gaussian(G, 13)
    g = matrix_gaussian(GridSpec(2, 32, 9.0), 13)
    with pytest.raises(GridMismatchError):
        deformed_product(f, g, J)
    with pytest.raises(GridMismatchError):
        deformed_product(f, f, SkewForm(0.0, 1))


# ---- oscillatory integral oracle


def test_bump_profile_support():
    r = np.array([0.0, 0.5, 0.999, 1.0, 2.0])
    v = bump_profile(r)
    assert v[0] == 1.0 and v[3] == 0.0 and v[4] == 0.0
    assert 0 < v[1] < 1


def test_oscillatory_matches_separable_reference():
    # amplitude exp(-u^2/2 - v^2/2): the twisted integral has the closed form
    # (2 pi)^{-1} * |integral exp(-t^2/2 + i t s) ...| evaluated numerically
    # via a dense direct quadrature on a fixed large box
    amp = lambda u, v: np.exp(-(u[..., 0] ** 2 + v[..., 0] ** 2) / 2.0)[..., None, None]
    val, report = oscillatory_integral(amp, 1, CutoffFamily(4.0, 3), nodes_per_unit=8.0, tol=1e-6)
    ax = np.linspace(-12, 12, 480, endpoint=False)
    du = ax[1] - ax[0]
    ref = (du ** 2 / (2 * np.pi)) * np.einsum(
        "u,v,uv->", np.exp(-ax ** 2 / 2), np.exp(-ax ** 2 / 2),
        np.exp(1j * np.outer(ax, ax)))
    assert report["converged"]
    assert abs(val[0, 0] - ref) <= 1e-6


def test_oscillatory_matches_fast_product_at_point():
    g = GridSpec(1, 64, 8.0)
    f = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 2))
    h = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 3) * (1 + 0.2 * x))
    prod = deformed_product(f, h, SkewForm(0.0, 1))
    x0 = g.axis()[32]
    amp = lambda u, v: (np.exp(-(x0 + 0 * u[..., 0]) ** 2 / 2)
                        * np.exp(-(x0 + v[..., 0]) ** 2 / 3)
                        * (1 + 0.2 * (x0 + v[..., 0])))[..., None, None]
    val, report = oscillatory_integral(amp, 1, CutoffFamily(4.0, 3), nodes_per_unit=8.0, tol=1e-6)
    assert abs(val[0, 0] - prod.samples[32, 0, 0]) <= 1e-6


def test_oscillatory_divergence_detected():
    amp = lambda u, v: np.exp(0.3 * (u[..., 0] ** 2 + v[..., 0] ** 2))[..., None, None]
    with pytest.raises(DivergenceError):
        oscillatory_integral(amp, 1, CutoffFamily(2.0, 3), tol=1e-4)


# ---- approximate identity


def test_mollifier_mass_normalized():
    g = GridSpec(2, 64, 64.0)
    psi = mollifier_hat(4, g)
    assert abs(psi.sum() * g.dual_spacing ** 2 - 1.0) <= 1e-12


def test_mollifier_resolution_guard():
    with pytest.raises(ResolutionError):
        mollifier_hat(8, GridSpec(2, 32, 10.0))


def test_approximate_identity_converges():
    g = GridSpec(2, 64, 64.0)
    Jg = SkewForm.standard(0.5)
    mesh = g.mesh()
    f = ModuleFunction(g, np.exp(-sum(m * m for m in mesh) / 9.0)[..., None, None]
                       * np.eye(2))
    resids = [module_norm(deformed_product(
        approximate_identity(idx, g, 2), f, Jg) - f) for idx in (1, 2, 4)]
    assert resids[0] > resids[1] > resids[2]
