import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel import deformation
from rieffel.deformation import (CutoffFamily, SkewForm, approximate_identity,
                                 bump_profile, deformed_product, mollifier_hat,
                                 oscillatory_integral, twisted_coefficients)
from rieffel.errors import DivergenceError, GridMismatchError, ResolutionError
from rieffel.grids import GridSpec, grid_transform
from rieffel.module_space import ModuleFunction, module_norm, translate
from rieffel.quantization import random_band_coefficients

from reference_ld import LONG_DOUBLE, grid_transform_ld, relative_error, twisted_sum_ld

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


def test_order_zero_of_the_q2_loop_is_pointwise():
    # theta = 1e-300 makes every twist e^{-i theta ...} exactly 1 but still
    # runs the n = 2 q2 loop, where theta = 0 multiplies samples: its
    # r2 window, its (-1)^z sign and its scale must give the pointwise
    # product (observed 7.2e-15 relative on full-band N = 64, k = 2 samples;
    # the window off by one reads order 1)
    g = GridSpec(2, 64, 8.0)
    f, h = (ModuleFunction(g, x) for x in full_band_pair(64, 2, 31))
    prod = deformed_product(f, h, SkewForm(1e-300, 2))
    ref = ModuleFunction(g, np.einsum("...ab,...bc->...ac", f.samples, h.samples))
    assert (prod - ref).sup_norm() <= 1e-13 * ref.sup_norm()


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
    allocated once per call: fresh arrays for every q2, two FFT calls per
    q2, and each q2's channel products rolled into the accumulator by two
    slice-adds, kept as the bit-for-bit reference for the rewritten kernel.
    For n = 1 or theta = 0 the plain cyclic convolution of the coefficients
    by FFT, which the library no longer runs: an independent oracle for its
    pointwise product of the inverse transforms.  r2_offset moves the roll,
    as a negative control."""
    npts = grid.points
    half = npts // 2
    if grid.n == 1 or theta == 0.0:
        n = grid.n
        axes = tuple(range(2, n + 2))
        order = (n, n + 1) + tuple(range(n - 1, -1, -1))
        ft = np.ascontiguousarray(fhat.transpose(order))
        gt = np.ascontiguousarray(ghat.transpose(order))
        fa = np.fft.fftn(np.roll(ft, (r2_offset - half,) * n, axis=axes), axes=axes)
        fb = np.fft.fftn(gt, axes=axes)
        prod = np.empty(fa.shape, dtype=complex)
        tmp = np.empty(fa.shape[2:], dtype=complex)
        for a, c in np.ndindex(prod.shape[:2]):
            np.multiply(fa[a, 0], fb[0, c], out=prod[a, c])
            for b in range(1, fa.shape[1]):
                prod[a, c] += np.multiply(fa[a, b], fb[b, c], out=tmp)
        out = (2 * np.pi) ** (-n / 2) * grid.dual_spacing ** n * np.fft.ifftn(prod, axes=axes)
        return np.ascontiguousarray(out.transpose(tuple(range(n + 1, 1, -1)) + (0, 1)))
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


def full_band_pair(npts, k, seed, n=2):
    r = np.random.default_rng(seed)
    shape = (npts,) * n + (k, k)
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


PRODUCT_CASES = [(n, k, theta, npts) for n in (1, 2) for k in (1, 2, 3)
                 for theta in ((0.5, -0.7, 0.0) if n == 2 else (0.0,))
                 for npts in (16, 32)]


@pytest.mark.parametrize("n, k, theta, npts", PRODUCT_CASES)
def test_deformed_product_bit_identical_to_frozen_path(n, k, theta, npts):
    # the sample finish folds the kernel's last inverse FFT and the inverse
    # transform along the same axis into an index reversal, so the product
    # and the channels-last path (grid_transform, the frozen kernel, inverse
    # grid_transform) agree to roundoff: observed at most 3.8e-16 of the
    # largest entry, and 8.6e-16 at theta = 0, where the product multiplies
    # samples and the frozen path convolves their coefficients.  Against a
    # long-double sum from the same float64 coefficients the product reads
    # 1.8e-16 to 1.8e-15 (the frozen path 2.8e-16 to 1.9e-15), where the
    # oracle is cheap: N = 16, and k = 1 at N = 32
    g = GridSpec(n, npts, 8.0)
    f, h = (ModuleFunction(g, x) for x in
            full_band_pair(npts, k, [n, k, npts, int(10 * theta) + 10], n))
    fhat, hhat = grid_transform(f.samples, g), grid_transform(h.samples, g)

    def frozen(r2_offset):
        chat = frozen_twisted_coefficients(fhat, hhat, g, theta, r2_offset)
        return grid_transform(chat, g, inverse=True)
    prod = deformed_product(f, h, SkewForm(theta, n)).samples
    assert prod.flags.c_contiguous
    assert np.abs(prod - frozen(0)).max() <= 1e-15 * np.abs(prod).max()
    # negative control: the reference with its r2 window off by one differs
    assert np.abs(prod - frozen(1)).max() > 1e-3 * np.abs(prod).max()
    if LONG_DOUBLE and (npts == 16 or k == 1):
        ref = grid_transform_ld(twisted_sum_ld(fhat, hhat, n, 8.0, theta), n, 8.0,
                                inverse=True)
        assert relative_error(prod, ref) <= 3e-15


SAMPLE_CASES = [(2, npts, k, theta) for npts in (16, 18, 32, 96) for k in (1, 2, 3)
                for theta in (0.5, -0.7, 1e-300, 0.0)] + [
    (1, npts, k, 0.0) for npts in (16, 18) for k in (1, 3)]


@pytest.mark.parametrize("n, npts, k, theta", SAMPLE_CASES)
def test_sample_finish_matches_inverse_transform_of_coefficients(n, npts, k, theta):
    # deformed_product's sample finish reverses the kernel's transformed
    # axes, signed and scaled, where the coefficient finish of the samples'
    # transforms and grid_transform run an inverse FFT and a signed inverse
    # transform on the same kernel sum: full-band factors, so every row is
    # visited and p + q wraps; N = 18 has an odd N/2, so (-1)^(j + N/2)
    # starts at -1.  Observed at most 1.4e-15 of the largest entry
    g = GridSpec(n, npts, 8.0)
    f, h = (ModuleFunction(g, grid_transform(c, g, inverse=True))
            for c in full_band_pair(npts, k, [npts, k, 3], n))
    fhat, ghat = grid_transform(f.samples, g), grid_transform(h.samples, g)
    ref = grid_transform(twisted_coefficients(fhat, ghat, g, theta), g, inverse=True)
    got = deformed_product(f, h, SkewForm(theta, n)).samples
    assert got.shape == ref.shape and got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()
    # negative control: the reference of the other sign of theta differs
    if theta and theta != 1e-300:
        other = grid_transform(twisted_coefficients(fhat, ghat, g, -theta), g, inverse=True)
        assert np.abs(got - other).max() > 1e-3 * np.abs(ref).max()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("theta", [0.5, 0.0])
def test_sample_finish_batch_members_keep_their_own_bits(side, theta):
    # band-limited members read back through their samples, one at a
    # thousandth of the others' scale, beside a full-band factor: each
    # member of one deformed_product call is np.array_equal to its own
    npts, k = 32, 2
    g = GridSpec(2, npts, 8.0)
    def field(c):
        return ModuleFunction(g, grid_transform(c, g, inverse=True))
    members = tuple(field(c) for c in [band_pair(npts, k, 51)[0],
                                       1e-3 * band_pair(npts, k, 52)[1],
                                       full_band_pair(npts, k, 53)[0]])
    other, Jt = field(full_band_pair(npts, k, 54)[0]), SkewForm(theta)
    if side == "left":
        parts = deformed_product(members, other, Jt)
        alone = [deformed_product(h, other, Jt) for h in members]
    else:
        parts = deformed_product(other, members, Jt)
        alone = [deformed_product(other, h, Jt) for h in members]
    parts, alone = [x.samples for x in parts], [y.samples for y in alone]
    for x, y in zip(parts, alone):
        assert np.array_equal(x, y)
    # negative control: member 0 is not member 1's product
    assert not np.array_equal(parts[0], alone[1])


def count_fft_calls(monkeypatch):
    """Patch np.fft.fft and np.fft.ifft to record the length of each call's
    transformed lines; returns {"fft": [...], "ifft": [...]}."""
    calls = {"fft": [], "ifft": []}
    for name, lengths in calls.items():
        def counted(a, n=None, axis=-1, *args, _fn=getattr(np.fft, name),
                    _lengths=lengths, **kwargs):
            _lengths.append(np.shape(a)[axis] if n is None else n)
            return _fn(a, n, axis, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_product_fft_calls_pinned(monkeypatch):
    # n = 2, theta != 0: two forward axis transforms per factor, one FFT call
    # per q2 over both modulated factors, then one inverse axis transform,
    # along x2: the sample finish reverses z in place of the kernel's
    # inverse FFT and an inverse x1 transform; every call transforms
    # length-N lines
    calls = count_fft_calls(monkeypatch)
    npts = 16
    g = GridSpec(2, npts, 8.0)
    f, h = (ModuleFunction(g, x) for x in full_band_pair(npts, 2, 3))
    deformed_product(f, h, SkewForm.standard(0.5))
    assert calls == {"fft": [npts] * (npts + 4), "ifft": [npts]}


POINTWISE_CASES = [(n, npts, k) for n in (1, 2) for npts in (16, 32, 64)
                   for k in (1, 2, 3)]


@pytest.mark.parametrize("n, npts, k", POINTWISE_CASES)
def test_zero_form_product_is_the_pointwise_product(monkeypatch, n, npts, k):
    # at J = 0 (theta = 0 on n = 2, every J on n = 1) the product multiplies
    # the samples: no FFT call, and each entry is a k-term complex inner
    # product, within gamma_{k+2} sum_b |F_ab| |G_bc| of the exact one,
    # gamma_m = m u / (1 - m u), u = 2^-53 (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).  Against a
    # long-double pointwise product the full-band cases read at most
    # 1.6e-16 of the largest entry (1.0e-15 through the FFT convolution of
    # the coefficients that this route replaced)
    g = GridSpec(n, npts, 8.0)
    J0 = SkewForm(0.0, n)
    f, h = (ModuleFunction(g, x) for x in full_band_pair(npts, k, [n, npts, k, 41], n))
    w = ModuleFunction(g, full_band_pair(npts, k, [n, npts, k, 42], n)[0])
    calls = count_fft_calls(monkeypatch)
    prod = deformed_product(f, h, J0)
    swapped = deformed_product(h, f, J0)
    assert calls == {"fft": [], "ifft": []}
    monkeypatch.undo()
    # each member of a batch, on either side, is its own product bit for bit
    batched = deformed_product(f, (h, w), J0) + deformed_product((h, w), f, J0)
    alone = [prod, deformed_product(f, w, J0), swapped, deformed_product(w, f, J0)]
    for got, ref in zip(batched, alone, strict=True):
        assert np.array_equal(got.samples, ref.samples)
    if not LONG_DOUBLE:
        return
    x, y = (v.samples.astype(np.clongdouble) for v in (f, h))
    gamma = (k + 2) * 2.0 ** -53 / (1 - (k + 2) * 2.0 ** -53)
    bound = gamma * np.matmul(np.abs(x), np.abs(y))
    ref = np.matmul(x, y)
    assert (np.abs(prod.samples - ref) <= bound).all()
    # negative control: the factors in the other order miss the bound
    if k > 1:
        assert not (np.abs(swapped.samples - ref) <= bound).all()


def sparse_right_factor(case, grid, k, seed):
    """Right-factor coefficients (N, N, k, k) that are non-zero only on some
    q2 rows (axis 1): one row, recover's probe (modes -4..4, 9 rows), the
    two edge rows q2 = 0 and N - 1 (so r2 = p2 + q2 - N/2 wraps), or none."""
    r = np.random.default_rng(seed)
    if case == "probe":
        return random_band_coefficients(grid, k, r)
    shape = grid.shape + (k, k)
    ghat = np.zeros(shape, dtype=complex)
    rows = {"one_row": [3], "edge_rows": [0, grid.points - 1], "zeros": []}[case]
    ghat[:, rows] = (r.normal(size=shape) + 1j * r.normal(size=shape))[:, rows]
    return ghat


@pytest.mark.parametrize("case", ["one_row", "probe", "edge_rows", "zeros"])
@pytest.mark.parametrize("theta", [0.5, -0.7])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("npts", [16, 32])
def test_sparse_q2_loop_bit_identical_to_full_loop(npts, k, theta, case):
    # the kernel visits only the q2 rows where the right factor is non-zero;
    # the frozen kernel visits all N, and its other rows add exact zeros
    g = GridSpec(2, npts, 8.0)
    fhat, _ = full_band_pair(npts, k, [npts, k, int(10 * theta) + 10])
    ghat = sparse_right_factor(case, g, k, [npts, k, 7])
    fast = twisted_coefficients(fhat, ghat, g, theta)
    assert np.array_equal(fast, frozen_twisted_coefficients(fhat, ghat, g, theta))
    if case == "zeros":
        assert not fast.any()
        return
    # negative control: the reference with its r2 window off by one differs
    shifted = frozen_twisted_coefficients(fhat, ghat, g, theta, r2_offset=1)
    assert np.abs(fast - shifted).max() > 1e-3 * np.abs(fast).max()


def test_one_row_right_factor_makes_one_loop_fft(monkeypatch):
    # coefficients on one q2 row: one FFT call in the loop (N when every row
    # was visited) and the inverse after it
    npts = 16
    g = GridSpec(2, npts, 8.0)
    fhat, _ = full_band_pair(npts, 2, 5)
    ghat = sparse_right_factor("one_row", g, 2, 6)
    calls = count_fft_calls(monkeypatch)
    twisted_coefficients(fhat, ghat, g, 0.5)
    assert calls == {"fft": [npts], "ifft": [npts]}


def test_zero_right_rows_are_absent_from_the_sum():
    # a NaN left coefficient at p2 meets only the occupied q2 rows: it
    # reaches the output rows r2 = p2 + q2 - N/2 (mod N) and no other, and
    # nothing at all against an all-zero right factor.  At theta = 0 the
    # inverse transform of fhat spreads it over every sample of its channel,
    # the pointwise product over every x of its matrix row, and the forward
    # transform over every r of that row
    npts, k, p2, q2 = 16, 2, 5, 3
    g = GridSpec(2, npts, 8.0)
    fhat, _ = full_band_pair(npts, k, 8)
    fhat[2, p2, 1, 0] = np.nan
    ghat = sparse_right_factor("one_row", g, k, 9)
    nan_rows = np.isnan(twisted_coefficients(fhat, ghat, g, 0.5)).any(axis=(0, 2, 3))
    assert np.array_equal(np.flatnonzero(nan_rows), [(p2 + q2 - npts // 2) % npts])
    zeros = np.zeros_like(ghat)
    assert np.array_equal(twisted_coefficients(fhat, zeros, g, 0.5), zeros)
    conv = twisted_coefficients(fhat, zeros, g, 0.0)
    assert np.isnan(conv[..., 1, :]).all() and not np.isnan(conv[..., 0, :]).any()


def band_pair(npts, k, seed):
    """Coefficients of two random fields on modes -4..4 of each axis, read
    back through their samples as a product operand is: the draws fill the
    band's 9 q2 rows (axis 1), the transforms' roundoff every other row."""
    g = GridSpec(2, npts, 8.0)
    r = np.random.default_rng(seed)
    return tuple(grid_transform(grid_transform(random_band_coefficients(g, k, r), g,
                                               inverse=True), g) for _ in range(2))


def cut(npts):
    """The kernel's roundoff cut: u log2(N), u = 2^-53."""
    return 2.0 ** -53 * np.log2(npts)


def kept_rows(ghat, rel=None):
    """The q2 rows that some column c of ghat keeps: an entry of modulus at
    least rel (the kernel's cut by default) times max |ghat[..., c]|."""
    rowmax = np.abs(ghat).max(axis=(0, 2))  # [q2, c]
    rel = cut(ghat.shape[0]) if rel is None else rel
    return np.flatnonzero((rowmax >= rel * rowmax.max(axis=0)).any(axis=1))


def band_rows(npts):
    """The 9 rows of modes -4..4 (band_pair, random_band_coefficients)."""
    return list(range(npts // 2 - 4, npts // 2 + 5))


def test_roundoff_rows_of_band_limited_factor_are_skipped(monkeypatch):
    # the loop makes one FFT call per kept row, exactly the band's 9 of 64,
    # where every other row holds transform roundoff of at least u/8 of its
    # column's largest entry (observed 0.29 u to 0.99 u), which a cut at
    # u/8 would keep; the cut rows move the result by 1.9e-16 of its
    # largest entry against the full loop
    npts = 64
    g = GridSpec(2, npts, 8.0)
    fhat, ghat = band_pair(npts, 2, 21)
    rows = kept_rows(ghat)
    assert list(rows) == band_rows(npts) and len(kept_rows(ghat, 2.0 ** -56)) == npts
    calls = count_fft_calls(monkeypatch)
    fast = twisted_coefficients(fhat, ghat, g, 0.5)
    assert calls == {"fft": [npts] * len(rows), "ifft": [npts]}
    monkeypatch.undo()
    full = frozen_twisted_coefficients(fhat, ghat, g, 0.5)
    assert np.abs(fast - full).max() <= 2e-15 * np.abs(full).max()


def test_roundoff_cut_band_limited_pair_matches_direct_sum():
    g = GridSpec(2, 32, 8.0)
    for theta in (0.5, -0.7):
        fhat, ghat = band_pair(32, 2, [22, int(10 * theta) + 10])
        assert len(kept_rows(ghat)) < 32
        fast = twisted_coefficients(fhat, ghat, g, theta)
        ref = direct_twisted_sum(fhat, ghat, g, SkewForm.standard(theta).entries)
        assert np.abs(fast - ref).max() <= 1e-14 * np.abs(ref).max()


def test_roundoff_cut_boundary_per_column(monkeypatch):
    # exact band coefficients, 9 rows, with column 0 a thousand times column
    # 1.  At N = 32 the cut is 5 u; one more entry on row 2 of column 1 at 4
    # u M_1 is cut, so the loop makes the band's 9 calls and the result
    # keeps the band's bits, and at 6 u M_1 it is kept (10 calls); a cut at
    # u would keep both, one at u N both neither.  M_1 is column 1's own
    # maximum: against column 0's, both entries would be cut.  The kernel's
    # own input keeps the cut entry: the cut zeroes a copy
    npts, k, q2 = 32, 2, 2
    g = GridSpec(2, npts, 8.0)
    fhat, _ = full_band_pair(npts, k, 23)
    ghat = random_band_coefficients(g, k, np.random.default_rng(24))
    ghat[..., 0] *= 1e3
    band = twisted_coefficients(fhat, ghat, g, 0.5)
    unit = 2.0 ** -53 * np.abs(ghat[..., 1]).max()
    ft = np.ascontiguousarray(fhat.transpose(2, 3, 1, 0))  # [a, b, p2, p1]
    for factor, loop_ffts in [(4.0, 9), (6.0, 10)]:
        probe = ghat.copy()
        probe[5, q2, 0, 1] = factor * unit
        gt = np.ascontiguousarray(probe.transpose(2, 3, 1, 0))
        before = gt.copy()
        calls = count_fft_calls(monkeypatch)
        got = twisted_coefficients(fhat, probe, g, 0.5)
        monkeypatch.undo()
        assert calls == {"fft": [npts] * loop_ffts, "ifft": [npts]}
        deformation._twisted_kernel(ft, gt, g, 0.5)
        assert np.array_equal(gt, before)
        if factor < 5:
            assert np.array_equal(got, band)
        else:
            assert np.abs(got - band).max() <= 1e-15 * np.abs(band).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_roundoff_cut_spares_non_finite_column(monkeypatch, bad):
    # column 0 of a band-limited right factor holds one non-finite entry: it
    # keeps every row, noise included, so the loop visits all N and column
    # 0 is the full loop's; column 1 beside it keeps the bits of its own
    # product, which cuts its noise rows
    npts, k = 32, 2
    g = GridSpec(2, npts, 8.0)
    fhat, ghat = band_pair(npts, k, 25)
    ghat[3, npts // 2, 1, 0] = bad
    assert len(kept_rows(ghat[..., 1:])) < npts
    calls = count_fft_calls(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = twisted_coefficients(fhat, ghat, g, 0.5)
        assert calls == {"fft": [npts] * npts, "ifft": [npts]}
        monkeypatch.undo()
        full = frozen_twisted_coefficients(fhat, ghat, g, 0.5)
    assert np.array_equal(got[..., 0], full[..., 0], equal_nan=True)
    alone = twisted_coefficients(fhat, ghat[..., 1:], g, 0.5)
    assert np.isfinite(alone).all() and np.array_equal(got[..., 1:], alone)


def count_fft_lines(monkeypatch):
    """Patch np.fft.fft and np.fft.ifft to record how many lines each call
    transforms; returns {"fft": [...], "ifft": [...]}."""
    calls = {"fft": [], "ifft": []}
    for name, lines in calls.items():
        def counted(a, n=None, axis=-1, *args, _fn=getattr(np.fft, name),
                    _lines=lines, **kwargs):
            _lines.append(np.size(a) // np.shape(a)[axis])
            return _fn(a, n, axis, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def kept_left_rows(fhat, rel=None):
    """The p2 rows that some row a of fhat keeps: an entry of modulus at
    least rel (the kernel's cut by default) times max |fhat[..., a, :]|."""
    rowmax = np.abs(fhat).max(axis=(0, 3))  # [p2, a]
    rel = cut(fhat.shape[0]) if rel is None else rel
    return np.flatnonzero((rowmax >= rel * rowmax.max(axis=0)).any(axis=1))


@pytest.mark.parametrize("case", ["one_row", "probe", "edge_rows", "zeros"])
@pytest.mark.parametrize("theta", [0.5, -0.7])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("npts", [16, 32])
def test_roundoff_sparse_left_rows_bit_identical_to_full_loop(npts, k, theta, case):
    # a left factor non-zero only on some p2 rows (axis 1, as the right
    # factor's q2 rows in sparse_right_factor): the loop transforms only
    # those rows, the frozen kernel all N, and its other rows add exact zeros
    g = GridSpec(2, npts, 8.0)
    fhat = sparse_right_factor(case, g, k, [npts, k, 17])
    _, ghat = full_band_pair(npts, k, [npts, k, int(10 * theta) + 10])
    fast = twisted_coefficients(fhat, ghat, g, theta)
    assert np.array_equal(fast, frozen_twisted_coefficients(fhat, ghat, g, theta))
    if case == "zeros":
        assert not fast.any()
        return
    # negative control: the reference with its r2 window off by one differs
    shifted = frozen_twisted_coefficients(fhat, ghat, g, theta, r2_offset=1)
    assert np.abs(fast - shifted).max() > 1e-3 * np.abs(fast).max()


@pytest.mark.parametrize("k", [1, 2])
def test_roundoff_loop_transforms_only_kept_left_rows(monkeypatch, k):
    # each loop FFT call transforms (A B + B C) |P| lines, P the p2 rows the
    # left factor keeps (the band's 9 of 64 here, where every other row holds
    # roundoff of 0.24 u to 1.3 u, which a cut at u/8 keeps): against a
    # full-band right factor every q2 is visited, against a band-limited one
    # only its kept rows
    npts = 64
    g = GridSpec(2, npts, 8.0)
    fhat, ghat = band_pair(npts, k, [31, k])
    _, full = full_band_pair(npts, k, [32, k])
    rows = kept_left_rows(fhat)
    assert list(rows) == band_rows(npts) and len(kept_left_rows(fhat, 2.0 ** -56)) == npts
    for right, q2_rows in [(full, npts), (ghat, len(kept_rows(ghat)))]:
        calls = count_fft_lines(monkeypatch)
        twisted_coefficients(fhat, right, g, 0.5)
        monkeypatch.undo()
        assert calls == {"fft": [2 * k * k * len(rows)] * q2_rows,
                         "ifft": [k * k * npts]}


def test_roundoff_cut_boundary_per_left_row_block(monkeypatch):
    # exact band coefficients, 9 p2 rows, with row block 0 a thousand times
    # row block 1.  At N = 32 the cut is 5 u; one more entry on row p2 = 2 of
    # block 1 at 4 u M_1 is cut, so the loop transforms the band's 9 rows and
    # the result keeps the band's bits, and at 6 u M_1 it is kept (10 rows);
    # a cut at u would keep both, one at u N neither.  M_1 is block 1's own
    # maximum: against block 0's, both entries would be cut.  The kernel's
    # own input keeps the cut entry: the cut zeroes the gather
    npts, k, p2 = 32, 2, 2
    g = GridSpec(2, npts, 8.0)
    _, ghat = full_band_pair(npts, k, 27)
    fhat = random_band_coefficients(g, k, np.random.default_rng(28))
    fhat[..., 0, :] *= 1e3
    band = twisted_coefficients(fhat, ghat, g, 0.5)
    unit = 2.0 ** -53 * np.abs(fhat[..., 1, :]).max()
    gt = np.ascontiguousarray(ghat.transpose(2, 3, 1, 0))  # [b, c, q2, q1]
    for factor, rows in [(4.0, 9), (6.0, 10)]:
        probe = fhat.copy()
        probe[5, p2, 1, 0] = factor * unit
        ft = np.ascontiguousarray(probe.transpose(2, 3, 1, 0))
        before = ft.copy()
        calls = count_fft_lines(monkeypatch)
        got = twisted_coefficients(probe, ghat, g, 0.5)
        monkeypatch.undo()
        assert calls == {"fft": [2 * k * k * rows] * npts, "ifft": [k * k * npts]}
        deformation._twisted_kernel(ft, gt, g, 0.5)
        assert np.array_equal(ft, before)
        if factor < 5:
            assert np.array_equal(got, band)
        else:
            assert np.abs(got - band).max() <= 1e-15 * np.abs(band).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_roundoff_left_cut_spares_a_non_finite_right_factor(monkeypatch, bad):
    # a band-limited left factor keeps 9 of 32 rows, but beside a right
    # factor with one non-finite entry the loop transforms all N p2 rows, so
    # the non-finite entry reaches every r2 through 0 * NaN as it does in
    # the frozen full loop: column 0 is the frozen kernel's, NaN included,
    # and column 1 keeps the bits of its own product, which transforms only
    # the kept rows.  The right factor occupies one q2 row, so r2 = p2 + q2
    # - N/2 over the kept p2 alone would miss most output rows
    npts, k = 32, 2
    g = GridSpec(2, npts, 8.0)
    fhat, _ = band_pair(npts, k, 33)
    ghat = sparse_right_factor("one_row", g, k, 34)
    ghat[3, 3, 1, 0] = bad
    assert len(kept_left_rows(fhat)) < npts
    calls = count_fft_lines(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = twisted_coefficients(fhat, ghat, g, 0.5)
        monkeypatch.undo()
        full = frozen_twisted_coefficients(fhat, ghat, g, 0.5)
    assert calls == {"fft": [2 * k * k * npts], "ifft": [k * k * npts]}
    assert np.isnan(got[..., 0]).any(axis=(0, 2)).all()
    assert np.array_equal(got[..., 0], full[..., 0], equal_nan=True)
    alone = twisted_coefficients(fhat, ghat[..., 1:], g, 0.5)
    assert np.isfinite(alone).all() and np.array_equal(got[..., 1:], alone)


def test_batch_left_members_keep_their_own_rows(monkeypatch):
    # three left members, stacked as row blocks, that keep different p2
    # rows: a band-limited field read back through its samples (the band's
    # 9 rows), another at a thousandth of its scale with one more entry, on
    # row 2, at 6 u of its own maximum (10 rows; the cut at N = 32 is 5 u,
    # so against the batch's maximum row 2 would be cut), and coefficients
    # on one exact row.  Each row block cuts against its own maximum, so
    # each member keeps the bits of its own product, and the loop
    # transforms the union of their kept rows
    npts, k = 32, 2
    g = GridSpec(2, npts, 8.0)
    low = 1e-3 * band_pair(npts, k, 38)[0]
    low[5, 2, 1, 0] = 6 * 2.0 ** -53 * np.abs(low[..., 1, :]).max()
    members = [band_pair(npts, k, 37)[0], low, sparse_right_factor("one_row", g, k, 36)]
    ghat = band_pair(npts, k, 39)[1]
    rows = [set(kept_left_rows(h)) for h in members]
    assert [len(r) for r in rows] == [9, 10, 1]
    assert np.abs(low[:, 2]).max() < cut(npts) * np.abs(members[0]).max()
    union = set().union(*rows)
    assert len(union) < npts
    calls = count_fft_lines(monkeypatch)
    got = twisted_coefficients(np.concatenate(members, axis=2), ghat, g, 0.5)
    monkeypatch.undo()
    m = len(members)
    assert calls == {"fft": [(m * k * k + k * k) * len(union)] * len(kept_rows(ghat)),
                     "ifft": [m * k * k * npts]}
    separate = [twisted_coefficients(h, ghat, g, 0.5) for h in members]
    for j, alone in enumerate(separate):
        assert np.array_equal(got[..., j * k:(j + 1) * k, :], alone)
    # negative control: member 0 is not member 1's product
    assert not np.array_equal(got[..., :k, :], separate[1])


def trace_law_residual(prod, fs, gs):
    """The trace law sum_x F x_J G = sum_x F G on samples: the largest entry
    of the difference over ||F||_2 ||G||_2 (sample Frobenius norms)."""
    axes = tuple(range(fs.ndim - 2))
    diff = prod.sum(axis=axes) - np.matmul(fs, gs).sum(axis=axes)
    return np.abs(diff).max() / (np.linalg.norm(fs) * np.linalg.norm(gs))


@pytest.mark.parametrize("theta", [0.5, -0.7])
@pytest.mark.parametrize("npts", [18, 32, 64, 96])
@pytest.mark.parametrize("band", [False, True], ids=["full", "band"])
def test_roundoff_cut_keeps_the_trace_law(npts, theta, band):
    # an oracle that shares no code with the kernel: at r = 0 the twist is
    # e^{-i p.J(-p)} = 1, so the sum of the product's samples is the sum of
    # the pointwise products, once the Nyquist row and column (index 0 of
    # each axis, their own negatives) are zeroed in both factors.  The band
    # pairs carry roundoff rows that the cut drops on both sides, keeping
    # the band's 9.  Through the sample finish (N = 18 has an odd N/2)
    # observed at most 5.1e-17 on the full pairs and 5.9e-16 on the band
    # pairs (N = 96); the frozen kernel with its r2 window off by one reads
    # at least 5e-3
    g = GridSpec(2, npts, 8.0)
    k = 2
    pair = band_pair(npts, k, [41, npts]) if band else full_band_pair(npts, k, [42, npts])
    fhat, ghat = (h.copy() for h in pair)
    for h in (fhat, ghat):
        h[0] = 0
        h[:, 0] = 0
    if band:
        assert list(kept_left_rows(fhat)) == list(kept_rows(ghat)) == band_rows(npts)
    fs, gs = (grid_transform(h, g, inverse=True) for h in (fhat, ghat))
    prod = deformed_product(ModuleFunction(g, fs), ModuleFunction(g, gs),
                            SkewForm.standard(theta)).samples
    assert trace_law_residual(prod, fs, gs) <= 1e-15
    shifted = grid_transform(frozen_twisted_coefficients(
        fhat, ghat, g, theta, r2_offset=1), g, inverse=True)
    assert trace_law_residual(shifted, fs, gs) > 1e-3


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


BATCH_CASES = [(n, k, theta, m, False) for n in (1, 2) for k in (1, 2, 3)
               for theta in ((0.5, -0.7, 0.0) if n == 2 else (0.0,))
               for m in (1, 2, 4)] + [
    (2, k, theta, 3, True) for k in (1, 2) for theta in (0.5, -0.7)]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, k, theta, m, band", BATCH_CASES, ids=[
    "-".join(map(str, c[:4])) + "-band" * c[4] for c in BATCH_CASES])
def test_batched_product_bit_identical_to_separate(n, k, theta, m, band, side):
    # L_F is a right-module map and R_G a left one, so m factors side by side
    # in one kernel pass give each member the bits of its own product.  In
    # the band cases f and member 0 are band-limited samples, member 0 at a
    # thousandth of the others' scale: each column cuts its roundoff rows
    # against its own maximum, as alone
    g = GridSpec(n, 16, 8.0)
    J = SkewForm(theta, n)
    r = np.random.default_rng([n, k, m, int(10 * theta) + 10])
    f, *batch = (ModuleFunction(g, r.normal(size=g.shape + (k, k))
                                + 1j * r.normal(size=g.shape + (k, k)))
                 for _ in range(m + 1))
    if band:
        f, batch[0] = (ModuleFunction(g, scale * grid_transform(
            random_band_coefficients(g, k, r), g, inverse=True)) for scale in (1.0, 1e-3))
    if side == "left":
        got = deformed_product(tuple(batch), f, J)
        separate = [deformed_product(h, f, J) for h in batch]
    else:
        got = deformed_product(f, tuple(batch), J)
        separate = [deformed_product(f, h, J) for h in batch]
    assert isinstance(got, tuple) and len(got) == m
    for x, y in zip(got, separate):
        assert x.samples.flags.c_contiguous
        assert np.array_equal(x.samples, y.samples)
    if m > 1:
        # negative control: member 0 is not member 1's product
        assert not np.array_equal(got[0].samples, separate[1].samples)


def stacked_columns(*blocks):
    """Right-factor coefficients side by side along the column index."""
    return np.concatenate(blocks, axis=-1)


def test_batch_visits_the_union_of_occupied_rows(monkeypatch):
    # block 0 occupies q2 = 3, block 1 the edge rows 0 and N - 1: the loop
    # makes one FFT call for each of the three rows, and each block is its
    # own product bit for bit
    npts, k = 16, 2
    g = GridSpec(2, npts, 8.0)
    fhat, _ = full_band_pair(npts, k, 11)
    one, edges = (sparse_right_factor(case, g, k, 12) for case in ("one_row", "edge_rows"))
    calls = count_fft_calls(monkeypatch)
    both = twisted_coefficients(fhat, stacked_columns(one, edges), g, 0.5)
    assert calls == {"fft": [npts] * 3, "ifft": [npts]}
    assert np.array_equal(both[..., :k], twisted_coefficients(fhat, one, g, 0.5))
    assert np.array_equal(both[..., k:], twisted_coefficients(fhat, edges, g, 0.5))
    # a row is skipped only if it is zero in every block: a NaN of fhat at p2
    # reaches block 0 through all three rows, where alone it meets one
    p2 = 5
    fhat[2, p2, 1, 0] = np.nan
    alone = np.isnan(twisted_coefficients(fhat, one, g, 0.5)).any(axis=(0, 2, 3))
    batched = np.isnan(twisted_coefficients(
        fhat, stacked_columns(one, edges), g, 0.5)[..., :k]).any(axis=(0, 2, 3))
    assert np.array_equal(np.flatnonzero(alone), [(p2 + 3 - npts // 2) % npts])
    assert np.array_equal(np.flatnonzero(batched), sorted(
        (p2 + q2 - npts // 2) % npts for q2 in (0, 3, npts - 1)))


@pytest.mark.parametrize("side", ["left", "right"])
def test_batched_product_fft_calls_pinned(monkeypatch, side):
    # three full-band factors beside one: the calls of a single product, as
    # test_product_fft_calls_pinned counts them (the batch is transformed as
    # one stacked array, one FFT call per q2 serves every member, and one
    # inverse x2 transform finishes them all)
    calls = count_fft_calls(monkeypatch)
    npts = 16
    g = GridSpec(2, npts, 8.0)
    r = np.random.default_rng(4)
    f, *batch = (ModuleFunction(g, r.normal(size=g.shape + (2, 2)) + 0j) for _ in range(4))
    J = SkewForm.standard(0.5)
    if side == "left":
        deformed_product(tuple(batch), f, J)
    else:
        deformed_product(f, tuple(batch), J)
    assert calls == {"fft": [npts] * (npts + 4), "ifft": [npts]}


def test_batched_product_refuses_mixed_and_ill_formed_batches():
    f = matrix_gaussian(G, 13)
    other_grid = matrix_gaussian(GridSpec(2, 32, 9.0), 13)
    other_k = matrix_gaussian(G, 13, k=3)
    for batch in [(f, other_grid), (f, other_k)]:
        with pytest.raises(GridMismatchError):
            deformed_product(f, batch, J)
        with pytest.raises(GridMismatchError):
            deformed_product(batch, f, J)
    with pytest.raises(GridMismatchError):
        deformed_product(other_k, (f, f), J)
    with pytest.raises(ValueError, match="one side"):
        deformed_product((f,), (f,), J)
    for args in [((), f), (f, ())]:
        with pytest.raises(ValueError, match="empty"):
            deformed_product(*args, J)


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
