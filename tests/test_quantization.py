import tracemalloc

import numpy as np
import pytest

from rieffel import quantization
from rieffel.algebra import cnorm, cnorm_sup_slabs
from rieffel.cli import main
from rieffel.deformation import SkewForm, deformed_product
from rieffel.errors import CapabilityError, GridMismatchError
from rieffel.grids import (TWO_PI, GridSpec, axis_transform, grid_transform,
                           separable_wave, translates)
from rieffel.heisenberg import HeisenbergPoint
from rieffel.mgf import write_mgf
from rieffel.module_space import ModuleFunction, inner_product, module_norm, translate
from rieffel.quantization import (CallableSymbol, ComposedOp, GridSymbol,
                                  LeftActionOp, OperatorHandle, PdoOp,
                                  PhaseSymbol, TranslationSymbol, TrigPolySymbol,
                                  box_nodes, constant_symbol, dense_apply,
                                  dense_plan, dense_quantize, dual_box, full_box,
                                  operator_norm_estimate,
                                  pdo_apply, pi_seminorm,
                                  random_band_coefficients, random_band_limited,
                                  sample_symbol,
                                  symbol_to_kernel)
from rieffel.suites import (SUITE_CHECKS, SuiteConfig, check_rng, matrix_gaussian,
                            random_band_symbol)
from rieffel.symbolic_calculus import (poisson_bracket, recover,
                                       recover_translation_symbol,
                                       translation_certificate)

G1 = GridSpec(1, 64, 8.0)
G2 = GridSpec(2, 32, 8.0)
J = SkewForm.standard(0.5)


def gaussian_1d(extra=lambda x: 1.0):
    return ModuleFunction.from_function(G1, lambda x: np.exp(-x * x / 2) * extra(x))


def matrix_field(grid, seed, k=2, alpha=0.4):
    r = np.random.default_rng(seed)
    env = np.exp(-alpha * sum(m * m for m in grid.mesh()))
    M = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    return ModuleFunction(grid, env[..., None, None] * M)


def trig_symbol(n, k, seed, nterms=4):
    r = np.random.default_rng(seed)
    return TrigPolySymbol(n, k, [
        (r.uniform(-1, 1, n), r.uniform(-1, 1, n),
         (r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))) / nterms)
        for _ in range(nterms)])


def mesh_sample(a, g):
    """a sampled by one eval on the full product np.meshgrid: the pointwise
    reference for the sampling fast paths, independent of PhaseSymbol.sample."""
    coords = np.meshgrid(*([g.axis()] * g.n + [g.dual_axis()] * g.n), indexing="ij")
    return np.broadcast_to(a.eval(coords[:g.n], coords[g.n:]),
                           g.shape * 2 + (a.algebra_dim,) * 2)


def test_identity_symbol():
    # the w = 0 term runs no transform, so the identity is exact
    for u in (gaussian_1d(lambda x: 1 + 0.3 * x), matrix_field(G2, 14)):
        r = pdo_apply(constant_symbol(u.grid.n, np.eye(u.algebra_dim)), u)
        assert np.array_equal(r.samples, u.samples)


def test_multiplication_symbol():
    m = lambda x: np.sin(x) * np.exp(-0.01 * x * x)
    a = CallableSymbol(1, 1, lambda x, xi: (m(x[0]) + 0 * xi[0])[..., None, None])
    u = gaussian_1d()
    r = pdo_apply(a, u)
    ref = ModuleFunction(G1, m(G1.mesh()[0])[..., None, None] * u.samples)
    assert (r - ref).sup_norm() <= 1e-12


def test_fourier_multiplier_symbol_translates():
    a = CallableSymbol(1, 1,
                       lambda x, xi: (np.exp(0.7j * xi[0]) + 0 * x[0])[..., None, None])
    u = gaussian_1d()
    assert (pdo_apply(a, u) - translate(u, -0.7)).sup_norm() <= 1e-12


def test_backings_agree():
    tp = trig_symbol(1, 1, 0)
    u = gaussian_1d(lambda x: 1 + 0.1 * x)
    fast = pdo_apply(tp, u)
    generic = pdo_apply(CallableSymbol(1, 1, tp.eval), u)
    grid = pdo_apply(sample_symbol(tp, G1), u)
    assert (fast - generic).sup_norm() <= 1e-12
    assert (fast - grid).sup_norm() <= 1e-12


def test_translation_symbol_is_left_action():
    F = matrix_field(G2, 1)
    u = matrix_field(G2, 2)
    a = TranslationSymbol(F, J)
    direct = pdo_apply(a, u)
    ref = deformed_product(F, u, J)
    assert (direct - ref).sup_norm() == 0.0  # dispatched to the same code
    sampled = pdo_apply(sample_symbol(a, G2), u)
    assert (sampled - ref).sup_norm() <= 1e-9 * ref.sup_norm()


def test_translation_symbol_shear_sampling():
    # the shear fast path must agree with direct mode-sum evaluation
    g = GridSpec(2, 16, 8.0)
    F = matrix_field(g, 3)
    a = TranslationSymbol(F, J)
    fast = sample_symbol(a, g).samples
    slow = mesh_sample(a, g)
    assert np.abs(fast - slow).max() <= 1e-10 * np.abs(slow).max()


@pytest.mark.parametrize("n, npts, k, theta", [
    (n, npts, k, theta) for npts in (8, 16) for k in (1, 2, 3)
    for n, theta in ((1, 0.0), (2, 0.5), (2, -0.7))])
def test_one_pass_shear_matches_generic_sampling(n, npts, k, theta):
    # full-band random F: the shear against the Fourier-series mode
    # loop of TranslationSymbol.eval on the full mesh; observed <= 4e-15 of
    # the sup
    g = GridSpec(n, npts, 8.0)
    r = np.random.default_rng(npts + 10 * k)
    F = ModuleFunction(g, r.normal(size=g.shape + (k, k))
                       + 1j * r.normal(size=g.shape + (k, k)))
    a = TranslationSymbol(F, SkewForm.standard(theta) if n == 2 else SkewForm(0.0, 1))
    fast = a.sample(g).samples
    slow = mesh_sample(a, g)
    assert np.abs(fast - slow).max() <= 2e-14 * np.abs(slow).max()


def _two_axis_shear(F, J):
    # reference shear at n = 2: c = fftn(F) spread over the (nu, xi) grid by
    # both phase tables at once, then one ifftn over the two nu axes; one
    # xi_0 slab at a time, so no second full product grid is formed
    g = F.grid
    nu = np.fft.ifftshift(g.dual_axis())[:, None, None]
    xi = g.dual_axis()
    c = np.fft.fftn(F.samples, axes=(0, 1))[:, :, None]
    out = np.empty(g.shape * 2 + F.samples.shape[-2:], dtype=complex)
    for j, xi0 in enumerate(xi):
        phase = np.exp(-1j * J[0, 1] * nu * xi[None, None, :]) * \
            np.exp(-1j * J[1, 0] * nu.reshape(1, -1, 1) * xi0)
        out[:, :, j] = np.fft.ifftn(c * phase[..., None, None], axes=(0, 1))
    return out


def _check_shear_against_oracle(npts, k, theta):
    # Negative control: the transposed form (J_10 in the nu_0 pass) samples
    # F(x + J xi) and misses by O(1).
    g = GridSpec(2, npts, 8.0)
    r = np.random.default_rng(npts + 10 * k)
    F = ModuleFunction(g, r.normal(size=g.shape + (k, k))
                       + 1j * r.normal(size=g.shape + (k, k)))
    J = SkewForm.standard(theta)
    fast = TranslationSymbol(F, J).sample(g).samples
    for entries, agrees in ((J.entries, True), (J.entries.T, False)):
        slow = _two_axis_shear(F, entries)
        err = max(np.abs(fast[i] - slow[i]).max() for i in range(g.points))
        assert (err <= 1e-14 * np.abs(slow).max()) == agrees


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.5, -0.7])
def test_separable_shear_matches_two_axis_oracle_n32(k, theta):
    # N = 32, where the generic eval path is too slow; observed <= 2.2e-15
    # of the sup
    _check_shear_against_oracle(32, k, theta)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.5, -0.7])
def test_shear_matches_two_axis_oracle_n24(k, theta):
    # N = 24: neither N nor the N^2 rows of the shear's real GEMM matrix are
    # a power of two; observed <= 1.3e-15 of the sup
    _check_shear_against_oracle(24, k, theta)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theta", [0.5, -0.7])
def test_shear_matches_two_axis_oracle_n18(k, theta):
    # N = 18: N/2 = 9 is odd, so the real GEMM's conjugate pairs (nu, -nu)
    # and its unpaired Nyquist column nu = -N/2 meet a parity that N = 16,
    # 24 and 32 never give; observed <= 8.9e-16 of the sup
    _check_shear_against_oracle(18, k, theta)


def shear_reference(a, grid, box=None):
    """TranslationSymbol._shear before its nu_1 cut, frozen: each slab's
    GEMM reads all N + 1 conjugate-paired columns of R, whatever F^ holds.
    Returns the slabs on the dual box (the full box by default), stacked."""
    box = full_box(grid) if box is None else box
    N, k = grid.points, a.algebra_dim
    h = N // 2
    J = a.J.entries
    nu = np.fft.ifftshift(grid.dual_axis())
    xi0, xi1 = box_nodes(grid, box)
    head = np.fft.fftn(a.F.samples, axes=(0, 1)).reshape(
        (N, N, 1, 1, k, k)) * np.exp(
        -1j * J[0, 1] * nu.reshape(-1, 1, 1, 1) * xi1)[..., None, None]
    np.fft.ifft(head, axis=0, out=head)
    R = quantization._shear_table(N, grid.half_width, box[0].indices(N), float(J[1, 0]))
    H = head.reshape(N, N, len(xi1) * k * k)
    S = np.empty((N + 1, len(xi1) * k * k), dtype=complex)
    out = np.empty((N, N, len(xi0), len(xi1), k, k), dtype=complex)
    for i in range(N):
        Hi = H[i]
        S[0], S[h], S[N] = Hi[0], Hi[h], Hi[h]
        np.add(Hi[1:h], Hi[:h:-1], out=S[1:h])
        np.subtract(Hi[1:h], Hi[:h:-1], out=S[h + 1:N])
        S[h + 1:] *= 1j
        np.matmul(R, S.view(float), out=out[i].reshape(R.shape[0], S.shape[1]).view(float))
    return out


def band_field(grid, k, seed, band=3, width=1.5):
    """A field drawn as the recovery benchmark draws one: complex Gaussian
    coefficients on modes -band..band of each axis under the envelope
    exp(-|m|^2 / (2 width^2)), zero elsewhere, so that F^ holds 2 band + 1
    of its N nu_1 columns above roundoff."""
    r = np.random.default_rng(seed)
    h = grid.points // 2
    m = np.arange(-band, band + 1)
    env = np.exp(-(m[:, None] ** 2 + m[None, :] ** 2) / (2.0 * width ** 2))
    shape = env.shape + (k, k)
    hat = np.zeros(grid.shape + (k, k), dtype=complex)
    hat[h - band:h + band + 1, h - band:h + band + 1] = env[..., None, None] * (
        r.normal(size=shape) + 1j * r.normal(size=shape))
    return ModuleFunction(grid, grid_transform(hat, grid, inverse=True))


def count_shear_gemms(monkeypatch):
    """Patch np.matmul to record the shape of every product whose left
    operand is real, which in quantization is only the shear's R: (N B0,
    |K|), the box's N B0 (x_1, xi_0) rows and the |K| columns of the
    conjugate pairs that the slab's GEMM reads.  Returns the list it
    appends to."""
    shapes = []
    matmul = np.matmul

    def counted(a, b, *args, **kwargs):
        if np.isrealobj(a):
            shapes.append(np.shape(a))
        return matmul(a, b, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", counted)
    return shapes


@pytest.mark.parametrize("theta", [0.5, -0.7])
def test_shear_cut_band_limited_matches_reference(theta):
    # modes |m| <= 3 at N = 32, k = 2: the cut keeps 7 of the 33 columns,
    # which moves a sample by at most the FFT's own roundoff; observed <=
    # 3.3e-16 of the sup on the full box and on a 9 x 9 box
    g = G2
    a = TranslationSymbol(band_field(g, 2, 43), SkewForm.standard(theta))
    for box in sample_boxes(g)[:2]:
        ref = shear_reference(a, g, box)
        got = np.stack([s.copy() for s in a.slabs(g, box)])
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
        if box is None:
            assert np.array_equal(a.sample(g).samples, got)


@pytest.mark.parametrize("theta", [0.5, -0.7])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("npts", [18, 32])
def test_shear_full_band_bit_identical_to_reference(npts, k, theta):
    # a full-band F keeps all N + 1 columns in their order, so the shear
    # keeps the uncut reference's bits: random samples, and a Gaussian
    # whose band edge is 2e-11 of its peak, far above the cut
    g = GridSpec(2, npts, 8.0)
    r = np.random.default_rng([npts, k])
    shape = g.shape + (k, k)
    J = SkewForm.standard(theta)
    for F in (ModuleFunction(g, r.normal(size=shape) + 1j * r.normal(size=shape)),
              matrix_field(g, npts + k, k)):
        a = TranslationSymbol(F, J)
        for box in sample_boxes(g)[:2]:
            got = np.stack([s.copy() for s in a.slabs(g, box)])
            assert np.array_equal(got, shear_reference(a, g, box))


@pytest.mark.parametrize("factor", [0.25, 4.0])
def test_shear_cut_boundary_per_channel(monkeypatch, factor):
    # channel (0, 0) is 1e3 times a positive x0-profile, constant along x1,
    # and channel (1, 0) the profile once, so each holds the nu1 = 0 column
    # exactly, and its largest modulus M_c there; channels (., 1) are zero
    # and keep no column.  Rounding the samples adds at most u/2 M_c to a
    # coefficient.  Channel (0, 0) gets one more entry, at (nu0, nu1) = (0,
    # N - 5), of 4 times the cut u log2(N) of M_0, so the GEMMs read the
    # pair (5, N - 5) with column 0: 3 columns.  Channel (1, 0) gets one at
    # (0, 5) of factor times its own cut.  At a quarter of the cut it is
    # dropped, and channel (1, 0)'s column N - 5 is zeroed though the pair
    # is read, so that channel is constant along x1, where the uncut
    # reference is not.  At 4 times the cut it is kept.  Against the
    # largest modulus of all channels, 1e3 M_1, both would be dropped
    g, k = G2, 2
    N = g.points
    x = g.axis()
    prof = np.exp(-0.5 * x * x)
    m1 = np.abs(np.fft.fftn(np.broadcast_to(prof[:, None], g.shape))).max()
    cut = 2.0 ** -53 * np.log2(N) * m1 / N ** 2
    wave = np.exp(2j * np.pi * 5 * np.arange(N) / N)
    samples = np.zeros(g.shape + (k, k), dtype=complex)
    samples[..., 0, 0] = 1e3 * (prof[:, None] + 4 * cut * wave.conj())
    samples[..., 1, 0] = prof[:, None] + factor * cut * wave
    a = TranslationSymbol(ModuleFunction(g, samples), J)
    shapes = count_shear_gemms(monkeypatch)
    got = a.sample(g).samples
    monkeypatch.undo()
    assert shapes == [(N * N, 3)] * N
    ref = shear_reference(a, g)
    assert not got[..., 1].any()

    def flat(s):
        return np.array_equal(s, np.broadcast_to(s[:, :1], s.shape))
    assert flat(got[..., 1, 0]) == (factor < 1) and not flat(ref[..., 1, 0])
    for c in (0, 1):
        assert np.abs(got[..., c, 0] - ref[..., c, 0]).max() <= \
            1e-15 * np.abs(ref[..., c, 0]).max()


@pytest.mark.parametrize("bad", ["overflow", "nan"])
def test_shear_non_finite_channel_keeps_every_column(monkeypatch, bad):
    # a band-limited field whose channel (1, 1) is either 1.5e307 (1 + i)
    # everywhere, so that F^ overflows at nu = 0 (to inf, then NaN) and is
    # zero on all nu1 columns but 0 and N/2, or NaN at one sample.  That
    # channel's largest modulus is not finite, so it keeps every column:
    # the GEMMs read all 33, not the 3 of its non-zero columns, with the
    # uncut reference's bits on that channel; the other channels still cut
    # their roundoff columns
    g, k = G2, 2
    F = band_field(g, k, 44)
    if bad == "overflow":
        F.samples[..., 1, 1] = 1.5e307 * (1 + 1j)
    else:
        F.samples[3, 5, 1, 1] = np.nan
    a = TranslationSymbol(F, J)
    shapes = count_shear_gemms(monkeypatch)
    with np.errstate(all="ignore"):
        got = a.sample(g).samples
        monkeypatch.undo()
        ref = shear_reference(a, g)
    assert shapes == [(g.points ** 2, g.points + 1)] * g.points
    assert not np.isfinite(got[..., 1, 1]).all()
    assert np.array_equal(got[..., 1, 1], ref[..., 1, 1], equal_nan=True)
    rest = got.reshape(got.shape[:4] + (-1,))[..., :3]
    ref = ref.reshape(rest.shape[:4] + (-1,))[..., :3]
    assert np.isfinite(rest).all()
    assert np.abs(rest - ref).max() <= 1e-15 * np.abs(ref).max()


def test_shear_gemm_columns_pinned(monkeypatch, tmp_path):
    # the recovery benchmark's kind of F (modes |m| <= 3 at N = 32, k = 2)
    # keeps 7 of 33 columns, both in sample and in the CLI recover's 9 x 9
    # dense pass, where the gamma chain's multipliers leave its roundoff
    # columns below the cut; a Gaussian keeps all N + 1
    g = G2
    N = g.points
    for F, columns in ((band_field(g, 2, 45), 7), (matrix_field(g, 46), N + 1)):
        shapes = count_shear_gemms(monkeypatch)
        TranslationSymbol(F, J).sample(g)
        assert shapes == [(N * N, columns)] * N
        fp = tmp_path / f"F{columns}.mgf"
        write_mgf(fp, F)
        shapes.clear()
        assert main(["recover", str(fp)]) == 0
        monkeypatch.undo()
        assert shapes == [(N * 9, columns)] * N


def slab_symbol(kind, n, k, g):
    """A symbol of each backing kind for the slabs test, on the grid g.  A
    callable runs the generic eval writer; a bracket pairs a translation
    symbol's partials with a trig symbol's."""
    r = np.random.default_rng(10 * n + k + g.points)
    if kind in ("trig", "grid", "callable"):
        a = trig_symbol(n, k, 5 * n + k)
        if kind == "grid":
            return sample_symbol(a, g)
        return CallableSymbol(n, k, a.eval) if kind == "callable" else a
    if kind == "bracket":
        return poisson_bracket(slab_symbol("translation", n, k, g),
                               trig_symbol(n, k, 7 * n + k))
    F = ModuleFunction(g, r.normal(size=g.shape + (k, k))
                       + 1j * r.normal(size=g.shape + (k, k)))
    theta = 0.5 if n == 2 and kind != "J0" else 0.0
    return TranslationSymbol(F, SkewForm.standard(theta, n))


@pytest.mark.parametrize("npts", [16, 24])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["trig", "grid", "translation", "J0", "bracket",
                                  "callable"])
def test_slabs_equal_samples(kind, n, k, npts):
    # every slab, drawn in turn from one stream, equals the sampled slab bit
    # for bit (copied, since a slab may be overwritten by the next one)
    g = GridSpec(n, npts, 8.0)
    a = slab_symbol(kind, n, k, g)
    samples = a.sample(g).samples
    slabs = [s.copy() for s in a.slabs(g)]
    assert len(slabs) == npts
    assert all(np.array_equal(s, samples[i]) for i, s in enumerate(slabs))
    if kind == "callable":
        # the generic writer, eval per slab with x_0 fixed, against one eval
        # on the full mesh: the same elementwise arithmetic
        assert np.array_equal(samples, mesh_sample(a, g))
    if kind == "translation" and n == 2:
        # negative control: the reflected form samples F(x + J xi)
        other = TranslationSymbol(a.F, a.J.rescaled(-1)).sample(g).samples
        assert not any(np.array_equal(s, other[i]) for i, s in enumerate(slabs))


def test_grid_symbol_slabs_are_views():
    s = sample_symbol(trig_symbol(2, 2, 6), GridSpec(2, 8, 8.0))
    assert all(np.shares_memory(x, s.samples) for x in s.slabs(s.grid))


@pytest.mark.parametrize("n", [1, 2])
def test_grid_symbol_slabs_read_only_on_own_grid(n):
    # own-grid slabs are views of the samples: a fold that writes into one
    # raises; any other grid raises before a slab is drawn
    g = GridSpec(n, 16, 8.0)
    s = sample_symbol(trig_symbol(n, 2, 7), g)
    before = s.samples.copy()
    h = g.points // 2
    for box in (None, (slice(h - 2, h + 3),) * n):
        slab = next(s.slabs(g, box))
        with pytest.raises(ValueError, match="read-only"):
            slab[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.subtract(slab, 1.0, out=slab)
    assert np.array_equal(s.samples, before)
    assert s.samples.flags.writeable
    # same spacing, half the box: every node lies on the symbol's grid, but
    # the grid is another one
    with pytest.raises(GridMismatchError):
        s.slabs(GridSpec(n, 8, 4.0))


# every reader of a symbol's samples, called on the reading grid h with a
# function u on h; recover and the certificate take the standard J
GRID_READERS = {
    "sample": lambda a, h, u: a.sample(h),
    "slabs": lambda a, h, u: next(a.slabs(h)),
    "PhaseSymbol.quantize": lambda a, h, u: PhaseSymbol.quantize(a, u),
    "quantize": lambda a, h, u: a.quantize(u),
    "recover": lambda a, h, u: recover(a, J, h),
    "recover_translation_symbol": lambda a, h, u: recover_translation_symbol(a, J, h),
    "pi_seminorm": lambda a, h, u: pi_seminorm(a, h),
    "translation_certificate": lambda a, h, u: translation_certificate(a, J, h),
    "symbol_to_kernel.apply": lambda a, h, u: symbol_to_kernel(a, h).apply(u),
}


@pytest.mark.parametrize("reader", list(GRID_READERS))
@pytest.mark.parametrize("kind", ["grid", "translation", "J0"])
def test_grid_bound_symbols_are_read_on_their_own_grid_only(kind, reader):
    # a grid symbol and a translation symbol (J != 0 and J = 0) are read on
    # their own grid, and every reader raises on a grid of another N or L
    g = GridSpec(2, 16, 8.0)
    a = slab_symbol("translation" if kind == "grid" else kind, 2, 2, g)
    if kind == "grid":
        a = a.sample(g)
    read = GRID_READERS[reader]
    assert read(a, g, matrix_field(g, 70)) is not None
    for h in (GridSpec(2, 8, 8.0), GridSpec(2, 16, 4.0)):
        with pytest.raises(GridMismatchError):
            read(a, h, matrix_field(h, 70))


@pytest.mark.parametrize("kind", ["grid", "translation"])
def test_pointwise_route_resamples_on_another_grid(kind):
    # CallableSymbol(a.n, a.algebra_dim, a.eval) is the one route to another
    # grid.  h's nodes are a subset of g's: x nodes 4..11 of g's 16 and
    # every other dual node.  A grid symbol's eval reads its samples there,
    # so the match is exact; a translation symbol's eval is F's trig sum,
    # against the shear (observed 1.1e-15 of the sup)
    g, h = GridSpec(2, 16, 8.0), GridSpec(2, 8, 4.0)
    a = slab_symbol("translation", 2, 2, g)
    own = a.sample(g).samples
    if kind == "grid":
        a = a.sample(g)
    got = CallableSymbol(a.n, a.algebra_dim, a.eval).sample(h).samples
    ref = own[4:12, 4:12, ::2, ::2]
    if kind == "grid":
        assert np.array_equal(got, ref)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # negative control: the dual nodes read one node off
    assert np.abs(got - own[4:12, 4:12, 1::2, 1::2]).max() > 1e-3 * np.abs(ref).max()


def sample_boxes(g):
    """The full box, a 9 x 9 box placed differently on the two dual axes (so
    that swapping them shows) and the one-node box at xi = 0."""
    h = g.points // 2
    return [None, (slice(h - 4, h + 5), slice(h - 6, h + 3))[:g.n],
            (slice(h, h + 1),) * g.n]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["trig", "grid", "translation", "J0", "bracket",
                                  "callable"])
def test_slabs_on_a_dual_box_equal_the_sampled_box(kind, n, k):
    # slabs(grid, box) is sample(grid).samples[i] on the box.  A GEMM or a
    # vectorized exp may take another kernel for a smaller box (the trig,
    # shear and bracket writers, and eval at n = 1), so the last bits can
    # move: observed <= 4.1e-16 of the sup at N = 16 and 32
    g = GridSpec(n, 16, 8.0)
    a = slab_symbol(kind, n, k, g)
    samples = a.sample(g).samples
    scale = np.abs(samples).max()
    for box in sample_boxes(g):
        at = (slice(None),) * (n - 1) + (box or (slice(None),) * n)
        slabs = [s.copy() for s in a.slabs(g, box)]
        assert len(slabs) == g.points
        for s, ref in zip(slabs, samples):
            assert s.shape == ref[at].shape
            assert np.abs(s - ref[at]).max() <= 2e-15 * scale
        if kind == "grid":
            assert all(np.shares_memory(x, a.samples) for x in a.slabs(g, box))
    if kind == "translation" and n == 2:
        # negative control: a shear whose box is offset by one node
        box = sample_boxes(g)[1]
        moved = (box[0], slice(box[1].start + 1, box[1].stop + 1))
        at = (slice(None), *box)
        assert all(np.abs(s - ref[at]).max() > 1e-3 * scale
                   for s, ref in zip(a.slabs(g, moved), samples))


def test_dual_box_holds_every_nonzero_coefficient():
    # the probe's coefficients fill modes -4..4, the constant's transform is
    # an exact delta at xi = 0, and an all-zero input has the empty box, on
    # which the dense quantize returns zeros
    g = GridSpec(2, 32, 8.0)
    c = random_band_coefficients(g, 2, np.random.default_rng(0))
    assert dual_box(g, c) == (slice(12, 21),) * 2
    one = grid_transform(np.ones(g.shape), g)
    delta = np.zeros_like(one)
    delta[16, 16] = one[16, 16]
    assert np.array_equal(one, delta) and dual_box(g, one) == (slice(16, 17),) * 2
    c[:, 20] = 0
    c[13, 12] = 0
    assert dual_box(g, c) == (slice(12, 21), slice(12, 20))
    a = slab_symbol("translation", 2, 2, g)
    zero = np.zeros(g.shape + (2, 4), dtype=complex)
    assert dual_box(g, zero) == (slice(0, 0),) * 2
    assert np.array_equal(dense_quantize(a, g, zero), zero)


def trig_variants(n, k, seed):
    # a random trig symbol, its partial, shift, star and adjoint, and one
    # with a w = 0 term and a term shifted along the first axis only
    r = np.random.default_rng(seed)
    a = trig_symbol(n, k, seed)
    ones, zeros = (1,) * n, (0,) * n
    still = (r.uniform(-1, 1, n), np.zeros(n), r.normal(size=(k, k)) + 0j)
    first = (r.uniform(-1, 1, n), np.eye(n)[0] * 0.6, r.normal(size=(k, k)) + 0j)
    return [a, a.partial(ones, ones), a.partial(zeros, ones),
            a.shift(r.uniform(-1, 1, n), r.uniform(-1, 1, n)), a.star(),
            a.adjoint(), TrigPolySymbol(n, k, a.terms + [still, first])]


TRIG_CASES = [(n, npts, k) for n in (1, 2) for npts in (8, 16) for k in (1, 2, 3)]


@pytest.mark.parametrize("n, npts, k", TRIG_CASES)
def test_trig_sample_matches_generic(n, npts, k):
    # separable sampling against TrigPolySymbol.eval on the full product
    # mesh; observed <= 2.5e-15 of the sup
    g = GridSpec(n, npts, 8.0)
    for a in trig_variants(n, k, 100 * n + 10 * k + npts):
        fast = a.sample(g).samples
        slow = mesh_sample(a, g)
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= 2e-14 * np.abs(slow).max()


@pytest.mark.parametrize("n, npts, k", TRIG_CASES)
def test_trig_quantize_matches_dense(n, npts, k):
    # one-transform quantize against the dense frequency loop of
    # PhaseSymbol.quantize; observed <= 8e-16 of the sup
    g = GridSpec(n, npts, 8.0)
    u = matrix_field(g, npts + k, k=k)
    for a in trig_variants(n, k, 100 * n + 10 * k + npts):
        fast = a.quantize(u).samples
        slow = PhaseSymbol.quantize(a, u).samples
        assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()


def trig_quantize_reference(a, u):
    """TrigPolySymbol.quantize with each term's e^{i p.x} multiplied into a
    new array: the reference for the modulation inside the translates batch."""
    g, k = u.grid, u.algebra_dim
    acc = np.zeros((k, k) + g.shape, dtype=complex)
    tmp = np.empty((k,) + g.shape, dtype=complex)

    def add(term, src):
        p, _, c = term
        src = src * separable_wave(g.axis(), p)
        for i, j in np.ndindex(k, k):
            acc[i] += np.multiply(c[i, j], src[j], out=tmp)

    shifted = [term for term in a.terms if term[1].any()]
    for lo in range(0, len(shifted), 8):
        terms = shifted[lo:lo + 8]
        batch = translates(u.samples, g.spacing, [w for _, w, _ in terms])
        for term, src in zip(terms, np.moveaxis(batch, (-2, -1), (1, 2))):
            add(term, src)
    for term in a.terms:
        if not term[1].any():
            add(term, np.moveaxis(u.samples, (-2, -1), (0, 1)))
    return np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1)))


@pytest.mark.parametrize("n, npts, k", TRIG_CASES)
def test_trig_quantize_bit_identical_to_reference(n, npts, k):
    # the modulation in the batch buffer changes no bit; the last variant
    # has a w = 0 term, and 20 terms make three translate batches
    g = GridSpec(n, npts, 8.0)
    u = matrix_field(g, npts + k, k=k)
    seed = 100 * n + 10 * k + npts
    for a in trig_variants(n, k, seed) + [trig_symbol(n, k, seed, nterms=20)]:
        assert np.array_equal(a.quantize(u).samples, trig_quantize_reference(a, u))


@pytest.mark.parametrize("n", [1, 2])
def test_trig_quantize_w0_term_leaves_u_alone(n):
    # negative control: a w = 0 term with p != 0 modulates u itself, which
    # must be copied, not written in place
    g = GridSpec(n, 16, 8.0)
    u = matrix_field(g, 3)
    before = u.samples.copy()
    a = TrigPolySymbol(n, 2, [(np.full(n, 0.7), np.zeros(n), np.eye(2)),
                              (np.full(n, -0.3), np.full(n, 0.4), np.eye(2))])
    a.quantize(u)
    assert np.array_equal(u.samples, before)


@pytest.mark.parametrize("k", [2, 3])
def test_band_symbol_quantize_matches_dense_at_verify_size(k):
    # the norm_bound_stability operands at n = 2, N = 32: a six-term
    # random_band_symbol and its adjoint, batched quantize against the dense
    # frequency loop; observed <= 9.1e-16 of the sup
    g = SuiteConfig().grid(32)
    rng = np.random.default_rng(k)
    a = random_band_symbol(2, k, rng)
    u = matrix_gaussian(g, k, rng)
    for b in (a, a.adjoint()):
        fast = b.quantize(u).samples
        slow = PhaseSymbol.quantize(b, u).samples
        assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()


def test_trig_quantize_memory_flat_in_terms():
    # 256 shifted terms at N = 32, k = 2 are translated 8 at a time: the
    # peak is about one batch (observed 1.26 MB), where all 256 translates at
    # once would take 16 MB
    g = GridSpec(2, 32, 8.0)
    a = trig_symbol(2, 2, 60, nterms=256)
    u = matrix_field(g, 61)
    assert peak_bytes(lambda: a.quantize(u)) <= 2 * 2 ** 20


@pytest.mark.parametrize("backing, n, k", [
    ("trig", 1, 2), ("trig", 2, 3), ("grid", 2, 3), ("callable", 1, 2),
    ("callable", 2, 3)], ids=["n", "k", "grid-k", "callable-n", "callable-k"])
def test_trig_quantize_checks_dimensions(backing, n, k):
    # called directly, not through pdo_apply, on an n = 2, k = 2 function; a
    # grid symbol of another n lives on another grid, so only k is tried
    g = GridSpec(2, 8, 8.0)
    a = trig_symbol(n, k, 62)
    if backing != "trig":
        a = sample_symbol(a, g) if backing == "grid" else CallableSymbol(n, k, a.eval)
    with pytest.raises(GridMismatchError):
        a.quantize(matrix_field(g, 63))


def test_trig_fast_paths_do_not_evaluate(monkeypatch):
    # pi_seminorm, symbol_to_kernel and pdo_apply on a trig symbol must not
    # fall back to pointwise evaluation, and a translation symbol off F's
    # grid raises rather than evaluate its trig sum
    def refuse(self, x, xi):
        raise AssertionError("TrigPolySymbol.eval called")
    monkeypatch.setattr(TrigPolySymbol, "eval", refuse)
    g = GridSpec(2, 16, 8.0)
    a = trig_symbol(2, 2, 12)
    u = matrix_field(g, 13)
    assert pi_seminorm(a, g) > 0.0
    assert np.isfinite(symbol_to_kernel(a, g).samples).all()
    assert module_norm(pdo_apply(a, u)) > 0.0
    with pytest.raises(GridMismatchError):
        slab_symbol("translation", 2, 2, GridSpec(2, 8, 3.0)).sample(g)


def test_translation_multiplier_calls_fn_per_distinct_frequency():
    g = GridSpec(2, 16, 8.0)
    F = matrix_field(g, 15)
    a = TranslationSymbol(F, J)
    seen = []

    def fn(nu):
        seen.append(np.size(nu))
        return (1.0 + 1j * nu) ** 2
    out = a.multiplier(fn).F.samples
    # x frequencies nu_j and xi frequencies (J nu)_j: N distinct values each
    assert seen == [g.points] * 4
    nus = g.dual_mesh()
    mult = (fn(nus[0]) * fn(J.entries[1, 0] * nus[0])
            * fn(nus[1]) * fn(J.entries[0, 1] * nus[1]))
    ref = grid_transform(grid_transform(F.samples, g) * mult[..., None, None],
                         g, inverse=True)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_trig_adjoint_pairing():
    a = trig_symbol(2, 2, 4)
    u = matrix_field(G2, 5)
    v = matrix_field(G2, 6)
    lhs = inner_product(pdo_apply(a, u), v)
    rhs = inner_product(u, pdo_apply(a.adjoint(), v))
    assert cnorm(lhs - rhs) <= 1e-12 * max(cnorm(lhs), 1.0)


@pytest.mark.parametrize("k", [1, 2])
def test_band_symbol_adjoint_pairing_exact_on_lattice(k):
    # the quantization.adjoint_pairing inputs at N = 32: random_band_symbol,
    # then two matrix Gaussians.  With each term's p on the dual lattice and
    # w on the spatial lattice the trig adjoint pairs at roundoff (observed
    # <= 2.9e-15 at k = 1, 4.4e-15 at k = 2 over seeds 0-19); off the
    # lattices the gap is the continuum adjoint's, up to 2.4e-9 (k = 1) and
    # 1.3e-9 (k = 2), so whether the check's 1e-10 holds depends on the seed
    def gap(b, u, v):
        lhs = inner_product(pdo_apply(b, u), v)
        return cnorm(lhs - inner_product(u, pdo_apply(b.adjoint(), v))) / cnorm(lhs)

    g = SuiteConfig().grid(32)
    snapped_gaps, gaps = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = random_band_symbol(2, k, rng)
        u, v = (matrix_gaussian(g, k, rng) for _ in range(2))
        snapped = TrigPolySymbol(2, k, [
            (g.dual_spacing * np.round(p / g.dual_spacing),
             g.spacing * np.round(w / g.spacing), c) for p, w, c in a.terms])
        snapped_gaps.append(gap(snapped, u, v))
        gaps.append(gap(a, u, v))
    assert max(snapped_gaps) <= 1e-13 and max(gaps) > 1e-10


def test_grid_adjoint_pairing():
    def afun(x, xi):
        e = np.exp(-(x[0] ** 2 + x[1] ** 2) / 4.0 - (xi[0] ** 2 + xi[1] ** 2) / 1.28)
        return e[..., None, None] * np.array([[1.0, 0.3 + 0.1j], [0.2, 0.8]])
    # a callable has no spectrum of its own: its adjoint is its sample's
    a = CallableSymbol(2, 2, afun)
    p = a.sample(G2).adjoint()
    u = matrix_field(G2, 7)
    v = matrix_field(G2, 8)
    lhs = inner_product(pdo_apply(a, u), v)
    rhs = inner_product(u, pdo_apply(p, v))
    assert cnorm(lhs - rhs) <= 1e-10 * max(cnorm(lhs), 1e-300)


def test_translation_adjoint_is_translation_symbol_of_star():
    # (L_F)* = L_{F*}: the adjoint symbol is F*(x - J xi) on F's own grid,
    # not a sampled product grid; observed <= 2e-16 of the sup
    F = matrix_field(G2, 16)
    p = TranslationSymbol(F, J).adjoint()
    assert isinstance(p, TranslationSymbol) and p.J is J
    Fstar = np.swapaxes(F.samples.conj(), -1, -2)
    assert np.abs(p.F.samples - Fstar).max() <= 1e-14 * np.abs(Fstar).max()
    u, v = matrix_field(G2, 17), matrix_field(G2, 18)
    lhs = inner_product(pdo_apply(TranslationSymbol(F, J), u), v)
    rhs = inner_product(u, pdo_apply(p, v))
    assert cnorm(lhs - rhs) <= 1e-12 * cnorm(lhs)


def test_adjoint_involution_on_trig_symbols():
    a = trig_symbol(2, 2, 9)
    pp = a.adjoint().adjoint()
    for (p1, w1, c1), (p2, w2, c2) in zip(pp.terms, a.terms):
        assert np.allclose(p1, p2) and np.allclose(w1, w2)
        assert np.abs(c1 - c2).max() <= 1e-12


def dense_quantize_reference(a, u):
    """a(x,D) u by the six-index einsum loop over 64 dual nodes at a time
    that the GEMM path replaced, kept as its reference."""
    g, k = u.grid, u.algebra_dim
    mesh = g.mesh()
    xc = [m[None, ...] for m in mesh]
    uh = grid_transform(u.samples, g).reshape(-1, k, k)
    flatq = np.stack([d.ravel() for d in g.dual_mesh()], axis=-1)
    out = np.zeros_like(u.samples)
    for lo in range(0, len(flatq), 64):
        q = flatq[lo:lo + 64]
        qc = [q[:, d].reshape((-1,) + (1,) * g.n) for d in range(g.n)]
        arg = sum(qc[d] * mesh[d][None] for d in range(g.n))
        term = np.einsum("c...ab,cbd->c...ad", a.eval(xc, qc), uh[lo:lo + 64])
        out += (np.exp(1j * arg)[..., None, None] * term).sum(axis=0)
    return TWO_PI ** (-g.n / 2.0) * g.dual_spacing ** g.n * out


def kernel_apply_reference(K, v):
    """KernelField.apply by the einsum it replaced."""
    n = K.grid.n
    xa, ya = list(range(n)), list(range(n, 2 * n))
    return K.grid.spacing ** n * np.einsum(
        K.samples, [*xa, *ya, 2 * n, 2 * n + 1],
        v.samples, [*ya, 2 * n + 1, 2 * n + 2], [*xa, 2 * n, 2 * n + 2])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("backing", ["grid", "callable", "translation", "J0"])
def test_dense_quantize_matches_einsum_reference(backing, n, k):
    # observed <= 1.8e-15 relative (7.9e-16 on the grid and eval writers):
    # the GEMM sums in another order, e^{i x.q} is a product of per-axis
    # factors, and eval is F's trig sum.  The dense path reads the
    # slabs of the grid, eval, shear and copy writers (a translation
    # symbol at n = 1 is J = 0); the reference evaluates pointwise
    g = GridSpec(n, 16, 8.0)
    if backing in ("grid", "callable"):
        tp = trig_symbol(n, k, 40 + k)
        a = sample_symbol(tp, g) if backing == "grid" else CallableSymbol(n, k, tp.eval)
    else:
        a = slab_symbol(backing, n, k, g)
    u = matrix_field(g, 41, k)
    ref = dense_quantize_reference(a, u)
    got = PhaseSymbol.quantize(a, u) if backing in ("translation", "J0") \
        else pdo_apply(a, u)
    assert np.abs(got.samples - ref).max() <= 1e-14 * np.abs(ref).max()
    # negative control: the transposed symbol a(x, q)^T acts differently
    if k > 1:
        at = GridSymbol(g, np.swapaxes(a.sample(g).samples, -1, -2))
        assert np.abs(pdo_apply(at, u).samples - ref).max() > 1e-3 * np.abs(ref).max()
    # band-limited coefficients read the slabs on their 9 x 9 dual box only
    c = random_band_coefficients(g, k, np.random.default_rng(45))
    ref = dense_quantize_reference(a, ModuleFunction(g, grid_transform(c, g, inverse=True)))
    got = dense_quantize(a, g, c)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("backing", ["grid", "translation", "J0"])
def test_stacked_dense_quantize_equals_separate(backing, n, k):
    # the right index is a batch axis: one pass over [1 | u] equals the
    # passes over 1 and over u, and m = 1 is quantize.  At k = 2, the CLI's
    # and the benchmark's size, bit for bit: the GEMM's 8 columns run the
    # same kernel as its 4.  At k = 1 one column is a GEMV and at k = 3, 9
    # and 18 columns end in different edge kernels, so only the last bits
    # agree (observed <= 7.3e-16 relative)
    g = GridSpec(n, 16, 8.0)
    a = slab_symbol(backing, n, k, g)
    u = matrix_field(g, 44, k)
    one = grid_transform(np.broadcast_to(np.eye(k), g.shape + (k, k)), g)
    both = dense_quantize(a, g, np.concatenate([one, grid_transform(u.samples, g)],
                                               axis=-1))
    for got, ref in ((both[..., :k], dense_quantize(a, g, one)),
                     (both[..., k:], PhaseSymbol.quantize(a, u).samples)):
        if k == 2:
            assert np.array_equal(got, ref)
        assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()
    with pytest.raises(GridMismatchError):
        dense_quantize(a, g, both[..., :k - 1, :])


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 2)])
@pytest.mark.parametrize("backing", ["grid", "translation", "bracket", "callable"])
def test_frozen_plan_applies_like_dense_quantize(backing, n, k):
    # a frozen plan, applied to several symbols and twice to one, gives the
    # bits of dense_quantize, which plans on each call: on a probe-like
    # 9-mode box and on a full box; an unfrozen plan applies once; a plan is
    # a constant of its grid and coefficients, so it rejects a symbol of
    # another k or n
    g = GridSpec(n, 16, 8.0)
    a = slab_symbol(backing, n, k, g)
    others = [slab_symbol("trig", n, k, g), a]
    band = random_band_coefficients(g, k, np.random.default_rng(45))
    full = grid_transform(matrix_field(g, 46, k).samples, g)
    for coeffs in (band, np.concatenate([band, full], axis=-1)):
        plan = dense_plan(g, coeffs).frozen()
        assert plan.rhs.shape[0] == g.points and not plan.rhs.flags.writeable
        for b in [a] + others:
            assert dense_apply(b, plan).tobytes() == dense_quantize(b, g, coeffs).tobytes()
    once = dense_plan(g, band)
    assert dense_apply(a, once).tobytes() == dense_quantize(a, g, band).tobytes()
    with pytest.raises(ValueError, match="shorter"):
        dense_apply(a, once)                     # its rhs stream is spent
    with pytest.raises(GridMismatchError):
        dense_apply(slab_symbol("trig", n, k + 1, g), plan)
    with pytest.raises(GridMismatchError):
        dense_apply(slab_symbol("trig", 3 - n, k, GridSpec(3 - n, 16, 8.0)), plan)


def test_dense_quantize_of_translation_symbol_is_left_action():
    # the generic dense sum over the shear's slabs against the twisted
    # product at N = 16 (observed 6e-16 relative); the transposed J, that is
    # -J, is another operator on this off-center u (on two centered
    # Gaussians the product reads only theta^2)
    g = GridSpec(2, 16, 8.0)
    F, u = matrix_field(g, 42), translate(matrix_field(g, 43), [1.0, -0.5])
    rhs = deformed_product(F, u, J)
    for Jt, fails in ((J, False), (SkewForm.standard(-J.theta), True)):
        lhs = PhaseSymbol.quantize(TranslationSymbol(F, Jt), u)
        assert ((lhs - rhs).sup_norm() > 1e-12 * rhs.sup_norm()) == fails


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_kernel_apply_matches_einsum_reference(n, k):
    # observed <= 1.9e-15 relative: one block GEMM per row against one
    # einsum over the materialized kernel of a random grid symbol
    g = GridSpec(n, 16, 8.0)
    r = np.random.default_rng(50 + k)
    K = symbol_to_kernel(GridSymbol(g, r.normal(size=g.shape * 2 + (k, k))
                                     + 1j * r.normal(size=g.shape * 2 + (k, k))), g)
    v = matrix_field(g, 51, k)
    ref = kernel_apply_reference(K, v)
    assert np.abs(K.apply(v).samples - ref).max() <= 1e-14 * np.abs(ref).max()


def symbol_to_kernel_reference(a, grid):
    """symbol_to_kernel as it was before it streamed slabs: the whole sample
    transformed along every xi axis, scaled, then sheared by one gather."""
    out = sample_symbol(a, grid).samples
    for ax in range(grid.n, 2 * grid.n):
        out = axis_transform(out, ax, grid.spacing, -grid.half_width, inverse=True)
    out *= (TWO_PI) ** (-grid.n / 2.0)
    npts = grid.points
    i = np.arange(npts)
    xs = [i.reshape((-1,) + (1,) * (2 * grid.n - 1 - d)) for d in range(grid.n)]
    ys = [i.reshape((-1,) + (1,) * (grid.n - 1 - d)) for d in range(grid.n)]
    return out[tuple(xs) + tuple((x - y + npts // 2) % npts for x, y in zip(xs, ys))]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["trig", "grid", "translation"])
def test_symbol_to_kernel_matches_whole_grid_reference(kind, n, k):
    # slab by slab, bit for bit the whole-grid transform and gather
    g = GridSpec(n, 16, 8.0)
    a = slab_symbol(kind, n, k, g)
    ref = symbol_to_kernel_reference(a, g)
    got = symbol_to_kernel(a, g).samples
    assert np.array_equal(got, ref)
    # negative control: each slab gathered into out[i0 + 1]
    assert not np.array_equal(np.roll(got, 1, axis=0), ref)


def peak_bytes(fn):
    """tracemalloc's peak over one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backing", ["grid", "translation"])
def test_symbol_to_kernel_memory_and_inputs(backing):
    # N = 32, k = 2: one product grid is 64 MiB.  Applying the kernel holds
    # a row, its transforms and the symbol's slab stream, never the grid
    # (observed 0.10x and 0.17x; about 1.1x when the kernel was built
    # whole); the materialized samples are the one grid held beside them
    # (observed 1.10x and 1.17x)
    g = GridSpec(2, 32, 8.0)
    grid_bytes = g.points ** 4 * 4 * 16
    a = TranslationSymbol(matrix_field(g, 52), J)
    u = matrix_field(g, 53)
    if backing == "grid":
        a = sample_symbol(a, g)
        before = a.samples.copy()
    assert peak_bytes(lambda: symbol_to_kernel(a, g).apply(u)) <= 0.25 * grid_bytes
    assert peak_bytes(lambda: symbol_to_kernel(a, g).samples) <= 1.25 * grid_bytes
    if backing == "grid":
        # byte for byte: the in-place scaling never reaches the caller's samples
        assert a.samples.tobytes() == before.tobytes()


@pytest.mark.parametrize("check_id", ["translation_bridge", "kernel_consistency"])
def test_operator_checks_memory(check_id):
    # the two default-config checks that apply a phase-space operator at
    # N = 32, k = 2, the generic dense quantize of TranslationSymbol(F, J)
    # and symbol_to_kernel(a, g).apply(u), stream the symbol's slabs: each
    # peaks at a fraction of one 64 MiB product grid (observed 0.12x and
    # 0.18x), where sampling the symbol or building the kernel whole held 1.1x
    fn = {cid: f for cid, *_, f in SUITE_CHECKS["quantization"]}[check_id]
    cfg = SuiteConfig()
    rng = check_rng(cfg.seed, f"quantization.{check_id}")
    assert peak_bytes(lambda: fn(cfg, rng)) <= 0.25 * 32 ** 4 * 4 * 16


@pytest.mark.parametrize("kind, npts, bound", [("J0", 32, 0.25), ("bracket", 16, 2.0)])
def test_slabs_supremum_memory(kind, npts, bound):
    # k = 2: the supremum over a slab stream holds a slab and its writer's
    # tables, never the product grid (bound in product grids; observed
    # 0.06x and 1.2x, where sampling whole held 1.0x and 5.4x: a bracket
    # holds its 8 factor streams and their tables)
    g = GridSpec(2, npts, 8.0)
    a = slab_symbol(kind, 2, 2, g)
    grid_bytes = g.points ** 4 * 4 * 16
    assert peak_bytes(lambda: cnorm_sup_slabs(a.slabs(g))) <= bound * grid_bytes


def test_kernel_reproduces_action():
    a = trig_symbol(2, 1, 10)
    u = ModuleFunction.from_function(
        G2, lambda x, y: np.exp(-(x * x + y * y) / 3) * (1 + 0.1 * y))
    lhs = symbol_to_kernel(a, G2).apply(u)
    rhs = pdo_apply(a, u)
    assert (lhs - rhs).sup_norm() <= 1e-12 * rhs.sup_norm()


def test_kernel_matrix_valued_1d():
    a = trig_symbol(1, 2, 11)
    u = ModuleFunction.from_function(G1, lambda x: np.exp(-x * x / 3), algebra_dim=2)
    lhs = symbol_to_kernel(a, G1).apply(u)
    rhs = pdo_apply(a, u)
    assert (lhs - rhs).sup_norm() <= 1e-12 * rhs.sup_norm()


def test_pi_seminorm_plane_wave():
    p, w, c = 0.5, 1.5, 0.7
    a = TrigPolySymbol(1, 1, [(np.array([p]), np.array([w]), np.array([[c]]))])
    expect = c * max(abs(p) ** b * abs(w) ** g for b in (0, 1) for g in (0, 1))
    assert pi_seminorm(a, G1) == pytest.approx(expect, rel=1e-10)


def test_pi_seminorm_samples_partial_free_symbol_once():
    # no analytic partials: the bare callable raises, and its explicit sample
    # (one eval per slab of the first x axis) serves all 16 partials
    calls = []
    tp = trig_symbol(2, 2, 3)

    def fn(x, xi):
        calls.append(1)
        return tp.eval(x, xi)
    g = GridSpec(2, 8, 8.0)
    with pytest.raises(CapabilityError):
        pi_seminorm(CallableSymbol(2, 2, fn), g)
    calls.clear()
    value = pi_seminorm(CallableSymbol(2, 2, fn).sample(g), g)
    assert len(calls) == g.points
    assert value == pi_seminorm(sample_symbol(CallableSymbol(2, 2, tp.eval), g), g)


def test_pi_seminorm_trig_streams_slabs():
    # N = 32, k = 2: the 16 partials of a trig symbol stream one reused slab
    # each, never a 64 MiB product grid
    g = GridSpec(2, 32, 8.0)
    a = trig_symbol(2, 2, 19)
    assert peak_bytes(lambda: pi_seminorm(a, g)) <= 0.25 * g.points ** 4 * 4 * 16


def test_pi_seminorm_constant():
    assert pi_seminorm(constant_symbol(2, 2 * np.eye(2)), GridSpec(2, 16, 8.0)) \
        == pytest.approx(2.0)


def chained_slabs(a, g, orders):
    """Each partial's slab stream in turn, for the given orders."""
    return (s for o in orders for s in a.partial(o[:a.n], o[a.n:]).slabs(g))


def partial_orders(n):
    return list(np.ndindex(*((2,) * (2 * n))))


def test_pi_seminorm_covers_every_order():
    # negative control: one term whose supremum is attained at the order
    # (1, 1, 1, 1) alone (every |p_i|, |w_i| > 1); a fold that dropped that
    # order would read well below pi_seminorm
    g = GridSpec(2, 16, 8.0)
    p, w = np.array([1.5, 2.0]), np.array([1.25, 3.0])
    a = TrigPolySymbol(2, 1, [(p, w, np.array([[0.7]]))])
    expect = 0.7 * np.prod(p) * np.prod(w)
    value = pi_seminorm(a, g)
    assert abs(value - expect) <= 1e-12 * expect
    orders = partial_orders(2)
    assert orders[-1] == (1, 1, 1, 1)
    dropped = cnorm_sup_slabs(chained_slabs(a, g, orders[:-1]))
    assert value - dropped > 0.1 * expect


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_partial_bound_covers_every_order(n, k):
    # a trig partial's bound sum_t ||c_t||_2 is finite and at least the
    # supremum of its samples, at every order; the frequencies reach past 1,
    # so a bound that left out the (i p)^beta (i w)^gamma factor would fall
    # below the higher partials' suprema
    g = GridSpec(n, 16, 8.0)
    for seed in range(5):
        r = np.random.default_rng([n, k, seed])
        a = TrigPolySymbol(n, k, [
            (r.uniform(-3, 3, n), r.uniform(-3, 3, n),
             (r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))) / 3)
            for _ in range(3)])
        for o in partial_orders(n):
            bound = a.partial_bound(o[:n], o[n:])
            assert np.isfinite(bound)
            assert bound >= cnorm_sup_slabs(a.partial(o[:n], o[n:]).slabs(g))


def test_partial_bound_is_inf_off_trig():
    # only a trig symbol knows its coefficients: grid, callable, translation
    # and bracket symbols bound no partial
    g = GridSpec(2, 8, 8.0)
    tp = trig_symbol(2, 2, 23)
    F = matrix_field(g, 24)
    for a in (tp.sample(g), CallableSymbol(2, 2, tp.eval),
              TranslationSymbol(F, J), poisson_bracket(tp, tp)):
        for o in partial_orders(2):
            assert a.partial_bound(o[:2], o[2:]) == np.inf


def count_trig_slabs(monkeypatch):
    """One entry per slab a trig writer (TrigPolySymbol._fill) yields from
    now on: the slab's shape."""
    drawn, real = [], TrigPolySymbol._fill

    def counting(self, grid, out, box):
        for slab in real(self, grid, out, box):
            drawn.append(slab.shape)
            yield slab
    monkeypatch.setattr(TrigPolySymbol, "_fill", counting)
    return drawn


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n, npts", [(1, 16), (1, 32), (2, 16), (2, 32)])
def test_pi_seminorm_prune_matches_full_stream(n, npts, k):
    # pi_seminorm skips a partial only if its coefficient bound is below the
    # running supremum less the rounding margin; over ten random symbols it
    # reads the supremum of every partial's slabs in turn bit for bit
    g = GridSpec(n, npts, 8.0)
    for seed in range(10):
        a = random_band_symbol(n, k, np.random.default_rng([n, npts, k, seed]))
        assert pi_seminorm(a, g) == cnorm_sup_slabs(chained_slabs(a, g, partial_orders(n)))


@pytest.mark.parametrize("k", [1, 2])
def test_pi_seminorm_prune_draws_top_order_first(k, monkeypatch):
    # one term with every |p_i|, |w_i| > 1: the supremum sits at the last
    # order, (1, 1, 1, 1), whose bound is the largest, so it is drawn first
    # and alone, and every other bound lies below it
    g = GridSpec(2, 16, 8.0)
    p, w = np.array([1.5, -2.0]), np.array([1.25, 3.0])
    c = np.random.default_rng(k).normal(size=(k, k)) + 0.5j
    a = TrigPolySymbol(2, k, [(p, w, c)])
    expect = cnorm(c) * np.prod(np.abs(p)) * np.prod(np.abs(w))
    drawn = count_trig_slabs(monkeypatch)
    value = pi_seminorm(a, g)
    assert drawn == [g.shape[1:] + g.shape + (k, k)] * g.points
    assert abs(value - expect) <= 1e-12 * expect
    assert value == cnorm_sup_slabs(chained_slabs(a, g, partial_orders(2)))


@pytest.mark.parametrize("k", [1, 2])
def test_pi_seminorm_prune_draws_every_tie(k, monkeypatch):
    # one term with every |p_i| = |w_i| = 1: all 16 bounds tie at ||C||_2,
    # which every partial attains up to rounding, so the margin keeps every
    # partial (without it, a supremum rounded above the tied bound would skip
    # the rest): all 16 partials are drawn and the full stream's bits read
    g = GridSpec(2, 16, 8.0)
    p, w = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
    r = np.random.default_rng(k)
    c = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    a = TrigPolySymbol(2, k, [(p, w, c)])
    drawn = count_trig_slabs(monkeypatch)
    value = pi_seminorm(a, g)
    assert drawn == [g.shape[1:] + g.shape + (k, k)] * (16 * g.points)
    assert abs(value - cnorm(c)) <= 1e-14 * cnorm(c)
    assert value == cnorm_sup_slabs(chained_slabs(a, g, partial_orders(2)))


def test_pi_seminorm_prune_draws_one_partial_at_verify_symbols(monkeypatch):
    # the five norm_bound_stability operands (N = 16, k = 2) and the
    # pi_seminorm check's plane wave (N = 32, k = 1): every later bound lies
    # below the first partial's supremum, so one partial's N slabs are drawn
    cfg = SuiteConfig()
    sites = [(random_band_symbol(cfg.n, cfg.algebra_dim,
                                 check_rng(cfg.seed, f"cv_sym_{i}")), cfg.grid(16))
             for i in range(5)]
    g = cfg.grid(32)
    rng = check_rng(cfg.seed, "quantization.pi_seminorm")
    p, w = rng.uniform(-1, 1, g.n), rng.uniform(-1, 1, g.n)
    sites.append((TrigPolySymbol(g.n, 1, [(p, w, np.array([[0.7]]))]), g))
    for a, g in sites:
        drawn = count_trig_slabs(monkeypatch)
        pi_seminorm(a, g)
        assert drawn == [g.shape[1:] + g.shape + (a.algebra_dim,) * 2] * g.points


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_pi_seminorm_prune_nonfinite_coefficient(k, bad):
    # a non-finite coefficient's bound is NaN or inf (or raises at k = 2),
    # which never skips: NaN at k = 1 and LinAlgError at k = 2, as the full
    # stream reads
    g = GridSpec(2, 16, 8.0)
    terms = random_band_symbol(2, k, np.random.default_rng(5)).terms
    terms[2][2][0, 0] = bad
    a = TrigPolySymbol(2, k, terms)
    full = lambda: cnorm_sup_slabs(chained_slabs(a, g, partial_orders(2)))
    with np.errstate(invalid="ignore"):
        if k == 1:
            assert np.isnan(pi_seminorm(a, g)) and np.isnan(full())
        else:
            for fn in (lambda: pi_seminorm(a, g), full):
                with pytest.raises(np.linalg.LinAlgError):
                    fn()


@pytest.mark.parametrize("n", [1, 2])
def test_trig_symbol_without_terms_is_zero(n):
    # no terms: the trig writer writes zeros, so sampling, the seminorm and
    # a kernel apply all read zero instead of failing on a zero-width table
    g = GridSpec(n, 8, 8.0)
    a = TrigPolySymbol(n, 2, [])
    u = matrix_field(g, 61)
    samples = a.sample(g).samples
    assert samples.shape == g.shape * 2 + (2, 2) and not samples.any()
    assert not any(s.any() for s in a.slabs(g))
    assert pi_seminorm(a, g) == 0.0
    assert not symbol_to_kernel(a, g).apply(u).samples.any()
    assert not a.quantize(u).samples.any()


def test_weyl_operator_unitary_norm():
    E = HeisenbergPoint(np.array([0.7]), np.array([1.3]), 0.4)
    est, record = operator_norm_estimate(E, G1, 1, trials=4, power_iters=5, seed=0)
    assert est == pytest.approx(1.0, abs=1e-10)
    assert record["power_iters"] == 5
    # the handle's adjoint is the group inverse: <E u, v> = <u, E* v>
    u, v = gaussian_1d(), gaussian_1d(lambda x: np.exp(0.5j * x))
    lhs = inner_product(E.apply(u), v)
    assert cnorm(lhs - inner_product(u, E.adjoint().apply(v))) <= 1e-12 * cnorm(lhs)


def test_multiplication_norm_bounded_by_sup():
    # m(x) = 1.2 cos(0.4 x): operator norm equals sup |m| = 1.2
    a = TrigPolySymbol(1, 1, [(np.array([0.4]), np.zeros(1), np.array([[0.6]])),
                              (np.array([-0.4]), np.zeros(1), np.array([[0.6]]))])
    est, _ = operator_norm_estimate(PdoOp(a), G1, 1, trials=6,
                                    power_iters=12, seed=1)
    assert est <= 1.2 + 1e-9
    assert est >= 1.0


class ApplyOnly(OperatorHandle):
    def apply(self, u):
        return u


def test_norm_estimate_needs_an_adjoint():
    # a callable symbol has no adjoint: the estimate raises rather than
    # return the trials' lower bound; its sample runs every power step
    tp = trig_symbol(1, 1, 11)
    a = CallableSymbol(1, 1, tp.eval)
    with pytest.raises(CapabilityError, match="sample it first"):
        operator_norm_estimate(PdoOp(a), G1, 1, trials=2, power_iters=3, seed=0)
    with pytest.raises(CapabilityError, match="ApplyOnly has no adjoint"):
        operator_norm_estimate(ApplyOnly(), G1, 1, trials=2, power_iters=3, seed=0)
    est, record = operator_norm_estimate(PdoOp(a.sample(G1)), G1, 1, trials=2,
                                         power_iters=3, seed=0)
    assert record["power_iters"] == 3
    assert est >= record["trial_best"] > 0.0


def test_norm_estimate_of_a_zero_operator():
    # every trial maps to zero: the estimate is 0.0 and no power step runs
    g = GridSpec(2, 16, 8.0)
    zero = TrigPolySymbol(2, 2, [(np.zeros(2), np.full(2, 0.5), np.zeros((2, 2)))])
    F = ModuleFunction(g, np.zeros(g.shape + (2, 2)))
    for T in (PdoOp(zero), LeftActionOp(F, J)):
        est, record = operator_norm_estimate(T, g, 2, trials=3, power_iters=4, seed=1)
        assert est == 0.0
        assert record["power_iters"] == 0
        assert record["trial_best"] == record["estimate"] == 0.0


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1.0, 1e155, 1e200])
def test_norm_estimate_at_extreme_scales(scale):
    # L_{s z} for a full-band z at N = 32, k = 2: T* v is of order s^2, which
    # underflowed to 0 (s = 1e-170, 1e-300: the trial estimate, 0.653 of the
    # right one, with no power step), overflowed 1 / ||u|| (s = 1e-160) or
    # T* v itself (s = 1e155).  A v whose square leaves the double range
    # goes in scaled by a power of two, so the estimate reads s times the
    # s = 1 estimate (observed at most 2.2e-16 relative) after as many steps
    r = np.random.default_rng(0)
    z = r.normal(size=G2.shape + (2, 2)) + 1j * r.normal(size=G2.shape + (2, 2))

    def estimate(s):
        return operator_norm_estimate(LeftActionOp(ModuleFunction(G2, s * z), J),
                                      G2, 2, trials=4, power_iters=8)
    base, base_record = estimate(1.0)
    got, record = estimate(scale)
    assert abs(got - scale * base) <= 1e-14 * scale * base
    assert record["power_iters"] == base_record["power_iters"] == 8


G16 = GridSpec(2, 16, 8.0)


def parent_norm_estimate(T, grid, algebra_dim, trials, power_iters, seed):
    # the loop before the trials were batched: each trial applied alone, the
    # best trial's T u applied again as the first power step, and T* applied
    # after the last ratio too
    rng = np.random.default_rng(seed)
    best_ratio, best_u = 0.0, None
    for _ in range(trials):
        u = random_band_limited(grid, algebra_dim, rng)
        nu = module_norm(u)
        if nu == 0.0:
            continue
        r = module_norm(T.apply(u)) / nu
        if r > best_ratio:
            best_ratio, best_u = r, u
    record = {"trials": trials, "seed": seed, "trial_best": best_ratio,
              "power_iters": 0}
    Tadj = T.adjoint()
    u = best_u
    for it in range(power_iters if u is not None else 0):
        v = T.apply(u)
        nv = module_norm(v)
        if nv == 0.0:
            break
        ratio = nv / module_norm(u)
        if ratio > best_ratio:
            best_ratio = ratio
        u = Tadj.apply(v)
        nu = module_norm(u)
        if nu == 0.0:
            break
        u = (1.0 / nu) * u
        record["power_iters"] = it + 1
    record["estimate"] = best_ratio
    return best_ratio, record


NORM_HANDLES = {
    "trig_pdo": lambda: PdoOp(trig_symbol(2, 2, 40)),
    "grid_pdo": lambda: PdoOp(trig_symbol(2, 2, 41).sample(G16)),
    "left_action": lambda: LeftActionOp(matrix_field(G16, 42), J),
    "heisenberg": lambda: HeisenbergPoint([0.3, -0.2], [0.5, 0.1], 0.4)}


@pytest.mark.parametrize("name", sorted(NORM_HANDLES))
@pytest.mark.parametrize("seed", [0, 3])
def test_norm_estimate_matches_parent_loop(name, seed):
    T = NORM_HANDLES[name]()
    got = operator_norm_estimate(T, G16, 2, trials=4, power_iters=5, seed=seed)
    assert got == parent_norm_estimate(T, G16, 2, 4, 5, seed)


class CountingHandle(OperatorHandle):
    """Delegates to inner, counting applies per key."""

    def __init__(self, inner, counts, key="T"):
        self.inner, self.counts, self.key = inner, counts, key

    def apply(self, u):
        self.counts[self.key] += 1
        return self.inner.apply(u)

    def adjoint(self):
        return CountingHandle(self.inner.adjoint(), self.counts, "T*")


@pytest.mark.parametrize("trials,power_iters", [(4, 5), (3, 1), (2, 0)])
def test_norm_estimate_apply_counts(trials, power_iters):
    # the first power step reuses the best trial's T u and the last skips T*:
    # trials + P - 1 applies of T, P - 1 of T*, with the estimate of a loop
    # that makes every apply
    counts = {"T": 0, "T*": 0}
    T = CountingHandle(LeftActionOp(matrix_field(G16, 43), J), counts)
    got = operator_norm_estimate(T, G16, 2, trials=trials,
                                 power_iters=power_iters, seed=1)
    assert counts == {"T": trials + max(power_iters - 1, 0),
                      "T*": max(power_iters - 1, 0)}
    assert got == parent_norm_estimate(LeftActionOp(matrix_field(G16, 43), J),
                                       G16, 2, trials, power_iters, 1)


class ZeroAdjoint(ApplyOnly):
    def adjoint(self):
        return PdoOp(constant_symbol(1, np.zeros((1, 1))))


def test_norm_estimate_skips_the_last_adjoint():
    # T* v = 0 ends the iteration uncounted; at the last step T* is never
    # applied, so that step counts where a loop that applies it would not
    est, record = operator_norm_estimate(ZeroAdjoint(), G1, 1, trials=2,
                                         power_iters=3, seed=0)
    assert (est, record) == parent_norm_estimate(ZeroAdjoint(), G1, 1, 2, 3, 0)
    assert record["power_iters"] == 0 and est == 1.0
    est, record = operator_norm_estimate(ZeroAdjoint(), G1, 1, trials=2,
                                         power_iters=1, seed=0)
    assert record["power_iters"] == 1 and est == 1.0
    assert parent_norm_estimate(ZeroAdjoint(), G1, 1, 2, 1, 0)[1]["power_iters"] == 0


def test_left_action_apply_many_empty_batch():
    # the members' bits are deformed_product's batch axis, pinned in
    # test_deformation; an empty batch runs no product
    assert LeftActionOp(matrix_field(G2, 44), J).apply_many(()) == ()


class Identity(ApplyOnly):
    def adjoint(self):
        return self


def test_operator_composition_and_adjoint():
    F = matrix_field(G2, 12)
    T = ComposedOp([LeftActionOp(F, J), Identity()])
    u = matrix_field(G2, 13)
    assert (T.apply(u) - deformed_product(F, u, J)).sup_norm() <= 1e-14
    # (L_F)* = L_{F*} through the handle adjoint
    v = matrix_field(G2, 14)
    lhs = inner_product(T.apply(u), v)
    rhs = inner_product(u, T.adjoint().apply(v))
    assert cnorm(lhs - rhs) <= 1e-5 * max(cnorm(lhs), 1e-300)


def test_grid_symbol_off_node_rejected():
    s = sample_symbol(trig_symbol(1, 1, 16), G1)
    with pytest.raises(CapabilityError):
        s.eval([np.array([0.123456])], [np.array([0.0])])
    # the bound is 1e-9 of a spacing (2.5e-10 here), relative to nothing:
    # 3e-5 off the node at x = 4 is rejected, 1e-10 off it is read as the node
    with pytest.raises(CapabilityError):
        s.eval([np.array([4.0 + 3e-5])], [np.array([0.0])])
    assert np.array_equal(s.eval([np.array([4.0 + 1e-10])], [np.array([0.0])]),
                          s.eval([np.array([4.0])], [np.array([0.0])]))


def test_symbol_grid_mismatch():
    s = sample_symbol(trig_symbol(1, 1, 17), G1)
    u = ModuleFunction.from_function(GridSpec(1, 64, 9.0),
                                     lambda x: np.exp(-x * x))
    with pytest.raises(GridMismatchError):
        pdo_apply(s, u)
