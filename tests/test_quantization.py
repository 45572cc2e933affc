import tracemalloc

import numpy as np
import pytest

from rieffel.algebra import cnorm, cnorm_sup_slabs
from rieffel.deformation import SkewForm, deformed_product
from rieffel.errors import CapabilityError, GridMismatchError
from rieffel.grids import TWO_PI, GridSpec, axis_transform, grid_transform
from rieffel.heisenberg import HeisenbergPoint
from rieffel.module_space import ModuleFunction, inner_product, module_norm, translate
from rieffel.quantization import (CallableSymbol, ComposedOp, GridSymbol,
                                  KernelField, LeftActionOp, OperatorHandle,
                                  PdoOp, PhaseSymbol, TranslationSymbol,
                                  TrigPolySymbol, constant_symbol,
                                  operator_norm_estimate, pdo_apply, pi_seminorm,
                                  sample_symbol, symbol_to_kernel)
from rieffel.suites import SuiteConfig, matrix_gaussian, random_band_symbol
from rieffel.symbolic_calculus import poisson_bracket

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


def slab_symbol(kind, n, k, g):
    """A symbol of each backing kind for the slabs test; F of a foreign
    translation symbol lives on an 8-point grid, so its generic eval stays
    cheap.  A callable runs the generic eval writer; a bracket pairs a
    translation symbol's partials with a trig symbol's."""
    r = np.random.default_rng(10 * n + k + g.points)
    if kind in ("trig", "grid", "callable"):
        a = trig_symbol(n, k, 5 * n + k)
        if kind == "grid":
            return sample_symbol(a, g)
        return CallableSymbol(n, k, a.eval) if kind == "callable" else a
    if kind == "bracket":
        return poisson_bracket(slab_symbol("translation", n, k, g),
                               trig_symbol(n, k, 7 * n + k))
    fg = GridSpec(n, 8, 3.0) if kind == "foreign" else g
    F = ModuleFunction(fg, r.normal(size=fg.shape + (k, k))
                       + 1j * r.normal(size=fg.shape + (k, k)))
    theta = 0.5 if n == 2 and kind != "J0" else 0.0
    return TranslationSymbol(F, SkewForm.standard(theta, n))


@pytest.mark.parametrize("npts", [16, 24])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["trig", "grid", "translation", "J0", "foreign",
                                  "bracket", "callable"])
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


@pytest.mark.parametrize("npts", [16, 24])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_foreign_translation_sample_matches_generic(n, k, npts):
    # F on an 8-point grid, sampled on another through its trig polynomial,
    # against pointwise eval on the full mesh; observed <= 3.3e-15 of the sup
    g = GridSpec(n, npts, 8.0)
    a = slab_symbol("foreign", n, k, g)
    fast = a.sample(g).samples
    slow = mesh_sample(a, g)
    assert np.abs(fast - slow).max() <= 2e-14 * np.abs(slow).max()


def test_grid_symbol_slabs_are_views():
    s = sample_symbol(trig_symbol(2, 2, 6), GridSpec(2, 8, 8.0))
    assert all(np.shares_memory(x, s.samples) for x in s.slabs(s.grid))


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
    # pi_seminorm, symbol_to_kernel and pdo_apply on a trig symbol, and
    # sampling a translation symbol off F's grid, must not fall back to
    # pointwise evaluation
    def refuse(self, x, xi):
        raise AssertionError("TrigPolySymbol.eval called")
    monkeypatch.setattr(TrigPolySymbol, "eval", refuse)
    g = GridSpec(2, 16, 8.0)
    a = trig_symbol(2, 2, 12)
    u = matrix_field(g, 13)
    assert pi_seminorm(a, g) > 0.0
    assert np.isfinite(symbol_to_kernel(a, g).samples).all()
    assert module_norm(pdo_apply(a, u)) > 0.0
    assert np.isfinite(slab_symbol("foreign", 2, 2, g).sample(g).samples).all()


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
@pytest.mark.parametrize("backing", ["grid", "callable"])
def test_dense_quantize_matches_einsum_reference(backing, n, k):
    # observed <= 6.6e-16 relative: the GEMM sums in another order, and
    # e^{i x.q} is a product of per-axis factors
    g = GridSpec(n, 16, 8.0)
    tp = trig_symbol(n, k, 40 + k)
    a = sample_symbol(tp, g) if backing == "grid" else CallableSymbol(n, k, tp.eval)
    u = matrix_field(g, 41, k)
    ref = dense_quantize_reference(a, u)
    got = pdo_apply(a, u).samples
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # negative control: the transposed symbol a(x, q)^T acts differently
    if k > 1:
        at = GridSymbol(g, np.swapaxes(sample_symbol(tp, g).samples, -1, -2))
        assert np.abs(pdo_apply(at, u).samples - ref).max() > 1e-3 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_kernel_apply_matches_einsum_reference(n, k):
    # observed <= 1.8e-15 relative: k^2 GEMMs against one einsum
    g = GridSpec(n, 16, 8.0)
    r = np.random.default_rng(50 + k)
    K = KernelField(g, r.normal(size=g.shape * 2 + (k, k))
                    + 1j * r.normal(size=g.shape * 2 + (k, k)))
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
@pytest.mark.parametrize("kind", ["trig", "grid", "translation", "foreign"])
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
    # N = 32, k = 2: one product grid is 64 MiB; the kernel is the one grid
    # held, beside a slab and its transforms (observed about 1.1x; the
    # whole-grid transform held 2x)
    g = GridSpec(2, 32, 8.0)
    a = TranslationSymbol(matrix_field(g, 52), J)
    if backing == "grid":
        a = sample_symbol(a, g)
        before = a.samples.copy()
    assert peak_bytes(lambda: symbol_to_kernel(a, g)) <= 1.25 * g.points ** 4 * 4 * 16
    if backing == "grid":
        # byte for byte: the in-place scaling never reaches the caller's samples
        assert a.samples.tobytes() == before.tobytes()


@pytest.mark.parametrize("kind, npts, bound", [
    ("foreign", 32, 1.0), ("J0", 32, 0.25), ("bracket", 16, 2.0)])
def test_slabs_supremum_memory(kind, npts, bound):
    # k = 2: the supremum over a slab stream holds a slab and its writer's
    # tables, never the product grid (bound in product grids; observed
    # 0.56x, 0.06x and 1.2x, where sampling whole held 1.5x, 1.0x and 5.4x:
    # a foreign translation symbol's trig table over the other 2n - 1 axes
    # is half a grid, a bracket holds its 8 factor streams and their tables)
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
