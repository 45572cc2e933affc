import tracemalloc

import numpy as np
import pytest

from rieffel import deformation, quantization, symbolic_calculus
from rieffel.algebra import cnorm_sup, cnorm_sup_slabs, slab_differences
from rieffel.deformation import SkewForm, deformed_product
from rieffel.errors import CapabilityError, GridMismatchError
from rieffel.grids import GridSpec, grid_transform
from rieffel.module_space import ModuleFunction, inner_product, module_norm
from rieffel.quantization import (CallableSymbol, GridSymbol, LeftActionOp,
                                  PhaseSymbol, TranslationSymbol, TrigPolySymbol,
                                  dense_quantize, operator_norm_estimate,
                                  pi_seminorm, random_band_coefficients,
                                  sample_symbol)
from rieffel.suites import SuiteConfig, band_limited_field, run_suite
from rieffel.symbolic_calculus import (GammaKernel, b_transform, coordinate_symbol,
                                       gamma_reconstruct, gamma_reproduce,
                                       poisson_bracket, recover,
                                       recover_translation_symbol,
                                       translation_certificate)

J = SkewForm.standard(0.5)
K = GammaKernel(400)


def gaussian_field(grid, seed, alpha=0.5, k=2):
    r = np.random.default_rng(seed)
    mesh = grid.mesh()
    c = r.uniform(-1, 1, size=grid.n)
    r2 = sum((mesh[d] - c[d]) ** 2 for d in range(grid.n))
    M = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    return ModuleFunction(grid, np.exp(-alpha * r2)[..., None, None] * M)


def trig_symbol(n, k, seed, nterms=3, fmax=0.8):
    r = np.random.default_rng(seed)
    return TrigPolySymbol(n, k, [
        (r.uniform(-fmax, fmax, n), r.uniform(-fmax, fmax, n),
         (r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))) / nterms)
        for _ in range(nterms)])


def xi_symbol(n, i):
    """The coordinate symbol (x, xi) -> xi_i with analytic partials."""
    def fn(x, xi):
        return np.asarray(xi[i])[..., None, None] + 0j

    def unit(j):
        e = [0] * n
        e[j] = 1
        return tuple(e)

    def const(c):
        return lambda x, xi: c * np.ones(np.broadcast(
            *(np.atleast_1d(v) for v in list(x) + list(xi))).shape)[..., None, None] + 0j

    partials = {}
    for j in range(n):
        partials[(unit(j), (0,) * n)] = const(0.0)
        partials[((0,) * n, unit(j))] = const(1.0 if j == i else 0.0)
    return CallableSymbol(n, 1, fn, partials)


# ---- gamma kernel


def test_gamma_mass_is_one():
    assert K.mass() == pytest.approx(1.0, abs=1e-12)


def test_gamma_laplace_closed_form():
    nus = np.array([-2.0, -0.5, 0.0, 0.3, 1.7])
    assert np.abs(K.laplace(nus) - 1.0 / (1.0 + 1j * nus) ** 2).max() <= 1e-10


def test_gamma_quadrature_cached_read_only():
    t, w = K.quadrature()
    t2, w2 = GammaKernel(400).quadrature()
    assert t2 is t and w2 is w
    with pytest.raises(ValueError):
        t[0] = 1.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert K.mass() == pytest.approx(1.0, abs=1e-12)


def uncached_laplace(kernel, nu):
    """GammaKernel.laplace's einsum, inline and without its memo."""
    t, w = kernel.quadrature()
    nu = np.asarray(nu, dtype=float)
    return np.einsum("m,...m->...", w * kernel.gamma(t),
                     np.exp(-1j * nu[..., None] * t))


def multiplier_frequencies(a):
    """The frequency arrays a.multiplier hands its factor function."""
    freqs = []
    a.multiplier(lambda nu: freqs.append(nu) or np.ones(np.shape(nu)))
    return freqs


@pytest.mark.parametrize("source", ["translation", "grid", "trig", "zero_d"])
def test_laplace_memo_bit_identical_to_einsum(source):
    # the n = 2 chain's four frequency arrays on both grid backings, a trig
    # symbol's (T,) frequencies, and the n = 1 translation symbol's
    # (J nu) = 0, a 0-d nu; each asked for twice (a miss, then a hit)
    g = GridSpec(2, 16, 8.0)
    F = gaussian_field(g, 3)
    if source == "translation":
        freqs = multiplier_frequencies(TranslationSymbol(F, J))
    elif source == "grid":
        freqs = multiplier_frequencies(sample_symbol(TranslationSymbol(F, J), g))
    elif source == "trig":
        freqs = multiplier_frequencies(trig_symbol(2, 2, 9, nterms=5))
    else:
        g1 = GridSpec(1, 16, 8.0)
        freqs = multiplier_frequencies(TranslationSymbol(
            gaussian_field(g1, 3), SkewForm.standard(None, 1)))
        assert np.ndim(freqs[1]) == 0
    assert len(freqs) == 4 or (source == "zero_d" and len(freqs) == 2)
    for nu in freqs:
        expected = uncached_laplace(K, nu)
        for _ in range(2):
            table = K.laplace(nu)
            assert table.shape == np.shape(expected)
            assert np.array_equal(table, expected)
            assert table.tobytes() == np.asarray(expected).tobytes()


def test_laplace_table_read_only():
    # a caller cannot corrupt the shared table, in place or by item
    nu = np.linspace(-3.0, 3.0, 7)
    table = K.laplace(nu)
    with pytest.raises(ValueError):
        table[0] = 0.0
    with pytest.raises(ValueError):
        table *= 2.0
    with pytest.raises(ValueError):
        K.laplace(0)[...] = 0.0
    assert np.array_equal(K.laplace(nu), uncached_laplace(K, nu))


def test_laplace_tables_never_shared_between_kernels():
    # equal frequencies, other node counts or a subclass: separate tables,
    # each its own kernel's einsum
    class Subclassed(GammaKernel):
        pass

    nu = np.linspace(-5.0, 5.0, 33)
    kernels = [GammaKernel(200), GammaKernel(400), Subclassed(400)]
    tables = [kern.laplace(nu) for kern in kernels]
    assert tables[0] is not tables[1] and tables[1] is not tables[2]
    assert not np.array_equal(tables[0], tables[1])
    for kern, table in zip(kernels, tables):
        assert np.array_equal(table, uncached_laplace(kern, nu))
        assert kern.laplace(nu) is table


# ---- point reproduction


def test_reproduce_constant():
    f = lambda pts: np.broadcast_to(np.eye(2), pts.shape[:-1] + (2, 2)).astype(complex)
    val = gamma_reproduce(f, K, n=1)
    assert np.abs(val - np.eye(2)).max() <= 1e-8


@pytest.mark.parametrize("seed, k", [(1, 2), (21, 1), (7, 3)])
def test_calculus_suite_passes_off_default_seed(seed, k):
    # with a 1e-3 finite-difference step these draws put
    # gamma_reproduce_gauss at 1.1-1.7e-5 against its 1e-5 tolerance
    report = run_suite(SuiteConfig(suite="calculus", seed=seed, algebra_dim=k))
    assert report.passed, [(c.check_id, c.residual) for c in report.checks
                           if not c.passed]


def test_reproduce_reads_k_off_the_integrand():
    # no algebra_dim argument: a k = 3 integrand gives a 3 x 3 value, and a
    # scalar one a 1 x 1 value rather than one broadcast to k x k
    M = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)
    val = gamma_reproduce(lambda p: np.broadcast_to(M, p.shape[:-1] + (3, 3)), K, n=1)
    assert val.shape == (3, 3) and np.abs(val - M).max() <= 1e-8 * np.abs(M).max()
    wave = gamma_reproduce(lambda p: np.exp(1j * p[..., 0])[..., None, None], K, n=1)
    assert wave.shape == (1, 1)


def test_reproduce_plane_wave():
    nu = 0.9
    f = lambda pts: np.exp(1j * nu * pts[..., 0])[..., None, None]
    val = gamma_reproduce(f, K, n=1)
    assert abs(val[0, 0] - 1.0) <= 1e-6


def test_reproduce_2d_matrix_gaussian():
    c = np.array([0.4, -0.3])
    M = np.array([[1.0, 0.2 + 0.1j], [0.3, 0.7]])

    def f(pts):
        r2 = ((pts - c) ** 2).sum(axis=-1)
        return np.exp(-r2)[..., None, None] * M

    val = gamma_reproduce(f, K, n=2)
    expect = np.exp(-(c ** 2).sum()) * M
    assert np.abs(val - expect).max() <= 1e-5


# ---- the b transform and its inverse


def test_b_transform_plane_wave_eigenvalue():
    p = np.array([0.4])
    w = np.array([-0.7])
    a = TrigPolySymbol(1, 1, [(p, w, np.array([[1.0 + 0j]]))])
    b = b_transform(a)
    fac = (1.0 + 1j * p[0]) ** 2 * (1.0 + 1j * w[0]) ** 2
    assert abs(b.terms[0][2][0, 0] - fac) <= 1e-12


def test_round_trip_trig():
    a = trig_symbol(2, 2, 0)
    back = gamma_reconstruct(b_transform(a), K)
    for (_, _, c1), (_, _, c0) in zip(back.terms, a.terms):
        assert np.abs(c1 - c0).max() <= 1e-8


def test_round_trip_translation_symbol():
    g = GridSpec(2, 32, 8.0)
    a = TranslationSymbol(gaussian_field(g, 1), J)
    back = gamma_reconstruct(b_transform(a), K)
    assert isinstance(back, TranslationSymbol)
    d = back.F.samples - a.F.samples
    assert np.abs(d).max() <= 1e-6 * np.abs(a.F.samples).max()


def test_round_trip_grid_symbol():
    g = GridSpec(1, 32, 8.0)
    a = sample_symbol(trig_symbol(1, 1, 2, fmax=0.5), g)
    back = gamma_reconstruct(b_transform(a), K)
    assert isinstance(back, GridSymbol)
    d = back.samples - a.samples
    assert np.abs(d).max() <= 1e-6 * np.abs(a.samples).max()


def test_round_trip_refines_with_quadrature():
    a = trig_symbol(2, 2, 3)
    errs = []
    for nodes in (8, 16, 32):
        kern = GammaKernel(nodes)
        back = gamma_reconstruct(b_transform(a), kern)
        errs.append(max(np.abs(c1 - c0).max()
                        for (_, _, c1), (_, _, c0) in zip(back.terms, a.terms)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-8


@pytest.mark.parametrize("backing", ["grid", "translation"])
def test_multiplier_stays_on_symbol_grid(backing):
    # spectral operations take no grid: a symbol that lives on the N=8 grid
    # is transformed there, and so is each result
    g8 = GridSpec(2, 8, 8.0)
    a = TranslationSymbol(gaussian_field(g8, 4), J)
    if backing == "grid":
        a = sample_symbol(a, g8)
    for b in (b_transform(a), gamma_reconstruct(a, K), a.adjoint()):
        assert type(b) is type(a)
        assert (b.grid if backing == "grid" else b.F.grid) is g8
    assert sample_symbol(b_transform(a), g8).samples.shape[0] == 8


def lattice_trig_symbol(g, k, seed, nterms=3):
    """Trig terms with p on the dual lattice and w on the spatial lattice,
    inside the band: g's samples determine the symbol exactly."""
    r = np.random.default_rng(seed)
    return TrigPolySymbol(g.n, k, [
        (g.dual_spacing * r.integers(-2, 3, g.n), g.spacing * r.integers(-2, 3, g.n),
         (r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))) / nterms)
        for _ in range(nterms)])


SPECTRAL_OPS = {
    "partial": lambda a, g: a.partial((1, 0), (0, 1)),
    "shift": lambda a, g: a.shift((0.37, -0.81), (0.23, 0.52)),
    "multiplier": lambda a, g: a.multiplier(lambda nu: 1.0 / (1.0 + nu * nu)),
    "adjoint": lambda a, g: a.adjoint(),
    "b_transform": lambda a, g: b_transform(a),
    "gamma_reconstruct": lambda a, g: gamma_reconstruct(a, K),
    "pi_seminorm": pi_seminorm,
    "translation_certificate": lambda a, g: translation_certificate(a, J, g)}


@pytest.mark.parametrize("op", list(SPECTRAL_OPS))
@pytest.mark.parametrize("backing", ["callable", "bracket"])
def test_spectral_ops_need_explicit_sample(backing, op):
    # a symbol without a spectrum of its own raises; sampled on g, a lattice
    # trig symbol gives the exact trig result (observed <= 7.7e-15 relative)
    g = GridSpec(2, 8, 8.0)
    tp = lattice_trig_symbol(g, 2, 23)
    if backing == "callable":
        a, exact = CallableSymbol(2, 2, tp.eval), tp
    else:
        # {tp, b_0} = sum_j J_0j d_x_j tp - d_xi_0 tp, b_0 = x_0 + (J xi)_0
        a = poisson_bracket(tp, coordinate_symbol(J, 0, 2))
        exact = tp.fourier_side(lambda f: 1j * (
            J.entries[0, 0] * f[0] + J.entries[0, 1] * f[1] - f[2]))
    fn = SPECTRAL_OPS[op]
    with pytest.raises(CapabilityError):
        fn(a, g)
    got, ref = fn(a.sample(g), g), fn(exact, g)
    if isinstance(ref, float):
        assert abs(got - ref) <= 1e-12 * ref
    else:
        ref = ref.sample(g).samples
        assert np.abs(got.sample(g).samples - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("npts, b_tol", [(16, 1e-11), (32, 1e-9)])
def test_backings_agree_on_lattice_plane_wave(npts, b_tol):
    # F = e^{i nu0.x} M with nu0 on the dual lattice; theta = 2L^2/(N pi) makes
    # J nu0 a multiple of the spacing, so F(x - J xi) is the single trig term
    # (nu0, J nu0, M) and its grid samples carry no interpolation error
    g = GridSpec(2, npts, 8.0)
    Jl = SkewForm.standard(2.0 * g.half_width ** 2 / (npts * np.pi))
    nu0 = g.dual_spacing * np.array([2.0, -1.0])
    M = np.array([[1.0, 0.5j], [-0.25, 2.0 - 1.0j]])
    mesh = g.mesh()
    F = ModuleFunction(g, np.exp(1j * (nu0[0] * mesh[0] + nu0[1] * mesh[1]))[..., None, None] * M)
    trig = TrigPolySymbol(2, 2, [(nu0, Jl.apply(nu0), M)])
    backings = [TranslationSymbol(F, Jl), trig, sample_symbol(trig, g)]
    ref = sample_symbol(trig, g).samples
    assert np.abs(sample_symbol(backings[0], g).samples - ref).max() <= 1e-12
    # partials up to third order: observed <= 5.2e-14 (N=16), 4.3e-13 (N=32)
    d_tol = {16: 2e-13, 32: 2e-12}[npts]
    ops = [(b_transform, b_tol), (lambda a: gamma_reconstruct(a, K), 1e-13)] + [
        (lambda a, dx=dx, dxi=dxi: a.partial(dx, dxi), d_tol)
        for dx, dxi in (((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 1), (1, 0)),
                        ((0, 0), (2, 1)))]
    # an off-node shift a(x + z, xi + zeta): observed <= 3.0e-15
    ops.append((lambda a: a.shift((0.37, -0.81), (0.23, 0.52)), 1e-13))
    # the adjoint symbol: observed <= 3.3e-15
    ops.append((lambda a: a.adjoint(), 1e-13))
    for op, tol in ops:
        outs = [sample_symbol(op(a), g).samples for a in backings]
        scale = np.abs(outs[1]).max()
        for out in (outs[0], outs[2]):
            assert np.abs(out - outs[1]).max() <= tol * scale


# ---- Poisson brackets


def eval_on_box(sym, grid):
    xs = grid.axis()
    xis = grid.dual_axis()
    coords = np.meshgrid(*([xs] * grid.n + [xis] * grid.n), indexing="ij")
    return sym.eval(coords[:grid.n], coords[grid.n:])


def test_canonical_bracket():
    # {x_1, xi_1} = 1
    g = GridSpec(1, 16, 8.0)
    a = coordinate_symbol(SkewForm(0.0, 1), 0)
    b = xi_symbol(1, 0)
    vals = eval_on_box(poisson_bracket(a, b), g)
    assert np.abs(vals - 1.0).max() <= 1e-12


def test_bracket_antisymmetric():
    g = GridSpec(1, 8, 8.0)
    a = trig_symbol(1, 1, 4)
    b = trig_symbol(1, 1, 5)
    lhs = eval_on_box(poisson_bracket(a, b), g)
    rhs = eval_on_box(poisson_bracket(b, a), g)
    assert np.abs(lhs + rhs).max() <= 1e-10 * np.abs(lhs).max()


def test_coordinate_brackets():
    # {b_i, b_j} = J_ji - J_ij = -2 J_ij for the standard form
    g = GridSpec(2, 8, 8.0)
    b0 = coordinate_symbol(J, 0)
    b1 = coordinate_symbol(J, 1)
    vals = eval_on_box(poisson_bracket(b0, b1), g)
    assert np.abs(vals - (-2.0 * J.entries[0, 1])).max() <= 1e-12


def test_bracket_nullity_on_translation_symbols():
    # {b_i, F(x - J xi)} = 0 for every coordinate symbol b_i; the bracket is
    # evaluated on a coarse box since the mode sum is quartic in points
    g = GridSpec(2, 32, 8.0)
    box = GridSpec(2, 8, 8.0)
    a = TranslationSymbol(gaussian_field(g, 6, k=1), J)
    scale = np.abs(sample_symbol(a, g).samples).max()
    for i in range(2):
        vals = eval_on_box(poisson_bracket(coordinate_symbol(J, i), a), box)
        assert np.abs(vals).max() <= 1e-6 * scale


def bracket_reference(a, b, x, xi, swapped=False):
    """{a, b} at (x, xi) with one einsum per factor pair; swapped multiplies
    each pair's matrix factors in the opposite order."""
    zero = (0,) * a.n
    out = 0
    for j in range(a.n):
        ej = tuple(int(d == j) for d in range(a.n))
        for sign, da, db in ((1, a.partial(ej, zero), b.partial(zero, ej)),
                             (-1, a.partial(zero, ej), b.partial(ej, zero))):
            left, right = da.eval(x, xi), db.eval(x, xi)
            if swapped:
                left, right = right, left
            out = out + sign * np.einsum("...ab,...bc->...ac", left, right)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_bracket_products_match_einsum_reference(n, k):
    # the bracket's plane multiply-adds, evaluated and sampled, against the
    # einsum reference; observed <= 5.9e-16 (eval) and 1.5e-15 (sample) of
    # the sup
    g = GridSpec(n, 8, 8.0)
    a, b = trig_symbol(n, k, 20 + k), trig_symbol(n, k, 30 + k)
    xs, xis = g.axis(), g.dual_axis()
    coords = np.meshgrid(*([xs] * n + [xis] * n), indexing="ij")
    ref = bracket_reference(a, b, coords[:n], coords[n:])
    br = poisson_bracket(a, b)
    for got in (br.eval(coords[:n], coords[n:]), sample_symbol(br, g).samples):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    if k == 2:
        # negative control: the factors of each product in swapped order
        swapped = bracket_reference(a, b, coords[:n], coords[n:], swapped=True)
        assert np.abs(swapped - ref).max() > 1e-2 * np.abs(ref).max()


@pytest.mark.parametrize("pair", ["translation_coordinate", "trig"])
def test_sampled_bracket_matches_eval(pair):
    # sampling the bracket from sampled factors against pointwise eval
    g = GridSpec(2, 8, 8.0)
    if pair == "trig":
        a, b = trig_symbol(2, 2, 7), trig_symbol(2, 2, 8)
    else:
        a = TranslationSymbol(gaussian_field(g, 9, alpha=1.0, k=2), J)
        b = coordinate_symbol(SkewForm.standard(-0.25), 0, 2)
    br = poisson_bracket(a, b)
    ref = eval_on_box(br, g)
    assert np.abs(ref).max() > 1e-3
    assert np.abs(sample_symbol(br, g).samples - ref).max() <= 1e-13 * np.abs(ref).max()


# ---- recovery pipeline


def test_recover_tautological():
    g = GridSpec(2, 32, 8.0)
    F = gaussian_field(g, 7)
    Fr, residual = recover_translation_symbol(TranslationSymbol(F, J), J, g)
    assert residual <= 1e-12
    # F is read off the shear at xi = 0, the interpolant of F at its own
    # nodes (observed 2.6e-16 relative)
    scale = np.abs(F.samples).max()
    assert np.abs(Fr.samples - F.samples).max() <= 1e-14 * scale


def test_recover_from_grid_backing():
    g = GridSpec(2, 32, 8.0)
    F = gaussian_field(g, 8)
    a = sample_symbol(TranslationSymbol(F, J), g)
    Fr, residual = recover_translation_symbol(a, J, g)
    scale = np.abs(F.samples).max()
    assert residual <= 1e-5 * scale
    assert np.abs(Fr.samples - F.samples).max() <= 1e-5 * scale


def test_recover_reads_grid_symbol_slabs():
    # a GridSymbol streams views of its samples, so F is the xi = 0 plane of
    # the samples bit for bit, as the former mesh eval read it, and the
    # residual is the same two-stream sup (the benchmark's reject input:
    # F(x - J' xi) sampled at theta' = 0.7, tested against J)
    g = GridSpec(2, 16, 8.0)
    F = band_limited_field(g, 2, np.random.default_rng(4))
    a = sample_symbol(TranslationSymbol(F, SkewForm.standard(0.7)), g)
    h = g.points // 2
    Fr, residual = recover_translation_symbol(a, J, g)
    assert np.array_equal(Fr.samples, a.samples[:, :, h, h])
    assert np.array_equal(Fr.samples, a.eval(g.mesh(), [np.zeros(g.shape)] * 2))
    assert residual == cnorm_sup_slabs(slab_differences(zip(
        a.slabs(g), TranslationSymbol(Fr, J).slabs(g))))
    assert residual > 0.1 * F.sup_norm()


def test_recover_never_calls_eval(monkeypatch):
    # F and the residual come from the symbol's slab stream alone
    g = GridSpec(2, 16, 8.0)
    a = trig_symbol(2, 2, 9)
    h = g.points // 2
    expected = sample_symbol(a, g).samples[:, :, h, h]

    def refuse(self, x, xi):
        raise AssertionError("recovery called eval")
    monkeypatch.setattr(TrigPolySymbol, "eval", refuse)
    Fr, residual = recover_translation_symbol(a, J, g)
    assert np.array_equal(Fr.samples, expected)
    assert residual > 0.1 * np.abs(expected).max()


def test_recover_residual_sees_a_slightly_wrong_form():
    # negative control for the residual the two shears feed: F(x - J' xi)
    # tested against J with theta' = theta (1 + 1e-3) must clear 100 times
    # the CLI's 1e-5 tolerance of sup F (observed 3.03e-3); at theta' = theta
    # the second shear runs on F as read off the first at xi = 0, so the two
    # agree to roundoff (observed 7.8e-16 of sup F)
    g = GridSpec(2, 32, 8.0)
    F = band_limited_field(g, 2, np.random.default_rng(3))
    off = SkewForm.standard(0.5 * (1 + 1e-3))
    _, residual = recover_translation_symbol(TranslationSymbol(F, off), J, g)
    assert residual >= 100 * 1e-5 * F.sup_norm()
    _, residual = recover_translation_symbol(TranslationSymbol(F, J), J, g)
    assert residual <= 1e-14 * F.sup_norm()


def test_recover_rejects_generic_symbol():
    g = GridSpec(2, 32, 8.0)
    a = trig_symbol(2, 2, 9)
    scale = np.abs(sample_symbol(a, g).samples).max()
    _, residual = recover_translation_symbol(a, J, g)
    assert residual > 0.1 * scale


def test_rejected_recovery_leaves_grid_samples_alone():
    # GridSymbol.sample returns the symbol itself, so the residual must not
    # be formed in its samples
    g = GridSpec(2, 16, 8.0)
    a = sample_symbol(trig_symbol(2, 2, 9), g)
    before = a.samples.copy()
    _, residual = recover_translation_symbol(a, J, g)
    assert residual > 0.1 * np.abs(before).max()
    assert np.array_equal(a.samples, before)


def test_certificate_discriminates():
    g = GridSpec(2, 16, 8.0)
    good = TranslationSymbol(gaussian_field(g, 10), J)
    bad = trig_symbol(2, 2, 11)
    scale = np.abs(sample_symbol(bad, g).samples).max()
    assert translation_certificate(good, J, g) <= 1e-8
    assert translation_certificate(bad, J, g) > 0.01 * scale


def test_certificate_samples_each_partial_once(monkeypatch):
    # one xi-partial per i and, at n = 2, the one x-partial with J_ij != 0:
    # 4 slab streams in all
    calls = []
    slabs = TranslationSymbol.slabs
    monkeypatch.setattr(TranslationSymbol, "slabs",
                        lambda self, grid: calls.append(1) or slabs(self, grid))
    g = GridSpec(2, 8, 8.0)
    # J = 0.5 scales exactly, so the residual of a translation symbol is 0
    a = TranslationSymbol(gaussian_field(g, 10), J)
    assert translation_certificate(a, J, g) == 0.0
    assert len(calls) == 4


def nan_grid_symbol(where, k=1):
    """Samples of TranslationSymbol(exp(-|x|^2) I_k, J) at N = 16 with the
    single entry where + (0, 0) set to NaN."""
    g = GridSpec(2, 16, 8.0)
    F = ModuleFunction.from_function(g, lambda x, y: np.exp(-x * x - y * y), k)
    s = sample_symbol(TranslationSymbol(F, J), g).samples.copy()
    s[where + (0, 0)] = np.nan
    return GridSymbol(g, s), g


@pytest.mark.parametrize("where", [(3, 2, 1, 1), (0, 2, 1, 1)])
def test_recover_propagates_nan(where):
    # a NaN off xi = 0 leaves F finite; the residual must still be NaN,
    # whichever slab holds it
    a, g = nan_grid_symbol(where)
    F, residual = recover_translation_symbol(a, J, g)
    assert np.isfinite(F.samples).all()
    assert np.isnan(residual)


def test_certificate_and_pi_seminorm_propagate_nan():
    a, g = nan_grid_symbol((0, 2, 1, 1))
    assert np.isnan(translation_certificate(a, J, g))
    assert np.isnan(pi_seminorm(a, g))
    # at k = 2 the spectral norm of a non-finite matrix raises
    a, g = nan_grid_symbol((0, 2, 1, 1), k=2)
    for fn in (translation_certificate, recover_translation_symbol):
        with pytest.raises(np.linalg.LinAlgError):
            fn(a, J, g)
    with pytest.raises(np.linalg.LinAlgError):
        pi_seminorm(a, g)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("measure, bound", [
    (lambda a, g: recover_translation_symbol(a, J, g), 0.25),
    (lambda a, g: translation_certificate(a, J, g), 0.25),
    (lambda a, g: recover(a, J, g), 0.15)],
    ids=["recover", "certificate", "operator_recover"])
def test_residual_memory_below_one_product_grid(measure, bound):
    # N = 32, k = 2: one product grid is 67 MB; the residuals stream it one
    # first-axis slab at a time, where sampling whole grids took 2x or more
    # (observed 0.17x, 0.24x, and 0.13x for the operator recovery's one
    # stream, which holds its slab, the phased copy and the shear's head)
    g = GridSpec(2, 32, 8.0)
    a = TranslationSymbol(gaussian_field(g, 13), J)
    grid_bytes = g.points ** 4 * 4 * 16
    assert _peak_bytes(lambda: measure(a, g)) <= bound * grid_bytes


def recover_by_slab_differences(a, J, g):
    """recover_translation_symbol with its residual folded through
    slab_differences, which subtracts into a third slab buffer of its own:
    the reference for the fold into the translation stream's slab."""
    half = g.points // 2
    F = np.empty(g.shape + (a.algebra_dim,) * 2, dtype=complex)
    for row, slab in zip(F, a.slabs(g, (slice(half, half + 1),) * g.n)):
        row[...] = slab.reshape(row.shape)
    F = ModuleFunction(g, F)
    return F, cnorm_sup_slabs(slab_differences(zip(
        a.slabs(g), TranslationSymbol(F, J).slabs(g))))


def certificate_by_sums(a, J, g):
    """translation_certificate with sum(J_ij * s) made per slab and folded
    through slab_differences: the reference for the fold in one buffer."""
    n, zero = a.n, (0,) * a.n
    unit = lambda j: tuple(int(d == j) for d in range(n))
    dxs = [a.partial(unit(j), zero) for j in range(n)]

    def pairs():
        for i in range(n):
            js = [j for j in range(n) if J.entries[i, j]]
            for r in zip(a.partial(zero, unit(i)).slabs(g),
                         *(dxs[j].slabs(g) for j in js)):
                yield r[0], sum(J.entries[i, j] * s for j, s in zip(js, r[1:]))
    return cnorm_sup_slabs(slab_differences(pairs()))


def fold_inputs(n, k, theta):
    """A translation symbol, its samples, a trig symbol and their sum (no
    translation form) on an N = 16 grid, against J = theta Omega."""
    g = GridSpec(n, 16, 8.0)
    Jt = SkewForm.standard(theta, n)
    a = TranslationSymbol(gaussian_field(g, 40 + k, k=k), Jt)
    t = trig_symbol(n, k, 41 + k)
    return g, Jt, [a, a.sample(g), t, GridSymbol(g, a.sample(g).samples + t.sample(g).samples)]


FOLD_FORMS = [(1, None), (2, 0.5), (2, -0.7), (2, 0.0)]  # J = 0 is the only n = 1 form


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n, theta", FOLD_FORMS)
def test_recover_translation_symbol_fold_bit_identical(n, theta, k):
    # subtracting into the translation stream's own slab changes no bit
    g, Jt, symbols = fold_inputs(n, k, theta)
    for a in symbols:
        F, resid = recover_translation_symbol(a, Jt, g)
        F_ref, resid_ref = recover_by_slab_differences(a, Jt, g)
        assert np.array_equal(F.samples, F_ref.samples)
        assert resid == resid_ref


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n, theta", FOLD_FORMS)
def test_certificate_fold_bit_identical(n, theta, k):
    # J_ij d a/d x_j and the difference made in one buffer change no bit
    g, Jt, symbols = fold_inputs(n, k, theta)
    for a in symbols:
        assert translation_certificate(a, Jt, g) == certificate_by_sums(a, Jt, g)


def test_residual_memory_recover_one_slab_less():
    # N = 32, k = 2 grid symbol: its slabs are views, so the fold holds the
    # translation stream's slab (2 MiB) and the shear's buffers; the
    # slab_differences form adds a third slab-sized buffer
    g = GridSpec(2, 32, 8.0)
    a = TranslationSymbol(gaussian_field(g, 13), J).sample(g)
    slab = g.points ** 3 * 4 * 16
    recover_translation_symbol(a, J, g)  # warm the shear's table memo
    new = _peak_bytes(lambda: recover_translation_symbol(a, J, g))
    ref = _peak_bytes(lambda: recover_by_slab_differences(a, J, g))
    assert ref - new >= 0.99 * slab


def test_recover_idempotent():
    g = GridSpec(2, 32, 8.0)
    F = gaussian_field(g, 12)
    F1, _ = recover_translation_symbol(TranslationSymbol(F, J), J, g)
    F2, r2 = recover_translation_symbol(TranslationSymbol(F1, J), J, g)
    assert r2 <= 1e-12
    # each pass reads F off a shear at xi = 0 (observed 5.5e-16 relative)
    scale = np.abs(F1.samples).max()
    assert np.abs(F2.samples - F1.samples).max() <= 1e-14 * scale


@pytest.mark.parametrize("theta, fails", [
    (0.5, False), (0.5 * (1 + 1e-3), True), (0.7, True), (-0.5, True)],
    ids=["J", "J_1e-3", "theta_0.7", "minus_J"])
def test_recover_operator_residual_negative_controls(theta, fails):
    # T = a(x, D) for a = F(x - J' xi), tested against J = 0.5 Omega: the
    # residual ||T u - T(1) x_J u|| / ||u|| of sup F reads 5.8e-16 at J' = J
    # and 1.9e-4, 7.7e-2 and 0.44 at the three wrong forms (observed)
    g = GridSpec(2, 32, 8.0)
    F = band_limited_field(g, 2, np.random.default_rng(3))
    _, residual = recover(TranslationSymbol(F, SkewForm.standard(theta)), J, g)
    if fails:
        assert residual >= 1e-5 * F.sup_norm()
    else:
        assert residual <= 1e-13 * F.sup_norm()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_recover_reads_F_as_T_of_one(n, k):
    # T(1) = a(x, 0) = F through the generic dense quantize, not a.F itself
    # (observed <= 5e-16 relative)
    g = GridSpec(n, 16 if n == 2 else 64, 8.0)
    F = band_limited_field(g, k, np.random.default_rng(20 + k))
    Jn = SkewForm.standard(None, n)
    Fr, residual = recover(TranslationSymbol(F, Jn), Jn, g)
    assert (Fr - F).sup_norm() <= 1e-13 * F.sup_norm()
    assert residual <= 1e-13 * F.sup_norm()


def test_recover_rejects_a_form_of_another_dimension():
    # recover checks J's dimension against the grid before its dense pass
    g = GridSpec(2, 16, 8.0)
    a = TranslationSymbol(band_limited_field(g, 2, np.random.default_rng(4)), J)
    with pytest.raises(GridMismatchError, match="J dimension 1 != grid dimension 2"):
        recover(a, SkewForm.standard(None, 1), g)


def recover_unmemoized(a, J, grid):
    """recover with its probe rebuilt inline: u's seeded draw, its inverse
    transform for sup ||u|| and the transform of ones for the delta height."""
    k = a.algebra_dim
    uh = random_band_coefficients(grid, k, np.random.default_rng(
        symbolic_calculus.PROBE_SEED))
    u = ModuleFunction(grid, grid_transform(uh, grid, inverse=True))
    one = np.zeros_like(uh)
    centre = (grid.points // 2,) * grid.n
    one[centre] = grid_transform(np.ones(grid.shape), grid)[centre] * np.eye(k)
    out = dense_quantize(a, grid, np.concatenate([one, uh], axis=-1))
    F = ModuleFunction(grid, np.ascontiguousarray(out[..., :k]))
    Fu = deformed_product(F, u, J).samples
    return F, cnorm_sup(out[..., k:] - Fu) / u.sup_norm()


@pytest.mark.parametrize("n, npts, k", [(2, 16, 2), (2, 32, 2), (1, 64, 3)])
def test_recover_probe_memo_bit_identical(n, npts, k):
    # two calls on one grid give the same bits, and the inline probe the
    # same bits again
    g = GridSpec(n, npts, 8.0)
    Jn = SkewForm.standard(None, n)
    a = gamma_reconstruct(b_transform(TranslationSymbol(
        gaussian_field(g, 14, k=k), Jn)), K)
    runs = [recover(a, Jn, g) for _ in range(2)] + [recover_unmemoized(a, Jn, g)]
    for F, residual in runs[1:]:
        assert F.samples.tobytes() == runs[0][0].samples.tobytes()
        assert residual == runs[0][1]


def test_recover_probe_per_grid_and_k():
    # a probe is a constant of (grid, k): equal keys share one, another grid
    # or k gets its own, and u's samples are read-only
    probe = symbolic_calculus._probe
    g, g2 = GridSpec(2, 16, 8.0), GridSpec(2, 16, 6.0)
    u, u_sup, _ = probe(g, 2)
    assert probe(GridSpec(2, 16, 8.0), 2)[0] is u
    for key in [(g2, 2), (g, 1), (GridSpec(2, 32, 8.0), 2)]:
        other = probe(*key)[0]
        assert other is not u and other.grid == key[0]
        assert other.samples.shape == key[0].shape + (key[1],) * 2
    assert probe(g2, 2)[1] != u_sup == u.sup_norm()
    with pytest.raises(ValueError):
        u.samples[0, 0, 0, 0] = 1.0
    assert np.array_equal(u.samples, grid_transform(random_band_coefficients(
        g, 2, np.random.default_rng(symbolic_calculus.PROBE_SEED)), g, inverse=True))


def recover_fft_shapes(a, J, grid, monkeypatch):
    """The input shape of each np.fft.fft call a warm recover makes."""
    recover(a, J, grid)
    shapes, fft = [], np.fft.fft

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return fft(x, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted)
    recover(a, J, grid)
    monkeypatch.setattr(np.fft, "fft", fft)
    return shapes


@pytest.mark.parametrize("npts", [16, 32])
def test_recover_product_loop_visits_only_u_band_rows(npts, monkeypatch):
    # F x_J u runs on u's samples, and the product's roundoff cut keeps the 9
    # q2 rows of u's band (modes -4..4) and F's 7 p2 rows: 9 loop FFT calls,
    # each on one (A B + B C, |P|, N) = (8, 7, N) buffer, and 13 np.fft.fft
    # calls in all with the forward transforms of F and u
    g = GridSpec(2, npts, 8.0)
    a = TranslationSymbol(band_limited_field(g, 2, np.random.default_rng(5)), J)
    shapes = recover_fft_shapes(a, J, g, monkeypatch)
    assert [s for s in shapes if len(s) == 3] == [(8, 7, npts)] * 9
    assert len(shapes) == 13
    # negative control: a cut that keeps every non-zero row visits the rows
    # of u's transform roundoff too
    monkeypatch.setattr(deformation, "roundoff_cut", lambda linemax, points: (
        linemax != 0, np.zeros(linemax.shape, bool), True))
    shapes = recover_fft_shapes(a, J, g, monkeypatch)
    assert len([s for s in shapes if len(s) == 3]) > 9


def clear_memos():
    symbolic_calculus._laplace_table.cache_clear()
    symbolic_calculus._probe.cache_clear()
    quantization._shear_table.cache_clear()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("npts", [16, 32, 64])
@pytest.mark.parametrize("n", [1, 2])
def test_recover_warm_memos_equal_a_cold_rebuild(n, npts, k):
    # a recover that finds the probe's frozen plan and the shear's table
    # memoized writes the bits of one that rebuilds them
    g = GridSpec(n, npts, 8.0)
    for theta in (0.5, -0.7, 0.0) if n == 2 else (None,):
        Jn = SkewForm.standard(theta, n)
        a = gamma_reconstruct(b_transform(TranslationSymbol(
            gaussian_field(g, 15, k=k), Jn)), K)
        clear_memos()
        cold = recover(a, Jn, g)
        warm = recover(a, Jn, g)
        assert warm[0].samples.tobytes() == cold[0].samples.tobytes()
        assert warm[1] == cold[1]


def test_recover_plan_and_shear_table_read_only_and_per_key():
    # the probe's plan is kept per (grid, k) and the shear's table per (N,
    # L, the box's xi_0 rows, J_10), both read-only: another key never reads
    # an entry, and the table's memo holds at most 4
    probe, table = symbolic_calculus._probe, quantization._shear_table
    g = GridSpec(2, 32, 8.0)
    plan = probe(g, 2)[2]
    assert plan.box == (slice(12, 21),) * 2
    assert plan.rhs.shape == (32, 81 * 4, 8) and plan.rest.shape == (32, 1, 9, 4)
    assert probe(GridSpec(2, 32, 8.0), 2)[2] is plan
    for key in [(GridSpec(2, 32, 6.0), 2), (g, 1), (GridSpec(2, 16, 8.0), 2),
                (GridSpec(1, 32, 8.0), 2)]:
        other = probe(*key)[2]
        assert other.grid == key[0] and other.shape == key[0].shape + (key[1], 2 * key[1])
        assert other.rhs is not plan.rhs and other.rest is not plan.rest
    table.cache_clear()
    R = table(32, 8.0, (12, 21, 1), -0.5)
    assert R.shape == (32 * 9, 33) and table(32, 8.0, (12, 21, 1), -0.5) is R
    for t in (plan.rest, plan.rhs, R):
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1.0
    others = [table(*key) for key in [(32, 8.0, (12, 21, 1), -0.7),
                                      (32, 6.0, (12, 21, 1), -0.5),
                                      (32, 8.0, (11, 20, 1), -0.5),
                                      (16, 8.0, (4, 13, 1), -0.5)]]
    assert not any(o.shape == R.shape and np.array_equal(o, R) for o in others)
    assert table.cache_info().currsize == 4
    # the shear asks for one table per box and J, whatever the xi_1 range
    table.cache_clear()
    F = gaussian_field(g, 16)
    for a, box in [(TranslationSymbol(F, J), (slice(12, 21),) * 2),
                   (TranslationSymbol(F, J), (slice(12, 21), slice(0, 32))),
                   (TranslationSymbol(F, J), (slice(0, 32),) * 2),
                   (TranslationSymbol(F, SkewForm.standard(0.7)), (slice(12, 21),) * 2)]:
        next(a.slabs(g, box))
    assert (table.cache_info().misses, table.cache_info().hits) == (3, 1)


def test_plan_memory_full_box_keeps_nothing_and_probe_plan_bound():
    # a full-box generic quantize (N = 32, k = 2) keeps nothing once it
    # returns, and never holds its 32 block matrices at once (8 MiB;
    # observed peak 7.7 MB, with two 2 MiB slab buffers); recover's kept
    # plan holds 1.35 MB, and its probe with u's samples 1.41 MB
    g = GridSpec(2, 32, 8.0)
    rng = np.random.default_rng(17)
    shape = g.shape + (2, 2)
    u = ModuleFunction(g, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    a = TranslationSymbol(gaussian_field(g, 16), J)
    PhaseSymbol.quantize(a, u)                   # the shear's table is kept
    tracemalloc.start()
    try:
        out = PhaseSymbol.quantize(a, u)
        kept, peak = tracemalloc.get_traced_memory()
        assert kept - out.samples.nbytes <= 16 * 1024
        assert peak < 32 ** 3 * 4 * 4 * 16
        symbolic_calculus._probe.cache_clear()
        before = tracemalloc.get_traced_memory()[0]
        u, _, plan = symbolic_calculus._probe(g, 2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert plan.rest.nbytes + plan.rhs.nbytes <= 1.5e6
    assert kept <= 1.5e6 + u.samples.nbytes


ONE_RULE_SCALES = [1e-300, 1e-200, 1e-170, 1e-100, 1.0, 1e100, 1e150, 1e200]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", ONE_RULE_SCALES)
def test_public_entries_are_finite_or_raise_at_every_scale(scale):
    # the one rule for public numeric entries: on finite input each returns
    # a finite value or raises, and none returns NaN.  F and G are s times
    # full-band fields (N = 16, k = 2).  An entry of F's scale alone (the
    # module norm, the sup of the C*-norm, the norm estimate of L_F and
    # recover's F = T(1) and residual) returns at every s, and its F and
    # norms are not 0.  A product's or a Gram's scale is its factors'
    # product, s^2: it may underflow to 0 (s <= 1e-170, where s^2 is below
    # the least subnormal), and where s^2 overflows (s = 1e200) both
    # products and the Gram raise OverflowError.  No entry emits a
    # RuntimeWarning on the way
    g = GridSpec(2, 16, 8.0)
    r = np.random.default_rng(43)
    F, G = (ModuleFunction(g, scale * (r.normal(size=g.shape + (2, 2))
                                       + 1j * r.normal(size=g.shape + (2, 2))))
            for _ in range(2))
    Fr, residual = recover(TranslationSymbol(F, J), J, g)
    own_scale = [module_norm(F), cnorm_sup(F.samples),
                 operator_norm_estimate(LeftActionOp(F, J), g, 2, trials=2,
                                        power_iters=2)[0], Fr.samples]
    for value in own_scale:
        assert np.isfinite(value).all() and np.any(value)
    assert np.isfinite(residual)
    squared = [lambda: deformed_product(F, G, SkewForm(0.0)).samples,
               lambda: deformed_product(F, G, J).samples,
               lambda: inner_product(F, G)]
    for entry in squared:
        if np.isinf(scale * scale):
            with pytest.raises(OverflowError, match="overflows"):
                entry()
            continue
        value = entry()
        assert np.isfinite(value).all()
        assert np.any(value) or scale * scale == 0.0
