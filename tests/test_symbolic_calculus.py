import tracemalloc

import numpy as np
import pytest

from rieffel.deformation import SkewForm
from rieffel.errors import CapabilityError
from rieffel.grids import GridSpec
from rieffel.module_space import ModuleFunction
from rieffel.quantization import (CallableSymbol, GridSymbol, TranslationSymbol,
                                  TrigPolySymbol, pi_seminorm, sample_symbol)
from rieffel.suites import SuiteConfig, band_limited_field, run_suite
from rieffel.symbolic_calculus import (GammaKernel, b_transform, coordinate_symbol,
                                       gamma_reconstruct, gamma_reproduce,
                                       poisson_bracket,
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
    assert np.abs(Fr.samples - F.samples).max() == 0.0


def test_recover_from_grid_backing():
    g = GridSpec(2, 32, 8.0)
    F = gaussian_field(g, 8)
    a = sample_symbol(TranslationSymbol(F, J), g)
    Fr, residual = recover_translation_symbol(a, J, g)
    scale = np.abs(F.samples).max()
    assert residual <= 1e-5 * scale
    assert np.abs(Fr.samples - F.samples).max() <= 1e-5 * scale


def test_recover_residual_sees_a_slightly_wrong_form():
    # negative control for the residual the two shears feed: F(x - J' xi)
    # tested against J with theta' = theta (1 + 1e-3) must clear 100 times
    # the CLI's 1e-5 tolerance of sup F (observed 3.03e-3); at theta' = theta
    # both streams run the same shear of the same F and agree exactly
    g = GridSpec(2, 32, 8.0)
    F = band_limited_field(g, 2, np.random.default_rng(3))
    off = SkewForm.standard(0.5 * (1 + 1e-3))
    _, residual = recover_translation_symbol(TranslationSymbol(F, off), J, g)
    assert residual >= 100 * 1e-5 * F.sup_norm()
    _, residual = recover_translation_symbol(TranslationSymbol(F, J), J, g)
    assert residual == 0.0


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


@pytest.mark.parametrize("measure", [
    lambda a, g: recover_translation_symbol(a, J, g),
    lambda a, g: translation_certificate(a, J, g)], ids=["recover", "certificate"])
def test_residual_memory_below_one_product_grid(measure):
    # N = 32, k = 2: one product grid is 67 MB; the residuals stream it one
    # first-axis slab at a time, where sampling whole grids took 2x or more
    g = GridSpec(2, 32, 8.0)
    a = TranslationSymbol(gaussian_field(g, 13), J)
    grid_bytes = g.points ** 4 * 4 * 16
    assert _peak_bytes(lambda: measure(a, g)) <= 0.25 * grid_bytes


def test_recover_idempotent():
    g = GridSpec(2, 32, 8.0)
    F = gaussian_field(g, 12)
    F1, _ = recover_translation_symbol(TranslationSymbol(F, J), J, g)
    F2, r2 = recover_translation_symbol(TranslationSymbol(F1, J), J, g)
    assert r2 <= 1e-12
    assert np.abs(F2.samples - F1.samples).max() == 0.0
