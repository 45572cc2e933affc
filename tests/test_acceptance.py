"""Acceptance battery at desk scale: n=2, N=64, k=2, theta=0.5.

Each test covers one numbered criterion and prints a single PASS line on
success (visible with pytest -s); tolerances are pinned, not derived.
"""
import numpy as np
import pytest

from rieffel.algebra import cnorm, cnorm_entries, positivity_defect
from rieffel.deformation import SkewForm, approximate_identity, deformed_product
from rieffel.grids import GridSpec
from rieffel.heisenberg import (HeisenbergPoint, conjugate_operator,
                                intertwine_check, smoothness_probe)
from rieffel.module_space import (ModuleFunction, fourier, inner_product,
                                  module_norm)
from rieffel.quantization import (LeftActionOp, PdoOp, TranslationSymbol,
                                  TrigPolySymbol, constant_symbol,
                                  operator_norm_estimate, pdo_apply, pi_seminorm,
                                  sample_symbol)
from rieffel.suites import (SuiteConfig, band_limited_field, check_rng,
                            matrix_gaussian, plane_wave, random_band_symbol,
                            random_smooth, run_suite)
from rieffel.symbolic_calculus import (GammaKernel, b_transform,
                                       gamma_reconstruct, gamma_reproduce,
                                       poisson_bracket,
                                       recover_translation_symbol)

N = 64
K = 2
THETA = 0.5
GRID = GridSpec(2, N, 8.0)
J = SkewForm.standard(THETA)


def _pass(i):
    print(f"ACCEPTANCE {i}: PASS")


def test_acceptance_01_module_axioms():
    rng = check_rng(1, "acceptance.module_axioms")
    worst_h = worst_p = worst_l = worst_cs = 0.0
    for _ in range(50):
        f = random_smooth(GRID, K, rng)
        g = random_smooth(GRID, K, rng)
        ip = inner_product(f, g)
        scale = max(cnorm(ip), 1e-300)
        worst_h = max(worst_h, cnorm(ip.conj().T - inner_product(g, f)) / scale)
        gram = inner_product(f, f)
        worst_p = max(worst_p, positivity_defect(gram) / cnorm(gram))
        a = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        lhs = inner_product(f, g.right_multiply(a))
        rhs = ip @ a
        worst_l = max(worst_l, cnorm(lhs - rhs) / max(cnorm(rhs), 1e-300))
        gap = cnorm(ip) - module_norm(f) * module_norm(g)
        worst_cs = max(worst_cs, gap / (module_norm(f) * module_norm(g)))
    assert worst_h <= 1e-12
    assert worst_p <= 1e-10
    assert worst_l <= 1e-13
    assert worst_cs <= 1e-12
    _pass(1)


def test_acceptance_02_fourier():
    f = ModuleFunction.from_function(
        GRID, lambda x, y: np.exp(-(x * x + y * y) / 2))
    fhat = fourier(f)
    m = fhat.grid.mesh()
    assert np.abs(fhat.samples[..., 0, 0]
                  - np.exp(-(m[0] ** 2 + m[1] ** 2) / 2)).max() <= 1e-6
    rng = check_rng(2, "acceptance.fourier")
    for _ in range(10):
        u = matrix_gaussian(GRID, K, rng)
        v = matrix_gaussian(GRID, K, rng)
        lhs = inner_product(fourier(u), fourier(v))
        rhs = inner_product(u, v)
        assert cnorm(lhs - rhs) <= 1e-10 * max(cnorm(rhs), 1e-300)
        back = fourier(fourier(u), inverse=True)
        assert (back - u).sup_norm() <= 1e-12 * u.sup_norm()
    _pass(2)


def test_acceptance_03_plane_wave_oracle():
    rng = check_rng(3, "acceptance.plane_waves")
    for _ in range(20):
        p = GRID.dual_spacing * rng.integers(-6, 7, size=2)
        q = GRID.dual_spacing * rng.integers(-6, 7, size=2)
        prod = deformed_product(plane_wave(GRID, p), plane_wave(GRID, q), J)
        expect = complex(np.exp(-1j * (p @ J.apply(q)))) * plane_wave(GRID, p + q)
        assert (prod - expect).sup_norm() <= 1e-9
        ab = deformed_product(plane_wave(GRID, p), plane_wave(GRID, q), J)
        ba = deformed_product(plane_wave(GRID, q), plane_wave(GRID, p), J)
        phase = complex(np.exp(-2j * (p @ J.apply(q))))
        assert (ab - phase * ba).sup_norm() <= 1e-9
    _pass(3)


def test_acceptance_04_zero_collapse():
    rng = check_rng(4, "acceptance.zero_collapse")
    J0 = SkewForm(0.0, 2)
    for _ in range(5):
        f = matrix_gaussian(GRID, K, rng)
        g = matrix_gaussian(GRID, K, rng)
        prod = deformed_product(f, g, J0)
        ref = ModuleFunction(GRID, np.einsum("...ab,...bc->...ac",
                                             f.samples, g.samples))
        assert (prod - ref).sup_norm() <= 1e-10 * ref.sup_norm()
    _pass(4)


def test_acceptance_05_associativity_commutation_refine():
    res = {}
    for npts in (64, 128):
        g = GridSpec(2, npts, 8.0)
        rng = check_rng(5, "acceptance.associativity")
        f, h, w = (matrix_gaussian(g, K, rng, alpha=4.0) for _ in range(3))
        lhs = deformed_product(deformed_product(f, h, J), w, J)
        rhs = deformed_product(f, deformed_product(h, w, J), J)
        assoc = (lhs - rhs).sup_norm() / lhs.sup_norm()
        c1 = deformed_product(f, deformed_product(w, h, J), J)
        c2 = deformed_product(deformed_product(f, w, J), h, J)
        comm = (c1 - c2).sup_norm() / max(c1.sup_norm(), 1e-300)
        res[npts] = (assoc, comm)
    assert res[64][0] <= 1e-7 and res[64][1] <= 1e-7
    assert res[128][0] <= res[64][0] / 2
    assert res[128][1] <= res[64][1] / 2
    _pass(5)


def test_acceptance_06_adjointness():
    rng = check_rng(6, "acceptance.adjoint")
    F = matrix_gaussian(GRID, K, rng)
    u = matrix_gaussian(GRID, K, rng)
    v = matrix_gaussian(GRID, K, rng)
    Fstar = ModuleFunction(GRID, np.swapaxes(F.samples.conj(), -1, -2))
    lhs = inner_product(deformed_product(F, u, J), v)
    rhs = inner_product(u, deformed_product(Fstar, v, J))
    assert cnorm(lhs - rhs) <= 1e-12 * max(cnorm(lhs), 1e-300)
    a = random_band_symbol(2, K, rng)
    g32 = GridSpec(2, 32, 8.0)
    u2 = matrix_gaussian(g32, K, rng)
    v2 = matrix_gaussian(g32, K, rng)
    lhs2 = inner_product(pdo_apply(a, u2), v2)
    rhs2 = inner_product(u2, pdo_apply(a.adjoint(), v2))
    assert cnorm(lhs2 - rhs2) <= 1e-5 * max(cnorm(lhs2), 1e-300)
    _pass(6)


def test_acceptance_07_norm_bound_stability():
    est_id, _ = operator_norm_estimate(
        PdoOp(constant_symbol(2, np.eye(K))), GRID, K,
        trials=4, power_iters=6, seed=7)
    assert abs(est_id - 1.0) <= 1e-10
    symbols = []
    for i in range(10):
        a = random_band_symbol(2, K, check_rng(7, f"acceptance.cv_{i}"))
        pa = pi_seminorm(a, GridSpec(2, 16, 8.0))
        symbols.append(TrigPolySymbol(2, K, [(p, w, c / pa)
                                             for p, w, c in a.terms]))
    estimates = {}
    for npts in (32, 64):
        g = GridSpec(2, npts, 8.0)
        estimates[npts] = [
            operator_norm_estimate(PdoOp(a), g, K, trials=4,
                                   power_iters=8, seed=100 + i)[0]
            for i, a in enumerate(symbols)]
    bound = max(max(v) for v in estimates.values())
    assert bound <= 100.0  # one uniform constant for all pi-normalized symbols
    drift = max(abs(a - b) / max(a, b)
                for a, b in zip(estimates[32], estimates[64]))
    assert drift <= 0.10
    _pass(7)


def test_acceptance_08_bracket_nullity():
    rng = check_rng(8, "acceptance.bracket")
    g = GridSpec(2, 16, 8.0)
    F = matrix_gaussian(g, K, rng)
    G = matrix_gaussian(g, K, rng)
    a = TranslationSymbol(F, J)
    b = TranslationSymbol(G, J.rescaled(-1.0))
    # translation backings differentiate F and G spectrally on their grid
    vals = sample_symbol(poisson_bracket(a, b), g).samples
    scale = float(cnorm_entries(sample_symbol(a, g).samples).max())
    assert float(cnorm_entries(vals).max()) <= 1e-14 * scale
    _pass(8)


def test_acceptance_09_gamma_calculus():
    kern = GammaKernel(400)
    c = np.random.default_rng(9).normal(size=(K, K)) + 0j
    val = gamma_reproduce(
        lambda p: np.broadcast_to(c, p.shape[:-1] + (K, K)).copy(),
        kern, n=1)
    assert np.abs(val - c).max() <= 1e-6 * np.abs(c).max()
    val = gamma_reproduce(lambda p: np.exp(1j * p[..., 0])[..., None, None],
                          kern, n=1)
    assert abs(val[0, 0] - 1.0) <= 1e-6
    ctr = np.array([0.4, -0.3])
    M = np.array([[1.0, 0.2 + 0.1j], [0.3, 0.7]])

    def gauss(p):
        r2 = ((p - ctr) ** 2).sum(axis=-1)
        return np.exp(-r2)[..., None, None] * M

    val = gamma_reproduce(gauss, kern, n=2)
    ref = np.exp(-(ctr ** 2).sum()) * M
    assert np.abs(val - ref).max() <= 1e-6
    a = random_band_symbol(2, K, check_rng(9, "acceptance.gamma_rt"))
    rt = gamma_reconstruct(b_transform(a), kern)
    worst = max(float(np.abs(c1 - c0).max())
                for (_, _, c1), (_, _, c0) in zip(rt.terms, a.terms))
    assert worst <= 1e-5
    errs = []
    for nodes in (8, 16, 32):
        rtn = gamma_reconstruct(b_transform(a), GammaKernel(nodes))
        errs.append(max(float(np.abs(c1 - c0).max())
                        for (_, _, c1), (_, _, c0) in zip(rtn.terms, a.terms)))
    assert errs[0] > errs[1] > errs[2]
    _pass(9)


def test_acceptance_10_heisenberg_laws():
    rng = check_rng(10, "acceptance.heisenberg")
    u = matrix_gaussian(GRID, K, rng, alpha=1.0)
    v = matrix_gaussian(GRID, K, rng, alpha=1.0)
    p = HeisenbergPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), 0.7)
    lhs = inner_product(p.apply(u), p.apply(v))
    rhs = inner_product(u, v)
    assert cnorm(lhs - rhs) <= 1e-10 * max(cnorm(rhs), 1e-300)

    F = matrix_gaussian(GRID, K, rng)
    w = matrix_gaussian(GRID, K, rng)
    z, zeta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    conj = conjugate_operator(LeftActionOp(F, J), z, zeta).apply(w)
    shift = pdo_apply(TranslationSymbol(F, J).shift(z, zeta), w)
    assert (conj - shift).sup_norm() <= 1e-6 * max(conj.sup_norm(), 1e-300)

    g32 = GridSpec(2, 32, 8.0)
    F2 = matrix_gaussian(g32, K, rng)
    a = TranslationSymbol(F2, J)
    s1 = sample_symbol(a.shift(z, zeta), g32).samples
    s2 = sample_symbol(a.shift(z - J.apply(zeta), np.zeros(2)), g32).samples
    scale = float(cnorm_entries(s1).max())
    assert float(cnorm_entries(s1 - s2).max()) <= 1e-9 * scale

    zc = GRID.spacing * rng.integers(-3, 4, size=2)
    zetac = GRID.dual_spacing * rng.integers(-3, 4, size=2)
    gg = matrix_gaussian(GRID, K, rng, alpha=1.0)
    res = intertwine_check(zc, zetac, gg, J, u)
    assert max(res.values()) <= 1e-8 * module_norm(u)

    from rieffel.grids import fourier_multiplier
    dF = ModuleFunction(GRID, fourier_multiplier(F.samples, [GRID.spacing] * GRID.n,
                                                 lambda nus: 1j * nus[0]))
    fam = lambda zz, zt: conjugate_operator(LeftActionOp(F, J), zz, zt)
    d = np.zeros(4)
    d[0] = 1.0
    rep = smoothness_probe(fam, d, [0.2, 0.1, 0.05, 0.025], w,
                           derivative=LeftActionOp(dF, J))
    assert rep["order"] >= 1.0
    _pass(10)


def test_acceptance_11_recovery_pipeline():
    rng = check_rng(11, "acceptance.pipeline")
    g = GridSpec(2, 32, 8.0)
    F = band_limited_field(g, K, rng)
    a = TranslationSymbol(F, J)
    rec = gamma_reconstruct(b_transform(a), GammaKernel())
    Fr, resid = recover_translation_symbol(rec, J, g)
    scale = max(F.sup_norm(), 1e-300)
    assert (Fr - F).sup_norm() <= 1e-5 * scale
    assert resid <= 1e-5 * scale

    g16 = GridSpec(2, 16, 8.0)
    bad = TrigPolySymbol(2, 1, [
        (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([[-0.25]])),
        (np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([[0.25]])),
        (np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([[0.25]])),
        (np.array([-1.0, 0.0]), np.array([0.0, -1.0]), np.array([[-0.25]]))])
    bscale = float(cnorm_entries(sample_symbol(bad, g16).samples).max())
    _, bad_resid = recover_translation_symbol(bad, J, g16)
    assert bad_resid > 0.1 * bscale
    _pass(11)


def test_acceptance_12_approximate_identity():
    g = GridSpec(2, 64, 64.0)
    mesh = g.mesh()
    f = ModuleFunction(g, np.exp(-sum(m * m for m in mesh) / 9.0)[..., None, None]
                       * np.eye(K))
    resids = []
    for index in (1, 2, 4, 8):
        e = approximate_identity(index, g, K)
        resids.append(module_norm(deformed_product(e, f, J) - f))
    assert all(resids[i + 1] < resids[i] for i in range(3))
    assert resids[-1] <= resids[0] / 4
    _pass(12)


def test_acceptance_13_determinism_and_io(tmp_path):
    cfg = SuiteConfig(suite="fourier", points=32, seed=13)
    assert run_suite(cfg).canonical_payload() == run_suite(cfg).canonical_payload()
    from rieffel.mgf import read_mgf, write_mgf
    rng = check_rng(13, "acceptance.io")
    u = random_smooth(GridSpec(2, 16, 8.0), K, rng)
    p = tmp_path / "round.mgf"
    write_mgf(p, u)
    back = read_mgf(p)
    assert np.array_equal(back.samples, u.samples)
    assert back.grid.compatible(u.grid)
    _pass(13)
