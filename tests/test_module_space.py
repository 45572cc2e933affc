import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.algebra import cnorm, positivity_defect
from rieffel.errors import GridMismatchError
from rieffel.grids import GridSpec
from rieffel.module_space import (ModuleFunction, boundary_report, fourier,
                                  inner_product, modulate, module_norm,
                                  translate)

G1 = GridSpec(1, 256, 10.0)
G2 = GridSpec(2, 32, 8.0)


def random_pair(seed, grid=G2, k=2):
    r = np.random.default_rng(seed)
    env = np.exp(-0.25 * sum(m * m for m in grid.mesh()))
    mk = lambda: ModuleFunction(
        grid, env[..., None, None] * (r.normal(size=grid.shape + (k, k))
                                      + 1j * r.normal(size=grid.shape + (k, k))))
    return mk(), mk()


# ---- inner product axioms


@given(st.integers(0, 5000))
def test_hermitian_symmetry(seed):
    f, g = random_pair(seed)
    assert cnorm(inner_product(f, g).conj().T - inner_product(g, f)) <= \
        1e-12 * cnorm(inner_product(f, g))


@given(st.integers(0, 5000))
def test_gram_positive(seed):
    f, _ = random_pair(seed)
    gram = inner_product(f, f)
    assert positivity_defect(gram) <= 1e-10 * cnorm(gram)


@given(st.integers(0, 5000))
def test_right_linearity(seed):
    f, g = random_pair(seed)
    r = np.random.default_rng(seed + 1)
    a = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
    lhs = inner_product(f, g.right_multiply(a))
    rhs = inner_product(f, g) @ a
    assert cnorm(lhs - rhs) <= 1e-13 * max(cnorm(rhs), 1.0)


@given(st.integers(0, 5000))
def test_cauchy_schwarz(seed):
    f, g = random_pair(seed)
    assert cnorm(inner_product(f, g)) <= \
        module_norm(f) * module_norm(g) * (1 + 1e-12)


def einsum_inner_product(f, g):
    """<f, g> as the sequential einsum contraction over the grid and the row
    index: the reference for the one-GEMM inner_product."""
    n = f.grid.n
    axes = tuple(range(n))
    return f.grid.spacing ** n * np.einsum(
        f.samples.conj(), [*axes, n + 1, n], g.samples, [*axes, n + 1, n + 2], [n, n + 2])


@pytest.mark.parametrize("npts", [16, 64])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_inner_product_matches_einsum_reference(n, k, npts):
    # the GEMM against the einsum, both summing N^n k products per entry in
    # different orders (observed <= 9.6e-15 relative), and against the sum in
    # long double, where the GEMM is within 1.2e-15 and the einsum's
    # sequential sum off by up to 1.05e-14 (the Gram <f, f> at n = 2, k = 3,
    # N = 64)
    grid = GridSpec(n, npts, 8.0)
    f, g = random_pair(100 * n + 10 * k + npts, grid, k)
    for x, y in [(f, g), (g, f), (f, f)]:
        ip = inner_product(x, y)
        ref = einsum_inner_product(x, y)
        assert np.abs(ip - ref).max() <= 1e-14 * np.abs(ref).max()
        wide = [z.samples.astype(np.clongdouble).reshape(-1, k, k) for z in (x, y)]
        exact = np.einsum("mba,mbc->ac", wide[0].conj(), wide[1]) * \
            np.longdouble(grid.spacing) ** n
        assert float(np.abs(ip - exact).max() / np.abs(exact).max()) <= 2e-15


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_right_multiply_is_the_pointwise_product(n, k):
    # one GEMM of the sample matrix against a, bit for bit the stacked matmul
    f, _ = random_pair(20 + n + 10 * k, GridSpec(n, 32, 8.0), k)
    r = np.random.default_rng(k)
    for a in (r.normal(size=(k, k)) + 1j * r.normal(size=(k, k)), r.normal(size=(k, k))):
        assert np.array_equal(f.right_multiply(a).samples, f.samples @ a)
    # a non-contiguous f (the pointwise adjoint is a transposed view)
    assert np.array_equal(f.star().right_multiply(a).samples, f.star().samples @ a)


def test_module_norm_vs_l2():
    f, _ = random_pair(7)
    from rieffel.algebra import cnorm_entries
    l2 = np.sqrt((cnorm_entries(f.samples) ** 2).sum() * G2.spacing ** 2)
    assert module_norm(f) <= l2 * (1 + 1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1.0, 1e155, 1e200])
def test_module_norm_at_extreme_scales(scale):
    # a full-band field at N = 32, k = 2 times s: the Gram's squares
    # underflow below s ~ 1e-150 and overflow above s ~ 1e150, where the
    # norm was exactly 0.0 (s = 1e-170), off by 4.5e-7 (s = 1e-160) or
    # raised LinAlgError (s = 1e155).  Normed on samples scaled by a power
    # of two, it reads s times the s = 1 value (observed at most 2.2e-16
    # relative), and at s = 1 it keeps the plain Gram's bits
    r = np.random.default_rng(27)
    z = r.normal(size=G2.shape + (2, 2)) + 1j * r.normal(size=G2.shape + (2, 2))
    one = ModuleFunction(G2, z)
    base = module_norm(one)
    assert base == float(np.sqrt(cnorm(inner_product(one, one))))
    got = module_norm(ModuleFunction(G2, scale * z))
    assert abs(got - scale * base) <= 1e-14 * scale * base
    if scale < 1.0:
        # the Gram itself is out of range: its diagonal underflows
        f = ModuleFunction(G2, scale * z)
        assert np.diagonal(inner_product(f, f)).real.max() < 1e-290


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_inner_product_overflow_raises(scale):
    # the Gram of s z overflows: its entries read inf and NaN, and
    # inner_product raises, where it returned them; module_norm rescales
    # (test_module_norm_at_extreme_scales)
    r = np.random.default_rng(27)
    z = r.normal(size=G2.shape + (2, 2)) + 1j * r.normal(size=G2.shape + (2, 2))
    f = ModuleFunction(G2, scale * z)
    with pytest.raises(OverflowError, match="overflows"):
        inner_product(f, f)
    # a Gram in range, of f against z, returns
    assert np.isfinite(inner_product(f, ModuleFunction(G2, z))).all()


# ---- Fourier transform


def test_gaussian_fixed_point_1d():
    f = ModuleFunction.from_function(G1, lambda x: np.exp(-x * x / 2))
    fhat = fourier(f)
    ref = np.exp(-fhat.grid.mesh()[0] ** 2 / 2)
    assert np.abs(fhat.samples[..., 0, 0] - ref).max() <= 1e-12


def test_gaussian_fixed_point_2d():
    g = GridSpec(2, 64, 8.0)
    f = ModuleFunction.from_function(g, lambda x, y: np.exp(-(x * x + y * y) / 2))
    fhat = fourier(f)
    m = fhat.grid.mesh()
    ref = np.exp(-(m[0] ** 2 + m[1] ** 2) / 2)
    assert np.abs(fhat.samples[..., 0, 0] - ref).max() <= 1e-12


@given(st.integers(0, 5000))
def test_fourier_unitarity(seed):
    f, g = random_pair(seed)
    lhs = inner_product(fourier(f), fourier(g))
    rhs = inner_product(f, g)
    assert cnorm(lhs - rhs) <= 1e-10 * max(cnorm(rhs), 1e-300)


def test_fourier_round_trip():
    f, _ = random_pair(3)
    back = fourier(fourier(f), inverse=True)
    assert (back - f).sup_norm() <= 1e-12 * f.sup_norm()


def test_fourier_lives_on_dual_grid():
    f, _ = random_pair(4)
    assert fourier(f).grid.compatible(G2.dual())


# ---- translation, modulation


def test_translate_commensurate_exact():
    f, _ = random_pair(5)
    z = np.array([2 * G2.spacing, -3 * G2.spacing])
    shifted = translate(f, z)
    rolled = np.roll(f.samples, (2, -3), axis=(0, 1))
    assert np.abs(shifted.samples - rolled).max() <= 1e-12 * f.sup_norm()


def test_translate_round_trip():
    f, _ = random_pair(6)
    z = np.array([0.37, -0.81])
    assert (translate(translate(f, z), -z) - f).sup_norm() <= 1e-10 * f.sup_norm()


@pytest.mark.parametrize("op", [translate, modulate])
@pytest.mark.parametrize("v", [[0.5], [0.0], [0.5, -0.25, 1.0], [0.0, 0.0, 0.0]])
def test_shift_length_must_match_grid(op, v):
    # n = 2: a shift of any other length is rejected, a zero one too
    f, _ = random_pair(7)
    with pytest.raises(GridMismatchError):
        op(f, v)


def test_modulate_phase():
    f, _ = random_pair(8)
    m = modulate(f, np.zeros(2), phase=np.pi)
    assert (m + f).sup_norm() <= 1e-14 * f.sup_norm()


def test_identity_shifts_return_the_input():
    # zeta = 0 with phase 0, and z = 0, are the identity: the input itself,
    # with no exp-and-multiply pass; -0.0 is 0 too
    f, _ = random_pair(10)
    assert modulate(f, np.zeros(2)) is f
    assert modulate(f, np.zeros(2), phase=-0.0) is f
    assert translate(f, np.zeros(2)) is f
    # negative controls: a phase alone, or zeta alone, still multiplies
    assert modulate(f, np.zeros(2), phase=1e-300) is not f
    assert modulate(f, np.array([0.0, 1e-300])) is not f


def test_modulation_translation_commutation_phase():
    # T_{-z} M_zeta T_z M_{-zeta} = e^{i z.zeta}
    f, _ = random_pair(9)
    # commensurate z and dual-lattice zeta keep the periodic wrap phase exact
    z = np.array([2 * G2.spacing, G2.spacing])
    zeta = G2.dual_spacing * np.array([2, -1])
    out = translate(modulate(translate(modulate(f, -zeta), z), zeta), -z)
    expect = complex(np.exp(1j * (z @ zeta))) * f
    assert (out - expect).sup_norm() <= 1e-10 * f.sup_norm()


# ---- diagnostics


def test_boundary_report_flags_wide_function():
    g = GridSpec(1, 64, 8.0)
    narrow = ModuleFunction.from_function(g, lambda x: np.exp(-x * x))
    wide = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 50))
    assert boundary_report(narrow) < 1e-20
    assert boundary_report(wide) > 0.2


def test_grid_mismatch_rejected():
    f, _ = random_pair(10)
    other = ModuleFunction.from_function(GridSpec(2, 32, 9.0),
                                         lambda x, y: np.exp(-x * x - y * y),
                                         algebra_dim=2)
    with pytest.raises(GridMismatchError):
        inner_product(f, other)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_samples_rejected(bad):
    samples = np.ones(G2.shape + (2, 2), dtype=complex)
    samples[3, 5, 1, 0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        ModuleFunction(G2, samples)
