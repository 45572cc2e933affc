import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.algebra import cnorm, positivity_defect
from rieffel.errors import GridMismatchError
from rieffel.grids import GridSpec
from rieffel.module_space import (ModuleFunction, boundary_report, fourier,
                                  inner_product, modulate, module_norm,
                                  schwartz_seminorm, translate)

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


def test_module_norm_vs_l2():
    f, _ = random_pair(7)
    from rieffel.algebra import cnorm_entries
    l2 = np.sqrt((cnorm_entries(f.samples) ** 2).sum() * G2.spacing ** 2)
    assert module_norm(f) <= l2 * (1 + 1e-12)


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


def test_modulation_translation_commutation_phase():
    # T_{-z} M_zeta T_z M_{-zeta} = e^{i z.zeta}
    f, _ = random_pair(9)
    # commensurate z and dual-lattice zeta keep the periodic wrap phase exact
    z = np.array([2 * G2.spacing, G2.spacing])
    zeta = G2.dual_spacing * np.array([2, -1])
    out = translate(modulate(translate(modulate(f, -zeta), z), zeta), -z)
    expect = complex(np.exp(1j * (z @ zeta))) * f
    assert (out - expect).sup_norm() <= 1e-10 * f.sup_norm()


# ---- seminorms and diagnostics


def test_seminorm_sup_only():
    g = GridSpec(1, 64, 8.0)
    f = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 2))
    assert schwartz_seminorm(f) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_weighted():
    # sup |x| e^{-x^2/2} = e^{-1/2}; fine grid so the sup point is resolved
    g = GridSpec(1, 8192, 8.0)
    f = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 2))
    val = schwartz_seminorm(f, alpha=(1,))
    assert val == pytest.approx(np.exp(-0.5), abs=1e-6)


def test_seminorm_derivative_schemes_agree():
    g = GridSpec(1, 8192, 8.0)
    f = ModuleFunction.from_function(g, lambda x: np.exp(-x * x / 2))
    # sup |d/dx e^{-x^2/2}| = e^{-1/2} at x = 1
    val = schwartz_seminorm(f, beta=(1,))
    assert val == pytest.approx(np.exp(-0.5), abs=1e-8)
    # sup |dx dy e^{-(x^2+y^2)/2}| = sup |x y| e^{-(x^2+y^2)/2} = e^{-1} at
    # x = y = 1, a node of this grid
    g2 = GridSpec(2, 128, 8.0)
    f2 = ModuleFunction.from_function(g2, lambda x, y: np.exp(-(x * x + y * y) / 2))
    val = schwartz_seminorm(f2, beta=(1, 1))
    assert val == pytest.approx(np.exp(-1.0), abs=1e-12)  # observed 1.2e-14


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
