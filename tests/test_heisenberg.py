import numpy as np
import pytest

from rieffel.deformation import SkewForm, deformed_product
from rieffel.grids import GridSpec
from rieffel.heisenberg import (HeisenbergPoint, conjugate_operator,
                                intertwine_check, smoothness_probe)
from rieffel.module_space import ModuleFunction, inner_product, module_norm
from rieffel.quantization import (LeftActionOp, OperatorHandle, PdoOp,
                                  TranslationSymbol, TrigPolySymbol,
                                  constant_symbol, pdo_apply, sample_symbol)

G = GridSpec(2, 64, 8.0)
J = SkewForm.standard(0.5)


def gaussian(grid, seed, alpha=1.0, k=2):
    r = np.random.default_rng(seed)
    mesh = grid.mesh()
    c = r.uniform(-1, 1, size=grid.n)
    r2 = sum((mesh[d] - c[d]) ** 2 for d in range(grid.n))
    M = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    return ModuleFunction(grid, np.exp(-alpha * r2)[..., None, None] * M)


def point(seed, scale=1.0):
    r = np.random.default_rng(seed)
    return HeisenbergPoint(scale * r.uniform(-1, 1, 2),
                           scale * r.uniform(-1, 1, 2), float(r.uniform(0, 2)))


def test_weyl_shift_unitary():
    u = gaussian(G, 0)
    v = gaussian(G, 1)
    p = point(2)
    lhs = inner_product(p.apply(u), p.apply(v))
    rhs = inner_product(u, v)
    from rieffel.algebra import cnorm
    assert cnorm(lhs - rhs) <= 1e-10 * max(cnorm(rhs), 1e-300)


def test_group_law():
    # E_p E_q = e^{-i zeta_q . z_p} E_{p q} realized on samples
    u = gaussian(G, 3)
    p, q = point(4), point(5)
    lhs = p.apply(q.apply(u))
    rhs = p.compose(q).apply(u)
    assert module_norm(lhs - rhs) <= 1e-10 * module_norm(u)


def test_inverse_element():
    u = gaussian(G, 6)
    p = point(7)
    back = p.inverse().apply(p.apply(u))
    assert module_norm(back - u) <= 1e-10 * module_norm(u)
    e = p.compose(p.inverse())
    assert np.abs(e.z).max() == 0.0 and np.abs(e.zeta).max() == 0.0
    assert abs(e.phi) <= 1e-14


def test_conjugation_phi_independent():
    a = TrigPolySymbol(2, 2, [(np.array([0.3, -0.2]), np.array([0.5, 0.1]),
                               np.array([[1.0, 0.2j], [0.1, 0.7]]))])
    T = PdoOp(a)
    u = gaussian(G, 8)
    z, zeta = np.array([0.4, -0.7]), np.array([0.3, 0.9])
    r0 = conjugate_operator(T, z, zeta, phi=0.0).apply(u)
    r1 = conjugate_operator(T, z, zeta, phi=1.3).apply(u)
    assert module_norm(r0 - r1) <= 1e-12 * module_norm(r0)


def test_conjugation_shifts_symbol():
    # E^{-1} a(x, D) E = a(x + z, xi + zeta)(x, D)
    a = TrigPolySymbol(2, 2, [(np.array([0.3, -0.2]), np.array([0.5, 0.1]),
                               np.array([[1.0, 0.2j], [0.1, 0.7]])),
                              (np.array([-0.1, 0.4]), np.array([0.2, -0.3]),
                               np.array([[0.3, 0.0], [0.1j, 0.5]]))])
    u = gaussian(G, 9)
    z, zeta = np.array([0.6, -0.3]), np.array([0.2, 0.5])
    lhs = conjugate_operator(PdoOp(a), z, zeta).apply(u)
    rhs = pdo_apply(a.shift(z, zeta), u)
    assert module_norm(lhs - rhs) <= 1e-6 * module_norm(rhs)


def test_translation_symbol_collapse():
    # for a = F(x - J xi) the conjugated symbol depends only on z - J zeta:
    # a(x + z, xi + zeta) has the translation form with F shifted by z - J zeta
    g = GridSpec(2, 32, 8.0)
    F = gaussian(g, 10)
    a = TranslationSymbol(F, J)
    z, zeta = np.array([0.5, -0.25]), np.array([0.75, 0.5])
    s = a.shift(z, zeta)
    collapsed = a.shift(z - J.apply(zeta), np.zeros(2))
    d = sample_symbol(s, g).samples - sample_symbol(collapsed, g).samples
    scale = np.abs(sample_symbol(a, g).samples).max()
    assert np.abs(d).max() <= 1e-9 * scale


def test_conjugated_left_action_translates_multiplier():
    g = GridSpec(2, 64, 8.0)
    F = gaussian(g, 11)
    u = gaussian(g, 12)
    z, zeta = g.spacing * np.array([2.0, -1.0]), np.array([0.4, -0.6])
    lhs = conjugate_operator(LeftActionOp(F, J), z, zeta).apply(u)
    s = TranslationSymbol(F, J).shift(z, zeta)
    assert isinstance(s, TranslationSymbol)
    rhs = deformed_product(s.F, u, J)
    assert module_norm(lhs - rhs) <= 1e-8 * module_norm(rhs)


def test_intertwine_identities():
    u = gaussian(G, 13, alpha=1.0)
    g = gaussian(G, 14, alpha=1.0)
    zero = intertwine_check(np.zeros(2), np.zeros(2), g, J, u)
    assert all(v <= 1e-12 for v in zero.values())
    z = G.spacing * np.array([3.0, -2.0])
    zeta = G.dual_spacing * np.array([2.0, 1.0])
    res = intertwine_check(z, zeta, g, J, u)
    assert res["fourier_forward"] <= 1e-8 * module_norm(u)
    assert res["fourier_inverse"] <= 1e-8 * module_norm(u)
    assert res["right_action"] <= 1e-6 * module_norm(u)


def make_family(T):
    return lambda z, zeta: conjugate_operator(T, z, zeta)


def test_smoothness_probe_centered_second_order():
    F = gaussian(G, 17, k=1)
    u = gaussian(G, 18, k=1)
    probe = smoothness_probe(make_family(LeftActionOp(F, J)),
                             np.array([1.0, 0.5, -0.3, 0.2]),
                             (0.4, 0.2, 0.1, 0.05, 0.025), u)
    assert probe["converged"]
    assert probe["order"] >= 1.6
    assert probe["residuals"][-1] < probe["residuals"][0]


def test_smoothness_probe_constant_symbol_flat():
    # conjugation leaves a constant symbol fixed, so every quotient vanishes
    u = gaussian(G, 19)
    fam = make_family(PdoOp(constant_symbol(2, np.eye(2))))
    probe = smoothness_probe(fam, np.array([1.0, 0.0, 0.0, 1.0]),
                             (0.4, 0.2, 0.1), u)
    assert max(probe["residuals"]) <= 1e-10 * module_norm(u)


class Identity(OperatorHandle):
    def apply(self, u):
        return u

    def adjoint(self):
        return self


def test_smoothness_probe_never_applies_base():
    # centered quotients apply T_{td} and T_{-td}, never T_0: 2 per step
    count = []

    class Counting(Identity):
        def apply(self, u):
            count.append(1)
            return u
    u = gaussian(GridSpec(2, 8, 8.0), 21)
    smoothness_probe(lambda z, zeta: Counting(), np.ones(4),
                     (0.2, 0.1, 0.05, 0.025), u)
    assert len(count) == 8


def test_smoothness_probe_rejects_bad_steps():
    u = gaussian(G, 20)
    fam = make_family(Identity())
    with pytest.raises(ValueError):
        smoothness_probe(fam, np.ones(4), (0.1, 0.2, 0.4), u)
    with pytest.raises(ValueError):
        smoothness_probe(fam, np.ones(4), (0.2, 0.1), u)


def test_mismatched_point_dimensions():
    with pytest.raises(ValueError):
        HeisenbergPoint(np.zeros(2), np.zeros(3))
