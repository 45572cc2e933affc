import numpy as np
import pytest

from rieffel import deformation, heisenberg, suites
from rieffel.deformation import SkewForm, deformed_product
from rieffel.grids import GridSpec
from rieffel.heisenberg import (HeisenbergPoint, conjugate_apply,
                                conjugate_operator, intertwine_check,
                                smoothness_probe)
from rieffel.module_space import ModuleFunction, inner_product, module_norm
from rieffel.quantization import (LeftActionOp, OperatorHandle, PdoOp,
                                  TranslationSymbol, TrigPolySymbol,
                                  constant_symbol, pdo_apply, sample_symbol)
from rieffel.suites import SuiteConfig, check_rng

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


def test_smoothness_probe_centered_second_order():
    F = gaussian(G, 17, k=1)
    u = gaussian(G, 18, k=1)
    probe = smoothness_probe(LeftActionOp(F, J),
                             np.array([1.0, 0.5, -0.3, 0.2]),
                             (0.4, 0.2, 0.1, 0.05, 0.025), u)
    assert probe["converged"]
    assert probe["order"] >= 1.6
    assert probe["residuals"][-1] < probe["residuals"][0]


def test_smoothness_probe_constant_symbol_flat():
    # conjugation leaves a constant symbol fixed, so every quotient vanishes
    u = gaussian(G, 19)
    probe = smoothness_probe(PdoOp(constant_symbol(2, np.eye(2))),
                             np.array([1.0, 0.0, 0.0, 1.0]), (0.4, 0.2, 0.1), u)
    assert max(probe["residuals"]) <= 1e-10 * module_norm(u)


class Identity(OperatorHandle):
    def apply(self, u):
        return u

    def adjoint(self):
        return self


def test_smoothness_probe_never_applies_base():
    # centered quotients apply T_{td} and T_{-td}, never T_0: 2 per step, all
    # 8 in one apply_many call, none of them E_0 u = u
    u = gaussian(GridSpec(2, 8, 8.0), 21)
    applied, batches = [], []

    class Counting(Identity):
        def apply(self, v):
            applied.append(v)
            return v

        def apply_many(self, vs):
            batches.append(vs)
            return super().apply_many(vs)
    smoothness_probe(Counting(), np.ones(4), (0.2, 0.1, 0.05, 0.025), u)
    assert len(batches) == 1 and len(batches[0]) == 8
    assert [id(v) for v in applied] == [id(v) for v in batches[0]]
    assert not any(np.array_equal(v.samples, u.samples) for v in batches[0])


def test_smoothness_probe_rejects_bad_steps():
    u = gaussian(G, 20)
    with pytest.raises(ValueError):
        smoothness_probe(Identity(), np.ones(4), (0.1, 0.2, 0.4), u)
    with pytest.raises(ValueError):
        smoothness_probe(Identity(), np.ones(4), (0.2, 0.1), u)


# ---- the batched conjugation family against one conjugate_operator at a time

G32 = GridSpec(2, 32, 8.0)
TRIG = TrigPolySymbol(2, 2, [(np.array([0.3, -0.2]), np.array([0.5, 0.1]),
                              np.array([[1.0, 0.2j], [0.1, 0.7]])),
                             (np.array([-0.1, 0.4]), np.array([0.2, -0.3]),
                              np.array([[0.3, 0.0], [0.1j, 0.5]]))])
HANDLES = {"left_action": lambda: LeftActionOp(gaussian(G32, 30), J),
           "trig_pdo": lambda: PdoOp(TRIG)}
STEPS = (0.2, 0.1, 0.05, 0.025)


def conjugated_one_by_one(T, points, u):
    return [conjugate_operator(T, p.z, p.zeta, p.phi).apply(u) for p in points]


def reference_quotients(T, d, steps, u):
    # one conjugate_operator per family member, the quotients formed in order
    p0 = np.zeros_like(d)
    n = d.size // 2

    def member(p):
        return conjugate_operator(T, p[:n], p[n:]).apply(u)
    return [(1.0 / (2.0 * t)) * (member(p0 + t * d) - member(p0 - t * d))
            for t in steps]


@pytest.mark.parametrize("name", sorted(HANDLES))
def test_conjugate_apply_batch_matches_conjugate_operator(name):
    # random points, the identity, and the phi check's two phases at one
    # (z, zeta)
    T, u = HANDLES[name](), gaussian(G32, 31)
    z, zeta = np.array([0.4, -0.7]), np.array([0.3, 0.9])
    points = [point(32 + i) for i in range(5)] + [
        HeisenbergPoint(np.zeros(2), np.zeros(2)),
        HeisenbergPoint(z, zeta, 0.0), HeisenbergPoint(z, zeta, 1.3)]
    got = conjugate_apply(T, points, u)
    ref = conjugated_one_by_one(T, points, u)
    assert len(got) == len(points)
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(got, ref))
    assert conjugate_apply(T, (), u) == ()


@pytest.mark.parametrize("name", sorted(HANDLES))
@pytest.mark.parametrize("with_derivative", [False, True])
def test_smoothness_probe_batch_quotients(name, with_derivative, monkeypatch):
    # the probe takes norms of q_i - ref: record them and compare with the
    # quotients of a one-member-at-a-time family, bit for bit
    T, u = HANDLES[name](), gaussian(G32, 33)
    d = np.array([1.0, 0.0, 0.0, 0.0]) if name == "left_action" \
        else np.array([0.3, -0.5, 0.7, 0.2])
    derivative = PdoOp(constant_symbol(2, np.eye(2))) if with_derivative else None
    normed = []

    def recording_norm(f):
        normed.append(f.samples)
        return module_norm(f)
    monkeypatch.setattr(heisenberg, "module_norm", recording_norm)
    probe = smoothness_probe(T, d, STEPS, u, derivative=derivative)
    quotients = reference_quotients(T, d, STEPS, u)
    if with_derivative:
        ref = [q - derivative.apply(u) for q in quotients]
    else:
        ref = [q - quotients[-1] for q in quotients[:-1]]
    assert len(normed) == len(ref)
    assert all(np.array_equal(a, b.samples) for a, b in zip(normed, ref))
    assert probe["residuals"] == [module_norm(r) for r in ref]


def test_phi_independence_check_batch_residual():
    # the suite check reads the residual of its parent, which conjugated
    # one phase at a time, from the same draws
    cfg = SuiteConfig(points=32)

    def parent(rng):
        g, J, F, u = suites._operands(cfg, rng, 2)
        z, zeta = suites._draw_pair(g.n, rng)
        c0 = conjugate_operator(LeftActionOp(F, J), z, zeta, 0.0).apply(u)
        c1 = conjugate_operator(LeftActionOp(F, J), z, zeta, 1.3).apply(u)
        return (c0 - c1).sup_norm() / max(c0.sup_norm(), 1e-300)
    got = suites._chk_phi_independence(cfg, check_rng(5, "phi"))
    assert got == parent(check_rng(5, "phi"))


def test_smoothness_check_batch_kernel_passes(monkeypatch):
    # the smoothness check runs its 8 conjugates as one product and its
    # derivative as another: 2 kernel passes, where one product per member
    # ran 9
    passes = []
    kernel = deformation._twisted_kernel

    def counting(ft, gt, grid, theta):
        passes.append(gt.shape[:2])
        return kernel(ft, gt, grid, theta)
    monkeypatch.setattr(deformation, "_twisted_kernel", counting)
    cfg = SuiteConfig(points=32)
    suites._chk_smoothness_order(cfg, check_rng(6, "smooth"))
    assert passes == [(2, 16), (2, 2)]


def test_mismatched_point_dimensions():
    with pytest.raises(ValueError):
        HeisenbergPoint(np.zeros(2), np.zeros(3))
