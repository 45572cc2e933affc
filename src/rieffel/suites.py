"""Named verification suites over the operator-calculus library.

Each check is a pure function of (config, rng) returning the residual of one
trial.  The @check decorator registers it in SUITE_CHECKS at its definition,
with its suite, id, default tolerance, anchor and trial count; the registry
runs the trials in turn on the check's one rng and folds them into the
check's residual, their worst (NaN if any trial reads NaN).  The runner times
the checks, applies any tolerance override from the config, stamps the
environment, and builds a VerificationReport whose canonical payload
(runtimes stripped) is byte-identical across runs with the same config and
seed.  Randomness is drawn from a single seed partitioned per check id, so
checks stay deterministic regardless of execution order.

Checks on (N,)^4 phase-space grids pin N, whatever the config's points: 32 in
translation_bridge, translation_collapse, gamma_round_trip_translation,
recovery, certificate and idempotence, 16 in the bracket and rejection checks
(one N = 96, k = 2 product grid is 5.4 GB; Tier-1 shears at N = 18 and 24).
"""
from __future__ import annotations

import json
import numbers
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .algebra import (cnorm, cnorm_entries, cnorm_sup, cnorm_sup_slabs,
                      positivity_defect, slab_differences)
from .deformation import SkewForm, approximate_identity, deformed_product
from .grids import GridSpec, fourier_multiplier, grid_transform
from .heisenberg import (HeisenbergPoint, conjugate_apply, conjugate_operator,
                         intertwine_check, smoothness_probe)
from .module_space import ModuleFunction, fourier, inner_product, module_norm
from .quantization import (LeftActionOp, PdoOp, PhaseSymbol, TranslationSymbol,
                           TrigPolySymbol, constant_symbol, operator_norm_estimate,
                           pi_seminorm, symbol_to_kernel)
from .symbolic_calculus import (GammaKernel, b_transform, coordinate_symbol,
                                gamma_reconstruct, gamma_reproduce,
                                poisson_bracket, recover, recover_translation_symbol,
                                translation_certificate)

SUITE_NAMES = ("module_axioms", "fourier", "deformation", "quantization",
               "heisenberg", "calculus", "rieffel_pipeline")

# suite -> [(check_id, anchor, default_tolerance, trials, fn)], filled by
# @check; fn(config, rng) runs the trials and returns their worst residual
SUITE_CHECKS = {suite: [] for suite in SUITE_NAMES}


def check(suite: str, tolerance: float, anchor: str, trials: int = 1):
    """Register trial(config, rng) -> residual as a check of `suite`; its id
    is the function name without the `_chk_` prefix.

    The check's residual is the worst of 0.0 and `trials` calls, made in turn
    on one rng, so each trial draws after the one before it; a NaN from any
    call makes it NaN.  The check passes when that residual is at most the
    tolerance (the default given here, unless the config overrides it);
    checks of a suite run in the order they are defined.
    """
    def register(trial):
        check_id = trial.__name__.removeprefix("_chk_")
        fold = lambda cfg, rng: _worst([trial(cfg, rng) for _ in range(trials)])
        SUITE_CHECKS[suite].append((check_id, anchor, tolerance, trials, fold))
        return trial
    return register


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    n: int = 2
    points: int = 64
    half_width: float = 8.0
    algebra_dim: int = 2
    theta: float | None = None   # None: SkewForm.standard's default
    seed: int = 2024
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    csv: str | None = None

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}")
        self.grid()  # GridSpec's rules on n, points and half_width
        self.skew()  # SkewForm's rule on n and theta
        if not isinstance(self.tolerances, dict):
            raise ValueError("tolerances must map check ids to numbers")
        known = {f"{suite}.{entry[0]}"
                 for suite, entries in SUITE_CHECKS.items() for entry in entries}
        for key, value in self.tolerances.items():
            if key not in known:
                raise ValueError(f"tolerances name an unknown check {key!r}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"tolerance for {key} is not a real number: {value!r}")
            # inf passes every residual, nan fails all, an int >= 2**1024 breaks float()
            if not 0 <= value < 2.0 ** 1023:
                raise ValueError(f"tolerance for {key} must be in [0, inf): {value!r}")

    def grid(self, points: int | None = None) -> GridSpec:
        """The configured grid, or one with `points` per axis on the same box."""
        return GridSpec(self.n, self.points if points is None else points,
                        self.half_width)

    def skew(self) -> SkewForm:
        return SkewForm.standard(self.theta, self.n)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    environment: dict
    checks: tuple
    passed: bool

    def to_dict(self, include_runtimes: bool = True) -> dict:
        checks = []
        for c in self.checks:
            rec = {"id": c.check_id, "anchor": c.anchor,
                   "residual": c.residual, "tolerance": c.tolerance,
                   "passed": c.passed}
            if include_runtimes:
                rec["runtime_ms"] = c.runtime_ms
            checks.append(rec)
        return {"suite": self.suite, "environment": self.environment,
                "checks": checks, "passed": self.passed}

    def canonical_payload(self) -> bytes:
        """Deterministic byte serialization: runtimes stripped, keys sorted."""
        return json.dumps(self.to_dict(include_runtimes=False), sort_keys=True,
                          separators=(",", ":")).encode()

    def to_json(self) -> str:
        doc = self.to_dict(include_runtimes=True)
        doc["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        lines = ["check,residual,tolerance,passed"]
        for c in self.checks:
            lines.append(f"{c.check_id},{c.residual:.6e},{c.tolerance:.6e},{c.passed}")
        return "\n".join(lines) + "\n"


def check_rng(seed: int, check_id: str) -> np.random.Generator:
    """Deterministic per-check generator partitioned from the config seed."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(check_id.encode())]))


# ---------------------------------------------------------------------------
# shared builders


def random_smooth(grid: GridSpec, k: int, rng) -> ModuleFunction:
    """Random matrix field under the Gaussian envelope e^{-|x|^2 / 4} (no
    smoothness needed for pointwise identities)."""
    env = np.exp(-0.25 * sum(m * m for m in grid.mesh()))
    z = rng.normal(size=grid.shape + (k, k)) + 1j * rng.normal(size=grid.shape + (k, k))
    return ModuleFunction(grid, env[..., None, None] * z)


def matrix_gaussian(grid: GridSpec, k: int, rng, alpha: float = 0.5) -> ModuleFunction:
    """e^{-alpha |x - c|^2} times a random constant matrix, randomly centered
    and modulated on the dual lattice (band-limited and rapidly decaying)."""
    mesh = grid.mesh()
    c = rng.uniform(-1.0, 1.0, size=grid.n)
    p = grid.dual_spacing * rng.integers(-4, 5, size=grid.n)
    r2 = sum((mesh[d] - c[d]) ** 2 for d in range(grid.n))
    ph = sum(p[d] * mesh[d] for d in range(grid.n))
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return ModuleFunction(grid, (np.exp(-alpha * r2 + 1j * ph))[..., None, None] * M)


def band_limited_field(grid: GridSpec, k: int, rng) -> ModuleFunction:
    """Random matrix field on dual modes -3..3 of each axis (recovery test
    family)."""
    hat = np.zeros(grid.shape + (k, k), dtype=complex)
    half = grid.points // 2
    sl = tuple(slice(half - 3, half + 4) for _ in range(grid.n))
    hat[sl] = rng.normal(size=hat[sl].shape) + 1j * rng.normal(size=hat[sl].shape)
    decay = np.exp(-0.5 * sum(m * m for m in grid.dual_mesh()))
    hat = hat * decay[..., None, None]
    return ModuleFunction(grid, grid_transform(hat, grid, inverse=True))


def random_band_symbol(n: int, k: int, rng) -> TrigPolySymbol:
    """Six random trig terms, frequencies uniform in [-1, 1]^n and
    coefficients of average size 1/6."""
    terms = []
    for _ in range(6):
        p = rng.uniform(-1.0, 1.0, size=n)
        w = rng.uniform(-1.0, 1.0, size=n)
        c = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) / 6
        terms.append((p, w, c))
    return TrigPolySymbol(n, k, terms)


def plane_wave(grid: GridSpec, p, k: int = 1) -> ModuleFunction:
    mesh = grid.mesh()
    arg = sum(p[d] * mesh[d] for d in range(grid.n))
    return ModuleFunction(grid, np.exp(1j * arg)[..., None, None] * np.eye(k))


def _operands(cfg, rng, count=0, points=None, alpha=0.5):
    """(grid, J, then `count` matrix Gaussians drawn from rng in order)."""
    g = cfg.grid(points)
    fields = [matrix_gaussian(g, cfg.algebra_dim, rng, alpha) for _ in range(count)]
    return (g, cfg.skew(), *fields)


def _draw_pair(n, rng):
    """Two uniform draws from [-1, 1]^n, in order: (z, zeta) or a wave's (p, w)."""
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)


def _relative(err, scale):
    """err / scale, with a zero scale floored at 1e-300."""
    return err / max(scale, 1e-300)


def _worst(residuals) -> float:
    """max(0.0, *residuals), but NaN if any residual is NaN."""
    return float(np.max([0.0, *residuals]))


def _shifted_pair(a, J, g, rng):
    """Slab pairs of a_{z,zeta} and a_{z - J zeta, 0} on g at a random (z, zeta);
    they agree when a is a translation symbol (or a transform of one)."""
    z, zeta = _draw_pair(g.n, rng)
    return zip(a.shift(z, zeta).slabs(g),
               a.shift(z - J.apply(zeta), np.zeros(g.n)).slabs(g))


def _commensurate_pair(grid, rng):
    p = grid.dual_spacing * rng.integers(-6, 7, size=grid.n)
    q = grid.dual_spacing * rng.integers(-6, 7, size=grid.n)
    return p, q


# ---------------------------------------------------------------------------
# checks: each returns its residual


@check("module_axioms", 1e-12, "inner product conjugate symmetry <f,g>* = <Fg,Ff>")
def _chk_hermitian_symmetry(cfg, rng):
    g = cfg.grid()
    errs, scales = [], []
    for _ in range(20):
        f = random_smooth(g, cfg.algebra_dim, rng)
        h = random_smooth(g, cfg.algebra_dim, rng)
        ip = inner_product(f, h)
        # <h,f> through Parseval: the sides share no products to cancel
        errs.append(cnorm(ip.conj().T - inner_product(fourier(h), fourier(f))))
        scales.append(cnorm(ip))
    return _relative(_worst(errs), _worst(scales))


@check("module_axioms", 1e-10, "Gram element <f,f> positive semidefinite", 20)
def _chk_positivity(cfg, rng):
    f = random_smooth(cfg.grid(), cfg.algebra_dim, rng)
    gram = inner_product(f, f)
    return _relative(positivity_defect(gram), cnorm(gram))


@check("module_axioms", 1e-13, "<f, g a> = <f,g> a for algebra elements a", 20)
def _chk_right_linearity(cfg, rng):
    g = cfg.grid()
    f = random_smooth(g, cfg.algebra_dim, rng)
    h = random_smooth(g, cfg.algebra_dim, rng)
    a = (rng.normal(size=(cfg.algebra_dim,) * 2)
         + 1j * rng.normal(size=(cfg.algebra_dim,) * 2))
    lhs = inner_product(f, h.right_multiply(a))
    rhs = inner_product(f, h) @ a
    return _relative(cnorm(lhs - rhs), cnorm(rhs))


@check("module_axioms", 1e-12, "||<f,g>|| <= ||f||_2 ||g||_2", 20)
def _chk_cauchy_schwarz(cfg, rng):
    g = cfg.grid()
    f = random_smooth(g, cfg.algebra_dim, rng)
    h = random_smooth(g, cfg.algebra_dim, rng)
    gap = cnorm(inner_product(f, h)) - module_norm(f) * module_norm(h)
    return _relative(gap, module_norm(f) * module_norm(h))


@check("module_axioms", 1e-10, "||a* a|| = ||a||^2 in the coefficient algebra", 50)
def _chk_cstar_identity(cfg, rng):
    a = (rng.normal(size=(cfg.algebra_dim,) * 2)
         + 1j * rng.normal(size=(cfg.algebra_dim,) * 2))
    return abs(cnorm(a.conj().T @ a) - cnorm(a) ** 2) / cnorm(a) ** 2


@check("module_axioms", 1e-12, "module norm dominated by the L2 norm", 20)
def _chk_norm_inequality(cfg, rng):
    g = cfg.grid()
    f = random_smooth(g, cfg.algebra_dim, rng)
    l2 = float(np.sqrt((cnorm_entries(f.samples) ** 2).sum()
                       * g.spacing ** g.n))
    return _relative(module_norm(f) - l2, l2)


@check("fourier", 1e-6, "standard Gaussian is a transform fixed point")
def _chk_gaussian_fixed_point(cfg, rng):
    gauss = lambda *xs: np.exp(-0.5 * sum(x * x for x in xs))
    f = ModuleFunction.from_function(cfg.grid(), gauss)
    fhat = fourier(f)
    ref = ModuleFunction.from_function(fhat.grid, gauss)
    return (fhat - ref).sup_norm()


@check("fourier", 1e-10, "<Fu, Fv> = <u, v> for the symmetric transform", 10)
def _chk_unitarity(cfg, rng):
    _, _, f, h = _operands(cfg, rng, 2)
    lhs = inner_product(fourier(f), fourier(h))
    rhs = inner_product(f, h)
    return _relative(cnorm(lhs - rhs), cnorm(rhs))


@check("fourier", 1e-12, "inverse transform of transform is the identity")
def _chk_round_trip(cfg, rng):
    _, _, f = _operands(cfg, rng, 1)
    back = fourier(fourier(f), inverse=True)
    return _relative((back - f).sup_norm(), f.sup_norm())


@check("fourier", 1e-12, "transform preserves the module norm")
def _chk_parseval(cfg, rng):
    _, _, f = _operands(cfg, rng, 1)
    return abs(module_norm(fourier(f)) - module_norm(f)) / module_norm(f)


@check("deformation", 1e-9, "e_p x_J e_q = exp(-i p.Jq) e_{p+q}", 20)
def _chk_plane_wave_law(cfg, rng):
    g, J = _operands(cfg, rng)
    p, q = _commensurate_pair(g, rng)
    prod = deformed_product(plane_wave(g, p), plane_wave(g, q), J)
    expect = complex(np.exp(-1j * (p @ J.apply(q)))) * plane_wave(g, p + q)
    return (prod - expect).sup_norm()


@check("deformation", 1e-9, "e_p x_J e_q = exp(-2i p.Jq) e_q x_J e_p", 10)
def _chk_weyl_exchange(cfg, rng):
    g, J = _operands(cfg, rng)
    p, q = _commensurate_pair(g, rng)
    ab = deformed_product(plane_wave(g, p), plane_wave(g, q), J)
    ba = deformed_product(plane_wave(g, q), plane_wave(g, p), J)
    phase = np.exp(-2j * (p @ J.apply(q)))
    return (ab - complex(phase) * ba).sup_norm()


@check("deformation", 1e-10, "J = 0 reduces the product to pointwise multiplication", 5)
def _chk_zero_collapse(cfg, rng):
    J0 = SkewForm(0.0, cfg.n)
    g, _, f, h = _operands(cfg, rng, 2)
    prod = deformed_product(f, h, J0)
    ref = ModuleFunction(g, np.einsum("...ab,...bc->...ac", f.samples, h.samples))
    return _relative((prod - ref).sup_norm(), ref.sup_norm())


@check("deformation", 1e-12, "(f x g) x h = f x (g x h)", 3)
def _chk_associativity(cfg, rng):
    _, J, f, h, w = _operands(cfg, rng, 3, alpha=2.0)
    # f x (h, h x w): f's side of the kernel runs once for both products
    fh, rhs = deformed_product(f, (h, deformed_product(h, w, J)), J)
    lhs = deformed_product(fh, w, J)
    return _relative((lhs - rhs).sup_norm(), lhs.sup_norm())


@check("deformation", 1e-12, "[L_f, R_h] = 0")
def _chk_left_right_commute(cfg, rng):
    _, J, f, h, u = _operands(cfg, rng, 3, alpha=2.0)
    fu, lhs = deformed_product(f, (u, deformed_product(u, h, J)), J)
    rhs = deformed_product(fu, h, J)
    return _relative((lhs - rhs).sup_norm(), lhs.sup_norm())


@check("deformation", 1e-12, "the constant identity function is a left unit")
def _chk_unit_factor(cfg, rng):
    g, J, u = _operands(cfg, rng, 1)
    one = ModuleFunction.from_function(g, lambda *xs: np.ones(g.shape),
                                       algebra_dim=cfg.algebra_dim)
    return (deformed_product(one, u, J) - u).sup_norm() / u.sup_norm()


@check("deformation", 0.25, "||L_{e_k} f - f||_2 decreases along the index ladder")
def _chk_approximate_identity(cfg, rng):
    g = GridSpec(cfg.n, 64, 64.0)
    J = cfg.skew()
    mesh = g.mesh()
    f = ModuleFunction(g, np.exp(-sum(m * m for m in mesh) / 9.0)[..., None, None]
                       * np.eye(cfg.algebra_dim))
    ladder = tuple(approximate_identity(index, g, cfg.algebra_dim)
                   for index in (1, 2, 4, 8))
    resids = [module_norm(ef - f) for ef in deformed_product(ladder, f, J)]
    if any(resids[i + 1] >= resids[i] for i in range(len(resids) - 1)):
        return float("inf")
    return resids[-1] / resids[0]


@check("quantization", 1e-12, "the identity symbol quantizes to the identity")
def _chk_identity_symbol(cfg, rng):
    g, _, u = _operands(cfg, rng, 1)
    r = constant_symbol(g.n, np.eye(cfg.algebra_dim)).quantize(u)
    return (r - u).sup_norm() / u.sup_norm()


@check("quantization", 1e-9, "symbol F(x - J xi) quantizes to the left action L_F")
def _chk_translation_bridge(cfg, rng):
    g, J, F, u = _operands(cfg, rng, 2, points=32)
    # the generic dense sum over the shear's slabs: its own quantize is L_F
    lhs = PhaseSymbol.quantize(TranslationSymbol(F, J), u)
    rhs = deformed_product(F, u, J)
    return _relative((lhs - rhs).sup_norm(), rhs.sup_norm())


@check("quantization", 1e-10, "<a(x,D)u, v> = <u, p(x,D)v> for the adjoint symbol p")
def _chk_adjoint_pairing(cfg, rng):
    a = random_band_symbol(cfg.n, cfg.algebra_dim, rng)
    _, _, u, v = _operands(cfg, rng, 2, points=32)
    lhs = inner_product(a.quantize(u), v)
    rhs = inner_product(u, a.adjoint().quantize(v))
    return _relative(cnorm(lhs - rhs), cnorm(lhs))


@check("quantization", 1e-12, "(L_F)* = L_{F*} under the module inner product")
def _chk_left_action_adjoint(cfg, rng):
    _, J, F, u, v = _operands(cfg, rng, 3)
    lhs = inner_product(deformed_product(F, u, J), v)
    rhs = inner_product(u, deformed_product(F.star(), v, J))
    return _relative(cnorm(lhs - rhs), cnorm(lhs))


@check("quantization", 1e-10, "integral kernel of a(x,D) reproduces its action")
def _chk_kernel_consistency(cfg, rng):
    a = random_band_symbol(cfg.n, cfg.algebra_dim, rng)
    g, _, u = _operands(cfg, rng, 1, points=32)
    lhs = symbol_to_kernel(a, g).apply(u)
    rhs = a.quantize(u)
    return _relative((lhs - rhs).sup_norm(), rhs.sup_norm())


@check("quantization", 1e-10, "sup-derivative seminorm exact on plane-wave symbols")
def _chk_pi_seminorm(cfg, rng):
    g = cfg.grid(32)
    p, w = _draw_pair(g.n, rng)
    a = TrigPolySymbol(g.n, 1, [(p, w, np.array([[0.7]]))])
    expect = 0.7 * max(
        float(np.prod(np.abs(p) ** np.array(bx)) * np.prod(np.abs(w) ** np.array(gx)))
        for bx in np.ndindex(*((2,) * g.n)) for gx in np.ndindex(*((2,) * g.n)))
    return abs(pi_seminorm(a, g) - expect) / expect


@check("quantization", 0.10,
       "operator norm estimates stable under refinement for pi-normalized symbols")
def _chk_norm_bound_stability(cfg, rng):
    k = cfg.algebra_dim
    symbols = []
    for i in range(5):
        a = random_band_symbol(cfg.n, k, check_rng(cfg.seed, f"cv_sym_{i}"))
        pa = pi_seminorm(a, cfg.grid(16))
        symbols.append(TrigPolySymbol(a.n, k, [(p, w, c / pa)
                                               for p, w, c in a.terms]))
    estimates = {}
    for npts in (32, 64):
        g = cfg.grid(npts)
        estimates[npts] = [
            operator_norm_estimate(PdoOp(a), g, k, trials=4,
                                   power_iters=8, seed=cfg.seed + i)[0]
            for i, a in enumerate(symbols)]
    drift = max(abs(a - b) / max(a, b)
                for a, b in zip(estimates[32], estimates[64]))
    bound = max(max(v) for v in estimates.values())
    # pass iff estimates are resolution-stable and uniformly bounded
    if bound > 100.0:
        return float("inf")
    return drift


@check("heisenberg", 1e-10, "E_{z,zeta,phi} preserves the inner product")
def _chk_weyl_unitarity(cfg, rng):
    p = HeisenbergPoint(*_draw_pair(cfg.n, rng), rng.uniform(-np.pi, np.pi))
    _, _, u, v = _operands(cfg, rng, 2)
    lhs = inner_product(p.apply(u), p.apply(v))
    rhs = inner_product(u, v)
    return _relative(cnorm(lhs - rhs), cnorm(rhs))


@check("heisenberg", 1e-10, "E_p E_q = E_{p.q} with the commutation phase")
def _chk_group_law(cfg, rng):
    # alpha = 1 keeps the box-edge tail below the interpolation tolerance
    g, _, u = _operands(cfg, rng, 1, alpha=1.0)
    p1 = HeisenbergPoint(*_draw_pair(g.n, rng), 0.3)
    p2 = HeisenbergPoint(*_draw_pair(g.n, rng), -0.8)
    lhs = p1.apply(p2.apply(u))
    rhs = p1.compose(p2).apply(u)
    return (lhs - rhs).sup_norm() / u.sup_norm()


@check("heisenberg", 1e-12, "conjugation T_{z,zeta} independent of the phase phi")
def _chk_phi_independence(cfg, rng):
    g, J, F, u = _operands(cfg, rng, 2)
    z, zeta = _draw_pair(g.n, rng)
    c0, c1 = conjugate_apply(LeftActionOp(F, J), (HeisenbergPoint(z, zeta, 0.0),
                                                  HeisenbergPoint(z, zeta, 1.3)), u)
    return _relative((c0 - c1).sup_norm(), c0.sup_norm())


@check("heisenberg", 1e-6, "conjugating a(x,D) shifts the symbol arguments")
def _chk_conjugation_shift(cfg, rng):
    g, J, F, u = _operands(cfg, rng, 2)
    z, zeta = _draw_pair(g.n, rng)
    lhs = conjugate_operator(LeftActionOp(F, J), z, zeta).apply(u)
    rhs = TranslationSymbol(F, J).shift(z, zeta).quantize(u)
    return _relative((lhs - rhs).sup_norm(), lhs.sup_norm())


@check("heisenberg", 1e-9, "translation symbols satisfy a_{z,zeta} = a_{z - J zeta, 0}")
def _chk_translation_collapse(cfg, rng):
    g, J, F = _operands(cfg, rng, 1, points=32)
    pairs = _shifted_pair(TranslationSymbol(F, J), J, g, rng)
    buf = np.empty((g.points,) * (2 * g.n - 1) + F.samples.shape[-2:], dtype=complex)
    scale, err = np.max([(cnorm_sup(x), cnorm_sup(np.subtract(x, y, out=buf)))
                         for x, y in pairs], 0)
    return _relative(float(err), float(scale))


@check("heisenberg", 1e-8, "Fourier and right-action intertwining relations")
def _chk_intertwining(cfg, rng):
    g, J = _operands(cfg, rng)
    z = g.spacing * rng.integers(-3, 4, size=g.n)
    zeta = g.dual_spacing * rng.integers(-3, 4, size=g.n)
    gg = matrix_gaussian(g, cfg.algebra_dim, rng, alpha=0.5)
    u = matrix_gaussian(g, cfg.algebra_dim, rng, alpha=0.5)
    res = intertwine_check(z, zeta, gg, J, u)
    return _relative(_worst(res.values()), module_norm(u))


@check("heisenberg", 1.0,
       "difference quotients of the conjugation family converge at first order")
def _chk_smoothness_order(cfg, rng):
    g, J, F, u = _operands(cfg, rng, 2)
    dF = ModuleFunction(g, fourier_multiplier(F.samples, [g.spacing] * g.n,
                                              lambda nus: 1j * nus[0]))
    d = np.zeros(2 * g.n)
    d[0] = 1.0
    rep = smoothness_probe(LeftActionOp(F, J), d, [0.2, 0.1, 0.05, 0.025], u,
                           derivative=LeftActionOp(dF, J))
    order = rep["order"]
    # centered differences observe order ~2; pass requires order >= 1
    return 1.0 / order if order > 0 else float("inf")


@check("calculus", 1e-10, "integral of t exp(-t) over the half line is 1")
def _chk_gamma_mass(cfg, rng):
    return abs(GammaKernel().mass() - 1.0)


@check("calculus", 1e-8, "gamma reproduction returns constants exactly")
def _chk_gamma_reproduce_const(cfg, rng):
    k = cfg.algebra_dim
    c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    val = gamma_reproduce(lambda p: np.broadcast_to(c, (len(p), k, k)), GammaKernel())
    return float(np.abs(val - c).max()) / float(np.abs(c).max())


@check("calculus", 1e-6, "gamma reproduction of exp(it) returns 1")
def _chk_gamma_reproduce_wave(cfg, rng):
    val = gamma_reproduce(lambda p: np.exp(1j * p[..., 0])[..., None, None],
                          GammaKernel(), n=1)
    return abs(val[0, 0] - 1.0)


@check("calculus", 1e-5,
       "gamma reproduction of a matrix Gaussian returns its value at zero")
def _chk_gamma_reproduce_gauss(cfg, rng):
    k = cfg.algebra_dim
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    c = rng.uniform(-0.5, 0.5, size=2)
    f = lambda p: np.exp(-((p[..., 0] - c[0]) ** 2 + (p[..., 1] - c[1]) ** 2)
                         / 2.0)[..., None, None] * M
    val = gamma_reproduce(f, GammaKernel(nodes=200), n=2)
    ref = f(np.zeros((1, 2)))[0]
    return float(np.abs(val - ref).max()) / float(np.abs(ref).max())


@check("calculus", 1e-12, "plane waves are eigenvectors of the (1+d)^2 operator")
def _chk_b_eigenvalue(cfg, rng):
    p, w = _draw_pair(cfg.n, rng)
    a = TrigPolySymbol(cfg.n, 1, [(p, w, np.array([[1.0]]))])
    b = b_transform(a)
    expect = np.prod((1 + 1j * p) ** 2) * np.prod((1 + 1j * w) ** 2)
    return abs(b.terms[0][2][0, 0] - expect) / abs(expect)


@check("calculus", 1e-10, "gamma reconstruction inverts the (1+d)^2 transform")
def _chk_gamma_round_trip(cfg, rng):
    a = random_band_symbol(cfg.n, cfg.algebra_dim, rng)
    rt = gamma_reconstruct(b_transform(a), GammaKernel())
    worst = _worst(float(np.abs(c1 - c2).max())
                   for (_, _, c1), (_, _, c2) in zip(rt.terms, a.terms))
    scale = max(float(np.abs(c).max()) for _, _, c in a.terms)
    return worst / scale


@check("calculus", 1e-10, "round trip preserves translation symbols")
def _chk_gamma_round_trip_translation(cfg, rng):
    _, J, F = _operands(cfg, rng, 1, points=32)
    a = TranslationSymbol(F, J)
    rt = gamma_reconstruct(b_transform(a), GammaKernel())
    return (rt.F - F).sup_norm() / F.sup_norm()


@check("calculus", 1e-13, "{F(x - J xi), G(x + J xi)} = 0")
def _chk_bracket_nullity(cfg, rng):
    g, J, F, G = _operands(cfg, rng, 2, points=16)
    a = TranslationSymbol(F, J)
    b = TranslationSymbol(G, J.rescaled(-1.0))
    return _relative(cnorm_sup_slabs(poisson_bracket(a, b).slabs(g)),
                     cnorm_sup_slabs(a.slabs(g)))


@check("calculus", 1e-10, "{a, a} = 0 for scalar symbols")
def _chk_bracket_antisymmetry(cfg, rng):
    g = cfg.grid(16)
    a = random_band_symbol(cfg.n, 1, rng)
    return cnorm_sup_slabs(poisson_bracket(a, a).slabs(g))


@check("calculus", 1e-6,
       "translation symbols commute with the sheared coordinate functions")
def _chk_coordinate_brackets(cfg, rng):
    g, J, F = _operands(cfg, rng, 1, points=16)
    a = TranslationSymbol(F, J)
    resids = [cnorm_sup_slabs(poisson_bracket(
        a, coordinate_symbol(J, i, cfg.algebra_dim)).slabs(g)) for i in range(g.n)]
    return _relative(_worst(resids), cnorm_sup_slabs(a.slabs(g)))


@check("rieffel_pipeline", 1e-5,
       "full recovery chain returns the generating function F")
def _chk_recovery(cfg, rng):
    g, J = _operands(cfg, rng, points=32)
    F = band_limited_field(g, cfg.algebra_dim, rng)
    a = TranslationSymbol(F, J)
    b = b_transform(a)
    # shifted-symbol invariance of the transformed symbol
    inv = cnorm_sup_slabs(slab_differences(_shifted_pair(b, J, g, rng)))
    rec = gamma_reconstruct(b, GammaKernel())
    Fr, resid = recover_translation_symbol(rec, J, g)
    return _relative(_worst([(Fr - F).sup_norm(), resid, inv]), F.sup_norm())


@check("rieffel_pipeline", 1e-6,
       "directional derivative certificate vanishes on translation symbols")
def _chk_certificate(cfg, rng):
    g, J = _operands(cfg, rng, points=32)
    F = band_limited_field(g, cfg.algebra_dim, rng)
    cert = translation_certificate(TranslationSymbol(F, J), J, g)
    return _relative(cert, F.sup_norm())


@check("rieffel_pipeline", 1.0, "non-translation symbol rejected with large residual")
def _chk_rejection(cfg, rng):
    g, J = _operands(cfg, rng, points=16)
    if cfg.n == 1:
        return 0.0
    # a translation symbol for the form J' = (theta + 0.25) Omega: F(x - J' xi)
    # has no translation form for J, so recovery against J must reject it
    bad = TranslationSymbol(band_limited_field(g, cfg.algebra_dim, rng),
                            SkewForm(J.theta + 0.25))
    scale = cnorm_sup_slabs(bad.slabs(g))
    _, resid = recover_translation_symbol(bad, J, g)
    # pass iff the rejection residual clears 0.1 * scale
    return _relative(0.1 * scale, resid)


@check("rieffel_pipeline", 1e-10, "recovery of a recovered symbol is stable")
def _chk_idempotence(cfg, rng):
    g, J = _operands(cfg, rng, points=32)
    F = band_limited_field(g, cfg.algebra_dim, rng)
    F1, r1 = recover(TranslationSymbol(F, J), J, g)
    F2, r2 = recover(TranslationSymbol(F1, J), J, g)
    return _relative(_worst([(F2 - F1).sup_norm(), r1, r2]), F1.sup_norm())


def run_suite(config: SuiteConfig) -> VerificationReport:
    names = SUITE_NAMES if config.suite == "all" else (config.suite,)
    checks = []
    all_pass = True
    for suite in names:
        for check_id, anchor, default_tol, _, fn in SUITE_CHECKS[suite]:
            full_id = f"{suite}.{check_id}"
            rng = check_rng(config.seed, full_id)
            t0 = time.perf_counter()
            residual = fn(config, rng)
            ms = (time.perf_counter() - t0) * 1e3
            tol = float(config.tolerances.get(full_id, default_tol))
            passed = bool(residual <= tol)
            all_pass = all_pass and passed
            checks.append(CheckRecord(full_id, anchor, float(residual), tol,
                                      passed, ms))
    env = {"n": config.n, "points": config.points,
           "half_width": config.half_width, "algebra_dim": config.algebra_dim,
           "theta": config.skew().theta, "seed": config.seed}
    return VerificationReport(config.suite, env, tuple(checks), all_pass)
