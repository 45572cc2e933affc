"""Poisson brackets, the gamma-kernel calculus, and symbol recovery.

The kernel gamma(t) = t e^{-t} (t >= 0) reproduces point values through

    integral gamma(t) (1 - d/dt)^2 f(t) dt = f(0),

tensorized per axis in n dimensions.  Applying the fourth-order operator
b = prod_j (1 + d_{x_j})^2 (1 + d_{xi_j})^2 a and convolving against
gamma x gamma inverts exactly: on a plane wave e^{i nu t} the operator
contributes (1 + i nu)^2 per axis while the gamma Laplace factor
integral gamma(t) e^{-i nu t} dt = 1/(1 + i nu)^2 cancels it.  Those
factors do not depend on the symbol: GammaKernel.laplace memoizes each table
on (kernel, nu's shape, nu's bytes), at most 32 of them, read-only.

recover_translation_symbol reads F(z) = a(z, 0) off a's slabs on the
one-node dual box xi = 0, whatever the backing, and measures how far a is
from the translation form F(x - J xi);
the directional certificate d a/d xi_i = sum_j J_ij d a/d x_j vanishes
exactly on translation symbols.  Both fold cnorm_sup over the differences
of zipped PhaseSymbol.slabs streams: symbols are never read through eval.
The recovery residual subtracts into the slab of the translation stream it
creates itself; the certificate scales and subtracts in one buffer of its
own, since a grid symbol's slabs are read-only views of its samples.

recover works on the operator T = a(x, D) instead: an operator that commutes
with the right action is left multiplication by T(1), so it returns F = T(1)
and the residual sup ||T u - T(1) x_J u|| / sup ||u|| on one seeded probe u.
T(1) and T u come from one dense pass over the stacked coefficients of
[1 | u] (one slab stream of a, on the 9 x 9 dual box that u's modes -4..4
and the constant's delta at xi = 0 occupy), read off their exact zeros.
The product T(1) x_J u is deformed_product on u's samples: its roundoff
cut keeps the 9 rows of u's band, so its q2 loop visits only those.  The
probe is a constant of (grid, k): u, sup ||u|| and the dense pass's frozen
plan (its box, phase table and N per-slab block matrices: 1.35 MB at
N = 32, k = 2) are memoized on that key, at most 8 probes, read-only; the
shear's real table is memoized on (N, L, the box's xi_0 rows, J_10), at
most 4.  Only the fixed probe is planned once: a plan memoized on a generic
caller's coefficients would keep full-box plans (8 MiB at N = 32, k = 2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import cnorm_sup, cnorm_sup_slabs
from .deformation import SkewForm, deformed_product
from .errors import GridMismatchError
from .grids import GridSpec, grid_transform
from .module_space import ModuleFunction
from .quantization import (CallableSymbol, PhaseSymbol, TranslationSymbol,
                           dense_apply, dense_plan, random_band_coefficients)


T_MAX = 40.0
FD_STEP = 3e-3  # gamma_reproduce's central-difference step
PROBE_SEED = 1993  # seeds recover's band-limited probe u


@dataclass(frozen=True)
class GammaKernel:
    """Quadrature model of gamma(t) = t e^{-t} on [0, T_MAX].

    Gauss-Legendre nodes mapped to [0, T_MAX]; the tail beyond T_MAX = 40 is
    below 1e-15, so the truncation is invisible at double precision.
    """

    nodes: int = 400

    def quadrature(self):
        """(nodes, weights) on [0, T_MAX], shared read-only arrays."""
        return _gauss_legendre(self.nodes)

    @staticmethod
    def gamma(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, t * np.exp(-np.minimum(t, 700.0)), 0.0)

    def mass(self) -> float:
        t, w = self.quadrature()
        return float(np.sum(w * self.gamma(t)))

    def laplace(self, nu) -> np.ndarray:
        """Quadrature value of integral gamma(t) e^{-i nu t} dt, which is
        1/(1 + i nu)^2 up to truncation; vectorized over nu (a 0-d nu gives
        a 0-d array).  Memoized on (kernel, nu's shape, nu's bytes), at most
        32 tables, each read-only: a recovery chain asks for the same four
        frequency arrays of its grid on every symbol."""
        nu = np.asarray(nu, dtype=float)
        return _laplace_table(self, nu.shape, nu.tobytes())


@functools.lru_cache(maxsize=32)
def _laplace_table(kernel: GammaKernel, shape: tuple, data: bytes) -> np.ndarray:
    """kernel.laplace of the float array with this shape and these bytes.  A
    kernel compares by class and node count, so a kernel of another node
    count, or a subclass, never reads this one's table."""
    t, w = kernel.quadrature()
    nu = np.frombuffer(data).reshape(shape)
    table = np.asarray(np.einsum("m,...m->...", w * kernel.gamma(t),
                                 np.exp(-1j * nu[..., None] * t)))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights mapped to [0, T_MAX], computed once
    per node count: leggauss solves a nodes x nodes eigenproblem."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = T_MAX / 2.0
    t, w = half * (x + 1.0), half * w
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


# ---------------------------------------------------------------------------
# Poisson bracket


def _unit(n, j):
    e = [0] * n
    e[j] = 1
    return tuple(e)


class _BracketSymbol(PhaseSymbol):
    """{a, b} = sum_j (d_x_j a)(d_xi_j b) - (d_xi_j a)(d_x_j b), with matrix
    factors multiplied in the written order."""

    def __init__(self, a: PhaseSymbol, b: PhaseSymbol):
        if a.n != b.n or a.algebra_dim != b.algebra_dim:
            raise GridMismatchError("bracket factors have mismatched dimensions")
        self.n = a.n
        self.algebra_dim = a.algebra_dim
        zero = (0,) * a.n
        self.pairs = []
        for j in range(a.n):
            ej = _unit(a.n, j)
            self.pairs.append((1.0, a.partial(ej, zero), b.partial(zero, ej)))
            self.pairs.append((-1.0, a.partial(zero, ej), b.partial(ej, zero)))

    def eval(self, x, xi):
        return self._signed_sum(
            (sign, da.eval(x, xi), db.eval(x, xi)) for sign, da, db in self.pairs)

    def _fill(self, grid, out, box):
        # slab i from slab i of each of the 4n factor streams
        streams = [f.slabs(grid, box) for _, da, db in self.pairs for f in (da, db)]
        signs = [sign for sign, _, _ in self.pairs]
        for i, r in enumerate(zip(*streams)):
            yield self._signed_sum(zip(signs, r[0::2], r[1::2]), out[i % len(out)])

    @staticmethod
    def _signed_sum(terms, out=None):
        """sum of sign * x y over the (sign, x, y) terms, written into out
        (a new array shaped by the first term if None), as k^3 plane
        multiply-adds per term: channel (a, c) gains or loses x[a, b]
        y[b, c], b in order."""
        tmp = None
        for sign, x, y in terms:
            if tmp is None:
                if out is None:
                    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
                out[...] = 0
                tmp = np.empty(out.shape[:-2], dtype=complex)
            step, k = (np.add if sign > 0 else np.subtract), out.shape[-1]
            for a, c, b in np.ndindex(k, k, k):
                np.multiply(x[..., a, b], y[..., b, c], out=tmp)
                step(out[..., a, c], tmp, out=out[..., a, c])
        return out


def poisson_bracket(a: PhaseSymbol, b: PhaseSymbol) -> PhaseSymbol:
    """The bracket field; requires derivative capability on both symbols."""
    return _BracketSymbol(a, b)


def coordinate_symbol(J: SkewForm, i: int, algebra_dim: int = 1) -> CallableSymbol:
    """b_i(x, xi) = (x_i + sum_k J_ik xi_k) * identity; its bracket with any
    translation symbol F(x - J xi) vanishes."""
    n = J.n
    eye = np.eye(algebra_dim, dtype=complex)

    def fn(x, xi):
        val = np.asarray(x[i]) + sum(J.entries[i, k] * np.asarray(xi[k])
                                     for k in range(n))
        return val[..., None, None] * eye

    def const(c):
        return lambda x, xi: c * np.ones(np.broadcast(
            *(np.atleast_1d(v) for v in list(x) + list(xi))).shape)[..., None, None] * eye

    partials = {}
    for j in range(n):
        partials[(_unit(n, j), (0,) * n)] = const(1.0 if j == i else 0.0)
        partials[((0,) * n, _unit(n, j))] = const(J.entries[i, j])
    return CallableSymbol(n, algebra_dim, fn, partials)


# ---------------------------------------------------------------------------
# gamma reproduction


def gamma_reproduce(f, kernel: GammaKernel, n: int = 1) -> np.ndarray:
    """Quadrature of gammabar(t) * prod_j (1 - d_j)^2 f(t) over [0, T_MAX]^n.

    f maps points of shape (..., n) to (..., k, k); each (1 - d_j)^2 is a
    fourth-order central difference with step FD_STEP, so f is evaluated on
    5^n shifted copies of the nodes.  Returns approximately f(0), (k, k).
    """
    t, w = kernel.quadrature()
    grids = np.meshgrid(*([t] * n), indexing="ij")
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)          # (M, n)
    gw = np.ones(pts.shape[0])
    for d in range(n):
        gw = gw * wgrids[d].ravel() * kernel.gamma(pts[:, d])
    h = FD_STEP
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    e0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    wts = e0 - 2.0 * d1 + d2                                      # (1 - d)^2
    offs = h * np.arange(-2, 3)
    total = 0
    for s in np.ndindex(*((5,) * n)):
        c = float(np.prod([wts[sj] for sj in s]))
        shifted = pts + np.array([offs[sj] for sj in s])
        total = total + c * np.asarray(f(shifted), dtype=complex)
    return np.einsum("m,mab->ab", gw, total)


# ---------------------------------------------------------------------------
# the b transform and its gamma inverse


def b_transform(a: PhaseSymbol) -> PhaseSymbol:
    """b = prod_j (1 + d_{x_j})^2 (1 + d_{xi_j})^2 a (linear, exact on the
    closed-form backings, spectral on grid backings).

    On the grid and translation backings the multiplier prod |1 + i nu|^2
    reaches about 7e6 at the band edge of an N = 32 grid (L = 8) and
    amplifies roundoff there, so those results agree with the exact trig
    result only to about 1e-10 relative (1.6e-12 at N = 16);
    gamma_reconstruct divides the amplification back out.
    """
    return a.multiplier(lambda nu: (1.0 + 1j * nu) ** 2)


def gamma_reconstruct(b: PhaseSymbol, kernel: GammaKernel) -> PhaseSymbol:
    """a(x, xi) = integral gammabar(y) gammabar(eta) b(x - y, xi - eta);
    left inverse of b_transform on decaying symbols."""
    return b.multiplier(kernel.laplace)


# ---------------------------------------------------------------------------
# translation-symbol recovery


def recover_translation_symbol(a: PhaseSymbol, J: SkewForm, grid: GridSpec):
    """Extract F(z) = a(z, 0) and measure the translation-form residual
    sup cnorm(a(z, zeta) - F(z - J zeta)) over the sample box.

    Row i of F is slab i of a on the one-node dual box at xi = 0 (N/2 on
    each xi axis).  Returns (F, residual); the caller compares residual
    against its own tolerance to accept or reject the translation-type
    hypothesis.
    """
    F = np.empty(grid.shape + (a.algebra_dim,) * 2, dtype=complex)
    half = grid.points // 2
    for row, slab in zip(F, a.slabs(grid, (slice(half, half + 1),) * grid.n)):
        row[...] = slab.reshape(row.shape)
    F = ModuleFunction(grid, F)
    # the translation stream's slab buffer is this call's own: subtract into it
    return F, cnorm_sup_slabs(np.subtract(x, y, out=y) for x, y in zip(
        a.slabs(grid), TranslationSymbol(F, J).slabs(grid)))


def translation_certificate(a: PhaseSymbol, J: SkewForm, grid: GridSpec) -> float:
    """sup_i sup-box cnorm(d a/d xi_i - sum_j J_ij d a/d x_j), from a's own
    partials; zero exactly when a has the translation form F(x - J xi).

    J is antisymmetric and n <= 2, so d a/d xi_i meets at most one x-partial,
    j = 1 - i, and none where J_ij = 0; J_ij d a/d x_j and the difference
    are made in one slab buffer of the fold's own (a grid partial's slabs
    are read-only views), and each x-partial is made only when it is read."""
    n = a.n
    zero = (0,) * n

    def differences():
        buf = None
        for i in range(n):
            dxi = a.partial(zero, _unit(n, i)).slabs(grid)
            j = 1 - i
            if n == 1 or not J.entries[i, j]:
                yield from dxi
                continue
            for x, s in zip(dxi, a.partial(_unit(n, j), zero).slabs(grid)):
                buf = np.multiply(J.entries[i, j], s, out=buf)
                yield np.subtract(x, buf, out=buf)
    return cnorm_sup_slabs(differences())


def recover(a: PhaseSymbol, J: SkewForm, grid: GridSpec):
    """F = T(1) and the operator residual sup ||T u - F x_J u|| / sup ||u||
    of T = a(x, D), for one seeded band-limited probe u.

    An operator that commutes with the right action R_G u = u x_J G is left
    multiplication by T(1): T(G) = T(R_G 1) = R_G T(1) = T(1) x_J G.  So the
    residual vanishes, to roundoff, on a translation symbol F(x - J xi) and
    measures how far T is from L_F otherwise.  T runs once, through the
    generic dense quantize (never TranslationSymbol.quantize, which is L_F
    itself), on the stacked coefficients of [1 | u] as made: u's draw and
    the constant's exact delta, so the dense pass's box holds u's modes and
    xi = 0 only.  F x_J u is deformed_product(F, u, J) on u's samples.  u,
    sup ||u|| and the frozen dense plan depend only on (grid, k) and are
    memoized on it (_probe: at most 8 probes, read-only), so a second call
    on a grid plans nothing and applies the plan to a's slabs only.  Returns
    (F, residual) as recover_translation_symbol does.
    """
    if J.n != grid.n:
        raise GridMismatchError(f"J dimension {J.n} != grid dimension {grid.n}")
    k = a.algebra_dim
    u, u_sup, plan = _probe(grid, k)
    out = dense_apply(a, plan)
    F = ModuleFunction(grid, np.ascontiguousarray(out[..., :k]))
    return F, cnorm_sup(out[..., k:] - deformed_product(F, u, J).samples) / u_sup


@functools.lru_cache(maxsize=8)
def _probe(grid: GridSpec, k: int):
    """recover's probe u on (grid, k), its samples read-only, sup ||u||, and
    the frozen dense plan over the stacked coefficients [1 | u]."""
    uh = random_band_coefficients(grid, k, np.random.default_rng(PROBE_SEED))
    u = ModuleFunction(grid, grid_transform(uh, grid, inverse=True))
    u.samples.flags.writeable = False
    # the constant's coefficients are a delta at xi = 0, kept exact (its
    # height is the transform's own) so that they add no node to u's box
    one = np.zeros_like(uh)
    centre = (grid.points // 2,) * grid.n
    one[centre] = grid_transform(np.ones(grid.shape), grid)[centre] * np.eye(k)
    plan = dense_plan(grid, np.concatenate([one, uh], axis=-1)).frozen()
    return u, u.sup_norm(), plan
