"""Kohn-Nirenberg quantization of matrix-valued phase-space symbols.

A symbol a(x, xi) acts on module functions through

    a(x,D) u(x) = integral e^{i x xi} a(x, xi) u^(xi) d/xi,

with the frequency integral realized on the dual grid.  The module also
provides the sup-derivative seminorm pi(a) over multi-indices <= (1,...,1),
the adjoint symbol p with <a(x,D)u, v> = <u, p(x,D)v>, the symbol-to-kernel
transform, and a randomized lower estimate of the operator norm.

Symbol backings (each implements eval; PhaseSymbol's generic quantize runs
on its slabs, and every quantize checks the symbol's n and k against u's):

  * CallableSymbol    -- closed-form evaluator, optional analytic partials
  * TrigPolySymbol    -- finite sum  C e^{i p.x} e^{i w.xi}  (band-limited)
  * GridSymbol        -- samples on grid.axis()^n x grid.dual_axis()^n
  * TranslationSymbol -- a(x, xi) = F(x - J xi), the symbols of the left
                         actions L_F; eval is F's Fourier series as a trig sum

A grid symbol and a translation symbol are bound to one grid, their
samples' or F's: sample and slabs on any grid that is not compatible with
it raise GridMismatchError, as do quantize, deformed_product and every
reader built on slabs.  The one route to another grid is pointwise,
CallableSymbol(a.n, a.algebra_dim, a.eval).sample(grid).

A partial, a shift a(x + z, xi + zeta), the b/gamma multipliers and the
adjoint each multiply the symbol's own phase-space Fourier transform; none
takes a grid.  A backing states that once, as fourier_side(mult), and
PhaseSymbol derives partial, shift, multiplier(fn) and adjoint() from it.  A
trig term is scaled exactly at its (p, w); a grid symbol takes one
grids.fourier_multiplier; a translation symbol multiplies F^ at (nu, J nu)
and stays one (its adjoint is F*(x - J xi)).  Any other backing raises
CapabilityError: sample it first, a.sample(grid).

Sampling is stated once too: a backing's writer _fill(grid, out, box)
writes slab i of the first x axis on a dual box (n slices of the dual axes)
into out[i % len(out)] and yields it; sample runs it on the full box into
the product grid and slabs(grid, box) into one reused slab, so a supremum,
the dense quantize and a kernel's apply never hold the product grid whole:
row x_0 = x_i of a(x,D) u, or of K u, reads only slab i.  The generic
writer calls eval once per slab.  A trig writer tabulates each term's 2n
one-dimensional waves (2n N exp calls, not N^(2n)) and sums the T terms of
a slab as one (N^(n-1) M x T) @ (T x k^2) product, M nodes in the box; a
symbol with no terms writes zeros.  A translation symbol writes by a shear
(F's forward transform, cut to the nu_1 columns above the FFT's noise floor
by grids.roundoff_cut, and one phased inverse along x_0 for the box's xi_1
columns, then per slab one real GEMM for x_1's phase and inverse DFT on its
xi_0 rows, whose conjugate columns it folds, over the kept pairs alone), or
by broadcasting F's slabs at J = 0.  A bracket multiplies its factors'
slabs; a grid symbol yields basic-slice views of its samples.
Those views are read-only; every other stream writes into a slab buffer of
its own, scratch that the caller who drew the stream may overwrite
(recover_translation_symbol subtracts into its translation stream's slab),
so a fold that writes into a slab raises before it can reach a symbol's
samples.

pi_seminorm's supremum over the 4^n partials d^beta_x d^gamma_xi a,
beta, gamma <= (1, ..., 1), folds each partial's slabs in turn.  A backing
may bound a partial's norm everywhere, partial_bound(dx, dxi); by default
the bound is inf.  A trig partial is the trig sum of the coefficients
c_t^o = (i p_t)^beta (i w_t)^gamma C_t, so sum_t ||c_t^o||_2 bounds it.
pi_seminorm visits the partials by descending bound and skips one whose
bound cannot reach the running supremum (less a rounding margin): at the
verify suites' symbols it draws one partial's slabs in all.

The generic quantize is dense_quantize(a, grid, coeffs) on the Fourier
coefficients grid_transform(rhs) of an rhs of shape grid.shape + (k, C).
a(x, D) acts on the left matrix index only, so the right index is a batch
axis: m fields side by side (C = m k) run as one pass over a's slabs, one
GEMM per slab, and column block j of the result is a(x, D) of field j.
Only the coefficients' dual_box enters the sum, read as a.slabs(grid, box):
a full-band input gets the full box, recover's probe on modes -4..4 and
the constant's delta at xi = 0 a 9 x 9 box (of 32 x 32 at N = 32).
PhaseSymbol.quantize is the m = 1 case and transforms u itself.  The pass
is dense_plan (tables that do not read a) then dense_apply; dense_quantize
keeps no plan, and recover keeps its fixed probe's plan frozen.

TrigPolySymbol also overrides quantize: it translates u to u(x + w) for the
terms with w != 0, 8 at a time, through grids.translates (one forward FFT
and one batched inverse, channels first: O(N^n log N k^2) per term), and a
term with w = 0 reuses u untransformed; e^{i p.x} is multiplied into the
translates' batch buffer (into a copy for w = 0, never into u), and C is
applied as k^2 scalar-by-plane multiply-adds on channels-first planes.

The adjoint symbol uses the fact that p is the convolution of a* against the
kernel e^{-i z.eta} (2*pi)^(-n), whose 2n-dimensional Fourier transform is
the pure phase e^{i u.w}: p = Finv[ F[a*](u, w) * e^{i u.w} ].

Operator handles: LeftActionOp (L_F, adjoint L_{F*}), PdoOp (a(x, D), adjoint
PdoOp(a.adjoint())), ComposedOp and heisenberg.HeisenbergPoint.  One without
an adjoint raises CapabilityError; R_G u is deformed_product(u, G, J).
apply_many(us) is the tuple of apply(u) over us; LeftActionOp runs it as one
batched deformed_product.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import SQUARES_MAX, SQUARES_MIN, cnorm_entries, cnorm_sup_slabs
from .deformation import SkewForm, deformed_product
from .errors import CapabilityError, GridMismatchError
from .grids import (TWO_PI, GridSpec, axis_transform, fourier_multiplier,
                    grid_transform, roundoff_cut, separable_wave, translates)
from .module_space import ModuleFunction, module_norm, unit_scaled


# ---------------------------------------------------------------------------
# symbol backings


class PhaseSymbol:
    """Base class: a function R^n x R^n -> M_k(C) (protocol in the module
    docstring)."""

    n: int
    algebra_dim: int

    def eval(self, x, xi) -> np.ndarray:
        """Evaluate at coordinate arrays x = (x_1..x_n), xi = (xi_1..xi_n),
        broadcastable against each other; returns broadcast shape + (k, k)."""
        raise NotImplementedError

    def fourier_side(self, mult) -> "PhaseSymbol":
        """The symbol whose phase-space Fourier transform is this one's times
        mult(freqs); freqs are the 2n frequency arrays (x slots, then xi
        slots), broadcast against each other.  Backings without a spectrum
        of their own raise: sample them first."""
        raise CapabilityError(
            f"{type(self).__name__} has no spectrum: sample it first")

    def partial(self, dx, dxi) -> "PhaseSymbol":
        """The symbol d^dx_x d^dxi_xi a; dx, dxi are multi-indices."""
        orders = tuple(dx) + tuple(dxi)
        if not any(orders):
            return self
        return self.fourier_side(
            lambda freqs: math.prod((1j * f) ** o for f, o in zip(freqs, orders)))

    def shift(self, z, zeta) -> "PhaseSymbol":
        """The symbol (x, xi) -> a(x + z, xi + zeta): the multiplier e^{i t.f}."""
        t = np.concatenate([np.asarray(z, float), np.asarray(zeta, float)])
        if not t.any():
            return self
        return self.fourier_side(
            lambda freqs: np.exp(1j * sum(ti * f for ti, f in zip(t, freqs))))

    def star(self) -> "PhaseSymbol":
        """Pointwise involution (x, xi) -> a(x, xi)*."""
        raise CapabilityError(f"{type(self).__name__} has no star: sample it first")

    def sample(self, grid: GridSpec) -> "GridSymbol":
        """Samples on the product grid grid.axis^n x grid.dual_axis^n."""
        out = np.empty(grid.shape * 2 + (self.algebra_dim,) * 2, dtype=complex)
        for _ in self._fill(grid, out, full_box(grid)):
            pass
        return GridSymbol(grid, out)

    def slabs(self, grid: GridSpec, box=None):
        """For each node i of the first x axis, an array equal to
        sample(grid).samples[i] on the dual box (n slices of the dual axes,
        all of them if None), of shape (N,)^(n-1) + box + (k, k).  Each is
        valid only until the next one is drawn (one slab buffer is reused),
        so reduce it before drawing the next.  The buffer is the caller's
        scratch; a grid symbol yields read-only views."""
        box = box or full_box(grid)
        return self._fill(grid, np.empty(
            (1,) + grid.shape[1:] + tuple(len(q) for q in box_nodes(grid, box))
            + (self.algebra_dim,) * 2, dtype=complex), box)

    def partial_bound(self, dx, dxi) -> float:
        """An upper bound on ||d^dx_x d^dxi_xi a|| everywhere, or inf: here
        inf."""
        return math.inf

    def _fill(self, grid: GridSpec, out: np.ndarray, box):
        """Write slab i of the samples on the dual box into out[i % len(out)]
        (every slab, or one reused slab) and yield it, i = 0 .. N-1 in turn:
        here by eval with the first x coordinate fixed at node i."""
        n = grid.n
        rest = list(np.meshgrid(*([grid.axis()] * (n - 1) + box_nodes(grid, box)),
                                indexing="ij"))
        for i, x0 in enumerate(grid.axis()):
            slab = out[i % len(out)]
            slab[...] = self.eval([np.full_like(rest[0], x0)] + rest[:n - 1],
                                  rest[n - 1:])
            yield slab

    def quantize(self, u: ModuleFunction) -> ModuleFunction:
        """a(x,D) u = sum_q e^{i x.q} a(x, q) u^(q) by the dense sum over dual
        nodes q, one slab at a time (backings override it where exact)."""
        return ModuleFunction(u.grid, dense_quantize(
            self, u.grid, grid_transform(u.samples, u.grid)))

    def multiplier(self, fn) -> "PhaseSymbol":
        """The symbol whose phase-space Fourier transform is this one's times
        prod over all 2n axes of fn(nu_axis)."""
        return self.fourier_side(lambda freqs: math.prod(fn(f) for f in freqs))

    def adjoint(self) -> "PhaseSymbol":
        """The symbol p with <a(x,D)u, v> = <u, p(x,D)v>.

        p(y, xi) = integral e^{-i z eta} a(y-z, xi-eta)* d/z d/eta, evaluated
        by the Fourier-multiplier form p = Finv[ F[a*](u, w) e^{i u.w} ].
        """
        n = self.n
        return self.star().fourier_side(
            lambda f: np.exp(1j * sum(f[d] * f[n + d] for d in range(n))))


def _check_dims(a: PhaseSymbol, grid: GridSpec, shape: tuple) -> None:
    """An rhs or its coefficients must be of shape grid.shape + (k, c), with
    a's n and k."""
    if a.n != grid.n or shape[:-1] != grid.shape + (a.algebra_dim,):
        raise GridMismatchError("symbol and function dimensions do not match")


def _check_grid(own: GridSpec, grid: GridSpec) -> None:
    """Raise GridMismatchError unless grid is compatible with own, the one
    grid that a grid symbol, a translation symbol or a kernel is read on."""
    if not own.compatible(grid):
        raise GridMismatchError(f"{grid} is not the operand's own grid {own}")


def _block_rhs(w: np.ndarray) -> np.ndarray:
    """V[(m, a', b), (a, c)] = delta(a, a') w[m, b, c] for w of shape (M, k, C):
    an (X x M k^2) matrix of entries s[x, m, a, b] times V is sum_{m, b}
    s[x, m, a, b] w[m, b, c], so a slab is contracted in its own layout."""
    m, k, cols = w.shape
    V = np.zeros((m, k, k, k, cols), dtype=complex)
    for a in range(k):
        V[:, a, :, a, :] = w
    return V.reshape(m * k * k, k * cols)


def full_box(grid: GridSpec) -> tuple:
    """The box of every dual node: one whole slice per dual axis."""
    return (slice(None),) * grid.n


def dual_box(grid: GridSpec, coeffs: np.ndarray) -> tuple:
    """The dual box of coefficients laid out on grid.shape + (...): per dual
    axis, the smallest contiguous index range that holds every non-zero
    coefficient (empty if there is none), as n slices."""
    nodes = np.nonzero(coeffs.reshape(grid.shape + (-1,)).any(axis=-1))
    return tuple(slice(i.min(), i.max() + 1) if i.size else slice(0, 0)
                 for i in nodes)


def box_nodes(grid: GridSpec, box) -> list:
    """The dual axis nodes of each slice of box."""
    return [grid.dual_axis()[b] for b in box]


class DensePlan(NamedTuple):
    """The tables of a dense pass that depend on its grid and coefficients
    but not on the symbol: the coefficients' dual box; rest, the phase
    e^{i x'.q'} on it, (N,)^(n-1) + box + (k^2,), one copy per channel; and
    rhs, per slab i the (M k^2 x k C) block matrix _block_rhs(e^{i x_i q_0}
    coeffs(q)) (M nodes in the box).  dense_plan makes rhs a one-pass stream
    that builds each matrix when its slab is reached, so a full-box plan
    (M = N^n) never holds N of them; frozen() stacks them for a plan that is
    applied again."""

    grid: GridSpec
    shape: tuple                   # the coefficients' shape, grid.shape + (k, C)
    box: tuple
    rest: np.ndarray
    rhs: Iterable[np.ndarray]

    def frozen(self) -> "DensePlan":
        """This plan with rhs stacked into one (N, M k^2, k C) array, rest
        and rhs read-only, so that it can be applied any number of times."""
        rhs = np.stack(list(self.rhs))
        rhs.flags.writeable = self.rest.flags.writeable = False
        return self._replace(rhs=rhs)


def dense_plan(grid: GridSpec, coeffs: np.ndarray) -> DensePlan:
    """dense_quantize's plan for coefficients laid out on grid.shape + (k, C).
    Never memoize it on the coefficients: a generic caller's full-box plan,
    kept frozen, holds N^(n+1) k^2 x k C entries (8 MiB at N = 32, k = C =
    2)."""
    g, k, cols = grid, coeffs.shape[-2], coeffs.shape[-1]
    box = dual_box(g, coeffs)
    qs = box_nodes(g, box)
    uh = coeffs[box].reshape(-1, k, cols)                     # (M, k, C)
    axes = np.meshgrid(*([g.axis()] * (g.n - 1) + qs), indexing="ij", sparse=True)
    rest = np.exp(1j * sum(axes[d] * axes[g.n + d] for d in range(g.n - 1)))
    rest = np.repeat(rest[..., None], k * k, axis=-1)
    first = np.exp(1j * np.multiply.outer(
        g.axis(), np.meshgrid(*qs, indexing="ij")[0].ravel()))
    return DensePlan(g, coeffs.shape, box, rest,
                     (_block_rhs(f[:, None, None] * uh) for f in first))


def dense_apply(a: PhaseSymbol, plan: DensePlan) -> np.ndarray:
    """dense_quantize of a on the coefficients plan was made from.  Each
    slab of a on the plan's box, in its own (x', q, k^2) layout (x' the
    other n - 1 x axes), is multiplied by rest into one reused buffer, and
    one (N^(n-1) x M k^2) @ (M k^2 x k C) GEMM contracts it with slab i's
    rhs matrix into row x_0 = x_i of the result."""
    g, k = plan.grid, a.algebra_dim
    _check_dims(a, g, plan.shape)
    out = np.empty(plan.shape, dtype=complex)
    rows = out.reshape(g.points, -1, k * plan.shape[-1])      # (N, N^(n-1), k C)
    buf = None
    # strict: an unfrozen plan's spent rhs stream raises, not a blank result
    for slab, rhs, row in zip(a.slabs(g, plan.box), plan.rhs, rows, strict=True):
        buf = np.multiply(slab.reshape(slab.shape[:-2] + (k * k,)), plan.rest, out=buf)
        np.matmul(buf.reshape(rows.shape[1], -1), rhs, out=row)
    return TWO_PI ** (-g.n / 2.0) * g.dual_spacing ** g.n * out


def dense_quantize(a: PhaseSymbol, grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Samples of sum over dual nodes q of e^{i x.q} a(x, q) coeffs(q) for
    the Fourier coefficients coeffs = grid_transform(rhs) of an rhs of shape
    grid.shape + (k, C), C = m k for m fields side by side: a(x, D) acts on
    the left index only, so the right one is a batch axis and column block j
    of the result is a(x, D) of block j.

    Only the nodes of the coefficients' dual_box enter the sum (the others
    add exact zeros), so a is read through a.slabs(grid, box), and row
    x_0 = x_i of the result reads only slab i.  It plans on every call and
    keeps nothing (dense_plan, dense_apply)."""
    _check_dims(a, grid, coeffs.shape)
    return dense_apply(a, dense_plan(grid, coeffs))


class CallableSymbol(PhaseSymbol):
    """Closed-form symbol; fn(x, xi) -> broadcast + (k, k).

    partials, when given, maps (dx, dxi) multi-index pairs to evaluators of
    the same signature (analytic derivative scheme).
    """

    def __init__(self, n, algebra_dim, fn, partials=None):
        self.n = n
        self.algebra_dim = algebra_dim
        self.fn = fn
        self.partials = partials or {}

    def eval(self, x, xi):
        return np.asarray(self.fn(list(x), list(xi)), dtype=complex)

    def partial(self, dx, dxi):
        dx, dxi = tuple(dx), tuple(dxi)
        if sum(dx) == sum(dxi) == 0:
            return self
        key = (dx, dxi)
        if key not in self.partials:
            raise CapabilityError(f"no analytic partial for {key}")
        return CallableSymbol(self.n, self.algebra_dim, self.partials[key])


class TrigPolySymbol(PhaseSymbol):
    """Finite trigonometric polynomial  sum_t C_t e^{i p_t.x} e^{i w_t.xi}."""

    def __init__(self, n, algebra_dim, terms):
        """terms: list of (p, w, coeff) with p, w length-n vectors and coeff
        a (k, k) matrix; row t of the (T, 2n) array freqs is (p_t, w_t)."""
        self.n = n
        self.algebra_dim = algebra_dim
        self.terms = [(np.asarray(p, dtype=float), np.asarray(w, dtype=float),
                       np.asarray(c, dtype=complex)) for p, w, c in terms]
        self.freqs = np.array([np.concatenate([p, w])
                               for p, w, _ in self.terms]).reshape(-1, 2 * n)

    def eval(self, x, xi):
        x, xi = list(x), list(xi)
        shape = np.broadcast(*(list(np.atleast_1d(c) for c in x + xi))).shape
        out = np.zeros(shape + (self.algebra_dim,) * 2, dtype=complex)
        for p, w, c in self.terms:
            arg = sum(p[d] * np.asarray(x[d]) for d in range(self.n)) + \
                sum(w[d] * np.asarray(xi[d]) for d in range(self.n))
            out += np.exp(1j * arg)[..., None, None] * c
        return out

    def fourier_side(self, mult):
        # e^{i p.x} e^{i w.xi} is the plane wave at frequencies (p, w)
        fac = np.broadcast_to(mult(list(self.freqs.T)), len(self.terms))
        return TrigPolySymbol(self.n, self.algebra_dim, [
            (p, w, f * c) for (p, w, c), f in zip(self.terms, fac)])

    def star(self):
        return TrigPolySymbol(self.n, self.algebra_dim, [
            (-p, -w, c.conj().T) for p, w, c in self.terms])

    def _coefficients(self) -> np.ndarray:
        """The (T, k^2) matrix of the terms' coefficients, row t for C_t."""
        return np.array([c for _, _, c in self.terms]).reshape(-1, self.algebra_dim ** 2)

    def _waves(self, grid, box) -> tuple:
        """The first x axis's waves e^{i p_t,0 x_0}, (N, T), and the product
        of the other 2n - 1 axes' waves on the box, (X, T): 2n N exp calls."""
        nodes = [grid.axis()] * grid.n + box_nodes(grid, box)
        waves = [np.exp(1j * np.multiply.outer(t, f))             # (N, T) each
                 for t, f in zip(nodes, self.freqs.T)]
        rest = waves[1]
        for wave in waves[2:]:
            rest = rest[..., None, :] * wave
        # -1 is 0 for a symbol with no terms, whose slabs are zeros
        return waves[0], rest.reshape(math.prod(rest.shape[:-1]), -1)

    def _fill(self, grid, out, box):
        # slab i is the (X x T) @ (T x k^2) product rest @ (first[i] * C)
        first, rest = self._waves(grid, box)
        coef = self._coefficients()
        flat = out.reshape(len(out), rest.shape[0], coef.shape[1])
        for i, wave in enumerate(first):
            np.matmul(rest, wave[:, None] * coef, out=flat[i % len(out)])
            yield out[i % len(out)]

    def partial_bound(self, dx, dxi):
        # the partial is sum_t c_t e^{i (p_t.x + w_t.xi)}, so sum_t ||c_t||_2
        # bounds its norm everywhere
        k = self.algebra_dim
        if k * (len(self.terms) + 3 * self.n + 6) > 3000:
            return math.inf             # rounding beyond pi_seminorm's margin
        coef = self.partial(dx, dxi)._coefficients()
        return float(cnorm_entries(coef.reshape(-1, k, k)).sum())

    def quantize(self, u):
        # each term C e^{i p.x} e^{i w.xi} maps u to C e^{i p.x} u(x + w).
        # Shifted terms are translated 8 at a time, so memory does not grow
        # with T; w = 0 reuses u as it is, which keeps the identity exact.
        _check_dims(self, u.grid, u.samples.shape)
        g, k = u.grid, u.algebra_dim
        acc = np.zeros((k, k) + g.shape, dtype=complex)
        tmp = np.empty((k,) + g.shape, dtype=complex)

        def add(term, src, out=None):
            # src and acc are channels first: e^{i p.x} src into out (a new
            # array if None), then k^2 scalar-by-plane products
            p, _, c = term
            src = np.multiply(src, separable_wave(g.axis(), p), out=out)
            for a, b in np.ndindex(k, k):
                acc[a] += np.multiply(c[a, b], src[b], out=tmp)

        shifted = [term for term in self.terms if term[1].any()]
        for lo in range(0, len(shifted), 8):
            terms = shifted[lo:lo + 8]
            batch = translates(u.samples, g.spacing, [w for _, w, _ in terms])
            # the batch is this call's own buffer: modulate each translate in it
            for term, src in zip(terms, np.moveaxis(batch, (-2, -1), (1, 2))):
                add(term, src, out=src)
        for term in self.terms:
            if not term[1].any():
                add(term, np.moveaxis(u.samples, (-2, -1), (0, 1)))
        return ModuleFunction(g, np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1))))


class GridSymbol(PhaseSymbol):
    """Symbol sampled on grid.axis()^n (x slots) x grid.dual_axis()^n (xi)."""

    def __init__(self, grid: GridSpec, samples: np.ndarray):
        self.grid = grid
        self.n = grid.n
        samples = np.asarray(samples, dtype=complex)
        k = samples.shape[-1]
        if samples.shape != grid.shape * 2 + (k, k):
            raise GridMismatchError("grid symbol samples have wrong shape")
        self.samples = samples
        self.algebra_dim = k

    def spacings(self) -> list:
        """Node spacing of each sample axis, x slots then xi slots."""
        return [self.grid.spacing] * self.n + [self.grid.dual_spacing] * self.n

    def eval(self, x, xi):
        # both node sets are centered: node j of an axis with spacing d sits
        # at (j - N/2) d
        half = self.grid.points // 2
        idx = []
        for d, coords in zip(self.spacings(), list(x) + list(xi)):
            j = np.rint(np.asarray(coords, dtype=float) / d).astype(int)
            if not np.allclose(j * d, coords, rtol=0, atol=1e-9 * d):
                raise CapabilityError("grid symbol evaluated off its sample nodes")
            idx.append((j + half) % self.grid.points)
        return self.samples[tuple(np.broadcast_arrays(*idx))]

    def fourier_side(self, mult):
        return GridSymbol(self.grid, fourier_multiplier(
            self.samples, self.spacings(), mult))

    def star(self):
        return GridSymbol(self.grid, np.swapaxes(self.samples.conj(), -1, -2))

    def sample(self, grid):
        _check_grid(self.grid, grid)
        return self

    def slabs(self, grid, box=None):
        # read-only basic-slice views of sample(grid), which raises off the
        # symbol's grid: nothing is copied, and a fold that writes into its
        # slabs raises instead of changing the samples
        at = (slice(None),) * (self.n - 1) + (box or full_box(grid))
        view = self.sample(grid).samples.view()
        view.flags.writeable = False
        return (s[at] for s in view)


class TranslationSymbol(PhaseSymbol):
    """a(x, xi) = F(x - J xi): the symbol of the left action L_F."""

    def __init__(self, F: ModuleFunction, J: SkewForm):
        if J.n != F.grid.n:
            raise GridMismatchError("J dimension does not match F's grid")
        self.F = F
        self.J = J
        self.n = F.grid.n
        self.algebra_dim = F.algebra_dim

    def _trig(self) -> TrigPolySymbol:
        """F's Fourier series at x - J xi as a trig polynomial: one term
        (nu, J nu, c_nu) per non-zero mode nu of F^, c = (2 pi)^(-n/2) dnu^n
        F^(nu) (independent of _shear)."""
        g, k = self.F.grid, self.algebra_dim
        scale = TWO_PI ** (-g.n / 2.0) * g.dual_spacing ** g.n
        c = scale * grid_transform(self.F.samples, g).reshape(-1, k, k)
        nus = np.stack([d.ravel() for d in g.dual_mesh()], axis=-1)
        return TrigPolySymbol(self.n, k, [
            (nu, self.J.apply(nu), cn) for nu, cn in zip(nus, c) if cn.any()])

    def eval(self, x, xi):
        return self._trig().eval(x, xi)

    def star(self):
        return TranslationSymbol(self.F.star(), self.J)

    def _fill(self, grid, out, box):
        # the shear, or F's slabs at J = 0 (constant along xi, so they
        # broadcast into any box)
        _check_grid(self.F.grid, grid)
        if self.J.entries.any():
            return self._shear(grid, out, box)
        F = self.F.samples.reshape(grid.shape + (1,) * grid.n + (self.algebra_dim,) * 2)

        def copies():
            for i, f in enumerate(F):
                out[i % len(out)] = f
                yield out[i % len(out)]
        return copies()

    def _shear(self, grid, out, box):
        """_fill on F's own grid with J != 0, so n = 2.

        a(x, xi) = sum_nu c(nu) e^{i nu.(x - J xi)}, the trigonometric
        interpolant of F at x - J xi.  Through grid_transform, c = (dnu /
        sqrt(2 pi))^2 F^(nu) e^{i x0.nu} with nu read in FFT order (the
        inverse's (-1)^j sign as a roll by N/2); these phases, the roll and
        the scale undo F^'s own, leaving c = fftn(F) / N^2.  The phase is
        e^{-i J_01 nu0 xi1} e^{-i J_10 nu1 xi0}.  Axis 1's factor and inverse
        DFT act on nu1 as one (N B0 x N) matrix D[(x1, xi0), nu1] = e^{i (2
        pi x1 nu1 / N - J_10 nu1 xi0)} / N (nu1 the FFT index, xi0 the box's
        B0 nodes), whose columns nu1 and N - nu1 are conjugate.  So D @ H_i =
        R @ S_i with the real R = [Re D[:, :N/2+1], Im D[:, 1:N/2+1]] (N + 1
        columns, from cos and sin tables) and the rows of S_i: H_0, H_j +
        H_{N-j}, H_{N/2}, i (H_j - H_{N-j}), i H_{N/2} (j = 1 .. N/2-1).

        Only F^'s nu1 columns above the FFT's noise floor enter: column nu1
        is kept for channel (a, b) iff some |F^[nu0, nu1, a, b]| is at least
        u log2(N) times that channel's largest modulus, u = 2^-53
        (grids.roundoff_cut), every column if some channel's largest is not
        finite.  The pair (j, N - j) is kept if either member is, and K
        lists the kept pairs' columns of R, all N + 1 in order for a
        full-band F.  Each channel's cut columns are zeroed in the shear's
        own F^.  u log2(N) times the largest modulus is the normwise error
        of the FFT that made F^ (Higham, ch. 24), so a cut column holds only
        transform roundoff, and each coefficient it drops moves a sample by
        less than u log2(N) of the largest term the sample's sum adds; a
        band-limited F's samples move by about 4e-16 of their sup.  Axis 0
        takes its factor and inverse transform once, on the head H of the
        kept columns, (nu0, nu1, 1, xi1, k, k) with xi1 in the box.  Slab i
        is one real GEMM of 4 N B0 |K| B1 k^2 flops (B0 x B1 the box), for
        |K| = N + 1 about half the complex one's, with R's kept columns
        gathered once per call and S_i built in one reused |K| x B1 k^2
        buffer.  R depends only on (N, L, the box's xi_0 range, J_10), not
        on F: _shear_table keeps it on that key (see there)."""
        N, k = grid.points, self.algebra_dim
        h = N // 2
        J = self.J.entries
        nu = np.fft.ifftshift(grid.dual_axis())
        xi1 = box_nodes(grid, box)[1]
        fhat = np.fft.fftn(self.F.samples, axes=(0, 1))   # [nu0, nu1, a, b]
        kept, noise, finite = roundoff_cut(
            np.abs(fhat).max(axis=0).reshape(N, k * k).T, N)  # [ab, nu1]
        ab, cut = np.nonzero(noise)
        fhat[:, cut, ab // k, ab % k] = 0
        # the kept pairs j = 0 .. N/2: lo, of which mid are conjugate pairs;
        # the head's columns are lo, then N - j for j in mid
        j = np.arange(h + 1)
        lo = j if not finite else np.flatnonzero(
            kept[:, j].any(axis=0) | kept[:, (N - j) % N].any(axis=0))
        mid = lo[(lo > 0) & (lo < h)]
        K0, nm = lo.size, mid.size
        z0 = int(K0 > 0 and lo[0] == 0)
        e = z0 + nm   # lo[e:] is [N/2] or empty
        head = fhat.take(np.concatenate([lo, N - mid]), axis=1).reshape(
            (N, K0 + nm, 1, 1, k, k)) * np.exp(
            -1j * J[0, 1] * nu.reshape(-1, 1, 1, 1) * xi1)[..., None, None]
        np.fft.ifft(head, axis=0, out=head)
        R = _shear_table(N, grid.half_width, box[0].indices(N), float(J[1, 0]))
        # take, not R[:, K]: that gather is Fortran-ordered, and the GEMM
        # of a transposed R rounds differently
        R = R.take(np.concatenate([lo, h + lo[lo > 0]]), axis=1)
        H = head.reshape(N, K0 + nm, len(xi1) * k * k)
        S = np.empty((R.shape[1], len(xi1) * k * k), dtype=complex)
        for i in range(N):
            # S's rows follow R's columns: H_0 if kept, the sums over mid,
            # H_{N/2} if kept, then i times the differences and i H_{N/2}
            Hi = H[i]
            S[:z0], S[e:K0], S[K0 + nm:] = Hi[:z0], Hi[e:K0], Hi[e:K0]
            np.add(Hi[z0:e], Hi[K0:], out=S[z0:e])
            np.subtract(Hi[z0:e], Hi[K0:], out=S[K0:K0 + nm])
            S[K0:] *= 1j
            slab = out[i % len(out)]
            np.matmul(R, S.view(float), out=slab.reshape(R.shape[0], S.shape[1]).view(float))
            yield slab

    def quantize(self, u):
        return deformed_product(self.F, u, self.J)

    def fourier_side(self, mult) -> "TranslationSymbol":
        """F(x - J xi) = integral F^(nu) e^{i nu.x} e^{i (J nu).xi} (J
        antisymmetric), with F^ multiplied by mult(freqs), where freqs lists
        the 2n phase-space frequencies nu_1..nu_n, (J nu)_1..(J nu)_n: one
        multiplier on F's own grid, so the result is again F'(x - J xi).  (J
        nu)_j skips J's zero diagonal, so, like nu_j, it holds N values."""
        g = self.F.grid
        J = self.J.entries
        return TranslationSymbol(ModuleFunction(g, fourier_multiplier(
            self.F.samples, [g.spacing] * g.n, lambda nus: mult(nus + [
                sum(J[j, e] * nus[e] for e in range(g.n) if e != j)
                for j in range(g.n)]))),
            self.J)


@functools.lru_cache(maxsize=4)
def _shear_table(points: int, half_width: float, rows: tuple, j10: float) -> np.ndarray:
    """TranslationSymbol._shear's real (N B0 x N + 1) table R on a grid of N
    = points nodes on [-L, L)^2, L = half_width, for the xi_0 rows
    range(*rows) of the box and J_10 = j10, read-only.  At most 4 tables
    are kept (270 KB each for a full N = 32 box): a recover chain asks for
    one box and J on every call, and a caller that samples many J (the
    perturbed forms a rejection test draws) only cycles the oldest out."""
    N, h = points, points // 2
    xi = GridSpec(2, N, half_width).dual_axis()
    nu, xi0 = np.roll(xi, -h), xi[slice(*rows)]          # nu in FFT order
    angle = (TWO_PI / N) * (np.arange(N)[:, None, None] * np.arange(h + 1) % N) \
        - j10 * np.multiply.outer(xi0, nu[:h + 1])
    R = np.empty((N, len(xi0), N + 1))
    np.cos(angle, out=R[..., :h + 1])
    np.sin(angle[..., 1:], out=R[..., h + 1:])
    R = R.reshape(N * len(xi0), N + 1)
    R /= N
    R.flags.writeable = False
    return R


def constant_symbol(n: int, matrix: np.ndarray) -> TrigPolySymbol:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    zero = np.zeros(n)
    return TrigPolySymbol(n, matrix.shape[0], [(zero, zero, matrix)])


def sample_symbol(a: PhaseSymbol, grid: GridSpec) -> GridSymbol:
    """a.sample(grid); unexported, kept only for perfbench."""
    return a.sample(grid)


# ---------------------------------------------------------------------------
# quantization


def pdo_apply(a: PhaseSymbol, u: ModuleFunction) -> ModuleFunction:
    """a.quantize(u); kept only for perfbench."""
    return a.quantize(u)


def pi_seminorm(a: PhaseSymbol, grid: GridSpec) -> float:
    """sup over the sample box of ||d^beta_x d^gamma_xi a|| for all beta,
    gamma <= (1, ..., 1): the partials' slabs folded by cnorm_sup_slabs into
    one running supremum, best, the partials taken by descending
    a.partial_bound (stably, so all-inf bounds keep np.ndindex order).  A
    partial whose bound is below best (1 - 1e-12) cannot raise best and is
    not drawn; a NaN or inf bound never skips.  Raises CapabilityError if a
    lacks a partial: pass a.sample(grid).

    The margin covers rounding.  A trig partial's computed slab entry is a
    T-term GEMM sum of the C_t times computed waves of modulus at most
    1 + 8n u (u = 2^-53), so it lies within 2(T + 2) u sum_t |C_t,ij| of the
    exact sum of those products.  A matrix norm is at most k times its
    largest entry, so the computed norm exceeds sum_t ||C_t||_2 by at most
    (2k(T + 2) + 8n + 8) u relatively, cnorm_entries' rounding included.
    The bound's own T-term sum reads at most (T + 4) u low.  Together that
    is under 3k(T + 3n + 6) u, at most 1e-12 while k(T + 3n + 6) <= 3000; a
    longer trig sum reports inf bounds.  So a skipped partial's largest
    computed norm is below best, and the supremum keeps its bits."""
    n = a.n
    orders = list(np.ndindex(*((2,) * (2 * n))))
    bounds = np.array([a.partial_bound(o[:n], o[n:]) for o in orders])
    best = 0.0
    for i in np.argsort(-bounds, kind="stable"):     # NaN bounds last
        if bounds[i] < best * (1 - 1e-12):
            continue
        o = orders[i]
        best = cnorm_sup_slabs(a.partial(o[:n], o[n:]).slabs(grid), best)
    return best


def adjoint_symbol(a: PhaseSymbol, grid: GridSpec) -> PhaseSymbol:
    """a.adjoint(); kept, with its unused grid, only for perfbench."""
    return a.adjoint()


@dataclass(frozen=True)
class KernelField:
    """The integral kernel K(x, y) of symbol(x, D) on grid.axis^n x
    grid.axis^n, made one row K[i0] (x_0 at node i0) at a time from
    symbol.slabs(grid); nothing is computed until rows() is drawn."""

    grid: GridSpec
    symbol: PhaseSymbol

    def rows(self):
        """For each node i0 of the first x axis, K[i0] of shape
        (N,)^(2n-1) + (k, k): a contiguous copy of slab i0 with the channels
        first, so the transforms read lines of adjacent entries, transformed
        along its n xi axes in their own order, scaled in place, then sheared
        by one gather back into the channels-last layout."""
        g = self.grid
        n, npts = g.n, g.points
        # K[i, j] = k[i, t] at t = x_i - y_j, i.e. index (i + (N/2 - j)) mod N
        # per dimension, i on the x axes, j on the y axes
        i = np.arange(npts)
        xs = [i.reshape((-1,) + (1,) * (2 * n - 2 - d)) for d in range(n - 1)]
        ys = [(npts // 2 - i).reshape((-1,) + (1,) * (n - 1 - d)) for d in range(n)]
        for i0, slab in enumerate(self.symbol.slabs(g)):
            slab = np.moveaxis(slab, (-2, -1), (0, 1)).copy()   # [k, k, x', xi]
            for ax in range(n + 1, 2 * n + 1):
                # (2*pi)^(-1/2) * dxi * sum_q e^{+i t q} per xi slot; the inverse
                # reads its input on the dual of the spatial axis, t lands on axis()
                slab = axis_transform(slab, ax, g.spacing, -g.half_width, inverse=True)
            slab *= TWO_PI ** (-n / 2.0)
            yield np.moveaxis(slab, (0, 1), (-2, -1))[
                tuple(xs) + tuple((x + y) % npts for x, y in zip([i0] + xs, ys))]

    @property
    def samples(self) -> np.ndarray:
        """Every row at once, made anew on each access: the kernel on the
        whole product grid."""
        out = np.empty(self.grid.shape * 2 + (self.symbol.algebra_dim,) * 2,
                       dtype=complex)
        for i0, row in enumerate(self.rows()):
            out[i0] = row
        return out

    def apply(self, v: ModuleFunction) -> ModuleFunction:
        """sum_y K(x, y) v(y) dy, row by row: one (N^(n-1) x N^n k^2) @
        (N^n k^2 x k^2) GEMM of K[i0] against _block_rhs of v's samples."""
        _check_grid(self.grid, v.grid)
        _check_dims(self.symbol, v.grid, v.samples.shape)
        g, k = self.grid, v.algebra_dim
        V = _block_rhs(v.samples.reshape(-1, k, k))
        out = np.empty(v.samples.shape, dtype=complex)
        rows = out.reshape(g.points, -1, k * k)
        for i0, row in enumerate(self.rows()):
            np.matmul(row.reshape(rows.shape[1], -1), V, out=rows[i0])
        return ModuleFunction(g, g.spacing ** g.n * out)


def symbol_to_kernel(a: PhaseSymbol, grid: GridSpec) -> KernelField:
    """K(x, y) = (2*pi)^(-n) integral e^{i (x-y).xi} a(x, xi) dxi, as a
    KernelField that makes its rows from a.slabs(grid) when drawn."""
    return KernelField(grid, a)


# ---------------------------------------------------------------------------
# operator handles and norm estimation


class OperatorHandle:
    """Composable description of an operator on module functions."""

    def apply(self, u: ModuleFunction) -> ModuleFunction:
        raise NotImplementedError

    def apply_many(self, us) -> tuple:
        """The tuple of apply(u) over us, each with apply's bits."""
        return tuple(self.apply(u) for u in us)

    def adjoint(self) -> "OperatorHandle":
        raise CapabilityError(f"{type(self).__name__} has no adjoint")


class LeftActionOp(OperatorHandle):
    """L_F u = F x_J u; a right-module map (commutes with u -> u a)."""

    def __init__(self, F: ModuleFunction, J: SkewForm):
        self.F = F
        self.J = J

    def apply(self, u):
        return deformed_product(self.F, u, self.J)

    def apply_many(self, us):
        """One product of F with the us as column blocks (deformed_product's
        batch axis)."""
        us = tuple(us)
        return deformed_product(self.F, us, self.J) if us else ()

    def adjoint(self):
        return LeftActionOp(self.F.star(), self.J)


class PdoOp(OperatorHandle):
    def __init__(self, symbol: PhaseSymbol):
        self.symbol = symbol

    def apply(self, u):
        return self.symbol.quantize(u)

    def adjoint(self):
        return PdoOp(self.symbol.adjoint())


class ComposedOp(OperatorHandle):
    """parts applied right to left, like operator composition."""

    def __init__(self, parts):
        self.parts = list(parts)

    def apply(self, u):
        for part in reversed(self.parts):
            u = part.apply(u)
        return u

    def adjoint(self):
        return ComposedOp([p.adjoint() for p in reversed(self.parts)])


def random_band_coefficients(grid: GridSpec, algebra_dim: int, rng) -> np.ndarray:
    """Fourier coefficients of a random trial function, non-zero on modes
    -4..4 of each axis only."""
    hat = np.zeros(grid.shape + (algebra_dim,) * 2, dtype=complex)
    half = grid.points // 2
    sl = tuple(slice(half - 4, half + 5) for _ in range(grid.n))
    block = rng.normal(size=hat[sl].shape) + 1j * rng.normal(size=hat[sl].shape)
    hat[sl] = block
    return hat


def random_band_limited(grid: GridSpec, algebra_dim: int, rng) -> ModuleFunction:
    """Random trial function with dual support on modes -4..4 of each axis."""
    return ModuleFunction(grid, grid_transform(
        random_band_coefficients(grid, algebra_dim, rng), grid, inverse=True))


def operator_norm_estimate(T: OperatorHandle, grid: GridSpec, algebra_dim: int = 1,
                           trials: int = 8, power_iters: int = 15,
                           seed: int = 0):
    """Lower estimate of sup ||T u||_2 / ||u||_2 with a witness record.

    Random band-limited trials pick a starting vector; power iteration on
    T*T (T.adjoint(): CapabilityError if T has none) refines it.  The first
    power step reuses the best trial's T u, and the last stops once its
    ratio is measured, since its T* v would never be read: T runs trials +
    power_iters - 1 times and T* power_iters - 1 times.
    record["power_iters"] counts the steps completed; a zero T u or T* v
    ends the iteration uncounted.  So the last step counts even where its
    T* v would have been exactly 0, the one case in which the count differs
    from a loop that applies that T*.  The returned value is a lower bound
    by construction: 0.0, with no power iteration, when T maps every trial
    to zero.  T* v is of order ||v||^2: a v whose square leaves [SQUARES_MIN,
    SQUARES_MAX] enters T* unit_scaled, an exact power-of-two scaling that
    the normalization of T* v undoes.  So T* v no longer underflows or
    overflows where only the square of T's scale leaves the double range,
    and a v in range keeps its bits.
    """
    rng = np.random.default_rng(seed)
    best_ratio, best_u, best_v = 0.0, None, None
    for _ in range(trials):
        u = random_band_limited(grid, algebra_dim, rng)
        nu = module_norm(u)
        if nu == 0.0:
            continue
        v = T.apply(u)
        r = module_norm(v) / nu
        if r > best_ratio:
            best_ratio, best_u, best_v = r, u, v
    record = {"trials": trials, "seed": seed, "trial_best": best_ratio,
              "power_iters": 0}
    Tadj = T.adjoint()
    u, v = best_u, best_v
    for it in range(power_iters if u is not None else 0):
        if it:
            v = T.apply(u)
        nv = module_norm(v)
        if nv == 0.0:
            break
        best_ratio = max(best_ratio, nv / module_norm(u))
        if it + 1 < power_iters:
            if not SQUARES_MIN <= nv * nv <= SQUARES_MAX:
                v = unit_scaled(v)[0]
            u = Tadj.apply(v)
            nu = module_norm(u)
            if nu == 0.0:
                break
            u = (1.0 / nu) * u
        record["power_iters"] = it + 1
    record["estimate"] = best_ratio
    return best_ratio, record
