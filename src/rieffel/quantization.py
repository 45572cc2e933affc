"""Kohn-Nirenberg quantization of matrix-valued phase-space symbols.

A symbol a(x, xi) acts on module functions through

    a(x,D) u(x) = integral e^{i x xi} a(x, xi) u^(xi) d/xi,

with the frequency integral realized on the dual grid.  The module also
provides the sup-derivative seminorm pi(a) over multi-indices <= (1,...,1),
the adjoint symbol p with <a(x,D)u, v> = <u, p(x,D)v>, the symbol-to-kernel
transform, and a randomized lower estimate of the operator norm.

Symbol backings (each implements eval; PhaseSymbol's generic quantize runs
on it, and every quantize checks the symbol's n and k against u's):

  * CallableSymbol    -- closed-form evaluator, optional analytic partials
  * TrigPolySymbol    -- finite sum  C e^{i p.x} e^{i w.xi}  (band-limited)
  * GridSymbol        -- samples on grid.axis()^n x grid.dual_axis()^n
  * TranslationSymbol -- a(x, xi) = F(x - J xi), the symbols of the left
                         actions L_F; eval is F's Fourier series as a trig sum

A partial, a shift a(x + z, xi + zeta), the b/gamma multipliers and the
adjoint each multiply the symbol's own phase-space Fourier transform; none
takes a grid.  A backing states that once, as fourier_side(mult), and
PhaseSymbol derives partial, shift, multiplier(fn) and adjoint() from it.  A
trig term is scaled exactly at its (p, w); a grid symbol takes one
grids.fourier_multiplier; a translation symbol multiplies F^ at (nu, J nu)
and stays one (its adjoint is F*(x - J xi)).  Any other backing raises
CapabilityError: sample it first, a.sample(grid).

Sampling is stated once too: a backing's writer _fill(grid, out) writes
slab i of the first x axis into out[i % len(out)] and yields it; sample runs
it into the product grid and slabs into one reused slab, so a supremum never
holds the product grid whole, nor symbol_to_kernel beside its kernel.  The
generic writer calls eval once per slab.  A trig writer tabulates each
term's 2n one-dimensional waves (2n N exp calls, not N^(2n)) and sums the T
terms of a slab as one (N^(2n-1) x T) @ (T x k^2) product.  A translation
symbol writes by a shear on F's grid (F's forward transform and one phased
inverse along x_0, then per slab one real GEMM for x_1's phase and inverse
DFT, whose conjugate columns it folds),
by copying F's slabs at J = 0, and by F's trig sum off F's grid.  A bracket
multiplies its factors' slabs; a grid symbol yields views of its samples.

TrigPolySymbol also overrides quantize: it translates u to u(x + w) for the
terms with w != 0, 8 at a time, through grids.translates (one forward FFT
and one batched inverse, channels first: O(N^n log N k^2) per term), and a
term with w = 0 reuses u untransformed; C e^{i p.x} is applied as k^2
scalar-by-plane multiply-adds on channels-first planes.

The adjoint symbol uses the fact that p is the convolution of a* against the
kernel e^{-i z.eta} (2*pi)^(-n), whose 2n-dimensional Fourier transform is
the pure phase e^{i u.w}: p = Finv[ F[a*](u, w) * e^{i u.w} ].

Operator handles: LeftActionOp (L_F, adjoint L_{F*}), PdoOp (a(x, D), adjoint
PdoOp(a.adjoint())), ComposedOp and heisenberg.HeisenbergPoint.  One without
an adjoint raises CapabilityError; R_G u is deformed_product(u, G, J).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import cnorm_sup_slabs
from .deformation import SkewForm, deformed_product
from .errors import CapabilityError, GridMismatchError
from .grids import (TWO_PI, GridSpec, axis_transform, fourier_multiplier,
                    grid_transform, separable_wave, translates)
from .module_space import ModuleFunction, module_norm


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
        for _ in self._fill(grid, out):
            pass
        return GridSymbol(grid, out)

    def slabs(self, grid: GridSpec):
        """For each node i of the first x axis, an array equal to
        sample(grid).samples[i], of shape (N,)^(2n-1) + (k, k).  Each is
        valid only until the next one is drawn (one slab buffer is reused),
        so reduce it before drawing the next."""
        return self._fill(grid, np.empty(
            (1,) + (grid.shape * 2)[1:] + (self.algebra_dim,) * 2, dtype=complex))

    def _fill(self, grid: GridSpec, out: np.ndarray):
        """Write slab i of the samples into out[i % len(out)] (every slab, or
        one reused slab) and yield it, i = 0 .. N-1 in turn: here by eval
        with the first x coordinate fixed at node i."""
        n = grid.n
        rest = list(np.meshgrid(*([grid.axis()] * (n - 1) + [grid.dual_axis()] * n),
                                indexing="ij"))
        for i, x0 in enumerate(grid.axis()):
            slab = out[i % len(out)]
            slab[...] = self.eval([np.full_like(rest[0], x0)] + rest[:n - 1],
                                  rest[n - 1:])
            yield slab

    def quantize(self, u: ModuleFunction) -> ModuleFunction:
        """a(x,D) u = sum_q e^{i x.q} a(x, q) u^(q) by the dense loop over
        dual nodes q, 64 at a time (backings override it where exact)."""
        g = u.grid
        xc = [m[None, ...] for m in g.mesh()]

        def values(rows, q):
            qc = [q[:, d].reshape((-1,) + (1,) * g.n) for d in range(g.n)]
            return self.eval(xc, qc)
        return _dense_quantize(self, values, u)

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


def _check_dims(a: PhaseSymbol, u: ModuleFunction) -> None:
    if a.n != u.grid.n or a.algebra_dim != u.algebra_dim:
        raise GridMismatchError("symbol and function dimensions do not match")


def _dense_quantize(a: PhaseSymbol, values, u: ModuleFunction) -> ModuleFunction:
    """Sum over dual nodes q of e^{i x.q} a(x, q) u^(q), 64 nodes at a
    time, once a's dimensions match u's; values(rows, q) returns a(x, q) for
    the dual nodes q = flat node indices rows, shaped (len(q),) + grid.shape
    + (k, k).  Per chunk of C nodes one multiply fills a reused (X, k, k, C)
    buffer (X grid points) with e^{i x.q} a(x, q), and one (X k x k C) @
    (k C x k) GEMM adds it."""
    _check_dims(a, u)
    chunk = 64
    g, k = u.grid, u.algebra_dim
    uh = grid_transform(u.samples, g).reshape(-1, k, k)       # (M, k, k)
    flatq = np.stack([d.ravel() for d in g.dual_mesh()], axis=-1)  # (M, n)
    acc = np.zeros((u.samples.size // k, k), dtype=complex)   # (X k, k)
    buf = np.empty(acc.size * min(chunk, len(flatq)), dtype=complex)
    for lo in range(0, flatq.shape[0], chunk):
        rows = slice(lo, lo + chunk)
        q = flatq[rows]                                        # (C, n)
        wave = math.prod(np.exp(1j * np.multiply.outer(g.axis(), q[:, d])).reshape(
            (1,) * d + (-1,) + (1,) * (g.n - 1 - d) + (len(q),)) for d in range(g.n))
        term = buf[:acc.size * len(q)].reshape(g.shape + (k, k, len(q)))
        np.multiply(wave[..., None, None, :], np.moveaxis(values(rows, q), 0, -1),
                    out=term)
        acc += term.reshape(len(acc), -1) @ uh[rows].transpose(1, 0, 2).reshape(-1, k)
    return ModuleFunction(g, TWO_PI ** (-g.n / 2.0) * g.dual_spacing ** g.n
                          * acc.reshape(u.samples.shape))


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

    def _fill(self, grid, out):
        n, k = grid.n, self.algebra_dim
        nodes = [grid.axis()] * n + [grid.dual_axis()] * n
        coef = np.array([c for _, _, c in self.terms]).reshape(-1, k * k)
        waves = [np.exp(1j * np.multiply.outer(t, f))             # (N, T) each
                 for t, f in zip(nodes, self.freqs.T)]
        rest = waves[1]
        for wave in waves[2:]:
            rest = rest[..., None, :] * wave
        rest = rest.reshape(-1, coef.shape[0])
        flat = out.reshape(len(out), -1, k * k)
        for i, first in enumerate(waves[0]):
            np.matmul(rest, first[:, None] * coef, out=flat[i % len(out)])
            yield out[i % len(out)]

    def quantize(self, u):
        # each term C e^{i p.x} e^{i w.xi} maps u to C e^{i p.x} u(x + w).
        # Shifted terms are translated 8 at a time, so memory does not grow
        # with T; w = 0 reuses u as it is, which keeps the identity exact.
        _check_dims(self, u)
        g, k = u.grid, u.algebra_dim
        acc = np.zeros((k, k) + g.shape, dtype=complex)
        tmp = np.empty((k,) + g.shape, dtype=complex)

        def add(term, src):
            # src and acc are channels first: k^2 scalar-by-plane products
            p, _, c = term
            src = src * separable_wave(g.axis(), p)
            for a, b in np.ndindex(k, k):
                acc[a] += np.multiply(c[a, b], src[b], out=tmp)

        shifted = [term for term in self.terms if term[1].any()]
        for lo in range(0, len(shifted), 8):
            terms = shifted[lo:lo + 8]
            batch = translates(u.samples, g.spacing, [w for _, w, _ in terms])
            for term, src in zip(terms, np.moveaxis(batch, (-2, -1), (1, 2))):
                add(term, src)
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
        if self.grid.compatible(grid):
            return self
        return super().sample(grid)

    def slabs(self, grid):
        if self.grid.compatible(grid):
            return iter(self.samples)  # views: nothing is copied
        return super().slabs(grid)

    def quantize(self, u):
        g = u.grid
        if not self.grid.compatible(g):
            raise GridMismatchError("grid symbol lives on a different grid")
        sym = self.samples.reshape(g.shape + (-1, u.algebra_dim, u.algebra_dim))
        return _dense_quantize(
            self, lambda rows, q: np.moveaxis(sym[..., rows, :, :], g.n, 0), u)


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

    def _fill(self, grid, out):
        # F's trig sum off its grid, else the shear, or F's slabs at J = 0
        if not self.F.grid.compatible(grid):
            return self._trig()._fill(grid, out)
        if self.J.entries.any():
            return self._shear(grid, out)
        F = self.F.samples.reshape(grid.shape + (1,) * grid.n + (self.algebra_dim,) * 2)

        def copies():
            for i, f in enumerate(F):
                out[i % len(out)] = f
                yield out[i % len(out)]
        return copies()

    def _shear(self, grid, out):
        """_fill on F's own grid with J != 0, so n = 2.

        a(x, xi) = sum_nu c(nu) e^{i nu.(x - J xi)}, the trigonometric
        interpolant of F at x - J xi.  Through grid_transform, c = (dnu /
        sqrt(2 pi))^2 F^(nu) e^{i x0.nu} with nu read in FFT order (the
        inverse's (-1)^j sign as a roll by N/2); these phases, the roll and
        the scale undo F^'s own, leaving c = fftn(F) / N^2.  The phase is
        e^{-i J_01 nu0 xi1} e^{-i J_10 nu1 xi0}.  Axis 0 takes its factor and
        inverse transform once, on the (nu0, nu1, 1, xi1, k, k) head H.  Axis
        1's factor and inverse DFT act on nu1 as one (N^2 x N) matrix
        D[(x1, xi0), nu1] = e^{i (2 pi x1 nu1 / N - J_10 nu1 xi0)} / N (nu1
        the FFT index), whose columns nu1 and N - nu1 are conjugate.  So
        D @ H_i = R @ S_i with the real R = [Re D[:, :N/2+1], Im D[:, 1:N/2+1]]
        (N + 1 columns, from cos and sin tables) and the rows of S_i: H_0,
        H_j + H_{N-j}, H_{N/2}, i (H_j - H_{N-j}), i H_{N/2} (j = 1 .. N/2-1).
        Slab i is one real GEMM of 4 N^3 (N + 1) k^2 flops, about half the
        complex one's 8 N^4 k^2, with S_i built in one reused (N + 1) x N k^2
        buffer."""
        N, k = grid.points, self.algebra_dim
        h = N // 2
        J = self.J.entries
        nu = np.fft.ifftshift(grid.dual_axis())
        xi = grid.dual_axis()
        head = np.fft.fftn(self.F.samples, axes=(0, 1)).reshape(
            (N, N, 1, 1, k, k)) * np.exp(
            -1j * J[0, 1] * nu.reshape(-1, 1, 1, 1) * xi)[..., None, None]
        np.fft.ifft(head, axis=0, out=head)
        angle = (TWO_PI / N) * (np.arange(N)[:, None, None] * np.arange(h + 1) % N) \
            - J[1, 0] * np.multiply.outer(xi, nu[:h + 1])
        R = np.empty((N, N, N + 1))
        np.cos(angle, out=R[..., :h + 1])
        np.sin(angle[..., 1:], out=R[..., h + 1:])
        R = R.reshape(N * N, N + 1)
        R /= N
        H = head.reshape(N, N, N * k * k)
        S = np.empty((N + 1, N * k * k), dtype=complex)
        for i in range(N):
            Hi = H[i]
            S[0], S[h], S[N] = Hi[0], Hi[h], Hi[h]
            np.add(Hi[1:h], Hi[:h:-1], out=S[1:h])
            np.subtract(Hi[1:h], Hi[:h:-1], out=S[h + 1:N])
            S[h + 1:] *= 1j
            slab = out[i % len(out)]
            np.matmul(R, S.view(float), out=slab.reshape(N * N, -1).view(float))
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
    gamma <= (1, ..., 1), as one slab stream (one running floor) over them.
    Raises CapabilityError if a lacks a partial: pass a.sample(grid)."""
    return cnorm_sup_slabs(s for o in np.ndindex(*((2,) * (2 * a.n)))
                           for s in a.partial(o[:a.n], o[a.n:]).slabs(grid))


def adjoint_symbol(a: PhaseSymbol, grid: GridSpec) -> PhaseSymbol:
    """a.adjoint(); kept, with its unused grid, only for perfbench."""
    return a.adjoint()


@dataclass(frozen=True)
class KernelField:
    """Integral-kernel samples K(x, y) on grid.axis^n x grid.axis^n."""

    grid: GridSpec
    samples: np.ndarray = field(repr=False)

    def apply(self, v: ModuleFunction) -> ModuleFunction:
        """sum_y K(x, y) v(y) dy as k^2 GEMMs, K[..., a, b] (copied) @ v[:, b]."""
        if not v.grid.compatible(self.grid):
            raise GridMismatchError("kernel and function grids differ")
        g = self.grid
        k = self.samples.shape[-1]
        m = g.points ** g.n
        vs = v.samples.reshape(m, k, k)
        acc = np.zeros((m, k, k), dtype=complex)
        for a, b in np.ndindex(k, k):
            acc[:, a] += self.samples[..., a, b].reshape(m, m) @ vs[:, b]
        return ModuleFunction(g, g.spacing ** g.n * acc.reshape(v.samples.shape))


def symbol_to_kernel(a: PhaseSymbol, grid: GridSpec) -> KernelField:
    """K(x, y) = (2*pi)^(-n) integral e^{i (x-y).xi} a(x, xi) dxi, one slab of
    a.slabs(grid) at a time: the kernel is the one product grid it holds."""
    n, npts = grid.n, grid.points
    out = np.empty(grid.shape * 2 + (a.algebra_dim,) * 2, dtype=complex)
    # shear as one gather per slab i0: K[i, j] = k[i, t] at t = x_i - y_j, i.e.
    # index (i + (N/2 - j)) mod N per dimension, i on the x axes, j on the y axes
    i = np.arange(npts)
    xs = [i.reshape((-1,) + (1,) * (2 * n - 2 - d)) for d in range(n - 1)]
    ys = [(npts // 2 - i).reshape((-1,) + (1,) * (n - 1 - d)) for d in range(n)]
    for i0, slab in enumerate(a.slabs(grid)):
        for ax in range(n - 1, 2 * n - 1):
            # (2*pi)^(-1/2) * dxi * sum_q e^{+i t q} per xi slot; the inverse
            # reads its input on the dual of the spatial axis, t lands on axis()
            slab = axis_transform(slab, ax, grid.spacing, -grid.half_width, inverse=True)
        slab *= TWO_PI ** (-n / 2.0)
        out[i0] = slab[tuple(xs) + tuple((x + y) % npts for x, y in zip([i0] + xs, ys))]
    return KernelField(grid, out)


# ---------------------------------------------------------------------------
# operator handles and norm estimation


class OperatorHandle:
    """Composable description of an operator on module functions."""

    def apply(self, u: ModuleFunction) -> ModuleFunction:
        raise NotImplementedError

    def adjoint(self) -> "OperatorHandle":
        raise CapabilityError(f"{type(self).__name__} has no adjoint")


class LeftActionOp(OperatorHandle):
    """L_F u = F x_J u; a right-module map (commutes with u -> u a)."""

    def __init__(self, F: ModuleFunction, J: SkewForm):
        self.F = F
        self.J = J

    def apply(self, u):
        return deformed_product(self.F, u, self.J)

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


def random_band_limited(grid: GridSpec, algebra_dim: int, rng) -> ModuleFunction:
    """Random trial function with dual support on modes -4..4 of each axis."""
    hat = np.zeros(grid.shape + (algebra_dim,) * 2, dtype=complex)
    half = grid.points // 2
    sl = tuple(slice(half - 4, half + 5) for _ in range(grid.n))
    block = rng.normal(size=hat[sl].shape) + 1j * rng.normal(size=hat[sl].shape)
    hat[sl] = block
    return ModuleFunction(grid, grid_transform(hat, grid, inverse=True))


def operator_norm_estimate(T: OperatorHandle, grid: GridSpec, algebra_dim: int = 1,
                           trials: int = 8, power_iters: int = 15,
                           seed: int = 0):
    """Lower estimate of sup ||T u||_2 / ||u||_2 with a witness record.

    Random band-limited trials pick a starting vector; power iteration on
    T*T (T.adjoint(): CapabilityError if T has none) refines it.  The
    returned value is a lower bound by construction.
    """
    rng = np.random.default_rng(seed)
    best_ratio, best_u = 0.0, None
    for _ in range(trials):
        u = random_band_limited(grid, algebra_dim, rng)
        nu = module_norm(u)
        if nu == 0.0:
            continue
        r = module_norm(T.apply(u)) / nu
        if r > best_ratio:
            best_ratio, best_u = r, u
    record = {"trials": trials, "seed": seed, "trial_best": best_ratio,
              "power_iters": 0}
    Tadj = T.adjoint()
    u = best_u
    for it in range(power_iters):
        v = T.apply(u)
        nv = module_norm(v)
        if nv == 0.0:
            break
        ratio = nv / module_norm(u)
        if ratio > best_ratio:
            best_ratio = ratio
        u = Tadj.apply(v)
        nu = module_norm(u)
        if nu == 0.0:
            break
        u = (1.0 / nu) * u
        record["power_iters"] = it + 1
    record["estimate"] = best_ratio
    return best_ratio, record
