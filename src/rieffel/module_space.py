"""Discretized matrix-valued Schwartz space on the periodic box.

A ModuleFunction samples a map R^n -> M_k(C) on a GridSpec.  The space
carries the algebra-valued inner product <f, g> = integral f(x)* g(x) dx,
realized as the plain Riemann sum (spectrally accurate for smooth decayed
integrands on the periodic box), the norm ||f||_2 = ||<f, f>||^(1/2), the
symmetric-normalization Fourier transform, and boundary_report, the decay
of f at the box edge.

The inner product and the right action f -> f a are one BLAS GEMM each on
the (N^n k x k) matrix of f's samples, rows (x, row index).  An inner
product that overflows raises OverflowError; the norm rescales instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SQUARES_MAX, SQUARES_MIN, cnorm, cnorm_entries, cnorm_sup
from .errors import GridMismatchError
from .grids import GridSpec, fourier_multiplier, grid_transform


@dataclass(frozen=True)
class ModuleFunction:
    """A sampled function R^n -> M_k(C) on a uniform periodic grid.

    samples has shape grid.shape + (k, k), complex and finite.
    """

    grid: GridSpec
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        k = arr.shape[-1]
        if arr.shape != self.grid.shape + (k, k):
            raise GridMismatchError(
                f"samples shape {arr.shape} does not match grid {self.grid.shape} + (k, k)")
        if not np.isfinite(arr).all():
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", arr)

    @property
    def algebra_dim(self) -> int:
        return self.samples.shape[-1]

    @classmethod
    def from_function(cls, grid: GridSpec, fn, algebra_dim: int = 1) -> "ModuleFunction":
        """Sample fn(*coords) -> array broadcastable to grid.shape + (k, k)."""
        vals = np.asarray(fn(*grid.mesh()), dtype=complex)
        if vals.shape == grid.shape:
            vals = vals[..., None, None] * np.eye(algebra_dim)
        return cls(grid, np.broadcast_to(vals, grid.shape + (algebra_dim,) * 2).copy())

    def __add__(self, other: "ModuleFunction") -> "ModuleFunction":
        check_compatible(self, other)
        return ModuleFunction(self.grid, self.samples + other.samples)

    def __sub__(self, other: "ModuleFunction") -> "ModuleFunction":
        check_compatible(self, other)
        return ModuleFunction(self.grid, self.samples - other.samples)

    def __mul__(self, scalar: complex) -> "ModuleFunction":
        return ModuleFunction(self.grid, self.samples * scalar)

    __rmul__ = __mul__

    def star(self) -> "ModuleFunction":
        """The pointwise adjoint x -> f(x)*."""
        return ModuleFunction(self.grid, np.swapaxes(self.samples.conj(), -1, -2))

    def right_multiply(self, a: np.ndarray) -> "ModuleFunction":
        """The module action f -> f a, pointwise times the (k, k) array a: one
        GEMM of the (N^n k x k) sample matrix against a, with the bits of the
        pointwise products."""
        out = self.samples.reshape(-1, self.algebra_dim) @ a
        return ModuleFunction(self.grid, out.reshape(self.samples.shape[:-1] + out.shape[1:]))

    def sup_norm(self) -> float:
        return cnorm_sup(self.samples)


def check_compatible(f: ModuleFunction, g: ModuleFunction):
    """Raise GridMismatchError unless f and g share grid and algebra size."""
    if not f.grid.compatible(g.grid) or f.algebra_dim != g.algebra_dim:
        raise GridMismatchError("module functions on different grids or algebra dims")


def _gram(f: ModuleFunction, g: ModuleFunction) -> np.ndarray:
    """inner_product's sum, whose entries are inf or NaN where it overflows."""
    check_compatible(f, g)
    A, B = (h.samples.reshape(-1, h.algebra_dim) for h in (f, g))
    with np.errstate(over="ignore", invalid="ignore"):
        return f.grid.spacing ** f.grid.n * (A.conj().T @ B)


def inner_product(f: ModuleFunction, g: ModuleFunction) -> np.ndarray:
    """<f, g> = integral f(x)* g(x) dx, a (k, k) array; antilinear in f, linear in g.

    One complex GEMM A^H B of the (N^n k x k) sample matrices, rows (x, row
    index).  BLAS blocks the sum over the rows, which keeps its roundoff 3-10x
    below a sequential sum's in the module checks.  A^H is a conjugated copy
    of f's samples, so <f, f> is Hermitian to roundoff, not exactly.  The
    samples are finite, so an entry that is not is an overflow of the sum:
    it raises OverflowError, never returns NaN."""
    gram = _gram(f, g)
    if not np.isfinite(gram).all():
        raise OverflowError("inner product overflows the double range")
    return gram


def unit_scaled(f: ModuleFunction) -> tuple:
    """(2^-e f, e) for a non-zero f, 2^e the power of two of its largest
    modulus: an exact scaling, so the largest modulus lies in [1/2, 1)."""
    e = int(np.frexp(np.abs(f.samples).max())[1])
    parts = np.ldexp(np.ascontiguousarray(f.samples).view(float), -e)
    return ModuleFunction(f.grid, parts.view(complex)), e


def module_norm(f: ModuleFunction) -> float:
    """||f||_2 = ||<f, f>||^(1/2) with the C*-norm of the Gram matrix.

    A non-zero f whose Gram has its largest diagonal entry outside
    [SQUARES_MIN, SQUARES_MAX], or not finite (samples beyond about
    1e+-145), is normed again on unit_scaled(f), and the norm is scaled back
    by 2^e: both scalings are exact, so the norm keeps its relative accuracy
    at every representable scale."""
    gram, e = _gram(f, f), 0
    if not SQUARES_MIN <= np.diagonal(gram).real.max() <= SQUARES_MAX and f.samples.any():
        unit, e = unit_scaled(f)
        gram = inner_product(unit, unit)
    return float(np.ldexp(np.sqrt(max(cnorm(gram), 0.0)), e))


def fourier(f: ModuleFunction, inverse: bool = False) -> ModuleFunction:
    """Symmetric-normalization Fourier transform, entrywise over the matrix.

    Forward: F(f)(xi) = (2*pi)^(-n/2) * integral e^{-i x xi} f(x) dx sampled
    on the ascending dual grid; the result lives on f.grid.dual(), so inner
    products of transforms carry the frequency-side measure and Parseval
    holds exactly.  inverse=True applies e^{+i x xi} with the dual measure.
    """
    d = f.grid.dual()
    return ModuleFunction(d, grid_transform(f.samples, d if inverse else f.grid,
                                            inverse=inverse))


def _grid_vector(v, grid: GridSpec) -> np.ndarray:
    """v as a float vector of length grid.n; GridMismatchError otherwise."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (grid.n,):
        raise GridMismatchError(f"shift of shape {v.shape} on an n = {grid.n} grid")
    return v


def translate(f: ModuleFunction, z) -> ModuleFunction:
    """Samples of x -> f(x - z), trig-interpolated (exact for commensurate z)."""
    g = f.grid
    z = _grid_vector(z, g)
    if not z.any():
        return f
    return ModuleFunction(g, fourier_multiplier(
        f.samples, [g.spacing] * g.n,
        lambda nus: np.exp(-1j * sum(t * nu for t, nu in zip(z, nus)))))


def modulate(f: ModuleFunction, zeta, phase: float = 0.0) -> ModuleFunction:
    """Samples of x -> e^{i*phase} e^{i zeta.x} f(x); f itself when zeta
    and phase are 0."""
    zeta = _grid_vector(zeta, f.grid)
    if not zeta.any() and phase == 0.0:
        return f
    mesh = f.grid.mesh()
    arg = sum(zeta[ax] * mesh[ax] for ax in range(f.grid.n)) + phase
    return ModuleFunction(f.grid, np.exp(1j * arg)[..., None, None] * f.samples)


def boundary_report(f: ModuleFunction) -> float:
    """Largest sample norm in the two outermost grid layers at each end of
    each axis (decay diagnostic)."""
    mags = cnorm_entries(f.samples)
    return max(float(np.moveaxis(mags, ax, 0)[[0, 1, -2, -1]].max())
               for ax in range(f.grid.n))
