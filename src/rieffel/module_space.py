"""Discretized matrix-valued Schwartz space on the periodic box.

A ModuleFunction samples a map R^n -> M_k(C) on a GridSpec.  The space
carries the algebra-valued inner product <f, g> = integral f(x)* g(x) dx,
realized as the plain Riemann sum (spectrally accurate for smooth decayed
integrands on the periodic box), the norm ||f||_2 = ||<f, f>||^(1/2), the
symmetric-normalization Fourier transform, and boundary_report, the decay
of f at the box edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import cnorm, cnorm_entries, cnorm_sup
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
        """The module action f -> f a, pointwise times the (k, k) array a."""
        return ModuleFunction(self.grid, self.samples @ a)

    def sup_norm(self) -> float:
        return cnorm_sup(self.samples)


def check_compatible(f: ModuleFunction, g: ModuleFunction):
    """Raise GridMismatchError unless f and g share grid and algebra size."""
    if not f.grid.compatible(g.grid) or f.algebra_dim != g.algebra_dim:
        raise GridMismatchError("module functions on different grids or algebra dims")


def inner_product(f: ModuleFunction, g: ModuleFunction) -> np.ndarray:
    """<f, g> = integral f(x)* g(x) dx, a (k, k) array; antilinear in f, linear in g."""
    check_compatible(f, g)
    weight = f.grid.spacing ** f.grid.n
    axes = tuple(range(f.grid.n))
    acc = np.einsum(f.samples.conj(), [*axes, f.grid.n + 1, f.grid.n],
                    g.samples, [*axes, f.grid.n + 1, f.grid.n + 2],
                    [f.grid.n, f.grid.n + 2])
    return weight * acc


def module_norm(f: ModuleFunction) -> float:
    """||f||_2 = ||<f, f>||^(1/2) with the C*-norm of the Gram matrix."""
    return float(np.sqrt(max(cnorm(inner_product(f, f)), 0.0)))


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
    """Samples of x -> e^{i*phase} e^{i zeta.x} f(x)."""
    zeta = _grid_vector(zeta, f.grid)
    mesh = f.grid.mesh()
    arg = sum(zeta[ax] * mesh[ax] for ax in range(f.grid.n)) + phase
    return ModuleFunction(f.grid, np.exp(1j * arg)[..., None, None] * f.samples)


def boundary_report(f: ModuleFunction) -> float:
    """Largest sample norm in the two outermost grid layers at each end of
    each axis (decay diagnostic)."""
    mags = cnorm_entries(f.samples)
    return max(float(np.moveaxis(mags, ax, 0)[[0, 1, -2, -1]].max())
               for ax in range(f.grid.n))
