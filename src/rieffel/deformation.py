"""The deformed product x_J and the mollifier family.

The product of F and G induced by an antisymmetric matrix J is

    (F x_J G)(x) = integral F(x+Ju) G(x+v) e^{i u.v}  d/u d/v,
    d/u = (2*pi)^(-n/2) du,

equivalently the single-Fourier form

    (F x_J G)(x) = integral e^{i u(x-v)} F(x-Ju) G(v)  d/v d/u.

On the periodic grid the single-Fourier form collapses to an exact twisted
convolution of Fourier coefficients,

    C^(r) = (2*pi)^(-n/2) * dxi^n * sum_{p+q=r}  e^{-i p.Jq}  F^(p) G^(q),

where p, q run over the in-band dual lattice and p+q wraps.  For n = 2 every
antisymmetric J is theta*[[0,1],[-1,0]], so the twist e^{-i theta (p1 q2 -
p2 q1)} splits into separate (p1,q2) and (p2,q1) factors; sweeping q2 turns
the remaining q1-sum into a cyclic convolution done by FFT.  This evaluates
the product exactly (to roundoff) for band-limited factors.

The kernel stores coefficients channels first, [a, b, p2, p1], so every FFT
runs along the contiguous last axis; both phase tables are built once, the
k x k product is k^3 multiply-adds of whole planes, and each q2's products
are added straight into an accumulator indexed by r2 = p2 + q2 - N/2 and
still in the transform domain, so a single inverse FFT finishes the sum.
Every per-q2 multiply and FFT writes into buffers allocated once per call,
and none is kept between calls.  For n = 2 that is 2N + 1 batched FFT passes
and O(N^3 k^2 log N + N^3 k^3) work instead of the naive O(N^4 k^3).

Matrix order: values of the left factor always multiply from the left.
The left action L_F u is deformed_product(F, u, J) and the right action
R_G u is deformed_product(u, G, J).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GridMismatchError, ResolutionError
from .grids import TWO_PI, GridSpec, grid_transform
from .module_space import ModuleFunction, check_compatible

DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class SkewForm:
    """The real antisymmetric n x n matrix J defining the deformation, on a
    grid of dimension n = 1 or 2: theta * [[0, 1], [-1, 0]] for n = 2, the
    zero 1x1 matrix for n = 1 (where theta must be 0)."""

    theta: float
    n: int = 2

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"J on an n = {self.n} grid: only n = 1 and 2 "
                             "are supported")
        object.__setattr__(self, "theta", float(self.theta))
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.n == 1 and self.theta:
            raise ValueError(f"theta = {self.theta} on an n = 1 grid: the only "
                             "antisymmetric 1x1 matrix is zero")

    @property
    def entries(self) -> np.ndarray:
        if self.n == 1:
            return np.zeros((1, 1))
        return np.array([[0.0, self.theta], [-self.theta, 0.0]])

    @classmethod
    def standard(cls, theta: float | None = None, n: int = 2) -> "SkewForm":
        """The deformation of an n-dimensional grid: theta * [[0, 1], [-1, 0]]
        for n = 2, with theta defaulting to DEFAULT_THETA; the zero form for
        n = 1, where a theta other than None or 0 raises ValueError."""
        if theta is None:
            theta = DEFAULT_THETA if n == 2 else 0.0
        return cls(theta, n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(v, dtype=float)

    def rescaled(self, factor: float) -> "SkewForm":
        return SkewForm(self.theta * factor, self.n)


def _channels_first(arr: np.ndarray, n: int) -> np.ndarray:
    """(N,)*n + (k, k) -> [k, k, x_n, ..., x_1], contiguous: x_1 is last."""
    return np.ascontiguousarray(arr.transpose((n, n + 1) + tuple(range(n - 1, -1, -1))))


def _channels_last(arr: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _channels_first."""
    return np.ascontiguousarray(arr.transpose(tuple(range(n + 1, 1, -1)) + (0, 1)))


def _channel_entry(x: np.ndarray, y: np.ndarray, a: int, c: int,
                   out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Channel (a, c) of the pointwise k x k product of channels-first arrays
    [a, b, ...] and [b, c, ...]: the k plane products x[a, b] y[b, c], summed
    over b in order into the caller's `out` (`tmp` is scratch)."""
    np.multiply(x[a, 0], y[0, c], out=out)
    for b in range(1, x.shape[1]):
        out += np.multiply(x[a, b], y[b, c], out=tmp)
    return out


def twisted_coefficients(fhat: np.ndarray, ghat: np.ndarray, grid: GridSpec,
                         theta: float) -> np.ndarray:
    """Fourier coefficients of the deformed product from factor coefficients.

    fhat, ghat and the result are (N,)*n + (k, k) arrays on dual_axis().
    """
    n, npts = grid.n, grid.points
    half = npts // 2
    scale = (TWO_PI) ** (-n / 2.0) * grid.dual_spacing ** n
    ft, gt = _channels_first(fhat, n), _channels_first(ghat, n)
    k = ft.shape[0]
    tmp = np.empty(ft.shape[2:], dtype=complex)
    if n == 1 or theta == 0.0:
        # plain cyclic convolution with in-band wrap
        axes = tuple(range(2, n + 2))
        fa = np.fft.fftn(np.roll(ft, (-half,) * n, axis=axes), axes=axes)
        fb = np.fft.fftn(gt, axes=axes)
        prod = np.empty(fa.shape, dtype=complex)
        for a, c in np.ndindex(k, k):
            _channel_entry(fa, fb, a, c, prod[a, c], tmp)
        return _channels_last(scale * np.fft.ifftn(prod, axes=axes), n)

    # ft is [a, b, p2, p1] and gt is [b, c, q2, q1].  Each q2 adds its
    # products at r2 = p2 + q2 - N/2, wrapped: indexed by r2, the p2 axis of
    # ft and of bphase is read through the window [N - s, 2N - s) of a copy
    # doubled along it, with s = (q2 - N/2) mod N.
    xi = grid.dual_axis()
    txx = theta * np.outer(xi, xi)
    mods = np.exp(-1j * txx)   # [q2, p1]: e^{-i theta xi(p1) xi(q2)}
    bphase = np.exp(1j * txx)  # [p2, q1]: e^{+i theta xi(p2) xi(q1)}
    ft2 = np.concatenate((ft, ft), axis=2)
    bphase2 = np.concatenate((bphase, bphase))
    # every per-q2 result is written into these, allocated once per call
    fa = np.empty(ft.shape, dtype=complex)  # [a, b, r2, z]
    fb = np.empty(ft.shape, dtype=complex)  # [b, c, r2, z]
    plane = np.empty(ft.shape[2:], dtype=complex)
    acc = np.zeros(ft.shape, dtype=complex)  # [a, c, r2, z]
    for q2 in range(npts):
        lo = npts - (q2 - half) % npts
        np.multiply(ft2[:, :, lo:lo + npts], mods[q2], out=fa)
        np.fft.fft(fa, axis=-1, out=fa)
        np.multiply(gt[:, :, q2, None, :], bphase2[lo:lo + npts], out=fb)
        np.fft.fft(fb, axis=-1, out=fb)
        # still in the transform domain along z, so one inverse FFT after
        # the loop serves every q2
        for a, c in np.ndindex(k, k):
            acc[a, c] += _channel_entry(fa, fb, a, c, plane, tmp)
    # the left factor's roll(-N/2) along p1 is the sign (-1)^z after its FFT
    acc *= np.where(np.arange(npts) % 2 == 0, scale, -scale)
    return _channels_last(np.fft.ifft(acc, axis=-1, out=acc), n)


def deformed_product(f: ModuleFunction, g: ModuleFunction, J: SkewForm) -> ModuleFunction:
    """(f x_J g) on the grid; Rieffel's 2*pi convention is J.rescaled(2*pi)."""
    check_compatible(f, g)
    if J.n != f.grid.n:
        raise GridMismatchError(f"J dimension {J.n} != grid dimension {f.grid.n}")
    fhat = grid_transform(f.samples, f.grid)
    ghat = grid_transform(g.samples, g.grid)
    chat = twisted_coefficients(fhat, ghat, f.grid, J.theta)
    return ModuleFunction(f.grid, grid_transform(chat, f.grid, inverse=True))


# ---------------------------------------------------------------------------
# cutoff families and the slow oscillatory-integral oracle


def bump_profile(r: np.ndarray) -> np.ndarray:
    """The C^inf bump exp(1 - 1/(1 - r^2)) on |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C^inf transition, 0 at t<=0 rising to 1 at t>=1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        e0 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        e1 = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return e0 / (e0 + e1)


@dataclass(frozen=True)
class CutoffFamily:
    """Smooth plateau cutoffs psi_m: identically 1 on |x| <= plateau*r_m,
    supported in |x| < r_m, with radii r_m = base_radius * 2^m."""

    base_radius: float = 2.0
    rungs: int = 4
    plateau: float = 0.5

    def radius(self, m: int) -> float:
        return self.base_radius * 2.0 ** m

    def evaluate(self, m: int, points: np.ndarray) -> np.ndarray:
        """psi_m at points of shape (..., n)."""
        r = np.linalg.norm(np.atleast_2d(points), axis=-1).reshape(
            np.asarray(points).shape[:-1])
        rm = self.radius(m)
        return _smoothstep((rm - r) / (rm * (1.0 - self.plateau)))


def oscillatory_integral(amplitude, n: int, cutoffs: CutoffFamily,
                         nodes_per_unit: float = 4.0, tol: float = 1e-4):
    """Cutoff-regularized evaluation of
    integral amplitude(u, v) e^{i u.v} d/u d/v over R^{2n}.

    amplitude(u, v) takes arrays of shape (..., n) and returns (..., k, k).
    Walks the radius ladder until successive values are Cauchy within tol;
    returns ((k, k) array, report dict).  This is the slow reference path
    that the fast product is validated against.
    """
    values = []
    for m in range(cutoffs.rungs):
        rad = cutoffs.radius(m)
        npts = max(8, int(np.ceil(2 * rad * nodes_per_unit / 2)) * 2)
        ax = np.linspace(-rad, rad, npts, endpoint=False)
        du = ax[1] - ax[0]
        ugrid = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1).reshape(-1, n)
        psi_u = cutoffs.evaluate(m, ugrid)
        keep = psi_u > 1e-300
        ugrid, psi_u = ugrid[keep], psi_u[keep]
        total = 0
        chunk = max(1, 2_000_000 // max(len(ugrid), 1))
        for lo in range(0, len(ugrid), chunk):
            ub = ugrid[lo:lo + chunk]
            wu = psi_u[lo:lo + chunk]
            phase = np.exp(1j * (ub @ ugrid.T))            # [u, v]
            amp = amplitude(ub[:, None, :], ugrid[None, :, :])  # [u, v, k, k]
            w = (wu[:, None] * psi_u[None, :]) * phase
            total += np.einsum("uv,uvab->ab", w, amp)
        values.append(total * (du ** (2 * n)) * TWO_PI ** (-n))
        if m > 0:
            gap = float(np.linalg.norm(values[-1] - values[-2], ord=2))
            if gap <= tol:
                return values[-1], {
                    "converged": True, "rungs_used": m + 1, "cauchy_gap": gap}
    gap = float(np.linalg.norm(values[-1] - values[-2], ord=2)) if len(values) > 1 else np.inf
    if gap > tol:
        raise DivergenceError(
            f"oscillatory integral Cauchy gap {gap:.3e} above {tol:.3e} at max radius")
    return values[-1], {
        "converged": True, "rungs_used": cutoffs.rungs, "cauchy_gap": gap}


# ---------------------------------------------------------------------------
# approximate identity


def mollifier_hat(index: int, grid: GridSpec) -> np.ndarray:
    """Frequency samples of the scaled bump psi_index, mass-normalized.

    psi_index(xi) = index^n psi(index*xi) supported in |xi| < 1/index; the
    discrete mass dxi^n * sum is normalized to exactly 1, which keeps the
    mollifier an approximate identity on the grid.
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    xi = grid.dual_mesh()
    r = np.sqrt(sum(c * c for c in xi)) * index
    raw = bump_profile(r)
    # require at least ~1.5 dual spacings inside the support per axis
    if 1.0 / index < 1.5 * grid.dual_spacing:
        raise ResolutionError(
            f"mollifier support 1/{index} below dual resolution {grid.dual_spacing:.4f}")
    mass = raw.sum() * grid.dual_spacing ** grid.n
    return raw / mass


def approximate_identity(index: int, grid: GridSpec,
                         algebra_dim: int = 1) -> ModuleFunction:
    """The mollifier e_index with L_{e_index} f -> f as index grows.

    Built by inverse transform of the normalized frequency bump tensored
    with the identity matrix (the approximate unit of a unital algebra).
    """
    psi = mollifier_hat(index, grid)
    hat = (TWO_PI ** (grid.n / 2.0)) * psi[..., None, None] * np.eye(algebra_dim)
    return ModuleFunction(grid, grid_transform(hat, grid, inverse=True))
