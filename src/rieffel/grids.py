"""Uniform periodic grids on [-L, L)^n and their Fourier duals.

Conventions, written out once and used everywhere:

  * spatial nodes      x_j   = -L + j*h,          h = 2L/N,  j = 0..N-1
  * dual (frequency)   xi_m  = (pi/L) * m,        m = -N/2..N/2-1 (ascending)
  * forward transform  F(xi) = (2*pi)^(-1/2) * integral e^{-i x xi} f(x) dx
    realized per axis as

        F_m = (2*pi)^(-1/2) * h * exp(-i*x0*xi_m) * DFT_m((-1)^j f_j)

    because x_j*xi_m = x0*xi_m + 2*pi*j*m/N - pi*j.  The inverse applies the
    conjugate phases with measure dxi = pi/L.  Round trips are exact.

axis_transform keeps an arbitrary spacing dx and origin x0 for real
transforms such as symbol_to_kernel, whose frequency slots have the spatial
grid as their dual.  A Fourier multiplier (transform, multiply, invert) does
not depend on the origin: the signs, phases and measures cancel, so
fourier_multiplier takes only the spacings and works in FFT order, as
does translates, which shifts one function by several vectors with one
forward and one batched inverse FFT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Truncated uniform grid on the box [-L, L)^n."""

    n: int
    points: int
    half_width: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        if self.points < 8 or self.points % 2 != 0:
            raise ValueError(f"points must be even and >= 8, got {self.points}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def dual_spacing(self) -> float:
        return np.pi / self.half_width

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.n

    def dual(self) -> "GridSpec":
        """The frequency-side grid: same point count, box [-pi/h, pi/h)^n.

        Its spacing is this grid's dual_spacing, and its dual is this grid
        again (up to float rounding; compare grids with `compatible`).
        """
        return GridSpec(self.n, self.points,
                        self.points * np.pi / (2.0 * self.half_width))

    def compatible(self, other: "GridSpec") -> bool:
        return (self.n == other.n and self.points == other.points
                and np.isclose(self.half_width, other.half_width,
                               rtol=1e-12, atol=0.0))

    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def dual_axis(self) -> np.ndarray:
        return self.dual_spacing * np.arange(-self.points // 2, self.points // 2)

    def mesh(self) -> list:
        """Coordinate arrays of shape self.shape, one per dimension."""
        return list(np.meshgrid(*([self.axis()] * self.n), indexing="ij"))

    def dual_mesh(self) -> list:
        return list(np.meshgrid(*([self.dual_axis()] * self.n), indexing="ij"))


def axis_transform(samples: np.ndarray, axis: int, dx: float, x0: float,
                   inverse: bool = False) -> np.ndarray:
    """Symmetric-normalization Fourier transform along one uniform axis.

    Input nodes are x_j = x0 + j*dx; output nodes are the ascending dual
    frequencies nu_m = (m - M/2) * 2*pi/(M*dx).  The inverse maps back.
    One fresh array takes the signs or phases, the FFT and the scaling, as
    np.multiply(factor, out, out=out): `out *= factor` swaps the operands of
    the complex multiply, which changes the last bits."""
    m = samples.shape[axis]
    dnu = TWO_PI / (m * dx)
    nu = dnu * np.arange(-m // 2, m // 2)
    shape = [m if d == axis else 1 for d in range(samples.ndim)]
    alt = np.where(np.arange(m) % 2 == 0, 1.0, -1.0).reshape(shape)
    if not inverse:
        out = np.multiply(samples, alt, out=np.empty(samples.shape, complex))
        np.fft.fft(out, axis=axis, out=out)
        factor = (dx / np.sqrt(TWO_PI)) * np.exp(-1j * x0 * nu).reshape(shape)
    else:
        out = samples * np.exp(1j * x0 * nu).reshape(shape)
        np.fft.ifft(out, axis=axis, out=out)
        factor = (m * dnu / np.sqrt(TWO_PI)) * alt
    return np.multiply(factor, out, out=out)


def fourier_multiplier(samples: np.ndarray, spacings, fn) -> np.ndarray:
    """Fourier multiplier over the leading len(spacings) axes: one forward
    FFT, multiply by fn(nus), one inverse FFT.

    nus[ax] = 2*pi*fftfreq(m, spacings[ax]) lists the dual frequencies of
    axis ax in FFT order, shaped to broadcast along that axis (length 1 on
    every other axis of samples), so fn may return a multiplier that couples
    axes.  axis_transform's (-1)^j signs, origin phases and measures cancel
    between its forward and inverse passes, so the result does not depend on
    where the nodes start.
    """
    axes = tuple(range(len(spacings)))
    nus = [TWO_PI * np.fft.fftfreq(samples.shape[ax], dx).reshape(
        (-1,) + (1,) * (samples.ndim - 1 - ax)) for ax, dx in zip(axes, spacings)]
    hat = np.fft.fftn(samples, axes=axes)
    hat *= fn(nus)  # in place: no second full-size array while inverting
    return np.fft.ifftn(hat, axes=axes, out=hat)


def separable_wave(nodes: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """e^{i freq.t} on the grid nodes^n, n = len(freq), built as an outer
    product of n one-dimensional exponentials."""
    out = np.exp(1j * freq[0] * nodes)
    for f in freq[1:]:
        out = out[..., None] * np.exp(1j * f * nodes)
    return out


def translates(samples: np.ndarray, spacing: float, shifts) -> np.ndarray:
    """Samples of x -> f(x + s_t) for each row s_t of shifts, shape
    (T,) + samples.shape, trig-interpolated.

    The leading n = shifts.shape[1] axes of samples are the grid axes, of
    equal length and spacing; the rest are channels.  One forward FFT with the
    channels first, so the FFT axes are contiguous; T phase multiplies
    e^{i s_t.nu} with nu in FFT order, as in fourier_multiplier; one in-place
    inverse FFT over the batch.  Returns a channels-last view of the
    channels-first (T, channels..., grid...) buffer.
    """
    shifts = np.asarray(shifts, dtype=float)
    grid = tuple(range(-shifts.shape[1], 0))
    nu = TWO_PI * np.fft.fftfreq(samples.shape[0], spacing)
    hat = np.array(np.moveaxis(samples, range(len(grid)), grid), dtype=complex, order="C")
    np.fft.fftn(hat, axes=grid, out=hat)
    out = np.empty((len(shifts),) + hat.shape, dtype=complex)
    for shift, dest in zip(shifts, out):
        np.multiply(hat, separable_wave(nu, shift), out=dest)
    np.fft.ifftn(out, axes=grid, out=out)
    return np.moveaxis(out, grid, range(1, len(grid) + 1))


def grid_transform(samples: np.ndarray, grid: GridSpec,
                   inverse: bool = False) -> np.ndarray:
    """axis_transform over the n spatial axes of samples laid out on grid.

    Forward maps samples on grid.axis()^n to the dual grid; inverse=True maps
    samples on the dual grid back.
    """
    out = samples
    for ax in range(grid.n):
        out = axis_transform(out, ax, grid.spacing, -grid.half_width, inverse=inverse)
    return out

