"""Uniform periodic grids on [-L, L)^n and their Fourier duals.

Conventions, written out once and used everywhere:

  * spatial nodes      x_j   = -L + j*h,          h = 2L/N,  j = 0..N-1
  * dual (frequency)   xi_m  = (pi/L) * m,        m = -N/2..N/2-1 (ascending)
  * forward transform  F(xi) = (2*pi)^(-1/2) * integral e^{-i x xi} f(x) dx
    realized per axis as

        F_m = (2*pi)^(-1/2) * h * (-1)^m * DFT_{m+N/2}((-1)^j f_j)

    because x_j*xi_m = 2*pi*j*m/N - pi*m on this symmetric box, so both
    phases are exact signs.  The inverse applies the same signs with
    measure dxi = pi/L.  Round trips are exact.

A Fourier multiplier (transform, multiply, invert) needs neither the signs
nor the measures, which cancel, so fourier_multiplier takes only the
spacings and works in FFT order, as does translates, which shifts one
function by several vectors with one forward and one batched inverse FFT.

roundoff_cut states once which lines of FFT coefficients hold only the
transform's roundoff: a line below u log2(N) of its block's largest
modulus, the FFT's own normwise error.  The twisted product drops such rows
of either factor, and the translation-symbol shear such nu_1 columns of F^.
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
    def dual_measure(self) -> float:
        """(2*pi)^(-n/2) dxi^n, the measure of a sum over the dual lattice."""
        return TWO_PI ** (-self.n / 2.0) * self.dual_spacing ** self.n

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
                and abs(self.half_width - other.half_width)
                <= 1e-12 * abs(other.half_width))

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
    """Symmetric-normalization Fourier transform along one axis of M nodes
    x_j = x0 + j*dx to the ascending dual frequencies nu_m = (m - M/2) *
    2*pi/(M*dx); the inverse maps back.  The box must be symmetric, x0 =
    -M*dx/2 (any other origin raises ValueError), so x_j*nu_m = 2*pi*j*m/M -
    pi*j - pi*(m - M/2) and both phases are the exact signs (-1)^j and
    (-1)^(m - M/2).  One fresh array, C-contiguous forward and in the
    input's memory layout inverse (the layouts in which the product's
    transposed factors and reversed finish run fastest), takes the input's
    signs, the FFT, and the real scale times the output's signs."""
    m = samples.shape[axis]
    if not abs(x0 + m * dx / 2) <= 1e-12 * abs(m * dx / 2):
        raise ValueError(f"origin x0 must be -M*dx/2 = {-m * dx / 2}, got {x0}")
    shape = [m if d == axis else 1 for d in range(samples.ndim)]
    alt = np.where(np.arange(m) % 2 == 0, 1.0, -1.0).reshape(shape)
    layout = "K" if inverse else "C"
    out = np.multiply(samples, alt, out=np.empty_like(samples, complex, order=layout))
    (np.fft.ifft if inverse else np.fft.fft)(out, axis=axis, out=out)
    dnu = TWO_PI / (m * dx)
    scale = m * dnu / np.sqrt(TWO_PI) if inverse else dx / np.sqrt(TWO_PI)
    out *= ((-1.0) ** (m // 2) * scale) * alt
    return out


def fourier_multiplier(samples: np.ndarray, spacings, fn) -> np.ndarray:
    """Fourier multiplier over the leading len(spacings) axes: one forward
    FFT, multiply by fn(nus), one inverse FFT.

    nus[ax] = 2*pi*fftfreq(m, spacings[ax]) lists the dual frequencies of
    axis ax in FFT order, shaped to broadcast along that axis (length 1 on
    every other axis of samples), so fn may return a multiplier that couples
    axes.  axis_transform's signs and measures cancel between its forward
    and inverse passes, so none is applied.
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


def roundoff_cut(linemax: np.ndarray, points: int):
    """The FFT noise floor of N = points coefficient lines per block, from
    linemax[block, line], the largest modulus on each line.  A block keeps a
    non-zero line iff its linemax is at least u log2(N) times the block's
    largest, u = 2^-53, or that largest is not finite.  u log2(N) times the
    largest modulus bounds the normwise roundoff of a length-N FFT (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 24), so the other
    non-zero lines hold only transform roundoff.  Returns the [block, line]
    masks of kept lines and of the other non-zero lines, and whether every
    block's largest modulus is finite."""
    cut = 2.0 ** -53 * np.log2(points)
    blockmax = linemax.max(axis=1, keepdims=True)
    finite = np.isfinite(blockmax)
    occupied = linemax != 0
    noise = occupied & (linemax < np.where(finite, cut * blockmax, 0.0))
    return occupied & ~noise, noise, bool(finite.all())


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

