"""Long-double references for the grid's transform and the n = 2 product.

Test-only: direct sums in np.longdouble / np.clongdouble, sharing no code
with rieffel, so a float64 result can be compared with an answer whose own
roundoff is about 1e-19 where long double is the 80-bit format (x86-64).
Every phase is reduced to an exact integer before its sine and cosine are
taken, and pi is the long-double arctangent's.

  * axis_transform_ld: grids.axis_transform along one axis of the grid's
    nodes x_j = -L + j h and its dual xi_m = (m - N/2) pi / L, as a DFT
    matrix: x_j xi_m = pi (2 j - N)(m - N/2) / N exactly.
  * twisted_sum_ld: the product's coefficients over mode pairs, C^(r) =
    (2 pi)^(-n/2) dxi^n sum_{p+q=r} e^{-i p.Jq} F^(p) G^(q), p + q wrapped
    into the band, for J = theta [[0, 1], [-1, 0]] (n = 2) or 0 (n = 1).
"""
import numpy as np

PI = 4 * np.arctan(np.longdouble(1))
LONG_DOUBLE = np.finfo(np.longdouble).eps < 1e-18


def _dft_matrix(npts: int, sign: int) -> np.ndarray:
    """[m, j] -> e^{sign i x_j xi_m}, the phase reduced mod 2 pi exactly."""
    j = np.arange(npts)
    turns = np.outer(j - npts // 2, 2 * j - npts) % (2 * npts)  # [m, j]
    angle = PI * turns.astype(np.longdouble) / npts
    return np.cos(angle) + sign * 1j * np.sin(angle)


def axis_transform_ld(samples: np.ndarray, axis: int, half_width: float,
                      inverse: bool = False) -> np.ndarray:
    """The symmetric transform along one axis of N nodes on [-L, L):
    forward F_m = (2 pi)^(-1/2) h sum_j e^{-i x_j xi_m} f_j, inverse f_j =
    (2 pi)^(-1/2) dxi sum_m e^{+i x_j xi_m} F_m, in clongdouble."""
    npts = samples.shape[axis]
    half_width = np.longdouble(half_width)
    if inverse:
        mat = _dft_matrix(npts, +1).T                     # [j, m]
        measure = PI / half_width
    else:
        mat = _dft_matrix(npts, -1)                       # [m, j]
        measure = 2 * half_width / npts
    x = np.moveaxis(np.asarray(samples).astype(np.clongdouble), axis, 0)
    out = np.tensordot(mat, x, axes=(1, 0)) * (measure / np.sqrt(2 * PI))
    return np.moveaxis(out, 0, axis)


def grid_transform_ld(samples: np.ndarray, n: int, half_width: float,
                      inverse: bool = False) -> np.ndarray:
    """axis_transform_ld over the leading n axes."""
    for ax in range(n):
        samples = axis_transform_ld(samples, ax, half_width, inverse)
    return samples


def twisted_sum_ld(fhat: np.ndarray, ghat: np.ndarray, n: int,
                   half_width: float, theta: float) -> np.ndarray:
    """The folded mode-pair sum of (N,)*n + (A, B) and (N,)*n + (B, C)
    coefficients on the ascending dual axis, one q at a time over every p:
    index i has frequency (i - N/2) dxi, so p + q lands on index i + j -
    N/2, wrapped.  Returns (N,)*n + (A, C) clongdouble."""
    npts = fhat.shape[0]
    half = npts // 2
    dxi = PI / np.longdouble(half_width)
    xi = (np.arange(npts) - half).astype(np.longdouble) * dxi
    f = np.asarray(fhat).astype(np.clongdouble)
    g = np.asarray(ghat).astype(np.clongdouble)
    # e^{-i theta xi_a xi_b}: p.Jq = theta (p1 q2 - p2 q1) splits in two
    arg = np.longdouble(theta) * np.outer(xi, xi)
    twist = np.cos(arg) - 1j * np.sin(arg)
    out = np.zeros(fhat.shape[:n] + (fhat.shape[-2], ghat.shape[-1]), dtype=np.clongdouble)
    axes = tuple(range(n))
    for j in np.ndindex(*(npts,) * n):
        term = np.matmul(f, g[j])
        if n == 2 and theta:
            phase = twist[j[1]][:, None] * twist[j[0]].conj()[None, :]  # [p1, p2]
            term *= phase[..., None, None]
        out += np.roll(term, tuple(jd - half for jd in j), axis=axes)
    return out * (dxi ** n / (2 * PI) ** (np.longdouble(n) / 2))


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max |ref|, evaluated in long double."""
    ref = np.asarray(ref, dtype=np.clongdouble)
    diff = np.asarray(got).astype(np.clongdouble) - ref
    return float(np.abs(diff).max() / np.abs(ref).max())
