"""The deformed product x_J and the mollifier family.

The product of F and G induced by an antisymmetric matrix J is

    (F x_J G)(x) = integral F(x+Ju) G(x+v) e^{i u.v}  d/u d/v,
    d/u = (2*pi)^(-n/2) du,

equivalently the single-Fourier form

    (F x_J G)(x) = integral e^{i u(x-v)} F(x-Ju) G(v)  d/v d/u.

At J = 0 (every J on n = 1, theta = 0 on n = 2) this is the pointwise
product F(x) G(x), which _pointwise forms from the kernel's plane products:
of the samples in deformed_product, of the coefficients' inverse transforms
in twisted_samples.  For J != 0 the single-Fourier form collapses on the
periodic grid to an exact twisted convolution of Fourier coefficients,

    C^(r) = (2*pi)^(-n/2) * dxi^n * sum_{p+q=r}  e^{-i p.Jq}  F^(p) G^(q),

where p, q run over the in-band dual lattice and p+q wraps.  Then n = 2 and
J = theta*[[0,1],[-1,0]], so the twist e^{-i theta (p1 q2 - p2 q1)} splits
into separate (p1,q2) and (p2,q1) factors; sweeping q2 turns the remaining
q1-sum into a cyclic convolution done by FFT, the q2 loop of
_twisted_kernel.  This evaluates the product exactly (to roundoff) for
band-limited factors.

deformed_product works channels first end to end: each factor is transposed
once to [a, b, x2, x1], its grid transform runs along the contiguous x1
axis, then x2, the kernel takes [a, b, p2, p1] coefficients and returns its
sum still transformed along z, the sample finish runs in that layout too,
and one transpose returns (N, N, k, k) samples.  The kernel's sum has two
finishes.  twisted_coefficients scales it and runs the inverse FFT along z,
giving coefficients.  The sample finish (deformed_product, and
twisted_samples from coefficients) skips that inverse FFT: along z it and
the inverse grid transform compose, in exact arithmetic, to a signed,
scaled index reversal, so it reverses z and runs the inverse transform
along x2 alone.  The kernel multiplies rectangular channel blocks, [A, B]
by [B, C].  L_F is a right-module map, so it acts on each column block of
its argument on its own, and R_G on each row block: deformed_product(F,
(u_1, .., u_m), J) runs one kernel pass with the u_j side by side as
columns (C = m k), and a tuple on the left stacks rows, each member bit for
bit its separate product.  The shared side's per-q2 multiply and FFT then
run once for the whole batch.

Each factor drops its rows of rounding noise, by one rule: row a of the
left factor keeps a p2 row, and column c of the right factor a q2 row, if
some entry of the row reaches u log2(N), u = 2^-53, times the largest
modulus of that row (L_a) or column (M_c).  The other rows hold nothing but
the transform's roundoff beside a band-limited field's band, which an FFT
of N points makes at O(u log2 N).  The loop visits the q2 rows some column
keeps and transforms only the set P of p2 rows some row keeps, so a batch
visits the union of its members' rows; each row's or column's own cut rows
are zeroed in the kernel's buffers.  The cuts move entry (a, c) of an
output coefficient by at most

    (2*pi)^(-n/2) dxi^n u log2(N) (M_c sum_{p,b} |F^(p)_ab|
                                   + L_a sum_{q,b} |G^(q)_bc|),

log2(N) unit roundoffs per factor of the largest terms the twisted sum
adds: the size of the normwise error an FFT convolution makes anyway (N. J.
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
ch. 24).  The rule is per row and per column, as L_F acts on each column on
its own and R_G on each row.  A row or column with a non-finite entry keeps
every row it occupies, and a right factor with one transforms all N p2
rows, so its NaN reaches every r2 as through the uncut sum's 0 * NaN.

The phase rows are built once per call, only for the visited q2 rows and
the P rows; the P rows of the left factor are gathered once, and for each
q2 the two modulated factors share one (A B + B C, |P|, N) buffer, so one
batched FFT call along the contiguous last axis transforms both; the
channel product is A B C multiply-adds of |P|-row planes, through views
built once per call, and each q2's products are added straight into an
accumulator indexed by r2 = p2 + q2 - N/2, one slice per run of consecutive
rows in P, split where r2 wraps, and still in the transform domain, so one
finish serves every q2.  Every per-q2 multiply and FFT writes into buffers
allocated once per call, and none is kept between calls.  That is one FFT
call of (A B + B C) |P| lines per kept q2 row, plus one inverse FFT for
coefficients or one inverse transform along x2 for samples, and at most
O(N^3 k^2 log N + N^3 k^3) work instead of the naive O(N^4 k^3).

Matrix order: values of the left factor always multiply from the left.
The left action L_F u is deformed_product(F, u, J) and the right action
R_G u is deformed_product(u, G, J).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GridMismatchError, ResolutionError
from .grids import TWO_PI, GridSpec, axis_transform, grid_transform, roundoff_cut
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


def _channels_first(arr: np.ndarray) -> np.ndarray:
    """(N, N, k, k) -> [k, k, x2, x1], a view: x1 is last."""
    return arr.transpose(2, 3, 1, 0)


def _channels_last(arr: np.ndarray) -> np.ndarray:
    """Inverse of _channels_first, contiguous."""
    return np.ascontiguousarray(arr.transpose(3, 2, 0, 1))


def _transform_channels_first(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """grid_transform of channels-first [a, b, x2, x1] data: the same
    axis_transform along x1 (the last, contiguous axis), then x2.  Returns a
    fresh C-contiguous array in the input's axis order."""
    for ax in (3, 2):
        arr = axis_transform(arr, ax, grid.spacing, -grid.half_width)
    return arr


def _twisted_kernel(ft: np.ndarray, gt: np.ndarray, grid: GridSpec,
                    theta: float) -> np.ndarray:
    """The q2 loop's twisted sum on channels-first data, n = 2 and theta !=
    0, left transformed along the last axis, z: ft is [A, B, p2, p1], gt is
    [B, C, q2, q1], and the returned [A, C, r2, z] accumulator is their
    channel-block product, so channel (a, c) sums over b in order.
    _finish_coefficients and _finish_samples finish it.  Neither input is
    written.  Row blocks of ft, or column blocks of gt, are factors side by
    side: each block of the result is, bit for bit, the product of its own
    block alone, save for the NaN rule below.  Row a of ft keeps a non-zero
    row p2, and column c of gt a non-zero row q2, iff some entry has modulus
    at least u log2(N) times max |ft[a]| or max |gt[:, c]|, u = 2^-53, or
    that max is not finite (grids.roundoff_cut); the other rows are zeroed
    in the kernel's own buffers, which moves entry (a, c) by at most log2(N)
    unit roundoffs per factor of the largest terms its sum adds.  The loop
    visits the q2 rows some column keeps and transforms the p2 rows some row
    keeps, all N if gt has a non-finite entry.  So a non-finite entry of ft
    reaches the rows r2 = p2 + q2 - N/2 of every q2 that any column keeps,
    and none if gt is all zeros; one of gt reaches every r2 of its
    column."""
    npts = grid.points
    half = npts // 2
    shape = ft.shape[:1] + gt.shape[1:2] + ft.shape[2:]  # [A, C, r2, z]
    # ft is [A, B, p2, p1] and gt is [B, C, q2, q1].  Each kept q2 adds the
    # products of the kept p2 rows at r2 = p2 + q2 - N/2, wrapped.
    # the cut's blocks are the rows a of ft and the columns c of gt
    fkeep, fnoise, _ = roundoff_cut(np.abs(ft).max(axis=(1, 3)), npts)        # [A, p2]
    gkeep, gnoise, gfinite = roundoff_cut(np.abs(gt).max(axis=(0, 3)), npts)  # [C, q2]
    # a non-finite right factor meets every p2 row, zero or not, so that its
    # NaN reaches every r2 through 0 * NaN; the kept rows are gathered once,
    # each row block's cut rows zeroed in the gather
    rows = np.flatnonzero(fkeep.any(axis=0)) if gfinite else np.arange(npts)
    fp = ft[:, :, rows]
    cut_a, cut_j = np.nonzero(fnoise[:, rows])
    fp[cut_a, :, cut_j] = 0
    # the loop visits the rows some column keeps; only the phase rows it
    # reads are built: e^{-i theta xi(q2) xi(p1)} for the visited q2 and
    # e^{+i theta xi(p2) xi(q1)} for the gathered p2
    visit = np.flatnonzero(gkeep.any(axis=0))
    xi = grid.dual_axis()
    mods = np.exp(-1j * (theta * np.outer(xi[visit], xi)))  # [visit, p1]
    bp = np.exp(1j * (theta * np.outer(xi[rows], xi)))      # [P, q1]
    # rows as runs of consecutive p2: (first buffer row, past-the-end, first p2)
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
    runs = list(zip(starts.tolist(), starts[1:].tolist() + [rows.size],
                    rows[starts].tolist()))
    # both modulated factors of a q2 share one buffer, so one FFT call
    # transforms them; every per-q2 result is written into buffers
    # allocated once per call
    nf = ft.shape[0] * ft.shape[1]
    fab = np.empty((nf + gt.shape[0] * gt.shape[1],) + fp.shape[2:], dtype=complex)
    fmod = fab[:nf].reshape(fp.shape)                 # [A, B, P, z]
    gmod = fab[nf:].reshape(gt.shape[:2] + fp.shape[2:])  # [B, C, P, z]
    plane = np.empty(fp.shape[2:], dtype=complex)
    tmp = np.empty(fp.shape[2:], dtype=complex)
    acc = np.zeros(shape, dtype=complex)  # [A, C, r2, z]
    plan = _channel_plan(fmod, gmod, acc)
    # q2 as Python ints (numpy scalars index slower); each column's own cut
    # rows are zeroed in gmod
    gcut = gnoise.any(axis=0).tolist()
    for q2, mod in zip(visit.tolist(), mods):
        np.multiply(fp, mod, out=fmod)
        np.multiply(gt[:, :, q2, None, :], bp, out=gmod)
        if gcut[q2]:
            gmod[:, gnoise[:, q2]] = 0
        np.fft.fft(fab, axis=-1, out=fab)
        # each run lands at r2 = p2 + s and is split where it wraps
        s = (q2 - half) % npts
        pieces = []
        for j0, j1, p0 in runs:
            r0 = (p0 + s) % npts
            split = min(j1, j0 + npts - r0)
            pieces.append((j0, split, r0, r0 + split - j0))
            if split < j1:
                pieces.append((split, j1, 0, j1 - split))
        # still in the transform domain along z, so one finish after the
        # loop serves every q2
        for dest, pairs in plan:
            _channel_entry(pairs, plane, tmp)
            for j0, j1, r0, r1 in pieces:
                dest[r0:r1] += plane[j0:j1]
    return acc


def _scale(grid: GridSpec) -> float:
    """(2*pi)^(-n/2) dxi^n, the twisted sum's measure."""
    return TWO_PI ** (-grid.n / 2.0) * grid.dual_spacing ** grid.n


def _finish_coefficients(acc: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The channels-first coefficients [A, C, r2, r1] from _twisted_kernel's
    accumulator, which it overwrites: the scale and the sign (-1)^z, then
    the inverse FFT along z."""
    scale = _scale(grid)
    # the left factor's roll(-N/2) along p1 is the sign (-1)^z after its FFT
    acc *= np.where(np.arange(grid.points) % 2 == 0, scale, -scale)
    return np.fft.ifft(acc, axis=-1, out=acc)


def _finish_samples(acc: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The channels-first samples [A, C, x2, x1] from _twisted_kernel's
    accumulator, a fresh array.  Along z the coefficient finish's inverse
    FFT and the inverse axis_transform compose to an index reversal: with K
    = N dxi / sqrt(2 pi), sample j is (K/N) (-1)^(j + N/2) times entry (N/2
    - j) mod N of the inverse FFT's input, (-1)^z scale acc, whose sign
    cancels (-1)^(j + N/2).  The other axis, r2, takes the inverse
    axis_transform."""
    rev = (grid.points // 2 - np.arange(grid.points)) % grid.points
    weight = grid.dual_spacing / np.sqrt(TWO_PI)  # K / N
    out = acc[..., rev]
    out *= _scale(grid) * weight
    return axis_transform(out, 2, grid.spacing, -grid.half_width, inverse=True)


def _channel_plan(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> list:
    """The pointwise k x k product of channels-first arrays [a, b, ...] and
    [b, c, ...] as views: (out[a, c], [(x[a, b], y[b, c]) for b in order])
    for each channel (a, c) in row-major order."""
    k = x.shape[1]
    return [(out[a, c], [(x[a, b], y[b, c]) for b in range(k)])
            for a, c in np.ndindex(out.shape[:2])]


def _channel_entry(pairs: list, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum of x * y over pairs, in order, written into out (tmp is scratch)."""
    (x, y), *rest = pairs
    np.multiply(x, y, out=out)
    for x, y in rest:
        out += np.multiply(x, y, out=tmp)
    return out


def _pointwise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The pointwise matrix product of samples x, (N,)*n + (A, B), and y,
    (N,)*n + (B, C): the deformed product at J = 0, (N,)*n + (A, C), from
    the kernel's plane products on channels-first views, so channel (a, c)
    sums over b in order."""
    out = np.empty(x.shape[:-1] + y.shape[-1:], dtype=complex)
    tmp = np.empty(x.shape[:-2], dtype=complex)
    views = (np.moveaxis(h, (-2, -1), (0, 1)) for h in (x, y, out))
    for dest, pairs in _channel_plan(*views):
        _channel_entry(pairs, dest, tmp)
    return out


def _kernel_channels_last(fhat: np.ndarray, ghat: np.ndarray, grid: GridSpec,
                          theta: float) -> np.ndarray:
    """_twisted_kernel of channels-last coefficients (N, N, A, B) and
    (N, N, B, C)."""
    return _twisted_kernel(np.ascontiguousarray(_channels_first(fhat)),
                           np.ascontiguousarray(_channels_first(ghat)),
                           grid, theta)


def twisted_coefficients(fhat: np.ndarray, ghat: np.ndarray, grid: GridSpec,
                         theta: float) -> np.ndarray:
    """Fourier coefficients of the deformed product from factor coefficients.

    fhat is (N,)*n + (A, B) and ghat (N,)*n + (B, C) on dual_axis(), and the
    result is (N,)*n + (A, C): (k, k) for two fields, and for m fields side
    by side in column blocks of ghat (C = m k) block j is fhat's product with
    block j.  At J = 0 (n = 1, or theta = 0) it transforms twisted_samples'
    pointwise product.  Otherwise each row of fhat drops the p2 rows and
    each column of ghat the q2 rows whose entries all stay below u log2(N),
    u = 2^-53, of its own largest modulus (log2(N) unit roundoffs per factor
    of the largest terms the sum adds, the FFT's own normwise error), and a
    row is skipped only if every row or column drops it.  So a NaN in fhat
    also reaches a block whose own row q2 is dropped when another block
    keeps it, and a NaN in ghat reaches every output row r2 of its column
    (_twisted_kernel).  The kernel's sum is finished to coefficients:
    scaled, then inverse FFT'd along z.
    """
    if grid.n == 1 or theta == 0.0:
        return grid_transform(twisted_samples(fhat, ghat, grid, theta), grid)
    acc = _kernel_channels_last(fhat, ghat, grid, theta)
    return _channels_last(_finish_coefficients(acc, grid))


def twisted_samples(fhat: np.ndarray, ghat: np.ndarray, grid: GridSpec,
                    theta: float) -> np.ndarray:
    """The deformed product's samples, (N,)*n + (A, C), from the factor
    coefficients of twisted_coefficients: grid_transform(twisted_coefficients(
    fhat, ghat, grid, theta), grid, inverse=True) to roundoff: at J = 0 (n
    = 1, or theta = 0) the pointwise product of the factors' inverse
    transforms, otherwise the kernel's sum and its sample finish."""
    if grid.n == 1 or theta == 0.0:
        return _pointwise(grid_transform(fhat, grid, inverse=True),
                          grid_transform(ghat, grid, inverse=True))
    acc = _kernel_channels_last(fhat, ghat, grid, theta)
    return _channels_last(_finish_samples(acc, grid))


def _stacked_coefficients(fields: tuple, grid: GridSpec, axis: int) -> np.ndarray:
    """The channels-first coefficients of fields side by side along channel
    axis 0 (row blocks) or 1 (column blocks), one transform for all."""
    parts = [_channels_first(h.samples) for h in fields]
    return _transform_channels_first(
        parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis), grid)


def deformed_product(f, g, J: SkewForm):
    """(f x_J g) on the grid; Rieffel's 2*pi convention is J.rescaled(2*pi).

    Either side may be a tuple of module functions, which returns the tuple
    of their products with the other side, each np.array_equal to its
    separate product.  L_F is a right-module map, so (F x u_1, .., F x u_m)
    is one product of F with the u_j as column blocks, and likewise R_G on
    row blocks: the other side's per-q2 multiply and FFT run once for the
    batch.  At J = 0 the product is the pointwise product of the samples,
    one per member.  Tuples on both sides, or an empty tuple, raise
    ValueError; every member must share the grid and k (GridMismatchError)."""
    left, right = isinstance(f, tuple), isinstance(g, tuple)
    if left and right:
        raise ValueError("deformed_product batches one side only")
    fs, gs = (f if left else (f,)), (g if right else (g,))
    if not fs or not gs:
        raise ValueError("deformed_product of an empty tuple")
    for h in fs + gs:
        check_compatible(fs[0], h)
    grid, k = fs[0].grid, fs[0].algebra_dim
    if J.n != grid.n:
        raise GridMismatchError(f"J dimension {J.n} != grid dimension {grid.n}")
    if J.theta == 0.0:  # J = 0, as every J on n = 1 is
        out = tuple(ModuleFunction(grid, _pointwise(x.samples, y.samples))
                    for x in fs for y in gs)
    else:
        ft, gt = _stacked_coefficients(fs, grid, 0), _stacked_coefficients(gs, grid, 1)
        full = _finish_samples(_twisted_kernel(ft, gt, grid, J.theta), grid)
        blocks = (full[j * k:(j + 1) * k] if left else full[:, j * k:(j + 1) * k]
                  for j in range(len(fs) * len(gs)))
        out = tuple(ModuleFunction(grid, _channels_last(b)) for b in blocks)
    return out if left or right else out[0]


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
