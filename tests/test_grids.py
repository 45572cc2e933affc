"""grids.fourier_multiplier against the per-axis composition it replaces,
grids.axis_transform against its exact-sign form in three arrays and its
origin check, and the batched grids.translates against
module_space.translate."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieffel.grids import (TWO_PI, GridSpec, axis_transform, fourier_multiplier,
                          translates)
from rieffel.module_space import ModuleFunction, translate

G = GridSpec(2, 16, 8.0)
X = (G.spacing, -G.half_width)                   # x slot: (spacing, origin)
XI = (G.dual_spacing, float(G.dual_axis()[0]))   # xi slot
ODD = (0.3, -2.4)                                # a spacing neither grid has


@pytest.mark.parametrize("half_width", [np.nan, np.inf])
def test_grid_rejects_half_width_that_is_not_positive_and_finite(half_width):
    with pytest.raises(ValueError, match="half_width must be finite and > 0"):
        GridSpec(2, 16, half_width)


@pytest.mark.parametrize("width", [8.0, 0.7443609022556391])
@pytest.mark.parametrize("n", [1, 2])
def test_compatible_matches_isclose(n, width):
    # the plain-float predicate is np.isclose(rtol=1e-12, atol=0) on the
    # half widths, as a bool; at the second width a grid's dual of its dual
    # is one ulp off
    g = GridSpec(n, 16, width)
    others = [GridSpec(n, 16, width * (1 + s * r)) for r in (0.5e-12, 2e-12)
              for s in (1, -1)] + [GridSpec(n, 16, width), g.dual().dual()]
    for h in others:
        got = g.compatible(h)
        assert type(got) is bool
        assert got == bool(np.isclose(g.half_width, h.half_width, rtol=1e-12, atol=0.0))
    assert [g.compatible(h) for h in others] == [True, True, False, False, True, True]
    assert (g.dual().dual().half_width == width) == (width == 8.0)
    assert g.compatible(GridSpec(n, 16, 8)) == (width == 8.0)
    assert not g.compatible(GridSpec(n, 18, width))
    assert not g.compatible(GridSpec(3 - n, 16, width))


def oracle(samples, axes, fn):
    """axis_transform forward along each (spacing, origin) axis, multiply by
    fn at the ascending frequencies of axis_transform, then invert."""
    hat, nus = samples, []
    for ax, (dx, x0) in enumerate(axes):
        hat = axis_transform(hat, ax, dx, x0)
        m = samples.shape[ax]
        shape = [1] * samples.ndim
        shape[ax] = m
        nus.append((2 * np.pi / (m * dx) * np.arange(-m // 2, m // 2)).reshape(shape))
    hat = hat * fn(nus)
    for ax, (dx, x0) in enumerate(axes):
        hat = axis_transform(hat, ax, dx, x0, inverse=True)
    return hat


def derivative(nus):
    """Separable: d/dt_0 d^2/dt_last (d^3/dt^3 on one axis)."""
    return (1j * nus[0]) * (1j * nus[-1]) ** 2


def adjoint_phase(nus):
    """Non-separable: the adjoint-symbol phase e^{i sum_d nu_d nu_{n+d}}."""
    n = len(nus) // 2
    return np.exp(1j * sum(nus[d] * nus[n + d] for d in range(n)))


CASES = {
    "xi-derivative": ([XI], derivative),
    "xi-odd-derivative": ([XI, ODD], derivative),
    "x-xi-phase": ([X, XI], adjoint_phase),
    "phase-space-derivative": ([X, X, XI, XI], derivative),
    "phase-space-phase": ([X, X, XI, XI], adjoint_phase),
}


def random_samples(naxes, seed=0, k=2):
    r = np.random.default_rng(seed)
    shape = (G.points,) * naxes + (k, k)
    return r.normal(size=shape) + 1j * r.normal(size=shape)


@pytest.mark.parametrize("case", CASES)
def test_fourier_multiplier_matches_axis_transforms(case):
    axes, fn = CASES[case]
    samples = random_samples(len(axes))
    ref = oracle(samples, axes, fn)
    out = fourier_multiplier(samples, [dx for dx, _ in axes], fn)
    assert out.shape == samples.shape
    # observed <= 1.3e-15 relative
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    # negative control: frequencies handed over in ascending order instead
    # of FFT order put each multiplier value on the wrong mode
    ascending = fourier_multiplier(
        samples, [dx for dx, _ in axes],
        lambda nus: fn([np.fft.fftshift(nu) for nu in nus]))
    assert np.abs(ascending - ref).max() > 1e-2 * np.abs(ref).max()


def test_fourier_multiplier_leaves_input_alone():
    samples = random_samples(2)
    before = samples.copy()
    fourier_multiplier(samples, [G.spacing] * 2, adjoint_phase)
    assert np.array_equal(samples, before)


def exact_sign_transform(samples, axis, dx, inverse=False):
    """axis_transform written out in three fresh arrays: the signs
    (-1)^j on the nodes and (-1)^(m - M/2) on the frequencies, the FFT, and
    the real measure, on the symmetric box x0 = -M dx / 2."""
    m = samples.shape[axis]
    shape = [1] * samples.ndim
    shape[axis] = m
    index = np.arange(m).reshape(shape)
    node, freq = (-1.0) ** index, (-1.0) ** (index - m // 2)
    if not inverse:
        return freq * np.fft.fft(node * samples, axis=axis) * (dx / np.sqrt(TWO_PI))
    dnu = TWO_PI / (m * dx)
    return node * np.fft.ifft(freq * samples, axis=axis) * (m * dnu / np.sqrt(TWO_PI))


AXIS_SHAPES = [(16, 2, 2), (16, 16, 2, 2), (8, 8, 8, 8, 2, 2)]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape, axis", [
    (shape, axis) for shape in AXIS_SHAPES for axis in range(len(shape) - 2)])
def test_axis_transform_bit_for_bit(shape, axis, dtype, inverse):
    # n = 1 and n = 2 fields and a 6-D product grid, each spatial axis: the
    # one-array transform has the bits of its exact-sign form in three
    # arrays (a rounded phase in place of either sign would differ), and
    # the input is left byte for byte as it was.  On a transposed view the
    # forward result is C-contiguous and the inverse keeps the view's
    # layout (a forward in the input's layout made CLI product jobs at
    # N = 64, k = 2 about 30% slower on a shared 2-core x86-64 box)
    r = np.random.default_rng(len(shape) + axis)
    samples = r.normal(size=shape)
    if dtype is complex:
        samples = samples + 1j * r.normal(size=shape)
    before = samples.copy()
    dx = 0.3
    x0 = -shape[axis] * dx / 2
    out = axis_transform(samples, axis, dx, x0, inverse)
    assert out.dtype == complex
    assert np.array_equal(out, exact_sign_transform(samples, axis, dx, inverse))
    assert samples.tobytes() == before.tobytes()
    view = axis_transform(samples.T, samples.ndim - 1 - axis, dx, x0, inverse)
    assert np.array_equal(view, out.T)
    assert view.flags.c_contiguous != inverse and view.flags.f_contiguous == inverse


@pytest.mark.parametrize("inverse", [False, True])
def test_axis_transform_rejects_an_asymmetric_origin(inverse):
    # the origin must be -M dx / 2 to 1e-12 relative: an origin off every
    # lattice, one off by 1e-9 relative, the box's other end and NaN are
    # refused in both directions; one off by 1e-13 relative is the
    # symmetric box, with its bits
    samples = random_samples(1)
    dx, x0 = X
    for bad in (0.37, x0 * (1 + 1e-9), -x0, np.nan):
        with pytest.raises(ValueError, match="origin x0 must be -M"):
            axis_transform(samples, 0, dx, bad, inverse)
    assert np.array_equal(axis_transform(samples, 0, dx, x0 * (1 + 1e-13), inverse),
                          axis_transform(samples, 0, dx, x0, inverse))


@given(half=st.integers(4, 128), width=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_axis_transform_takes_every_grid_origin_and_round_trips(half, width, seed):
    # every grid's nodes, its dual grid's nodes and its dual axis pass the
    # origin check, and forward then inverse returns the input within
    # 3 u log2(N) of its largest entry (observed at most 1.5 u log2(N) over
    # 6,000 random grids with N = 8..256)
    npts = 2 * half
    g = GridSpec(1, npts, width)
    x = np.random.default_rng(seed).normal(size=(npts, 2, 2)).view(complex)
    slots = [(g.spacing, g.axis()[0]), (g.dual().spacing, g.dual().axis()[0]),
             (g.dual_spacing, g.dual_axis()[0])]
    for dx, x0 in slots:
        back = axis_transform(axis_transform(x, 0, dx, x0), 0, dx, x0, inverse=True)
        assert np.abs(back - x).max() <= 3 * 2.0 ** -53 * np.log2(npts) * np.abs(x).max()


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_translates_matches_translate(n, k):
    # row t of translates(f, h, shifts) is f(x + s_t), which translate gives
    # one shift at a time as translate(f, -s_t); observed <= 3.8e-16 relative
    g = GridSpec(n, 16, 8.0)
    r = np.random.default_rng(10 * n + k)
    shape = g.shape + (k, k)
    f = ModuleFunction(g, r.normal(size=shape) + 1j * r.normal(size=shape))
    before = f.samples.copy()
    shifts = np.vstack([r.uniform(-1.5, 1.5, size=(3, n)), np.zeros((1, n))])
    out = translates(f.samples, g.spacing, shifts)
    assert out.shape == (len(shifts),) + shape
    # a channels-last view of one channels-first buffer
    assert out.transpose((0, n + 1, n + 2) + tuple(range(1, n + 1))).flags.c_contiguous
    assert np.array_equal(f.samples, before)
    for s, row in zip(shifts, out):
        ref = translate(f, -s).samples
        assert np.abs(row - ref).max() <= 1e-13 * np.abs(ref).max()
    # negative control: a flipped shift sign translates the other way
    flipped = translates(f.samples, g.spacing, -shifts[:1])[0]
    ref = translate(f, -shifts[0]).samples
    assert np.abs(flipped - ref).max() > 1e-2 * np.abs(ref).max()
