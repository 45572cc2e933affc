"""grids.fourier_multiplier against the per-axis composition it replaces,
grids.axis_transform against the three-array body it replaced, and the
batched grids.translates against module_space.translate."""
import numpy as np
import pytest

from rieffel.grids import (TWO_PI, GridSpec, axis_transform, fourier_multiplier,
                          translates)
from rieffel.module_space import ModuleFunction, translate

G = GridSpec(2, 16, 8.0)
X = (G.spacing, -G.half_width)                   # x slot: (spacing, origin)
XI = (G.dual_spacing, float(G.dual_axis()[0]))   # xi slot
ODD = (0.3, 0.37)                                # an origin off every lattice


@pytest.mark.parametrize("half_width", [np.nan, np.inf])
def test_grid_rejects_half_width_that_is_not_positive_and_finite(half_width):
    with pytest.raises(ValueError, match="half_width must be finite and > 0"):
        GridSpec(2, 16, half_width)


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


def axis_transform_reference(samples, axis, dx, x0, inverse=False, swapped=False):
    """axis_transform as it was before it ran in one array (three fresh
    arrays per call), kept as its bit-for-bit reference.  swapped=True is
    the wrong in-place variant: `out *= factor` swaps the complex multiply's
    operands."""
    m = samples.shape[axis]
    nu = (TWO_PI / (m * dx)) * np.arange(-m // 2, m // 2)
    alt = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    shape = [1] * samples.ndim
    shape[axis] = m
    alt = alt.reshape(shape)
    if not inverse:
        out = np.fft.fft(samples * alt, axis=axis)
        factor = (dx / np.sqrt(TWO_PI)) * np.exp(-1j * x0 * nu).reshape(shape)
    else:
        out = np.fft.ifft(samples * np.exp(1j * x0 * nu).reshape(shape), axis=axis)
        dnu = TWO_PI / (m * dx)
        factor = (m * dnu / np.sqrt(TWO_PI)) * alt
    if swapped:
        out *= factor
        return out
    return factor * out


AXIS_SHAPES = [(16, 2, 2), (16, 16, 2, 2), (8, 8, 8, 8, 2, 2)]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape, axis", [
    (shape, axis) for shape in AXIS_SHAPES for axis in range(len(shape) - 2)])
def test_axis_transform_bit_for_bit(shape, axis, dtype, inverse):
    # n = 1 and n = 2 fields and a 6-D product grid, each spatial axis; the
    # input is left byte for byte as it was
    r = np.random.default_rng(len(shape) + axis)
    samples = r.normal(size=shape)
    if dtype is complex:
        samples = samples + 1j * r.normal(size=shape)
    before = samples.copy()
    args = (samples, axis, 0.3, -2.4, inverse)
    out = axis_transform(*args)
    assert out.dtype == complex
    assert np.array_equal(out, axis_transform_reference(*args))
    assert samples.tobytes() == before.tobytes()


def test_axis_transform_operand_order_detected():
    # negative control: the swapped in-place scaling differs from the
    # reference in the last bits of a forward transform, so the test above
    # would catch it
    samples = random_samples(2)
    ref = axis_transform_reference(samples, 0, *X)
    assert not np.array_equal(axis_transform_reference(samples, 0, *X, swapped=True), ref)


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
