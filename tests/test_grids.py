"""grids.fourier_multiplier against the per-axis composition it replaces."""
import numpy as np
import pytest

from rieffel.grids import GridSpec, axis_transform, fourier_multiplier

G = GridSpec(2, 16, 8.0)
X = (G.spacing, -G.half_width)                   # x slot: (spacing, origin)
XI = (G.dual_spacing, float(G.dual_axis()[0]))   # xi slot
ODD = (0.3, 0.37)                                # an origin off every lattice


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
