"""The long-double references of reference_ld, and the forward errors they
resolve: the axis transform's, both ways, and the n = 2 product kernel's.

Each error is max |got - ref| / max |ref| against the long-double answer;
each test writes its observed worst error beside its bound.
"""
import numpy as np
import pytest

from rieffel.deformation import SkewForm, twisted_coefficients
from rieffel.grids import GridSpec, axis_transform

from reference_ld import (LONG_DOUBLE, PI, axis_transform_ld, relative_error,
                          twisted_sum_ld)

pytestmark = pytest.mark.skipif(
    not LONG_DOUBLE, reason="np.longdouble is plain double on this platform")


def field(npts, channels, seed):
    r = np.random.default_rng(seed)
    return r.normal(size=(npts, channels)) + 1j * r.normal(size=(npts, channels))


@pytest.mark.parametrize("npts", [16, 18, 32, 96])
def test_axis_transform_ld_round_trip(npts):
    # the oracle against itself: forward then inverse returns the input to
    # long-double roundoff (observed at most 3.2e-19), where a float64 path
    # reads 1e-16 or more
    x = field(npts, 4, [60, npts])
    back = axis_transform_ld(axis_transform_ld(x, 0, 8.0), 0, 8.0, inverse=True)
    assert relative_error(back, x) <= 2e-18


# the bound on axis_transform's error against the long-double DFT, forward
# and inverse: observed at most 2.8e-16 on 8 complex normal columns at
# N = 16 to 128.  Its signs are exact; a phase taken of the rounded
# argument x0 nu, as large as pi N / 2, read 5.3e-16 to 1.7e-14
AXIS_TRANSFORM_ERROR = 5e-16


@pytest.mark.parametrize("npts", [16, 18, 32, 64, 96, 128])
def test_axis_transform_forward_error_against_long_double(npts):
    g = GridSpec(1, npts, 8.0)
    x = field(npts, 8, [61, npts])
    before = x.copy()
    for inverse in (False, True):
        ref = axis_transform_ld(x, 0, 8.0, inverse)
        got = axis_transform(x, 0, g.spacing, -g.half_width, inverse)
        assert got.dtype == complex and x.tobytes() == before.tobytes()
        assert relative_error(got, ref) <= AXIS_TRANSFORM_ERROR
        # negative control: the transform of the input shifted by one node
        # is far off
        shifted = axis_transform_ld(np.roll(x, 1, axis=0), 0, 8.0, inverse)
        assert relative_error(got, shifted) > 0.5


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n, theta", [(2, 0.5), (2, -0.7), (2, 0.0), (1, 0.0)])
def test_twisted_coefficients_forward_error_against_long_double(n, theta, k):
    # full-band coefficients at N = 16, so p + q wraps: the kernel reads at
    # most 5.7e-16 of the largest coefficient (observed; float64's direct
    # mode-pair sum reads up to 1.2e-15); the long-double sum of the other
    # sign of theta is order 1 away
    g = GridSpec(n, 16, 8.0)
    r = np.random.default_rng([n, k, 62])
    shape = g.shape + (k, k)
    fhat, ghat = (r.normal(size=shape) + 1j * r.normal(size=shape) for _ in range(2))
    ref = twisted_sum_ld(fhat, ghat, n, 8.0, theta)
    assert relative_error(twisted_coefficients(fhat, ghat, g, theta), ref) <= 1e-15
    if theta:
        assert relative_error(twisted_sum_ld(fhat, ghat, n, 8.0, -theta), ref) > 0.5


def test_twisted_sum_ld_plane_wave_law():
    # coefficients on one mode each: e_p x_J e_q = e^{-i p.Jq} e_{p+q}, the
    # twist of the long-double sum alone, to long-double roundoff, at a pair
    # whose sum wraps past the band edge
    npts, theta = 16, 0.7
    g = GridSpec(2, npts, 8.0)
    p, q = (7, -3), (4, 5)
    fhat, ghat = np.zeros((2,) + g.shape + (1, 1), dtype=complex)
    fhat[p[0] + 8, p[1] + 8] = 1.0
    ghat[q[0] + 8, q[1] + 8] = 1.0
    got = twisted_sum_ld(fhat, ghat, 2, 8.0, theta)
    xi = PI / np.longdouble(8.0)
    twist = np.longdouble(theta) * xi * xi * (p[0] * q[1] - p[1] * q[0])
    want = np.zeros(got.shape, dtype=np.clongdouble)
    r = [(p[d] + q[d] + 8) % npts for d in range(2)]
    want[r[0], r[1]] = (np.cos(twist) - 1j * np.sin(twist)) * xi * xi / (2 * PI)
    assert np.abs(got - want).max() <= 1e-18 * np.abs(want).max()
    assert np.count_nonzero(got) == 1
