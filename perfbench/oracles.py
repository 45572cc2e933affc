"""Inputs and correctness oracles that share no code with the timed path.

Operands are drawn as Fourier coefficients on a central band of the dual
lattice and synthesised by a direct separable DFT, so the expected deformed
product is the O(M^2) sum over mode pairs

    C_r = (2 pi)^(-n/2) dxi^n  sum_{p+q=r}  e^{-i p.Jq}  F^_p G^_q

followed by the same direct synthesis.  Output files are parsed here with
numpy, not with `rieffel.mgf`.  Only numpy is imported.
"""
from __future__ import annotations

import json
import struct

import numpy as np

# Tolerances are the suites' own: the plane-wave law (deformation), the
# recovery chain and the rejection margin (rieffel_pipeline).
PRODUCT_TOL = 1e-9
RECOVERY_TOL = 1e-5
REJECT_MARGIN = 0.1

_HEADER = struct.Struct("<4sIIId")


def space_axis(points: int, half_width: float) -> np.ndarray:
    return -half_width + (2.0 * half_width / points) * np.arange(points)


def band_modes(band: int) -> np.ndarray:
    return np.arange(-band, band + 1)


def synthesize(coeffs: np.ndarray, modes: np.ndarray, points: int,
               half_width: float) -> np.ndarray:
    """Samples (N, N, k, k) of f(x) = (2 pi)^-1 dxi^2 sum_m f^_m e^{i x.xi_m}.

    coeffs has shape (len(modes), len(modes), k, k), indexed by the integer
    dual-lattice modes in `modes` on both axes.
    """
    dxi = np.pi / half_width
    e = np.exp(1j * np.outer(space_axis(points, half_width), dxi * modes))
    out = e @ coeffs.transpose(2, 3, 0, 1) @ e.T                # (k, l, a, b)
    return (dxi * dxi / (2.0 * np.pi)) * out.transpose(2, 3, 0, 1)


def random_coeffs(rng, band: int, k: int, width: float) -> np.ndarray:
    """Complex Gaussian coefficients on modes -band..band with a Gaussian
    envelope exp(-|m|^2 / (2 width^2))."""
    m = band_modes(band)
    env = np.exp(-(m[:, None] ** 2 + m[None, :] ** 2) / (2.0 * width ** 2))
    shape = (m.size, m.size, k, k)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return z * env[..., None, None]


def twisted_sum(fc: np.ndarray, gc: np.ndarray, band: int, half_width: float,
                theta: float) -> tuple:
    """Direct sum over all mode pairs; returns (coefficients, modes) on the
    band -2*band..2*band, which holds every p + q without wrap."""
    m = band_modes(band)
    dxi = np.pi / half_width
    m1, m2 = (a.ravel() for a in np.meshgrid(m, m, indexing="ij"))
    # p.Jq with J = theta [[0, 1], [-1, 0]]: theta (p1 q2 - p2 q1)
    pjq = theta * dxi * dxi * (np.outer(m1, m2) - np.outer(m2, m1))
    k = fc.shape[-1]
    fp = fc.reshape(-1, k, k)
    gq = gc.reshape(-1, k, k)
    terms = np.exp(-1j * pjq)[..., None, None] * (fp[:, None] @ gq[None, :])
    nb = m.size
    terms = terms.reshape(nb, nb, nb, nb, k, k)
    out = np.zeros((2 * nb - 1, 2 * nb - 1, k, k), dtype=complex)
    for i1 in range(nb):           # mode p = (m[i1], m[i2]) lands at r = p + q
        for i2 in range(nb):
            out[i1:i1 + nb, i2:i2 + nb] += terms[i1, i2]
    return (dxi * dxi / (2.0 * np.pi)) * out, band_modes(2 * band)


def write_grid(path, samples: np.ndarray, half_width: float) -> None:
    """MGF1 file for samples of shape (N, N, k, k) (format in rieffel.mgf)."""
    npts, k = samples.shape[0], samples.shape[-1]
    payload = np.empty(samples.shape + (2,), dtype="<f8")
    payload[..., 0] = samples.real
    payload[..., 1] = samples.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"MGF1", samples.ndim - 2, npts, k, half_width))
        fh.write(payload.tobytes())


def read_grid(path) -> np.ndarray:
    """Samples of an MGF1 file, parsed without the library."""
    with open(path, "rb") as fh:
        magic, n, npts, k, _ = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != b"MGF1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        raw = np.frombuffer(fh.read(), dtype="<f8")
    arr = raw.reshape((npts,) * n + (k, k, 2))
    return arr[..., 0] + 1j * arr[..., 1]


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max |want| over all entries (no spectral norms, so
    no shared code with rieffel.algebra)."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def spectral_sup(samples: np.ndarray) -> float:
    """sup over the grid of the largest singular value, by eigvalsh of A*A."""
    a = samples.reshape(-1, *samples.shape[-2:])
    gram = np.einsum("mba,mbc->mac", a.conj(), a)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))


def product_ok(out: np.ndarray, expected: np.ndarray) -> tuple:
    err = rel_error(out, expected)
    return err <= PRODUCT_TOL, err


def recovery_ok(rc: int, recovered: np.ndarray, truth: np.ndarray) -> tuple:
    """Accepted job: exit code 0 and the recovered F within tolerance of the
    generating F."""
    err = rel_error(recovered, truth)
    return rc == 0 and err <= RECOVERY_TOL, err


def rejection_ok(accepted: bool, residual: float, scale: float) -> bool:
    """Rejected job: the chain refused it, with the suite's residual margin."""
    return (not accepted) and residual >= REJECT_MARGIN * scale


def report_ok(report, repeats) -> bool:
    """A verify pass passes, and every check that an earlier pass in the same
    run also ran carries an identical canonical record (residual, tolerance,
    verdict) and environment."""
    full = json.loads(report.canonical_payload())
    by_id = {c["id"]: c for c in full["checks"]}
    same = True
    for rep in repeats:
        doc = json.loads(rep.canonical_payload())
        same = same and doc["environment"] == full["environment"] and all(
            by_id.get(c["id"]) == c for c in doc["checks"])
    return bool(report.passed) and same
