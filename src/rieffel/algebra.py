"""The coefficient C*-algebra M_k(C): plain complex (k, k) ndarrays.

ndarray's +, -, @ and scalar * are the algebra's, and the involution a -> a*
is a.conj().T.  This module adds the C*-norm (largest singular value), also
batched over stacked arrays, and a positivity diagnostic.  The algebra is
unital, so any approximate unit collapses to the identity matrix.
"""
from __future__ import annotations

import numpy as np


def cnorm(a: np.ndarray) -> float:
    """C*-norm of a (k, k) array, its largest singular value; raises on inf/NaN."""
    return float(_svd_norm(a))


# p + r inside this range is computed without overflow or harmful underflow
SQUARES_MIN, SQUARES_MAX = 1e-290, 1e290


def cnorm_entries(entries: np.ndarray) -> np.ndarray:
    """Spectral norm over the trailing (k, k) axes of a stacked array.

    k = 1 is the modulus.  k = 2 uses the closed form for the largest
    eigenvalue of A A* = [[p, q], [conj(q), r]],

        sigma_max^2 = (p + r)/2 + hypot((p - r)/2, |q|),

    with p, r the squared row norms and q = a conj(c) + b conj(d): a sum of
    non-negative terms, so it stays accurate for scaled unitaries and rank-one
    matrices, where the discriminant form f^2 - 4|det|^2 cancels.  Matrices
    whose p + r would overflow or underflow (entries beyond about 1e+-145)
    go to the SVD, as does every k >= 3.  For k >= 2 a non-finite entry
    raises LinAlgError.  For the supremum alone use cnorm_sup.
    """
    k = entries.shape[-1]
    if k == 1:
        return np.abs(entries[..., 0, 0])
    if k != 2:
        return _svd_norm(entries)
    rows = np.ascontiguousarray(entries, dtype=complex).reshape(-1, 2, 2)
    parts = rows.view(float)                     # (M, 2, 4): re/im of each row
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        p, r = np.einsum("mij,mij->im", parts, parts)
        q = np.abs(np.einsum("mj,mj->m", rows[:, 0], rows[:, 1].conj()))
        total = p + r
        out = np.sqrt(0.5 * total + np.hypot(0.5 * (p - r), q))
    fallback = ~(total <= SQUARES_MAX)          # overflow, inf and nan
    tiny = total < SQUARES_MIN
    if tiny.any():
        fallback |= tiny & rows.any(axis=(1, 2))
    if fallback.any():
        out[fallback] = _svd_norm(rows[fallback])
    return out.reshape(entries.shape[:-2])


def cnorm_sup(entries: np.ndarray) -> float:
    """float(cnorm_entries(entries).max()), bit for bit (see cnorm_sup_slabs)."""
    return cnorm_sup_slabs([entries])


def cnorm_sup_slabs(slabs, best: float = 0.0) -> float:
    """max of best and float(cnorm_entries(s).max()) over the arrays s of
    slabs, bit for bit, NaN if any is NaN; so a stream folded in parts, each
    part starting from the one before, reads the whole stream's bits.  Only
    matrices with ||A||_F^2 at least m/k, m the slab's largest (||A||_2^2 >=
    m/k at its maximizer), and at least the running floor best^2 (||A||_2 <=
    ||A||_F), less 1e-12 for rounding, are normed; squares outside
    [1e-290, 1e290] take the full path.  Each slab is dropped before the next
    is drawn (PhaseSymbol.slabs)."""
    for s in slabs:
        k = s.shape[-1]
        if k == 1:  # the norm is |z|: no Frobenius pass, no floor
            best = float(np.maximum(best, np.abs(s).max()))
            del s
            continue
        rows = np.ascontiguousarray(s, dtype=complex).reshape(-1, k, k)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            fro = np.einsum("mij,mij->m", rows.view(float), rows.view(float))
            floor = best * best * (1 - 1e-12)
        m = fro.max()
        if not (m < floor or (m == 0 and not rows.any())):
            if SQUARES_MIN <= m <= SQUARES_MAX:
                rows = rows[fro >= max((m / k) * (1 - 1e-12), floor)]
            best = float(np.maximum(best, cnorm_entries(rows).max()))
        del s, rows, fro
    return best


def slab_differences(pairs):
    """x - y per pair (x, y), in one reused buffer: valid until the next."""
    buf = None
    for x, y in pairs:
        buf = np.subtract(x, y, out=buf)
        del x, y
        yield buf


def _svd_norm(entries: np.ndarray) -> np.ndarray:
    """Largest singular value by batched SVD; non-finite entries raise (the
    SVD itself raises on NaN but returns NaN for inf)."""
    if not np.isfinite(entries).all():
        raise np.linalg.LinAlgError("matrix entries are not finite")
    return np.linalg.svd(entries, compute_uv=False)[..., 0]


def positivity_defect(a: np.ndarray) -> float:
    """Distance-to-positivity diagnostic.

    Returns max(0, -lambda_min((a + a*)/2)) plus the norm of the
    anti-Hermitian part; zero (to tolerance) iff a is positive
    semidefinite Hermitian.
    """
    h = (a + a.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(h)[0])
    skew = a - a.conj().T
    return max(0.0, -lam_min) + float(np.linalg.norm(skew, ord=2))
