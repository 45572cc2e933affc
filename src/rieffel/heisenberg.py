"""Heisenberg group action on module functions and operator conjugation.

E_{z, zeta, phi} = e^{i phi} M_zeta T_z (HeisenbergPoint.apply) with
T_z f(x) = f(x - z) and M_zeta f(x) = e^{i zeta.x} f(x).  Composition picks
up the commutation phase

    E_{z, zeta} E_{z', zeta'} = e^{-i zeta'.z} E_{z + z', zeta + zeta'},

conjugation T_{z, zeta} = E^{-1} T E is phi-independent, and for quantized
symbols it shifts the symbol argument: the conjugate of a(x, D) is
a(x + z, xi + zeta)(x, D), the quantization of a.shift(z, zeta).
E_0 is the identity: translate and modulate return u itself at 0.

conjugate_operator(T, z, zeta, phi) is the composable handle of one
conjugate; conjugate_apply(T, points, u) applies a whole family of them to
one u as a single T.apply_many over the E_p u, so a family of L_F conjugates
is one batched deformed_product (L_F is a right-module map and acts on each
column block on its own), each member with conjugate_operator's bits.  The
module also provides finite-difference smoothness probes for the map
(z, zeta) -> T_{z, zeta} u, which run the family through conjugate_apply,
and the Fourier / right-action intertwining residuals used by the recovery
pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deformation import SkewForm, deformed_product
from .module_space import ModuleFunction, fourier, modulate, module_norm, translate
from .quantization import ComposedOp, OperatorHandle


@dataclass(frozen=True)
class HeisenbergPoint(OperatorHandle):
    """Group element (z, zeta, phi) and the operator e^{i phi} M_zeta T_z."""

    z: np.ndarray = field(repr=True)
    zeta: np.ndarray = field(repr=True)
    phi: float = 0.0

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        if z.shape != zeta.shape:
            raise ValueError("z and zeta must have equal dimension")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "phi", float(self.phi))

    def compose(self, other: "HeisenbergPoint") -> "HeisenbergPoint":
        """self acting after other (operator product E_self E_other)."""
        return HeisenbergPoint(
            self.z + other.z, self.zeta + other.zeta,
            self.phi + other.phi - float(other.zeta @ self.z))

    def inverse(self) -> "HeisenbergPoint":
        return HeisenbergPoint(-self.z, -self.zeta,
                               -self.phi - float(self.zeta @ self.z))

    def apply(self, u: ModuleFunction) -> ModuleFunction:
        """e^{i phi} e^{i zeta.x} u(x - z): exact for z commensurate with the
        grid spacing, trig-interpolated otherwise; unitary."""
        return modulate(translate(u, self.z), self.zeta, self.phi)

    adjoint = inverse  # unitary


def conjugate_operator(T: OperatorHandle, z, zeta, phi: float = 0.0) -> OperatorHandle:
    """T_{z, zeta} = E^{-1}_{z, zeta, phi} T E_{z, zeta, phi}; phi cancels."""
    E = HeisenbergPoint(z, zeta, phi)
    return ComposedOp([E.inverse(), T, E])


def conjugate_apply(T: OperatorHandle, points, u: ModuleFunction) -> tuple:
    """E_p^{-1} T E_p u for each HeisenbergPoint p in points, as a tuple:
    one T.apply_many over the E_p u, each member with the bits of
    conjugate_operator(T, p.z, p.zeta, p.phi).apply(u)."""
    points = tuple(points)
    outs = T.apply_many(tuple(p.apply(u) for p in points))
    return tuple(p.inverse().apply(v) for p, v in zip(points, outs))


def smoothness_probe(T: OperatorHandle, direction, steps, u: ModuleFunction,
                     derivative: OperatorHandle | None = None) -> dict:
    """Convergence report for the map p -> T_p u = E_p^{-1} T E_p u along a
    direction in R^{2n} (z then zeta).

    Centered difference quotients (T_{t d} - T_{-t d}) / 2t are applied to
    u, the 2 len(steps) conjugates through one conjugate_apply; T_0 itself
    is never applied.  When a derivative handle is given the quotients are
    compared against it, otherwise successive quotients are compared
    against the finest one.  The observed order is the least-squares slope
    of log residual vs log t (about 2 for a smooth family).
    """
    steps = [float(t) for t in steps]
    if len(steps) < 3 or any(steps[i] <= steps[i + 1] for i in range(len(steps) - 1)):
        raise ValueError("steps must be at least 3 decreasing values")
    d = np.asarray(direction, dtype=float)
    p0 = np.zeros_like(d)
    n = d.size // 2
    points = [HeisenbergPoint(p[:n], p[n:])
              for t in steps for p in (p0 + t * d, p0 - t * d)]
    conj = conjugate_apply(T, points, u)
    quotients = [(1.0 / (2.0 * t)) * (conj[2 * i] - conj[2 * i + 1])
                 for i, t in enumerate(steps)]
    if derivative is not None:
        ref = derivative.apply(u)
        residuals = [module_norm(q - ref) for q in quotients]
    else:
        ref = quotients[-1]
        residuals = [module_norm(q - ref) for q in quotients[:-1]]
    used = steps[:len(residuals)]
    logs_t = np.log(np.asarray(used))
    logs_r = np.log(np.maximum(np.asarray(residuals), 1e-300))
    order = float(np.polyfit(logs_t, logs_r, 1)[0])
    return {"steps": used, "residuals": residuals, "order": order,
            "converged": bool(order >= 0.5)}


def intertwine_check(z, zeta, g: ModuleFunction, J: SkewForm,
                     u: ModuleFunction) -> dict:
    """Residuals of the Fourier and right-action intertwining identities.

    Fourier transform swaps the roles of translation and modulation:
    F E_{z, zeta} = (E_{-zeta, z})^{-1} F and F (E_{z, zeta})^{-1} =
    E_{-zeta, z} F.  The right action R_g intertwines as E_{z, zeta} R_g =
    R_{T_{z + J zeta} g} E_{z, zeta}.
    """
    p = HeisenbergPoint(z, zeta)
    swapped = HeisenbergPoint(-p.zeta, p.z)
    lhs1 = fourier(p.apply(u))
    rhs1 = swapped.inverse().apply(fourier(u))
    lhs2 = fourier(p.inverse().apply(u))
    rhs2 = swapped.apply(fourier(u))
    shifted_g = translate(g, p.z + J.apply(p.zeta))
    lhs3 = p.apply(deformed_product(u, g, J))
    rhs3 = deformed_product(p.apply(u), shifted_g, J)
    return {"fourier_forward": module_norm(lhs1 - rhs1),
            "fourier_inverse": module_norm(lhs2 - rhs2),
            "right_action": module_norm(lhs3 - rhs3)}
