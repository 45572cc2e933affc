"""Heisenberg group action on module functions and operator conjugation.

E_{z, zeta, phi} = e^{i phi} M_zeta T_z (HeisenbergPoint.apply) with
T_z f(x) = f(x - z) and M_zeta f(x) = e^{i zeta.x} f(x).  Composition picks
up the commutation phase

    E_{z, zeta} E_{z', zeta'} = e^{-i zeta'.z} E_{z + z', zeta + zeta'},

conjugation T_{z, zeta} = E^{-1} T E is phi-independent, and for quantized
symbols it shifts the symbol argument: the conjugate of a(x, D) is
a(x + z, xi + zeta)(x, D), the quantization of a.shift(z, zeta).  The module
also provides finite-difference smoothness probes for the map
(z, zeta) -> T_{z, zeta} u and the Fourier / right-action intertwining
residuals used by the recovery pipeline.
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


def smoothness_probe(family, direction, steps, u: ModuleFunction,
                     derivative: OperatorHandle | None = None) -> dict:
    """Convergence report for the map p -> T_p u along a direction in R^{2n}.

    family maps a point p in R^{2n} (z then zeta) to an OperatorHandle.
    Centered difference quotients (T_{t d} - T_{-t d}) / 2t are applied to
    u; T_0 itself is never applied.  When a derivative handle is given the
    quotients are compared against it, otherwise successive quotients are
    compared against the finest one.  The observed order is the
    least-squares slope of log residual vs log t (about 2 for a smooth
    family).
    """
    steps = [float(t) for t in steps]
    if len(steps) < 3 or any(steps[i] <= steps[i + 1] for i in range(len(steps) - 1)):
        raise ValueError("steps must be at least 3 decreasing values")
    d = np.asarray(direction, dtype=float)
    p0 = np.zeros_like(d)
    n = d.size // 2

    def handle(p):
        return family(p[:n], p[n:])

    quotients = [(1.0 / (2.0 * t)) * (handle(p0 + t * d).apply(u)
                                      - handle(p0 - t * d).apply(u))
                 for t in steps]
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
