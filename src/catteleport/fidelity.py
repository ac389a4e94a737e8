"""Real-process teleported state: damped cat mixture and fidelity curves.

The teleported cat decays into the mixture

    rho_1(t) = N { |C+|^2 |a><a| + |C-|^2 |-a><-a|
                   + [ Z(t) C+ conj(C-) parity |a><-a| + h.c. ] },

with a = u11(t) alpha_0 and Z(t) = exp[-2|alpha_0|^2 (1 - |u11|^2)].  For
balanced coefficients this reduces to the equal-weight form; the general
coefficients are kept so arbitrary input cats are supported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModeSystem, decoherence_Z, u_simplified
from .errors import NullState
from .states import NULL_NORM_TOL, CatSpec, overlap


@dataclass(frozen=True)
class CatMixture:
    """Teleported mixed cat in the non-orthogonal basis {|amp>, |-amp>}."""

    amp: complex
    w_pp: float
    w_mm: float
    coh: complex
    norm_const: float

    def coefficient_matrix(self) -> np.ndarray:
        """2x2 coefficient matrix P with rho = N sum_ij P_ij |s_i><s_j|."""
        return np.array(
            [[self.w_pp, self.coh], [np.conj(self.coh), self.w_mm]], dtype=complex
        )

    def gram(self) -> np.ndarray:
        g = overlap(self.amp, -self.amp)
        return np.array([[1.0, g], [np.conj(g), 1.0]], dtype=complex)

    def trace(self) -> float:
        return self.norm_const * np.trace(self.gram() @ self.coefficient_matrix()).real

    def is_physical(self) -> bool:
        """Unit trace and positive semidefiniteness of the density operator."""
        if abs(self.trace() - 1.0) > 1e-12:
            return False
        g = self.gram()
        # rho >= 0  iff  sqrt(G) P sqrt(G) >= 0 in the coherent pair basis
        w, v = np.linalg.eigh(g)
        sq = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        eig = np.linalg.eigvalsh(sq @ self.coefficient_matrix() @ sq)
        return bool(eig.min() >= -1e-10)


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity ``values`` at ``times``, scored at the mixture amplitudes ``u11``."""

    times: np.ndarray
    values: np.ndarray
    u11: np.ndarray


def build_rho1(spec: CatSpec, u11: complex) -> CatMixture:
    """Damped mixture of the teleported cat for a given u11(t)."""
    mag = abs(u11)
    if mag > 1.0 + 1e-12:
        raise ValueError("|u11| must not exceed 1")
    amp = complex(u11) * complex(spec.alpha)
    z = decoherence_Z(spec.alpha, min(mag, 1.0))
    w_pp = abs(spec.c_plus) ** 2
    w_mm = abs(spec.c_minus) ** 2
    coh = z * complex(spec.c_plus) * complex(spec.c_minus).conjugate() * spec.parity_sign
    trace_raw = w_pp + w_mm + 2.0 * (coh * overlap(-amp, amp)).real
    if trace_raw < NULL_NORM_TOL ** 2:
        raise NullState("cat superposition is the null vector")
    return CatMixture(amp=amp, w_pp=w_pp, w_mm=w_mm, coh=coh,
                      norm_const=1.0 / trace_raw)


def fidelity(spec: CatSpec, mixture: CatMixture) -> float:
    """<Psi| rho_1 |Psi> with |Psi> the normalized cat of ``spec``.

    Expands exactly into the eight coherent overlap products
    <+-alpha0 | +-amp>.
    """
    targets = spec.components()
    sources = (mixture.amp, -mixture.amp)
    # v_i = <Psi | s_i>; f = N sum_ij P_ij v_i conj(v_j)
    vp, vm = (sum(c.conjugate() * overlap(a, s) for c, a in targets) for s in sources)
    coh = mixture.coh
    f = mixture.norm_const * (
        mixture.w_pp * vp * vp.conjugate() + coh * vp * vm.conjugate()
        + coh.conjugate() * vm * vp.conjugate() + mixture.w_mm * vm * vm.conjugate()
    ).real
    if not -1e-9 <= f <= 1.0 + 1e-9:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    return min(max(f, 0.0), 1.0)


def fidelity_at(spec: CatSpec, u11: complex) -> float:
    """Fidelity of the damped mixture at ``u11`` against the fixed t=0 target."""
    return fidelity(spec, build_rho1(spec, u11))


def fidelity_curve(spec: CatSpec, sys: ModeSystem, t_max: float, n_points: int,
                   spectator_phase: float = 0.0,
                   rotating_frame: bool = True) -> FidelityCurve:
    """Fidelity on a uniform time grid using the mean-damping-rate dynamics.

    The spectator rotation is folded into the scored amplitude:
    u11[i] = u_simplified(times[i]).u11 * exp(i spectator_phase).
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = np.linspace(0.0, t_max, n_points)
    values = np.empty(n_points)
    u11 = np.empty(n_points, dtype=complex)
    rot = cmath.exp(1j * spectator_phase)
    for i, t in enumerate(times):
        u = u_simplified(sys, float(t), rotating_frame=rotating_frame).u11 * rot
        u11[i], values[i] = u, fidelity_at(spec, u)
    balanced_even_real = (
        spec.parity_sign == 1
        and abs(complex(spec.alpha).imag) < 1e-14
        and abs(complex(spec.c_plus) - complex(spec.c_minus)) < 1e-14
        and spectator_phase == 0.0
        and rotating_frame
    )
    if balanced_even_real:
        steps = np.diff(values)
        if steps.max(initial=-np.inf) > 1e-9:
            raise ValueError("fidelity curve failed monotonicity check")
    return FidelityCurve(times=times, values=values, u11=u11)
