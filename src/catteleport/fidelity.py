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

from .dynamics import ModeSystem, decoherence_Z
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


def _cmul(a, b) -> np.ndarray:
    """a * b rounded as CPython rounds it; numpy's complex product may fuse a
    multiply-add.  A float or int factor x stands for complex(x, 0.0), as
    CPython 3.11 promotes it."""
    z = np.empty(np.broadcast(a, b).shape, dtype=complex)
    z.real = a.real * b.real - a.imag * b.imag
    z.imag = a.real * b.imag + a.imag * b.real
    return z


def _overlap(a, b, a_sq, b_sq) -> np.ndarray:
    """overlap(a, b) given |a|**2 and |b|**2; complex np.exp rounds as cmath.exp."""
    return np.exp(-0.5 * a_sq - 0.5 * b_sq + _cmul(np.conj(a), b))


def _curve_values(spec: CatSpec, u11: np.ndarray) -> np.ndarray:
    """fidelity_at(spec, u) for every u in ``u11``, bit for bit: build_rho1 and
    fidelity step by step, with complex products by _cmul, abs by np.hypot,
    x ** 2 by np.float_power (libm pow) and math.exp by complex np.exp."""
    mag = np.hypot(u11.real, u11.imag)
    if (mag > 1.0 + 1e-12).any():
        raise ValueError("|u11| must not exceed 1")
    mag = np.where(1.0 < mag, 1.0, mag)                  # min(mag, 1.0)
    if not ((0.0 <= mag) & (mag <= 1.0)).all():          # NaN fails too
        raise ValueError("u11_mag must lie in [0, 1]")
    amp = _cmul(u11, complex(spec.alpha))
    amp_sq = np.float_power(np.hypot(amp.real, amp.imag), 2.0)
    z = np.exp((-2.0 * abs(spec.alpha) ** 2 * (1.0 - mag * mag)).astype(complex)).real
    coh = _cmul(_cmul(_cmul(z, complex(spec.c_plus)), complex(spec.c_minus).conjugate()),
                spec.parity_sign)
    w_pp, w_mm = abs(spec.c_plus) ** 2, abs(spec.c_minus) ** 2
    trace_raw = w_pp + w_mm + 2.0 * _cmul(coh, _overlap(-amp, amp, amp_sq, amp_sq)).real
    if (trace_raw < NULL_NORM_TOL ** 2).any():
        raise NullState("cat superposition is the null vector")
    targets = spec.components()
    vp, vm = (sum(_cmul(c.conjugate(), _overlap(a, s, abs(a) ** 2, amp_sq))
                  for c, a in targets) for s in (amp, -amp))
    f = 1.0 / trace_raw * (
        _cmul(_cmul(w_pp, vp), np.conj(vp)) + _cmul(_cmul(coh, vp), np.conj(vm))
        + _cmul(_cmul(np.conj(coh), vm), np.conj(vp)) + _cmul(_cmul(w_mm, vm), np.conj(vm))
    ).real
    bad = ~((-1e-9 <= f) & (f <= 1.0 + 1e-9))
    if bad.any():
        raise ValueError(f"fidelity {float(f[bad.argmax()])!r} outside [0, 1]")
    return np.where(1.0 < f, 1.0, np.where(0.0 > f, 0.0, f))   # min(max(f, 0.0), 1.0)


def fidelity_curve(spec: CatSpec, sys: ModeSystem, t_max: float, n_points: int,
                   spectator_phase: float = 0.0,
                   rotating_frame: bool = True) -> FidelityCurve:
    """Fidelity on a uniform time grid using the mean-damping-rate dynamics.

    The spectator rotation is folded into the scored amplitude:
    u11[i] = u_simplified(times[i]).u11 * exp(i spectator_phase), and
    values[i] = fidelity_at(spec, u11[i]), both in one numpy pass, bit for bit.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = np.linspace(0.0, t_max, n_points)
    w1 = 0.0 if rotating_frame else sys.omega1
    rate = -0.5 * sys.mean_damping_rate - 1j * w1   # u_simplified's u11 = exp(rate t)
    with np.errstate(invalid="ignore"):   # an infinite rate gives NaN at t = 0: rejected
        u11 = _cmul(np.exp(_cmul(rate, times)), cmath.exp(1j * spectator_phase))
    values = _curve_values(spec, u11)
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
