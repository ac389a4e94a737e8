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
from dataclasses import dataclass

import numpy as np

from .dynamics import ModeSystem, _cmul, _exp_rate, decoherence_Z
from .errors import ConsistencyError, NullState
from .states import NULL_NORM_TOL, CatSpec, overlap


@dataclass(frozen=True)
class CatMixture:
    """Teleported mixed cat in the non-orthogonal basis {|amp>, |-amp>}."""

    amp: complex
    w_pp: float
    w_mm: float
    coh: complex
    norm_const: float


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
    u11 = _cmul(_exp_rate(sys.decoupled_rates(rotating_frame)[0], times),
                cmath.exp(1j * spectator_phase))
    finite = np.isfinite(u11)
    if not finite.all():   # the decay factor is at most 1, so only omega1 * t can overflow
        t = float(times[finite.argmin()])
        raise ConsistencyError(f"u11 is not finite at t={t!r}: the free-evolution phase overflows")
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
