"""Analytic dissipative evolution coefficients of the two cavity modes.

The Heisenberg-picture coefficient matrix u(t) solves du/dt = -M u with

    M = [[A, C],
         [D, B]],

so u(t) = exp(-M t).  The hyperbolic closed form below is written with the
argument sqrt((B-A)^2 + 4CD) * t/2, which is the unique choice reducing to
exp(-A t) when the modes decouple and agreeing entrywise with the matrix
exponential; the dedicated tests enforce this equivalence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError


@dataclass(frozen=True)
class ModeSystem:
    """Frequencies, damping rates and Lamb shifts of the two cavity modes.

    All frequencies and Lamb shifts are angular (rad/s); damping rates in 1/s.
    """

    omega1: float
    omega2: float
    gamma11: float
    gamma22: float
    gamma12: float = 0.0
    gamma21: float = 0.0
    lamb11: float = 0.0
    lamb22: float = 0.0
    lamb12: float = 0.0
    lamb21: float = 0.0

    def __post_init__(self):
        if self.gamma11 <= 0.0 or self.gamma22 <= 0.0:
            raise ValueError("gamma11 and gamma22 must be positive")
        if self.gamma12 * self.gamma21 > self.gamma11 * self.gamma22:
            raise ValueError("gamma12*gamma21 must not exceed gamma11*gamma22")
        if not self.omega2 > self.omega1:
            raise ValueError("omega2 must exceed omega1")

    @property
    def mean_damping_rate(self) -> float:
        return 0.5 * (self.gamma11 + self.gamma22)


@dataclass(frozen=True)
class DrainParams:
    """Complex drain parameters of the coupled-mode Heisenberg equations."""

    A: complex
    B: complex
    C: complex
    D: complex

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.A, self.C], [self.D, self.B]], dtype=complex)


@dataclass(frozen=True)
class EvolutionMatrix:
    """The 2x2 coefficient matrix u_ij(t) at a fixed time."""

    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)


def drain_params(sys: ModeSystem) -> DrainParams:
    """Assemble A, B, C, D from mode frequencies, damping and Lamb shifts."""
    return DrainParams(
        A=1j * (sys.omega1 + sys.lamb11) + 0.5 * sys.gamma11,
        B=1j * (sys.omega2 + sys.lamb22) + 0.5 * sys.gamma22,
        C=1j * sys.lamb12 + 0.5 * sys.gamma12,
        D=1j * sys.lamb21 + 0.5 * sys.gamma21,
    )


def _sinhc(z: complex) -> complex:
    """sinh(z)/z, with a series fallback that is exact through O(z^6)."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sinh(z) / z


def u_full(p: DrainParams, t: float, s_sign: int = 1) -> EvolutionMatrix:
    """Closed-form u(t) = exp(-Mt) for M = [[A, C], [D, B]].

    ``s_sign`` flips the branch of the square root; the result is invariant
    because every occurrence of s is even once sinh's oddness is accounted for.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    h = 0.5 * t
    pref = cmath.exp(-(p.A + p.B) * h)
    try:
        s = s_sign * cmath.sqrt((p.B - p.A) ** 2 + 4.0 * p.C * p.D)
        ch = cmath.cosh(s * h)
        shc = _sinhc(s * h)  # sinh(s t/2) / (s t/2); finite in the degenerate limit
    except OverflowError as exc:
        raise ConsistencyError(f"u_full overflows at t={t!r}: {exc}") from None
    return EvolutionMatrix(
        u11=pref * (ch + (p.B - p.A) * h * shc),
        u12=-pref * 2.0 * p.C * h * shc,
        u21=-pref * 2.0 * p.D * h * shc,
        u22=pref * (ch + (p.A - p.B) * h * shc),
    )


def u_simplified(sys: ModeSystem, t: float, rotating_frame: bool = True) -> EvolutionMatrix:
    """Decoupled-mode approximation: u12 = u21 = 0 and mean damping rate.

    Both diagonal entries decay at gbar/2 = (gamma11 + gamma22)/4 per
    amplitude.  With ``rotating_frame`` the deterministic phases
    exp(-i omega_j t) are dropped.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    gbar = sys.mean_damping_rate
    w1 = 0.0 if rotating_frame else sys.omega1
    w2 = 0.0 if rotating_frame else sys.omega2
    return EvolutionMatrix(
        u11=cmath.exp((-0.5 * gbar - 1j * w1) * t),
        u12=0.0,
        u21=0.0,
        u22=cmath.exp((-0.5 * gbar - 1j * w2) * t),
    )


def to_rotating_frame(u: EvolutionMatrix, sys: ModeSystem, t: float) -> EvolutionMatrix:
    """Strip the free-evolution phases exp(-i omega_j t) from a lab-frame u(t).

    Row j of u is multiplied by exp(i omega_j t), the frame convention of
    ``u_simplified(..., rotating_frame=True)``.
    """
    p1 = cmath.exp(1j * sys.omega1 * t)
    p2 = cmath.exp(1j * sys.omega2 * t)
    return EvolutionMatrix(u.u11 * p1, u.u12 * p1, u.u21 * p2, u.u22 * p2)


def decoherence_Z(alpha0: complex, u11_mag: float) -> float:
    """Cat-coherence decay factor exp[-2|alpha0|^2 (1 - |u11|^2)]."""
    if not 0.0 <= u11_mag <= 1.0:
        raise ValueError("u11_mag must lie in [0, 1]")
    return math.exp(-2.0 * abs(alpha0) ** 2 * (1.0 - u11_mag * u11_mag))

