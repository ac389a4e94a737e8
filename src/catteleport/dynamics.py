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
        bad = [f"{name} = {value!r}" for name, value in vars(self).items()
               if not math.isfinite(value)]
        if bad:
            raise ValueError(f"{', '.join(bad)} not finite")
        if self.gamma11 <= 0.0 or self.gamma22 <= 0.0:
            raise ValueError("gamma11 and gamma22 must be positive")
        if self.gamma12 * self.gamma21 > self.gamma11 * self.gamma22:
            raise ValueError("gamma12*gamma21 must not exceed gamma11*gamma22")
        if not self.omega2 > self.omega1:
            raise ValueError("omega2 must exceed omega1")

    @property
    def mean_damping_rate(self) -> float:
        return 0.5 * self.gamma11 + 0.5 * self.gamma22   # halved first: no sum to overflow

    def decoupled_rates(self, rotating_frame: bool = True) -> tuple[complex, complex]:
        """Rates r_j of the decoupled-mode model u_jj(t) = exp(r_j t):
        r_j = -gbar/2 - i omega_j, with omega_j dropped in the rotating frame."""
        gbar = self.mean_damping_rate
        return tuple(-0.5 * gbar - 1j * (0.0 if rotating_frame else omega_j)
                     for omega_j in (self.omega1, self.omega2))


@dataclass(frozen=True)
class DrainParams:
    """Complex drain parameters of the coupled-mode Heisenberg equations."""

    A: complex
    B: complex
    C: complex
    D: complex


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


def u_full(p: DrainParams, t: float) -> EvolutionMatrix:
    """Closed-form u(t) = exp(-Mt) for M = [[A, C], [D, B]].

    Either branch of the square root s gives the same u: s enters only through
    cosh(s h) and sinh(s h)/(s h), both even in s.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    h = 0.5 * t
    try:
        pref = cmath.exp(-(p.A + p.B) * h)
        s = cmath.sqrt((p.B - p.A) ** 2 + 4.0 * p.C * p.D)
        ch = cmath.cosh(s * h)
        shc = _sinhc(s * h)  # sinh(s t/2) / (s t/2); finite in the degenerate limit
    except (OverflowError, ValueError) as exc:   # cmath's range and domain errors
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
    r1, r2 = sys.decoupled_rates(rotating_frame)
    return EvolutionMatrix(u11=cmath.exp(r1 * t), u12=0.0, u21=0.0, u22=cmath.exp(r2 * t))


def to_rotating_frame(u: EvolutionMatrix, sys: ModeSystem, t: float) -> EvolutionMatrix:
    """Strip the free-evolution phases exp(-i omega_j t) from a lab-frame u(t).

    Row j of u is multiplied by exp(i omega_j t), the frame convention of
    ``u_simplified(..., rotating_frame=True)``.
    """
    p1 = cmath.exp(1j * sys.omega1 * t)
    p2 = cmath.exp(1j * sys.omega2 * t)
    return EvolutionMatrix(u.u11 * p1, u.u12 * p1, u.u21 * p2, u.u22 * p2)


# cmath.cosh and cmath.sinh switch to a scaled formula past |Re z| = log(DBL_MAX / 4);
# libm's ccosh and csinh, which numpy calls, switch elsewhere
_CMATH_LARGE = math.log(np.finfo(float).max / 4.0)


def _cmul(a, b) -> np.ndarray:
    """a * b rounded as CPython rounds it; numpy's complex product may fuse a
    multiply-add.  A float or int factor x stands for complex(x, 0.0), as
    CPython 3.11 promotes it.  The four real products go straight into the
    result's real and imaginary parts, with one scratch array, in CPython's
    order: re = ar br - ai bi, im = ar bi + ai br."""
    z = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = z.real, z.imag
    t = np.multiply(a.imag, b.imag)
    np.subtract(np.multiply(a.real, b.real, out=re), t, out=re)
    np.add(np.multiply(a.real, b.imag, out=im), np.multiply(a.imag, b.real, out=t), out=im)
    return z


def _cdiv(a, b) -> np.ndarray:
    """a / b for a nonzero b, rounded as CPython 3.11's _Py_c_quot (Smith's
    method); numpy's complex quotient differs in the last bit.  A float b
    stands for complex(b, 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):   # the branch np.where drops
        ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    z = np.empty(np.broadcast(a, b).shape, dtype=complex)
    z.real = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    z.imag = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return z


def _exp_rate(rate: complex, times: np.ndarray) -> np.ndarray:
    """cmath.exp(rate * t) for every t in ``times``, bit for bit where it is
    finite, for a rate whose real part is not positive: complex np.exp then
    rounds as cmath.exp.  Where cmath.exp raises, the value is not finite;
    no overflow in rate * t warns."""
    with np.errstate(all="ignore"):
        return np.exp(_cmul(rate, times))


def coefficient_grid(sys: ModeSystem, times: np.ndarray,
                     rotating_frame: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """u_full and u_simplified at every t >= 0 in ``times`` in one numpy pass.

    Returns two (4, n) arrays whose rows are u11, u12, u21, u22; with
    ``rotating_frame`` the full matrix is taken through to_rotating_frame.
    Column i equals the scalar functions at float(times[i]) bit for bit: the
    grid repeats their complex arithmetic operation by operation.  The points
    where a value is not finite, or where cmath.cosh takes its scaled formula,
    are evaluated by the scalar functions themselves, and the first of them
    where one raises raises ConsistencyError.
    """
    p = drain_params(sys)
    h = 0.5 * times
    with np.errstate(all="ignore"):
        try:
            s = cmath.sqrt((p.B - p.A) ** 2 + 4.0 * p.C * p.D)
        except OverflowError:
            s = cmath.nan   # every point is then left to u_full, which raises
        sh = _cmul(s, h)
        pref = _exp_rate(-(p.A + p.B), h)
        z2 = _cmul(sh, sh)   # _sinhc(sh), both branches
        series = 1.0 + _cdiv(z2, 6.0) + _cdiv(_cmul(z2, z2), 120.0)
        shc = np.where(np.hypot(sh.real, sh.imag) < 1e-4, series, _cdiv(np.sinh(sh), sh))
        ch = np.cosh(sh)
        neg2 = _cmul(-pref, 2.0)
        full = np.stack([_cmul(pref, ch + _cmul(_cmul(p.B - p.A, h), shc)),
                         _cmul(_cmul(_cmul(neg2, p.C), h), shc),
                         _cmul(_cmul(_cmul(neg2, p.D), h), shc),
                         _cmul(pref, ch + _cmul(_cmul(p.A - p.B, h), shc))])
        if rotating_frame:
            full[:2] = _cmul(full[:2], _exp_rate(1j * sys.omega1, times))
            full[2:] = _cmul(full[2:], _exp_rate(1j * sys.omega2, times))
        r1, r2 = sys.decoupled_rates(rotating_frame)
        simp = np.zeros_like(full)
        simp[0] = _exp_rate(r1, times)
        simp[3] = _exp_rate(r2, times)
    suspect = (~np.isfinite(full).all(axis=0) | ~np.isfinite(simp).all(axis=0)
               | (np.abs(sh.real) > _CMATH_LARGE))
    for i in np.flatnonzero(suspect):
        t = float(times[i])
        u = u_full(p, t)
        try:
            if rotating_frame:
                u = to_rotating_frame(u, sys, t)
            v = u_simplified(sys, t, rotating_frame=rotating_frame)
        except ValueError as exc:   # cmath's domain error once |omega_j t| overflows
            raise ConsistencyError(f"free-evolution phases overflow at t={t!r}: {exc}") from None
        full[:, i] = u.u11, u.u12, u.u21, u.u22
        simp[:, i] = v.u11, v.u12, v.u21, v.u22
    return full, simp


def decoherence_Z(alpha0: complex, u11_mag: float) -> float:
    """Cat-coherence decay factor exp[-2|alpha0|^2 (1 - |u11|^2)]."""
    if not 0.0 <= u11_mag <= 1.0:
        raise ValueError("u11_mag must lie in [0, 1]")
    return math.exp(-2.0 * abs(alpha0) ** 2 * (1.0 - u11_mag * u11_mag))

