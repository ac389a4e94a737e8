"""Truncated-Fock-basis brute-force oracle.

Everything here works in the number basis and is deliberately independent of
the symbolic coherent-state algebra it cross-checks: amplitudes become
Poisson-weighted vectors, the damped dynamics is integrated as a Lindblad
master equation with a fixed-step RK4 scheme, and the dispersive pi pulse is
a diagonal phase conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import StepSizeRejected, TruncationBreach
from .fidelity import CatMixture
from .states import CatSpec

TAIL_TOL = 1e-8


def required_n_max(*amps: complex) -> int:
    """Truncation rule keeping the Poisson tail below ~1e-10."""
    a = max((abs(complex(x)) for x in amps), default=0.0)
    return math.ceil(a * a + 8.0 * a + 15.0)


def coherent_to_fock(a: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients c_n = e^{-|a|^2/2} a^n / sqrt(n!)."""
    a = complex(a)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(a) ** 2)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * a / math.sqrt(n)
    tail = 1.0 - float(np.vdot(c, c).real)
    if tail >= TAIL_TOL:
        raise TruncationBreach(
            f"coherent tail mass {tail:.3e} at n_max={n_max} for |a|={abs(a):.3f}"
        )
    return c


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


@dataclass
class FockDensity:
    """Truncated number-basis density matrix for one or two modes."""

    entries: np.ndarray
    mode_dims: Tuple[int, ...]

    def __post_init__(self):
        dim = int(np.prod(self.mode_dims))
        if self.entries.shape != (dim, dim):
            raise ValueError("entries shape inconsistent with mode_dims")
        if len(self.mode_dims) not in (1, 2):
            raise ValueError("only one or two modes supported")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def mode_count(self) -> int:
        return len(self.mode_dims)

    def validate(self, eig_tol: float = 1e-9) -> None:
        r = self.entries
        if np.abs(r - r.conj().T).max() > 1e-12:
            raise ValueError("density matrix not Hermitian within 1e-12")
        if abs(np.trace(r).real - 1.0) > 1e-10:
            raise ValueError("trace deviates from 1 beyond 1e-10")
        if np.linalg.eigvalsh((r + r.conj().T) / 2).min() < -eig_tol:
            raise ValueError("density matrix has a negative eigenvalue")
        self.check_truncation()

    def check_truncation(self) -> None:
        """Population of the top two Fock levels of each mode must stay tiny."""
        pops = np.diag(self.entries).real
        if self.mode_count == 1:
            top = pops[-2:].sum()
            if top >= TAIL_TOL:
                raise TruncationBreach(f"top-level population {top:.3e}")
        else:
            d1, d2 = self.mode_dims
            grid = pops.reshape(d1, d2)
            top = grid[-2:, :].sum() + grid[:, -2:].sum()
            if top >= TAIL_TOL:
                raise TruncationBreach(f"top-level population {top:.3e}")

    @classmethod
    def from_vector(cls, psi: np.ndarray, mode_dims: Tuple[int, ...]) -> "FockDensity":
        return cls(np.outer(psi, psi.conj()), tuple(mode_dims))


@dataclass
class LindbladSpec:
    """Generator data: Hamiltonian plus the (cross-)damping matrix.

    ``gamma_matrix`` is a scalar rate for one mode or a 2x2 positive
    semidefinite matrix gamma_jj' for two modes sharing a reservoir.
    """

    hamiltonian: np.ndarray
    gamma_matrix: np.ndarray
    mode_dims: Tuple[int, ...]

    def __post_init__(self):
        self.gamma_matrix = np.atleast_2d(np.asarray(self.gamma_matrix, dtype=float))
        if np.linalg.eigvalsh((self.gamma_matrix + self.gamma_matrix.T) / 2).min() < -1e-12:
            raise ValueError("gamma matrix must be positive semidefinite")

    def mode_operators(self) -> list[np.ndarray]:
        if len(self.mode_dims) == 1:
            return [annihilation(self.mode_dims[0])]
        d1, d2 = self.mode_dims
        return [
            np.kron(annihilation(d1), np.eye(d2, dtype=complex)),
            np.kron(np.eye(d1, dtype=complex), annihilation(d2)),
        ]


def _rhs_builder(spec: LindbladSpec):
    h = spec.hamiltonian
    ops = spec.mode_operators()
    g = spec.gamma_matrix
    pairs = []
    for j in range(len(ops)):
        for jp in range(len(ops)):
            if abs(g[j, jp]) > 0.0:
                adag_a = ops[j].conj().T @ ops[jp]
                pairs.append((g[j, jp], ops[jp], ops[j].conj().T, adag_a))

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        for rate, a_jp, adag_j, adag_a in pairs:
            out += rate * (a_jp @ rho @ adag_j - 0.5 * (adag_a @ rho + rho @ adag_a))
        return out

    return rhs


def _integrate(rho: np.ndarray, rhs, t: float, n_steps: int) -> np.ndarray:
    dt = t / n_steps
    r = rho.copy()
    for _ in range(n_steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = 0.5 * (r + r.conj().T)  # enforce Hermiticity each step
    return r


def evolve_lindblad(rho: FockDensity, spec: LindbladSpec, t: float,
                    dt_max: float, verify_step: bool = False) -> FockDensity:
    """Fixed-step RK4 integration of the zero-temperature master equation."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return FockDensity(rho.entries.copy(), rho.mode_dims)
    rhs = _rhs_builder(spec)
    n_steps = max(1, math.ceil(t / dt_max))
    out = _integrate(rho.entries, rhs, t, n_steps)
    if verify_step:
        refined = _integrate(rho.entries, rhs, t, 2 * n_steps)
        if np.abs(out - refined).max() > 1e-8:
            raise StepSizeRejected(
                f"halving dt changed entries by {np.abs(out - refined).max():.3e}"
            )
        out = refined
    tr = np.trace(out).real
    if abs(tr - np.trace(rho.entries).real) > 1e-10:
        raise ValueError(f"trace drifted by {tr - 1.0:.3e} during integration")
    result = FockDensity(out, rho.mode_dims)
    result.check_truncation()
    return result


def dispersive_pi_fock(rho: FockDensity, phase: float = math.pi) -> FockDensity:
    """Conjugation by the number-phase operator exp(-i*phase*n) (single mode)."""
    if rho.mode_count != 1:
        raise ValueError("dispersive pulse oracle is single-mode")
    n = np.arange(rho.dim)
    u = np.exp(-1j * phase * n)
    out = (u[:, None] * rho.entries) * u.conj()[None, :]
    return FockDensity(out, rho.mode_dims)


def cat_state_vector(spec: CatSpec, n_max: int) -> np.ndarray:
    """Normalized Fock vector of the cat superposition in ``spec``."""
    v = (
        complex(spec.c_plus) * coherent_to_fock(spec.alpha, n_max)
        + spec.parity_sign
        * complex(spec.c_minus)
        * coherent_to_fock(-complex(spec.alpha), n_max)
    )
    n = math.sqrt(float(np.vdot(v, v).real))
    if n < 1e-14:
        raise TruncationBreach("cat vector has null norm")
    return v / n


def oracle_fidelity(rho: FockDensity, spec: CatSpec) -> float:
    """<Psi|rho|Psi> with |Psi> built by direct Fock expansion."""
    if rho.mode_count != 1:
        raise ValueError("oracle fidelity is single-mode")
    psi = cat_state_vector(spec, rho.dim - 1)
    f = float(np.real(psi.conj() @ rho.entries @ psi))
    if f > 1.0 + 1e-9:
        raise ValueError(f"fidelity {f!r} above 1")
    return f


def mixture_to_fock(mixture: CatMixture, n_max: Optional[int] = None) -> FockDensity:
    """Materialize an analytic CatMixture as a number-basis density matrix."""
    if n_max is None:
        n_max = required_n_max(mixture.amp)
    vp = coherent_to_fock(mixture.amp, n_max)
    vm = coherent_to_fock(-complex(mixture.amp), n_max)
    rho = mixture.norm_const * (
        mixture.w_pp * np.outer(vp, vp.conj())
        + mixture.w_mm * np.outer(vm, vm.conj())
        + mixture.coh * np.outer(vp, vm.conj())
        + np.conj(mixture.coh) * np.outer(vm, vp.conj())
    )
    return FockDensity(rho, (n_max + 1,))


def coherent_pair_weights(rho: FockDensity, amp: complex) -> np.ndarray:
    """Coefficient matrix P of rho in the non-orthogonal pair {|amp>, |-amp>}.

    Solves rho = sum_ij P_ij |s_i><s_j| via P = G^-1 T G^-1 with
    T_ij = <s_i|rho|s_j>; used to read the cat coherence off an evolved state.
    """
    n_max = rho.dim - 1
    vs = [coherent_to_fock(amp, n_max), coherent_to_fock(-complex(amp), n_max)]
    t = np.array([[vi.conj() @ rho.entries @ vj for vj in vs] for vi in vs])
    g = np.array([[np.vdot(vi, vj) for vj in vs] for vi in vs])
    ginv = np.linalg.inv(g)
    return ginv @ t @ ginv


def extract_cat_coherence(rho: FockDensity, amp: complex) -> float:
    """Estimate Z from an evolved balanced cat: Re P01 / sqrt(P00 P11)."""
    p = coherent_pair_weights(rho, amp)
    return float(p[0, 1].real / math.sqrt(p[0, 0].real * p[1, 1].real))


def coherent_fidelity(rho: FockDensity, amp: complex) -> float:
    """<amp|rho|amp> for a single-mode state."""
    v = coherent_to_fock(amp, rho.dim - 1)
    return float(np.real(v.conj() @ rho.entries @ v))
