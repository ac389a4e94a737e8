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

    def validate(self) -> None:
        r = self.entries
        bad = np.count_nonzero(~np.isfinite(r))
        if bad:
            raise ValueError(f"density matrix has {bad} non-finite entries")
        if not np.abs(r - r.conj().T).max() <= 1e-12:   # each check fails on NaN
            raise ValueError("density matrix not Hermitian within 1e-12")
        if not abs(np.trace(r).real - 1.0) <= 1e-10:
            raise ValueError("trace deviates from 1 beyond 1e-10")
        if not np.linalg.eigvalsh((r + r.conj().T) / 2).min() >= -1e-9:
            raise ValueError("density matrix has a negative eigenvalue")
        self.check_truncation()

    def check_truncation(self) -> None:
        """Population of the top two Fock levels of each mode must stay tiny."""
        grid = np.diag(self.entries).real.reshape(self.mode_dims)
        top = sum(grid[(slice(None),) * axis + (slice(-2, None),)].sum()
                  for axis in range(grid.ndim))
        if not top < TAIL_TOL:   # NaN fails too
            raise TruncationBreach(f"top-level population {top:.3e}")

    @classmethod
    def from_vector(cls, psi: np.ndarray, mode_dims: Tuple[int, ...]) -> "FockDensity":
        return cls(np.outer(psi, psi.conj()), tuple(mode_dims))


@dataclass
class LindbladSpec:
    """Generator data: Hamiltonian plus the (cross-)damping matrix.

    ``gamma_matrix`` is a scalar rate for one mode or a 2x2 positive
    semidefinite matrix gamma_jj' for two modes sharing a reservoir.
    ``hamiltonian`` is D x D with D the product of ``mode_dims``.
    """

    hamiltonian: np.ndarray
    gamma_matrix: np.ndarray
    mode_dims: Tuple[int, ...]

    def __post_init__(self):
        dim = int(np.prod(self.mode_dims))
        if np.shape(self.hamiltonian) != (dim, dim):
            raise ValueError(f"hamiltonian must be {dim}x{dim} for mode_dims "
                             f"{self.mode_dims}, got shape {np.shape(self.hamiltonian)}")
        self.gamma_matrix = np.atleast_2d(np.asarray(self.gamma_matrix, dtype=float))
        k = len(self.mode_dims)
        if self.gamma_matrix.shape != (k, k):
            raise ValueError(f"gamma_matrix must be {k}x{k} for {k} mode(s), "
                             f"got shape {self.gamma_matrix.shape}")
        if not np.isfinite(self.gamma_matrix).all():
            raise ValueError(f"non-finite gamma_matrix {self.gamma_matrix.tolist()}")
        if np.linalg.eigvalsh((self.gamma_matrix + self.gamma_matrix.T) / 2).min() < -1e-12:
            raise ValueError("gamma matrix must be positive semidefinite")


_LOW, _HIGH = slice(None, -1), slice(1, None)   # Fock levels 0..d-2 and 1..d-1


def _rhs_builder(spec: LindbladSpec):
    """Right-hand side of the master equation, acting on rho as a tensor.

    With k modes, rho is viewed with shape ``mode_dims + mode_dims``: axis j
    holds the row Fock level of mode j and axis k + j its column level.  A
    damping term rate * (a_jp rho a_j^+ - (a_j^+ a_jp rho + rho a_j^+ a_jp)/2)
    then moves slices of rho by one level and scales them, so no D x D
    operator is formed.  Each product is rounded as in the dense matrix form
    (a_jp rho) a_j^+: rows before columns, sqrt(n) * sqrt(n) on the diagonal
    of a_j^+ a_j and sqrt(m_j + 1) * sqrt(m_jp + 1) off it, so the result
    equals that form exactly (a zero entry may differ in sign).  The
    Hamiltonian commutator is a dense matmul, evaluated only for a non-zero H.
    The returned function reuses two work buffers, one call at a time.
    """
    dims = spec.mode_dims
    k = len(dims)
    h = spec.hamiltonian if np.any(spec.hamiltonian) else None
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in dims]

    def at(cuts):
        """Index into the tensor: ``cuts`` maps an axis to a slice."""
        return tuple(cuts.get(axis, slice(None)) for axis in range(2 * k))

    def along(axis, values):
        """``values`` laid along one axis of the tensor."""
        layout = [1] * (2 * k)
        layout[axis] = values.size
        return values.reshape(layout)

    # One term per non-zero gamma_jj'.  Each product is a (destination,
    # coefficient, source) triple: out[dst] = coef * rho[src].  The jump has a
    # row coefficient and a column coefficient, applied in that order.
    terms = []
    for j in range(k):
        for jp in range(k):
            rate = spec.gamma_matrix[j, jp]
            if rate == 0.0:
                continue
            up_j, up_jp = roots[j][1:], roots[jp][1:]   # sqrt(m + 1), m = 0..d-2
            jump = (at({jp: _LOW, k + j: _LOW}), along(jp, up_jp), along(k + j, up_j),
                    at({jp: _HIGH, k + j: _HIGH}))
            if j == jp:   # a_j^+ a_j is diagonal: sqrt(n) * sqrt(n)
                n = roots[j] * roots[j]
                left = (at({}), along(j, n), at({}))
                right = (at({}), along(k + j, n), at({}))
            else:   # a_j^+ a_jp moves one quantum from mode jp to mode j
                left = (at({j: _HIGH, jp: _LOW}), along(j, up_j) * along(jp, up_jp),
                        at({j: _LOW, jp: _HIGH}))
                right = (at({k + j: _LOW, k + jp: _HIGH}),
                         along(k + j, up_j) * along(k + jp, up_jp),
                         at({k + j: _HIGH, k + jp: _LOW}))
            terms.append((rate, j == jp, jump, left, right))

    shape = dims + dims
    work, scratch = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)

    def rhs(rho: np.ndarray) -> np.ndarray:
        r = rho.reshape(shape)
        if h is None:
            out = np.zeros(shape, dtype=complex)
        else:
            out = (-1j * (h @ rho - rho @ h)).reshape(shape)
        for rate, diagonal, jump, left, right in terms:
            # work = jump - 0.5 * (left + right), summed as -0.5 * (left +
            # right) + jump: the same roundings.  Entries no product writes
            # are zero.
            if not diagonal:
                work.fill(0.0)
            dst, coef, src = left
            np.multiply(coef, r[src], out=work[dst])
            dst, coef, src = right
            np.multiply(r[src], coef, out=scratch[dst])
            work[dst] += scratch[dst]
            np.multiply(work, -0.5, out=work)
            dst, rows, cols, src = jump
            np.multiply(rows, r[src], out=scratch[dst])
            scratch[dst] *= cols
            work[dst] += scratch[dst]
            np.multiply(work, rate, out=work)
            out += work
        return out.reshape(rho.shape)

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
    if tuple(rho.mode_dims) != tuple(spec.mode_dims):
        raise ValueError(f"rho has mode_dims {rho.mode_dims}, spec has {spec.mode_dims}")
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
    if not abs(tr - np.trace(rho.entries).real) <= 1e-10:   # NaN fails too
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
