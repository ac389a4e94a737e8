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

from .errors import ConsistencyError, NullState, StepSizeRejected, TruncationBreach
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
    """Generator data: a Fock-diagonal Hamiltonian plus the (cross-)damping matrix.

    ``hamiltonian`` is D x D (D the product of ``mode_dims``), real and
    diagonal in the number basis; ``gamma_matrix`` is the k x k positive
    semidefinite matrix gamma_jj' of k = 1 or 2 modes sharing a reservoir.
    """

    hamiltonian: np.ndarray
    gamma_matrix: np.ndarray
    mode_dims: Tuple[int, ...]

    def __post_init__(self):
        dim = int(np.prod(self.mode_dims))
        h = self.hamiltonian
        if np.shape(h) != (dim, dim):
            raise ValueError(f"hamiltonian must be {dim}x{dim} for mode_dims "
                             f"{self.mode_dims}, got shape {np.shape(h)}")
        e = np.diagonal(h)
        if np.count_nonzero(h) != np.count_nonzero(e) or not np.isfinite(e).all() or e.imag.any():
            raise ValueError("hamiltonian must be real, finite and diagonal in the Fock basis")
        self.gamma_matrix = np.asarray(self.gamma_matrix, dtype=float)
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
    holds the row Fock level of mode j and axis k + j its column level.  H is
    diagonal, so -i[H, rho] is the phase -i (E_m - E_n) on entry rho_mn.  A
    damping term rate * (a_jp rho a_j^+ - (a_j^+ a_jp rho + rho a_j^+ a_jp)/2)
    moves slices of rho by one level and scales them, so no D x D operator is
    formed.  Each product is rounded as in the dense matrix form (a_jp rho)
    a_j^+: rows before columns, sqrt(n) * sqrt(n) on the diagonal of a_j^+ a_j
    and sqrt(m_j + 1) * sqrt(m_jp + 1) off it, so the result equals that form
    exactly (a zero entry may differ in sign).  The returned function reuses
    two work buffers, one call at a time.
    """
    dims = spec.mode_dims
    k = len(dims)
    shape = dims + dims
    energies = np.diagonal(spec.hamiltonian).real
    phase = (-1j * (energies[:, None] - energies)).reshape(shape) if energies.any() else None
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in dims]

    def move(*steps):
        """(dst, src) of out[dst] = rho[src] moving the level on each ``axis``
        by ``step``: -1 takes level n + 1 to n, +1 takes n to n + 1."""
        dst, src = [slice(None)] * (2 * k), [slice(None)] * (2 * k)
        for axis, step in steps:
            dst[axis], src[axis] = (_LOW, _HIGH) if step < 0 else (_HIGH, _LOW)
        return tuple(dst), tuple(src)

    def along(axis, values):
        """``values`` laid along one axis of the tensor."""
        layout = [1] * (2 * k)
        layout[axis] = values.size
        return values.reshape(layout)

    # One term per non-zero gamma_jj'.  Each product is a (destination,
    # source) pair and its coefficient: out[dst] = coef * rho[src].  The jump
    # has a row coefficient and a column coefficient, applied in that order.
    terms = []
    for j in range(k):
        for jp in range(k):
            rate = spec.gamma_matrix[j, jp]
            if rate == 0.0:
                continue
            up_j, up_jp = roots[j][1:], roots[jp][1:]   # sqrt(m + 1), m = 0..d-2
            jump = (move((jp, -1), (k + j, -1)), along(jp, up_jp), along(k + j, up_j))
            if j == jp:   # a_j^+ a_j is diagonal: sqrt(n) * sqrt(n)
                n = roots[j] * roots[j]
                left, right = (move(), along(j, n)), (move(), along(k + j, n))
            else:   # a_j^+ a_jp moves one quantum from mode jp to mode j
                left = (move((j, +1), (jp, -1)), along(j, up_j) * along(jp, up_jp))
                right = (move((k + j, -1), (k + jp, +1)),
                         along(k + j, up_j) * along(k + jp, up_jp))
            terms.append((rate, j == jp, jump, left, right))

    work, scratch = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)

    def rhs(rho: np.ndarray) -> np.ndarray:
        r = rho.reshape(shape)
        out = np.zeros(shape, dtype=complex) if phase is None else r * phase
        for rate, diagonal, jump, left, right in terms:
            # work = jump - 0.5 * (left + right), summed as -0.5 * (left +
            # right) + jump: the same roundings.  Entries no product writes
            # are zero.
            if not diagonal:
                work.fill(0.0)
            (dst, src), coef = left
            np.multiply(coef, r[src], out=work[dst])
            (dst, src), coef = right
            np.multiply(r[src], coef, out=scratch[dst])
            work[dst] += scratch[dst]
            np.multiply(work, -0.5, out=work)
            (dst, src), rows, cols = jump
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
        change = np.abs(out - refined).max()
        if change > 1e-8:
            raise StepSizeRejected(f"halving dt changed entries by {change:.3e}")
        out = refined
    tr = np.trace(out).real
    if not abs(tr - np.trace(rho.entries).real) <= 1e-10:   # NaN fails too
        raise ValueError(f"trace drifted by {tr - 1.0:.3e} during integration")
    result = FockDensity(out, rho.mode_dims)
    result.check_truncation()
    return result


def dispersive_pi_fock(rho: FockDensity, phase: float = math.pi) -> FockDensity:
    """Conjugation by the number-phase operator exp(-i*phase*n) (single mode)."""
    if len(rho.mode_dims) != 1:
        raise ValueError("dispersive pulse oracle is single-mode")
    n = np.arange(len(rho.entries))
    u = np.exp(-1j * phase * n)
    out = (u[:, None] * rho.entries) * u.conj()[None, :]
    return FockDensity(out, rho.mode_dims)


def cat_state_vector(spec: CatSpec, n_max: int) -> np.ndarray:
    """Normalized Fock vector of the cat superposition in ``spec``."""
    a = complex(spec.alpha)
    v = (complex(spec.c_plus) * coherent_to_fock(a, n_max)
         + spec.parity_sign * complex(spec.c_minus) * coherent_to_fock(-a, n_max))
    n = math.sqrt(float(np.vdot(v, v).real))
    if n < 1e-14:
        raise NullState("cat vector has null norm")
    return v / n


def oracle_fidelity(rho: FockDensity, spec: CatSpec) -> float:
    """<Psi|rho|Psi> with |Psi> built by direct Fock expansion."""
    if len(rho.mode_dims) != 1:
        raise ValueError("oracle fidelity is single-mode")
    psi = cat_state_vector(spec, len(rho.entries) - 1)
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


def mixture_fidelity(mixture: CatMixture, spec: CatSpec) -> float:
    """Oracle fidelity of ``mixture`` to the cat in ``spec``: on the mixture's
    own basis, enlarged to hold that cat only when the cat breaches there."""
    try:
        return oracle_fidelity(mixture_to_fock(mixture), spec)
    except TruncationBreach:
        n_max = required_n_max(mixture.amp, spec.alpha)
        return oracle_fidelity(mixture_to_fock(mixture, n_max), spec)


def coherent_pair_weights(rho: FockDensity, amp: complex) -> np.ndarray:
    """Coefficient matrix P of rho in the non-orthogonal pair {|amp>, |-amp>}.

    Solves rho = sum_ij P_ij |s_i><s_j| via P = G^-1 T G^-1 with
    T_ij = <s_i|rho|s_j>; used to read the cat coherence off an evolved state.
    """
    n_max = len(rho.entries) - 1
    vs = [coherent_to_fock(amp, n_max), coherent_to_fock(-complex(amp), n_max)]
    t = np.array([[vi.conj() @ rho.entries @ vj for vj in vs] for vi in vs])
    g = np.array([[np.vdot(vi, vj) for vj in vs] for vi in vs])
    ginv = np.linalg.inv(g)
    return ginv @ t @ ginv


def extract_cat_coherence(rho: FockDensity, amp: complex) -> float:
    """Estimate Z from an evolved balanced cat: Re P01 / sqrt(P00 P11).

    Raises ConsistencyError when P00 P11 is not positive, as when one cat
    component's weight is lost to rounding.
    """
    p = coherent_pair_weights(rho, amp)
    p00, p11 = float(p[0, 0].real), float(p[1, 1].real)
    if not p00 * p11 > 0.0:
        raise ConsistencyError(f"pair weights P00 = {p00!r} and P11 = {p11!r} "
                               "leave the cat coherence undefined")
    return float(p[0, 1].real / math.sqrt(p00 * p11))


def coherent_fidelity(rho: FockDensity, amp: complex) -> float:
    """<amp|rho|amp> for a single-mode state."""
    v = coherent_to_fock(amp, len(rho.entries) - 1)
    return float(np.real(v.conj() @ rho.entries @ v))
