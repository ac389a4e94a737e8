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


# Entries per row block of the RHS: its three block buffers stay in L2 cache.
_BLOCK_ENTRIES = 8192


def _rhs_builder(spec: LindbladSpec):
    """Right-hand side of the master equation, acting on rho as a D x D matrix.

    In the flat Fock index mode j has stride s_j (1 for the last mode), so
    moving its row (column) level by one moves whole rows (columns) of rho by
    s_j.  A damping term rate * (a_jp rho a_j^+ - (a_j^+ a_jp rho + rho a_j^+
    a_jp)/2) is three such products, each a shifted copy of rho times a
    length-D row and/or column coefficient: sqrt(n) * sqrt(n) for a_j^+ a_j,
    sqrt(m + 1) or sqrt(m) for a move, or the product of two of these.  A
    coefficient is 0 where the truncation cuts the move: sqrt(0) on the
    vacuum, an explicit 0 on the top level.  H is diagonal, so -i[H, rho] is
    the phase -i (E_m - E_n) on entry rho_mn.  Each product is rounded as in
    the dense matrix form (a_jp rho) a_j^+, rows before columns, so the
    result equals that form exactly (a zero entry may differ in sign).

    Every term runs over blocks of whole rows of about ``_BLOCK_ENTRIES``
    entries, so each pass is one contiguous stretch held in cache.  A column
    shift is then a shift of the block's flat index, with the column
    coefficient tiled along it: an entry whose source crosses into the next
    row has a cut column and takes 0 times that neighbour, where a
    slice-based form would leave it unwritten.  The two can differ only in
    the sign of a zero partial sum, which adding a nonzero value erases; the
    tests hold the result to the slice-based form bit for bit.  The returned
    function reuses three block buffers, one call at a time; ``rhs(rho,
    out)`` writes into ``out`` when given.
    """
    dims = spec.mode_dims
    dim = int(np.prod(dims))
    strides = [int(np.prod(dims[j + 1:])) for j in range(len(dims))]
    levels = [np.arange(dim) // s % d for s, d in zip(strides, dims)]
    energies = np.diagonal(spec.hamiltonian).real
    phase = (-1j * (energies[:, None] - energies)).reshape(-1) if energies.any() else None
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in dims]
    lower = [np.append(r[1:], 0.0) for r in roots]   # sqrt(m + 1), 0 on the top level

    rows = min(dim, max(1, _BLOCK_ENTRIES // dim))

    def at(j, values):
        """Per-level ``values`` of mode j at every flat index."""
        return values[levels[j]]

    def by_row(values):
        return values.astype(complex)[:, None]

    def by_column(values):
        """Tiled over the flat index of a block of ``rows`` rows."""
        return np.tile(values.astype(complex), rows)

    # One term per non-zero gamma_jj': the left product (row shift, row
    # coefficient), the right product (column shift, column coefficient) and
    # the jump (row shift, row coefficient, column shift, column
    # coefficient), where destination i reads source i + shift.
    terms = []
    for j, s_j in enumerate(strides):
        for jp, s_jp in enumerate(strides):
            rate = spec.gamma_matrix[j, jp]
            if rate == 0.0:
                continue
            if j == jp:   # a_j^+ a_j is diagonal: sqrt(n) * sqrt(n)
                n = at(j, roots[j] * roots[j])
                left, right = (0, by_row(n)), (0, by_column(n))
            else:   # a_j^+ a_jp moves one quantum from mode jp to mode j
                left = (s_jp - s_j, by_row(at(j, roots[j]) * at(jp, lower[jp])))
                right = (s_j - s_jp, by_column(at(j, lower[j]) * at(jp, roots[jp])))
            jump = (s_jp, by_row(at(jp, lower[jp])), s_j, by_column(at(j, lower[j])))
            terms.append((rate, left, right, jump))

    def span(shift, lo, hi, size):
        """(dst, src): the destinations in [lo, hi), counted from lo, whose
        source i + shift lies in [0, size), and those sources."""
        start = min(hi, max(lo, -shift))
        stop = max(start, min(hi, size - shift))
        return slice(start - lo, stop - lo), slice(start + shift, stop + shift)

    # Per block: its flat range and, per term, the rows the left product
    # leaves at zero, then (destination, coefficient, source) of the left
    # product, the right product and the jump's row and column halves.  The
    # left product and the jump's row half index rows of the block; the rest
    # index its flat entries.
    buffers = [np.empty(rows * dim, dtype=complex) for _ in range(3)]
    blocks = []
    for b0 in range(0, dim, rows):
        b1 = min(dim, b0 + rows)
        plan = []
        for rate, (ls, lc), (rs, rc), (js, jr, jcs, jc) in terms:
            ld, lsrc = span(ls, b0, b1, dim)
            rd, rsrc = span(rs, b0 * dim, b1 * dim, dim * dim)
            td, tsrc = span(js, b0, b1, dim)
            ud, usrc = span(jcs, 0, td.stop * dim, td.stop * dim)
            plan.append((rate, (slice(None, ld.start), slice(ld.stop, None)),
                         (ld, lc[b0:b1][ld], lsrc), (rd, rc[rd], rsrc),
                         (td, jr[b0:b1][td], tsrc), (ud, jc[ud], usrc)))
        w, s, u = (b[:(b1 - b0) * dim] for b in buffers)
        blocks.append((slice(b0 * dim, b1 * dim), (w, s, u),
                       (w.reshape(-1, dim), s.reshape(-1, dim)), plan))

    def rhs(rho: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        r = rho.reshape(dim, dim)
        flat_r = r.reshape(-1)
        if out is None:
            out = np.empty((dim, dim), dtype=complex)
        flat_out = out.reshape(-1)
        for block, (w, s, u), (w2, s2), plan in blocks:
            o = flat_out[block]
            if phase is None:
                o.fill(0.0)
            else:
                np.multiply(flat_r[block], phase[block], out=o)
            for rate, zero, (ld, lc, lsrc), (rd, rc, rsrc), (td, jr, tsrc), (ud, jc, usrc) in plan:
                # w = jump - 0.5 * (left + right), summed as -0.5 * (left +
                # right) + jump: the same roundings.
                for rows_ in zero:
                    w2[rows_] = 0.0
                np.multiply(lc, r[lsrc], out=w2[ld])
                np.multiply(flat_r[rsrc], rc, out=s[rd])
                w[rd] += s[rd]
                np.multiply(w, -0.5, out=w)
                np.multiply(jr, r[tsrc], out=s2[td])
                np.multiply(s[usrc], jc, out=u[ud])
                w[ud] += u[ud]
                np.multiply(w, rate, out=w)
                o += w
        return out

    return rhs


def _integrate(rho: np.ndarray, rhs, t: float, n_steps: int) -> np.ndarray:
    """``n_steps`` classical RK4 steps of size t / n_steps, each followed by
    the Hermitian part 0.5 * (r + r^+).

    Four D x D buffers serve every step: the state, the slope sum, one stage
    slope and one stage input.  Each operation rounds as the plain expression
    r + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4) with stage inputs r + (dt / 2) k,
    in that operand order, so the result is the same bits.
    """
    dt = t / n_steps
    r = rho.copy()
    acc, k, x = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    for _ in range(n_steps):
        rhs(r, acc)                           # acc = k1
        np.multiply(0.5 * dt, acc, out=x)
        np.add(r, x, out=x)
        rhs(x, k)                             # k = k2
        np.multiply(0.5 * dt, k, out=x)
        np.add(r, x, out=x)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)               # acc = k1 + 2 k2
        rhs(x, k)                             # k = k3
        np.multiply(dt, k, out=x)
        np.add(r, x, out=x)
        np.multiply(2.0, k, out=k)
        np.add(acc, k, out=acc)               # acc = k1 + 2 k2 + 2 k3
        rhs(x, k)                             # k = k4
        np.add(acc, k, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        np.add(r, acc, out=r)
        np.conjugate(r, out=x)                # enforce Hermiticity each step
        np.add(r, x.T, out=acc)
        np.multiply(0.5, acc, out=r)
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
