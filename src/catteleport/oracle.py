"""Truncated-Fock-basis brute-force oracle.

Everything here works in the number basis and is deliberately independent of
the symbolic coherent-state algebra it cross-checks: amplitudes become
Poisson-weighted vectors, the damped dynamics is integrated as a Lindblad
master equation with a fixed-step RK4 scheme, and the dispersive pi pulse is
a diagonal phase conjugation.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

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
    if c[0] == 0.0:   # |a| above about 38.6
        raise TruncationBreach(f"e^(-|a|^2/2) underflows to 0 for |a|={abs(a):.3f}, so the "
                               "number-basis recurrence has no nonzero coefficient")
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


# Threads that share a multi-block RHS and its RK4 loop: the caller and at
# most one more (see _lockstep); the caller alone on a one-CPU affinity.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

# Entries per row block of the RHS: a worker's four block buffers stay in L2
# cache, and with two workers each pass is long enough for both to gain.
_BLOCK_ENTRIES = 8192 * _WORKERS

# Entries per stack of states integrated together (see _evolve): one block,
# run on the caller alone.  On oracle-check at |alpha| = 0.5 to 2.5, stacks
# of 4 K entries, of 16 K on the caller and of 32 K to 128 K split across two
# threads were all slower.
_STACK_ENTRIES = 8192


def _lockstep(shares) -> None:
    """Call each share, a function of one argument ``sync``, on a worker of
    its own.  A share calls ``sync()`` between phases, and no share starts a
    phase before the other has finished the one before.  One share runs
    inline and its ``sync`` does nothing.  Of two, the second runs on a
    thread of this call's own, which has ended when this returns or raises,
    and ``sync`` is a barrier's wait.  A share that raises breaks the
    barrier, so the other stops at its next ``sync``, and its error reaches
    the caller.  Only an error breaks it: a share still waking from the last
    barrier would read a break as an error and skip its last phase."""
    if len(shares) == 1:
        shares[0](lambda: None)
        return
    barrier, errors = threading.Barrier(2), []

    def run(share):
        try:
            share(barrier.wait)
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    thread = threading.Thread(target=run, args=(shares[1],), name="catteleport-oracle", daemon=True)
    thread.start()
    run(shares[0])
    thread.join()
    if errors:   # the share's own error, not the break it caused in the other
        raise min(errors, key=lambda exc: isinstance(exc, threading.BrokenBarrierError))


def _rhs_builder(spec: LindbladSpec, members: int = 1):
    """Right-hand side of the master equation, acting on a stack of
    ``members`` density matrices rho, each D x D, as a (members * D) x D
    array of rows.

    In the flat Fock index mode j has stride s_j (1 for the last mode), so
    moving its row (column) level by one moves whole rows (columns) of rho by
    s_j.  A damping term rate * (a_jp rho a_j^+ - (a_j^+ a_jp rho + rho a_j^+
    a_jp)/2) is three such products, each a shifted copy of rho times a
    length-D row and/or column coefficient: sqrt(n) * sqrt(n) for a_j^+ a_j,
    sqrt(m + 1) or sqrt(m) for a move, or the product of two of these.  A
    coefficient is 0 where the truncation cuts a move: sqrt(0) on the
    vacuum, an explicit 0 on the top level.  H is diagonal, so -i[H, rho] is
    the phase -i (E_m - E_n) on entry rho_mn.  Each product is rounded as in
    the dense matrix form (a_jp rho) a_j^+, rows before columns, so the
    result equals that form exactly (a zero entry may differ in sign).

    Every term runs over blocks of whole rows of about ``_BLOCK_ENTRIES``
    entries, so each pass is one contiguous stretch held in cache.  A column
    shift is then a shift of the block's flat index, with the column
    coefficient tiled along it: an entry whose source crosses into the next
    row has a cut column and takes 0 times that neighbour, where a
    slice-based form would leave it unwritten.  A row shift that crosses
    into the next member of a stack has a cut row in the same way.  The two
    can differ only in the sign of a zero partial sum, which adding a
    nonzero value erases; the tests hold the result to the slice-based form,
    member by member, bit for bit.  A row coefficient is held at full size in
    a one-block stack (every one-mode stack) and otherwise copied across a
    block buffer, where held ones would take 2 * terms * D^2 entries; either
    way its product is a flat pass too.  A block of a stack holds whole
    members.  Scalings by powers of two are folded in, exact because they
    commute with round-to-nearest (away from overflow and underflow): -0.5
    sits in the left and right coefficients, a doubled fill uses 2 rate and 2
    phase, and with no phase a block's first term is multiplied into ``out``
    and 0.0 added, as x + 0.0 rounds as the 0.0 + x of a zero-filled block.

    Returns ``plan``: ``plan(m)`` splits the blocks of the first m members
    into ``_WORKERS`` contiguous row ranges, each with its own block buffers
    (a stack that fits one block has one range), and lists (row range,
    fill), where ``fill(r, out, doubled=False)`` writes the rows of ``out``
    in its range, times 2 when doubled, and reads any row of the first m
    members of ``r``; the buffers serve one integration at a time.
    """
    dims = spec.mode_dims
    dim = int(np.prod(dims))
    strides = [int(np.prod(dims[j + 1:])) for j in range(len(dims))]
    levels = [np.arange(dim) // s % d for s, d in zip(strides, dims)]
    energies = np.diagonal(spec.hamiltonian).real
    phase = (np.concatenate([(-1j * (energies[:, None] - energies)).reshape(-1)] * members)
             if energies.any() else None)
    phases = (phase, None if phase is None else 2.0 * phase)
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in dims]
    lower = [np.append(r[1:], 0.0) for r in roots]   # sqrt(m + 1), 0 on the top level

    rows = min(members * dim, max(1, _BLOCK_ENTRIES // dim))
    if members > 1:
        if rows < dim:
            raise ValueError(f"a block of {_BLOCK_ENTRIES} entries holds no whole "
                             f"{dim} x {dim} member of a stack")
        rows -= rows % dim
    held = rows == members * dim   # one block: row coefficients held at full size

    def at(j, values):
        """Per-level ``values`` of mode j at every flat index."""
        return values[levels[j]]

    def by_row(values):
        """Per stack row, as a column or held across the whole block."""
        column = np.concatenate([values.astype(complex)] * members)[:, None]
        return np.repeat(column, dim, axis=1) if held else column

    def by_column(values):
        """Tiled over the flat index of a block of ``rows`` rows."""
        return np.tile(values.astype(complex), rows)

    # One term per non-zero gamma_jj': (rate, 2 rate), the left product (row
    # shift, -0.5 * row coefficient), the right product (column shift, -0.5 *
    # column coefficient) and the jump (row shift, row coefficient, column
    # shift, column coefficient), where destination i reads source i + shift.
    terms = []
    for j, s_j in enumerate(strides):
        for jp, s_jp in enumerate(strides):
            rate = spec.gamma_matrix[j, jp]
            if rate == 0.0:
                continue
            if j == jp:   # a_j^+ a_j is diagonal: sqrt(n) * sqrt(n)
                n = -0.5 * at(j, roots[j] * roots[j])
                left, right = (0, by_row(n)), (0, by_column(n))
            else:   # a_j^+ a_jp moves one quantum from mode jp to mode j
                left = (s_jp - s_j, by_row(-0.5 * (at(j, roots[j]) * at(jp, lower[jp]))))
                right = (s_j - s_jp, by_column(-0.5 * (at(j, lower[j]) * at(jp, roots[jp]))))
            jump = (s_jp, by_row(at(jp, lower[jp])), s_j, by_column(at(j, lower[j])))
            terms.append(((rate, 2.0 * rate), left, right, jump))

    def span(shift, lo, hi, size):
        """(dst, src): the destinations in [lo, hi), counted from lo, whose
        source i + shift lies in [0, size), and those sources."""
        start = min(hi, max(lo, -shift))
        stop = max(start, min(hi, size - shift))
        return slice(start - lo, stop - lo), slice(start + shift, stop + shift)

    n_parts = min(_WORKERS, -(-members * dim // rows))
    buffers = [[np.empty(rows * dim, dtype=complex) for _ in range(3 if held else 4)]
               for _ in range(n_parts)]

    def part(starts, size, buffers):
        """The rows of the blocks starting at ``starts`` below row ``size``
        and their fill."""
        # Per block: its flat range and, per term, whether it writes out
        # first, the rows the left product leaves at zero, then (destination,
        # coefficient, source) of the left product, the right product and the
        # jump's row and column halves, each row half with the column to copy
        # into its coefficient first, or None.  The row halves index rows of
        # the block; the rest index its flat entries.
        def row_half(coefficient, c2, dst, src):
            if c2 is None:   # held
                return dst, coefficient[dst], src, None
            return dst, c2[dst], src, coefficient[dst]

        blocks = []
        for b0 in starts:
            b1 = min(size, b0 + rows)
            w, s, u = (b[:(b1 - b0) * dim] for b in buffers[:3])
            c2 = None if held else buffers[3][:(b1 - b0) * dim].reshape(-1, dim)
            plan = []
            for i, (rates, (ls, lc), (rs, rc), (js, jr, jcs, jc)) in enumerate(terms):
                ld, lsrc = span(ls, b0, b1, size)
                rd, rsrc = span(rs, b0 * dim, b1 * dim, size * dim)
                td, tsrc = span(js, b0, b1, size)
                ud, usrc = span(jcs, 0, td.stop * dim, td.stop * dim)
                zero = [z for z in (slice(0, ld.start), slice(ld.stop, b1 - b0)) if z.start < z.stop]
                plan.append((rates, not i and phase is None, zero,
                             row_half(lc[b0:b1], c2, ld, lsrc), (rd, rc[rd], rsrc),
                             row_half(jr[b0:b1], c2, td, tsrc), (ud, jc[ud], usrc)))
            blocks.append((slice(b0 * dim, b1 * dim), (w, s, u),
                           (w.reshape(-1, dim), s.reshape(-1, dim)), plan))

        def fill(r, out, doubled=False):
            flat_r, flat_out = r.reshape(-1), out.reshape(-1)
            for block, (w, s, u), (w2, s2), plan in blocks:
                o = flat_out[block]
                if phase is not None:
                    np.multiply(flat_r[block], phases[doubled][block], out=o)
                elif not plan:
                    o.fill(0.0)
                for (rates, first, zero, (ld, lc, lsrc, lcopy), (rd, rc, rsrc),
                        (td, jr, tsrc, jcopy), (ud, jc, usrc)) in plan:
                    # w = -0.5 * (left + right) + jump
                    for rows_ in zero:
                        w2[rows_] = 0.0
                    if lcopy is not None:
                        lc[...] = lcopy
                    np.multiply(lc, r[lsrc], out=w2[ld])
                    np.multiply(flat_r[rsrc], rc, out=s[rd])
                    w[rd] += s[rd]
                    if jcopy is not None:
                        jr[...] = jcopy
                    np.multiply(jr, r[tsrc], out=s2[td])
                    np.multiply(s[usrc], jc, out=u[ud])
                    w[ud] += u[ud]
                    np.multiply(w, rates[doubled], out=o if first else w)
                    o += 0.0 if first else w

        return slice(starts[0], min(size, starts[-1] + rows)), fill

    plans = {}

    def plan(m):
        if m not in plans:
            starts = range(0, m * dim, rows)
            per = -(-len(starts) // min(n_parts, len(starts)))
            plans[m] = [part(starts[i:i + per], m * dim, b)
                        for i, b in zip(range(0, len(starts), per), buffers)]
        return plans[m]

    return plan


def _integrate(rho, plan, t, n_steps) -> np.ndarray:
    """The stack (see ``_rhs_builder``) of each D x D member of the list
    ``rho`` after its own ``n_steps[i]`` classical RK4 steps of size t[i] /
    n_steps[i], each followed by the Hermitian part 0.5 * (r + r^+), the
    members in order of step count, most first.

    Four stack buffers serve every step: the state, into which the members
    are gathered, the slope sum, one stage slope and one stage input.  Each
    operation rounds as the plain expression r + (dt / 6) * (k1 + 2 k2 + 2
    k3 + k4) with stage inputs r + (dt / 2) k and r + dt k3, in that operand
    order, with each member's own dt, so the result is the same bits as for
    that member alone.  Stages 2 and 3 are filled doubled (see
    ``_rhs_builder``) and their stage inputs take dt / 4 and dt / 2: a
    power-of-two scaling commutes with round-to-nearest, so (dt / 4) (2 k2)
    rounds as (dt / 2) k2.  The members still running are the first m: each
    operation is one pass over them, and a member that has taken its steps
    drops out, its rows left as they are in the buffer that holds the state
    after its step count (even or odd), from which the end gathers them.

    Each part of ``plan(m)`` owns the rows of its range in every buffer,
    and the parts run in lockstep through seven phases per step, each ending
    at a barrier: stage 1 with its stage input, stage 2, the second stage
    input with the slope sum, stage 3, the third stage input with the slope
    sum, stage 4 with the new state, and the Hermitian part.  A stage reads
    the whole stage input, and the Hermitian part reads the state's columns,
    so only the phases after a barrier may write them.  The Hermitian part is
    written into the stage-slope buffer, which then becomes the state.
    """
    members, dim = len(rho), len(rho[0])
    if n_steps != sorted(n_steps, reverse=True):
        raise ValueError(f"step counts {n_steps} are not in order, most first")
    dt = [float(t) / n if n else 0.0 for t, n in zip(t, n_steps)]

    def per_member(scale):
        return np.array([scale(d) for d in dt], dtype=complex)[:, None]

    quarter, half, sixth = (per_member(lambda d: 0.25 * d), per_member(lambda d: 0.5 * d),
                            per_member(lambda d: d / 6.0))
    state = np.concatenate(rho)
    states = (state, np.empty_like(state))
    acc, x = np.empty_like(state), np.empty_like(state)

    def steps(rows, fill, first, last, sync):
        """Steps ``first`` to ``last`` - 1 of the members in ``rows``."""
        # whole members m0 to m1 - 1, or rows p0 to p1 - 1 of member m0
        m0, p0 = divmod(rows.start, dim)
        m1 = max(m0 + 1, rows.stop // dim)
        p1 = rows.stop - (m1 - 1) * dim

        def own(a):
            """The range's rows of ``a``, one row per member."""
            return a.reshape(members, dim, dim)[m0:m1, p0:p1].reshape(m1 - m0, -1)

        q, h, s = quarter[m0:m1], half[m0:m1], sixth[m0:m1]
        aa, xx = own(acc), own(x)
        mine = [own(a) for a in states]
        # a state's columns in the range, as the range's rows of its
        # transpose, and the range of the other state that takes them
        flipped = [a.reshape(members, dim, dim)[m0:m1, :, p0:p1].transpose(0, 2, 1)
                   for a in states]
        flip_into = [a.reshape(flipped[0].shape) for a in mine]
        i = first % 2   # states[i] holds the state
        for step in range(first, last):
            if step > first:
                sync()
            r, k, rr, kk = states[i], states[1 - i], mine[i], mine[1 - i]
            fill(r, acc)                          # acc = k1
            np.multiply(h, aa, out=xx)
            np.add(rr, xx, out=xx)
            sync()
            fill(x, k, True)                      # k = 2 k2
            sync()
            np.multiply(q, kk, out=xx)
            np.add(rr, xx, out=xx)
            np.add(aa, kk, out=aa)                # acc = k1 + 2 k2
            sync()
            fill(x, k, True)                      # k = 2 k3
            sync()
            np.multiply(h, kk, out=xx)
            np.add(rr, xx, out=xx)
            np.add(aa, kk, out=aa)                # acc = k1 + 2 k2 + 2 k3
            sync()
            fill(x, k)                            # k = k4
            np.add(aa, kk, out=aa)
            np.multiply(s, aa, out=aa)
            np.add(rr, aa, out=rr)
            sync()
            flip_into[1 - i][...] = flipped[i]    # enforce Hermiticity each step
            np.conjugate(kk, out=kk)
            np.add(rr, kk, out=kk)
            np.multiply(0.5, kk, out=kk)
            i = 1 - i

    done = 0
    for running in range(members, 0, -1):
        last = n_steps[running - 1]
        if last > done:
            _lockstep([functools.partial(steps, rows, fill, done, last)
                       for rows, fill in plan(running)])
            done = last
    out = states[done % 2]
    for i, n in enumerate(n_steps):
        if n % 2 != done % 2:
            out[i * dim:(i + 1) * dim] = states[n % 2][i * dim:(i + 1) * dim]
    return out


def _evolve(states, spec: LindbladSpec, times, n_steps) -> list:
    """Each of ``states`` (D x D arrays) integrated ``n_steps[i]`` RK4 steps
    to ``times[i]`` (see ``_integrate``), in input order.  The states run in
    stacks of at most ``_STACK_ENTRIES`` entries or one member each, one
    stack after another, members of like step counts together."""
    dim = int(np.prod(spec.mode_dims))
    per = max(1, _STACK_ENTRIES // (dim * dim))
    order = sorted(range(len(states)), key=lambda i: -n_steps[i])
    plan = _rhs_builder(spec, min(per, max(1, len(states))))
    out = [None] * len(states)
    for g in range(0, len(order), per):
        group = order[g:g + per]
        evolved = _integrate([states[i] for i in group], plan, [times[i] for i in group],
                             [n_steps[i] for i in group])
        for i, member in zip(group, [evolved] if len(group) == 1 else evolved.reshape(-1, dim, dim)):
            out[i] = member
    return out


def _checked(rho: FockDensity, out: np.ndarray) -> FockDensity:
    """``out`` as the evolved ``rho``, once its trace and truncation pass."""
    drift = np.trace(out).real - np.trace(rho.entries).real
    if not abs(drift) <= 1e-10:   # NaN fails too
        raise ValueError(f"trace drifted by {drift:.3e} during integration")
    result = FockDensity(out, rho.mode_dims)
    result.check_truncation()
    return result


def _step_count(rho: FockDensity, spec: LindbladSpec, t: float, dt_max: float) -> int:
    """RK4 steps to reach ``t``, after the checks of the arguments."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if tuple(rho.mode_dims) != tuple(spec.mode_dims):
        raise ValueError(f"rho has mode_dims {rho.mode_dims}, spec has {spec.mode_dims}")
    return max(1, math.ceil(t / dt_max)) if t else 0


def evolve_lindblad(rho: FockDensity, spec: LindbladSpec, t: float,
                    dt_max: float, verify_step: bool = False) -> FockDensity:
    """Fixed-step RK4 integration of the zero-temperature master equation."""
    n_steps = _step_count(rho, spec, t, dt_max)
    if not n_steps:
        return FockDensity(rho.entries.copy(), rho.mode_dims)
    if not verify_step:
        return _checked(rho, _evolve([rho.entries], spec, [t], [n_steps])[0])
    out, refined = _evolve([rho.entries] * 2, spec, [t, t], [n_steps, 2 * n_steps])
    change = np.abs(out - refined).max()
    if change > 1e-8:
        raise StepSizeRejected(f"halving dt changed entries by {change:.3e}")
    return _checked(rho, refined)


def evolve_lindblad_many(rhos, spec: LindbladSpec, times, dt_max: float) -> Iterator[FockDensity]:
    """``evolve_lindblad(rho, spec, t, dt_max)`` for each rho of ``rhos`` and
    t of ``times``, integrated together (see ``_evolve``) before this
    returns.  The results come in order from the returned iterator, each
    checked as it is reached, so a caller that checks each result in turn
    meets the first error that a loop over ``evolve_lindblad`` would raise."""
    rhos, times = list(rhos), [float(t) for t in times]
    n_steps = [_step_count(rho, spec, t, dt_max) for rho, t in zip(rhos, times)]
    evolved = _evolve([rho.entries for rho in rhos], spec, times, n_steps)
    return (_checked(rho, out) if n else FockDensity(out, rho.mode_dims)
            for rho, out, n in zip(rhos, evolved, n_steps))


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
    return _fidelity_to(rho, cat_state_vector(spec, len(rho.entries) - 1))


def _fidelity_to(rho: FockDensity, psi: np.ndarray) -> float:
    f = float(np.real(psi.conj() @ rho.entries @ psi))
    if f > 1.0 + 1e-9:
        raise ValueError(f"fidelity {f!r} above 1")
    return f


def mixture_to_fock(mixture: CatMixture, n_max: Optional[int] = None) -> FockDensity:
    """Materialize an analytic CatMixture as a number-basis density matrix.
    |-amp> is (-1)^n |amp>, and negation commutes with rounding."""
    if n_max is None:
        n_max = required_n_max(mixture.amp)
    vp = coherent_to_fock(mixture.amp, n_max)
    pp = np.outer(vp, vp.conj())
    pm, mp = pp.copy(), pp.copy()   # |amp><-amp|, |-amp><amp|: odd columns, rows negated
    np.negative(pp[:, 1::2], out=pm[:, 1::2])
    np.negative(pp[1::2], out=mp[1::2])
    mm = pm.copy()
    np.negative(pm[1::2], out=mm[1::2])
    rho = mixture.norm_const * (mixture.w_pp * pp + mixture.w_mm * mm
                                + mixture.coh * pm + np.conj(mixture.coh) * mp)
    return FockDensity(rho, (n_max + 1,))


def mixture_fidelity(mixture: CatMixture, spec: CatSpec,
                     targets: Optional[dict] = None) -> float:
    """Oracle fidelity of ``mixture`` to the cat in ``spec``: on the mixture's
    own basis, enlarged to hold that cat only when the cat breaches there.

    ``targets`` is a dict that a caller scoring many mixtures against one
    ``spec`` passes to every call: it keeps the cat's vector per basis size,
    so each is built once."""
    targets = {} if targets is None else targets

    def scored(n_max):
        rho = mixture_to_fock(mixture, n_max)
        if n_max not in targets:
            targets[n_max] = cat_state_vector(spec, n_max)
        return _fidelity_to(rho, targets[n_max])

    try:
        return scored(required_n_max(mixture.amp))
    except TruncationBreach:
        return scored(required_n_max(mixture.amp, spec.alpha))


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
