import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from catteleport.errors import NullState, StepSizeRejected, TruncationBreach
from catteleport.fidelity import CatMixture, build_rho1, fidelity_at
from catteleport import oracle
from catteleport.oracle import (
    FockDensity,
    LindbladSpec,
    _integrate,
    _rhs_builder,
    cat_state_vector,
    coherent_fidelity,
    coherent_to_fock,
    coherent_pair_weights,
    evolve_lindblad,
    extract_cat_coherence,
    mixture_fidelity,
    mixture_to_fock,
    oracle_fidelity,
    required_n_max,
)
from catteleport.states import CatSpec

from conftest import coefficient_matrix, dispersive_pi_fock, fock_overlap, validate_density

INV = 1.0 / math.sqrt(2.0)
GAMMA = 1.0e3


def annihilation(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def number_op(dim):
    return np.diag(np.arange(dim)).astype(complex)


def dense_rhs(spec, rho):
    """The master equation with D x D operators built by kron, term by term."""
    if len(spec.mode_dims) == 1:
        ops = [annihilation(spec.mode_dims[0])]
    else:
        d1, d2 = spec.mode_dims
        ops = [np.kron(annihilation(d1), np.eye(d2)), np.kron(np.eye(d1), annihilation(d2))]
    h = spec.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for j, a_j in enumerate(ops):
        for jp, a_jp in enumerate(ops):
            adag_a = a_j.conj().T @ a_jp
            out += spec.gamma_matrix[j, jp] * (
                a_jp @ rho @ a_j.conj().T - 0.5 * (adag_a @ rho + rho @ adag_a))
    return out


_LOW, _HIGH = slice(None, -1), slice(1, None)   # Fock levels 0..d-2 and 1..d-1


def reference_rhs_builder(spec):
    """The slice-based RHS that the row-block kernel replaced, kept as its
    bit-for-bit reference: rho viewed with shape ``mode_dims + mode_dims``,
    each product a one-level slice move of that tensor, written only where
    the truncation allows the move."""
    dims = spec.mode_dims
    k = len(dims)
    shape = dims + dims
    energies = np.diagonal(spec.hamiltonian).real
    phase = (-1j * (energies[:, None] - energies)).reshape(shape) if energies.any() else None
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in dims]

    def move(*steps):
        dst, src = [slice(None)] * (2 * k), [slice(None)] * (2 * k)
        for axis, step in steps:
            dst[axis], src[axis] = (_LOW, _HIGH) if step < 0 else (_HIGH, _LOW)
        return tuple(dst), tuple(src)

    def along(axis, values):
        layout = [1] * (2 * k)
        layout[axis] = values.size
        return values.reshape(layout)

    terms = []
    for j in range(k):
        for jp in range(k):
            rate = spec.gamma_matrix[j, jp]
            if rate == 0.0:
                continue
            up_j, up_jp = roots[j][1:], roots[jp][1:]
            jump = (move((jp, -1), (k + j, -1)), along(jp, up_jp), along(k + j, up_j))
            if j == jp:
                n = roots[j] * roots[j]
                left, right = (move(), along(j, n)), (move(), along(k + j, n))
            else:
                left = (move((j, +1), (jp, -1)), along(j, up_j) * along(jp, up_jp))
                right = (move((k + j, -1), (k + jp, +1)),
                         along(k + j, up_j) * along(k + jp, up_jp))
            terms.append((rate, j == jp, jump, left, right))

    work, scratch = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)

    def rhs(rho):
        r = rho.reshape(shape)
        out = np.zeros(shape, dtype=complex) if phase is None else r * phase
        for rate, diagonal, jump, left, right in terms:
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


def reference_integrate(rho, rhs, t, n_steps):
    """The RK4 loop that allocates each intermediate, the reference of
    ``oracle._integrate``."""
    dt = t / n_steps
    r = rho.copy()
    for _ in range(n_steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = 0.5 * (r + r.conj().T)
    return r


def reference_mixture_to_fock(mixture, n_max):
    """``oracle.mixture_to_fock`` before it built |-amp> and its outer
    products from |amp> by sign flips, kept as its bit-for-bit reference."""
    vp = coherent_to_fock(mixture.amp, n_max)
    vm = coherent_to_fock(-complex(mixture.amp), n_max)
    return mixture.norm_const * (
        mixture.w_pp * np.outer(vp, vp.conj())
        + mixture.w_mm * np.outer(vm, vm.conj())
        + mixture.coh * np.outer(vp, vm.conj())
        + np.conj(mixture.coh) * np.outer(vm, vp.conj())
    )


def same_bits(a, b):
    """Equal arrays down to the sign of every zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def rhs_of(plan, rho):
    """The master equation's right-hand side at the D x D ``rho``: every
    fill of ``plan(1)`` in turn, into a buffer that each fill overwrites."""
    out = np.full_like(rho, np.nan)
    for _, fill in plan(1):
        fill(rho, out)
    return out


def cat_density(dims):
    """An even cat per mode: every odd-level amplitude is an exact zero."""
    psi = np.ones(1)
    for j, d in enumerate(dims):
        a = 0.6 * (1j if j else 1.0)
        psi = np.kron(psi, coherent_to_fock(a, d - 1) + coherent_to_fock(-a, d - 1))
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_hermitian(dim, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T


CROSS = [[1.0e3, 6.0e2], [6.0e2, 1.1e3]]


class TestFockBasics:
    def test_vacuum_coefficient(self):
        c = coherent_to_fock(1.0, 40)
        assert c[0] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_overlap_matches_symbolic(self):
        a, b = 0.9 + 0.3j, -1.1 + 0.2j
        n_max = required_n_max(a, b)
        va, vb = coherent_to_fock(a, n_max), coherent_to_fock(b, n_max)
        assert np.vdot(va, vb) == pytest.approx(fock_overlap(a, b), abs=1e-12)

    def test_truncation_breach_raises(self):
        with pytest.raises(TruncationBreach):
            coherent_to_fock(3.0, 6)

    @pytest.mark.parametrize("a", [39.0, -39.0j, 50.0 + 10.0j], ids=["39", "minus_39j", "51"])
    def test_underflowing_vacuum_coefficient_is_named(self, a):
        # e^{-|a|^2/2} is 0.0 in double precision from |a| of about 38.6 on;
        # the tail check would report a tail mass of 1 instead
        with pytest.raises(TruncationBreach, match=rf"underflows to 0 for \|a\|={abs(a):.3f}"):
            coherent_to_fock(a, required_n_max(a))

    @pytest.mark.parametrize("a", [1.0 + 0.5j, 38.5, 38.6j], ids=["normal", "subnormal",
                                                                "least_subnormal"])
    def test_nonzero_vacuum_coefficient_keeps_the_recurrence(self, a):
        n_max = required_n_max(a)
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = math.exp(-0.5 * abs(a) ** 2)
        for n in range(1, n_max + 1):
            c[n] = c[n - 1] * a / math.sqrt(n)
        assert c[0] > 0.0 and same_bits(coherent_to_fock(a, n_max), c)

    def test_required_n_max_keeps_tail_small(self):
        for a in (0.3, 1.0, 2.0, 2.5):
            c = coherent_to_fock(a, required_n_max(a))
            assert 1.0 - np.vdot(c, c).real < 1e-10

    def test_annihilation_matrix_elements(self):
        a = annihilation(4)
        assert a[0, 1] == 1.0 and a[1, 2] == pytest.approx(math.sqrt(2.0))

    def test_density_validation(self):
        dim = required_n_max(0.8) + 1
        rho = FockDensity.from_vector(coherent_to_fock(0.8, dim - 1), (dim,))
        validate_density(rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_counts_non_finite_entries(self, bad):
        dim = required_n_max(0.8) + 1
        rho = FockDensity.from_vector(coherent_to_fock(0.8, dim - 1), (dim,))
        rho.entries[0, 1] = rho.entries[1, 0] = rho.entries[2, 2] = bad
        with pytest.raises(ValueError, match="3 non-finite entries"):
            validate_density(rho)

    def test_truncation_check_fails_on_nan(self):
        with pytest.raises(TruncationBreach, match="nan"):
            FockDensity(np.full((4, 4), math.nan), (4,)).check_truncation()


class TestLindbladEvolution:
    def test_unitary_rotation_preserves_fidelity(self):
        # H = w n rotates |a> to |a e^{-iwt}> exactly
        a, w, t = 0.9, 2.0e4, 3e-4
        dim = required_n_max(a) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a, dim - 1), (dim,))
        spec = LindbladSpec(w * number_op(dim), np.array([[1e-12]]), (dim,))
        out = evolve_lindblad(rho, spec, t, dt_max=1.0 / (200.0 * w))
        rotated = a * np.exp(-1j * w * t)
        assert coherent_fidelity(out, rotated) == pytest.approx(1.0, abs=1e-9)

    def test_damping_amplitude_law(self):
        # tr(rho a) = a0 e^{-gamma t / 2} for pure damping
        a0, t = 1.2, 4e-4
        dim = required_n_max(a0) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a0, dim - 1), (dim,))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex),
                            np.array([[GAMMA]]), (dim,))
        out = evolve_lindblad(rho, spec, t, dt_max=1.0 / (50.0 * GAMMA))
        mean = np.trace(out.entries @ annihilation(dim))
        expected = a0 * math.exp(-GAMMA * t / 2.0)
        assert abs(mean - expected) / expected < 1e-6

    def test_damped_coherent_state_stays_coherent(self):
        a0, t = 1.0, 3.5e-4
        dim = required_n_max(a0) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a0, dim - 1), (dim,))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex),
                            np.array([[GAMMA]]), (dim,))
        out = evolve_lindblad(rho, spec, t, dt_max=1.0 / (50.0 * GAMMA))
        decayed = a0 * math.exp(-GAMMA * t / 2.0)
        assert coherent_fidelity(out, decayed) == pytest.approx(1.0, abs=1e-7)
        purity = np.trace(out.entries @ out.entries).real
        assert purity >= 1.0 - 1e-6

    def test_cat_decoherence_factor(self):
        # evolve a balanced even cat and read Z off the pair-basis coefficients
        a0, t = 1.0, 3.5e-4
        spec_cat = CatSpec(INV, INV, a0, 1)
        dim = required_n_max(a0) + 1
        rho = FockDensity.from_vector(cat_state_vector(spec_cat, dim - 1), (dim,))
        lspec = LindbladSpec(np.zeros((dim, dim), dtype=complex),
                             np.array([[GAMMA]]), (dim,))
        out = evolve_lindblad(rho, lspec, t, dt_max=1.0 / (50.0 * GAMMA))
        u = math.exp(-GAMMA * t / 2.0)
        z = extract_cat_coherence(out, a0 * u)
        assert z == pytest.approx(math.exp(-2.0 * a0 ** 2 * (1.0 - u * u)), rel=1e-5)

    def test_two_mode_independent_damping_factorizes(self):
        a, b, t = 0.3, 0.4, 2e-4
        d = 13
        va = coherent_to_fock(a, d - 1)
        vb = coherent_to_fock(b, d - 1)
        rho = FockDensity.from_vector(np.kron(va, vb), (d, d))
        g1, g2 = 1.0e3, 1.0 / 0.9e-3
        lspec = LindbladSpec(
            np.zeros((d * d, d * d), dtype=complex),
            np.array([[g1, 0.0], [0.0, g2]]),
            (d, d),
        )
        out = evolve_lindblad(rho, lspec, t, dt_max=1.0 / (50.0 * g2))
        ua = coherent_to_fock(a * math.exp(-g1 * t / 2.0), d - 1)
        ub = coherent_to_fock(b * math.exp(-g2 * t / 2.0), d - 1)
        target = np.kron(ua, ub)
        f = float(np.real(target.conj() @ out.entries @ target))
        assert f == pytest.approx(1.0, abs=1e-7)

    def test_many_states_equal_one_call_each(self):
        a0 = 1.0
        dim = required_n_max(a0) + 1
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[GAMMA]]), (dim,))
        coh = FockDensity.from_vector(coherent_to_fock(a0, dim - 1), (dim,))
        cat = FockDensity.from_vector(cat_state_vector(CatSpec(INV, INV, a0, 1), dim - 1), (dim,))
        rhos, times = [coh, cat, coh, cat, coh], [0.0, 0.0, 1.0e-4, 1.0e-4, 3.5e-4]
        many = list(oracle.evolve_lindblad_many(rhos, spec, times, 1.0 / (50.0 * GAMMA)))
        one = [evolve_lindblad(rho, spec, t, 1.0 / (50.0 * GAMMA)) for rho, t in zip(rhos, times)]
        assert all(same_bits(m.entries, o.entries) and m.mode_dims == o.mode_dims
                   for m, o in zip(many, one)) and len(many) == 5
        assert list(oracle.evolve_lindblad_many([], spec, [], 1.0e-5)) == []

    def test_many_states_check_each_result_when_reached(self):
        # the second state's rate overflows its RK4 stages: the first result
        # still comes out, the second raises the trace check
        dim = 9
        rho = FockDensity.from_vector(coherent_to_fock(0.5, dim - 1), (dim,))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[1e300]]), (dim,))
        with np.errstate(over="ignore", invalid="ignore"):
            evolved = oracle.evolve_lindblad_many([rho, rho], spec, [0.0, 1e-3], 1e-3)
        assert same_bits(next(evolved).entries, rho.entries)
        with pytest.raises(ValueError, match="trace drifted"):
            next(evolved)

    def test_trace_check_reports_the_drift_from_the_input_trace(self):
        dims = (4,)
        rho = FockDensity(np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex), dims)
        assert same_bits(oracle._checked(rho, rho.entries.copy()).entries, rho.entries)
        drifted = np.diag([0.5 + 1e-6, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match=r"trace drifted by 1\.000e-06 "):
            oracle._checked(rho, drifted)

    def test_step_verification_accepts_fine_grid(self):
        a0 = 0.8
        dim = required_n_max(a0) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a0, dim - 1), (dim,))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex),
                            np.array([[GAMMA]]), (dim,))
        evolve_lindblad(rho, spec, 2e-4, dt_max=1.0 / (100.0 * GAMMA),
                        verify_step=True)

    def test_step_verification_rejects_coarse_grid(self):
        a0 = 1.5
        dim = required_n_max(a0) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a0, dim - 1), (dim,))
        big = 5.0e4
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex),
                            np.array([[big]]), (dim,))
        with pytest.raises(StepSizeRejected):
            evolve_lindblad(rho, spec, 2e-4, dt_max=1e-4, verify_step=True)

    @pytest.mark.parametrize("dims, gamma, energies", [
        ((25,), [[GAMMA]], None),
        ((16, 25), [[1.0e3, 0.0], [0.0, 1.1e3]], None),
        ((5, 6), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], None),
        ((16, 16), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], None),
        ((5, 6), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], "random"),
        # a detuning Delta * n_2 in the frame of mode 1
        ((9, 11), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], "detuning"),
    ], ids=["one_mode_d25", "two_mode_16x25", "cross_5x6", "cross_16x16",
            "cross_5x6_hamiltonian", "cross_9x11_detuning"])
    def test_rhs_matches_dense_operators(self, dims, gamma, energies):
        rng = np.random.default_rng(4)
        dim = int(np.prod(dims))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x + x.conj().T
        if energies is None:
            e = np.zeros(dim)
        elif energies == "random":
            e = rng.normal(scale=1.0e4, size=dim)
        else:
            e = 2.0 * math.pi * 1.0e7 * np.tile(np.arange(dims[1]), dims[0])
        spec = LindbladSpec(np.diag(e).astype(complex), np.array(gamma), dims)
        ref = dense_rhs(spec, rho)
        out = rhs_of(_rhs_builder(spec), rho)
        if energies is None:   # no Hamiltonian: the same roundings as the dense form
            assert np.array_equal(out, ref)
        else:
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("entry", [(0, 1), (3, 2)], ids=["upper", "lower"])
    def test_rejects_off_diagonal_hamiltonian(self, entry):
        h = np.diag(np.arange(6.0)).astype(complex)
        h[entry] = 1.0e-3
        with pytest.raises(ValueError, match="hamiltonian"):
            LindbladSpec(h, np.diag([GAMMA, GAMMA]), (2, 3))

    @pytest.mark.parametrize("energy", [1.0 + 1.0j, math.nan, math.inf],
                             ids=["complex", "nan", "inf"])
    def test_rejects_non_real_hamiltonian_diagonal(self, energy):
        h = np.zeros((4, 4), dtype=complex)
        h[2, 2] = energy
        with pytest.raises(ValueError, match="hamiltonian"):
            LindbladSpec(h, np.array([[GAMMA]]), (4,))

    @pytest.mark.parametrize("h_dim, gamma, dims, key", [
        (5, [[GAMMA]], (4,), "hamiltonian"),
        (2, [[GAMMA, 0.0], [0.0, GAMMA]], (2, 2), "hamiltonian"),
        (4, [[GAMMA]], (2, 2), "gamma_matrix"),
        (4, [[GAMMA, 0.0], [0.0, GAMMA]], (4,), "gamma_matrix"),
    ], ids=["hamiltonian_5x5_for_d4", "hamiltonian_2x2_for_2x2_modes",
            "gamma_1x1_for_two_modes", "gamma_2x2_for_one_mode"])
    def test_rejects_misshaped_spec(self, h_dim, gamma, dims, key):
        with pytest.raises(ValueError, match=key):
            LindbladSpec(np.eye(h_dim, dtype=complex), np.array(gamma), dims)

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_gamma(self, rate):
        with pytest.raises(ValueError, match="gamma_matrix"):
            LindbladSpec(np.zeros((4, 4), dtype=complex), np.array([[rate]]), (4,))

    def test_non_finite_state_fails_trace_check(self):
        # a finite rate whose RK4 stages overflow ends in a NaN state
        dim = 9
        rho = FockDensity.from_vector(coherent_to_fock(0.5, dim - 1), (dim,))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[1e300]]), (dim,))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="trace drifted"):
            evolve_lindblad(rho, spec, 1e-3, 1e-3)

    def test_rejects_state_of_other_mode_dims(self):
        # same D = 36, so the RHS would reshape rho by the wrong dims and run
        psi = np.kron(coherent_to_fock(0.0, 3), coherent_to_fock(0.3, 8))
        rho = FockDensity.from_vector(psi, (4, 9))
        spec = LindbladSpec(np.zeros((36, 36), dtype=complex), np.diag([GAMMA, GAMMA]), (6, 6))
        with pytest.raises(ValueError, match="mode_dims"):
            evolve_lindblad(rho, spec, 1e-4, 1e-5)

    def test_rejects_indefinite_gamma(self):
        with pytest.raises(ValueError):
            LindbladSpec(np.zeros((4, 4), dtype=complex),
                         np.array([[1.0, 3.0], [3.0, 1.0]]), (2, 2))


class RowBlockKernels:
    """The row-block RHS and the preallocated RK4 loop against the kernels
    they replaced, bit for bit, at the worker count ``workers``: the
    subclasses below pin it to the caller alone and to the caller with the
    helper, which covers every host's count."""

    workers: int

    @pytest.fixture(autouse=True)
    def pin_workers(self, monkeypatch):
        monkeypatch.setattr(oracle, "_WORKERS", self.workers)

    @pytest.mark.parametrize("dims, gamma", [
        ((25,), [[GAMMA]]),
        ((16, 16), CROSS),
        ((25, 16), CROSS),
        ((25, 25), CROSS),
        ((16, 25), [[1.0e3, 0.0], [0.0, 1.1e3]]),
        ((9, 11), CROSS),
    ], ids=["one_mode_d25", "cross_16x16", "cross_25x16", "cross_25x25", "plain_16x25",
            "cross_9x11"])
    @pytest.mark.parametrize("hamiltonian", [False, True], ids=["h0", "h"])
    @pytest.mark.parametrize("rows", [None, 7], ids=["default_blocks", "blocks_of_7_rows"])
    def test_rhs_bits_equal_reference(self, monkeypatch, dims, gamma, hamiltonian, rows):
        dim = int(np.prod(dims))
        if rows is not None:   # several blocks, the last one short
            monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", rows * dim)
        e = np.random.default_rng(5).normal(scale=1.0e4, size=dim) if hamiltonian else np.zeros(dim)
        spec = LindbladSpec(np.diag(e).astype(complex), np.array(gamma), dims)
        plan, ref = _rhs_builder(spec), reference_rhs_builder(spec)
        blocks = -(-dim // min(dim, oracle._BLOCK_ENTRIES // dim))
        assert len(plan(1)) == min(oracle._WORKERS, blocks)
        for rho in (random_hermitian(dim), cat_density(dims)):
            assert same_bits(rhs_of(plan, rho), ref(rho))
            doubled = np.full((dim, dim), np.nan, dtype=complex)
            for _, fill in plan(1):
                fill(rho, doubled, True)
            assert same_bits(doubled, 2.0 * ref(rho))

    @pytest.mark.parametrize("dims, gamma, hamiltonian", [
        ((25,), [[GAMMA]], False),
        ((16, 16), CROSS, False),
        ((16, 25), [[1.0e3, 0.0], [0.0, 1.1e3]], False),
        ((9, 11), CROSS, True),
    ], ids=["one_mode_d25", "cross_16x16", "plain_16x25", "cross_9x11_hamiltonian"])
    @pytest.mark.parametrize("n_steps", [1, 2, 9])
    def test_integrate_bits_equal_reference(self, dims, gamma, hamiltonian, n_steps):
        dim = int(np.prod(dims))
        e = 2.0 * math.pi * 1.0e4 * np.arange(dim) if hamiltonian else np.zeros(dim)
        spec = LindbladSpec(np.diag(e).astype(complex), np.array(gamma), dims)
        rho = cat_density(dims)
        out = _integrate([rho], _rhs_builder(spec), [3.0e-4], [n_steps])
        assert same_bits(out, reference_integrate(rho, reference_rhs_builder(spec), 3.0e-4, n_steps))

    @pytest.mark.parametrize("dims, gamma, hamiltonian", [
        ((16, 25), [[1.0e3, 0.0], [0.0, 1.1e3]], False),
        ((9, 11), CROSS, True),   # 15 blocks: split 8 and 7
    ], ids=["plain_16x25", "cross_9x11_hamiltonian"])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_integrate_in_blocks_of_7_rows_bits_equal_reference(self, monkeypatch, dims, gamma,
                                                                hamiltonian, n_steps):
        monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 7 * int(np.prod(dims)))
        self.test_integrate_bits_equal_reference(dims, gamma, hamiltonian, n_steps)

    @pytest.mark.parametrize("dims, gamma", [((25,), [[GAMMA]]), ((16, 16), CROSS)],
                             ids=["one_mode_d25", "cross_16x16"])
    def test_verified_evolution_bits_equal_reference(self, dims, gamma):
        dim = int(np.prod(dims))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array(gamma), dims)
        rho = FockDensity(cat_density(dims), dims)
        out = evolve_lindblad(rho, spec, 1.0e-4, 2.0e-5, verify_step=True)
        # verify_step integrates at 5 and 10 steps and returns the finer result
        ref = reference_integrate(rho.entries, reference_rhs_builder(spec), 1.0e-4, 10)
        assert same_bits(out.entries, ref)

    @staticmethod
    def members_equal_reference(spec, states, times, n_steps, out):
        ref = reference_rhs_builder(spec)
        return len(out) == len(states) and all(
            same_bits(o, reference_integrate(s, ref, t, n))
            for o, s, t, n in zip(out, states, times, n_steps))

    @pytest.mark.parametrize("alpha", [0.5, 2.5], ids=["d21", "d43"])
    @pytest.mark.parametrize("block_members", [None, 2], ids=["one_block", "blocks_of_2_members"])
    def test_stack_with_mixed_step_counts_bits_equal_reference(self, monkeypatch, alpha,
                                                               block_members):
        dim = required_n_max(alpha) + 1
        if block_members is not None:   # two blocks, one per worker when there are two
            monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", block_members * dim * dim)
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[GAMMA]]), (dim,))
        cat = CatSpec(INV, INV, alpha, 1)
        states = [FockDensity.from_vector(v, (dim,)).entries for v in (
            coherent_to_fock(alpha, dim - 1), cat_state_vector(cat, dim - 1),
            coherent_to_fock(-0.5j * alpha, dim - 1))]
        states.append(random_hermitian(dim) / dim)
        # an odd count, a tie of even counts and one step: every parity of
        # drop-out
        n_steps, times = [7, 4, 4, 1], [3.5e-4, 2.0e-4, 1.0e-4, 5.0e-5]
        plan = _rhs_builder(spec, len(states))
        assert len(plan(len(states))) == (1 if block_members is None else oracle._WORKERS)
        out = _integrate(states, plan, times, n_steps).reshape(-1, dim, dim)
        assert self.members_equal_reference(spec, states, times, n_steps, out)
        with pytest.raises(ValueError, match="not in order"):
            _integrate(states, plan, times, n_steps[::-1])

    def test_two_mode_stack_with_hamiltonian_bits_equal_reference(self):
        dims, dim = (8, 11), 88   # one member per block on one CPU: three blocks
        e = 2.0 * math.pi * 1.0e4 * np.arange(dim)
        spec = LindbladSpec(np.diag(e).astype(complex), np.array(CROSS), dims)
        states = [cat_density(dims), random_hermitian(dim) / dim, cat_density(dims)[::-1, ::-1].copy()]
        n_steps, times = [5, 2, 1], [3.0e-4, 1.0e-4, 4.0e-5]
        out = _integrate(states, _rhs_builder(spec, 3), times, n_steps)
        assert self.members_equal_reference(spec, states, times, n_steps, out.reshape(-1, dim, dim))

    @pytest.mark.parametrize("budget_members", [1, 2, 3])
    def test_groups_of_a_smaller_budget_bits_equal_reference(self, monkeypatch, budget_members):
        dim = 21
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", budget_members * dim * dim + dim)
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[GAMMA]]), (dim,))
        states = [random_hermitian(dim, seed) / dim for seed in range(7)]
        n_steps = [3, 1, 6, 2, 5, 1, 4]
        times = [1.0e-5 * (i + 1) * n for i, n in enumerate(n_steps)]
        built = []
        monkeypatch.setattr(oracle, "_rhs_builder", lambda spec, members: built.append(
            members) or _rhs_builder(spec, members))
        out = oracle._evolve(states, spec, times, n_steps)
        assert built == [budget_members]
        assert self.members_equal_reference(spec, states, times, n_steps, out)

    @pytest.mark.parametrize("block_members", [None, 2], ids=["one_block", "blocks_of_2_members"])
    def test_one_mode_stacks_with_hamiltonian_bits_equal_reference(self, monkeypatch,
                                                                   block_members):
        # the doubled phase of stages 2 and 3, and the row coefficients held
        # in a one-block stack or copied per block
        dim = 21
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", 4 * dim * dim)   # groups of 4 and 3
        if block_members is not None:
            monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", block_members * dim * dim)
        e = 2.0 * math.pi * 1.0e4 * np.arange(dim)
        spec = LindbladSpec(np.diag(e).astype(complex), np.array([[GAMMA]]), (dim,))
        states = [random_hermitian(dim, seed) / dim for seed in range(6)] + [cat_density((dim,))]
        n_steps = [4, 7, 1, 6, 3, 2, 5]
        times = [2.0e-5 * n for n in n_steps]
        held = []
        monkeypatch.setattr(oracle, "_rhs_builder", lambda spec, members: held.append(
            oracle._BLOCK_ENTRIES >= members * dim * dim) or _rhs_builder(spec, members))
        out = oracle._evolve(states, spec, times, n_steps)
        assert held == [block_members is None]
        assert self.members_equal_reference(spec, states, times, n_steps, out)

    @pytest.mark.parametrize("dims, gamma", [((25,), [[GAMMA]]), ((16, 16), CROSS)],
                             ids=["one_mode_d25", "cross_16x16"])
    def test_verify_pair_is_one_stack_that_fits(self, monkeypatch, dims, gamma):
        dim = int(np.prod(dims))
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array(gamma), dims)
        rho = FockDensity(cat_density(dims), dims)
        built = []
        monkeypatch.setattr(oracle, "_rhs_builder", lambda spec, members: built.append(
            members) or _rhs_builder(spec, members))
        ref = reference_rhs_builder(spec)
        # the coarse pass's result is what the check compares against
        coarse = reference_integrate(rho.entries, ref, 1.0e-4, 5)
        fine = reference_integrate(rho.entries, ref, 1.0e-4, 10)
        seen = []
        real_evolve = oracle._evolve
        monkeypatch.setattr(oracle, "_evolve", lambda *a: seen.append(real_evolve(*a)) or seen[-1])
        out = evolve_lindblad(rho, spec, 1.0e-4, 2.0e-5, verify_step=True)
        assert built == [2 if 2 * dim * dim <= oracle._STACK_ENTRIES else 1]
        assert same_bits(seen[0][0], coarse) and same_bits(seen[0][1], fine)
        assert same_bits(out.entries, fine)

    @pytest.mark.parametrize("budget_members", [None, 4], ids=["default_budget", "budget_4"])
    def test_stack_memory_stays_within_one_group(self, monkeypatch, budget_members):
        # 20 members at d = 21: the results, then one group's stack buffers
        # and block buffers at a time
        dim = 21
        if budget_members is not None:
            monkeypatch.setattr(oracle, "_STACK_ENTRIES", budget_members * dim * dim)
        matrix = dim * dim * np.dtype(complex).itemsize
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[GAMMA]]), (dim,))
        states = [random_hermitian(dim, seed) / dim for seed in range(20)]
        n_steps = [1 + i % 7 for i in range(20)]
        times = [1.0e-5 * n for n in n_steps]
        per = max(1, oracle._STACK_ENTRIES // (dim * dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = oracle._evolve(states, spec, times, n_steps)
            peak = (tracemalloc.get_traced_memory()[1] - base) / matrix
        finally:
            tracemalloc.stop()
        # the 20 results, plus twelve matrices per member of one group: four
        # stack buffers, four block buffers, two tiled column coefficients
        # (and a temporary while tiling one) and the gathered input
        assert peak <= 20 + 12 * min(per, 20) + 1, (peak, per)
        assert self.members_equal_reference(spec, states, times, n_steps, out)

    def test_integration_peaks_at_four_matrices_whatever_the_step_count(self):
        # the state and three stage buffers; the allocating loop peaks above seven
        dims = (16, 16)
        dim = 256
        matrix = dim * dim * np.dtype(complex).itemsize
        spec = LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array(CROSS), dims)
        rho = cat_density(dims)

        def peak(integrate):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                integrate()
                return (tracemalloc.get_traced_memory()[1] - base) / matrix
            finally:
                tracemalloc.stop()

        plan, ref = _rhs_builder(spec), reference_rhs_builder(spec)
        plan(1)   # built on first use, once per builder, not per step
        one = peak(lambda: _integrate([rho], plan, [3.0e-4], [1]))
        nine = peak(lambda: _integrate([rho], plan, [3.0e-4], [9]))
        # a broadcast product may take numpy's 8192-entry ufunc buffer: 0.125
        # of a 256 x 256 matrix
        assert 4.0 <= one < 4.25 and abs(nine - one) < 0.01, (one, nine)
        assert peak(lambda: reference_integrate(rho, ref, 3.0e-4, 9)) >= 6.0


class TestRowBlockKernelsOnOneWorker(RowBlockKernels):
    workers = 1


class TestRowBlockKernelsOnTwoWorkers(RowBlockKernels):
    workers = 2


SRC = Path(oracle.__file__).resolve().parent.parent


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHelperThread:
    """The thread that runs the second row range of a multi-block spec, one
    per integration, ended before the integration returns or raises."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(oracle, "_WORKERS", 2)

    @staticmethod
    def cross_16x16():
        dims = (16, 16)
        spec = LindbladSpec(np.zeros((256, 256), dtype=complex), np.array(CROSS), dims)
        return FockDensity(cat_density(dims), dims), spec

    def test_error_in_helper_reaches_caller_and_next_call_works(self):
        where = []

        def share(fail):
            yield
            where.append(threading.current_thread())
            if fail:
                raise KeyError("second phase")
            yield

        before = threading.active_count()
        with pytest.raises(KeyError, match="second phase"):
            oracle._lockstep([share(False), share(True)])
        assert threading.main_thread() in where and len(set(where)) == 2
        assert threading.active_count() == before
        rho, spec = self.cross_16x16()
        out = _integrate([rho.entries], _rhs_builder(spec), [3.0e-4], [3])
        ref = reference_integrate(rho.entries, reference_rhs_builder(spec), 3.0e-4, 3)
        assert same_bits(out, ref) and threading.active_count() == before

    def test_interrupt_in_callers_phase_waits_for_the_other_share(self):
        finished = []

        def share(interrupt):
            yield
            if interrupt:
                raise KeyboardInterrupt
            time.sleep(0.05)   # still running when the caller's phase ends
            finished.append(threading.current_thread())
            yield

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            oracle._lockstep([share(True), share(False)])
        assert len(finished) == 1 and finished[0] is not threading.main_thread()
        assert threading.active_count() == before

    def test_no_thread_outlives_an_integration(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        rho, spec = self.cross_16x16()
        before = threading.active_count()
        monkeypatch.setattr(threading, "Thread", Counted)
        evolve_lindblad(rho, spec, 3.0e-4, 1.0e-4)
        evolve_lindblad(rho, spec, 3.0e-5, 1.0e-5, verify_step=True)
        monkeypatch.undo()
        # one thread per integrated stack: one, then the verify pair's two
        assert len(started) == 3 and not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    def test_helper_drops_a_share_left_suspended_by_an_error(self):
        held = []

        def share(fail):
            buffer = np.empty(4)
            held.append(weakref.ref(buffer))
            yield
            if fail:
                raise KeyError("caller's phase")
            yield

        with pytest.raises(KeyError):
            oracle._lockstep([share(True), share(False)])
        gc.collect()
        assert len(held) == 2 and all(ref() is None for ref in held)

    def test_no_array_outlives_the_evolution(self, monkeypatch):
        made = []

        def track(make):
            def tracked(*args, **kwargs):
                a = make(*args, **kwargs)
                made.append(weakref.ref(a))
                return a
            return tracked

        for name in ("empty", "empty_like"):
            monkeypatch.setattr(np, name, track(getattr(np, name)))
        rho, spec = self.cross_16x16()
        out = evolve_lindblad(rho, spec, 3.0e-4, 1.0e-4)
        monkeypatch.undo()
        gc.collect()
        alive = [ref() for ref in made if ref() is not None and ref() is not out.entries]
        # the block buffers of both workers and the three RK4 buffers
        assert len(made) >= 11 and not alive, [a.shape for a in alive]

    def test_forked_child_integrates(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        out = run_python("""
            import os
            import signal
            import threading
            import numpy as np
            from catteleport import oracle
            oracle._WORKERS = 2
            dims = (16, 16)
            spec = oracle.LindbladSpec(np.zeros((256, 256), dtype=complex),
                                       np.array([[1.0e3, 6.0e2], [6.0e2, 1.1e3]]), dims)
            rho = oracle.FockDensity.from_vector(np.kron(oracle.coherent_to_fock(0.5, 15),
                                                         oracle.coherent_to_fock(0.7j, 15)), dims)
            first = oracle.evolve_lindblad(rho, spec, 3.0e-4, 1.0e-4).entries
            assert threading.active_count() == 1   # no thread is left to fork
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)   # a child stuck in a handoff dies instead of lingering
                again = oracle.evolve_lindblad(rho, spec, 3.0e-4, 1.0e-4).entries
                os._exit(0 if again.tobytes() == first.tobytes() else 1)
            print(os.waitpid(pid, 0)[1])
        """)
        assert out.split() == ["0"]

    def test_callers_at_once_get_the_reference_bits(self):
        # more callers than CPUs, switching threads often: each call runs
        # its second row range on a thread of its own
        rho, spec = self.cross_16x16()
        ref = reference_integrate(rho.entries, reference_rhs_builder(spec), 3.0e-4, 3)
        callers = 3
        start = threading.Barrier(callers)
        results = []

        def caller():
            start.wait()
            results.extend(evolve_lindblad(rho, spec, 3.0e-4, 1.0e-4).entries for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, daemon=True) for _ in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a caller is stuck"
        assert len(results) == 3 * callers and all(same_bits(r, ref) for r in results)

    def test_cli_import_and_one_mode_evolution_start_no_thread(self):
        out = run_python("""
            import threading
            import numpy as np
            import catteleport.cli
            from catteleport import oracle
            oracle._WORKERS = 2
            before = threading.active_count()
            dim = 49
            spec = oracle.LindbladSpec(np.zeros((dim, dim), dtype=complex), np.array([[1.0e3]]), (dim,))
            rho = oracle.FockDensity.from_vector(oracle.coherent_to_fock(2.0, dim - 1), (dim,))
            oracle.evolve_lindblad(rho, spec, 1.0e-4, 1.0e-5, verify_step=True)
            print(before, threading.active_count())
        """)
        assert out.split() == ["1", "1"]

    def test_one_cpu_runs_on_the_caller_with_the_same_bits(self, tmp_path):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        rho, spec = self.cross_16x16()
        np.save(tmp_path / "rho.npy", rho.entries)
        out = run_python(f"""
            import os, threading
            os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
            import numpy as np
            from catteleport import oracle
            spec = oracle.LindbladSpec(np.zeros((256, 256), dtype=complex),
                                       np.array({CROSS!r}), (16, 16))
            rho = np.load({str(tmp_path / "rho.npy")!r})
            np.save({str(tmp_path / "out.npy")!r},
                    oracle._integrate([rho], oracle._rhs_builder(spec), [3.0e-4], [3]))
            print(oracle._WORKERS, threading.active_count())
        """)
        ref = reference_integrate(rho.entries, reference_rhs_builder(spec), 3.0e-4, 3)
        assert out.split() == ["1", "1"] and same_bits(np.load(tmp_path / "out.npy"), ref)


class TestDispersivePulse:
    def test_pi_pulse_flips_amplitude(self):
        a = 0.9 + 0.2j
        dim = required_n_max(a) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a, dim - 1), (dim,))
        out = dispersive_pi_fock(rho)
        assert coherent_fidelity(out, -a) == pytest.approx(1.0, abs=1e-12)

    def test_two_pulses_are_identity(self):
        a = 1.1
        dim = required_n_max(a) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a, dim - 1), (dim,))
        out = dispersive_pi_fock(dispersive_pi_fock(rho))
        assert np.abs(out.entries - rho.entries).max() < 1e-14


class TestAnalyticCrossChecks:
    def test_vacuum_overlap_closed_form(self):
        spec = CatSpec(INV, INV, 1.0, 1)
        dim = required_n_max(1.0) + 1
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        rho = FockDensity.from_vector(vac, (dim,))
        assert oracle_fidelity(rho, spec) == pytest.approx(
            0.6480542736638853, abs=1e-12
        )

    def test_mixture_roundtrip_fidelity(self):
        # dual-path consistency: analytic fidelity vs Fock materialization
        spec = CatSpec(INV, INV, 1.0, 1)
        for u in (1.0, 0.83, 0.5, 0.1):
            mix = build_rho1(spec, u)
            rho = mixture_to_fock(mix)
            assert oracle_fidelity(rho, spec) == pytest.approx(
                fidelity_at(spec, u), abs=1e-10
            )

    def test_pair_weight_extraction_roundtrip(self):
        spec = CatSpec(0.8, 0.6, 1.2, -1)
        mix = build_rho1(spec, 0.7)
        rho = mixture_to_fock(mix)
        p = coherent_pair_weights(rho, mix.amp)
        expected = mix.norm_const * coefficient_matrix(mix)
        assert np.abs(p - expected).max() < 1e-9

    def test_mixture_fidelity_enlarges_basis_only_on_breach(self):
        # the decayed mixture fits in 18 levels; the alpha = 2.5 target cat does not
        spec, u = CatSpec(INV, INV, 2.5, 1), math.exp(-2.5)
        mix = build_rho1(spec, u)
        with pytest.raises(TruncationBreach):
            oracle_fidelity(mixture_to_fock(mix), spec)
        assert mixture_fidelity(mix, spec) == pytest.approx(fidelity_at(spec, u), abs=1e-9)
        fit = build_rho1(spec, 0.8)
        assert mixture_fidelity(fit, spec) == oracle_fidelity(mixture_to_fock(fit), spec)

    def test_mixture_fidelity_builds_each_kept_target_once(self, monkeypatch):
        # two mixtures on one basis, and two whose basis the alpha = 2.5 cat
        # breaches, scored on the same enlarged basis
        spec = CatSpec(INV, INV, 2.5, 1)
        mixes = [build_rho1(spec, u) for u in (0.9, 0.9, 0.8, math.exp(-2.5), math.exp(-2.6))]
        plain = [mixture_fidelity(m, spec) for m in mixes]
        built = []
        real = oracle.cat_state_vector
        monkeypatch.setattr(oracle, "cat_state_vector", lambda s, n: built.append(n) or real(s, n))
        targets = {}
        assert [mixture_fidelity(m, spec, targets) for m in mixes] == plain
        assert len(targets) == 3 and all(built.count(n) == 1 for n in targets), (built, list(targets))

    def test_null_cat_vector_is_null_state(self):
        with pytest.raises(NullState):
            cat_state_vector(CatSpec(INV, INV, 0.0, -1), 20)

    def test_mixture_bits_equal_reference(self):
        # amplitudes and coherences of every phase, on the axes, zero and -0.0
        rng = np.random.default_rng(7)
        specials = [0j, 1.5, -1.5, 1.5j, -1.5j, complex(-0.0, -0.0)]
        for i in range(400):
            amp = (specials[i % 6] if i < 60
                   else complex(*rng.uniform(-2.5, 2.5, 2)) * (1.0 if i % 3 else 1j))
            coh = specials[i // 6 % 6] * 0.2 if i < 60 else complex(*rng.uniform(-0.5, 0.5, 2))
            w = float(rng.uniform())
            mix = CatMixture(amp, w, 1.0 - w, coh, float(rng.uniform(0.5, 2.0)))
            n_max = required_n_max(amp)
            assert same_bits(mixture_to_fock(mix).entries, reference_mixture_to_fock(mix, n_max))

    def test_mixture_density_is_valid(self):
        mix = build_rho1(CatSpec(INV, INV, 1.5, 1), 0.6)
        validate_density(mixture_to_fock(mix))
