import math

import numpy as np
import pytest

from catteleport.errors import StepSizeRejected, TruncationBreach
from catteleport.fidelity import build_rho1, fidelity_at
from catteleport.oracle import (
    FockDensity,
    LindbladSpec,
    _rhs_builder,
    annihilation,
    cat_state_vector,
    coherent_fidelity,
    coherent_to_fock,
    coherent_pair_weights,
    dispersive_pi_fock,
    evolve_lindblad,
    extract_cat_coherence,
    mixture_to_fock,
    oracle_fidelity,
    required_n_max,
)
from catteleport.states import CatSpec

from conftest import fock_overlap

INV = 1.0 / math.sqrt(2.0)
GAMMA = 1.0e3


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
        rho.validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_counts_non_finite_entries(self, bad):
        dim = required_n_max(0.8) + 1
        rho = FockDensity.from_vector(coherent_to_fock(0.8, dim - 1), (dim,))
        rho.entries[0, 1] = rho.entries[1, 0] = rho.entries[2, 2] = bad
        with pytest.raises(ValueError, match="3 non-finite entries"):
            rho.validate()

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

    @pytest.mark.parametrize("dims, gamma, diagonal_h", [
        ((25,), [[GAMMA]], False),
        ((16, 25), [[1.0e3, 0.0], [0.0, 1.1e3]], False),
        ((5, 6), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], False),
        ((16, 16), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], False),
        ((5, 6), [[1.0e3, 6.0e2], [6.0e2, 1.1e3]], True),
    ], ids=["one_mode_d25", "two_mode_16x25", "cross_5x6", "cross_16x16",
            "cross_5x6_hamiltonian"])
    def test_rhs_matches_dense_operators(self, dims, gamma, diagonal_h):
        rng = np.random.default_rng(4)
        dim = int(np.prod(dims))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x + x.conj().T
        h = np.diag(rng.normal(scale=1.0e4, size=dim)) if diagonal_h else np.zeros((dim, dim))
        spec = LindbladSpec(h.astype(complex), np.array(gamma), dims)
        ref = dense_rhs(spec, rho)
        assert np.abs(_rhs_builder(spec)(rho) - ref).max() <= 1e-13 * np.abs(ref).max()

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
        expected = mix.norm_const * mix.coefficient_matrix()
        assert np.abs(p - expected).max() < 1e-9

    def test_mixture_density_is_valid(self):
        mix = build_rho1(CatSpec(INV, INV, 1.5, 1), 0.6)
        mixture_to_fock(mix).validate()
