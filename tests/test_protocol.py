import cmath
import math

import numpy as np
import pytest

from catteleport.errors import AmbiguousCluster
from catteleport.protocol import (
    ChiMode,
    Classification,
    ProtocolConfig,
    apply_correction,
    default_spectator_phase,
    dispersive_pi,
    displace_mode2,
    phase_branches,
    ramsey_half_pulse,
    residual_fidelity,
    run_protocol,
    sample_outcomes,
    target_state,
)
from catteleport.states import (
    AtomLevel,
    TermState,
    cat_norm,
    state_overlap,
    term_norm,
)

from conftest import assert_terms_match

INV = 1.0 / math.sqrt(2.0)


def balanced_config(alpha, beta=None, spectator_phase=0.0, **kw):
    return ProtocolConfig(
        alpha=alpha,
        beta=alpha if beta is None else beta,
        c_plus=INV,
        c_minus=INV,
        spectator_phase=spectator_phase,
        **kw,
    )


def generic_config(spectator_phase=0.0):
    c_plus = 0.6 + 0.3j
    c_minus = cmath.sqrt(1.0 - abs(c_plus) ** 2)
    return ProtocolConfig(
        alpha=0.7 + 0.2j,
        beta=1.1 - 0.4j,
        c_plus=c_plus,
        c_minus=c_minus,
        spectator_phase=spectator_phase,
    )


def initial_state(cfg):
    n = cat_norm(cfg.target_mode2)
    return TermState.from_tuples([
        (cfg.c_plus / n, "g", cfg.alpha, cfg.beta),
        (cfg.parity_sign * cfg.c_minus / n, "g", cfg.alpha, -cfg.beta),
    ])


class TestPrepareCat:
    def test_plain_coherent_state(self):
        spec = ProtocolConfig(alpha=0.5, beta=0.9, c_plus=1.0, c_minus=0.0,
                              parity_sign=-1).target_mode2
        assert cat_norm(spec) == pytest.approx(1.0)


class TestRamseyPulse:
    def test_ground_rotation(self):
        state = TermState.from_tuples([(1.0, "g", 0.4, -0.1)])
        out = ramsey_half_pulse(state)
        assert_terms_match(out, [(INV, "g", 0.4, -0.1), (INV, "e", 0.4, -0.1)])

    def test_unitarity(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 0.0)])
        twice = ramsey_half_pulse(ramsey_half_pulse(state))
        assert term_norm(twice) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_on_entangled_state(self):
        cfg = generic_config()
        state = ramsey_half_pulse(initial_state(cfg))
        assert term_norm(state) == pytest.approx(1.0, abs=1e-12)


class TestDispersivePi:
    def test_excited_terms_flip_selected_mode(self):
        state = TermState.from_tuples(
            [(INV, "e", 0.8, 0.0), (INV, "g", 0.8, 0.0)]
        )
        out = dispersive_pi(state, ChiMode.MODE1)
        assert_terms_match(out, [(INV, "e", -0.8, 0.0), (INV, "g", 0.8, 0.0)])

    def test_ground_only_is_identity(self):
        state = TermState.from_tuples([(1.0, "g", 1.0, 2.0)])
        assert dispersive_pi(state, ChiMode.MODE2) == state

    def test_spectator_phase_on_other_mode(self):
        state = TermState.from_tuples([(1.0, "e", 0.0, 1.0)])
        out = dispersive_pi(state, ChiMode.MODE1, spectator_phase=0.03)
        assert out.terms[0].amp2 == pytest.approx(cmath.exp(0.03j))

    def test_norm_preserved(self):
        cfg = generic_config(spectator_phase=0.02)
        state = ramsey_half_pulse(initial_state(cfg))
        out = dispersive_pi(state, ChiMode.MODE1, 0.02)
        assert term_norm(out) == pytest.approx(1.0, abs=1e-12)


class TestDisplacement:
    def test_cancels_opposite_amplitude(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, -1.3)])
        out = displace_mode2(state, 1.3)
        assert out.terms[0].amp2 == pytest.approx(0.0)

    def test_doubles_matching_amplitude(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 1.3)])
        out = displace_mode2(state, 1.3)
        assert out.terms[0].amp2 == pytest.approx(2.6)

    def test_zero_reference_is_identity(self):
        state = TermState.from_tuples([(0.7, "e", 0.2, 0.4j)])
        assert displace_mode2(state, 0.0) == state

    def test_norm_preserved_with_phase_weight(self):
        state = TermState.from_tuples(
            [(INV, "g", 0.0, 0.9 + 0.5j), (INV, "g", 0.0, -0.9)]
        )
        out = displace_mode2(state, 0.7 - 0.2j)
        assert term_norm(out) == pytest.approx(term_norm(state), abs=1e-12)


class TestIntermediateStates:
    """The pipeline produces the expected intermediate states at each stage."""

    def test_first_dispersive_interaction(self):
        cfg = generic_config()
        n = 2.0 * cat_norm(cfg.target_mode2)
        state = ramsey_half_pulse(initial_state(cfg))
        state = dispersive_pi(state, ChiMode.MODE1)
        a, b = cfg.alpha, cfg.beta
        cp, cm = cfg.c_plus / n, cfg.c_minus / n
        assert_terms_match(state, [
            (cp * math.sqrt(2), "e", -a, b),
            (cp * math.sqrt(2), "g", a, b),
            (cm * math.sqrt(2), "e", -a, -b),
            (cm * math.sqrt(2), "g", a, -b),
        ])

    def test_second_dispersive_interaction(self):
        cfg = generic_config()
        n = 2.0 * cat_norm(cfg.target_mode2)
        state = ramsey_half_pulse(initial_state(cfg))
        state = dispersive_pi(state, ChiMode.MODE1)
        state = dispersive_pi(state, ChiMode.MODE2)
        a, b = cfg.alpha, cfg.beta
        cp, cm = cfg.c_plus / n, cfg.c_minus / n
        assert_terms_match(state, [
            (cp * math.sqrt(2), "e", -a, -b),
            (cp * math.sqrt(2), "g", a, b),
            (cm * math.sqrt(2), "e", -a, b),
            (cm * math.sqrt(2), "g", a, -b),
        ])

    def test_four_measurement_branches(self):
        cfg = generic_config()
        n = 2.0 * cat_norm(cfg.target_mode2)
        state = ramsey_half_pulse(initial_state(cfg))
        state = dispersive_pi(state, ChiMode.MODE1)
        state = dispersive_pi(state, ChiMode.MODE2)
        state = ramsey_half_pulse(state, drive_phase=math.pi)
        a, b = cfg.alpha, cfg.beta
        cp, cm = cfg.c_plus / n, cfg.c_minus / n
        assert_terms_match(state, [
            (cp, "e", -a, -b), (-cm, "e", a, -b),     # |e>|-b>(C+|-a> - C-|a>)
            (-cp, "e", a, b), (cm, "e", -a, b),       # |e>|b>(-C+|a> + C-|-a>)
            (cp, "g", a, b), (cm, "g", -a, b),        # |g>|b>(C+|a> + C-|-a>)
            (cp, "g", -a, -b), (cm, "g", a, -b),      # |g>|-b>(C+|-a> + C-|a>)
        ])


class TestPhaseMeasurement:
    def test_deterministic_doubled_amplitude(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 2.6)])
        (sign, _post, prob), (_, _, prob_zero) = phase_branches(state, 1.3)
        assert sign == 1
        assert prob == pytest.approx(1.0)
        assert prob_zero == 0.0

    def test_balanced_branches_near_half(self):
        cfg = balanced_config(2.0)
        state = ramsey_half_pulse(initial_state(cfg))
        state = dispersive_pi(state, ChiMode.MODE1)
        state = dispersive_pi(state, ChiMode.MODE2)
        state = ramsey_half_pulse(state, drive_phase=math.pi)
        from catteleport.states import project_atom

        branch, _ = project_atom(state, AtomLevel.G)
        displaced = displace_mode2(branch, cfg.beta)
        branches = phase_branches(displaced, cfg.beta)
        for _sign, _post, prob in branches:
            assert prob == pytest.approx(0.5, abs=5e-4)

    def test_default_misidentification_probability(self):
        cfg = balanced_config(1.0)
        assert cfg.effective_phase_error == pytest.approx(math.exp(-4.0), abs=1e-12)

    def test_ambiguous_amplitude_raises(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 1.3)])  # halfway point
        with pytest.raises(AmbiguousCluster):
            phase_branches(state, 1.3)


class TestCorrection:
    def test_flips_cat_components(self):
        state = TermState.from_tuples([(0.8, "g", -1.2, 0.0), (0.6, "g", 1.2, 0.0)])
        out = apply_correction(state)
        assert_terms_match(out, [(0.8, "g", 1.2, 0.0), (0.6, "g", -1.2, 0.0)])

    def test_vacuum_identity(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 0.0)])
        assert apply_correction(state) == state

    def test_involution(self):
        state = TermState.from_tuples([(0.5, "e", 0.3 + 1j, 0.2)])
        assert apply_correction(apply_correction(state)) == state


class TestRunProtocol:
    def test_probabilities_sum_to_one(self):
        for alpha in (0.5, 1.0, 2.0):
            outcomes = run_protocol(balanced_config(alpha))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_classification_table(self):
        outcomes = run_protocol(balanced_config(1.0))
        table = {(o.atom, o.field_sign): o.classification for o in outcomes}
        assert table[(AtomLevel.G, 1)] is Classification.SUCCESS_DIRECT
        assert table[(AtomLevel.G, -1)] is Classification.SUCCESS_AFTER_CORRECTION
        assert table[(AtomLevel.E, 1)] is Classification.FAILURE
        assert table[(AtomLevel.E, -1)] is Classification.FAILURE

    def test_large_alpha_branch_probabilities(self):
        outcomes = run_protocol(balanced_config(2.0))
        direct = next(o for o in outcomes
                      if o.classification is Classification.SUCCESS_DIRECT)
        assert direct.probability == pytest.approx(0.25, abs=5e-4)
        success = sum(o.probability for o in outcomes
                      if o.classification is not Classification.FAILURE)
        assert success == pytest.approx(0.5, abs=1e-3)

    def test_success_direct_residual_is_exact_target(self):
        cfg = generic_config()
        outcomes = run_protocol(cfg)
        direct = next(o for o in outcomes
                      if o.classification is Classification.SUCCESS_DIRECT)
        ov = state_overlap(target_state(cfg), direct.residual_mode1)
        assert abs(ov) == pytest.approx(1.0, abs=1e-12)

    def test_correction_branch_recovers_target(self):
        cfg = generic_config()
        outcomes = run_protocol(cfg)
        flipped = next(o for o in outcomes
                       if o.classification is Classification.SUCCESS_AFTER_CORRECTION)
        corrected = apply_correction(flipped.residual_mode1)
        assert residual_fidelity(corrected, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_small_alpha_deviation_scale(self):
        # overlap corrections are O(e^{-2|alpha|^2})
        outcomes = run_protocol(balanced_config(0.5))
        direct = next(o for o in outcomes
                      if o.classification is Classification.SUCCESS_DIRECT)
        assert abs(direct.probability - 0.25) < math.exp(-0.5)
        assert abs(direct.probability - 0.25) > 1e-4

    def test_success_total_approaches_half_monotonically(self):
        deviations = []
        for alpha in (0.5, 1.0, 1.5, 2.0, 2.5):
            outcomes = run_protocol(balanced_config(alpha))
            success = sum(o.probability for o in outcomes
                          if o.classification is not Classification.FAILURE)
            deviations.append(abs(success - 0.5))
        assert deviations == sorted(deviations, reverse=True)

    def test_spectator_phase_residual_fidelity(self):
        cfg = balanced_config(1.0, spectator_phase=0.03)
        outcomes = run_protocol(cfg)
        direct = next(o for o in outcomes
                      if o.classification is Classification.SUCCESS_DIRECT)
        assert residual_fidelity(direct.residual_mode1, cfg) >= 0.999

    def test_default_spectator_phase_value(self):
        assert default_spectator_phase() == pytest.approx(0.0311, abs=1e-3)

    def test_sampled_frequencies_converge(self):
        outcomes = run_protocol(balanced_config(2.0))
        n = 100_000
        gen = np.random.default_rng(7)
        counts = sample_outcomes(outcomes, n, 0.0, gen)
        for o in outcomes:
            freq = counts[(o.atom, o.field_sign)] / n
            sigma = math.sqrt(o.probability * (1.0 - o.probability) / n)
            assert abs(freq - o.probability) < 3.0 * sigma + 1e-9
