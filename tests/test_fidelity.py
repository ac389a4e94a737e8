import cmath
import math

import numpy as np
import pytest

from catteleport.dynamics import ModeSystem, u_simplified
from catteleport.errors import NullState
from catteleport.fidelity import (
    CatMixture,
    build_rho1,
    fidelity,
    fidelity_at,
    fidelity_curve,
)
from catteleport.states import CatSpec

INV = 1.0 / math.sqrt(2.0)
GAMMA11 = 1.0e3
GAMMA22 = 1.0 / 0.9e-3
GBAR = 0.5 * (GAMMA11 + GAMMA22)
T_TEL = 3.5e-4


def balanced_spec(alpha, parity=1):
    return CatSpec(INV, INV, alpha, parity)


def reference_system():
    return ModeSystem(
        omega1=2 * math.pi * 51.1e9,
        omega2=2 * math.pi * (51.1e9 + 1e7),
        gamma11=GAMMA11,
        gamma22=GAMMA22,
    )


def u11_at(t):
    return math.exp(-GBAR * t / 2.0)


class TestBuildRho1:
    def test_no_decay_is_pure_cat(self):
        mix = build_rho1(balanced_spec(1.0), 1.0)
        assert mix.amp == 1.0
        assert mix.coh == pytest.approx(0.5)
        assert mix.is_physical()

    def test_trace_is_one(self):
        for u in (1.0, 0.83, 0.3, 0.0):
            mix = build_rho1(balanced_spec(1.3), u)
            assert mix.trace() == pytest.approx(1.0, abs=1e-13)

    def test_positivity_under_decay(self):
        for u in np.linspace(0.0, 1.0, 21):
            assert build_rho1(balanced_spec(1.5, parity=-1), float(u)).is_physical()

    def test_coherence_carries_decoherence_factor(self):
        alpha = 1.0
        u = u11_at(T_TEL)
        mix = build_rho1(balanced_spec(alpha), u)
        z = math.exp(-2.0 * alpha ** 2 * (1.0 - u ** 2))
        assert mix.coh == pytest.approx(0.5 * z, abs=1e-14)
        assert z == pytest.approx(0.539149, abs=1e-6)

    def test_artificial_full_coherence_is_unphysical_bound(self):
        # keeping Z = 1 while the amplitude decays beats the true mixture
        spec = balanced_spec(1.0)
        u = u11_at(T_TEL)
        true = build_rho1(spec, u)
        fake_coh = 0.5  # pretend no decoherence
        from catteleport.states import overlap

        trace_raw = 1.0 + 2.0 * (fake_coh * overlap(-u, u)).real
        fake = CatMixture(amp=u, w_pp=0.5, w_mm=0.5, coh=fake_coh,
                          norm_const=1.0 / trace_raw)
        assert fidelity(spec, fake) > fidelity(spec, true)

    def test_rejects_growing_amplitude(self):
        with pytest.raises(ValueError):
            build_rho1(balanced_spec(1.0), 1.2)

    def test_null_cat_raises_null_state(self):
        with pytest.raises(NullState):
            fidelity_at(balanced_spec(0.0, parity=-1), 0.9)


class TestFidelity:
    def test_initial_fidelity_is_one(self):
        for alpha in (0.5, 1.0, 2.0):
            assert fidelity_at(balanced_spec(alpha), 1.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_long_time_plateau_closed_form(self):
        # full decay leaves the vacuum; overlap with the even cat gives
        # 2 e^{-|a|^2} / (1 + e^{-2|a|^2})
        alpha = 1.0
        expected = 2.0 * math.exp(-1.0) / (1.0 + math.exp(-2.0))
        assert expected == pytest.approx(0.6480542736638853, abs=1e-15)
        assert fidelity_at(balanced_spec(alpha), 0.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_frozen_values_at_completion_time(self):
        u = u11_at(T_TEL)
        frozen = {0.5: 0.98413, 1.0: 0.82125, 1.5: 0.60053, 2.0: 0.48485}
        for alpha, val in frozen.items():
            assert fidelity_at(balanced_spec(alpha), u) == pytest.approx(
                val, abs=5e-5
            )

    def test_larger_cats_decohere_faster(self):
        u = u11_at(T_TEL)
        vals = [fidelity_at(balanced_spec(a), u) for a in (0.5, 1.0, 1.5, 2.0)]
        assert vals == sorted(vals, reverse=True)

    def test_odd_cat_long_time_limit_vanishes(self):
        # the odd cat has no vacuum component
        f = fidelity_at(balanced_spec(1.0, parity=-1), 0.0)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_spectator_rotation_lowers_fidelity(self):
        spec = balanced_spec(1.0)
        u = u11_at(T_TEL)
        assert fidelity_at(spec, u * cmath.exp(0.2j)) < fidelity_at(spec, u)

    def test_unbalanced_cat_supported(self):
        spec = CatSpec(0.8, 0.6, 1.2, -1)
        assert fidelity_at(spec, 1.0) == pytest.approx(1.0, abs=1e-12)
        mix = build_rho1(spec, 0.7)
        assert mix.is_physical()
        assert 0.0 < fidelity(spec, mix) < 1.0


class TestFidelityCurve:
    def test_monotone_decrease_balanced_even(self):
        curve = fidelity_curve(balanced_spec(1.0), reference_system(), 1e-3, 200)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(curve.values) <= 1e-9).all()

    @pytest.mark.parametrize("rotating_frame", [True, False], ids=["rotating", "lab"])
    @pytest.mark.parametrize("spectator_phase", [0.0, 0.0311], ids=["no_phase", "phase"])
    def test_matches_pointwise_evaluation(self, rotating_frame, spectator_phase):
        # every point is scored at the u11 the curve reports, which is the
        # simplified dynamics in the chosen frame turned by the spectator phase
        spec = balanced_spec(1.5)
        sys = reference_system()
        curve = fidelity_curve(spec, sys, 1e-3, 50, spectator_phase=spectator_phase,
                               rotating_frame=rotating_frame)
        rot = cmath.exp(1j * spectator_phase)
        for t, f, u11 in zip(curve.times, curve.values, curve.u11):
            u = u_simplified(sys, float(t), rotating_frame=rotating_frame)
            assert u11 == u.u11 * rot
            assert fidelity_at(spec, u11) == f

    def test_small_cat_stays_high_over_window(self):
        curve = fidelity_curve(balanced_spec(0.5), reference_system(), 1e-3, 200)
        assert curve.values.min() >= 0.95

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            fidelity_curve(balanced_spec(1.0), reference_system(), 1e-3, 1)
        with pytest.raises(ValueError):
            fidelity_curve(balanced_spec(1.0), reference_system(), 0.0, 10)
