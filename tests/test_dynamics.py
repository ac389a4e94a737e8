import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from catteleport.dynamics import (
    DrainParams,
    _cdiv,
    ModeSystem,
    decoherence_Z,
    drain_params,
    to_rotating_frame,
    u_full,
    u_simplified,
)

from conftest import drain_matrix

GAMMA11 = 1.0e3
GAMMA22 = 1.0 / 0.9e-3
GBAR = 0.5 * (GAMMA11 + GAMMA22)
T_TEL = 3.5e-4


def reference_system(**kw):
    defaults = dict(
        omega1=2 * math.pi * 51.1e9,
        omega2=2 * math.pi * (51.1e9 + 1e7),
        gamma11=GAMMA11,
        gamma22=GAMMA22,
    )
    defaults.update(kw)
    return ModeSystem(**defaults)


def random_params(rng, im_max=1e8):
    return DrainParams(
        A=rng.uniform(0, 2e3) + 1j * rng.uniform(-im_max, im_max),
        B=rng.uniform(0, 2e3) + 1j * rng.uniform(-im_max, im_max),
        C=rng.uniform(-1e3, 1e3) + 1j * rng.uniform(-1e3, 1e3),
        D=rng.uniform(-1e3, 1e3) + 1j * rng.uniform(-1e3, 1e3),
    )


class TestDrainParams:
    def test_lossless_limit(self):
        sys = ModeSystem(omega1=1e6, omega2=2e6, gamma11=1e-9, gamma22=1e-9)
        p = drain_params(sys)
        assert p.A == pytest.approx(1j * 1e6 + 0.5e-9)
        assert p.B == pytest.approx(1j * 2e6 + 0.5e-9)
        assert p.C == 0 and p.D == 0

    def test_reference_damping_rate(self):
        p = drain_params(reference_system())
        assert p.A.real == pytest.approx(500.0)


class TestUFull:
    def test_identity_at_t0(self):
        p = drain_params(reference_system(gamma12=300.0, gamma21=300.0))
        u = u_full(p, 0.0)
        assert (u.u11, u.u12, u.u21, u.u22) == (1.0, 0.0, 0.0, 1.0)

    def test_decoupled_limit(self):
        p = DrainParams(A=1j * 1e5 + 200.0, B=1j * 2e5 + 400.0, C=0.0, D=0.0)
        t = 7e-4
        u = u_full(p, t)
        assert u.u11 == pytest.approx(cmath.exp(-p.A * t), abs=1e-12)
        assert u.u22 == pytest.approx(cmath.exp(-p.B * t), abs=1e-12)
        assert u.u12 == 0.0 and u.u21 == 0.0

    def test_matches_matrix_exponential(self, rng):
        for _ in range(300):
            p = random_params(rng, im_max=1e7)
            t = rng.uniform(0.0, 1e-3)
            ref = expm(-drain_matrix(p) * t)
            assert np.abs(u_full(p, t).as_array() - ref).max() < 1e-10

    def test_degenerate_s_limit(self):
        # B = A and CD = 0 makes s vanish identically
        p = DrainParams(A=1j * 1e6 + 100.0, B=1j * 1e6 + 100.0, C=50.0, D=0.0)
        t = 5e-4
        u = u_full(p, t)
        ref = expm(-drain_matrix(p) * t)
        assert np.abs(u.as_array() - ref).max() < 1e-12

    def test_semigroup_property(self, rng):
        for _ in range(50):
            p = random_params(rng, im_max=1e6)
            t1, t2 = rng.uniform(0.0, 5e-4, size=2)
            left = u_full(p, t1 + t2).as_array()
            right = u_full(p, t2).as_array() @ u_full(p, t1).as_array()
            assert np.abs(left - right).max() < 1e-9

    def test_contractivity_for_physical_damping(self, rng):
        for _ in range(100):
            g11, g22 = rng.uniform(1e2, 2e3, size=2)
            g12 = rng.uniform(0.0, math.sqrt(g11 * g22))
            p = DrainParams(
                A=1j * rng.uniform(-1e7, 1e7) + 0.5 * g11,
                B=1j * rng.uniform(-1e7, 1e7) + 0.5 * g22,
                C=0.5 * g12,
                D=0.5 * g12,
            )
            t = rng.uniform(0.0, 1e-3)
            smax = np.linalg.svd(u_full(p, t).as_array(), compute_uv=False).max()
            assert smax <= 1.0 + 1e-12

    def test_swap_symmetry(self, rng):
        p = random_params(rng)
        q = DrainParams(A=p.B, B=p.A, C=p.D, D=p.C)
        t = 4e-4
        u = u_full(p, t)
        v = u_full(q, t)
        assert v.u11 == pytest.approx(u.u22, abs=1e-12)
        assert v.u22 == pytest.approx(u.u11, abs=1e-12)
        assert v.u12 == pytest.approx(u.u21, abs=1e-12)
        assert v.u21 == pytest.approx(u.u12, abs=1e-12)


class TestUSimplified:
    def test_identity_at_t0(self):
        u = u_simplified(reference_system(), 0.0)
        assert (u.u11, u.u12, u.u21, u.u22) == (1.0, 0.0, 0.0, 1.0)

    def test_mean_damping_magnitude(self):
        # |u11| at the teleportation-completion time, frozen from the closed
        # form e^{-gbar t / 2}; the Lindblad oracle re-derives this value in
        # the acceptance suite
        u = u_simplified(reference_system(), T_TEL)
        assert GBAR == pytest.approx(1055.5555555, abs=1e-3)
        assert abs(u.u11) == pytest.approx(math.exp(-GBAR * T_TEL / 2.0), abs=1e-15)
        assert abs(u.u11) == pytest.approx(0.8313351782, abs=1e-9)

    def test_rotating_frame_is_real_without_chi(self):
        u = u_simplified(reference_system(), 6e-4, rotating_frame=True)
        assert u.u11.imag == 0.0 and u.u22.imag == 0.0
        assert u.u11 == pytest.approx(math.exp(-GBAR * 3e-4))

    def test_agrees_with_full_at_equal_damping(self, rng):
        # the mean-rate form coincides with the exact dynamics when the two
        # damping rates are equal; cross terms contribute only O(CD/Delta^2)
        for _ in range(50):
            g = rng.uniform(5e2, 2e3)
            delta = rng.uniform(2 * math.pi * 1e5, 2 * math.pi * 2e6)
            g12 = rng.uniform(0.0, min(1e3, g))
            sys = ModeSystem(
                omega1=0.0, omega2=delta, gamma11=g, gamma22=g,
                gamma12=g12, gamma21=g12,
            )
            t = rng.uniform(0.0, 1e-3)
            uf = u_full(drain_params(sys), t).as_array()
            us = u_simplified(sys, t, rotating_frame=False).as_array()
            assert np.abs(uf - us).max() < 2e-3

    def test_mean_rate_discrepancy_at_reference_damping(self):
        # With gamma11 != gamma22 the exact coupled-mode solution decays at
        # gamma11/2 (the cross terms only dephase at large Delta), so the
        # mean-rate form deviates by |e^{-g11 t/2} - e^{-gbar t/2}|.  This
        # quantifies the approximation instead of asserting the (unattainable)
        # 2e-3 bound for unequal damping rates.
        sys = reference_system(gamma12=1e3, gamma21=1e3)
        t = 1e-3
        uf = u_full(drain_params(sys), t)
        us = u_simplified(sys, t, rotating_frame=False)
        dev = abs(uf.u11 - us.u11)
        bound = abs(math.exp(-GAMMA11 * t / 2) - math.exp(-GBAR * t / 2))
        assert dev == pytest.approx(bound, rel=0.2)
        assert dev < 2.5e-2


class TestRotatingFrame:
    def test_strips_free_phases_from_matrix_exponential(self, rng):
        sys = reference_system(omega1=2 * math.pi * 1e5, omega2=2 * math.pi * 1.1e6,
                               gamma12=6e2, gamma21=6e2, lamb11=3e2, lamb12=5e1, lamb21=5e1)
        p = drain_params(sys)
        for t in rng.uniform(0.0, 1e-3, 50):
            ref = np.diag([cmath.exp(1j * sys.omega1 * t), cmath.exp(1j * sys.omega2 * t)])
            ref = ref @ expm(-drain_matrix(p) * t)
            got = to_rotating_frame(u_full(p, t), sys, t).as_array()
            assert np.abs(got - ref).max() < 1e-10

    def test_maps_simplified_lab_frame_onto_rotating_frame(self):
        sys = reference_system()
        for t in (0.0, 1e-7, T_TEL, 1e-3):
            lab = to_rotating_frame(u_simplified(sys, t, rotating_frame=False), sys, t)
            rot = u_simplified(sys, t, rotating_frame=True)
            assert np.abs(lab.as_array() - rot.as_array()).max() < 1e-6


class TestDecoherenceZ:
    def test_no_decay_no_decoherence(self):
        assert decoherence_Z(1.7, 1.0) == 1.0

    def test_frozen_reference_point(self):
        u11_sq = math.exp(-GBAR * T_TEL)
        z = decoherence_Z(1.0, math.sqrt(u11_sq))
        assert z == pytest.approx(math.exp(-2.0 * (1.0 - u11_sq)), abs=1e-15)
        assert z == pytest.approx(0.539149, abs=1e-6)

    def test_vacuum_never_decoheres(self):
        for mag in (0.0, 0.3, 0.99):
            assert decoherence_Z(0.0, mag) == 1.0

    def test_rejects_unphysical_magnitude(self):
        with pytest.raises(ValueError):
            decoherence_Z(1.0, 1.5)


class TestModeSystemValidation:
    def test_rejects_nonpositive_damping(self):
        with pytest.raises(ValueError):
            ModeSystem(omega1=1.0, omega2=2.0, gamma11=0.0, gamma22=1.0)

    def test_rejects_excess_cross_damping(self):
        with pytest.raises(ValueError):
            ModeSystem(omega1=1.0, omega2=2.0, gamma11=1e3, gamma22=1e3,
                       gamma12=2e3, gamma21=2e3)

    def test_rejects_inverted_frequencies(self):
        with pytest.raises(ValueError):
            ModeSystem(omega1=2.0, omega2=1.0, gamma11=1e3, gamma22=1e3)

    @pytest.mark.parametrize("field", ["omega2", "gamma11", "gamma12", "lamb21"])
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_field(self, field, value):
        fields = dict(omega1=1.0, omega2=2.0, gamma11=1e3, gamma22=1e3)
        fields[field] = value
        with pytest.raises(ValueError, match=rf"{field} = {value!r} not finite"):
            ModeSystem(**fields)


def test_complex_quotient_rounds_as_python(rng):
    # signed zeros, units and values over many decades, as real and imaginary parts
    pool = np.concatenate([[0.0, -0.0, 1.0, -1.0],
                           rng.normal(size=400) * 10.0 ** rng.integers(-150, 151, 400)])
    ar, ai, br, bi = (rng.choice(pool, 20_000).tolist() for _ in range(4))
    pairs = [(complex(x, y), complex(u, v)) for x, y, u, v in zip(ar, ai, br, bi)
             if (u, v) != (0.0, 0.0)]
    a, b = (np.array(side) for side in zip(*pairs))
    expected = [x / y for x, y in pairs]
    assert (_cdiv(a, b).view(np.int64) == np.array(expected).view(np.int64)).all()
    # a float divisor counts as complex(x, 0.0), as CPython 3.11 promotes it
    for x in (6.0, 120.0, -0.0 or -1.5, br[0] or 1.0):
        expected = [z / x for z in a.tolist()]
        assert (_cdiv(a, x).view(np.int64) == np.array(expected).view(np.int64)).all()
