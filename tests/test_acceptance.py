"""Acceptance suite: end-to-end checks with explicit tolerances and budgets.

Each test prints a single ``ACCEPTANCE n ... PASS/FAIL`` line and asserts both
the physics condition and its runtime budget.  Slow oracle runs use
``verify_step=True`` so a step-halving failure rejects the result outright.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from catteleport.dynamics import (
    DrainParams,
    ModeSystem,
    u_full,
    u_simplified,
)
from catteleport.fidelity import build_rho1, fidelity_at, fidelity_curve
from catteleport.oracle import (
    FockDensity,
    LindbladSpec,
    cat_state_vector,
    coherent_fidelity,
    coherent_to_fock,
    evolve_lindblad,
    extract_cat_coherence,
    mixture_to_fock,
    oracle_fidelity,
    required_n_max,
)
from catteleport.protocol import (
    ChiMode,
    Classification,
    ProtocolConfig,
    apply_correction,
    residual_fidelity,
    run_protocol,
    target_state,
)
from catteleport.states import AtomLevel, CatSpec, state_overlap

from conftest import dispersive_pi_fock, drain_matrix

INV = 1.0 / math.sqrt(2.0)
GAMMA11 = 1.0e3
GAMMA22 = 1.0 / 0.9e-3
GBAR = 0.5 * (GAMMA11 + GAMMA22)
T_TEL = 3.5e-4
DT_MAX = 1.0 / (200.0 * GBAR)  # fine enough that halving dt moves nothing > 1e-8


def reference_system():
    return ModeSystem(
        omega1=2 * math.pi * 51.1e9,
        omega2=2 * math.pi * (51.1e9 + 1e7),
        gamma11=GAMMA11,
        gamma22=GAMMA22,
    )


def report(n, label, ok):
    print(f"\nACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def damping_spec(dim, rate=GBAR):
    return LindbladSpec(
        hamiltonian=np.zeros((dim, dim), dtype=complex),
        gamma_matrix=np.array([[rate]]),
        mode_dims=(dim,),
    )


def test_acceptance_1_matrix_exponential_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        p = DrainParams(
            A=rng.uniform(0.0, 2e3) + 1j * rng.uniform(-1e8, 1e8),
            B=rng.uniform(0.0, 2e3) + 1j * rng.uniform(-1e8, 1e8),
            C=rng.uniform(-1e3, 1e3) + 1j * rng.uniform(-1e3, 1e3),
            D=rng.uniform(-1e3, 1e3) + 1j * rng.uniform(-1e3, 1e3),
        )
        t = rng.uniform(0.0, 1e-3)
        dev = np.abs(u_full(p, t).as_array() - expm(-drain_matrix(p) * t)).max()
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(1, "matrix-exponential equivalence", worst < 1e-10 and elapsed < 5.0)


def test_acceptance_2_coherent_transport():
    start = time.perf_counter()
    ok = True
    for alpha in (0.5, 1.0, 1.5, 2.0):
        dim = required_n_max(alpha) + 1
        rho = FockDensity.from_vector(coherent_to_fock(alpha, dim - 1), (dim,))
        spec = damping_spec(dim)
        for t in np.linspace(1e-4, 1e-3, 5):
            out = evolve_lindblad(rho, spec, float(t), DT_MAX, verify_step=True)
            u11 = math.exp(-0.5 * GBAR * float(t))
            ok &= coherent_fidelity(out, u11 * alpha) >= 1.0 - 1e-6
    elapsed = time.perf_counter() - start
    report(2, "coherent transport under mean damping", ok and elapsed < 30.0)


def test_acceptance_3_decoherence_factor():
    start = time.perf_counter()
    spec_cat = CatSpec(INV, INV, 1.0, 1)
    dim = required_n_max(1.0) + 1
    rho = FockDensity.from_vector(cat_state_vector(spec_cat, dim - 1), (dim,))
    spec = damping_spec(dim)
    ok = True
    for t in np.linspace(1e-4, 1e-3, 10):
        out = evolve_lindblad(rho, spec, float(t), DT_MAX, verify_step=True)
        u11 = math.exp(-0.5 * GBAR * float(t))
        z_oracle = extract_cat_coherence(out, u11 * 1.0)
        z_analytic = math.exp(-2.0 * (1.0 - u11 * u11))
        ok &= abs(z_oracle - z_analytic) / z_analytic <= 1e-4
    elapsed = time.perf_counter() - start
    report(3, "cat decoherence factor", ok and elapsed < 60.0)


def test_acceptance_4_fidelity_curve_bands():
    start = time.perf_counter()
    sys = reference_system()
    u_tel = math.exp(-0.5 * GBAR * T_TEL)

    def f_at_tel(alpha):
        return fidelity_at(CatSpec(INV, INV, alpha, 1), u_tel)

    curve_small = fidelity_curve(CatSpec(INV, INV, 0.5, 1), sys, 1e-3, 200)
    ok = curve_small.values.min() >= 0.95
    ok &= 0.80 <= f_at_tel(1.0) <= 0.90
    ok &= 0.53 <= f_at_tel(1.5) <= 0.67
    ok &= f_at_tel(2.0) <= 0.55
    elapsed = time.perf_counter() - start
    report(4, "fidelity bands at completion time", ok and elapsed < 5.0)


def test_acceptance_5_long_time_limit():
    spec = CatSpec(INV, INV, 1.0, 1)
    closed_form = 2.0 * math.exp(-1.0) / (1.0 + math.exp(-2.0))
    ok = abs(fidelity_at(spec, 0.0) - closed_form) < 1e-9
    ok &= abs(closed_form - 0.6480542736638853) < 1e-12

    # oracle at gbar * t = 12: evolve the cat itself and compare
    dim = required_n_max(1.0) + 1
    rho = FockDensity.from_vector(cat_state_vector(spec, dim - 1), (dim,))
    t = 12.0 / GBAR
    out = evolve_lindblad(rho, damping_spec(dim), t, DT_MAX)
    ok &= abs(oracle_fidelity(out, spec) - closed_form) < 1e-4
    report(5, "long-time fidelity plateau", ok)


def test_acceptance_6_protocol_exactness():
    start = time.perf_counter()
    # generic complex coefficients exercise the symbolic pipeline fully;
    # the branch-by-branch term structure is asserted in test_protocol
    c_plus = 0.6 + 0.3j
    c_minus = complex(math.sqrt(1.0 - abs(c_plus) ** 2))
    cfg_eq = ProtocolConfig(alpha=1.3, beta=1.3, c_plus=c_plus, c_minus=c_minus,
                            spectator_phase=0.0)
    outcomes = run_protocol(cfg_eq)
    by_class = {o.classification: o for o in outcomes
                if o.classification is not Classification.FAILURE}
    direct = by_class[Classification.SUCCESS_DIRECT]
    ov = state_overlap(target_state(cfg_eq), direct.residual_mode1)
    ok = abs(abs(ov) - 1.0) < 1e-12
    flipped = by_class[Classification.SUCCESS_AFTER_CORRECTION]
    corrected = apply_correction(flipped.residual_mode1)
    ok &= abs(residual_fidelity(corrected, cfg_eq) - 1.0) < 1e-12
    ok &= abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12

    cfg2 = ProtocolConfig(alpha=2.0, beta=2.0, c_plus=INV, c_minus=INV,
                          spectator_phase=0.0)
    outcomes2 = run_protocol(cfg2)
    p_direct = next(o.probability for o in outcomes2
                    if o.classification is Classification.SUCCESS_DIRECT)
    p_success = sum(o.probability for o in outcomes2
                    if o.classification is not Classification.FAILURE)
    ok &= abs(p_direct - 0.25) <= 5e-4
    ok &= abs(p_success - 0.5) <= 1e-3
    elapsed = time.perf_counter() - start
    report(6, "symbolic protocol exactness", ok and elapsed < 1.0)


def test_acceptance_7_dual_path_fidelity():
    start = time.perf_counter()
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        spec = CatSpec(INV, INV, alpha, 1)
        for t in np.linspace(0.0, 1e-3, 20):
            u11 = math.exp(-0.5 * GBAR * float(t))
            f_ana = fidelity_at(spec, u11)
            f_orc = oracle_fidelity(mixture_to_fock(build_rho1(spec, u11)), spec)
            ok &= abs(f_ana - f_orc) <= 1e-8
    elapsed = time.perf_counter() - start
    report(7, "dual-path fidelity agreement", ok and elapsed < 60.0)


def test_acceptance_8_dispersive_pi_property():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        if abs(a) > 2.0:
            a *= 2.0 / abs(a)
        dim = required_n_max(a) + 1
        rho = FockDensity.from_vector(coherent_to_fock(a, dim - 1), (dim,))
        once = dispersive_pi_fock(rho)
        ok &= coherent_fidelity(once, -a) >= 1.0 - 1e-10
        twice = dispersive_pi_fock(once)
        ok &= np.abs(twice.entries - rho.entries).max() < 1e-12
    elapsed = time.perf_counter() - start
    report(8, "dispersive pi amplitude flip", ok and elapsed < 1.0)


def test_acceptance_9_coupled_damping_two_mode():
    # two modes sharing one reservoir, gamma12 = gamma21 != 0: the Lindblad
    # oracle must carry the product coherent state to the amplitudes u_full
    # gives, and the uncoupled prediction must miss, so the check has teeth
    start = time.perf_counter()
    d = 16
    amps = np.array([0.8, 0.6j])
    g12 = 0.6 * math.sqrt(GAMMA11 * GAMMA22)
    psi = np.kron(coherent_to_fock(amps[0], d - 1), coherent_to_fock(amps[1], d - 1))
    rho = FockDensity.from_vector(psi, (d, d))
    spec = LindbladSpec(np.zeros((d * d, d * d), dtype=complex),
                        np.array([[GAMMA11, g12], [g12, GAMMA22]]), (d, d))
    out = evolve_lindblad(rho, spec, T_TEL, 1.0 / (50.0 * GBAR), verify_step=True)

    def deficit(c):
        u = u_full(DrainParams(A=0.5 * GAMMA11, B=0.5 * GAMMA22, C=0.5 * c, D=0.5 * c),
                   T_TEL).as_array()
        b = u @ amps
        phi = np.kron(coherent_to_fock(b[0], d - 1), coherent_to_fock(b[1], d - 1))
        return abs(1.0 - float(np.real(phi.conj() @ out.entries @ phi)))

    ok = deficit(g12) <= 1e-6 and deficit(0.0) >= 1e-3
    elapsed = time.perf_counter() - start
    report(9, "coupled two-mode damping against u_full", ok and elapsed < 10.0)
