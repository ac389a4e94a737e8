"""The ROADMAP ladder of single-call timings, read from traced spans.

Each rung calls one public function with fixed inputs while the tracer
records only the outermost span, so a rung's time carries one span's
overhead (about a microsecond), not that of every nested call.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

INV = 1.0 / math.sqrt(2.0)
GAMMA11, GAMMA22 = 1.0e3, 1.0 / 0.9e-3          # the config defaults
GBAR = 0.5 * (GAMMA11 + GAMMA22)

# metric name -> unit
RUNGS = {
    "ladder.u_full_us": "us",
    "ladder.fidelity_at_us": "us",
    "ladder.run_protocol_ms": "ms",
    "ladder.fidelity_curve_200_ms": "ms",
    "ladder.fidelity_curve_20000_ms": "ms",
    "ladder.evolve_1mode_d25_ms": "ms",
    "ladder.evolve_1mode_d49_ms": "ms",
    "ladder.rhs_2mode_d625_ms": "ms",
}


def _median_span(tracer, name, calls, scale):
    durations = tracer.root_durations[name][-calls:]
    return statistics.median(durations) * scale


def run(cat, tracer) -> dict:
    """Call every rung through the traced functions; returns metric -> value."""
    with tracer.paused():
        ms = cat.config.default_config().mode_system()
        p = cat.dynamics.drain_params(ms)
        spec = cat.states.CatSpec(INV, INV, 1.0, 1)
        pc = cat.protocol.ProtocolConfig(alpha=1.0, beta=1.0, c_plus=INV, c_minus=INV)
        orc = cat.oracle

        def one_mode(alpha):
            d = orc.required_n_max(alpha) + 1
            rho = orc.FockDensity.from_vector(orc.coherent_to_fock(alpha, d - 1), (d,))
            lspec = orc.LindbladSpec(np.zeros((d, d), dtype=complex),
                                     np.array([[GBAR]]), (d,))
            return rho, lspec

        one25, one49 = one_mode(1.0), one_mode(3.0)      # d = 25 and d = 49
        psi = np.kron(orc.coherent_to_fock(1.0, 24), orc.coherent_to_fock(1.0, 24))
        two = (orc.FockDensity.from_vector(psi, (25, 25)),
               orc.LindbladSpec(np.zeros((625, 625), dtype=complex),
                                np.diag([GAMMA11, GAMMA22]), (25, 25)))

    out = {}
    tracer.nested = False
    tracer.active = True
    try:
        for i in range(2000):
            cat.dynamics.u_full(p, 1e-6 * i)
        out["ladder.u_full_us"] = _median_span(tracer, "dynamics.u_full", 2000, 1e6)
        for i in range(500):
            cat.fidelity.fidelity_at(spec, math.exp(-0.5 * GBAR * 2e-6 * i))
        out["ladder.fidelity_at_us"] = _median_span(tracer, "fidelity.fidelity_at", 500, 1e6)
        for _ in range(100):
            cat.protocol.run_protocol(pc)
        out["ladder.run_protocol_ms"] = _median_span(tracer, "protocol.run_protocol", 100, 1e3)
        for n, reps in ((200, 10), (20_000, 3)):
            for _ in range(reps):
                cat.fidelity.fidelity_curve(spec, ms, 1.0e-3, n)
            out[f"ladder.fidelity_curve_{n}_ms"] = _median_span(
                tracer, "fidelity.fidelity_curve", reps, 1e3)
        for (rho, lspec), d in ((one25, 25), (one49, 49)):
            for _ in range(3):
                cat.oracle.evolve_lindblad(rho, lspec, 1.0e-3, 1.0 / (200.0 * GBAR))
            out[f"ladder.evolve_1mode_d{d}_ms"] = _median_span(
                tracer, "oracle.evolve_lindblad", 3, 1e3)
        dt = 1.0 / (50.0 * GBAR)
        cat.oracle.evolve_lindblad(two[0], two[1], dt, dt)   # one RK4 step: 4 RHS calls
        out["ladder.rhs_2mode_d625_ms"] = _median_span(
            tracer, "oracle.evolve_lindblad", 1, 1e3) / 4.0
    finally:
        tracer.active = False
        tracer.nested = True
    return out
