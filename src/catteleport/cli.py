"""Batch command-line front end emitting plot-ready CSV.

Subcommands: coeffs, protocol, fidelity, figure2, oracle-check.
Exit codes: 0 success, 2 config error, 3 invariant breach, 4 truncation breach.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunConfig, default_config, load_config
from .dynamics import drain_params, u_full, u_simplified
from .errors import (
    AmbiguousCluster,
    ConfigError,
    ConsistencyError,
    NullState,
    StepSizeRejected,
    TruncationBreach,
)
from .fidelity import build_rho1, fidelity_at, fidelity_curve
from .oracle import (
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
from .protocol import apply_correction, residual_fidelity, run_protocol, sample_outcomes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_TRUNCATION = 4


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows(out, header, rows):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "frame", None) is not None:
        overrides["frame"] = args.frame
    if getattr(args, "no_spectator_phase", False):
        overrides["spectator_phase_on"] = False
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _rotating(u, omega1, omega2, t):
    """Strip the deterministic free-evolution phases from a full u matrix."""
    p1 = cmath.exp(1j * omega1 * t)
    p2 = cmath.exp(1j * omega2 * t)
    return (u.u11 * p1, u.u12 * p1, u.u21 * p2, u.u22 * p2)


def cmd_coeffs(cfg: RunConfig, out) -> int:
    ms = cfg.mode_system()
    p = drain_params(ms)
    times = np.linspace(0.0, cfg.t_max_s, cfg.n_points)
    header = ["t"]
    for tag in ("full", "simp"):
        for name in ("u11", "u12", "u21", "u22"):
            header += [f"{name}_{tag}_re", f"{name}_{tag}_im"]
    header.append("deviation")
    rows = []
    for t in times:
        t = float(t)
        uf = u_full(p, t)
        if cfg.rotating_frame:
            full = _rotating(uf, ms.omega1, ms.omega2, t)
        else:
            full = (uf.u11, uf.u12, uf.u21, uf.u22)
        us = u_simplified(ms, t, rotating_frame=cfg.rotating_frame)
        simp = (us.u11, us.u12, us.u21, us.u22)
        dev = max(abs(a - b) for a, b in zip(full, simp))
        row = [t]
        for quad in (full, simp):
            for z in quad:
                row += [complex(z).real, complex(z).imag]
        row.append(dev)
        rows.append(row)
    _write_rows(out, header, rows)
    return EXIT_OK


def cmd_protocol(cfg: RunConfig, out, trials: int | None) -> int:
    pc = cfg.protocol_config()
    outcomes = run_protocol(pc)
    total = sum(o.probability for o in outcomes)
    if abs(total - 1.0) > 1e-12:
        raise ConsistencyError(f"branch probabilities sum to {total!r}")
    header = ["atom", "field_sign", "probability", "classification",
              "residual_fidelity", "corrected_fidelity"]
    counts = None
    if trials:
        rng = np.random.default_rng(pc.rng_seed)
        counts = sample_outcomes(outcomes, trials, pc.effective_phase_error, rng)
        header += ["sampled_count", "sampled_freq"]
    rows = []
    for o in outcomes:
        fid = residual_fidelity(o.residual_mode1, pc)
        corrected = residual_fidelity(apply_correction(o.residual_mode1), pc)
        row = [o.atom.value, o.field_sign, o.probability, o.classification.value,
               fid, corrected]
        if counts is not None:
            c = counts[(o.atom, o.field_sign)]
            row += [c, c / trials]
        rows.append(row)
    _write_rows(out, header, rows)
    return EXIT_OK


def _curve(cfg: RunConfig):
    """The configured cat and its analytic fidelity curve."""
    spec = cfg.protocol_config().target
    curve = fidelity_curve(spec, cfg.mode_system(), cfg.t_max_s, cfg.n_points,
                           spectator_phase=cfg.spectator_phase,
                           rotating_frame=cfg.rotating_frame)
    return spec, curve


def cmd_fidelity(cfg: RunConfig, out, with_oracle: bool) -> int:
    spec, curve = _curve(cfg)
    ms = cfg.mode_system()
    header = ["t", "F_analytic"]
    if with_oracle:
        header += ["F_oracle", "abs_dF"]
    rows = []
    for t, f in zip(curve.times, curve.values):
        row = [float(t), float(f)]
        if with_oracle:
            # the u11 the analytic column was evaluated at, in the same frame
            u = u_simplified(ms, float(t), rotating_frame=cfg.rotating_frame)
            u11 = u.u11 * cmath.exp(1j * cfg.spectator_phase)
            rho = mixture_to_fock(build_rho1(spec, u11))
            f_or = oracle_fidelity(rho, spec)
            row += [f_or, abs(f_or - float(f))]
        rows.append(row)
    _write_rows(out, header, rows)
    return EXIT_OK


FIGURE2_ALPHAS = (0.5, 1.0, 1.5, 2.0)


def cmd_figure2(cfg: RunConfig, out) -> int:
    # reference curves: plain decoherence at the reference damping rates,
    # no protocol phase offsets folded in
    cfg = replace(cfg, t_max_s=1.0e-3, n_points=200,
                  gamma11_inv_s=1.0e-3, gamma22_inv_s=0.9e-3,
                  spectator_phase_on=False)
    curves = [_curve(replace(cfg, alpha_re=a, alpha_im=0.0))[1] for a in FIGURE2_ALPHAS]
    header = ["t"] + [f"F_alpha_{a}" for a in FIGURE2_ALPHAS]
    rows = []
    for i, t in enumerate(curves[0].times):
        rows.append([float(t)] + [float(c.values[i]) for c in curves])
    _write_rows(out, header, rows)
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig, out) -> int:
    ms = cfg.mode_system()
    gbar = ms.mean_damping_rate
    pc = cfg.protocol_config()
    alpha = cfg.alpha
    spec = pc.target
    # Re P01/sqrt(P00 P11) of c+|a> + parity c-|-a> carries the sign of the
    # cross term c+ conj(c-) parity (the config's coefficients are real)
    z_sign = cfg.parity * math.copysign(1.0, pc.c_plus * pc.c_minus)
    n_max = required_n_max(alpha)
    dt_max = 1.0 / (50.0 * gbar)
    dims = (n_max + 1,)
    lspec = LindbladSpec(
        hamiltonian=np.zeros((n_max + 1, n_max + 1), dtype=complex),
        gamma_matrix=np.array([[gbar]]),
        mode_dims=dims,
    )
    times = np.linspace(cfg.t_max_s / 10.0, cfg.t_max_s, 10)
    rows = []
    ok = True

    rho_coh = FockDensity.from_vector(coherent_to_fock(alpha, n_max), dims)
    rho_cat = FockDensity.from_vector(cat_state_vector(spec, n_max), dims)
    for t in times:
        t = float(t)
        u11 = math.exp(-0.5 * gbar * t)
        evolved = evolve_lindblad(rho_coh, lspec, t, dt_max)
        deficit = 1.0 - coherent_fidelity(evolved, u11 * alpha)
        ok &= deficit <= 1e-6
        rows.append(["coherent_transport", t, deficit, 1e-6,
                     "pass" if deficit <= 1e-6 else "fail"])

        evolved_cat = evolve_lindblad(rho_cat, lspec, t, dt_max)
        z_oracle = extract_cat_coherence(evolved_cat, u11 * alpha)
        z_ana = math.exp(-2.0 * abs(alpha) ** 2 * (1.0 - u11 * u11))
        rel = abs(z_oracle - z_sign * z_ana) / z_ana
        ok &= rel <= 1e-4
        rows.append(["decoherence_Z", t, rel, 1e-4,
                     "pass" if rel <= 1e-4 else "fail"])

        f_ana = fidelity_at(spec, u11)
        f_orc = oracle_fidelity(mixture_to_fock(build_rho1(spec, u11)), spec)
        diff = abs(f_ana - f_orc)
        ok &= diff <= 1e-8
        rows.append(["dual_path_fidelity", t, diff, 1e-8,
                     "pass" if diff <= 1e-8 else "fail"])

    _write_rows(out, ["check", "t", "value", "threshold", "status"], rows)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catteleport",
        description="Cat-state teleportation in a lossy bimodal cavity: "
                    "analytic dynamics, protocol branches and fidelity curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, help="override RNG seed")
        p.add_argument("--frame", choices=("rotating", "lab"))
        p.add_argument("--no-spectator-phase", action="store_true")

    p = sub.add_parser("coeffs", help="u_ij(t) coefficients, full vs simplified")
    common(p)
    p = sub.add_parser("protocol", help="four-branch teleportation report")
    common(p)
    p.add_argument("--trials", type=int, help="also sample N protocol runs")
    p = sub.add_parser("fidelity", help="fidelity-vs-time CSV")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="add Fock-oracle fidelity column")
    p = sub.add_parser("figure2", help="four fidelity curves at reference defaults")
    common(p)
    p = sub.add_parser("oracle-check", help="analytic vs Lindblad-oracle report")
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.out:
            out = open(args.out, "w", encoding="utf-8", newline="")
        else:
            out = sys.stdout
        try:
            if args.command == "coeffs":
                return cmd_coeffs(cfg, out)
            if args.command == "protocol":
                return cmd_protocol(cfg, out, args.trials)
            if args.command == "fidelity":
                return cmd_fidelity(cfg, out, args.oracle)
            if args.command == "figure2":
                return cmd_figure2(cfg, out)
            if args.command == "oracle-check":
                return cmd_oracle_check(cfg, out)
            raise AssertionError(f"unhandled command {args.command!r}")
        finally:
            if out is not sys.stdout:
                out.close()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationBreach as exc:
        print(f"truncation breach: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (NullState, ConsistencyError, AmbiguousCluster, StepSizeRejected,
            ValueError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
