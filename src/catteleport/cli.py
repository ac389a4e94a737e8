"""Batch command-line front end emitting plot-ready CSV.

Subcommands: coeffs, protocol, fidelity, figure2, oracle-check.  Each
``cmd_*`` returns ``(header, rows, ok)``, the rows as one float64 table when
every value is a float; ``main`` alone writes the CSV and maps the result or
exception to an exit code.
Exit codes: 0 success, 2 config error, 3 invariant breach, 4 truncation breach.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from .config import RunConfig, default_config, load_config
from .dynamics import coefficient_grid, decoherence_Z, u_simplified
from .errors import CatTeleportError, ConfigError, ConsistencyError, TruncationBreach
from .fidelity import build_rho1, fidelity, fidelity_curve
from .oracle import (
    FockDensity,
    LindbladSpec,
    cat_state_vector,
    coherent_fidelity,
    coherent_to_fock,
    evolve_lindblad_many,
    extract_cat_coherence,
    mixture_fidelity,
    required_n_max,
)
from .protocol import apply_correction, residual_fidelity, run_protocol, sample_outcomes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_TRUNCATION = 4
# Most RK4 steps oracle-check may take to reach t_max_s (dt = 1/(50 gamma_bar)),
# so a run stays seconds long: t_max_s up to 20 mean damping times.
ORACLE_MAX_STEPS = 1000
# Most protocol runs --trials may sample: each takes about 30 bytes at once.
MAX_TRIALS = 10 ** 6


@contextlib.contextmanager
def _naming_t_max(cfg: RunConfig):
    """Add the key behind the time grid to a ConsistencyError raised on it."""
    try:
        yield
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc}; the time grid runs to t_max_s = {cfg.t_max_s!r}") from None


def cmd_coeffs(cfg: RunConfig, args):
    times = np.linspace(0.0, cfg.t_max_s, cfg.n_points)
    header = ["t"]
    for tag in ("full", "simp"):
        for name in ("u11", "u12", "u21", "u22"):
            header += [f"{name}_{tag}_re", f"{name}_{tag}_im"]
    header.append("deviation")
    with _naming_t_max(cfg):
        full, simp = coefficient_grid(cfg.mode_system(), times, cfg.rotating_frame)
        zs = np.concatenate([full, simp])
        table = np.empty((len(times), 2 * len(zs) + 2))
        table[:, 0] = times
        table[:, 1:-1:2] = zs.real.T
        table[:, 2:-1:2] = zs.imag.T
        diff = full - simp
        table[:, -1] = np.hypot(diff.real, diff.imag).max(axis=0)
        # the unscaled closed form can overflow where the true entries are small
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
        if bad.size:
            raise ConsistencyError(f"u_full is not finite at t={float(times[bad[0]])!r}")
    return header, table, True


def cmd_protocol(cfg: RunConfig, args):
    trials = args.trials
    if trials is not None and not 0 <= trials <= MAX_TRIALS:
        raise ConfigError(f"--trials must lie in [0, {MAX_TRIALS}], got {trials}")
    pc = cfg.protocol_config()
    outcomes = run_protocol(pc)
    total = sum(o.probability for o in outcomes)
    if abs(total - 1.0) > 1e-12:
        raise ConsistencyError(f"branch probabilities sum to {total!r}")
    header = ["atom", "field_sign", "probability", "classification",
              "residual_fidelity", "corrected_fidelity"]
    counts = None
    if trials:
        rng = np.random.default_rng(cfg.seed)
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
    return header, rows, True


def _curve(cfg: RunConfig):
    """The configured cat and its analytic fidelity curve."""
    spec = cfg.protocol_config().target
    with _naming_t_max(cfg):
        curve = fidelity_curve(spec, cfg.mode_system(), cfg.t_max_s, cfg.n_points,
                               spectator_phase=cfg.spectator_phase,
                               rotating_frame=cfg.rotating_frame)
    return spec, curve


def cmd_fidelity(cfg: RunConfig, args):
    spec, curve = _curve(cfg)
    header = ["t", "F_analytic"]
    table = np.empty((len(curve.times), 4 if args.oracle else 2))
    table[:, 0] = curve.times
    table[:, 1] = curve.values
    if args.oracle:
        header += ["F_oracle", "abs_dF"]
        targets = {}
        table[:, 2] = [mixture_fidelity(build_rho1(spec, u11), spec, targets)
                       for u11 in curve.u11.tolist()]
        table[:, 3] = np.abs(table[:, 2] - table[:, 1])
    return header, table, True


FIGURE2_ALPHAS = (0.5, 1.0, 1.5, 2.0)


def cmd_figure2(cfg: RunConfig, args):
    # reference curves: plain decoherence at the reference damping rates,
    # no protocol phase offsets folded in
    cfg = replace(cfg, t_max_s=1.0e-3, n_points=200,
                  gamma11_inv_s=1.0e-3, gamma22_inv_s=0.9e-3,
                  spectator_phase_on=False)
    curves = [_curve(replace(cfg, alpha_re=a, alpha_im=0.0))[1] for a in FIGURE2_ALPHAS]
    header = ["t"] + [f"F_alpha_{a}" for a in FIGURE2_ALPHAS]
    return header, np.column_stack([curves[0].times] + [c.values for c in curves]), True


def cmd_oracle_check(cfg: RunConfig, args):
    ms = cfg.mode_system()
    gbar = ms.mean_damping_rate
    pc = cfg.protocol_config()
    alpha = cfg.alpha
    spec = pc.target
    # Re P01/sqrt(P00 P11) of c+|a> + parity c-|-a> carries the sign of the
    # cross term c+ conj(c-) parity (the config's coefficients are real); a
    # plain coherent state (c+ c- = 0) has no cat coherence to check
    cross = cfg.parity * pc.c_plus * pc.c_minus
    dt_max = 1.0 / (50.0 * gbar)
    steps = 50.0 * gbar * cfg.t_max_s   # t_max_s / dt_max, also when dt_max is 0
    if not steps <= ORACLE_MAX_STEPS:
        raise ConfigError(f"oracle-check would take {steps:.3g} RK4 steps of 1/(50 gamma_bar) "
                          f"to reach t_max_s, above its budget of {ORACLE_MAX_STEPS}: raise "
                          "gamma11_inv_s or gamma22_inv_s, or lower t_max_s")
    n_max = required_n_max(alpha)
    dims = (n_max + 1,)
    lspec = LindbladSpec(
        hamiltonian=np.zeros((n_max + 1, n_max + 1), dtype=complex),
        gamma_matrix=np.array([[gbar]]),
        mode_dims=dims,
    )
    times = np.linspace(cfg.t_max_s / 10.0, cfg.t_max_s, 10)
    rows, targets = [], {}

    rho_coh = FockDensity.from_vector(coherent_to_fock(alpha, n_max), dims)
    rho_cat = FockDensity.from_vector(cat_state_vector(spec, n_max), dims)
    # every point's states integrated at once; each result's own checks run
    # as the loop reaches it, in the order of a loop over evolve_lindblad
    states = (rho_coh, rho_cat) if cross else (rho_coh,)
    evolved = evolve_lindblad_many([rho for _ in times for rho in states], lspec,
                                   [t for t in times for _ in states], dt_max)
    for t in times:
        t = float(t)
        u11 = u_simplified(ms, t).u11
        checks = [("coherent_transport",
                   1.0 - coherent_fidelity(next(evolved), u11 * alpha), 1e-6)]
        if cross:
            evolved_cat = next(evolved)
            try:
                z_oracle = extract_cat_coherence(evolved_cat, u11 * alpha)
            except ConsistencyError as exc:
                raise ConsistencyError(
                    f"decoherence_Z at t={t!r}: {exc}; c_plus = {cfg.c_plus!r} and "
                    f"c_minus = {cfg.c_minus!r} leave one cat component too weak to "
                    "check") from None
            z_ana = decoherence_Z(alpha, abs(u11))
            checks.append(("decoherence_Z",
                           abs(z_oracle - math.copysign(z_ana, cross)) / z_ana, 1e-4))
        mixture = build_rho1(spec, u11)
        f_orc = mixture_fidelity(mixture, spec, targets)
        checks.append(("dual_path_fidelity", abs(fidelity(spec, mixture) - f_orc), 1e-8))
        rows += [[check, t, value, threshold, "pass" if value <= threshold else "fail"]
                 for check, value, threshold in checks]
    ok = all(row[-1] == "pass" for row in rows)
    return ["check", "t", "value", "threshold", "status"], rows, ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; ``run`` names the command."""
    parser = argparse.ArgumentParser(
        prog="catteleport",
        description="Cat-state teleportation in a lossy bimodal cavity: "
                    "analytic dynamics, protocol branches and fidelity curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("coeffs", "u_ij(t) coefficients, full vs simplified"),
        ("protocol", "four-branch teleportation report"),
        ("fidelity", "fidelity-vs-time CSV"),
        ("figure2", "four fidelity curves at reference defaults"),
        ("oracle-check", "analytic vs Lindblad-oracle report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run="cmd_" + name.replace("-", "_"))
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default stdout)")
    sub.choices["protocol"].add_argument("--trials", type=int,
                                         help="also sample N protocol runs")
    sub.choices["fidelity"].add_argument("--oracle", action="store_true",
                                         help="add Fock-oracle fidelity column")
    return parser


def _write_csv(out, header, rows) -> None:
    """Header and rows as CSV: floats as %.17g, anything else as str().

    A float64 table goes to ``floatcsv.write_table``, which writes the same
    bytes in numpy blocks.  Rows of a list (protocol and oracle-check mix str,
    int and float in at most 40 rows, where that kernel's fixed cost exceeds
    the template's) share one %-template built from the first row, since each
    command gives a column the same type in every row.
    """
    out.write(",".join(header) + "\n")
    if isinstance(rows, np.ndarray):
        from .floatcsv import write_table   # compiled on first use, not at import
        write_table(out, rows)
        return
    if not rows:
        return
    template = ",".join("%.17g" if isinstance(v, (float, np.floating)) else "%s"
                        for v in rows[0]) + "\n"
    out.write((template * len(rows)) % tuple(chain.from_iterable(rows)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else default_config()
        try:
            out = open(args.out, "w", encoding="utf-8", newline="") if args.out is not None else sys.stdout
        except OSError as exc:
            raise ConfigError(f"cannot open --out {args.out!r}: {exc.strerror}") from exc
        if out is None:   # Python sets sys.stdout to None when it starts with fd 1 closed
            raise ConfigError("cannot write the CSV to stdout: it is closed")
        try:
            # looked up now, so that a replaced module attribute (a test
            # double, a tracing wrapper) is the one that runs
            header, rows, ok = globals()[args.run](cfg, args)
            try:
                _write_csv(out, header, rows)
                out.flush()
                if out is not sys.stdout:
                    out.close()
            except OSError as exc:
                if out is sys.stdout:
                    # nothing more reaches stdout, and the flush at exit must
                    # not raise again
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                # a reader that closed stdout early (`| head`) ends the run quietly
                if not isinstance(exc, BrokenPipeError):
                    where = f"--out {args.out!r}" if args.out is not None else "stdout"
                    raise ConfigError(f"cannot write the CSV to {where}: {exc.strerror}") from None
        finally:
            if out is not sys.stdout:
                # after an error the file is closed quietly: a close that
                # flushes the same bytes again fails again
                with contextlib.suppress(OSError):
                    out.close()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationBreach as exc:
        print(f"truncation breach: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (CatTeleportError, ValueError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK if ok else EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
