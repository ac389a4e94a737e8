"""Seeded job mixes for the four benchmark workloads, their runners and checks.

A workload is an endless sequence of *cycles*.  Every cycle holds the same
strata of jobs (the same subcommands, sizes and switches); the seed draws the
parameters inside each stratum and the order of the jobs.  Because the mix of
strata is fixed, a run of whole cycles does the same kind and amount of work
for every seed, which keeps throughput comparable across seeds.  Cycle ``i``
of seed ``s`` is drawn from its own random stream, so any cycle can be
regenerated without drawing the ones before it.  Values that set a job's
cost over a wide range (in ``oracle_1mode``) come instead from a seeded
low-discrepancy sequence indexed by cycle (``lattice``), so that a run covers
their range nearly alike for every seed.

Parameter ranges follow the paper's regime: cavity damping times of about a
millisecond, coherent amplitudes 0.5 to 2.5, times up to a millisecond.  They
are never filtered by outcome.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi
SEED_MASK = 0xFFFFFFFFFFFFFFFF
# Config defaults the generator leaves alone (catteleport.config._SCHEMA).
OMEGA1 = TWO_PI * 51.1e9
OMEGA2 = OMEGA1 + TWO_PI * 1.0e7

GAMMA_INV_S = (0.8e-3, 1.2e-3)      # damping times, both modes
AMP = (0.5, 2.5)                    # |alpha|, |beta|
T_MAX_S = (0.5e-3, 1.0e-3)
TRIALS = (10_000, 100_000)          # --trials per protocol_trials job
ORACLE_N_POINTS = (50, 400)
DELTA_HZ = (0.5e5, 2.0e5)           # atom detuning; sets the spectator phase
CROSS = (0.3, 0.9)                  # gamma12 = gamma21 = rho * sqrt(gamma11 gamma22)
AMP_2MODE = (0.5, 1.0)              # keeps d = 16 per mode well above the Fock tail
T_TEL_S = 0.35e-3                   # teleportation time

# Output checks.  Tolerances are fixed here, not tuned to results.
PROB_SUM_TOL = 1e-12
FID_TOL = 1e-12          # a fidelity may exceed 1 by rounding only
ORACLE_FID_TOL = 1e-9    # oracle fidelities: the program's own guard
ABS_DF_TOL = 1e-8
COEFF_TOL = 1e-6         # phases of omega*t ~ 3e8 rad carry ~1e-8 rounding
EVOLVE1_TOL = 1e-8       # max |rho_oracle - rho_analytic| entry
EVOLVE2_DEFICIT = 1e-6   # |1 - F| against the u_full product state


@dataclass
class Job:
    name: str                 # stratum label, e.g. "coeffs" or "evolve2_d625_cross"
    kind: str                 # "cli", "protocol", "evolve1" or "evolve2"
    params: dict = field(default_factory=dict)
    config: dict | None = None
    argv: list | None = None  # file names are relative to the cycle directory
    id: str = ""

    def manifest(self) -> str:
        return json.dumps({"id": self.id, "name": self.name, "kind": self.kind,
                           "params": self.params, "argv": self.argv}, sort_keys=True)


# -- seeded draws (only Generator.random, whose stream numpy keeps stable) ----

def _u(rng, lo, hi):
    return lo + (hi - lo) * float(rng.random())


def _log_u(rng, lo, hi, u=None):
    u = float(rng.random()) if u is None else u
    return lo * (hi / lo) ** u


def _shuffle(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _balanced(rng, k, values):
    """k items cycling through ``values`` in a seeded order (equal shares)."""
    return _shuffle(rng, [values[i % len(values)] for i in range(k)])


def _cplx(rng, lo, hi):
    r, phi = _u(rng, lo, hi), _u(rng, 0.0, TWO_PI)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _pair(z: complex):
    return [z.real, z.imag]


def _coeff_pair(rng):
    chi = _u(rng, 0.1 * math.pi, 0.4 * math.pi)
    return math.cos(chi), math.sin(chi)


def _cat_config(rng, amp_range=AMP) -> dict:
    """Damping, cat and time-grid keys shared by the CLI configs."""
    a = _cplx(rng, *amp_range)
    c_plus, c_minus = _coeff_pair(rng)
    return {
        "gamma11_inv_s": _u(rng, *GAMMA_INV_S),
        "gamma22_inv_s": _u(rng, *GAMMA_INV_S),
        "alpha_re": a.real,
        "alpha_im": a.imag,
        "c_plus": c_plus,
        "c_minus": c_minus,
        "spectator_phase_on": rng.random() < 0.5,
        "delta_Hz": _u(rng, *DELTA_HZ),
        "t_max_s": _u(rng, *T_MAX_S),
    }


def _cli(name, argv_tail, config):
    return Job(name=name, kind="cli", config=config, argv=argv_tail)


# -- the four workloads -----------------------------------------------------

class Workload:
    name = ""
    index = 0
    why = ""
    ranges = ""

    def cycle(self, rng, points) -> list:
        """One cycle's jobs; ``points`` is the cycle's ``lattice``."""
        raise NotImplementedError

    def warmup(self, rng) -> list:
        raise NotImplementedError


class CliCurves(Workload):
    """coeffs, fidelity and figure2 through the batch CLI."""

    name, index = "cli_curves", 0
    why = ("per-point Python loops in fidelity and dynamics plus CSV writing in "
           "cli; oracle and protocol never run, so oracle changes must leave it flat")
    ranges = ("per cycle 5 coeffs (n_points 200, 632, 2000, 2000, 6325), 11 fidelity "
              "(200, 632, 6 x 2000, 6325, 20000, 20000) and 2 figure2; frames and "
              "parities balanced, half of coeffs with gamma12 = gamma21 != 0; |alpha| "
              "in [0.5, 2.5], damping times [0.8, 1.2] ms, t_max [0.5, 1] ms")

    # n_points on a log grid over [200, 20000].  Sizes are fixed so that a
    # cycle costs the same for every seed.  In cost order the six fidelity jobs
    # at 2000 points sit in the middle (six jobs below them, six above) and the
    # fidelity jobs at 20000 on top, so the median and the tail (the 11th
    # slowest job of a run) land inside a group of like jobs rather than
    # between two groups.  Six of them, not two, so that the median is drawn
    # from enough jobs spread over the run to follow the host's speed over the
    # whole run rather than over a few moments of it.
    SIZES = {"coeffs": (200, 632, 2000, 2000, 6325),
             "fidelity": (200, 632) + (2000,) * 6 + (6325, 20_000, 20_000)}

    def _curve_job(self, rng, sub, n_points, frame, parity, cross):
        cfg = _cat_config(rng)
        cfg.update(parity=parity, frame=frame, n_points=n_points)
        if cross:
            rho = _u(rng, *CROSS)
            g = rho / math.sqrt(cfg["gamma11_inv_s"] * cfg["gamma22_inv_s"])
            cfg.update(gamma12=g, gamma21=g)
        return _cli(sub, [sub], cfg)

    def cycle(self, rng, points):
        jobs = []
        for sub, sizes in self.SIZES.items():
            k = len(sizes)
            frames = _balanced(rng, k, ["rotating", "lab"])
            parities = _balanced(rng, k, [1, -1])
            crosses = _balanced(rng, k, [sub == "coeffs", False])
            for n, frame, par, cross in zip(sizes, frames, parities, crosses):
                jobs.append(self._curve_job(rng, sub, n, frame, par, cross))
        for frame in ("rotating", "lab"):
            jobs.append(_cli("figure2", ["figure2"], {**_cat_config(rng), "frame": frame}))
        return jobs

    def warmup(self, rng):
        return [self._curve_job(rng, "coeffs", 200, "lab", 1, True),
                self._curve_job(rng, "fidelity", 200, "rotating", -1, False),
                _cli("figure2", ["figure2"], _cat_config(rng))]


class ProtocolScan(Workload):
    """run_protocol on seeded configs, directly and through the CLI."""

    name, index = "protocol_scan", 1
    why = ("states and protocol do nearly all the work: symbolic branches, "
           "residual fidelities and the per-trial sampling loop; the shortest jobs")
    ranges = ("per cycle 6 direct run_protocol + residual_fidelity/apply_correction "
              "jobs (complex c_plus), 30 'protocol' CLI jobs and 2 'protocol --trials N' "
              "jobs (N = 1e4 and 1e5); |alpha|, |beta| in [0.5, 2.5] "
              "with random phases, parities and spectator phase on/off balanced")

    def _direct(self, rng, parity, spectator):
        c_plus, c_minus = _coeff_pair(rng)
        phase = _u(rng, 0.0, TWO_PI)
        delta = _u(rng, *DELTA_HZ)
        return Job(name="direct", kind="protocol", params={
            "alpha": _pair(_cplx(rng, *AMP)),
            "beta": _pair(_cplx(rng, *AMP)),
            "c_plus": _pair(complex(c_plus * math.cos(phase), c_plus * math.sin(phase))),
            "c_minus": c_minus,
            "parity": parity,
            # catteleport.config's spectator phase: pi * delta / (Delta + delta)
            "spectator_phase": math.pi * delta / (1.0e7 + delta) if spectator else 0.0,
        })

    def _cli_config(self, rng, parity, spectator):
        cfg = _cat_config(rng)
        b = _cplx(rng, *AMP)
        cfg.update(beta_re=b.real, beta_im=b.imag, parity=parity,
                   spectator_phase_on=spectator, seed=int(rng.random() * 2**31))
        return cfg

    # In cost order the plain CLI jobs are the middle group, with the direct
    # jobs below and the trial jobs above, so the median is a CLI job.
    def cycle(self, rng, points):
        jobs = []
        for par, spec in zip(_balanced(rng, 6, [1, -1]), _balanced(rng, 6, [True, False])):
            jobs.append(self._direct(rng, par, spec))
        for par, spec in zip(_balanced(rng, 30, [1, -1]), _balanced(rng, 30, [True, False])):
            jobs.append(_cli("protocol", ["protocol"], self._cli_config(rng, par, spec)))
        for n, par in zip(TRIALS, _balanced(rng, 2, [1, -1])):
            jobs.append(_cli("protocol_trials", ["protocol", "--trials", str(n)],
                             self._cli_config(rng, par, True)))
        return jobs

    def warmup(self, rng):
        return ([self._direct(rng, p, s) for p, s in ((1, True), (-1, False), (1, False))]
                + [_cli("protocol", ["protocol"], self._cli_config(rng, -1, True)),
                   _cli("protocol_trials", ["protocol", "--trials", "1000"],
                        self._cli_config(rng, 1, False))])


class Oracle1Mode(Workload):
    """One-mode Fock oracle: many RK4 steps on small matrices."""

    name, index = "oracle_1mode", 2
    why = ("one-mode Lindblad RK4 at d = 21..43: many steps on small matrices, where "
           "Python overhead per step rivals the matmuls; odd-parity oracle-check jobs fail")
    ranges = ("per cycle 2 oracle-check (one even, one odd parity; |alpha| in "
              "[0.5, 2.5], t_max in [0.5, 1] ms), 2 'fidelity --oracle' (n_points "
              "log-uniform in [50, 400], same |alpha| and t_max) and 4 direct one-mode "
              "evolve_lindblad with verify_step=True (|alpha| in [0.5, 2.5], t in "
              "(0, 1] ms, dt = 1/(200 gamma_bar), d = required_n_max(alpha) + 1); "
              "these cost-setting values are drawn from a seeded low-discrepancy "
              "sequence across cycles; rotating frame")

    @staticmethod
    def _amp(u):
        """|alpha| at quantile u of its range."""
        return AMP[0] + (AMP[1] - AMP[0]) * u

    def _oracle_config(self, rng, u_amp, u_t, parity):
        cfg = _cat_config(rng, amp_range=(self._amp(u_amp),) * 2)
        cfg.update(parity=parity, t_max_s=T_MAX_S[0] + (T_MAX_S[1] - T_MAX_S[0]) * u_t)
        return cfg

    def _evolve(self, rng, u_amp, u_t, parity):
        c_plus, c_minus = _coeff_pair(rng)
        gamma = 1.0 / _u(rng, *GAMMA_INV_S)
        return Job(name="evolve1", kind="evolve1", params={
            "alpha": _pair(_cplx(rng, self._amp(u_amp), self._amp(u_amp))),
            "c_plus": c_plus, "c_minus": c_minus, "parity": parity,
            "gamma": gamma,
            "t": u_t * 1.0e-3,
            "dt_max": 1.0 / (200.0 * gamma),
        })

    # |alpha| (through d), t and n_points set a job's cost over a range of
    # about 100:1, and the median and tail fall among these jobs; each comes
    # from its own low-discrepancy stream so that every run covers the ranges
    # alike (the even and odd oracle-check jobs too, since only even passes).
    def cycle(self, rng, points):
        jobs = []
        for (u_amp, u_t), par in zip(points(0, 1, 2) + points(1, 1, 2), (1, -1)):
            jobs.append(_cli(f"oracle_check_{'even' if par == 1 else 'odd'}",
                             ["oracle-check"], self._oracle_config(rng, u_amp, u_t, par)))
        for (u_n, u_amp, u_t), par in zip(points(2, 2, 3), _balanced(rng, 2, [1, -1])):
            cfg = self._oracle_config(rng, u_amp, u_t, par)
            cfg.update(n_points=round(_log_u(rng, *ORACLE_N_POINTS, u=u_n)))
            jobs.append(_cli("fidelity_oracle", ["fidelity", "--oracle"], cfg))
        for (u_amp, u_t), par in zip(points(3, 4, 2), _balanced(rng, 4, [1, -1])):
            jobs.append(self._evolve(rng, u_amp, u_t, par))
        return jobs

    def warmup(self, rng):
        cfg = self._oracle_config(rng, 0.2, 0.0, 1)
        cfg.update(n_points=20)
        return [_cli("oracle_check_even", ["oracle-check"], cfg),
                _cli("fidelity_oracle", ["fidelity", "--oracle"], dict(cfg)),
                self._evolve(rng, 0.5, 0.1, -1)]


class Oracle2Mode(Workload):
    """Two-mode Fock oracle: dense kron matmuls at D = 256..625."""

    name, index = "oracle_2mode", 3
    why = ("two-mode Lindblad RK4 at D = d1*d2 = 256..625 (incl. 25x25 with "
           "gamma12 = gamma21 != 0): dense kron matmuls do nearly all the work")
    ranges = ("per cycle: 25x25 cross-damped 1 step; 16x16 9 steps with t in "
              "[0.30, 0.35] ms; 4 x 16x25/20x20/25x16 1 step; 10 x 16x16 cross-damped "
              "1 step; 5 x 16x16 1 step.  Coherent product inputs |a_j| in [0.5, 1], damping "
              "times [0.8, 1.2] ms, gamma12 = gamma21 = rho sqrt(gamma11 gamma22) with "
              "rho in [0.3, 0.9]; short jobs take t in (0.5, 1] h with h = "
              "1/(20 lambda_max(Gamma)); dt_max = t / steps")

    # (label, dims choices, cross damping, RK4 steps).  11 of the 21 jobs are
    # cross-damped.  In cost order (at one BLAS thread): the 25x25 job
    # (2.5-3.2 s), the 9-step job (0.9-1.2 s), four D = 400 jobs (0.45 s), ten
    # cross-damped 16x16 jobs (0.22-0.25 s) and five plain ones (0.12-0.15 s).
    # A cycle takes 8-10 s, so a run holds 3 cycles, 2 to 4 at the extremes:
    # the tail (the 11th slowest job) then falls inside the D = 400 group and
    # the median in the middle of the cross-damped 16x16 group, rather than
    # on the border between two groups.
    STRATA = (
        ("evolve2_d625_cross", ((25, 25),), True, 1),
        ("evolve2_d256_long", ((16, 16),), False, 9),
    ) + ((("evolve2_d400", ((16, 25), (20, 20), (25, 16)), False, 1),) * 4
         + (("evolve2_d256_cross", ((16, 16),), True, 1),) * 10
         + (("evolve2_d256", ((16, 16),), False, 1),) * 5)

    def _job(self, rng, label, dims_choices, cross, steps):
        dims = dims_choices[int(rng.random() * len(dims_choices))]
        g11 = 1.0 / _u(rng, *GAMMA_INV_S)
        g22 = 1.0 / _u(rng, *GAMMA_INV_S)
        g12 = _u(rng, *CROSS) * math.sqrt(g11 * g22) if cross else 0.0
        gamma = [[g11, g12], [g12, g22]]
        if steps > 1:
            t = _u(rng, 0.30e-3, T_TEL_S)
        else:
            h = 1.0 / (20.0 * float(np.linalg.eigvalsh(np.array(gamma)).max()))
            t = _u(rng, 0.5, 1.0) * h
        return Job(name=label, kind="evolve2", params={
            "dims": list(dims),
            "amps": [_pair(_cplx(rng, *AMP_2MODE)), _pair(_cplx(rng, *AMP_2MODE))],
            "gamma": gamma,
            "t": t,
            # slightly above t/steps so that ceil(t/dt_max) == steps exactly
            "dt_max": t / steps * (1.0 + 1e-9),
        }, config={
            # the same inputs in config form, parsed once by setup_s
            "gamma11_inv_s": 1.0 / g11, "gamma22_inv_s": 1.0 / g22,
            "gamma12": g12, "gamma21": g12,
        })

    def cycle(self, rng, points):
        return [self._job(rng, *s) for s in self.STRATA]

    def warmup(self, rng):
        return [self._job(rng, "evolve2_d256", ((16, 16),), False, 1)]


WORKLOADS = {w.name: w for w in (CliCurves(), ProtocolScan(), Oracle1Mode(), Oracle2Mode())}


# -- generation ------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cycle_rng(seed: int, workload: Workload, cycle: int | None):
    key = [seed & SEED_MASK, workload.index]
    key += [0] if cycle is None else [1, cycle]
    return np.random.default_rng(key)


def _rd_steps(dims: int) -> list:
    """Steps of the R_d sequence: powers of 1/phi, where phi is the positive
    root of x**(dims + 1) = x + 1 (the golden ratio for dims = 1)."""
    phi = 2.0
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return [phi ** -(i + 1) for i in range(dims)]


def lattice(seed: int, workload: Workload, cycle: int):
    """Seeded low-discrepancy draws, indexed across the cycles of a run.

    ``points(stream, k, dims)`` returns this cycle's k points in [0, 1)^dims
    of an R_d sequence with a seeded offset.  The points of cycles 0..n-1 are
    the sequence's first n*k, which fill the cube far more evenly than as many
    independent draws, so every seed's run meets nearly the same spread of
    job costs and its median and tail do not move with the seed.
    """
    def points(stream: int, k: int, dims: int) -> list:
        offset = np.random.default_rng([seed & SEED_MASK, workload.index, 2, stream]).random(dims)
        steps = _rd_steps(dims)
        return [[float((o + (cycle * k + j) * a) % 1.0) for o, a in zip(offset, steps)]
                for j in range(k)]
    return points


def generate(workload: Workload, seed: int, cycle: int | None, directory: Path) -> list:
    """Draw one cycle (``None``: the warm-up jobs) and write its input files."""
    rng = cycle_rng(seed, workload, cycle)
    jobs = (workload.warmup(rng) if cycle is None
            else _shuffle(rng, workload.cycle(rng, lattice(seed, workload, cycle))))
    directory.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        job.id = f"j{i:03d}"
        if job.config is not None:
            cfg_name = f"{job.id}.cfg"
            (directory / cfg_name).write_text(
                "".join(f"{k} = {_fmt(v)}\n" for k, v in job.config.items()), encoding="utf-8")
            if job.argv is not None:
                job.argv = job.argv + ["--config", cfg_name, "--out", f"{job.id}.csv"]
    (directory / "jobs.jsonl").write_text(
        "".join(job.manifest() + "\n" for job in jobs), encoding="utf-8")
    return jobs


# -- running one job (the timed part) ----------------------------------------

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _resolve(argv, directory: Path):
    out = []
    for i, arg in enumerate(argv):
        out.append(str(directory / arg) if i and argv[i - 1] in ("--config", "--out") else arg)
    return out


def execute(job: Job, cat, directory: Path):
    """Run one job through the program; returns (exit code, payload)."""
    if job.kind == "cli":
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = cat.cli.main(_resolve(job.argv, directory))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, err.getvalue()
    p = job.params
    if job.kind == "protocol":
        proto = cat.protocol
        pc = proto.ProtocolConfig(alpha=_c(p["alpha"]), beta=_c(p["beta"]),
                                  c_plus=_c(p["c_plus"]), c_minus=p["c_minus"],
                                  parity_sign=p["parity"],
                                  spectator_phase=p["spectator_phase"])
        outcomes = proto.run_protocol(pc)
        fids = []
        for o in outcomes:
            fids.append(proto.residual_fidelity(o.residual_mode1, pc))
            fids.append(proto.residual_fidelity(proto.apply_correction(o.residual_mode1), pc))
        return 0, ([o.probability for o in outcomes], fids)
    orc = cat.oracle
    if job.kind == "evolve1":
        alpha = _c(p["alpha"])
        d = orc.required_n_max(alpha) + 1
        spec = cat.states.CatSpec(p["c_plus"], p["c_minus"], alpha, p["parity"])
        rho = orc.FockDensity.from_vector(orc.cat_state_vector(spec, d - 1), (d,))
        lspec = orc.LindbladSpec(np.zeros((d, d), dtype=complex),
                                 np.array([[p["gamma"]]]), (d,))
        return 0, orc.evolve_lindblad(rho, lspec, p["t"], p["dt_max"], verify_step=True)
    if job.kind == "evolve2":
        d1, d2 = p["dims"]
        (a1, a2) = (_c(a) for a in p["amps"])
        psi = np.kron(orc.coherent_to_fock(a1, d1 - 1), orc.coherent_to_fock(a2, d2 - 1))
        rho = orc.FockDensity.from_vector(psi, (d1, d2))
        lspec = orc.LindbladSpec(np.zeros((d1 * d2, d1 * d2), dtype=complex),
                                 np.array(p["gamma"]), (d1, d2))
        return 0, orc.evolve_lindblad(rho, lspec, p["t"], p["dt_max"])
    raise ValueError(f"unknown job kind {job.kind!r}")


# -- independent output checks (untimed) -------------------------------------

def _coherent(a: complex, n_max: int) -> np.ndarray:
    """Number-basis coherent state by recurrence, independent of the oracle."""
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(a) ** 2)
    c[1:] = complex(a) / np.sqrt(np.arange(1, n_max + 1))
    return np.cumprod(c)


def _in_unit(values, tol) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(values)) and values.min() >= -tol and values.max() <= 1.0 + tol)


def _csv_rows(directory: Path, job: Job):
    text = (directory / f"{job.id}.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    return lines[0].split(","), lines[1:]


def _columns(rows, cols):
    return np.array([[float(r.split(",")[c]) for c in cols] for r in rows])


def _check_coeffs(cfg, rows):
    if len(rows) != cfg["n_points"]:
        return f"{len(rows)} rows for n_points={cfg['n_points']}"
    g11, g22 = 1.0 / cfg["gamma11_inv_s"], 1.0 / cfg["gamma22_inv_s"]
    g12 = cfg.get("gamma12", 0.0)
    m = np.array([[1j * OMEGA1 + 0.5 * g11, 0.5 * g12],
                  [0.5 * g12, 1j * OMEGA2 + 0.5 * g22]])
    for r in (rows[0], rows[len(rows) // 2], rows[-1]):
        vals = [float(x) for x in r.split(",")]
        t = vals[0]
        full = np.array([complex(vals[1 + 2 * k], vals[2 + 2 * k]) for k in range(4)]).reshape(2, 2)
        ref = expm(-m * t)
        if cfg["frame"] == "rotating":
            ref = np.diag([np.exp(1j * OMEGA1 * t), np.exp(1j * OMEGA2 * t)]) @ ref
        dev = float(np.abs(full - ref).max())
        if not dev <= COEFF_TOL:
            return f"u_full off exp(-Mt) by {dev:.3e} at t={t!r}"
    return None


def _check_cli(job: Job, directory: Path):
    """Returns (problem or None, number of CSV data rows)."""
    header, rows = _csv_rows(directory, job)
    cfg = job.config
    sub = job.argv[0]
    if sub == "coeffs":
        return _check_coeffs(cfg, rows), len(rows)
    if sub == "fidelity":
        if len(rows) != cfg["n_points"]:
            return f"{len(rows)} rows for n_points={cfg['n_points']}", len(rows)
        vals = _columns(rows, range(1, len(header)))
        if not _in_unit(vals[:, 0], 0.0):
            return "analytic fidelity outside [0, 1]", len(rows)
        if "--oracle" in job.argv:
            if not _in_unit(vals[:, 1], ORACLE_FID_TOL):
                return "oracle fidelity outside [0, 1]", len(rows)
            if not vals[:, 2].max() <= ABS_DF_TOL:
                return f"abs_dF {vals[:, 2].max():.3e} > {ABS_DF_TOL}", len(rows)
        return None, len(rows)
    if sub == "figure2":
        vals = _columns(rows, range(1, 5))
        if len(rows) != 200 or not _in_unit(vals, 0.0):
            return "figure2 curves malformed or outside [0, 1]", len(rows)
        return None, len(rows)
    if sub == "protocol":
        cells = [r.split(",") for r in rows]
        probs = [float(c[2]) for c in cells]
        fids = [float(c[k]) for c in cells for k in (4, 5)]
        if len(rows) != 4 or abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            return f"branch probabilities sum to {sum(probs)!r}", len(rows)
        if not _in_unit(fids, FID_TOL):
            return "residual fidelity outside [0, 1]", len(rows)
        if "--trials" in job.argv:
            trials = int(job.argv[job.argv.index("--trials") + 1])
            if sum(int(c[6]) for c in cells) != trials:
                return "sampled counts do not add up to --trials", len(rows)
        return None, len(rows)
    if sub == "oracle-check":
        bad = [r for r in rows if not r.endswith(",pass")]
        return (f"{len(bad)} oracle-check rows fail" if bad else None), len(rows)
    return f"no check for {sub!r}", len(rows)


def _check_evolve1(p, rho) -> str | None:
    alpha, gamma, t = _c(p["alpha"]), p["gamma"], p["t"]
    n_max = rho.entries.shape[0] - 1
    a = alpha * math.exp(-0.5 * gamma * t)
    z = math.exp(-2.0 * abs(alpha) ** 2 * (1.0 - math.exp(-gamma * t)))
    vp, vm = _coherent(a, n_max), _coherent(-a, n_max)
    cp, cm = p["c_plus"], p["c_minus"]
    coh = p["parity"] * z * cp * cm * np.outer(vp, vm.conj())
    ref = cp * cp * np.outer(vp, vp.conj()) + cm * cm * np.outer(vm, vm.conj()) + coh + coh.conj().T
    ref /= np.trace(ref).real
    dev = float(np.abs(rho.entries - ref).max())
    return None if dev <= EVOLVE1_TOL else f"oracle off the damped-cat mixture by {dev:.3e}"


def _check_evolve2(p, rho, cat) -> str | None:
    (g11, g12), (g21, g22) = p["gamma"]
    dyn = cat.dynamics
    u = dyn.u_full(dyn.DrainParams(A=0.5 * g11, B=0.5 * g22, C=0.5 * g12, D=0.5 * g21),
                   p["t"]).as_array()
    b = u @ np.array([_c(a) for a in p["amps"]])
    d1, d2 = p["dims"]
    phi = np.kron(_coherent(b[0], d1 - 1), _coherent(b[1], d2 - 1))
    f = float(np.real(phi.conj() @ rho.entries @ phi))
    # RK4 errs on either side of 1 by the same order; both sides are checked
    if not abs(1.0 - f) <= EVOLVE2_DEFICIT:
        return f"fidelity {f!r} against the u_full product state"
    return None


def check(job: Job, rc, payload, cat, directory: Path):
    """Returns (problem or None, CSV rows written)."""
    if rc != 0:
        first = payload.strip().splitlines()[:1] if isinstance(payload, str) else []
        return f"exit code {rc}" + (f": {first[0]}" if first else ""), 0
    if job.kind == "cli":
        return _check_cli(job, directory)
    if job.kind == "protocol":
        probs, fids = payload
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            return f"branch probabilities sum to {sum(probs)!r}", 0
        return (None if _in_unit(fids, FID_TOL) else "residual fidelity outside [0, 1]"), 0
    if job.kind == "evolve1":
        return _check_evolve1(job.params, payload), 0
    return _check_evolve2(job.params, payload, cat), 0
