#!/usr/bin/env python3
"""catteleport benchmark: one seeded workload per run, timed from outside.

    python3 perfbench/run.py --workload cli_curves --seed 1 --seconds 28 --trace 0

Load model: a closed loop with one client in one process.  Each job starts
when the previous one has finished, the way a user scripts the batch CLI;
CLI jobs run in-process through ``catteleport.cli.main(argv)`` against
generated ``--config`` files, so interpreter start-up is measured once, as
``setup_s``.  BLAS runs on one thread (see ``bootstrap``).

``--trace 0`` runs whole cycles of the workload, at least three, and stops
when its program time is nearest ``--seconds``; it prints the end-to-end
metrics.  ``--trace 1`` runs the workload's fixed trace cycles twice, once
plain and once with every public function of each module wrapped in spans,
and prints per-module self time and counts, the ROADMAP ladder and the
golden-hash mismatch count.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import bootstrap  # noqa: E402  (before numpy: pins BLAS threads)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

from perfbench import golden, harness, ladder, tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

ROOT = bootstrap.ROOT

# cycles per trace phase: about 6 s of untraced work each at the baseline
TRACE_CYCLES = {"cli_curves": 3, "protocol_scan": 60, "oracle_1mode": 6, "oracle_2mode": 1}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(metrics, extras=None):
    extras = extras or {}
    for name, m in metrics.items():
        note = f"  ({extras[name]})" if name in extras else ""
        print(f"{name:34s} {m['value']!r:>24} {m['unit']}{note}")


def _failure_lines(phase):
    for name, count in sorted(phase.failures.items()):
        print(f"failed {name}: {count} jobs; first: {phase.first_problem[name]}")


def end_to_end(workload, seed, seconds, cat, work):
    # set-up: a config the workload generates, parsed by fresh interpreters
    jobs = wl.generate(workload, seed, 0, work / "setup")
    config = next(work / "setup" / f"{j.id}.cfg" for j in jobs if j.config is not None)
    # half of the fresh interpreters before the timed phase and half after it,
    # so that set-up time samples the host at both ends of the run
    setup_all = harness.measure_setup(ROOT, config, (harness.SETUP_REPEATS + 1) // 2)

    harness.warm_up(workload, seed, cat, work)
    phase = harness.run_phase(workload, seed, cat, work, seconds=seconds)
    rss = harness.peak_rss_mb()
    setup_all += harness.measure_setup(ROOT, config, harness.SETUP_REPEATS // 2)
    setup_s = statistics.median(setup_all)

    ok_latencies = phase.latencies_s
    if not ok_latencies:
        _failure_lines(phase)
        sys.exit("perfbench: no job passed its check")
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "jobs_per_s": _metric(phase.jobs_per_s, "1/s"),
        "job_p50_ms": _metric(statistics.median(ok_latencies) * 1e3, "ms"),
    }
    extras = {"setup_s": f"median of {len(setup_all)} fresh interpreters",
              "jobs_per_s": f"{phase.attempted - phase.failed} jobs ok in "
                            f"{phase.wall_s:.3f} s, {phase.cycles} cycles"}
    t = harness.tail(ok_latencies)
    if t is None:
        print(f"job_tail_ms omitted: {len(ok_latencies)} jobs leave no percentile "
              f">= p{harness.TAIL_MIN_PCT:g} with {harness.TAIL_BEYOND} beyond")
    else:
        pct, value, beyond = t
        metrics["job_tail_ms"] = _metric(value * 1e3, "ms")
        extras["job_tail_ms"] = f"p{pct:.2f} of {len(ok_latencies)} jobs, {beyond} beyond"
    metrics["peak_rss_mb"] = _metric(rss, "MB")
    _report(metrics, extras)
    print(f"failed_frac {phase.failed / phase.attempted!r} "
          f"({phase.failed} of {phase.attempted} jobs; {phase.incorrect} with exit 0)")
    _failure_lines(phase)
    return phase, metrics


def per_layer(workload, seed, cat, work):
    cycles = TRACE_CYCLES[workload.name]
    harness.warm_up(workload, seed, cat, work)
    base = harness.run_phase(workload, seed, cat, work, cycles=cycles)

    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        traced = harness.run_phase(workload, seed, cat, work, cycles=cycles, tracer=tr)
        metrics = _layer_metrics(tr, traced)
        metrics["trace.overhead_ratio"] = _metric(traced.jobs_per_s / base.jobs_per_s, "ratio")
        _report_modules(tr)
        tr.reset()
        rungs = ladder.run(cat, tr)
    finally:
        restore()
    for name, value in rungs.items():
        metrics[name] = _metric(value, ladder.RUNGS[name])
    metrics["cli.golden_mismatches"] = _metric(golden.mismatches(cat, work / "golden"), "count")
    print(f"traced {cycles} cycles: {traced.attempted} jobs, "
          f"{traced.failed} failed; plain pass {base.jobs_per_s!r} jobs/s")
    _report(metrics)
    _failure_lines(traced)
    return base, traced, metrics


def _layer_metrics(tr, phase):
    m = {}
    for mod in tracing.LAYERS:
        m[f"{mod}.busy_s"] = _metric(tr.module_busy_s(mod), "s")
    calls = tr.calls
    points = calls["fidelity.fidelity_at"]
    m["fidelity.fidelity_curve.calls"] = _metric(calls["fidelity.fidelity_curve"], "count")
    m["fidelity.fidelity_at.calls"] = _metric(points, "count")
    m["fidelity.us_per_point"] = _metric(
        tr.module_busy_s("fidelity") / points * 1e6 if points else 0.0, "us")
    m["dynamics.u_full.calls"] = _metric(calls["dynamics.u_full"], "count")
    m["dynamics.u_simplified.calls"] = _metric(calls["dynamics.u_simplified"], "count")
    m["cli.rows"] = _metric(phase.rows, "count")
    m["config.load_config.calls"] = _metric(calls["config.load_config"], "count")
    m["protocol.run_protocol.calls"] = _metric(calls["protocol.run_protocol"], "count")
    m["protocol.sample_outcomes.busy_s"] = _metric(tr.self_s["protocol.sample_outcomes"], "s")
    m["protocol.trials"] = _metric(tr.counters["protocol.trials"], "count")
    for fn in ("overlap", "state_overlap", "merge_terms"):
        m[f"states.{fn}.calls"] = _metric(calls[f"states.{fn}"], "count")
    rhs = tr.counters["oracle.rhs_calls"]
    steps = tr.counters["oracle.rk4_steps"]
    m["oracle.evolve_lindblad.calls"] = _metric(calls["oracle.evolve_lindblad"], "count")
    m["oracle.rhs_calls"] = _metric(rhs, "count")
    m["oracle.rhs_ms"] = _metric(
        tr.self_s["oracle.evolve_lindblad"] / rhs * 1e3 if rhs else 0.0, "ms")
    m["oracle.useful_step_frac"] = _metric(
        tr.counters["oracle.rk4_steps_kept"] / steps if steps else 0.0, "ratio")
    m["oracle.mixture_to_fock.busy_s"] = _metric(tr.self_s["oracle.mixture_to_fock"], "s")
    m["oracle.oracle_fidelity.busy_s"] = _metric(tr.self_s["oracle.oracle_fidelity"], "s")
    m["oracle.coherent_to_fock.calls"] = _metric(calls["oracle.coherent_to_fock"], "count")
    for mod in tracing.LAYERS:
        m[f"{mod}.errors"] = _metric(tr.errors[mod], "count")
    return m


def _report_modules(tr):
    total = sum(tr.module_busy_s(mod) for mod in tracing.LAYERS)
    print("module self time in the traced pass (share of traced program time):")
    for mod in tracing.LAYERS:
        busy = tr.module_busy_s(mod)
        top = sorted((k for k in tr.self_s if k.startswith(mod + ".")),
                     key=lambda k: -tr.self_s[k])[:3]
        detail = ", ".join(f"{k.split('.', 1)[1]} {tr.self_s[k]:.3f}s/{tr.calls[k]}" for k in top)
        print(f"  {mod:9s} {busy:9.4f} s {100 * busy / total if total else 0:5.1f}%  {detail}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    cat = harness.load_program()
    workload = wl.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"why: {workload.why}")
    print(f"mix: {workload.ranges}")
    print("load: closed loop, 1 client, 1 process, jobs back to back; "
          f"BLAS threads {bootstrap.BLAS_THREADS}")
    print("provenance " + json.dumps(harness.provenance(ROOT), sort_keys=True))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        work = Path(tmp)
        if args.trace:
            base, phase, metrics = per_layer(workload, args.seed, cat, work)
            incorrect = base.incorrect + phase.incorrect
        else:
            phase, metrics = end_to_end(workload, args.seed, args.seconds, cat, work)
            incorrect = phase.incorrect
    print(json.dumps({"correct": incorrect == 0, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
