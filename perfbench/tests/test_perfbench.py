"""Tests of the benchmark's own machinery: generation, self time, tail rule."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import harness, tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402


def _tree(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workload = wl.WORKLOADS[name]
    for run in ("a", "b", "c"):
        seed = 7 if run != "c" else 8
        for cycle in (None, 0, 1):
            wl.generate(workload, seed, cycle, tmp_path / run / str(cycle))
    first, again, other = (_tree(tmp_path / r) for r in "abc")
    assert first == again
    assert first != other
    assert any(k.endswith(".cfg") for k in first)


def test_cycles_keep_their_strata_across_seeds():
    for workload in wl.WORKLOADS.values():
        mixes = {tuple(sorted(j.name for j in workload.cycle(
                     wl.cycle_rng(s, workload, 0), wl.lattice(s, workload, 0))))
                 for s in range(5)}
        assert len(mixes) == 1, workload.name


def test_self_time_on_synthetic_span_tree():
    spans = [
        tracing.Span("cli.main", -1, 0.0, 10.0),
        tracing.Span("fidelity.fidelity_curve", 0, 1.0, 4.0),
        tracing.Span("dynamics.u_simplified", 0, 5.0, 9.0),
        tracing.Span("fidelity.fidelity_at", 2, 6.0, 8.0),
        tracing.Span("fidelity.fidelity_at", 1, 2.0, 2.5),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({
        "cli.main": 10.0 - 3.0 - 4.0,
        "fidelity.fidelity_curve": 3.0 - 0.5,
        "dynamics.u_simplified": 4.0 - 2.0,
        "fidelity.fidelity_at": 2.0 + 0.5,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_folds_spans_and_counts_an_error_once_per_module(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(clock)))
    tr = tracing.Tracer()

    def inner():
        raise ValueError("boom")

    inner_t = tr.wrap("states.inner", inner)

    def middle():
        return inner_t()

    middle_t = tr.wrap("states.middle", middle)

    def outer():
        try:
            middle_t()
        except ValueError:
            return "caught"

    outer_t = tr.wrap("protocol.outer", outer)
    tr.active = True
    assert outer_t() == "caught"
    assert tr.errors == {"states": 1}
    assert tr.calls == {"protocol.outer": 1, "states.middle": 1, "states.inner": 1}
    # clock ticks: outer 0..5, middle 1..4, inner 2..3
    assert tr.self_s == {"protocol.outer": 2.0, "states.middle": 2.0, "states.inner": 1.0}
    assert tr.root_durations["protocol.outer"] == [5.0]


def test_rk4_work_is_counted_from_the_arguments():
    counters = {"oracle.rhs_calls": 0, "oracle.rk4_steps": 0, "oracle.rk4_steps_kept": 0}
    tracing._rk4_counts(counters, {"t": 1e-3, "dt_max": 1e-4, "verify_step": True})
    tracing._rk4_counts(counters, {"t": 2.5e-4, "dt_max": 1e-4})
    tracing._rk4_counts(counters, {"t": 0.0, "dt_max": 1e-4})
    assert counters["oracle.rhs_calls"] == 4 * (3 * 10) + 4 * 3
    assert counters["oracle.rk4_steps_kept"] / counters["oracle.rk4_steps"] == (20 + 3) / (30 + 3)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 101)]
    pct, value, beyond = harness.tail(lat)
    assert (pct, value, beyond) == (90.0, 90.0, 10)
    pct, value, beyond = harness.tail(lat[:37])
    assert value == 27.0 and beyond == 10 and pct == pytest.approx(100 * 27 / 37)


def test_tail_steps_below_ties():
    lat = [1.0] * 30 + [5.0] * 5 + [9.0] * 8
    pct, value, beyond = harness.tail(lat)
    assert value == 1.0 and beyond == 13 and pct == pytest.approx(100 * 30 / 43)


@pytest.mark.parametrize("n", [0, 5, 10, 11, 19])
def test_tail_is_omitted_when_the_run_is_too_short(n):
    assert harness.tail([float(i) for i in range(n)]) is None


def test_tail_needs_twenty_jobs_for_the_median():
    assert harness.tail([float(i) for i in range(20)])[0] == 50.0
