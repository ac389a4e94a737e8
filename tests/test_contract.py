"""The CLI's exit contract over every config ``RunConfig`` accepts.

Whatever the keys, the subcommand and its flags, ``main`` returns 0, 2, 3 or
4, raises nothing, and writes neither a traceback nor a warning to stderr.
"""

import contextlib
import io
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import assume, example, given
from hypothesis import strategies as st

from catteleport.cli import MAX_TRIALS, ORACLE_MAX_STEPS, main
from catteleport.config import MAX_AMPLITUDE, RunConfig

DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
AMPLITUDE_KEYS = ("alpha_re", "alpha_im", "beta_re", "beta_im")
EDGES = (0.0, 1e-300, 5e-324, 1e300)

# Caps that only bound run time; none of them hides a known defect.
# Every subcommand's work grows with n_points (figure2 fixes its own 200).
MAX_POINTS = 200
# The oracle subcommands' Fock basis grows as |alpha|**2: 49 levels at 3.
# Above 3, up to the config's bound of 10, they are skipped.
ORACLE_MAX_ALPHA = 3.0
# oracle-check below its step budget takes about 11 times this many RK4
# steps; configs between this and the budget are skipped, the ones above the
# budget (rejected at once) are kept.
ORACLE_CHECK_STEPS = 100


def float_values(name, drawn):
    """A float key's boundary values, values near its default and any finite
    float (any float within the amplitude bound for the cat amplitudes)."""
    default = DEFAULTS[name]
    edges = [*EDGES, default, -default]
    if name == "Delta_Hz":
        edges.append(-DEFAULTS["delta_Hz"])
    if name == "delta_Hz":
        edges.append(-drawn.get("Delta_Hz", DEFAULTS["Delta_Hz"]))
    if name in AMPLITUDE_KEYS:
        anywhere = st.floats(-MAX_AMPLITUDE, MAX_AMPLITUDE)
        near = st.floats(-3.0, 3.0)
    else:
        anywhere = st.floats(allow_nan=False, allow_infinity=False)
        scale = abs(default) or 1e3
        near = st.floats(-2.0, 1.0).map(lambda e: scale * 10.0 ** e)
    return st.one_of(st.sampled_from(edges), near, anywhere)


def int_values(name):
    default = DEFAULTS[name]
    edges = st.sampled_from([0, default, -default])
    if name == "parity":
        return edges
    if name == "n_points":
        return st.one_of(edges, st.integers(1, MAX_POINTS))
    return st.one_of(edges, st.integers(-1, 2 ** 70))   # seed


@st.composite
def configs(draw):
    """Up to six keys away from their defaults, drawn in field order."""
    keys = draw(st.sets(st.sampled_from(list(DEFAULTS)), max_size=6))
    cfg = {}
    for name, default in DEFAULTS.items():   # a key's type is its default's
        if name not in keys:
            continue
        if type(default) is float:
            cfg[name] = draw(float_values(name, cfg))
        elif type(default) is bool:
            cfg[name] = draw(st.booleans())
        elif type(default) is int:
            cfg[name] = draw(int_values(name))
        else:
            cfg[name] = draw(st.sampled_from(["rotating", "lab"]))
    return cfg


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["coeffs", "protocol", "fidelity", "figure2",
                                    "oracle-check"]))
    argv = [command]
    if command == "protocol" and draw(st.booleans()):
        trials = st.integers(0, 10_000) | st.sampled_from([-1, MAX_TRIALS + 1, 10 ** 15])
        argv += ["--trials", str(draw(trials))]
    if command == "fidelity" and draw(st.booleans()):
        argv.append("--oracle")
    return argv


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _steps(cfg):
    """RK4 steps oracle-check takes to reach t_max_s, as it counts them."""
    inv = [cfg.get(key, DEFAULTS[key]) for key in ("gamma11_inv_s", "gamma22_inv_s")]
    if min(inv) <= 0.0:   # rejected at load
        return 0.0
    gbar = 0.5 * (1.0 / inv[0] + 1.0 / inv[1])
    return 50.0 * gbar * cfg.get("t_max_s", DEFAULTS["t_max_s"])


def _oracle(argv):
    return argv[0] == "oracle-check" or "--oracle" in argv


@given(cfg=configs(), argv=commands())
@example(cfg={"delta_Hz": -1e7}, argv=["protocol"])
@example(cfg={"gamma11_inv_s": 1e-9}, argv=["oracle-check"])
# gamma_bar * t overflows to -inf in the decay factor
@example(cfg={"t_max_s": 1.7976931348623157e308}, argv=["fidelity", "--oracle"])
# omega1 * t overflows to inf in the free-evolution phase
@example(cfg={"t_max_s": 1e300, "frame": "lab"}, argv=["fidelity"])
# a grid too large to hold in memory
@example(cfg={"n_points": 100000000000}, argv=["coeffs"])
def test_every_config_exits_by_contract(cfg, argv):
    if _oracle(argv):
        alpha = math.hypot(cfg.get("alpha_re", 1.0), cfg.get("alpha_im", 0.0))
        assume(not ORACLE_MAX_ALPHA < alpha <= MAX_AMPLITUDE)
    if argv[0] == "oracle-check":
        assume(not ORACLE_CHECK_STEPS < _steps(cfg) <= ORACLE_MAX_STEPS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {_format(v)}\n" for k, v in cfg.items()))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (code, text)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in text and "Warning" not in text, text
