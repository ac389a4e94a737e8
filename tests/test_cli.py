import argparse
import csv
import errno
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catteleport import cli, dynamics, oracle
from catteleport.cli import _write_csv, build_parser, cmd_coeffs, main
from catteleport.config import (
    MAX_N_POINTS,
    RunConfig,
    default_config,
    load_config,
    parse_config,
)
from catteleport.dynamics import (
    coefficient_grid,
    decoherence_Z,
    drain_params,
    to_rotating_frame,
    u_full,
    u_simplified,
)
from catteleport.errors import ConfigError, ConsistencyError
from catteleport.fidelity import build_rho1, fidelity


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def bits(rows):
    """The IEEE bit patterns of a float table, so that -0.0 != 0.0."""
    return np.array(rows, dtype=float).view(np.int64)


def coeffs_reference(cfg):
    """cmd_coeffs' rows point by point through the scalar functions.

    Returns the rows before the first point where a scalar function raises,
    and that point's t (None when none raises).
    """
    ms = cfg.mode_system()
    p = drain_params(ms)
    rows = []
    for t in np.linspace(0.0, cfg.t_max_s, cfg.n_points):
        t = float(t)
        try:
            full = u_full(p, t)
            if cfg.rotating_frame:
                full = to_rotating_frame(full, ms, t)
            simp = u_simplified(ms, t, rotating_frame=cfg.rotating_frame)
        except (ConsistencyError, ValueError):   # u_full's, or cmath's domain error
            return rows, t
        zs = [z for u in (full, simp) for z in (u.u11, u.u12, u.u21, u.u22)]
        dev = max(abs(a - b) for a, b in zip(zs[:4], zs[4:]))
        row = [t]
        for z in zs:
            row += [complex(z).real, complex(z).imag]
        row.append(dev)
        rows.append(row)
    return rows, None


@st.composite
def coeffs_configs(draw):
    """Both frames, gamma12 = gamma21 up to the ModeSystem bound, 2-2000
    points, and t_max_s * gamma_bar over decades, past where u_full overflows."""
    inv11, inv22 = (10.0 ** draw(st.floats(-5.0, -1.0)) for _ in range(2))
    rho = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    cross = rho * math.sqrt(1.0 / inv11 / inv22)
    gbar = 0.5 * (1.0 / inv11 + 1.0 / inv22)
    decades = draw(st.floats(-3.0, 4.0) | st.floats(4.0, 306.0))
    try:
        return RunConfig(gamma11_inv_s=inv11, gamma22_inv_s=inv22, gamma12=cross,
                         gamma21=cross, Delta_Hz=10.0 ** draw(st.floats(2.0, 8.0)),
                         t_max_s=10.0 ** decades / gbar, n_points=draw(st.integers(2, 2000)),
                         frame=draw(st.sampled_from(["rotating", "lab"])))
    except ConfigError:   # rho = 1 can round past gamma12 * gamma21 <= gamma11 * gamma22
        return default_config()


def _env():
    """The environment of a ``python -m catteleport`` child that imports this tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


class FailingStream:
    """A text stream over a real file whose ``fail_at`` call raises ``exc``:
    the first write ("header"), the second ("rows"), ``flush`` or ``close``
    (which closes the file first)."""

    def __init__(self, path, fail_at, exc):
        self._file = open(path, "w", encoding="utf-8", newline="")
        self.fail_at, self.exc, self.writes = fail_at, exc, 0

    def _call(self, name):
        if name == self.fail_at:
            raise self.exc

    def write(self, text):
        self.writes += 1
        self._call({1: "header", 2: "rows"}.get(self.writes))
        return self._file.write(text)

    def flush(self):
        self._call("flush")
        self._file.flush()

    def close(self):
        self._file.close()
        self._call("close")

    def fileno(self):
        return self._file.fileno()

    @property
    def closed(self):
        return self._file.closed

    def release(self):
        """Close the file, whatever ``fail_at`` is."""
        self._file.close()


class TestConfigParsing:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.gamma11_inv_s == 1e-3
        assert cfg.alpha == 1.0
        assert cfg.rotating_frame is True

    def test_parse_overrides_and_comments(self):
        cfg = parse_config("# a comment\nalpha_re = 1.5\nseed=42\n\n")
        assert cfg.alpha == 1.5
        assert cfg.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_re=1.0\nbogus_key=3\n")

    @pytest.mark.parametrize("key", ["t_tel_s", "g_Hz"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key}=1e-4\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_re 1.0\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_points=many\n")

    @pytest.mark.parametrize("n_points", [2, MAX_N_POINTS])
    def test_n_points_bounds_accepted(self, n_points):
        assert parse_config(f"n_points = {n_points}\n").n_points == n_points

    @pytest.mark.parametrize("n_points", [-5, 0, 1, MAX_N_POINTS + 1])
    def test_n_points_out_of_bounds_rejected(self, n_points):
        with pytest.raises(ConfigError, match=f"n_points .*got {n_points}$"):
            parse_config(f"n_points = {n_points}\n")

    def test_cat_coefficients_normalized(self):
        cfg = parse_config("c_plus=1.0\nc_minus=1.0\n")
        pc = cfg.protocol_config()
        assert pc.c_plus == pytest.approx(1.0 / math.sqrt(2.0))
        assert pc.c_minus == pytest.approx(1.0 / math.sqrt(2.0))

    def test_vanishing_cat_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("c_plus=0.0\nc_minus=0.0\n")

    @pytest.mark.parametrize("text, keys", [
        ("alpha_re=0\nparity=-1\n", ("alpha_re", "alpha_im", "parity")),
        ("beta_re=0\nparity=-1\n", ("beta_re", "beta_im")),
        ("beta_re=0\n", ("beta_re", "beta_im")),
    ], ids=["null_mode1_cat", "null_mode2_cat", "vacuum_reference"])
    def test_null_cat_rejected_naming_its_keys(self, tmp_path, capsys, text, keys):
        p = tmp_path / "null.cfg"
        p.write_text(text)
        code, _ = run_cli(tmp_path, "fidelity", "--config", str(p))
        assert code == 2
        err = capsys.readouterr().err
        assert all(k in err for k in keys), err

    # sha256 of the CSV each command wrote when the key was set by its flag
    # (--frame lab, --no-spectator-phase, --seed 3): the key alone keeps
    # those bytes
    @pytest.mark.parametrize("argv, text, digest", [
        (["coeffs"], "frame = lab\n",
         "00f14a57b03ea8dc0e1224de5da9dc25550f30949db8bb78137d723e3ae34a5d"),
        (["fidelity"], "frame = lab\n",
         "62087d7f8d629523802cccfa96f1824d2b951f53fc85b5f192cee7ca88a9015d"),
        (["figure2"], "frame = lab\n",
         "3434969ac4e2c7e4b6970eb383ca788bc9392ebadbaa87676a31b799c3203fac"),
        (["fidelity"], "spectator_phase_on = false\n",
         "517592c16b606be7f0e4d9c33646a2e7f0ea8da231d9b056f1bbdcb760e7359e"),
        (["protocol"], "spectator_phase_on = false\n",
         "3de31dfb1d3acae2398134eb852008cc13a29e4390a1712e84b32fe4db6738ac"),
        (["protocol", "--trials", "500"], "seed = 3\n",
         "f6a1f01f467641d504526fac1864118b50748a22b0f06e58ac56c19ec2544af3"),
    ], ids=["coeffs_frame", "fidelity_frame", "figure2_frame", "fidelity_spectator_phase",
            "protocol_spectator_phase", "protocol_seed"])
    def test_run_keys_give_the_bytes_of_the_flags_they_replace(self, tmp_path, argv, text,
                                                               digest):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code, out = run_cli(tmp_path, *argv, "--config", str(p))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert out != run_cli(tmp_path, *argv)[1]

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--frame", "lab"],
                                      ["--no-spectator-phase"]], ids=["seed", "frame",
                                                                      "no_spectator_phase"])
    @pytest.mark.parametrize("command", ["coeffs", "protocol", "fidelity", "figure2",
                                         "oracle-check"])
    def test_run_parameter_flags_are_unrecognized(self, tmp_path, capsys, command, flag):
        # seed, frame and spectator_phase_on are set in the config file only
        with pytest.raises(SystemExit) as exit_:
            run_cli(tmp_path, command, *flag)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    # the nine command-key pairs whose flag changed no byte: the command does
    # not read the key (protocol reads seed only to sample --trials runs)
    @pytest.mark.parametrize("command, text", [
        ("coeffs", "spectator_phase_on = false\n"),
        ("coeffs", "seed = 3\n"),
        ("protocol", "frame = lab\n"),
        ("protocol", "seed = 3\n"),
        ("fidelity", "seed = 3\n"),
        ("figure2", "spectator_phase_on = false\n"),
        ("figure2", "seed = 3\n"),
        ("oracle-check", "frame = lab\n"),
        ("oracle-check", "spectator_phase_on = false\n"),
    ], ids=["coeffs_spectator_phase", "coeffs_seed", "protocol_frame", "protocol_seed",
            "fidelity_seed", "figure2_spectator_phase", "figure2_seed", "oracle_check_frame",
            "oracle_check_spectator_phase"])
    def test_run_keys_a_command_does_not_read_leave_its_bytes(self, tmp_path, command, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code, out = run_cli(tmp_path, command, "--config", str(p))
        assert code == 0 and out == run_cli(tmp_path, command)[1]

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("beta_re=2.0\nframe=lab\n")
        cfg = load_config(str(p))
        assert cfg.beta == 2.0
        assert cfg.rotating_frame is False


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense=1\n")
        code, _ = run_cli(tmp_path, "coeffs", "--config", str(p))
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "coeffs", "--config",
                          str(tmp_path / "absent.cfg"))
        assert code == 2

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        p = tmp_path / "latin1.cfg"
        p.write_bytes(b"alpha_re = 1.5  # \xff\n")
        code, out = run_cli(tmp_path, "coeffs", "--config", str(p))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert f"cannot read config {str(p)!r}" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("option, name", [("--config", "config ''"), ("--out", "--out ''")])
    def test_empty_path_exits_2_naming_the_option(self, capsys, option, name):
        code = main(["coeffs", option, ""])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert name in captured.err and "Traceback" not in captured.err, captured.err

    def test_truncation_breach_exits_4(self, tmp_path, monkeypatch):
        from catteleport import cli
        from catteleport.errors import TruncationBreach

        def boom(cfg, out):
            raise TruncationBreach("forced")

        monkeypatch.setattr(cli, "cmd_coeffs", boom)
        code, _ = run_cli(tmp_path, "coeffs")
        assert code == 4

    def test_invariant_breach_exits_3(self, tmp_path, monkeypatch):
        from catteleport import cli
        from catteleport.errors import ConsistencyError

        def boom(cfg, out):
            raise ConsistencyError("forced")

        monkeypatch.setattr(cli, "cmd_coeffs", boom)
        code, _ = run_cli(tmp_path, "coeffs")
        assert code == 3

    @pytest.mark.parametrize("text, argv, out, name", [
        ("", ["coeffs"], "missing/out.csv", "--out"),
        ("gamma11_inv_s = nan\n", ["coeffs"], "out.csv", "gamma11_inv_s"),
        ("t_max_s = inf\n", ["fidelity"], "out.csv", "t_max_s"),
        ("alpha_re = inf\n", ["oracle-check"], "out.csv", "alpha_re"),
        ("", ["protocol", "--trials", "-5"], "out.csv", "--trials"),
        ("seed = -1\n", ["protocol", "--trials", "10"], "out.csv", "seed"),
        ("seed = -1\n", ["protocol"], "out.csv", "seed"),
        ("alpha_re = 1e200\n", ["fidelity"], "out.csv", "alpha_re"),
        ("alpha_re = 1e3\n", ["protocol"], "out.csv", "alpha_re"),
        ("alpha_im = 1e50\n", ["coeffs"], "out.csv", "alpha_im"),
        ("alpha_re = 40\n", ["fidelity", "--oracle"], "out.csv", "alpha_re"),
        ("beta_re = 20\n", ["protocol"], "out.csv", "beta_re"),
        ("delta_Hz = -1e7\n", ["fidelity"], "out.csv", "delta_Hz = -Delta_Hz"),
        ("", ["protocol", "--trials", "1000000000000000"], "out.csv", "--trials"),
        ("n_points = 100000000000\n", ["coeffs"], "out.csv", "n_points"),
        ("n_points = 1000001\n", ["fidelity"], "out.csv", "n_points"),
        ("delta_Hz = 1.7e308\n", ["fidelity"], "out.csv", "delta_Hz"),
        # finite keys whose angular frequency or rate is infinite
        ("Delta_Hz = 1e308\n", ["coeffs"], "out.csv", "Delta_Hz"),
        ("gamma11_inv_s = 5e-324\n", ["coeffs"], "out.csv", "gamma11_inv_s"),
        ("gamma11_inv_s = 5e-324\n", ["fidelity"], "out.csv", "gamma11_inv_s"),
        # the other ModeSystem checks name the keys behind the fields too
        ("Delta_Hz = -1e7\n", ["coeffs"], "out.csv", "Delta_Hz"),
        ("gamma12 = 2e3\ngamma21 = 2e3\n", ["coeffs"], "out.csv", "gamma11_inv_s"),
        # the library's checks of the readout and the cat name their keys too
        ("beta_re = 1e-9\n", ["protocol"], "out.csv", "beta_re, beta_im"),
        ("parity = 0\n", ["fidelity"], "out.csv", "set by parity"),
    ], ids=["out_dir_missing", "nan_damping", "inf_t_max", "inf_alpha",
            "negative_trials", "negative_seed_key", "negative_seed_key_without_trials",
            "huge_alpha", "large_alpha_protocol", "huge_alpha_im", "alpha_40_oracle",
            "large_beta", "detunings_cancel", "trials_beyond_memory",
            "n_points_beyond_memory", "n_points_above_bound",
            "spectator_phase_overflow", "infinite_mode2_frequency",
            "infinite_damping_rate_coeffs", "infinite_damping_rate",
            "inverted_frequencies", "excess_cross_damping", "unreadable_beta",
            "parity_zero"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, text, argv, out, name):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code = main([*argv, "--config", str(p), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err and "Traceback" not in err, err

    @pytest.mark.parametrize("text, argv, names", [
        ("gamma11_inv_s = 1e-9\n", ["coeffs"], ["u_full overflows at t="]),
        ("gamma11_inv_s = 1e-300\n", ["coeffs"], ["u_full overflows at t="]),
        ("t_max_s = 1e300\n", ["coeffs"], ["u_full overflows at t=", "t_max_s"]),
        ("c_plus = 1e300\n", ["oracle-check"], ["decoherence_Z", "c_plus", "c_minus"]),
        ("t_max_s = 1e300\nframe = lab\n", ["fidelity"],
         ["u11 is not finite at t=", "free-evolution phase", "t_max_s"]),
        # the unscaled u_full overflows where the true entries are small
        ("lamb12_Hz = 1e300\nlamb21_Hz = 1e300\n", ["coeffs"],
         ["u_full is not finite at t=0.0;", "t_max_s"]),
        ("gamma11_inv_s = 1e-5\ngamma22_inv_s = 0.1\nDelta_Hz = 100\nt_max_s = 0.0284\n"
         "n_points = 2000\n", ["coeffs"], ["u_full is not finite at t=0.0284;", "t_max_s"]),
    ], ids=["cosh_overflow", "square_overflow", "phase_overflow_before_t_max",
            "cat_coherence_lost_to_rounding", "fidelity_phase_overflow",
            "huge_cross_lamb_shifts", "u22_overflow_at_t_max"])
    def test_overflowing_rates_exit_3_naming_the_stage(self, tmp_path, capsys,
                                                        text, argv, names):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code = main([*argv, "--config", str(p), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert all(n in err for n in names), err
        assert "Traceback" not in err and "Warning" not in err, err

    @pytest.mark.parametrize("command", ["coeffs", "fidelity"])
    def test_mean_damping_rate_of_finite_rates_stays_finite(self, tmp_path, command):
        # gamma11 + gamma22 = 2e308 overflows; their mean 1e308 does not
        p = tmp_path / "run.cfg"
        p.write_text("gamma11_inv_s = 1e-308\ngamma22_inv_s = 1e-308\n")
        code, text = run_cli(tmp_path, command, "--config", str(p))
        values = np.array(list(csv.reader(io.StringIO(text)))[1:], dtype=float)
        assert code == 0 and len(values) == 200
        assert np.isfinite(values).all()

    def test_oracle_check_over_step_budget_exits_2_at_once(self, tmp_path):
        # 2.5e7 RK4 steps per time point: without a budget this runs for days
        cfg = tmp_path / "fast_decay.cfg"
        cfg.write_text("gamma11_inv_s = 1e-9\n")
        proc = subprocess.run([sys.executable, "-m", "catteleport", "oracle-check",
                               "--config", str(cfg), "--out", str(tmp_path / "out.csv")],
                              capture_output=True, text=True, env=_env(), timeout=30)
        assert proc.returncode == 2
        assert all(k in proc.stderr for k in ("gamma11_inv_s", "gamma22_inv_s", "t_max_s"))

    def test_closed_stdout_pipe_exits_0_quietly(self, tmp_path):
        # the reader stops after the header, as `| head -1` does
        cfg = tmp_path / "long.cfg"
        cfg.write_text("n_points = 20000\n")
        proc = subprocess.Popen([sys.executable, "-m", "catteleport", "coeffs",
                                 "--config", str(cfg)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
        try:
            assert proc.stdout.readline().startswith(b"t,")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (0, b"")

    @pytest.mark.parametrize("command", ["figure2", "protocol"])   # a table, list rows
    def test_closed_stdout_exits_2_naming_it(self, command):
        # `>&-`: the child starts with fd 1 closed, so its sys.stdout is None
        proc = subprocess.run(["sh", "-c", '"$0" -m catteleport "$1" >&-', sys.executable,
                               command], stderr=subprocess.PIPE, text=True, env=_env(),
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "config error: cannot write the CSV to stdout: it is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_at_out_exits_2_naming_it(self, capsys):
        assert main(["figure2", "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out '/dev/full'" in err, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_at_stdout_exits_2_naming_it(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "catteleport", "figure2"], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "stdout" in proc.stderr, proc.stderr

    @pytest.mark.parametrize("command", ["figure2", "protocol"])   # a table, list rows
    @pytest.mark.parametrize("fail_at", ["header", "rows", "flush", "close"])
    def test_write_error_at_out_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                  command, fail_at):
        opened = []

        def failing_open(path, *args, **kwargs):
            opened.append(FailingStream(path, fail_at, OSError(errno.ENOSPC, "disk full")))
            return opened[0]

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        path = str(tmp_path / "out.csv")
        assert main([command, "--out", path]) == 2
        assert capsys.readouterr().err == \
            f"config error: cannot write the CSV to --out {path!r}: disk full\n"
        assert opened[0].closed

    @pytest.mark.parametrize("command", ["figure2", "protocol"])
    @pytest.mark.parametrize("fail_at", ["header", "rows", "flush"])
    def test_write_error_at_stdout_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                     command, fail_at):
        stdout = FailingStream(tmp_path / "stdout", fail_at, OSError(errno.EIO, "I/O error"))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main([command]) == 2
            # nothing more reaches stdout: the flush at exit writes to /dev/null
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        finally:
            stdout.release()
        assert capsys.readouterr().err == \
            "config error: cannot write the CSV to stdout: I/O error\n"

    @pytest.mark.parametrize("command, ok", [("figure2", True), ("protocol", True),
                                             ("protocol", False)])
    @pytest.mark.parametrize("fail_at", ["header", "rows", "flush"])
    def test_broken_stdout_pipe_ends_quietly_with_the_runs_code(self, tmp_path, monkeypatch,
                                                               capsys, command, ok, fail_at):
        if not ok:
            header, rows, _ = cli.cmd_protocol(default_config(), build_parser().parse_args(
                ["protocol"]))
            monkeypatch.setattr(cli, "cmd_protocol", lambda cfg, args: (header, rows, False))
        stdout = FailingStream(tmp_path / "stdout", fail_at, BrokenPipeError(errno.EPIPE, "pipe"))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main([command]) == (0 if ok else 3)
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        finally:
            stdout.release()
        assert capsys.readouterr().err == ""

    def test_ok_exit_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "protocol")
        assert code == 0

    def test_parser_is_built_once_and_commands_are_looked_up_per_call(self, tmp_path,
                                                                     monkeypatch):
        build_parser.cache_clear()
        assert run_cli(tmp_path, "protocol")[0] == 0
        # a double installed after the parser exists is the one that runs
        monkeypatch.setattr(cli, "cmd_coeffs", lambda cfg, args: (["t"], [[0.5]], True))
        assert run_cli(tmp_path, "coeffs") == (0, "t\n0.5\n")
        info = build_parser.cache_info()
        assert (info.hits, info.misses) == (1, 1)


README = Path(__file__).resolve().parent.parent / "README.md"


def parser_options():
    """The long options of each subcommand of ``build_parser()``, and those
    of the top-level parser, without --help."""
    def options(parser):
        return {o for action in parser._actions for o in action.option_strings
                if o.startswith("--") and o != "--help"}

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: options(p) for name, p in sub.choices.items()}, options(parser)


def test_readme_cli_synopsis_lists_each_subcommands_options():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    listed = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
              for line in block.splitlines()}
    commands, top = parser_options()
    assert listed == commands
    assert set().union(top, *commands.values()) == {
        "--config", "--out", "--trials", "--oracle", "--version"}


def test_csv_writer_formats_each_value_by_its_type():
    # floats as %.17g, anything else as str()
    rows = [["s", i, np.int64(-i), i / 7.0, np.float64(-i / 3.0)] for i in range(1100)]
    rows += [["e", 0, np.int64(0), -0.0, np.float64("nan")],
             ["f", 1, np.int64(1), math.inf, np.float64(5e-324)]]
    out = io.StringIO()
    _write_csv(out, ["a", "b", "c", "d", "e"], rows)
    expected = "".join(
        ",".join(format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)
                 for v in row) + "\n" for row in rows)
    assert out.getvalue() == "a,b,c,d,e\n" + expected


def written(rows):
    out = io.StringIO()
    _write_csv(out, ["h"], rows)
    return out.getvalue()


def assert_table_bytes_equal_the_template(table):
    """The float-table writer's bytes against the % template's, for the same
    values given as a list."""
    table = np.asarray(table, dtype=float)
    got, want = written(table).splitlines(), written(table.tolist()).splitlines()
    if got != want:   # named line by line: a diff of the whole text takes minutes
        bad = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b][:3]
        pytest.fail(f"{len(got)} lines, template {len(want)}; first differences {bad}")


def _kernel_cases():
    rng = np.random.default_rng(2021)
    powers = [10.0 ** k for k in range(-30, 31)] + [1e16, 1e17]
    return {
        "random_bit_patterns": rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(float),
        "powers_of_ten_and_neighbours": np.concatenate(
            [[np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)] for p in powers]),
        # every k/2**18 with 17 significant digits ends in an exact decimal 5
        "exact_ties": np.arange(26215, 262144, 2) / 2.0 ** 18,
        "extremes": np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0,
                              -0.0, -5e-324]),
        "outside_1e-280_to_1e280": np.array([1e-300, -9.99e-281, 1.0000000000000001e280,
                                             -3e290, 1e308, 7e-310]),
    }


class TestFloatTableWriter:
    """The float-table kernel writes the % template's bytes, with no tolerance."""

    @given(st.lists(st.floats(), min_size=1, max_size=60), st.sampled_from([1, 2, 5]))
    @example([math.nan, -math.inf, math.inf, -0.0, 0.0], 2)
    def test_any_floats(self, values, cols):
        assert_table_bytes_equal_the_template(
            np.resize(np.array(values), (-(-len(values) // cols), cols)))

    @pytest.mark.parametrize("name", list(_kernel_cases()))
    def test_fixed_values(self, name):
        assert_table_bytes_equal_the_template(_kernel_cases()[name][:, None])

    def test_every_pattern_of_zero_digit_groups(self):
        # 17 significant digits d.gggg gggg gggg gggg: a group that only zero
        # groups follow is written with its trailing zeros dropped.  Each of
        # the 16 zero/non-zero patterns of the four groups, in fixed notation
        # (exponent -4 to 0) and in exponent notation, with both signs, also
        # where rounding the 18th digit up carries across a group boundary:
        # the double next to a decimal with zero groups, or the doubles below
        # 1e-14 and 1e+98, which round up to the power of ten itself.
        values, seen = [], set()
        for pattern in itertools.product((0, 1), repeat=4):
            for lead, group in itertools.product((1, 7), (1, 1000, 1234, 5000, 9999)):
                digits = "".join(f"{group * bit:04d}" for bit in pattern)
                for exp in (-4, -1, 0, -30, 21):
                    x = float(f"{lead}.{digits}e{exp}")
                    values += [s * y for s in (1.0, -1.0)
                               for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
        values += [1e-14, -1e-14, 1e98, -1e98]
        for v in values:
            # exact: the first 17 digits of |v| end in 9999 and the rest round them up
            num, den = abs(v).as_integer_ratio()
            shift = 16 - Decimal(v).adjusted()
            head, rest = divmod(num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0))
            carry = 2 * rest > den * 10 ** max(-shift, 0) and head % 10000 == 9999
            mantissa = "%.16e" % abs(v)
            groups = tuple(mantissa[k:k + 4] != "0000" for k in (2, 6, 10, 14))
            seen.add((groups, -4 <= int(mantissa[19:]) < 17, v < 0.0, carry))
        for fixed in (True, False):
            for negative in (False, True):
                assert {(g, fixed, negative) for g, f, n, _ in seen
                        if (f, n) == (fixed, negative)} >= {
                    (g, fixed, negative) for g in itertools.product((False, True), repeat=4)}
                assert (fixed, negative, True) in {(f, n, c) for _, f, n, c in seen}
        table = np.array(values)[:, None]
        assert [b"%.17g" % v for v in values] == \
            [line.encode() for line in written(table).splitlines()[1:]]

    @pytest.mark.parametrize("cols", [1, 2, 5, 18])
    def test_row_counts_around_one_block(self, cols):
        from catteleport.floatcsv import BLOCK
        rows_per_block = BLOCK // cols
        rng = np.random.default_rng(cols)
        for rows in (1, rows_per_block - 1, rows_per_block, rows_per_block + 1,
                     2 * rows_per_block + 3):
            table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 20, (rows, cols))
            assert_table_bytes_equal_the_template(table)

    def test_float_commands_return_tables(self):
        cfg = parse_config("n_points = 7\n")
        for command, args in ((cmd_coeffs, None), (cli.cmd_figure2, None),
                              (cli.cmd_fidelity, build_parser().parse_args(["fidelity"])),
                              (cli.cmd_fidelity,
                               build_parser().parse_args(["fidelity", "--oracle"]))):
            header, rows, ok = command(cfg, args)
            assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
            assert ok and rows.shape[1] == len(header)

    @pytest.mark.parametrize("argv, text", [
        (["protocol", "--trials", "100"], ""),
        (["oracle-check"], "t_max_s = 4e-4\n"),
    ], ids=["protocol", "oracle_check"])
    def test_mixed_rows_keep_the_template(self, tmp_path, monkeypatch, argv, text):
        # str, int and float columns, a few dozen rows: each value as str(),
        # floats as %.17g
        p = tmp_path / "run.cfg"
        p.write_text(text)
        command = getattr(cli, build_parser().parse_args(argv).run)
        returned = []
        monkeypatch.setattr(cli, command.__name__,
                            lambda cfg, args: returned.append(command(cfg, args)) or returned[-1])
        code, out = run_cli(tmp_path, *argv, "--config", str(p))
        header, rows, ok = returned[0]
        assert code == 0 and isinstance(rows, list)
        assert out == ",".join(header) + "\n" + "".join(
            ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)

    @pytest.mark.parametrize("command, n_points", [("fidelity", 20_000), ("coeffs", 6325)])
    def test_curves_take_no_template_call(self, tmp_path, monkeypatch, command, n_points):
        from catteleport import floatcsv
        calls = []

        def counting(v):
            calls.append(v)
            return b"%.17g" % v

        monkeypatch.setattr(floatcsv, "_template", counting)
        p = tmp_path / "run.cfg"
        p.write_text(f"n_points = {n_points}\n")
        code, out = run_cli(tmp_path, command, "--config", str(p))
        assert code == 0 and out.count("\n") == n_points + 1
        assert calls == []
        # the double is the one the writer calls
        assert written(np.array([[math.nan]])) == "h\nnan\n" and len(calls) == 1

    def test_vector_path_holds_1e_280_to_10(self, monkeypatch):
        # every value in [1e-280, 10) and +-0 is written without the
        # template; every value of 10 or more takes one template call
        from catteleport import floatcsv
        calls = []

        def counting(v):
            calls.append(v)
            return b"%.17g" % v

        monkeypatch.setattr(floatcsv, "_template", counting)
        below = [math.nextafter(10.0, 0.0), -math.nextafter(10.0, 0.0), 9.5, 1e-5, 1e-280,
                 -1e-280, 0.0, -0.0, 1.0, 0.1, 2.5e-7, 1e-100]
        above = [10.0, 12.5, 1e16, -3e5, math.nextafter(10.0, math.inf), -10.0, 1e280]
        table = np.array(below + above)[:, None]
        assert written(table).splitlines()[1:] == [
            line.decode() for line in (b"%.17g" % v for v in below + above)]
        assert calls == above

    def test_peak_memory_does_not_grow_with_rows(self):
        import tracemalloc

        from catteleport.floatcsv import BLOCK

        class Sink:
            def write(self, text):
                pass

        rng = np.random.default_rng(7)
        peaks = []
        for rows in (2 * BLOCK // 18, 20_000):
            table = rng.random((rows, 18))
            _write_csv(Sink(), ["h"], table[:1])   # the module and its tables load on first use
            tracemalloc.start()
            try:
                _write_csv(Sink(), ["h"], table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the table is allocated before tracing starts: what is traced is one
        # block's arrays and text, about 200 bytes per value
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 256 * BLOCK


class TestCoeffsCommand:
    def test_initial_row_is_identity(self, tmp_path):
        code, text = run_cli(tmp_path, "coeffs")
        assert code == 0
        rows = read_rows(text)
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["u11_full_re"]) == 1.0
        assert float(first["u11_full_im"]) == 0.0
        assert float(first["u12_full_re"]) == 0.0
        assert float(first["u11_simp_re"]) == 1.0
        assert float(first["deviation"]) == 0.0

    @given(coeffs_configs())
    @settings(max_examples=200)
    # five points where cmath.cosh takes its scaled formula, which libm's ccosh
    # does not; the scalar u_full also gives u22 = inf+nanj at t = 0.0284,
    # where the true value is about exp(-0.14), and the grid repeats it; coeffs
    # stops there
    @example(RunConfig(gamma11_inv_s=1e-5, gamma22_inv_s=0.1, Delta_Hz=100.0,
                       t_max_s=0.0284, n_points=2000))
    # u_full is finite at t_max_s, the free-evolution phase of mode 2 is not
    @example(RunConfig(gamma22_inv_s=1e-3, Delta_Hz=1e8, t_max_s=5.588678901378132e+296,
                       n_points=2, frame="rotating"))
    @example(RunConfig(gamma22_inv_s=1e-3, Delta_Hz=1e8, t_max_s=5.588678901378132e+296,
                       n_points=2, frame="lab"))
    def test_rows_equal_the_scalar_loop_bit_for_bit(self, cfg):
        rows, failed_at = coeffs_reference(cfg)
        times = np.linspace(0.0, cfg.t_max_s, cfg.n_points)
        if failed_at is not None:
            # the grid stops at the same point, naming the stage
            with pytest.raises(ConsistencyError, match=re.escape(f"at t={failed_at!r}")):
                coefficient_grid(cfg.mode_system(), times, cfg.rotating_frame)
        else:
            # the grid itself, non-finite values included
            full, simp = coefficient_grid(cfg.mode_system(), times, cfg.rotating_frame)
            zs = np.concatenate([full, simp])
            grid = np.empty((len(times), 2 * len(zs)))
            grid[:, 0::2] = zs.real.T
            grid[:, 1::2] = zs.imag.T
            assert (bits(grid) == bits(np.array(rows)[:, 1:-1])).all()
        # coeffs stops where the grid stops, or else at the first row with a
        # non-finite cell
        stop = failed_at if failed_at is not None else next(
            (row[0] for row in rows if not np.isfinite(row).all()), None)
        if stop is not None:
            with pytest.raises(ConsistencyError, match=re.escape(f"at t={stop!r}")) as exc:
                cmd_coeffs(cfg, None)
            assert "t_max_s" in str(exc.value)
            if stop != failed_at:
                assert "u_full is not finite" in str(exc.value)
            return
        header, got, ok = cmd_coeffs(cfg, None)
        assert ok and len(header) == len(got[0])
        assert (bits(got) == bits(rows)).all()

    def test_makes_no_per_point_scalar_call(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, real):
            def double(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return double

        for module, name in ((dynamics, "u_full"), (dynamics, "to_rotating_frame"),
                             (dynamics, "u_simplified"), (cli, "u_simplified")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        # a name imported into the cli module would bypass the dynamics doubles
        assert not hasattr(cli, "u_full") and not hasattr(cli, "to_rotating_frame")
        p = tmp_path / "cross.cfg"
        for frame in ("rotating", "lab"):
            p.write_text(f"gamma12 = 500\ngamma21 = 500\nn_points = 2000\nframe = {frame}\n")
            code, text = run_cli(tmp_path, "coeffs", "--config", str(p))
            assert code == 0 and len(read_rows(text)) == 2000
        assert calls == []

    def test_magnitudes_decay(self, tmp_path):
        _, text = run_cli(tmp_path, "coeffs")
        rows = read_rows(text)
        mags = [math.hypot(float(r["u11_simp_re"]), float(r["u11_simp_im"]))
                for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))


class TestProtocolCommand:
    def test_probabilities_sum_to_one(self, tmp_path):
        _, text = run_cli(tmp_path, "protocol")
        rows = read_rows(text)
        assert len(rows) == 4
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_classifications_present(self, tmp_path):
        _, text = run_cli(tmp_path, "protocol")
        labels = {r["classification"] for r in read_rows(text)}
        assert labels == {"success_direct", "success_after_correction", "failure"}

    @pytest.mark.parametrize("text", [
        "alpha_re = 0\nspectator_phase_on = false\n",
        "delta_Hz = -5e6\n",
        # phi + pi = 1.3e-10: the e-branch norm is rounding noise above 1e-14
        "delta_Hz = -4999999.9999\nalpha_re = 1.5\nbeta_re = 1.4\nbeta_im = 0.3\n",
    ], ids=["vacuum_mode1", "spectator_phase_minus_pi", "spectator_phase_near_minus_pi"])
    def test_atom_outcome_of_zero_probability_exits_0(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code, out = run_cli(tmp_path, "protocol", "--config", str(p), "--trials", "100")
        assert code == 0
        assert [(r["probability"], r["residual_fidelity"], r["sampled_count"])
                for r in read_rows(out) if r["atom"] == "e"] == [("0", "0", "0")] * 2

    # phi + pi from 1.3e-8 to 1.8e-6: the renormalized e-branch's Gram sum
    # keeps an imaginary rounding residue of order eps (sum |w_i|)^2, above
    # 1e-12 * max(1, |n^2|)
    @pytest.mark.parametrize("delta_Hz", [-4999999.99, -4999999.977736234,
                                          -4999999.435252894, -4999997.155657618])
    def test_spectator_phase_just_off_minus_pi_exits_0(self, tmp_path, delta_Hz):
        p = tmp_path / "run.cfg"
        p.write_text(f"delta_Hz = {delta_Hz!r}\nalpha_re = 2.5\nbeta_re = 0.5\n")
        code, out = run_cli(tmp_path, "protocol", "--config", str(p), "--trials", "100")
        assert code == 0
        assert sum(float(r["probability"]) for r in read_rows(out)) == pytest.approx(
            1.0, abs=1e-12)

    def test_corrected_fidelity_perfect_for_flip_branch(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("spectator_phase_on = false\n")
        _, text = run_cli(tmp_path, "protocol", "--config", str(p))
        rows = read_rows(text)
        flip = next(r for r in rows
                    if r["classification"] == "success_after_correction")
        assert float(flip["corrected_fidelity"]) == pytest.approx(1.0, abs=1e-9)

    def test_sampling_columns(self, tmp_path):
        _, text = run_cli(tmp_path, "protocol", "--trials", "2000")
        rows = read_rows(text)
        total = sum(int(r["sampled_count"]) for r in rows)
        assert total == 2000

    def test_sampling_reproducible_with_seed(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 3\n")
        _, a = run_cli(tmp_path, "protocol", "--trials", "500", "--config", str(p))
        _, b = run_cli(tmp_path, "protocol", "--trials", "500", "--config", str(p))
        assert a == b


class TestFigure2Command:
    def test_columns_and_ordering(self, tmp_path):
        code, text = run_cli(tmp_path, "figure2")
        assert code == 0
        rows = read_rows(text)
        assert len(rows) == 200
        cols = ["F_alpha_0.5", "F_alpha_1.0", "F_alpha_1.5", "F_alpha_2.0"]
        for r in rows[1:]:  # strictly ordered for every t > 0
            vals = [float(r[c]) for c in cols]
            assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_initial_fidelities_are_one(self, tmp_path):
        _, text = run_cli(tmp_path, "figure2")
        first = read_rows(text)[0]
        for c in ("F_alpha_0.5", "F_alpha_1.0", "F_alpha_1.5", "F_alpha_2.0"):
            assert float(first[c]) == pytest.approx(1.0, abs=1e-12)

    def test_byte_stable_across_runs(self, tmp_path):
        _, a = run_cli(tmp_path, "figure2")
        _, b = run_cli(tmp_path, "figure2")
        assert a == b


class TestFidelityCommand:
    def test_plain_curve(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("spectator_phase_on = false\n")
        code, text = run_cli(tmp_path, "fidelity", "--config", str(p))
        assert code == 0
        rows = read_rows(text)
        assert float(rows[0]["F_analytic"]) == pytest.approx(1.0, abs=1e-12)
        vals = [float(r["F_analytic"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("frame", ["rotating", "lab"])
    def test_oracle_column_agrees(self, tmp_path, frame):
        p = tmp_path / "small.cfg"
        p.write_text(f"n_points=12\nframe={frame}\n")
        code, text = run_cli(tmp_path, "fidelity", "--oracle", "--config", str(p))
        assert code == 0
        for r in read_rows(text):
            assert float(r["abs_dF"]) < 1e-9


def oracle_check_per_point(cfg, args):
    """cmd_oracle_check as a loop over its points, each state integrated from
    t = 0 by its own evolve_lindblad call: the reference of the stacked
    command."""
    ms = cfg.mode_system()
    gbar = ms.mean_damping_rate
    pc = cfg.protocol_config()
    alpha, spec = cfg.alpha, pc.target
    cross = cfg.parity * pc.c_plus * pc.c_minus
    dt_max = 1.0 / (50.0 * gbar)
    steps = 50.0 * gbar * cfg.t_max_s
    if not steps <= cli.ORACLE_MAX_STEPS:
        raise ConfigError(f"oracle-check would take {steps:.3g} RK4 steps of 1/(50 gamma_bar) "
                          f"to reach t_max_s, above its budget of {cli.ORACLE_MAX_STEPS}: raise "
                          "gamma11_inv_s or gamma22_inv_s, or lower t_max_s")
    n_max = oracle.required_n_max(alpha)
    dims = (n_max + 1,)
    lspec = oracle.LindbladSpec(np.zeros((n_max + 1, n_max + 1), dtype=complex),
                                np.array([[gbar]]), dims)
    rows = []
    rho_coh = oracle.FockDensity.from_vector(oracle.coherent_to_fock(alpha, n_max), dims)
    rho_cat = oracle.FockDensity.from_vector(oracle.cat_state_vector(spec, n_max), dims)
    for t in np.linspace(cfg.t_max_s / 10.0, cfg.t_max_s, 10):
        t = float(t)
        u11 = u_simplified(ms, t).u11
        evolved = oracle.evolve_lindblad(rho_coh, lspec, t, dt_max)
        checks = [("coherent_transport",
                   1.0 - oracle.coherent_fidelity(evolved, u11 * alpha), 1e-6)]
        if cross:
            evolved_cat = oracle.evolve_lindblad(rho_cat, lspec, t, dt_max)
            try:
                z_oracle = oracle.extract_cat_coherence(evolved_cat, u11 * alpha)
            except ConsistencyError as exc:
                raise ConsistencyError(
                    f"decoherence_Z at t={t!r}: {exc}; c_plus = {cfg.c_plus!r} and "
                    f"c_minus = {cfg.c_minus!r} leave one cat component too weak to "
                    "check") from None
            z_ana = decoherence_Z(alpha, abs(u11))
            checks.append(("decoherence_Z",
                           abs(z_oracle - math.copysign(z_ana, cross)) / z_ana, 1e-4))
        mixture = build_rho1(spec, u11)
        f_orc = oracle.mixture_fidelity(mixture, spec)
        checks.append(("dual_path_fidelity", abs(fidelity(spec, mixture) - f_orc), 1e-8))
        rows += [[check, t, value, threshold, "pass" if value <= threshold else "fail"]
                 for check, value, threshold in checks]
    ok = all(row[-1] == "pass" for row in rows)
    return ["check", "t", "value", "threshold", "status"], rows, ok


class TestOracleCheckCommand:
    @pytest.mark.parametrize("text", [
        "alpha_re=0.5\n",
        "alpha_re=2.5\nt_max_s=6e-4\n",
        "parity=-1\nalpha_re=1.3\nalpha_im=0.4\n",
        # a coherent state: the stack holds the coherent members alone
        "c_minus=0\nc_plus=1\n",
        "c_plus=0.6\nc_minus=-0.8\ngamma12=2e2\ngamma21=2e2\n",
        # the top levels of the 145-level basis are unstable under RK4 at
        # dt = 1/(50 gamma_bar): the trace drifts at the fifth point first
        "alpha_re=8\n",
    ], ids=["alpha_0.5", "alpha_2.5", "odd_parity", "coherent_only", "cross_damped",
            "trace_drift_at_fifth_point"])
    def test_same_bytes_and_exit_as_the_per_point_loop(self, tmp_path, monkeypatch, capsys, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        runs = []
        for command in (cli.cmd_oracle_check, oracle_check_per_point):
            monkeypatch.setattr(cli, "cmd_oracle_check", command)
            out = tmp_path / f"{command.__name__}.csv"
            code = main(["oracle-check", "--config", str(p), "--out", str(out)])
            runs.append((code, out.read_bytes(), capsys.readouterr().err))
        assert runs[0] == runs[1]
        if text == "alpha_re=8\n":
            assert runs[0][0] == 3 and "trace drifted" in runs[0][2]

    @pytest.mark.parametrize("extra, checks", [
        ("", {"coherent_transport", "decoherence_Z", "dual_path_fidelity"}),
        ("parity=-1\n", {"coherent_transport", "decoherence_Z", "dual_path_fidelity"}),
        ("c_minus=-0.7071067811865476\n",
         {"coherent_transport", "decoherence_Z", "dual_path_fidelity"}),
        # a coherent state has no cat coherence: its decoherence_Z rows are omitted
        ("c_minus=0\n", {"coherent_transport", "dual_path_fidelity"}),
    ], ids=["even", "odd_parity", "negative_c_minus", "coherent_state"])
    def test_all_checks_pass(self, tmp_path, extra, checks):
        p = tmp_path / "fast.cfg"
        p.write_text("t_max_s=4e-4\n" + extra)
        code, text = run_cli(tmp_path, "oracle-check", "--config", str(p))
        assert code == 0
        rows = read_rows(text)
        assert rows and all(r["status"] == "pass" for r in rows)
        assert {r["check"] for r in rows} == checks
