import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catteleport.cli import main
from catteleport.config import default_config, load_config, parse_config
from catteleport.errors import ConfigError


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


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
        ("", ["protocol", "--trials", "10", "--seed", "-1"], "out.csv", "seed"),
        ("alpha_re = 1e200\n", ["fidelity"], "out.csv", "alpha_re"),
        ("alpha_re = 1e3\n", ["protocol"], "out.csv", "alpha_re"),
        ("alpha_im = 1e50\n", ["coeffs"], "out.csv", "alpha_im"),
        ("alpha_re = 40\n", ["fidelity", "--oracle"], "out.csv", "alpha_re"),
        ("beta_re = 20\n", ["protocol"], "out.csv", "beta_re"),
    ], ids=["out_dir_missing", "nan_damping", "inf_t_max", "inf_alpha",
            "negative_trials", "negative_seed_key", "negative_seed_flag",
            "huge_alpha", "large_alpha_protocol", "huge_alpha_im", "alpha_40_oracle",
            "large_beta"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, text, argv, out, name):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code = main([*argv, "--config", str(p), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err and "Traceback" not in err, err

    @pytest.mark.parametrize("text, argv, stage", [
        ("gamma11_inv_s = 1e-9\n", ["coeffs"], "u_full overflows at t="),
        ("gamma11_inv_s = 1e-300\n", ["coeffs"], "u_full overflows at t="),
        ("gamma11_inv_s = 5e-324\n", ["fidelity"], "u11_mag"),
    ], ids=["cosh_overflow", "square_overflow", "infinite_damping_rate"])
    def test_overflowing_rates_exit_3_naming_the_stage(self, tmp_path, capsys,
                                                        text, argv, stage):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code = main([*argv, "--config", str(p), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert stage in err and "Traceback" not in err and "Warning" not in err, err

    def test_closed_stdout_pipe_exits_0_quietly(self, tmp_path):
        # the reader stops after the header, as `| head -1` does
        cfg = tmp_path / "long.cfg"
        cfg.write_text("n_points = 20000\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "catteleport", "coeffs",
                                 "--config", str(cfg)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().startswith(b"t,")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (0, b"")

    def test_ok_exit_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "protocol")
        assert code == 0


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

    def test_corrected_fidelity_perfect_for_flip_branch(self, tmp_path):
        _, text = run_cli(tmp_path, "protocol", "--no-spectator-phase")
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
        _, a = run_cli(tmp_path, "protocol", "--trials", "500", "--seed", "3")
        _, b = run_cli(tmp_path, "protocol", "--trials", "500", "--seed", "3")
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
        code, text = run_cli(tmp_path, "fidelity", "--no-spectator-phase")
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


class TestOracleCheckCommand:
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
