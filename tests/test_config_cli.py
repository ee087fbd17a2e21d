import math

import numpy as np
import pytest

from cavsim import ConfigError, Scenario
from cavsim.cli import main, write_records
from cavsim.config import parse_config, sweep_filename
from cavsim.evolution import ConcurrenceRecord
from cavsim.presets import analytic_records, preset_jobs


class TestParseConfig:
    def test_empty_file_gives_defaults(self):
        sc, sweep = parse_config("")
        assert sc.omega_1 == pytest.approx(6.25e-3)
        assert sc.omega_2 == pytest.approx(6.25e-3)
        assert sc.Delta_1 == pytest.approx(0.1)
        assert sc.Omega_1 == pytest.approx(0.025)
        assert sc.stage_durations == (30.0, 10.0, 10.0, 10.0, 30.0)
        assert sc.alpha == 0.5 and sc.beta == 0.5
        assert sc.gamma_1 == 0.0 and sc.gamma_2 == 0.0
        assert sc.frame == "rotating"
        assert sweep.backend == "dense"

    def test_comments_and_values(self):
        text = """
        # a comment line
        alpha = 1.0   # trailing comment
        g = 0.05
        q = 1
        durations = 30, 10, 10, 10, 30
        frame = lab
        n_samples = 7
        backend = branch
        """
        sc, sweep = parse_config(text)
        assert sc.alpha == 1.0
        assert sc.gamma_1 == pytest.approx(0.05 * sc.omega_1)
        assert sc.gamma_2 == pytest.approx(sc.omega_2)
        assert sc.frame == "lab"
        assert sweep.n_samples == 7
        assert sweep.backend == "branch"

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("gamma_1 = -1")
        assert err.value.key == "gamma_1"

    def test_inconsistent_dispersive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("omega_1 = 5e-3")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alpha = 1\nbogus = 2\n")
        assert err.value.key == "bogus"
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("alpha = 1\nalpha = 2\n")

    def test_ratio_and_rate_conflict(self):
        with pytest.raises(ConfigError):
            parse_config("g = 0.1\ngamma_1 = 0.01\n")

    def test_complex_amplitude(self):
        sc, _ = parse_config("alpha = 0.5+0.5j")
        assert sc.alpha == 0.5 + 0.5j

    def test_sweep_lists(self):
        sc, sweep = parse_config("sweep_g = 0, 0.05, 0.5, 1\nsweep_alpha = 0.5, 1, 2\n")
        assert sweep.g_values == (0.0, 0.05, 0.5, 1.0)
        assert sweep.alpha_values == (0.5, 1.0, 2.0)

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    def test_sweep_filename_encoding(self):
        assert sweep_filename(0.5, 1.0, 0.05, 0.0) == "a0.5_b1_g0.05_q0.csv"


class TestCsvOutput:
    def test_records_csv_format(self, tmp_path):
        recs = [
            ConcurrenceRecord(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, ""),
            ConcurrenceRecord(1.5, 0.123456789012345, 0.0, 0.0, 2e-16, 0.875, "support_loss:AF1"),
        ]
        path = tmp_path / "out.csv"
        write_records(path, recs)
        lines = path.read_text().split("\n")
        assert lines[0] == "t_us,C_AF1,C_AF2,C_F1F2,discarded_weight,purity,flags"
        assert lines[1] == "0,0,0,0,0,1,"
        assert lines[2].startswith("1.5,0.123456789012,0,0,2e-16,0.875,support_loss:AF1")

    def test_twelve_significant_digits(self, tmp_path):
        recs = [ConcurrenceRecord(math.pi, 1 / 3, 0.0, 0.0, 0.0, 1.0, "")]
        path = tmp_path / "out.csv"
        write_records(path, recs)
        row = path.read_text().split("\n")[1].split(",")
        assert row[0] == "3.14159265359"
        assert row[1] == "0.333333333333"


class TestPresets:
    def test_preset_names(self):
        jobs = preset_jobs("fig2")
        assert len(jobs) == 14  # 12 curves + 2 phase-space companions
        assert all(j.mode in ("analytic", "phase-space") for j in jobs)
        assert len(preset_jobs("fig4")) == 4
        assert len(preset_jobs("fig6")) == 16
        assert len(preset_jobs("fig7")) == 6

    def test_full_is_union(self):
        total = sum(len(preset_jobs(n)) for n in ("fig2", "fig4", "fig5", "fig6", "fig7"))
        assert len(preset_jobs("full")) == total

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_jobs("fig99")

    def test_analytic_records_match_closed_form(self):
        from cavsim import concurrence_stage1

        job = preset_jobs("fig2")[0]
        recs = analytic_records(job.scenario, job.sample_times[:5])
        for t, r in zip(job.sample_times[:5], recs):
            assert r.c_af1 == pytest.approx(concurrence_stage1(float(t), job.scenario))
            assert r.c_af2 == 0.0 and r.c_f1f2 == 0.0


class TestCliCommands:
    def test_simulate_writes_csv(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\nbeta = 0.5\ng = 0.05\nn_samples = 5\nbackend = branch\n")
        code = main(["simulate", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "run.csv"
        assert out.exists()
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("t_us,")

    def test_simulate_truncation_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_samples = 3\nbackend = branch\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path), "--truncation", "14,14"]) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_1 = -4\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2

    def test_sweep_one_file_per_tuple(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_g = 0, 0.5\nsweep_q = 0\nn_samples = 3\nbackend = branch\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "a0.5_b0.5_g0_q0.csv").exists()
        assert (tmp_path / "a0.5_b0.5_g0.5_q0.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_rejects_nonpositive_jobs(self, tmp_path, monkeypatch, jobs):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_g = 0\nsweep_q = 0\nn_samples = 2\nbackend = branch\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--jobs", jobs]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_phase_space_command(self, tmp_path):
        cfg = tmp_path / "ps.cfg"
        cfg.write_text("alpha = 1.0\ng = 0.2\nn_samples = 4\n")
        assert main(["phase-space", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ps_phase_space.csv").read_text().strip().split("\n")
        assert lines[0] == "t_us,re_alpha_e,im_alpha_e,re_alpha_g,im_alpha_g,chord"
        assert len(lines) == 5

    def test_preset_fig2_deterministic(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["preset", "fig2", "--out", str(out1)]) == 0
        assert main(["preset", "fig2", "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_out_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAVSIM_OUT", str(tmp_path / "envout"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_samples = 2\nbackend = branch\nN1 = 12\nN2 = 12\n")
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envout" / "run.csv").exists()


class TestConvergencePass:
    def test_converge_settles(self):
        from cavsim.cli import compute_records

        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.05, q=0.05)
        times = np.linspace(0.0, sc.total_time(), 4)
        recs = compute_records(sc, times, "branch", converge=True)
        base = compute_records(sc, times, "branch", converge=False)
        for a, b in zip(recs, base):
            assert abs(a.c_af1 - b.c_af1) < 1e-6

    def test_branch_converge_runs_one_pass(self, monkeypatch):
        from cavsim import cli

        calls = []
        run = cli._run_backend
        monkeypatch.setattr(
            cli, "_run_backend", lambda *a: calls.append(a[0].truncations()) or run(*a)
        )
        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.05, q=0.05)
        cli.compute_records(sc, np.linspace(0.0, sc.total_time(), 3), "branch", converge=True)
        assert len(calls) == 1
