import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavsim
from cavsim import ConfigError, Scenario, validation
from cavsim.cli import main, write_records
from cavsim.config import _KEYS, SweepSpec, parse_config, sweep_filename
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

    def test_inner_spaces_only_dropped_from_complex_values(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sweep_g = 1 0\n")
        assert (err.value.key, err.value.line) == ("sweep_g", 1)
        _, sweep = parse_config("sweep_alpha = 0.5 + 0.1j, 1\n")
        assert sweep.alpha_values == (0.5 + 0.1j, 1.0)

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("alpha = nan\n", "alpha", 1),
            ("phi = 0\nalpha = 1e400\n", "alpha", 2),
            ("beta = 0.5+nanj\n", "beta", 1),
            ("n_samples = 3\nsweep_beta = 0.5, inf\n", "sweep_beta", 2),
        ],
        ids=["nan", "overflow", "nan_imag", "sweep_inf"],
    )
    def test_nonfinite_complex_rejected(self, text, key, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (key, line)

    # (config line, "scenario" or "sweep", field, expected value); every value distinct
    ROUND_TRIP = [
        ("omega_a = 5.2e4", "scenario", "omega_a", 5.2e4),
        ("omega_1 = 0.0075", "scenario", "omega_1", 0.0075),
        ("omega_2 = 0.008", "scenario", "omega_2", 0.008),
        ("Omega_1 = 0.03", "scenario", "Omega_1", 0.03),
        ("Omega_2 = 0.04", "scenario", "Omega_2", 0.04),
        ("Delta_1 = 0.12", "scenario", "Delta_1", 0.12),
        ("Delta_2 = 0.2", "scenario", "Delta_2", 0.2),
        ("alpha = 0.6-0.1j", "scenario", "alpha", 0.6 - 0.1j),
        ("beta = 0.9", "scenario", "beta", 0.9),
        ("phi = 0.25", "scenario", "phi", 0.25),
        ("ramsey_angle = 0.45", "scenario", "ramsey_angle", 0.45),
        ("durations = 31, 11, 12, 13, 34", "scenario", "stage_durations", (31, 11, 12, 13, 34)),
        ("N1 = 16", "scenario", "n1", 16),
        ("N2 = 17", "scenario", "n2", 17),
        ("frame = lab", "scenario", "frame", "lab"),
        ("n_samples = 19", "sweep", "n_samples", 19),
        ("backend = oracle", "sweep", "backend", "oracle"),
        ("sweep_g = 0, 0.2", "sweep", "g_values", (0.0, 0.2)),
        ("sweep_q = 0.1", "sweep", "q_values", (0.1,)),
        ("sweep_alpha = 0.5, 1+1j", "sweep", "alpha_values", (0.5, 1 + 1j)),
        ("sweep_beta = 2", "sweep", "beta_values", (2.0,)),
    ]

    @pytest.mark.parametrize("rates", ["g = 0.3\nq = 0.7", "gamma_1 = 0.00225\ngamma_2 = 0.0056"])
    def test_every_key_reaches_its_field(self, rates):
        sc, sweep = parse_config("\n".join(row[0] for row in self.ROUND_TRIP) + "\n" + rates)
        for line, target, field, expected in self.ROUND_TRIP:
            assert getattr(sc if target == "scenario" else sweep, field) == expected, line
        # the ratio form: 0.3 * omega_1 and 0.7 * omega_2
        assert (sc.gamma_1, sc.gamma_2) == pytest.approx((0.00225, 0.0056), rel=1e-12)

    def test_key_table_names_live_fields(self):
        # parse_config drops a key whose field is in neither dataclass, so a removed
        # field would leave its key a silent no-op
        rates = {"g", "q", "gamma_1", "gamma_2"}
        owners = [{f.name for f in dataclasses.fields(cls)} for cls in (Scenario, SweepSpec)]
        for key, (field, _) in _KEYS.items():
            assert (key in rates) == (field is None), key
            if field is not None:
                assert sum(field in names for names in owners) == 1, key
        covered = {row[0].partition("=")[0].strip() for row in self.ROUND_TRIP}
        assert covered == set(_KEYS) - rates

    @pytest.mark.parametrize("key", ["omega_tilde_1", "omega_tilde_2", "tail_tol"])
    def test_retired_keys_are_unknown(self, key):
        # cavity frequencies are omega_a - Delta_i, and the Fock tail tolerance is fixed
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_config(f"{key} = 1e-9\n")
        assert (err.value.key, err.value.line) == (key, 1)

    def test_sweep_filename_encoding(self):
        assert sweep_filename(0.5, 1.0, 0.05, 0.0) == "a0.5_b1_g0.05_q0.csv"

    @pytest.mark.parametrize("key", ["sweep_g", "sweep_q", "sweep_alpha", "sweep_beta"])
    def test_empty_sweep_grid_rejected(self, key):  # empty amplitudes fell back to alpha/beta
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} =\n")
        assert err.value.key == key


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

    @pytest.mark.parametrize(
        "text", ["gamma_1 = -4\n", "alpha = nan\n"], ids=["negative_rate", "nonfinite_alpha"]
    )
    def test_config_error_exit_code(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2

    def test_sweep_one_file_per_tuple(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep_g = 0, 0.5\nsweep_q = 0\nn_samples = 3\nbackend = branch\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "a0.5_b0.5_g0_q0.csv").exists()
        assert (tmp_path / "a0.5_b0.5_g0.5_q0.csv").exists()

    @pytest.mark.parametrize("command, cavities", [("sweep", (1, 2)), ("preset", (2,))])
    def test_runs_warn_on_marginal_dispersive_validity(self, tmp_path, capsys, command, cavities):
        # alpha = beta = 2: |Delta|/(Omega sqrt(nbar+1)) = 1.79 < 2; preset fig7 runs beta = 2
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha = 2\nbeta = 2\nsweep_g = 0, 0.5\nn_samples = 2\nbackend = branch\n")
        target = str(cfg) if command == "sweep" else "fig7"
        with pytest.warns(UserWarning, match="dispersive description is marginal") as record:
            assert main([command, target, "--out", str(tmp_path)]) == 0
        warned = {str(w.message).split(":")[0] for w in record}
        assert warned == {f"cavity {i}" for i in cavities}
        assert ".csv" in capsys.readouterr().out  # stdout still names only the files

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

    @pytest.mark.parametrize("grid, pools", [("sweep_g = 0, 0.5", [2]), ("sweep_g = 0", [])])
    def test_sweep_pool_is_capped_at_the_points(self, tmp_path, monkeypatch, grid, pools):
        import concurrent.futures

        sizes = []

        class FakePool:  # records its size and runs the points in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{grid}\nsweep_q = 0\nn_samples = 2\nbackend = branch\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--jobs", "8"]) == 0
        assert sizes == pools  # a 1-point sweep runs in this process
        assert len(list(tmp_path.glob("*.csv"))) == len(grid.split(","))

    @pytest.mark.parametrize(
        "grid", ["sweep_g = 0.1000001, 0.1000002", "sweep_g = 0.1, 0.1", "sweep_alpha = 1, 1+0j"]
    )
    def test_sweep_rejects_colliding_file_names(self, tmp_path, grid):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{grid}\nn_samples = 2\nbackend = branch\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path), "--jobs", "2"]) == 2
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag", [["--converge"], ["--backend", "dense"]])
    def test_phase_space_has_no_backend_flags(self, flag):
        with pytest.raises(SystemExit) as exc:  # argparse: exit 2 on an unknown flag
            main(["phase-space", "ps.cfg", *flag])
        assert exc.value.code == 2

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


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        assert "4/4 checks passed" in capsys.readouterr().out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        failed = validation.CheckResult("stub", False, "forced")
        monkeypatch.setattr(validation, "quick_checks", lambda: [failed])
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  stub: forced" in out and "0/1 checks passed" in out

    @pytest.mark.parametrize("check", ["frame_invariance", "semigroup_property"])
    def test_full_suite_invariants_pass(self, check):
        result = getattr(validation, check)()
        assert result.passed, result.detail


class TestBlasPin:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_import_pins_one_thread_unless_set(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(cavsim.__file__).parents[1])
        code = "import os, cavsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == expected


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
