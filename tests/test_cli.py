import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metronlab.cli import parse_values, run
from metronlab.errors import ValidationError


def read_json(path):
    return json.loads(Path(path).read_text())


class TestBasicCommands:
    def test_bragg_classify(self, tmp_path, capsys):
        rc = run(["bragg-classify", "--E0", "0", "--gamma", "1", "--phi", "0.3",
                  "--omega0", "1", "--output-dir", str(tmp_path)])
        assert rc == 0
        out = read_json(tmp_path / "classification.json")
        assert out["verdict"] == "Trapped"
        assert out["B"] == pytest.approx(-0.29552020666133955)

    def test_calibrate(self, tmp_path):
        rc = run(["calibrate", "--a-sq", "2", "--beta", "0.7", "--m-core", "0.3",
                  "--k5", "1.4", "--gprime", "2.2", "--output-dir", str(tmp_path)])
        assert rc == 0
        out = read_json(tmp_path / "constants.json")
        assert out["G"] == 1.0

    def test_algebra_check_all_pass(self, tmp_path):
        rc = run(["algebra-check", "--output-dir", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path / "algebra_report.json")
        assert rep["all_pass"]
        assert all(c["max_deviation"] < 1e-6 for c in rep["checks"])

    def test_orbit_drift(self, tmp_path):
        rc = run(["orbit-drift", "--c1", "-1", "--c2", "0.5", "--c3", "0.25",
                  "--delta-r0", "1.0", "--t-max", "300",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["verdict"]["verdict"] == "TrappedAt"
        assert (tmp_path / "phase_portrait.csv").exists()

    def test_greens_eval_lightcone(self, tmp_path):
        rc = run(["greens-eval", "--r", "2", "--t", "2", "--kind", "retarded",
                  "--method", "lightcone", "--output-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "kernel_scan.csv").read_text()
        assert "lightcone" in text


class TestManifestAndDeterminism:
    def test_manifest_echoes_every_parameter(self, tmp_path):
        rc = run(["bragg-sweep", "--ratio", "0:3:4", "--phi", "0:6:5",
                  "--gamma", "1.0", "--omega0", "1.0",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        for key in ("ratio", "phi", "gamma", "omega0", "jobs",
                    "output_dir"):
            assert key in man["parameters"]

    def test_sweep_csv_deterministic(self, tmp_path):
        args = ["bragg-sweep", "--ratio", "0:3:7", "--phi", "0:6:9", "--jobs", "4"]
        run(args + ["--output-dir", str(tmp_path / "a")])
        run(args + ["--output-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("E0 = 0.0\ngamma = 1.0\nphi = 0.3  # reference phase\nomega0 = 1.0\n")
        rc = run(["bragg-classify", "--config", str(cfg), "--phi", "0.5",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["parameters"]["phi"] == 0.5  # CLI flag wins
        assert man["parameters"]["E0"] == 0.0

    def test_config_equals_form_is_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("E0 = 0.3\n")
        rc = run(["bragg-classify", f"--config={cfg}", "--gamma", "1", "--phi", "0",
                  "--omega0", "1", "--output-dir", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "manifest.json")["parameters"]["E0"] == 0.3

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("E0 = 0.0\nnot_a_parameter = 3\n")
        rc = run(["bragg-classify", "--config", str(cfg), "--gamma", "1",
                  "--phi", "0", "--omega0", "1", "--E0", "0",
                  "--output-dir", str(tmp_path)])
        assert rc == 2


class TestExitCodes:
    def test_empty_grid_is_validation_error(self, tmp_path):
        rc = run(["bragg-sweep", "--ratio", "", "--phi", "1",
                  "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_degenerate_coupling_is_validation_error(self, tmp_path):
        rc = run(["bragg-classify", "--E0", "1", "--gamma", "0", "--phi", "0",
                  "--omega0", "1", "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # an over-constrained budget cannot converge
        rc = run(["metron-solve", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                  "--r0", "5", "--max-iters", "4", "--output-dir", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("extra", [
        ["--r-max", "30", "--n-points", "5"],
        ["--eps", "nan"],
        ["--n-points", "5"],
    ])
    def test_bad_solver_inputs_are_validation_errors(self, tmp_path, capsys, extra):
        argv = ["metron-solve", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                "--r0", "5", "--output-dir", str(tmp_path)]
        rc = run(argv + extra)
        err = capsys.readouterr().err
        assert rc == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bragg-sweep", "--ratio", "0:1", "--phi", "0"],
        ["bragg-sweep", "--ratio", "0,1", "--phi", "abc"],
        ["bragg-sweep", "--ratio", "0,nan", "--phi", "0"],
        ["bragg-sweep", "--ratio", "0:3:4", "--phi", "0:6:5", "--gamma", "0"],
        ["bragg-sweep", "--ratio", "0:3:4", "--phi", "0:6:5", "--gamma", "-1"],
        ["bragg-sweep", "--ratio", "0:3:4", "--phi", "0:6:5", "--omega0", "0"],
        ["bragg-classify", "--E0", "nan", "--gamma", "1", "--phi", "0", "--omega0", "1"],
        ["metron-rescale", "--lam", "0.5:1"],
        ["bragg-classify", "--config"],
        ["bragg-classify", "--config", "{missing}"],
        ["bragg-classify", "--config", "{malformed}"],
        ["orbit-variance", "--n1", "1", "--n2", "0", "--kprime", "0.5", "--samples", "0"],
        ["greens-conserve", "--samples", "1"],
        ["bragg-lattice", "--ki", "abc", "--fundamental", "1,0,0", "--omega0", "1"],
        ["bragg-classify", "--config={malformed}"],
        ["bragg-classify", "--config={unknown_key}"],
        ["bragg-classify", "--conf", "{config}", "--gamma", "1", "--phi", "0",
         "--omega0", "1"],
        ["orbit-threemode", "--samples", "1"],
        ["metron-solve", "--mode", "-1"],
        ["metron-solve", "--mode", "3000", "--n-points", "100"],
        ["greens-eval", "--r", "1", "--t", "0", "--method", "stationary"],
        ["greens-eval", "--r", "", "--t", "1"],
        ["algebra-check", "--suite", "nope"],
        ["calibrate", "--a-sq", "1", "--beta", "1", "--m-core", "1", "--k5", "0",
         "--gprime", "1"],
        ["bragg-classify", "--E0", "0", "--gamma", "1", "--phi", "0", "--omega0", "0",
         "--s-max", "1"],
        ["orbit-drift", "--c1", "-1", "--c2", "0.5", "--c3", "0.25", "--delta-r0", "nan"],
        ["orbit-threemode", "--t-max", "5e-324", "--samples", "3"],
        ["bragg-classify", "--E0", "0", "--gamma", "1", "--phi=--", "--omega0", "1"],
        ["orbit-threemode", "--a2", "0.4", "--a12", "0.35", "--k", "0.5", "--mu1", "nan",
         "--t-max", "1", "--samples", "10"],
        ["orbit-drift", "--c1", "nan", "--c2", "0.5", "--c3", "0.25", "--delta-r0", "1",
         "--t-max", "30"],
        ["calibrate", "--a-sq", "inf", "--beta", "1", "--m-core", "1", "--k5", "1",
         "--gprime", "1"],
    ])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv):
        malformed = tmp_path / "malformed.cfg"
        malformed.write_text("E0 0.3\n")
        unknown_key = tmp_path / "unknown.cfg"
        unknown_key.write_text("E0 = 0.3\nnot_a_parameter = 3\n")
        config = tmp_path / "run.cfg"
        config.write_text("E0 = 0.3\n")
        argv = [a.format(missing=tmp_path / "nope.cfg", malformed=malformed,
                         unknown_key=unknown_key, config=config)
                for a in argv]
        rc = run(argv + ["--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["nan", "1,inf", "-inf,0", "0:inf:3"])
    def test_parse_values_rejects_non_finite(self, text):
        with pytest.raises(ValidationError):
            parse_values(text)

    @pytest.mark.parametrize("text", ["", ",", "0:1:0"])
    def test_parse_values_rejects_empty(self, text):
        with pytest.raises(ValidationError, match="empty"):
            parse_values(text)

    def test_failed_run_writes_manifest_with_residuals(self, tmp_path):
        rc = run(["metron-solve", "--max-iters", "4", "--output-dir", str(tmp_path)])
        assert rc == 3
        man = read_json(tmp_path / "manifest.json")
        assert man["command"] == "metron-solve"
        assert man["parameters"]["max_iters"] == 4
        assert man["error"]["type"] == "NoConvergence"
        assert man["error"]["message"]
        assert man["error"]["residuals"]["d_phi0"] > 0.0
        assert not (tmp_path / "solution.csv").exists()

    def test_validation_failure_manifest_has_no_residuals(self, tmp_path):
        rc = run(["orbit-threemode", "--samples", "1", "--output-dir", str(tmp_path)])
        assert rc == 2
        error = read_json(tmp_path / "manifest.json")["error"]
        assert error == {"type": "ValidationError",
                         "message": "--samples must be at least 2 to span 0 to --t-max"}

    def test_usage_error_writes_no_manifest(self, tmp_path):
        rc = run(["bragg-classify", "--E0", "x", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_calibrate_degenerate_inputs(self, tmp_path):
        rc = run(["calibrate", "--a-sq", "0", "--beta", "1", "--m-core", "1",
                  "--k5", "1", "--gprime", "1", "--output-dir", str(tmp_path)])
        assert rc == 2

    @staticmethod
    def fresh_process(argv):
        # pytest captures warnings, so only a real process shows whether a
        # numpy RuntimeWarning reaches stderr beside the diagnostic line
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "metronlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_failure_in_a_fresh_process_prints_one_line(self, tmp_path):
        argv = ["metron-rescale", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                "--r0", "2e-306", "--max-iters", "1", "--tol", "1",
                "--r-max", "1.0851078496319515e-82", "--n-points", "16", "--lam", "0",
                "--output-dir", str(tmp_path)]
        proc = self.fresh_process(argv)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    def test_drift_pole_in_the_phase_portrait_is_left_out(self, tmp_path):
        # C3 = 0 puts the drift's pole at delta_r = 0, a node of the portrait
        proc = self.fresh_process(["orbit-drift", "--c1", "0", "--c2", "1", "--c3", "0",
                                   "--delta-r0", "1", "--t-max", "1",
                                   "--output-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == ["verdict = TrappedAt root = 1"]
        rows = np.loadtxt(tmp_path / "phase_portrait.csv", delimiter=",", skiprows=1)
        assert len(rows) == 600 and np.isfinite(rows).all()
        assert not np.any(rows[:, 0] == 0.0)

    def test_drift_verdict_at_the_pole_is_non_finite(self, tmp_path):
        proc = self.fresh_process(["orbit-drift", "--c1=0", "--c2=0", "--c3=0", "--d=0",
                                   "--delta-r0=0", "--t-max=0",
                                   "--output-dir", str(tmp_path)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NonFiniteState"), proc.stderr


class TestSolveRoundtrip:
    def test_metron_solve_writes_solution(self, tmp_path):
        rc = run(["metron-solve", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                  "--r0", "5", "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["residual_eigen"] < 1e-6
        assert man["residual_poisson"] < 1e-6
        assert abs(man["crossing_radius"] - 5.0) < 0.02
        header = (tmp_path / "solution.csv").read_text().splitlines()[0]
        assert header == "r,phi0,phi1,kappa_sq"

    def test_metron_rescale(self, tmp_path):
        rc = run(["metron-rescale", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                  "--r0", "5", "--lam", "0.5", "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["residual_eigen"] < 1e-6

    def test_metron_rescale_lambda_sweep(self, tmp_path):
        rc = run(["metron-rescale", "--omega-hat", "1", "--eps", "1", "--mode", "0",
                  "--r0", "5", "--lam", "0.2:1.4:10", "--jobs", "3",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "rescale_sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,omega,residual_eigen,residual_poisson,status"
        assert len(lines) == 11
        assert all(line.endswith("ok") for line in lines[1:])


class TestTrajectoryOutputs:
    def test_bragg_trajectory_csv_and_stub(self, tmp_path):
        rc = run(["bragg-classify", "--E0", "0.3", "--gamma", "1", "--phi", "0",
                  "--omega0", "1", "--s-max", "120", "--output-dir", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "s,E,deltaS,first_integral"
        assert "gnuplot" not in (tmp_path / "trajectory.gp").read_text()
        out = read_json(tmp_path / "classification.json")
        assert out["first_integral_drift"] < 1e-8

    def test_threemode_rows_at_uniform_t(self, tmp_path):
        rc = run(["orbit-threemode", "--k", "0.5", "--a1", "1", "--a2", "0.4",
                  "--a12", "0.3", "--t-max", "50", "--samples", "123",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "threemode.csv", delimiter=",", skiprows=1)
        assert rows.shape == (123, 6)
        assert np.max(np.abs(rows[:, 0] - np.linspace(0.0, 50.0, 123))) <= 1e-12 * 50.0
        assert read_json(tmp_path / "manifest.json")["invariant_drift"] < 1e-8
