import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metronlab import cli, numerics
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

    def test_orbit_drift_tangent_root_is_unstable(self, tmp_path):
        # C1^2 + C2 - C3 = 0: a double root, where the rate touches zero
        # without changing sign
        rc = run(["orbit-drift", "--c1", "1", "--c2", "0", "--c3", "1", "--delta-r0", "2",
                  "--t-max", "5", "--output-dir", str(tmp_path)])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["equilibria"] == [{"delta_r": 1.0, "stability": "Unstable"}] * 2

    def test_greens_eval_lightcone(self, tmp_path):
        rc = run(["greens-eval", "--r", "2", "--t", "2", "--kind", "retarded",
                  "--method", "lightcone", "--output-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "kernel_scan.csv").read_text()
        assert "lightcone" in text

    def test_bragg_lattice_readme_example(self, tmp_path):
        rc = run(["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "0.6,0,0",
                  "--fundamental", "0,0.6,0", "--dimensionality", "2", "--omega0", "1",
                  "--output-dir", str(tmp_path)])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "scatter_set.csv", delimiter=",", skiprows=1, ndmin=2)
        assert read_json(tmp_path / "manifest.json")["count"] == len(rows) > 0
        np.testing.assert_allclose(rows[:, 4], -1.0, rtol=0, atol=1e-8)  # k.k = -omega0^2

    def test_greens_conserve_without_interaction_is_refused(self, tmp_path):
        rc = run(["greens-conserve", "--kind", "retarded", "--separation", "1e150",
                  "--output-dir", str(tmp_path)])
        assert rc == 2
        error = read_json(tmp_path / "manifest.json")["error"]
        assert error["type"] == "ValidationError" and "dp_i is exactly zero" in error["message"]
        assert not (tmp_path / "conservation.json").exists()


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

    @pytest.mark.parametrize("omega_hat", ["0.3", "0.1", "0.01", "1e-3"])
    def test_below_the_family_end_is_not_trapped(self, tmp_path, capsys, omega_hat):
        # omega_hat r0 from 1.5 down to 0.005: the eigen solve's Robin passes
        # alternate across the continuum edge, so the mode is not bound
        rc = run(["metron-solve", "--omega-hat", omega_hat, "--output-dir", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("error: NotTrapped")
        assert "not bound" in lines[0]
        assert read_json(tmp_path / "manifest.json")["error"]["type"] == "NotTrapped"

    @pytest.mark.parametrize("r", ["1e15", "1.000000000000001e15"])
    def test_stationary_phase_without_digits_exits_3_with_one_line(self, tmp_path,
                                                                   capsys, r):
        # the phase k0 r - omega_0 |t| with omega_0 |t| = 2.3e15 rad, whose ulp is 0.5 rad
        rc = run(["greens-eval", "--r", r, "--t", "2e15", "--kind", "retarded",
                  "--method", "stationary", "--k-max", "40", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "no significant digits" in lines[0]

    def test_spent_evaluation_budget_exits_3_with_one_line(self, tmp_path, capsys,
                                                           monkeypatch):
        # a growing three-mode run shrinks its steps without end; the budget
        # is lowered here so the refusal comes in a few milliseconds
        monkeypatch.setattr(numerics, "_MAX_RHS_EVALS", 1000)
        rc = run(["orbit-threemode", "--a2=-4.850998203236746", "--a12=-10.0",
                  "--k=-0.0-5.623514109211828j", "--mu1=2.2479016422766147",
                  "--mu2=3.6697626041902804", "--t-max=-11.846261680211956",
                  "--samples=80", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: EvaluationBudgetExceeded")
        assert read_json(tmp_path / "manifest.json")["error"]["type"] == "EvaluationBudgetExceeded"

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
        ["greens-conserve", "--separation", "nan"],
        ["greens-conserve", "--speed", "nan"],
        ["greens-conserve", "--speed", "1e200"],
        ["greens-conserve", "--span", "nan"],
        ["greens-conserve", "--span", "inf"],
        ["greens-conserve", "--span", "1e200"],
        ["greens-conserve", "--separation", "1e308"],
        # no sample pair interacts: dp_i is exactly zero
        ["greens-conserve", "--kind", "retarded", "--separation", "1e150"],
        ["greens-conserve", "--kind", "symmetric", "--separation", "1e150"],
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
        ["greens-eval", "--r", "1e-301", "--t", "2e-301", "--method", "stationary"],
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
        ["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "0.6,0,0",
         "--max-order", "-1", "--omega0", "1"],
        ["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "0.6,0,0",
         "--omega0", "nan"],
        # a harmonic 3 x 1e308 overflows (Tier-1 turns a RuntimeWarning into
        # an error, so a warning beside the refusal fails these too)
        ["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "1e308,0,0",
         "--fundamental", "0,1e308,0", "--omega0", "0.9999999999999999"],
        ["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "1e308,0,0",
         "--fundamental", "0,1e308,0", "--omega0", "0.9999999999999999",
         "--dimensionality", "2"],
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
        residuals = man["error"]["residuals"]
        assert residuals["d_phi0"] > 0.0 and residuals["gap"] > 0.0
        # where it stalled: the last sweeps' field changes and largest gaps
        assert residuals["d_phi0_history"][-1] == residuals["d_phi0"]
        assert residuals["gap_history"][-1] == residuals["gap"]
        assert len(residuals["d_phi0_history"]) == len(residuals["gap_history"]) == 4
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
        # the unit grid's 2/h^2 ~ 4e166 is past what the eigen bisection takes,
        # a ValidationError (it once failed inside dstebz with exit 3)
        assert proc.returncode == 2
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

    @pytest.mark.parametrize("extra, code, error", [
        (["--t-max", "inf"], 2, "ValidationError"),
        (["--t-max", "1e308", "--mu1", "1"], 3, "NonFiniteState"),
    ])
    def test_variance_time_out_of_range(self, tmp_path, extra, code, error):
        proc = self.fresh_process(["orbit-variance", "--n1", "1", "--n2", "0.3",
                                   "--kprime", "0.5", *extra, "--output-dir", str(tmp_path)])
        assert proc.returncode == code
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}"), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "variances.csv").exists()



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


@pytest.fixture
def fresh_parser(monkeypatch):
    """Drop the process's parser and count the builds until the test ends."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    yield builds
    cli._shared_parser.cache_clear()


class TestParserReuse:
    """run() builds its parser once per process; no run leaks into the next."""

    def test_runs_build_the_parser_once(self, tmp_path, fresh_parser):
        for j in range(5):
            assert run(["calibrate", "--a-sq", "2", "--beta", "0.7", "--m-core", "0.3",
                        "--k5", "1.4", "--gprime", str(2.0 + j),
                        "--output-dir", str(tmp_path / str(j))]) == 0
        assert run(["bragg-classify", "--E0", "x"]) == 2
        assert len(fresh_parser) == 1

    def test_config_values_do_not_outlive_their_run(self, tmp_path, fresh_parser):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 0.35\nspeed = 0.25\nsamples = 31\n")
        assert run(["greens-conserve", "--config", str(cfg),
                    "--output-dir", str(tmp_path / "a")]) == 0
        assert read_json(tmp_path / "a" / "manifest.json")["parameters"]["sigma"] == 0.35
        assert run(["greens-conserve", "--samples", "31",
                    "--output-dir", str(tmp_path / "b")]) == 0
        params = read_json(tmp_path / "b" / "manifest.json")["parameters"]
        assert (params["sigma"], params["speed"], params["config"]) == (0.4, 0.3, None)

    def test_appended_flags_do_not_outlive_their_run(self, tmp_path, fresh_parser):
        argv = ["bragg-lattice", "--ki", "0.2,0,1.1,1.5", "--fundamental", "0.6,0,0",
                "--dimensionality", "2", "--omega0", "1"]
        assert run(argv + ["--fundamental", "0,0.6,0", "--output-dir", str(tmp_path / "a")]) == 0
        assert run(argv + ["--output-dir", str(tmp_path / "b")]) == 0
        assert read_json(tmp_path / "b" / "manifest.json")["parameters"]["fundamental"] == [
            "0.6,0,0"]
        cli._shared_parser.cache_clear()
        assert run(argv + ["--output-dir", str(tmp_path / "alone")]) == 0
        assert ((tmp_path / "b" / "scatter_set.csv").read_bytes()
                == (tmp_path / "alone" / "scatter_set.csv").read_bytes())

    def test_refused_run_leaves_the_next_unchanged(self, tmp_path, fresh_parser):
        out = tmp_path / "out"
        good = ["greens-conserve", "--samples", "41", "--output-dir", str(out)]
        assert run(good) == 0
        alone = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        cli._shared_parser.cache_clear()
        assert run(["greens-conserve", "--sigma", "0.2", "--kind", "symmetric",
                    "--samples", "x", "--output-dir", str(tmp_path / "refused")]) == 2
        assert run(good) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == alone
        assert len(fresh_parser) == 2
