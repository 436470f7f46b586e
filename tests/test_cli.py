import json
from pathlib import Path

import pytest

from metronlab.cli import run


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
        for key in ("ratio", "phi", "gamma", "omega0", "jobs", "formats",
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

    def test_calibrate_degenerate_inputs(self, tmp_path):
        rc = run(["calibrate", "--a-sq", "0", "--beta", "1", "--m-core", "1",
                  "--k5", "1", "--gprime", "1", "--output-dir", str(tmp_path)])
        assert rc == 2


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
