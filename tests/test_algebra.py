import numpy as np
import pytest
from scipy.optimize import brentq

from metronlab.algebra import (
    GammaSet,
    calibrate_constants,
    check_gauge_conditions,
    chiral_representation,
    color_euclidean,
    color_noneuclidean,
    dirac_representation,
    electroweak_config,
    extended_euclidean,
    find_mass_ratio_config,
    gauge_correspondence,
    kg_factorization,
    mass_ratio,
    minimal_euclidean,
    minimal_noneuclidean,
    quark_ew_wavenumbers,
    quark_star,
    run_suite,
    scale_ratio,
    spinor_metric,
    verify_gamma,
)
from metronlab.errors import (
    ColorPlaneViolation,
    DivisionDegenerate,
    InvalidSignature,
    MetricMismatch,
    SingularVChoice,
    ValidationError,
)


class TestGamma:
    def test_dirac_representation_exact(self):
        rep = verify_gamma(dirac_representation())
        assert rep["all_pass"]
        assert rep["max_deviation"] < 1e-12

    def test_chiral_representation_exact(self):
        gs = chiral_representation()
        rep = verify_gamma(gs)
        assert rep["all_pass"]
        assert np.allclose(gs.gamma5, np.diag([-1, -1, 1, 1]))

    def test_injected_fault_reported(self):
        gs = dirac_representation()
        g1 = gs.gammas[0].copy()
        g1[0, 0] += 1e-3
        bad = GammaSet(gammas=(g1,) + gs.gammas[1:], gamma5=gs.gamma5)
        rep = verify_gamma(bad)
        assert not rep["all_pass"]
        assert 1e-4 < rep["max_deviation"] < 1e-2


MODELS = [
    minimal_noneuclidean(1.0),
    minimal_noneuclidean(2.7, k5=1.1),
    minimal_euclidean(1.0),
    minimal_euclidean(3.0, k5=0.4),
    extended_euclidean(2.0, k5=0.7, k9=0.4, eta9=-1.0),
    extended_euclidean(2.0, k5=0.7, k9=0.4, eta9=1.0),
    color_noneuclidean(1.3, k7=0.9, k8=0.5),
    color_euclidean(1.7, k7=0.9, k8=0.5),
]


class TestPolarizationModels:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_gauge_conditions_exact(self, model):
        rep = check_gauge_conditions(model)
        assert rep["all_pass"]
        for c in rep["checks"]:
            assert c["max_deviation"] == 0.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_spinor_metric_target(self, model):
        M = spinor_metric(model)  # raises MetricMismatch on failure
        kind, scale = model.target
        if kind == "dirac":
            assert np.allclose(M, np.diag([1, 1, -1, -1]) / scale, atol=1e-14)
        else:
            assert np.allclose(M, np.eye(4) / scale, atol=1e-14)

    def test_noneuclidean_entries(self):
        # direct index-summation oracle for two entries
        model = minimal_noneuclidean(1.0)
        eta = np.diag(model.eta)
        oracle = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                for A in range(4):
                    for B in range(4):
                        oracle[a, b] += (
                            model.tensors[a][A, B]
                            * eta[A] * eta[B] * model.tensors[b][A, B]
                        )
        assert oracle[0, 0] == pytest.approx(1.0)
        assert oracle[2, 2] == pytest.approx(-1.0)
        assert np.allclose(oracle, spinor_metric(model))

    def test_divergence_fault_injected(self):
        model = minimal_noneuclidean(1.0)
        bad = model.tensors[0].copy()
        bad[0, 1] = bad[1, 0] = 0.3  # nonzero first row breaks k_A P^{AB} = 0
        broken = type(model)(
            name=model.name, eta=model.eta, tensors=(bad,) + model.tensors[1:],
            k=model.k, target=model.target,
        )
        rep = check_gauge_conditions(broken)
        assert not rep["all_pass"]

    def test_metric_mismatch_raised(self):
        model = minimal_noneuclidean(1.0)
        bad = model.tensors[0] * 1.001
        broken = type(model)(
            name=model.name, eta=model.eta, tensors=(bad,) + model.tensors[1:],
            k=model.k, target=model.target,
        )
        with pytest.raises(MetricMismatch):
            spinor_metric(broken)


class TestKgFactorization:
    def test_on_shell_product_vanishes(self):
        gs = dirac_representation()
        w = 1.2
        spatial = np.array([0.3, -0.2, 0.7])
        k = np.concatenate([spatial, [np.sqrt(w * w + spatial @ spatial)]])
        prod = (1j * gs.slash(k) + w * np.eye(4)) @ (1j * gs.slash(k) - w * np.eye(4))
        assert np.max(np.abs(prod)) < 1e-12

    def test_off_shell_residual_tiny(self):
        # property sample over random wavenumbers and both representations
        rng = np.random.default_rng(11)
        for gs in (dirac_representation(), chiral_representation()):
            for _ in range(25):
                k = rng.normal(size=4) * 2.0
                w = rng.uniform(0.1, 3.0)
                assert kg_factorization(k, w, gs) < 1e-12


class TestQuarkStar:
    def test_constants(self):
        st = quark_star(1.0)
        assert st["boson_mass"] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert st["A1"] == pytest.approx(4.0, abs=1e-12)
        assert st["A2"] == pytest.approx(-2.0, abs=1e-12)
        assert st["C3"] == pytest.approx(0.5, abs=1e-12)
        assert st["g3_prime"] / st["g3"] == pytest.approx(np.sqrt(6.0), abs=1e-12)

    def test_sum_zero_any_orientation(self):
        for ang in np.linspace(0.0, 2.0 * np.pi, 17):
            st = quark_star(1.7, orientation_angle=ang)
            assert np.max(np.abs(st["sum"])) < 1e-12

    def test_pairwise_inner_products(self):
        st = quark_star(2.0, orientation_angle=0.9)
        ks = st["wavenumbers"]
        for p in range(3):
            for q in range(3):
                if p != q:
                    assert ks[p] @ ks[q] == pytest.approx(-2.0, abs=1e-12)

    def test_diagonal_boson_sum_vanishes(self):
        st = quark_star(1.0)
        assert abs(st["diagonal_sum_coefficient"]) < 1e-12

    def test_nondiagonal_boson_masses(self):
        st = quark_star(1.4)
        for key, b in st["bosons"].items():
            assert b["mass"] == pytest.approx(np.sqrt(3.0) * 1.4, abs=1e-12)


class TestElectroweak:
    def test_zero_k9_ratio(self):
        cfg = electroweak_config(1.0, 0.0)
        assert cfg.kappa_sq == 0.0
        # equal mirrored masses at kappa = 0 give 1/sqrt(2)
        assert cfg.ratio == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)

    def test_general_ratio_formula(self):
        # k9 = 0, unequal masses handled by the standalone ratio function
        val = mass_ratio(2.0, 1.0, 0.0)
        assert val == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)

    def test_rootfind_hits_target(self):
        cfg = find_mass_ratio_config(0.87)
        assert abs(cfg.ratio - 0.87) < 1e-6
        assert cfg.Lambda_sq > 0
        assert cfg.g2 == pytest.approx(np.sqrt(cfg.C2))
        assert cfg.e_M == pytest.approx(np.sqrt(cfg.Lambda_sq / cfg.omega_nu_sq))

    @staticmethod
    def _bracket_search(target):
        """The root search the closed form replaced: brentq on x = kappa/omega_nu
        in [1e-9, 1 - 1e-9], where the ratio is sqrt((1 + x^2)/2); (k5, k9)."""
        def f(x):
            return float(mass_ratio(1.0, 1.0, x * x)) - target

        x = brentq(f, 1e-9, 1.0 - 1e-9, xtol=1e-14, rtol=1e-15)
        return np.sqrt(1.0 + x * x), x

    def test_closed_form_keeps_the_bracket_search_bits_at_the_suite_target(self):
        cfg = find_mass_ratio_config(0.87)
        k5, k9 = self._bracket_search(0.87)
        assert (cfg.k5_e, cfg.k9) == (k5, k9)
        assert cfg.k5_e.hex() == "0x1.3af940c5f554fp+0"
        assert cfg.k9.hex() == "0x1.6f00346dc2179p-1"

    def test_closed_form_ratio_matches_the_target(self):
        for target in np.linspace(1.0 / np.sqrt(2.0), 1.0 - 1e-9, 52)[1:-1]:
            cfg = find_mass_ratio_config(target)
            assert abs(cfg.ratio - target) < 1e-15
            k5, _ = self._bracket_search(target)
            assert cfg.k5_e == pytest.approx(k5, rel=1e-13)

    @pytest.mark.parametrize("target", [0.5, 0.7071067811865475, 1.0, 1.2, float("nan"),
                                        float("inf")])
    def test_unreachable_targets_are_refused(self, target):
        # equal masses reach [1/sqrt(2), 1) only; 0.7071067811865475 is one
        # ulp below 1/sqrt(2)
        with pytest.raises(ValidationError, match="not reachable"):
            find_mass_ratio_config(target)

    @pytest.mark.parametrize("target", [0.7071067811865476, 0.9999999999])
    def test_targets_at_the_edges_are_reached(self, target):
        cfg = find_mass_ratio_config(target)
        assert abs(cfg.ratio - target) < 1e-15

    def test_signature_inequality_enforced(self):
        with pytest.raises(InvalidSignature):
            electroweak_config(1.0, 0.9)

    @pytest.mark.parametrize("k5, k9", [(np.inf, 0.0), (np.nan, 0.0), (1e200, 1.0),
                                        (1e80, 0.0)])
    def test_non_finite_or_overflowing_wavenumbers_are_refused(self, k5, k9):
        # 1e200**2 raised a plain OverflowError, inf gave NaN masses, and
        # 1e80 squares fine but Lambda^2 ~ k5^4 overflows
        with pytest.raises(ValidationError, match="finite"):
            electroweak_config(k5, k9)

    def test_ratio_continuity(self):
        xs = np.linspace(0.0, 0.69, 40)
        vals = [electroweak_config(np.sqrt(1 + x * x), x).ratio for x in xs]
        assert np.max(np.abs(np.diff(vals))) < 0.05


class TestQuarkEw:
    def setup_method(self):
        cfg = find_mass_ratio_config(0.87)
        self.k_e = np.array([cfg.k5_e, 0, 0, 0, cfg.k9])
        self.k_nu = np.array([0, cfg.k6_nu, 0, 0, -cfg.k9])

    def test_sum_identity_exact(self):
        res = quark_ew_wavenumbers(self.k_e, self.k_nu, np.zeros(5))
        assert res["sum_identity_residual"] == 0.0

    def test_charge_pattern(self):
        k_c = np.array([0, 0, 0.7, 0.2, 0])
        res = quark_ew_wavenumbers(self.k_e, self.k_nu, k_c)
        ch = res["charges_in_e_M"]
        assert ch["electron"] == pytest.approx(-1.0, abs=1e-12)
        assert ch["neutrino"] == pytest.approx(0.0, abs=1e-12)
        assert ch["up"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ch["down"] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_k5_components_scale_like_charges(self):
        res = quark_ew_wavenumbers(self.k_e, self.k_nu, np.zeros(5))
        assert res["k_u"][0] == pytest.approx(-(2.0 / 3.0) * self.k_e[0])
        assert res["k_d"][0] == pytest.approx((1.0 / 3.0) * self.k_e[0])

    def test_charged_current_third(self):
        k_c = np.array([0, 0, 0.4, -0.1, 0])
        res = quark_ew_wavenumbers(self.k_e, self.k_nu, k_c)
        assert res["w_coupling_ratio"] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_color_plane_violation(self):
        with pytest.raises(ColorPlaneViolation):
            quark_ew_wavenumbers(self.k_e, self.k_nu, np.array([0.1, 0, 0.7, 0.2, 0]))


class TestGaugeCorrespondence:
    def test_calibration_constant(self):
        st = quark_star(1.3, orientation_angle=0.2)
        rep = gauge_correspondence(st, 0.5, -0.8)
        assert rep["C_equals_minus_mass_sq"] < 1e-12

    def test_rank_two_consistency(self):
        st = quark_star(1.0)
        rep = gauge_correspondence(st, 0.4, 0.9)
        assert rep["rank"] == 2
        assert rep["residual"] < 1e-12
        assert rep["row_sum"] < 1e-12

    def test_zero_parameters_zero_solution(self):
        st = quark_star(1.0)
        rep = gauge_correspondence(st, 0.0, 0.0)
        assert np.max(np.abs(rep["eps_diagonal"])) == 0.0

    def test_perturbed_star_breaks_consistency(self):
        st = quark_star(1.0)
        ks = list(st["wavenumbers"])
        ks[0] = ks[0] + np.array([0.05, 0.0])  # sum no longer zero
        broken = dict(st)
        broken["wavenumbers"] = tuple(ks)
        rep = gauge_correspondence(broken, 0.4, -0.7)
        assert rep["residual"] > 1e-6

    def test_singular_direction_choice(self):
        st = quark_star(1.0)
        v = (np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(SingularVChoice):
            gauge_correspondence(st, 0.1, 0.1, v_diag=v)


class TestCalibration:
    def test_unit_normalization(self):
        cal = calibrate_constants(2.0, 1.0, 1.0, 1.0, 1.0)
        assert cal["G"] == 1.0

    def test_massless_core(self):
        cal = calibrate_constants(2.0, 0.7, 0.0, 1.4, 2.2)
        assert cal["m"] == 0.0
        assert cal["epsilon_ratio"] == 0.0

    def test_loop_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a_sq, beta, M, k5, gp = rng.uniform(0.1, 3.0, size=5)
            cal = calibrate_constants(a_sq, beta, M, k5, gp)
            loop = cal["G"] * (cal["m"] / cal["q"]) ** 2
            assert abs(loop - cal["epsilon_ratio"]) < 1e-12 * max(cal["epsilon_ratio"], 1e-6)

    def test_degenerate_inputs(self):
        with pytest.raises(DivisionDegenerate):
            calibrate_constants(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DivisionDegenerate):
            calibrate_constants(1.0, 0.0, 1.0, 1.0, 1.0)

    def test_vanishing_k5_and_overflowing_epsilon(self):
        with pytest.raises(DivisionDegenerate):
            calibrate_constants(1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DivisionDegenerate):
            calibrate_constants(1.0, 1e-200, 1.0, 1e-200, 1.0)
        with pytest.raises(DivisionDegenerate, match="overflows"):
            calibrate_constants(1.0, 1.0, 1.0, 1e-273, 1.0)

    def test_scale_ratio(self):
        assert scale_ratio(1.0) == 1.0
        assert scale_ratio(1e-42) == pytest.approx(1e-7)
        val = scale_ratio(2.4e-43)
        assert 6e-8 <= val <= 1e-7
        with pytest.raises(ValidationError):
            scale_ratio(-1.0)


class TestRunSuite:
    @pytest.mark.parametrize("names", [[], ["nope"], ["gamma", "nope"]])
    def test_empty_or_unknown_suite_is_validation_error(self, names):
        with pytest.raises(ValidationError, match="suites"):
            run_suite(names)

    def test_gamma_suite_records(self):
        checks = run_suite(["gamma"])
        assert len(checks) == 6
        assert {c["status"] for c in checks} == {"pass"}
