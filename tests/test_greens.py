import numpy as np
import pytest

from metronlab.errors import (
    KernelUnresolved,
    OriginSingular,
    QuadratureNotConverged,
    SuperluminalCone,
    ValidationError,
)
from metronlab.greens import (
    DispersionParams,
    WorldLine,
    absorber_balance,
    convolve_nondispersive,
    damping_coefficient,
    freewave_growth,
    greens_dispersive,
    greens_nondispersive,
    greens_stationary_phase,
    momentum_exchange,
    response_delta,
    stationary_phase_point,
)


class TestNondispersive:
    def test_retarded_on_support_weight(self):
        desc = greens_nondispersive(2.0, 2.0, "retarded")
        (branch,) = desc["branches"]
        assert branch["on_support"]
        assert branch["residual"] == 0.0
        assert branch["weight"] == pytest.approx(-1.0 / (4.0 * np.pi))

    def test_retarded_off_support_for_negative_time(self):
        desc = greens_nondispersive(2.0, -2.0, "retarded")
        (branch,) = desc["branches"]
        assert not branch["on_support"]

    def test_symmetric_half_weights(self):
        desc = greens_nondispersive(1.0, 1.0, "symmetric")
        weights = {b["branch"]: b["weight"] for b in desc["branches"]}
        assert weights["retarded"] == pytest.approx(-1.0 / (4.0 * np.pi))
        assert weights["advanced"] == pytest.approx(-1.0 / (4.0 * np.pi))

    def test_origin_singular(self):
        with pytest.raises(OriginSingular):
            greens_nondispersive(0.0, 1.0, "retarded")

    def test_convolution_matches_characteristics(self):
        # spherical wave from a Gaussian point-source pulse: the method of
        # characteristics gives -s(t - r)/(2 pi r) on the retarded branch
        width = 0.3
        source = lambda t: np.exp(-((t - 3.0) ** 2) / (2 * width**2))
        r = 2.0
        t_grid = np.linspace(0.0, 10.0, 101)
        num = convolve_nondispersive(source, r, t_grid, "retarded", delta_width=0.003)
        exact = -source(t_grid - r) / (2.0 * np.pi * r)
        assert np.max(np.abs(num - exact)) < 1e-4 * np.max(np.abs(exact))


class TestDispersive:
    params = DispersionParams(omega_hat=1.0, k_max=40.0)

    def test_causal_support(self):
        assert greens_dispersive(2.0, -2.0, self.params, "retarded") == 0.0
        assert greens_dispersive(2.0, 2.0, self.params, "advanced") == 0.0

    def test_symmetric_time_even(self):
        v1 = greens_dispersive(10.0, 25.0, self.params, "symmetric")
        v2 = greens_dispersive(10.0, -25.0, self.params, "symmetric")
        assert v1 == v2
        assert v1 != 0.0

    def test_interior_point_agrees_with_asymptotics(self):
        # v = 0.5 at t = 40: inside the 5% asymptotic regime
        q = greens_dispersive(20.0, 40.0, self.params, "retarded")
        s = greens_stationary_phase(20.0, 40.0, self.params, "retarded")
        assert abs(q - s) < 0.05 * abs(q)

    def test_agreement_improves_with_phase_volume(self):
        for (v, t) in ((0.5, 80.0), (0.3, 120.0), (0.6, 90.0)):
            r = v * t
            q = greens_dispersive(r, t, self.params, "retarded")
            s = greens_stationary_phase(r, t, self.params, "retarded")
            k0, om0, wpp = stationary_phase_point(self.params, v)
            assert wpp * t > 40.0
            assert abs(q - s) < 0.05 * abs(q)

    def test_branches_are_time_mirrors_with_the_kind_weights(self):
        for kernel in (greens_dispersive, greens_stationary_phase):
            ret = kernel(10.0, 25.0, self.params, "retarded")
            assert ret != 0.0
            assert kernel(10.0, -25.0, self.params, "advanced") == ret
            assert kernel(10.0, 25.0, self.params, "symmetric") == 0.5 * ret
            assert kernel(10.0, -25.0, self.params, "symmetric") == 0.5 * ret

    @pytest.mark.parametrize("call", [
        lambda kind: greens_nondispersive(1.0, 1.0, kind),
        lambda kind: convolve_nondispersive(np.cos, 1.0, [0.0, 1.0], kind),
        lambda kind: greens_dispersive(1.0, 1.0, DispersionParams(1.0), kind),
        lambda kind: greens_stationary_phase(1.0, 2.0, DispersionParams(1.0), kind),
    ])
    def test_unknown_kind_is_validation_error(self, call):
        with pytest.raises(ValidationError, match="kind"):
            call("causal")

    def test_validation(self):
        with pytest.raises(OriginSingular):
            greens_dispersive(0.0, 1.0, self.params, "retarded")
        with pytest.raises(ValidationError):
            greens_dispersive(1.0, 0.0, self.params, "retarded")
        with pytest.raises(ValidationError):
            greens_dispersive(1.0, 1.0, DispersionParams(0.0, 40.0), "retarded")


class TestStationaryPhase:
    def test_rest_limit(self):
        k0, om0, wpp = stationary_phase_point(DispersionParams(1.3, 40.0), 0.0)
        assert k0 == 0.0
        assert om0 == pytest.approx(1.3)

    def test_direct_formula_point(self):
        k0, om0, _ = stationary_phase_point(DispersionParams(1.0, 40.0), 0.6)
        assert k0 == pytest.approx(0.75)
        assert om0 == pytest.approx(1.25)

    def test_superluminal_cone(self):
        with pytest.raises(SuperluminalCone):
            greens_stationary_phase(5.0, 4.0, DispersionParams(1.0, 40.0), "retarded")

    @pytest.mark.parametrize("omega_hat", [1e-175, 1e150])
    def test_curvature_outside_the_float_range_is_validation_error(self, omega_hat):
        with pytest.raises(ValidationError, match="float range"):
            greens_stationary_phase(1.0, 2.0, DispersionParams(omega_hat, 40.0), "retarded")

    @pytest.mark.parametrize("omega_hat, k_max", [(1.0, np.nan), (1.0, np.inf), (1.0, 1e308),
                                                  (np.nan, 40.0), (1e200, 40.0)])
    def test_dispersion_needs_finite_squares(self, omega_hat, k_max):
        with pytest.raises(ValidationError):
            DispersionParams(omega_hat, k_max)

    def test_nan_quadrature_is_not_converged(self):
        with pytest.raises(QuadratureNotConverged):
            greens_dispersive(1e300, 2e300, DispersionParams(1.0, 40.0), "retarded")

    @pytest.mark.parametrize("r, t", [(1e15, 1.0), (1.0, -1e15)])
    def test_phase_without_significant_digits_is_refused(self, r, t):
        # k_max r or omega(k_max) |t| = 4e16 rad, whose ulp is 8 rad
        with pytest.raises(QuadratureNotConverged, match="no significant digits"):
            greens_dispersive(r, t, DispersionParams(1.0, 40.0), "symmetric")

    def test_zero_time_is_validation_error(self):
        with pytest.raises(ValidationError, match="t"):
            greens_stationary_phase(1.0, 0.0, DispersionParams(1.0, 40.0), "retarded")


class TestMomentumExchange:
    span = (-6.0, 6.0)
    n = 101

    def test_parallel_static_lines_antisymmetric(self):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.static_point([3.0, 0.0, 0.0], self.span, self.n)
        dp_a, dp_b = momentum_exchange(a, b, 0.4, "symmetric")
        assert np.max(np.abs(dp_a + dp_b)) < 1e-14 * max(np.max(np.abs(dp_a)), 1e-30)
        assert np.max(np.abs(dp_a)) > 0.0

    def test_generic_pair_conserves_with_symmetric_kernel(self):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.from_velocity([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], self.span, self.n)
        dp_a, dp_b = momentum_exchange(a, b, 0.4, "symmetric")
        violation = np.max(np.abs(dp_a + dp_b)) / np.max(np.abs(dp_a))
        assert violation < 1e-10

    def test_retarded_kernel_radiates(self):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.from_velocity([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], self.span, self.n)
        dp_a, dp_b = momentum_exchange(a, b, 0.4, "retarded")
        violation = np.max(np.abs(dp_a + dp_b)) / np.max(np.abs(dp_a))
        assert violation > 1e-3

    def test_kernel_unresolved(self):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.static_point([0.5, 0.0, 0.0], self.span, self.n)
        with pytest.raises(KernelUnresolved):
            momentum_exchange(a, b, 0.8, "symmetric")

    def test_sigma_at_the_float_range_edge(self):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.static_point([3.0, 0.0, 0.0], self.span, self.n)
        with pytest.raises(ValidationError, match="float range"):
            momentum_exchange(a, b, 2.2250738585e-313, "symmetric")  # sigma^4 = 0
        # sigma^4 = 1.6e-307 is normal: g underflows to 0 off the cone, where
        # z / sigma^4 overflows, and the impulses stay finite (they were NaN)
        dp_a, dp_b = momentum_exchange(a, b, 2e-77, "retarded")
        assert np.isfinite(dp_a).all() and np.isfinite(dp_b).all()

    def test_worldline_normalization_enforced(self):
        s = np.linspace(0, 1, 8)
        x = np.zeros((8, 4))
        u = np.zeros((8, 4))  # u.u = 0, invalid
        with pytest.raises(ValidationError):
            WorldLine(s=s, x=x, u=u)


class TestResponseDelta:
    def test_resonance_secular_value(self):
        assert response_delta(0.0, 7.5) == pytest.approx(7.5)

    def test_full_oscillation_zero(self):
        s = 3.0
        w = 2.0 * np.pi / s
        assert abs(response_delta(w, s)) < 1e-14

    def test_asymptotic_delta_normalization(self):
        width = 0.5
        # offset test function so the odd-part error term is visible
        f = lambda w: np.exp(-((w - 0.2) ** 2) / (2 * width**2))
        w = np.linspace(-10 * width, 10 * width, 400001)

        def smeared(s):
            return float(np.real(np.trapezoid(response_delta(w, s) * f(w), w)))

        target = np.pi * f(0.0)
        s_big = 200.0 / width
        assert abs(smeared(s_big) - target) < 0.02 * target
        # error bounded by O(1/s) over a decade
        e1 = abs(smeared(4.0 / width) - target)
        e2 = abs(smeared(40.0 / width) - target)
        assert e2 < e1 / 5.0


class TestDampingAndGrowth:
    disp = DispersionParams(omega_hat=1.0, k_max=8.0)

    @staticmethod
    def spectrum(q, w):
        s0 = 0.8
        return np.exp(-(np.asarray(q) ** 2 + np.asarray(w) ** 2) / (2 * s0**2))

    def test_zero_spectrum(self):
        val = damping_coefficient(lambda q, w: 0.0 * np.asarray(q), 1.0, 1.4, self.disp)
        assert val == 0.0

    def test_gaussian_matches_cartesian_oracle(self):
        k0 = 1.2
        om0 = float(self.disp.omega_k(k0))
        main = damping_coefficient(self.spectrum, k0, om0, self.disp)
        assert main > 0.0
        # independent surface quadrature: cartesian grid with the frequency
        # integral collapsed onto the dispersion surface
        n = 161
        ax = np.linspace(-6.0, 6.0, n)
        dx = ax[1] - ax[0]
        kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        kmag = np.sqrt(kx**2 + ky**2 + kz**2)
        q = np.sqrt((kx - k0) ** 2 + ky**2 + kz**2)
        wk = np.sqrt(1.0 + kmag**2)
        oracle = np.pi / (4 * om0**2) * self.spectrum(q, wk - om0).sum() * dx**3
        assert abs(main - oracle) < 1e-4 * oracle

    def test_linearity(self):
        k0 = 1.2
        om0 = float(self.disp.omega_k(k0))
        one = damping_coefficient(self.spectrum, k0, om0, self.disp)
        two = damping_coefficient(lambda q, w: 2.0 * self.spectrum(q, w), k0, om0, self.disp)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_freewave_zero_intensity(self):
        val = freewave_growth(self.spectrum, 0.0, [0.5, 0, 0], [1.2, 0, 0], 1.5, self.disp)
        assert val == 0.0

    def test_freewave_symmetric_terms_equal(self):
        # k orthogonal to k0 and omega0 = 0 makes the two shifts identical
        val_pair = []
        for sgn in (1.0, -1.0):
            val_pair.append(
                freewave_growth(self.spectrum, 1.0, [0.0, 0.7, 0.0],
                                [sgn * 1.2, 0.0, 0.0], 0.0, self.disp)
            )
        assert val_pair[0] == pytest.approx(val_pair[1], rel=1e-12)

    def test_freewave_matches_smeared_delta_oracle(self):
        kvec = np.array([0.5, 0.2, -0.1])
        k0v = np.array([1.2, 0.0, 0.0])
        om0 = float(self.disp.omega_k(1.2))
        main = freewave_growth(self.spectrum, 1.7, kvec, k0v, om0, self.disp)
        kmag = np.sqrt(kvec @ kvec)
        wk = np.sqrt(1 + kmag**2)
        eta = 1e-4
        wgrid = np.linspace(wk - 6e-3, wk + 6e-3, 20001)
        delta = np.exp(-((wgrid - wk) ** 2) / (2 * eta**2)) / (np.sqrt(2 * np.pi) * eta)
        qm = np.sqrt((kvec - k0v) @ (kvec - k0v))
        qp = np.sqrt((kvec + k0v) @ (kvec + k0v))
        oracle = np.pi / (2 * wk**2) * 1.7 * np.trapezoid(
            (self.spectrum(qm, wgrid - om0) + self.spectrum(qp, wgrid + om0)) * delta,
            wgrid,
        )
        assert abs(main - oracle) < 1e-4 * oracle

    def test_positivity_rejected_for_negative_spectrum(self):
        with pytest.raises(ValidationError):
            damping_coefficient(lambda q, w: -1.0 + 0.0 * np.asarray(q), 1.0, 1.4, self.disp)


class TestAbsorberBalance:
    def test_closed_form_identities(self):
        rep = absorber_balance(0.7 - 0.2j)
        A = 0.7 - 0.2j
        assert rep["B"] == pytest.approx(2j * A)
        assert rep["net_outgoing"] == pytest.approx(2 * A)
        assert rep["net_ingoing"] == pytest.approx(0.0)
        assert rep["outgoing_doubles_retarded"]
        assert rep["advanced_cancelled"]
