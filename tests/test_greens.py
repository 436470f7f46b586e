import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import j1

from metronlab import cli, greens
from metronlab.bragg import METRIC
from metronlab.errors import (
    KernelUnresolved,
    OriginSingular,
    QuadratureNotConverged,
    SuperluminalCone,
    ValidationError,
)
from metronlab.greens import (
    KERNEL_KINDS,
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

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_an_off_cone_point_reads_zero(self, tmp_path, kind):
        for t in (2.0, -2.0):
            desc = greens_nondispersive(0.5, t, kind)
            assert not any(b["on_support"] for b in desc["branches"])
        rc = cli.run(["greens-eval", "--r", "0.5", "--t=2,-2", "--kind", kind,
                      "--method", "lightcone", "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "kernel_scan.csv").read_text().splitlines()[1:]
        assert [line.split(",")[2] for line in lines] == ["0", "0"]

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
        v, t = np.array([0.5, 0.3, 0.6]), np.array([80.0, 120.0, 90.0])
        q = greens_dispersive(v * t, t, self.params, "retarded")
        s = greens_stationary_phase(v * t, t, self.params, "retarded")
        k0, om0, wpp = stationary_phase_point(self.params, v)
        assert np.all(wpp * t > 40.0)
        assert np.all(np.abs(q - s) < 0.05 * np.abs(q))

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

    @pytest.mark.parametrize("omega_hat", [1.0, 1e100])
    def test_amplitude_outside_the_float_range_is_validation_error(self, omega_hat):
        # 1/r overflows the amplitude; at omega_hat 1e100, omega'' |t| underflows to 0
        with pytest.raises(ValidationError, match="amplitude"):
            greens_stationary_phase(1e-301, 2e-301, DispersionParams(omega_hat, 40.0),
                                    "retarded")

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


def cos_difference_kernel(r, t, params, kind):
    """The kernel as it stood before scans: one point at a time, the
    trapezoid rule over cos(kr - w_k t) - cos(kr + w_k t) on np.linspace
    nodes, at the configured cutoff.  The oracle of the sin-product scan."""
    w_ret, w_adv = KERNEL_KINDS[kind]
    w = w_ret if t > 0 else w_adv
    t = abs(t)
    k_end = 1.8 * params.k_max
    n = int(min(max(4096.0, 40 * k_end * max(r, t, 1.0) / (2 * np.pi)), 4_000_000))
    k = np.linspace(0.0, k_end, n)
    wk = params.omega_k(k)
    window = np.exp(-((k / params.k_max) ** 8))
    integrand = (np.cos(k * r - wk * t) - np.cos(k * r + wk * t)) * (k / wk) * window
    return w * (-float(np.trapezoid(integrand, k)) / ((2.0 * np.pi) ** 2 * r))


def direct_integrals(r, t, params, k_window):
    """The quadrature integrals as they stood before the angle-addition
    table: one sin(kr) per node and point, summed against the same weighted
    time factor on the same 8192-node blocks.  The oracle of
    greens._dispersive_integrals."""
    k_end = 1.8 * k_window
    counts = np.minimum(np.maximum(
        4096.0, 40 * k_end * np.fmax(np.fmax(r, t), 1.0) / (2 * np.pi)), 4_000_000).astype(int)
    out = np.zeros(r.shape)
    for i, n in enumerate(counts):
        h = k_end / (n - 1)
        for j0 in range(0, n, 8192):
            j = np.arange(j0, min(j0 + 8192, n))
            k = j * h
            wk = params.omega_k(k)
            excess = params.omega_hat**2 / (wk + k)
            weighted = (2.0 * h) * (k / wk) * np.exp(-((k / k_window) ** 8))
            if j0 == 0:
                weighted[0] *= 0.5
            if j0 + 8192 >= n:
                weighted[-1] *= 0.5
            time_factor = np.sin(j * (h * t[i]) + t[i] * excess) * weighted
            out[i] += np.sum(np.sin(r[i] * k) * time_factor)
    return out


def bessel_kernel(r, t, omega_hat):
    """The retarded massive kernel inside the cone in closed form,
    omega_hat J1(omega_hat s) / (4 pi s) with s = sqrt(t^2 - r^2)."""
    s = np.sqrt(t * t - r * r)
    return omega_hat * j1(omega_hat * s) / (4.0 * np.pi * s)


def per_point(kernel, r, t, params, kind):
    """A scan the way the CLI ran it before: one call per point, r-major."""
    r, t = np.broadcast_arrays(r, t)
    return np.array([kernel(float(a), float(b), params, kind)
                     for a, b in zip(r.ravel(), t.ravel())]).reshape(r.shape)


def first_error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# the bench's quadrature scan region, inside the forward cone
SCAN_R, SCAN_T = np.meshgrid(np.linspace(1.5, 7.5, 7), np.linspace(11.0, 41.0, 9), indexing="ij")


@pytest.fixture(scope="module", params=[0.8, 1.0, 1.2])
def scan(request):
    params = DispersionParams(request.param, 60.0)
    return params, greens_dispersive(SCAN_R, SCAN_T, params, "retarded")


class TestScans:
    params = DispersionParams(omega_hat=1.0, k_max=40.0)
    # t = +-5.5 at r < 5.5 puts both cutoffs on the 4096-node floor, the
    # rest spread over several node counts
    r = np.array([0.7, 2.5, 3.5, 9.0])[:, None]
    t = np.array([-30.0, -5.5, 5.5, 12.0, 26.0])

    @pytest.mark.parametrize("kernel", [greens_dispersive, greens_stationary_phase])
    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_scan_equals_its_single_points_bit_for_bit(self, kernel, kind):
        t = np.where(np.abs(self.t) > self.r, self.t, -20.0)  # inside the cone
        scan = kernel(self.r, t, self.params, kind)
        assert scan.shape == (4, 5)
        np.testing.assert_array_equal(scan, per_point(kernel, self.r, t, self.params, kind))
        w_ret, w_adv = KERNEL_KINDS[kind]
        np.testing.assert_array_equal(scan != 0, np.where(t > 0, w_ret, w_adv) * self.r != 0)

    def test_a_single_point_is_a_float(self):
        for kernel in (greens_dispersive, greens_stationary_phase):
            assert type(kernel(2.0, 5.0, self.params, "retarded")) is float
            assert type(kernel(2.0, -5.0, self.params, "retarded")) is float
            assert kernel(np.array([2.0]), 5.0, self.params, "retarded").shape == (1,)

    def test_values_match_the_cos_difference_oracle(self, scan):
        params, values = scan
        oracle = per_point(cos_difference_kernel, SCAN_R, SCAN_T, params, "retarded")
        assert np.max(np.abs(values - oracle)) < 1e-11 * np.max(np.abs(oracle))

    def test_retarded_values_match_the_bessel_closed_form(self, scan):
        params, values = scan
        exact = bessel_kernel(SCAN_R, SCAN_T, params.omega_hat)
        assert np.max(np.abs(values - exact)) < 1e-9 * np.max(np.abs(exact))

    def test_criterion_9_points_and_every_kind_match_the_bessel_closed_form(self):
        v, t = np.array([0.5, 0.3, 0.6]), np.array([80.0, 120.0, 90.0])
        exact = bessel_kernel(v * t, t, 1.0)
        bound = 1e-9 * np.max(np.abs(exact))
        ret = greens_dispersive(v * t, t, self.params, "retarded")
        assert np.max(np.abs(ret - exact)) < bound
        # the advanced kernel is the time mirror, the symmetric one the half-sum
        both = greens_dispersive(v * t, np.stack([t, -t]), self.params, "advanced")
        np.testing.assert_array_equal(both[0], 0.0)
        assert np.max(np.abs(both[1] - exact)) < bound
        sym = greens_dispersive(v * t, np.stack([t, -t]), self.params, "symmetric")
        assert np.max(np.abs(sym - 0.5 * exact)) < bound

    @pytest.mark.parametrize("kernel, r, t, error", [
        (greens_dispersive, [2.0, 0.0, 3.0], [5.0, 6.0], OriginSingular),
        (greens_stationary_phase, [2.0, 3.0, 0.0], [5.0, 6.0], OriginSingular),
        (greens_dispersive, [2.0, 3.0], [5.0, 0.0, -4.0], ValidationError),
        (greens_stationary_phase, [2.0, 3.0], [5.0, -4.0, 0.0], ValidationError),
        (greens_dispersive, [2.0, 1e15, 3.0], [5.0, 6.0], QuadratureNotConverged),
        (greens_stationary_phase, [2.0, 1e15], [5.0, 2e15], QuadratureNotConverged),
        (greens_stationary_phase, [2.0, 9.0, 3.0], [5.0, 10.0, -1.0], SuperluminalCone),
        # near the light cone the two cutoffs disagree: the cutoff test fails
        (greens_dispersive, [1.0, 5.0, 0.0], [20.0, 5.5], QuadratureNotConverged),
        (greens_dispersive, [1.0, 2.0], [20.0, np.nan], QuadratureNotConverged),
        (greens_stationary_phase, [1e-301, 0.0], [2e-301, 5.0], ValidationError),
        # the first bad point fails two checks: the earlier one is raised
        (greens_dispersive, [0.0, 2.0], [0.0, 5.0], OriginSingular),
        (greens_stationary_phase, [2.0, 9.0], [5.0, 4.0], SuperluminalCone),
        # the first bad point fails a later check than the second one
        (greens_dispersive, [2.0, 1e15, 0.0], [5.0, 6.0], QuadratureNotConverged),
        (greens_stationary_phase, [2.0, 9.0, 0.0], [5.0, 6.0], SuperluminalCone),
    ])
    def test_a_scan_raises_the_error_of_its_first_bad_point(self, kernel, r, t, error):
        r, t = np.array(r)[:, None], np.array(t)
        expected = first_error(lambda: per_point(kernel, r, t, self.params, "symmetric"))
        assert expected[0] is error
        assert first_error(lambda: kernel(r, t, self.params, "symmetric")) == expected

    @pytest.mark.parametrize("method, r, t, code", [
        ("quadrature", "2,0,3", "5,6", 2),
        ("quadrature", "2,3", "5,0,-4", 2),
        ("stationary", "2,9,3", "5,10,-1", 2),
        ("quadrature", "2,1e15", "5,6", 3),
        ("quadrature", "1,5", "20,5.5", 3),
    ])
    def test_a_cli_scan_with_a_bad_point_exits_with_one_line(self, tmp_path, capsys,
                                                             method, r, t, code):
        rc = cli.run(["greens-eval", "--r", r, "--t", t, "--kind", "symmetric",
                      "--method", method, "--output-dir", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == code
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_a_lightcone_scan_equals_its_per_point_sums_bit_for_bit(self, tmp_path, kind):
        r, t = "0.5,1,2.5,7", "-2,-0.5,0,1,2"
        rc = cli.run(["greens-eval", "--r", r, f"--t={t}", "--kind", kind,
                      "--method", "lightcone", "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "kernel_scan.csv").read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        # the comprehension the CLI ran before: one descriptor per point
        oracle = np.array([
            sum(b["weight"] for b in greens_nondispersive(ri, ti, kind)["branches"]
                if b["on_support"])
            for ri in cli.parse_values(r) for ti in cli.parse_values(t)], dtype=float)
        values = np.array([float(c[2]) for c in cells])
        np.testing.assert_array_equal(values.view(np.int64), oracle.view(np.int64))
        # on the cone: (1, 1) on the retarded branch, (0.5, -0.5) on the advanced
        assert (oracle != 0).sum() == (2 if kind == "symmetric" else 1)
        assert [c[2] for c in cells if c[1] == "0"] == ["0"] * 4  # not -0

    def test_a_lightcone_scan_with_r_zero_exits_2_with_one_line(self, tmp_path, capsys):
        rc = cli.run(["greens-eval", "--r", "1,0,2", "--t", "1", "--kind", "symmetric",
                      "--method", "lightcone", "--output-dir", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("error: OriginSingular")

    # node counts: the 4096 floor, one that is not a multiple of the 128-node
    # sub-block, and counts just past a 8192-node block, whose tail block is
    # short (one node for 8193)
    @pytest.mark.parametrize("nodes", [4096, 5000, 8193, 8200, 20001])
    @pytest.mark.parametrize("cutoff", [1.0, 0.8])
    def test_integrals_match_the_direct_sum_oracle(self, nodes, cutoff):
        params = DispersionParams(0.9, 60.0)
        k_window = cutoff * params.k_max
        # several r share one t, which sets the node count (t > r); t = 3
        # takes 2062 nodes or fewer, so the floor
        t = 3.0 if nodes == 4096 else (nodes + 0.5) * 2 * np.pi / (40 * 1.8 * k_window)
        r, t = np.array([0.1, 0.25, 0.5, 0.7]) * t, np.full(4, t)
        counts = np.maximum(4096.0, 40 * 1.8 * k_window * t / (2 * np.pi)).astype(int)
        np.testing.assert_array_equal(counts, nodes)
        values = greens._dispersive_integrals(r, t, params, k_window)
        oracle = direct_integrals(r, t, params, k_window)
        assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_memory_stays_bounded_at_the_node_cap(self):
        # both points take the 4e6-node cap at both cutoffs; a whole-grid
        # quadrature held 196 MB for one of them
        params = DispersionParams(1.0, 60.0)
        tracemalloc.start()
        try:
            values = greens_dispersive(1.0, [7500.0, 8000.0], params, "retarded")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        exact = bessel_kernel(1.0, np.array([7500.0, 8000.0]), 1.0)
        assert np.max(np.abs(values - exact)) < 1e-6 * np.max(np.abs(exact))


def einsum_impulses(line_i, line_j, sigma, kind):
    """The impulses as they stood before the scalar planes: five (n_a, n_b, 4)
    temporaries and three einsums per particle, each particle's sum over its
    own (a, b) layout.  The oracle of momentum_exchange."""

    def trapezoid_weights(s):
        w = np.empty(len(s))
        w[1:-1] = 0.5 * (s[2:] - s[:-2])
        w[0] = 0.5 * (s[1] - s[0])
        w[-1] = 0.5 * (s[-1] - s[-2])
        return w

    def impulse(xa, xb, wa, wb):
        xi = xa[:, None, :] - xb[None, :, :]
        z = np.einsum("abl,l,abl->ab", xi, METRIC, xi)
        with np.errstate(over="ignore"):
            g = np.exp(-(z**2) / (2.0 * sigma**4))
        gp = np.divide(-z, sigma**4, out=np.zeros_like(z), where=g > 0) * g
        if kind == "retarded":
            gp = 2.0 * gp * (xi[:, :, 3] > 0)
        elif kind == "advanced":
            gp = 2.0 * gp * (xi[:, :, 3] < 0)
        grad_cov = 2.0 * np.einsum("ab,abl->abl", gp, xi * METRIC)
        return weight * np.einsum("a,b,abl->l", wa, wb, grad_cov * METRIC)

    weight = line_i.weight * line_j.weight
    wi, wj = trapezoid_weights(line_i.s), trapezoid_weights(line_j.s)
    return impulse(line_i.x, line_j.x, wi, wj), impulse(line_j.x, line_i.x, wj, wi)


def moving_line(position, velocity, span, n, weight=1.0):
    line = WorldLine.from_velocity(position, velocity, span, n)
    return WorldLine(s=line.s, x=line.x, u=line.u, weight=weight)


# (line_i, line_j, sigma): both moving, unequal lengths over many row blocks
# with weights != 1, and two- and three-sample lines
ORACLE_CASES = {
    "blocks": (moving_line([0.0, 0.0, 0.0], [0.1, 0.0, 0.2], (-6.0, 6.0), 300, 0.7),
               moving_line([4.0, 1.0, 0.0], [0.0, 0.3, -0.1], (-5.0, 7.0), 211, 1.3), 0.4),
    "long": (moving_line([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], (-6.0, 6.0), 1000),
             moving_line([4.0, 0.0, 0.0], [-0.2, 0.3, 0.0], (-6.0, 6.0), 400), 0.4),
    "2x3": (moving_line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], (-6.0, 6.0), 2),
            moving_line([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], (-6.0, 6.0), 3), 1.5),
    "3x2": (moving_line([0.0, 0.0, 0.0], [0.0, 0.1, 0.0], (-6.0, 6.0), 3),
            moving_line([3.0, 0.0, 0.0], [0.0, 0.3, 0.0], (-6.0, 6.0), 2, 2.0), 1.0),
}


class TestMomentumExchange:
    span = (-6.0, 6.0)
    n = 101

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_the_einsum_oracle(self, case, kind):
        line_i, line_j, sigma = ORACLE_CASES[case]
        if case in ("blocks", "long"):
            assert len(line_i.s) * len(line_j.s) > 2 * greens._PAIR_BLOCK
        dp_i, dp_j = momentum_exchange(line_i, line_j, sigma, kind)
        ref_i, ref_j = einsum_impulses(line_i, line_j, sigma, kind)
        scale = max(np.max(np.abs(ref_i)), np.max(np.abs(ref_j)))
        assert scale > 0
        assert np.max(np.abs(dp_i - ref_i)) <= 1e-13 * scale
        assert np.max(np.abs(dp_j - ref_j)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_an_unresolved_kernel_is_refused_before_an_overflowing_time_separation(self, kind):
        # xi_3^2 overflows while r^2 = 0.25 stays finite: KernelUnresolved
        # comes first, and the overflow warns nothing
        a = WorldLine.static_point([0.0, 0.0, 0.0], (-1e200, 1e200), self.n)
        b = WorldLine.static_point([0.5, 0.0, 0.0], (-1e200, 1e200), self.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelUnresolved, match="minimum trajectory separation 0.5$"):
                momentum_exchange(a, b, 0.8, kind)

    def test_kernel_unresolved_message_is_the_einsum_one(self):
        # the minimum over all row blocks, rounded as the whole (n_a, n_b, 3)
        # distance array rounded it
        a = moving_line([0.0, 0.0, 0.0], [0.1, 0.0, 0.0], self.span, 200)
        b = moving_line([0.7, 0.2, 0.1], [-0.1, 0.2, 0.05], self.span, 150)
        assert len(a.s) * len(b.s) > 2 * greens._PAIR_BLOCK
        sep = a.x[:, None, :3] - b.x[None, :, :3]
        min_sep = float(np.min(np.sqrt(np.sum(sep**2, axis=2))))
        with pytest.raises(KernelUnresolved) as info:
            momentum_exchange(a, b, 0.8, "symmetric")
        assert str(info.value) == (
            f"sigma = 0.8 exceeds the minimum trajectory separation {min_sep:.4g}")

    @pytest.mark.parametrize("kind, sigma, match", [
        ("bogus", -1.0, "kind must be one of"),
        ("symmetric", -1.0, "sigma must be positive"),
        ("symmetric", 0.0, "sigma must be positive"),
        ("retarded", 1e-100, "float range"),
        ("advanced", 1e100, "float range"),
        ("symmetric", float("nan"), "float range"),
    ])
    def test_sigma_is_refused_before_the_separation(self, kind, sigma, match):
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, self.n)
        b = WorldLine.static_point([0.5, 0.0, 0.0], self.span, self.n)  # unresolved at 0.8
        with pytest.raises(ValidationError, match=match):
            momentum_exchange(a, b, sigma, kind)

    @pytest.mark.parametrize("position, span", [
        ([1e308, 0.0, 0.0], (-6.0, 6.0)),  # the spatial separation squared
        ([4.0, 0.0, 0.0], (-1e200, 1e200)),  # the time separation squared
        ([1e200, 0.0, 0.0], (-1e-3, 1e-3)),
    ])
    def test_overflowing_separations_are_refused(self, position, span):
        a = WorldLine.static_point([0.0, 0.0, 0.0], span, self.n)
        b = WorldLine.static_point(position, span, self.n)
        with pytest.raises(ValidationError, match="separations .* float range"):
            momentum_exchange(a, b, 0.4, "symmetric")

    def test_overflowing_impulses_are_refused(self):
        a = moving_line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], self.span, self.n, 1e200)
        b = moving_line([3.0, 0.0, 0.0], [0.0, 0.0, 0.0], self.span, self.n, 1e200)
        with pytest.raises(ValidationError, match="impulses leave the float range"):
            momentum_exchange(a, b, 0.4, "retarded")

    def test_memory_stays_bounded(self):
        # the (n, n, 4) temporaries held about 0.6 GB at this size
        a = WorldLine.static_point([0.0, 0.0, 0.0], self.span, 2000)
        b = WorldLine.from_velocity([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], self.span, 2000)
        tracemalloc.start()
        try:
            dp_a, dp_b = momentum_exchange(a, b, 0.4, "retarded")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert np.isfinite(dp_a).all() and np.isfinite(dp_b).all()

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_worldline_needs_two_samples(self, n):
        # one sample left the trapezoid weights an IndexError, none the
        # normalization check a ValueError
        with pytest.raises(ValidationError, match="at least 2"):
            WorldLine.static_point([0.0, 0.0, 0.0], self.span, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["s", "x", "u", "weight"])
    def test_worldline_refuses_non_finite_samples(self, name, bad):
        fields = {"s": np.linspace(0, 1, 8), "x": np.zeros((8, 4)), "u": np.zeros((8, 4)),
                  "weight": 1.0}
        fields["u"][:, 3] = 1.0
        if name == "weight":
            fields[name] = bad
        else:
            fields[name][3, ...] = bad
        with pytest.raises(ValidationError, match="finite"):
            WorldLine(**fields)

    @pytest.mark.parametrize("position, velocity, span", [
        ([np.nan, 0.0, 0.0], [0.0, 0.3, 0.0], (-6.0, 6.0)),
        ([4.0, 0.0, 0.0], [0.0, np.nan, 0.0], (-6.0, 6.0)),
        ([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], (-np.inf, np.inf)),
        ([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], (np.nan, np.nan)),
        ([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], (-1.5e308, 1.5e308)),  # gamma s overflows
    ])
    def test_from_velocity_refuses_non_finite_samples(self, position, velocity, span):
        with pytest.raises(ValidationError, match="finite"):
            WorldLine.from_velocity(position, velocity, span, 11)


class TestResponseDelta:
    def test_resonance_secular_value(self):
        assert response_delta(0.0, 7.5) == pytest.approx(7.5)

    @pytest.mark.parametrize("omega, s", [(np.nan, 1.0), (1.0, np.inf), (0.0, np.inf),
                                          (1e300, 1e300), ([0.5, np.nan], 1.0)])
    def test_non_finite_phase_is_refused(self, omega, s):
        with pytest.raises(ValidationError, match="finite"):
            response_delta(omega, s)

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
