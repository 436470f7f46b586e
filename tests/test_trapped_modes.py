import json
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from metronlab import trapped_modes
from metronlab.errors import (
    LambdaOutOfRange,
    NotTrapped,
    TailNotFree,
    ValidationError,
    WindowEmpty,
)
from metronlab.numerics import RadialField, RadialGrid, radial_laplacian
from metronlab.trapped_modes import (
    FifthOrderSolution,
    MultiModeSpec,
    SingleModeParams,
    TrappedModeSolution,
    iterate_single_mode,
    max_scale_factor,
    rescale,
    solve_fifth_order,
    solve_multimode,
    trapping_window,
)


@pytest.fixture(scope="module")
def base_solution():
    params = SingleModeParams(omega_hat=1.0, epsilon=1.0, mode_order=0, r0=5.0,
                              max_iters=200, tol=1e-9)
    return iterate_single_mode(params)


def count_nodes(values):
    keep = np.abs(values) > 1e-8 * np.max(np.abs(values))
    s = np.sign(values[keep])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


class TestSingleMode:
    def test_converges_with_tight_residuals(self, base_solution):
        sol = base_solution
        assert sol.iterations_used <= 200
        assert sol.residual_eigen < 1e-6
        assert sol.residual_poisson < 1e-6
        assert count_nodes(sol.phi1.values) == 0

    def test_omega_inside_window(self, base_solution):
        lo, hi = trapping_window(base_solution)
        assert lo < base_solution.omega < hi

    def test_crossing_at_r0(self, base_solution):
        sol = base_solution
        assert abs(sol.crossing_radius() - sol.params.r0) <= sol.grid.spacing

    def test_sign_structure(self, base_solution):
        phi0 = base_solution.phi0.values
        assert np.all(phi0 > 0.0)  # same sign as epsilon = +1
        assert np.argmax(np.abs(phi0)) == 0

    def test_kappa_single_crossing_structure(self, base_solution):
        kv = base_solution.kappa_sq.values
        r = base_solution.grid.r
        r0 = base_solution.params.r0
        h = base_solution.grid.spacing
        assert np.all(kv[r < r0 - h] > 0.0)
        assert np.all(kv[r > r0 + h] < 0.0)

    def test_self_consistency_by_independent_operator(self, base_solution):
        # apply the discretized operators directly, independent of the
        # solver's own residual bookkeeping
        sol = base_solution
        lap1 = radial_laplacian(sol.phi1)
        res1 = lap1 + sol.kappa_sq.values[1:-1] * sol.phi1.values[1:-1]
        assert np.max(np.abs(res1)) < 1e-6 * sol.phi1.max_abs()
        lap0 = radial_laplacian(sol.phi0)
        src = sol.params.epsilon * sol.params.omega_hat**2 * sol.phi1.values**2
        assert np.max(np.abs(lap0 + src[1:-1])) < 1e-6 * np.max(src)

    def test_weak_coupling_recovers_linear_limit(self):
        params = SingleModeParams(omega_hat=1.0, epsilon=1e-6, mode_order=0,
                                  r0=250.0, max_iters=300, tol=1e-9)
        sol = iterate_single_mode(params)
        assert abs(sol.omega - 1.0) < 1e-4
        assert 0.0 < sol.well_parameter() < 1e-3

    def test_mode_two_has_two_interior_zeros(self):
        params = SingleModeParams(omega_hat=1.0, epsilon=1.0, mode_order=2,
                                  r0=18.0, max_iters=500, tol=1e-9)
        sol = iterate_single_mode(params)
        assert count_nodes(sol.phi1.values) == 2
        assert sol.residual_eigen < 1e-6

    @pytest.mark.parametrize("omega_hat,eps", [(2.0, 0.5), (0.7, 3.0)])
    def test_scale_out_reproduces_the_unit_problem(self, base_solution, omega_hat, eps):
        # with psi = eps*phi and x = omega_hat*r only omega_hat*r0 is left, so
        # the scaled problem retraces the unit one sweep for sweep
        params = SingleModeParams(omega_hat=omega_hat, epsilon=eps, r0=5.0 / omega_hat)
        sol = iterate_single_mode(params, RadialGrid(30.0 / omega_hat, 2001))
        assert sol.iterations_used == base_solution.iterations_used
        assert abs(sol.omega / omega_hat - base_solution.omega) <= 5e-13
        assert np.max(np.abs(eps * sol.phi0.values - base_solution.phi0.values)) <= 5e-13

    @pytest.mark.parametrize("r0", [4.5, 4.0, 3.6])
    def test_near_end_of_the_family_solves(self, base_solution, r0):
        # the direct solve lands on the scale-family member of the r0 = 5 one
        params = SingleModeParams(omega_hat=1.0, epsilon=1.0, r0=r0, max_iters=400)
        sol = iterate_single_mode(params, RadialGrid(30.0 * r0 / 5.0, 2001))
        assert abs(sol.omega - rescale(base_solution, 5.0 / r0).omega) <= 1e-9
        assert count_nodes(sol.phi1.values) == 0

    def test_well_reaching_the_box_edge_is_not_trapped(self):
        grid = RadialGrid(10.0, 101)
        for edge in (0.0, 1e-13, -1.0):
            V = np.full(grid.n_points, edge)
            with pytest.raises(NotTrapped, match="box edge"):
                trapped_modes._solve_mode(V, 0, 1.0, grid)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            SingleModeParams(omega_hat=-1.0, epsilon=1.0)
        with pytest.raises(ValidationError):
            SingleModeParams(omega_hat=1.0, epsilon=0.0)

    def test_serialization_roundtrip(self, base_solution, tmp_path):
        doc = base_solution.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["omega"] == base_solution.omega
        assert len(back["phi0"]) == base_solution.grid.n_points
        rows = list(base_solution.to_csv_rows())
        assert len(rows) == base_solution.grid.n_points
        assert rows[0][0] == 0.0


def _richardson_order(omegas):
    return np.log2((omegas[1] - omegas[0]) / (omegas[2] - omegas[1]))


class TestConvergence:
    """The discrete solutions converge to the continuum model at O(h^2) and
    do not depend on the box size beyond the WKB tail error."""

    def test_mode0_omega_second_order(self, base_solution):
        # base_solution is the 2001-point member of the sequence
        omegas = [iterate_single_mode(base_solution.params, grid=RadialGrid(30.0, n)).omega
                  for n in (501, 1001)] + [base_solution.omega]
        assert 1.8 < _richardson_order(omegas) < 2.2

    def test_mode1_omega_second_order(self):
        params = SingleModeParams(omega_hat=1.0, epsilon=1.0, mode_order=1, r0=10.0,
                                  max_iters=400)
        omegas = [iterate_single_mode(params, grid=RadialGrid(60.0, n)).omega
                  for n in (801, 1601, 3201)]
        assert 1.8 < _richardson_order(omegas) < 2.2

    def test_mode0_omega_independent_of_the_box(self, base_solution):
        # h = 0.015 in a box of 30 (base_solution) and of 40; 40 / 0.015 is
        # not an integer, and the 2668-point grid's spacing (0.0149981) moves
        # omega by about 4e-8 on its own
        wide = iterate_single_mode(base_solution.params, grid=RadialGrid(40.0, 2668))
        assert abs(wide.omega - base_solution.omega) < 1e-6


class TestTrappingWindow:
    def _fake_solution(self, well):
        grid = RadialGrid(10.0, 101)
        ones = np.exp(-grid.r)
        params = SingleModeParams(omega_hat=1.0, epsilon=1.0)
        return TrappedModeSolution(
            params=params,
            omega=0.9,
            phi0=RadialField(grid, well * np.exp(-grid.r**2)),
            phi1=RadialField(grid, ones),
            kappa_sq=RadialField(grid, -ones),
            residual_eigen=0.0,
            residual_poisson=0.0,
            iterations_used=1,
        )

    def test_direct_formula(self):
        sol = self._fake_solution(0.5)
        lo, hi = trapping_window(sol)
        assert lo == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert hi == 1.0

    def test_empty_window(self):
        with pytest.raises(WindowEmpty):
            trapping_window(self._fake_solution(0.0))
        with pytest.raises(WindowEmpty):
            trapping_window(self._fake_solution(1.5))


class TestRescale:
    def test_identity(self, base_solution):
        same = rescale(base_solution, 1.0)
        assert same.omega == base_solution.omega
        assert np.array_equal(same.phi1.values, base_solution.phi1.values)

    def test_upper_limit_zero_frequency(self, base_solution):
        top = rescale(base_solution, max_scale_factor(base_solution))
        assert abs(top.omega) < 1e-6

    def test_residuals_preserved(self, base_solution):
        top = min(np.sqrt(2.0) * 0.99, max_scale_factor(base_solution))
        for lam in np.linspace(0.2, top, 10):
            scaled = rescale(base_solution, lam)
            assert scaled.residual_eigen <= 2.0 * base_solution.residual_eigen + 1e-14
            assert scaled.residual_poisson <= 2.0 * base_solution.residual_poisson + 1e-14

    def test_equation_scale_residual_is_lambda_invariant(self, base_solution):
        # sharper covariance: normalizing by the equation's own term scale
        # removes the lambda dependence entirely
        def eq_residual(sol):
            lap = radial_laplacian(sol.phi1)
            res = lap + sol.kappa_sq.values[1:-1] * sol.phi1.values[1:-1]
            scale = np.max(np.abs(sol.kappa_sq.values[1:-1] * sol.phi1.values[1:-1]))
            return np.max(np.abs(res)) / scale

        base = eq_residual(base_solution)
        for lam in (0.3, 0.9, max_scale_factor(base_solution) * 0.999):
            # invariant up to float rounding of the near-machine residual
            assert eq_residual(rescale(base_solution, lam)) == pytest.approx(
                base, rel=0.02
            )

    def test_composition_is_node_exact(self, base_solution):
        a = rescale(rescale(base_solution, 0.8), 0.9)
        b = rescale(base_solution, 0.72)
        assert np.max(np.abs(a.phi1.values - b.phi1.values)) < 1e-6
        assert np.max(np.abs(a.phi0.values - b.phi0.values)) < 1e-6
        assert abs(a.omega - b.omega) < 1e-12

    def test_lambda_out_of_range(self, base_solution):
        lam_max = max_scale_factor(base_solution)
        with pytest.raises(LambdaOutOfRange):
            rescale(base_solution, lam_max * 1.01)
        with pytest.raises(LambdaOutOfRange):
            rescale(base_solution, 0.0)

    def test_scaled_crossing_moves(self, base_solution):
        scaled = rescale(base_solution, 0.5)
        assert scaled.params.r0 == pytest.approx(10.0)
        assert abs(scaled.crossing_radius() - 10.0) <= scaled.grid.spacing


class TestMultiMode:
    def test_single_mode_reduction(self, base_solution):
        # one mode in one field is the single-mode problem on the same core
        spec = MultiModeSpec(modes=[(1.0, 1, 0)], couplings=[[1.0]], scale_radii=(5.0,))
        mm = solve_multimode(spec, max_iters=800, tol=1e-9)
        assert mm.omegas[0] == base_solution.omega
        assert mm.iterations_used == base_solution.iterations_used
        np.testing.assert_array_equal(mm.mode_fields[0].values, base_solution.phi1.values)
        np.testing.assert_array_equal(mm.mean_fields[0].values, base_solution.phi0.values)
        assert mm.residual_eigen == (base_solution.residual_eigen,)
        assert mm.residual_poisson == (base_solution.residual_poisson,)

    def test_symmetric_pair(self, base_solution):
        spec = MultiModeSpec(
            modes=[(1.0, 1, 0), (1.0, 1, 0)],
            couplings=[[1.0, 1.0]],
            scale_radii=(5.0, 5.0),
        )
        mm = solve_multimode(spec, max_iters=900, tol=1e-9)
        # identical modes sharing one mean field: the symmetric fixed point
        assert np.max(np.abs(mm.mode_fields[0].values - mm.mode_fields[1].values)) < 1e-10
        # equals the single-mode solve with a doubled source weight, i.e.
        # phi_p = phi1_single / sqrt(2) and the same mean field
        assert abs(mm.omegas[0] - base_solution.omega) < 1e-8
        assert np.max(np.abs(
            mm.mode_fields[0].values * np.sqrt(2.0) - base_solution.phi1.values
        )) < 1e-6

    def test_two_modes_two_fields(self):
        spec = MultiModeSpec(
            modes=[(1.0, 1, 0), (0.8, 1, 0)],
            couplings=[[1.0, 0.15], [0.15, 1.0]],
            scale_radii=(5.0, 6.5),
        )
        mm = solve_multimode(spec, max_iters=1500, tol=1e-9)
        assert max(mm.residual_eigen) < 1e-6
        assert max(mm.residual_poisson) < 1e-6
        r = mm.mean_fields[0].grid.r
        for p in range(2):
            w2 = spec.modes[p][0] ** 2
            kv = mm.omegas[p] ** 2 - w2 + sum(
                spec.couplings[a][p] * w2 * mm.mean_fields[a].values for a in range(2)
            )
            idx = np.where(kv[:-1] * kv[1:] < 0)[0]
            crossing = r[idx[0]]
            assert abs(crossing - spec.scale_radii[p]) <= 2 * (r[1] - r[0])

    def test_mode_that_loses_binding_is_not_trapped(self):
        # the (0.8, 1, 0) mode in the field of the (1, 1, 0) mode: Newton
        # drives its depth toward zero with its gap still negative
        spec = MultiModeSpec(modes=[(1.0, 1, 0), (0.8, 1, 0)], couplings=[[1.0, 1.0]],
                             scale_radii=(5.0, 6.5))
        start = time.perf_counter()
        with pytest.raises(NotTrapped, match="mode 1 lost binding"):
            solve_multimode(spec, max_iters=1500, tol=1e-9, grid=RadialGrid(30.0, 201))
        assert time.perf_counter() - start < 1.0

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            MultiModeSpec(modes=[(1.0, 1, 0)], couplings=[[1.0, 2.0]], scale_radii=(5.0,))
        with pytest.raises(ValidationError):
            MultiModeSpec(modes=[(1.0, 2, 0)], couplings=[[1.0]], scale_radii=(5.0,))


class TestFifthOrder:
    def test_sign_condition(self):
        with pytest.raises(ValidationError):
            solve_fifth_order(1.0, 1.0, 1.0, -1.0, r0=5.0)

    def test_decoupled_limit_free_wave(self):
        sol = solve_fifth_order(1.0, 1.0, 1.0, 0.0, r0=5.0, max_iters=300, tol=1e-9)
        rp = sol.phi2.grid.r * sol.phi2.values
        # exact c/r away from the origin
        assert np.max(np.abs(rp[1:] - rp[1])) < 1e-12
        assert sol.tail_variation < 1e-12

    def test_coupled_free_tail(self):
        sol = solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9)
        assert isinstance(sol, FifthOrderSolution)
        assert sol.omegas[1] == 1.0
        assert sol.tail_variation < 0.05
        # linear-fit oracle on the outer quarter of r*phi2
        r = sol.phi2.grid.r
        rp = r * sol.phi2.values
        n = len(r)
        quarter = slice(3 * n // 4, None)
        slope, intercept = np.polyfit(r[quarter], rp[quarter], 1)
        assert abs(slope) * (r[-1] - r[3 * n // 4]) < 0.05 * abs(intercept)
        # phi1 remains exponentially trapped
        assert abs(sol.phi1.values[-1]) < 1e-3 * sol.phi1.max_abs()

    def test_omega_converges_at_second_order(self):
        omegas = [
            solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9,
                              grid=RadialGrid(40.0, n)).omegas[0]
            for n in (401, 801, 1601)
        ]
        d1, d2 = omegas[1] - omegas[0], omegas[2] - omegas[1]
        assert 1.5 < np.log2(d1 / d2) < 2.5

    def test_phi2_marches_per_sweep(self, monkeypatch):
        calls = []
        march = trapped_modes._march_phi2

        def counted(*args):
            calls.append(1)
            return march(*args)

        monkeypatch.setattr(trapped_modes, "_march_phi2", counted)
        sol = solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9)
        assert sol.iterations_used == 130
        # the cold search of the first sweep and one fallback: 28 marches
        assert len(calls) <= 30

    def test_phi2_marches_only_cold_or_on_fallback(self, monkeypatch):
        searches, newtons, steps = [], [], []
        search, newton, dgtsv = (trapped_modes._solve_phi2_flat, trapped_modes._newton_phi2,
                                 trapped_modes.dgtsv)

        def counted_search(*args):
            searches.append(len(newtons))
            return search(*args)

        def counted_newton(*args):
            newtons.append(newton(*args))
            return newtons[-1]

        def counted_dgtsv(*args):
            steps.append(1)
            return dgtsv(*args)

        monkeypatch.setattr(trapped_modes, "_solve_phi2_flat", counted_search)
        monkeypatch.setattr(trapped_modes, "_newton_phi2", counted_newton)
        monkeypatch.setattr(trapped_modes, "dgtsv", counted_dgtsv)
        sol = solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9)
        assert sol.iterations_used == 130
        # the cold search runs first, then only right after a Newton failure
        failed = [k + 1 for k, found in enumerate(newtons) if found is None]
        assert searches == [0] + failed
        assert len(failed) <= 2
        # 445 Newton steps in the reference solve, 3.4 per sweep
        assert len(steps) <= 4 * sol.iterations_used

    def test_phi2_branch_is_nodeless_for_any_first_guess(self):
        # stronger flat-tail roots carry nodes; any first guess must end on
        # the nodeless one
        omegas = []
        for amp in (0.01, 0.3, 1.0, 3.0, 10.0, 30.0):
            sol = solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9,
                                    grid=RadialGrid(40.0, 401), phi2_amplitude=amp)
            assert np.all(sol.phi2.values > 0)
            omegas.append(sol.omegas[0])
        assert max(omegas) - min(omegas) <= 1e-12


@pytest.fixture(scope="module")
def phi2_problem():
    """The converged phi0 of a 401-point fifth-order solve."""
    grid = RadialGrid(40.0, 401)
    sol = solve_fifth_order(1.0, 1.0, 1.0, 1.0, r0=5.0, max_iters=400, tol=1e-9,
                            grid=grid)
    return grid, sol.phi0.values


def _march(grid, phi0_vals, amp):
    # eta2 = omega_hat_2 = 1: coef = 2
    h = grid.spacing
    return trapped_modes._march_phi2(grid.r.tolist(), h,
                                     ((h * h * 2.0) * phi0_vals).tolist(), amp)


def _flat_tail_slope(grid, phi0_vals, amp):
    u = _march(grid, phi0_vals, amp)
    return u[-1] - u[-2]


class TestPhi2FlatTail:
    def test_guesses_find_the_same_root(self, phi2_problem):
        grid, phi0 = phi2_problem
        # 1 and above start beyond the roots with 2 and 4 nodes
        amps = [trapped_modes._solve_phi2_flat(grid, phi0, 1.0, 1.0, g)[0]
                for g in (1e-3, 0.05, 0.3, 0.5, 1.0, 3.0, 30.0, 1e4)]
        assert abs(amps[0] - 0.168729) < 1e-6
        assert np.max(np.abs(np.array(amps) / amps[0] - 1.0)) < 1e-12
        below = _flat_tail_slope(grid, phi0, amps[0] * (1.0 - 1e-9))
        above = _flat_tail_slope(grid, phi0, amps[0] * (1.0 + 1e-9))
        assert below > 0 > above

    def test_returned_phi2_is_the_march_at_the_root(self, phi2_problem):
        grid, phi0 = phi2_problem
        amp, phi2 = trapped_modes._solve_phi2_flat(grid, phi0, 1.0, 1.0, 0.3)
        u = _march(grid, phi0, amp)
        assert phi2[0] == amp
        assert np.all(phi2 > 0)
        np.testing.assert_array_equal(phi2[1:], np.asarray(u[1:]) / grid.r[1:])

    def test_large_guess_is_a_true_root_not_an_overflow_edge(self, phi2_problem):
        grid, phi0 = phi2_problem
        amp, phi2 = trapped_modes._solve_phi2_flat(grid, phi0, 1.0, 1.0, 1e4)
        assert np.all(np.isfinite(phi2))
        below = _flat_tail_slope(grid, phi0, amp * (1.0 - 1e-9))
        above = _flat_tail_slope(grid, phi0, amp * (1.0 + 1e-9))
        assert np.isfinite(below) and np.isfinite(above)
        assert below * above < 0

    @pytest.mark.parametrize("sign", [0.0, -1.0])
    def test_non_positive_phi0_has_no_free_tail(self, phi2_problem, sign):
        # kappa2^2 <= 0 everywhere, so every finite march grows
        grid, phi0 = phi2_problem
        with pytest.raises(TailNotFree):
            trapped_modes._solve_phi2_flat(grid, sign * np.abs(phi0), 1.0, 1.0, 0.3)

    @pytest.mark.parametrize("perturb", [1.2, 0.8, "wiggle"])
    def test_newton_from_a_perturbed_root_returns_the_march_root(self, phi2_problem,
                                                                 perturb):
        grid, phi0 = phi2_problem
        amp, phi2 = trapped_modes._solve_phi2_flat(grid, phi0, 1.0, 1.0, 0.3)
        factor = 1.0 + 0.05 * np.sin(grid.r) if perturb == "wiggle" else perturb
        found = trapped_modes._newton_phi2(grid, phi0, 1.0, 1.0, factor * phi2)
        assert found is not None
        amp_n, phi2_n = found
        assert abs(amp_n / amp - 1.0) <= 1e-12
        assert np.max(np.abs(phi2_n - phi2)) <= 1e-12 * np.max(phi2)
        assert np.all(phi2_n > 0)

    def test_newton_refuses_a_root_with_nodes(self, phi2_problem):
        # start on the two-node flat-tail root: Newton stays there, and a
        # root with a node is handed back to the cold search
        grid, phi0 = phi2_problem
        amp = brentq(lambda a: _flat_tail_slope(grid, phi0, a), 2.7, 2.9, rtol=1e-14)
        u = np.asarray(_march(grid, phi0, amp))
        assert u.min() < 0
        start = np.concatenate(([amp], u[1:] / grid.r[1:]))
        assert trapped_modes._newton_phi2(grid, phi0, 1.0, 1.0, start) is None

    def test_overflow_inside_the_bracket_is_not_a_root(self, monkeypatch):
        # tail slope +1 below amp = 1, overflow on [1, 1.0001), -1 above: the
        # bracket ends are finite, so only Brent's interior steps overflow
        def fake_march(r, h, q, amp):
            return [0.0, 1.0 if amp < 1.0 else np.inf if amp < 1.0001 else -1.0]

        monkeypatch.setattr(trapped_modes, "_march_phi2", fake_march)
        grid = RadialGrid(10.0, 21)
        with pytest.raises(TailNotFree, match="inside"):
            trapped_modes._solve_phi2_flat(grid, np.ones(21), 1.0, 1.0, 0.99)
