import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import eigh_tridiagonal, solve_banded

from metronlab import numerics, trapped_modes
from metronlab.bragg import (
    BraggTrapState,
    first_integral,
    integrate_trap,
    trap_verdict_by_integration,
)
from metronlab.errors import (
    EvaluationBudgetExceeded,
    LapackFailure,
    NoBracket,
    NoConvergence,
    NonDecayingSource,
    NonFiniteState,
    NotTrapped,
    NumericalError,
    StepUnderflow,
    ValidationError,
)
from metronlab.orbits import OrbitDriftModel, drift_rhs
from metronlab.trapped_modes import SingleModeParams, iterate_single_mode
from metronlab.numerics import (
    RadialField,
    RadialGrid,
    integrate_ivp,
    radial_laplacian,
    solve_radial_eigen,
    solve_radial_poisson,
)


class TestIntegrateIvp:
    def test_constant_field_exact(self):
        res = integrate_ivp(lambda s, y: 0.0 * y, [1.0], (0.0, 10.0), tol=1e-10)
        assert res.y_final[0] == 1.0

    @pytest.mark.parametrize("y0, span", [([np.nan], (0.0, 1.0)), ([1.0, np.inf], (0.0, 1.0)),
                                          ([1.0], (0.0, np.inf)), ([1.0], (np.nan, 1.0))])
    def test_non_finite_start_or_span_is_validation_error(self, y0, span):
        with pytest.raises(ValidationError, match="finite"):
            integrate_ivp(lambda s, y: -y, y0, span)

    def test_exponential(self):
        res = integrate_ivp(lambda s, y: y, [1.0], (0.0, 1.0), tol=1e-10)
        assert abs(res.y_final[0] - np.e) < 1e-8

    def test_harmonic_oscillator_returns(self):
        def rhs(s, y):
            return np.array([y[1], -y[0]])

        res = integrate_ivp(rhs, [1.0, 0.0], (0.0, 2.0 * np.pi), tol=1e-10)
        assert np.max(np.abs(res.y_final - [1.0, 0.0])) < 1e-6

    def test_complex_state(self):
        res = integrate_ivp(lambda s, y: 1j * y, [1.0 + 0j], (0.0, np.pi), tol=1e-10)
        assert abs(res.y_final[0] + 1.0) < 1e-8

    def test_blowup_raises(self):
        with pytest.raises((StepUnderflow, NonFiniteState)):
            integrate_ivp(lambda s, y: y * y, [1.0], (0.0, 2.0), tol=1e-10)

    def test_nonfinite_raises(self):
        def rhs(s, y):
            return np.array([np.inf]) if s > 0.5 else y

        with pytest.raises(NonFiniteState):
            integrate_ivp(rhs, [1.0], (0.0, 1.0), tol=1e-8)

    def test_evaluation_budget_ends_a_run(self, monkeypatch):
        # a growing solution can keep shrinking its steps without underflowing
        # them; past the budget the run raises instead of going on
        monkeypatch.setattr(numerics, "_MAX_RHS_EVALS", 100)
        calls = []

        def rhs(s, y):
            calls.append(s)
            return y

        with pytest.raises(EvaluationBudgetExceeded, match="100 derivative evaluations"):
            integrate_ivp(rhs, [1.0], (0.0, 30.0), tol=1e-12)
        assert len(calls) == 100
        assert issubclass(EvaluationBudgetExceeded, NumericalError)
        assert EvaluationBudgetExceeded("x").exit_code == 3

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda s, y: y, [1.0], (0.0, 1.0), tol=0.0)

    def test_stop_ends_the_run_at_its_falling_zero(self):
        res = integrate_ivp(lambda s, y: -np.ones_like(y), [1.0], (0.0, 10.0), tol=1e-10,
                            stop=lambda s, y: y[0] - 0.25)
        assert res.stopped
        assert res.t[-1] == pytest.approx(0.75, abs=1e-12)
        assert res.y_final[0] == pytest.approx(0.25, abs=1e-12)

    def test_a_rising_zero_or_none_leaves_the_steps_unchanged(self):
        def rhs(s, y):
            return -np.ones_like(y)

        plain = integrate_ivp(rhs, [1.0], (0.0, 10.0), tol=1e-10)
        for stop in (lambda s, y: 0.25 - y[0], lambda s, y: y[0] + 100.0):
            res = integrate_ivp(rhs, [1.0], (0.0, 10.0), tol=1e-10, stop=stop)
            assert not res.stopped and res.t[-1] == 10.0
            np.testing.assert_array_equal(res.t, plain.t)
            np.testing.assert_array_equal(res.y, plain.y)
        assert not plain.stopped

    def test_trap_cell_steps(self):
        # machine-independent cost of one Bragg trapping cell at the default
        # tol: the accepted steps of the trajectory and its first integral
        state = BraggTrapState(E=0.3, deltaS=0.0, gamma=1.0, phi=0.0, omega0=1.0)
        s, E, dS = integrate_trap(state, 200.0)
        assert len(s) - 1 <= 150
        const = first_integral(E, dS, state)
        assert np.max(np.abs(const - const[0])) < 1e-10


def _solve_ivp_reference(field, y0, span, tol, t_eval=None, stop=None):
    """The same integration handed whole to scipy.integrate.solve_ivp, with
    integrate_ivp's tolerances and its stop as a terminal falling event."""
    y0 = np.asarray(y0)
    atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(y0))))
    events = None
    if stop is not None:
        def events(s, y):
            return stop(s, y)
        events.terminal, events.direction = True, -1
    sol = solve_ivp(field, span, y0, method="DOP853", t_eval=t_eval, events=events,
                    rtol=tol, atol=atol)
    assert sol.success
    return sol


def _three_mode_rhs(K):
    def rhs(t, y):
        A1, A2, A12 = y
        return np.array([1j * K * A12 * A2, 1j * np.conj(K) * np.conj(A12) * A1,
                         1j * np.conj(K) * A1 * np.conj(A2)])
    return rhs


class TestStepDriver:
    """integrate_ivp drives DOP853 step by step; it must return solve_ivp's
    bits, its stop point included, and count the work it did."""

    @staticmethod
    def assert_bit_equal(res, ref):
        np.testing.assert_array_equal(res.t, ref.t)
        np.testing.assert_array_equal(res.y, ref.y.T)
        assert res.stopped == (ref.status == 1)
        assert res.nfev == ref.nfev

    def test_batched_grid(self):
        rng = np.random.default_rng(3)
        n = 20
        E0 = 3.0 * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
        PH = 2.0 * np.pi * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n

        def rhs(s, y):
            return np.concatenate([-y[:n] * np.cos(y[n:] + PH), -y[:n]])

        y0 = np.concatenate([E0, np.zeros(n)])
        res = integrate_ivp(rhs, y0, (0.0, 50.0), tol=1e-12)
        self.assert_bit_equal(res, _solve_ivp_reference(rhs, y0, (0.0, 50.0), 1e-12))
        assert res.steps == len(res.t) - 1

    @pytest.mark.parametrize("t_max", [50.0, -50.0])
    def test_three_mode_samples_forward_and_backward(self, t_max):
        rhs = _three_mode_rhs(0.5)
        y0 = np.array([1.0, 0.4 + 0.1j, 0.3 - 0.2j])
        t_eval = np.linspace(0.0, t_max, 2001)
        res = integrate_ivp(rhs, y0, (0.0, t_max), tol=1e-12, t_eval=t_eval)
        self.assert_bit_equal(res, _solve_ivp_reference(rhs, y0, (0.0, t_max), 1e-12,
                                                        t_eval=t_eval))
        np.testing.assert_array_equal(res.t, t_eval)
        # the three-mode reference: 12 evaluations per accepted step, 3 more
        # for each step's dense output, 2 to start
        assert (res.steps, res.nfev) == (232, 3482)

    @pytest.mark.parametrize("E, phi, verdict", [(0.3, 0.0, "Trapped"),
                                                  (1.5, 0.3, "Oscillatory")])
    def test_bragg_cells_with_their_stop(self, E, phi, verdict):
        state = BraggTrapState(E=E, deltaS=0.0, gamma=1.0, phi=phi, omega0=1.0)
        assert trap_verdict_by_integration(state)["verdict"] == verdict
        level = -4.0 * np.pi

        def rhs(s, y):
            return np.array([-y[0] * np.cos(y[1] + phi), -y[0]])

        def stop(s, y):
            return y[1] - level

        res = integrate_ivp(rhs, [E, 0.0], (0.0, 200.0), tol=1e-10, stop=stop)
        self.assert_bit_equal(res, _solve_ivp_reference(rhs, [E, 0.0], (0.0, 200.0), 1e-10,
                                                        stop=stop))
        assert res.stopped == (verdict == "Oscillatory")
        assert res.steps == len(res.t) - 1

    def test_full_drift_path(self):
        model = OrbitDriftModel(d=1.0, C1=-1.0, C2=0.5, C3=0.25)

        def rhs(t, y):
            return drift_rhs(model, y)

        res = integrate_ivp(rhs, [-0.071], (0.0, 600.0), tol=1e-10)
        self.assert_bit_equal(res, _solve_ivp_reference(rhs, [-0.071], (0.0, 600.0), 1e-10))
        assert res.steps == 825

    def test_a_run_of_zero_length_counts_nothing(self):
        res = integrate_ivp(lambda s, y: y, [1.0], (2.0, 2.0))
        assert (res.steps, res.nfev) == (0, 0)


def _matrix_eigen_oracle(well, grid, index):
    # independent route: LAPACK tridiagonal eigensolve of the discretized
    # operator for u = r*phi with a Dirichlet wall at r_max
    r = grid.r
    h = grid.spacing
    w = -1.0 + well(r)
    diag = 2.0 / h**2 - w[1:-1]
    off = -np.ones(grid.n_points - 3) / h**2
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, index)
    )
    return float(np.sqrt(vals[index]))


class TestRadialEigen:
    def test_single_well_ground_state(self):
        grid = RadialGrid(40.0, 4001)
        well = lambda r: 3.0 * np.exp(-((r / 1.5) ** 2))
        omega, phi = solve_radial_eigen(1.0 - well(grid.r), 0, grid=grid)
        oracle = _matrix_eigen_oracle(well, grid, 0)
        assert abs(omega - oracle) < 1e-9
        lap = radial_laplacian(phi)
        kv = omega * omega - 1.0 + well(grid.r[1:-1])
        resid = np.max(np.abs(lap + kv * phi.values[1:-1]))
        assert resid < 1e-6 * phi.max_abs()
        assert np.max(np.abs(phi.values)) == pytest.approx(1.0)
        signs = np.sign(phi.values[np.abs(phi.values) > 1e-8])
        assert np.count_nonzero(signs[1:] * signs[:-1] < 0) == 0

    def test_third_mode_two_nodes(self):
        grid = RadialGrid(40.0, 4001)
        well = lambda r: 4.0 * np.exp(-((r / 4.0) ** 2))
        omega, phi = solve_radial_eigen(1.0 - well(grid.r), 2, grid=grid)
        oracle = _matrix_eigen_oracle(well, grid, 2)
        assert abs(omega - oracle) < 1e-9
        keep = np.abs(phi.values) > 1e-8 * phi.max_abs()
        signs = np.sign(phi.values[keep])
        assert np.count_nonzero(signs[1:] * signs[:-1] < 0) == 2

    def test_no_well_not_trapped(self):
        grid = RadialGrid(30.0, 2001)
        with pytest.raises(NotTrapped, match="everywhere"):
            solve_radial_eigen(1.0 + 0.0 * grid.r, 0, grid=grid)

    def test_mode_below_zero_raises_no_bracket(self):
        # a well 10 deep and 1.5 wide binds its ground state below omega^2 = 0,
        # where no real omega exists; mode 0 of the 3-deep well sits near 0.737
        grid = RadialGrid(40.0, 2001)
        well = lambda r: np.exp(-((r / 1.5) ** 2))
        with pytest.raises(NoBracket, match="omega\\^2 <= 0"):
            solve_radial_eigen(1.0 - 10.0 * well(grid.r), 0, grid=grid)
        omega, _ = solve_radial_eigen(1.0 - 3.0 * well(grid.r), 0, grid=grid)
        assert 0.7 < omega < 0.8

    def test_mode_above_the_continuum_edge_is_not_bound(self):
        # the window's top is sqrt(V(R)) (1 - 1e-9): a box edge lowered to
        # V(R) = 0.5 leaves the 0.737 ground state of this well above it
        grid = RadialGrid(40.0, 2001)
        V = 1.0 - 3.0 * np.exp(-((grid.r / 1.5) ** 2))
        V[-1] = 0.5
        with pytest.raises(NotTrapped, match="continuum edge"):
            solve_radial_eigen(V, 0, grid=grid)

    def test_passes_cycling_across_the_continuum_edge_are_not_bound(self):
        # a well 0.1 deep and 1 wide binds nothing: the Robin passes alternate
        # between omega^2 above the edge and just below it
        grid = RadialGrid(30.0, 2001)
        V = 1.0 - 0.1 * np.exp(-(grid.r**2))
        with pytest.raises(NotTrapped, match="cycles across the continuum edge"):
            solve_radial_eigen(V, 0, grid=grid)

    def test_passes_that_run_out_below_the_edge_do_not_converge(self, monkeypatch):
        # two passes of a bound mode whose tail matters (see
        # test_outer_boundary_term_matters), both below the edge, cannot settle
        monkeypatch.setattr(numerics, "_ROBIN_PASSES", 2)
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        with pytest.raises(NoConvergence, match="2 passes"):
            solve_radial_eigen(V, 1, grid=grid)

    def test_long_forbidden_region(self):
        # one-sided marches would need sub-double omega resolution here
        grid = RadialGrid(108.0, 2001)
        r = grid.r
        phi0 = 0.9 * np.exp(-((r / 20.0) ** 2))
        omega, phi = solve_radial_eigen(1.0 - phi0, 2, grid=grid)
        assert abs(phi.values[-1]) < 1e-3


def _dense_operator(V, grid, robin):
    """Full matrix of -D2 + V on nodes 1..N-2 with u_0 = 0 and the last row
    closed by u_{N-1} = robin * u_{N-2} (robin = 0 is a Dirichlet wall)."""
    h = grid.spacing
    n = grid.n_points - 2
    A = np.diag(2.0 / h**2 + V[1:-1])
    A -= np.diag(np.ones(n - 1), 1) / h**2 + np.diag(np.ones(n - 1), -1) / h**2
    A[-1, -1] -= robin / h**2
    return A


class TestRadialEigenOracles:
    """Checks against analytic levels and a dense eigensolver."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_harmonic_well_levels(self, n):
        # -u'' + r^2 u = omega^2 u with u(0) = 0: the odd levels of the
        # 1-D oscillator, omega^2 = 4n + 3
        grid = RadialGrid(10.0, 2001)
        omega, _ = solve_radial_eigen(grid.r**2, n, grid=grid)
        assert abs(omega**2 - (4 * n + 3)) < 4.0 * grid.spacing**2

    def test_richardson_order_two(self):
        omegas = []
        for n_points in (1001, 2001, 4001):
            grid = RadialGrid(10.0, n_points)
            omegas.append(solve_radial_eigen(grid.r**2, 1, grid=grid)[0])
        order = np.log2((omegas[1] - omegas[0]) / (omegas[2] - omegas[1]))
        assert 1.8 < order < 2.2

    @pytest.mark.parametrize("mode", [0, 1])
    def test_dense_eigh_with_robin_row(self, mode):
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        omega, _ = solve_radial_eigen(V, mode, grid=grid)
        h = grid.spacing
        kr = np.sqrt(max(V[-1] - omega**2, 0.0))
        robin = 1.0 / (1.0 + h * kr - h / grid.r_max)
        dense = np.linalg.eigvalsh(_dense_operator(V, grid, robin))
        assert abs(dense[mode] - omega**2) < 1e-10

    def test_outer_boundary_term_matters(self):
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        omega, _ = solve_radial_eigen(V, 1, grid=grid)
        dirichlet = np.linalg.eigvalsh(_dense_operator(V, grid, 0.0))
        assert abs(dirichlet[1] - omega**2) > 1e-7


def _wrapper_eigen(V, node_count, grid):
    """The radial eigen solve through SciPy's eigh_tridiagonal wrapper, as
    solve_radial_eigen computed it before calling LAPACK directly: same
    Robin passes, same normalization.  Returns (omega, phi, passes)."""
    h = grid.spacing
    h2 = h * h
    diag = 2.0 / h2 + V[1:-1]
    off = np.full(grid.n_points - 3, -1.0 / h2)
    d_last = diag[-1]
    tail, lam_prev = 0.0, None
    for passes in range(1, 9):
        diag[-1] = d_last - tail / h2
        lam, vec = eigh_tridiagonal(diag, off, select="i",
                                    select_range=(node_count, node_count),
                                    tol=2.0 * np.finfo(float).tiny)
        lam = float(lam[0])
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-14 * abs(lam):
            break
        lam_prev = lam
        kr = np.sqrt(max(V[-1] - lam, 0.0))
        tail = 1.0 / (1.0 + h * kr - h / grid.r_max)
    u = np.empty(grid.n_points)
    u[0] = 0.0
    u[1:-1] = vec[:, 0]
    u[-1] = tail * u[-2]
    if u[1] < 0.0:
        u = -u
    phi = np.empty(grid.n_points)
    phi[1:] = u[1:] / grid.r[1:]
    phi[0] = u[1] / h / (1.0 - (lam - V[0]) * h2 / 6.0)
    phi /= np.max(np.abs(phi))
    return float(np.sqrt(lam)), phi, passes


def _wrapper_poisson(source):
    """The Poisson solve through solve_banded's (1, 1) banded matrix."""
    grid = source.grid
    n, h, r, s = grid.n_points, grid.spacing, grid.r, source.values
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    ab[2, :-1] = -1.0
    ab[1, -1] = 1.0
    b = h * h * r[1:] * s[1:]
    b[-1] = 0.0
    u = np.concatenate(([0.0], solve_banded((1, 1), ab, b)))
    phi = np.empty(n)
    phi[1:] = u[1:] / r[1:]
    phi[0] = phi[1] + s[0] * h * h / 6.0
    return phi


class TestLapackKernels:
    """The direct LAPACK calls give the wrappers' bits with fewer calls."""

    @pytest.mark.parametrize("n_points", [201, 801, 2001, 4001])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_eigen_equals_the_wrapper_bit_for_bit(self, n_points, mode):
        grid = RadialGrid(40.0, n_points)
        V = 1.0 - np.exp(-((grid.r / 10.0) ** 2))  # binds modes 0-2
        omega, phi = solve_radial_eigen(V, mode, grid=grid)
        ref_omega, ref_phi, _ = _wrapper_eigen(V, mode, grid)
        assert omega == ref_omega
        np.testing.assert_array_equal(phi.values, ref_phi)

    def test_poisson_equals_solve_banded_bit_for_bit(self):
        grid = RadialGrid(30.0, 2001)
        source = RadialField(grid, np.exp(-(grid.r**2) / 4.0) * (1.0 + 0.3 * np.sin(grid.r)))
        out = solve_radial_poisson(source)
        np.testing.assert_array_equal(out.values, _wrapper_poisson(source))

    def test_one_eigenvector_per_returned_solve(self, monkeypatch):
        # the reference single-mode solve: every eigen solve after the first
        # is seeded by shifted inverse iteration from the previous sweep's
        # omega and shape, so its Robin passes track the eigenvalue in 1e-10
        # windows ('V') and one count-only 'V' call (a huge tolerance)
        # confirms its index; a whole-spectrum bisection by index ('I') is
        # left to the cold first solve and the rare seed that fails that
        # check.  dstein runs once per solve that returns, and once in the
        # one sweep that fails the tail check
        calls = {"window": 0, "full": 0, "dstein": 0}
        half_widths = []
        count_tols = []  # the tolerance of each 'V' call from below the spectrum
        returned = []

        def stebz(*args):
            if args[2] == 2:
                calls["full"] += 1
            elif args[3] < 0.0:
                count_tols.append(args[7])
            else:
                calls["window"] += 1
                half_widths.append((args[4] - args[3]) / (args[4] + args[3]))
            return dstebz(*args)

        def stein(*args):
            calls["dstein"] += 1
            return dstein(*args)

        def recorded(*args, **kwargs):
            out = eigen(*args, **kwargs)
            returned.append(1)
            return out

        dstebz, dstein, eigen = numerics.dstebz, numerics.dstein, trapped_modes.solve_radial_eigen
        monkeypatch.setattr(numerics, "dstebz", stebz)
        monkeypatch.setattr(numerics, "dstein", stein)
        monkeypatch.setattr(trapped_modes, "solve_radial_eigen", recorded)
        sol = iterate_single_mode(SingleModeParams(omega_hat=1.0, epsilon=1.0))
        assert sol.iterations_used == len(returned) == 18
        assert calls["dstein"] == len(returned) + 1
        # the index passes were 25 when every warm solve began with one
        assert calls["full"] <= 4
        # every other call is a 1e-10 tracking window, or a count from below
        # the spectrum with a tolerance that leaves it unrefined, at most one
        # per warm solve (18: 17 returned, 1 raised)
        assert max(half_widths) < 2e-10
        assert min(count_tols) >= 1e300
        assert 0 < len(count_tols) <= len(returned) <= calls["window"]

    def test_failed_warm_start_computes_one_eigenvector(self, monkeypatch):
        # mode 0 of this shallow well is bound below the continuum edge, but
        # its tail is not small at R = 12: the warm start raises its own
        # error after one dstein, without a second (cold) solve
        grid = RadialGrid(12.0, 401)
        V = 1.0 - 0.5 * np.exp(-((grid.r / 6.0) ** 2))
        vectors = []

        def stein(*args):
            vectors.append(1)
            return dstein(*args)

        dstein = numerics.dstein
        monkeypatch.setattr(numerics, "dstein", stein)
        with pytest.raises(NotTrapped, match="tail magnitude"):
            solve_radial_eigen(V, 0, grid=grid, guess=0.9)
        assert len(vectors) == 1

    def test_non_finite_potential_raises(self):
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        for j in (0, 150, 299):
            bad = V.copy()
            bad[j] = np.nan
            with pytest.raises(ValueError, match="finite"):
                solve_radial_eigen(bad, 0, grid=grid)
        # a box edge that is not above 0 leaves no eigen window, as in a sweep
        # whose field has blown up there: NotTrapped, which a sweep retries
        for edge in (np.nan, -np.inf):
            bad = V.copy()
            bad[-1] = edge
            with pytest.raises(NotTrapped, match="box edge"):
                solve_radial_eigen(bad, 0, grid=grid)

    @pytest.mark.parametrize("entry", [0.9e140, 1.1e140, 1e150, 2e154, 1e155])
    def test_scaled_grid_up_to_the_entry_bound(self, entry):
        # the problem on a grid 1/s as fine, with V s^2, has omega s.  Below
        # 1e140 the entries 2/h^2 + V leave LAPACK room; past it the solve is
        # refused.  At 1e150 dstein returned NaN, at 2e154 dstebz split the
        # matrix into 1x1 blocks (a wrong eigenvalue), at 1e155 it failed
        grid = RadialGrid(40.0, 201)
        V = 1.0 - np.exp(-((grid.r / 10.0) ** 2))
        omega, phi = solve_radial_eigen(V, 0, grid=grid)
        s = np.sqrt(entry / (2.0 / grid.spacing**2 + V.max()))
        fine = RadialGrid(40.0 / s, 201)
        if entry > 1e140:
            with pytest.raises(ValidationError, match="inverse iteration overflow"):
                solve_radial_eigen(V * s * s, 0, grid=fine)
            return
        omega_s, phi_s = solve_radial_eigen(V * s * s, 0, grid=fine)
        assert omega_s / s == pytest.approx(omega, rel=1e-12)
        np.testing.assert_allclose(phi_s.values, phi.values, rtol=0, atol=1e-12)

    def test_node_count_beyond_the_grid_raises(self):
        grid = RadialGrid(30.0, 301)
        with pytest.raises(ValueError, match="node_count"):
            solve_radial_eigen(grid.r**2, 299, grid=grid)

    @pytest.mark.parametrize("node_count", [-1, 299, 3000])
    def test_node_count_outside_the_grid_is_validation_error(self, node_count):
        grid = RadialGrid(30.0, 301)
        with pytest.raises(ValidationError, match="node_count"):
            solve_radial_eigen(grid.r**2, node_count, grid=grid)

    def test_lapack_failure_is_a_numerical_linalg_error(self):
        assert issubclass(LapackFailure, np.linalg.LinAlgError)
        assert LapackFailure("x").exit_code == 3


def _sign_changes(phi):
    """Interior zeros of phi, ignoring the roundoff wiggle of its tail."""
    x = phi.values[np.abs(phi.values) > 1e-8]
    return int(np.count_nonzero(np.diff(np.sign(x))))


class TestWarmStart:
    """A guess moves where the Robin passes start, not the fixed point they
    reach, and a guess near another mode's omega is caught by the node count."""

    @staticmethod
    def _problem(n_points):
        grid = RadialGrid(40.0, n_points)
        return grid, 1.0 - np.exp(-((grid.r / 10.0) ** 2))  # binds modes 0-2

    @pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9, 1 + 1e-6, 1 - 3e-4, 2.0])
    @pytest.mark.parametrize("n_points", [201, 801, 2001, 4001])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_warm_start_reaches_the_cold_fixed_point(self, mode, n_points, factor):
        grid, V = self._problem(n_points)
        cold, cold_phi = solve_radial_eigen(V, mode, grid=grid)
        warm, warm_phi = solve_radial_eigen(V, mode, grid=grid, guess=cold * factor)
        assert abs(warm - cold) <= 4 * np.spacing(cold)
        assert _sign_changes(warm_phi) == _sign_changes(cold_phi) == mode

    @pytest.mark.parametrize("n_points", [201, 2001])
    def test_guess_of_another_mode_returns_the_requested_mode(self, n_points, monkeypatch):
        grid, V = self._problem(n_points)
        omegas = [solve_radial_eigen(V, m, grid=grid)[0] for m in range(3)]
        vectors = []

        def stein(*args):
            vectors.append(1)
            return dstein(*args)

        dstein = numerics.dstein
        monkeypatch.setattr(numerics, "dstein", stein)
        for mode in range(3):
            for other in set(range(3)) - {mode}:
                vectors.clear()
                omega, phi = solve_radial_eigen(V, mode, grid=grid, guess=omegas[other])
                assert abs(omega - omegas[mode]) <= 4 * np.spacing(omegas[mode])
                assert _sign_changes(phi) == mode
                # the first pass picks this mode by index, whatever the
                # guess, so one eigenvector is computed
                assert len(vectors) == 1

    @pytest.mark.parametrize("guess", [np.nan, np.inf])
    def test_non_finite_guess_raises(self, guess):
        grid, V = self._problem(201)
        with pytest.raises(ValueError, match="guess"):
            solve_radial_eigen(V, 0, grid=grid, guess=guess)


def _stebz_calls(monkeypatch):
    """A list that grows by the kind of each dstebz call: "index" (range 'I',
    the whole spectrum), "count" (range 'V' with a tolerance wider than any
    interval) or "window" (range 'V', bisected)."""
    kinds = []
    dstebz = numerics.dstebz

    def stebz(*args):
        kinds.append("index" if args[2] == 2 else
                     "count" if args[7] == np.finfo(float).max else "window")
        return dstebz(*args)

    monkeypatch.setattr(numerics, "dstebz", stebz)
    return kinds


class TestWarmSeed:
    """A warm solve seeded by shifted inverse iteration from a far guess
    still returns its own mode, checked against numpy's dense `eigvalsh`
    (LAPACK dsyevd: a reduction to tridiagonal form and divide and conquer,
    not bisection) of the same Robin-closed matrix."""

    @pytest.mark.parametrize("n_points", [201, 801, 2001])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_far_guesses_match_the_dense_eigenvalue(self, mode, n_points):
        grid, V = TestWarmStart._problem(n_points)
        h = grid.spacing
        omegas = [solve_radial_eigen(V, m, grid=grid)[0] for m in range(3)]
        guesses = [omegas[mode] * f for f in (0.5, 0.8, 1.25, 2.0)]
        guesses += [omegas[m] for m in range(3) if m != mode]
        found = [solve_radial_eigen(V, mode, grid=grid, guess=g) for g in guesses]
        kr = np.sqrt(V[-1] - found[0][0] ** 2)
        robin = 1.0 / (1.0 + h * kr - h / grid.r_max)
        dense = np.linalg.eigvalsh(_dense_operator(V, grid, robin))[mode]
        # dsyevd's eigenvalues are good to a small multiple of eps ||T||
        bound = 64 * np.finfo(float).eps * (4.0 / h**2 + np.max(V))
        for omega, phi in found:
            assert abs(omega**2 - dense) <= bound
            assert abs(omega - found[0][0]) <= 4 * np.spacing(omega)
            assert _sign_changes(phi) == mode

    def test_guess_of_another_mode_at_4001_points_falls_back(self, monkeypatch):
        # the shifts settle on the guessed mode's eigenvalue, whose Sturm
        # count is wrong; the solve falls back to bisection by index
        grid, V = TestWarmStart._problem(4001)
        omegas = [solve_radial_eigen(V, m, grid=grid)[0] for m in range(3)]
        calls = _stebz_calls(monkeypatch)
        for mode in range(3):
            for other in set(range(3)) - {mode}:
                calls.clear()
                omega, phi = solve_radial_eigen(V, mode, grid=grid, guess=omegas[other])
                assert calls[:2] == ["window", "count"] and "index" in calls
                assert abs(omega - omegas[mode]) <= 4 * np.spacing(omegas[mode])
                assert _sign_changes(phi) == mode

    def test_a_guess_with_its_shape_takes_one_window_pass(self, monkeypatch):
        # the previous solve's (omega, shape) of a slightly deeper well, as a
        # sweep passes it: the seed lands in the window, the count agrees, and
        # the tails are deep, so the next pass could move omega^2 by far less
        # than an ulp and is not made
        grid, V = TestWarmStart._problem(2001)
        calls = _stebz_calls(monkeypatch)
        for mode in range(3):
            previous = solve_radial_eigen(V - 1e-3, mode, grid=grid)
            cold = solve_radial_eigen(V, mode, grid=grid)[0]
            calls.clear()
            omega, phi = solve_radial_eigen(V, mode, grid=grid, guess=previous)
            assert calls == ["window", "count"]
            assert abs(omega - cold) <= 4 * np.spacing(cold)
            assert _sign_changes(phi) == mode

    def test_a_tail_that_matters_takes_another_window_pass(self, monkeypatch):
        # mode 0 of this shallow well is not small at R = 12 (the tail check
        # refuses it): the Robin term moves omega^2 at first order, so the
        # passes go on until two agree
        grid = RadialGrid(12.0, 401)
        V = 1.0 - 0.5 * np.exp(-((grid.r / 6.0) ** 2))
        calls = _stebz_calls(monkeypatch)
        with pytest.raises(NotTrapped, match="tail magnitude"):
            solve_radial_eigen(V, 0, grid=grid, guess=0.9)
        assert calls[:2] == ["window", "count"] and calls.count("window") >= 2


class TestRadialPoisson:
    def test_zero_source(self):
        grid = RadialGrid(20.0, 2001)
        out = solve_radial_poisson(RadialField(grid, np.zeros(grid.n_points)))
        assert np.all(out.values == 0.0)

    def test_uniform_ball_closed_form(self):
        grid = RadialGrid(20.0, 8001)
        R = 3.0
        s = np.where(grid.r <= R, 1.0, 0.0)
        # cell-averaged value at the jump node keeps second-order accuracy
        s[int(round(R / grid.spacing))] = 0.5
        phi0 = solve_radial_poisson(RadialField(grid, s))
        r = grid.r
        exact = np.where(r <= R, R * R / 2.0 - r * r / 6.0, R**3 / (3.0 * np.maximum(r, 1e-12)))
        exact[0] = R * R / 2.0
        assert np.max(np.abs(phi0.values - exact)) < 1e-6 * np.max(np.abs(exact))

    def test_gaussian_charge_oracle(self):
        grid = RadialGrid(30.0, 4001)
        s = np.exp(-(grid.r**2))
        phi0 = solve_radial_poisson(RadialField(grid, s))
        Q = simpson(s * grid.r**2, x=grid.r)  # total-charge quadrature oracle
        tail = grid.r[-1] * phi0.values[-1]
        assert abs(tail - Q) < 1e-4 * Q
        # r*phi0 levels off well before the boundary
        rp = grid.r * phi0.values
        sel = grid.r > 10.0
        assert np.max(np.abs(rp[sel] - Q)) < 1e-4 * Q

    def test_maximum_principle(self):
        grid = RadialGrid(30.0, 2001)
        s = np.exp(-(grid.r**2) / 4.0)
        phi0 = solve_radial_poisson(RadialField(grid, s))
        assert np.all(phi0.values >= 0.0)
        assert np.argmax(phi0.values) == 0

    def test_green_identity(self):
        grid = RadialGrid(30.0, 8001)
        r = grid.r
        s = np.exp(-(r**2))
        phi0 = solve_radial_poisson(RadialField(grid, s))
        dphi = np.gradient(phi0.values, r)
        lhs = simpson(dphi**2 * r**2, x=r)
        rhs = simpson(s * phi0.values * r**2, x=r)
        boundary = r[-1] ** 2 * phi0.values[-1] * dphi[-1]
        assert abs(lhs - (rhs + boundary)) < 1e-5 * abs(lhs)

    def test_discrete_residual_is_tight(self):
        grid = RadialGrid(30.0, 2001)
        s = np.exp(-(grid.r**2) / 2.0)
        phi0 = solve_radial_poisson(RadialField(grid, s))
        resid = radial_laplacian(phi0) + s[1:-1]
        assert np.max(np.abs(resid)) < 1e-10

    def test_nondecaying_source_rejected(self):
        grid = RadialGrid(10.0, 1001)
        with pytest.raises(NonDecayingSource):
            solve_radial_poisson(RadialField(grid, np.ones(grid.n_points)))


class TestGridTypes:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            RadialGrid(10.0, 8)
        with pytest.raises(ValueError):
            RadialGrid(-1.0, 100)
        g = RadialGrid(10.0, 101)
        assert g.spacing == pytest.approx(0.1)
        assert g.r[0] == 0.0

    def test_spacing_whose_inverse_square_overflows_is_refused(self):
        with pytest.raises(ValidationError, match="spacing"):
            RadialGrid(1e-160, 101)
        assert RadialGrid(1e-150, 101).spacing > 0

    def test_grid_radii_cached_read_only(self):
        g = RadialGrid(10.0, 101)
        assert g.r is g.r
        assert not g.r.flags.writeable
        with pytest.raises(ValueError):
            g.r[1] = 0.0
        assert g == RadialGrid(10.0, 101)
        assert hash(g) == hash(RadialGrid(10.0, 101))

    def test_field_invariants(self):
        g = RadialGrid(10.0, 101)
        with pytest.raises(ValueError):
            RadialField(g, np.zeros(50))
        bad = np.zeros(101)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            RadialField(g, bad)
