import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from metronlab.errors import (
    NoBracket,
    NonDecayingSource,
    NonFiniteState,
    NotTrapped,
    StepUnderflow,
)
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

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda s, y: y, [1.0], (0.0, 1.0), tol=0.0)


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
        omega, phi = solve_radial_eigen(
            1.0 - well(grid.r), 0, (0.05, 0.999), grid=grid
        )
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
        omega, phi = solve_radial_eigen(
            1.0 - well(grid.r), 2, (0.05, 0.999), grid=grid
        )
        oracle = _matrix_eigen_oracle(well, grid, 2)
        assert abs(omega - oracle) < 1e-9
        keep = np.abs(phi.values) > 1e-8 * phi.max_abs()
        signs = np.sign(phi.values[keep])
        assert np.count_nonzero(signs[1:] * signs[:-1] < 0) == 2

    def test_no_well_not_trapped(self):
        grid = RadialGrid(30.0, 2001)
        with pytest.raises(NotTrapped):
            solve_radial_eigen(
                1.0 + 0.0 * grid.r, 0, (0.05, 0.999), grid=grid
            )

    def test_wrong_bracket_raises(self):
        grid = RadialGrid(40.0, 2001)
        well = lambda r: 3.0 * np.exp(-((r / 1.5) ** 2))
        with pytest.raises(NoBracket):
            # ground state sits near 0.737; bracket above it has no mode 0
            solve_radial_eigen(
                1.0 - well(grid.r), 0, (0.9, 0.999), grid=grid
            )

    def test_long_forbidden_region(self):
        # one-sided marches would need sub-double omega resolution here
        grid = RadialGrid(108.0, 2001)
        r = grid.r
        phi0 = 0.9 * np.exp(-((r / 20.0) ** 2))
        omega, phi = solve_radial_eigen(
            1.0 - phi0,
            2,
            (1e-6, 0.999),
            grid=grid,
        )
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
        omega, _ = solve_radial_eigen(grid.r**2, n, (0.1, 5.0), grid=grid)
        assert abs(omega**2 - (4 * n + 3)) < 4.0 * grid.spacing**2

    def test_richardson_order_two(self):
        omegas = []
        for n_points in (1001, 2001, 4001):
            grid = RadialGrid(10.0, n_points)
            omegas.append(solve_radial_eigen(grid.r**2, 1, (0.1, 5.0), grid=grid)[0])
        order = np.log2((omegas[1] - omegas[0]) / (omegas[2] - omegas[1]))
        assert 1.8 < order < 2.2

    @pytest.mark.parametrize("mode", [0, 1])
    def test_dense_eigh_with_robin_row(self, mode):
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        omega, _ = solve_radial_eigen(V, mode, (0.01, 0.999), grid=grid)
        h = grid.spacing
        kr = np.sqrt(max(V[-1] - omega**2, 0.0))
        robin = 1.0 / (1.0 + h * kr - h / grid.r_max)
        dense = np.linalg.eigvalsh(_dense_operator(V, grid, robin))
        assert abs(dense[mode] - omega**2) < 1e-10

    def test_outer_boundary_term_matters(self):
        grid = RadialGrid(30.0, 301)
        V = 1.0 - np.exp(-((grid.r / 5.0) ** 2))
        omega, _ = solve_radial_eigen(V, 1, (0.01, 0.999), grid=grid)
        dirichlet = np.linalg.eigvalsh(_dense_operator(V, grid, 0.0))
        assert abs(dirichlet[1] - omega**2) > 1e-7


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
        phi0 = solve_radial_poisson(RadialField(grid, s), sign=1)
        r = grid.r
        exact = np.where(r <= R, R * R / 2.0 - r * r / 6.0, R**3 / (3.0 * np.maximum(r, 1e-12)))
        exact[0] = R * R / 2.0
        assert np.max(np.abs(phi0.values - exact)) < 1e-6 * np.max(np.abs(exact))

    def test_gaussian_charge_oracle(self):
        grid = RadialGrid(30.0, 4001)
        s = np.exp(-(grid.r**2))
        phi0 = solve_radial_poisson(RadialField(grid, s), sign=1)
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
        phi0 = solve_radial_poisson(RadialField(grid, s), sign=1)
        assert np.all(phi0.values >= 0.0)
        assert np.argmax(phi0.values) == 0

    def test_green_identity(self):
        grid = RadialGrid(30.0, 8001)
        r = grid.r
        s = np.exp(-(r**2))
        phi0 = solve_radial_poisson(RadialField(grid, s), sign=1)
        dphi = np.gradient(phi0.values, r)
        lhs = simpson(dphi**2 * r**2, x=r)
        rhs = simpson(s * phi0.values * r**2, x=r)
        boundary = r[-1] ** 2 * phi0.values[-1] * dphi[-1]
        assert abs(lhs - (rhs + boundary)) < 1e-5 * abs(lhs)

    def test_discrete_residual_is_tight(self):
        grid = RadialGrid(30.0, 2001)
        s = np.exp(-(grid.r**2) / 2.0)
        phi0 = solve_radial_poisson(RadialField(grid, s), sign=1)
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
