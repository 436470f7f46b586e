from itertools import product

import numpy as np
import pytest

from metronlab.bragg import (
    BraggTrapState,
    FourVector,
    LatticeSpec,
    bragg_scatter_set,
    classify_sweep,
    classify_trapping,
    equilibrium_phases,
    first_integral,
    integrate_trap,
    minkowski_dot,
    resonance_direction,
    trap_verdict_by_integration,
)
from metronlab.errors import DegenerateCoupling, NoEquilibrium, OffShell, ValidationError


def boost_vector(omega0, chi, axis=0):
    k = np.zeros(4)
    k[axis] = omega0 * np.sinh(chi)
    k[3] = omega0 * np.cosh(chi)
    return k


class TestResonanceDirection:
    def test_rest_frame(self):
        u = resonance_direction(FourVector(0, 0, 0, 2.0), 2.0)
        assert np.allclose(u, [0, 0, 0, 1])
        assert minkowski_dot(u, u) == pytest.approx(-1.0)

    def test_boosted(self):
        k = boost_vector(1.0, 1.0)
        u = resonance_direction(k, 1.0)
        assert np.allclose(u, [np.sinh(1.0), 0, 0, np.cosh(1.0)])
        assert minkowski_dot(u, u) == pytest.approx(-1.0, abs=1e-12)

    def test_off_shell_rejected(self):
        with pytest.raises(OffShell):
            resonance_direction(FourVector(0.5, 0, 0, 1.0), 1.0)

    @pytest.mark.parametrize("k, omega0", [([np.nan, 0, 0, 1], 1.0), ([1e200, 0, 0, 1e200], 1.0),
                                           ([0, 0, 0, 0], 0.0), ([0, 0, 0, 1], np.inf)])
    def test_non_finite_or_overflowing_inputs_are_refused(self, k, omega0):
        # the shell test is False for NaN, and k.k overflows at 1e200; a
        # RuntimeWarning would fail the test as an error of another type
        with pytest.raises(ValidationError, match="finite"):
            resonance_direction(k, omega0)

    def test_resonance_condition_unique(self):
        # v.u = -1 for unit timelike v happens only at v = u
        rng = np.random.default_rng(42)
        u = resonance_direction(boost_vector(1.0, 0.7), 1.0)
        for _ in range(1000):
            chi = rng.uniform(0.0, 2.0)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            v = np.concatenate([np.sinh(chi) * n, [np.cosh(chi)]])
            dot = minkowski_dot(v, u)
            assert dot <= -1.0 + 1e-12
            if dot > -1.0 - 1e-9:
                assert np.linalg.norm(v - u) < 2e-4  # cusp of the condition
            if np.linalg.norm(v - u) > 1e-3:
                assert dot < -1.0 - 1e-8


def on_shell(spatial, omega0):
    spatial = np.asarray(spatial, dtype=float)
    return np.concatenate([spatial, [np.sqrt(omega0**2 + spatial @ spatial)]])


class TestBraggScatterSet:
    def test_specular_term_always_present(self):
        omega0 = 1.0
        k_i = on_shell([0.3, 0.1, -0.2], omega0)
        lattice = LatticeSpec(
            fundamental_wavenumbers=(FourVector(0.9, 0, 0, 0),), max_order=2
        )
        ks = bragg_scatter_set(k_i, lattice, omega0)
        assert any(np.allclose(k, k_i, atol=1e-12) for k in ks)

    def test_2d_grating_roots_match_quadratic_oracle(self):
        omega0 = 1.0
        g = 0.6
        k_i = on_shell([0.2, 0.0, 1.1], omega0)
        lattice = LatticeSpec(
            fundamental_wavenumbers=(FourVector(g, 0, 0, 0), FourVector(0, g, 0, 0)),
            dimensionality=2,
            normal_axis=2,
            max_order=2,
        )
        ks = bragg_scatter_set(k_i, lattice, omega0)
        # oracle: per order (n, m), the normal component solves
        # kz^2 = |k_spatial|^2 - (kx + n g)^2 - (ky + m g)^2
        spatial_sq = k_i[:3] @ k_i[:3]
        expected = []
        for n in range(-2, 3):
            for m in range(-2, 3):
                kx = k_i[0] + n * g
                ky = k_i[1] + m * g
                rem = spatial_sq - kx * kx - ky * ky
                if rem >= 0:
                    for sgn in (1.0, -1.0) if rem > 0 else (1.0,):
                        expected.append([kx, ky, sgn * np.sqrt(rem), k_i[3]])
        assert len(ks) == len(expected)
        for e in expected:
            assert any(np.allclose(k, e, atol=1e-10) for k in ks)
        for k in ks:
            assert abs(minkowski_dot(k, k) + omega0**2) < 1e-9 * omega0**2

    def test_3d_generic_empty_tuned_found(self):
        omega0 = 1.0
        g = 0.8
        basis = (
            FourVector(g, 0, 0, 0),
            FourVector(0, g, 0, 0),
            FourVector(0, 0, g, 0),
        )
        lattice = LatticeSpec(fundamental_wavenumbers=basis, max_order=3)
        generic = on_shell([0.213, 0.117, 0.391], omega0)
        ks = bragg_scatter_set(generic, lattice, omega0)
        assert len(ks) == 1  # only the specular term
        # glancing construction: kx = -g/2 reflects to +g/2 on shell
        tuned = on_shell([-g / 2, 0.37, 0.11], omega0)
        ks = bragg_scatter_set(tuned, lattice, omega0)
        assert len(ks) == 2
        mirrored = on_shell([g / 2, 0.37, 0.11], omega0)
        assert any(np.allclose(k, mirrored, atol=1e-9) for k in ks)

    def test_incident_off_shell_rejected(self):
        lattice = LatticeSpec(fundamental_wavenumbers=(FourVector(1, 0, 0, 0),))
        with pytest.raises(OffShell):
            bragg_scatter_set(FourVector(0.1, 0, 0, 0.5), lattice, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fundamental_refused_at_construction(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            LatticeSpec(fundamental_wavenumbers=(FourVector(bad, 0, 0, 0),))

    @pytest.mark.parametrize("dimensionality", [2, 3])
    @pytest.mark.parametrize("fundamental, k_i, omega0", [
        # 3 x 1e308 overflows the harmonic itself
        (1e308, [0.2, 0, 1.1, 1.5], 0.9999999999999999),
        # the harmonics stay finite, but a square of 3e200 does not
        (1e200, [0.2, 0, 1.1, 1.5], 0.9999999999999999),
        # an incident wavenumber whose squares overflow
        (0.6, [1e200, 0, 0, 1e200], 1.0),
    ])
    def test_out_of_range_wavenumbers_refused(self, dimensionality, fundamental, k_i,
                                              omega0):
        lattice = LatticeSpec(fundamental_wavenumbers=(FourVector(fundamental, 0, 0, 0),
                                                       FourVector(0, fundamental, 0, 0)),
                              dimensionality=dimensionality)
        with pytest.raises(ValidationError, match="float range"):
            bragg_scatter_set(np.array(k_i), lattice, omega0)

    def test_omega0_whose_square_overflows_refused(self):
        lattice = LatticeSpec(fundamental_wavenumbers=(FourVector(1, 0, 0, 0),))
        with pytest.raises(ValidationError, match="square"):
            bragg_scatter_set(FourVector(0, 0, 0, 1), lattice, 1e200)

    @staticmethod
    def _pairwise_oracle(k_i, lattice, omega0):
        """The scatter set harmonic by harmonic, each candidate checked with
        np.allclose against every kept wavenumber."""
        m = lattice.max_order
        base = np.array(lattice.fundamental_wavenumbers)
        out = []
        for orders in product(range(-m, m + 1), repeat=len(base)):
            k_s = k_i + np.asarray(orders, dtype=float) @ base
            if lattice.dimensionality == 3:
                if abs(minkowski_dot(k_s, k_s) + omega0 * omega0) <= 1e-9 * omega0**2:
                    out.append(k_s)
                continue
            ax = lattice.normal_axis
            in_plane = k_s[:3].copy()
            in_plane[ax] = 0.0
            rem = float(np.sum(k_i[:3] ** 2)) - float(np.sum(in_plane**2))
            if rem < 0.0:
                continue
            root = np.sqrt(rem)
            for sgn in (1.0, -1.0) if root > 0 else (1.0,):
                k_out = k_s.copy()
                k_out[ax] = sgn * root
                out.append(k_out)
        unique = []
        for k in out:
            if not any(np.allclose(k, q, atol=1e-12) for q in unique):
                unique.append(k)
        return unique

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dimensionality", [2, 3])
    def test_equals_the_pairwise_oracle(self, dimensionality, seed):
        # g and 2g along one axis give many labels for one wavenumber; in 3-D
        # the incident components are odd multiples of -g/2, so harmonics
        # other than the specular one reach the shell too
        rng = np.random.default_rng(seed)
        omega0 = rng.uniform(0.5, 1.5)
        gx, gy = rng.uniform(0.3, 0.9, 2)
        fundamentals = (FourVector(gx, 0, 0, 0), FourVector(2 * gx, 0, 0, 0),
                        FourVector(0, gy, 0, 0))
        if dimensionality == 3:
            spatial = [-gx / 2 * rng.choice([1, 3]), -gy / 2 * rng.choice([1, 3]),
                       rng.uniform(-1, 1)]
        else:
            spatial = rng.uniform(-1.0, 1.0, 3)
        k_i = on_shell(spatial, omega0)
        lattice = LatticeSpec(fundamental_wavenumbers=fundamentals,
                              dimensionality=dimensionality, max_order=3)
        got = np.reshape(bragg_scatter_set(k_i, lattice, omega0), (-1, 4))
        want = np.reshape(self._pairwise_oracle(k_i, lattice, omega0), (-1, 4))
        assert len(want) > 1
        np.testing.assert_array_equal(got, want)

    def test_dense_2d_lattice(self):
        # of the 441 harmonics, the 221 with in-plane |k| below |k_i| = 5
        # each give two normal roots
        k_i = FourVector(0, 0, 5, 5.0990195135927845)
        lattice = LatticeSpec(fundamental_wavenumbers=(FourVector(0.6, 0, 0, 0),
                                                       FourVector(0, 0.6, 0, 0)),
                              dimensionality=2, max_order=10)
        ks = bragg_scatter_set(k_i, lattice, 1.0)
        assert len(ks) == 442
        for k in ks:
            assert abs(minkowski_dot(k, k) + 1.0) < 1e-9


class TestTrapDynamics:
    def test_decoupled_gamma_zero(self):
        state = BraggTrapState(E=0.7, deltaS=0.0, gamma=0.0, phi=0.0, omega0=1.3)
        s, E, dS = integrate_trap(state, 10.0)
        assert np.max(np.abs(E - 0.7)) < 1e-9
        assert np.max(np.abs(dS - (-1.3 * 0.7 * s))) < 1e-7

    def test_zero_energy_fixed_point(self):
        state = BraggTrapState(E=0.0, deltaS=0.0, gamma=1.0, phi=0.4, omega0=1.0)
        s, E, dS = integrate_trap(state, 50.0)
        assert np.max(np.abs(E)) == 0.0
        assert np.max(np.abs(dS)) == 0.0

    def test_trapped_limit_matches_equilibrium_phase(self):
        # B = 0.3 < 1 with phi = 0
        state = BraggTrapState(E=0.3, deltaS=0.0, gamma=1.0, phi=0.0, omega0=1.0)
        res = classify_trapping(state)
        assert res["verdict"] == "Trapped"
        s, E, dS = integrate_trap(state, 400.0)
        assert E[-1] < 1e-8
        stable, unstable = equilibrium_phases(res["B"], 0.0)
        # compare against the branch of the stable phase nearest the path
        target = stable - 2.0 * np.pi if stable > np.pi else stable
        assert abs(dS[-1] - target) < 1e-5

    def test_first_integral_conservation(self):
        state = BraggTrapState(E=0.9, deltaS=0.0, gamma=0.8, phi=1.1, omega0=1.2)
        s, E, dS = integrate_trap(state, 200.0, tol=1e-12)
        c = first_integral(E, dS, state)
        drift = np.max(np.abs(c - c[0]))
        assert drift < 1e-8 * max(state.E, state.gamma / state.omega0)

    def test_first_integral_initial_point(self):
        state = BraggTrapState(E=0.5, deltaS=0.0, gamma=1.0, phi=0.7, omega0=1.0)
        assert first_integral(0.5, 0.0, state) == pytest.approx(0.5)

    def test_monotone_phase_when_oscillatory(self):
        state = BraggTrapState(E=3.0, deltaS=0.0, gamma=1.0, phi=0.0, omega0=1.0)
        assert classify_trapping(state)["verdict"] == "Oscillatory"
        s, E, dS = integrate_trap(state, 60.0)
        rate = -state.omega0 * E[:-1]  # dS' = -omega0 E along the path
        assert np.all(np.diff(dS) < 0.0)
        assert np.all(rate < 0.0)


class TestTrapStateValidation:
    @pytest.mark.parametrize("name", ["E", "deltaS", "gamma", "phi", "omega0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        values = {"E": 0.5, "deltaS": 0.0, "gamma": 1.0, "phi": 0.3, "omega0": 1.0}
        values[name] = bad
        with pytest.raises(ValidationError):
            BraggTrapState(**values)


class TestClassification:
    def test_zero_energy_always_trapped(self):
        for phi in np.linspace(0, 2 * np.pi, 17):
            state = BraggTrapState(E=0.0, deltaS=0.0, gamma=2.0, phi=phi, omega0=1.0)
            res = classify_trapping(state)
            assert res["verdict"] == "Trapped"
            assert res["B"] == pytest.approx(-np.sin(phi))

    def test_direct_formula(self):
        phi = np.arcsin(0.5)
        state = BraggTrapState(E=3.0, deltaS=0.0, gamma=1.0, phi=phi, omega0=1.0)
        res = classify_trapping(state)
        assert res["B"] == pytest.approx(2.5)
        assert res["verdict"] == "Oscillatory"

    def test_degenerate_coupling(self):
        state = BraggTrapState(E=1.0, deltaS=0.0, gamma=0.0, phi=0.0, omega0=1.0)
        with pytest.raises(DegenerateCoupling):
            classify_trapping(state)

    def test_small_grid_oracle_agreement(self):
        for ratio in (0.0, 0.8, 1.6, 2.8):
            for phi in (0.0, 1.3, 3.7, 5.2):
                state = BraggTrapState(E=ratio, deltaS=0.0, gamma=1.0, phi=phi, omega0=1.0)
                rule = classify_trapping(state)["verdict"]
                oracle = trap_verdict_by_integration(state)
                assert oracle["verdict"] == rule
                assert oracle["first_integral_drift"] < 1e-8 * max(ratio, 1.0)


class TestVerdictStop:
    # (B, phi) cells: ratio = B + sin(phi); the full runs to s_max took
    # 1899, 1482, 8982 and 6674 accepted steps
    @pytest.mark.parametrize("B,phi", [(1.93, 0.0), (1.047, 4.0), (1.003, 1.0),
                                       (1.0005, 5.5)])
    def test_an_oscillatory_cell_stops_once_the_phase_has_wound_through_4pi(self, B, phi):
        state = BraggTrapState(E=B + np.sin(phi), deltaS=0.0, gamma=1.0, phi=phi,
                               omega0=1.0)
        res = trap_verdict_by_integration(state)
        assert res["verdict"] == classify_trapping(state)["verdict"] == "Oscillatory"
        s, E, dS = res["trajectory"]
        assert res["s_end"] == s[-1] < res["s_max"]
        assert len(s) - 1 <= 300
        assert abs(dS[-1] - (dS[0] - 4.0 * np.pi)) < 1e-9

    @pytest.mark.parametrize("E,omega0", [(0.999, 1.0), (0.5, -1.0)])
    def test_a_trapped_cell_runs_to_s_max(self, E, omega0):
        state = BraggTrapState(E=E, deltaS=0.0, gamma=1.0, phi=0.0, omega0=omega0)
        res = trap_verdict_by_integration(state)
        assert res["verdict"] == classify_trapping(state)["verdict"] == "Trapped"
        assert res["s_end"] == res["s_max"]


class TestClassifySweep:
    @pytest.mark.parametrize("gamma,omega0", [(1.0, 1.0), (0.5, 2.0)])
    def test_against_definition(self, gamma, omega0):
        # sin(pi/2) = 1, sin(3pi/2) = -1 and sin(0) = 0 exactly, so the ratios
        # 0, 1 and 2 put exact tangency cells (|B| = 1) on the grid
        ratios = np.array([-1.5, -0.25, 0.0, 0.4, 1.0, 2.0, 3.5])
        phis = np.array([0.0, np.pi / 2, 1.0, 3 * np.pi / 2, 4.0, -2.0])
        cols = classify_sweep(ratios, phis, gamma, omega0)
        n = ratios.size * phis.size
        assert all(len(col) == n for col in cols.values())
        ratio = np.repeat(ratios, phis.size)
        phi = np.tile(phis, ratios.size)
        assert np.array_equal(cols["phi"], phi)
        bad = ratio < 0
        assert np.all(cols["verdict"][bad] == "error:ValidationError")
        for name in ("B", "deltaS_stable", "deltaS_unstable"):
            assert np.all(np.isnan(cols[name][bad]))
        ok = ~bad
        B = cols["B"][ok]
        assert np.allclose(B, ratio[ok] - np.sin(phi[ok]), rtol=0, atol=1e-14)
        assert np.count_nonzero(np.abs(B) == 1.0) >= 4
        want = np.where(B <= 1.0, "Trapped", "Oscillatory")
        assert np.array_equal(cols["verdict"][ok], want)
        bound = np.abs(B) <= 1.0
        p = phi[ok][bound]
        st = cols["deltaS_stable"][ok][bound]
        un = cols["deltaS_unstable"][ok][bound]
        for root in (st, un):
            assert np.all((root >= 0.0) & (root < 2 * np.pi))
            assert np.allclose(np.sin(root + p), -B[bound], rtol=0, atol=1e-12)
        assert np.all(np.cos(st + p) >= -1e-12)
        inner = np.abs(B[bound]) < 1.0 - 1e-9
        assert np.all(np.cos(un + p)[inner] < 0.0)
        assert np.all(np.isnan(cols["deltaS_stable"][ok][~bound]))
        assert np.all(np.isnan(cols["deltaS_unstable"][ok][~bound]))
        # each valid cell agrees exactly with the scalar classification
        for k in np.flatnonzero(ok):
            E0 = ratio[k] * gamma / omega0
            state = BraggTrapState(E=E0, deltaS=0.0, gamma=gamma, phi=phi[k], omega0=omega0)
            res = classify_trapping(state)
            assert (res["B"], res["verdict"]) == (cols["B"][k], cols["verdict"][k])

    @pytest.mark.parametrize("gamma,omega0,error", [
        (0.0, 1.0, DegenerateCoupling),
        (-1.0, 1.0, ValidationError),
        (1.0, 0.0, ValidationError),
        (np.nan, 1.0, ValidationError),
        (1.0, np.inf, ValidationError),
    ])
    def test_sweep_wide_faults_raise(self, gamma, omega0, error):
        with pytest.raises(error):
            classify_sweep([0.5], [0.3], gamma, omega0)


class TestEquilibriumPhases:
    def test_b_zero_phi_zero(self):
        stable, unstable = equilibrium_phases(0.0, 0.0)
        assert stable == pytest.approx(0.0)
        assert unstable == pytest.approx(np.pi)

    def test_tangency(self):
        a, b = equilibrium_phases(1.0, 0.0)
        # double root sin(x) = -1 at 3pi/2
        assert a == pytest.approx(3 * np.pi / 2, abs=1e-7)
        assert b == pytest.approx(3 * np.pi / 2, abs=1e-7)

    def test_no_equilibrium(self):
        with pytest.raises(NoEquilibrium):
            equilibrium_phases(1.5, 0.0)

    def test_stability_by_linearized_eigenvalue(self):
        # oracle: eigenvalues of the 2x2 Jacobian at (E=0, deltaS*)
        B, phi = 0.5, 0.3
        stable, unstable = equilibrium_phases(B, phi)
        for root, expect_stable in ((stable, True), (unstable, False)):
            jac = np.array([[-1.0 * np.cos(root + phi), 0.0], [-1.0, 0.0]])
            eigs = np.linalg.eigvals(jac)
            restoring = eigs[np.argmax(np.abs(eigs))]  # the non-neutral one
            assert (restoring.real < 0.0) == expect_stable

    def test_basin_oracle(self):
        B, phi = 0.5, 0.3
        stable, _ = equilibrium_phases(B, phi)
        state = BraggTrapState(E=(B + np.sin(phi)) * 1.0, deltaS=0.0, gamma=1.0,
                               phi=phi, omega0=1.0)
        s, E, dS = integrate_trap(state, 500.0)
        wrapped = dS[-1] % (2 * np.pi)
        assert min(abs(wrapped - stable), 2 * np.pi - abs(wrapped - stable)) < 1e-5
