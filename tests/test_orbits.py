import numpy as np
import pytest

from metronlab import orbits
from metronlab.errors import (
    ComplexRoots,
    GridMismatch,
    InvalidSamples,
    NonFiniteState,
    ResonanceSingularity,
    ValidationError,
)
from metronlab.numerics import integrate_ivp
from metronlab.orbits import (
    OrbitDriftModel,
    ThreeModeState,
    bohr_check,
    central_frequency,
    drift_equilibria,
    drift_rhs,
    evolve_variances,
    forcing_spectrum,
    integrate_drift,
    integrate_three_mode,
    manley_rowe,
    mode_response,
    pair_growth_rate,
)


class TestCentralFrequency:
    def test_rest_frame(self):
        u4 = np.ones(257)
        assert central_frequency(u4, 2 * np.pi, 3.0) == pytest.approx(3.0)

    def test_uniform_dilation(self):
        gamma_l = 1.25
        u4 = np.full(257, gamma_l)
        assert central_frequency(u4, 1.0, 2.0) == pytest.approx(2.0 / gamma_l)

    def test_invalid_samples(self):
        with pytest.raises(InvalidSamples):
            central_frequency(np.array([1.0, 0.99, 1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("T", [1e-320, 1e-300, 2 * np.pi, 1e300])
    def test_the_period_cancels(self, T):
        # omega_e times the trapezoid mean of 1/u4; a subnormal T once gave inf
        want = 3.0 * (0.5 / 1.5 + 1.0 / 2.0 + 0.5 / 1.25) / 2.0
        assert central_frequency([1.5, 2.0, 1.25], T, 3.0) == pytest.approx(want, rel=1e-15)

    def test_circular_orbit_first_order_energy_shift(self):
        # toy fine structure alpha = 0.1: unit circular orbit, v = 1 in
        # orbit units, speed v/c = alpha
        alpha = 0.1
        c = 1.0 / alpha
        omega0 = c * c
        u4 = np.full(513, 1.0 / np.sqrt(1.0 - alpha**2))
        om_bar = central_frequency(u4, 2 * np.pi, omega0)
        E_orbit = -0.5  # total energy of the unit Kepler orbit
        first_order = omega0 * (1.0 + E_orbit / (1.0 * c * c))
        assert abs(om_bar - first_order) / omega0 < alpha**4


class TestForcingSpectrum:
    def test_constant_modulation_single_line(self):
        T = 2 * np.pi
        t = np.linspace(0.0, T, 513)
        spec = forcing_spectrum(np.full(513, 0.7 + 0j), 1.3 * t, T)
        weights = {n: g for n, _, g in spec.lines}
        assert abs(weights[0] - 0.7) < 1e-12
        others = [abs(g) for n, _, g in spec.lines if n != 0]
        assert max(others) < 1e-10
        assert spec.omega_bar == pytest.approx(1.3)

    def test_pure_harmonic_two_lines(self):
        T = 2 * np.pi
        t = np.linspace(0.0, T, 1025)
        spec = forcing_spectrum(np.cos(t).astype(complex), 0.0 * t, T)
        weights = {n: g for n, _, g in spec.lines}
        assert abs(weights[1] - 0.5) < 1e-10
        assert abs(weights[-1] - 0.5) < 1e-10
        rest = [abs(g) for n, _, g in spec.lines if n not in (-1, 1)]
        assert max(rest) < 1e-10

    def test_eccentric_profile_matches_fft_oracle(self):
        T = 1.7
        n = 1024
        t = np.linspace(0.0, T, n + 1)
        u4 = 1.0 + 0.3 * np.cos(2 * np.pi * t / T) + 0.1 * np.sin(4 * np.pi * t / T)
        S = np.cumsum(1.0 / u4) * (t[1] - t[0])
        S -= S[0]
        gam = (0.8 + 0.2j) * u4**-2
        spec = forcing_spectrum(gam, S, T)
        # oracle: numpy FFT of the assembled periodic factor
        delta_s = (S - S[0]) - (t / T) * (S[-1] - S[0])
        assembled = (gam * np.exp(1j * delta_s))[:-1]
        coeffs = np.fft.fft(assembled) / n
        for n_line, _, g in spec.lines:
            assert abs(g - coeffs[n_line % n]) < 1e-10

    def test_reconstruction_parseval(self):
        T = 2.0
        t = np.linspace(0.0, T, 513)
        gam = np.exp(1j * np.sin(2 * np.pi * t / T)) * (1.0 + 0.2 * np.cos(2 * np.pi * t / T))
        spec = forcing_spectrum(gam, 0.0 * t, T)
        rebuilt = spec.reconstruct(t)
        assert np.max(np.abs(rebuilt - gam)) < 1e-8

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            forcing_spectrum(np.zeros(10), np.zeros(11), 1.0)


class TestModeResponse:
    def test_stationary_off_resonance(self):
        lines = ((0, 2.0, 0.3 + 0j),)
        a = mode_response(lines, omega_p=1.0, mu=0.0, t=0.0, response="stationary")
        # solving da/dt - i omega_p a = g exp(i omega_n t) directly gives
        # A = g / (i (omega_n - omega_p)) = -i g / (omega_n - omega_p)
        assert a == pytest.approx(-1j * 0.3 / (2.0 - 1.0))

    def test_stationary_on_resonance_raises(self):
        with pytest.raises(ResonanceSingularity):
            mode_response(((0, 1.0, 1.0),), 1.0, 0.0, 1.0, response="stationary")

    def test_nonstationary_secular_growth(self):
        g = 0.4
        for t in (5.0, 50.0):
            a = mode_response(((0, 1.0, g),), 1.0, 0.0, t, response="nonstationary")
            assert abs(abs(a) - g * t) < 1e-12

    @pytest.mark.parametrize("lines", [(), ((0, 1.0, 1.0),)])
    def test_unknown_response_kind_is_refused(self, lines):
        with pytest.raises(ValidationError, match="unknown response kind"):
            mode_response(lines, 1.0, 0.0, 0.0, "bogus")

    def test_damped_resonance_steady_amplitude(self):
        g, mu = 0.7, 0.02
        a = mode_response(((0, 1.0, g),), 1.0, mu, 0.0, response="damped")
        assert abs(a - g / mu) < 1e-12


def drift_slope_oracle(model, x):
    # analytic derivative of the drift right-hand side
    num = 2 * model.C1 * (x * x + model.C3) - (2 * model.C1 * x + model.C2) * 2 * x
    return model.d * num / (x * x + model.C3) ** 2


class TestDriftEquilibria:
    def test_frozen_roots(self):
        model = OrbitDriftModel(d=1.0, C1=-1.0, C2=0.5, C3=0.25)
        roots = dict((round(r, 12), s) for r, s in drift_equilibria(model))
        # C1 +- sqrt(C1^2 + C2 - C3) = -1 +- sqrt(1.25)
        assert round(-1.0 + np.sqrt(1.25), 12) in roots
        assert round(-1.0 - np.sqrt(1.25), 12) in roots

    def test_roots_zero_rhs(self):
        model = OrbitDriftModel(d=0.7, C1=-1.0, C2=0.5, C3=0.25)
        for root, _ in drift_equilibria(model):
            assert abs(drift_rhs(model, root)) < 1e-10

    @pytest.mark.parametrize("C1, C2, C3, d", [
        (-1.0, 0.5, 0.25, 1.0), (0.8, 0.3, 0.1, 1.0), (-0.6, 0.2, 0.05, -1.0),
        (1.0, 0.5, 0.25, -2.0), (0.8, 0.3, 0.1, -1e-3),
        # near-tangent: disc = C1^2 + C2 - C3 is about 1e-14, so the roots lie
        # only 2e-7 apart
        (1.0, 1e-14, 1.0, 1.0), (1.0, 1e-14, 1.0, -1.0), (-0.5, 1e-14, 0.25, 3.0),
    ])
    def test_stability_labels_match_analytic_slope(self, C1, C2, C3, d):
        model = OrbitDriftModel(d=d, C1=C1, C2=C2, C3=C3)
        labels = [label for _, label in drift_equilibria(model)]
        assert sorted(labels) == ["Stable", "Unstable"]
        for root, label in drift_equilibria(model):
            slope = drift_slope_oracle(model, root)
            assert (slope < 0) == (label == "Stable")

    @pytest.mark.parametrize("d", [1.0, -1.0, 0.0])
    def test_a_tangent_double_root_is_unstable(self, d):
        # C1^2 + C2 - C3 = 0: the rate -d (deltar - 1)^2 / (deltar^2 + 1)
        # keeps its sign on both sides of the root
        model = OrbitDriftModel(d=d, C1=1.0, C2=0.0, C3=1.0)
        assert drift_equilibria(model) == [(1.0, "Unstable"), (1.0, "Unstable")]

    def test_without_drift_no_root_is_stable(self):
        model = OrbitDriftModel(d=0.0, C1=-1.0, C2=0.5, C3=0.25)
        assert {label for _, label in drift_equilibria(model)} == {"Unstable"}

    def test_c2_equals_c3_roots(self):
        model = OrbitDriftModel(d=1.0, C1=0.7, C2=0.3, C3=0.3)
        roots = sorted(r for r, _ in drift_equilibria(model))
        assert roots[0] == pytest.approx(0.0, abs=1e-14)
        assert roots[1] == pytest.approx(2 * 0.7, abs=1e-14)

    def test_complex_roots(self):
        with pytest.raises(ComplexRoots):
            drift_equilibria(OrbitDriftModel(d=1.0, C1=0.1, C2=0.0, C3=0.5))

    def test_coefficients_from_primitives(self):
        model = OrbitDriftModel.from_primitives(d=0.5, alpha=0.3 + 0.4j,
                                                gamma=1.2, beta=0.8, mu=0.05)
        assert model.C1 == pytest.approx((0.3 + 0.4j).imag * 1.2 / (2 * 0.8 * 0.5))
        assert model.C3 == pytest.approx((0.05 / 0.8) ** 2)

    @pytest.mark.parametrize("beta, d", [(0.0, 1.0), (1.0, 0.0), (1e-200, 1.0)])
    def test_primitives_with_beta_d_zero_are_refused(self, beta, d):
        # C1 = Im(alpha gamma)/(2 beta d) and C2 = mu Re(alpha gamma)/(beta^2 d);
        # beta = 1e-200 leaves beta*d nonzero but beta^2*d underflows to 0
        with pytest.raises(ValidationError, match="beta \\* d"):
            OrbitDriftModel.from_primitives(d=d, alpha=1.0, gamma=1.0, beta=beta, mu=0.0)


class TestIntegrateDrift:
    def test_stays_at_stable_root(self):
        model = OrbitDriftModel(d=1.0, C1=-1.0, C2=0.5, C3=0.25)
        stable = [r for r, s in drift_equilibria(model) if s == "Stable"][0]
        res = integrate_drift(model, stable, 50.0)
        assert res["verdict"] == "TrappedAt"
        assert np.max(np.abs(res["delta_r"] - stable)) < 1e-8

    def test_canyon_basin(self):
        # attractive case: trapped from above the unstable root, escape below
        model = OrbitDriftModel(d=1.0, C1=-1.0, C2=0.5, C3=0.25)
        eq = dict((s, r) for r, s in drift_equilibria(model))
        res = integrate_drift(model, eq["Unstable"] + 0.3, 400.0)
        assert res["verdict"] == "TrappedAt"
        assert res["root"] == pytest.approx(eq["Stable"], abs=1e-6)
        res = integrate_drift(model, eq["Unstable"] - 0.3, 60.0)
        assert res["verdict"] == "Escaped"
        assert res["direction"] == "inward"

    def test_verdict_at_the_pole_is_non_finite(self):
        # C3 = 0: the rate is 0/0 at delta_r = 0, where a zero-length run ends
        model = OrbitDriftModel(d=0.0, C1=0.0, C2=0.0, C3=0.0)
        assert np.isnan(drift_rhs(model, 0.0))
        assert np.isinf(drift_rhs(OrbitDriftModel(d=1.0, C1=0.0, C2=1.0, C3=0.0), 0.0))
        with pytest.raises(NonFiniteState, match="pole"):
            integrate_drift(model, 0.0, 0.0)
        # a start on the pole with C2 != 0: 1/0 in the first stage
        with pytest.raises(NonFiniteState):
            integrate_drift(OrbitDriftModel(d=1.0, C1=0.0, C2=1.0, C3=0.0), 0.0, 1.0)

    def test_barrier_phenomenology(self):
        # repulsive case C1 > 0 with positive drift: the far root is stable
        # and shields the resonance from orbits drifting inward
        model = OrbitDriftModel(d=1.0, C1=1.0, C2=0.5, C3=0.25)
        eq = drift_equilibria(model)
        labels = {s for _, s in eq}
        assert labels == {"Stable", "Unstable"}
        stable = [r for r, s in eq if s == "Stable"][0]
        unstable = [r for r, s in eq if s == "Unstable"][0]
        assert stable > unstable
        res = integrate_drift(model, 0.5 * (stable + unstable), 400.0)
        assert res["verdict"] == "TrappedAt"
        assert res["root"] == pytest.approx(stable, abs=1e-6)


CANYON = OrbitDriftModel(d=1.0, C1=-1.0, C2=0.5, C3=0.25)


def _drift_runs(monkeypatch, model, x0, t_max, **kw):
    """integrate_drift's verdict and the IvpResult of its integration."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(integrate_ivp(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(orbits, "integrate_ivp", spy)
    return integrate_drift(model, x0, t_max, **kw), seen[-1]


def _verdict(res):
    return {k: v for k, v in res.items() if k not in ("t", "delta_r")}


class TestSettledDrift:
    """integrate_drift ends once every start is within 1e-9 max(1, |r|) of
    the stable root r; full_path=True runs to t_max."""

    def test_settled_run_is_short_and_ends_in_the_band(self, monkeypatch):
        stable = drift_equilibria(CANYON)[1][0]
        full, full_res = _drift_runs(monkeypatch, CANYON, -0.071, 600.0, full_path=True)
        settled, res = _drift_runs(monkeypatch, CANYON, -0.071, 600.0)
        assert full_res.steps == 825 and full["t"][-1] == 600.0
        assert res.stopped and res.steps <= 45 and settled["t"][-1] < 600.0
        assert abs(settled["delta_r"][-1] - stable) <= 1.01e-9
        assert _verdict(settled) == _verdict(full) and settled["verdict"] == "TrappedAt"
        # up to the settle step the two runs took the same steps
        n = res.steps
        np.testing.assert_array_equal(settled["t"][:n], full["t"][:n])

    def test_settled_verdicts_match_the_full_path_on_criterion_5_starts(self):
        (unstable, _), (stable, _) = drift_equilibria(CANYON)
        ics = [x for x in np.linspace(unstable - 1.5, stable + 2.0, 52)
               if abs(x - unstable) > 0.05][:50]
        full = integrate_drift(CANYON, np.array(ics), 600.0, full_path=True)
        settled = [integrate_drift(CANYON, x, 600.0) for x in ics]
        assert [_verdict(s) for s in settled] == [_verdict(f) for f in full]
        assert sum(s["t"][-1] < 600.0 for s in settled) == sum(
            f["verdict"] == "TrappedAt" for f in full) > 30

    def test_settled_verdicts_match_the_full_path_in_both_bench_basins(self):
        (unstable, _), (stable, _) = drift_equilibria(CANYON)
        starts = np.concatenate([np.linspace(unstable - 1.5, unstable - 0.05, 6),
                                 np.linspace(unstable + 0.05, stable + 2.0, 6),
                                 [-0.071, 1.692]])
        full = integrate_drift(CANYON, starts, 600.0, full_path=True)
        for x0, f in zip(starts, full):
            assert _verdict(integrate_drift(CANYON, x0, 600.0)) == _verdict(f)
        # a batch settles only once every start has: not while some escape,
        # but a batch of trapped starts does
        assert integrate_drift(CANYON, starts, 600.0)[0]["t"][-1] == 600.0
        trapped = starts[6:]
        settled = integrate_drift(CANYON, trapped, 600.0)
        assert settled[0]["t"][-1] < 600.0
        assert [_verdict(s) for s in settled] == [_verdict(f) for f in full[6:]]

    @pytest.mark.parametrize("offset", [0.0, 1e-10])
    def test_a_start_inside_the_band_is_settled_at_once(self, monkeypatch, offset):
        # the stop sees no falling crossing from inside the band: such a start
        # ran 794-796 steps to t_max, and now takes none
        stable = drift_equilibria(CANYON)[1][0]
        res, ivp = _drift_runs(monkeypatch, CANYON, stable + offset, 600.0)
        assert ivp.steps == 0 and res["t"].tolist() == [0.0]
        assert res["delta_r"].tolist() == [stable + offset]
        assert res["verdict"] == "TrappedAt" and res["root"] == stable
        full = integrate_drift(CANYON, stable + offset, 600.0, full_path=True)
        assert full["t"][-1] == 600.0 and _verdict(full) == _verdict(res)
        # a batch settles at once only when every start is inside the band
        batch = integrate_drift(CANYON, np.array([stable, stable + offset, -0.071]), 600.0)
        assert 0.0 < batch[0]["t"][-1] < 600.0
        assert [b["verdict"] for b in batch] == ["TrappedAt"] * 3

    def test_a_near_double_root_runs_to_t_max(self, monkeypatch):
        # s = sqrt(C1^2 + C2 - C3) ~ 3e-10 is below the band 1e-9, which would
        # hold both roots; the path does reach the band by t_max
        model = OrbitDriftModel(d=1.0, C1=1e-3, C2=1e-19, C3=1e-6)
        (lo, _), (stable, label) = drift_equilibria(model)
        assert label == "Stable" and 0 < stable - lo < 1e-9
        res, ivp = _drift_runs(monkeypatch, model, 1e-3 + 1e-6, 1e4)
        assert not ivp.stopped and res["t"][-1] == 1e4
        assert abs(res["delta_r"][-1] - stable) < 1e-9
        assert res["verdict"] == "TrappedAt" and res["root"] == stable

    def test_a_root_by_the_pole_runs_to_t_max(self, monkeypatch):
        # C3 = 0 puts a pole at deltar = 0, inside the band around the stable
        # root -9e-10; the path does reach the band by t_max
        model = OrbitDriftModel(d=-4e-19, C1=1.0, C2=1.8e-9, C3=0.0)
        (stable, label), _ = drift_equilibria(model)
        assert label == "Stable" and -1e-9 < stable < 0
        res, ivp = _drift_runs(monkeypatch, model, -1e-8, 400.0)
        assert not ivp.stopped and res["t"][-1] == 400.0
        assert abs(res["delta_r"][-1] - stable) < 1e-9
        assert res["verdict"] == "TrappedAt" and res["root"] == stable


class TestDriftPathClosedForm:
    """The rate -d (r - r_-)(r - r_+) / (r^2 + C3) separates:

        t(r) = -[r + alpha ln|r - r_-| + beta ln|r - r_+|] / d + const,

    alpha = (r_-^2 + C3) / (r_- - r_+), beta = (r_+^2 + C3) / (r_+ - r_-).
    The error in t grows near a root, where dt/dr is large, so the error in
    r is measured as |t(r) - t| |dr/dt|.  A settled path hovers within about
    1e-11 of its root while t runs on, so the measure grows with t there:
    the worst of these paths, each integrated alone, reads 4.9e-8 at
    t = 600."""

    @pytest.mark.parametrize("model,starts", [
        (CANYON, [-4.0, -2.5, -2.0, -0.071, 0.3, 1.692]),
        (OrbitDriftModel(d=-1.0, C1=-1.0, C2=0.5, C3=0.25), [-4.0, -1.0, 0.0, 0.3, 3.0]),
    ], ids=["canyon", "barrier"])
    def test_the_full_path_follows_the_separable_solution(self, model, starts):
        (r_lo, _), (r_hi, _) = drift_equilibria(model)
        alpha = (r_lo * r_lo + model.C3) / (r_lo - r_hi)
        beta = (r_hi * r_hi + model.C3) / (r_hi - r_lo)
        verdicts = set()
        for x0 in starts:
            path = integrate_drift(model, x0, 600.0, full_path=True)
            verdicts.add(path["verdict"])
            t, r = path["t"], path["delta_r"]
            off_root = (r != r_lo) & (r != r_hi)  # where ln|r - root| is finite
            t, r = t[off_root], r[off_root]
            t_closed = -(r + alpha * np.log(np.abs(r - r_lo))
                         + beta * np.log(np.abs(r - r_hi))) / model.d
            error = np.abs(t_closed - t_closed[0] - t) * np.abs(drift_rhs(model, r))
            assert error.max() <= 1e-7, x0
        assert verdicts == {"TrappedAt", "Escaped"}


class TestThreeMode:
    def test_prescribed_field_oscillation_frequency(self):
        # undamped pair exchange at |K * A12|: fit the half-exchange period
        K = 0.8 + 0.3j
        A12 = 1.2
        state = ThreeModeState(A1=1.0, A2=0.0, A12=A12, K=K)
        w_c = abs(K * A12)
        t, A1, A2, _ = integrate_three_mode(state, mode="PrescribedField",
                                            t_max=3 * np.pi / w_c)
        # |A1(t)| = |cos(w_c t)|: first minimum at pi/(2 w_c), the only
        # one before pi/w_c (the next lies at 3 pi/(2 w_c))
        mags = np.abs(A1)
        first_min = np.argmin(mags[t < np.pi / w_c])
        t_quarter = t[first_min]
        assert abs(t_quarter - np.pi / (2 * w_c)) < 0.01 * np.pi / (2 * w_c)
        # full exchange: |A2| peaks at |A1(0)| (up to step sampling)
        assert np.max(np.abs(A2)) == pytest.approx(1.0, abs=1e-3)

    def test_manley_rowe_invariants(self):
        K = 0.5
        state = ThreeModeState(A1=1.0, A2=0.4 + 0.1j, A12=0.3 - 0.2j, K=K)
        t, A1, A2, A12 = integrate_three_mode(state, mode="Emission",
                                              t_max=100.0 / abs(K), tol=1e-12)
        inv1, inv2 = manley_rowe(A1, A2, A12)
        assert np.max(np.abs(inv1 - inv1[0])) < 1e-8 * inv1[0]
        assert np.max(np.abs(inv2 - inv2[0])) < 1e-8 * max(abs(inv2[0]), 1.0)

    def test_seeded_instability_growth_rate(self):
        K = 0.6
        mu = 0.08
        state = ThreeModeState(A1=1.0, A2=1e-6, A12=1e-6, K=K, mu2=mu)
        t, A1, A2, A12 = integrate_three_mode(state, mode="Emission", t_max=12.0)
        # fit log|A2| over a window where A1 is still undepleted
        sel = (t > 2.0) & (t < 8.0) & (np.abs(A2) < 5e-3)
        slope = np.polyfit(t[sel], np.log(np.abs(A2[sel])), 1)[0]
        nu = pair_growth_rate(K, 1.0, mu)
        assert abs(slope - nu) < 0.01 * nu

    def test_validation(self):
        with pytest.raises(ValidationError):
            integrate_three_mode(ThreeModeState(1.0, 0.0, 0.0, 1.0), mode="Nope")


class TestVarianceTransport:
    def test_equilibrium_when_equal(self):
        t = np.linspace(0.0, 5.0, 7)
        N1, N2 = evolve_variances(0.8, 0.8, 1.3, 0.0, 0.0, t)
        assert np.max(np.abs(N1 - 0.8)) < 1e-12
        assert np.max(np.abs(N2 - 0.8)) < 1e-12

    def test_equipartition_and_conservation(self):
        t = np.linspace(0.0, 40.0, 9)
        N1, N2 = evolve_variances(1.0, 0.0, 0.5, 0.0, 0.0, t)
        assert np.max(np.abs(N1 + N2 - 1.0)) < 1e-12
        assert abs(N1[-1] - 0.5) < 1e-9
        assert abs(N2[-1] - 0.5) < 1e-9

    def test_matches_numerical_integration(self):
        K, mu1, mu2 = 0.7, 0.12, 0.05
        t_end = 6.0

        def rhs(t, y):
            return np.array([
                2 * mu1 * y[0] + K * (y[1] - y[0]),
                2 * mu2 * y[1] + K * (y[0] - y[1]),
            ])

        res = integrate_ivp(rhs, [0.9, 0.2], (0.0, t_end), tol=1e-12)
        N1, N2 = evolve_variances(0.9, 0.2, K, mu1, mu2, t_end)
        assert abs(N1 - res.y_final[0]) < 1e-9
        assert abs(N2 - res.y_final[1]) < 1e-9

    @pytest.mark.parametrize("mu1, mu2", [(0.1, 0.2), (0.2, 0.1), (-0.3, 0.05)])
    def test_uncoupled_modes_grow_at_their_own_rates(self, mu1, mu2):
        # K' = 0: each variance is N(0) exp(2 mu t), whichever rate is larger
        t = np.linspace(0.0, 3.0, 7)
        N1, N2 = evolve_variances(1.0, 0.3, 0.0, mu1, mu2, t)
        np.testing.assert_allclose(N1, np.exp(2 * mu1 * t), rtol=1e-14)
        np.testing.assert_allclose(N2, 0.3 * np.exp(2 * mu2 * t), rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError, match="finite"):
            evolve_variances(1.0, 0.0, 0.1, np.nan, 0.0, 1.0)
        with pytest.raises(ValidationError):
            evolve_variances(1.0, 0.0, -0.1, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            evolve_variances(-1.0, 0.0, 0.1, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="times"):
            evolve_variances(1.0, 0.3, 0.5, 0.0, 0.0, [0.0, np.inf])
        with pytest.raises(NonFiniteState):
            evolve_variances(1.0, 0.3, 0.5, 1.0, 0.0, [0.0, 1e308])


class TestBohrCheck:
    def test_hydrogen_levels_self_consistent(self):
        # atomic units with omega0 = m c^2 / hbar: E_n = omega'_n makes the
        # residual vanish identically
        omega0 = 137.036**2
        for n in (1, 2, 3):
            E_n = -0.5 / n**2
            assert bohr_check(E_n, E_n, omega0, omega0) < 1e-14

    def test_detuned_energy(self):
        omega0 = 1.0e4
        assert bohr_check(-0.5, -0.5 * 1.1, omega0, omega0) == pytest.approx(0.1)

    def test_kepler_orbit_realizes_quantum_condition(self):
        # evaluate the orbit-side frequency on the unit circular orbit and
        # compare with omega0 + omega'_1; the mismatch is the neglected
        # relativistic order alpha^4
        alpha = 0.1
        omega0 = 1.0 / alpha**2
        u4 = np.full(1025, 1.0 / np.sqrt(1.0 - alpha**2))
        om_bar = central_frequency(u4, 2 * np.pi, omega0)
        omega_p = omega0 + (-0.5)
        resid = abs(om_bar - omega_p) / omega0
        assert resid < 1e-4
        assert resid == pytest.approx(alpha**4 / 8.0, rel=0.15)
