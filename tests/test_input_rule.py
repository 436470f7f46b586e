"""Property test of the input rule over library constructors and entry points:
each call returns (a formula may carry a NaN through), or raises a
MetronLabError, never another exception.  The suite's error::RuntimeWarning
filter turns a floating-point warning into a failure, so no call warns.

Every number is drawn from the edges of the float range (NaN, +-inf, 0,
+-1e300, +-1e-300 and the subnormal 1e-320), from one value that reaches
the computation, or from [-10, 10].  Grids hold 101 points and solvers take
at most 3 sweeps, so no call runs long.  The command lines at the end each
once exited 1 with a traceback or printed a RuntimeWarning.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metronlab import algebra, bragg, greens, numerics, orbits, trapped_modes
from metronlab.cli import run
from metronlab.errors import MetronLabError, ValidationError

EDGES = [math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300, 1e-300, -1e-300, 1e-320]


def num(typical=1.0):
    """An edge of the float range, the typical value, or a small real."""
    return st.one_of(st.sampled_from(EDGES), st.just(typical), st.floats(-10.0, 10.0))


def cplx(typical=1.0):
    return st.builds(complex, num(typical), num(0.0))


SMALL_GRID = numerics.RadialGrid(30.0, 101)


def _eigen(d):
    V = 1.0 - np.exp(-((SMALL_GRID.r / 5.0) ** 2))
    V[d(st.sampled_from([0, 50, -1]))] = d(num(1.0))
    return numerics.solve_radial_eigen(V, 0, SMALL_GRID, d(st.one_of(st.none(), num(0.5))))


def _field(d):
    values = np.ones(SMALL_GRID.n_points)
    values[d(st.sampled_from([0, 50, -1]))] = d(num())
    return numerics.RadialField(SMALL_GRID, values)


def _ivp(d):
    return numerics.integrate_ivp(lambda s, y: 0.0 * y, [d(num()), d(num())],
                                  (d(num(0.0)), d(num())), tol=d(num(1e-8)))


def _single_mode(d):
    params = trapped_modes.SingleModeParams(
        omega_hat=d(num()), epsilon=d(num()), r0=d(num(5.0)), tol=d(num(1e-9)),
        max_iters=d(st.integers(-1, 3)))
    r_max = d(st.one_of(st.none(), num(30.0)))
    grid = None if r_max is None else numerics.RadialGrid(r_max, 101)
    return trapped_modes.iterate_single_mode(params, grid)


def _multimode(d):
    spec = trapped_modes.MultiModeSpec(modes=[(1.0, 1, 0), (d(num()), 1, 0)],
                                       couplings=[[1.0, d(num())]],
                                       scale_radii=(5.0, d(num(5.0))))
    return trapped_modes.solve_multimode(spec, max_iters=d(st.integers(-1, 3)),
                                         tol=d(num(1e-9)), grid=SMALL_GRID)


def _fifth_order(d):
    return trapped_modes.solve_fifth_order(
        d(num()), d(num()), d(num()), d(num()), d(num(5.0)), tol=d(num(1e-9)),
        max_iters=d(st.integers(-1, 3)), grid=numerics.RadialGrid(40.0, 101))


def _lattice(d):
    lattice = bragg.LatticeSpec(
        fundamental_wavenumbers=(bragg.FourVector(d(num(0.6)), 0, 0, 0),
                                 bragg.FourVector(0, d(num(0.6)), 0, 0)),
        dimensionality=d(st.sampled_from([2, 3])), max_order=d(st.integers(-1, 2)))
    k_i = [d(num(0.2)), 0.0, d(num(1.1)), d(num(1.5))]
    return bragg.bragg_scatter_set(k_i, lattice, d(num()))


def _bragg_state(d):
    state = bragg.BraggTrapState(E=d(num(0.5)), deltaS=d(num(0.0)), gamma=d(num()),
                                 phi=d(num(0.3)), omega0=d(num()))
    return bragg.classify_trapping(state)


def _drift(d):
    model = orbits.OrbitDriftModel(d(num()), d(num(-1.0)), d(num(0.5)), d(num(0.25)))
    return orbits.drift_equilibria(model), orbits.drift_rhs(model, d(num()))


def _drift_primitives(d):
    model = orbits.OrbitDriftModel.from_primitives(d(num()), d(cplx()), d(cplx()), d(num()),
                                                   d(num()))
    return orbits.drift_equilibria(model)


def _three_mode(d):
    return orbits.ThreeModeState(A1=d(cplx()), A2=d(cplx(0.4)), A12=d(cplx(0.3)),
                                 K=d(cplx(0.5)), mu1=d(num(0.0)), mu2=d(num(0.0)),
                                 gamma_f=d(num(0.0)), beta_dr=d(num(0.0)))


def _mode_response(d):
    t = np.linspace(0.0, 1.0, 9)
    lines = orbits.forcing_spectrum(np.ones(9), 2.0 * t, 1.0).lines
    return orbits.mode_response(lines, d(num()), d(num(0.1)), d(num()),
                                d(st.sampled_from(["stationary", "nonstationary", "damped"])))


def _variances(d):
    return orbits.evolve_variances(d(num()), d(num(0.0)), d(num(0.5)), d(num(0.0)),
                                   d(num(0.0)), [0.0, d(num())])


def _pair_growth(d):
    return orbits.pair_growth_rate(d(cplx()), d(cplx()), d(num()))


def _formulas(d):
    """Elementwise formulas, which may carry a NaN through but never warn."""
    return (orbits.manley_rowe(np.array([d(cplx())]), np.array([d(cplx())]),
                               np.array([d(cplx())])),
            algebra.mass_ratio(d(num()), d(num()), d(num(0.0))))


def _momentum_exchange(d):
    span = (-d(num(6.0)), d(num(6.0)))
    a = greens.WorldLine.static_point([0.0, 0.0, 0.0], span, 9)
    b = greens.WorldLine.from_velocity([d(num(4.0)), 0.0, 0.0], [0.0, d(num(0.3)), 0.0],
                                       span, 9)
    return greens.momentum_exchange(a, b, d(num(0.4)),
                                    d(st.sampled_from(list(greens.KERNEL_KINDS))))


def _freewave(d):
    dispersion = greens.DispersionParams(d(num()), d(num(60.0)))
    return greens.freewave_growth(lambda q, w: np.exp(-q * q), d(num()), [d(num()), 0, 0],
                                  [d(num()), 0, 0], d(num()), dispersion)


def _polarization(d):
    build = d(st.sampled_from([algebra.minimal_noneuclidean, algebra.minimal_euclidean,
                               algebra.extended_euclidean, algebra.color_noneuclidean,
                               algebra.color_euclidean]))
    return algebra.spinor_metric(build(d(num())), check=False)


def _quark_star(d):
    return algebra.quark_star(d(num()), d(num(0.0)))


def _calibrate(d):
    return algebra.calibrate_constants(d(num(2.0)), d(num(0.7)), d(num(0.3)), d(num(1.4)),
                                       d(num(2.2)))


def _scale_ratio(d):
    return algebra.scale_ratio(d(num(2.4e-43)))


def _bohr(d):
    return orbits.bohr_check(d(num(-0.5)), d(num(-0.55)), d(num()), d(num()))


CALLS = {f.__name__.lstrip("_"): f for f in (
    _eigen, _field, _ivp, _single_mode, _multimode, _fifth_order, _lattice, _bragg_state,
    _drift, _drift_primitives, _three_mode, _mode_response, _variances, _pair_growth, _formulas,
    _momentum_exchange, _freewave, _polarization, _quark_star, _calibrate, _scale_ratio,
    _bohr)}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_returns_or_raises_a_metronlab_error(name, data):
    try:
        CALLS[name](data.draw)
    except MetronLabError:
        pass


@pytest.mark.parametrize("call", [
    lambda: numerics.RadialGrid(1e300, 2001),
    lambda: orbits.OrbitDriftModel(1.0, 1e200, 1.0, 0.0),
    lambda: orbits.OrbitDriftModel.from_primitives(1.0, 1.0, 1.0, 1.0, 1e200),
    lambda: algebra.quark_star(1e200),
    lambda: algebra.quark_star(math.inf),
    lambda: orbits.ThreeModeState(A1=1e200, A2=0, A12=0, K=1),
    lambda: trapped_modes.SingleModeParams(omega_hat=1.0, epsilon=1e-320),
    lambda: trapped_modes.solve_fifth_order(1e200, 1.0, 1.0, 1.0, 5.0),
    lambda: numerics.integrate_ivp(lambda s, y: -y, [1.0], (0.0, 1.0), tol=math.nan),
    lambda: algebra.scale_ratio(math.nan),
    lambda: algebra.scale_ratio(math.inf),
    lambda: trapped_modes.SingleModeParams(omega_hat=1.0, epsilon=1.0, max_iters=0),
    lambda: trapped_modes.solve_multimode(trapped_modes.MultiModeSpec(
        modes=[(1.0, 1, 0)], couplings=[[1.0]], scale_radii=(5.0,)), max_iters=0),
    lambda: trapped_modes.solve_fifth_order(1.0, 1.0, 1.0, 1.0, 5.0, max_iters=-1),
    lambda: orbits.bohr_check(0.0, 1.0, 1.0, 1.0),
    lambda: orbits.bohr_check(1.0, 1.0, 1.0, 0.0),
    lambda: orbits.bohr_check(1.0, math.nan, 1.0, 1.0),
], ids=["grid-1e300", "drift-c1-1e200", "drift-mu-1e200", "star-1e200", "star-inf",
        "threemode-a1-1e200", "eps-1e-320", "fifth-1e200", "ivp-tol-nan", "scale-nan",
        "scale-inf", "single-max-iters-0", "multimode-max-iters-0", "fifth-max-iters-neg",
        "bohr-omega-0", "bohr-m-0", "bohr-energy-nan"])
def test_inputs_out_of_range_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


def test_pair_growth_rate_of_a_huge_damping_is_finite():
    # (mu/2)^2 overflows, but the rate itself is about |K A1|^2 / mu
    rate = orbits.pair_growth_rate(1.0, 1.0, 1e200)
    assert 0.0 <= rate < 1e-199


def test_nan_potential_inside_the_box_is_validation_error():
    V = np.full(SMALL_GRID.n_points, -1.0)
    V[50] = np.nan
    with pytest.raises(ValidationError, match="potential"):
        numerics.solve_radial_eigen(V, 0, SMALL_GRID)


@pytest.mark.parametrize("argv, code", [
    (["metron-solve", "--omega-hat", "1e200"], 2),
    (["metron-solve", "--r0", "1e200"], 2),
    (["metron-solve", "--eps", "1e-320"], 2),
    (["metron-solve", "--eps", "1e-300"], 2),  # the fields, scaled by 1/eps, overflow
    (["metron-solve", "--max-iters", "0"], 2),
    (["orbit-drift", "--c1", "1e200", "--c2", "1", "--c3", "0", "--delta-r0", "1"], 2),
    (["orbit-drift", "--c1", "-1", "--c2", "0.5", "--c3", "0.25", "--delta-r0", "1e200"], 0),
    (["orbit-threemode", "--a1", "1e200"], 2),
    # kappa^2 ~ omega_hat^2 = 9e302, whose products overflow
    (["metron-solve", "--omega-hat", "3e151", "--r0", "1.6666e-151", "--r-max", "1e-150"], 0),
    # the unit grid's 2/h^2 ~ 9e303 overflows the eigen bisection (once exit 3)
    (["metron-solve", "--omega-hat", "1e-150"], 2),
])
def test_cli_exits_with_one_error_line_or_an_empty_stderr(tmp_path, capsys, argv, code):
    rc = run(argv + ["--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.splitlines()) == (0 if code == 0 else 1), err
