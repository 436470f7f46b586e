"""Property test of the CLI contract over generated argv: every run of every
subcommand exits 0, 2 or 3, and a failing run prints exactly one `error:`
line and no traceback.

Values are finite, non-finite, negative or junk. Sizes that set a run's cost
are capped (always passed, so no uncapped default runs): --n-points <= 101,
--max-iters <= 5, --samples <= 500, --max-order <= 3, --t-max and --s-max <=
20, and list values at most 4 entries with |r|, |t| <= 50. The greens-conserve
--separation and --span reach +-1e300, where squared separations overflow:
its cost depends on --samples alone, and its --sigma is mostly positive and
its --speed within +-1, so most runs reach the kernel. The bragg-lattice
vectors now and then reach +-1e308, where harmonics and their squares
overflow: its cost depends on --max-order alone. The metron-solve and
metron-rescale --omega-hat, --eps, --r0 and --r-max now and then reach the
float range's edges, 1e300 and 1e-320: their cost is capped by --n-points
and --max-iters. Other reals stay within +-10, so no stiff or
fast-oscillating trajectory makes a run long.
The three-mode amplitudes and coupling stay within +-3, its damping rates
within +-0.1 and its forcing within +-0.5: a negative rate, or a positive
one run to a negative --t-max, grows the amplitudes as exp(|mu t|), the
forcing grows them linearly, and the exchange frequency |K A| grows with
them; at |mu t| = 40, or at a forcing of 10 with a growing mode, a run does
not end in minutes.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metronlab import algebra, greens
from metronlab.cli import build_parser, run

JUNK = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "", "1,2", "0,nan", "0x10",
                        "--"])


def real(bound=10.0, lo=None):
    return st.floats(-bound if lo is None else lo, bound).map(repr)


# mostly positive, for parameters that must be positive to reach the library
POSITIVE = real(lo=-1.0)


def or_edge(strategy):
    """strategy, or about one time in four an edge of the float range."""
    edge = st.sampled_from(["1e300", "1e-320"])
    return st.integers(0, 3).flatmap(lambda i: edge if i == 0 else strategy)


def integer(lo, hi):
    return st.integers(lo, hi).map(str)


def values(bound, n):
    """Comma lists and start:stop:count ranges of at most n entries."""
    return st.one_of(
        st.lists(real(bound), min_size=1, max_size=n).map(",".join),
        st.tuples(st.floats(-bound, bound), st.floats(-bound, bound),
                  st.integers(-1, n)).map(lambda v: f"{v[0]!r}:{v[1]!r}:{v[2]}"),
    )


def vector(n):
    """n comma-separated numbers, or now and then one too few or too many; now
    and then the components reach +-1e308, where harmonics and their squares
    overflow."""
    return st.one_of(st.lists(real(), min_size=n, max_size=n),
                     st.lists(real(1e308), min_size=n, max_size=n),
                     st.lists(real(), min_size=n - 1, max_size=n + 1)).map(",".join)


def cplx():
    f = st.floats(-3.0, 3.0)
    return st.one_of(f.map(repr), st.tuples(f, f).map(lambda v: f"{v[0]}{v[1]:+}j"))


# flag -> (strategy, always passed); only the capped flags are always passed
_SOLVE = {
    "--omega-hat": (or_edge(POSITIVE), False),
    "--eps": (or_edge(real()), False),
    "--mode": (st.one_of(integer(-2, 3), st.just("3000")), False),
    "--r0": (or_edge(POSITIVE), False),
    "--max-iters": (integer(-1, 5), True),
    "--tol": (POSITIVE, False),
    "--r-max": (or_edge(POSITIVE), False),
    "--n-points": (integer(-5, 101), True),
}

SPECS = {
    "metron-solve": _SOLVE,
    "metron-rescale": {**_SOLVE, "--lam": (values(10.0, 4), False)},
    "bragg-classify": {
        "--E0": (real(), False), "--gamma": (real(), False), "--phi": (real(), False),
        "--omega0": (real(), False), "--s-max": (real(20.0), True),
    },
    "bragg-sweep": {
        "--ratio": (values(10.0, 4), False), "--phi": (values(10.0, 4), False),
        "--gamma": (real(), False), "--omega0": (real(), False),
    },
    "bragg-lattice": {
        "--ki": (vector(4), False), "--fundamental": (vector(3), False),
        "--dimensionality": (integer(1, 4), False),
        "--normal-axis": (integer(-1, 4), False),
        "--max-order": (integer(-1, 3), True), "--omega0": (real(), False),
    },
    "orbit-drift": {
        "--c1": (real(), False), "--c2": (real(), False), "--c3": (real(), False),
        "--d": (real(), False), "--delta-r0": (real(), False),
        "--t-max": (real(20.0), True),
    },
    "orbit-threemode": {
        "--a1": (cplx(), False), "--a2": (cplx(), False), "--a12": (cplx(), False),
        "--k": (cplx(), False), "--mu1": (real(0.1), False), "--mu2": (real(0.1), False),
        "--gamma-f": (real(0.5), False), "--beta-dr": (real(), False),
        "--evolution": (st.sampled_from(["Emission", "PrescribedField"]), False),
        "--t-max": (real(20.0), True), "--samples": (integer(-2, 500), True),
    },
    "orbit-variance": {
        "--n1": (real(), False), "--n2": (real(), False), "--kprime": (real(), False),
        "--mu1": (real(), False), "--mu2": (real(), False),
        "--t-max": (real(20.0), True), "--samples": (integer(-2, 500), True),
    },
    "greens-eval": {
        "--r": (values(50.0, 4), False), "--t": (values(50.0, 4), False),
        "--omega-hat": (POSITIVE, False), "--k-max": (POSITIVE, False),
        "--kind": (st.sampled_from(list(greens.KERNEL_KINDS)), False),
        "--method": (st.sampled_from(["quadrature", "stationary", "lightcone"]), False),
    },
    "greens-conserve": {
        "--kind": (st.sampled_from(list(greens.KERNEL_KINDS)), False),
        "--sigma": (POSITIVE, False),
        "--separation": (real(1e300), False), "--speed": (real(1.0), False),
        "--span": (real(1e300), False), "--samples": (integer(-2, 500), True),
    },
    "algebra-check": {
        "--suite": (st.lists(st.sampled_from(algebra.SUITES), max_size=3).map(",".join), False),
    },
    "calibrate": {
        "--a-sq": (real(), False), "--beta": (real(), False), "--m-core": (real(), False),
        "--k5": (real(), False), "--gprime": (real(), False),
    },
}


@st.composite
def argv_for(draw, command):
    spec = SPECS[command]
    n = len(spec)
    argv = [command]
    for flag, (strategy, always) in spec.items():
        # About one flag per run is left out (reaching the missing-argument
        # error) and about one gets a junk value, so most runs reach the
        # library.  The middle of the range marks them, as the ends are
        # drawn more often.
        if always or draw(st.integers(0, 2 * n)) != n:
            junk = draw(st.integers(0, 2 * n)) == n
            argv.append(f"{flag}={draw(JUNK if junk else strategy)}")
    return argv


def test_specs_cover_every_subcommand():
    assert set(SPECS) == set(build_parser()[1])


@pytest.mark.parametrize("command", sorted(SPECS))
@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_contract(tmp_path_factory, command, data):
    argv = data.draw(argv_for(command), label="argv")
    out_dir = tmp_path_factory.mktemp(command)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = run(argv + ["--output-dir", str(out_dir)])
    err = stderr.getvalue()
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
