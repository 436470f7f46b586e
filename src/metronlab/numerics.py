"""Shared numerical kernels: adaptive ODE integration (a step loop over
SciPy's DOP853 with output sampling, a terminal stop and step counts), the
radial eigenvalue problem on a uniform grid, and the spherically symmetric
Poisson solve.

All radial work uses the substitution u(r) = r * phi(r), which turns the
spherical Laplacian into a plain second derivative and removes the 2/r
coordinate singularity.  The discrete radial operator used consistently by
solvers and residual checks is the three-point form

    L[phi]_j = (r_{j+1} phi_{j+1} - 2 r_j phi_j + r_{j-1} phi_{j-1}) / (r_j h^2),

i.e. the central second difference applied to u = r*phi, divided by r_j.

The two radial kernels call LAPACK directly, with the arguments SciPy's
`eigh_tridiagonal` and `solve_banded` wrappers would pass, so their results
are the same bits without the wrappers' checks: the eigen solve runs one
`dstebz` bisection per outer-boundary pass and one `dstein` inverse
iteration per solve, and the Poisson solve is one `dgtsv` call.  An eigen
solve given a guess (the self-consistent solvers pass the previous sweep's
omega and shape) does not bisect the whole spectrum: a few shifted `dgtsv`
solves (inverse iteration with Rayleigh-quotient shifts) seed it, its
passes bisect in a narrow value window around the seed, usually once, and
one Sturm count confirms the mode's index, so it returns the cold result
to within a few ulp; a seed that lands on another mode falls back to the
cold pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import DOP853
from scipy.linalg.lapack import dgtsv, dstebz, dstein
from scipy.optimize import brentq

from .errors import (
    EvaluationBudgetExceeded,
    LapackFailure,
    NoBracket,
    NoConvergence,
    NonDecayingSource,
    NonFiniteState,
    NotTrapped,
    StepUnderflow,
    ValidationError,
    require_finite,
    require_positive,
)

__all__ = [
    "RadialGrid",
    "RadialField",
    "radial_laplacian",
    "integrate_ivp",
    "IvpResult",
    "solve_radial_eigen",
    "solve_radial_poisson",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid including r = 0."""

    r_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 16:
            raise ValidationError("n_points must be >= 16")
        require_positive(r_max=self.r_max)
        h = float(self.spacing)  # a float product overflows to inf, ** raises
        if not np.finfo(float).tiny <= h * h < np.inf:
            raise ValidationError("grid spacing h leaves h^2 or 1/h^2 outside the float range")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    @cached_property
    def r(self) -> np.ndarray:
        """Node radii, built once per grid and shared read-only."""
        r = np.linspace(0.0, self.r_max, self.n_points)
        r.flags.writeable = False
        return r


@dataclass(frozen=True)
class RadialField:
    """Real sampled function on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValidationError("values length must equal n_points")
        require_finite(values=vals)
        object.__setattr__(self, "values", vals)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def radial_laplacian(field: RadialField) -> np.ndarray:
    """Discrete spherical Laplacian of phi on interior nodes (j = 1..N-2).

    Uses r_j = j*h with the exact integer weights j: the rounding of the
    stored radii would otherwise add noise of the same size as the ~1e-11
    roundoff residuals being measured.
    """
    j = np.arange(field.grid.n_points)
    h = field.grid.spacing
    u = j * field.values
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (j[1:-1] * h * h)


# ---------------------------------------------------------------------------
# Adaptive initial-value integration
# ---------------------------------------------------------------------------

# Derivative evaluations one integrate_ivp call may spend: about three times
# the most any reference run uses (174k, acceptance criterion 4)
_MAX_RHS_EVALS = 500_000
# Tolerances of the stop's root find on the dense output, as solve_ivp's
_STOP_TOL = 4 * np.finfo(float).eps


@dataclass
class IvpResult:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    stopped: bool = False  # the terminal stop fired before the span end
    steps: int = 0  # accepted steps
    nfev: int = 0  # derivative evaluations, dense output included

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


def integrate_ivp(field, y0, span, tol=1e-8, t_eval=None, stop=None) -> IvpResult:
    """Integrate dy/ds = field(s, y) over span with SciPy's DOP853, the
    Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, 2nd ed., 1993, II.10), at rtol = tol and
    atol = tol * 1e-3 * max(1, max|y0|).  At the tight tolerances used here
    an 8th-order pair takes several times fewer steps than a 4(5) pair.

    The run is a loop over the solver's `step()`, with the step points,
    dense output, stop root find and statuses that `solve_ivp` would give
    for the same call, bit for bit; the result also carries the accepted
    `steps` and the derivative evaluations `nfev`, dense output included.

    Accepts real or complex state vectors.  Returns the accepted step
    points, or, when t_eval is given, the states at those times from each
    step's 7th-order dense output (forward or backward in s).
    A non-finite span end or initial state, and a tol that is not finite or
    is below DOP853's floor of 100 eps, raise ValidationError.
    Raises NonFiniteState when field returns a non-finite derivative,
    StepUnderflow when the solver stops short of the span end (its step
    fell below the floating-point spacing of s), and
    EvaluationBudgetExceeded when a run asks for more than _MAX_RHS_EVALS
    derivatives (a growing solution can keep shrinking its steps without
    ever underflowing them).

    stop, an optional scalar function of (s, y), ends the run at its first
    falling zero: after each accepted step it is compared with its value
    at the step's start, and when it falls from >= 0 to <= 0 the zero is
    located by `brentq` on the step's dense output (Hairer, Norsett &
    Wanner, II.6).  The solver takes the same steps as without it up to
    that step; the last point returned is the zero itself (with t_eval,
    the last sample at or before it), and the result's `stopped` says
    whether the stop fired.
    """
    s0, s1 = float(span[0]), float(span[1])
    y = np.atleast_1d(np.asarray(y0))
    if not np.issubdtype(y.dtype, np.complexfloating):
        y = y.astype(float)
    if not 100 * np.finfo(float).eps <= tol < np.inf:  # DOP853 raises a smaller rtol to this
        raise ValidationError("tol must be finite and at least 100 eps, DOP853's floor")
    require_finite(span=[s0, s1], initial_state=y)
    if s1 == s0:
        t = np.array([s0]) if t_eval is None else np.asarray(t_eval, dtype=float)
        return IvpResult(t, np.repeat(y[None, :], len(t), axis=0))
    forward = s1 > s0
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1 or not np.all((min(s0, s1) <= t_eval) & (t_eval <= max(s0, s1))):
            raise ValidationError("t_eval must be a 1-D array of times within the span")
        d = np.diff(t_eval)
        if np.any(d <= 0) if forward else np.any(d >= 0):
            raise ValidationError("t_eval must run in the direction of the span")
        if not forward:  # ascending, for searchsorted; sampled from the top down
            t_eval = t_eval[::-1]
        next_sample = 0 if forward else len(t_eval)
    atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(y))))

    solver = None  # the budget counts from the solver's own nfev, once it is built

    def checked(s, state):
        if solver is not None and solver.nfev > _MAX_RHS_EVALS:
            raise EvaluationBudgetExceeded(
                f"{_MAX_RHS_EVALS} derivative evaluations spent by s={s:.6g} "
                f"of a span ending at {s1:.6g}")
        dy = field(s, state)
        if not np.isfinite(dy).all():
            raise NonFiniteState(f"non-finite derivative at s={s:.6g}")
        return dy

    if t_eval is None:
        ts, ys = [s0], [y]
    else:  # empty heads, so a run with no samples stacks to empty arrays
        ts, ys = [t_eval[:0]], [np.empty((y.size, 0), dtype=y.dtype)]
    reached = s0  # the last output time
    steps = 0
    stopped = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solver = DOP853(checked, s0, y, s1, rtol=tol, atol=atol)
        g = None if stop is None else stop(s0, y)
        while not stopped and solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise StepUnderflow(f"{message} (last output at s={reached:.6g})")
            steps += 1
            t, y, dense = solver.t, solver.y, None
            if stop is not None:
                g_new = stop(t, y)
                if g >= 0 and g_new <= 0:
                    dense = solver.dense_output()
                    t = brentq(lambda s: stop(s, dense(s)), solver.t_old, t,
                               xtol=_STOP_TOL, rtol=_STOP_TOL)
                    y = dense(t)
                    stopped = True
                g = g_new
            if t_eval is None:
                ts.append(t)
                ys.append(y)
                reached = t
                continue
            # the samples up to t, a sample equal to t included
            if forward:
                end = np.searchsorted(t_eval, t, side="right")
                batch = t_eval[next_sample:end]
            else:
                end = np.searchsorted(t_eval, t, side="left")
                batch = t_eval[end:next_sample][::-1]
            if batch.size:
                if dense is None:
                    dense = solver.dense_output()
                ts.append(batch)
                ys.append(dense(batch))
                next_sample = end
                reached = batch[-1]
    counts = {"stopped": stopped, "steps": steps, "nfev": solver.nfev}
    if t_eval is None:
        return IvpResult(np.array(ts), np.vstack(ys), **counts)
    return IvpResult(np.hstack(ts), np.hstack(ys).T, **counts)


# ---------------------------------------------------------------------------
# Radial eigenvalue problem
# ---------------------------------------------------------------------------

# Fixed-point passes allowed for the WKB outer boundary; the eigenvalue
# depends only weakly on |kappa(R)|, so the iteration settles in 2-3.
_ROBIN_PASSES = 8
# LAPACK stebz reaches full relative accuracy in each eigenvalue when its
# absolute tolerance is twice the underflow threshold (the default,
# eps * ||T||, would leave ~1e-12 absolute error on fine grids)
_STEBZ_ABSTOL = 2.0 * np.finfo(float).tiny
# Relative half-width of the value window in which each pass of a warm start
# tracks its seed's or the previous pass's eigenvalue (one Robin update old)
_WARM_WINDOW = 1e-10
# An absolute tolerance wider than any interval: stebz then returns the count
# of eigenvalues in (vl, vu], from a Sturm count at each end, without bisecting
_COUNT_ABSTOL = np.finfo(float).max
# Shifted solves a warm seed may take, and the relative change of its
# Rayleigh quotient at which it stops, well inside _WARM_WINDOW
_SEED_SOLVES, _SEED_TOL = 6, 1e-7
# Largest matrix entry (2/h^2 + V, or 1/h^2) the LAPACK calls take.  stebz
# squares the entries to find where the matrix splits: from sqrt(max) =
# 1.3e154 on it splits it into wrong 1x1 blocks, then fails (info=4).  stein's
# inverse iteration overflows to NaN (with info=0) from about 1e145 at 16001
# points to 1e149 at 16, as measured on the scaled reference well.
_EIGEN_ENTRY_MAX = 1e140


def _shifted_seed(diag, off, d_last, h2, robin_tail, lam, x):
    """omega^2 of the eigenvector nearest lam, by inverse iteration from x
    with Rayleigh-quotient shifts (Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 4): each `dgtsv` solve of (T - shift) y = x, the
    first at lam, takes the Robin tail of its shift, and the next shift is
    the Rayleigh quotient of y.  The quotient is formed in difference form,
    (sum s_i y_i^2 + sum (y_{i+1} - y_i)^2 / h^2) / sum y_i^2 with s the row
    sums of T, since y^T T y would cancel ||T|| ~ 4/h^2 against omega^2.
    Returns the last shift, which the caller checks, and the last y's
    y_last^2 / sum y_i^2: d omega^2 / d T_last to first order."""
    s = diag - 2.0 / h2  # the row sums; the interior ones are exact (Sterbenz)
    s[0] += 1.0 / h2
    for _ in range(_SEED_SOLVES):
        last = d_last - robin_tail(lam) / h2  # T's last entry under this shift's tail
        shifted = diag - lam
        shifted[-1] = last - lam
        *_, y, info = dgtsv(off, shifted, off, x, 0, 1, 0, 0)
        scale = np.max(np.abs(y))
        if info or not 0.0 < scale < np.inf:
            break
        x = y / scale
        s[-1] = last - 1.0 / h2
        dx = np.diff(x)
        shift, lam = lam, (s @ (x * x) + (dx @ dx) / h2) / (x @ x)
        if abs(lam - shift) <= _SEED_TOL * abs(lam):
            break
    return lam, x[-1] * x[-1] / (x @ x)


def _count_nodes_floor(u):
    """Node count of a converged (decaying) solution, ignoring values below
    1e-8 * max|u| so that roundoff wiggle in the evanescent tail is not
    mistaken for structure."""
    x = u[1:]
    keep = np.abs(x) > 1e-8 * np.max(np.abs(x))
    s = np.sign(x[keep])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def solve_radial_eigen(V, node_count, grid, guess=None):
    """Find the radial eigenfrequency with a prescribed interior node count.

    Solves [laplacian + kappa^2] phi = 0 with kappa^2 = omega^2 - V(r), V
    sampled on the grid.  For u = r*phi the three-point operator is the
    symmetric tridiagonal eigenproblem (-D2 + V) u = omega^2 u on nodes
    1..N-2 with u_0 = 0, and mode m is its (m+1)-th eigenvalue.  The outer
    boundary is the local WKB decay condition u'/u = 1/R - |kappa(R)|, i.e.
    u_{N-2} = u_{N-1} (1 + h|kappa(R)| - h/R), a Robin term in the last
    diagonal entry; |kappa(R)| depends on omega, so the eigenvalue is
    recomputed until omega^2 is stationary to 1e-14.  Each pass is one
    LAPACK `dstebz` bisection for that eigenvalue alone; the eigenvector is
    one `dstein` inverse iteration on the converged pass, computed only once
    the eigenvalue has passed the window checks.

    Without a guess the passes start from a Dirichlet tail and each bisects
    for eigenvalue m+1 by index over the whole spectrum.  A guess (an earlier
    omega of the same mode, e.g. the previous sweep's, or the (omega,
    RadialField) pair an earlier solve on this grid returned) seeds them
    instead: inverse iteration with Rayleigh-quotient shifts, from guess^2
    and the earlier shape (or a flat vector), each shift with its own Robin
    tail (`_shifted_seed`, a few `dgtsv` solves), finds the nearby
    eigenvalue.  Every pass then bisects in a window of relative half-width
    `_WARM_WINDOW` around the seed's or the previous pass's eigenvalue, so
    the value returned is still a bisection result.  On the first pass one
    count-only `dstebz` call confirms that node_count eigenvalues lie below
    the window; a wrong count (the seed found another mode, so a guess of
    another mode cannot steer the solve) or a window that does not hold
    exactly one eigenvalue falls back to bisection by index over the whole
    spectrum, for that pass.  Until such a fallback the seed's vector also
    gives d omega^2 / d(last entry), and the passes stop once the next one
    would move omega^2 by less than an ulp to first order: after the first
    pass, for the deep tail of a bound mode.
    Both starts reach the same fixed point to within a few ulp.

    A bound mode lies in the window 0 < omega^2 < V(R), below the continuum
    edge; the window's top is sqrt(V(R)) * (1 - 1e-9).  A V(R) that is not
    above 0, or not finite (as where a sweep's field has blown up), raises
    NotTrapped (the well reaches the box edge), omega^2 <= 0 raises
    NoBracket (well too deep), and omega at or above the top NotTrapped
    (mode not bound), as do `_ROBIN_PASSES` passes whose last two lie on
    opposite sides of the top; passes that run out otherwise raise
    NoConvergence.  A non-finite V elsewhere or guess and a node_count
    outside [0, n_points - 3] raise ValidationError, as does a matrix entry
    (2/h^2 + V or 1/h^2) of `_EIGEN_ENTRY_MAX` or more, where the LAPACK
    calls overflow; a LAPACK failure raises LapackFailure (a LinAlgError).
    Returns (omega, RadialField), normalized to max|phi| = 1, phi(0) > 0.
    """
    shape = None
    if isinstance(guess, tuple):
        guess, shape = guess
    V = np.asarray(V, dtype=float)
    if V.shape != (grid.n_points,):
        raise ValidationError("potential length must equal n_points")
    # the guess enters squared; a float product overflows to inf where ** raises
    require_finite(potential=V[:-1],
                   guess_squared=0.0 if guess is None else float(guess) * float(guess))
    if not 0.0 < V[-1] < np.inf:
        raise NotTrapped("the well reaches the box edge, or V(R) is not finite: no bound mode")
    hi = float(np.sqrt(V[-1])) * (1 - 1e-9)
    if not 0 <= node_count < grid.n_points - 2:
        raise ValidationError("node_count must lie in [0, n_points - 3]")
    if np.all(hi * hi - V <= 0.0):
        raise NotTrapped("kappa^2 <= 0 everywhere: no classically allowed region")

    r = grid.r
    h = grid.spacing
    h2 = h * h
    diag = 2.0 / h2 + V[1:-1]
    if not max(float(np.abs(diag).max()), 1.0 / h2) < _EIGEN_ENTRY_MAX:
        raise ValidationError(f"an eigen matrix entry (2/h^2 + V or 1/h^2) reaches "
                              f"{_EIGEN_ENTRY_MAX:g}, past which LAPACK's bisection and "
                              "inverse iteration overflow: the grid is too fine, or V too large")
    off = np.full(grid.n_points - 3, -1.0 / h2)
    d_last = diag[-1]
    index = node_count + 1  # LAPACK counts eigenvalues from 1
    warm = guess is not None

    def robin_tail(lam):  # u_{N-1} / u_{N-2} under the WKB condition
        kr = np.sqrt(max(V[-1] - lam, 0.0))
        return 1.0 / (1.0 + h * kr - h / grid.r_max)

    lam_prev = weight = None
    if warm:
        x = np.ones(diag.size) if shape is None else r[1:-1] * shape.values[1:-1]
        lam_prev, weight = _shifted_seed(diag, off, d_last, h2, robin_tail,
                                         float(guess) ** 2, x)
    tail = robin_tail(lam_prev) if warm else 0.0  # 0 is the Dirichlet start
    for k in range(_ROBIN_PASSES):
        diag[-1] = d_last - tail / h2
        m = info = 0
        if warm:
            # range 'V' (1) bisects the eigenvalues in (vl, vu] alone
            width = _WARM_WINDOW * abs(lam_prev)
            m, w, iblock, isplit, info = dstebz(diag, off, 1, lam_prev - width,
                                                lam_prev + width, 0, 0, _STEBZ_ABSTOL, "B")
            if not (k or info) and m == 1:
                # the seed's eigenvalue must be the mode's: node_count of them
                # from below every Gershgorin disc (radius 2/h^2) to the window
                below, _, _, _, info = dstebz(diag, off, 1, diag.min() - 3.0 / h2,
                                              lam_prev - width, 0, 0, _COUNT_ABSTOL, "B")
                if below != node_count:
                    m = 0  # another mode's: bisect by index instead
        if info or m != 1:
            weight = None  # the seed's vector may be another eigenvalue's
            # range 'I' (2) picks eigenvalue `index` alone; vl, vu are unused;
            # block order 'B' is what dstein expects
            m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, index, index,
                                                _STEBZ_ABSTOL, "B")
        if info:
            raise LapackFailure(f"dstebz failed (info={info})")
        lam = float(w[0])
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-14 * abs(lam):
            break
        if weight is not None and lam < V[-1]:
            # the next pass moves the last entry by (tail(lam) - tail) / h^2, so
            # omega^2 by weight * tail'(lam) / h^2 * |lam - lam_prev| to first
            # order, with tail' = tail^2 h / (2 kappa(R)): below an ulp, it is done
            t = robin_tail(lam)
            next_change = weight * t * t / (2.0 * h * np.sqrt(V[-1] - lam)) * abs(lam - lam_prev)
            if next_change <= 1e-16 * abs(lam):
                break
        lam_before, lam_prev = lam_prev, lam  # the last two passes
        tail = robin_tail(lam)
    else:
        # passes that alternate across the continuum edge, each one's Robin
        # tail sending the next to the other side: the mode is not bound
        if (lam_before < hi * hi) != (lam < hi * hi):
            raise NotTrapped(f"mode {node_count} cycles across the continuum edge "
                             f"(omega^2 {lam_before:.6g}, then {lam:.6g}): not bound")
        raise NoConvergence(
            f"outer boundary fixed point not reached in {_ROBIN_PASSES} passes"
        )
    if not lam > 0.0:
        raise NoBracket(f"mode {node_count} has omega^2 <= 0 (well too deep)")
    omega = float(np.sqrt(lam))
    if omega >= hi:
        raise NotTrapped(f"mode {node_count} lies at or above the continuum edge (not bound)")
    vec, info = dstein(diag, off, w[:m], iblock, isplit)
    if info:
        raise LapackFailure(f"dstein failed (info={info})")

    u = np.empty(grid.n_points)
    u[0] = 0.0
    u[1:-1] = vec[:, 0]
    u[-1] = tail * u[-2]
    if u[1] < 0.0:
        u = -u
    phi = np.empty(grid.n_points)
    phi[1:] = u[1:] / r[1:]
    phi[0] = u[1] / h / (1.0 - (lam - V[0]) * h2 / 6.0)
    phi /= np.max(np.abs(phi))
    if _count_nodes_floor(r * phi) != node_count:
        raise NotTrapped("converged solution has the wrong node count")
    if abs(phi[-1]) > 1e-3:
        raise NotTrapped(
            f"tail magnitude {abs(phi[-1]):.2e} exceeds 1e-3 of the peak"
        )
    return omega, RadialField(grid, phi)


# ---------------------------------------------------------------------------
# Spherically symmetric Poisson solve
# ---------------------------------------------------------------------------

def solve_radial_poisson(source: RadialField) -> RadialField:
    """Solve laplacian(phi0) = -source with phi0 -> 0 as r -> infinity.

    One LAPACK `dgtsv` tridiagonal solve for u = r*phi0 with u(0)=0 and
    u'(r_max)=0 (the exterior solution is u = const, i.e. the Coulomb
    tail).  The returned field satisfies the discrete operator identity
    exactly on interior nodes.
    """
    grid = source.grid
    s = source.values
    smax = np.max(np.abs(s))
    if smax == 0.0:
        return RadialField(grid, np.zeros(grid.n_points))
    if np.max(np.abs(s[-5:])) > 1e-6 * smax:
        raise NonDecayingSource(
            "source tail exceeds 1e-6 of its maximum; 1/r matching invalid"
        )
    n = grid.n_points
    h = grid.spacing
    r = grid.r
    # tridiagonal -u'' = r*s on j=1..n-2 for the unknowns u_1..u_{n-1},
    # u_0 = 0, closed by the last row u_{n-1} - u_{n-2} = 0
    diag = np.full(n - 1, 2.0)
    diag[-1] = 1.0
    b = h * h * r[1:] * s[1:]
    b[-1] = 0.0
    # every array is a temporary, so LAPACK may overwrite them all
    *_, x, info = dgtsv(np.full(n - 2, -1.0), diag, np.full(n - 2, -1.0), b, 1, 1, 1, 1)
    if info:
        raise LapackFailure(f"dgtsv failed (info={info})")
    u = np.concatenate(([0.0], x))
    phi = np.empty(n)
    phi[1:] = u[1:] / r[1:]
    phi[0] = phi[1] + s[0] * h * h / 6.0
    return RadialField(grid, phi)
