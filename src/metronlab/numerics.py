"""Shared numerical kernels: adaptive ODE integration (a thin wrapper over
SciPy's DOP853), the radial eigenvalue problem on a uniform grid, and the
spherically symmetric Poisson solve.

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
solve given a guess of its omega (the self-consistent solvers pass the
previous sweep's) starts its outer-boundary passes there and bisects only a
narrow value window around it; it checks the mode it found and falls back
to the cold start, so it returns the cold result to within a few ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgtsv, dstebz, dstein

from .errors import (
    LapackFailure,
    NoBracket,
    NoConvergence,
    NonDecayingSource,
    NonFiniteState,
    NotTrapped,
    StepUnderflow,
    ValidationError,
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
        if not (self.r_max > 0 and np.isfinite(self.r_max)):
            raise ValidationError("r_max must be positive and finite")
        if not self.spacing ** 2 >= np.finfo(float).tiny:
            raise ValidationError("grid spacing too small: 1/h^2 overflows")

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
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def r(self) -> np.ndarray:
        return self.grid.r

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

@dataclass
class IvpResult:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


def integrate_ivp(field, y0, span, tol=1e-8, t_eval=None) -> IvpResult:
    """Integrate dy/ds = field(s, y) over span with SciPy's DOP853, the
    Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, 2nd ed., 1993, II.10), at rtol = tol and
    atol = tol * 1e-3 * max(1, max|y0|).  At the tight tolerances used here
    an 8th-order pair takes several times fewer steps than a 4(5) pair.

    Accepts real or complex state vectors.  Returns the accepted step
    points, or, when t_eval is given, the states at those times from the
    solver's 7th-order dense output.
    A non-finite span end or initial state raises ValidationError.
    Raises NonFiniteState when field returns a non-finite derivative and
    StepUnderflow when the solver stops short of the span end (its step
    fell below the floating-point spacing of s).
    """
    s0, s1 = float(span[0]), float(span[1])
    y = np.atleast_1d(np.asarray(y0))
    if not np.issubdtype(y.dtype, np.complexfloating):
        y = y.astype(float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (np.isfinite([s0, s1]).all() and np.isfinite(y).all()):
        raise ValidationError("span and initial state must be finite")
    if s1 == s0:
        t = np.array([s0]) if t_eval is None else np.asarray(t_eval, dtype=float)
        return IvpResult(t, np.repeat(y[None, :], len(t), axis=0))
    atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(y))))

    def checked(s, state):
        dy = field(s, state)
        if not np.isfinite(dy).all():
            raise NonFiniteState(f"non-finite derivative at s={s:.6g}")
        return dy

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sol = solve_ivp(checked, (s0, s1), y, method="DOP853", t_eval=t_eval,
                        rtol=tol, atol=atol)
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else s0
        raise StepUnderflow(f"{sol.message} (last output at s={reached:.6g})")
    return IvpResult(sol.t, sol.y.T)


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
# Relative half-widths of the value window a warm-started pass bisects,
# around the previous eigenvalue: the first pass (from the caller's guess,
# one sweep old) and each confirming pass (one Robin update old)
_WARM_WINDOWS = (1e-3, 1e-10)


def _count_nodes_floor(u, rel=1e-8):
    """Node count of a converged (decaying) solution, ignoring values below
    rel * max|u| so that roundoff wiggle in the evanescent tail is not
    mistaken for structure."""
    x = u[1:]
    keep = np.abs(x) > rel * np.max(np.abs(x))
    s = np.sign(x[keep])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def solve_radial_eigen(V, node_count, bracket, grid, guess=None):
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
    the eigenvalue has passed the bracket checks.

    Without a guess the passes start from a Dirichlet tail and each bisects
    for eigenvalue m+1 over the whole spectrum.  A guess (an earlier omega of
    the same mode, e.g. the previous sweep's) warm-starts them: the first
    pass takes the Robin tail of guess^2 and counts guess^2 as the previous
    eigenvalue, so it can be accepted at once, and every pass bisects only
    a window around the previous eigenvalue (`_WARM_WINDOWS`: relative
    half-width 1e-3 on the first pass, 1e-10 after), over the whole
    spectrum when that window does not hold exactly one eigenvalue.  A lone eigenvalue in
    the window need not be mode m, so the warm result stands only when it
    passes every check below, the node count of its eigenvector included;
    otherwise the cold start is run and decides.  Both starts reach the same
    fixed point to within a few ulp.

    An eigenfrequency at or below bracket[0] raises NoBracket (well too
    deep); one at or above bracket[1] raises NotTrapped (mode not bound).
    A node_count outside [0, n_points - 3] raises ValidationError, a
    non-finite V or guess ValueError, a LAPACK failure LapackFailure (a
    LinAlgError).
    Returns (omega, RadialField), normalized to max|phi| = 1, phi(0) > 0.
    """
    if not 0 <= node_count < grid.n_points - 2:
        raise ValidationError("node_count must lie in [0, n_points - 3]")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    V = np.asarray(V, dtype=float)
    if V.shape != (grid.n_points,):
        raise ValueError("potential length must equal n_points")
    if not np.isfinite(V).all():
        raise ValueError("potential must be finite")
    if guess is not None and not np.isfinite(guess):
        raise ValueError("guess must be finite")
    if np.all(hi * hi - V <= 0.0):
        raise NotTrapped("kappa^2 <= 0 everywhere: no classically allowed region")
    if guess is not None:
        try:
            return _eigenpair(V, node_count, lo, hi, grid, float(guess) ** 2)
        except (NoBracket, NotTrapped, NoConvergence):
            pass  # another eigenvalue, or no fixed point near the guess
    return _eigenpair(V, node_count, lo, hi, grid, None)


def _eigenpair(V, node_count, lo, hi, grid, lam_prev):
    """solve_radial_eigen's passes from the eigenvalue estimate lam_prev
    (None: the cold start), its checks and its normalization."""
    r = grid.r
    h = grid.spacing
    h2 = h * h
    diag = 2.0 / h2 + V[1:-1]
    off = np.full(grid.n_points - 3, -1.0 / h2)
    d_last = diag[-1]
    index = node_count + 1  # LAPACK counts eigenvalues from 1
    warm = lam_prev is not None

    def robin_tail(lam):  # u_{N-1} / u_{N-2} under the WKB condition
        kr = np.sqrt(max(V[-1] - lam, 0.0))
        return 1.0 / (1.0 + h * kr - h / grid.r_max)

    tail = robin_tail(lam_prev) if warm else 0.0  # 0 is the Dirichlet start
    for k in range(_ROBIN_PASSES):
        diag[-1] = d_last - tail / h2
        if warm:
            # range 'V' (1) bisects the eigenvalues in (vl, vu] alone
            width = _WARM_WINDOWS[min(k, 1)] * abs(lam_prev)
            m, w, iblock, isplit, info = dstebz(diag, off, 1, lam_prev - width,
                                                lam_prev + width, 0, 0, _STEBZ_ABSTOL, "B")
        if not warm or info or m != 1:
            # range 'I' (2) picks eigenvalue `index` alone; vl, vu are unused;
            # block order 'B' is what dstein expects
            m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, index, index,
                                                _STEBZ_ABSTOL, "B")
        if info:
            raise LapackFailure(f"dstebz failed (info={info})")
        lam = float(w[0])
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-14 * abs(lam):
            break
        lam_prev = lam
        tail = robin_tail(lam)
    else:
        raise NoConvergence(
            f"outer boundary fixed point not reached in {_ROBIN_PASSES} passes"
        )
    if not lam > max(lo, 0.0) ** 2:
        raise NoBracket(f"mode {node_count} lies at or below the bracket (too deep)")
    omega = float(np.sqrt(lam))
    if omega >= hi:
        raise NotTrapped(f"mode {node_count} lies at or above the bracket (not bound)")
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

def solve_radial_poisson(source: RadialField, sign=1) -> RadialField:
    """Solve laplacian(phi0) = -sign*source with phi0 -> 0 as r -> infinity.

    One LAPACK `dgtsv` tridiagonal solve for u = r*phi0 with u(0)=0 and
    u'(r_max)=0 (the exterior solution is u = const, i.e. the Coulomb
    tail).  The returned field satisfies the discrete operator identity
    exactly on interior nodes.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
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
    # tridiagonal -u'' = sign*r*s on j=1..n-2 for the unknowns u_1..u_{n-1},
    # u_0 = 0, closed by the last row u_{n-1} - u_{n-2} = 0
    diag = np.full(n - 1, 2.0)
    diag[-1] = 1.0
    b = sign * h * h * r[1:] * s[1:]
    b[-1] = 0.0
    # every array is a temporary, so LAPACK may overwrite them all
    *_, x, info = dgtsv(np.full(n - 2, -1.0), diag, np.full(n - 2, -1.0), b, 1, 1, 1, 1)
    if info:
        raise LapackFailure(f"dgtsv failed (info={info})")
    u = np.concatenate(([0.0], x))
    phi = np.empty(n)
    phi[1:] = u[1:] / r[1:]
    phi[0] = phi[1] + sign * s[0] * h * h / 6.0
    return RadialField(grid, phi)
