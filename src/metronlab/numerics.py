"""Shared numerical kernels: adaptive ODE integration, the radial eigenvalue
problem on a uniform grid, and the spherically symmetric Poisson solve.

All radial work uses the substitution u(r) = r * phi(r), which turns the
spherical Laplacian into a plain second derivative and removes the 2/r
coordinate singularity.  The discrete radial operator used consistently by
solvers and residual checks is the three-point form

    L[phi]_j = (r_{j+1} phi_{j+1} - 2 r_j phi_j + r_{j-1} phi_{j-1}) / (r_j h^2),

i.e. the central second difference applied to u = r*phi, divided by r_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import (
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
# Adaptive Dormand-Prince 4(5) initial-value integration
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass
class IvpResult:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


def integrate_ivp(field, y0, span, tol=1e-8, max_steps=2_000_000) -> IvpResult:
    """Integrate dy/ds = field(s, y) over span with an embedded 4(5) pair.

    Accepts real or complex state vectors; returns the accepted step points.
    Raises StepUnderflow when the controller needs a step below
    1e-14 * |span| and NonFiniteState if the state leaves floating range.
    """
    s0, s1 = float(span[0]), float(span[1])
    y = np.atleast_1d(np.asarray(y0))
    if not np.issubdtype(y.dtype, np.complexfloating):
        y = y.astype(float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    width = abs(s1 - s0)
    if width == 0.0:
        return IvpResult(np.array([s0]), y[None, :].copy())
    direction = 1.0 if s1 >= s0 else -1.0
    atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(y))))
    h = direction * min(width / 100.0, 1.0)
    h_floor = 1e-14 * width

    ts = [s0]
    ys = [y.copy()]
    s = s0
    k = np.empty((7,) + y.shape, dtype=y.dtype)
    for _ in range(max_steps):
        if direction * (s + h - s1) > 0:
            h = s1 - s
        if abs(h) < h_floor:
            raise StepUnderflow(
                f"step size {abs(h):.3e} below 1e-14*|span| at s={s:.6g}"
            )
        with np.errstate(invalid="ignore", over="ignore"):
            k[0] = field(s, y)
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
                k[i] = field(s + _DP_C[i] * h, yi)
            y5 = y + h * np.tensordot(_DP_B5, k, axes=1)
            y4 = y + h * np.tensordot(_DP_B4, k, axes=1)
        if not np.all(np.isfinite(y5.view(float))):
            raise NonFiniteState(f"non-finite state at s={s:.6g}")
        scale = atol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(y5 - y4) / scale))
        if err <= 1.0:
            s = s + h
            y = y5
            ts.append(s)
            ys.append(y.copy())
            if direction * (s - s1) >= 0 or abs(s - s1) < h_floor:
                return IvpResult(np.asarray(ts), np.asarray(ys))
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            factor = max(0.1, 0.9 * err ** -0.2)
        h = h * factor
    raise NonFiniteState("max_steps exhausted without reaching span end")


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


def _count_nodes_floor(u, rel=1e-8):
    """Node count of a converged (decaying) solution, ignoring values below
    rel * max|u| so that roundoff wiggle in the evanescent tail is not
    mistaken for structure."""
    x = u[1:]
    keep = np.abs(x) > rel * np.max(np.abs(x))
    s = np.sign(x[keep])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def solve_radial_eigen(V, node_count, bracket, grid):
    """Find the radial eigenfrequency with a prescribed interior node count.

    Solves [laplacian + kappa^2] phi = 0 with kappa^2 = omega^2 - V(r), V
    sampled on the grid.  For u = r*phi the three-point operator is the
    symmetric tridiagonal eigenproblem (-D2 + V) u = omega^2 u on nodes
    1..N-2 with u_0 = 0, and mode m is its (m+1)-th eigenvalue, computed by
    LAPACK bisection and inverse iteration.  The outer boundary is the local
    WKB decay condition u'/u = 1/R - |kappa(R)|, i.e.
    u_{N-2} = u_{N-1} (1 + h|kappa(R)| - h/R), a Robin term in the last
    diagonal entry; |kappa(R)| depends on omega, so the solve is repeated
    from a Dirichlet start until omega^2 is stationary.

    An eigenfrequency at or below bracket[0] raises NoBracket (well too
    deep); one at or above bracket[1] raises NotTrapped (mode not bound).
    Returns (omega, RadialField), normalized to max|phi| = 1, phi(0) > 0.
    """
    if node_count < 0:
        raise ValueError("node_count must be >= 0")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    V = np.asarray(V, dtype=float)
    if V.shape != (grid.n_points,):
        raise ValueError("potential length must equal n_points")
    if np.all(hi * hi - V <= 0.0):
        raise NotTrapped("kappa^2 <= 0 everywhere: no classically allowed region")
    r = grid.r
    h = grid.spacing
    h2 = h * h
    diag = 2.0 / h2 + V[1:-1]
    off = np.full(grid.n_points - 3, -1.0 / h2)
    d_last = diag[-1]
    tail = 0.0  # u_{N-1} / u_{N-2}; 0 is the Dirichlet start
    lam_prev = None
    for _ in range(_ROBIN_PASSES):
        diag[-1] = d_last - tail / h2
        lam, vec = eigh_tridiagonal(
            diag, off, select="i", select_range=(node_count, node_count),
            tol=_STEBZ_ABSTOL,
        )
        lam = float(lam[0])
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-14 * abs(lam):
            break
        lam_prev = lam
        kr = np.sqrt(max(V[-1] - lam, 0.0))
        tail = 1.0 / (1.0 + h * kr - h / grid.r_max)
    else:
        raise NoConvergence(
            f"outer boundary fixed point not reached in {_ROBIN_PASSES} passes"
        )
    if not lam > max(lo, 0.0) ** 2:
        raise NoBracket(f"mode {node_count} lies at or below the bracket (too deep)")
    omega = float(np.sqrt(lam))
    if omega >= hi:
        raise NotTrapped(f"mode {node_count} lies at or above the bracket (not bound)")

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

    Tridiagonal solve for u = r*phi0 with u(0)=0 and u'(r_max)=0 (the
    exterior solution is u = const, i.e. the Coulomb tail).  The returned
    field satisfies the discrete operator identity exactly on interior
    nodes.
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
    # assemble tridiagonal for -u'' = sign*r*s on j=1..n-2, u0=0, u_{n-1}=u_{n-2}
    m = n - 1  # unknowns u_1..u_{n-1}
    ab = np.zeros((3, m))
    ab[0, 1:] = -1.0  # superdiagonal
    ab[1, :] = 2.0  # diagonal
    ab[2, :-1] = -1.0  # subdiagonal
    b = sign * h * h * r[1:] * s[1:]
    # last row: u_{n-1} - u_{n-2} = 0
    ab[1, -1] = 1.0
    ab[2, -2] = -1.0
    b[-1] = 0.0
    u = solve_banded((1, 1), ab, b)
    u = np.concatenate(([0.0], u))
    phi = np.empty(n)
    phi[1:] = u[1:] / r[1:]
    phi[0] = phi[1] + sign * s[0] * h * h / 6.0
    return RadialField(grid, phi)
