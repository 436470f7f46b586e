"""Self-consistent trapped-mode solutions of the prototype wave-guide system.

A periodic field phi1 rides in the well produced by the mean field phi0 that
its own intensity generates:

    [laplacian + kappa^2] phi1 = 0,    kappa^2 = omega^2 - omega_hat^2
                                                 + eps * omega_hat^2 * phi0,
    laplacian phi0 = -eps * omega_hat^2 * |phi1|^2.

The amplitude left free by the linear mode equation is fixed by requiring
kappa^2 to cross zero at a prescribed radius r0.  The single mode, several
modes sharing mean fields, and the fifth order (whose mean field has the
extra source eta2 phi2^4) are one eigen pair of P modes and A fields, solved
by one core.  Enforcing the crossing inside the alternating eigen/Poisson
sweep is repulsive (a deeper well lowers omega, which demands a larger
amplitude, which deepens the well), so each sweep pins every mode's own
central well depth instead, which is contractive.  The fields and those
depths are then one fixed point, which puts every crossing at its radius,
and Anderson mixing drives its residual to zero (D. G. Anderson, J. ACM 12,
547, 1965; H. F. Walker and P. Ni, SIAM J. Numer. Anal. 49, 1715, 2011).
The fifth order's phi2 is solved in every sweep by tridiagonal Newton steps
from the previous sweep's phi2, or from Petviashvili's iteration when there
is none.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (
    LambdaOutOfRange,
    NoBracket,
    NoConvergence,
    NonDecayingSource,
    NotTrapped,
    TailNotFree,
    ValidationError,
    WindowEmpty,
    require_finite,
    require_nonnegative,
    require_positive,
)
from .numerics import (
    RadialField,
    RadialGrid,
    radial_laplacian,
    solve_radial_eigen,
    solve_radial_poisson,
)

__all__ = [
    "SingleModeParams",
    "TrappedModeSolution",
    "MultiModeSpec",
    "MultiModeSolution",
    "FifthOrderSolution",
    "iterate_single_mode",
    "rescale",
    "max_scale_factor",
    "solve_multimode",
    "solve_fifth_order",
    "trapping_window",
]


@dataclass(frozen=True)
class SingleModeParams:
    omega_hat: float
    epsilon: float
    mode_order: int = 0
    r0: float = 5.0
    max_iters: int = 200
    tol: float = 1e-9

    def __post_init__(self):
        w, eps = float(self.omega_hat), float(self.epsilon)
        # omega_hat enters squared, and the solution is the unit one over |epsilon|
        require_positive(omega_hat=w, r0=self.r0, tol=self.tol, max_iters=self.max_iters,
                         omega_hat_squared=w * w)
        require_finite(epsilon=eps, inverse_epsilon=1.0 / eps if eps else np.inf)
        require_nonnegative(mode_order=self.mode_order)


@dataclass(frozen=True)
class TrappedModeSolution:
    params: SingleModeParams
    omega: float
    phi0: RadialField
    phi1: RadialField
    kappa_sq: RadialField
    residual_eigen: float
    residual_poisson: float
    iterations_used: int

    @property
    def grid(self) -> RadialGrid:
        return self.phi1.grid

    def well_parameter(self) -> float:
        """eps * phi0(0), the dimensionless well depth."""
        return self.params.epsilon * self.phi0.values[0]

    def crossing_radius(self) -> float:
        """First sign change of kappa^2, located by linear interpolation."""
        kv = self.kappa_sq.values
        r = self.grid.r
        idx = np.where(np.sign(kv[:-1]) * np.sign(kv[1:]) < 0)[0]  # a product may overflow
        if idx.size == 0:
            return float("nan")
        j = idx[0]
        t = kv[j] / (kv[j] - kv[j + 1])
        return float(r[j] + t * (r[j + 1] - r[j]))

    def to_json_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "grid": {"r_max": self.grid.r_max, "n_points": self.grid.n_points},
            "omega": self.omega,
            "residual_eigen": self.residual_eigen,
            "residual_poisson": self.residual_poisson,
            "iterations_used": self.iterations_used,
            "phi0": self.phi0.values.tolist(),
            "phi1": self.phi1.values.tolist(),
            "kappa_sq": self.kappa_sq.values.tolist(),
        }

    def to_csv_columns(self):
        return {"r": self.grid.r, "phi0": self.phi0.values, "phi1": self.phi1.values,
                "kappa_sq": self.kappa_sq.values}


# a sweep failing with one of these is retried nearer the last good iterate
_SWEEP_FAILURES = (NoBracket, NotTrapped, NonDecayingSource, NoConvergence)
_GAP_TOL = 1e-10  # a crossing gap below this is met
# Anderson mixing: residuals kept, mixing parameter, largest log-depth step
_HISTORY, _MIXING, _LOG_DEPTH_CAP = 5, 0.7, 0.25
_LOST_SWEEPS = 3  # successive sweeps that show a mode has lost its binding


def _seed_width(radii, orders):
    """Width of the seed well; higher modes need a wider well to be bound."""
    return max(r0 * (1.0 + 0.75 * m) for r0, m in zip(radii, orders))


class _PinnedDepthCore:
    """P trapped modes sharing A mean fields, solved at pinned own depths.

    Mode p (scale w_p, node order m_p, crossing radius r_p) sits in the
    potential w_p^2 (1 - sum_a eps[a, p] phi_a).  A sweep solves every mode in
    the current fields and the Poisson response U_p of its unit-amplitude
    intensity w_p^2 u_p^2; the response fields are
    phi_a = sum_q eps[a, q] A_q U_q + S_a, with S an optional extra source
    recomputed each sweep from the current fields.  Pinning each mode's own
    central depth d_q = (eps^T eps)_qq U_q(0) A_q fixes A_q in every sweep,
    which makes the field update contractive (pinning the crossings instead
    is repulsive: a deeper well lowers omega, which demands a larger
    amplitude, which deepens the well).  The fields and the depths are one
    fixed point: each field's response must equal it, and every crossing gap
    sum_a eps[a, p] phi_a(r_p) - (w_p^2 - omega_p^2)/w_p^2 must vanish.
    max_iters bounds the sweeps of the whole solve.
    """

    def __init__(self, grid, modes, couplings, radii, max_iters, extra=None):
        self.grid, self.radii, self.max_iters, self.extra = grid, radii, max_iters, extra
        self.eps = np.atleast_2d(np.asarray(couplings, dtype=float))
        self.w_hats = np.array([w for w, _ in modes], dtype=float)
        with np.errstate(over="ignore"):  # an overflow is inf, refused here
            self.w2 = self.w_hats**2
            self.gram = self.eps.T @ self.eps
            # a mode's depth is pinned through its squared couplings (eps^T eps)_qq,
            # which bound the rest of eps^T eps
            require_positive(omega_hat_squared=self.w2, squared_couplings=np.diag(self.gram))
        self.orders = [m for _, m in modes]
        # each field is measured in depth units, times its strongest coupling
        # (1 if it has none)
        strongest = self.eps[np.arange(len(self.eps)), np.argmax(np.abs(self.eps), axis=1)]
        self.scale = np.where(strongest != 0, strongest, 1.0)[:, None]
        # every depth starts at 0.5 up to omega_hat r0 = 5 (1 + m), and beyond
        # that shallower as the scale family's depth ~ (omega_hat r0)^-2, so a
        # wide, shallow well does not start thousands of times too deep
        widest = max(float(w) * r0 / (5.0 * (1 + m))
                     for w, m, r0 in zip(self.w_hats, self.orders, radii))
        self.log_seed = math.log(0.5) - 2.0 * math.log(max(1.0, widest))
        # each coupled field starts as a Gaussian of that depth.  Beyond 30
        # widths the Gaussian underflows to 0, so r is capped there and
        # (r / width)^2 cannot overflow on a box many widths wide.
        width = _seed_width(radii, self.orders)
        x = np.minimum(grid.r, 30.0 * width) / width
        seed = np.where(strongest != 0, math.exp(self.log_seed), 0.0)[:, None]
        self.fields = seed * np.exp(-(x * x)) / self.scale
        self.sweeps = 0
        self.last_solves = [None] * len(self.orders)  # each mode's (omega, shape) warm start

    def sweep(self):
        """Eigen and Poisson solves of every mode in the current fields."""
        omegas = np.empty(len(self.orders))
        shapes, units = [], []
        for p, order in enumerate(self.orders):
            w2 = self.w2[p]
            V = w2 - (self.eps[:, p] * w2) @ self.fields
            self.last_solves[p] = solve_radial_eigen(V, order, self.grid, self.last_solves[p])
            omegas[p], shape = self.last_solves[p]
            shapes.append(shape.values)
            units.append(solve_radial_poisson(RadialField(self.grid, w2 * shape.values**2)).values)
        source = np.zeros_like(self.fields) if self.extra is None else self.extra(self.fields)
        return omegas, np.array(shapes), np.array(units), source

    def at_radii(self, rows):
        """Each row's value at each crossing radius: entry [p, i] is rows[i](r_p)."""
        return np.array([[np.interp(r0, self.grid.r, f) for f in rows] for r0 in self.radii])

    def solve(self, tol):
        """Frequencies, mode fields and mean fields.

        One fixed point over x = (the fields in depth units, the log depths),
        whose residual is (response - fields, gaps / depths), driven to zero
        by Anderson mixing (history _HISTORY, mixing _MIXING, log-depth steps
        capped at _LOG_DEPTH_CAP).  A sweep that fails halves x toward the
        last iterate whose sweep succeeded and drops the history; it raises
        once nothing is left of the step.  The solve stops when the response
        changes the fields by less than min(tol, 1e-10) (relative) and every
        gap is below _GAP_TOL, and the squared amplitudes then follow from
        the P x P crossing system of that sweep's state.

        With several modes, a mode whose gap is negative (its well still too
        deep) while the linearized crossing conditions put its depth at or
        below zero in _LOST_SWEEPS successive sweeps has lost its binding:
        NotTrapped names it.  The linearization holds the mode shapes and
        shifts each omega_p^2 by first-order perturbation theory.
        """
        tight = min(tol, 1e-10)
        n_modes = len(self.orders)
        x = np.concatenate([(self.scale * self.fields).ravel(), np.full(n_modes, self.log_seed)])
        good = None  # the last iterate whose sweep succeeded, and its residual
        dxs, dfs = [], []  # Anderson's differences of iterates and of residuals
        history = []  # (field change, largest |gap|) of every sweep
        lost = np.zeros(n_modes, dtype=int)  # successive sweeps each mode looked lost
        while True:
            if self.sweeps >= self.max_iters:
                raise _stalled(f"iteration budget {self.max_iters} exhausted", history)
            self.fields = x[:-n_modes].reshape(self.fields.shape) / self.scale
            depths = np.exp(x[-n_modes:])
            try:
                omegas, shapes, units, source = self.sweep()
            except _SWEEP_FAILURES as exc:
                if good is None:
                    raise
                x = 0.5 * (x + good[0])
                dxs, dfs = [], []
                if np.max(np.abs(x - good[0])) < 1e-14 * np.max(np.abs(good[0])):
                    if isinstance(exc, NoConvergence):
                        raise _stalled(str(exc), history) from exc
                    raise
                continue
            self.sweeps += 1
            unit_depths = np.diag(self.gram) * units[:, 0]  # d_q at A_q = 1
            amps = depths / unit_depths
            new = (self.eps * amps) @ units + source
            change = max(float(np.max(np.abs(n - f)) / max(np.max(np.abs(n)), 1e-300))
                         for n, f in zip(new, self.fields))
            gap = (np.sum(self.eps.T * self.at_radii(new), axis=1)
                   - (self.w2 - omegas * omegas) / self.w2)
            history.append((change, float(np.max(np.abs(gap)))))
            if change < tight and np.all(np.abs(gap) < _GAP_TOL):
                break
            if n_modes > 1:
                # d gap_p / d d_q: U_q at r_p less its mean over mode p's
                # density (r u_p)^2, the first-order shift of omega_p^2
                weights = (self.grid.r * shapes) ** 2
                shifts = (weights @ units.T) / np.sum(weights, axis=1)[:, None]
                jac = self.gram * (self.at_radii(units) - shifts) / unit_depths
                ends = depths - np.linalg.lstsq(jac, gap, rcond=None)[0]
                lost = np.where((gap < 0) & (ends <= 0), lost + 1, 0)
                if np.any(lost >= _LOST_SWEEPS):
                    q = int(np.argmax(lost))
                    raise NotTrapped(f"mode {q} lost binding: its crossing gap {gap[q]:.3g} "
                                     "needs a non-positive depth")
            f = np.concatenate([(self.scale * (new - self.fields)).ravel(), gap / depths])
            if good is not None:
                dxs.append(x - good[0])
                dfs.append(f - good[1])
                del dxs[:-_HISTORY], dfs[:-_HISTORY]
            good = (x, f)
            step = _MIXING * f
            if dxs:
                dx, df = np.column_stack(dxs), np.column_stack(dfs)
                step -= (dx + _MIXING * df) @ np.linalg.lstsq(df, f, rcond=None)[0]
            step[-n_modes:] = np.clip(step[-n_modes:], -_LOG_DEPTH_CAP, _LOG_DEPTH_CAP)
            x = x + step

        crossing = self.gram * self.w2[:, None] * self.at_radii(units)
        rhs = self.w2 - omegas * omegas - self.w2 * np.sum(self.at_radii(source) * self.eps.T,
                                                           axis=1)
        try:
            amps = np.linalg.solve(crossing, rhs)
        except np.linalg.LinAlgError:  # modes in identical potentials share a crossing
            amps = np.linalg.lstsq(crossing, rhs, rcond=None)[0]
        if np.any(amps <= 0):
            raise NotTrapped(f"mode {int(np.argmin(amps))} lost binding: "
                             "non-positive squared amplitude")
        return omegas, np.sqrt(amps)[:, None] * shapes, (self.eps * amps) @ units + source


def _stalled(message, history):
    """NoConvergence carrying the last sweep's field change and largest gap,
    and those of the last few sweeps, oldest first (none before a sweep)."""
    last = history[-_HISTORY:]
    residuals = {"d_phi0_history": [c for c, _ in last], "gap_history": [g for _, g in last]}
    if last:
        residuals.update(d_phi0=last[-1][0], gap=last[-1][1])
    return NoConvergence(message, residuals=residuals)


def default_r_max(r0):
    """Default box radius for a single mode crossing at r0."""
    return max(30.0, 6.0 * r0)


def iterate_single_mode(params: SingleModeParams,
                        grid: RadialGrid | None = None) -> TrappedModeSolution:
    """Construct the self-consistent trapped mode with kappa^2(r0) = 0.

    In x = omega_hat r and psi = eps phi the problem depends on omega_hat
    and eps only through the sign of eps, so the pinned-depth core solves
    one mode in one field on the grid in x, with omega_hat = 1 and
    eps = sign(eps), and the solution is mapped back once: scaled problems
    retrace the unit one exactly.  iterations_used counts the sweeps;
    NoConvergence is raised when they would exceed max_iters, NotTrapped
    when no admissible depth binds the mode.
    """
    p = params
    if grid is None:
        grid = RadialGrid(default_r_max(p.r0), 2001)
    unit_grid = RadialGrid(p.omega_hat * grid.r_max, grid.n_points)
    core = _PinnedDepthCore(unit_grid, [(1.0, p.mode_order)], [[np.sign(p.epsilon)]],
                            (p.omega_hat * p.r0,), p.max_iters)
    omegas, modes, fields = core.solve(p.tol)
    omega = p.omega_hat * float(omegas[0])
    size = abs(p.epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _single_solution
        sol = _single_solution(p, grid, omega, omega * omega, fields[0] / size,
                               modes[0] / size, core.sweeps)
    try:
        lo, hi = trapping_window(sol)
    except WindowEmpty:  # a well outside (0, 1) bounds no window to check
        return sol
    if not lo < sol.omega < hi:
        raise NotTrapped(f"omega {sol.omega:.6g} outside the trapping window "
                         f"({lo:.6g}, {hi:.6g})")
    return sol


def _single_solution(p, grid, omega, omega_sq, phi0, phi1, iterations):
    """The TrappedModeSolution of given fields, with kappa^2 and residuals.
    Called under np.errstate: fields or residuals beyond the float range (the
    fields scale as 1/epsilon) are refused, as non-finite values."""
    w2 = p.omega_hat**2
    kappa = omega_sq - w2 + p.epsilon * w2 * phi0
    src = p.epsilon * w2 * phi1**2
    res_e = _residual(grid, phi1, kappa * phi1, np.max(np.abs(phi1)))
    res_p = _residual(grid, phi0, src, np.max(np.abs(src)))
    require_finite(residual_eigen=res_e, residual_poisson=res_p)
    return TrappedModeSolution(
        params=p, omega=omega, phi0=RadialField(grid, phi0), phi1=RadialField(grid, phi1),
        kappa_sq=RadialField(grid, kappa), residual_eigen=res_e, residual_poisson=res_p,
        iterations_used=iterations)


def _residual(grid, phi, term, scale):
    """max |laplacian phi + term| over the interior nodes, divided by scale:
    the eigen residual with term = kappa^2 phi1 and scale max |phi1|, the
    Poisson residual with term = the source and scale its maximum."""
    res = radial_laplacian(RadialField(grid, phi)) + term[1:-1]
    return float(np.max(np.abs(res)) / max(scale, 1e-300))


def trapping_window(sol: TrappedModeSolution):
    """Frequency interval in which the converged well supports the mode."""
    well = sol.well_parameter()
    if not 0.0 < well < 1.0:
        raise WindowEmpty(f"well parameter {well:.6g} outside (0, 1)")
    w = sol.params.omega_hat
    return w * float(np.sqrt(1.0 - well)), w


def max_scale_factor(sol: TrappedModeSolution) -> float:
    w2 = sol.params.omega_hat**2
    return float(1.0 / np.sqrt(1.0 - sol.omega**2 / w2))


def rescale(sol: TrappedModeSolution, lam: float) -> TrappedModeSolution:
    """Map a solution through the scale family r' = r/lam, phi' = lam^2 phi.

    The grid is scaled rather than resampled, so compositions of rescalings
    agree node-exactly.  lam must lie in (0, lam_max] with
    lam_max = (1 - omega^2/omega_hat^2)^(-1/2); the upper limit yields the
    zero-frequency member of the family.
    """
    lam = float(lam)
    lam_max = max_scale_factor(sol)
    if not 0.0 < lam <= lam_max * (1.0 + 1e-12):
        raise LambdaOutOfRange(f"lambda {lam:.6g} outside (0, {lam_max:.6g}]")
    p = sol.params
    w2 = p.omega_hat**2
    omega_sq = w2 - lam * lam * (w2 - sol.omega**2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _single_solution
        return _single_solution(
            replace(p, r0=p.r0 / lam), RadialGrid(sol.grid.r_max / lam, sol.grid.n_points),
            float(np.sqrt(max(omega_sq, 0.0))), omega_sq, lam * lam * sol.phi0.values,
            lam * lam * sol.phi1.values, sol.iterations_used)


# --- Multi-mode generalization ----------------------------------------------

@dataclass(frozen=True)
class MultiModeSpec:
    """Several trapped modes coupled only through shared mean fields.

    modes: list of (omega_hat_p, sigma_p in {+1,-1}, node_order_p)
    couplings: matrix eps[a][p], one row per mean field, one column per mode
    scale_radii: prescribed kappa_p^2 zero crossing per mode
    """

    modes: tuple
    couplings: np.ndarray = field(repr=False)
    scale_radii: tuple = ()

    def __post_init__(self):
        eps = np.atleast_2d(np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "couplings", eps)
        object.__setattr__(self, "modes", tuple(tuple(m) for m in self.modes))
        object.__setattr__(self, "scale_radii", tuple(self.scale_radii))
        if eps.shape[1] != len(self.modes):
            raise ValidationError("couplings must have one column per mode")
        require_finite(couplings=eps)
        if len(self.scale_radii) != len(self.modes):
            raise ValidationError("one scale radius per mode required")
        require_positive(scale_radius=self.scale_radii)
        for w, s, m in self.modes:
            require_positive(omega_hat=w)
            if s not in (1, -1):
                raise ValidationError("sigma must be +1 or -1")
            require_nonnegative(node_order=m)

@dataclass(frozen=True)
class MultiModeSolution:
    spec: MultiModeSpec
    omegas: tuple
    mode_fields: tuple  # RadialField per mode (amplitude included)
    mean_fields: tuple  # RadialField per mean field
    residual_eigen: tuple
    residual_poisson: tuple
    iterations_used: int


def solve_multimode(spec: MultiModeSpec, max_iters: int = 600, tol: float = 1e-9,
                    grid: RadialGrid | None = None) -> MultiModeSolution:
    """Joint fixed point of the coupled normal-mode and mean-field system.

    The pinned-depth core with every mode and field of the spec: one
    Anderson-mixed fixed point over the fields and the pinned own depths
    places each kappa_p^2 zero crossing at its radius.  iterations_used
    counts the sweeps; NoConvergence is raised when they would exceed
    max_iters, NotTrapped when a mode loses its binding.
    """
    require_positive(max_iters=max_iters, tol=tol)
    if grid is None:
        width = _seed_width(spec.scale_radii, [m for _, _, m in spec.modes])
        grid = RadialGrid(max(30.0, 4.0 * width), 2001)
    core = _PinnedDepthCore(grid, [(w, m) for w, _, m in spec.modes], spec.couplings,
                            spec.scale_radii, max_iters)
    omegas, modes, fields = core.solve(tol)
    eps, w2 = spec.couplings, core.w2
    res_e = tuple(_residual(grid, u, (om * om - w2[p] + (eps[:, p] * w2[p]) @ fields) * u,
                            np.max(np.abs(u))) for p, (om, u) in enumerate(zip(omegas, modes)))
    res_p = tuple(_residual(grid, f, src, np.max(np.abs(src)))
                  for f, src in zip(fields, (eps * w2) @ modes**2))
    return MultiModeSolution(
        spec=spec,
        omegas=tuple(float(o) for o in omegas),
        mode_fields=tuple(RadialField(grid, u) for u in modes),
        mean_fields=tuple(RadialField(grid, f) for f in fields),
        residual_eigen=res_e,
        residual_poisson=res_p,
        iterations_used=core.sweeps,
    )


# --- Fifth-order (asymptotically free) variant -------------------------------

@dataclass(frozen=True)
class FifthOrderSolution:
    phi0: RadialField
    phi1: RadialField
    phi2: RadialField
    omegas: tuple  # (omega_1, omega_2 = omega_hat_2)
    tail_coefficient: float
    tail_variation: float
    iterations_used: int


# Petviashvili steps a cold phi2 start may take; from the flat profile it
# reaches a relative change of 1e-3 in 11 to 18
_PHI2_COLD_STEPS = 40
# Newton steps a phi2 solve may take; from the previous sweep's phi2 it
# converges in three or four
_PHI2_NEWTON_STEPS = 8
# phi2(0) of the eta2 = 0 free wave, which no equation fixes
_FREE_PHI2_AMPLITUDE = 0.3
# Veltkamp's splitter: a * _SPLIT parts a double into two 26-bit halves
_SPLIT = 2.0**27 + 1.0


def _cold_phi2(c, u):
    """Petviashvili's iteration u <- M^(3/2) L^-1 N(u), M = <u, L u> / <u, N(u)>,
    for the rows of `_newton_phi2` as L u = N(u): L is positive definite
    (diagonal 2, ..., 2, 1, off-diagonals -1) and N(u) = (c u^3, 0).  One
    `dgtsv` a step from the positive profile u, until a step changes u by
    less than 1e-3 (relative) or _PHI2_COLD_STEPS are taken; L^-1 of a
    positive vector is positive, so every iterate is nodeless.  TailNotFree
    when <u, N(u)> <= 0 (phi0 binds no phi2) or an iterate is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_PHI2_COLD_STEPS):
            nu = np.append(c * u[:-1] ** 3, 0.0)
            u_nu = float(u @ nu)
            if not u_nu > 0.0:
                raise TailNotFree("phi0 binds no phi2: <u, N(u)> <= 0")
            # <u, L u> is the sum of squared first differences from u_0 = 0
            u_lu = float(np.sum(np.diff(u, prepend=0.0) ** 2))
            off = -np.ones(len(u) - 1)
            *_, v, info = dgtsv(off, np.append(-2.0 * off, 1.0), off.copy(), nu, 1, 1, 1, 1)
            new = np.power(u_lu / u_nu, 1.5) * v  # an overflow is inf, refused below
            if info or not np.isfinite(new).all():
                raise TailNotFree("the cold phi2 iteration leaves the float range")
            change = np.max(np.abs(new - u)) / np.max(np.abs(new))
            u = new
            if change < 1e-3:
                break
    return u


def _newton_phi2(grid, phi0_vals, eta2, w2_2, phi2_prev=None):
    """The nodeless phi2 with a flat tail in phi0, by Newton's method on the
    discrete problem: unknowns u_1..u_{n-1} (u = r*phi2, u_0 = 0), rows
    u_{j+1} - 2 u_j + u_{j-1} + c_j u_j^3 = 0 with
    c_j = h^2 * 2 eta2 omega_hat_2^2 * phi0_j / r_j^2, and the flat tail
    u_{n-1} - u_{n-2} = 0.  Newton starts from phi2_prev (the previous
    sweep's phi2) and, when there is none or that solve fails, from
    `_cold_phi2`; TailNotFree when that solve fails too."""
    r, h = grid.r, grid.spacing
    c = (h * h * (2.0 * eta2 * w2_2)) * np.asarray(phi0_vals)[1:-1] / (r[1:-1] * r[1:-1])
    u = None if phi2_prev is None else _newton_steps(c, h, r[1:] * phi2_prev[1:])
    if u is None:
        u = _newton_steps(c, h, _cold_phi2(c, np.ones(grid.n_points - 1)))
    if u is None:
        raise TailNotFree("no nodeless phi2 with a flat tail")
    return np.concatenate(([u[1] / h], u[1:] / r[1:]))


def _newton_steps(c, h, u):
    """Newton's method of `_newton_phi2` from (u_1..u_{n-1}): the root with
    u_0 = 0 prepended.  The Jacobian is tridiagonal, so a step is one
    `dgtsv`.  Once a step settles to 1e-14 (relative) one more step polishes
    the last bits.  Its rows are summed to about eps of themselves
    (`_accurate_rows`), where the plain sum leaves about half an ulp of
    noise in the step, so it rounds u to the floats nearest the root and
    starts that reach the root by different paths end on the same bits.
    None when a step fails or leaves u non-finite, the steps do not settle
    within _PHI2_NEWTON_STEPS, or the root has a node or an amplitude
    u_1 / h outside (1e-12, 1e12)."""
    n = len(u) + 1
    u = np.concatenate(([0.0], u))
    settled = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_PHI2_NEWTON_STEPS + 1):
            x = u[1:-1]
            # second differences as differences of first differences, which
            # are exact wherever neighbours lie within a factor 2 of each other
            d = np.diff(u)
            second = d[1:] - d[:-1]
            rows = _accurate_rows(second, c, x) if settled else second + c * x * x * x
            res = np.append(rows, d[-1])
            diag = np.append(3.0 * c * x * x - 2.0, 1.0)
            lower = np.append(np.ones(n - 3), -1.0)
            # every array is a temporary, so LAPACK may overwrite them all
            *_, step, info = dgtsv(lower, diag, np.ones(n - 2), -res, 1, 1, 1, 1)
            if info:
                return None
            u[1:] += step
            if not np.isfinite(u).all():
                return None
            if settled:
                break
            settled = np.max(np.abs(step)) <= 1e-14 * np.max(np.abs(u))
        else:
            return None
    if not (1e-12 < u[1] / h < 1e12 and u.min() >= 0.0):
        return None
    return u


def _two_product(a, b):
    """a * b as p + e exactly (Dekker, Numer. Math. 18, 224, 1971)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    t = _SPLIT * b
    b_hi = t - (t - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _accurate_rows(second, c, x):
    """second + c x^3 to about eps of the sum rather than of its terms: the
    cube as p + e from exact products, the sum by Knuth's two-sum (TAOCP
    vol. 2, 4.2.2).  Rows whose splitting overflows keep the plain sum."""
    x2, e2 = _two_product(x, x)
    x3, e3 = _two_product(x2, x)
    p, e = _two_product(c, x3)
    e += c * (e3 + e2 * x)
    t = second + p
    z = t - second
    rows = t + (((second - (t - z)) + (p - z)) + e)
    return np.where(np.isfinite(rows), rows, second + c * x * x * x)


def _decayed_tail(src, grid):
    """Taper the last few nodes to zero so the Coulomb-matching
    precondition holds for a source that decays only algebraically
    (|phi2|^4 ~ r^-4); the clipped mass is O(r_max^-4) relative."""
    out = src.copy()
    n = grid.n_points
    k = max(16, n // 100)
    ramp = (0.5 * (1.0 + np.cos(np.linspace(0.0, np.pi, k)))) ** 2
    out[-k:] *= ramp
    out[-6:] = 0.0
    return out


def solve_fifth_order(omega_hat_1: float, omega_hat_2: float, eps1: float, eta2: float,
                      r0: float, max_iters: int = 400, tol: float = 1e-9,
                      grid: RadialGrid | None = None) -> FifthOrderSolution:
    """Two-mode variant with a fifth-order coupling for the second field.

    phi1 stays exponentially trapped while phi2, run at its limiting
    frequency omega_2 = omega_hat_2, takes the nodeless solution whose far
    field is asymptotically free (r*phi2 flat).  The mean field collects
    both intensities: the pinned-depth core with one mode, one field and the
    extra source eta2 phi2^4, whose phi2 each sweep finds in the current
    phi0, in one fixed point over phi0 and the phi1 depth.  Each sweep
    solves for phi2 by Newton's method (`_newton_phi2`), warm-started from
    the previous sweep's phi2; the first sweep, and any sweep whose warm
    solve fails, starts from Petviashvili's cold iteration instead.
    iterations_used counts the sweeps.  eps1 and eta2 must not have opposite
    signs; eta2 = 0 reduces phi2 to the free radial wave.  Both omega_hats
    and r0 must be finite and positive, eps1 and eta2 finite.
    """
    # omega_hat_2 enters squared; a float product overflows to inf, where ** raises
    require_positive(omega_hat_1=omega_hat_1, omega_hat_2=omega_hat_2, r0=r0, tol=tol,
                     max_iters=max_iters,
                     omega_hat_2_squared=float(omega_hat_2) * float(omega_hat_2))
    require_finite(eps1=eps1, eta2=eta2)
    if eps1 * eta2 < 0:
        raise ValidationError("eps1 and eta2 must have the same sign")
    if grid is None:
        grid = RadialGrid(max(40.0, 8.0 * r0), 2001)
    w2_2 = omega_hat_2**2
    phi2 = None  # the last sweep's phi2; None before the first

    def phi2_source(fields):
        nonlocal phi2
        phi2 = _newton_phi2(grid, fields[0], eta2, w2_2, phi2)
        src = _decayed_tail(w2_2 * phi2**4, grid)
        return eta2 * solve_radial_poisson(RadialField(grid, src)).values[None, :]

    core = _PinnedDepthCore(grid, [(omega_hat_1, 0)], [[eps1]], (r0,), max_iters,
                            extra=phi2_source if eta2 != 0.0 else None)
    omegas, modes, fields = core.solve(tol)
    if phi2 is None:  # the eta2 = 0 limit: the free radial wave c/r, flat at the origin
        phi2 = _FREE_PHI2_AMPLITUDE * grid.r_max / 4.0 / np.maximum(grid.r, grid.r[1])
    quarter = (grid.r * phi2)[3 * grid.n_points // 4 :]
    c = float(np.mean(quarter))
    variation = float(np.max(np.abs(quarter - c)) / abs(c)) if c != 0 else np.inf
    if variation > 0.05:
        raise TailNotFree(f"r*phi2 varies by {variation:.1%} over the outer quarter grid")
    return FifthOrderSolution(
        phi0=RadialField(grid, fields[0]),
        phi1=RadialField(grid, modes[0]),
        phi2=RadialField(grid, phi2),
        omegas=(float(omegas[0]), float(omega_hat_2)),
        tail_coefficient=c,
        tail_variation=variation,
        iterations_used=core.sweeps,
    )
