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
amplitude, which deepens the well), so the core relaxes with each mode's own
central well depth pinned, which is contractive, and searches the depths
that put every crossing at its radius: Brent's method for one mode, damped
Newton for several, at a scan and then a tight tolerance.  The fifth
order's phi2 is solved in every sweep by tridiagonal Newton steps from the
previous sweep's phi2, or from Petviashvili's iteration when there is none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from .errors import (
    LambdaOutOfRange,
    NoBracket,
    NoConvergence,
    NonDecayingSource,
    NotTrapped,
    TailNotFree,
    ValidationError,
    WindowEmpty,
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
        if not np.all(np.isfinite([self.omega_hat, self.epsilon, self.r0, self.tol])):
            raise ValidationError("omega_hat, epsilon, r0 and tol must be finite")
        if not self.omega_hat > 0:
            raise ValidationError("omega_hat must be positive")
        if not self.r0 > 0:
            raise ValidationError("r0 must be positive")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")
        if self.epsilon == 0:
            raise ValidationError("epsilon must be nonzero")


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
        idx = np.where(kv[:-1] * kv[1:] < 0)[0]
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

    def to_csv_rows(self):
        return zip(self.grid.r, self.phi0.values, self.phi1.values, self.kappa_sq.values)


_RELAX_FAILURES = (NoBracket, NotTrapped, NonDecayingSource)
_GAP_TOL = 1e-10  # a one-mode crossing gap below this is a root


def _solve_mode(V, mode, omega_hat, grid, guess=None):
    """Eigen solve of mode `mode` in the potential V = omega_hat^2 - well,
    warm-started from `guess` (an earlier omega of the mode) when given.

    The bracket's upper end is the effective continuum edge sqrt(V(r_max)),
    which the mean field's Coulomb tail lowers below omega_hat at finite box
    size; a well that reaches the box edge leaves no bracket and no bound mode.
    """
    lo = 1e-6 * omega_hat
    hi = float(np.sqrt(max(V[-1], 1e-12 * omega_hat**2))) * (1 - 1e-9)
    if not hi > lo:
        raise NotTrapped("the well reaches the box edge: no bound mode")
    return solve_radial_eigen(V, mode, (lo, hi), grid, guess=guess)


def _seed_width(radii, orders):
    """Width of the seed well; higher modes need a wider well to be bound."""
    return max(r0 * (1.0 + 0.75 * m) for r0, m in zip(radii, orders))


class _PinnedDepthCore:
    """P trapped modes sharing A mean fields, relaxed at pinned own depths.

    Mode p (scale w_p, node order m_p, crossing radius r_p) sits in the
    potential w_p^2 (1 - sum_a eps[a, p] phi_a).  A sweep solves every mode in
    the current fields and the Poisson response U_p of its unit-amplitude
    intensity w_p^2 u_p^2; the response fields are
    phi_a = sum_q eps[a, q] A_q U_q + S_a, with S an optional extra source
    recomputed each sweep from the current fields.  Pinning each mode's own
    central depth d_q = (eps^T eps)_qq U_q(0) A_q fixes A_q in every sweep,
    which makes the relaxation contractive; the depths are then moved until
    every crossing gap sum_a eps[a, p] phi_a(r_p) - (w_p^2 - omega_p^2)/w_p^2
    vanishes.  max_iters bounds the sweeps of the whole solve.
    """

    def __init__(self, grid, modes, couplings, radii, max_iters, extra=None):
        self.grid, self.radii, self.max_iters, self.extra = grid, radii, max_iters, extra
        self.eps = np.atleast_2d(np.asarray(couplings, dtype=float))
        self.w_hats = np.array([w for w, _ in modes], dtype=float)
        self.w2 = self.w_hats**2
        self.orders = [m for _, m in modes]
        self.gram = self.eps.T @ self.eps
        self.damping = 0.85 if max(self.orders) == 0 else 0.6
        # each field starts as a Gaussian of depth 0.5 in its strongest coupling
        # (zero if it has none).  Beyond 30 widths the Gaussian underflows to
        # 0, so r is capped there and (r / width)^2 cannot overflow on a box
        # many widths wide.
        width = _seed_width(radii, self.orders)
        strongest = self.eps[np.arange(len(self.eps)), np.argmax(np.abs(self.eps), axis=1)]
        seed = np.divide(0.5, strongest, out=np.zeros(len(strongest)), where=strongest != 0)
        x = np.minimum(grid.r, 30.0 * width) / width
        self.fields = seed[:, None] * np.exp(-(x * x))
        self.saved = self.fields.copy()
        self.sweeps = 0
        self.last_omegas = [None] * len(self.orders)  # each mode's eigen warm start

    def sweep(self):
        """Eigen and Poisson solves of every mode in the current fields."""
        omegas = np.empty(len(self.orders))
        shapes, units = [], []
        for p, order in enumerate(self.orders):
            w2 = self.w2[p]
            V = w2 - (self.eps[:, p] * w2) @ self.fields
            omegas[p], shape = _solve_mode(V, order, self.w_hats[p], self.grid,
                                           self.last_omegas[p])
            self.last_omegas[p] = omegas[p]
            shapes.append(shape.values)
            units.append(solve_radial_poisson(
                RadialField(self.grid, w2 * shape.values**2), sign=1).values)
        source = np.zeros_like(self.fields) if self.extra is None else self.extra(self.fields)
        return omegas, np.array(shapes), np.array(units), source

    def relax(self, depths, tol, max_sweeps):
        """Sweep at pinned depths until the response fields change by less
        than tol (relative).  A sweep that fails after the first halves the
        step toward the last response instead, until nothing is left of it."""
        prev = None
        for _ in range(max_sweeps):
            try:
                omegas, shapes, units, source = self.sweep()
            except _RELAX_FAILURES:
                if prev is None:
                    raise
                self.fields = 0.5 * (self.fields + prev)
                if np.max(np.abs(self.fields - prev)) < 1e-14 * np.max(np.abs(self.fields)):
                    raise
                continue
            amps = depths / (np.diag(self.gram) * units[:, 0])
            new = (self.eps * amps) @ units + source
            change = max(float(np.max(np.abs(n - f)) / max(np.max(np.abs(n)), 1e-300))
                         for n, f in zip(new, self.fields))
            self.sweeps += 1
            prev = self.fields
            self.fields = (1.0 - self.damping) * self.fields + self.damping * new
            if change < tol:
                return omegas, shapes, units, source, new
        raise NoConvergence(f"pinned-depth sweep not converged (last change {change:.3e})",
                            residuals={"d_phi0": change})

    def gaps(self, depths, tol, cap=None):
        """Crossing gaps of the state relaxed at `depths` (positive: too
        shallow, the crossing lies beyond r_p).  A failed relaxation puts
        back the fields of the last one that succeeded."""
        budget = self.max_iters - self.sweeps
        if budget <= 0:
            raise NoConvergence(f"iteration budget {self.max_iters} exhausted")
        try:
            self.state = self.relax(depths, tol, budget if cap is None else min(budget, cap))
        except (*_RELAX_FAILURES, NoConvergence):
            self.fields = self.saved.copy()
            raise
        self.saved = self.fields.copy()
        omegas, new, r = self.state[0], self.state[-1], self.grid.r
        return np.array([self.eps[:, p] @ [np.interp(r0, r, f) for f in new] - (w2 - om * om) / w2
                         for p, (r0, w2, om) in enumerate(zip(self.radii, self.w2, omegas))])

    def brent(self, depth, tol, cap, xtol, factor):
        """Depth root of the one-mode gap, bracketed outward from `depth` by
        `factor` (geometric means once both sides are known), then Brent's
        method to xtol.  A failed relaxation is an edge: NoBracket too deep,
        NotTrapped too shallow; a capped probe that does not settle is too
        deep beyond the deepest depth known to be shallow, else too shallow."""
        lo = hi = shallow = deep = None  # finite-gap ends; ends with edges
        # Brent reuses an uncapped gap as a bracket end; a capped one may have
        # been classified against the edges known then, so it is evaluated again
        settled = {}

        def gap(d):
            if d in settled:
                return settled.pop(d)
            try:
                g = float(self.gaps([d], tol, cap)[0])
            except NoBracket:
                return -np.inf
            except (NotTrapped, NonDecayingSource):
                return np.inf
            except NoConvergence:
                if cap is None or self.sweeps >= self.max_iters:
                    raise
                return -np.inf if shallow is not None and d > shallow else np.inf
            g = 0.0 if abs(g) < _GAP_TOL else g
            if cap is None:
                settled[d] = g
            return g

        # every probe lies beyond the known ends, so the latest is the innermost
        for _ in range(80):
            g = gap(depth)
            if g == 0.0:
                return depth
            if g > 0:
                shallow, lo = depth, depth if g < np.inf else lo
            else:
                deep, hi = depth, depth if g > -np.inf else hi
            if lo is not None and hi is not None:
                return brentq(gap, lo, hi, xtol=xtol, rtol=xtol)
            if shallow is None:
                depth = deep * factor
            elif deep is None:
                depth = shallow / factor
            elif deep - shallow < 1e-14 * deep:
                break
            else:
                depth = float(np.sqrt(shallow * deep))
            if not 1e-10 < depth < 1e10:
                break
        raise NotTrapped("crossing condition cannot be bracketed in depth")

    def newton(self, depths, tol, cap, gtol, step):
        """Damped Newton on the depth vector, forward-difference Jacobian of
        relative step `step`: the step is halved while the trial fails or does
        not lower the largest gap, until every gap is below gtol.  When the
        halving stalls, a mode whose gap is negative (its well still too
        deep) and whose full Newton step ends at a non-positive depth has
        lost its binding, since no positive squared amplitude places its
        crossing: NotTrapped names it.  Any other stall is NoConvergence."""
        g = self.gaps(depths, tol, cap)
        for _ in range(60):
            worst = float(np.max(np.abs(g)))
            if worst < gtol:
                return depths
            jac = np.column_stack([(self.gaps(depths + dq, tol, cap) - g) / dq[q]
                                   for q, dq in enumerate(np.diag(step * depths))])
            move = np.linalg.lstsq(jac, -g, rcond=None)[0]
            lam = 1.0
            while lam > 1e-4:
                trial = depths + lam * move
                if np.all(trial > 0):
                    try:
                        g_try = self.gaps(trial, tol, cap)
                    except (*_RELAX_FAILURES, NoConvergence):
                        if self.sweeps >= self.max_iters:
                            raise
                    else:
                        if float(np.max(np.abs(g_try))) < worst:
                            depths, g = trial, g_try
                            break
                lam *= 0.5
            else:
                lost = np.flatnonzero((g < 0) & (depths + move <= 0))
                if lost.size:
                    q = int(lost[0])
                    raise NotTrapped(f"mode {q} lost binding: its crossing gap {g[q]:.3g} "
                                     "needs a non-positive depth")
                raise NoConvergence("outer Newton stalled", residuals={"gap": worst})
        raise NoConvergence("crossing conditions not met", residuals={"gap": worst})

    def solve(self, tol):
        """Frequencies, mode fields and mean fields: the depths are searched at
        a scan and then a tight inner tolerance, and the squared amplitudes
        follow from the P x P crossing system of the final relaxed state."""
        tight = min(tol, 1e-10)
        depths = np.full(len(self.orders), 0.5)
        # inner tolerance, probe cap, outer tolerance (Brent's on the depth,
        # Newton's on the largest gap), bracket factor, Jacobian step
        for inner, cap, outer, factor, step in ((max(1e-5, tol), 60, 1e-7, 0.5, 0.02),
                                                (tight, None, _GAP_TOL, 1.0 - 1e-4, 1e-3)):
            if len(depths) == 1:
                depths = np.array([self.brent(depths[0], inner, cap, outer, factor)])
            else:
                depths = self.newton(depths, inner, cap, outer, step)
        self.gaps(depths, tight)
        omegas, shapes, units, source, _ = self.state

        def at_radii(rows):
            return np.array([[np.interp(r0, self.grid.r, f) for f in rows] for r0 in self.radii])

        crossing = self.gram * self.w2[:, None] * at_radii(units)
        rhs = self.w2 - omegas * omegas - self.w2 * np.sum(at_radii(source) * self.eps.T, axis=1)
        try:
            amps = np.linalg.solve(crossing, rhs)
        except np.linalg.LinAlgError:  # modes in identical potentials share a crossing
            amps = np.linalg.lstsq(crossing, rhs, rcond=None)[0]
        if np.any(amps <= 0):
            raise NotTrapped(f"mode {int(np.argmin(amps))} lost binding: "
                             "non-positive squared amplitude")
        return omegas, np.sqrt(amps)[:, None] * shapes, (self.eps * amps) @ units + source


def default_r_max(r0):
    """Default box radius for a single mode crossing at r0."""
    return max(30.0, 6.0 * r0)


def iterate_single_mode(params: SingleModeParams,
                        grid: RadialGrid | None = None) -> TrappedModeSolution:
    """Construct the self-consistent trapped mode with kappa^2(r0) = 0.

    The pinned-depth core with one mode and one field: Brent's method on the
    pinned depth eps*phi0(0) places the crossing at r0.  iterations_used
    counts the sweeps; NoConvergence is raised when they would exceed
    max_iters, NotTrapped when no admissible depth binds the mode.
    """
    p = params
    if grid is None:
        grid = RadialGrid(default_r_max(p.r0), 2001)
    core = _PinnedDepthCore(grid, [(p.omega_hat, p.mode_order)], [[p.epsilon]],
                            (p.r0,), p.max_iters)
    omegas, modes, fields = core.solve(p.tol)
    omega = float(omegas[0])
    sol = _single_solution(p, grid, omega, omega * omega, fields[0], modes[0], core.sweeps)
    well = sol.well_parameter()
    if 0.0 < well < 1.0:
        lo = p.omega_hat * float(np.sqrt(1.0 - well))
        if not (lo < sol.omega < p.omega_hat):
            raise NotTrapped(f"omega {sol.omega:.6g} outside the trapping window "
                             f"({lo:.6g}, {p.omega_hat:.6g})")
    return sol


def _single_solution(p, grid, omega, omega_sq, phi0, phi1, iterations):
    """The TrappedModeSolution of given fields, with kappa^2 and residuals."""
    w2 = p.omega_hat**2
    kappa = omega_sq - w2 + p.epsilon * w2 * phi0
    src = p.epsilon * w2 * phi1**2
    return TrappedModeSolution(
        params=p,
        omega=omega,
        phi0=RadialField(grid, phi0),
        phi1=RadialField(grid, phi1),
        kappa_sq=RadialField(grid, kappa),
        residual_eigen=_residual(grid, phi1, kappa * phi1, np.max(np.abs(phi1))),
        residual_poisson=_residual(grid, phi0, src, np.max(np.abs(src))),
        iterations_used=iterations,
    )


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
        if len(self.scale_radii) != len(self.modes):
            raise ValidationError("one scale radius per mode required")
        for w, s, m in self.modes:
            if not w > 0:
                raise ValidationError("mode omega_hat must be positive")
            if s not in (1, -1):
                raise ValidationError("sigma must be +1 or -1")

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

    The pinned-depth core with every mode and field of the spec: damped
    Newton on the vector of pinned own depths places each kappa_p^2 zero
    crossing at its radius (one mode takes Brent's method, exactly as
    iterate_single_mode).
    """
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
            new = (u_lu / u_nu) ** 1.5 * v
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
    `dgtsv`.  None when a step fails or leaves u non-finite, the steps do
    not settle to 1e-14 (relative) within _PHI2_NEWTON_STEPS, or the root
    has a node or an amplitude u_1 / h outside (1e-12, 1e12)."""
    n = len(u) + 1
    u = np.concatenate(([0.0], u))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_PHI2_NEWTON_STEPS):
            x = u[1:-1]
            # second differences as differences of first differences, which
            # are exact wherever neighbours lie within a factor 2 of each other
            d = np.diff(u)
            res = np.append(d[1:] - d[:-1] + c * x * x * x, d[-1])
            diag = np.append(3.0 * c * x * x - 2.0, 1.0)
            lower = np.append(np.ones(n - 3), -1.0)
            # every array is a temporary, so LAPACK may overwrite them all
            *_, step, info = dgtsv(lower, diag, np.ones(n - 2), -res, 1, 1, 1, 1)
            if info:
                return None
            u[1:] += step
            if not np.isfinite(u).all():
                return None
            if np.max(np.abs(step)) <= 1e-14 * np.max(np.abs(u)):
                break
        else:
            return None
    if not (1e-12 < u[1] / h < 1e12 and u.min() >= 0.0):
        return None
    return u


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
    phi0, and Brent's method on the phi1 depth.  Each sweep solves for phi2
    by Newton's method (`_newton_phi2`), warm-started from the previous
    sweep's phi2; the first sweep, and any sweep whose warm solve fails,
    starts from Petviashvili's cold iteration instead.  eps1 and eta2 must
    not have opposite signs; eta2 = 0 reduces phi2 to the free radial wave.
    """
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
        return eta2 * solve_radial_poisson(RadialField(grid, src), sign=1).values[None, :]

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
