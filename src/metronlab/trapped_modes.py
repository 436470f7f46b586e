"""Self-consistent trapped-mode solutions of the prototype wave-guide system.

A periodic field phi1 rides in the well produced by the mean field phi0 that
its own intensity generates:

    [laplacian + kappa^2] phi1 = 0,    kappa^2 = omega^2 - omega_hat^2
                                                 + eps * omega_hat^2 * phi0,
    laplacian phi0 = -eps * omega_hat^2 * |phi1|^2.

The amplitude left free by the linear mode equation is fixed by requiring
kappa^2 to cross zero at a prescribed radius r0.  Enforcing the crossing
radius directly inside the alternating eigen/Poisson sweep is repulsive
(a deeper well lowers omega, which demands a larger amplitude, which deepens
the well), so the solver splits the problem: an inner iteration with the
central well depth pinned, which is contractive, and an outer scalar
root-find on the depth that places the zero crossing at r0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
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
        p = self.params
        return {
            "params": {
                "omega_hat": p.omega_hat,
                "epsilon": p.epsilon,
                "mode_order": p.mode_order,
                "r0": p.r0,
                "max_iters": p.max_iters,
                "tol": p.tol,
            },
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
        r = self.grid.r
        for j in range(self.grid.n_points):
            yield (
                r[j],
                self.phi0.values[j],
                self.phi1.values[j],
                self.kappa_sq.values[j],
            )


def _solve_mode(V, mode, omega_hat, grid):
    """Eigen solve of mode `mode` in the potential V = omega_hat^2 - well.

    The bracket's upper end is the effective continuum edge sqrt(V(r_max)):
    the mean field's Coulomb tail shifts the trapping threshold below
    omega_hat at finite box size.
    """
    hi = float(np.sqrt(max(V[-1], 1e-12 * omega_hat**2))) * (1 - 1e-9)
    return solve_radial_eigen(V, mode, (1e-6 * omega_hat, hi), grid)


class _PinnedDepthSweeper:
    """Contractive inner iteration with eps*phi0(0) pinned to a given depth."""

    def __init__(self, grid, omega_hat, epsilon, mode, relaxation):
        self.grid = grid
        self.w2 = omega_hat**2
        self.omega_hat = omega_hat
        self.eps = epsilon
        self.mode = mode
        self.relax = relaxation
        self.phi0 = None
        self.sweeps = 0

    def seed(self, depth, width):
        r = self.grid.r
        self.phi0 = (depth / self.eps) * np.exp(-((r / width) ** 2))

    def converge(self, depth, tol_inner, max_sweeps):
        """Iterate eigen + Poisson sweeps with pinned central depth.

        If a field update pushes the mode out of the frequency bracket the
        step toward phi0_new is halved (trust region); the failure is only
        propagated when it happens on an unevolved state.
        """
        grid, w2, eps = self.grid, self.w2, self.eps
        phi0_prev = None
        for _ in range(max_sweeps):
            try:
                omega, phi1n = _solve_mode(
                    w2 - eps * w2 * self.phi0, self.mode, self.omega_hat, grid
                )
                unit = solve_radial_poisson(
                    RadialField(grid, w2 * phi1n.values**2), sign=1
                ).values
            except (NoBracket, NotTrapped, NonDecayingSource):
                if phi0_prev is None:
                    raise
                self.phi0 = 0.5 * (self.phi0 + phi0_prev)
                if float(np.max(np.abs(self.phi0 - phi0_prev))) < 1e-14 * float(
                    np.max(np.abs(self.phi0))
                ):
                    raise
                continue
            amp_sq = depth / (eps * eps * unit[0])
            phi0_new = eps * amp_sq * unit
            d = float(
                np.max(np.abs(phi0_new - self.phi0))
                / max(np.max(np.abs(phi0_new)), 1e-300)
            )
            self.sweeps += 1
            phi0_prev = self.phi0
            self.phi0 = (1.0 - self.relax) * self.phi0 + self.relax * phi0_new
            if d < tol_inner:
                return omega, phi1n, unit, amp_sq
        raise NoConvergence(
            f"pinned-depth sweep not converged (last change {d:.3e})",
            residuals={"d_phi0": d},
        )


def iterate_single_mode(
    params: SingleModeParams,
    grid: RadialGrid | None = None,
    relaxation: float | None = None,
) -> TrappedModeSolution:
    """Construct the self-consistent trapped mode with kappa^2(r0) = 0.

    Inner loop: alternate eigen and Poisson solves with the central well
    depth pinned (stable).  Outer loop: scalar root-find on the depth so
    that the converged kappa^2 crosses zero at r0.  iterations_used counts
    the total number of inner sweeps; NoConvergence is raised when it would
    exceed max_iters, NotTrapped when no admissible depth binds the mode.
    """
    p = params
    if grid is None:
        grid = RadialGrid(max(30.0, 6.0 * p.r0), 2001)
    if relaxation is None:
        relaxation = 0.85 if p.mode_order == 0 else 0.6
    if not 0 < relaxation <= 1:
        raise ValidationError("relaxation must be in (0, 1]")
    r = grid.r
    w2 = p.omega_hat**2
    sweeper = _PinnedDepthSweeper(grid, p.omega_hat, p.epsilon, p.mode_order, relaxation)
    # higher modes need a wider seed well to be bound at moderate depth
    sweeper.seed(0.5, p.r0 * (1.0 + 0.75 * p.mode_order))
    budget = p.max_iters

    def crossing_gap(depth, tol_inner, cap=None):
        """eps*phi0(r0) - (w2 - omega^2)/w2 for the converged pinned state.

        Positive gap: the well at r0 is still above the crossing level, so
        the zero crossing lies beyond r0 (depth too shallow).
        """
        remaining = budget - sweeper.sweeps
        if remaining <= 0:
            raise NoConvergence(
                f"iteration budget {p.max_iters} exhausted during depth search"
            )
        if cap is not None:
            remaining = min(remaining, cap)
        omega, phi1n, unit, amp_sq = sweeper.converge(depth, tol_inner, remaining)
        phi0_resp = p.epsilon * amp_sq * unit
        gap = p.epsilon * float(np.interp(p.r0, r, phi0_resp)) - (
            w2 - omega * omega
        ) / w2
        return gap, (omega, phi1n, unit, amp_sq)

    # bracket the depth: too-shallow -> gap > 0 (crossing beyond r0),
    # too-deep -> gap < 0 (crossing inside r0).  A failed eigen solve maps
    # to +inf (mode not yet bound) or -inf (mode sank below omega = 0).
    tol_scan = max(1e-5, p.tol)
    saved_phi0 = sweeper.phi0.copy()
    d_lo = d_hi = None  # evaluable endpoints with gap > 0 / gap < 0
    lo_edge = hi_edge = None  # unevaluable sentinels

    def eval_gap(depth, tol_inner, cap=None):
        nonlocal saved_phi0
        try:
            gap, _ = crossing_gap(depth, tol_inner, cap)
        except NoBracket:
            sweeper.phi0 = saved_phi0.copy()
            return -np.inf
        except (NotTrapped, NonDecayingSource):
            sweeper.phi0 = saved_phi0.copy()
            return np.inf  # not (or barely) bound: treat as too shallow
        except NoConvergence:
            if cap is None:
                raise
            # non-settling probe: classify by the known shallow edge
            sweeper.phi0 = saved_phi0.copy()
            return -np.inf if (lo_edge is not None and depth > lo_edge) else np.inf
        saved_phi0 = sweeper.phi0.copy()
        return gap

    depth = 0.5
    probe_cap = 60
    for _ in range(80):
        gap = eval_gap(depth, tol_scan, cap=probe_cap)
        if gap == np.inf:
            lo_edge = depth
        elif gap == -np.inf:
            hi_edge = depth
        elif gap > 0:
            d_lo = depth
        else:
            d_hi = depth
        if d_lo is not None and d_hi is not None:
            break
        # choose the next depth to probe
        lo_known = max(x for x in (d_lo, lo_edge) if x is not None) if (
            d_lo is not None or lo_edge is not None
        ) else None
        hi_known = min(x for x in (d_hi, hi_edge) if x is not None) if (
            d_hi is not None or hi_edge is not None
        ) else None
        if lo_known is not None and hi_known is not None:
            depth = float(np.sqrt(lo_known * hi_known))
        elif lo_known is not None:
            depth = lo_known * 2.0
        elif hi_known is not None:
            depth = hi_known * 0.5
        if depth < 1e-10 or depth > 1e10 or (
            hi_known is not None
            and lo_known is not None
            and hi_known - lo_known < 1e-14 * hi_known
        ):
            raise NotTrapped("crossing condition cannot be bracketed in depth")
    if d_lo is None or d_hi is None:
        raise NotTrapped("crossing condition cannot be bracketed in depth")

    depth_root = brentq(
        lambda dd: eval_gap(dd, tol_scan, cap=probe_cap),
        d_lo,
        d_hi,
        xtol=1e-7,
        rtol=1e-7,
    )

    # tight secant polish so the converged shape matches the exact-crossing
    # amplitude to the requested tolerance
    tol_tight = min(p.tol, 1e-10)
    d0 = depth_root
    g0 = eval_gap(d0, tol_tight)
    d1 = d0 * (1.0 - 1e-4)
    g1 = eval_gap(d1, tol_tight)
    for _ in range(12):
        if abs(g1) < 1e-10 or g1 == g0:
            break
        d0, g0, d1 = d1, g1, d1 - g1 * (d1 - d0) / (g1 - g0)
        g1 = eval_gap(d1, tol_tight)
    omega, phi1n, unit, amp_sq = sweeper.converge(
        d1, tol_tight, max(budget - sweeper.sweeps, 8)
    )

    u_r0 = float(np.interp(p.r0, r, unit))
    amp_sq_final = (w2 - omega * omega) / (p.epsilon**2 * w2 * u_r0)
    phi1 = RadialField(grid, np.sqrt(amp_sq_final) * phi1n.values)
    phi0_field = RadialField(grid, p.epsilon * amp_sq_final * unit)
    kappa = RadialField(grid, omega * omega - w2 + p.epsilon * w2 * phi0_field.values)

    sol = TrappedModeSolution(
        params=p,
        omega=float(omega),
        phi0=phi0_field,
        phi1=phi1,
        kappa_sq=kappa,
        residual_eigen=_eigen_residual(phi1, kappa),
        residual_poisson=_poisson_residual(phi0_field, phi1, p.epsilon, w2),
        iterations_used=sweeper.sweeps,
    )
    well = sol.well_parameter()
    if 0.0 < well < 1.0:
        lo = p.omega_hat * float(np.sqrt(1.0 - well))
        if not (lo < sol.omega < p.omega_hat):
            raise NotTrapped(
                f"omega {sol.omega:.6g} outside the trapping window "
                f"({lo:.6g}, {p.omega_hat:.6g})"
            )
    return sol


def _eigen_residual(phi1: RadialField, kappa_sq: RadialField) -> float:
    lap = radial_laplacian(phi1)
    res = lap + kappa_sq.values[1:-1] * phi1.values[1:-1]
    return float(np.max(np.abs(res)) / phi1.max_abs())


def _poisson_residual(phi0, phi1, epsilon, w2) -> float:
    lap = radial_laplacian(phi0)
    src = epsilon * w2 * phi1.values**2
    res = lap + src[1:-1]
    return float(np.max(np.abs(res)) / max(np.max(np.abs(src)), 1e-300))


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
    grid = RadialGrid(sol.grid.r_max / lam, sol.grid.n_points)
    omega_sq = w2 - lam * lam * (w2 - sol.omega**2)
    omega = float(np.sqrt(max(omega_sq, 0.0)))
    phi0 = RadialField(grid, lam * lam * sol.phi0.values)
    phi1 = RadialField(grid, lam * lam * sol.phi1.values)
    kappa = RadialField(grid, omega_sq - w2 + p.epsilon * w2 * phi0.values)
    params = replace(p, r0=p.r0 / lam)
    return TrappedModeSolution(
        params=params,
        omega=omega,
        phi0=phi0,
        phi1=phi1,
        kappa_sq=kappa,
        residual_eigen=_eigen_residual(phi1, kappa),
        residual_poisson=_poisson_residual(phi0, phi1, p.epsilon, w2),
        iterations_used=sol.iterations_used,
    )


# ---------------------------------------------------------------------------
# Multi-mode generalization
# ---------------------------------------------------------------------------

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

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def n_fields(self):
        return self.couplings.shape[0]


@dataclass(frozen=True)
class MultiModeSolution:
    spec: MultiModeSpec
    omegas: tuple
    mode_fields: tuple  # RadialField per mode (amplitude included)
    mean_fields: tuple  # RadialField per mean field
    residual_eigen: tuple
    residual_poisson: tuple
    iterations_used: int


def solve_multimode(
    spec: MultiModeSpec,
    max_iters: int = 600,
    tol: float = 1e-9,
    grid: RadialGrid | None = None,
    relaxation: float = 0.6,
) -> MultiModeSolution:
    """Joint fixed point of the coupled normal-mode and mean-field system.

    Same two-level strategy as the single mode: an inner sweep with every
    mode's central well contribution pinned (contractive), and an outer
    damped Newton iteration on the pinned-depth vector that places each
    kappa_p^2 zero crossing at its prescribed radius.
    """
    if grid is None:
        width = max(
            spec.scale_radii[p] * (1.0 + 0.75 * spec.modes[p][2])
            for p in range(spec.n_modes)
        )
        grid = RadialGrid(max(30.0, 4.0 * width), 2001)
    r = grid.r
    eps = spec.couplings
    n_p = spec.n_modes
    n_a = spec.n_fields
    w_hats = np.array([m[0] for m in spec.modes])
    w2 = w_hats**2
    orders = [m[2] for m in spec.modes]
    eps_gram = eps.T @ eps  # [p, q] = sum_a eps[a,p] eps[a,q]

    state = {
        "phi_a": [
            0.5
            * float(np.sign(np.sum(eps[a]) or 1.0))
            * np.exp(
                -(
                    (
                        r
                        / max(
                            spec.scale_radii[p] * (1.0 + 0.75 * orders[p])
                            for p in range(n_p)
                        )
                    )
                    ** 2
                )
            )
            for a in range(n_a)
        ],
        "omegas": np.full(n_p, np.nan),
        "units": [np.zeros(grid.n_points) for _ in range(n_p)],
        "norms": [None] * n_p,
        "sweeps": 0,
    }

    def snapshot():
        return {
            "phi_a": [v.copy() for v in state["phi_a"]],
            "omegas": state["omegas"].copy(),
        }

    def restore(snap):
        state["phi_a"] = [v.copy() for v in snap["phi_a"]]
        state["omegas"] = snap["omegas"].copy()

    def sweep_once():
        """One eigen + Poisson pass for every mode in the current fields."""
        for pidx in range(n_p):
            well = sum(
                eps[a, pidx] * w2[pidx] * state["phi_a"][a] for a in range(n_a)
            )
            om, phin = _solve_mode(w2[pidx] - well, orders[pidx], w_hats[pidx], grid)
            state["omegas"][pidx] = om
            state["norms"][pidx] = phin
            state["units"][pidx] = solve_radial_poisson(
                RadialField(grid, w2[pidx] * phin.values**2), sign=1
            ).values
        state["sweeps"] += 1

    def converge_inner(amps, tol_inner):
        """Relax the mean-field shapes at fixed squared amplitudes."""
        for _ in range(max_iters):
            if state["sweeps"] >= max_iters:
                raise NoConvergence(f"multimode budget {max_iters} sweeps exhausted")
            sweep_once()
            new_fields = [
                sum(eps[a, q] * amps[q] * state["units"][q] for q in range(n_p))
                for a in range(n_a)
            ]
            d = max(
                float(
                    np.max(np.abs(nv - ov)) / max(np.max(np.abs(nv)), 1e-300)
                )
                for nv, ov in zip(new_fields, state["phi_a"])
            )
            state["phi_a"] = [
                (1.0 - relaxation) * ov + relaxation * nv
                for nv, ov in zip(new_fields, state["phi_a"])
            ]
            if d < tol_inner:
                return new_fields
        raise NoConvergence("multimode inner sweep not converged")

    def gaps_at(amps, tol_inner):
        fields = converge_inner(amps, tol_inner)
        g = np.empty(n_p)
        for pidx in range(n_p):
            well_r0 = sum(
                eps[a, pidx] * float(np.interp(spec.scale_radii[pidx], r, fields[a]))
                for a in range(n_a)
            )
            g[pidx] = well_r0 - (w2[pidx] - state["omegas"][pidx] ** 2) / w2[pidx]
        return g

    # initialize the amplitudes from one seed sweep
    sweep_once()
    depths = np.array(
        [0.5 / max(eps_gram[q, q] * state["units"][q][0], 1e-12) for q in range(n_p)]
    )
    tol_scan = max(1e-6, tol)
    snap = snapshot()
    try:
        g = gaps_at(depths, tol_scan)
    except (NoBracket, NotTrapped) as exc:
        raise NotTrapped(f"multimode seed state unbound: {exc}") from exc
    snap = snapshot()

    for outer in range(60):
        if float(np.max(np.abs(g))) < 10.0 * tol:
            break
        # finite-difference Jacobian of the gap vector in the amplitudes
        J = np.empty((n_p, n_p))
        for q in range(n_p):
            dq = np.zeros(n_p)
            dq[q] = max(1e-6, 0.02 * depths[q])
            try:
                gq = gaps_at(depths + dq, tol_scan)
            except (NoBracket, NotTrapped):
                restore(snap)
                gq = g + 0.5 * np.abs(g)  # crude fallback slope
            J[:, q] = (gq - g) / dq[q]
        step = np.linalg.lstsq(J, -g, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            step = -g * depths / np.maximum(np.abs(g), 1e-6)
        lam = 1.0
        for _ in range(14):
            trial = depths + lam * step
            if np.all(trial > 0):
                try:
                    g_try = gaps_at(trial, tol_scan)
                except (NoBracket, NotTrapped):
                    restore(snap)
                    lam *= 0.5
                    continue
                if float(np.max(np.abs(g_try))) < float(np.max(np.abs(g))) or lam < 0.1:
                    depths, g = trial, g_try
                    snap = snapshot()
                    break
            lam *= 0.5
        else:
            raise NoConvergence(
                "multimode outer Newton stalled",
                residuals={"gap": float(np.max(np.abs(g)))},
            )
    else:
        raise NoConvergence(
            "multimode crossing conditions not met",
            residuals={"gap": float(np.max(np.abs(g)))},
        )

    # tight polish: drive the gaps to zero at full inner tolerance with a
    # few damped Newton steps (the scan-tolerance root is only ~1e-6 deep)
    tol_tight = min(tol, 1e-10)
    g = gaps_at(depths, tol_tight)
    for _ in range(8):
        if float(np.max(np.abs(g))) < 1e-9:
            break
        J = np.empty((n_p, n_p))
        for q in range(n_p):
            dq = np.zeros(n_p)
            dq[q] = max(1e-8, 1e-3 * depths[q])
            gq = gaps_at(depths + dq, tol_tight)
            J[:, q] = (gq - g) / dq[q]
        step = np.linalg.lstsq(J, -g, rcond=None)[0]
        trial = depths + step
        if not np.all(trial > 0):
            trial = np.maximum(depths + 0.25 * step, 0.1 * depths)
        depths = trial
        g = gaps_at(depths, tol_tight)

    # final tight inner pass and exact amplitude fixing from the crossings
    converge_inner(depths, tol_tight)
    sweep_once()
    G = np.empty((n_p, n_p))
    dvec = np.empty(n_p)
    for pidx in range(n_p):
        dvec[pidx] = (w2[pidx] - state["omegas"][pidx] ** 2) / w2[pidx]
        for q in range(n_p):
            uq = float(np.interp(spec.scale_radii[pidx], r, state["units"][q]))
            G[pidx, q] = eps_gram[pidx, q] * uq
    amp_exact = np.linalg.lstsq(G, dvec, rcond=None)[0]
    if np.any(amp_exact <= 0):
        bad = int(np.where(amp_exact <= 0)[0][0])
        raise NotTrapped(f"mode {bad} lost binding: negative squared amplitude")
    mean_out = tuple(
        RadialField(
            grid,
            sum(eps[a, q] * amp_exact[q] * state["units"][q] for q in range(n_p)),
        )
        for a in range(n_a)
    )
    mode_out = tuple(
        RadialField(grid, np.sqrt(amp_exact[q]) * state["norms"][q].values)
        for q in range(n_p)
    )
    omegas = state["omegas"]
    res_e = []
    for pidx in range(n_p):
        kv = omegas[pidx] ** 2 - w2[pidx] + sum(
            eps[a, pidx] * w2[pidx] * mean_out[a].values for a in range(n_a)
        )
        res_e.append(_eigen_residual(mode_out[pidx], RadialField(grid, kv)))
    res_p = []
    for a in range(n_a):
        lap = radial_laplacian(mean_out[a])
        src = sum(eps[a, q] * w2[q] * mode_out[q].values ** 2 for q in range(n_p))
        res_p.append(
            float(np.max(np.abs(lap + src[1:-1])) / max(np.max(np.abs(src)), 1e-300))
        )
    return MultiModeSolution(
        spec=spec,
        omegas=tuple(float(o) for o in omegas),
        mode_fields=mode_out,
        mean_fields=mean_out,
        residual_eigen=tuple(res_e),
        residual_poisson=tuple(res_p),
        iterations_used=state["sweeps"],
    )


# ---------------------------------------------------------------------------
# Fifth-order (asymptotically free) variant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FifthOrderSolution:
    phi0: RadialField
    phi1: RadialField
    phi2: RadialField
    omegas: tuple  # (omega_1, omega_2 = omega_hat_2)
    tail_coefficient: float
    tail_variation: float
    iterations_used: int


def _march_phi2(grid, phi0_vals, eta2, w2_2, amplitude):
    """Outward march of u2'' = -kappa2^2 u2 with the cubic self-interaction
    kappa2^2 = 2 eta2 w2_2 phi0 |phi2|^2 evaluated pointwise."""
    r = grid.r.tolist()
    h = grid.spacing
    n = grid.n_points
    p0 = np.asarray(phi0_vals).tolist()
    coef = 2.0 * eta2 * w2_2
    u = [0.0] * n
    u[1] = amplitude * h
    um, uj = 0.0, u[1]
    h2 = h * h
    for j in range(1, n - 1):
        phi2_j = uj / r[j]
        un = (2.0 - h2 * coef * p0[j] * phi2_j * phi2_j) * uj - um
        u[j + 1] = un
        um, uj = uj, un
    u = np.asarray(u)
    phi2 = np.empty(n)
    phi2[1:] = u[1:] / grid.r[1:]
    phi2[0] = amplitude
    return phi2


def _solve_phi2_flat(grid, phi0_vals, eta2, w2_2, amp_guess):
    """Amplitude of the regular phi2 solution whose far tail is flat in
    r*phi2: too weak keeps growing, too strong bends over toward a node,
    so the critical amplitude is bracketed and bisected on u'(r_max)."""

    def slope(amp):
        phi2 = _march_phi2(grid, phi0_vals, eta2, w2_2, amp)
        u = grid.r * phi2
        return float(u[-1] - u[-2]), phi2

    lo = hi = None
    amp = amp_guess
    s_amp, phi2 = slope(amp)
    for _ in range(60):
        if s_amp > 0:
            lo, amp_next = amp, amp * 2.0
        else:
            hi, amp_next = amp, amp * 0.5
        if lo is not None and hi is not None:
            break
        amp = amp_next
        if amp < 1e-12 or amp > 1e12:
            raise TailNotFree("flat-tail amplitude cannot be bracketed")
        s_amp, phi2 = slope(amp)
    a, b = min(lo, hi), max(lo, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        s_mid, phi2 = slope(mid)
        if s_mid > 0:
            a = mid
        else:
            b = mid
        if b - a < 1e-14 * b:
            break
    return 0.5 * (a + b), phi2


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


def _free_wave_reference(grid, amplitude):
    """Degenerate eta2 = 0 limit: the free radial wave c/r away from r = 0."""
    phi2 = np.empty(grid.n_points)
    c = amplitude * grid.r_max / 4.0
    phi2[1:] = c / grid.r[1:]
    phi2[0] = phi2[1]
    return phi2


def solve_fifth_order(
    omega_hat_1: float,
    omega_hat_2: float,
    eps1: float,
    eta2: float,
    r0: float,
    max_iters: int = 400,
    tol: float = 1e-9,
    grid: RadialGrid | None = None,
    relaxation: float = 0.6,
    phi2_amplitude: float = 0.3,
) -> FifthOrderSolution:
    """Two-mode variant with a fifth-order coupling for the second field.

    phi1 stays exponentially trapped while phi2, run at its limiting
    frequency omega_2 = omega_hat_2, takes the particular solution whose
    far field is asymptotically free (r*phi2 flat); its amplitude is the
    critical value separating unbounded growth of r*phi2 from bending
    toward a node, found by shooting.  The mean field collects both
    intensities.  Inner loop: shape relaxation at a pinned phi1 amplitude;
    outer loop: scalar secant on that amplitude so kappa_1^2 crosses zero
    at r0.  eps1 and eta2 must not have opposite signs; eta2 = 0 reduces
    phi2 to the free radial wave.  phi2_amplitude is only the initial
    shooting guess.
    """
    if eps1 * eta2 < 0:
        raise ValidationError("eps1 and eta2 must have the same sign")
    if grid is None:
        grid = RadialGrid(max(40.0, 8.0 * r0), 2001)
    r = grid.r
    w2_1 = omega_hat_1**2
    w2_2 = omega_hat_2**2

    state = {
        "phi0": (0.5 / eps1) * np.exp(-((r / r0) ** 2)),
        "phi2": _free_wave_reference(grid, phi2_amplitude)
        if eta2 == 0.0
        else np.full(grid.n_points, phi2_amplitude),
        "omega1": np.nan,
        "unit1": np.zeros(grid.n_points),
        "p_eta": np.zeros(grid.n_points),
        "phi1n": None,
        "amp2": phi2_amplitude,
        "sweeps": 0,
    }

    def sweep_once():
        om, phi1n = _solve_mode(
            w2_1 - eps1 * w2_1 * state["phi0"], 0, omega_hat_1, grid
        )
        state["omega1"] = om
        state["phi1n"] = phi1n
        state["unit1"] = solve_radial_poisson(
            RadialField(grid, w2_1 * phi1n.values**2), sign=1
        ).values
        if eta2 != 0.0:
            state["amp2"], state["phi2"] = _solve_phi2_flat(
                grid, state["phi0"], eta2, w2_2, state["amp2"]
            )
            state["p_eta"] = eta2 * solve_radial_poisson(
                RadialField(grid, _decayed_tail(w2_2 * state["phi2"] ** 4, grid)),
                sign=1,
            ).values
        state["sweeps"] += 1

    def converge_inner(amp1_sq, tol_inner):
        for _ in range(max_iters):
            if state["sweeps"] >= max_iters:
                raise NoConvergence("fifth-order sweep budget exhausted")
            sweep_once()
            phi0_new = eps1 * amp1_sq * state["unit1"] + state["p_eta"]
            d = float(
                np.max(np.abs(phi0_new - state["phi0"]))
                / max(np.max(np.abs(phi0_new)), 1e-300)
            )
            state["phi0"] = (1.0 - relaxation) * state["phi0"] + relaxation * phi0_new
            if d < tol_inner:
                return phi0_new
        raise NoConvergence("fifth-order inner sweep not converged")

    def gap_at(amp1_sq, tol_inner):
        phi0_resp = converge_inner(amp1_sq, tol_inner)
        return eps1 * float(np.interp(r0, r, phi0_resp)) - (
            w2_1 - state["omega1"] ** 2
        ) / w2_1

    tol_scan = max(1e-6, tol)
    sweep_once()
    amp = 0.5 / (eps1 * eps1 * max(state["unit1"][0], 1e-12))
    # bracket the phi1 amplitude
    a_lo = a_hi = None
    g_val = gap_at(amp, tol_scan)
    for _ in range(60):
        if g_val > 0:
            a_lo, amp_next = amp, amp * 2.0
        else:
            a_hi, amp_next = amp, amp * 0.5
        if a_lo is not None and a_hi is not None:
            break
        amp = amp_next
        if amp < 1e-12 or amp > 1e12:
            raise NotTrapped("fifth-order crossing cannot be bracketed")
        g_val = gap_at(amp, tol_scan)
    if a_lo is None or a_hi is None:
        raise NotTrapped("fifth-order crossing cannot be bracketed")
    amp = brentq(
        lambda aa: gap_at(aa, tol_scan), min(a_lo, a_hi), max(a_lo, a_hi),
        xtol=1e-10, rtol=1e-10,
    )
    # tight secant polish
    tol_tight = min(tol, 1e-10)
    g0 = gap_at(amp, tol_tight)
    a1 = amp * (1.0 - 1e-4)
    g1 = gap_at(a1, tol_tight)
    a0 = amp
    for _ in range(10):
        if abs(g1) < 1e-10 or g1 == g0:
            break
        a0, g0, a1 = a1, g1, a1 - g1 * (a1 - a0) / (g1 - g0)
        g1 = gap_at(a1, tol_tight)
    amp = a1
    converge_inner(amp, tol_tight)

    omega1 = state["omega1"]
    u_r0 = float(np.interp(r0, r, state["unit1"]))
    amp_final = (
        (w2_1 - omega1 * omega1) / w2_1
        - eps1 * float(np.interp(r0, r, state["p_eta"]))
    ) / (eps1 * eps1 * u_r0)
    if amp_final <= 0:
        raise NotTrapped("phi2 mean field overwhelmed the phi1 well at r0")
    phi1 = RadialField(grid, np.sqrt(amp_final) * state["phi1n"].values)
    phi0_field = RadialField(
        grid, eps1 * amp_final * state["unit1"] + state["p_eta"]
    )
    phi2 = state["phi2"]

    tail = grid.r * phi2
    quarter = tail[3 * grid.n_points // 4 :]
    c = float(np.mean(quarter))
    variation = float(np.max(np.abs(quarter - c)) / abs(c)) if c != 0 else np.inf
    if variation > 0.05:
        raise TailNotFree(
            f"r*phi2 varies by {variation:.1%} over the outer quarter grid"
        )
    return FifthOrderSolution(
        phi0=phi0_field,
        phi1=phi1,
        phi2=RadialField(grid, phi2),
        omegas=(float(omega1), float(omega_hat_2)),
        tail_coefficient=c,
        tail_variation=variation,
        iterations_used=state["sweeps"],
    )
