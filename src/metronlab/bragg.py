"""Bragg-scattering kinematics and wave-trajectory resonance trapping.

Wavenumber four-vectors use the metric diag(1, 1, 1, -1).  A particle of
mass omega0 scattered by a static lattice resonates with its own scattered
wave only when it propagates along the scattered wavenumber; small velocity
perturbations about that direction obey the reduced phase-space system

    dE/ds      = -gamma * E * cos(deltaS + phi)
    ddeltaS/ds = -omega0 * E

whose first integral classifies trajectories into trapped (E -> 0) and
indefinitely oscillatory via B = omega0*E0/gamma - sin(phi) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DegenerateCoupling,
    NoEquilibrium,
    OffShell,
    ValidationError,
    require_finite,
    require_nonnegative,
    require_positive,
)
from .numerics import integrate_ivp

__all__ = [
    "METRIC",
    "minkowski_dot",
    "FourVector",
    "LatticeSpec",
    "BraggTrapState",
    "resonance_direction",
    "bragg_scatter_set",
    "integrate_trap",
    "classify_trapping",
    "equilibrium_phases",
    "classify_sweep",
    "first_integral",
]

METRIC = np.array([1.0, 1.0, 1.0, -1.0])
# Relative tolerance of the (E, deltaS) trajectory integrations
_TRAP_TOL = 1e-11


def minkowski_dot(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(METRIC * a * b))


def FourVector(k1, k2, k3, k4):
    """Convenience constructor: a plain length-4 array with signature
    diag(1,1,1,-1) understood by minkowski_dot."""
    return np.array([k1, k2, k3, k4], dtype=float)


@dataclass(frozen=True)
class LatticeSpec:
    """Static periodic lattice described by its fundamental wavenumbers.

    fundamental_wavenumbers: spatial four-vectors with zero time component.
    dimensionality 2 declares a surface lattice; normal_axis names the free
    direction (0, 1 or 2) whose wavenumber component is a continuum.
    max_order, the largest harmonic index, must be nonnegative.
    """

    fundamental_wavenumbers: tuple
    dimensionality: int = 3
    max_order: int = 3
    normal_axis: int = 2

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.fundamental_wavenumbers)
        object.__setattr__(self, "fundamental_wavenumbers", vecs)
        if self.dimensionality not in (2, 3):
            raise ValidationError("dimensionality must be 2 or 3")
        require_nonnegative(max_order=self.max_order)
        if any(v.shape != (4,) for v in vecs):
            raise ValidationError("lattice wavenumbers must be four-vectors")
        require_finite(lattice_wavenumbers=vecs)
        if any(v[3] != 0.0 for v in vecs):
            raise ValidationError("lattice wavenumbers must be static")
        if self.dimensionality == 2:
            if self.normal_axis not in (0, 1, 2):
                raise ValidationError("normal_axis must be 0, 1 or 2")
            if any(v[self.normal_axis] != 0.0 for v in vecs):
                raise ValidationError("2-D lattice wavenumbers must lie in the lattice plane")

    def harmonics(self):
        """All integer combinations of the fundamentals up to max_order, one
        per row of an (H, 4) array, in lexicographic order of the indices."""
        m = self.max_order
        base = np.array(self.fundamental_wavenumbers, dtype=float).reshape(-1, 4)
        orders = np.array(list(product(range(-m, m + 1), repeat=len(base))), dtype=float)
        # a stack of row-times-matrix products: each row has the bits of the
        # 1-D product orders[h] @ base, which a 2-D matmul does not keep
        return (orders[:, None, :] @ base)[:, 0, :]


@dataclass(frozen=True)
class BraggTrapState:
    """Reduced resonance-trapping state and parameters."""

    E: float
    deltaS: float
    gamma: float
    phi: float
    omega0: float

    def __post_init__(self):
        # a negative gamma is a phase, absorbed in phi
        require_nonnegative(E=self.E, gamma=self.gamma)
        require_finite(deltaS=self.deltaS, phi=self.phi, omega0=self.omega0)


def resonance_direction(k_s, omega0):
    """Unit 4-velocity resonant with the scattered wave: u = k_s / omega0.

    Requires k_s on the free-wave mass shell within 1e-10 relative and
    returns u with u.u = -1; the resonance condition v.u = -1 for unit
    timelike v holds only at v = u.  A k.k or omega0^2 that is not finite
    (a NaN or infinite component, or one whose square overflows) and
    omega0 = 0 are ValidationErrors.
    """
    k_s = np.asarray(k_s, dtype=float)
    omega0 = float(omega0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        norm = minkowski_dot(k_s, k_s)
    require_finite(k_dot_k=norm)
    require_positive(omega0_squared=omega0 * omega0)
    if abs(norm + omega0 * omega0) > 1e-10 * omega0 * omega0:
        raise OffShell(
            f"k.k = {norm:.12g}, expected {-omega0*omega0:.12g}"
        )
    u = k_s / omega0
    return u


def bragg_scatter_set(k_i, lattice: LatticeSpec, omega0):
    """Scattered wavenumbers k_s = k_i + k_l that stay on the mass shell.

    3-D lattices: keep harmonics satisfying the shell condition within
    1e-9 relative (generically only the specular k_l = 0 term survives).
    2-D lattices: the normal component is solved from the shell condition;
    both real roots (outgoing, then ingoing) are kept.  Of wavenumbers that
    several harmonic labels give, the first is kept.  An omega0 whose
    square, or a k_i + k_l whose squared components, leave the float range
    is a ValidationError; so is a non-finite k_i.
    """
    k_i = np.asarray(k_i, dtype=float)
    omega0 = float(omega0)
    require_finite(omega0_square=omega0 * omega0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        k_s = k_i + lattice.harmonics()  # the zero harmonic gives k_i itself
        size = np.sum(k_s * k_s, axis=1)
    if not np.isfinite(size).all():
        raise ValidationError("a scattered wavenumber or its square leaves the float range")
    if not abs(minkowski_dot(k_i, k_i) + omega0 * omega0) <= 1e-9 * omega0 * omega0:
        raise OffShell("incident wavenumber is off the mass shell")
    if lattice.dimensionality == 3:
        shell = np.abs(np.sum(METRIC * k_s * k_s, axis=1) + omega0 * omega0)
        out = k_s[shell <= 1e-9 * omega0**2]
    else:
        ax = lattice.normal_axis
        in_plane = k_s[:, :3].copy()
        in_plane[:, ax] = 0.0
        rem = float(np.sum(k_i[:3] ** 2)) - np.sum(in_plane**2, axis=1)
        real = ~(rem < 0.0)
        root = np.sqrt(rem[real])
        # each harmonic as +root, then as -root where root > 0
        out = np.repeat(k_s[real], 2, axis=0)
        out[:, ax] = np.column_stack([root, -root]).ravel()
        out = out[np.column_stack([np.full(len(root), True), root > 0]).ravel()]
    # a row goes when np.allclose(row, q, atol=1e-12) holds for a kept q
    kept = np.empty_like(out)
    n = 0
    with np.errstate(invalid="ignore"):
        for k in out:
            q = kept[:n]
            close = (np.abs(k - q) <= 1e-12 + 1e-5 * np.abs(q)) & np.isfinite(q) | (k == q)
            if not np.any(np.all(close, axis=1)):
                kept[n] = k
                n += 1
    return list(kept[:n])


def _trap_rhs(state: BraggTrapState):
    g, p, w0 = state.gamma, state.phi, state.omega0

    def rhs(s, y):
        E, dS = y[0], y[1]
        return np.array([-g * E * np.cos(dS + p), -w0 * E])

    return rhs


def integrate_trap(state: BraggTrapState, s_max, tol=_TRAP_TOL):
    """Trajectory of (E, deltaS) from (E0, 0); returns (s, E, deltaS)."""
    res = integrate_ivp(_trap_rhs(state), [state.E, state.deltaS], (0.0, s_max), tol=tol)
    return res.t, res.y[:, 0], res.y[:, 1]


def first_integral(E, deltaS, state: BraggTrapState):
    """E - (gamma/omega0) * [sin(deltaS + phi) - sin(phi)]; equals E0 on
    any exact trajectory; omega0 = 0 leaves it undefined (ValidationError)."""
    g, p, w0 = state.gamma, state.phi, state.omega0
    if w0 == 0:
        raise ValidationError("omega0 = 0: the first integral is undefined")
    return E - (g / w0) * (np.sin(deltaS + p) - np.sin(p))


def trapping_parameter(state: BraggTrapState):
    if state.gamma == 0:
        raise DegenerateCoupling("gamma = 0: oscillatory-degenerate, B undefined")
    return state.omega0 * state.E / state.gamma - np.sin(state.phi)


def classify_trapping(state: BraggTrapState):
    """Verdict from the non-strict criterion B <= 1.

    Returns {"verdict": "Trapped" | "Oscillatory", "B": value}.  gamma = 0
    is refused as DegenerateCoupling (pure phase drift, B undefined).
    """
    B = trapping_parameter(state)
    return {"verdict": "Trapped" if B <= 1.0 else "Oscillatory", "B": float(B)}


def equilibrium_phases(B, phi):
    """The two solutions of sin(deltaS + phi) = -B in [0, 2pi), labeled by
    linearized stability: the equilibrium with cos(deltaS + phi) > 0 damps
    perturbations, the other amplifies them; at tangency (B = +-1) the
    double root is reported twice.  Works elementwise on arrays (a NaN B
    gives NaN phases).

    Returns (deltaS_stable, deltaS_unstable); NoEquilibrium for |B| > 1.
    """
    if np.any(np.abs(B) > 1.0):
        raise NoEquilibrium(f"|B| = {np.max(np.abs(B)):.6g} > 1: no stationary phase")
    base = np.arcsin(-B)  # in [-pi/2, pi/2]
    first = (base - phi) % (2.0 * np.pi)
    second = (np.pi - base - phi) % (2.0 * np.pi)
    swap = (np.cos(first + phi) < 0.0) & (np.cos(second + phi) >= 0.0)
    # [()] turns 0-d results back into scalars
    return np.where(swap, second, first)[()], np.where(swap, first, second)[()]


def trap_verdict_by_integration(state: BraggTrapState):
    """Brute-force classification by integration, used as the oracle.

    Integrates (E, deltaS) from the cell's start over at most s_max (three
    windings at the rate gamma*|B - 1|, at least 200/gamma) and stops at
    the first time deltaS falls through deltaS_0 - 4 pi: a phase that has
    wound through two cycles marks the cell Oscillatory, a run that reaches
    s_max without winding marks it Trapped.  The verdict is whether that
    stop fired, never B.

    Stopping changes no verdict.  dE/ds is proportional to E, so E keeps
    the sign of E0 >= 0; for omega0 > 0, deltaS is then non-increasing, and
    deltaS(s_max) < deltaS_0 - 4 pi exactly when it crossed that level at
    some s <= s_max.  For omega0 <= 0 the phase never falls and the cell
    stays Trapped.  The solver takes the same steps up to the crossing as
    a run to s_max would, so an Oscillatory cell costs only its first two
    windings.

    Returns the verdict, s_max, s_end (where the run ended: s_max, or the
    crossing), the largest first-integral drift along the integrated path,
    and the trajectory (s, E, deltaS).
    """
    B = trapping_parameter(state)
    rate = state.gamma * max(abs(B - 1.0), 2e-3)
    s_max = min(max(200.0 / state.gamma, 6.0 * np.pi / rate), 1e6)
    level = state.deltaS - 4.0 * np.pi
    res = integrate_ivp(_trap_rhs(state), [state.E, state.deltaS], (0.0, s_max),
                        tol=_TRAP_TOL, stop=lambda s, y: y[1] - level)
    s, E, dS = res.t, res.y[:, 0], res.y[:, 1]
    drift = first_integral(E, dS, state) - first_integral(
        E[0], dS[0], state
    )
    return {
        "verdict": "Oscillatory" if res.stopped else "Trapped",
        "s_max": s_max,
        "s_end": float(s[-1]),
        "first_integral_drift": float(np.max(np.abs(drift))),
        "trajectory": (s, E, dS),
    }


def classify_sweep(ratios, phis, gamma=1.0, omega0=1.0):
    """Classification over the grid of ratios omega0*E0/gamma times phases
    phi, vectorised; cells run ratio-major.

    Returns the columns B, phi, verdict, deltaS_stable and deltaS_unstable
    as flat arrays, with NaN phases where |B| > 1.  A cell that
    BraggTrapState refuses (E0 < 0 or a non-finite value) gets the verdict
    "error:ValidationError" and NaN numbers.  gamma and omega0 must pass
    the checks of a single cell (DegenerateCoupling for gamma = 0), and
    omega0 = 0, which leaves E0 undefined, is a ValidationError.
    """
    trapping_parameter(BraggTrapState(E=0.0, deltaS=0.0, gamma=gamma, phi=0.0, omega0=omega0))
    if omega0 == 0:
        raise ValidationError("omega0 = 0: the ratio omega0*E0/gamma does not fix E0")
    ratio = np.asarray(ratios, dtype=float)
    phi = np.asarray(phis, dtype=float)
    E = np.repeat(ratio * gamma / omega0, phi.size)
    phi = np.tile(phi, ratio.size)
    valid = np.isfinite(E) & np.isfinite(phi) & (E >= 0)
    with np.errstate(invalid="ignore"):
        B = np.where(valid, omega0 * E / gamma - np.sin(phi), np.nan)
    stable, unstable = equilibrium_phases(np.where(np.abs(B) <= 1.0, B, np.nan), phi)
    verdict = np.where(B <= 1.0, "Trapped", "Oscillatory")
    return {
        "B": B,
        "phi": phi,
        "verdict": np.where(valid, verdict, "error:ValidationError"),
        "deltaS_stable": stable,
        "deltaS_unstable": unstable,
    }
