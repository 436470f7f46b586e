"""Orbit-resonance machinery: eigenmode forcing and response, circular-orbit
drift trapping, the Bohr-condition check, three-mode radiative transitions
and stochastic variance transport.

All quantities are in natural units (c = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexRoots,
    GridMismatch,
    InvalidSamples,
    NonFiniteState,
    ResonanceSingularity,
    ValidationError,
)
from .numerics import integrate_ivp

__all__ = [
    "OrbitDriftModel",
    "ThreeModeState",
    "ForcingSpectrum",
    "central_frequency",
    "forcing_spectrum",
    "mode_response",
    "drift_equilibria",
    "drift_rhs",
    "integrate_drift",
    "integrate_three_mode",
    "evolve_variances",
    "bohr_check",
]


# ---------------------------------------------------------------------------
# Forcing spectrum of an orbiting source
# ---------------------------------------------------------------------------

def central_frequency(u4_samples, T, omega_e):
    """Mean phase rate over one orbital period.

    omega_bar = omega_e * T^-1 * Int_0^T [u4(t)]^-1 dt by trapezoidal
    quadrature; u4 is the Lorentz factor along the orbit and must satisfy
    u4 >= 1 everywhere.
    """
    u4 = np.asarray(u4_samples, dtype=float)
    if np.any(u4 < 1.0):
        raise InvalidSamples("u4 < 1 is not a Lorentz factor")
    t = np.linspace(0.0, T, len(u4))
    return omega_e / T * float(np.trapezoid(1.0 / u4, t))


@dataclass(frozen=True)
class ForcingSpectrum:
    """Line spectrum of the assembled forcing over one orbital period."""

    omega_bar: float
    Omega: float
    lines: tuple  # of (n, omega_n, gamma_pn)

    def reconstruct(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for n, omega_n, g in self.lines:
            out += g * np.exp(1j * (omega_n - self.omega_bar) * t)
        return out


def forcing_spectrum(modulation, phase, T):
    """Split-line decomposition of gamma_p(t) * exp(i deltaS(t)).

    deltaS(t) = [S(t) - S(0)] - (t/T) [S(T) - S(0)] removes the secular
    phase; the periodic remainder is Fourier analyzed at the orbital
    harmonics omega_bar + n*Omega.  Both series must share one uniform
    grid covering exactly one period (last sample at t = T).
    """
    g = np.asarray(modulation, dtype=complex)
    S = np.asarray(phase, dtype=float)
    if g.shape != S.shape or g.ndim != 1:
        raise GridMismatch("modulation and phase must share one sampling grid")
    n_samp = len(g)
    t = np.linspace(0.0, T, n_samp)
    omega_bar = (S[-1] - S[0]) / T
    delta_s = (S - S[0]) - (t / T) * (S[-1] - S[0])
    m = g * np.exp(1j * delta_s)
    # periodic Fourier coefficients via trapezoid = plain mean on [0, T)
    mm = m[:-1]
    tt = t[:-1]
    Omega = 2.0 * np.pi / T
    n_lines = (n_samp - 1) // 2
    lines = []
    for n in range(-n_lines, n_lines + 1):
        cn = np.mean(mm * np.exp(-1j * n * Omega * tt))
        lines.append((n, omega_bar + n * Omega, complex(cn)))
    return ForcingSpectrum(omega_bar=float(omega_bar), Omega=float(Omega), lines=tuple(lines))


def mode_response(lines, omega_p, mu, t, response="auto"):
    """Superpose the per-line response amplitudes at time t.

    response kinds: "stationary" uses -i/(omega_n - omega_p) and refuses
    exact resonance; "nonstationary" uses -i (1 - exp(-i w t))/w with the
    secular value t at w = 0; "damped" uses 1/(i w + mu).  "auto" picks
    damped when mu > 0 and nonstationary otherwise.
    """
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
    if response == "auto":
        response = "damped" if mu > 0 else "nonstationary"
    a = 0.0 + 0.0j
    for n, omega_n, g in lines:
        w = omega_n - omega_p
        if response == "stationary":
            if w == 0:
                raise ResonanceSingularity(
                    "stationary response requested exactly on resonance"
                )
            delta = -1j / w
        elif response == "nonstationary":
            delta = t if w == 0 else -1j * (1.0 - np.exp(-1j * w * t)) / w
        elif response == "damped":
            delta = 1.0 / (1j * w + mu)
        else:
            raise ValidationError(f"unknown response kind {response!r}")
        a += delta * g * np.exp(1j * omega_n * t)
    return a


# ---------------------------------------------------------------------------
# Circular-orbit drift trapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitDriftModel:
    """Reduced drift model near one resonant radius.

    The rate of change of the orbit offset deltar = r - r_p is

        d(deltar)/dt = d * { -1 + (2*C1*deltar + C2) / (deltar^2 + C3) },

    with C1 = Im(alpha*gamma)/(2*beta*d), C2 = mu*Re(alpha*gamma)/(beta^2*d)
    and C3 = mu^2/beta^2 derived from the forcing constants.
    """

    d: float
    C1: float
    C2: float
    C3: float
    alpha: complex | None = None
    gamma: float | None = None
    beta: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if not np.isfinite([self.d, self.C1, self.C2, self.C3]).all():
            raise ValidationError("d, C1, C2 and C3 must be finite")
        if self.C3 < 0:
            raise ValidationError("C3 = mu^2/beta^2 must be nonnegative")
        if self.alpha is not None:
            derived = OrbitDriftModel.coefficients(
                self.d, self.alpha, self.gamma, self.beta, self.mu
            )
            for got, want, name in zip(
                (self.C1, self.C2, self.C3), derived, ("C1", "C2", "C3")
            ):
                if got != want:
                    raise ValidationError(
                        f"stored {name} = {got} disagrees with its primitives ({want})"
                    )

    @staticmethod
    def coefficients(d, alpha, gamma, beta, mu):
        ag = complex(alpha) * gamma
        return (ag.imag / (2.0 * beta * d), mu * ag.real / (beta * beta * d), (mu / beta) ** 2)

    @classmethod
    def from_primitives(cls, d, alpha, gamma, beta, mu):
        C1, C2, C3 = cls.coefficients(d, alpha, gamma, beta, mu)
        return cls(d=d, C1=C1, C2=C2, C3=C3, alpha=complex(alpha), gamma=gamma, beta=beta, mu=mu)


def drift_rhs(model: OrbitDriftModel, delta_r):
    """Right-hand side of the reduced drift equation.  At its pole,
    deltar^2 + C3 = 0 (only C3 = 0, deltar = 0), it is inf or nan, without
    a floating-point warning; callers decide what a non-finite rate means."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _drift_rate(model, np.asarray(delta_r, dtype=float))


def _drift_rate(model, dr):
    """drift_rhs of a float array, outside any errstate: the integrator's
    right-hand side, called once per stage, runs inside integrate_ivp's."""
    return model.d * (-1.0 + (2.0 * model.C1 * dr + model.C2) / (dr * dr + model.C3))


def drift_equilibria(model: OrbitDriftModel):
    """Both equilibrium offsets with linearized stability labels.

    Roots delta_r = C1 +- sqrt(C1^2 + C2 - C3); each is labeled Stable or
    Unstable by the sign of d(RHS)/d(deltar) there.  Raises ComplexRoots
    for a negative discriminant.
    """
    disc = model.C1**2 + model.C2 - model.C3
    if disc < 0:
        raise ComplexRoots(f"discriminant {disc:.6g} < 0")
    s = float(np.sqrt(disc))
    out = []
    for root in (model.C1 - s, model.C1 + s):
        slope = _drift_slope(model, root)
        out.append((float(root), "Stable" if slope < 0 else "Unstable"))
    return out


def _drift_slope(model, root, h=None):
    if h is None:
        h = 1e-7 * max(1.0, abs(root))
    return float((drift_rhs(model, root + h) - drift_rhs(model, root - h)) / (2 * h))


def integrate_drift(model: OrbitDriftModel, delta_r0, t_max, tol=1e-10):
    """Integrate the drift; verdict TrappedAt(root) or Escaped(direction).

    delta_r0 is one start or a 1-D array of starts; the starts evolve
    independently and are integrated together as one state vector.  Each
    final offset within 1e-6 of a stable equilibrium is TrappedAt that
    root; any other is Escaped in the direction the drift points there.
    Returns one dict for a scalar start and a list of dicts, in start
    order, for an array; each holds the verdict, the shared times "t" and
    that start's path "delta_r".
    """
    starts = np.asarray(delta_r0, dtype=float)
    if starts.ndim > 1:
        raise ValidationError("delta_r0 must be a scalar or a 1-D array of starts")
    try:
        stable = [root for root, label in drift_equilibria(model) if label == "Stable"]
    except ComplexRoots:
        stable = []

    def rhs(t, y):
        return _drift_rate(model, y)

    res = integrate_ivp(rhs, starts, (0.0, t_max), tol=tol)
    out = []
    for path in res.y.T:
        final = float(path[-1])
        near = [r for r in stable if abs(final - r) < 1e-6 * max(1.0, abs(r))]
        if near:
            verdict = {"verdict": "TrappedAt", "root": near[0]}
        else:
            rate = drift_rhs(model, final)
            if not np.isfinite(rate):
                raise NonFiniteState(f"drift rate at delta_r = {final:.6g} is not finite "
                                     "(the pole of the drift)")
            direction = "inward" if rate < 0 else "outward"
            verdict = {"verdict": "Escaped", "direction": direction}
        out.append({**verdict, "t": res.t, "delta_r": path})
    return out[0] if starts.ndim == 0 else out


# ---------------------------------------------------------------------------
# Three-mode radiative transitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeModeState:
    """Amplitudes and couplings of the resonant mode-mode-field triplet."""

    A1: complex
    A2: complex
    A12: complex
    K: complex
    mu1: float = 0.0
    mu2: float = 0.0
    gamma_f: float = 0.0
    beta_dr: float = 0.0

    def __post_init__(self):
        for v in (self.A1, self.A2, self.A12, self.K, self.mu1, self.mu2, self.gamma_f,
                  self.beta_dr):
            if not np.isfinite(complex(v)):
                raise ValidationError("amplitudes, coupling, damping and forcing must be finite")


def integrate_three_mode(state: ThreeModeState, mode="Emission", t_max=10.0, tol=1e-11,
                         samples=2001):
    """Coupled evolution of (A1, A2, A12).

        dA1/dt + mu1 A1 = i K A12 A2 + gamma_f exp(i beta_dr t)
        dA2/dt + mu2 A2 = i K* A12* A1
        dA12/dt         = i K* A1 A2*      (Emission only)

    In PrescribedField mode A12 is held fixed.  Returns (t, A1, A2, A12) at
    `samples` uniform times from 0 to t_max, read from the integrator's
    dense output.  The default of 2001 samples resolves the exchange period
    2 pi / |K A|: a span of |K| t_max = 100 at unit amplitude holds about 16
    periods, so each still gets over 100 samples, and the minima and peaks
    of the exchange can be read off the samples to 1/2000 of the span.
    """
    if mode not in ("Emission", "PrescribedField"):
        raise ValidationError("mode must be Emission or PrescribedField")
    K = complex(state.K)
    gf = state.gamma_f
    bdr = state.beta_dr
    emission = mode == "Emission"

    def rhs(t, y):
        A1, A2, A12 = y[0], y[1], y[2]
        dA1 = -state.mu1 * A1 + 1j * K * A12 * A2 + gf * np.exp(1j * bdr * t)
        dA2 = -state.mu2 * A2 + 1j * np.conj(K) * np.conj(A12) * A1
        dA12 = 1j * np.conj(K) * A1 * np.conj(A2) if emission else 0.0j
        return np.array([dA1, dA2, dA12])

    t_eval = np.linspace(0.0, t_max, samples)
    if not np.diff(t_eval).all():  # linspace repeats a time when t_max is tiny
        raise ValidationError(f"t_max = {t_max} cannot hold {samples} distinct sample times")
    y0 = np.array([state.A1, state.A2, state.A12], dtype=complex)
    res = integrate_ivp(rhs, y0, (0.0, t_max), tol=tol, t_eval=t_eval)
    return res.t, res.y[:, 0], res.y[:, 1], res.y[:, 2]


def manley_rowe(A1, A2, A12):
    """The two quadratic invariants of the undamped, unforced system:
    |A1|^2 + |A2|^2 and |A2|^2 - |A12|^2."""
    return np.abs(A1) ** 2 + np.abs(A2) ** 2, np.abs(A2) ** 2 - np.abs(A12) ** 2


def pair_growth_rate(K, A1, mu):
    """Growth rate of the seeded (A2, A12) pair at fixed A1:
    nu = -mu/2 + sqrt((mu/2)^2 + |K A1|^2)."""
    return -mu / 2.0 + np.sqrt((mu / 2.0) ** 2 + abs(K * A1) ** 2)


# ---------------------------------------------------------------------------
# Stochastic variance transport
# ---------------------------------------------------------------------------

def evolve_variances(N1_0, N2_0, K_prime, mu1, mu2, t):
    """Closed form of
        dN1/dt - 2 mu1 N1 = K' (N2 - N1)
        dN2/dt - 2 mu2 N2 = K' (N1 - N2)
    via the eigen-decomposition of the constant 2x2 system matrix.
    """
    if K_prime < 0:
        raise ValidationError("K_prime must be nonnegative")
    if N1_0 < 0 or N2_0 < 0:
        raise ValidationError("variances must be nonnegative")
    a = 2.0 * mu1 - K_prime
    dcoef = 2.0 * mu2 - K_prime
    b = K_prime
    tr = a + dcoef
    disc = np.sqrt((a - dcoef) ** 2 / 4.0 + b * b)
    lam1 = tr / 2.0 + disc
    lam2 = tr / 2.0 - disc
    y0 = np.array([N1_0, N2_0], dtype=float)
    if lam1 == lam2:
        # equal damping: the coupling matrix is symmetric with b >= 0, so
        # this happens only when b = 0 and mu1 = mu2
        scale = np.exp(lam1 * np.asarray(t))
        return y0[0] * scale, y0[1] * scale
    v1 = np.array([b, lam1 - a]) if b != 0 else np.array([1.0, 0.0])
    v2 = np.array([b, lam2 - a]) if b != 0 else np.array([0.0, 1.0])
    M = np.column_stack([v1, v2])
    c = np.linalg.solve(M, y0)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    N = (
        c[0] * v1[:, None] * np.exp(lam1 * t)
        + c[1] * v2[:, None] * np.exp(lam2 * t)
    )
    if scalar:
        return float(N[0, 0]), float(N[1, 0])
    return N[0], N[1]


# ---------------------------------------------------------------------------
# Bohr correspondence
# ---------------------------------------------------------------------------

def bohr_check(omega_prime_p, E_p, omega0, m):
    """Relative mismatch |omega'_p - E_p * omega0 / (m c^2)| / |omega'_p|.

    With m c^2 = hbar * omega0 the resonance condition omega_bar = omega_p
    is equivalent to E_p = hbar * omega'_p, so a vanishing residual means
    the orbit energy and the wave eigenfrequency satisfy the quantum
    relation.  Natural units: c = 1, so m c^2 = m.
    """
    return abs(omega_prime_p - E_p * omega0 / m) / abs(omega_prime_p)
