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
    require_finite,
    require_nonnegative,
    require_positive,
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
    lines = tuple((n, omega_bar + n * Omega, complex(np.mean(mm * np.exp(-1j * n * Omega * tt))))
                  for n in range(-n_lines, n_lines + 1))
    return ForcingSpectrum(omega_bar=float(omega_bar), Omega=float(Omega), lines=lines)


def mode_response(lines, omega_p, mu, t, response):
    """Superpose the per-line response amplitudes at time t.

    response kinds: "stationary" uses -i/(omega_n - omega_p) and refuses
    exact resonance; "nonstationary" uses -i (1 - exp(-i w t))/w with the
    secular value t at w = 0; "damped" uses 1/(i w + mu).  The phases,
    up to (max |omega_n| + |omega_p|) |t|, must stay in the float range.
    """
    require_finite(omega_p=omega_p, t=t)
    require_nonnegative(mu=mu)
    if response not in ("stationary", "nonstationary", "damped"):
        raise ValidationError(f"unknown response kind {response!r}")
    with np.errstate(over="ignore"):  # an overflow is inf, refused here
        require_finite(largest_phase=(max((abs(o) for _, o, _ in lines), default=0.0)
                                      + abs(omega_p)) * abs(t))
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
        else:
            delta = 1.0 / (1j * w + mu)
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
    and C3 = mu^2/beta^2 derived from the forcing constants.  C3 must be
    nonnegative, and the discriminant C1^2 + C2 - C3 of the equilibria
    finite.
    """

    d: float
    C1: float
    C2: float
    C3: float

    def __post_init__(self):
        require_finite(d=self.d, C1=self.C1, C2=self.C2)
        require_nonnegative(C3=self.C3)
        with np.errstate(over="ignore"):  # an overflow is inf, refused here
            require_finite(discriminant=self.C1 * self.C1 + self.C2 - self.C3)

    @classmethod
    def from_primitives(cls, d, alpha, gamma, beta, mu):
        """The model of the forcing constants; beta * d = 0 leaves C1 and C2
        undefined (ValidationError), as does beta^2 * d underflowing to 0."""
        require_finite(d=d, alpha=alpha, gamma=gamma, beta=beta, mu=mu)
        if beta * d == 0 or beta * beta * d == 0:
            raise ValidationError("beta * d = 0: C1 and C2 are undefined")
        ag = complex(alpha) * gamma
        ratio = mu / beta  # its square overflows to inf, which the constructor refuses
        return cls(d=d, C1=ag.imag / (2.0 * beta * d), C2=mu * ag.real / (beta * beta * d),
                   C3=ratio * ratio)


def drift_rhs(model: OrbitDriftModel, delta_r):
    """Right-hand side of the reduced drift equation.  At its pole,
    deltar^2 + C3 = 0 (only C3 = 0, deltar = 0), it is inf or nan, without
    a floating-point warning; callers decide what a non-finite rate means."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _drift_rate(model, np.asarray(delta_r, dtype=float))


def _drift_rate(model, dr):
    """drift_rhs of a float array, outside any errstate: the integrator's
    right-hand side, called once per stage, runs inside integrate_ivp's."""
    return model.d * (-1.0 + (2.0 * model.C1 * dr + model.C2) / (dr * dr + model.C3))


def drift_equilibria(model: OrbitDriftModel):
    """Both equilibrium offsets with their stability labels.

    The rate is -d (deltar - r_-)(deltar - r_+) / (deltar^2 + C3) with
    r_+- = C1 +- s, s = sqrt(C1^2 + C2 - C3); its slope is 2 d s / (.) at r_-
    and -2 d s / (.) at r_+, so r_+ is Stable for d > 0 and r_- for d < 0,
    read off the signs (d s can underflow), and a double root (s = 0) is
    Unstable.  Raises ComplexRoots for a negative discriminant.
    """
    disc = model.C1**2 + model.C2 - model.C3
    if disc < 0:
        raise ComplexRoots(f"discriminant {disc:.6g} < 0")
    s = float(np.sqrt(disc))
    return [(float(model.C1 - s), "Stable" if model.d < 0 and s > 0 else "Unstable"),
            (float(model.C1 + s), "Stable" if model.d > 0 and s > 0 else "Unstable")]


# A start within this distance of a stable root r, relative to max(1, |r|),
# is settled: integrate_drift ends the run there unless asked for the full path
_SETTLE = 1e-9


def integrate_drift(model: OrbitDriftModel, delta_r0, t_max, *, full_path=False):
    """Integrate the drift; verdict TrappedAt(root) or Escaped(direction).

    delta_r0 is one start or a 1-D array of starts; the starts evolve
    independently and are integrated together as one state vector.  Each
    final offset within 1e-6 of a stable equilibrium is TrappedAt that
    root; any other is Escaped in the direction the drift points there.
    Returns one dict for a scalar start and a list of dicts, in start
    order, for an array; each holds the verdict, the shared times "t" and
    that start's path "delta_r".

    The run ends once every start is settled, within delta =
    1e-9 max(1, |r|) of the stable root r; "t" and "delta_r" end there.  The
    rate is -d (deltar - r_-)(deltar - r_+) / (deltar^2 + C3), so on a band
    |deltar - r| <= delta holding no other root and no pole it points
    toward r from both sides, and a 1-D flow cannot leave it (Strogatz,
    Nonlinear Dynamics and Chaos, 1994, ch. 2): the verdict at t_max is the
    same.  A batch whose starts all lie in the band already is settled at
    t = 0, without a step.  Where delta is not below half the root
    distance, or at C3 = 0 the band reaches the pole 0, the run goes to
    t_max.  full_path=True always runs to t_max, for callers that keep the
    path, such as orbit-drift's drift_path.csv.
    """
    starts = np.asarray(delta_r0, dtype=float)
    if starts.ndim > 1:
        raise ValidationError("delta_r0 must be a scalar or a 1-D array of starts")
    try:
        eq = drift_equilibria(model)
    except ComplexRoots:
        eq = []
    stable = [root for root, label in eq if label == "Stable"]

    def rhs(t, y):
        return _drift_rate(model, y)

    settle = None
    if stable and not full_path:
        root = stable[0]
        band = _SETTLE * max(1.0, abs(root))
        if band < 0.5 * (eq[1][0] - eq[0][0]) and (model.C3 > 0 or abs(root) > band):
            def settle(t, y):
                return np.max(np.abs(y - root)) - band

    # the stop fires on a falling crossing of the band, which a start inside
    # it never makes: a batch settled at the start ends there
    settled = settle is not None and settle(0.0, starts) <= 0
    res = integrate_ivp(rhs, starts, (0.0, 0.0 if settled else t_max), tol=1e-10, stop=settle)
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
        require_finite(A1=self.A1, A2=self.A2, A12=self.A12, K=self.K, mu1=self.mu1,
                       mu2=self.mu2, gamma_f=self.gamma_f, beta_dr=self.beta_dr)
        # the invariants and the exchange rate |K A| are built from squared moduli
        require_finite(sum_of_squared_moduli=sum(abs(complex(v)) * abs(complex(v))
                                                 for v in (self.A1, self.A2, self.A12, self.K)))


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
    |A1|^2 + |A2|^2 and |A2|^2 - |A12|^2; an overflow or NaN passes through
    without a warning."""
    with np.errstate(all="ignore"):
        return np.abs(A1) ** 2 + np.abs(A2) ** 2, np.abs(A2) ** 2 - np.abs(A12) ** 2


def pair_growth_rate(K, A1, mu):
    """Growth rate of the seeded (A2, A12) pair at fixed A1:
    nu = -mu/2 + sqrt((mu/2)^2 + |K A1|^2), with the root taken by hypot, so
    neither square can overflow."""
    require_finite(K=K, A1=A1, mu=mu)
    return -mu / 2.0 + np.hypot(mu / 2.0, abs(K * A1))


# ---------------------------------------------------------------------------
# Stochastic variance transport
# ---------------------------------------------------------------------------

def evolve_variances(N1_0, N2_0, K_prime, mu1, mu2, t):
    """Closed form of
        dN1/dt - 2 mu1 N1 = K' (N2 - N1)
        dN2/dt - 2 mu2 N2 = K' (N1 - N2)
    via the eigen-decomposition of the constant 2x2 system matrix, which is
    symmetric, so its eigenvectors are orthonormal.  A non-finite time is
    a ValidationError; a variance beyond the float range is NonFiniteState.
    """
    require_finite(mu1=mu1, mu2=mu2)
    require_nonnegative(N1_0=N1_0, N2_0=N2_0, K_prime=K_prime)
    t = np.asarray(t, dtype=float)
    require_finite(times=t)
    lam, Q = np.linalg.eigh([[2.0 * mu1 - K_prime, K_prime],
                             [K_prime, 2.0 * mu2 - K_prime]])
    y0 = np.array([N1_0, N2_0], dtype=float)
    # Q diag(e^{lam t}) Q^T = e0 I + (e1 - e0) q1 q1^T with lam ascending: y0
    # itself at t = 0, and for y0 >= 0 a sum of two nonnegative terms (q1 is
    # the Perron vector), so every N keeps its relative accuracy
    q1 = Q[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        e0, e1 = np.exp(np.multiply.outer(lam, np.atleast_1d(t)))
        N = y0[:, None] * e0 + np.outer(q1 * (q1 @ y0), e1 - e0)
    if not np.isfinite(N).all():
        raise NonFiniteState("a variance overflows the float range")
    if t.ndim == 0:
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
    relation.  Natural units: c = 1, so m c^2 = m.  A zero or non-finite
    omega'_p, a mass that is not positive and finite, or a non-finite E_p
    or omega0 is a ValidationError.
    """
    require_finite(E_p=E_p, omega0=omega0)
    require_positive(m=m, **{"|omega'_p|": abs(omega_prime_p)})
    return abs(omega_prime_p - E_p * omega0 / m) / abs(omega_prime_p)
