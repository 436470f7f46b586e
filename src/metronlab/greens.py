"""Klein-Gordon interaction kernels: retarded/advanced/time-symmetric
variants, far-field asymptotics, pairwise momentum exchange along sampled
world lines, and the absorber damping / spectral-transport formulas.

Kernel variants are named "retarded", "advanced" and "symmetric"; the
symmetric kernel is half the sum of the other two and is the unique choice
that conserves pairwise 4-momentum.  KERNEL_KINDS maps each name to its
(retarded, advanced) branch weights, and every kernel evaluation sums its
two causal branches with them, skipping a branch of weight zero.  The
exception is momentum_exchange, whose symmetric kernel is the unmasked
Gaussian: a weighted sum of the two causal masks would drop the pairs at
equal time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    KernelUnresolved,
    OriginSingular,
    QuadratureNotConverged,
    SuperluminalCone,
    ValidationError,
)
from .bragg import METRIC

__all__ = [
    "KERNEL_KINDS",
    "DispersionParams",
    "WorldLine",
    "greens_nondispersive",
    "convolve_nondispersive",
    "greens_dispersive",
    "greens_stationary_phase",
    "momentum_exchange",
    "response_delta",
    "damping_coefficient",
    "freewave_growth",
    "absorber_balance",
]

KERNEL_KINDS = {"retarded": (1.0, 0.0), "advanced": (0.0, 1.0), "symmetric": (0.5, 0.5)}


def _branch_weights(kind):
    """(retarded, advanced) weights of a kernel kind."""
    if kind not in KERNEL_KINDS:
        raise ValidationError(f"kind must be one of {tuple(KERNEL_KINDS)}")
    return KERNEL_KINDS[kind]


@dataclass(frozen=True)
class DispersionParams:
    """omega_k^2 = omega_hat^2 + k^2 with a quadrature cutoff."""

    omega_hat: float
    k_max: float = 60.0

    def __post_init__(self):
        with np.errstate(over="ignore"):
            squares_finite = np.isfinite(np.square([self.omega_hat, self.k_max])).all()
        if not (self.omega_hat >= 0 and self.k_max > 0 and squares_finite):
            raise ValidationError("omega_hat >= 0 and k_max > 0 required, with finite squares")

    def omega_k(self, k):
        return np.sqrt(self.omega_hat**2 + np.asarray(k) ** 2)


# ---------------------------------------------------------------------------
# Non-dispersive light-cone kernel
# ---------------------------------------------------------------------------

def greens_nondispersive(r, t, kind):
    """Distributional descriptor of the massless kernel.

    The retarded kernel is supported on r = t (t > 0) with weight
    -1/(2 pi r), the advanced one on r = -t (t < 0); the symmetric kernel
    carries both supports at half weight.  Returns a dict with the support
    residual(s) and weight(s).
    """
    w_ret, w_adv = _branch_weights(kind)
    if r <= 0:
        raise OriginSingular("kernel evaluated at r = 0")
    weight = -1.0 / (2.0 * np.pi * r)
    branches = [
        {"branch": name, "on_support": on_support, "residual": residual, "weight": w * weight}
        for name, w, on_support, residual in (("retarded", w_ret, t > 0, r - t),
                                              ("advanced", w_adv, t < 0, r + t))
        if w
    ]
    return {"r": r, "t": t, "kind": kind, "branches": branches}


def convolve_nondispersive(source, r, t_grid, kind="retarded", delta_width=0.02):
    """Field of a point source s(t) at the origin, by explicit quadrature
    against the light-cone kernel mollified to a Gaussian of width
    delta_width in its support argument.

    The closed-form (method of characteristics) answer for the retarded
    branch is -s(t - r) / (2 pi r).
    """
    weights = _branch_weights(kind)
    if r <= 0:
        raise OriginSingular("field evaluated at r = 0")
    t_grid = np.asarray(t_grid, dtype=float)
    width = t_grid[-1] - t_grid[0]
    # the source-time grid must resolve the mollified delta
    n_tp = int(np.ceil(3.0 * width / (delta_width / 8.0)))
    tp = np.linspace(t_grid[0] - width, t_grid[-1] + width, max(n_tp, 8 * len(t_grid)))
    s_vals = source(tp)
    out = np.zeros_like(t_grid)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * delta_width)
    for i, t in enumerate(t_grid):
        acc = 0.0
        # the advanced branch is the retarded one in the mirrored delay -tau
        for w, delay in zip(weights, (t - tp, tp - t)):
            if w:
                sel = delay > 0
                acc += w * np.trapezoid(
                    norm * np.exp(-((r - delay[sel]) ** 2) / (2 * delta_width**2)) * s_vals[sel],
                    tp[sel],
                )
        out[i] = -acc / (2.0 * np.pi * r)
    return out


# ---------------------------------------------------------------------------
# Dispersive kernel: windowed oscillatory quadrature and asymptotics
# ---------------------------------------------------------------------------

def _dispersive_integral(r, t, params, k_window):
    """Int [cos(kr - w_k t) - cos(kr + w_k t)] (k/w_k) W(k) dk with the
    smooth window W = exp(-(k/k_window)^8); the integration range extends
    to 1.8 * k_window where the window has fallen below 1e-40, so no
    truncation ringing survives."""
    k_end = 1.8 * k_window
    n = int(min(max(4096.0, 40 * k_end * max(r, abs(t), 1.0) / (2 * np.pi)), 4_000_000))
    k = np.linspace(0.0, k_end, n)
    wk = params.omega_k(k)
    window = np.exp(-((k / k_window) ** 8))
    integrand = (np.cos(k * r - wk * t) - np.cos(k * r + wk * t)) * np.where(
        wk > 0, k / np.where(wk > 0, wk, 1.0), 0.0
    ) * window
    return float(np.trapezoid(integrand, k))


def _dispersive_branch_weight(r, t, params, kind):
    """Weight of the branch whose support holds t (retarded t > 0, advanced
    t < 0), after the input checks both dispersive kernels share."""
    w_ret, w_adv = _branch_weights(kind)
    if r <= 0:
        raise OriginSingular("kernel evaluated at r = 0")
    if params.omega_hat <= 0:
        raise ValidationError("dispersive kernel needs omega_hat > 0")
    if t == 0:
        raise ValidationError("|t| must be positive")
    return w_ret if t > 0 else w_adv


def greens_dispersive(r, t, params: DispersionParams, kind):
    """Massive kernel by filtered oscillatory quadrature.

    Retarded support t > 0, advanced t < 0, symmetric the half-sum.  The
    advanced branch is the time mirror of the retarded one: the integrand
    only swaps its two cosines under t -> -t, so I(-t) = -I(t) holds bit for
    bit and each branch is the retarded value at |t|.  The integral is
    evaluated at the configured cutoff and at 0.8x the cutoff;
    QuadratureNotConverged is raised when the two differ by more than 1e-4
    relative.  It is raised before any quadrature when the largest phase,
    max(k_max r, omega(k_max) |t|), has an ulp above 1 rad: no cutoff can
    converge an integrand whose phase has no significant digits.
    """
    w = _dispersive_branch_weight(r, t, params, kind)
    if not w:
        return 0.0
    phase = max(params.k_max * float(r),
                math.hypot(params.omega_hat, params.k_max) * abs(float(t)))
    if not math.ulp(phase) <= 1.0:
        raise QuadratureNotConverged(
            f"phase {phase:.3g} rad at the cutoff has no significant digits at (r={r}, t={t})"
        )
    i1 = _dispersive_integral(r, abs(t), params, params.k_max)
    i2 = _dispersive_integral(r, abs(t), params, 0.8 * params.k_max)
    scale = max(abs(i1), abs(i2), 1e-30)
    if not abs(i1 - i2) <= 1e-4 * scale:  # a NaN integral fails too
        raise QuadratureNotConverged(
            f"cutoff sensitivity {abs(i1 - i2) / scale:.2e} at (r={r}, t={t})"
        )
    return w * (-i1 / ((2.0 * np.pi) ** 2 * r))


def greens_stationary_phase(r, t, params: DispersionParams, kind):
    """Far-field asymptotics of the dispersive kernel on the interior cone.

    The stationary wavenumber k0 = omega_hat*v/sqrt(1-v^2) with v = r/|t|
    dominates; the phase curvature omega''(k0) = omega_hat^2/omega_0^3
    gives

        G ~= -(2 pi)^-2 (1/r) (k0/omega_0) sqrt(2 pi/(omega'' |t|))
             * cos(k0 r - omega_0 |t| - pi/4)

    on the causal branch (and the time-mirrored value for the advanced
    one).  Requires v < 1.
    """
    w = _dispersive_branch_weight(r, t, params, kind)
    k0, omega0, wpp = stationary_phase_point(params, r / abs(t))
    if not w:
        return 0.0
    amp = (
        -((2.0 * np.pi) ** -2)
        / r
        * (k0 / omega0)
        * math.sqrt(2.0 * np.pi / (wpp * abs(t)))
    )
    return w * float(amp * np.cos(k0 * r - omega0 * abs(t) - np.pi / 4.0))


def stationary_phase_point(params: DispersionParams, v):
    """(k0, omega0, omega'') for the cone velocity v < 1; an omega0^3
    outside the float range, where omega'' is lost, is a ValidationError."""
    if not 0 <= v < 1:
        raise SuperluminalCone(f"v = {v} outside [0, 1)")
    k0 = params.omega_hat * v / math.sqrt(1.0 - v * v)
    omega0 = float(params.omega_k(k0))
    try:
        return k0, omega0, params.omega_hat**2 / omega0**3
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"omega0^3 leaves the float range at omega0 = {omega0:.3g}") from None


# ---------------------------------------------------------------------------
# Pairwise momentum exchange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldLine:
    """Sampled trajectory: proper times, positions and 4-velocities."""

    s: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)  # (n, 4)
    u: np.ndarray = field(repr=False)  # (n, 4)
    weight: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.shape != (len(s), 4) or u.shape != x.shape:
            raise ValidationError("x and u must be (n, 4) arrays matching s")
        norms = np.sum(METRIC * u * u, axis=1)
        if np.max(np.abs(norms + 1.0)) > 1e-8:
            raise ValidationError("4-velocity normalization u.u = -1 violated")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @classmethod
    def static_point(cls, position, t_span, n):
        """World line of a particle at rest at a spatial position."""
        return cls.from_velocity(position, [0.0, 0.0, 0.0], t_span, n)

    @classmethod
    def from_velocity(cls, position0, velocity3, t_span, n):
        """Constant-velocity world line (|velocity3| < 1)."""
        v = np.asarray(velocity3, dtype=float)
        v2 = float(np.sum(v * v))
        if v2 >= 1.0:
            raise ValidationError("speed must be below 1")
        gam = 1.0 / np.sqrt(1.0 - v2)
        s = np.linspace(t_span[0], t_span[1], n)  # proper time
        x = np.zeros((n, 4))
        x[:, 3] = gam * s
        x[:, :3] = np.asarray(position0, dtype=float) + np.outer(gam * s, v)
        u = np.zeros((n, 4))
        u[:, :3] = gam * v
        u[:, 3] = gam
        return cls(s=s, x=x, u=u)


def _trapezoid_weights(s):
    w = np.empty(len(s))
    w[1:-1] = 0.5 * (s[2:] - s[:-2])
    w[0] = 0.5 * (s[1] - s[0])
    w[-1] = 0.5 * (s[-1] - s[-2])
    return w


def momentum_exchange(line_i: WorldLine, line_j: WorldLine, sigma, kind="symmetric"):
    """Per-particle impulses from the double line integral of the kernel
    gradient over the two sampled trajectories.

    The kernel is the Gaussian regularization exp(-z^2/(2 sigma^4)) of the
    light-cone distribution in the invariant interval z = xi.xi, which is
    even in xi by construction; the retarded/advanced variants multiply it
    by the causal step in the time separation (treated as a selector, not
    differentiated).  Returns (dp_i, dp_j) as contravariant 4-vectors.
    """
    _branch_weights(kind)
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    with np.errstate(over="ignore"):
        if not 0 < np.float64(sigma) ** 4 < np.inf:
            raise ValidationError(f"sigma^4 leaves the float range at sigma = {sigma}")
    sep = line_i.x[:, None, :3] - line_j.x[None, :, :3]
    min_sep = float(np.min(np.sqrt(np.sum(sep**2, axis=2))))
    if sigma > min_sep:
        raise KernelUnresolved(
            f"sigma = {sigma} exceeds the minimum trajectory separation {min_sep:.4g}"
        )
    wi = _trapezoid_weights(line_i.s)
    wj = _trapezoid_weights(line_j.s)
    weight = line_i.weight * line_j.weight

    def impulse(xa, xb, wa, wb):
        # gradient of G(x_a - x_b) with respect to x_a, contracted with the
        # product quadrature weights; returns the contravariant impulse
        xi = xa[:, None, :] - xb[None, :, :]  # (na, nb, 4)
        z = np.einsum("abl,l,abl->ab", xi, METRIC, xi)
        with np.errstate(over="ignore"):  # an overflow makes g = 0 exactly
            g = np.exp(-(z**2) / (2.0 * sigma**4))
        # only where g > 0 is |z| / sigma^4 bounded, by 39 / sigma^2
        gp = np.divide(-z, sigma**4, out=np.zeros_like(z), where=g > 0) * g
        if kind == "retarded":
            gp = 2.0 * gp * (xi[:, :, 3] > 0)
        elif kind == "advanced":
            gp = 2.0 * gp * (xi[:, :, 3] < 0)
        grad_cov = 2.0 * np.einsum("ab,abl->abl", gp, xi * METRIC)
        contrav = grad_cov * METRIC
        return weight * np.einsum("a,b,abl->l", wa, wb, contrav)

    dp_i = impulse(line_i.x, line_j.x, wi, wj)
    dp_j = impulse(line_j.x, line_i.x, wj, wi)
    return dp_i, dp_j


# ---------------------------------------------------------------------------
# Absorber response, damping and spectral transport
# ---------------------------------------------------------------------------

def response_delta(omega, s):
    """Finite-time resonance response (1 - exp(-i omega s)) / (i omega),
    with the removable value s at omega = 0; tends to pi*delta(omega) for
    large s when integrated against a smooth test function."""
    omega = np.asarray(omega, dtype=float)
    out = np.empty(omega.shape, dtype=complex)
    small = np.abs(omega) < 1e-300
    out[small] = s
    w = omega[~small]
    out[~small] = (1.0 - np.exp(-1j * w * s)) / (1j * w)
    if out.shape == ():
        return complex(out)
    return out


def damping_coefficient(FR, k0, omega0, dispersion: DispersionParams, n_k=400, n_theta=200):
    """Differential damping of a coherent wave (k0, omega0) by scattering:

        dmu/dr = pi/(4 omega_k0^2) * Int F^R(|k - k0|, omega_k - omega0) d^3k

    restricted to the free-wave dispersion surface omega = omega_k.  FR is
    the isotropic response variance spectrum FR(q, w) >= 0 with q = |dk|.
    """
    k0 = float(k0)
    k = np.linspace(0.0, dispersion.k_max, n_k)
    theta, wth = np.polynomial.legendre.leggauss(n_theta)
    cos_t = theta  # Gauss-Legendre nodes on [-1, 1]
    kk, ct = np.meshgrid(k, cos_t, indexing="ij")
    q = np.sqrt(np.maximum(kk**2 + k0**2 - 2.0 * kk * k0 * ct, 0.0))
    wk = dispersion.omega_k(kk)
    vals = FR(q, wk - omega0)
    if np.any(vals < -1e-12):
        raise ValidationError("response spectrum must be nonnegative")
    inner = vals @ wth  # integral over cos(theta)
    integral = 2.0 * np.pi * np.trapezoid(k * k * inner, k)
    wk0 = float(dispersion.omega_k(k0))
    return np.pi / (4.0 * wk0**2) * integral


def freewave_growth(FR, a_sq, k, k0, omega0, dispersion: DispersionParams):
    """Growth rate of the free-wave spectral density at wavenumber k:

        dF(k)/ds = pi/(2 omega_k^2) |a|^2
                   [F^R(|k - k0|, omega_k - omega0)
                    + F^R(|k + k0|, omega_k + omega0)]

    with the frequency integral collapsed onto the dispersion surface.
    k and k0 are 3-vectors; FR is isotropic as in damping_coefficient.
    """
    if a_sq < 0:
        raise ValidationError("|a|^2 must be nonnegative")
    k = np.asarray(k, dtype=float)
    k0 = np.asarray(k0, dtype=float)
    kmag = float(np.sqrt(np.sum(k * k)))
    wk = float(dispersion.omega_k(kmag))
    qm = float(np.sqrt(np.sum((k - k0) ** 2)))
    qp = float(np.sqrt(np.sum((k + k0) ** 2)))
    val = FR(qm, wk - omega0) + FR(qp, wk + omega0)
    return np.pi / (2.0 * wk**2) * a_sq * float(val)


def absorber_balance(A):
    """Closed-form coherent-absorber bookkeeping.

    For an emitted half-retarded spherical wave of amplitude A, the
    regular coherent response (B/2i r)(e^{ikr} - e^{-ikr}) must satisfy
    C = A + B/(2i) and B = iC, hence B = 2iA; then the outgoing response
    component equals the emitted retarded wave (doubling it to the full
    retarded field) while the ingoing component cancels the emitted
    advanced wave.  Returns the derived amplitudes and both checks.
    """
    A = complex(A)
    B = 2j * A
    C = A + B / 2j
    outgoing_response = B / 2j  # coefficient of e^{ikr}/r near the source
    ingoing_response = -B / 2j  # coefficient of e^{-ikr}/r
    return {
        "A": A,
        "B": B,
        "C": C,
        "net_outgoing": A + outgoing_response,  # = 2A = full retarded field
        "net_ingoing": A + ingoing_response,  # = 0 = advanced field cancelled
        "outgoing_doubles_retarded": np.isclose(A + outgoing_response, 2 * A),
        "advanced_cancelled": np.isclose(A + ingoing_response, 0.0),
    }
