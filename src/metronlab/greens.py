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

The light-cone descriptor and both dispersive kernels take broadcast r and
t, so a scan is one call.  The dispersive quadrature builds each point's
sin(kr) from a two-level angle-addition table, sin(a_m + b_l) over sub-block
starts a_m and in-block offsets b_l, so a point costs 2(M + S) sines and
cosines per block of M sub-blocks of S nodes, not one sine per node.
momentum_exchange evaluates the kernel once for both particles, on scalar
(n_i, n_j) planes of the separation components built once per row block of
a fixed pair budget, so its memory does not grow with the sample counts.
World lines with a non-finite sample, and pairs of lines whose squared
separations overflow, are refused with ValidationError.
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
    require_finite,
    require_nonnegative,
    require_positive,
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
        require_nonnegative(omega_hat=self.omega_hat)
        require_positive(k_max=self.k_max)
        with np.errstate(over="ignore"):  # an overflow is inf, refused here
            require_finite(squares=np.square([self.omega_hat, self.k_max]))

    def omega_k(self, k):
        return np.sqrt(self.omega_hat**2 + np.asarray(k) ** 2)


# ---------------------------------------------------------------------------
# Non-dispersive light-cone kernel
# ---------------------------------------------------------------------------

def greens_nondispersive(r, t, kind):
    """Distributional descriptor of the massless kernel, at a point or a scan.

    The retarded kernel is supported on r = t (t > 0) with weight
    -1/(2 pi r), the advanced one on r = -t (t < 0); the symmetric kernel
    carries both supports at half weight.  r and t broadcast against each
    other, as in `greens_dispersive`.  Returns a dict with the broadcast r
    and t and, per branch of nonzero weight, its on-support mask (true only
    on that branch's cone, where the support residual is zero), support
    residual and weight in their shape (numpy scalars for a single point).
    OriginSingular when any r <= 0.
    """
    w_ret, w_adv = _branch_weights(kind)
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    if np.any(r <= 0):
        raise OriginSingular("kernel evaluated at r = 0")
    weight = -1.0 / (2.0 * np.pi * r)
    # r > 0, so a zero residual puts the point on its branch's half of the cone
    branches = [
        {"branch": name, "on_support": residual == 0, "residual": residual, "weight": w * weight}
        for name, w, residual in (("retarded", w_ret, r - t), ("advanced", w_adv, r + t))
        if w
    ]
    return {"r": r, "t": t, "kind": kind, "branches": branches}


def convolve_nondispersive(source, r, t_grid, kind="retarded", delta_width=0.02):
    """Field of a point source s(t) at the origin, by explicit quadrature
    against the light-cone kernel mollified to a Gaussian of width
    delta_width in its support argument.

    The closed-form (method of characteristics) answer for the retarded
    branch is -s(t - r) / (2 pi r).  r and the (at least 2) times are
    finite, delta_width is positive, and the field is in the float range.
    """
    weights = _branch_weights(kind)
    require_finite(r=r)
    require_positive(delta_width=delta_width)
    if r <= 0:
        raise OriginSingular("field evaluated at r = 0")
    t_grid = np.asarray(t_grid, dtype=float)
    require_finite(t_grid=t_grid)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValidationError("t_grid must hold at least 2 times")
    width = t_grid[-1] - t_grid[0]
    # the source-time grid must resolve the mollified delta
    n_tp = int(np.ceil(3.0 * width / (delta_width / 8.0)))
    tp = np.linspace(t_grid[0] - width, t_grid[-1] + width, max(n_tp, 8 * len(t_grid)))
    s_vals = source(tp)
    out = np.zeros_like(t_grid)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * delta_width)
    # a far point's Gaussian is exp(-inf) = 0; a field that overflows is refused below
    with np.errstate(over="ignore"):
        for i, t in enumerate(t_grid):
            acc = 0.0
            # the advanced branch is the retarded one in the mirrored delay -tau
            for w, delay in zip(weights, (t - tp, tp - t)):
                if w:
                    sel = delay > 0
                    gauss = np.exp(-((r - delay[sel]) ** 2) / (2 * delta_width**2))
                    acc += w * np.trapezoid(norm * gauss * s_vals[sel], tp[sel])
            out[i] = -acc / (2.0 * np.pi * r)
    require_finite(field=out)
    return out


# ---------------------------------------------------------------------------
# Dispersive kernel: windowed oscillatory quadrature and asymptotics
# ---------------------------------------------------------------------------

# the dispersive quadrature works on blocks of _NODE_BLOCK nodes, each split
# into sub-blocks of _SUB_BLOCK nodes for the angle-addition table of sin(kr),
# so its memory grows with neither the nodes nor the scan
_NODE_BLOCK = 8192
_SUB_BLOCK = 128


def _scan_points(r, t):
    """Flat float arrays of the broadcast (r, t) scan, and its shape."""
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    return r.ravel(), t.ravel(), r.shape


def _shaped(values, shape):
    """A scan's values in its shape; a Python float for a single point."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _first_bad(checks):
    """(index, make_error) of the first point that fails a check, or (number
    of points, None).  checks are (bad mask, make_error(i)) pairs in the order
    one point runs them, so a point failing several gets its earliest, as a
    loop over the points would."""
    bad = np.array([mask for mask, _ in checks])
    hits = np.flatnonzero(bad.any(axis=0))
    if not hits.size:
        return bad.shape[1], None
    first = int(hits[0])
    return first, checks[int(np.argmax(bad[:, first]))][1]


def _branch_checks(r, t, params, kind):
    """Each point's branch weight (retarded t > 0, advanced t < 0), and the
    input checks both dispersive kernels share, in their order."""
    w_ret, w_adv = _branch_weights(kind)
    checks = [
        (r <= 0, lambda i: OriginSingular("kernel evaluated at r = 0")),
        (np.full(r.shape, params.omega_hat <= 0),
         lambda i: ValidationError("dispersive kernel needs omega_hat > 0")),
        (t == 0, lambda i: ValidationError("|t| must be positive")),
    ]
    return np.where(t > 0, w_ret, w_adv), checks


def _phase_check(a, b, r, t, live):
    """The check that refuses, where live, a phase max(a, b) (rad) with an ulp
    above 1e-6 rad, too coarse for six significant digits of its cosine:
    phases from 2^33 rad up (the quadrature converges only below about
    4e5 rad)."""
    phase = np.where(b > a, b, a)  # max(a, b) that keeps a NaN a, as Python's max
    return (live & ~(np.spacing(phase) <= 1e-6), lambda i: QuadratureNotConverged(
        f"phase {phase[i]:.3g} rad has no significant digits at (r={r[i]}, t={t[i]})"))


def _dispersive_integrals(r, t, params, k_window):
    """Int 2 sin(kr) sin(w_k t) (k/w_k) W(k) dk at each point (r, t > 0),
    by the trapezoid rule.

    The smooth window W = exp(-(k/k_window)^8) is below 1e-40 at the range
    end, 1.8 * k_window, so no truncation ringing survives and the rule
    converges spectrally.  Each point takes 40 nodes per 2 pi of its largest
    phase rate, 4096 to 4e6.  The points with one node count share its
    blocks: the k-only factors are built once per block and the weighted
    time factor F = sin(w_k t) W (2h) k/w_k once per distinct t, as an
    (M, S) table of M sub-blocks of S = _SUB_BLOCK nodes (8192 = 64 x 128),
    the tail sub-block zero-padded.  Node j = j0 + m S + l of a block has
    sin(k_j r) = sin(a_m) cos(b_l) + cos(a_m) sin(b_l), with the sub-block
    start a_m = r k_(j0 + m S) and the offset b_l = r (l h), so a point's
    block sum is sin(a) . (F cos b) + cos(a) . (F sin b): 2(M + S) = 384
    sines and cosines and two matrix-vector products per full block, where
    a sine per node took 8192.  Each point reduces its own table products,
    so its value does not depend on the rest of the scan.  The rounding is
    no worse than a sine per node's: a_m is rounded as r k_j was, b_l (below
    S 2 pi / 40, about 20 rad, under the node cap) to an ulp of 3.6e-15 or
    less, and the products and their sum add a few ulp of 1.  The phase
    w_k t is summed as j (h t) + t omega_hat^2 / (w_k + k) at node j of
    spacing h: its rounding, the roundoff floor at thousands of rad, is then
    below that of the product w_k t.
    """
    k_end = 1.8 * k_window
    counts = np.minimum(np.maximum(
        4096.0, 40 * k_end * np.fmax(np.fmax(r, t), 1.0) / (2 * np.pi)), 4_000_000).astype(int)
    out = np.zeros(r.shape)
    for n in np.unique(counts):
        h = k_end / (n - 1)
        by_t = {}
        for i in np.flatnonzero(counts == n):
            by_t.setdefault(t[i], []).append(i)
        offsets = np.arange(_SUB_BLOCK) * h  # l h within a sub-block
        for j0 in range(0, n, _NODE_BLOCK):
            j = np.arange(j0, min(j0 + _NODE_BLOCK, n))
            k = j * h
            wk = params.omega_k(k)
            excess = params.omega_hat**2 / (wk + k)  # w_k - k, without the cancellation
            weighted = (2.0 * h) * (k / wk) * np.exp(-((k / k_window) ** 8))
            if j0 == 0:
                weighted[0] *= 0.5
            if j0 + _NODE_BLOCK >= n:
                weighted[-1] *= 0.5
            starts = k[::_SUB_BLOCK]  # (j0 + m S) h, the sub-block starts
            # the time factor on an (M, S) table, the tail sub-block zero-padded
            table = np.zeros((len(starts), _SUB_BLOCK))
            for tt, points in by_t.items():
                table.flat[:len(j)] = np.sin(j * (h * tt) + tt * excess) * weighted
                for i in points:
                    a, b = r[i] * starts, r[i] * offsets
                    out[i] += np.sin(a) @ (table @ np.cos(b)) + np.cos(a) @ (table @ np.sin(b))
    return out


def greens_dispersive(r, t, params: DispersionParams, kind):
    """Massive kernel by filtered oscillatory quadrature, at a point or a scan.

    r and t broadcast against each other; a scalar pair returns a float.
    Retarded support t > 0, advanced t < 0, symmetric the half-sum.  The
    advanced branch is the time mirror of the retarded one: the integrand
    2 sin(kr) sin(w_k t) (the cos(kr - w_k t) - cos(kr + w_k t) of the plane
    waves) is odd in t, so each branch is the retarded value at |t|.  The
    integral is evaluated at the configured cutoff and at 0.8x the cutoff;
    QuadratureNotConverged is raised when the two differ by more than 1e-4
    relative.  It is raised before any quadrature when the largest phase,
    max(k_max r, omega(k_max) |t|), has no significant digits (see
    `_phase_check`): no cutoff can converge such an integrand.

    The points of a scan that take one node count share its node grid, which
    is summed in blocks of _NODE_BLOCK nodes, each point's sin(kr) from a
    two-level angle-addition table (see `_dispersive_integrals`):
    the memory does not grow with the node count, and every value equals its
    single-point value bit for bit.  A scan raises the error of its first
    failing point in flat (C) order, the check that point fails first.
    """
    r, t, shape = _scan_points(r, t)
    w, checks = _branch_checks(r, t, params, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        checks.append(_phase_check(params.k_max * r,
                                   math.hypot(params.omega_hat, params.k_max) * np.abs(t),
                                   r, t, w != 0))
    first, make_error = _first_bad(checks)
    # the points before the first failing one are integrated: one of them
    # may fail the cutoff test, and raise first
    live = np.flatnonzero(w[:first] != 0)
    r_live, t_live = r[live], np.abs(t[live])
    i1 = _dispersive_integrals(r_live, t_live, params, params.k_max)
    i2 = _dispersive_integrals(r_live, t_live, params, 0.8 * params.k_max)
    scale = np.maximum(np.maximum(np.abs(i1), np.abs(i2)), 1e-30)
    unconverged = np.flatnonzero(~(np.abs(i1 - i2) <= 1e-4 * scale))  # a NaN fails too
    if unconverged.size:
        j = unconverged[0]
        raise QuadratureNotConverged(
            f"cutoff sensitivity {abs(i1[j] - i2[j]) / scale[j]:.2e} "
            f"at (r={r[live[j]]}, t={t[live[j]]})"
        )
    if make_error is not None:
        raise make_error(first)
    out = np.zeros(r.shape)
    out[live] = w[live] * (-i1 / ((2.0 * np.pi) ** 2 * r_live))
    return _shaped(out, shape)


def greens_stationary_phase(r, t, params: DispersionParams, kind):
    """Far-field asymptotics of the dispersive kernel on the interior cone.

    The stationary wavenumber k0 = omega_hat*v/sqrt(1-v^2) with v = r/|t|
    dominates; the phase curvature omega''(k0) = omega_hat^2/omega_0^3
    gives

        G ~= -(2 pi)^-2 (1/r) (k0/omega_0) sqrt(2 pi/(omega'' |t|))
             * cos(k0 r - omega_0 |t| - pi/4)

    on the causal branch (and the time-mirrored value for the advanced
    one).  Requires v < 1.  QuadratureNotConverged when the larger term of
    the phase, max(k0 r, omega_0 |t|), fails `_phase_check`; ValidationError
    when the amplitude leaves the float range (r or omega'' |t| near the
    underflow).  r and t broadcast as in `greens_dispersive`, with the same
    error order.
    """
    r, t, shape = _scan_points(r, t)
    w, checks = _branch_checks(r, t, params, kind)
    abs_t = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k0, omega0, wpp, cone_checks = _stationary_terms(params, r / abs_t)
        checks += cone_checks
        checks.append(_phase_check(k0 * r, omega0 * abs_t, r, t, w != 0))
        amp = -((2.0 * np.pi) ** -2) / r * (k0 / omega0) * np.sqrt(2.0 * np.pi / (wpp * abs_t))
        values = w * (amp * np.cos(k0 * r - omega0 * abs_t - np.pi / 4.0))
    checks.append(((w != 0) & ~np.isfinite(values), lambda i: ValidationError(
        f"amplitude leaves the float range at (r={r[i]}, t={t[i]})")))
    first, make_error = _first_bad(checks)
    if make_error is not None:
        raise make_error(first)
    return _shaped(np.where(w != 0, values, 0.0), shape)


def _stationary_terms(params, v):
    """(k0, omega0, omega'') at the cone velocities v, and the checks that
    refuse a v outside [0, 1) and an omega0^3 outside the float range, where
    omega'' is lost.  Call under np.errstate: a refused v warns."""
    k0 = params.omega_hat * v / np.sqrt(1.0 - v * v)
    omega0 = params.omega_k(k0)
    cube = np.float_power(omega0, 3)  # libm's pow, as for a float; array ** 3 rounds apart
    checks = [
        (~((0 <= v) & (v < 1)), lambda i: SuperluminalCone(f"v = {v[i]} outside [0, 1)")),
        (~(np.isfinite(cube) & (cube != 0)), lambda i: ValidationError(
            f"omega0^3 leaves the float range at omega0 = {omega0[i]:.3g}")),
    ]
    return k0, omega0, params.omega_hat**2 / cube, checks


def stationary_phase_point(params: DispersionParams, v):
    """(k0, omega0, omega'') for cone velocities v < 1, floats for a scalar v;
    an omega0^3 outside the float range, where omega'' is lost, is a
    ValidationError."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        *terms, checks = _stationary_terms(params, v.ravel())
    first, make_error = _first_bad(checks)
    if make_error is not None:
        raise make_error(first)
    return tuple(_shaped(x, v.shape) for x in terms)


# ---------------------------------------------------------------------------
# Pairwise momentum exchange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldLine:
    """Sampled trajectory: at least 2 proper times, positions and
    4-velocities, all finite, with a finite weight."""

    s: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)  # (n, 4)
    u: np.ndarray = field(repr=False)  # (n, 4)
    weight: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if s.ndim != 1 or len(s) < 2:
            raise ValidationError("s must hold at least 2 proper times for the trapezoid rule")
        if x.shape != (len(s), 4) or u.shape != x.shape:
            raise ValidationError("x and u must be (n, 4) arrays matching s")
        require_finite(s=s, x=x, u=u, weight=self.weight)
        with np.errstate(over="ignore"):  # an overflowing norm fails the check
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
        # a non-finite or overflowing input leaves a non-finite sample, which
        # the constructor refuses
        with np.errstate(over="ignore", invalid="ignore"):
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


# momentum_exchange works on row blocks of at most _PAIR_BLOCK (a, b) pairs
# (one row at least), so its memory does not grow with n_a n_b
_PAIR_BLOCK = 1 << 13


def momentum_exchange(line_i: WorldLine, line_j: WorldLine, sigma, kind="symmetric"):
    """Per-particle impulses from the double line integral of the kernel
    gradient over the two sampled trajectories.

    The kernel is the Gaussian regularization g = exp(-z^2/(2 sigma^4)) of
    the light-cone distribution in the invariant interval
    z = xi_0^2 + xi_1^2 + xi_2^2 - xi_3^2 of the separation xi = x_i - x_j;
    the retarded/advanced variants multiply it by the causal step in the
    time separation (treated as a selector, not differentiated), and the
    symmetric one is the unmasked Gaussian.  With G = -g z / sigma^4, times
    2 on a causal branch, and the product trapezoid weights w_a w_b, the
    contravariant impulse of particle i is (METRIC^2 = 1)

        dp_i,l = 2 W sum_ab w_a w_b G_ab xi_l,ab,   W = weight_i weight_j,

    and that of j the same sum over -xi with j's causal mask.  z, g and G
    are even in xi, so one evaluation on scalar (n_i, n_j) planes serves both
    particles; each impulse is reduced on its own side (i over j first, j
    over i), so the symmetric kernel's dp_i + dp_j = 0 is a computed check,
    not zero by construction.  One loop over row blocks of at most
    _PAIR_BLOCK pairs builds each block's planes once, so the working memory
    does not grow with n_i n_j.

    The loop also keeps the minimum of r^2 and the maximum of r^2 and xi_3^2.
    After it, KernelUnresolved is raised when sigma exceeds the minimum
    spatial separation, sqrt(min r^2), then ValidationError when a squared
    separation leaves the float range, then ValidationError when an impulse
    does.  Returns (dp_i, dp_j) as contravariant 4-vectors.
    """
    _branch_weights(kind)
    if not np.isnan(sigma):  # NaN is refused with sigma^4, below
        require_positive(sigma=sigma)
    with np.errstate(over="ignore"):
        sigma4 = np.float64(sigma) ** 4
        if not 0 < sigma4 < np.inf:
            raise ValidationError(f"sigma^4 leaves the float range at sigma = {sigma}")
    x_i, x_j = np.ascontiguousarray(line_i.x.T), np.ascontiguousarray(line_j.x.T)
    wi = _trapezoid_weights(line_i.s)
    wj = _trapezoid_weights(line_j.s)
    scale = (2.0 if kind == "symmetric" else 4.0) * line_i.weight * line_j.weight
    rows = max(1, _PAIR_BLOCK // len(line_j.s))
    min_r2, top = np.inf, 0.0
    sum_i = np.zeros(4)
    cols_j = np.zeros(x_j.shape)  # j's sums over the rows of every block, on -xi
    # an overflowing separation or impulse is refused after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(line_i.s), rows):
            block = slice(a, a + rows)
            xi = x_i[:, block, None] - x_j[:, None, :]
            z = xi[0] * xi[0]  # r^2, then z
            q = xi[1] * xi[1]
            z += q
            z += np.multiply(xi[2], xi[2], out=q)
            np.multiply(xi[3], xi[3], out=q)  # xi_3^2
            min_r2 = min(min_r2, z.min())
            top = max(top, z.max(), q.max())
            z -= q  # z = r^2 - xi_3^2
            # an overflow of z^2 makes g = 0 exactly, as does exp below -746
            np.divide(np.multiply(z, z, out=q), -2.0 * sigma4, out=q)
            g = np.exp(q, out=np.zeros_like(q), where=q > -750.0)
            # only where g > 0 is |z| / sigma^4 bounded, by 39 / sigma^2
            gp = np.divide(z, -sigma4, out=z, where=g > 0)
            gp *= g
            h_i, h_j = gp * wj, gp * wi[block, None]
            if kind != "symmetric":
                later, earlier = xi[3] > 0, xi[3] < 0  # x_i after / before x_j
                h_i *= later if kind == "retarded" else earlier
                h_j *= earlier if kind == "retarded" else later
            sum_i += np.einsum("ab,lab->la", h_i, xi) @ wi[block]
            cols_j -= np.einsum("ab,lab->lb", h_j, xi)
        dp_i, dp_j = scale * sum_i, scale * (cols_j @ wj)
    min_sep = float(np.sqrt(min_r2))
    if sigma > min_sep:
        raise KernelUnresolved(
            f"sigma = {sigma} exceeds the minimum trajectory separation {min_sep:.4g}"
        )
    if not top < np.inf:
        raise ValidationError("squared separations of the world lines leave the float range")
    if not (np.isfinite(dp_i).all() and np.isfinite(dp_j).all()):
        raise ValidationError("the impulses leave the float range")
    return dp_i, dp_j


# ---------------------------------------------------------------------------
# Absorber response, damping and spectral transport
# ---------------------------------------------------------------------------

def response_delta(omega, s):
    """Finite-time resonance response (1 - exp(-i omega s)) / (i omega),
    with the removable value s at omega = 0; tends to pi*delta(omega) for
    large s when integrated against a smooth test function.  A phase
    omega * s that is not finite (NaN or infinite omega or s, or an
    overflowing product) is a ValidationError."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN: refused too
        require_finite(phase=omega * s)
    out = np.empty(omega.shape, dtype=complex)
    small = np.abs(omega) < 1e-300
    out[small] = s
    w = omega[~small]
    out[~small] = (1.0 - np.exp(-1j * w * s)) / (1j * w)
    if out.shape == ():
        return complex(out)
    return out


def damping_coefficient(FR, k0, omega0, dispersion: DispersionParams):
    """Differential damping of a coherent wave (k0, omega0) by scattering:

        dmu/dr = pi/(4 omega_k0^2) * Int F^R(|k - k0|, omega_k - omega0) d^3k

    restricted to the free-wave dispersion surface omega = omega_k.  FR is
    the isotropic response variance spectrum FR(q, w) >= 0 with q = |dk|.
    k0, its square and omega0 are finite, and omega_k0^2 is nonzero.
    """
    k0 = float(k0)
    # a float product overflows to inf (or underflows to 0), where ** raises
    require_finite(k0=k0, omega0=omega0, k0_squared=k0 * k0)
    wk0 = float(dispersion.omega_k(k0))
    require_positive(omega_k0_squared=wk0 * wk0)
    k = np.linspace(0.0, dispersion.k_max, 400)
    theta, wth = np.polynomial.legendre.leggauss(200)
    cos_t = theta  # Gauss-Legendre nodes on [-1, 1]
    kk, ct = np.meshgrid(k, cos_t, indexing="ij")
    q = np.sqrt(np.maximum(kk**2 + k0**2 - 2.0 * kk * k0 * ct, 0.0))
    wk = dispersion.omega_k(kk)
    vals = FR(q, wk - omega0)
    if np.any(vals < -1e-12):
        raise ValidationError("response spectrum must be nonnegative")
    inner = vals @ wth  # integral over cos(theta)
    integral = 2.0 * np.pi * np.trapezoid(k * k * inner, k)
    return np.pi / (4.0 * wk0**2) * integral


def freewave_growth(FR, a_sq, k, k0, omega0, dispersion: DispersionParams):
    """Growth rate of the free-wave spectral density at wavenumber k:

        dF(k)/ds = pi/(2 omega_k^2) |a|^2
                   [F^R(|k - k0|, omega_k - omega0)
                    + F^R(|k + k0|, omega_k + omega0)]

    with the frequency integral collapsed onto the dispersion surface.
    k and k0 are 3-vectors; FR is isotropic as in damping_coefficient.
    omega_k^2 must be nonzero, and it and |k -+ k0| in the float range.
    """
    require_nonnegative(a_sq=a_sq)
    k = np.asarray(k, dtype=float)
    k0 = np.asarray(k0, dtype=float)
    require_finite(k=k, k0=k0, omega0=omega0)
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        kmag = float(np.sqrt(np.sum(k * k)))
        wk = float(dispersion.omega_k(kmag))
        qm = float(np.sqrt(np.sum((k - k0) ** 2)))
        qp = float(np.sqrt(np.sum((k + k0) ** 2)))
    require_positive(omega_k_squared=wk * wk)
    require_finite(wavenumber_differences=[qm, qp])
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
