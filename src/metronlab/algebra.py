"""Exact finite-dimensional checks of the tensor/spinor algebra and the
coupling-constant calibration chain.

Spacetime metric: diag(1, 1, 1, -1).  Harmonic-space wavenumber vectors
carry their own diagonal signature; the harmonic mass is
omega_hat^2 = sum_A sign_A k_A^2.  All identities here are algebraic and
are verified to 1e-12 (entries are small integers over square roots, so
double precision is exact up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ColorPlaneViolation,
    DivisionDegenerate,
    InvalidSignature,
    MetricMismatch,
    SingularVChoice,
    ValidationError,
    require_finite,
    require_positive,
)

__all__ = [
    "SPACETIME_METRIC",
    "GammaSet",
    "dirac_representation",
    "chiral_representation",
    "verify_gamma",
    "PolarizationModel",
    "minimal_noneuclidean",
    "minimal_euclidean",
    "extended_euclidean",
    "color_noneuclidean",
    "color_euclidean",
    "spinor_metric",
    "check_gauge_conditions",
    "kg_factorization",
    "quark_star",
    "electroweak_config",
    "mass_ratio",
    "find_mass_ratio_config",
    "quark_ew_wavenumbers",
    "gauge_correspondence",
    "calibrate_constants",
    "scale_ratio",
    "SUITES",
    "run_suite",
]

SPACETIME_METRIC = np.diag([1.0, 1.0, 1.0, -1.0])

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class GammaSet:
    """Four 4x4 matrices plus gamma5 for the metric diag(1,1,1,-1)."""

    gammas: tuple  # (g1, g2, g3, g4)
    gamma5: np.ndarray = field(repr=False)

    def __post_init__(self):
        gs = tuple(np.asarray(g, dtype=complex) for g in self.gammas)
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "gamma5", np.asarray(self.gamma5, dtype=complex))

    def slash(self, k):
        """gamma^lambda k_lambda with k given contravariantly."""
        k_cov = SPACETIME_METRIC @ np.asarray(k, dtype=float)
        return sum(g * kc for g, kc in zip(self.gammas, k_cov))


def _gamma_set(g4) -> GammaSet:
    """The shared Hermitian off-diagonal spatial matrices with the given
    gamma^4; gamma5 is the product i g1 g2 g3 g4."""
    gs = [
        np.block([[np.zeros((2, 2)), -1j * s], [1j * s, np.zeros((2, 2))]])
        for s in _SIGMA
    ]
    gs.append(g4)
    g5 = 1j * gs[0] @ gs[1] @ gs[2] @ gs[3]
    return GammaSet(gammas=tuple(gs), gamma5=g5)


def dirac_representation() -> GammaSet:
    """Block-diagonal gamma^4; spatial matrices are Hermitian off-diagonal."""
    return _gamma_set(-1j * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def chiral_representation() -> GammaSet:
    """Off-diagonal gamma^4; gamma5 is diagonal with -1, +1 blocks."""
    eye2 = np.eye(2, dtype=complex)
    return _gamma_set(np.block([[np.zeros((2, 2)), 1j * eye2], [1j * eye2, np.zeros((2, 2))]]))


def _check(check_id, dev, limit=1e-12):
    return {"check_id": check_id, "max_deviation": dev,
            "status": "pass" if dev < limit else "fail"}


def verify_gamma(gs: GammaSet):
    """Check the anticommutators, the Hermiticity pattern and the gamma5
    product identity; returns a report with the worst deviation per check."""
    eye = np.eye(4, dtype=complex)
    worst_anti = 0.0
    for lam in range(4):
        for mu in range(lam, 4):
            anti = gs.gammas[lam] @ gs.gammas[mu] + gs.gammas[mu] @ gs.gammas[lam]
            target = 2.0 * SPACETIME_METRIC[lam, mu] * eye
            worst_anti = max(worst_anti, float(np.max(np.abs(anti - target))))
    # the spatial gammas are Hermitian, gamma4 anti-Hermitian
    worst_herm = max(float(np.max(np.abs(g.conj().T - sign * g)))
                     for g, sign in zip(gs.gammas, (1, 1, 1, -1)))
    g5 = 1j * gs.gammas[0] @ gs.gammas[1] @ gs.gammas[2] @ gs.gammas[3]
    checks = [
        _check("gamma_anticommutation", worst_anti),
        _check("gamma_hermiticity", worst_herm),
        _check("gamma5_product", float(np.max(np.abs(g5 - gs.gamma5)))),
    ]
    return {
        "checks": checks,
        "max_deviation": max(c["max_deviation"] for c in checks),
        "all_pass": all(c["status"] == "pass" for c in checks),
    }


# ---------------------------------------------------------------------------
# Polarization models: spinor <-> harmonic-tensor maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarizationModel:
    """Linear map from spinor components to a symmetric harmonic tensor.

    tensors[a] is the matrix multiplying spinor component a; eta is the
    diagonal harmonic metric; k the wavenumber; the declared spinor metric
    target is either ("dirac", omega_hat) for i*gamma4/omega_hat or
    ("euclidean", E) for I/E.
    """

    name: str
    eta: np.ndarray = field(repr=False)
    tensors: tuple = field(repr=False)
    k: np.ndarray = field(repr=False)
    target: tuple = ()

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        k = np.asarray(self.k, dtype=float)
        ts = tuple(np.asarray(t, dtype=float) for t in self.tensors)
        m = eta.shape[0]
        for t in ts:
            if t.shape != (m, m):
                raise ValidationError("polarization tensors must be m x m")
            if np.max(np.abs(t - t.T)) != 0.0:
                raise ValidationError("polarization tensors must be symmetric")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "tensors", ts)
        object.__setattr__(self, "k", k)


def _sym(m, i, j, val=1.0):
    out = np.zeros((m, m))
    out[i, j] = val
    out[j, i] = val
    return out


def _polarization_model(name, family, scale, eta, k, axes) -> PolarizationModel:
    """The model whose spinor components map to unit symmetric tensors on
    the harmonic axes (a, b, c), each scaled by n = 1/sqrt(2 scale).

    The "dirac" family (target i*gamma4/omega_hat) takes (a,a)-(b,b), (a,b),
    (a,c), (b,c); the "euclidean" family (target I/E) takes phi1^R = (a,b),
    phi2^R = (a,c), phi1^L = (b,b)-(c,c), phi2^L = (b,c).
    """
    label = "omega_hat" if family == "dirac" else "E"
    require_positive(**{label: scale})
    # n^2 = 1/(2 scale), the size of every spinor metric entry, must not overflow
    require_finite(**{f"1/(2 {label})": 1.0 / (2.0 * float(scale))})
    m = len(eta)
    a, b, c = axes
    n = 1.0 / np.sqrt(2.0 * scale)
    ab, ac, bc = (n * _sym(m, i, j) for i, j in ((a, b), (a, c), (b, c)))
    if family == "dirac":
        tensors = (n * (_sym(m, a, a) - _sym(m, b, b)), ab, ac, bc)
    else:
        tensors = (ab, ac, n * (_sym(m, b, b) - _sym(m, c, c)), bc)
    return PolarizationModel(name=name, eta=np.diag(np.asarray(eta, dtype=float)),
                             tensors=tensors, k=np.array(k), target=(family, scale))


def minimal_noneuclidean(omega_hat, k5=None) -> PolarizationModel:
    """Four-dimensional model with signature (+3, -1), mass omega_hat > 0
    and wavenumber along the first harmonic axis."""
    k5 = omega_hat if k5 is None else k5
    return _polarization_model("noneuclidean(+3,-1)", "dirac", omega_hat, [1, 1, 1, -1],
                               [k5, 0.0, 0.0, 0.0], (1, 2, 3))


def minimal_euclidean(E, k5=1.0) -> PolarizationModel:
    """Four-dimensional Euclidean model (+4) with energy E > 0."""
    return _polarization_model("euclidean(+4)", "euclidean", E, [1, 1, 1, 1],
                               [k5, 0.0, 0.0, 0.0], (1, 2, 3))


def extended_euclidean(E, k5=1.0, k9=0.5, eta9=-1.0) -> PolarizationModel:
    """Five-dimensional extension (+4,-1) or (+5) of the Euclidean model:
    zero first and last tensor rows admit wavenumber components along both
    the first and fifth harmonic axes."""
    return _polarization_model("extended(+4,-1)" if eta9 < 0 else "extended(+5)", "euclidean",
                               E, [1, 1, 1, 1, eta9], [k5, 0.0, 0.0, 0.0, k9], (1, 2, 3))


def color_noneuclidean(omega_hat, k7=None, k8=0.0) -> PolarizationModel:
    """Five-dimensional (+4,-1) model with the wavenumber confined to the
    color plane (third and fourth harmonic axes); the polarization tensor
    is color independent."""
    k7 = omega_hat if k7 is None else k7
    return _polarization_model("color(+4,-1)", "dirac", omega_hat, [1, 1, 1, 1, -1],
                               [0.0, 0.0, k7, k8, 0.0], (0, 1, 4))


def color_euclidean(E, k7=1.0, k8=0.0) -> PolarizationModel:
    """Five-dimensional (+5) model with a color-plane wavenumber."""
    return _polarization_model("color(+5)", "euclidean", E, [1, 1, 1, 1, 1],
                               [0.0, 0.0, k7, k8, 0.0], (0, 1, 4))


def _spinor_target(model: PolarizationModel):
    """The declared spinor metric: i*gamma4/omega_hat = diag(1,1,-1,-1)/omega_hat
    for the dirac family, I/E for the euclidean one."""
    kind, scale = model.target
    if kind == "dirac":
        return np.diag([1.0, 1.0, -1.0, -1.0]) / scale
    return np.eye(len(model.tensors)) / scale


def spinor_metric(model: PolarizationModel, check=True):
    """M^{ab} = (P^a_{AB})* P^{b,AB}, harmonic indices raised with eta.

    For the non-Euclidean ("dirac") family the result must equal
    i*gamma4/omega_hat = diag(1,1,-1,-1)/omega_hat; for the Euclidean
    family it must equal I/E.  MetricMismatch carries the deviating
    entries when the target fails by more than 1e-12.
    """
    eta_d = np.diag(model.eta) if model.eta.ndim == 2 else model.eta
    m = len(model.tensors)
    M = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            raised = eta_d[:, None] * model.tensors[b] * eta_d[None, :]
            M[a, b] = float(np.sum(model.tensors[a] * raised))
    if check and model.target:
        dev = np.abs(M - _spinor_target(model))
        if np.max(dev) > 1e-12:
            raise MetricMismatch(
                f"spinor metric deviates from its target by {np.max(dev):.3e}",
                deviations=dev,
            )
    return M


def check_gauge_conditions(model: PolarizationModel):
    """Trace condition eta^{AB} P^a_{AB} = 0 and divergence condition
    k_A P^{a,AB} = 0 for every spinor basis tensor; exact zeros expected."""
    eta_d = np.diag(model.eta) if model.eta.ndim == 2 else model.eta
    k = model.k
    worst_trace = 0.0
    worst_div = 0.0
    for t in model.tensors:
        worst_trace = max(worst_trace, abs(float(np.sum(eta_d * np.diag(t)))))
        raised = eta_d[:, None] * t * eta_d[None, :]
        worst_div = max(worst_div, float(np.max(np.abs(k @ raised))))
    checks = [
        _check("trace_condition", worst_trace),
        _check("divergence_condition", worst_div),
    ]
    return {
        "model": model.name,
        "checks": checks,
        "all_pass": all(c["status"] == "pass" for c in checks),
    }


def kg_factorization(k, omega_hat, gs: GammaSet):
    """Residual of (i gamma.k + w)(i gamma.k - w) = -(k.k + w^2) I."""
    k = np.asarray(k, dtype=float)
    slash = gs.slash(k)
    eye = np.eye(4, dtype=complex)
    prod = (1j * slash + omega_hat * eye) @ (1j * slash - omega_hat * eye)
    kk = float(k @ SPACETIME_METRIC @ k)
    target = -(kk + omega_hat**2) * eye
    return float(np.max(np.abs(prod - target)))


# ---------------------------------------------------------------------------
# Chromodynamic star
# ---------------------------------------------------------------------------

def quark_star(omega_hat_f, orientation_angle=0.0):
    """Symmetric three-vector star in the color plane and its constants.

    Returns the three color-plane wavenumbers at 120 degrees, the
    non-diagonal boson table with mass sqrt(3)*omega_hat_f, the covariant
    coupling constants C3 = omega_hat_f^2/2, A1 = 4, A2 = -2 (whose
    combination A1 + 2 A2 = 0 removes the net diagonal boson), and the
    couplings g3 = sqrt(C3), g3' = sqrt(6) g3.
    """
    require_finite(orientation_angle=orientation_angle)
    # a float product overflows to inf (or underflows to 0), where ** raises
    require_positive(omega_hat_f=omega_hat_f,
                     boson_mass_squared=3.0 * float(omega_hat_f) * float(omega_hat_f))
    ks = tuple(omega_hat_f * np.array([np.cos(ang), np.sin(ang)])
               for ang in (orientation_angle + 2.0 * np.pi * p / 3.0 for p in range(3)))
    C3 = 0.5 * omega_hat_f**2
    A1 = 2.0 * float(ks[0] @ ks[0]) / C3
    A2 = 2.0 * float(ks[0] @ ks[1]) / C3
    kbs = {(p, q): ks[p] - ks[q] for p in range(3) for q in range(3) if p != q}
    bosons = {pq: {"k": kb, "mass": float(np.sqrt(kb @ kb))} for pq, kb in kbs.items()}
    g3 = float(np.sqrt(C3))
    return {
        "wavenumbers": ks,
        "sum": ks[0] + ks[1] + ks[2],
        "boson_mass": float(np.sqrt(3.0)) * omega_hat_f,
        "bosons": bosons,
        "C3": C3,
        "A1": A1,
        "A2": A2,
        "diagonal_sum_coefficient": A1 + 2.0 * A2,
        "g3": g3,
        "g3_prime": float(np.sqrt(6.0)) * g3,
        "omega_hat_f": omega_hat_f,
    }


# ---------------------------------------------------------------------------
# Electroweak configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElectroweakConfig:
    k5_e: float
    k6_nu: float
    k9: float
    omega_e_sq: float
    omega_nu_sq: float
    kappa_sq: float
    C2: float
    g2: float
    Lambda_sq: float
    e_M: float
    m_w_sq: float
    m_z_sq: float

    @property
    def ratio(self):
        return float(np.sqrt(self.m_w_sq / self.m_z_sq))


def mass_ratio(omega_e_sq, omega_nu_sq, kappa_sq):
    """Charged-to-neutral boson mass ratio with the aligned scalar field:

        m_W / m_Z = (omega_nu^2 + kappa^2)
                    / (omega_nu * sqrt(omega_nu^2 + omega_e^2 + 2 kappa^2))

    obtained from the two square masses; continuous and equal to 1/sqrt(2)
    at omega_e = omega_nu, kappa = 0.  Elementwise: a NaN passes through
    without a warning, as does a negative square's.
    """
    with np.errstate(all="ignore"):
        den = np.sqrt(omega_nu_sq) * np.sqrt(omega_nu_sq + omega_e_sq + 2.0 * kappa_sq)
        return (omega_nu_sq + kappa_sq) / den


def electroweak_config(k5_e, k9) -> ElectroweakConfig:
    """Derived masses and couplings for the lepton-sector wavenumbers.

    The neutrino components mirror the electron ones (k6_nu = -k5_e,
    k9_nu = -k9); signature (+4, -1) gives omega_e^2 = k5^2 - k9^2,
    omega_nu^2 = k6^2 - k9^2 and kappa^2 = k9^2.  Requires k5^2 > 2 k9^2
    and a positive Lambda^2 = omega_e^2 omega_nu^2 - kappa^4.  The scalar
    (Higgs-like) field is aligned with the neutrino wavenumber, which
    makes the massive diagonal boson the neutral one exactly.  Wavenumbers
    that are not finite, or whose fourth powers (the size of Lambda^2)
    leave the float range, are a ValidationError.
    """
    k5_e = float(k5_e)
    k9 = float(k9)
    k5_sq, k9_sq = k5_e * k5_e, k9 * k9  # a product overflows to inf, ** raises
    require_finite(**{"k5_e^4 + k9^4": k5_sq * k5_sq + k9_sq * k9_sq})
    if not k5_e**2 > 2.0 * k9**2:
        raise InvalidSignature("k5^2 must exceed 2 k9^2")
    k6_nu = -k5_e
    omega_e_sq = k5_e**2 - k9**2
    omega_nu_sq = k6_nu**2 - k9**2
    kappa_sq = k9**2
    Lambda_sq = omega_e_sq * omega_nu_sq - kappa_sq**2
    if not Lambda_sq > 0:
        raise InvalidSignature("Lambda^2 must be positive")
    C2 = 0.5 * (omega_e_sq + omega_nu_sq + 2.0 * kappa_sq)
    # the aligned scalar (vacuum value 1) couples by omega_nu^2 and kappa^2
    m_w_sq = (omega_nu_sq + kappa_sq) ** 2 / (2.0 * C2)
    m_z_sq = omega_nu_sq**2 / omega_nu_sq
    return ElectroweakConfig(
        k5_e=k5_e,
        k6_nu=k6_nu,
        k9=k9,
        omega_e_sq=omega_e_sq,
        omega_nu_sq=omega_nu_sq,
        kappa_sq=kappa_sq,
        C2=C2,
        g2=float(np.sqrt(C2)),
        Lambda_sq=Lambda_sq,
        e_M=float(np.sqrt(Lambda_sq / omega_nu_sq)),
        m_w_sq=float(m_w_sq),
        m_z_sq=float(m_z_sq),
    )


def find_mass_ratio_config(target=0.87):
    """Wavenumber pair reproducing a given m_W/m_Z with mirrored lepton
    wavenumbers (equal masses).  With omega_nu^2 = 1 the ratio is
    sqrt((1 + x^2)/2), x = kappa/omega_nu, so x = sqrt(2 t^2 - 1), k9 = x and
    k5 = sqrt(1 + x^2); ValidationError unless 0 <= x^2 < 1 (NaN included)."""
    target = float(target)
    x_sq = 2.0 * target * target - 1.0
    if not 0.0 <= x_sq < 1.0:
        raise ValidationError(f"target ratio {target} not reachable with equal masses")
    x = np.sqrt(x_sq)
    return electroweak_config(np.sqrt(1.0 + x * x), x)


def quark_ew_wavenumbers(k_e, k_nu, k_c):
    """Up/down wavenumbers from the lepton pair and a color vector.

    k_u = -(2/3) k_e + (1/3) k_nu + k_c and
    k_d =  (1/3) k_e - (2/3) k_nu + k_c, with k_c confined to the color
    plane (indices 2, 3 of the 5-vector).  Verifies the sum identity
    k_u + k_d = -(1/3)(k_nu + k_e) + 2 k_c, the electromagnetic charge
    pattern (+2/3, -1/3) from the photon-direction projection, and the
    1/3 ratio of the quark to lepton charged-current couplings.
    """
    k_e = np.asarray(k_e, dtype=float)
    k_nu = np.asarray(k_nu, dtype=float)
    k_c = np.asarray(k_c, dtype=float)
    if k_e.shape != (5,) or k_nu.shape != (5,) or k_c.shape != (5,):
        raise ValidationError("wavenumbers must be 5-vectors (k5, k6, k7, k8, k9)")
    if np.any(k_c[[0, 1, 4]] != 0.0):
        raise ColorPlaneViolation("k_c must lie in the color plane")
    k_u = -(2.0 / 3.0) * k_e + (1.0 / 3.0) * k_nu + k_c
    k_d = (1.0 / 3.0) * k_e - (2.0 / 3.0) * k_nu + k_c
    sum_identity = np.max(
        np.abs((k_u + k_d) - (-(1.0 / 3.0) * (k_nu + k_e) + 2.0 * k_c))
    )
    eta = np.array([1.0, 1.0, 1.0, 1.0, -1.0])

    def dot(a, b):
        return float(np.sum(eta * a * b))

    omega_nu_sq = dot(k_nu, k_nu)
    kappa_sq = dot(k_nu, k_e)
    omega_e_sq = dot(k_e, k_e)
    Lambda = np.sqrt(omega_e_sq * omega_nu_sq - kappa_sq**2)
    # photon direction in the electroweak sub-space
    k_A = (kappa_sq / (np.sqrt(omega_nu_sq) * Lambda)) * k_nu - (
        np.sqrt(omega_nu_sq) / Lambda
    ) * k_e
    e_M = Lambda / np.sqrt(omega_nu_sq)
    fermions = {"electron": k_e, "neutrino": k_nu, "up": k_u, "down": k_d}
    charges = {name: dot(k, k_A) / e_M for name, k in fermions.items()}
    lepton_cc = dot(k_nu + k_e, k_nu + k_e)
    quark_cc = dot(k_u + k_d, k_nu + k_e)
    z_dir = k_nu / np.sqrt(omega_nu_sq)
    z_couplings = {name: dot(k, z_dir) for name, k in fermions.items()}
    return {
        "k_u": k_u,
        "k_d": k_d,
        "sum_identity_residual": float(sum_identity),
        "charges_in_e_M": charges,
        "w_coupling_ratio": quark_cc / lepton_cc,
        "z_couplings": z_couplings,
    }


# ---------------------------------------------------------------------------
# Gauge correspondence: diffeomorphism vs color rotation parameters
# ---------------------------------------------------------------------------

def gauge_correspondence(star, eps3, eps8, v_diag=None):
    """Map the two diagonal color-rotation parameters onto the three
    diffeomorphism amplitudes.

    Non-diagonal sector: with direction vectors v_(pq) = k_p - k_q the
    calibration constant is C = 2 k_p.k_q = -omega_f^2, and every
    non-diagonal amplitude is eps_rho / C.  Diagonal sector:
    the 3x3 system  k_p . (sum_q v_(qq) eps_qq) = rhs_p(eps3, eps8)  has
    rank 2 because the star wavenumbers sum to zero; the minimum-norm
    solution is returned together with the residual of the full system.
    SingularVChoice is raised when the diagonal direction vectors have
    parallel color-plane projections.
    """
    ks = star["wavenumbers"]
    w2 = star["omega_hat_f"] ** 2
    C = 2.0 * float(ks[0] @ ks[1])
    if v_diag is None:
        v_diag = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2.0))
    v_diag = tuple(np.asarray(v, dtype=float) for v in v_diag)
    W = np.column_stack(v_diag)  # 2 x 3 color-plane projections
    if np.linalg.matrix_rank(W, tol=1e-12) < 2:
        raise SingularVChoice("diagonal direction vectors are collinear")
    K = np.array(ks)  # 3 x 2
    M = K @ W  # 3 x 3, rank 2 because sum_p k_p = 0
    rhs = 0.5 * np.array([eps3 + eps8 / np.sqrt(3.0), -eps3 + eps8 / np.sqrt(3.0),
                          -2.0 * eps8 / np.sqrt(3.0)])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = float(np.max(np.abs(M @ sol - rhs)))
    return {
        "C": C,
        "C_equals_minus_mass_sq": abs(C + w2),
        "eps_diagonal": sol,
        "residual": residual,
        "rank": int(np.linalg.matrix_rank(M, tol=1e-12)),
        "row_sum": float(np.max(np.abs(M.sum(axis=0)))),
    }


# ---------------------------------------------------------------------------
# Physical-constant calibration
# ---------------------------------------------------------------------------

def calibrate_constants(a_sq, beta, M, k5, G_prime):
    """Calibration chain from core integrals to physical constants:

        G = |a|^2 / 2,  e' = k5 |a|,  q = e' beta / (2G),  m = M / (2G),
        hbar = G'/G,  epsilon = (1/2) (M / (beta k5))^2.

    The loop identity G (m/q)^2 = epsilon closes algebraically.  A
    vanishing denominator, or a constant beyond the float range, is a
    DivisionDegenerate; a non-finite input a ValidationError.
    """
    require_finite(a_sq=a_sq, beta=beta, M=M, k5=k5, G_prime=G_prime)
    G = a_sq / 2.0
    if G <= 0 or beta <= 0 or beta * k5 == 0:
        raise DivisionDegenerate("a_sq / 2 and beta must be positive and beta * k5 nonzero")
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        e_prime = k5 * np.sqrt(a_sq)
        constants = {"G": G, "e_prime": e_prime, "q": e_prime * beta / (2.0 * G),
                     "m": M / (2.0 * G), "hbar": G_prime / G}
        try:
            constants["epsilon_ratio"] = 0.5 * (M / (beta * k5)) ** 2
        except OverflowError:  # a float's ** raises where a product gives inf
            constants["epsilon_ratio"] = np.inf
    for name, value in constants.items():
        if not np.isfinite(value):
            raise DivisionDegenerate(f"{name} overflows the float range")
    return constants


def scale_ratio(epsilon):
    """Core-to-far-field length-scale ratio epsilon^(1/6) under the
    order-one amplitude assumption."""
    require_positive(epsilon=epsilon)
    return float(epsilon ** (1.0 / 6.0))


# ---------------------------------------------------------------------------
# The check suite behind `metronlab algebra-check` and acceptance criterion 10
# ---------------------------------------------------------------------------

SUITES = ("gamma", "polarization", "factorization", "star", "electroweak",
          "gauge", "calibration")


def run_suite(names):
    """Run the named parts of the check suite (see SUITES); one record
    {check_id, max_deviation, status} per check.  An empty list or a name
    outside SUITES is a ValidationError."""
    if not names or not set(names) <= set(SUITES):
        raise ValidationError(f"suites must be a non-empty subset of {SUITES}, got {list(names)}")
    checks = []
    if "gamma" in names:
        for rep_name, gs in (
            ("dirac", dirac_representation()),
            ("chiral", chiral_representation()),
        ):
            for c in verify_gamma(gs)["checks"]:
                checks.append({**c, "check_id": f"{rep_name}_{c['check_id']}"})
    if "polarization" in names:
        for model in (
            minimal_noneuclidean(1.0),
            minimal_euclidean(1.0),
            extended_euclidean(1.0, k9=0.4),
            color_noneuclidean(1.0, k7=0.6, k8=0.5),
            color_euclidean(1.0, k7=0.6, k8=0.5),
        ):
            for c in check_gauge_conditions(model)["checks"]:
                checks.append({**c, "check_id": f"{model.name}_{c['check_id']}"})
            M = spinor_metric(model, check=False)
            checks.append(_check(f"{model.name}_spinor_metric",
                                 float(np.max(np.abs(M - _spinor_target(model))))))
    if "factorization" in names:
        gs = dirac_representation()
        rng = np.random.default_rng(7)
        dev = 0.0
        for _ in range(16):
            k = rng.normal(size=4)
            dev = max(dev, kg_factorization(k, rng.uniform(0.2, 2.0), gs))
        checks.append(_check("kg_factorization", dev))
    if "star" in names:
        st = quark_star(1.0, orientation_angle=0.3)
        checks += [
            _check("star_sum", float(np.max(np.abs(st["sum"])))),
            _check("star_boson_mass", abs(st["boson_mass"] - np.sqrt(3.0))),
            _check("star_A1", abs(st["A1"] - 4.0)),
            _check("star_A2", abs(st["A2"] + 2.0)),
            _check("star_diagonal_sum", abs(st["diagonal_sum_coefficient"])),
            _check("star_coupling_ratio", abs(st["g3_prime"] / st["g3"] - np.sqrt(6.0))),
        ]
    if "electroweak" in names:
        sym = electroweak_config(1.0, 0.0)
        checks.append(_check("electroweak_symmetric_ratio",
                             abs(sym.ratio - 1.0 / np.sqrt(2.0))))
        cfg = find_mass_ratio_config(0.87)
        checks.append(_check("electroweak_ratio_rootfind", abs(cfg.ratio - 0.87), 1e-6))
        k_e = np.array([cfg.k5_e, 0, 0, 0, cfg.k9])
        k_nu = np.array([0, cfg.k6_nu, 0, 0, -cfg.k9])
        k_c = np.array([0, 0, 0.5, 0.1, 0])
        qe = quark_ew_wavenumbers(k_e, k_nu, k_c)
        checks += [
            _check("quark_sum_identity", qe["sum_identity_residual"]),
            _check("quark_up_charge", abs(qe["charges_in_e_M"]["up"] - 2.0 / 3.0)),
            _check("quark_down_charge", abs(qe["charges_in_e_M"]["down"] + 1.0 / 3.0)),
            _check("quark_w_coupling", abs(qe["w_coupling_ratio"] + 1.0 / 3.0)),
        ]
    if "gauge" in names:
        gc = gauge_correspondence(quark_star(1.0), 0.4, -0.7)
        checks += [
            _check("gauge_calibration_constant", gc["C_equals_minus_mass_sq"]),
            _check("gauge_rank_deficiency", gc["residual"]),
            _check("gauge_row_sum", gc["row_sum"]),
        ]
    if "calibration" in names:
        cal = calibrate_constants(2.0, 0.7, 0.3, 1.4, 2.2)
        checks.append(_check("calibration_loop",
                             abs(cal["G"] * (cal["m"] / cal["q"]) ** 2 - cal["epsilon_ratio"])))
        val = scale_ratio(2.4e-43)  # outside the window dev >= 1.7e-8 fails
        checks.append(_check("scale_ratio_window",
                             0.0 if 6e-8 <= val <= 1e-7 else abs(val - 7.7e-8)))
    return checks
