"""Two-mode standard form, coupling solver, and redistribution parameters.

A two-mode covariance matrix can always be brought by local symplectics to
the standard shape

    [[m1, 0,   k_x, 0  ],
     [0,  m1,  0,   k_p],
     [k_x, 0,  m2,  0  ],
     [0,  k_p, 0,   m2 ]]

which this module manipulates.  Everything here is closed-form algebra on
the two local parameters (m1, m2), the two global parameters (kappa1,
kappa2), and the two couplings (k_x, k_p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    IncompatibleSpectraError,
    InfeasibleRedistributionError,
    InvalidCovarianceError,
)
from .spectra import williamson
from .symplectic import (
    _bs_block,
    local_normal_form,
    symplectic_form,
    symplectic_inverse,
    validate_covariance,
)

#: Relative tolerance used by the feasibility checks in this module.
COUPLING_TOL = 1e-9


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Canonical parameters of a two-mode state: m1 <= m2 and k_x >= |k_p|."""

    m1: float
    m2: float
    k_x: float
    k_p: float


def _require_4x4(V):
    V = np.asarray(V, dtype=float)
    if V.shape != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    return V


def two_mode_invariants(V4):
    """Return (0.5 * tr(Omega V Omega^T V), det V) for a two-mode matrix.

    Both quantities are preserved by symplectic congruence; in terms of the
    spectra they equal kappa1^2 + kappa2^2 and (kappa1 * kappa2)^2.
    """
    V = validate_covariance(_require_4x4(V4))
    omega = symplectic_form(2)
    sum_sq = 0.5 * float(np.trace(omega @ V @ omega.T @ V))
    return sum_sq, float(np.linalg.det(V))


def _rotations_diagonalizing(C):
    """Rotations (Q1, Q2) and couplings with Q1 C Q2^T = diag(k_x, k_p).

    The couplings keep the sign of det C: k_x = s1 >= |k_p| and
    k_p = sign(det C) * s2, where s1 >= s2 are the singular values.
    """
    U, sv, Vt = np.linalg.svd(C)
    kx, kp = float(sv[0]), float(sv[1])
    if np.linalg.det(U) < 0.0:
        U = U @ np.diag([1.0, -1.0])
        kp = -kp
    if np.linalg.det(Vt) < 0.0:
        Vt = np.diag([1.0, -1.0]) @ Vt
        kp = -kp
    return U.T, Vt, kx, kp


def standard_form(V4, tol: float = COUPLING_TOL):
    """Reduce a two-mode covariance matrix to its canonical standard form.

    First each single-mode block is made isotropic, then one rotation per
    mode diagonalizes the off-diagonal block (a two-sided singular value
    step).  The returned parameters are canonical: m1 <= m2, k_x >= |k_p|,
    and sign(k_p) equals the sign of the off-block determinant.

    Returns:
        (TwoModeStandardForm, locals) where ``locals`` are the per-mode 2x2
        symplectics that bring V4 to standard shape in the original mode
        order.
    """
    V = validate_covariance(_require_4x4(V4))
    if np.linalg.eigvalsh(V)[0] <= 0.0:
        raise InvalidCovarianceError("two-mode covariance matrix is not positive definite")
    V2, locs, m = local_normal_form(V, tol=max(tol, 1e-10))
    Q1, Q2, kx, kp = _rotations_diagonalizing(V2[0:2, 2:4])
    loc1 = Q1 @ locs[0]
    loc2 = Q2 @ locs[1]
    m1, m2 = sorted((float(m[0]), float(m[1])))
    return TwoModeStandardForm(m1=m1, m2=m2, k_x=kx, k_p=kp), [loc1, loc2]


def solve_couplings(m1, m2, kappa1, kappa2, tol: float = COUPLING_TOL):
    """Couplings (k_x, k_p) of the standard form with the given spectra.

    With P = k_x k_p fixed by the trace invariant and Q = k_x^2 + k_p^2
    fixed by the determinant invariant, the squared couplings are the roots
    of t^2 - Q t + P^2.  Sorting of the inputs is the caller's business;
    all formulas are symmetric under swapping within each pair.

    Raises:
        IncompatibleSpectraError: no real couplings exist, i.e.
            m1 * m2 - |P| < kappa1 * kappa2 beyond tolerance.
    """
    for v in (m1, m2, kappa1, kappa2):
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError("spectral parameters must be positive reals")
    P = 0.5 * ((kappa1**2 + kappa2**2) - (m1**2 + m2**2))
    g = m1 * m2
    if g - abs(P) < kappa1 * kappa2 - tol * g:
        raise IncompatibleSpectraError(
            f"no two-mode state has locals ({m1}, {m2}) and globals ({kappa1}, {kappa2})"
        )
    # Q^2 - 4 P^2 cancels catastrophically near double roots (balanced
    # couplings), so evaluate the two factors Q -/+ 2P in the product form
    # ((g -/+ P)^2 - (kappa1 kappa2)^2) / g, which stays accurate there.
    kk = kappa1 * kappa2
    diff_sq = max((g - P - kk) * (g - P + kk) / g, 0.0)  # (k_x - k_p)^2
    sum_sq = max((g + P - kk) * (g + P + kk) / g, 0.0)  # (k_x + k_p)^2
    Q = 0.5 * (diff_sq + sum_sq)
    t_hi = 0.5 * (Q + np.sqrt(diff_sq * sum_sq))
    kx = float(np.sqrt(t_hi))
    # the smaller root satisfies t_hi * t_lo = P^2 exactly, so recover the
    # second coupling from the product invariant instead of the noisy root
    kp = float(P / kx) if kx > tol * g else 0.0
    return kx, kp


def reconstruct_two_mode(m1, m2, kappa1, kappa2) -> np.ndarray:
    """Build the standard-form matrix with locals (m1, m2) and globals (kappa1, kappa2).

    Inputs must be sorted within each pair (m1 <= m2, kappa1 <= kappa2).
    """
    if m1 > m2 or kappa1 > kappa2:
        raise ValueError("expected sorted pairs: m1 <= m2 and kappa1 <= kappa2")
    kx, kp = solve_couplings(m1, m2, kappa1, kappa2)
    V = np.diag([float(m1), float(m1), float(m2), float(m2)])
    V[0, 2] = V[2, 0] = kx
    V[1, 3] = V[3, 1] = kp
    return V


def bs_param(a, b, target, tol: float = COUPLING_TOL) -> float:
    """Beam-splitter angle moving the pair (a, b) to (target, a + b - target).

    The target must lie between a and b (the congruence preserves the sum,
    so the other value is forced).
    """
    for v in (a, b, target):
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError("diagonal values must be positive reals")
    lo, hi = min(a, b), max(a, b)
    slack = tol * (1.0 + hi)
    if target < lo - slack or target > hi + slack:
        raise InfeasibleRedistributionError(
            f"target {target} lies outside the reachable interval [{lo}, {hi}]"
        )
    if hi - lo <= slack:
        return 0.0
    ratio = min(max((target - a) / (b - a), 0.0), 1.0)
    return float(np.arcsin(np.sqrt(ratio)))


def sq_param(a, b, eps, tol: float = COUPLING_TOL) -> float:
    """Squeezer parameter raising the pair (a, b) to (a + eps, b + eps)."""
    for v in (a, b):
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError("diagonal values must be positive reals")
    if eps < -tol * (1.0 + a + b):
        raise InfeasibleRedistributionError("squeezing can only raise the pair, eps must be >= 0")
    eps = max(float(eps), 0.0)
    return float(np.arcsinh(np.sqrt(eps / (a + b))))


def diagonalize_balanced(form: TwoModeStandardForm, tol: float = COUPLING_TOL):
    """Single elementary generator diagonalizing a balanced standard form.

    For k_p = k_x (balanced beam-splitter coupling) the returned value is
    ("BS", theta) with theta = 0.5 * atan2(2 k, m1 - m2); for k_p = -k_x it
    is ("SQ", mu) with mu = 0.5 * atanh(-2 k_x / (m1 + m2)).  In both cases
    G V G^T is diagonal for G the corresponding generator.

    Raises:
        ValueError: the couplings are not balanced either way.
        InvalidCovarianceError: the squeezer branch needs |2 k| < m1 + m2,
            which every positive definite form satisfies.
    """
    kx, kp = form.k_x, form.k_p
    m1, m2 = form.m1, form.m2
    slack = tol * (1.0 + max(abs(kx), abs(kp)))
    if abs(kx - kp) <= slack:
        k = 0.5 * (kx + kp)
        if abs(k) <= slack:
            return "BS", 0.0
        return "BS", float(0.5 * np.arctan2(2.0 * k, m1 - m2))
    if abs(kx + kp) <= slack:
        arg = -2.0 * kx / (m1 + m2)
        if abs(arg) >= 1.0:
            raise InvalidCovarianceError("couplings exceed what a positive definite form allows")
        return "SQ", float(0.5 * np.arctanh(arg))
    raise ValueError("couplings are not balanced: need k_p = k_x or k_p = -k_x")


_SWAP = _bs_block(np.pi / 2.0)


def pair_factor(a, b, t_a, t_b, tol: float = COUPLING_TOL) -> np.ndarray:
    """General two-mode symplectic moving diagonal pair (a, b) to (t_a, t_b).

    The result S satisfies: S diag(a, a, b, b) S^T has diagonal blocks
    t_a * I and t_b * I, and its symplectic spectrum is still {a, b}.
    Feasibility is the two-sided condition: the targets' sum must weakly
    exceed the sources' sum while their spread must not exceed the sources'
    spread.

    Built from the normal-form factor of the reconstructed standard form,
    composed with mode swaps so that values land on the requested slots.
    """
    for v in (a, b, t_a, t_b):
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError("diagonal values must be positive reals")
    s_lo, s_hi = sorted((float(a), float(b)))
    t_lo, t_hi = sorted((float(t_a), float(t_b)))
    slack = tol * (1.0 + s_hi + t_hi)
    if t_lo + t_hi < s_lo + s_hi - slack or (t_hi - t_lo) > (s_hi - s_lo) + slack:
        raise InfeasibleRedistributionError(
            f"targets ({t_a}, {t_b}) are not reachable from ({a}, {b})"
        )
    V_t = reconstruct_two_mode(t_lo, t_hi, s_lo, s_hi)
    S = williamson(V_t).S
    if a > b:
        S = S @ _SWAP
    if t_a > t_b:
        S = _SWAP @ S
    return S
