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

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    IncompatibleSpectraError,
    InfeasibleRedistributionError,
    InvalidCovarianceError,
    NumericalError,
)
from .symplectic import (
    COUPLING_TOL,
    _factor_gate,
    _positive_finite,
    _spd_roots,
    _sqrt_det,
    _symmetrized,
)


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
    spectra they equal kappa1^2 + kappa2^2 and (kappa1 * kappa2)^2.  They
    are read off the standard shape of ``_standard_shape``:
    m_a^2 + m_b^2 + 2 k_x k_p and (m_a m_b - k_x^2)(m_a m_b - k_p^2).

    Raises:
        InvalidCovarianceError: a single-mode block is not positive definite.
    """
    ma, mb, kx, kp, _, _ = _standard_shape(_symmetrized(_require_4x4(V4)).tolist())
    g = ma * mb
    return ma * ma + mb * mb + 2.0 * kx * kp, (g - kx * kx) * (g - kp * kp)


def _svd2(c00, c01, c10, c11):
    """Closed-form SVD C = R(phi) diag(s1, s2) R(theta) of a real 2x2 matrix.

    R(x) = [[cos x, -sin x], [sin x, cos x]].  The singular values come out
    as s1 >= |s2| with s2 carrying the sign of det C, so both factors are
    rotations and R(-phi) C R(theta)^T = diag(s1, s2).  Returns the two
    rotations and the singular values as
    (cos phi, sin phi, s1, s2, cos theta, sin theta).  This is the two-mode
    factors' only call to libm (hypot, atan2, cos, sin); its callers run on
    + - * / sqrt and exact power-of-two scaling.
    """
    # halved before the sums, which could overflow near the top of the double range
    e, f = 0.5 * c00 + 0.5 * c11, 0.5 * c00 - 0.5 * c11
    g, h = 0.5 * c10 + 0.5 * c01, 0.5 * c10 - 0.5 * c01
    q, r = math.hypot(e, h), math.hypot(f, g)
    a1, a2 = math.atan2(g, f), math.atan2(h, e)
    phi, theta = 0.5 * (a2 + a1), 0.5 * (a2 - a1)
    return math.cos(phi), math.sin(phi), q + r, q - r, math.cos(theta), math.sin(theta)


def _standard_shape(M):
    """Steps 0-1 of ``_pivot_factor`` on M = [[A, C], [C^T, B]], in scalars.

    Only the upper triangle of the nested list M is read.  Returns (m_a, m_b,
    k_x, k_p, G1, G2), k_x >= |k_p|, where G1 = R(-phi) L_A and
    G2 = R(theta) L_B bring M to the standard shape, each as the flat
    row-major 4-tuple (g00, g01, g10, g11).  Raises InvalidCovarianceError
    when A or B is not positive definite.
    """
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = M
    _, (ai0, ai1, ai2), ma = _spd_roots(a00, a01, a11)
    _, (bi0, bi1, bi2), mb = _spd_roots(b00, b01, b11)
    la, lb = math.sqrt(ma), math.sqrt(mb)
    # L_A and L_B are symmetric: (l0, l1; l1, l2)
    la0, la1, la2 = la * ai0, la * ai1, la * ai2
    lb0, lb1, lb2 = lb * bi0, lb * bi1, lb * bi2
    # L_A C, then (L_A C) L_B
    p00, p01 = la0 * c00 + la1 * c10, la0 * c01 + la1 * c11
    p10, p11 = la1 * c00 + la2 * c10, la1 * c01 + la2 * c11
    cf, sf, kx, kp, ct, st = _svd2(
        p00 * lb0 + p01 * lb1,
        p00 * lb1 + p01 * lb2,
        p10 * lb0 + p11 * lb1,
        p10 * lb1 + p11 * lb2,
    )
    # R(-phi) = (cf, sf; -sf, cf) and R(theta) = (ct, -st; st, ct)
    G1 = (cf * la0 + sf * la1, cf * la1 + sf * la2, -sf * la0 + cf * la1, -sf * la1 + cf * la2)
    G2 = (ct * lb0 - st * lb1, ct * lb1 - st * lb2, st * lb0 + ct * lb1, st * lb1 + ct * lb2)
    return ma, mb, kx, kp, G1, G2


def standard_form(V4):
    """Reduce a two-mode covariance matrix to its canonical standard form.

    These are steps 0-1 of the two-mode kernel ``_pivot_factor``: each
    single-mode block is made isotropic, then one rotation per mode
    diagonalizes the off-diagonal block, all in closed form, so the locals
    do not depend on eigenvector signs.  The parameters are canonical:
    m1 <= m2, k_x >= |k_p|, and sign(k_p) equals the sign of the off-block
    determinant.

    Returns:
        (TwoModeStandardForm, locals) where ``locals`` are the per-mode 2x2
        symplectics that bring V4 to standard shape in the original mode
        order.

    Raises:
        InvalidCovarianceError: V4 is not positive definite.
    """
    ma, mb, kx, kp, G1, G2 = _standard_shape(_symmetrized(_require_4x4(V4)).tolist())
    # the standard shape is X (+) P on the q and p quadratures, and
    # k_x >= |k_p|, so X positive definite implies P positive definite
    _sqrt_det(ma, kx, mb)
    m1, m2 = sorted((ma, mb))
    form = TwoModeStandardForm(m1=m1, m2=m2, k_x=kx, k_p=kp)
    return form, [np.array(G1).reshape(2, 2), np.array(G2).reshape(2, 2)]


def _worst(vals):
    """Largest of the nonnegative residuals vals, or NaN when one of them is NaN.

    The builtin max drops a NaN unless it comes first; their sum keeps it.
    """
    total = sum(vals)
    return max(vals) if total == total else total


def _pivot_factor(M4):
    """Closed-form symplectic T with T M4 T^T = diag(k1, k1, k2, k2), k1 <= k2.

    The package's one two-mode normal form: ``jacobi_decompose`` pivots
    with it, ``standard_form`` is its steps 0-1 (``_standard_shape``).  M4
    is a positive definite 4x4 covariance block [[A, C], [C^T, B]], of
    which only the upper triangle is read.  The work
    is one straight-line pass over Python floats: four ``_spd_roots`` and
    two ``_svd2`` calls, the 2x2 products written out, the closing gate as
    explicit residual expressions, and one array built for T at the end.
    Outside ``_svd2``, which returns its rotations as cos and sin of atan2
    angles, it runs on + - * / sqrt and exact power-of-two scaling, and no
    eigenvector phase enters the gauge:

    0. L_A = sqrt(m_a) A^(-1/2) and L_B = sqrt(m_b) B^(-1/2) make the
       single-mode blocks m_a I and m_b I, with m = sqrt(det).  In
       ``jacobi_decompose`` they are already isotropic up to round-off, and
       this step keeps that round-off from passing into later pivots.
    1. The SVD rotations R(-phi), R(theta) of L_A C L_B bring the block to
       standard form: X = [[m_a, k_x], [k_x, m_b]] on the q quadratures and
       P = [[m_a, k_p], [k_p, m_b]] on the p quadratures.
    2. K = X^(1/2) P^(1/2) = U diag(kappa) W^T, both in closed form; the
       smaller kappa is taken from kappa1 kappa2 = sqrt(det X det P).
    3. T_q = D^(1/2) U^T X^(-1/2) and T_p = D^(1/2) W^T P^(-1/2) act on the
       q and p quadratures.  T_q T_p^T = I, so T is symplectic.  T^-1 is
       one normal-form factor of M4, in a gauge fixed by the ``_svd2``
       rotations above; it need not equal the L O D^(-1/2) factor of
       ``williamson``.

    Raises:
        InvalidCovarianceError: A, B, X or P is not positive definite.
        NumericalError: a kappa is not positive, or S = T^-1 misses the
            factorization and symplecticity gate of ``williamson`` (a NaN
            residual misses it too).
    """
    M = M4.tolist()
    ma, mb, kx, kp, (g0, g1, g2, g3), (h0, h1, h2, h3) = _standard_shape(M)
    (xh0, xh1, xh2), (xi0, xi1, xi2), dx = _spd_roots(ma, kx, mb)
    (ph0, ph1, ph2), (pi0, pi1, pi2), dp = _spd_roots(ma, kp, mb)
    cu, su, big, _, cw, sw = _svd2(  # K = X^(1/2) P^(1/2) = R(psi) diag(big, .) R(chi)
        xh0 * ph0 + xh1 * ph1, xh0 * ph1 + xh1 * ph2, xh1 * ph0 + xh2 * ph1, xh1 * ph1 + xh2 * ph2
    )
    # dx dp / big, with big's power of two taken out of dp and big first so
    # that the product dx dp cannot overflow
    e = math.frexp(big)[1]
    small = dx * math.ldexp(dp, -e) / math.ldexp(big, -e)
    if not small > 0.0:
        raise NumericalError("a computed symplectic eigenvalue is not positive; V is near-singular")
    # U = R(psi) and W = R(chi)^T with their columns swapped, so that the
    # first mode takes the smaller kappa
    rs, rb = math.sqrt(small), math.sqrt(big)
    u00, u01, u10, u11 = -rs * su, rs * cu, rb * cu, rb * su
    w00, w01, w10, w11 = rs * sw, rs * cw, rb * cw, -rb * sw
    # T_q = (u00, u01; u10, u11) X^(-1/2) and T_p = (w00, w01; w10, w11) P^(-1/2)
    q00, q01 = u00 * xi0 + u01 * xi1, u00 * xi1 + u01 * xi2
    q10, q11 = u10 * xi0 + u11 * xi1, u10 * xi1 + u11 * xi2
    p00, p01 = w00 * pi0 + w01 * pi1, w00 * pi1 + w01 * pi2
    p10, p11 = w10 * pi0 + w11 * pi1, w10 * pi1 + w11 * pi2
    # row r of T is row r // 2 of T_q (r even) or T_p (r odd), spread over
    # the two modes by the direct sum of G1 = R(-phi) L_A and G2 = R(theta) L_B;
    # tRC is entry (R, C) of T
    t00, t01, t02, t03 = q00 * g0, q00 * g1, q01 * h0, q01 * h1
    t10, t11, t12, t13 = p00 * g2, p00 * g3, p01 * h2, p01 * h3
    t20, t21, t22, t23 = q10 * g0, q10 * g1, q11 * h0, q11 * h1
    t30, t31, t32, t33 = p10 * g2, p10 * g3, p11 * h2, p11 * h3
    # The gate on S = T^-1 = -Omega T^T Omega, from the columns c_a of T
    # without forming S.  Entry (a, b) of S D S^T is (-1)^(a+b) c_a' D c_b'
    # for a' = a ^ 1, b' = b ^ 1, since D = diag(small, small, big, big)
    # pairs equal values: ``fact`` holds |(S D S^T - M4)[a', b']| for
    # (a, b) = (0, 0), (0, 1), ..., (3, 3), a <= b.  S T - I =
    # -Omega (T^T Omega T - Omega), so the max-norm of S T - I is that of
    # X - Omega, X[a][b] = c_a^T Omega c_b, which is antisymmetric with a
    # zero diagonal: ``symp`` holds |(X - Omega)[a, b]| for a < b.
    (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), (_, _, _, m33) = M
    fact = (
        abs(small * (t00 * t00 + t10 * t10) + big * (t20 * t20 + t30 * t30) - m11),
        abs(-(small * (t00 * t01 + t10 * t11) + big * (t20 * t21 + t30 * t31)) - m01),
        abs(small * (t00 * t02 + t10 * t12) + big * (t20 * t22 + t30 * t32) - m13),
        abs(-(small * (t00 * t03 + t10 * t13) + big * (t20 * t23 + t30 * t33)) - m12),
        abs(small * (t01 * t01 + t11 * t11) + big * (t21 * t21 + t31 * t31) - m00),
        abs(-(small * (t01 * t02 + t11 * t12) + big * (t21 * t22 + t31 * t32)) - m03),
        abs(small * (t01 * t03 + t11 * t13) + big * (t21 * t23 + t31 * t33) - m02),
        abs(small * (t02 * t02 + t12 * t12) + big * (t22 * t22 + t32 * t32) - m33),
        abs(-(small * (t02 * t03 + t12 * t13) + big * (t22 * t23 + t32 * t33)) - m23),
        abs(small * (t03 * t03 + t13 * t13) + big * (t23 * t23 + t33 * t33) - m22),
    )
    symp = (
        abs(t00 * t11 - t10 * t01 + t20 * t31 - t30 * t21 - 1.0),
        abs(t00 * t12 - t10 * t02 + t20 * t32 - t30 * t22),
        abs(t00 * t13 - t10 * t03 + t20 * t33 - t30 * t23),
        abs(t01 * t12 - t11 * t02 + t21 * t32 - t31 * t22),
        abs(t01 * t13 - t11 * t03 + t21 * t33 - t31 * t23),
        abs(t02 * t13 - t12 * t03 + t22 * t33 - t32 * t23 - 1.0),
    )
    # the largest |entry| of a positive definite M4 is on its diagonal
    _factor_gate(_worst(fact), _worst(symp), 1.0 + max(m00, m11, m22, m33))
    return np.array(
        (t00, t01, t02, t03, t10, t11, t12, t13, t20, t21, t22, t23, t30, t31, t32, t33)
    ).reshape(4, 4)


def solve_couplings(m1, m2, kappa1, kappa2):
    """Couplings (k_x, k_p) of the standard form with the given spectra.

    With P = k_x k_p fixed by the trace invariant and Q = k_x^2 + k_p^2
    fixed by the determinant invariant, the squared couplings are the roots
    of t^2 - Q t + P^2.  k_x is the square root of the larger root and
    k_p = P / k_x, clipped to [-k_x, k_x] against round-off; k_p is zeroed
    only when k_x is 0, so both couplings scale with the inputs, exactly
    under power-of-two scales and at any finite scale.  Sorting of
    the inputs is the caller's business; all formulas are symmetric under
    swapping within each pair.

    Raises:
        IncompatibleSpectraError: no real couplings exist, i.e.
            m1 * m2 - |P| < kappa1 * kappa2 beyond COUPLING_TOL * m1 * m2.
    """
    return _couplings(m1, m2, kappa1, kappa2)[:2]


def _couplings(m1, m2, kappa1, kappa2):
    """``solve_couplings`` plus sqrt(det X) and sqrt(det P) of the standard form.

    X = [[m1, k_x], [k_x, m2]], P = [[m1, k_p], [k_p, m2]]; both determinants
    come from the spectra, not from the cancelling m1 m2 - k^2.  The roots
    are NaN for spectra that COUPLING_TOL admits but no real state has.
    """
    args = (m1, m2, kappa1, kappa2)
    _positive_finite(args)
    # the terms below reach degree 4 in the inputs, so they are formed on the
    # inputs times 2^-e, which brings the largest into [1/2, 1), and the
    # results scaled back by 2^e.  Power-of-two scaling is exact, so the
    # results depend only on the inputs' relative scale
    e = math.frexp(max(args))[1]
    a, b, c, d = (math.ldexp(x, -e) for x in args)
    P = 0.5 * ((c**2 + d**2) - (a**2 + b**2))
    g = a * b
    if g - abs(P) < c * d - COUPLING_TOL * g:
        raise IncompatibleSpectraError(
            f"no two-mode state has locals ({m1}, {m2}) and globals ({kappa1}, {kappa2})"
        )
    # Q^2 - 4 P^2 cancels catastrophically near double roots (balanced
    # couplings), so evaluate the two factors Q -/+ 2P in the product form
    # ((g -/+ P)^2 - (kappa1 kappa2)^2) / g, which stays accurate there.
    kk = c * d
    diff_sq = max((g - P - kk) * (g - P + kk) / g, 0.0)  # (k_x - k_p)^2
    sum_sq = max((g + P - kk) * (g + P + kk) / g, 0.0)  # (k_x + k_p)^2
    Q = 0.5 * (diff_sq + sum_sq)
    root = math.sqrt(diff_sq * sum_sq)  # k_x^2 - k_p^2 = det P - det X
    t_hi = 0.5 * (Q + root)
    kx = math.sqrt(t_hi)
    # the smaller root satisfies t_hi * t_lo = P^2 exactly, so recover the
    # second coupling from the product invariant instead of the noisy root
    # and clip it so that k_x >= |k_p| survives round-off
    kp = min(max(P / kx, -kx), kx) if kx > 0.0 else 0.0
    # det X + det P = (g - P)(g + P) / g + kk^2 / g and det X det P = kk^2
    det_p = 0.5 * ((g - P) * (g + P) / g + kk * kk / g + root)
    rp = math.sqrt(det_p) if det_p > 0.0 else math.nan
    return tuple(math.ldexp(x, e) for x in (kx, kp, kk / rp, rp))


def reconstruct_two_mode(m1, m2, kappa1, kappa2) -> np.ndarray:
    """Build the standard-form matrix with locals (m1, m2) and globals (kappa1, kappa2).

    Inputs must be positive finite reals, sorted within each pair
    (m1 <= m2, kappa1 <= kappa2).
    """
    _positive_finite((m1, m2, kappa1, kappa2))
    if m1 > m2 or kappa1 > kappa2:
        raise ValueError("expected sorted pairs: m1 <= m2 and kappa1 <= kappa2")
    kx, kp = solve_couplings(m1, m2, kappa1, kappa2)
    V = np.diag([float(m1), float(m1), float(m2), float(m2)])
    V[0, 2] = V[2, 0] = kx
    V[1, 3] = V[3, 1] = kp
    return V


def bs_param(a, b, target) -> float:
    """Beam-splitter angle moving the pair (a, b) to (target, a + b - target).

    The target must lie between a and b (the congruence preserves the sum,
    so the other value is forced).
    """
    _positive_finite((a, b, target))
    lo, hi = min(a, b), max(a, b)
    slack = COUPLING_TOL * (1.0 + hi)
    if target < lo - slack or target > hi + slack:
        raise InfeasibleRedistributionError(
            f"target {target} lies outside the reachable interval [{lo}, {hi}]"
        )
    if hi - lo <= slack:
        return 0.0
    ratio = min(max((target - a) / (b - a), 0.0), 1.0)
    return float(np.arcsin(np.sqrt(ratio)))


def sq_param(a, b, eps) -> float:
    """Squeezer parameter raising the pair (a, b) to (a + eps, b + eps)."""
    _positive_finite((a, b))
    if not np.isfinite(eps):
        raise ValueError("eps must be finite, and the diagonal values positive finite reals")
    if eps < -COUPLING_TOL * (1.0 + a + b):
        raise InfeasibleRedistributionError("squeezing can only raise the pair, eps must be >= 0")
    eps = max(float(eps), 0.0)
    return float(np.arcsinh(np.sqrt(eps / (a + b))))


def diagonalize_balanced(form: TwoModeStandardForm):
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
    slack = COUPLING_TOL * (1.0 + max(abs(kx), abs(kp)))
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


#: The exact mode swap [[0, I], [-I, 0]]: (q_a, p_a, q_b, p_b) -> (q_b, p_b, -q_a, -p_a).
_SWAP = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))


def pair_factor(a, b, t_a, t_b) -> np.ndarray:
    """General two-mode symplectic moving diagonal pair (a, b) to (t_a, t_b).

    S diag(a, a, b, b) S^T has diagonal blocks t_a * I and t_b * I, and its
    symplectic spectrum is still {a, b}.  Feasibility is the two-sided
    condition: the targets' sum must weakly exceed the sources' sum while
    their spread must not exceed the sources' spread.

    S is built forward from the sorted arguments.  X (+) P is the standard
    form with locals (t_lo, t_hi) and spectrum D = diag(s_lo, s_hi), its
    couplings and root determinants from ``_couplings``; S_q = X^(1/2) U D^(-1/2)
    acts on the q quadratures and S_p = P^(1/2) W D^(-1/2) on the p ones, with
    U, W from the rotations of one ``_svd2`` of K = X^(1/2) P^(1/2) in
    ``_pivot_factor``'s gauge, so S_q S_p^T = I.  Mode swaps then put the
    values on the requested slots.  Past ``_svd2`` the work is + - * / sqrt,
    and tr X + 2 sqrt(det X) is summed in quarters, so it does not overflow
    when the targets' sum passes the largest double.

    Raises:
        InfeasibleRedistributionError: the targets are not reachable.
        NumericalError: S misses the FACTOR_TOL gate (S D S^T against the
            standard form, and the symplecticity of S) relative to 1 + t_hi.
    """
    _positive_finite((a, b, t_a, t_b))
    s_lo, s_hi = sorted((float(a), float(b)))
    t_lo, t_hi = sorted((float(t_a), float(t_b)))
    slack = COUPLING_TOL * (1.0 + s_hi + t_hi)
    if t_lo + t_hi < s_lo + s_hi - slack or (t_hi - t_lo) > (s_hi - s_lo) + slack:
        raise InfeasibleRedistributionError(
            f"targets ({t_a}, {t_b}) are not reachable from ({a}, {b})"
        )
    kx, kp, dx, dp = _couplings(t_lo, t_hi, s_lo, s_hi)
    # X^(1/2) = (X + sqrt(det X) I) / sqrt(tr X + 2 sqrt(det X)) and P^(1/2) as flat
    # triples; the root is taken of a quarter of the sum, finite where the sum overflows
    tx, tp = (2.0 * math.sqrt(0.25 * t_lo + 0.25 * t_hi + 0.5 * d) for d in (dx, dp))
    xh = xh0, xh1, xh2 = (t_lo + dx) / tx, kx / tx, (t_hi + dx) / tx
    ph = ph0, ph1, ph2 = (t_lo + dp) / tp, kp / tp, (t_hi + dp) / tp
    cu, su, _, _, cw, sw = _svd2(  # K = X^(1/2) P^(1/2) = R(psi) diag(., .) R(chi)
        xh0 * ph0 + xh1 * ph1, xh0 * ph1 + xh1 * ph2, xh1 * ph0 + xh2 * ph1, xh1 * ph1 + xh2 * ph2
    )
    # U D^(-1/2) and W D^(-1/2) as flat row-major 4-tuples, for U = R(psi) and
    # W = R(chi)^T with their columns swapped, so that the first mode takes s_lo
    rl, rh = math.sqrt(s_lo), math.sqrt(s_hi)
    uw = (-su / rl, cu / rh, cu / rl, su / rh), (sw / rl, cw / rh, cw / rl, -sw / rh)
    # S_q on the q rows and columns (0::2), S_p on the p ones (1::2)
    S = np.zeros((4, 4))
    for r, (h0, h1, h2), (c0, c1, c2, c3) in zip((0, 1), (xh, ph), uw):
        S[r::2, r::2] = (h0 * c0 + h1 * c2, h0 * c1 + h1 * c3), (h1 * c0 + h2 * c2, h1 * c1 + h2 * c3)
    # the gate reads the nonzero blocks, S_q D S_q^T - X, S_p D S_p^T - P and S_q S_p^T - I
    Sq, Sp = S[0::2, 0::2], S[1::2, 1::2]
    fact = [(H * (s_lo, s_hi)) @ H.T - ((t_lo, k), (k, t_hi)) for H, k in ((Sq, kx), (Sp, kp))]
    symp = Sq @ Sp.T - np.eye(2)
    _factor_gate(float(np.max(np.abs(fact))), float(np.max(np.abs(symp))), 1.0 + t_hi)
    if a > b:
        S = S @ _SWAP
    if t_a > t_b:
        S = _SWAP @ S
    return S
