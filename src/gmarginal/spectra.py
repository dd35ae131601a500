"""Symplectic spectra, normal-form factorization, physicality and dominance tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidCovarianceError, NumericalError
from .symplectic import (
    COUPLING_TOL,
    FACTOR_TOL,
    _factor_gate,
    _omega_gram,
    _omega_rows,
    _positive_finite,
    _symplectic_residual,
    _symmetrized,
)


@dataclass(frozen=True)
class DominanceCertificate:
    """Witness of the spectral compatibility test.

    ``partial_sum_slacks[k]`` is sum(m_sorted[:k+1]) - sum(kappa_sorted[:k+1])
    and ``tail_slack`` is
    (kappa_n - sum(kappa_sorted[:-1])) - (m_n - sum(m_sorted[:-1])).
    The pair is compatible exactly when every slack is nonnegative.
    """

    kappa_sorted: np.ndarray
    m_sorted: np.ndarray
    partial_sum_slacks: np.ndarray
    tail_slack: float
    compatible: bool


@dataclass(frozen=True)
class WilliamsonFactorization:
    """Symplectic congruence V = S diag(k1, k1, ..., kn, kn) S^T.

    ``factor_residual`` is max |S D S^T - V| and ``symplectic_residual``
    max |S Omega S^T - Omega|, the two values the factorization gate read.
    """

    S: np.ndarray
    kappa: np.ndarray
    factor_residual: float
    symplectic_residual: float


def _chol_form(V: np.ndarray):
    """Validate V and return (V, L, L^T Omega L) with V = L L^T Cholesky.

    The V returned is the caller's own array when that is exactly symmetric
    (``_symmetrized``), so no routine may write to it.

    The third matrix A is formed by ``_omega_gram``, so it is exactly
    antisymmetric.  It is similar to Omega V (L^-T A L^T = Omega V), so
    i A is Hermitian with eigenvalues -kappa_n, ..., -kappa_1, kappa_1,
    ..., kappa_n.

    Raises:
        InvalidCovarianceError: V is not symmetric or not positive definite
            (a singular positive semidefinite V included).
    """
    V = _symmetrized(V)
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError("covariance matrix is not positive definite") from None
    return V, L, _omega_gram(L.T)


def symplectic_spectrum(V: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted nondecreasing.

    The kappa of ``_normal_basis`` on A = L^T Omega L of the Cholesky factor
    V = L L^T, sorted, so it equals ``williamson(V).kappa`` bitwise.  Each
    kappa_j is read from the 2 x 2 block j of O^T A O for the orthogonal O
    of a real ``eigh``, and never from the squared eigenvalues or the
    non-normal product Omega V.  ``eigh`` is backward stable, so each kappa
    carries an absolute error of a few ulps of kappa_n, plus the Cholesky
    error, which grows with cond(V) (Idel, Soto Gaona and Wolf, LAA 2017).

    An exactly symmetric V is read, not copied, and each 2n x 2n buffer is
    released once dead: the peak memory is at most 4.0 arrays of 2n x 2n on
    every spectrum, tied or not, LAPACK's workspace aside
    (``tests/test_working_set.py``, n = 128).

    Raises:
        InvalidCovarianceError: V is not a valid positive definite covariance.
        NumericalError: a computed kappa is not positive (V is near-singular).
    """
    return np.sort(_normal_basis(_chol_form(V)[2])[2])


def williamson(V: np.ndarray) -> WilliamsonFactorization:
    """Factor V as S diag(kappa pairs) S^T with S symplectic and kappa sorted.

    ``_normal_basis`` gives the orthogonal O (as P = O^T) whose N = O^T A O
    is the direct sum of kappa_j J within each cluster of tied kappa, with
    J = [[0, 1], [-1, 0]].  O <- O (I + X) then removes the blocks E_ij of N
    that couple two clusters to first order: kappa_i J X_ij - X_ij kappa_j J
    = -E_ij, solved by dividing the part of E_ij that commutes with J by
    kappa_i - kappa_j and the part that anticommutes with it by
    kappa_i + kappa_j.

    S = L O D^(-1/2) then gives S D S^T = L L^T = V, and it is symplectic
    because O D^(-1/2) Omega D^(-1/2) O^T = -A^-1 = L^-1 Omega L^-T.

    An exactly symmetric V is read, not copied, each 2n x 2n buffer is
    released once dead, and F F^T - V and S = F D^(-1/2) are formed in
    place: the peak memory, S included, is at most 5.0 arrays of 2n x 2n on
    every spectrum, tied or not, LAPACK's workspace aside
    (``tests/test_working_set.py``, n = 128).
    """
    V, L, A = _chol_form(V)
    P, G, kappa, label, scale = _normal_basis(A)
    # each 2n x 2n buffer is released as soon as it is dead, which keeps the peak memory down
    del A
    n = kappa.size
    N = G @ P.T
    del G
    N *= 0.5  # halved before the difference, which could overflow near the top of the range
    N -= N.T  # the antisymmetrized N
    # X = Y - Y^T: block (i, j) of Y is J E_ij / 2 (1/(k_i - k_j) + 1/(k_i + k_j))
    # = J E_ij k_i / (k_i^2 - k_j^2) between clusters and 0 inside one, and
    # Omega N holds every J E_ij.  u is homogeneous of degree -1 in kappa, so it is
    # formed on kappa times A's power-of-two scale, which keeps (k_i - k_j)(k_i + k_j)
    # in range, and scaled back; in the normal range that is exact
    ks = kappa * scale
    k = ks[:, None]
    u = np.divide(k, (k - ks) * (k + ks), out=np.zeros((n, n)), where=label[:, None] != label)
    u *= scale
    Y = _omega_rows(N)
    del N
    Y.reshape(n, 2, 2 * n)[...] *= np.repeat(u, 2, axis=1)[:, None, :]
    Y = Y.T - Y  # X
    P += Y @ P  # O <- O (I + X)
    del Y
    if np.any(np.diff(kappa) < 0.0):  # tied kappa can come out an ulp out of order
        order = np.argsort(kappa, kind="stable")
        kappa, P = kappa[order], P[(2 * order[:, None] + np.arange(2)).ravel()]
    F = L @ P.T  # S D^(1/2), so S D S^T = F F^T, a symmetric rank-k product
    del L, P
    res_fact = float(np.max(np.abs(F @ F.T - V)))  # NumPy subtracts V in the product's buffer
    S = np.multiply(F, 1.0 / np.sqrt(np.repeat(kappa, 2)), out=F)  # F D^(-1/2), in place
    res_symp = _symplectic_residual(S)
    _factor_gate(res_fact, res_symp, 1.0 + float(np.max(np.abs(V))))
    return WilliamsonFactorization(S, kappa, res_fact, res_symp)


def _normal_basis(A: np.ndarray):
    """(P, G, kappa, label, scale): the one kappa kernel, on A = L^T Omega L.

    1. ``eigh`` of A^T A = -A^2 (eigenvalues kappa_j^2, each twice; formed
       from A times ``scale``, the power of two that brings max |A| into
       [1/2, 1), so kappa^2 stays in range) gives an
       orthogonal O, and P = O^T, G = P A.  N = G P^T is block diagonal over
       the clusters of tied kappa (gaps at most FACTOR_TOL * kappa_n, cluster
       ``label`` per pair) up to round-off.
    2. An untied pair's 2 x 2 block of N is already kappa_j J up to its
       orientation: the pair's second row of P and of G is negated when the
       coupling G[2j] . P[2j+1] is negative.  Each cluster of p >= 2 gets an
       exact normal form: the rows (sqrt(2) Im u, sqrt(2) Re u) of each
       eigenvector u of i B, B its 2p x 2p block of N, with eigenvalue
       kappa > 0 span a block [[0, kappa], [-kappa, 0]].  ``eigh`` sorts its
       eigenvalues, so a cluster is a run of consecutive pairs, rows lo:hi
       of P and G: one ``eigh`` per cluster, and products on those rows
       only.  The rows of P are copied first, since P is column-major and a
       strided operand rounds differently, which would give another U(p)
       frame of the cluster.
    3. kappa_j, in the order of the pairs, is the antisymmetrized entry
       (N[2j, 2j+1] - N[2j+1, 2j]) / 2 read by row dot products from G and P,
       which costs O(n^2) and does not form N.  Squared eigenvalues would
       lose relative accuracy on small kappa.

    Raises:
        NumericalError: a computed kappa is not positive.
    """
    scale = 2.0 ** -np.frexp(np.max(np.abs(A)))[1]
    As = A * scale  # exact rescale: no over- or underflow in A^T A
    As = As.T @ As  # the scaled A^T A; the scaled A is released
    w, O = np.linalg.eigh(As)  # clusters are found from kappa ratios only
    del As
    P = O.T  # rows are O's columns, so a cluster's basis vectors are a block of rows
    G = P @ A
    flip = np.copysign(1.0, np.einsum("ij,ij->i", G[0::2], P[1::2]))[:, None]
    P[1::2] *= flip
    G[1::2] *= flip
    k_est = np.sqrt(np.abs(w[1::2]))
    gap = np.diff(k_est) > FACTOR_TOL * k_est[-1]
    label = np.concatenate(([0], np.cumsum(gap)))
    ends = 2 * np.cumsum(np.bincount(label))
    for lo, hi in zip([0] + ends[:-1].tolist(), ends.tolist()):
        if hi - lo > 2:  # a cluster of p >= 2 pairs, on its own 2p rows
            # a copy: P = O^T is column-major, and a strided operand rounds differently
            Pc = P[lo:hi].copy()
            B = G[lo:hi] @ Pc.T
            U = np.linalg.eigh(0.5j * (B - B.T))[1][:, (hi - lo) // 2 :]
            # Q^T: rows (sqrt(2) Im u, sqrt(2) Re u) for the columns u of U
            Qt = np.empty_like(B)
            Qt[0::2], Qt[1::2] = np.sqrt(2.0) * U.imag.T, np.sqrt(2.0) * U.real.T
            P[lo:hi] = Qt @ Pc
            G[lo:hi] = Qt @ G[lo:hi]
    # halved before the difference, which could overflow near the top of the double range
    kappa = 0.5 * np.einsum("ij,ij->i", G[0::2], P[1::2]) - 0.5 * np.einsum("ij,ij->i", G[1::2], P[0::2])
    if not np.min(kappa) > 0.0:
        raise NumericalError("a computed symplectic eigenvalue is not positive; V is near-singular")
    return P, G, kappa, label, scale


def _above_vacuum(kappa_min) -> bool:
    """The package's vacuum rule kappa_min >= 1 - COUPLING_TOL, which allows spectral round-off."""
    return bool(kappa_min >= 1.0 - COUPLING_TOL)


def check_physical(V: np.ndarray) -> bool:
    """True when the smallest symplectic eigenvalue of V is >= 1 - COUPLING_TOL.

    That is the package's vacuum rule, the one ``synthesize``,
    ``jacobi_decompose`` and CLI ``check`` apply; symmetry is tested at
    DEFAULT_TOL.  Returns False (instead of raising) when V is not a valid
    covariance matrix, e.g. not symmetric or not positive definite.
    """
    try:
        kappa = symplectic_spectrum(V)
    except InvalidCovarianceError:
        return False
    return _above_vacuum(kappa[0])


def _sum_shift(kappa, m) -> int:
    """The least s >= 0 with n max(kappa, m) 2^-s < 2^1023, for sorted kappa and m of size n.

    No sum or difference of sums of the entries times 2^-s overflows.  A
    power of two scales exactly (unless an entry falls below the normal
    range), and s = 0 unless an entry passes 2^(1023 - bit length of n), so
    below about 1e305 the slacks keep every bit.
    """
    return max(0, math.frexp(max(kappa[-1], m[-1]))[1] + m.size.bit_length() - 1023)


def dominates(kappa, m) -> DominanceCertificate:
    """Test whether local parameters m are reachable from global parameters kappa.

    kappa and m must be equal-length, nonempty vectors of positive finite
    reals; ``synthesize`` and the CLI leave these two checks to this
    function.  Both vectors are sorted internally.  Reachability requires
    every partial sum of m to weakly exceed the matching partial sum of
    kappa, together with one tail condition bounding how far the largest
    entry of m may stand out; the certificate records all slacks.
    """
    kappa = np.asarray(kappa, dtype=float)
    m = np.asarray(m, dtype=float)
    if kappa.ndim != 1 or kappa.shape != m.shape or kappa.size == 0:
        raise ValueError("expected two equal-length, nonempty vectors")
    kappa = np.sort(_positive_finite(kappa))
    m = np.sort(_positive_finite(m))
    # the sums run on the entries times 2^-s (``_sum_shift``), so none overflows;
    # scaled back, a slack past the largest double reads +-inf
    s = _sum_shift(kappa, m)
    ks, ms = kappa * 2.0**-s, m * 2.0**-s
    partial = np.cumsum(ms) - np.cumsum(ks)
    tail = float((ks[-1] - ks[:-1].sum()) - (ms[-1] - ms[:-1].sum())) * 2.0**s
    with np.errstate(over="ignore"):
        partial *= 2.0**s
    compatible = bool(np.all(partial >= 0.0) and tail >= 0.0)
    return DominanceCertificate(
        kappa_sorted=kappa,
        m_sorted=m,
        partial_sum_slacks=partial,
        tail_slack=tail,
        compatible=compatible,
    )


def _within_slack(cert: DominanceCertificate):
    """(worst slack, ok): ok allows round-off down to -COUPLING_TOL (1 + sum |m|).

    Computed spectra wobble by round-off on the boundary faces, e.g. an
    uncoupled matrix, where every slack is zero.
    """
    worst = min(float(np.min(cert.partial_sum_slacks)), cert.tail_slack)
    s = _sum_shift(cert.kappa_sorted, cert.m_sorted)  # keeps sum |m| in range, as in ``dominates``
    total = 2.0**-s + float(np.sum(np.abs(cert.m_sorted * 2.0**-s)))
    return worst, bool(worst >= -math.ldexp(COUPLING_TOL * total, s))

