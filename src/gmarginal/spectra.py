"""Symplectic spectra, normal-form factorization, physicality and dominance
tests, thermal eigenvalues."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidCovarianceError, NumericalError
from .symplectic import (
    COUPLING_TOL,
    _factor_gate,
    _omega_rows,
    _symplectic_residual,
    validate_covariance,
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
    """Symplectic congruence V = S diag(k1, k1, ..., kn, kn) S^T."""

    S: np.ndarray
    kappa: np.ndarray


def _chol_form(V: np.ndarray):
    """Validate V and return (V, L, L^T Omega L) with V = L L^T Cholesky.

    The third matrix A is antisymmetrized exactly.  It is similar to
    Omega V (L^-T A L^T = Omega V), so i A is Hermitian with eigenvalues
    -kappa_n, ..., -kappa_1, kappa_1, ..., kappa_n.

    Raises:
        InvalidCovarianceError: V is not symmetric or not positive definite
            (a singular positive semidefinite V included).
    """
    V = validate_covariance(V)
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError("covariance matrix is not positive definite") from None
    A = L.T @ _omega_rows(L)
    return V, L, 0.5 * (A - A.T)


def symplectic_spectrum(V: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted nondecreasing.

    The real antisymmetric A = L^T Omega L of the Cholesky factor V = L L^T
    has the eigenvalues +-i kappa_j of Omega V, so its singular values are
    kappa_1, kappa_1, ..., kappa_n, kappa_n; every other one of them,
    ascending, is returned.  This takes one Cholesky factorization and one
    real SVD without vectors, and never forms the non-normal product
    Omega V.  The SVD is backward stable on A, so each kappa carries an
    absolute error of a few ulps of kappa_n, plus the Cholesky error, which
    grows with cond(V) (Idel, Soto Gaona and Wolf, LAA 2017).
    """
    _, _, A = _chol_form(V)
    return np.linalg.svd(A, compute_uv=False)[::-2].copy()


def williamson(V: np.ndarray) -> WilliamsonFactorization:
    """Factor V as S diag(kappa pairs) S^T with S symplectic and kappa sorted.

    Uses the Hermitian matrix i * A, A = L^T Omega L for the Cholesky
    factor V = L L^T, as ``symplectic_spectrum`` does.  An eigenvector
    u = x + i y of i * A with eigenvalue kappa > 0 satisfies A x = kappa y
    and A y = -kappa x, and |x| = |y| = 1/sqrt(2) with x orthogonal to y,
    because u is orthogonal to its conjugate (an eigenvector for -kappa).
    So the columns (sqrt(2) y, sqrt(2) x) of each positive eigenvector form
    the orthogonal basis O with O^T A O the direct sum of
    [[0, kappa], [-kappa, 0]]: the handedness is right by construction
    (entry (a, b) of each block is +kappa).  ``eigh`` returns the
    eigenvalues ascending, so kappa comes out sorted, tied kappa included.

    S = L O D^(-1/2) then gives S D S^T = L L^T = V, and it is symplectic
    because O D^(-1/2) Omega D^(-1/2) O^T = -A^-1 = L^-1 Omega L^-T.
    """
    V, L, A = _chol_form(V)
    n = V.shape[0] // 2
    w, U = np.linalg.eigh(1j * A)
    kappa = w[n:].copy()
    if kappa[0] <= 0.0:
        raise NumericalError("a computed symplectic eigenvalue is not positive; V is near-singular")
    O = np.empty((2 * n, 2 * n))
    O[:, 0::2] = U[:, n:].imag
    O[:, 1::2] = U[:, n:].real
    d = np.repeat(kappa, 2)
    S = L @ (O * np.sqrt(2.0 / d))
    res_fact = float(np.max(np.abs((S * d) @ S.T - V)))
    _factor_gate(res_fact, _symplectic_residual(S), 1.0 + float(np.max(np.abs(V))))
    return WilliamsonFactorization(S=S, kappa=kappa)


def _above_vacuum(kappa_min, tol: float = COUPLING_TOL) -> bool:
    """The vacuum rule kappa_min >= 1 - tol; the default allows spectral round-off."""
    return bool(kappa_min >= 1.0 - tol)


def check_physical(V: np.ndarray, tol: float = COUPLING_TOL) -> bool:
    """True when the smallest symplectic eigenvalue of V is >= 1 - tol.

    ``tol`` is the vacuum slack only; the default is the package's vacuum
    rule, and symmetry is tested at DEFAULT_TOL.
    Returns False (instead of raising) when V is not a valid covariance
    matrix, e.g. not symmetric or not positive definite.
    """
    try:
        kappa = symplectic_spectrum(V)
    except InvalidCovarianceError:
        return False
    return _above_vacuum(kappa[0], tol)


def dominates(kappa, m) -> DominanceCertificate:
    """Test whether local parameters m are reachable from global parameters kappa.

    Both vectors are sorted internally.  Reachability requires every partial
    sum of m to weakly exceed the matching partial sum of kappa, together
    with one tail condition bounding how far the largest entry of m may
    stand out; the certificate records all slacks.
    """
    kappa = np.sort(np.asarray(kappa, dtype=float))
    m = np.sort(np.asarray(m, dtype=float))
    if kappa.ndim != 1 or kappa.shape != m.shape or kappa.size == 0:
        raise ValueError("expected two equal-length, nonempty vectors")
    if np.any(kappa <= 0.0) or np.any(m <= 0.0):
        raise ValueError("spectral parameters must be positive")
    partial = np.cumsum(m) - np.cumsum(kappa)
    tail = float((kappa[-1] - kappa[:-1].sum()) - (m[-1] - m[:-1].sum()))
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
    return worst, bool(worst >= -COUPLING_TOL * (1.0 + float(np.sum(np.abs(cert.m_sorted)))))


def thermal_eigenvalues(params, count: int):
    """Largest ``count`` eigenvalues of a product thermal state, descending.

    Each mode with local parameter m contributes a geometric ladder with
    ratio xi = (m - 1) / (m + 1); the global eigenvalues are the products
    prod_j (1 - xi_j) xi_j^(k_j) over occupation multi-indices k.  A
    best-first expansion over the multi-index lattice yields the top values
    without a fixed enumeration cutoff.  Ties are broken by lexicographic
    multi-index order.

    Returns:
        List of (eigenvalue, multi_index) pairs.
    """
    p = np.asarray(params, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a nonempty vector of local parameters")
    if np.any(p < 1.0):
        raise ValueError("local thermal parameters must be at least 1")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError("count must be a positive integer")
    n = p.size
    xi = (p - 1.0) / (p + 1.0)
    base = float(np.prod(1.0 - xi))
    heap = [(-base, (0,) * n)]
    out = []
    while heap and len(out) < count:
        negval, idx = heapq.heappop(heap)
        out.append((-negval, idx))
        # A multi-index is generated exactly once: only coordinates at or
        # after its last nonzero entry may be incremented.
        first = 0
        for j in range(n - 1, -1, -1):
            if idx[j] > 0:
                first = j
                break
        for j in range(first, n):
            child = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
            heapq.heappush(heap, (negval * float(xi[j]), child))
    return out
