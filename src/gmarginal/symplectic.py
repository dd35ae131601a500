"""Symplectic form, elementary two-mode generators, and random state construction.

All matrices use the quadrature ordering q1, p1, q2, p2, ..., qn, pn, so a
covariance matrix of an n-mode state is 2n x 2n and mode j occupies rows and
columns 2j-2 and 2j-1.  Mode indices in the public API are 1-based.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import InvalidCovarianceError, NumericalError

# The package's thresholds, each named once; see "Tolerances" in the README.
# Only is_symplectic takes a ``tol``.

#: Structure: ``validate_covariance`` rejects max|V - V^T| > DEFAULT_TOL (1 + max|V|).
#: Also ``synthesize``'s bookkeeping allowance (relative) and the default ``tol`` of
#: ``is_symplectic`` (absolute).
DEFAULT_TOL = 1e-10
#: Spectral round-off: the vacuum rule kappa_min >= 1 - COUPLING_TOL (of
#: ``check_physical``, ``synthesize``, ``jacobi_decompose`` and CLI ``check``), the
#: dominance allowance of ``_within_slack`` and the two-mode feasibility checks,
#: each scaled there.
COUPLING_TOL = 1e-9
#: ``verify``'s bound: absolute on the symplectic residual, relative to
#: 1 + max(kappa_n, m_n) on the diagonal and spectral ones and on ``synthesize``'s
#: final diagonal check.
VERIFY_TOL = 1e-8
#: Factorization gate of ``williamson`` and the two-mode kernel, relative to 1 + max|V|;
#: also ``williamson``'s cluster threshold for tied kappa, relative to kappa_n.
FACTOR_TOL = 1e-6
#: ``jacobi_decompose``'s relative skip rule: pair (j, k) is not pivoted when its
#: off-block max-norm is at most _JACOBI_EPS sqrt(m_j) sqrt(m_k), for m_j and m_k
#: the pair's current local parameters (Demmel and Veselic, SIMAX 13, 1992).
_JACOBI_EPS = 1e-12

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _whole(x, lo: int, hi=math.inf) -> bool:
    """The rule for a mode index or count: an int or NumPy integer, not a bool, in [lo, hi]."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= x <= hi


def mode_slice(j: int) -> slice:
    """Slice selecting the (q, p) rows/columns of 1-based mode j, a positive int."""
    if not _whole(j, 1):
        raise ValueError("mode index must be a positive integer")
    return slice(2 * (j - 1), 2 * j)


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form (direct sum of [[0, 1], [-1, 0]])."""
    if not _whole(n, 1):
        raise ValueError("mode count must be a positive integer")
    omega = np.zeros((2 * n, 2 * n))
    # [j, :, j] of the (n, 2, n, 2) view is mode j's diagonal 2x2 block
    omega.reshape(n, 2, n, 2)[range(n), :, range(n)] = _J2
    return omega


def is_symplectic(S: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Check whether S * Omega * S^T = Omega within an absolute max-norm tolerance."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    if S.shape[0] == 0 or S.shape[0] % 2 != 0:
        raise ValueError("expected an even, nonzero dimension")
    # a non-finite entry would make the product warn; it is not symplectic
    return bool(np.isfinite(S).all()) and _symplectic_residual(S) <= tol


def _positive_finite(values) -> np.ndarray:
    """``values`` as a float array; ValueError unless every entry lies in (0, inf).

    The package's one rule for a spectral value (a symplectic eigenvalue, a
    local parameter, a diagonal value of a pair).  The test runs over
    Python floats, which is cheaper than NumPy ufuncs on the two-mode
    kernels' three or four scalars; a NaN fails it.
    """
    x = np.asarray(values, dtype=float)
    if not all(0.0 < v < math.inf for v in x.ravel().tolist()):
        raise ValueError("spectral parameters must be positive finite reals")
    return x


def _omega_rows(M: np.ndarray) -> np.ndarray:
    """Omega @ M without forming Omega: rows (2j, 2j+1) become (row 2j+1, -row 2j).

    The negated rows are 0 - row, so a zero entry comes out +0.0, as it
    does in the dense product, instead of -0.0.
    """
    out = np.empty_like(M)
    out[0::2] = M[1::2]
    np.subtract(0.0, M[0::2], out=out[1::2])
    return out


def _subtract_omega(R: np.ndarray) -> np.ndarray:
    """R - Omega in place, for a C-contiguous square R; returns R.

    Omega's entries are R[2j, 2j + 1] and R[2j + 1, 2j], two strided views
    of the flat R, so no dense Omega is formed.
    """
    step = 2 * R.shape[0] + 2
    flat = R.reshape(-1)
    flat[1::step] -= 1.0
    flat[R.shape[0] :: step] += 1.0
    return R


def _omega_gram(X: np.ndarray) -> np.ndarray:
    """X Omega X^T as K - K^T with K = X[:, 0::2] X[:, 1::2]^T.

    That is half the flops of a full product, and the result is exactly
    antisymmetric and C-contiguous.
    """
    K = X[:, 0::2] @ X[:, 1::2].T
    return K - K.T


def _symplectic_residual(S: np.ndarray) -> float:
    """max |S Omega S^T - Omega|, with S Omega S^T formed by ``_omega_gram``."""
    return float(np.max(np.abs(_subtract_omega(_omega_gram(S)))))


def _factor_gate(res_fact: float, res_symp: float, scale: float) -> None:
    """Raise NumericalError when a normal-form factor misses FACTOR_TOL * scale.

    A NaN residual misses it too.
    """
    bound = FACTOR_TOL * scale
    if not (res_fact <= bound and res_symp <= bound):
        raise NumericalError("normal-form factorization did not reach the required accuracy")


def symplectic_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix, -Omega S^T Omega = Omega (Omega S)^T."""
    S = np.asarray(S, dtype=float)
    return _omega_rows(_omega_rows(S).T)


def _check_pair(j: int, k: int, n: int) -> None:
    if not _whole(n, 2):
        raise ValueError("a two-mode generator needs at least two modes")
    for idx in (j, k):
        if not _whole(idx, 1, n):
            raise ValueError(f"mode index {idx} out of range 1..{n}")
    if j == k:
        raise ValueError("the two mode indices must differ")


def _finite(x, what: str) -> float:
    """x as a float; ValueError when it is an inf or a NaN."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite")
    return x


def _bs_block(theta: float) -> np.ndarray:
    """[[c I, s I], [-s I, c I]]; the zeros carry the signs that c * I would give."""
    c, s = np.cos(theta), np.sin(theta)
    zc, zs = 0.0 * c, 0.0 * s
    return np.array([[c, zc, s, zs], [zc, c, zs, s], [-s, -zs, c, zc], [-zs, -s, zc, c]])


def _sq_block(mu: float) -> np.ndarray:
    """[[c I, s Z], [s Z, c I]] with Z = diag(1, -1), signed zeros as in s * Z."""
    c, s = np.cosh(mu), np.sinh(mu)
    zc, zs = 0.0 * c, 0.0 * s
    return np.array([[c, zc, s, zs], [zc, c, zs, -s], [s, zs, c, zc], [zs, -s, zc, c]])


def expand_two_mode(S4: np.ndarray, j: int, k: int, n: int) -> np.ndarray:
    """Embed a 4x4 symplectic acting on modes (j, k) into a 2n x 2n identity."""
    _check_pair(j, k, n)
    S4 = np.asarray(S4, dtype=float)
    if S4.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    S = np.eye(2 * n)
    ids = np.array((2 * j - 2, 2 * j - 1, 2 * k - 2, 2 * k - 1))
    S[ids[:, None], ids] = S4  # the open mesh of np.ix_(ids, ids), built without its overhead
    return S


def beam_splitter_pair(theta: float, j: int, k: int, n: int) -> np.ndarray:
    """Beam splitter of angle theta acting on modes (j, k) of an n-mode system.

    On an uncorrelated diagonal pair diag(a, a, b, b) the congruence
    S V S^T keeps the sum a + b exact and scales the difference by
    cos(2 theta); theta = pi/2 swaps the two modes.  A non-finite theta
    raises ValueError.
    """
    return expand_two_mode(_bs_block(_finite(theta, "beam splitter angle")), j, k, n)


def squeezer_pair(mu: float, j: int, k: int, n: int) -> np.ndarray:
    """Two-mode squeezer of parameter mu acting on modes (j, k).

    On an uncorrelated diagonal pair diag(a, a, b, b) the congruence keeps
    the difference a - b exact and scales the sum by cosh(2 mu).  A
    non-finite mu raises ValueError.
    """
    return expand_two_mode(_sq_block(_finite(mu, "squeezing parameter")), j, k, n)


def validate_covariance(V: np.ndarray) -> np.ndarray:
    """Validate shape/symmetry of a covariance matrix and return a symmetrized copy.

    The result is always a new array, which the caller may overwrite; it is
    V's values when V is exactly symmetric.  The package's own routines only
    read V and validate through ``_symmetrized``, which does not copy an
    exactly symmetric V.  Positive definiteness is not checked here;
    routines that need it check it where the factorization happens.
    """
    V = np.asarray(V, dtype=float)
    out = _symmetrized(V)
    return V.copy() if out is V else out


def _symmetrized(V: np.ndarray) -> np.ndarray:
    """``validate_covariance``'s checks and values, but V itself when it is exactly symmetric.

    For a caller that only reads the result, so an exactly symmetric V is
    not copied.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InvalidCovarianceError("covariance matrix must be square")
    if V.shape[0] == 0 or V.shape[0] % 2 != 0:
        raise InvalidCovarianceError("covariance matrix must be 2n x 2n with n >= 1")
    big = float(np.max(np.abs(V)))
    if not big < math.inf:  # an inf or a NaN entry
        raise InvalidCovarianceError("covariance matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # an overflow is an asymmetry far above the bound
        asym = float(np.max(np.abs(V - V.T)))
    if asym > DEFAULT_TOL * (1.0 + big):
        raise InvalidCovarianceError("covariance matrix is not symmetric")
    # the same values as 0.5 (V + V^T), but a sum of two finite entries can overflow
    return V if asym == 0.0 else 0.5 * V + 0.5 * V.T


def local_parameters(V: np.ndarray) -> np.ndarray:
    """Local parameters m_j = sqrt(det B_j) of the single-mode blocks, in mode order.

    Each m_j is the d of one ``_spd_roots`` call, so every finite positive
    definite block is accepted, at any scale and however unequal its
    diagonal entries.

    Raises:
        InvalidCovarianceError: V is not a valid covariance matrix, or a
            single-mode block is not positive definite.
    """
    return np.array([d for _, _, d in _block_roots(_symmetrized(V))])


def _block_roots(V: np.ndarray) -> list:
    """``_spd_roots`` of each single-mode block of an exactly symmetric V, in mode order."""
    d = V.diagonal()
    blocks = zip(d[0::2].tolist(), V.diagonal(1)[0::2].tolist(), d[1::2].tolist())
    return [_spd_roots(x0, xk, x1, j) for j, (x0, xk, x1) in enumerate(blocks, 1)]


def _sqrt_det(x0, xk, x1, block=None):
    """sqrt(det X) of the SPD X = [[x0, xk], [xk, x1]] as (d, e): sqrt(det X) = d 2^e.

    Every 2x2 determinant of a matrix but one comes from here (``pair_factor``
    takes its own from the spectra); the other is ``two_mode_invariants``'
    det V = (m_a m_b - k_x^2)(m_a m_b - k_p^2) of the standard shape, so a
    more accurate determinant has both sites to cover.  When det X leaves
    [2^-600, 2^600] (it over- or underflows far sooner than the entries
    do), d is taken of 4^-s X, with s from the binary exponents of x0 and
    x1, and e = 2s; elsewhere e = 0.  Power-of-two scaling is exact, so
    ``math.ldexp(d, e)`` is the unscaled formula's value bit for bit
    wherever that formula stays in range, and exactly scale equivariant
    beyond it.

    Raises:
        InvalidCovarianceError: X is not positive definite; the message
            names single-mode block ``block`` when one is given.
    """
    det = x0 * x1 - xk * xk
    if not 2.0**-600 <= det <= 2.0**600:
        e = (math.frexp(x0)[1] + math.frexp(x1)[1]) // 4 * 2
        if e:
            d, inner = _sqrt_det(*(math.ldexp(x, -e) for x in (x0, xk, x1)), block)
            return d, e + inner
    if x0 <= 0.0 or det <= 0.0:
        what = "two-mode covariance matrix" if block is None else f"single-mode block {block}"
        raise InvalidCovarianceError(f"{what} is not positive definite")
    return math.sqrt(det), 0


def _spd_roots(x0, xk, x1, block=None):
    """Square root and inverse square root of the SPD X = [[x0, xk], [xk, x1]].

    Closed forms X^(1/2) = (X + d I) / t and X^(-1/2) = (adj X + d I) / (t d)
    with d = sqrt(det X) and t = sqrt(tr X + 2 d).  Both roots are
    symmetric, so each comes back as the flat triple (r00, r01, r11).
    Returns (root, inv_root, d).

    d comes from ``_sqrt_det``; when that rescales X by 4^-s, the roots are
    taken once of 4^-s X too and scaled back, the root by 2^s and the
    inverse root by 2^-s, so they share its range and its exact scale
    equivariance.  Raises what ``_sqrt_det`` raises.
    """
    d, e = _sqrt_det(x0, xk, x1, block)
    if e:
        root, inv_root, _ = _spd_roots(*(math.ldexp(x, -e) for x in (x0, xk, x1)))
        root = tuple(math.ldexp(r, e // 2) for r in root)
        return root, tuple(math.ldexp(r, -e // 2) for r in inv_root), math.ldexp(d, e)
    t = math.sqrt(x0 + x1 + 2.0 * d)
    u = 1.0 / (t * d)
    return ((x0 + d) / t, xk / t, (x1 + d) / t), ((x1 + d) * u, -xk * u, (x0 + d) * u), d


def local_normal_form(V: np.ndarray):
    """Bring every single-mode block to an isotropic multiple of the identity.

    L_j = sqrt(m_j) B_j^(-1/2) and m_j come from one closed-form root
    ``_spd_roots`` per mode, step 0 of the two-mode kernel
    ``two_mode._pivot_factor``, so no eigensolver runs and every finite
    positive definite V is accepted, at any scale; L acts block by block on
    rows, then columns.

    Args:
        V: 2n x 2n covariance matrix; its symmetry is tested at DEFAULT_TOL.

    Returns:
        (V2, locals, m) where ``locals`` is a list of per-mode 2x2
        symplectics with unit determinant, ``V2 = L V L^T`` for the direct
        sum L of those blocks, every diagonal block of V2 equals m_j * I,
        and ``m`` holds the local parameters, bit for bit those of
        ``local_parameters``.

    The peak memory, V2 included, is at most 3.5 arrays of 2n x 2n
    (``tests/test_working_set.py``, n = 128).
    """
    V = _symmetrized(V)
    n = V.shape[0] // 2
    roots = _block_roots(V)
    inv_roots = np.array([r for _, r, _ in roots])  # (r00, r01, r11) per mode
    m = np.array([d for _, _, d in roots])
    L = inv_roots[:, [0, 1, 1, 2]].reshape(n, 2, 2) * np.sqrt(m)[:, None, None]
    # each product replaces the one before it, so at most two 2n x 2n arrays are alive
    V = (L @ V.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)  # L V
    V = (L @ V.T.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)  # L (L V)^T = L V L^T
    # halved before the sum, which could overflow near the top of the double range;
    # NumPy reads the overlapping V.T from a copy, so this is 0.5 V + 0.5 V^T
    V *= 0.5
    V += V.T
    return V, list(L), m


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def random_state(n: int, seed: int, kappa_range=(1.0, 4.0)):
    """Draw a reproducible random n-mode covariance matrix, physical in exact arithmetic.

    Global parameters are drawn uniformly from ``kappa_range`` (finite, with
    a lower bound of at least 1) and scrambled by a product of 4 n^2 random
    elementary symplectics: beam splitters with theta in [0, 2 pi), two-mode
    squeezers with mu in [0, 0.5], and local rotations/squeezes.  Each
    generator multiplies only its own two or four rows of S, in place, at
    O(n) cost, so the matrix work of the whole draw is O(n^3); its wall time
    is set by the 4 n^2 draws of the random generator.  V is formed once as
    F F^T with F = S D^(1/2); NumPy computes a matrix times its own
    transpose as one triangle and mirrors it, so V is exactly symmetric.

    The generators compound the squeezing, so cond(V) grows with n: for
    seed 3 it is 1.7e4 at n = 8, 4.1e11 at n = 24 and 2.8e16 at n = 32.
    The computed V is then not physical at large n: at n = 32, seed 3,
    ``symplectic_spectrum(V)`` misses kappa_used by 1.4e-2 and
    ``check_physical(V)`` is False, and at n = 48 ``symplectic_spectrum``
    rejects V as not positive definite.

    Returns:
        (V, S_used, kappa_used) with V = S_used D S_used^T, where D is the
        diagonal matrix built from kappa_used.
    """
    if not _whole(n, 1):
        raise ValueError("mode count must be a positive integer")
    lo, hi = float(kappa_range[0]), float(kappa_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("kappa_range must be a finite interval")
    if lo < 1.0:
        raise ValueError("the lower end of kappa_range must be at least 1")
    if hi < lo:
        raise ValueError("kappa_range must be a nondecreasing interval")
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(lo, hi, size=n)
    S = np.eye(2 * n)
    kinds = ("bs", "rot", "sq2", "sq1") if n >= 2 else ("rot", "sq1")
    probs = (0.4, 0.25, 0.2, 0.15) if n >= 2 else (0.6, 0.4)
    for _ in range(4 * n * n):
        kind = rng.choice(kinds, p=probs)
        if kind in ("bs", "sq2"):
            j, k = (np.sort(rng.choice(n, size=2, replace=False)) * 2).tolist()
            ids = [j, j + 1, k, k + 1]
            if kind == "bs":
                G = _bs_block(rng.uniform(0.0, 2.0 * np.pi))
            else:
                G = _sq_block(rng.uniform(0.0, 0.5))
        else:
            j = 2 * int(rng.integers(1, n + 1)) - 2
            ids = [j, j + 1]
            if kind == "rot":
                G = _rotation(rng.uniform(0.0, 2.0 * np.pi))
            else:
                r = rng.uniform(0.0, 0.5)
                G = np.diag([np.exp(r), np.exp(-r)])
        S[ids] = G @ S[ids]
    F = S * np.sqrt(np.repeat(kappa, 2))
    return F @ F.T, S, kappa
