"""High-precision oracle for the symplectic spectrum.

mpmath recomputes kappa of the floating-point matrix V itself at 50
significant digits (Cholesky factor L, then the eigenvalues kappa^2 of
A^T A for A = L^T Omega L), so a comparison measures the error of the
double-precision routine alone, not the round-off made in building V.
For ``verify`` the oracle forms S diag(kappa pairs) S^T from the
floating-point S at 50 digits too, so it measures how far the spectrum of
that exact product is from the requested kappa, which
``spectrum_residual`` must bound.
"""

import mpmath
import numpy as np
import pytest

import gmarginal as gm

from conftest import bloch_messiah_state

#: Largest relative kappa error allowed on the bounded states below
#: (cond(V) at most a few tens).
KAPPA_RTOL = 1e-13


def _mp_kappa(V):
    """Symplectic eigenvalues of the mpmath matrix V, ascending, at the working precision.

    They are the square roots of the eigenvalues of A^T A, each twice, for
    A = L^T Omega L: a symmetric eigenproblem, which mpmath's ``eigsy``
    solves where ``svd_r`` of A can stop without converging (it does on
    some n = 12 Bloch-Messiah states), and which agrees with ``svd_r``
    where that converges.
    """
    n = V.rows // 2
    L = mpmath.cholesky(V)
    omega = mpmath.zeros(2 * n)
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1
        omega[2 * j + 1, 2 * j] = -1
    A = L.T * omega * L
    return [mpmath.sqrt(w) for w in sorted(mpmath.eigsy(A.T * A, eigvals_only=True))[0::2]]


def oracle_kappa(V):
    """Symplectic eigenvalues of V at 50 digits, rounded to float, ascending."""
    with mpmath.workdps(50):
        return np.array([float(x) for x in _mp_kappa(mpmath.matrix(V.tolist()))])


def oracle_verify_error(S, kappa):
    """max_j |kappa'_j - kappa_j| for kappa' the spectrum of S diag(kappa pairs) S^T,
    with the product formed from the floating-point S and evaluated at 50 digits."""
    kappa = np.sort(np.asarray(kappa, dtype=float))
    with mpmath.workdps(50):
        S_mp = mpmath.matrix(S.tolist())
        V = S_mp * mpmath.diag(np.repeat(kappa, 2).tolist()) * S_mp.T
        return max(float(abs(x - k)) for x, k in zip(_mp_kappa(V), kappa.tolist()))


def _states():
    # n = 7 is odd, so one mode sits out each Jacobi round
    for n in (2, 4, 7, 8, 12):
        V, _ = bloch_messiah_state(np.random.default_rng(100 + n), n)
        yield f"bloch-messiah-{n}", V
    kappa = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
    _, W, _ = gm.synthesize(kappa, np.array([1.5, 1.5, 2.0, 2.0, 2.5, 3.5]))
    yield "tied-kappa-synthesis", W


STATES = dict(_states())
ROUTINES = {
    "symplectic_spectrum": gm.symplectic_spectrum,
    "williamson": lambda V: gm.williamson(V).kappa,
    "jacobi_decompose": lambda V: gm.jacobi_decompose(V)[1],
}


@pytest.mark.parametrize("routine", sorted(ROUTINES))
@pytest.mark.parametrize("state", sorted(STATES))
def test_kappa_matches_high_precision_oracle(state, routine):
    V = STATES[state]
    ref = oracle_kappa(V)
    err = float(np.max(np.abs(ROUTINES[routine](V) - ref) / ref))
    assert err <= KAPPA_RTOL, f"{routine} on {state}: relative kappa error {err:.2e}"


def _syntheses():
    seven_kappa = (1.0, 2.0, 3.0, 4.0, 5.0, 12.0, 18.0)
    yield "seven-mode-readme", seven_kappa, (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
    for n in (2, 4, 8):
        V, _ = bloch_messiah_state(np.random.default_rng(200 + n), n)
        yield f"bloch-messiah-{n}", gm.symplectic_spectrum(V), np.sort(gm.local_parameters(V))
    yield "tied-kappa", (1.0, 1.0, 2.0, 2.0, 2.0, 5.0), (1.5, 1.5, 2.0, 2.0, 2.5, 3.5)
    yield "all-tied-kappa", (2.0, 2.0, 2.0, 2.0), (2.5, 2.5, 2.5, 2.5)


SYNTHESES = {name: (kappa, m) for name, kappa, m in _syntheses()}


@pytest.mark.parametrize("case", sorted(SYNTHESES))
def test_verify_bound_covers_high_precision_error(case):
    kappa, m = SYNTHESES[case]
    S, _, _ = gm.synthesize(kappa, m)
    report = gm.verify(S, kappa, m)
    err = oracle_verify_error(S, kappa)
    assert report.ok
    bound = report.spectrum_residual
    assert 0.0 < err <= bound, f"{case}: error {err:.2e}, bound {bound:.2e}"


def test_general_step_keeps_the_requested_spectrum():
    """random_state(10, seed=4116), whose GEN step moves (3.25, 1934.9) to (1082.6, 1472.1).

    ``pair_factor`` takes the step's spectrum from its arguments; a factor of
    the rounded standard-form matrix put S's spectrum 9.1e-12 relative off
    kappa (1.1e-11 to 2.2e-11 under the non-FMA BLAS kernels, whose V differs).
    The bound is not KAPPA_RTOL: the other steps' round-off alone reaches
    1.7e-13 under OpenBLAS's Prescott kernel, with the GEN factor exactly rounded.
    """
    V, _, _ = gm.random_state(10, seed=4116)
    kappa = gm.symplectic_spectrum(V)
    S, _, trace = gm.synthesize(kappa, np.sort(gm.local_parameters(V)))
    assert [step.kind for step in trace.steps].count("GEN") == 1
    err = oracle_verify_error(S, kappa) / kappa[-1]
    assert err <= 1e-12, f"relative kappa error {err:.2e}"
