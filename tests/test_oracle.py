"""High-precision oracle for the symplectic spectrum.

mpmath recomputes kappa of the floating-point matrix V itself at 50
significant digits (Cholesky factor L, then the singular values of
L^T Omega L), so a comparison measures the error of the double-precision
routine alone, not the round-off made in building V.
"""

import mpmath
import numpy as np
import pytest

import gmarginal as gm

from conftest import bloch_messiah_state

#: Largest relative kappa error allowed on the bounded states below
#: (cond(V) at most a few tens).
KAPPA_RTOL = 1e-13


def oracle_kappa(V):
    """Symplectic eigenvalues of V at 50 digits, rounded to float, ascending."""
    n = V.shape[0] // 2
    with mpmath.workdps(50):
        L = mpmath.cholesky(mpmath.matrix(V.tolist()))
        omega = mpmath.zeros(2 * n)
        for j in range(n):
            omega[2 * j, 2 * j + 1] = 1
            omega[2 * j + 1, 2 * j] = -1
        s = mpmath.svd_r(L.T * omega * L, compute_uv=False)
        return np.array(sorted(float(x) for x in s)[0::2])


def _states():
    for n in (2, 4, 8):
        V, _ = bloch_messiah_state(np.random.default_rng(100 + n), n)
        yield f"bloch-messiah-{n}", V
    kappa = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
    _, W, _ = gm.synthesize(kappa, np.array([1.5, 1.5, 2.0, 2.0, 2.5, 3.5]))
    yield "tied-kappa-synthesis", W


STATES = dict(_states())
ROUTINES = {
    "symplectic_spectrum": gm.symplectic_spectrum,
    "williamson": lambda V: gm.williamson(V).kappa,
}


@pytest.mark.parametrize("routine", sorted(ROUTINES))
@pytest.mark.parametrize("state", sorted(STATES))
def test_kappa_matches_high_precision_oracle(state, routine):
    V = STATES[state]
    ref = oracle_kappa(V)
    err = float(np.max(np.abs(ROUTINES[routine](V) - ref) / ref))
    assert err <= KAPPA_RTOL, f"{routine} on {state}: relative kappa error {err:.2e}"
