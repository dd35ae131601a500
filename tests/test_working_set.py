"""Working set of the dense routines, and the rule that no routine writes to its V.

Each dense routine holds only the 2n x 2n arrays its next step reads, and
its peak memory is pinned here, counted in 2n x 2n float64 arrays at
n = 128 by tracemalloc.  The count includes the routine's outputs
and every NumPy array it allocates, but not LAPACK's internal workspace
(about three more arrays for a 2n x 2n ``eigh``), which NumPy allocates
outside tracemalloc's view.  The spectral kernel reads an exactly symmetric
V without copying it, so the last test makes V read-only and checks that
no routine writes to it.
"""

import tracemalloc

import numpy as np
import pytest

import gmarginal as gm
from gmarginal.symplectic import DEFAULT_TOL

N = 128
#: Eight levels of tied kappa in clusters of unequal size, as on the
#: benchmark's tied-kappa face, so the cluster path of the kernel runs too.
KAPPA = np.repeat([1.0, 1.5, 2.25, 3.0, 3.5, 4.0, 5.0, 6.0], [10, 12, 14, 16, 18, 20, 17, 21])
M = KAPPA + 0.5


@pytest.fixture(scope="module")
def synthesis():
    S, V, _ = gm.synthesize(KAPPA, M)
    assert np.array_equal(V, V.T)  # the kernel's uncopied path
    return S, V


def peak_arrays(f, *args):
    """Peak memory of f(*args) above what was allocated before, in 2n x 2n arrays."""
    f(*args)  # a first call may fill caches that are not the routine's working set
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / ((2 * N) ** 2 * 8)


@pytest.mark.parametrize(
    "name, bound",
    [
        ("williamson", 5.5),
        ("symplectic_spectrum", 4.5),
        ("local_normal_form", 3.5),
        ("verify", 2.5),
        ("synthesize", 2.5),
    ],
)
def test_peak_working_set(synthesis, name, bound):
    S, V = synthesis
    args = {"verify": (S, KAPPA, M), "synthesize": (KAPPA, M)}.get(name, (V,))
    assert peak_arrays(getattr(gm, name), *args) <= bound


def _read_only_inputs():
    V = gm.synthesize(np.array([1.0, 1.5, 2.0, 3.0]), np.array([1.5, 2.0, 2.5, 3.5]))[1]
    assert np.array_equal(V, V.T)
    asym = V.copy()
    asym[0, 3] += 0.5 * DEFAULT_TOL  # within the symmetry tolerance
    for X in (V, asym):
        X.setflags(write=False)
    return {"exactly symmetric": V, "asymmetric within DEFAULT_TOL": asym}


@pytest.mark.parametrize("which", ["exactly symmetric", "asymmetric within DEFAULT_TOL"])
@pytest.mark.parametrize(
    "routine",
    [
        gm.symplectic_spectrum,
        gm.williamson,
        gm.check_physical,
        gm.local_normal_form,
        gm.local_parameters,
        gm.jacobi_decompose,
    ],
)
def test_input_is_not_written(routine, which):
    V = _read_only_inputs()[which]
    before = V.tobytes()
    # a write to the read-only V would raise; check_physical returns False on an error it catches
    assert routine(V) is not False
    assert V.tobytes() == before
