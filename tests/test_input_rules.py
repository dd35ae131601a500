"""One rule, one message: every spectral entry point rejects a value outside (0, inf) alike."""

import numpy as np
import pytest

import gmarginal as gm

MESSAGE = "^spectral parameters must be positive finite reals$"
BAD = [0.0, -1.0, np.nan, np.inf, -np.inf]

# each entry point with one argument replaced by the bad value x; the other
# arguments would be valid
ENTRY_POINTS = {
    "dominates-kappa": lambda x: gm.dominates((1.0, x), (2.0, 2.0)),
    "dominates-m": lambda x: gm.dominates((1.0, 3.0), (x, 2.0)),
    "synthesize-kappa": lambda x: gm.synthesize((1.0, x), (2.0, 2.0)),
    "synthesize-m": lambda x: gm.synthesize((1.0, 3.0), (2.0, x)),
    "verify-kappa": lambda x: gm.verify(np.eye(4), (x, 3.0), (2.0, 2.0)),
    "verify-m": lambda x: gm.verify(np.eye(4), (1.0, 3.0), (2.0, x)),
    "solve_couplings": lambda x: gm.solve_couplings(x, 2.0, 1.0, 1.5),
    "bs_param-a": lambda x: gm.bs_param(x, 2.0, 1.5),
    "bs_param-target": lambda x: gm.bs_param(1.0, 2.0, x),
    "sq_param-a": lambda x: gm.sq_param(x, 2.0, 0.5),
    "sq_param-b": lambda x: gm.sq_param(1.0, x, 0.5),
    "pair_factor": lambda x: gm.pair_factor(x, 3.0, 2.0, 2.0),
    "reconstruct_two_mode": lambda x: gm.reconstruct_two_mode(x, 2.0, 1.0, 1.5),
}


@pytest.mark.parametrize("value", BAD, ids=["zero", "negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_rejects_value_outside_the_positive_reals(call, value):
    with pytest.raises(ValueError, match=MESSAGE):
        call(value)


def test_dominates_checks_shape_before_sorting():
    with pytest.raises(ValueError, match="^expected two equal-length, nonempty vectors$"):
        gm.dominates(2.0, 2.0)


def test_verify_checks_shape_before_sorting():
    with pytest.raises(ValueError, match="^shape mismatch between S and the parameter vectors$"):
        gm.verify(np.eye(2), 2.0, 2.0)


def test_verify_rejects_empty_vectors():
    """n = 0 passes the shape check; it is rejected in dominates' words, not by a NumPy reduction."""
    with pytest.raises(ValueError, match="^expected two equal-length, nonempty vectors$"):
        gm.verify(np.zeros((0, 0)), [], [])
