"""Seeded input generators for the benchmark workloads.

Everything here is benchmark code: the package only ever sees the arrays
these functions return.  Two families are provided.

* ``sample_polytope``: compatible (kappa, m) pairs drawn directly from the
  dominance polytope, with a fixed share of draws on each boundary face.
* ``bloch_messiah_state``: covariance matrices V = S D S^T with
  S = O1 . (+)diag(e^r, e^-r) . O2 and |r_j| <= R_MAX, so cond(V) stays
  bounded as n grows (``gmarginal.random_state`` compounds its squeezing
  with n and is unusable as a workload past n ~ 20).
"""

from __future__ import annotations

import numpy as np

import gmarginal as gm

#: Every sampled spectral value is a multiple of this, and all values stay
#: far below 2**40, so the partial sums behind the dominance test are exact
#: in float64 and a boundary face really has slack 0, not -1 ulp.
GRID = 1.0 / 64.0

#: Range of the sampled global parameters and of the surplus u added to them.
KAPPA_MAX = 8.0
SURPLUS_MAX = 2.0
#: Squeezing bound and global-parameter range of the Bloch-Messiah states;
#: cond(V) is about 10-15 at n = 12.
R_MAX = 0.5
STATE_KAPPA = (1.0, 3.0)

#: Draw kinds of the polytope sampler, cycled by instance index: five
#: interior draws, then one draw on each boundary face.
POLYTOPE_KINDS = ("interior",) * 5 + ("tied_kappa", "zero_slack", "tight_tail")


def instance_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one instance of one input stream."""
    return np.random.default_rng([int(seed), int(stream), int(index)])


def _on_grid(x):
    return np.floor(np.asarray(x) / GRID) * GRID


def sample_polytope(rng: np.random.Generator, n: int, kind: str):
    """Draw sorted (kappa, m) with m dominated by kappa and kappa[0] >= 1.

    With s_k = sum_{j<=k} (m_j - kappa_j) the conditions are s_k >= 0 for all
    k and m_n - kappa_n <= s_{n-1} (the tail condition).  The first n - 1
    entries of m are sort(kappa + u) for u >= 0, which keeps every prefix
    slack nonnegative because order statistics are monotone, followed by
    T-transforms (moving part of the gap between two entries from the larger
    to the smaller), which only raise the sums of the k smallest entries.
    The last entry is then placed in [kappa_n - s_{n-1}, kappa_n + s_{n-1}].

    Faces: ``tied_kappa`` draws kappa from a few levels so most values repeat;
    ``zero_slack`` leaves a prefix of m equal to kappa (s_k = 0 for some
    k < n, and on every other such draw also s_n = 0); ``tight_tail`` puts
    m_n on the upper end, so the tail slack is exactly 0.
    """
    if kind not in POLYTOPE_KINDS:
        raise ValueError(f"unknown polytope draw kind {kind!r}")
    if kind == "tied_kappa":
        levels = _on_grid(rng.uniform(1.0, KAPPA_MAX, size=max(2, n // 16)))
        levels[0] = 1.0
        kappa = np.sort(rng.choice(levels, size=n))
    else:
        kappa = np.sort(_on_grid(rng.uniform(1.0, KAPPA_MAX, size=n)))
        kappa[0] = max(kappa[0], 1.0)
    u = _on_grid(rng.uniform(0.0, SURPLUS_MAX, size=n - 1))
    u[rng.random(n - 1) < 0.25] = 0.0
    start = 0
    if kind == "zero_slack":
        start = int(rng.integers(1, n - 2))
        u[:start] = 0.0
    head = np.sort(kappa[:-1] + u)
    for _ in range(2 * n):
        j, k = np.sort(rng.choice(np.arange(start, n - 1), size=2, replace=False))
        t = _on_grid(0.5 * (head[k] - head[j]) * rng.random())
        head[j] += t
        head[k] -= t
        head.sort()
    slack = float(np.sum(head) - np.sum(kappa[:-1]))
    lo = max(float(head[-1]), float(kappa[-1]) - slack)
    hi = float(kappa[-1]) + slack
    if kind == "tight_tail":
        last = hi
    elif kind == "zero_slack" and rng.random() < 0.5 and kappa[-1] - slack >= head[-1]:
        last = float(kappa[-1]) - slack
    else:
        last = lo + float(_on_grid((hi - lo) * rng.random()))
    m = np.append(head, last)
    cert = gm.dominates(kappa, m)
    if not (cert.compatible and kappa[0] >= 1.0 and np.all(np.diff(m) >= 0.0)):
        raise AssertionError(f"polytope sampler produced an incompatible {kind} draw")
    return kappa, m


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random passive (orthogonal symplectic) 2n x 2n matrix.

    n layers, each a phase rotation on every mode followed by beam splitters
    on alternating neighbouring pairs (a Clements-style mesh).
    """
    O = np.eye(2 * n)
    for layer in range(n):
        R = np.zeros((2 * n, 2 * n))
        for j in range(n):
            R[2 * j:2 * j + 2, 2 * j:2 * j + 2] = _rotation(rng.uniform(0.0, 2.0 * np.pi))
        O = R @ O
        for j in range(1 + layer % 2, n, 2):
            O = gm.beam_splitter_pair(rng.uniform(0.0, 2.0 * np.pi), j, j + 1, n) @ O
    return O


def bloch_messiah_state(rng: np.random.Generator, n: int):
    """Bounded-squeeze state V = S diag(kappa pairs) S^T with |r_j| <= R_MAX.

    Returns (V, kappa, m, cond) with kappa sorted (the generator's global
    parameters), m the local parameters sqrt(det V_j) in mode order computed
    here from V, and cond = cond(V).
    """
    kappa = np.sort(rng.uniform(*STATE_KAPPA, size=n))
    r = rng.uniform(-R_MAX, R_MAX, size=n)
    squeeze = np.diag(np.exp(np.column_stack([r, -r]).reshape(-1)))
    S = passive(rng, n) @ squeeze @ passive(rng, n)
    V = S @ np.diag(np.repeat(kappa, 2)) @ S.T
    V = 0.5 * (V + V.T)
    m = local_parameters(V)
    return V, kappa, m, float(np.linalg.cond(V))


def local_parameters(V: np.ndarray) -> np.ndarray:
    """sqrt(det V_j) of every 2x2 diagonal block, in mode order."""
    n = V.shape[0] // 2
    B = V.reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n), :]
    return np.sqrt(B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0])


#: The worked seven-mode instance of the README.
README_KAPPA = (1.0, 2.0, 3.0, 4.0, 5.0, 12.0, 18.0)
README_M = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
