"""Shared helpers for the test suite."""

import numpy as np

import gmarginal as gm


def block_diag(*blocks):
    """Direct sum of square blocks."""
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i : i + k, i : i + k] = b
        i += k
    return out


def rotation2(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def rand_local_symplectic(rng, n):
    """Random block-diagonal symplectic: one rotation-squeeze-rotation per mode."""
    blocks = []
    for _ in range(n):
        a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        r = rng.uniform(-0.6, 0.6)
        blocks.append(rotation2(a) @ np.diag([np.exp(r), np.exp(-r)]) @ rotation2(b))
    return block_diag(*blocks)


def off_block_max(W):
    """Largest entry (max-norm) over all off-diagonal 2x2 mode blocks."""
    n = W.shape[0] // 2
    worst = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            worst = max(worst, np.abs(W[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]).max())
    return worst


def local_params(V):
    """sqrt(det) of each diagonal 2x2 block, in mode order."""
    n = V.shape[0] // 2
    return np.array(
        [np.sqrt(np.linalg.det(V[2 * j : 2 * j + 2, 2 * j : 2 * j + 2])) for j in range(n)]
    )


def block_isotropy_max(W):
    """Largest deviation of any diagonal block from a multiple of the identity."""
    n = W.shape[0] // 2
    worst = 0.0
    for j in range(n):
        B = W[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
        c = 0.5 * (B[0, 0] + B[1, 1])
        worst = max(worst, np.abs(B - c * np.eye(2)).max())
    return worst


def random_compatible_quadruple(rng, gap=0.05):
    """Draw (m1, m2, k1, k2), sorted pairs, realizable by a two-mode state.

    The global pair is kept non-degenerate (k2 - k1 >= gap).  The local pair
    is sampled directly from the region cut out by the three two-mode
    compatibility inequalities, so no rejection loop is needed.
    """
    k1 = rng.uniform(1.0, 3.0)
    k2 = k1 + rng.uniform(gap, 2.0)
    m1 = k1 + rng.uniform(0.0, 2.0)
    lo = max(m1, k1 + k2 - m1)
    hi = m1 + (k2 - k1)
    m2 = rng.uniform(lo, hi)
    return m1, m2, k1, k2


def form_matrix(m1, m2, kx, kp):
    """The two-mode standard shape with locals (m1, m2) and couplings (k_x, k_p)."""
    V = np.diag([m1, m1, m2, m2])
    V[0, 2] = V[2, 0] = kx
    V[1, 3] = V[3, 1] = kp
    return V


def pair_block(a, b, C):
    """[[a I, C], [C^T, b I]], the pivot block shape inside jacobi_decompose."""
    M = np.diag([a, a, b, b])
    M[0:2, 2:4] = C
    M[2:4, 0:2] = np.transpose(C)
    return M


def pivot_edge_blocks():
    """Positive definite 4x4 blocks on the edges of the two-mode kernel's domain."""
    r = 0.4
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    return [
        pair_block(1.5, 3.0, np.zeros((2, 2))),  # C = 0
        pair_block(2.0, 2.0, np.zeros((2, 2))),  # C = 0 and a = b: tied kappa
        form_matrix(2.0, 2.0, 1.0, 1.0),  # k_x = k_p, a = b
        form_matrix(2.0, 3.5, 0.8, 0.8),  # k_x = k_p
        form_matrix(2.0, 3.5, 0.8, -0.8),  # k_x = -k_p
        form_matrix(ch, ch, sh, -sh),  # two-mode squeezed vacuum: kappa = (1, 1)
        2.5 * form_matrix(ch, ch, sh, -sh),  # tied kappa = (2.5, 2.5)
        pair_block(2.0, 3.0, np.array([[0.0, 0.7], [0.7, 0.0]])),  # det C < 0
        pair_block(2.0, 3.0, np.array([[0.0, 0.7], [-0.7, 0.0]])),  # det C > 0, rotated
        form_matrix(1.0, 9.0, 2.5, 0.0),  # rank-one C
    ]


def non_positive_definite_blocks():
    """Symmetric 4x4 blocks that the two-mode kernel must reject."""
    return [
        form_matrix(1.0, 1.0, 1.2, 0.0),  # X indefinite
        form_matrix(1.0, 1.0, 0.2, -1.5),  # P indefinite
        pair_block(-1.0, 2.0, np.zeros((2, 2))),  # a single-mode block
    ]


def count_linalg_calls(monkeypatch):
    """Wrap the np.linalg factorizations; return the list their calls append to."""
    calls = []
    for name in ("cholesky", "eig", "eigh", "eigvalsh", "svd", "det", "inv"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def passive_mesh(rng, n):
    """Random passive (orthogonal symplectic) 2n x 2n matrix.

    n layers, each a phase rotation on every mode followed by beam
    splitters on alternating neighbouring pairs.
    """
    O = np.eye(2 * n)
    for layer in range(n):
        R = block_diag(*(rotation2(phi) for phi in rng.uniform(0.0, 2.0 * np.pi, size=n)))
        O = R @ O
        for j in range(1 + layer % 2, n, 2):
            O = gm.beam_splitter_pair(rng.uniform(0.0, 2.0 * np.pi), j, j + 1, n) @ O
    return O


def bloch_messiah_state(rng, n, r_max=0.5, kappa_range=(1.0, 3.0)):
    """Bounded-squeeze state V = S diag(kappa pairs) S^T, S = O1 (+)diag(e^r, e^-r) O2.

    |r_j| <= r_max keeps cond(V) bounded as n grows (about 10-15 at n = 12),
    unlike ``gm.random_state``, whose squeezing compounds with n.  Returns
    (V, kappa) with kappa the sorted generator parameters.
    """
    kappa = np.sort(rng.uniform(*kappa_range, size=n))
    return squeezed_state(rng, kappa, r_max), kappa


def squeezed_state(rng, kappa, r_max=0.5):
    """``bloch_messiah_state``'s V for the given kappa."""
    n = len(kappa)
    r = rng.uniform(-r_max, r_max, size=n)
    squeeze = np.diag(np.exp(np.column_stack([r, -r]).reshape(-1)))
    S = passive_mesh(rng, n) @ squeeze @ passive_mesh(rng, n)
    V = S @ np.diag(np.repeat(kappa, 2)) @ S.T
    return 0.5 * (V + V.T)
