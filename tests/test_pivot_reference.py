"""The straight-line two-mode kernel against its former nested-tuple form.

``reference_pivot_factor`` is a plain copy of the kernel as it was written
with 2x2 matrices as nested tuples: ``_mul2`` products, ``_rotation_pair``
of the angles of ``svd2_angles`` (the SVD as it returned angles) and a gate
loop over ``GATE_ENTRIES``.  The flat kernel must return the same
T bytes, hand ``_factor_gate`` the same arguments and raise the same
exception class on every block, and the normal forms built on it
(``standard_form``, ``local_normal_form``) must return the same bytes as
their nested-tuple forms.  So must ``pair_factor``, which builds its factor
forward from the spectra on Python floats.
"""

import math

import numpy as np
import pytest

import gmarginal as gm
from gmarginal import solver, symplectic, two_mode
from gmarginal.exceptions import InvalidCovarianceError, NumericalError

from conftest import bloch_messiah_state, non_positive_definite_blocks, pivot_edge_blocks

# (a, b, (-1)^(a+b), (a ^ 1, b ^ 1) sorted, Omega[a][b]) for a <= b
GATE_ENTRIES = tuple(
    (a, b, (-1.0) ** (a + b), *sorted((a ^ 1, b ^ 1)), float(b == a + 1 and a % 2 == 0))
    for a in range(4)
    for b in range(a, 4)
)

# the exact mode swap [[0, I], [-I, 0]], signed zeros included
SWAP = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, -0.0, 0.0, 0.0], [-0.0, -1.0, 0.0, 0.0]])


def nested_spd_roots(x0, xk, x1):
    det = x0 * x1 - xk * xk
    if x0 <= 0.0 or det <= 0.0:
        raise InvalidCovarianceError("two-mode covariance matrix is not positive definite")
    d = math.sqrt(det)
    t = math.sqrt(x0 + x1 + 2.0 * d)
    u = 1.0 / (t * d)
    root = (((x0 + d) / t, xk / t), (xk / t, (x1 + d) / t))
    inv_root = (((x1 + d) * u, -xk * u), (-xk * u, (x0 + d) * u))
    return root, inv_root, d


def svd2_angles(c00, c01, c10, c11):
    """C = R(phi) diag(s1, s2) R(theta) as (phi, s1, s2, theta)."""
    e, f = 0.5 * c00 + 0.5 * c11, 0.5 * c00 - 0.5 * c11
    g, h = 0.5 * c10 + 0.5 * c01, 0.5 * c10 - 0.5 * c01
    q, r = math.hypot(e, h), math.hypot(f, g)
    a1, a2 = math.atan2(g, f), math.atan2(h, e)
    return 0.5 * (a2 + a1), q + r, q - r, 0.5 * (a2 - a1)


def rotation_pair(phi, theta):
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return ((cf, sf), (-sf, cf)), ((ct, -st), (st, ct))


def mul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def nested_standard_shape(M):
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = M
    _, ai, ma = nested_spd_roots(a00, a01, a11)
    _, bi, mb = nested_spd_roots(b00, b01, b11)
    la, lb = math.sqrt(ma), math.sqrt(mb)
    LA = ((la * ai[0][0], la * ai[0][1]), (la * ai[1][0], la * ai[1][1]))
    LB = ((lb * bi[0][0], lb * bi[0][1]), (lb * bi[1][0], lb * bi[1][1]))
    C = mul2(mul2(LA, ((c00, c01), (c10, c11))), LB)
    phi, kx, kp, theta = svd2_angles(C[0][0], C[0][1], C[1][0], C[1][1])
    R1, R2 = rotation_pair(phi, theta)
    return ma, mb, kx, kp, mul2(R1, LA), mul2(R2, LB)


def reference_pivot_factor(M4, gate):
    """The nested-tuple kernel; ``gate`` stands in for ``_factor_gate``."""
    M = M4.tolist()
    ma, mb, kx, kp, G1, G2 = nested_standard_shape(M)
    xh, xi, dx = nested_spd_roots(ma, kx, mb)
    ph, pi, dp = nested_spd_roots(ma, kp, mb)
    K = mul2(xh, ph)
    psi, big, _, chi = svd2_angles(K[0][0], K[0][1], K[1][0], K[1][1])
    small = dx * dp / big
    if not small > 0.0:
        raise NumericalError("a computed symplectic eigenvalue is not positive; V is near-singular")
    cu, su, cw, sw = math.cos(psi), math.sin(psi), math.cos(chi), math.sin(chi)
    rs, rb = math.sqrt(small), math.sqrt(big)
    Tq = mul2(((-rs * su, rs * cu), (rb * cu, rb * su)), xi)
    Tp = mul2(((rs * sw, rs * cw), (rb * cw, -rb * sw)), pi)
    rows = [
        [y0 * G1[t][0], y0 * G1[t][1], y1 * G2[t][0], y1 * G2[t][1]]
        for (y0, y1), t in ((Tq[0], 0), (Tp[0], 1), (Tq[1], 0), (Tp[1], 1))
    ]
    cols = tuple(zip(*rows))
    fact, symp = [], []
    for a, b, sign, i, j, w in GATE_ENTRIES:
        x0, x1, x2, x3 = cols[a]
        y0, y1, y2, y3 = cols[b]
        fact.append(abs(sign * (small * (x0 * y0 + x1 * y1) + big * (x2 * y2 + x3 * y3)) - M[i][j]))
        symp.append(abs(x0 * y1 - x1 * y0 + x2 * y3 - x3 * y2 - w))
    gate(max(fact), max(symp), 1.0 + max(M[0][0], M[1][1], M[2][2], M[3][3]))
    return np.array(rows)


def outcome(kernel, M4):
    """(T bytes or exception class, the gate arguments as hex strings)."""
    gates = []

    def gate(*args):
        gates.append(tuple(float(a).hex() for a in args))
        symplectic._factor_gate(*args)

    try:
        return kernel(M4, gate).tobytes(), gates
    except Exception as err:  # the class is what must agree
        return type(err), gates


def flat_kernel(M4, gate):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(two_mode, "_factor_gate", gate)
        return two_mode._pivot_factor(M4)


def assert_same(M4):
    flat, ref = outcome(flat_kernel, M4), outcome(reference_pivot_factor, M4)
    assert flat == ref
    return flat


def random_spd_blocks(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        A = rng.normal(size=(4, 4))
        M4 = A @ A.T + rng.uniform(0.01, 2.0) * np.eye(4)
        yield 0.5 * (M4 + M4.T)


class TestPivotFactorAgainstReference:
    def test_random_spd_blocks(self):
        for M4 in random_spd_blocks(4242, 1000):
            T, gates = assert_same(M4)
            assert isinstance(T, bytes) and len(gates) == 1

    def test_edge_blocks(self):
        for M4 in pivot_edge_blocks():
            assert isinstance(assert_same(M4)[0], bytes)

    def test_non_positive_definite_blocks(self):
        for M4 in non_positive_definite_blocks():
            assert assert_same(M4) == (InvalidCovarianceError, [])

    def test_gate_failure(self, monkeypatch):
        # a negative threshold fails every residual: same class, same arguments
        monkeypatch.setattr(symplectic, "FACTOR_TOL", -1.0)
        for M4 in pivot_edge_blocks()[:3]:
            T, gates = assert_same(M4)
            assert T is NumericalError and len(gates) == 1

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_jacobi_pivot_blocks(self, monkeypatch, n):
        blocks = []
        real = solver._pivot_factor

        def recording_pivot_factor(M4):
            blocks.append(M4.copy())
            return real(M4)

        monkeypatch.setattr(solver, "_pivot_factor", recording_pivot_factor)
        rng = np.random.default_rng(7100 + n)
        for _ in range(2):
            gm.jacobi_decompose(bloch_messiah_state(rng, n)[0])
        monkeypatch.undo()
        assert len(blocks) > n
        for M4 in blocks:
            assert isinstance(assert_same(M4)[0], bytes)


def reference_standard_form(V4):
    ma, mb, kx, kp, G1, G2 = nested_standard_shape(symplectic.validate_covariance(V4).tolist())
    m1, m2 = sorted((ma, mb))
    return two_mode.TwoModeStandardForm(m1=m1, m2=m2, k_x=kx, k_p=kp), [np.array(G1), np.array(G2)]


def reference_pair_factor(a, b, t_a, t_b):
    """S_q = X^(1/2) U D^(-1/2) and S_p = P^(1/2) W D^(-1/2) as nested tuples,
    with the dense products for the gate."""
    s_lo, s_hi = sorted((float(a), float(b)))
    t_lo, t_hi = sorted((float(t_a), float(t_b)))
    kx, kp, dx, dp = two_mode._couplings(t_lo, t_hi, s_lo, s_hi)

    def root(k, d):
        t = math.sqrt(t_lo + t_hi + 2.0 * d)
        return (((t_lo + d) / t, k / t), (k / t, (t_hi + d) / t))

    XH, PH = root(kx, dx), root(kp, dp)
    K = mul2(XH, PH)
    psi, _, _, chi = svd2_angles(K[0][0], K[0][1], K[1][0], K[1][1])
    cu, su, cw, sw = math.cos(psi), math.sin(psi), math.cos(chi), math.sin(chi)
    rl, rh = math.sqrt(s_lo), math.sqrt(s_hi)
    S = np.zeros((4, 4))
    S[0::2, 0::2] = mul2(XH, ((-su / rl, cu / rh), (cu / rl, su / rh)))
    S[1::2, 1::2] = mul2(PH, ((sw / rl, cw / rh), (cw / rl, -sw / rh)))
    omega = gm.symplectic_form(2)
    V4 = gm.reconstruct_two_mode(t_lo, t_hi, s_lo, s_hi)
    fact = S @ np.diag([s_lo, s_lo, s_hi, s_hi]) @ S.T - V4
    symplectic._factor_gate(np.abs(fact).max(), np.abs(S @ omega @ S.T - omega).max(), 1.0 + t_hi)
    if a > b:
        S = S @ SWAP
    if t_a > t_b:
        S = SWAP @ S
    return S


def reference_local_normal_form(V):
    V = symplectic.validate_covariance(V)
    m = gm.local_parameters(V)
    n = V.shape[0] // 2
    d = V.diagonal()
    blocks = zip(d[0::2].tolist(), V.diagonal(1)[0::2].tolist(), d[1::2].tolist())
    L = np.array([nested_spd_roots(*b)[1] for b in blocks]) * np.sqrt(m)[:, None, None]
    rows = (L @ V.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)
    V2 = (L @ rows.T.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)
    return 0.5 * (V2 + V2.T), list(L), m


class TestNormalFormsAgainstReference:
    def test_standard_form(self):
        for seed in range(60):
            V4 = gm.random_state(2, seed=seed)[0]
            (form, locs), (ref, ref_locs) = gm.standard_form(V4), reference_standard_form(V4)
            assert [float(x).hex() for x in (form.m1, form.m2, form.k_x, form.k_p)] == [
                float(x).hex() for x in (ref.m1, ref.m2, ref.k_x, ref.k_p)
            ]
            assert [L.tobytes() for L in locs] == [L.tobytes() for L in ref_locs]
            assert all(L.shape == (2, 2) for L in locs)

    def test_pair_factor(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(100):
            a, b = rng.uniform(1.0, 6.0, size=2)
            t_a = rng.uniform(min(a, b), max(a, b))
            t_b = a + b + rng.uniform(0.0, 2.0) - t_a
            if abs(t_a - t_b) > abs(a - b):  # the spread may only shrink
                continue
            S, ref = gm.pair_factor(a, b, t_a, t_b), reference_pair_factor(a, b, t_a, t_b)
            assert S.tobytes() == ref.tobytes()
            checked += 1
        assert checked >= 30

    def test_local_normal_form(self):
        for n in (1, 2, 5, 9):
            V = gm.random_state(n, seed=930 + n)[0]
            V2, locs, m = gm.local_normal_form(V)
            R2, ref_locs, ref_m = reference_local_normal_form(V)
            assert V2.tobytes() == R2.tobytes() and m.tobytes() == ref_m.tobytes()
            assert [L.tobytes() for L in locs] == [L.tobytes() for L in ref_locs]
