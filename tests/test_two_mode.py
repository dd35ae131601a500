"""Tests for the two-mode machinery: standard form, coupling solver,
redistribution parameters, the general pair factor, and the closed-form
Jacobi pivot factor."""

import numpy as np
import pytest

import gmarginal as gm
from gmarginal import (
    IncompatibleSpectraError,
    InfeasibleRedistributionError,
    InvalidCovarianceError,
    NumericalError,
    TwoModeStandardForm,
    solver,
    symplectic,
    two_mode,
)
from gmarginal.two_mode import _pivot_factor

from conftest import (
    count_linalg_calls,
    form_matrix,
    non_positive_definite_blocks,
    pair_block,
    pivot_edge_blocks,
    rand_local_symplectic,
    random_compatible_quadruple,
)

N_SAMPLES = 60

np.random.seed(0)  # module-level guard for any stray randomness


def check_pivot_factor(M4):
    """T M4 T^T = diag(k1, k1, k2, k2) with k the symplectic spectrum, T symplectic."""
    T = _pivot_factor(M4)
    D = T @ M4 @ T.T
    kappa = gm.symplectic_spectrum(M4)
    omega = gm.symplectic_form(2)
    assert np.abs(D - np.diag(np.repeat(kappa, 2))).max() <= 1e-12 * kappa[1]
    assert np.abs(T @ omega @ T.T - omega).max() <= 1e-12
    assert np.allclose(np.diag(D)[::2], kappa, rtol=1e-12, atol=0)


class TestInvariants:
    def test_uncoupled(self):
        sum_sq, det = gm.two_mode_invariants(np.diag([1.0, 1.0, 3.0, 3.0]))
        assert abs(sum_sq - 10.0) < 1e-12
        assert abs(det - 9.0) < 1e-12

    def test_coupled_example(self):
        sum_sq, det = gm.two_mode_invariants(form_matrix(2.0, 2.0, 1.0, 1.0))
        assert abs(sum_sq - 10.0) < 1e-12  # m1^2 + m2^2 + 2 kx kp
        assert abs(det - 9.0) < 1e-12  # (4 - 1)(4 - 1)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(51)
        V = form_matrix(2.0, 3.0, 0.9, -0.4)
        ref = gm.two_mode_invariants(V)
        for _ in range(10):
            S = rand_local_symplectic(rng, 2) @ gm.beam_splitter_pair(
                rng.uniform(0, 6), 1, 2, 2
            ) @ gm.squeezer_pair(rng.uniform(0, 0.5), 1, 2, 2)
            got = gm.two_mode_invariants(S @ V @ S.T)
            assert abs(got[0] - ref[0]) < 1e-9 * abs(ref[0])
            assert abs(got[1] - ref[1]) < 1e-9 * abs(ref[1])

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            gm.two_mode_invariants(np.eye(6))

    def test_rejects_non_positive_definite_single_mode_block(self):
        for M4 in (pair_block(-1.0, 2.0, np.zeros((2, 2))), np.diag([1.0, -1.0, 2.0, 2.0])):
            with pytest.raises(InvalidCovarianceError):
                gm.two_mode_invariants(M4)


class TestStandardForm:
    def test_already_standard(self):
        V = form_matrix(2.0, 3.0, 0.8, 0.3)
        form, locs = gm.standard_form(V)
        assert abs(form.m1 - 2.0) < 1e-12 and abs(form.m2 - 3.0) < 1e-12
        assert abs(form.k_x - 0.8) < 1e-12 and abs(form.k_p - 0.3) < 1e-12
        for L in locs:
            assert np.allclose(L, np.eye(2), atol=1e-12, rtol=0)

    def test_antidiagonal_off_block(self):
        # off-block [[0,k],[k,0]] has determinant -k^2, so the rotated
        # couplings come out as (k, -k)
        k = 0.6
        V = np.diag([2.0, 2.0, 3.0, 3.0])
        V[0:2, 2:4] = np.array([[0.0, k], [k, 0.0]])
        V[2:4, 0:2] = V[0:2, 2:4].T
        form, locs = gm.standard_form(V)
        assert abs(form.k_x - k) < 1e-12
        assert abs(form.k_p + k) < 1e-12
        # and the locals actually produce the claimed shape
        L = np.zeros((4, 4))
        L[0:2, 0:2], L[2:4, 2:4] = locs
        W = L @ V @ L.T
        assert np.abs(W - form_matrix(form.m1, form.m2, form.k_x, form.k_p)).max() < 1e-10

    def test_canonical_under_local_dressing(self):
        """Dressing a standard-form state with random local symplectics must
        not change its canonical parameters."""
        rng = np.random.default_rng(52)
        for _ in range(N_SAMPLES):
            m1, m2, k1, k2 = random_compatible_quadruple(rng)
            V = gm.reconstruct_two_mode(m1, m2, k1, k2)
            form0, _ = gm.standard_form(V)
            L = rand_local_symplectic(rng, 2)
            form1, locs = gm.standard_form(L @ V @ L.T)
            assert abs(form1.m1 - form0.m1) < 1e-8
            assert abs(form1.m2 - form0.m2) < 1e-8
            assert abs(form1.k_x - form0.k_x) < 1e-8
            assert abs(form1.k_p - form0.k_p) < 1e-8
            assert form1.k_x >= abs(form1.k_p) - 1e-12
            full = np.zeros((4, 4))
            full[0:2, 0:2], full[2:4, 2:4] = locs
            W = full @ (L @ V @ L.T) @ full.T
            expect = form_matrix(form1.m1, form1.m2, form1.k_x, form1.k_p)
            # mode order in W follows the input, not the sorted labels
            if abs(W[0, 0] - form1.m1) > abs(W[0, 0] - form1.m2):
                expect = form_matrix(form1.m2, form1.m1, form1.k_x, form1.k_p)
            assert np.abs(W - expect).max() < 1e-9 * max(1.0, np.abs(W).max())
            # the pivot factor also takes blocks that are not isotropic
            check_pivot_factor(L @ V @ L.T)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovarianceError):
            gm.standard_form(form_matrix(1.0, 1.0, 1.2, 0.0))

    @pytest.mark.parametrize("e", [-480, -300, 260, 480])
    def test_every_finite_scale(self, e):
        """4^e V4 has the form 4^e times that of V4 and the same locals, bit for bit.

        Without the rescale in ``_spd_roots``, det X of the standard shape
        over- or underflows here and V4 is reported as not positive definite.
        """
        V4 = gm.random_state(2, seed=3)[0]
        form0, locs0 = gm.standard_form(V4)
        c = 4.0**e
        form, locs = gm.standard_form(c * V4)
        assert (form.m1, form.m2, form.k_x, form.k_p) == (
            c * form0.m1,
            c * form0.m2,
            c * form0.k_x,
            c * form0.k_p,
        )
        assert all(np.array_equal(L, L0) for L, L0 in zip(locs, locs0))


class TestSolveCouplings:
    def test_known_example(self):
        kx, kp = gm.solve_couplings(2.0, 2.0, 1.0, 3.0)
        assert abs(kx - 1.0) < 1e-12 and abs(kp - 1.0) < 1e-12

    def test_equal_spectra_uncoupled(self):
        kx, kp = gm.solve_couplings(1.5, 2.5, 1.5, 2.5)
        assert abs(kx) < 1e-9 and abs(kp) < 1e-9

    def test_balanced_squeezed_pair(self):
        # exactly at the double root the couplings have a square-root branch
        # point, so individual values are only good to ~sqrt(eps); the
        # invariant combinations stay sharp
        r = 0.42
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        kx, kp = gm.solve_couplings(c, c, 1.0, 1.0)
        assert abs(kx - s) < 1e-7
        assert abs(kp + s) < 1e-7
        assert abs(kx * kp + s * s) < 1e-12
        assert abs((c * c - kx * kx) * (c * c - kp * kp) - 1.0) < 1e-12

    def test_inverts_the_invariants(self):
        rng = np.random.default_rng(53)
        for _ in range(N_SAMPLES):
            m1, m2, k1, k2 = random_compatible_quadruple(rng)
            kx, kp = gm.solve_couplings(m1, m2, k1, k2)
            sum_sq = m1**2 + m2**2 + 2 * kx * kp
            det = (m1 * m2 - kx**2) * (m1 * m2 - kp**2)
            assert abs(sum_sq - (k1**2 + k2**2)) < 1e-10 * (k1**2 + k2**2)
            assert abs(det - (k1 * k2) ** 2) < 1e-10 * (k1 * k2) ** 2
            assert kx >= abs(kp) - 1e-15

    def test_weak_coupling_at_large_locals(self):
        # k_x = 0.09 is below COUPLING_TOL * m1 m2 = 0.1: a coupling compared
        # with a squared local parameter would zero k_p and miss kappa by 2.5e-6
        kappa = gm.symplectic_spectrum(form_matrix(1e4, 1e4, 0.09, 0.05))
        kx, kp = gm.solve_couplings(1e4, 1e4, *kappa)
        assert kx >= kp > 0.0
        V = gm.reconstruct_two_mode(1e4, 1e4, *kappa)
        assert np.max(np.abs(gm.symplectic_spectrum(V) - kappa) / kappa) < 1e-11

    def test_scaled_readme_stage_three_block(self):
        # the README instance's stage-3 pair (9, 23; 4, 18), times 1e8
        kappa = np.array([4e8, 1.8e9])
        V = gm.reconstruct_two_mode(9e8, 2.3e9, *kappa)
        assert np.max(np.abs(gm.symplectic_spectrum(V) - kappa) / kappa) < 1e-12

    @pytest.mark.parametrize("e", [-500, -250, -101, 101, 130, 250, 500])
    def test_every_finite_scale(self, e):
        """Scaling the inputs by 4^e scales both couplings by 4^e exactly.

        The formulas reach degree 4 in the inputs; without the power-of-two
        rescale the couplings come out inf from about 1e77, NaN from about
        1e100, and kappa^2 raises OverflowError from about 1e155.  The fixed
        quadruple rounds differently when formed unscaled than when formed
        at 4^-1 scale, so a rescale applied only far from 1 fails it.
        """
        rng = np.random.default_rng(55)
        c = 4.0**e
        fixed = (3.2554648003231526, 3.505396359560416, 2.6509515761866123, 2.960513520357584)
        for q in [fixed] + [random_compatible_quadruple(rng) for _ in range(20)]:
            kx, kp = gm.solve_couplings(*q)
            assert gm.solve_couplings(*(c * x for x in q)) == (c * kx, c * kp)

    @pytest.mark.parametrize("scale", [2e80, 1e100, 1e160, 1e-160])
    def test_known_example_at_decimal_scales(self, scale):
        # a double root: the couplings are only good to about sqrt(eps)
        kx, kp = gm.solve_couplings(2.0 * scale, 2.0 * scale, scale, 3.0 * scale)
        assert abs(kx / scale - 1.0) < 1e-7 and abs(kp / scale - 1.0) < 1e-7

    def test_existence_violation(self):
        # locals (1, 1) cannot host globals (1, 3): m1 m2 - |P| = -3 < 3
        with pytest.raises(IncompatibleSpectraError):
            gm.solve_couplings(1.0, 1.0, 1.0, 3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gm.solve_couplings(-1.0, 2.0, 1.0, 1.0)


class TestReconstruct:
    def test_known_matrix(self):
        V = gm.reconstruct_two_mode(2.0, 2.0, 1.0, 3.0)
        expect = np.array(
            [[2.0, 0, 1, 0], [0, 2.0, 0, 1], [1, 0, 2.0, 0], [0, 1, 0, 2.0]]
        )
        assert np.abs(V - expect).max() < 1e-12

    def test_equal_spectra_is_diagonal(self):
        V = gm.reconstruct_two_mode(1.2, 3.4, 1.2, 3.4)
        assert np.abs(V - np.diag([1.2, 1.2, 3.4, 3.4])).max() < 1e-9

    def test_round_trip_properties(self):
        rng = np.random.default_rng(54)
        for _ in range(N_SAMPLES):
            m1, m2, k1, k2 = random_compatible_quadruple(rng)
            V = gm.reconstruct_two_mode(m1, m2, k1, k2)
            assert gm.check_physical(V)
            assert np.allclose(
                gm.symplectic_spectrum(V), [k1, k2], atol=1e-8 * k2, rtol=0
            )
            form, _ = gm.standard_form(V)
            assert abs(form.m1 - m1) < 1e-8 and abs(form.m2 - m2) < 1e-8
            check_pivot_factor(V)

    def test_requires_sorted_pairs(self):
        with pytest.raises(ValueError):
            gm.reconstruct_two_mode(3.0, 2.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            gm.reconstruct_two_mode(2.0, 3.0, 1.5, 1.0)


class TestProductAndSignLaws:
    def test_local_product_bounds_global_product(self):
        """kappa1 kappa2 <= m1 m2 always; equality only without couplings."""
        rng = np.random.default_rng(55)
        for _ in range(N_SAMPLES):
            m1, m2, k1, k2 = random_compatible_quadruple(rng)
            assert k1 * k2 <= m1 * m2 + 1e-12
            kx, kp = gm.solve_couplings(m1, m2, k1, k2)
            if max(abs(kx), abs(kp)) > 1e-6:
                assert m1 * m2 - k1 * k2 > 0.0
        # zero-coupling boundary
        assert abs(2.0 * 3.0 - np.prod(gm.symplectic_spectrum(np.diag([2, 2, 3, 3.0])))) < 1e-12

    def test_sign_dichotomy(self):
        rng = np.random.default_rng(56)
        for _ in range(N_SAMPLES):
            m1, m2, k1, k2 = random_compatible_quadruple(rng)
            kx, kp = gm.solve_couplings(m1, m2, k1, k2)
            sq_gap = (k1**2 + k2**2) - (m1**2 + m2**2)
            if kx * kp >= 0.0:
                assert sq_gap >= -1e-10
                assert (m1 + m2) - (k1 + k2) >= -1e-10
            if kx * kp <= 0.0:
                assert sq_gap <= 1e-10
                assert (k2 - k1) - (m2 - m1) >= -1e-10


class TestRedistributionParams:
    def test_bs_param_examples(self):
        assert abs(gm.bs_param(1.0, 3.0, 2.0) - np.pi / 4) < 1e-12
        assert gm.bs_param(2.0, 2.0, 2.0) == 0.0
        assert abs(gm.bs_param(1.0, 3.0, 3.0) - np.pi / 2) < 1e-12

    def test_bs_param_congruence(self):
        rng = np.random.default_rng(57)
        for _ in range(N_SAMPLES):
            a, b = rng.uniform(1.0, 8.0, size=2)
            target = rng.uniform(min(a, b), max(a, b))
            theta = gm.bs_param(a, b, target)
            G = gm.beam_splitter_pair(theta, 1, 2, 2)
            W = G @ np.diag([a, a, b, b]) @ G.T
            assert abs(W[0, 0] - target) < 1e-10 * (1 + target)
            assert abs(W[2, 2] - (a + b - target)) < 1e-10 * (1 + a + b)

    def test_bs_param_out_of_range(self):
        with pytest.raises(InfeasibleRedistributionError):
            gm.bs_param(1.0, 3.0, 3.5)
        with pytest.raises(InfeasibleRedistributionError):
            gm.bs_param(1.0, 3.0, 0.5)

    def test_sq_param_examples(self):
        assert gm.sq_param(1.0, 2.0, 0.0) == 0.0
        mu = gm.sq_param(5.0, 12.0, 2.0)
        assert abs(np.cosh(2 * mu) - 21.0 / 17.0) < 1e-12
        G = gm.squeezer_pair(mu, 1, 2, 2)
        W = G @ np.diag([5.0, 5.0, 12.0, 12.0]) @ G.T
        assert abs(W[0, 0] - 7.0) < 1e-10
        assert abs(W[2, 2] - 14.0) < 1e-10

    def test_sq_param_negative_eps(self):
        with pytest.raises(InfeasibleRedistributionError):
            gm.sq_param(1.0, 2.0, -0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_sq_param_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="positive finite"):
            gm.sq_param(1.0, 2.0, eps)


class TestDiagonalizeBalanced:
    def test_bs_branch_symmetric(self):
        kind, theta = gm.diagonalize_balanced(TwoModeStandardForm(2.0, 2.0, 1.0, 1.0))
        assert kind == "BS"
        assert abs(theta - np.pi / 4) < 1e-12
        G = gm.beam_splitter_pair(theta, 1, 2, 2)
        W = G @ form_matrix(2.0, 2.0, 1.0, 1.0) @ G.T
        assert np.allclose(sorted(np.diag(W)), [1, 1, 3, 3], atol=1e-12, rtol=0)
        assert np.abs(W - np.diag(np.diag(W))).max() < 1e-12

    def test_sq_branch_squeezed_vacuum(self):
        r = 0.37
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        kind, mu = gm.diagonalize_balanced(TwoModeStandardForm(c, c, s, -s))
        assert kind == "SQ"
        assert abs(mu + r) < 1e-12
        G = gm.squeezer_pair(mu, 1, 2, 2)
        W = G @ form_matrix(c, c, s, -s) @ G.T
        assert np.abs(W - np.eye(4)).max() < 1e-10

    def test_zero_coupling(self):
        kind, par = gm.diagonalize_balanced(TwoModeStandardForm(1.0, 2.0, 0.0, 0.0))
        assert kind == "BS" and par == 0.0

    def test_generic_branches_diagonalize(self):
        rng = np.random.default_rng(58)
        for _ in range(N_SAMPLES):
            m1, m2 = np.sort(rng.uniform(1.0, 5.0, size=2))
            # draw a coupling weak enough to keep the form positive definite
            k = rng.uniform(0.0, 0.95) * np.sqrt(m1 * m2)
            for sign in (+1.0, -1.0):
                V = form_matrix(m1, m2, k, sign * k)
                if sign < 0 and 2 * k >= m1 + m2:
                    continue  # not reachable by a physical squeezer form
                kind, par = gm.diagonalize_balanced(
                    TwoModeStandardForm(m1, m2, k, sign * k)
                )
                G = (
                    gm.beam_splitter_pair(par, 1, 2, 2)
                    if kind == "BS"
                    else gm.squeezer_pair(par, 1, 2, 2)
                )
                W = G @ V @ G.T
                assert np.abs(W[0:2, 2:4]).max() < 1e-9 * (1 + np.abs(W).max())
                vals = np.sort(np.diag(W))[::2]
                assert np.allclose(
                    vals, gm.symplectic_spectrum(V), atol=1e-8 * vals[-1], rtol=0
                )

    def test_not_balanced_raises(self):
        with pytest.raises(ValueError, match="balanced"):
            gm.diagonalize_balanced(TwoModeStandardForm(2.0, 3.0, 0.9, 0.2))

    def test_sq_branch_unphysical_coupling(self):
        with pytest.raises(InvalidCovarianceError):
            gm.diagonalize_balanced(TwoModeStandardForm(1.0, 1.0, 1.5, -1.5))


class TestPairFactor:
    def test_identity_targets(self):
        S = gm.pair_factor(1.5, 3.0, 1.5, 3.0)
        D = np.diag([1.5, 1.5, 3.0, 3.0])
        assert gm.is_symplectic(S, tol=1e-10)
        assert np.abs(S @ D @ S.T - D).max() < 1e-9

    def test_slot_placement_all_orderings(self):
        """Targets land on their requested slots for every combination of
        source and target orderings."""
        cases = [
            (1.0, 5.0, 2.0, 4.5),
            (5.0, 1.0, 2.0, 4.5),
            (1.0, 5.0, 4.5, 2.0),
            (5.0, 1.0, 4.5, 2.0),
        ]
        for a, b, ta, tb in cases:
            S = gm.pair_factor(a, b, ta, tb)
            W = S @ np.diag([a, a, b, b]) @ S.T
            assert abs(W[0, 0] - ta) < 1e-9 and abs(W[1, 1] - ta) < 1e-9
            assert abs(W[2, 2] - tb) < 1e-9 and abs(W[3, 3] - tb) < 1e-9
            assert np.allclose(
                gm.symplectic_spectrum(W), sorted((a, b)), atol=1e-9, rtol=0
            )
            assert gm.is_symplectic(S, tol=1e-9)

    def test_swaps_are_exact(self):
        """A swapped source (target) order exchanges the sorted call's two mode
        columns (rows) and negates one of them, with no round-off."""
        rng = np.random.default_rng(60)
        for _ in range(20):
            t_lo, t_hi, s_lo, s_hi = random_compatible_quadruple(rng)
            S = gm.pair_factor(s_lo, s_hi, t_lo, t_hi)
            cols = np.hstack([-S[:, 2:], S[:, :2]])  # S @ [[0, I], [-I, 0]]
            both = np.vstack([cols[2:], -cols[:2]])  # [[0, I], [-I, 0]] @ cols
            assert (gm.pair_factor(s_hi, s_lo, t_lo, t_hi) == cols).all()
            assert (gm.pair_factor(s_lo, s_hi, t_hi, t_lo) == np.vstack([S[2:], -S[:2]])).all()
            assert (gm.pair_factor(s_hi, s_lo, t_hi, t_lo) == both).all()

    def test_random_feasible_targets(self):
        rng = np.random.default_rng(59)
        for _ in range(N_SAMPLES):
            # sample sources, then targets obeying both feasibility
            # inequalities (sum may only grow, spread may only shrink)
            ta, tb, a, b = random_compatible_quadruple(rng)
            S = gm.pair_factor(a, b, ta, tb)
            W = S @ np.diag([a, a, b, b]) @ S.T
            assert abs(W[0, 0] - ta) < 1e-8 and abs(W[2, 2] - tb) < 1e-8
            assert np.allclose(
                gm.symplectic_spectrum(W), [a, b], atol=1e-8 * b, rtol=0
            )

    def test_built_forward_from_its_arguments(self, monkeypatch):
        """No standard-form matrix is built and factored, and no inverse taken."""

        def forbidden(*args):
            raise AssertionError("pair_factor went through a matrix normal form")

        names = ("reconstruct_two_mode", "_standard_shape", "_pivot_factor", "symplectic_inverse")
        for name in names:
            monkeypatch.setattr(two_mode, name, forbidden, raising=False)
        monkeypatch.setattr(symplectic, "symplectic_inverse", forbidden)
        for a, b, ta, tb in ((2.0, 5.0, 4.5, 3.5), (6.0, 1.5, 2.5, 6.0), (1.5, 3.0, 1.5, 3.0)):
            S = gm.pair_factor(a, b, ta, tb)
            W = S @ np.diag([a, a, b, b]) @ S.T
            assert np.abs(np.diag(W) - [ta, ta, tb, tb]).max() <= 1e-14 * max(ta, tb)

    def test_factor_gate(self, monkeypatch):
        """S D S^T against the standard form and S's symplecticity, relative to 1 + t_hi."""
        gates = []
        monkeypatch.setattr(two_mode, "_factor_gate", lambda *args: gates.append(args))
        # the GEN step of test_03's instance 116
        a, b = 3.2520822869164228, 1934.8892496697297
        ta, tb = 1082.621171425905, 1472.0740605118838
        gm.pair_factor(a, b, ta, tb)
        ((fact, symp, scale),) = gates
        assert scale == 1.0 + tb
        assert fact <= 1e-14 * scale and symp <= 1e-12
        monkeypatch.undo()
        monkeypatch.setattr(symplectic, "FACTOR_TOL", -1.0)
        with pytest.raises(NumericalError):
            gm.pair_factor(a, b, ta, tb)

    def test_spectra_without_a_state_miss_the_gate(self):
        """The feasibility slack admits targets that no real state reaches."""
        with pytest.raises(NumericalError):
            gm.pair_factor(1e-6, 1e-6, 1.0, 1.0 + 1e-9)

    def test_infeasible_targets(self):
        # sum would have to drop
        with pytest.raises(InfeasibleRedistributionError):
            gm.pair_factor(2.0, 3.0, 1.0, 2.0)
        # spread would have to grow
        with pytest.raises(InfeasibleRedistributionError):
            gm.pair_factor(2.0, 3.0, 1.5, 4.5)


class TestPivotFactor:
    """The closed-form 4x4 factor behind every jacobi_decompose pivot."""

    def test_random_isotropic_blocks(self):
        rng = np.random.default_rng(60)
        for _ in range(N_SAMPLES):
            a, b = rng.uniform(1.0, 6.0, size=2)
            # singular values of C below sqrt(a b) keep the block positive definite
            c = rng.uniform(0.0, 0.95, size=2) * np.sqrt(a * b)
            R1, R2 = (gm.beam_splitter_pair(t, 1, 2, 2)[0:2, 0:2] for t in rng.uniform(0, 6, 2))
            for sign in (1.0, -1.0):  # det C > 0 and det C < 0
                check_pivot_factor(pair_block(a, b, R1 @ np.diag([c[0], sign * c[1]]) @ R2))

    def test_edge_blocks(self):
        for M4 in pivot_edge_blocks():
            check_pivot_factor(M4)

    def test_blocks_from_random_state_pivots(self, monkeypatch):
        blocks = []

        def recording_pivot_factor(M4):
            blocks.append(M4.copy())
            return _pivot_factor(M4)

        monkeypatch.setattr(solver, "_pivot_factor", recording_pivot_factor)
        for seed in (3, 11):
            gm.jacobi_decompose(gm.random_state(4, seed=seed)[0])
        assert len(blocks) > 20
        for M4 in blocks:
            check_pivot_factor(M4)

    def test_rejects_non_positive_definite(self):
        for M4 in non_positive_definite_blocks():
            with pytest.raises(InvalidCovarianceError):
                _pivot_factor(M4)


def test_normal_forms_call_no_linear_algebra_routine(monkeypatch):
    """pair_factor, standard_form, two_mode_invariants and local_normal_form are closed-form."""
    V4 = gm.random_state(2, seed=5)[0]
    V = gm.random_state(6, seed=6)[0]
    calls = count_linalg_calls(monkeypatch)
    gm.williamson(V4)
    # the wrappers are live: williamson's real eigh of A^T A; its untied
    # kappa need no eigensolver for their 2 x 2 blocks
    assert calls == ["cholesky", "eigh"]
    calls.clear()
    for a, b, ta, tb in ((2.0, 5.0, 4.5, 3.5), (6.0, 1.5, 2.5, 6.0), (1.5, 3.0, 1.5, 3.0)):
        gm.pair_factor(a, b, ta, tb)
    gm.standard_form(V4)
    gm.standard_form(form_matrix(2.0, 3.0, 0.8, -0.3))
    gm.two_mode_invariants(V4)
    gm.local_normal_form(V)
    assert calls == []
