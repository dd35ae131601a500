"""Tests for spectra: symplectic eigenvalues, the normal-form factorization
and the dominance certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmarginal as gm
from gmarginal import InvalidCovarianceError, solver
from gmarginal.spectra import _within_slack
from gmarginal.two_mode import _pivot_factor

from conftest import (
    bloch_messiah_state,
    form_matrix,
    local_params,
    rand_local_symplectic,
    squeezed_state,
)
from test_oracle import STATES as ORACLE_STATES

N_SAMPLES = 30


class TestSymplecticSpectrum:
    def test_already_canonical(self):
        V = np.diag([1.5, 1.5, 3.0, 3.0, 3.0, 3.0])
        assert np.allclose(gm.symplectic_spectrum(V), [1.5, 3.0, 3.0], atol=1e-12, rtol=0)

    def test_coupled_two_mode_example(self):
        # For this matrix the two quadratic invariants give
        # k1^2 + k2^2 = 10 and (k1 k2)^2 = (4 - 1)(4 - 1) = 9, hence (1, 3).
        V = form_matrix(2.0, 2.0, 1.0, 1.0)
        assert np.allclose(gm.symplectic_spectrum(V), [1.0, 3.0], atol=1e-12, rtol=0)

    def test_quadratic_invariant_oracle_two_modes(self):
        """Cross-check n=2 spectra against the closed-form roots of
        x^2 - Delta x + det V computed from traces and determinants alone."""
        rng = np.random.default_rng(21)
        Om = gm.symplectic_form(2)
        for trial in range(N_SAMPLES):
            V, _, _ = gm.random_state(2, seed=300 + trial)
            delta = 0.5 * np.trace(Om @ V @ Om.T @ V)
            det = np.linalg.det(V)
            disc = np.sqrt(delta**2 - 4.0 * det)
            expect = np.sqrt([(delta - disc) / 2.0, (delta + disc) / 2.0])
            got = gm.symplectic_spectrum(V)
            assert np.allclose(got, expect, atol=1e-8 * expect[1], rtol=0)

    def test_general_eigenvalue_oracle(self):
        """Independent route: the eigenvalues of i*Omega*V come in +/- kappa
        pairs, so the sorted absolute values must repeat each kappa twice."""
        rng = np.random.default_rng(22)
        for trial in range(N_SAMPLES):
            n = int(rng.integers(1, 7))
            V, _, _ = gm.random_state(n, seed=500 + trial)
            ev = np.linalg.eigvals(1j * gm.symplectic_form(n) @ V)
            assert np.abs(ev.imag).max() < 1e-8 * np.abs(ev.real).max()
            expect = np.sort(np.abs(ev.real))
            got = np.repeat(gm.symplectic_spectrum(V), 2)
            assert np.allclose(got, expect, atol=1e-8 * expect[-1], rtol=0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(23)
        V, _, _ = gm.random_state(3, seed=77)
        base = gm.symplectic_spectrum(V)
        for _ in range(10):
            S = rand_local_symplectic(rng, 3)
            S = S @ gm.beam_splitter_pair(rng.uniform(0, 6), 1, 3, 3)
            S = S @ gm.squeezer_pair(rng.uniform(0, 0.4), 2, 3, 3)
            assert np.allclose(
                gm.symplectic_spectrum(S @ V @ S.T), base, atol=1e-7, rtol=0
            )

    def test_product_squared_equals_determinant(self):
        rng = np.random.default_rng(24)
        for trial in range(N_SAMPLES):
            n = int(rng.integers(1, 7))
            V, _, _ = gm.random_state(n, seed=900 + trial)
            kappa = gm.symplectic_spectrum(V)
            det = np.linalg.det(V)
            assert abs(np.prod(kappa**2) - det) < 1e-8 * abs(det)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovarianceError):
            gm.symplectic_spectrum(np.diag([1.0, -1.0, 2.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_extreme_scales(self, scale):
        # kappa(c V) = c kappa(V); kappa^2 leaves the double range below 1e-154
        # and above 1e154, so the kernel's A^T A must not be formed unscaled
        V, _, _ = gm.random_state(4, seed=1)
        got = gm.symplectic_spectrum(scale * V) / scale
        assert np.allclose(got, gm.symplectic_spectrum(V), rtol=1e-13, atol=0)


class TestWilliamson:
    def test_canonical_input(self):
        V = np.diag([3.0, 3.0, 1.0, 1.0])
        fac = gm.williamson(V)
        assert np.allclose(fac.kappa, [1.0, 3.0], atol=1e-12, rtol=0)
        D = np.diag(np.repeat(fac.kappa, 2))
        assert np.abs(fac.S @ D @ fac.S.T - V).max() < 1e-12
        assert gm.is_symplectic(fac.S, tol=1e-12)

    def test_balanced_squeezed_pair_is_pure(self):
        # m1 = m2 = cosh(2r), kx = -kp = sinh(2r) has both invariants equal
        # to those of the vacuum pair, so kappa = (1, 1).
        r = 0.55
        V = form_matrix(np.cosh(2 * r), np.cosh(2 * r), np.sinh(2 * r), -np.sinh(2 * r))
        fac = gm.williamson(V)
        assert np.allclose(fac.kappa, [1.0, 1.0], atol=1e-10, rtol=0)
        assert np.abs(fac.S @ fac.S.T - V).max() < 1e-10

    def test_random_round_trip(self):
        for trial in range(N_SAMPLES):
            n = 1 + trial % 8
            V, _, _ = gm.random_state(n, seed=1300 + trial)
            fac = gm.williamson(V)
            assert np.all(np.diff(fac.kappa) >= 0.0)
            D = np.diag(np.repeat(fac.kappa, 2))
            assert np.abs(fac.S @ D @ fac.S.T - V).max() < 1e-9 * max(1.0, np.abs(V).max())
            assert gm.is_symplectic(fac.S, tol=1e-9)
            assert np.allclose(fac.kappa, gm.symplectic_spectrum(V), atol=1e-9, rtol=0)

    def test_rejects_non_positive_definite(self):
        V = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(InvalidCovarianceError):
            gm.williamson(V)

    def test_tied_kappa_and_pivot_blocks(self, monkeypatch):
        # all-vacuum n = 8 (kappa fully degenerate), a synthesized state with
        # tied kappa, and the first 4x4 block jacobi_decompose factors
        kappa = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
        _, W, _ = gm.synthesize(kappa, np.array([1.5, 1.5, 2.0, 2.0, 2.5, 3.5]))
        pivots = []

        def recording_pivot_factor(M4):
            pivots.append(M4.copy())
            return _pivot_factor(M4)

        monkeypatch.setattr(solver, "_pivot_factor", recording_pivot_factor)
        gm.jacobi_decompose(gm.random_state(4, seed=5)[0])
        assert pivots[0].shape == (4, 4)
        cases = [(np.eye(16), np.ones(8)), (W, kappa), (pivots[0], None)]
        for V, expected in cases:
            fac = gm.williamson(V)
            omega = gm.symplectic_form(V.shape[0] // 2)
            D = np.diag(np.repeat(fac.kappa, 2))
            assert np.all(np.diff(fac.kappa) >= 0.0)
            assert np.allclose(fac.kappa, gm.symplectic_spectrum(V), rtol=1e-12, atol=0)
            if expected is not None:
                assert np.allclose(fac.kappa, expected, rtol=1e-12, atol=0)
            assert np.abs(fac.S @ omega @ fac.S.T - omega).max() < 1e-12
            assert np.abs(fac.S @ D @ fac.S.T - V).max() < 1e-12 * np.abs(V).max()


#: Relative gaps of the near-tie ladder, on both sides of williamson's
#: cluster threshold FACTOR_TOL * kappa_n (1e-6 relative).
LADDER_GAPS = (0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3)


def ladder_state(seed):
    """n = 16 bounded-squeeze state whose kappa come in near-tied pairs, plus a triple tie."""
    base = 1.2 + 0.4 * np.arange(len(LADDER_GAPS))
    kappa = np.concatenate([base, base * (1.0 + np.array(LADDER_GAPS)), [3.6, 3.6, 3.6, 4.0]])
    kappa = np.sort(kappa)
    return squeezed_state(np.random.default_rng(seed), kappa), kappa


def williamson_residuals(V, fac):
    """(factor residual relative to max|V|, symplecticity residual), both max-norm."""
    D = np.diag(np.repeat(fac.kappa, 2))
    omega = gm.symplectic_form(V.shape[0] // 2)
    res_fact = np.abs(fac.S @ D @ fac.S.T - V).max() / np.abs(V).max()
    return res_fact, np.abs(fac.S @ omega @ fac.S.T - omega).max()


class TestWilliamsonClusters:
    """The real route: eigh(A^T A), a normal form per cluster of tied kappa,
    and a first-order correction of the coupling between clusters."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_tie_ladder(self, seed):
        V, kappa = ladder_state(seed)
        fac = gm.williamson(V)
        assert np.all(np.diff(fac.kappa) >= 0.0)
        ref = gm.symplectic_spectrum(V)
        assert np.abs(fac.kappa - ref).max() <= 1e-12 * ref[-1]
        assert np.abs(fac.kappa - kappa).max() <= 1e-12 * kappa[-1]
        res_fact, res_symp = williamson_residuals(V, fac)
        # measured below 2e-15 on seeds 0-19
        assert res_fact < 1e-14
        assert res_symp < 1e-14

    @pytest.mark.parametrize("n, bound", [(16, 2e-12), (24, 1.2e-10)])
    def test_ill_conditioned_symplecticity(self, n, bound):
        # cond(V) 5.6e8 and 4.1e11; each bound is 10x the residual measured
        # with N = O^T (A O).  Forming N as the Omega-Gram matrix of L O
        # instead rounds at eps ||L||^2 and gives 1.5e-11 and 2.6e-8.
        V, _, _ = gm.random_state(n, seed=3)
        fac = gm.williamson(V)
        res_fact, res_symp = williamson_residuals(V, fac)
        assert res_symp < bound
        assert res_fact < 1e-14


def one_kernel_states():
    """The oracle's states, the near-tie ladder and an n = 12 Bloch-Messiah state."""
    states = dict(ORACLE_STATES)  # Bloch-Messiah n = 2, 4, 7, 8, 12 and a tied-kappa synthesis
    for seed in (0, 1, 2):
        states[f"ladder-{seed}"] = ladder_state(seed)[0]
    states["bloch-messiah-12"] = bloch_messiah_state(np.random.default_rng(12), 12)[0]
    return states


ONE_KERNEL_STATES = one_kernel_states()


class TestOneKappaKernel:
    """symplectic_spectrum and williamson read kappa from one normal-form basis."""

    @pytest.mark.parametrize("state", sorted(ONE_KERNEL_STATES))
    def test_spectrum_is_williamson_kappa(self, state):
        V = ONE_KERNEL_STATES[state]
        assert np.array_equal(gm.symplectic_spectrum(V), gm.williamson(V).kappa)

    @pytest.mark.parametrize("state", sorted(ONE_KERNEL_STATES))
    def test_kappa_ignores_eigenvector_signs(self, state, monkeypatch):
        V = ONE_KERNEL_STATES[state]
        kappa = gm.symplectic_spectrum(V)
        real_eigh = np.linalg.eigh
        regauged = []

        def regauged_eigh(a, *args, **kwargs):
            w, U = real_eigh(a, *args, **kwargs)
            if np.iscomplexobj(U):
                return w, U
            regauged.append(a.shape)
            U = U.copy()
            U[:, 1::2] *= -1.0  # every odd column: each pair's coupling changes sign
            return w, U

        monkeypatch.setattr(np.linalg, "eigh", regauged_eigh)
        fac = gm.williamson(V)
        assert np.array_equal(gm.symplectic_spectrum(V), kappa)
        assert len(regauged) == 2  # the patch is live in both routines
        assert np.array_equal(fac.kappa, kappa)
        res_fact, res_symp = williamson_residuals(V, fac)
        assert res_fact < 1e-14
        assert res_symp < 1e-14


class TestEdgeStates:
    """Verdicts and exception classes on the states that strain the kernel."""

    def test_large_local_parameters(self):
        # physical, but its Cholesky factorization fails: cond(V) is about 1e16
        _, W, _ = gm.synthesize((1.0, 1.0), (1e8, 1e8))
        assert gm.check_physical(W) is False
        for routine in (gm.symplectic_spectrum, gm.williamson):
            with pytest.raises(InvalidCovarianceError):
                routine(W)

    def test_compounded_squeezing(self):
        # random_state(n, seed=3) has cond(V) 4e16 at n = 32 and is not
        # numerically positive definite at n = 48.  At n = 32 the computed
        # kappa_min misses the generator's 1.00447 by 4.9e-4 to 2.1e-2,
        # depending on the BLAS kernel that formed V and the Cholesky factor,
        # so only the miss is pinned, not its value
        V, _, generator_kappa = gm.random_state(32, seed=3)
        kappa = gm.symplectic_spectrum(V)
        assert abs(kappa[0] - generator_kappa.min()) > 1e-4
        with pytest.raises(InvalidCovarianceError):
            gm.symplectic_spectrum(gm.random_state(48, seed=3)[0])


@pytest.mark.parametrize("e", [-300, -200, -160, 0, 160, 200, 300])
def test_every_finite_scale(e):
    """diag(10^e, 10^e, 2 10^e, 2 10^e) and the squeezed vacuum
    diag(10^e, 10^-e): no over- or underflow at any scale or squeezing.

    Without the power-of-two scaling, local_parameters overflows from
    e = 160 and underflows to a non-positive det from e = -200 (and loses
    digits to subnormals at e = -160), and williamson's cluster correction
    overflows from e = 160 and divides by zero from e = -200.  Scaling a
    block by its largest entry alone underflows the squeezed vacuum's small
    diagonal entry from e = 160.  Without the rescale in ``_spd_roots``,
    local_normal_form returns NaN from e = 155, and jacobi_decompose reads
    that NaN as a coupling to pivot and raises NumericalError.
    """
    c = 10.0**e
    V = np.diag([c, c, 2.0 * c, 2.0 * c])
    for m in (gm.local_parameters(V), gm.symplectic_spectrum(V)):
        assert np.allclose(m / c, [1.0, 2.0], rtol=1e-15, atol=0)
    fac = gm.williamson(V)
    assert np.allclose(fac.kappa / c, [1.0, 2.0], rtol=1e-15, atol=0)
    assert fac.factor_residual <= 1e-15 * c and fac.symplectic_residual <= 1e-15
    W, locs, m = gm.local_normal_form(V)
    assert np.isfinite(W).all()
    assert all(abs(np.linalg.det(L) - 1.0) <= 1e-15 for L in locs)
    assert np.array_equal(m, gm.local_parameters(V))
    if e >= 0:
        assert np.allclose(gm.jacobi_decompose(V)[1] / c, [1.0, 2.0], rtol=1e-15, atol=0)
    else:  # kappa = c (1, 2) is below the vacuum value
        with pytest.raises(InvalidCovarianceError, match="kappa_min = .* is below 1$"):
            gm.jacobi_decompose(V)
    squeezed = np.diag([c, 1.0 / c])
    for m in (gm.local_parameters(squeezed), gm.symplectic_spectrum(squeezed)):
        assert np.allclose(m, [1.0], rtol=1e-15, atol=0)
    assert np.allclose(gm.williamson(squeezed).kappa, [1.0], rtol=1e-15, atol=0)


def test_top_of_the_double_range():
    """Entries above about 9e307, where a sum of two of them overflows: the
    symmetrizing and averaging steps halve before they add or subtract."""
    V = 1.5e308 * np.diag([1.0, 1.0, 0.9, 0.9])
    kappa = [1.35e308, 1.5e308]
    W, _, m = gm.local_normal_form(V)
    assert np.isfinite(W).all() and np.allclose(W, V, rtol=1e-15, atol=0)
    assert np.array_equal(m, gm.local_parameters(V))
    assert np.allclose(gm.jacobi_decompose(V)[1], kappa, rtol=1e-15, atol=0)
    assert np.allclose(gm.williamson(V).kappa, kappa, rtol=1e-15, atol=0)
    # a coupled pair with entries up to 1.35e308 pivots as its 4^-511 multiple does
    V4 = np.array([[2.0, 0, 1, 0], [0, 2, 0, -0.5], [1, 0, 3, 0], [0, -0.5, 0, 3]])
    S0, kappa0, _ = gm.jacobi_decompose(V4)
    c = 4.0**511
    S, kappa, _ = gm.jacobi_decompose(c * V4)
    assert np.array_equal(S, S0) and np.array_equal(kappa, c * kappa0)
    assert np.allclose(gm.williamson(c * V4).kappa, kappa, rtol=1e-14, atol=0)


# positive diagonal but indefinite, and singular positive semidefinite:
# the Cholesky factorization behind the spectral routines fails on both
INDEFINITE = form_matrix(1.0, 1.0, 2.0, 0.0)
SINGULAR_PSD = np.diag([1.0, 0.0, 1.0, 1.0])


class TestRejectedByCholesky:
    @pytest.mark.parametrize("V", [INDEFINITE, SINGULAR_PSD], ids=["indefinite", "singular"])
    @pytest.mark.parametrize(
        "routine", [gm.symplectic_spectrum, gm.williamson, gm.jacobi_decompose]
    )
    def test_raises_invalid_covariance_error(self, routine, V):
        with pytest.raises(InvalidCovarianceError):
            routine(V)

    @pytest.mark.parametrize("V", [INDEFINITE, SINGULAR_PSD], ids=["indefinite", "singular"])
    def test_check_physical_is_false(self, V):
        assert gm.check_physical(V) is False


class TestDominates:
    def test_seven_mode_example(self):
        cert = gm.dominates((5, 2, 18, 4, 1, 12, 3), (9, 7, 8, 6, 12, 11, 10))
        assert cert.compatible
        assert np.allclose(cert.kappa_sorted, [1, 2, 3, 4, 5, 12, 18], atol=0, rtol=0)
        assert np.allclose(cert.m_sorted, [6, 7, 8, 9, 10, 11, 12], atol=0, rtol=0)
        assert np.allclose(
            cert.partial_sum_slacks, [5, 10, 15, 20, 25, 24, 18], atol=1e-12, rtol=0
        )
        assert abs(cert.tail_slack - 30.0) < 1e-12

    def test_equal_vectors(self):
        cert = gm.dominates((2.0, 1.0, 5.0), (1.0, 2.0, 5.0))
        assert cert.compatible
        assert np.allclose(cert.partial_sum_slacks, 0.0, atol=0, rtol=0)
        assert cert.tail_slack == 0.0

    def test_tail_violation(self):
        cert = gm.dominates((1.0, 1.0), (1.0, 3.0))
        assert not cert.compatible
        assert abs(cert.tail_slack - (-2.0)) < 1e-15
        assert np.all(np.asarray(cert.partial_sum_slacks) >= 0.0)

    def test_partial_sum_violation(self):
        cert = gm.dominates((3.0, 4.0), (1.0, 6.0))
        assert not cert.compatible
        assert cert.partial_sum_slacks[0] < 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        kappa = rng.uniform(1.0, 6.0, size=6)
        m = rng.uniform(1.0, 6.0, size=6)
        ref = gm.dominates(kappa, m)
        for _ in range(8):
            cert = gm.dominates(rng.permutation(kappa), rng.permutation(m))
            assert cert.compatible == ref.compatible
            assert np.allclose(cert.partial_sum_slacks, ref.partial_sum_slacks, atol=1e-12)
            assert abs(cert.tail_slack - ref.tail_slack) < 1e-12

    def test_transitivity_on_constructed_triples(self):
        """Adjacent nearest-neighbor transfers keep a sorted vector sorted and
        are dominated by the original, giving triples with both premises
        guaranteed; the conclusion must then hold as well.  Integer values
        keep all slack arithmetic exact."""
        rng = np.random.default_rng(32)
        for _ in range(N_SAMPLES):
            n = int(rng.integers(3, 8))
            a = np.sort(rng.integers(1, 40, size=n)).astype(float)

            def transfer(v):
                w = v.copy()
                i = int(rng.integers(0, n - 1))
                delta = float(rng.integers(0, int(w[i + 1] - w[i]) // 2 + 1))
                w[i] += delta
                w[i + 1] -= delta
                return w

            b = transfer(a)
            c = transfer(b)
            assert gm.dominates(a, b).compatible
            assert gm.dominates(b, c).compatible
            assert gm.dominates(a, c).compatible

    def test_physical_states_satisfy_the_compatibility_direction(self):
        for trial in range(N_SAMPLES):
            n = 2 + trial % 5
            V, _, _ = gm.random_state(n, seed=1700 + trial)
            cert = gm.dominates(gm.symplectic_spectrum(V), local_params(V))
            assert cert.compatible

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gm.dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "kappa, m",
        [((1.0, np.nan), (2.0, 2.0)), ((1.0, 3.0), (2.0, np.nan)),
         ((1.0, np.inf), (2.0, 3.0)), ((1.0, 3.0), (2.0, np.inf))],
    )
    def test_rejects_non_finite(self, kappa, m):
        with pytest.raises(ValueError, match="positive finite"):
            gm.dominates(kappa, m)

    def test_round_off_allowance(self):
        """One allowance, 1e-9 (1 + sum m), for synthesize and the CLI verdict."""
        kappa = (1.0, 3.0)
        for delta, ok in ((2e-9, True), (3e-9, False)):  # worst slack -2 delta, allowance 5e-9
            m = (1.0 - delta, 3.0 + delta)
            cert = gm.dominates(kappa, m)
            assert not cert.compatible
            worst, within = _within_slack(cert)
            assert worst == min(min(cert.partial_sum_slacks), cert.tail_slack)
            assert within is ok
            if ok:
                assert gm.verify(gm.synthesize(kappa, m)[0], kappa, m).ok
            else:
                with pytest.raises(gm.IncompatibleSpectraError, match="worst slack"):
                    gm.synthesize(kappa, m)


@st.composite
def permuted_pairs(draw):
    """(kappa, m) of equal length on a dyadic grid, and a permutation of each."""
    n = draw(st.integers(1, 12))
    values = st.lists(st.integers(64, 640), min_size=n, max_size=n)
    kappa = np.array(draw(values)) / 64.0
    m = np.array(draw(values)) / 64.0
    p = np.array(draw(st.permutations(range(n))))
    q = np.array(draw(st.permutations(range(n))))
    return kappa, m, kappa[p], m[q]


class TestDominatesProperties:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(permuted_pairs())
    def test_certificate_ignores_the_order_of_each_vector(self, case):
        kappa, m, kappa_perm, m_perm = case
        ref = gm.dominates(kappa, m)
        cert = gm.dominates(kappa_perm, m_perm)
        assert np.array_equal(cert.kappa_sorted, ref.kappa_sorted)
        assert np.array_equal(cert.m_sorted, ref.m_sorted)
        assert np.array_equal(cert.partial_sum_slacks, ref.partial_sum_slacks)
        assert cert.tail_slack == ref.tail_slack
        assert cert.compatible == ref.compatible

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(permuted_pairs(), st.integers(0, 2000))
    def test_certificate_scales_by_powers_of_two(self, case, drop):
        """dominates(2^k kappa, 2^k m) is exactly 2^k times the certificate
        of (kappa, m), for k up to the top of the double range: the largest
        k with 2^k max(kappa, m) finite, less the drawn ``drop``.  There the
        sum of a few entries passes the largest double.  The grid's sums are
        exact, so the certificate of (kappa, m) is too; a scaled slack past
        the largest double is inf."""
        kappa, m = case[:2]
        k = 1024 - math.frexp(max(kappa.max(), m.max()))[1] - drop
        ref = gm.dominates(kappa, m)
        cert = gm.dominates(kappa * 2.0**k, m * 2.0**k)
        with np.errstate(over="ignore"):
            partial, tail = ref.partial_sum_slacks * 2.0**k, ref.tail_slack * 2.0**k
        assert cert.kappa_sorted.tobytes() == (ref.kappa_sorted * 2.0**k).tobytes()
        assert cert.m_sorted.tobytes() == (ref.m_sorted * 2.0**k).tobytes()
        assert cert.partial_sum_slacks.tobytes() == partial.tobytes()
        assert float(cert.tail_slack).hex() == float(tail).hex()
        assert cert.compatible == ref.compatible
