"""Tests for the elementary symplectic toolbox."""

import math

import numpy as np
import pytest

import gmarginal as gm
from gmarginal import InvalidCovarianceError
from gmarginal.symplectic import _bs_block, _spd_roots, _sq_block, _sqrt_det

from conftest import block_isotropy_max, local_params, off_block_max, rand_local_symplectic

N_SAMPLES = 25


def test_symplectic_form_structure():
    for n in (1, 2, 5):
        Om = gm.symplectic_form(n)
        assert Om.shape == (2 * n, 2 * n)
        assert np.array_equal(Om, -Om.T)
        assert np.array_equal(Om @ Om, -np.eye(2 * n))
        # mode blocks are the canonical 2x2 form, cross blocks vanish
        assert np.array_equal(Om[0:2, 0:2], np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert off_block_max(Om) == 0.0
    with pytest.raises(ValueError, match="^mode count must be a positive integer$"):
        gm.symplectic_form(0)


def test_mode_slice_is_one_based():
    assert gm.mode_slice(1) == slice(0, 2)
    assert gm.mode_slice(3) == slice(4, 6)


def test_is_symplectic_basics():
    assert gm.is_symplectic(np.eye(6))
    assert not gm.is_symplectic(2.0 * np.eye(6))
    with pytest.raises(ValueError):
        gm.is_symplectic(np.eye(3))
    with pytest.raises(ValueError):
        gm.is_symplectic(np.ones((2, 4)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_is_symplectic_non_finite_is_false_without_warning(value):
    # pytest turns warnings into errors, so an inf reaching the product
    # would raise here
    S = np.eye(4)
    S[0, 1] = value
    assert gm.is_symplectic(S) is False


def test_symplectic_inverse_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        S = rand_local_symplectic(rng, n)
        S = gm.beam_splitter_pair(0.3, 1, n, n) @ S if n > 1 else S
        assert gm.is_symplectic(S, tol=1e-10)
        assert np.allclose(gm.symplectic_inverse(S), np.linalg.inv(S), atol=1e-10, rtol=0)


class TestGenerators:
    def test_beam_splitter_is_symplectic_and_orthogonal(self):
        for theta in (0.0, 0.3, np.pi / 4, 1.9):
            G = gm.beam_splitter_pair(theta, 1, 2, 2)
            assert gm.is_symplectic(G, tol=1e-12)
            assert np.allclose(G @ G.T, np.eye(4), atol=1e-12, rtol=0)

    def test_beam_splitter_identity_at_zero(self):
        assert np.allclose(gm.beam_splitter_pair(0.0, 2, 3, 4), np.eye(8), atol=0, rtol=0)

    def test_beam_splitter_conserves_pair_sum(self):
        """Acting on uncoupled isotropic modes, a beam splitter moves weight
        between the two diagonal parameters but never changes their sum."""
        rng = np.random.default_rng(11)
        for _ in range(N_SAMPLES):
            a, b = rng.uniform(1.0, 6.0, size=2)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            G = gm.beam_splitter_pair(theta, 1, 2, 2)
            W = G @ np.diag([a, a, b, b]) @ G.T
            da = 0.5 * (W[0, 0] + W[1, 1])
            db = 0.5 * (W[2, 2] + W[3, 3])
            assert abs((da + db) - (a + b)) < 1e-12 * (a + b)
            assert block_isotropy_max(W) < 1e-12

    def test_blocks_match_block_matrix_reference_bitwise(self):
        """The 4x4 literals equal the np.block forms, signed zeros included."""
        I2, Z2 = np.eye(2), np.diag([1.0, -1.0])
        for x in (0.0, -0.0, 0.3, -1.1, np.pi / 2, 2.5, -4.0):
            c, s = np.cos(x), np.sin(x)
            ref = np.block([[c * I2, s * I2], [-s * I2, c * I2]])
            assert _bs_block(x).tobytes() == ref.tobytes()
            c, s = np.cosh(x), np.sinh(x)
            ref = np.block([[c * I2, s * Z2], [s * Z2, c * I2]])
            assert _sq_block(x).tobytes() == ref.tobytes()

    def test_squeezer_is_symplectic_not_orthogonal(self):
        G = gm.squeezer_pair(0.4, 1, 2, 2)
        assert gm.is_symplectic(G, tol=1e-12)
        assert np.abs(G @ G.T - np.eye(4)).max() > 0.1

    def test_squeezer_identity_at_zero(self):
        assert np.allclose(gm.squeezer_pair(0.0, 1, 3, 3), np.eye(6), atol=0, rtol=0)

    def test_squeezer_conserves_pair_difference_and_raises_both(self):
        rng = np.random.default_rng(12)
        for _ in range(N_SAMPLES):
            a, b = rng.uniform(1.0, 6.0, size=2)
            mu = rng.uniform(0.0, 0.8)
            G = gm.squeezer_pair(mu, 1, 2, 2)
            W = G @ np.diag([a, a, b, b]) @ G.T
            da = 0.5 * (W[0, 0] + W[1, 1])
            db = 0.5 * (W[2, 2] + W[3, 3])
            assert abs((da - db) - (a - b)) < 1e-12 * (1 + a + b)
            eps = (a + b) * np.sinh(mu) ** 2
            assert abs(da - (a + eps)) < 1e-12 * (1 + a + eps)
            assert abs(db - (b + eps)) < 1e-12 * (1 + b + eps)

    def test_pair_embedding_targets_the_right_modes(self):
        n = 4
        G = gm.beam_splitter_pair(0.7, 2, 4, n)
        # untouched modes carry exact identity blocks
        assert np.array_equal(G[0:2, 0:2], np.eye(2))
        assert np.array_equal(G[4:6, 4:6], np.eye(2))
        # acting on the embedded pair reproduces the 4x4 picture
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        W = G @ np.diag([a, a, b, b, c, c, d, d]) @ G.T
        G4 = gm.beam_splitter_pair(0.7, 1, 2, 2)
        W4 = G4 @ np.diag([b, b, d, d]) @ G4.T
        idx = [2, 3, 6, 7]
        assert np.allclose(W[np.ix_(idx, idx)], W4, atol=1e-12, rtol=0)
        assert np.allclose(np.diag(W)[[0, 1, 4, 5]], [a, a, c, c], atol=0, rtol=0)

    def test_expand_two_mode_rejects_bad_pairs(self):
        S4 = np.eye(4)
        with pytest.raises(ValueError):
            gm.expand_two_mode(S4, 2, 2, 3)
        with pytest.raises(ValueError):
            gm.expand_two_mode(S4, 0, 1, 3)
        with pytest.raises(ValueError):
            gm.expand_two_mode(S4, 1, 4, 3)
        with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
            gm.expand_two_mode(np.eye(2), 1, 2, 3)
        with pytest.raises(ValueError, match="^a two-mode generator needs at least two modes$"):
            gm.beam_splitter_pair(0.3, 1, 2, 1)


class TestValidateCovariance:
    def test_symmetrizes(self):
        V = np.diag([2.0, 2.0]) + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
        out = gm.validate_covariance(V)
        assert np.array_equal(out, out.T)

    def test_rejects_asymmetric(self):
        V = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(InvalidCovarianceError, match="symmetric"):
            gm.validate_covariance(V)

    def test_rejects_odd_dimension_and_nonfinite(self):
        with pytest.raises(InvalidCovarianceError):
            gm.validate_covariance(np.eye(3))
        with pytest.raises(InvalidCovarianceError, match="^covariance matrix must be square$"):
            gm.validate_covariance(np.ones((2, 4)))
        V = np.eye(4)
        V[0, 0] = np.nan
        with pytest.raises(InvalidCovarianceError):
            gm.validate_covariance(V)

    def test_finite_entries_do_not_overflow(self):
        # 2 x 1.6e308 overflows; the suite turns a RuntimeWarning into an error
        V = np.diag([1.6e308] * 2)
        assert np.array_equal(gm.validate_covariance(V), V)
        V[0, 1], V[1, 0] = 1.6e308, -1.6e308
        with pytest.raises(InvalidCovarianceError, match="symmetric"):
            gm.validate_covariance(V)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_output_is_a_symmetric_copy(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((2 * n, 2 * n))
        V = X @ X.T + 1e-12 * rng.standard_normal((2 * n, 2 * n))
        for M in (V, 0.5 * (V + V.T)):
            out = gm.validate_covariance(M)
            assert out is not M
            assert np.array_equal(out, 0.5 * (M + M.T))


def test_local_normal_form_makes_blocks_isotropic():
    rng = np.random.default_rng(3)
    for trial in range(N_SAMPLES):
        n = int(rng.integers(1, 5))
        V, _, _ = gm.random_state(n, seed=100 + trial)
        W, locs, m = gm.local_normal_form(V)
        assert block_isotropy_max(W) < 1e-10
        assert np.allclose(np.diag(W)[::2], m, atol=1e-10, rtol=0)
        for L in locs:
            assert abs(np.linalg.det(L) - 1.0) < 1e-10
        # locals act by congruence and leave the spectrum alone
        full = np.zeros_like(V)
        for j, L in enumerate(locs):
            full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = L
        assert np.abs(full @ V @ full.T - W).max() < 1e-9 * np.abs(V).max()
        assert np.allclose(
            gm.symplectic_spectrum(W), gm.symplectic_spectrum(V), atol=1e-8, rtol=0
        )
        assert np.allclose(local_params(V), m, atol=1e-10, rtol=0)
        # same arithmetic as the per-block loop, so equal to the last bit
        loop = [
            np.sqrt(V[i, i] * V[i + 1, i + 1] - V[i, i + 1] * V[i + 1, i])
            for i in range(0, 2 * n, 2)
        ]
        assert np.array_equal(gm.local_parameters(V), loop)
        assert np.array_equal(m, loop)


def test_local_parameters_rejects_non_positive_blocks():
    V = np.diag([2.0, 2.0, 1.0, 1.0, 3.0, 3.0])
    V[2:4, 2:4] = [[1.0, 1.5], [1.5, 1.0]]  # det < 0
    with pytest.raises(InvalidCovarianceError, match="single-mode block 2 is not"):
        gm.local_parameters(V)
    with pytest.raises(InvalidCovarianceError, match="single-mode block 1 is not"):
        gm.local_parameters(-np.eye(4))  # det > 0 but negative definite


@pytest.mark.parametrize(
    "x0, xk, x1", [(1.0, 0.0, 1.0), (2.5, 0.7, 1.3), (3.0, -2.9, 3.0), (7e-3, 1e-5, 4e2)]
)
def test_sqrt_det_is_the_d_of_spd_roots_on_the_power_of_four_ladder(x0, xk, x1):
    """ldexp(*_sqrt_det(4^e X)) is _spd_roots(4^e X)[2] and 4^e sqrt(det X), bit for bit.

    From |e| = 150 or so det(4^e X) leaves [2^-600, 2^600] and both take
    the rescaled path.
    """
    d0 = math.ldexp(*_sqrt_det(x0, xk, x1))
    for e in range(-500, 501):
        X = [math.ldexp(x, 2 * e) for x in (x0, xk, x1)]
        d = math.ldexp(*_sqrt_det(*X))
        assert d == _spd_roots(*X)[2], e
        assert d == math.ldexp(d0, 2 * e), e


def test_check_physical():
    assert gm.check_physical(np.diag([1.0, 1.0, 2.5, 2.5]))
    assert not gm.check_physical(np.diag([0.5, 0.5, 2.0, 2.0]))
    # not a covariance matrix at all
    assert not gm.check_physical(np.diag([1.0, -1.0]))
    V, _, _ = gm.random_state(3, seed=5)
    assert gm.check_physical(V)


class TestRandomState:
    def test_factorization_and_symplecticity(self):
        for n in (1, 2, 5):
            V, S, kappa = gm.random_state(n, seed=42)
            assert gm.is_symplectic(S, tol=1e-9)
            D = np.diag(np.repeat(kappa, 2))
            assert np.abs(S @ D @ S.T - V).max() < 1e-9 * max(1.0, np.abs(V).max())
            assert np.all(kappa >= 1.0) and np.all(kappa <= 4.0)
            assert np.allclose(
                gm.symplectic_spectrum(V), np.sort(kappa), atol=1e-8, rtol=0
            )

    def test_reproducible(self):
        V1, S1, k1 = gm.random_state(3, seed=9)
        V2, S2, k2 = gm.random_state(3, seed=9)
        assert np.array_equal(V1, V2) and np.array_equal(S1, S2) and np.array_equal(k1, k2)
        V3, _, _ = gm.random_state(3, seed=10)
        assert np.abs(V1 - V3).max() > 1e-6

    def test_kappa_range_honored_and_checked(self):
        _, _, kappa = gm.random_state(2, seed=1, kappa_range=(2.0, 2.0))
        assert np.allclose(kappa, 2.0, atol=0, rtol=0)
        with pytest.raises(ValueError):
            gm.random_state(2, seed=1, kappa_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            gm.random_state(0, seed=1)

    @pytest.mark.parametrize(
        "kappa_range",
        [(np.nan, 4.0), (1.0, np.inf), (1.0, np.nan), (np.inf, np.inf)],
        ids=["min-nan", "max-inf", "max-nan", "both-inf"],
    )
    def test_kappa_range_must_be_finite(self, kappa_range):
        """A non-finite end is a ValueError, not the generator's OverflowError."""
        with pytest.raises(ValueError, match="^kappa_range must be a finite interval$"):
            gm.random_state(3, seed=1, kappa_range=kappa_range)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_replay_of_the_draws_as_dense_generators(self, n):
        # replays random_state's rng calls in their order and multiplies the
        # dense 2n x 2n generators, so a generator applied to the wrong rows fails
        seed = 17
        V, S, kappa = gm.random_state(n, seed)
        rng = np.random.default_rng(seed)
        assert np.array_equal(kappa, rng.uniform(1.0, 4.0, size=n))
        kinds = ("bs", "rot", "sq2", "sq1") if n >= 2 else ("rot", "sq1")
        probs = (0.4, 0.25, 0.2, 0.15) if n >= 2 else (0.6, 0.4)
        S_ref = np.eye(2 * n)
        for _ in range(4 * n * n):
            kind = rng.choice(kinds, p=probs)
            if kind == "bs":
                j, k = np.sort(rng.choice(n, size=2, replace=False)) + 1
                G = gm.beam_splitter_pair(rng.uniform(0.0, 2.0 * np.pi), j, k, n)
            elif kind == "sq2":
                j, k = np.sort(rng.choice(n, size=2, replace=False)) + 1
                G = gm.squeezer_pair(rng.uniform(0.0, 0.5), j, k, n)
            else:
                j = int(rng.integers(1, n + 1))
                if kind == "rot":
                    phi = rng.uniform(0.0, 2.0 * np.pi)
                    block = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
                else:
                    r = rng.uniform(0.0, 0.5)
                    block = np.diag([math.exp(r), math.exp(-r)])
                G = np.eye(2 * n)
                G[gm.mode_slice(j), gm.mode_slice(j)] = block
            S_ref = G @ S_ref
        assert np.abs(S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
        assert np.array_equal(V, V.T)
        D = np.diag(np.repeat(kappa, 2))
        assert np.abs(V - S_ref @ D @ S_ref.T).max() <= 1e-12 * np.abs(V).max()
