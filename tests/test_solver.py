"""Tests for the constructive solvers: pairwise diagonalization and
four-stage synthesis."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmarginal as gm
from gmarginal import (
    IncompatibleSpectraError,
    InvalidCovarianceError,
    NumericalError,
    UnphysicalSpectrumError,
)
from gmarginal import solver, spectra, symplectic, two_mode
from gmarginal.solver import JacobiStep, _apply_pair, _pair_ids
from gmarginal.spectra import _within_slack
from gmarginal.symplectic import (
    _JACOBI_EPS,
    COUPLING_TOL,
    DEFAULT_TOL,
    _bs_block,
    _sq_block,
    local_normal_form,
    mode_slice,
    symplectic_inverse,
    validate_covariance,
)

from conftest import (
    block_isotropy_max,
    bloch_messiah_state,
    count_linalg_calls,
    form_matrix,
    local_params,
    off_block_max,
)

# The seven-mode instance with every intermediate value integer: global
# parameters (1,2,3,4,5,12,18), local targets (6,...,12).  The diagonal
# after each of the six steps is frozen below; all entries are exact
# integers, which makes this the sharpest available regression anchor.
SEVEN_KAPPA = (1.0, 2.0, 3.0, 4.0, 5.0, 12.0, 18.0)
SEVEN_M = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
SEVEN_CHAIN = [
    [6.0, 2.0, 3.0, 4.0, 5.0, 7.0, 18.0],
    [6.0, 7.0, 3.0, 4.0, 5.0, 2.0, 18.0],
    [6.0, 7.0, 8.0, 4.0, 5.0, 2.0, 23.0],
    [6.0, 7.0, 8.0, 9.0, 5.0, 2.0, 26.0],
    [6.0, 7.0, 8.0, 9.0, 10.0, 2.0, 21.0],
    [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
]
SEVEN_PAIRS = [(1, 6), (2, 6), (3, 7), (4, 7), (5, 7), (6, 7)]
SEVEN_KINDS = ["BS", "BS", "SQ", "GEN", "BS", "BS"]
SEVEN_STAGES = [1, 1, 2, 3, 4, 4]


def rel_diff(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


class TestApplyPair:
    """The in-place pair update against the dense congruence it replaces."""

    BLOCKS = [
        _bs_block(0.7),
        _bs_block(-2.3),
        _sq_block(0.4),
        _sq_block(-0.9),
        gm.pair_factor(2.0, 5.0, 4.5, 3.5),
        gm.pair_factor(6.0, 1.5, 2.5, 6.0),
    ]

    @pytest.mark.parametrize("pair", [(2, 5), (5, 2), (1, 6), (6, 1), (3, 4)])
    def test_matches_dense_congruence(self, pair):
        n = 6
        i, j = pair
        rng = np.random.default_rng(7 * i + j)
        for T4 in self.BLOCKS:
            A = rng.normal(size=(2 * n, 2 * n))
            W0 = A @ A.T + 2 * n * np.eye(2 * n)
            S0 = rng.normal(size=(2 * n, 2 * n))
            T = gm.expand_two_mode(T4, i, j, n)
            W_ref, S_ref = T @ W0 @ T.T, T @ S0
            WS = np.concatenate((W0, S0))
            W, S = WS[: 2 * n], WS[2 * n :]
            ids = _pair_ids(i, j, n)
            block = _apply_pair(WS, T4, ids, WS.take(ids, axis=0))
            assert rel_diff(W, W_ref) < 1e-14
            assert rel_diff(S, S_ref) < 1e-14
            assert np.array_equal(W, W.T)
            assert np.array_equal(block, W[ids[:4, None], ids[:4]])


class TestJacobi:
    def test_already_canonical(self):
        V = np.diag([1.0, 1.0, 2.5, 2.5, 4.0, 4.0])
        S, kappa, trace = gm.jacobi_decompose(V)
        assert trace.steps == []
        assert trace.converged
        assert np.allclose(S, np.eye(6), atol=1e-12, rtol=0)
        assert np.allclose(kappa, [1.0, 2.5, 4.0], atol=1e-12, rtol=0)

    def test_single_pivot_example(self):
        V = form_matrix(2.0, 2.0, 1.0, 1.0)
        S, kappa, trace = gm.jacobi_decompose(V)
        assert trace.converged
        assert len(trace.steps) == 1
        assert trace.steps[0].pair == (1, 2)
        assert abs(trace.steps[0].off_norm - 1.0) < 1e-12
        assert abs(trace.initial_profit - 4.0) < 1e-12
        assert abs(trace.steps[0].profit - 3.0) < 1e-10
        assert np.allclose(kappa, [1.0, 3.0], atol=1e-10, rtol=0)
        W = S @ V @ S.T
        assert off_block_max(W) < 1e-10
        assert block_isotropy_max(W) < 1e-10

    def test_matches_normal_form_on_random_states(self):
        for trial in range(20):
            n = 2 + trial % 5
            V, _, _ = gm.random_state(n, seed=2100 + trial)
            S, kappa, trace = gm.jacobi_decompose(V)
            assert trace.converged
            assert gm.is_symplectic(S, tol=1e-8)
            assert np.allclose(kappa, gm.williamson(V).kappa, atol=1e-8, rtol=0)
            assert off_block_max(S @ V @ S.T) < 1e-10 * max(1.0, np.abs(V).max())

    def test_profit_decreases_to_floor(self):
        V, _, _ = gm.random_state(5, seed=88)
        _, _, trace = gm.jacobi_decompose(V)
        profits = [trace.initial_profit] + [s.profit for s in trace.steps]
        for earlier, later in zip(profits, profits[1:]):
            assert later <= earlier * (1.0 + 1e-12)
        floor = np.sqrt(np.linalg.det(V))
        assert profits[-1] >= floor * (1.0 - 1e-10)
        assert abs(profits[-1] - floor) < 1e-8 * floor

    def test_final_profit_matches_recomputed_blocks(self):
        """The last pivot's profit against the local parameters of S V S^T,
        formed from the returned S and V at 40 digits.  Formed in double
        precision instead, S V S^T itself misses them by up to 1.7e-12
        relative on these states (n = 5 under OpenBLAS's Prescott kernel),
        more than the bound, while the profit stays within 4.2e-13."""
        for trial in range(6):
            n = 2 + trial
            V, _, _ = gm.random_state(n, seed=510 + trial)
            S, _, trace = gm.jacobi_decompose(V)
            with mpmath.workdps(40):
                S_mp = mpmath.matrix(S.tolist())
                W = S_mp * mpmath.matrix(V.tolist()) * S_mp.T
                dets = (W[2 * j, 2 * j] * W[2 * j + 1, 2 * j + 1] - W[2 * j, 2 * j + 1] ** 2 for j in range(n))
                expect = float(mpmath.fprod(mpmath.sqrt(d) for d in dets))
            assert abs(trace.steps[-1].profit - expect) <= 1e-12 * expect

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidCovarianceError):
            gm.jacobi_decompose(np.diag([0.5, 0.5, 2.0, 2.0]))

    def test_vacuum_rejection_carries_the_finished_trace(self):
        # a two-mode squeezed vacuum times 0.9: one pivot, then kappa = (0.9, 0.9)
        ch, sh = np.cosh(0.8), np.sinh(0.8)
        with pytest.raises(InvalidCovarianceError, match="kappa_min") as info:
            gm.jacobi_decompose(0.9 * form_matrix(ch, ch, sh, -sh))
        trace = info.value.trace
        assert trace.converged and [s.pair for s in trace.steps] == [(1, 2)]

    @pytest.mark.parametrize(
        "V",
        [form_matrix(1.0, 1.0, 2.0, 0.0), form_matrix(1.0, 1.0, 0.5, 0.5)],
        ids=["indefinite", "kappa-half"],
    )
    @pytest.mark.parametrize("budget", [0, 1])
    def test_truncated_run_rejects_unphysical(self, monkeypatch, V, budget):
        """With no sweep allowed the run is cut before convergence and
        raises NumericalError; one sweep pivots the pair, which rejects the
        indefinite V in the pivot and the kappa-half V by the vacuum rule."""
        monkeypatch.setattr(solver, "_MAX_SWEEPS", budget)
        error = NumericalError if budget == 0 else InvalidCovarianceError
        with pytest.raises(error) as info:
            gm.jacobi_decompose(V)
        assert isinstance(info.value.trace, solver.JacobiTrace)
        assert info.value.trace.converged == (error is InvalidCovarianceError and V[1, 3] > 0.0)

    @pytest.mark.parametrize(
        "V",
        [np.diag([0.5, 0.5, 2.0, 2.0]), form_matrix(1.0, 1.0, 0.5, 0.5)],
        ids=["uncoupled", "coupled"],
    )
    def test_converged_unphysical_names_kappa_min(self, V):
        with pytest.raises(InvalidCovarianceError, match="kappa_min = 0.5") as info:
            gm.jacobi_decompose(V)
        assert info.value.trace.converged

    @pytest.mark.parametrize("e", range(3, 9))
    def test_vacuum_rule_reads_the_returned_kappa(self, e):
        """Two-mode squeezed states with locals 10^e (true kappa 1 + O(10^-6)
        at e = 6): whichever verdict the rounding gives, a returned kappa
        obeys the vacuum rule, and a rejection carries the trace."""
        _, V, _ = gm.synthesize((1.0, 1.0), (10.0**e, 10.0**e))
        try:
            _, kappa, _ = gm.jacobi_decompose(V)
        except InvalidCovarianceError as err:
            assert isinstance(err.trace, solver.JacobiTrace)
        else:
            assert kappa[0] >= 1.0 - COUPLING_TOL

    @pytest.mark.parametrize("n", [32, 48])
    def test_rejects_compounded_squeezing(self, n):
        # see test_spectra's TestEdgeStates: kappa_min < 1 at n = 32, not
        # positive definite at n = 48, whose profit overflows a double
        with pytest.raises(InvalidCovarianceError) as info:
            gm.jacobi_decompose(gm.random_state(n, seed=3)[0])
        assert isinstance(info.value.trace, solver.JacobiTrace)

    def test_pivots_call_no_linear_algebra_routine(self, monkeypatch):
        calls = count_linalg_calls(monkeypatch)
        n = 6
        _, _, trace = gm.jacobi_decompose(gm.random_state(n, seed=17)[0])
        # no spectral pre-check: the local normal form and every pivot are
        # closed-form, and the vacuum rule reads the returned kappa
        assert len(trace.steps) > 10 * n
        assert calls == []

    def test_sweep_budget_raises(self, monkeypatch):
        V, _, _ = gm.random_state(6, seed=17)
        _, _, full = gm.jacobi_decompose(V)
        assert full.sweeps > 2  # the budgeted run below genuinely truncates
        monkeypatch.setattr(solver, "_MAX_SWEEPS", 1)
        with pytest.raises(
            NumericalError,
            match=r"budget 1 exhausted: pair \(\d, \d\) has off-block .* times its bound 1e-12 sqrt\(m_\d m_\d\)$",
        ) as info:
            gm.jacobi_decompose(V)
        trace = info.value.trace
        assert not trace.converged
        assert trace.sweeps == 1
        assert len(trace.steps) > 0


@pytest.mark.parametrize("n", range(1, 18))
def test_round_robin_schedule(n):
    """A sweep is n - 1 rounds for even n and n for odd n, each of disjoint
    pairs j < k, together visiting every pair once; the first is (1, 2),
    (3, 4), ..."""
    rounds = solver._round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    for pairs in rounds:
        modes = [t for pair in pairs for t in pair]
        assert len(set(modes)) == len(modes) == 2 * (n // 2)
        assert all(1 <= j < k <= n for j, k in pairs)
    visited = sorted(pair for pairs in rounds for pair in pairs)
    assert visited == [(j, k) for j in range(1, n) for k in range(j + 1, n + 1)]
    assert rounds[0] == [(j, j + 1) for j in range(1, n, 2)]


def off_max(W, j, k):
    """The max-norm of W's off-block of modes j and k (from 1)."""
    return float(abs(W[mode_slice(j), mode_slice(k)]).max())


def local_factor(W, i):
    """sqrt(det) of W's 2x2 block of mode i (from 1): its profit factor."""
    B = W[mode_slice(i), mode_slice(i)]
    return float(np.sqrt(max(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0], 0.0)))


def skip_bound(factors, j, k):
    """The skip rule's bound for modes j and k (from 1) with profit factors ``factors``."""
    return _JACOBI_EPS * math.sqrt(factors[j - 1]) * math.sqrt(factors[k - 1])


def reference_jacobi(V, max_sweeps=solver._MAX_SWEEPS):
    """The round-robin Jacobi loop in its plain form, as the reference for the batched one.

    W and S stay in mode order.  Each round of ``solver._round_robin``
    reads every pair's off-block with its own max-norm, skips a pair by
    the relative rule on its profit factors and gathers the kernel's 4x4
    block by fancy indexing.  A round that pivots then applies its factors
    (the identity for a skipped pair) pair by pair: T to the pair's rows of
    W and of S, then T to the pair's columns of T W, read as rows of its
    transpose, and W becomes the average of that product and its
    transpose.  The profit factors are recomputed from W.  Returns
    (S, kappa, steps, sweeps, converged, initial_profit, W).
    """

    def breaks_rule(W, factors, j, k):
        return off_max(W, j, k) > skip_bound(factors, j, k)

    V = validate_covariance(V)
    if not gm.check_physical(V):
        raise InvalidCovarianceError("matrix is not a physical covariance matrix")
    n = V.shape[0] // 2
    W, locs, m = local_normal_form(V)
    S = np.zeros_like(V)
    for j in range(n):
        S[mode_slice(j + 1), mode_slice(j + 1)] = locs[j]
    steps = []
    initial_profit = float(np.prod(m))
    factors = [local_factor(W, t) for t in range(1, n + 1)]
    sweeps = 0
    pivoted = True
    while pivoted and sweeps < max_sweeps:
        sweeps += 1
        pivoted = False
        for pairs in solver._round_robin(n):
            factors_T, pivots = [], []
            for j, k in pairs:
                ids = np.array([2 * j - 2, 2 * j - 1, 2 * k - 2, 2 * k - 1])
                T4 = np.eye(4)
                if breaks_rule(W, factors, j, k):
                    T4 = two_mode._pivot_factor(W[ids[:, None], ids])
                    pivots.append((j, k, off_max(W, j, k)))
                factors_T.append((ids, T4))
            if not pivots:
                continue
            pivoted = True
            TW = W.copy()
            for ids, T4 in factors_T:
                TW[ids] = T4 @ W[ids]
                S[ids] = T4 @ S[ids]
            Y = TW.T.copy()
            for ids, T4 in factors_T:
                Y[ids] = T4 @ TW[:, ids].T
            half = 0.5 * Y
            W = half + half.T
            for j, k, off in pivots:
                factors[j - 1] = local_factor(W, j)
                factors[k - 1] = local_factor(W, k)
                steps.append(JacobiStep(pair=(j, k), off_norm=off, profit=math.prod(factors)))
    converged = not pivoted or not any(
        breaks_rule(W, factors, j, k) for j in range(1, n) for k in range(j + 1, n + 1)
    )
    kappa = np.sort([0.5 * (W[2 * t, 2 * t] + W[2 * t + 1, 2 * t + 1]) for t in range(n)])
    return S, kappa, steps, sweeps, converged, initial_profit, W


def step_bits(steps):
    """Pivot records with every float as its hex string, so signed zeros count."""
    return [(s.pair, float(s.off_norm).hex(), float(s.profit).hex()) for s in steps]


class TestJacobiAgainstReference:
    """The lean loop returns the reference loop's results bit for bit."""

    def assert_bitwise(self, V):
        S, kappa, trace = gm.jacobi_decompose(V)
        S_ref, kappa_ref, steps, sweeps, converged, initial_profit, _ = reference_jacobi(V)
        assert S.tobytes() == S_ref.tobytes()
        assert kappa.tobytes() == kappa_ref.tobytes()
        assert step_bits(trace.steps) == step_bits(steps)
        assert trace.steps == steps
        assert (trace.sweeps, trace.converged) == (sweeps, converged)
        assert float(trace.initial_profit).hex() == float(initial_profit).hex()
        return trace

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 12, 13, 16])
    def test_bloch_messiah_states(self, n):
        rng = np.random.default_rng(900 + n)
        for _ in range(2):
            trace = self.assert_bitwise(bloch_messiah_state(rng, n)[0])
            assert trace.converged and len(trace.steps) >= n - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_states(self, n):
        for seed in range(3):
            self.assert_bitwise(gm.random_state(n, seed=8100 + 10 * n + seed)[0])

    def test_sweep_budget(self, monkeypatch):
        """A run cut by the sweep budget raises, with the reference's pivots
        at that budget as its trace and no linear-algebra call."""
        V = gm.random_state(6, seed=17)[0]
        for budget in (0, 1, 2):
            _, _, steps, sweeps, converged, initial_profit, _ = reference_jacobi(V, max_sweeps=budget)
            assert not converged
            calls = count_linalg_calls(monkeypatch)
            monkeypatch.setattr(solver, "_MAX_SWEEPS", budget)
            with pytest.raises(NumericalError, match="sweep budget") as info:
                gm.jacobi_decompose(V)
            monkeypatch.undo()
            assert calls == []
            trace = info.value.trace
            assert step_bits(trace.steps) == step_bits(steps)
            assert trace.steps == steps
            assert (trace.sweeps, trace.converged) == (sweeps, False)
            assert float(trace.initial_profit).hex() == float(initial_profit).hex()
            assert len(trace.sweep_off_max) == budget

    @pytest.mark.parametrize("n, seed, budget", [(5, 4, 2), (6, 22, 1)])
    def test_sweep_budget_names_the_worst_pair(self, monkeypatch, n, seed, budget):
        """An exhausted budget names the pair whose off-block is largest
        against its bound over the W that the reference leaves after that
        budget, and that off-block.  On both states another pair has the
        largest off-block, so the ratio, not the off-block, picks the pair."""
        V = gm.random_state(n, seed=seed)[0]
        *_, converged, _, W = reference_jacobi(V, max_sweeps=budget)
        assert not converged
        factors = [local_factor(W, t) for t in range(1, n + 1)]
        pairs = [(j, k) for j in range(1, n) for k in range(j + 1, n + 1)]
        ratios = sorted((off_max(W, j, k) / skip_bound(factors, j, k), j, k) for j, k in pairs)
        (second, _, _), (ratio, j, k) = ratios[-2:]
        assert second < 0.9 * ratio  # one pair leads by more than any rounding
        assert max(pairs, key=lambda pair: off_max(W, *pair)) != (j, k)
        monkeypatch.setattr(solver, "_MAX_SWEEPS", budget)
        with pytest.raises(NumericalError) as info:
            gm.jacobi_decompose(V)
        assert str(info.value).startswith(
            f"sweep budget {budget} exhausted: pair ({j}, {k}) has off-block {off_max(W, j, k):.3e}, "
        )


def test_jacobi_validates_once(monkeypatch):
    """Once per jacobi_decompose, inside ``local_normal_form``; never in a spectral pre-check.

    The package validates through ``symplectic._symmetrized``, so every module
    that binds that name counts its calls.
    """
    calls = []
    real = symplectic._symmetrized

    def counted(V, *args, **kwargs):
        calls.append(1)
        return real(V, *args, **kwargs)

    for module in (spectra, symplectic, two_mode):
        monkeypatch.setattr(module, "_symmetrized", counted)
    V = gm.random_state(3, seed=1)[0]
    gm.local_normal_form(V)
    assert len(calls) == 1
    calls.clear()
    gm.jacobi_decompose(V)
    assert len(calls) == 1


def test_jacobi_runs_no_spectral_kernel(monkeypatch):
    """No Cholesky factorization or spectral ``eigh`` runs: the vacuum rule reads the kappa it returns."""

    def forbidden(V):
        raise AssertionError("jacobi_decompose ran the spectral kernel")

    monkeypatch.setattr(spectra, "_chol_form", forbidden)
    gm.jacobi_decompose(gm.random_state(3, seed=1)[0])


class TestJacobiTrace:
    def test_sweep_off_max(self, monkeypatch):
        for seed in range(4):
            V = gm.random_state(5, seed=300 + seed)[0]
            _, _, trace = gm.jacobi_decompose(V)
            assert trace.converged
            assert len(trace.sweep_off_max) == trace.sweeps
            assert trace.sweep_off_max[-1] <= DEFAULT_TOL
            assert max(s.off_norm for s in trace.steps) <= max(trace.sweep_off_max)
            # the first sweep reads every pair before any pivot of its row
            assert trace.sweep_off_max[0] >= trace.steps[0].off_norm
        monkeypatch.setattr(solver, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError) as info:
            gm.jacobi_decompose(V)
        budget = info.value.trace
        assert len(budget.sweep_off_max) == 1 and budget.sweep_off_max[0] > DEFAULT_TOL

    def test_positional_constructor(self):
        trace = gm.JacobiTrace([], 0, True, 1.0)
        assert trace.sweep_off_max == []

    @pytest.mark.parametrize("point", ["first", "second", "middle", "last"])
    def test_pivot_error_carries_partial_trace(self, monkeypatch, point):
        V = gm.random_state(4, seed=11)[0]
        _, _, full = gm.jacobi_decompose(V)
        count = len(full.steps)
        assert count >= 3
        fail_at = {"first": 1, "second": 2, "middle": (count + 1) // 2, "last": count}[point]
        real = solver._pivot_factor
        calls = []

        def failing_pivot_factor(M4):
            calls.append(1)
            if len(calls) == fail_at:
                raise gm.NumericalError("injected pivot failure")
            return real(M4)

        monkeypatch.setattr(solver, "_pivot_factor", failing_pivot_factor)
        with pytest.raises(gm.NumericalError, match="injected") as info:
            gm.jacobi_decompose(V)
        trace = info.value.trace
        assert step_bits(trace.steps) == step_bits(full.steps[: fail_at - 1])
        assert not trace.converged
        assert trace.initial_profit == full.initial_profit
        assert len(trace.sweep_off_max) == trace.sweeps >= 1
        # completed sweeps read the same norms as the full run
        assert trace.sweep_off_max[:-1] == full.sweep_off_max[: trace.sweeps - 1]


def test_scalar_gate_matches_dense_residuals(monkeypatch):
    """The kernel's gate residuals equal the dense (S*d) @ S.T - M4 and S @ T - I ones."""
    gates, roots, svds = [], [], []
    real_roots, real_svd2 = two_mode._spd_roots, two_mode._svd2

    def recording_roots(*args):
        roots.append(real_roots(*args))
        return roots[-1]

    def recording_svd2(*args):
        svds.append(real_svd2(*args))
        return svds[-1]

    monkeypatch.setattr(two_mode, "_factor_gate", lambda *args: gates.append(args))
    monkeypatch.setattr(two_mode, "_spd_roots", recording_roots)
    monkeypatch.setattr(two_mode, "_svd2", recording_svd2)
    rng = np.random.default_rng(2025)
    worst_fact = 0.0
    for _ in range(200):
        A = rng.normal(size=(4, 4))
        M4 = A @ A.T + 0.5 * np.eye(4)
        M4 = 0.5 * (M4 + M4.T)
        gates.clear(), roots.clear(), svds.clear()
        T = two_mode._pivot_factor(M4)
        # the kernel's kappa: roots of A, B, X, P, then the SVDs of C and K
        big = svds[1][2]
        small = roots[2][2] * roots[3][2] / big
        S = symplectic_inverse(T)
        dense_fact = np.abs((S * [small, small, big, big]) @ S.T - M4).max()
        dense_symp = np.abs(S @ T - np.eye(4)).max()
        ((res_fact, res_symp, scale),) = gates
        assert scale == 1.0 + M4.diagonal().max()
        assert abs(res_fact - dense_fact) <= 1e-14 * scale
        assert abs(res_symp - dense_symp) <= 1e-14 * scale
        worst_fact = max(worst_fact, res_fact)
    assert worst_fact > 0.0  # the residuals are live, not identically zero


class TestSynthesizeSevenModes:
    def test_exact_chain(self):
        S, V, trace = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        assert len(trace.steps) == 6
        for step, expect in zip(trace.steps, SEVEN_CHAIN):
            assert np.abs(np.array(step.diag_after) - expect).max() < 1e-9
        assert [s.pair for s in trace.steps] == SEVEN_PAIRS
        assert [s.kind for s in trace.steps] == SEVEN_KINDS
        assert [s.stage for s in trace.steps] == SEVEN_STAGES
        assert trace.stage_counts == (2, 1, 1, 2)
        assert trace.stage1_finalized == 2
        assert abs(trace.sum_gap_initial - 18.0) < 1e-12

    def test_seven_mode_output_verifies(self):
        S, V, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        report = gm.verify(S, SEVEN_KAPPA, SEVEN_M)
        assert report.ok
        assert report.symplectic_residual < 1e-10
        assert report.diagonal_residual < 1e-10
        assert report.spectrum_residual < 1e-10
        assert np.allclose(np.diag(V)[::2], SEVEN_M, atol=1e-9, rtol=0)

    def test_diag_after_is_a_list_of_python_floats(self, monkeypatch):
        """Each step's diag_after equals [float(x) for x in d] of a replica of d
        kept from the pair blocks that ``_apply_pair`` returns."""
        real_apply, replica, expected = solver._apply_pair, np.array(SEVEN_KAPPA), []

        def recording_apply(WS, T4, ids, rows):
            P = real_apply(WS, T4, ids, rows)
            replica[ids[0] // 2] = 0.5 * (P[0, 0] + P[1, 1])
            replica[ids[2] // 2] = 0.5 * (P[2, 2] + P[3, 3])
            expected.append([float(x) for x in replica])
            return P

        monkeypatch.setattr(solver, "_apply_pair", recording_apply)
        _, _, trace = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        assert [step.diag_after for step in trace.steps] == expected
        assert all(type(x) is float for step in trace.steps for x in step.diag_after)

    def test_transfer_is_the_gap_before_the_step(self):
        """transfer is m_i - d_i bit for bit, with d the previous step's
        diag_after, or kappa before the first step."""
        cases = [(SEVEN_KAPPA, SEVEN_M)]
        for trial in range(30):
            V0, _, _ = gm.random_state(2 + trial % 8, seed=5200 + trial)
            cases.append((gm.symplectic_spectrum(V0), np.sort(local_params(V0))))
        kinds = set()
        for kappa, m in cases:
            _, _, trace = gm.synthesize(kappa, m)
            before = [float(x) for x in kappa]
            for step in trace.steps:
                i = step.pair[0]
                assert type(step.transfer) is float
                assert step.transfer == float(m[i - 1]) - before[i - 1]
                before = step.diag_after
                kinds.add(step.kind)
        assert kinds == {"BS", "SQ", "GEN"}

    def test_output_does_not_depend_on_eigenvector_phases(self, monkeypatch):
        """The stage-3 factor is closed-form, so S and V are fixed by (kappa, m)."""
        S0, V0, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        W = gm.random_state(3, seed=5)[0]
        S_will = gm.williamson(W).S
        real_eigh = np.linalg.eigh

        def regauged_eigh(a, *args, **kwargs):
            w, U = real_eigh(a, *args, **kwargs)
            if np.iscomplexobj(U):
                return w, U * np.exp(1j * np.arange(1, U.shape[-1] + 1))  # one phase per column
            return w, -U  # every column's sign

        monkeypatch.setattr(np.linalg, "eigh", regauged_eigh)
        # the patch is live: williamson's basis comes from a real eigh, and its
        # factor moves with the eigenvector signs
        assert np.abs(gm.williamson(W).S - S_will).max() > 1e-3
        S1, V1, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        assert np.array_equal(S1, S0)
        assert np.array_equal(V1, V0)


class TestSynthesizeGeneral:
    def test_equal_spectra_no_steps(self):
        kappa = (1.0, 2.0, 5.5)
        S, V, trace = gm.synthesize(kappa, kappa)
        assert trace.steps == []
        assert trace.stage_counts == (0, 0, 0, 0)
        assert np.allclose(S, np.eye(6), atol=0, rtol=0)
        assert np.allclose(V, np.diag(np.repeat(kappa, 2)), atol=0, rtol=0)

    def test_two_mode_single_transfer(self):
        S, V, trace = gm.synthesize((1.0, 3.0), (2.0, 2.0))
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.kind == "BS"
        assert step.pair == (1, 2)
        assert abs(step.param - np.pi / 4) < 1e-12
        assert step.stage == 4  # with two modes the only partner is the last
        assert np.abs(np.array(step.diag_after) - [2.0, 2.0]).max() < 1e-12
        assert np.abs(V - form_matrix(2.0, 2.0, 1.0, 1.0)).max() < 1e-10

    def test_zero_gap_goes_straight_to_transfers(self):
        # equal sums: no squeezing allowed anywhere in the schedule
        _, _, trace = gm.synthesize((1.0, 4.0), (2.0, 3.0))
        assert trace.stage_counts[1] == 0 and trace.stage_counts[2] == 0
        assert abs(trace.sum_gap_initial) < 1e-12
        for step in trace.steps:
            assert step.kind == "BS"

    def test_trace_invariants_on_random_instances(self):
        for trial in range(25):
            n = 2 + trial % 6
            V0, _, _ = gm.random_state(n, seed=2500 + trial)
            kappa = gm.symplectic_spectrum(V0)
            m = np.sort(local_params(V0))
            S, V, trace = gm.synthesize(kappa, m)

            assert len(trace.steps) <= n - 1
            report = gm.verify(S, kappa, m)
            assert report.ok

            # dominance chain: every diagonal dominates its successor; the
            # certificate sits exactly on the boundary after sum-preserving
            # steps, so allow round-off on the slack signs
            chain = [list(kappa)] + [s.diag_after for s in trace.steps]
            for earlier, later in zip(chain, chain[1:]):
                cert = gm.dominates(earlier, later)
                slack = -1e-9 * (1.0 + sum(earlier))
                assert min(cert.partial_sum_slacks) >= slack
                assert cert.tail_slack >= slack

            stage_seen = [s.stage for s in trace.steps]
            assert stage_seen == sorted(stage_seen)
            assert sum(trace.stage_counts) == len(trace.steps)
            assert trace.stage_counts[2] <= 1  # at most one general step

            for step, before in zip(trace.steps, chain):
                after = step.diag_after
                if step.stage in (1, 4):
                    # sum-preserving transfer
                    assert abs(sum(after) - sum(before)) < 1e-9 * (1 + sum(before))
                if step.stage == 2:
                    i, j = step.pair
                    gap_b = before[i - 1] - before[j - 1]
                    gap_a = after[i - 1] - after[j - 1]
                    assert abs(gap_a - gap_b) < 1e-9 * (1 + abs(gap_b))
                # the last mode never participates before stage 2
                if step.stage == 1:
                    assert n not in step.pair

    def test_general_step_hits_its_targets(self):
        """On test_03's 200 inputs every GEN step lands on its target pair.

        ``pair_factor`` builds its factor from the requested spectra, so the
        step's diagonal misses (m_i, t_n) by round-off only; a factor of the
        rounded standard-form matrix missed by up to 1.6e-12 relative.
        """
        worst, general = 0.0, 0
        for trial in range(200):
            n = 2 + trial % 9
            V0, _, _ = gm.random_state(n, seed=4000 + trial)
            _, _, trace = gm.synthesize(gm.symplectic_spectrum(V0), np.sort(local_params(V0)))
            for step in trace.steps:
                if step.kind == "GEN":
                    general += 1
                    got = (step.diag_after[i - 1] for i in step.pair)
                    worst = max(worst, *(abs(x - t) / t for x, t in zip(got, step.param)))
        assert general > 100
        assert worst <= 1e-13

    def test_round_trip_spectrum_and_blocks(self):
        for trial in range(10):
            n = 2 + trial % 5
            V0, _, _ = gm.random_state(n, seed=3100 + trial)
            kappa = gm.symplectic_spectrum(V0)
            m = np.sort(local_params(V0))
            _, V, _ = gm.synthesize(kappa, m)
            assert np.allclose(local_params(V), m, atol=1e-8 * (1 + m[-1]), rtol=0)
            assert block_isotropy_max(V) < 1e-8 * (1 + m[-1])
            assert np.allclose(
                gm.symplectic_spectrum(V), kappa, atol=1e-8 * (1 + kappa[-1]), rtol=0
            )

    def test_large_compatible_pair(self):
        # m = kappa + delta with sorted delta >= 0 passes every partial sum,
        # and the tail condition because sum(delta[:-1]) >= delta[-1]
        n = 256
        rng = np.random.default_rng(256)
        kappa = np.sort(rng.uniform(1.0, 5.0, n))
        m = kappa + np.sort(rng.uniform(0.1, 0.5, n))
        S, V, trace = gm.synthesize(kappa, m)
        assert len(trace.steps) <= n - 1
        assert gm.verify(S, kappa, m).ok
        assert rel_diff(V, S @ np.diag(np.repeat(kappa, 2)) @ S.T) < 1e-12

    def test_correlated_pair_raises_with_partial_trace(self, monkeypatch):
        # correlate modes 2 and 6 behind the schedule's back after the first
        # step, so the second step, on (2, 6), finds its pair correlated
        def leaky_apply_pair(WS, T4, ids, rows):
            block = _apply_pair(WS, T4, ids, rows)
            WS[2, 10] += 1e-3  # W's entries: its rows lead the stacked [W; S]
            WS[10, 2] += 1e-3
            return block

        monkeypatch.setattr(gm.solver, "_apply_pair", leaky_apply_pair)
        with pytest.raises(gm.NumericalError, match=r"pair \(2, 6\)") as info:
            gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        trace = info.value.trace
        assert [s.pair for s in trace.steps] == SEVEN_PAIRS[:1]
        assert trace.stage_counts == (1, 0, 0, 0)

    def test_step_error_carries_partial_trace(self, monkeypatch):
        # the README instance's stage-3 step is the only pair_factor call
        _, _, full = gm.synthesize(SEVEN_KAPPA, SEVEN_M)

        def failing_pair_factor(*args):
            raise gm.NumericalError("injected pair_factor failure")

        monkeypatch.setattr(gm.solver, "pair_factor", failing_pair_factor)
        with pytest.raises(gm.NumericalError, match="injected") as info:
            gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        trace = info.value.trace
        assert trace.steps == full.steps[:3]
        assert [s.stage for s in trace.steps] == SEVEN_STAGES[:3]
        assert trace.stage_counts == (2, 1, 0, 0)
        assert trace.stage1_finalized == full.stage1_finalized
        assert trace.sum_gap_initial == full.sum_gap_initial

    def test_parameter_and_final_check_errors_carry_partial_trace(self, monkeypatch):
        _, _, full = gm.synthesize(SEVEN_KAPPA, SEVEN_M)

        def failing(*args):
            raise gm.InfeasibleRedistributionError("injected")

        # bs_param's first call is the first stage-1 step, sq_param's the stage-2 step
        for name, done in (("bs_param", 0), ("sq_param", 2)):
            with monkeypatch.context() as mp:
                mp.setattr(gm.solver, name, failing)
                with pytest.raises(gm.InfeasibleRedistributionError) as info:
                    gm.synthesize(SEVEN_KAPPA, SEVEN_M)
            assert info.value.trace.steps == full.steps[:done]
        # a last transfer that misses its target trips the final diagonal check
        real_bs_param = gm.solver.bs_param
        calls = []

        def short_bs_param(a, b, target):
            calls.append(1)
            return real_bs_param(a, b, target) * (0.5 if len(calls) == 4 else 1.0)

        monkeypatch.setattr(gm.solver, "bs_param", short_bs_param)
        with pytest.raises(gm.NumericalError, match="schedule finished") as info:
            gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        trace = info.value.trace
        assert len(trace.steps) == len(full.steps) and trace.stage_counts == full.stage_counts

    def test_tail_deficit_is_incompatible(self):
        # the tail slack -5e-10 passes the dominance allowance but not the
        # schedule's: stages 1-2 keep d_n - sum_{j<n} d_j, so a gap is left
        # over with no mode to absorb it
        with pytest.raises(IncompatibleSpectraError, match="sum gap 5.000e-10") as info:
            gm.synthesize((1.0, 1.0), (1.0, 1.0 + 5e-10))
        trace = info.value.trace
        assert trace.steps == [] and trace.stage1_finalized == 1

    def test_single_mode(self):
        S, V, trace = gm.synthesize((2.0,), (2.0,))
        assert trace.steps == [] and np.allclose(V, 2.0 * np.eye(2), atol=0)
        with pytest.raises(IncompatibleSpectraError):
            gm.synthesize((2.0,), (3.0,))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            gm.synthesize((3.0, 1.0), (2.0, 2.0))
        with pytest.raises(ValueError, match="sorted"):
            gm.synthesize((1.0, 3.0), (2.5, 1.5))
        with pytest.raises(ValueError):
            gm.synthesize((1.0, 3.0), (2.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            gm.synthesize((1.0, -3.0), (2.0, 2.0))
        with pytest.raises(UnphysicalSpectrumError):
            gm.synthesize((0.5, 2.0), (1.0, 1.5))
        with pytest.raises(IncompatibleSpectraError):
            gm.synthesize((1.0, 1.0), (1.0, 3.0))

    def test_rejects_non_finite(self):
        # an infinite m makes the dominance allowance infinite too, so it
        # must be stopped before the certificate is read
        for kappa, m in (((1.0, 2.0), (2.0, np.inf)), ((1.0, np.nan), (2.0, 3.0)), ((1.0, np.inf), (2.0, 3.0))):
            with pytest.raises(ValueError, match="finite"):
                gm.synthesize(kappa, m)


GRID = 1.0 / 64.0


@st.composite
def dominated_spectra(draw):
    """(kappa, m, face, k) with m dominated by kappa, on a dyadic grid.

    m starts at kappa, where every slack is zero, and takes two kinds of
    step that keep it dominated: a transfer between two entries (which
    keeps the sum and never raises the maximum) and a raise of two entries
    by the same amount (which keeps the tail slack when one of them is the
    largest entry).  Every value stays on the 1/64 grid, so the slacks are
    exact.  Faces: "tied" draws kappa from {1, 2, 4}; "prefix" leaves the k
    smallest entries alone, so the first k partial-sum slacks stay zero;
    "tail" never lowers the largest entry and raises it with every raise,
    so the tail slack stays zero.
    """
    n = draw(st.integers(2, 40))
    face = draw(st.sampled_from(["interior", "tied", "prefix", "tail"]))
    units = st.sampled_from((64, 128, 256)) if face == "tied" else st.integers(64, 320)
    kappa = np.sort(draw(st.lists(units, min_size=n, max_size=n))) * GRID
    k = draw(st.integers(1, n - 1)) if face == "prefix" else 0
    index = st.integers(k, n - 1)
    ops = draw(st.lists(st.tuples(st.booleans(), index, index, st.integers(1, 3)), max_size=2 * n))
    return kappa, dominated_m(kappa, face, ops), face, k


def dominated_m(kappa, face, ops):
    """m = kappa moved by the grid steps ``ops`` of ``dominated_spectra``, sorted."""
    m = kappa.copy()
    for transfer, i, j, w in ops:
        if i == j:
            continue
        if transfer:
            if face == "tail" and max(m[i], m[j]) >= m.max():
                continue
            shift = round(0.25 * w * (m[j] - m[i]) / GRID) * GRID
            m[i] += shift
            m[j] -= shift
        else:
            if face == "tail" and max(m[i], m[j]) < m.max():
                j = int(np.argmax(m))
            m[i] += 16 * w * GRID
            m[j] += 16 * w * GRID
    return np.sort(m)


def polytope_draw(seed, n, face):
    """(kappa, m): one ``dominated_spectra`` draw of n modes on ``face``, seeded."""
    rng = np.random.default_rng(seed)
    units = (64, 128, 256) if face == "tied" else np.arange(64, 321)
    kappa = np.sort(rng.choice(units, n)) * GRID
    k = int(rng.integers(1, n)) if face == "prefix" else 0
    ops = [(rng.random() < 0.5, *rng.integers(k, n, 2).tolist(), int(rng.integers(1, 4))) for _ in range(2 * n)]
    return kappa, dominated_m(kappa, face, ops)


class TestSynthesizeProperties:
    """The schedule on the dominance polytope and its boundary faces."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(dominated_spectra())
    def test_succeeds_within_n_minus_one_steps(self, case):
        kappa, m, face, k = case
        n = kappa.size
        cert = gm.dominates(kappa, m)
        assert cert.compatible
        if face == "tied" and n > 3:
            assert np.any(np.diff(kappa) == 0.0)
        if face == "prefix":
            assert np.all(cert.partial_sum_slacks[:k] == 0.0)
        if face == "tail":
            assert cert.tail_slack == 0.0
        S, _, trace = gm.synthesize(kappa, m)
        assert len(trace.steps) <= n - 1
        assert gm.verify(S, kappa, m).ok


# the README pair and one n = 32 draw per face, all on a dyadic grid
SCALE_CASES = {
    "readme": (np.array(SEVEN_KAPPA), np.array(SEVEN_M)),
    **{face: polytope_draw(32, 32, face) for face in ("interior", "tied", "prefix", "tail")},
}


@pytest.mark.parametrize("case", SCALE_CASES)
def test_synthesis_is_scale_equivariant(case):
    """(kappa, m) -> (4^e kappa, 4^e m) scales V by 4^e and leaves S bitwise alone.

    Both 4^e and its square root are powers of two, so every scaled value is
    exact, and ``verify`` judges the scaled result as it does the unscaled one.
    """
    kappa, m = SCALE_CASES[case]
    assert gm.dominates(kappa, m).compatible
    S0, _, trace = gm.synthesize(kappa, m)
    assert len(trace.steps) > 0
    for e in (0, 10, 20, 40, 60, 130, 200, 250, 300, 500):
        c = 4.0**e
        S, _, _ = gm.synthesize(c * kappa, c * m)
        assert np.array_equal(S, S0), e
        assert gm.verify(S, c * kappa, c * m).ok, e


def test_synthesis_is_scale_equivariant_at_every_e():
    """(1, 1.5) at n = 16 times 4^e for every e from 0 to 510: S bitwise,
    V times 4^e, and an ok ``verify``.  From e = 510 on, sum(m) passes the
    largest double; the schedule's sums and ``verify``'s rounding term run
    on the entries times a power of two."""
    kappa, m = np.ones(16), np.full(16, 1.5)
    S0, V0, _ = gm.synthesize(kappa, m)
    for e in range(511):
        c = 4.0**e
        S, V, _ = gm.synthesize(c * kappa, c * m)
        assert np.array_equal(S, S0) and np.array_equal(V, c * V0), e
        assert gm.verify(S, c * kappa, c * m).ok, e


@pytest.mark.parametrize("e", [0, 40, 130, 250, 500])
def test_jacobi_is_scale_equivariant(e):
    """V -> 4^e V scales kappa by 4^e and leaves S bitwise alone, with no argument.

    Every 2x2 determinant comes from ``_spd_roots``, which rescales it by a
    power of four when it leaves the double range, the pivot's dx dp / big
    takes big's power of two out first, and the skip bound
    eps sqrt(m_j) sqrt(m_k) scales by 4^e exactly, so the run pivots the
    same pairs at every scale.  The profit, a product of n local
    parameters, may overflow to inf, but no trace field is NaN.
    """
    V, _ = bloch_messiah_state(np.random.default_rng(6), 6)
    S0, kappa0, trace0 = gm.jacobi_decompose(V)
    c = 4.0**e
    S, kappa, trace = gm.jacobi_decompose(c * V)
    assert trace.converged and len(trace.steps) == len(trace0.steps) > 0
    assert np.array_equal(S, S0)
    assert np.array_equal(kappa, c * kappa0)
    assert [s.pair for s in trace.steps] == [s.pair for s in trace0.steps]
    fields = [trace.initial_profit, *trace.sweep_off_max]
    fields += [v for s in trace.steps for v in (s.off_norm, s.profit)]
    assert not np.isnan(fields).any()


def test_jacobi_is_scale_equivariant_at_every_e():
    """Every e from 1 to 500, on test_jacobi_is_scale_equivariant's state."""
    V, _ = bloch_messiah_state(np.random.default_rng(6), 6)
    S0, kappa0, _ = gm.jacobi_decompose(V)
    for e in range(1, 501):
        c = 4.0**e
        S, kappa, _ = gm.jacobi_decompose(c * V)
        assert np.array_equal(S, S0) and np.array_equal(kappa, c * kappa0), e


class TestJacobiFarFromUnitScale:
    """An n = 8 state scaled far from unit size.  Under an absolute skip
    threshold of 1e-10, the x1e40 and x2^400 runs read off-blocks far above
    it in every sweep and ran out of sweeps, and at x1e-40 no pivot ran, so
    the error named the locals' kappa_min, 1.66e-40, for the true 1.29e-40."""

    V, _ = bloch_messiah_state(np.random.default_rng(1), 8)

    @pytest.mark.parametrize("c", [1e40, 2.0**400], ids=["1e40", "2^400"])
    def test_converges_above(self, c):
        _, kappa0, trace0 = gm.jacobi_decompose(self.V)
        _, kappa, trace = gm.jacobi_decompose(c * self.V)
        assert trace.converged and trace.sweeps == trace0.sweeps
        assert np.allclose(kappa / c, kappa0, rtol=1e-14, atol=0)

    def test_names_the_true_kappa_min_below(self):
        _, kappa0, _ = gm.jacobi_decompose(self.V)
        with pytest.raises(InvalidCovarianceError, match="kappa_min = ") as info:
            gm.jacobi_decompose(1e-40 * self.V)
        named = float(str(info.value).split("kappa_min = ")[1].split()[0])
        assert abs(named - 1e-40 * kappa0[0]) <= 1e-12 * 1e-40 * kappa0[0]
        assert len(info.value.trace.steps) > 0


class TestJacobiProperties:
    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_kappa_and_locals_pass_the_dominance_allowance(self, n, seed):
        V, _ = bloch_messiah_state(np.random.default_rng(seed), n)
        _, kappa, trace = gm.jacobi_decompose(V)
        assert trace.converged
        worst, ok = _within_slack(gm.dominates(kappa, gm.local_parameters(V)))
        assert ok, worst


def block_stats(W, i):
    """(center, anisotropy) of mode i's block: its mean diagonal value and the
    largest deviation of the block from that multiple of the identity."""
    B = W[mode_slice(i), mode_slice(i)]
    c = 0.5 * (B[0, 0] + B[1, 1])
    iso = float(max(abs(B[0, 0] - c), abs(B[1, 1] - c), abs(B[0, 1]), abs(B[1, 0])))
    return float(c), iso


def loop_diagonal_residual(S, kappa, m, dense=False):
    """verify's diagonal residual by the per-mode ``block_stats`` loop.

    Mode j's block is read from the weighted row sums of S that ``verify``
    forms, or with ``dense`` from the dense product S diag(kappa pairs) S^T,
    whose BLAS summation order differs from those row sums.
    """
    d = np.repeat(np.sort(kappa), 2)
    if dense:
        V = (S * d) @ S.T
        V = 0.5 * (V + V.T)
    else:
        q, p = S[0::2], S[1::2]
        V = np.zeros_like(S)
        V[0::2, 0::2] = np.diag((q * q) @ d)
        V[1::2, 1::2] = np.diag((p * p) @ d)
        V[0::2, 1::2] = V[1::2, 0::2] = np.diag((q * p) @ d)
    stats = [block_stats(V, j) for j in range(1, len(kappa) + 1)]
    iso_max = max([0.0] + [iso for _, iso in stats])
    vals = np.sort([c for c, _ in stats])
    return max(iso_max, float(np.max(np.abs(vals - np.sort(m)))))


class TestVerify:
    def test_accepts_synthesized_output(self):
        S, _, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        assert gm.verify(S, SEVEN_KAPPA, SEVEN_M).ok

    def test_flags_wrong_diagonal(self):
        report = gm.verify(np.eye(4), (1.0, 3.0), (2.0, 2.0))
        assert not report.ok
        assert report.symplectic_residual < 1e-15
        assert report.diagonal_residual > 0.9

    def test_reports_symplectic_damage(self):
        S, _, _ = gm.synthesize((1.0, 3.0), (2.0, 2.0))
        S = S.copy()
        S[0, 1] += 1e-3
        report = gm.verify(S, (1.0, 3.0), (2.0, 2.0))
        assert not report.ok
        assert 1e-4 < report.symplectic_residual < 1e-2

    @staticmethod
    def diagonal_cases():
        """The README pair and an n = 64 draw, each undamaged and damaged."""
        # m = kappa + sorted delta is compatible (see test_large_compatible_pair)
        rng = np.random.default_rng(64)
        kappa = np.sort(rng.uniform(1.0, 5.0, 64))
        m = kappa + np.sort(rng.uniform(0.1, 0.5, 64))
        for kappa, m in ((SEVEN_KAPPA, SEVEN_M), (kappa, m)):
            S, _, _ = gm.synthesize(kappa, m)
            damaged = S.copy()
            damaged[0, 1] += 1e-3  # makes the first block anisotropic
            yield S, kappa, m
            yield damaged, kappa, m

    def test_diagonal_residual_equals_per_mode_loop(self):
        """Bit for bit: the reduction over modes, on verify's own row sums."""
        for T, kappa, m in self.diagonal_cases():
            assert gm.verify(T, kappa, m).diagonal_residual == loop_diagonal_residual(T, kappa, m)

    def test_diagonal_residual_matches_dense_product(self):
        """Against the dense V, within the round-off of two summation orders.

        Each block entry is a weighted sum of 2n terms bounded by the
        block's diagonal, so either order errs by at most about 2n u times
        the largest block value; the residual moves by at most twice that.
        """
        for T, kappa, m in self.diagonal_cases():
            got = gm.verify(T, kappa, m).diagonal_residual
            dense = loop_diagonal_residual(T, kappa, m, dense=True)
            top = float(np.max((T * T) @ np.repeat(kappa, 2)))  # the largest diagonal entry of V
            assert abs(got - dense) <= 4 * T.shape[0] * np.finfo(float).eps * top

    def test_spectrum_residual_is_the_weyl_bound(self):
        """||D^(1/2) (S^T Omega S - Omega) D^(1/2)||_F with a dense Omega, plus
        the rounding bound 2 gamma_(n+2) ||Q||_F ||P||_F of forming it, for Q and
        P the q and p rows of S D^(1/2)."""
        S, _, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        S = S.copy()
        S[2, 5] += 1e-6
        omega = gm.symplectic_form(7)
        r = np.sqrt(np.repeat(SEVEN_KAPPA, 2))
        dense = np.linalg.norm(r[:, None] * (S.T @ omega @ S - omega) * r)
        g = 9 * np.finfo(float).eps / 2
        rounding = 2 * g / (1 - g) * np.linalg.norm(S[0::2] * r) * np.linalg.norm(S[1::2] * r)
        got = gm.verify(S, SEVEN_KAPPA, SEVEN_M).spectrum_residual
        assert abs(got - (dense + rounding)) <= 1e-12 * dense

    @pytest.mark.parametrize(
        "entry, scale",
        [
            pytest.param((0, 0), 1.0, id="entry0"),
            pytest.param("largest", 1.0, id="largest"),
            pytest.param((0, 0), 1e6, id="entry0-x1e6"),
            pytest.param("largest", 1e6, id="largest-x1e6"),
        ],
    )
    def test_one_scaled_entry_fails(self, entry, scale):
        kappa, m = np.multiply(SEVEN_KAPPA, scale), np.multiply(SEVEN_M, scale)
        S, _, _ = gm.synthesize(kappa, m)
        if entry == "largest":
            entry = np.unravel_index(np.argmax(np.abs(S)), S.shape)
        S = S.copy()
        S[entry] *= 1.0 + 1e-7
        report = gm.verify(S, kappa, m)
        assert not report.ok
        assert report.symplectic_residual > gm.VERIFY_TOL
        assert report.spectrum_residual > gm.VERIFY_TOL * (1.0 + max(kappa[-1], m[-1]))

    @pytest.mark.parametrize("exponent", range(2, 9))
    def test_scaled_instance_passes(self, exponent):
        # every residual measured in units of the spectra is judged relative
        # to 1 + max(kappa_n, m_n), so a correct synthesis passes at any scale
        kappa, m = np.multiply(SEVEN_KAPPA, 10.0**exponent), np.multiply(SEVEN_M, 10.0**exponent)
        S, _, _ = gm.synthesize(kappa, m)
        report = gm.verify(S, kappa, m)
        assert report.ok and report.tol == gm.VERIFY_TOL

    def test_calls_no_linear_algebra_routine(self, monkeypatch):
        calls = count_linalg_calls(monkeypatch)  # in synthesize or verify
        S, _, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        assert gm.verify(S, SEVEN_KAPPA, SEVEN_M).ok
        assert calls == []

    def test_singular_or_nan_factor_fails_without_raising(self):
        S, _, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        singular = S.copy()
        singular[3] = 0.0
        with_nan = S.copy()
        with_nan[3, 4] = np.nan
        for T in (singular, with_nan, np.zeros_like(S)):
            assert not gm.verify(T, SEVEN_KAPPA, SEVEN_M).ok

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_factor_fails_without_warning(self, value):
        # pytest turns warnings into errors, so an inf reaching the products
        # would raise here
        S, _, _ = gm.synthesize(SEVEN_KAPPA, SEVEN_M)
        S[0, 1] = value
        report = gm.verify(S, SEVEN_KAPPA, SEVEN_M)
        assert not report.ok
        assert math.isnan(report.symplectic_residual)
        assert math.isnan(report.diagonal_residual)
        assert math.isnan(report.spectrum_residual)

    @pytest.mark.parametrize("kappa", [(0.0, 3.0), (-1.0, 3.0), (np.nan, 3.0), (1.0, np.inf)])
    def test_rejects_nonpositive_or_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="positive finite"):
            gm.verify(np.eye(4), kappa, (2.0, 2.0))
