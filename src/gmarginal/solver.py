"""Constructive solvers: pairwise normal-form iteration and spectrum synthesis.

``jacobi_decompose`` diagonalizes a covariance matrix by sweeps of two-mode
pivots, driving the profit function prod_j sqrt(det B_j) down to the product
of the symplectic eigenvalues.  A sweep visits every pair once, in
round-robin rounds of disjoint pairs, and applies each round's pivots as one
block-diagonal congruence.  ``synthesize`` goes the other way: given
compatible global and local parameters it builds a state realizing them with
at most n - 1 two-mode transformations, scheduled in four stages:

    1. sum-preserving beam-splitter transfers among the first n - 1 modes,
       each finalizing one mode using a donor with enough surplus;
    2. squeezes against the last mode, raising a mode and the last mode
       together while the remaining sum gap allows it;
    3. at most one general two-mode transform absorbing the leftover gap;
    4. beam-splitter transfers between each remaining mode and the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    IncompatibleSpectraError,
    InvalidCovarianceError,
    NumericalError,
    UnphysicalSpectrumError,
)
from .spectra import _above_vacuum, _within_slack, dominates
from .symplectic import (
    _JACOBI_EPS,
    DEFAULT_TOL,
    VERIFY_TOL,
    _block_roots,
    _bs_block,
    _omega_gram,
    _positive_finite,
    _sq_block,
    _sqrt_det,
    _subtract_omega,
    _symplectic_residual,
    local_normal_form,
)
from .two_mode import _pivot_factor, bs_param, pair_factor, sq_param

#: Sweep budget of ``jacobi_decompose``; a run still pivoting after it raises.
#: Read at call time, so a test can lower it.
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class JacobiStep:
    """One pivot: acting pair, off-block max-norm before, profit after."""

    pair: tuple
    off_norm: float
    profit: float


@dataclass(frozen=True)
class JacobiTrace:
    """Pivots in order; sweep_off_max[s] is the largest off-block max-norm
    that the skip tests of sweep s + 1 read.

    A returned trace has ``converged`` True.  The trace that an error
    carries as ``err.trace`` has it True only when the run converged and
    its kappa broke the vacuum rule.
    """

    steps: list
    sweeps: int
    converged: bool
    initial_profit: float
    sweep_off_max: list = field(default_factory=list)


@dataclass(frozen=True)
class SynthesisStep:
    """One scheduled transform and the diagonal values it leaves behind.

    ``transfer`` is m_i - d_i for the step's first mode i, read before the
    step: d is the previous step's ``diag_after``, or kappa before the first
    step.  ``param`` is the beam-splitter angle (BS), the squeezing
    parameter (SQ), or the target pair (m_i, t_n) of a general step (GEN).
    """

    stage: int
    kind: str
    pair: tuple
    param: object
    transfer: float
    diag_after: list


@dataclass(frozen=True)
class SynthesisTrace:
    steps: list
    stage_counts: tuple
    stage1_finalized: int
    sum_gap_initial: float


@dataclass(frozen=True)
class VerifyReport:
    """Residuals of the three synthesis checks and their verdict; ``tol`` is VERIFY_TOL.

    ok when ``symplectic_residual`` <= tol and the two residuals measured in
    units of the spectra, ``diagonal_residual`` and ``spectrum_residual``,
    are each <= tol * (1 + max(kappa_n, m_n)); see ``verify``.
    ``spectrum_residual`` is a certified upper bound on the spectral error,
    not a measurement: by Weyl's inequality for singular values (Horn and
    Johnson, Topics in Matrix Analysis, Thm 3.3.16) each symplectic
    eigenvalue of S diag(kappa pairs) S^T is within
    ||D^(1/2) (S^T Omega S - Omega) D^(1/2)||_F of its kappa, and the
    computed norm is raised by the rounding bound of forming that product;
    see ``verify``.
    """

    symplectic_residual: float
    diagonal_residual: float
    spectrum_residual: float
    tol: float
    ok: bool


def _pair_ids(i, j, n):
    """Rows of modes i and j in the stacked [W; S] of n modes: W's four, then S's."""
    a, b, h = 2 * i - 2, 2 * j - 2, 2 * n
    return np.array((a, a + 1, b, b + 1, a + h, a + h + 1, b + h, b + h + 1))


def _apply_pair(WS, T4, ids, rows):
    """In place, W <- T W T^T and S <- T S for T the 4x4 T4 acting on a pair.

    ``WS`` is the stacked (4n x 2n) [W; S], ``ids`` is ``_pair_ids(i, j, n)``
    of the pair and ``rows`` is ``WS.take(ids, axis=0)``, its eight rows
    before the step.  One product with T moves the four rows of W and of S
    together, one scatter writes them back and one write mirrors W's rows
    into its columns, so the cost is O(n).  The 4x4 pair block is
    symmetrized before it is written, so W stays exactly symmetric.
    Returns that pair block.
    """
    half = WS.shape[1]
    cols = ids[:4]
    new = T4 @ rows.reshape(2, 4, half)
    w = new[0]
    block = 0.5 * (w.take(cols, axis=1) @ T4.T)
    block = block + block.T  # halved first: a sum could overflow
    w[:, cols] = block
    WS[ids] = new.reshape(8, half)
    WS[:half, cols] = w.T
    return block


def _round_robin(n):
    """The rounds of one ``jacobi_decompose`` sweep over n modes: lists of
    disjoint pairs (j, k), j < k, each list ordered by j.

    Brent and Luk's ordering (SIAM J. Sci. Stat. Comput. 6, 1985), moved
    as in Golub and Van Loan's "music chairs": N = n + n % 2 seats in two
    rows, the even modes on top and the odd ones below, each top seat
    paired with the seat below it.  After each round the first top seat
    keeps its mode and the others move one seat round the ring, so the
    N - 1 rounds meet every pair once.  For odd n, seat N holds no mode,
    and the mode paired with it sits the round out.  The first round is
    (1, 2), (3, 4), ...
    """
    N = n + n % 2
    top, bottom = list(range(2, N + 1, 2)), list(range(1, N, 2))
    rounds = []
    for _ in range(N - 1):
        rounds.append(sorted(tuple(sorted(p)) for p in zip(top, bottom) if max(p) <= n))
        top, bottom = top[:1] + bottom[:1] + top[1:-1], bottom[1:] + top[-1:]
    return rounds


_EYE4 = np.eye(4)


def jacobi_decompose(V):
    """Diagonalize a physical covariance matrix by rounds of two-mode pivots.

    Each pivot applies the inverse normal-form factor of the pair's 4x4
    submatrix, which zeroes the off-block and leaves both single-mode blocks
    isotropic.  The factor comes from the closed-form two-mode kernel
    ``two_mode._pivot_factor`` (per-mode local normal form, the SVD
    rotations of the off-block, closed-form 2x2 roots and SVD), so a pivot
    calls no eigensolver.  The profit prod_j sqrt(det B_j) strictly
    decreases at every pivot and is bounded below by sqrt(det V), which
    forces convergence; a run that does not converge within ``_MAX_SWEEPS``
    sweeps has failed numerically and raises.

    A sweep visits every pair (j, k), j < k, once, in the round-robin
    order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6, 1985; see
    ``_round_robin``): n - 1 rounds of n/2 disjoint pairs, or n rounds of
    (n - 1)/2 for odd n, one mode sitting each round out.  The first round
    is (1, 2), (3, 4), ..., and each pair is oriented j < k, so the kernel
    gives mode j the smaller kappa.  W = S V S^T and S are plain arrays in
    mode order for the whole run.  Each round's pairs, their rows
    2j, 2j+1, 2k, 2k+1 and the flat indices of their 4x4 blocks in W are
    computed once per run; one ``take`` of those indices reads the round's
    blocks, the skip test of each pair reads its block there, and the
    kernel runs on each pair the test does not skip, in the round's order.
    Disjoint pairs do not touch each other's blocks, so the round's factors
    T_p (the identity for a skipped pair) are then applied together, as one
    block-diagonal congruence: one batched product T_p on the pairs' rows
    of W, gathered by ``take`` and written back by row index, the same
    product on the rows of a copy of (T W)^T, the average of that and its
    transpose as the new W, and T_p on the pairs' rows of S.  The mode
    sitting out keeps its rows.  Each pivot then reads its two new profit
    factors as ``_sqrt_det`` of its modes' 2x2 blocks at rows 2j and 2k.
    So a round costs O(n^2) on top of the O(1) scalar work per pivot, and
    a sweep O(n^3).  A kernel error mid-round first applies and records the
    round's earlier pivots, then raises.  The rescan after an exhausted
    sweep budget reads every pair's off-block round by round, through the
    same indices.

    The skip rule is relative, the symplectic form of the Demmel-Veselic
    stopping rule (SIMAX 13, 1992): pair (j, k) is not pivoted when its
    off-block max-norm is at most _JACOBI_EPS sqrt(m_j) sqrt(m_k) (1e-12),
    for m_j and m_k the pair's current profit factors.  Two square roots
    keep the bound in range and are exact under 4^e scaling, so 4^e V
    pivots the same pairs and returns the same S and 4^e kappa, with no
    argument to scale; the profit, a product of n local parameters, may
    then overflow to inf.  V must pass the package's symmetry rule, and a
    run validates V once.  No spectrum is computed: the vacuum rule
    kappa_min >= 1 - COUPLING_TOL is judged once, on the sorted kappa
    that the converged sweeps leave, the kappa that is returned.

    Returns:
        (S, kappa, JacobiTrace) with every off-block of S V S^T within the
        skip rule, kappa the sorted diagonal parameters and ``converged``
        True.  The trace lists the pivots round by round, each round in
        its pair order.

    Raises:
        InvalidCovarianceError: V is not a valid covariance matrix, a
            single-mode block or a pivot's 4x4 block is not positive
            definite, or the returned kappa breaks the vacuum rule (a
            singular V leaves kappa_min near 0); that rejection names
            kappa_min.
        NumericalError: an off-block still breaks the skip rule after
            ``_MAX_SWEEPS`` sweeps (the message names the pair whose
            off-block is largest against its bound), or a pivot loses
            accuracy.
        Any exception raised once the sweeps start carries the run as
        ``err.trace``, a JacobiTrace: ``converged`` is True only for a
        vacuum rejection, and a run stopped inside a sweep ends
        ``sweep_off_max`` with that sweep's largest off-block so far.
    """
    W, locs, m = local_normal_form(V)
    n = m.size
    h = n // 2  # pairs per round
    S = np.zeros_like(W)
    S.reshape(n, 2, n, 2)[range(n), :, range(n)] = locs  # as in ``symplectic_form``
    T = np.tile(_EYE4, (h, 1, 1))  # the round's factors, the identity for a skipped pair

    # each round's pairs (from 0), their rows 2j, 2j+1, 2k, 2k+1 and the flat
    # indices of their 4x4 blocks in W.ravel()
    rounds = []
    for pairs in _round_robin(n):
        pairs = [(j - 1, k - 1) for j, k in pairs]
        idx = np.array([2 * t + e for pair in pairs for t in pair for e in (0, 1)], dtype=int)
        rounds.append((pairs, idx, idx.reshape(h, 4, 1) * (2 * n) + idx.reshape(h, 1, 4)))

    def rows(M, idx):
        # each pair's T_p on its four rows of M, in place; the mode sitting out keeps its rows
        M[idx] = (T @ M.take(idx, 0).reshape(h, 4, -1)).reshape(4 * h, -1)
        return M

    def off_blocks(at):
        # the pairs' 4x4 blocks of W and the max-norms of their off-blocks
        blocks = W.take(at)
        return blocks, np.abs(blocks[:, :2, 2:]).max(axis=(1, 2)).tolist()

    steps = []
    sweep_off_max = []
    initial_profit = math.prod(m.tolist())
    factors = [d for _, _, d in _block_roots(W)]

    def bound(j, k):
        # the Demmel-Veselic bound of modes j and k (from 0); two square
        # roots keep it in range
        return _JACOBI_EPS * math.sqrt(factors[j]) * math.sqrt(factors[k])

    def trace():
        return JacobiTrace(steps, sweeps, converged, initial_profit, sweep_off_max)

    sweeps = 0
    converged = False
    pivoted = True
    try:
        while pivoted and sweeps < _MAX_SWEEPS:
            sweeps += 1
            pivoted = False
            worst = 0.0
            sweep_off_max.append(worst)  # kept current, so an error mid-sweep leaves it right
            for pairs, idx, at in rounds:
                pivots = []
                try:
                    blocks, offs = off_blocks(at)
                    for p, (off, (j, k)) in enumerate(zip(offs, pairs)):
                        if off > worst:
                            worst = sweep_off_max[-1] = off
                        if off <= bound(j, k):
                            continue
                        T[p] = _pivot_factor(blocks[p])
                        pivots.append((off, j, k))
                finally:
                    if pivots:
                        # the round's congruence: T_p on the pairs' rows of W, of (T W)^T and of S
                        half = rows(rows(W, idx).T.copy(), idx)
                        half *= 0.5  # halved first: a sum could overflow
                        W, S = half + half.T, rows(S, idx)
                        T[...] = _EYE4
                        d, c = W.diagonal().tolist(), W.diagonal(1).tolist()
                        for off, j, k in pivots:
                            factors[j] = math.ldexp(*_sqrt_det(d[2 * j], c[2 * j], d[2 * j + 1]))
                            factors[k] = math.ldexp(*_sqrt_det(d[2 * k], c[2 * k], d[2 * k + 1]))
                            steps.append(JacobiStep((j + 1, k + 1), off, math.prod(factors)))
                pivoted = pivoted or bool(pivots)
        # a sweep without a pivot has just checked every pair; rescan only
        # when the sweep budget stopped the loop
        if pivoted:
            left = [
                (off / bound(j, k), j + 1, k + 1, off)
                for pairs, _, at in rounds
                for off, (j, k) in zip(off_blocks(at)[1], pairs)
                if off > bound(j, k)
            ]
            if left:
                ratio, j, k, off = max(left)
                raise NumericalError(
                    f"sweep budget {sweeps} exhausted: pair ({j}, {k}) has off-block {off:.3e}, "
                    f"{ratio:.3g} times its bound {_JACOBI_EPS:.0e} sqrt(m_{j} m_{k})"
                )
        converged = True
        d = W.diagonal()
        kappa = np.sort(0.5 * d[0::2] + 0.5 * d[1::2])
        if not _above_vacuum(kappa[0]):
            raise InvalidCovarianceError(
                f"matrix is not a physical covariance matrix: kappa_min = {kappa[0]} is below 1"
            )
    except Exception as err:
        err.trace = trace()
        raise
    return S, kappa, trace()


def synthesize(kappa, m):
    """Build a state with global parameters kappa and local parameters m.

    Args:
        kappa: sorted physical global parameters (kappa[0] >= 1).
        m: sorted local parameters; must be dominated by kappa.

    Returns:
        (S, V, SynthesisTrace) with V = S diag(kappa pairs) S^T, the
        diagonal blocks of V equal to m_j * I in sorted slot order, and at
        most n - 1 recorded two-mode transformations.  Each step records
        its ``transfer`` m_i - d_i, taken before the step; the trace's
        ``stage_counts`` are counted from the recorded steps.

    The schedule decides each step as (stage, kind, i, j, param), and one
    step function applies it.  Each transfer touches only the four rows and
    columns of its pair, so it costs O(n), and the whole schedule of at most
    n - 1 transfers O(n^2).  Its peak memory, S and V included, is at most
    2.5 arrays of 2n x 2n (``tests/test_working_set.py``, n = 128).
    With s = 1 + max(kappa_n, m_n), finalizing a mode and checking a pair's
    structure allow round-off of DEFAULT_TOL * s, and the final check of the
    diagonal against m allows VERIFY_TOL * s, the allowance ``verify``
    applies.  Away from those round-off thresholds, scaling (kappa, m) by
    4^e, which is exact in floating point, leaves S bit for bit unchanged.

    Raises:
        ValueError: ``dominates`` rejects the vectors (shape, or an entry
            that is not a positive finite real), or one is not sorted.
        UnphysicalSpectrumError: kappa[0] < 1.
        IncompatibleSpectraError: the dominance certificate has a negative
            slack beyond tolerance, or the tail slack is below
            -DEFAULT_TOL * s, so a sum gap is left after stage 2 with no
            mode to absorb it.
        NumericalError: the schedule loses accuracy.  This and any other
            exception raised after the inputs are validated carries the
            steps done before it as ``err.trace``, a SynthesisTrace.
    """
    cert = dominates(kappa, m)
    kappa = np.asarray(kappa, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(np.diff(kappa) < 0.0) or np.any(np.diff(m) < 0.0):
        raise ValueError("parameter vectors must be sorted nondecreasing")
    if not _above_vacuum(kappa[0]):
        raise UnphysicalSpectrumError(
            f"smallest global parameter {kappa[0]} is below the vacuum value 1"
        )
    worst, ok = _within_slack(cert)
    if not ok:
        raise IncompatibleSpectraError(
            f"local parameters are not dominated by the global ones (worst slack {worst:.3e})"
        )

    n = int(kappa.size)
    scale = 1.0 + float(max(kappa[-1], m[-1]))
    atol = DEFAULT_TOL * scale
    WS = np.zeros((4 * n, 2 * n))  # the stacked [W; S]
    W, S = WS[: 2 * n], WS[2 * n :]
    np.fill_diagonal(W, np.repeat(kappa, 2))
    np.fill_diagonal(S, 1.0)
    m_sum = np.sum(m)
    sum_gap_initial = float(m_sum - np.sum(kappa))
    # the schedule's bookkeeping runs on Python floats; the sums stay NumPy's
    d, m = kappa.tolist(), m.tolist()
    steps = []
    finalized = 0

    def trace():
        stages = [st.stage for st in steps]
        return SynthesisTrace(
            steps=steps,
            stage_counts=tuple(stages.count(s) for s in (1, 2, 3, 4)),
            stage1_finalized=finalized,
            sum_gap_initial=sum_gap_initial,
        )

    def apply_step(stage, kind, i, j, param):
        ids = _pair_ids(i, j, n)
        rows = WS.take(ids, axis=0)
        block = rows[:4].take(ids[:4], axis=1)
        (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = (
            block.tolist()
        )
        di, dj = 0.5 * (a00 + a11), 0.5 * (b00 + b11)
        iso = max(abs(a00 - di), abs(a11 - di), abs(a01), abs(a10))
        iso = max(iso, abs(b00 - dj), abs(b11 - dj), abs(b01), abs(b10))
        cross = max(abs(c00), abs(c01), abs(c10), abs(c11))
        if iso > atol or cross > atol:
            # the schedule never revisits a pair and BS/SQ keep the touched
            # blocks isotropic, so this only trips on lost accuracy
            raise NumericalError(
                f"pair ({i}, {j}) is correlated or anisotropic before its step "
                f"(cross {cross:.3e}, anisotropy {iso:.3e})"
            )
        transfer = m[i - 1] - d[i - 1]
        if kind == "BS":
            T4 = _bs_block(float(param))
        elif kind == "SQ":
            T4 = _sq_block(float(param))
        else:
            T4 = pair_factor(di, dj, *param)
        p00, p11, p22, p33 = _apply_pair(WS, T4, ids, rows).diagonal().tolist()
        d[i - 1] = 0.5 * (p00 + p11)
        d[j - 1] = 0.5 * (p22 + p33)
        steps.append(
            SynthesisStep(
                stage=stage,
                kind=kind,
                pair=(i, j),
                param=param,
                transfer=transfer,
                diag_after=d.copy(),
            )
        )

    try:
        # Stage 1: finalize low modes by borrowing from a donor among the first
        # n - 1 modes; the least donor index that still covers the target wins.
        # A NaN gap fails every "<= atol" test, so it is never taken as closed.
        i = 1
        while i <= n - 1:
            if not m[i - 1] - d[i - 1] <= atol:
                need = m[i - 1] - atol
                donor = next((j for j in range(i + 1, n) if d[j - 1] >= need), 0)
                if donor == 0:
                    break
                apply_step(1, "BS", i, donor, bs_param(d[i - 1], d[donor - 1], m[i - 1]))
            finalized += 1
            i += 1

        # Stage 2: pair squeezes with the last mode while the remaining sum gap
        # covers twice the mode's deficit.
        delta = float(m_sum - np.sum(d))
        while i <= n - 1 and delta > atol:
            eps = m[i - 1] - d[i - 1]
            if not eps <= atol:
                if delta < 2.0 * eps - atol:
                    break
                apply_step(2, "SQ", i, n, sq_param(d[i - 1], d[n - 1], eps))
                delta = float(m_sum - np.sum(d))
            i += 1

        # Stage 3: one general transform absorbs whatever gap is left.
        if delta > atol:
            if i > n - 1:
                # d_n - sum_{j<n} d_j is kept by stages 1-2, so this is a tail deficit
                raise IncompatibleSpectraError(
                    f"tail slack below tolerance: sum gap {delta:.3e} left with no mode to absorb it"
                )
            t_n = d[n - 1] + delta - (m[i - 1] - d[i - 1])
            apply_step(3, "GEN", i, n, (m[i - 1], t_n))
            i += 1

        # Stage 4: sum-preserving transfers against the last mode.
        for i in range(i, n):
            if not abs(m[i - 1] - d[i - 1]) <= atol:
                apply_step(4, "BS", i, n, bs_param(d[i - 1], d[n - 1], m[i - 1]))

        if float(np.max(np.abs(np.subtract(d, m)))) > VERIFY_TOL * scale:
            raise NumericalError(f"schedule finished with diagonal {d} instead of {m}")
    except Exception as err:
        err.trace = trace()
        raise
    return S, W, trace()


def verify(S, kappa, m) -> VerifyReport:
    """Independent residual check of a synthesis result.

    Checks that S is symplectic, that the diagonal blocks of
    V = S diag(kappa pairs) S^T are isotropic with values matching m as a
    multiset, and that the symplectic spectrum of V is sorted kappa.  The
    symplectic residual max|S Omega S^T - Omega| does not depend on the
    scale of the spectra and is held to VERIFY_TOL; the other two are
    measured in their units and held to VERIFY_TOL * (1 + max(kappa_n, m_n)),
    the allowance of ``synthesize``'s final check.  A singular or non-finite
    S fails the check; it is not an error, and a non-finite S reports NaN
    residuals.  kappa and m must be nonempty, and every entry positive and
    finite.

    V is not formed: mode j's block is read from S's row pair (q_j, p_j) as
    the weighted row sums (q_j * q_j) @ d, (p_j * p_j) @ d and (q_j * p_j) @ d
    for d the diagonal of diag(kappa pairs), O(n^2) in all, so the cost is
    the two half products of the symplectic and spectral residuals.

    The spectrum is not recomputed: ``spectrum_residual`` is a certified
    upper bound on max_j |kappa'_j - kappa_j| for the spectrum kappa' of V.
    With D = diag(kappa pairs), F = S D^(1/2) factors V, and D^(1/2)
    commutes with Omega, so F^T Omega F = Omega D + D^(1/2) E D^(1/2) for
    E = S^T Omega S - Omega; Weyl's inequality for singular values (Horn
    and Johnson, Topics in Matrix Analysis, Thm 3.3.16) then bounds each
    |kappa'_j - kappa_j| by ||D^(1/2) E D^(1/2)||_2 <= ||D^(1/2) E D^(1/2)||_F,
    the value computed.  E is formed in floating point, so the reported
    value adds the a-priori rounding bound of that product: for Q and P the
    q and p rows of S D^(1/2), the computed E errs by at most
    gamma_(n+2) (|Q|^T |P| + |P|^T |Q|) entrywise, gamma_k = k u / (1 - k u)
    for the unit round-off u, so the scaled error has Frobenius norm at most
    2 gamma_(n+2) ||Q||_F ||P||_F, read from the diagonal-block sums at O(n)
    cost.  Where E cancels to about zero (an exact synthesis) this term is
    the whole bound.  The bound scales with kappa, and no factorization
    runs.  The peak memory is at most 2.5 arrays of 2n x 2n
    (``tests/test_working_set.py``, n = 128).
    """
    S = np.asarray(S, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    m = np.asarray(m, dtype=float)
    n = kappa.size
    if kappa.ndim != 1 or m.shape != kappa.shape or S.shape != (2 * n, 2 * n):
        raise ValueError("shape mismatch between S and the parameter vectors")
    if n == 0:
        raise ValueError("expected two equal-length, nonempty vectors")
    kappa, m = np.sort(_positive_finite(kappa)), np.sort(_positive_finite(m))
    if not np.all(np.isfinite(S)):
        return VerifyReport(math.nan, math.nan, math.nan, tol=VERIFY_TOL, ok=False)
    res_symp = _symplectic_residual(S)
    d = np.repeat(kappa, 2)
    q, p = S[0::2], S[1::2]
    d0, d1, off = (q * q) @ d, (p * p) @ d, (q * p) @ d
    vals = 0.5 * (d0 + d1)
    iso_max = float(np.max(np.abs([d0 - vals, d1 - vals, off])))
    res_diag = max(iso_max, float(np.max(np.abs(np.sort(vals) - m))))
    E = _subtract_omega(_omega_gram(S.T))
    r = np.sqrt(d)
    E *= r[:, None]
    E *= r
    # E's rounding bound: sum(d0), sum(d1) are ||Q||_F^2, ||P||_F^2 (see the docstring)
    g = (n + 2) * 2.0**-53
    rounding = 2.0 * g / (1.0 - g) * math.sqrt(d0.sum()) * math.sqrt(d1.sum())
    # ||E||_F: E is scaled by 2^-s into [1/2, 1) first, so its squares stay
    # in range, and the norm by 2^s after, in two exact halves (a norm past
    # the largest double comes out inf)
    s = math.frexp(float(max(E.max(), -E.min())))[1]
    E = np.ldexp(E, -s)
    res_spec = math.sqrt(float(np.vdot(E, E))) * 2.0 ** (s // 2) * 2.0 ** (s - s // 2) + rounding
    tol_s = VERIFY_TOL * (1.0 + max(kappa[-1], m[-1]))
    ok = bool(res_symp <= VERIFY_TOL and res_diag <= tol_s and res_spec <= tol_s)
    return VerifyReport(
        symplectic_residual=res_symp,
        diagonal_residual=res_diag,
        spectrum_residual=res_spec,
        tol=VERIFY_TOL,
        ok=ok,
    )
