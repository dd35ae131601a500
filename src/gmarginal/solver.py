"""Constructive solvers: pairwise normal-form iteration and spectrum synthesis.

``jacobi_decompose`` diagonalizes a covariance matrix by sweeping two-mode
pivots, driving the profit function prod_j sqrt(det B_j) down to the product
of the symplectic eigenvalues.  ``synthesize`` goes the other way: given
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
from .spectra import _above_vacuum, _within_slack, check_physical, dominates
from .symplectic import (
    DEFAULT_TOL,
    VERIFY_TOL,
    _block_roots,
    _bs_block,
    _local_normal_form,
    _omega_gram,
    _positive_finite,
    _spd_roots,
    _sq_block,
    _subtract_omega,
    _symplectic_residual,
    mode_slice,
    validate_covariance,
)
from .two_mode import _pivot_factor, bs_param, pair_factor, sq_param


@dataclass(frozen=True)
class JacobiStep:
    """One pivot: acting pair, off-block max-norm before, profit after."""

    pair: tuple
    off_norm: float
    profit: float


@dataclass(frozen=True)
class JacobiTrace:
    """Pivots in order; sweep_off_max[s] is the largest off-block max-norm
    that the skip tests of sweep s + 1 read."""

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


def _pair_ids(i, j):
    return np.array([2 * i - 2, 2 * i - 1, 2 * j - 2, 2 * j - 1])


def _pair_index(n):
    """ids[j - 1, k - 1] is ``_pair_ids(j, k)``, for every pair of n modes."""
    modes = np.arange(2 * n).reshape(n, 2)
    ids = np.empty((n, n, 4), dtype=int)
    ids[:, :, :2] = modes[:, None, :]
    ids[:, :, 2:] = modes[None, :, :]
    return ids


def _row_off_max(W, j):
    """Largest |entry| of each 2x2 block in the rows of mode j, in mode order.

    Entry k - 1 is max |W[mode_slice(j), mode_slice(k)]|; entry j - 1 is mode
    j's own block.
    """
    a = abs(W[mode_slice(j)])
    a = np.maximum(a[0], a[1])
    return np.maximum(a[0::2], a[1::2]).tolist()


def _apply_pair(W, S, T4, ids, rows):
    """In place, W <- T W T^T and S <- T S for T the 4x4 T4 acting on the rows ids.

    ``ids`` is ``_pair_ids(i, j)`` of the pair and ``rows`` is
    ``W.take(ids, axis=0)``, its four rows before the step.  Only those
    rows and the matching columns change, so the cost is O(n).  The touched
    columns are mirrored from the touched rows and the 4x4 pair block is
    symmetrized, so W stays exactly symmetric.  Returns that pair block.
    """
    rows = T4 @ rows
    block = rows.take(ids, axis=1) @ T4.T
    block = 0.5 * (block + block.T)
    W[ids] = rows
    W[:, ids] = rows.T
    W[ids[:, None], ids] = block
    S[ids] = T4 @ S.take(ids, axis=0)
    return block


def jacobi_decompose(V, tol: float = DEFAULT_TOL, max_sweeps: int = 100):
    """Diagonalize a physical covariance matrix by cyclic two-mode pivots.

    Each pivot applies the inverse normal-form factor of the pair's 4x4
    submatrix, which zeroes the off-block and leaves both single-mode blocks
    isotropic.  The factor comes from the closed-form two-mode kernel
    ``two_mode._pivot_factor`` (per-mode local normal form, the SVD
    rotations of the off-block, closed-form 2x2 roots and SVD), so a pivot
    calls no eigensolver.  The profit prod_j sqrt(det B_j) strictly
    decreases at every pivot and is bounded below by sqrt(det V), which
    forces convergence.

    The pairs (j, k), k > j, are visited row by row.  Each row j reads the
    off-block max-norms of mode j against all modes at once, and rereads
    them from mode j's two rows after each pivot.  A pivot takes its pair's
    four rows of W once: the kernel's 4x4 block is gathered from them and
    the congruence multiplies them.  It writes those four rows and columns
    of W and of S, and reads its two new profit factors from the 4x4 pair
    block it writes.  So a pivot costs O(n) on top of the O(1) scalar 4x4
    work, and a sweep over all pairs costs O(n^3).

    ``tol`` is the off-block convergence threshold only: a pair whose
    off-block max-norm is at most tol is not pivoted.  It is absolute, so
    4^e V with tol 4^e tol pivots the same pairs and returns the same S
    and 4^e kappa; the profit, a product of n local parameters, may then
    overflow to inf.  V must pass the package's symmetry rule, and a
    converged run validates V once.  No spectrum is computed beforehand:
    when the run converges, the vacuum rule kappa_min >= 1 - COUPLING_TOL
    is judged on the sorted kappa that the sweeps leave, the kappa that is
    returned.  When max_sweeps stops the run first, that diagonal only
    bounds kappa_min from above, so the rule is judged on the dense
    spectrum of V (``check_physical``), the one path that calls np.linalg.

    Returns:
        (S, kappa, JacobiTrace) with S V S^T diagonal within tol and kappa
        the sorted diagonal parameters.  When max_sweeps is exhausted the
        partial result is returned with ``converged=False``.

    Raises:
        InvalidCovarianceError: V is not a valid covariance matrix, a
            single-mode block or a pivot's 4x4 block is not positive
            definite, or V breaks the vacuum rule as judged above (a
            singular V leaves kappa_min near 0).  A vacuum rejection carries
            the finished run as ``err.trace``, and names kappa_min when the
            run converged.
            An exception raised by a pivot carries the pivots done before
            it as ``err.trace``, a JacobiTrace with ``converged=False``.
    """
    V = validate_covariance(V)
    n = V.shape[0] // 2
    W, locs, m = _local_normal_form(V)
    S = np.zeros_like(V)
    for j in range(n):
        S[mode_slice(j + 1), mode_slice(j + 1)] = locs[j]
    steps = []
    sweep_off_max = []
    initial_profit = math.prod(m.tolist())
    factors = [d for _, _, d in _block_roots(W)]
    pair_ids = _pair_index(n)

    def trace(converged, off_max):
        return JacobiTrace(
            steps=steps,
            sweeps=sweeps,
            converged=converged,
            initial_profit=initial_profit,
            sweep_off_max=off_max,
        )

    sweeps = 0
    pivoted = True
    try:
        while pivoted and sweeps < max_sweeps:
            sweeps += 1
            pivoted = False
            worst = 0.0
            for j in range(1, n):
                offs = _row_off_max(W, j)
                for k in range(j + 1, n + 1):
                    off = offs[k - 1]
                    if off > worst:
                        worst = off
                    if off <= tol:
                        continue
                    pivoted = True
                    ids = pair_ids[j - 1, k - 1]
                    rows = W.take(ids, axis=0)
                    T4 = _pivot_factor(rows.take(ids, axis=1))
                    P = _apply_pair(W, S, T4, ids, rows).tolist()
                    factors[j - 1] = _spd_roots(P[0][0], P[0][1], P[1][1])[2]
                    factors[k - 1] = _spd_roots(P[2][2], P[2][3], P[3][3])[2]
                    steps.append(JacobiStep(pair=(j, k), off_norm=off, profit=math.prod(factors)))
                    offs = _row_off_max(W, j)
            sweep_off_max.append(worst)
    except Exception as err:
        err.trace = trace(False, [*sweep_off_max, worst])
        raise
    # a sweep without a pivot has just checked every pair; rescan only when
    # the sweep cap stopped the loop
    converged = not pivoted or all(max(_row_off_max(W, j)[j:]) <= tol for j in range(1, n))
    d = W.diagonal()
    kappa = np.sort(0.5 * (d[0::2] + d[1::2]))
    # a truncated run's diagonal only bounds kappa_min from above, so the
    # dense spectrum of V judges it instead
    if not converged and not check_physical(V):
        err = InvalidCovarianceError("matrix is not a physical covariance matrix")
    elif not _above_vacuum(kappa[0]):
        err = InvalidCovarianceError(
            f"matrix is not a physical covariance matrix: kappa_min = {kappa[0]} is below 1"
        )
    else:
        return S, kappa, trace(converged, sweep_off_max)
    err.trace = trace(converged, sweep_off_max)
    raise err


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
    n - 1 transfers O(n^2).
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
    W = np.diag(np.repeat(kappa, 2))
    S = np.eye(2 * n)
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
        ids = _pair_ids(i, j)
        rows = W.take(ids, axis=0)
        (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = (
            rows.take(ids, axis=1).tolist()
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
        p00, p11, p22, p33 = _apply_pair(W, S, T4, ids, rows).diagonal().tolist()
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
    residuals.  Every entry of kappa and m must be positive and finite.

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
    runs.
    """
    S = np.asarray(S, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    m = np.asarray(m, dtype=float)
    n = kappa.size
    if kappa.ndim != 1 or m.shape != kappa.shape or S.shape != (2 * n, 2 * n):
        raise ValueError("shape mismatch between S and the parameter vectors")
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
    res_spec = math.sqrt(float(np.vdot(E, E))) + rounding
    tol_s = VERIFY_TOL * (1.0 + max(kappa[-1], m[-1]))
    ok = bool(res_symp <= VERIFY_TOL and res_diag <= tol_s and res_spec <= tol_s)
    return VerifyReport(
        symplectic_residual=res_symp,
        diagonal_residual=res_diag,
        spectrum_residual=res_spec,
        tol=VERIFY_TOL,
        ok=ok,
    )
