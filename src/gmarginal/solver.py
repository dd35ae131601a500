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
from .spectra import _above_vacuum, _within_slack, check_physical, dominates, symplectic_spectrum
from .symplectic import (
    DEFAULT_TOL,
    VERIFY_TOL,
    _bs_block,
    _sq_block,
    _local_normal_form,
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
    """One scheduled transform and the diagonal values it leaves behind."""

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
    """Residuals of the three synthesis checks; ok when all are within tol (VERIFY_TOL)."""

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


def _sqrt_det(b00, b01, b10, b11):
    """sqrt(det) of the 2x2 block [[b00, b01], [b10, b11]], clipped at zero."""
    return math.sqrt(max(b00 * b11 - b01 * b10, 0.0))


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
    off-block max-norm is at most tol is not pivoted.  V must pass the
    package's symmetry rule and its vacuum rule kappa_min >= 1 - COUPLING_TOL.

    Returns:
        (S, kappa, JacobiTrace) with S V S^T diagonal within tol and kappa
        the sorted diagonal parameters.  When max_sweeps is exhausted the
        partial result is returned with ``converged=False``.  An exception
        raised by a pivot carries the pivots done before it as ``err.trace``,
        a JacobiTrace with ``converged=False``.
    """
    V = validate_covariance(V)
    if not check_physical(V):
        raise InvalidCovarianceError("matrix is not a physical covariance matrix")
    n = V.shape[0] // 2
    W, locs, m = _local_normal_form(V)
    S = np.zeros_like(V)
    for j in range(n):
        S[mode_slice(j + 1), mode_slice(j + 1)] = locs[j]
    steps = []
    sweep_off_max = []
    initial_profit = float(np.prod(m))
    factors = [_sqrt_det(*W[s, s].ravel().tolist()) for s in map(mode_slice, range(1, n + 1))]
    pair_ids = _pair_index(n)

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
                    factors[j - 1] = _sqrt_det(P[0][0], P[0][1], P[1][0], P[1][1])
                    factors[k - 1] = _sqrt_det(P[2][2], P[2][3], P[3][2], P[3][3])
                    steps.append(JacobiStep(pair=(j, k), off_norm=off, profit=math.prod(factors)))
                    offs = _row_off_max(W, j)
            sweep_off_max.append(worst)
    except Exception as err:
        err.trace = JacobiTrace(
            steps=list(steps),
            sweeps=sweeps,
            converged=False,
            initial_profit=initial_profit,
            sweep_off_max=[*sweep_off_max, worst],
        )
        raise
    # a sweep without a pivot has just checked every pair; rescan only when
    # the sweep cap stopped the loop
    converged = not pivoted or all(max(_row_off_max(W, j)[j:]) <= tol for j in range(1, n))
    d = W.diagonal()
    kappa = np.sort(0.5 * (d[0::2] + d[1::2]))
    trace = JacobiTrace(
        steps=steps,
        sweeps=sweeps,
        converged=converged,
        initial_profit=initial_profit,
        sweep_off_max=sweep_off_max,
    )
    return S, kappa, trace


def synthesize(kappa, m):
    """Build a state with global parameters kappa and local parameters m.

    Args:
        kappa: sorted physical global parameters (kappa[0] >= 1).
        m: sorted local parameters; must be dominated by kappa.

    Returns:
        (S, V, SynthesisTrace) with V = S diag(kappa pairs) S^T, the
        diagonal blocks of V equal to m_j * I in sorted slot order, and at
        most n - 1 recorded two-mode transformations.

    Each transfer touches only the four rows and columns of its pair, so it
    costs O(n), and the whole schedule of at most n - 1 transfers O(n^2).
    Finalizing a mode and checking a pair's structure allow round-off of
    DEFAULT_TOL * (1 + max(kappa_n, m_n)).

    Raises:
        UnphysicalSpectrumError: kappa[0] < 1.
        IncompatibleSpectraError: the dominance certificate has a negative
            slack beyond tolerance.
        NumericalError: the schedule loses accuracy.  This and any other
            exception raised after the inputs are validated carries the
            steps done before it as ``err.trace``, a SynthesisTrace.
    """
    kappa = np.asarray(kappa, dtype=float)
    m = np.asarray(m, dtype=float)
    if kappa.ndim != 1 or kappa.shape != m.shape or kappa.size == 0:
        raise ValueError("expected two equal-length, nonempty parameter vectors")
    if not np.all(np.isfinite(kappa) & np.isfinite(m) & (kappa > 0.0) & (m > 0.0)):
        raise ValueError("spectral parameters must be positive finite reals")
    if np.any(np.diff(kappa) < 0.0) or np.any(np.diff(m) < 0.0):
        raise ValueError("parameter vectors must be sorted nondecreasing")
    if not _above_vacuum(kappa[0]):
        raise UnphysicalSpectrumError(
            f"smallest global parameter {kappa[0]} is below the vacuum value 1"
        )
    worst, ok = _within_slack(dominates(kappa, m))
    if not ok:
        raise IncompatibleSpectraError(
            f"local parameters are not dominated by the global ones (worst slack {worst:.3e})"
        )

    n = int(kappa.size)
    atol = DEFAULT_TOL * (1.0 + float(max(kappa[-1], m[-1])))
    W = np.diag(np.repeat(kappa, 2))
    S = np.eye(2 * n)
    d = kappa.copy()
    steps = []
    stage_counts = [0, 0, 0, 0]
    sum_gap_initial = float(np.sum(m) - np.sum(kappa))

    def apply_step(stage, kind, i, j, param, transfer, t_i, t_j):
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
        if kind == "BS":
            T4 = _bs_block(float(param))
        elif kind == "SQ":
            T4 = _sq_block(float(param))
        else:
            T4 = pair_factor(di, dj, t_i, t_j)
        P = _apply_pair(W, S, T4, ids, rows)
        d[i - 1] = 0.5 * (P[0, 0] + P[1, 1])
        d[j - 1] = 0.5 * (P[2, 2] + P[3, 3])
        steps.append(
            SynthesisStep(
                stage=stage,
                kind=kind,
                pair=(i, j),
                param=param,
                transfer=float(transfer),
                diag_after=[float(x) for x in d],
            )
        )
        stage_counts[stage - 1] += 1

    finalized = 0
    try:
        # Stage 1: finalize low modes by borrowing from a donor among the first
        # n - 1 modes; the least donor index that still covers the target wins.
        i = 1
        while i <= n - 1:
            eps = m[i - 1] - d[i - 1]
            if eps <= atol:
                finalized += 1
                i += 1
                continue
            donor = 0
            for j in range(i + 1, n):
                if d[j - 1] >= m[i - 1] - atol:
                    donor = j
                    break
            if donor == 0:
                break
            theta = bs_param(d[i - 1], d[donor - 1], m[i - 1])
            apply_step(1, "BS", i, donor, theta, eps, m[i - 1], d[i - 1] + d[donor - 1] - m[i - 1])
            finalized += 1
            i += 1

        # Stage 2: pair squeezes with the last mode while the remaining sum gap
        # covers twice the mode's deficit.
        delta = float(np.sum(m) - np.sum(d))
        while i <= n - 1 and delta > atol:
            eps = m[i - 1] - d[i - 1]
            if eps <= atol:
                i += 1
                continue
            if delta < 2.0 * eps - atol:
                break
            mu = sq_param(d[i - 1], d[n - 1], eps)
            apply_step(2, "SQ", i, n, mu, eps, m[i - 1], d[n - 1] + eps)
            delta = float(np.sum(m) - np.sum(d))
            i += 1

        # Stage 3: one general transform absorbs whatever gap is left.
        if delta > atol:
            if i > n - 1:
                raise NumericalError("no mode left to absorb the remaining sum gap")
            eps = m[i - 1] - d[i - 1]
            t_n = d[n - 1] + delta - eps
            apply_step(3, "GEN", i, n, (float(m[i - 1]), float(t_n)), eps, m[i - 1], t_n)
            i += 1

        # Stage 4: sum-preserving transfers against the last mode.
        while i <= n - 1:
            eps = m[i - 1] - d[i - 1]
            if abs(eps) <= atol:
                i += 1
                continue
            theta = bs_param(d[i - 1], d[n - 1], m[i - 1])
            apply_step(4, "BS", i, n, theta, eps, m[i - 1], d[i - 1] + d[n - 1] - m[i - 1])
            i += 1

        check_tol = max(atol, VERIFY_TOL * (1.0 + float(m[-1])))
        if float(np.max(np.abs(d - m))) > check_tol:
            raise NumericalError(
                f"schedule finished with diagonal {d.tolist()} instead of {m.tolist()}"
            )
    except Exception as err:
        err.trace = SynthesisTrace(
            steps=list(steps),
            stage_counts=tuple(stage_counts),
            stage1_finalized=finalized,
            sum_gap_initial=sum_gap_initial,
        )
        raise
    trace = SynthesisTrace(
        steps=steps,
        stage_counts=tuple(stage_counts),
        stage1_finalized=finalized,
        sum_gap_initial=sum_gap_initial,
    )
    return S, W, trace


def verify(S, kappa, m) -> VerifyReport:
    """Independent residual check of a synthesis result.

    Checks that S is symplectic, that the diagonal blocks of
    S diag(kappa pairs) S^T are isotropic with values matching m as a
    multiset, and that the symplectic spectrum equals sorted kappa, each
    within VERIFY_TOL, absolute.
    """
    S = np.asarray(S, dtype=float)
    kappa = np.sort(np.asarray(kappa, dtype=float))
    m = np.sort(np.asarray(m, dtype=float))
    n = kappa.size
    if S.shape != (2 * n, 2 * n) or m.size != n:
        raise ValueError("shape mismatch between S and the parameter vectors")
    res_symp = _symplectic_residual(S)
    V = (S * np.repeat(kappa, 2)) @ S.T
    V = 0.5 * (V + V.T)
    # each mode's block center and anisotropy: V is exactly symmetric, so
    # the superdiagonal entry of each block stands for both off-diagonal ones
    d0, d1, off = V.diagonal()[0::2], V.diagonal()[1::2], V.diagonal(1)[0::2]
    vals = 0.5 * (d0 + d1)
    iso_max = float(np.max(np.abs([d0 - vals, d1 - vals, off])))
    res_diag = max(iso_max, float(np.max(np.abs(np.sort(vals) - m))))
    res_spec = float(np.max(np.abs(symplectic_spectrum(V) - kappa)))
    ok = bool(res_symp <= VERIFY_TOL and res_diag <= VERIFY_TOL and res_spec <= VERIFY_TOL)
    return VerifyReport(
        symplectic_residual=res_symp,
        diagonal_residual=res_diag,
        spectrum_residual=res_spec,
        tol=VERIFY_TOL,
        ok=ok,
    )
