"""Spans, kernel replays, scaling fits and CLI probes of the traced run.

Spans are recorded by the benchmark around each public call it makes; the
package itself is not instrumented.  Layers the benchmark does not call
directly (the two-mode kernels inside the solvers) are measured by replaying
them, outside any span, on the workload's own data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

import gmarginal as gm
import gmarginal.cli
import inputs
from workloads import ERR_FLOOR, numpy_spectrum, require, within

#: Mode counts of the scaling fits.
SYNTH_GRID = (16, 32, 64, 128)
JACOBI_GRID = (6, 12, 24)
#: Timed rounds over each grid (the median per point is fitted).
GRID_REPS = 3

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer of the untraced run: spans cost one attribute lookup and a call."""

    def span(self, name: str):
        return _NULL


class Tracer:
    """Keeps spans in memory as (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def durations_ms(self, name: str) -> list:
        return [(e - s) / 1e6 for n, s, e, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def timed_us(fn, *args):
    start = time.perf_counter_ns()
    result = fn(*args)
    return result, (time.perf_counter_ns() - start) / 1e3


def replay_blocks(matrices, gate, us: dict) -> None:
    """Time the 4x4 kernels on every adjacent pair's block of each matrix."""
    for V in matrices:
        n = V.shape[0] // 2
        for j in range(n - 1):
            M4 = V[2 * j:2 * j + 4, 2 * j:2 * j + 4].copy()

            def one():
                fac, t = timed_us(gm.williamson, M4)
                us["spectra.williamson_4x4.us"].append(t)
                (form, _), t = timed_us(gm.standard_form, M4)
                us["two_mode.standard_form.us"].append(t)
                (sum_sq, det), t = timed_us(gm.two_mode_invariants, M4)
                us["two_mode.two_mode_invariants.us"].append(t)
                k1, k2 = (float(k) for k in fac.kappa)
                _, t = timed_us(gm.solve_couplings, form.m1, form.m2, k1, k2)
                us["two_mode.solve_couplings.us"].append(t)
                return max(
                    within("williamson_4x4", fac.kappa, numpy_spectrum(M4), "kappa_rtol"),
                    within("standard_form", [form.m1, form.m2], np.sort(inputs.local_parameters(M4)), "m_rtol"),
                    within("two_mode_invariants", [sum_sq, det], [k1 * k1 + k2 * k2, (k1 * k2) ** 2], "kappa_rtol"),
                )

            gate.record(f"replay block {j + 1}", one)


def _step_fields(step):
    if isinstance(step, dict):
        return step["kind"], tuple(step["pair"]), step["param"], step["diag_after"]
    return step.kind, step.pair, step.param, step.diag_after


def replay_synthesis(kappa, m, steps, gate, us: dict) -> None:
    """Re-run each step's parameter kernel with the arguments synthesize used.

    The diagonal before a step is the previous step's ``diag_after`` (kappa
    before the first), so bs_param and sq_param must return the recorded
    parameter bit for bit.
    """
    d = [float(x) for x in kappa]
    for k, step in enumerate(steps):
        kind, (i, j), param, diag_after = _step_fields(step)

        def one():
            if kind == "BS":
                theta, t = timed_us(gm.bs_param, d[i - 1], d[j - 1], m[i - 1])
                us["two_mode.bs_param.us"].append(t)
                require(theta == param, f"bs_param replay {theta!r} != recorded {param!r}")
            elif kind == "SQ":
                mu, t = timed_us(gm.sq_param, d[i - 1], d[j - 1], m[i - 1] - d[i - 1])
                us["two_mode.sq_param.us"].append(t)
                require(mu == param, f"sq_param replay {mu!r} != recorded {param!r}")
            else:
                S4, t = timed_us(gm.pair_factor, d[i - 1], d[j - 1], param[0], param[1])
                us["two_mode.pair_factor.us"].append(t)
                W = S4 @ np.diag([d[i - 1], d[i - 1], d[j - 1], d[j - 1]]) @ S4.T
                return within("pair_factor", [W[0, 0], W[1, 1], W[2, 2], W[3, 3]],
                              [param[0], param[0], param[1], param[1]], "m_rtol")
            return ERR_FLOOR

        gate.record(f"replay step {k + 1}", one)
        d = [float(x) for x in diag_after]


def slope(points: dict) -> float:
    """Least-squares slope of log(time) against log(n); 0.0 below two points."""
    if len(points) < 2:
        return 0.0
    ns = sorted(points)
    return float(np.polyfit(np.log(ns), np.log([points[n] for n in ns]), 1)[0])


def scaling_exponents(seed: int, gate) -> tuple:
    """Log-log slopes of synthesize, williamson and jacobi_decompose over n.

    Each round times every grid point once, so a change of host speed during
    the fit touches all n alike; the fit uses the median over rounds.
    """
    pairs = {n: inputs.sample_polytope(inputs.instance_rng(seed, n, 3), n, "interior") for n in SYNTH_GRID}
    states = {n: inputs.bloch_messiah_state(inputs.instance_rng(seed, n, 4), n) for n in JACOBI_GRID}
    times = {"synthesize": {}, "williamson": {}, "jacobi_decompose": {}}
    for _ in range(GRID_REPS):
        for n, (kappa, m) in pairs.items():

            def point():
                (S, V, _), t = timed_us(gm.synthesize, kappa, m)
                times["synthesize"].setdefault(n, []).append(t / 1e3)
                fac, t = timed_us(gm.williamson, V)
                times["williamson"].setdefault(n, []).append(t / 1e3)
                require(gm.verify(S, kappa, m).ok, "verify failed")
                return within("grid williamson", fac.kappa, kappa, "kappa_rtol")

            gate.record(f"grid synthesize n={n}", point)
        for n, (V, kappa, _, _) in states.items():

            def point():
                (_, kj, jt), t = timed_us(gm.jacobi_decompose, V)
                times["jacobi_decompose"].setdefault(n, []).append(t / 1e3)
                require(jt.converged, "jacobi_decompose did not converge")
                return within("grid jacobi", kj, kappa, "kappa_rtol")

            gate.record(f"grid jacobi n={n}", point)
    grid_ms = {name: {n: median(ts) for n, ts in per_n.items()} for name, per_n in times.items()}
    return {
        "solver.synthesize.exponent": slope(grid_ms["synthesize"]),
        "spectra.williamson.exponent": slope(grid_ms["williamson"]),
        "solver.jacobi_decompose.exponent": slope(grid_ms["jacobi_decompose"]),
    }, grid_ms


def import_ms() -> float:
    """Wall time of one fresh ``python -c "import gmarginal"`` process."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import gmarginal"], check=True, timeout=120)
    return (time.perf_counter_ns() - start) / 1e6


def cli_layer(cli, paired: list, gate) -> dict:
    """Import, whole-process, in-process ``main`` and serialization times.

    ``paired`` holds (import ms, process ms) of a fresh import measured right
    before each script command's process, so the import share compares the
    two under the same host conditions.  ``cli.main`` then runs in this
    process on every script command; its exit code, stdout and written files
    must match what the subprocess produced.
    """
    main_ms, dumps_ms = [], []
    here = os.getcwd()
    os.chdir(cli.workdir)
    try:
        for cmd in cli.script:

            def one():
                expected = cli.first[cmd.label]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code, t = timed_us(gmarginal.cli.main, list(cmd.argv))
                main_ms.append(t / 1e3)
                require(code == cmd.exit_code, f"in-process {cmd.label} exited {code}")
                require(cli.outputs(cmd, out.getvalue().encode()) == expected,
                        f"in-process {cmd.label} output differs from the process's")
                for blob in expected:
                    if blob:
                        _, t = timed_us(gmarginal.cli.dumps, json.loads(blob))
                        dumps_ms.append(t / 1e3)
                return ERR_FLOOR

            gate.record(f"cli.main {cmd.label}", one)
    finally:
        os.chdir(here)
    return {
        "cli.import_ms": median([imp for imp, _ in paired]),
        "cli.process_ms": median([proc for _, proc in paired]),
        "cli.main_ms": median(main_ms),
        "cli.dumps_ms": median(dumps_ms),
        "cli.import_share": median([imp / proc for imp, proc in paired]),
    }
