"""The three workloads and the correctness gate behind every instance.

A workload turns an instance index into inputs (``make``, benchmark code,
untimed), runs the package on them (``run``, timed, one span per public
call) and checks the outputs against the generator's references (``check``,
untimed).  A check returns the worst relative error it saw, so the caller can
report accuracy, and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import gmarginal as gm
import inputs

#: Relative tolerances of the correctness gate, stated once and recorded in
#: every result.  Observed errors are around 1e-14, so these leave five
#: orders of magnitude for round-off growth before an instance fails.
TOLERANCES = {
    "kappa_rtol": 1e-9,
    "m_rtol": 1e-9,
    "factor_rtol": 1e-9,
    "offdiag_rtol": 1e-9,
}

#: Smallest relative error reported, so exact results give finite digits.
ERR_FLOOR = 1e-16


class CheckFailed(Exception):
    """An instance produced a wrong output."""


class Gate:
    """Counts checked operations and failures, and keeps the worst error."""

    MAX_REASONS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = ERR_FLOOR
        self.reasons = []

    def record(self, label: str, check) -> bool:
        """Run ``check()``, which returns a relative error or raises."""
        self.attempted += 1
        try:
            err = check()
        except Exception as exc:  # any error of the package or a check fails the operation
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{label}: {type(exc).__name__}: {exc}")
            return False
        self.worst = max(self.worst, err)
        return True

    def digits(self) -> float:
        return -float(np.log10(self.worst))


def rel_err(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise CheckFailed(f"shape {x.shape} does not match reference {ref.shape}")
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def within(label: str, x, ref, key: str) -> float:
    err = rel_err(x, ref)
    require(err <= TOLERANCES[key], f"{label}: relative error {err:.3e} > {key} {TOLERANCES[key]:g}")
    return err


def omega(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def numpy_spectrum(V: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues from the eigenvalues +-i kappa of Omega V."""
    n = V.shape[0] // 2
    return np.sort(np.abs(np.linalg.eigvals(omega(n) @ V).imag))[::2]


def offdiag_norm(W: np.ndarray) -> float:
    n = W.shape[0] // 2
    blocks = W.reshape(n, 2, n, 2).copy()
    blocks[np.arange(n), :, np.arange(n), :] = 0.0
    return float(np.max(np.abs(blocks)))


def check_factor(label: str, S: np.ndarray, kappa, V: np.ndarray) -> float:
    D = np.diag(np.repeat(kappa, 2))
    scale = float(np.max(np.abs(V)))
    err = float(np.max(np.abs(S @ D @ S.T - V))) / scale
    require(err <= TOLERANCES["factor_rtol"], f"{label}: factor residual {err:.3e}")
    n = V.shape[0] // 2
    symp = float(np.max(np.abs(S @ omega(n) @ S.T - omega(n))))
    require(symp <= TOLERANCES["factor_rtol"] * float(np.max(np.abs(S))) ** 2,
            f"{label}: symplectic residual {symp:.3e}")
    return err


def check_synthesis(label: str, trace, n: int) -> None:
    require(len(trace.steps) <= n - 1, f"{label}: {len(trace.steps)} steps > n - 1")
    require(sum(trace.stage_counts) == len(trace.steps), f"{label}: stage counts do not add up")


# --------------------------------------------------------------------------
# synth-large


@dataclass
class SynthInput:
    kappa: np.ndarray
    m: np.ndarray


class SynthLarge:
    """n = 128 compatible (kappa, m) from the polytope sampler, synthesized."""

    name = "synth-large"
    n = 128
    #: Fixed instance set of a traced pass: one full cycle of draw kinds.
    traced_instances = len(inputs.POLYTOPE_KINDS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.kinds = dict.fromkeys(inputs.POLYTOPE_KINDS, 0)

    def make(self, index: int) -> SynthInput:
        kind = inputs.POLYTOPE_KINDS[index % len(inputs.POLYTOPE_KINDS)]
        kappa, m = inputs.sample_polytope(inputs.instance_rng(self.seed, index), self.n, kind)
        self.kinds[kind] += 1
        return SynthInput(kappa, m)

    def input_stats(self) -> dict:
        """Polytope draws made, by kind."""
        return {"draws": self.kinds}

    def run(self, inp: SynthInput, tr) -> dict:
        out = {}
        with tr.span("spectra.dominates"):
            out["cert"] = gm.dominates(inp.kappa, inp.m)
        with tr.span("solver.synthesize"):
            out["S"], out["V"], out["trace"] = gm.synthesize(inp.kappa, inp.m)
        with tr.span("solver.verify"):
            out["report"] = gm.verify(out["S"], inp.kappa, inp.m)
        with tr.span("spectra.symplectic_spectrum"):
            out["spectrum"] = gm.symplectic_spectrum(out["V"])
        with tr.span("spectra.williamson"):
            out["fac"] = gm.williamson(out["V"])
        with tr.span("symplectic.local_normal_form"):
            out["m"] = gm.local_normal_form(out["V"])[2]
        return out

    def check(self, inp: SynthInput, out: dict) -> float:
        require(out["cert"].compatible, "certificate says incompatible")
        require(out["report"].ok, f"verify failed: {out['report']}")
        check_synthesis("synthesize", out["trace"], self.n)
        return max(
            within("symplectic_spectrum", out["spectrum"], inp.kappa, "kappa_rtol"),
            within("williamson kappa", out["fac"].kappa, inp.kappa, "kappa_rtol"),
            within("local parameters", out["m"], inp.m, "m_rtol"),
            check_factor("williamson", out["fac"].S, out["fac"].kappa, out["V"]),
        )

    def counts(self, inp: SynthInput, out: dict) -> dict:
        return synthesis_counts(len(out["trace"].steps), out["trace"].stage_counts)

    def replay(self, inp: SynthInput, out: dict):
        """(matrices, syntheses) whose two-mode kernels a traced run replays."""
        return [out["V"]], [(inp.kappa, inp.m, out["trace"].steps)]


def synthesis_counts(steps: int, stage_counts) -> dict:
    counts = {"solver.synthesize.steps": steps}
    for stage, c in enumerate(stage_counts, start=1):
        counts[f"solver.synthesize.stage{stage}"] = c
    return counts


# --------------------------------------------------------------------------
# roundtrip-small


@dataclass
class StateInput:
    V: np.ndarray
    kappa: np.ndarray
    m: np.ndarray


class RoundtripSmall:
    """n = 12 bounded-squeeze states: Jacobi down, synthesis back up."""

    name = "roundtrip-small"
    n = 12
    traced_instances = 24

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.conds = []

    def make(self, index: int) -> StateInput:
        V, kappa, m, cond = inputs.bloch_messiah_state(inputs.instance_rng(self.seed, index, 1), self.n)
        self.conds.append(cond)
        return StateInput(V, kappa, m)

    def input_stats(self) -> dict:
        """cond(V) of the generated states."""
        return {"cond_V": {"min": min(self.conds), "median": float(np.median(self.conds)),
                           "max": max(self.conds)}}

    def run(self, inp: StateInput, tr) -> dict:
        out = {}
        with tr.span("solver.jacobi_decompose"):
            out["S"], out["kappa"], out["jtrace"] = gm.jacobi_decompose(inp.V)
        with tr.span("spectra.williamson"):
            out["fac"] = gm.williamson(inp.V)
        with tr.span("symplectic.local_normal_form"):
            out["m"] = gm.local_normal_form(inp.V)[2]
        m_sorted = np.sort(out["m"])
        with tr.span("spectra.dominates"):
            out["cert"] = gm.dominates(out["kappa"], m_sorted)
        with tr.span("solver.synthesize"):
            out["S2"], out["V2"], out["trace"] = gm.synthesize(out["kappa"], m_sorted)
        with tr.span("solver.verify"):
            out["report"] = gm.verify(out["S2"], out["kappa"], m_sorted)
        return out

    def check(self, inp: StateInput, out: dict) -> float:
        require(out["jtrace"].converged, "jacobi_decompose did not converge")
        W = out["S"] @ inp.V @ out["S"].T
        off = offdiag_norm(W) / float(np.max(np.abs(inp.V)))
        require(off <= TOLERANCES["offdiag_rtol"], f"jacobi off-diagonal residual {off:.3e}")
        require(out["cert"].compatible, "certificate of the state's own spectra says incompatible")
        require(out["report"].ok, f"verify failed: {out['report']}")
        check_synthesis("synthesize", out["trace"], self.n)
        return max(
            within("jacobi kappa", out["kappa"], inp.kappa, "kappa_rtol"),
            within("williamson kappa", out["fac"].kappa, inp.kappa, "kappa_rtol"),
            within("jacobi vs williamson", out["kappa"], out["fac"].kappa, "kappa_rtol"),
            within("local parameters", out["m"], inp.m, "m_rtol"),
            check_factor("williamson", out["fac"].S, out["fac"].kappa, inp.V),
        )

    def counts(self, inp: StateInput, out: dict) -> dict:
        counts = synthesis_counts(len(out["trace"].steps), out["trace"].stage_counts)
        counts["solver.jacobi_decompose.pivots"] = len(out["jtrace"].steps)
        counts["solver.jacobi_decompose.sweeps"] = out["jtrace"].sweeps
        return counts

    def replay(self, inp: StateInput, out: dict):
        return [inp.V], [(out["kappa"], np.sort(out["m"]), out["trace"].steps)]


# --------------------------------------------------------------------------
# cli


@dataclass
class Command:
    label: str
    argv: list
    exit_code: int
    files: tuple
    check: object


def write_vector(path: str, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"values": [float(v) for v in values]}, fh)


def write_matrix(path: str, M: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": M.shape[0] // 2, "data": [float(x) for x in M.reshape(-1)]}, fh)


def load_matrix(doc: dict) -> np.ndarray:
    n = doc["n"]
    return np.asarray(doc["data"], dtype=float).reshape(2 * n, 2 * n)


class Cli:
    """A fixed script of ``python -m gmarginal`` processes, run one at a time.

    Children inherit the worker's environment: PYTHONPATH at the checkout's
    src/ and the BLAS thread pins.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first = {}
        self.first_err = {}
        rng = inputs.instance_rng(seed, 0, 2)
        k12, m12 = inputs.sample_polytope(rng, 12, "interior")
        V12, kv12, mv12, _ = inputs.bloch_messiah_state(rng, 12)
        k1, k2 = np.sort(rng.uniform(1.0, 3.0, size=2))
        delta = rng.uniform(0.0, 1.0)
        pair = tuple(float(x) for x in (k1 + delta, k2 + delta, k1, k2))
        seven_k, seven_m = np.array(inputs.README_KAPPA), np.array(inputs.README_M)
        self.V12 = V12
        self.spectra = {"synthesize-7": (seven_k, seven_m), "synthesize-12": (k12, m12)}
        files = {
            "k7.json": seven_k, "m7.json": seven_m, "k12.json": k12, "m12.json": m12,
            # swapping the README roles breaks the first partial sum
            "kbad.json": seven_m, "mbad.json": seven_k,
        }
        for name, values in files.items():
            write_vector(os.path.join(workdir, name), values)
        write_matrix(os.path.join(workdir, "V12.json"), V12)
        rand_seed = str(int(rng.integers(0, 2**31)))

        def cert(compatible):
            def check(out, files):
                doc = json.loads(out)
                require(doc["compatible"] is compatible, f"compatible is {doc['compatible']}")
                require(doc["physical"] is True, "physical is false")
                return ERR_FLOOR
            return check

        def synthesized(kappa, m):
            def check(out, files):
                require(out == b"", "synthesize printed to stdout")
                V = load_matrix(json.loads(files[0])["V"])
                steps = json.loads(files[1])["steps"]
                require(len(steps) <= len(kappa) - 1, "too many steps")
                return max(within("synthesized kappa", numpy_spectrum(V), kappa, "kappa_rtol"),
                           within("synthesized m", inputs.local_parameters(V), m, "m_rtol"))
            return check

        def decomposed(kappa, m):
            def check(out, files):
                doc = json.loads(out)
                require(doc["certificate"]["compatible"] is True, "decompose says incompatible")
                return max(within("decompose kappa", doc["kappa"], kappa, "kappa_rtol"),
                           within("decompose m", doc["m"], np.sort(m), "m_rtol"))
            return check

        def factored(kappa, V):
            return lambda out, files: factored_check(out, kappa, V)

        def two_mode(m1, m2, k1, k2):
            def check(out, files):
                V = load_matrix(json.loads(out))
                return max(within("reconstruct2 kappa", numpy_spectrum(V), [k1, k2], "kappa_rtol"),
                           within("reconstruct2 m", inputs.local_parameters(V), [m1, m2], "m_rtol"))
            return check

        def physical(n):
            def check(out, files):
                V = load_matrix(json.loads(out))
                require(V.shape == (2 * n, 2 * n), "wrong shape")
                kappa = numpy_spectrum(0.5 * (V + V.T))
                require(kappa[0] >= 1.0 - TOLERANCES["kappa_rtol"], f"unphysical kappa {kappa[0]}")
                return ERR_FLOOR
            return check

        self.script = [
            Command("check-7", ["check", "k7.json", "m7.json"], 0, (), cert(True)),
            Command("synthesize-7", ["synthesize", "k7.json", "m7.json", "out7.json", "--trace", "tr7.json"],
                    0, ("out7.json", "tr7.json"), synthesized(seven_k, seven_m)),
            Command("decompose-7", ["decompose", "out7.json"], 0, (), decomposed(seven_k, seven_m)),
            Command("williamson-7", ["williamson", "out7.json"], 0, (), self._williamson_7(seven_k)),
            Command("reconstruct2-readme", ["reconstruct2", "--m1", "2", "--m2", "2", "--k1", "1", "--k2", "3"],
                    0, (), two_mode(2.0, 2.0, 1.0, 3.0)),
            Command("random-7", ["random", "--modes", "7", "--seed", rand_seed], 0, (), physical(7)),
            Command("check-incompatible", ["check", "kbad.json", "mbad.json"], 1, (), cert(False)),
            Command("check-12", ["check", "k12.json", "m12.json"], 0, (), cert(True)),
            Command("synthesize-12", ["synthesize", "k12.json", "m12.json", "out12.json", "--trace", "tr12.json"],
                    0, ("out12.json", "tr12.json"), synthesized(k12, m12)),
            Command("decompose-12", ["decompose", "V12.json"], 0, (), decomposed(kv12, mv12)),
            Command("williamson-12", ["williamson", "V12.json"], 0, (), factored(kv12, V12)),
            Command("reconstruct2-12", ["reconstruct2", "--m1", repr(pair[0]), "--m2", repr(pair[1]),
                                        "--k1", repr(pair[2]), "--k2", repr(pair[3])],
                    0, (), two_mode(*pair)),
            Command("random-12", ["random", "--modes", "12", "--seed", rand_seed], 0, (), physical(12)),
        ]
        self.traced_instances = len(self.script)

    def _williamson_7(self, kappa):
        """Factor check against the matrix that synthesize-7 wrote earlier in the script."""

        def check(out, files):
            with open(os.path.join(self.workdir, "out7.json"), "rb") as fh:
                V = load_matrix(json.loads(fh.read())["V"])
            return factored_check(out, kappa, V)
        return check

    def make(self, index: int) -> Command:
        return self.script[index % len(self.script)]

    def input_stats(self) -> dict:
        return {"script": [cmd.label for cmd in self.script]}

    def run(self, cmd: Command, tr) -> dict:
        with tr.span("cli.process"):
            proc = subprocess.run([sys.executable, "-m", "gmarginal", *cmd.argv], cwd=self.workdir,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  check=False, timeout=120)
        return {"proc": proc}

    def outputs(self, cmd: Command, stdout: bytes) -> tuple:
        """stdout followed by the bytes of every file the command writes."""
        files = []
        for name in cmd.files:
            with open(os.path.join(self.workdir, name), "rb") as fh:
                files.append(fh.read())
        return (stdout, *files)

    def check(self, cmd: Command, out: dict) -> float:
        proc = out["proc"]
        require(proc.returncode == cmd.exit_code,
                f"{cmd.label}: exit {proc.returncode}, expected {cmd.exit_code}: {proc.stderr[-300:]!r}")
        got = self.outputs(cmd, proc.stdout)
        if cmd.label in self.first:
            require(got == self.first[cmd.label], f"{cmd.label}: output bytes differ from the first run")
            return self.first_err[cmd.label]
        err = cmd.check(got[0], got[1:])
        self.first[cmd.label] = got
        self.first_err[cmd.label] = err
        return err

    def counts(self, cmd: Command, out: dict) -> dict:
        """Step counts from the trace files the synthesize commands wrote."""
        if cmd.label not in self.spectra:
            return {}
        trace = json.loads(self.first[cmd.label][2])
        return synthesis_counts(len(trace["steps"]), trace["stage_counts"])

    def replay(self, cmd: Command, out: dict):
        """Replays use V12 and the step lists the CLI wrote with --trace."""
        if cmd.label in self.spectra:
            steps = json.loads(self.first[cmd.label][2])["steps"]
            return [], [(*self.spectra[cmd.label], steps)]
        if cmd.label == "williamson-12":
            return [self.V12], []
        return [], []


def factored_check(out: bytes, kappa, V: np.ndarray) -> float:
    doc = json.loads(out)
    return max(within("williamson kappa", doc["kappa"], kappa, "kappa_rtol"),
               check_factor("williamson", load_matrix(doc["S"]), doc["kappa"], V))


WORKLOADS = {w.name: w for w in (SynthLarge, RoundtripSmall, Cli)}

