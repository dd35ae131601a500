"""The tolerance policy: every threshold is named once in ``symplectic.py``,
and the vacuum, symmetry and factorization decisions each have one rule."""

import ast
import inspect
import json
import math
import pathlib

import numpy as np
import pytest

import gmarginal as gm
from gmarginal import (
    InvalidCovarianceError,
    NumericalError,
    UnphysicalSpectrumError,
    symplectic,
    two_mode,
)
from gmarginal.cli import main
from gmarginal.two_mode import _pivot_factor

SRC = pathlib.Path(gm.__file__).parent
THRESHOLDS = {"DEFAULT_TOL": 1e-10, "COUPLING_TOL": 1e-9, "VERIFY_TOL": 1e-8, "FACTOR_TOL": 1e-6}

#: kappa_min = 1 - 5e-9 lies between the 1e-9 vacuum rule and the old 1e-8 Jacobi bound.
NEAR_VACUUM = np.diag([1.0 - 5e-9, 1.0 - 5e-9, 2.0, 2.0])


def asymmetric_pair(delta):
    """A positive definite 4x4 matrix whose (2, 0) entry exceeds its (0, 2) entry by delta."""
    V = np.diag([2.0, 2.0, 3.0, 3.0])
    V[0, 2] = 0.5
    V[2, 0] = 0.5 + delta
    return V


def write_matrix(path, M):
    path.write_text(json.dumps({"n": M.shape[0] // 2, "data": [float(x) for x in M.reshape(-1)]}))
    return str(path)


def small_float_literals(path):
    """(line, value) of every float literal in the code of path with 0 < |value| < 1e-3."""
    tree = ast.parse(path.read_text())
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
    ]


class TestNamedOnce:
    def test_no_small_literal_outside_symplectic(self):
        found = {
            p.name: small_float_literals(p)
            for p in sorted(SRC.glob("*.py"))
            if p.name != "symplectic.py"
        }
        assert {name: hits for name, hits in found.items() if hits} == {}

    def test_symplectic_defines_each_value_once(self):
        tree = ast.parse((SRC / "symplectic.py").read_text())
        defined = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        }
        assert {k: v for k, v in defined.items() if k.endswith("_TOL")} == THRESHOLDS
        lines = {node.lineno for node in tree.body if isinstance(node, ast.Assign)}
        assert all(line in lines for line, _ in small_float_literals(SRC / "symplectic.py"))

    def test_two_mode_imports_the_coupling_tolerance(self):
        assert gm.two_mode.COUPLING_TOL is symplectic.COUPLING_TOL


class TestTolSurface:
    def test_only_three_public_callables_take_tol(self):
        """Thresholds are fixed; three callables keep a knob that tests set."""
        defaults = {}
        for name in gm.__all__:
            obj = getattr(gm, name)
            # classes are skipped: VerifyReport.tol is an output field
            if callable(obj) and not isinstance(obj, type):
                param = inspect.signature(obj).parameters.get("tol")
                if param is not None:
                    defaults[name] = param.default
        assert defaults == {
            "is_symplectic": symplectic.DEFAULT_TOL,
            "check_physical": symplectic.COUPLING_TOL,
            "jacobi_decompose": symplectic.DEFAULT_TOL,
        }


class TestVacuumRule:
    def test_jacobi_rejects_below_the_rule(self):
        with pytest.raises(InvalidCovarianceError, match="not a physical"):
            gm.jacobi_decompose(NEAR_VACUUM)

    def test_synthesize_rejects_below_the_rule(self):
        with pytest.raises(UnphysicalSpectrumError):
            gm.synthesize([1.0 - 5e-9, 2.0], [1.5 - 5e-9, 1.5])

    def test_cli_check_reports_unphysical(self, tmp_path, capsys):
        g, l = tmp_path / "g.json", tmp_path / "l.json"
        g.write_text(json.dumps({"values": [1.0 - 5e-9, 2.0]}))
        l.write_text(json.dumps({"values": [1.5, 1.5]}))
        assert main(["check", str(g), str(l)]) == 1
        assert json.loads(capsys.readouterr().out)["physical"] is False

    def test_within_round_off_is_accepted_everywhere(self, tmp_path, capsys):
        V = np.diag([1.0 - 5e-10, 1.0 - 5e-10, 2.0, 2.0])
        assert gm.check_physical(V)
        _, kappa, trace = gm.jacobi_decompose(V)
        assert trace.converged and abs(kappa[0] - (1.0 - 5e-10)) < 1e-15
        gm.synthesize([1.0 - 5e-10, 2.0], [1.5 - 5e-10, 1.5])
        g, l = tmp_path / "g.json", tmp_path / "l.json"
        g.write_text(json.dumps({"values": [1.0 - 5e-10, 2.0]}))
        l.write_text(json.dumps({"values": [1.5 - 5e-10, 1.5]}))
        assert main(["check", str(g), str(l)]) == 0
        assert json.loads(capsys.readouterr().out)["physical"] is True

    def test_check_physical_tol_is_the_vacuum_slack_only(self):
        assert not gm.check_physical(NEAR_VACUUM)
        assert gm.check_physical(NEAR_VACUUM, tol=1e-8)
        # a looser tol no longer loosens the symmetry test
        assert not gm.check_physical(asymmetric_pair(5e-9), tol=1e-8)


class TestSymmetryRule:
    @pytest.mark.parametrize("command", ["decompose", "williamson"])
    def test_cli_rejects_what_the_library_rejects(self, tmp_path, capsys, command):
        V = asymmetric_pair(5e-9)
        with pytest.raises(InvalidCovarianceError, match="not symmetric"):
            gm.symplectic_spectrum(V)
        assert main([command, write_matrix(tmp_path / "v.json", V)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: covariance matrix is not symmetric\n"

    def test_jacobi_tol_is_the_convergence_threshold_only(self):
        with pytest.raises(InvalidCovarianceError, match="not symmetric"):
            gm.jacobi_decompose(asymmetric_pair(5e-9), tol=1e-6)


class TestFactorizationGate:
    def test_williamson_and_the_pivot_kernel_share_the_gate(self, monkeypatch):
        V, _, _ = gm.random_state(2, seed=5)
        gm.williamson(V)
        _pivot_factor(V)
        # a negative threshold fails every residual, so both callers must raise
        monkeypatch.setattr(symplectic, "FACTOR_TOL", -1.0)
        with pytest.raises(NumericalError, match="required accuracy"):
            gm.williamson(V)
        with pytest.raises(NumericalError, match="required accuracy"):
            _pivot_factor(V)

    def test_nan_residual_fails_the_gate(self):
        symplectic._factor_gate(0.0, 0.0, 1.0)
        for args in ((math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.0, math.nan)):
            with pytest.raises(NumericalError, match="required accuracy"):
                symplectic._factor_gate(*args)

    def test_residual_reduction_carries_nan(self):
        assert two_mode._worst((0.5, 2.0, 1.0)) == 2.0
        assert two_mode._worst((0.0, math.inf)) == math.inf
        for vals in ((math.nan, 1.0), (1.0, math.nan, 2.0), (0.0, 0.0, math.nan)):
            assert math.isnan(two_mode._worst(vals))

    @pytest.mark.parametrize("slot", [0, 3])
    def test_kernel_rejects_a_nan_angle(self, monkeypatch, slot):
        """A NaN phi (slot 0) in the off-block's SVD makes the first residual
        NaN; a NaN theta (slot 3) leaves the first finite and later ones NaN."""
        V, _, _ = gm.random_state(2, seed=5)
        real_svd2, gates, calls = two_mode._svd2, [], []

        def nan_angle(*args):
            out = list(real_svd2(*args))
            calls.append(1)
            if len(calls) == 1:
                out[slot] = math.nan
            return tuple(out)

        def recording_gate(*args):
            gates.append(args)
            symplectic._factor_gate(*args)

        monkeypatch.setattr(two_mode, "_svd2", nan_angle)
        monkeypatch.setattr(two_mode, "_factor_gate", recording_gate)
        with pytest.raises(NumericalError, match="required accuracy"):
            _pivot_factor(V)
        ((res_fact, res_symp, _),) = gates
        assert math.isnan(res_fact) and math.isnan(res_symp)
