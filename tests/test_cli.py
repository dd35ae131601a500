"""Command-line interface tests: exit codes, JSON shapes, determinism."""

import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gmarginal as gm
from gmarginal import InfeasibleRedistributionError, NumericalError
from gmarginal.cli import dumps, entry, main

SEVEN_KAPPA = [1.0, 2.0, 3.0, 4.0, 5.0, 12.0, 18.0]
SEVEN_M = [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]


def write_vector(path, values):
    path.write_text(json.dumps({"values": list(values)}))
    return str(path)


def write_matrix(path, M):
    M = np.asarray(M, dtype=float)
    doc = {"n": M.shape[0] // 2, "data": [float(x) for x in M.reshape(-1)]}
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_compatible_and_physical(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", SEVEN_KAPPA)
        l = write_vector(tmp_path / "l.json", SEVEN_M)
        assert main(["check", g, l]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compatible"] is True
        assert doc["physical"] is True
        assert doc["kappa_sorted"] == SEVEN_KAPPA
        assert all(s >= 0 for s in doc["partial_sum_slacks"])

    def test_identical_vectors(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.5, 2.5, 3.5])
        l = write_vector(tmp_path / "l.json", [1.5, 2.5, 3.5])
        assert main(["check", g, l]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["partial_sum_slacks"] == [0.0, 0.0, 0.0]
        assert doc["tail_slack"] == 0.0

    def test_tail_violation_exits_one(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, 1.0])
        l = write_vector(tmp_path / "l.json", [1.0, 3.0])
        assert main(["check", g, l]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["compatible"] is False
        assert doc["tail_slack"] == -2.0

    def test_unphysical_exits_one(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [0.5, 2.0])
        l = write_vector(tmp_path / "l.json", [1.0, 1.5])
        assert main(["check", g, l]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["physical"] is False

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        g = write_vector(tmp_path / "g.json", [1.0])
        assert main(["check", str(bad), g]) == 2
        assert "error" in capsys.readouterr().err

    def test_nonpositive_entry_exits_two(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, -2.0])
        l = write_vector(tmp_path / "l.json", [1.0, 2.0])
        assert main(["check", g, l]) == 2
        capsys.readouterr()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0])
        assert main(["check", str(tmp_path / "absent.json"), g]) == 2
        capsys.readouterr()


class TestSynthesize:
    def test_seven_mode_instance(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", SEVEN_KAPPA)
        l = write_vector(tmp_path / "l.json", SEVEN_M)
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.json"
        assert main(["synthesize", g, l, str(out), "--trace", str(trace)]) == 0
        capsys.readouterr()

        doc = json.loads(out.read_text())
        V = np.asarray(doc["V"]["data"]).reshape(14, 14)
        S = np.asarray(doc["S"]["data"]).reshape(14, 14)
        assert gm.is_symplectic(S, tol=1e-8)
        assert np.allclose(np.diag(V)[::2], SEVEN_M, atol=1e-8, rtol=0)

        tdoc = json.loads(trace.read_text())
        assert tdoc["stage_counts"] == [2, 1, 1, 2]
        assert len(tdoc["steps"]) == 6
        first = tdoc["steps"][0]
        assert first["stage"] == 1 and first["kind"] == "BS"
        assert first["pair"] == [1, 6]  # mode indices are 1-based
        assert np.abs(np.array(first["diag_after"]) - [6, 2, 3, 4, 5, 7, 18]).max() < 1e-9
        # each step is the library's SynthesisStep without its transfer, in field order
        _, _, lib = gm.synthesize(np.array(SEVEN_KAPPA), np.array(SEVEN_M))
        for got, step in zip(tdoc["steps"], lib.steps, strict=True):
            assert list(got) == ["stage", "kind", "pair", "param", "diag_after"]
            param = list(step.param) if isinstance(step.param, tuple) else step.param
            assert got == {"stage": step.stage, "kind": step.kind, "pair": list(step.pair),
                           "param": param, "diag_after": list(step.diag_after)}

    def test_unsorted_input_is_sorted_for_the_solver(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [18, 2, 3, 4, 5, 12, 1.0])
        l = write_vector(tmp_path / "l.json", [12, 7, 8, 9, 10, 11, 6.0])
        out = tmp_path / "out.json"
        assert main(["synthesize", g, l, str(out)]) == 0
        capsys.readouterr()

    def test_equal_spectra_empty_steps(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, 2.0])
        l = write_vector(tmp_path / "l.json", [1.0, 2.0])
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.json"
        assert main(["synthesize", g, l, str(out), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert json.loads(trace.read_text())["steps"] == []

    def test_incompatible_exits_one(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, 1.0])
        l = write_vector(tmp_path / "l.json", [1.0, 3.0])
        out = tmp_path / "out.json"
        assert main(["synthesize", g, l, str(out)]) == 1
        assert "incompatible" in capsys.readouterr().err
        assert not out.exists()

    def test_tail_deficit_exits_one(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, 1.0])
        l = write_vector(tmp_path / "l.json", [1.0, 1.0 + 5e-10])
        out = tmp_path / "out.json"
        assert main(["check", g, l]) == 1
        assert main(["synthesize", g, l, str(out)]) == 1
        assert "incompatible: tail slack" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e155])
    def test_scaled_instance_exits_zero(self, tmp_path, capsys, scale):
        g = write_vector(tmp_path / "g.json", [scale * x for x in SEVEN_KAPPA])
        l = write_vector(tmp_path / "l.json", [scale * x for x in SEVEN_M])
        assert main(["synthesize", g, l, str(tmp_path / "out.json")]) == 0

    def test_byte_deterministic(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", SEVEN_KAPPA)
        l = write_vector(tmp_path / "l.json", SEVEN_M)
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}.json"
            trace = tmp_path / f"trace_{tag}.json"
            assert main(["synthesize", g, l, str(out), "--trace", str(trace)]) == 0
            pairs.append((out.read_bytes(), trace.read_bytes()))
        capsys.readouterr()
        assert pairs[0] == pairs[1]

    def test_output_revalidates(self, tmp_path, capsys):
        """decompose accepts the synthesize out-file directly."""
        g = write_vector(tmp_path / "g.json", [1.0, 2.0, 3.0])
        l = write_vector(tmp_path / "l.json", [1.5, 2.0, 2.5])
        out = tmp_path / "out.json"
        assert main(["synthesize", g, l, str(out)]) == 0
        capsys.readouterr()
        assert main(["decompose", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["compatible"] is True
        assert np.abs(np.array(doc["kappa"]) - [1.0, 2.0, 3.0]).max() < 1e-8
        assert np.abs(np.array(doc["m"]) - [1.5, 2.0, 2.5]).max() < 1e-8


class TestDecompose:
    def test_canonical_diagonal(self, tmp_path, capsys):
        f = write_matrix(tmp_path / "v.json", np.diag([1.0, 1.0, 3.0, 3.0]))
        assert main(["decompose", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.abs(np.array(doc["kappa"]) - [1.0, 3.0]).max() < 1e-12
        assert doc["m"] == [1.0, 3.0]

    def test_coupled_pair(self, tmp_path, capsys):
        V = np.diag([2.0, 2.0, 2.0, 2.0])
        V[0, 2] = V[2, 0] = V[1, 3] = V[3, 1] = 1.0
        f = write_matrix(tmp_path / "v.json", V)
        assert main(["decompose", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.abs(np.array(doc["kappa"]) - [1.0, 3.0]).max() < 1e-10
        assert doc["m"] == [2.0, 2.0]

    def test_random_state_is_compatible(self, tmp_path, capsys):
        V, _, _ = gm.random_state(4, seed=321)
        f = write_matrix(tmp_path / "v.json", V)
        assert main(["decompose", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["compatible"] is True

    def test_not_positive_definite_exits_two(self, tmp_path, capsys):
        f = write_matrix(tmp_path / "v.json", np.diag([1.0, 1.0, 1.0, -1.0]))
        assert main(["decompose", f]) == 2
        capsys.readouterr()

    def test_asymmetric_exits_two(self, tmp_path, capsys):
        doc = {"n": 1, "data": [1.0, 0.5, 0.0, 1.0]}
        f = tmp_path / "v.json"
        f.write_text(json.dumps(doc))
        assert main(["decompose", str(f)]) == 2
        capsys.readouterr()

    def test_wrong_data_length_exits_two(self, tmp_path, capsys):
        f = tmp_path / "v.json"
        f.write_text(json.dumps({"n": 2, "data": [1.0, 2.0]}))
        assert main(["decompose", str(f)]) == 2
        capsys.readouterr()


class TestWilliamsonCommand:
    def test_reports_small_residual(self, tmp_path, capsys):
        V, _, _ = gm.random_state(3, seed=11)
        f = write_matrix(tmp_path / "v.json", V)
        assert main(["williamson", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-9
        assert doc["residual"] == gm.williamson(V).factor_residual
        kappa = np.array(doc["kappa"])
        assert np.allclose(kappa, gm.symplectic_spectrum(V), atol=1e-9, rtol=0)
        S = np.asarray(doc["S"]["data"]).reshape(6, 6)
        D = np.diag(np.repeat(kappa, 2))
        assert np.abs(S @ D @ S.T - V).max() < 1e-8

    def test_out_file(self, tmp_path, capsys):
        V = np.diag([2.0, 2.0, 5.0, 5.0])
        f = write_matrix(tmp_path / "v.json", V)
        out = tmp_path / "fac.json"
        assert main(["williamson", f, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        got = json.loads(out.read_text())["kappa"]
        assert np.abs(np.array(got) - [2.0, 5.0]).max() < 1e-12


@pytest.mark.parametrize("command", ["decompose", "williamson"])
@pytest.mark.parametrize(
    "V",
    [
        # positive diagonal, positive definite single-mode blocks, indefinite
        np.array([[1.0, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]),
        np.diag([1.0, 0.0, 1.0, 1.0]),
    ],
    ids=["indefinite", "singular"],
)
def test_non_positive_definite_matrix_message(tmp_path, capsys, command, V):
    f = write_matrix(tmp_path / "v.json", V)
    assert main([command, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: covariance matrix is not positive definite\n"


class TestReconstruct2:
    def test_known_quadruple(self, tmp_path, capsys):
        assert main(["reconstruct2", "--m1", "2", "--m2", "2", "--k1", "1", "--k2", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        V = np.asarray(doc["data"]).reshape(4, 4)
        assert np.abs(V - gm.reconstruct_two_mode(2.0, 2.0, 1.0, 3.0)).max() < 1e-12

    def test_unsorted_exits_two(self, capsys):
        assert main(["reconstruct2", "--m1", "3", "--m2", "2", "--k1", "1", "--k2", "3"]) == 2
        capsys.readouterr()

    def test_incompatible_exits_one(self, capsys):
        assert main(["reconstruct2", "--m1", "1", "--m2", "1", "--k1", "1", "--k2", "3"]) == 1
        capsys.readouterr()

    def test_far_scale_exits_zero(self, capsys):
        """The known quadruple times 1e160, where kappa^2 is past the largest double."""
        argv = ["reconstruct2", "--m1", "2e160", "--m2", "2e160", "--k1", "1e160", "--k2", "3e160"]
        assert main(argv) == 0
        V = np.asarray(json.loads(capsys.readouterr().out)["data"]).reshape(4, 4)
        # a double root: the couplings are only good to about sqrt(eps)
        assert np.abs(V / 1e160 - gm.reconstruct_two_mode(2.0, 2.0, 1.0, 3.0)).max() < 1e-7


class TestRandomCommand:
    def test_deterministic_and_loadable(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["random", "--modes", "3", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["random", "--modes", "3", "--seed", "7", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        V = np.asarray(doc["data"]).reshape(6, 6)
        expect, _, _ = gm.random_state(3, seed=7)
        assert np.abs(V - expect).max() < 1e-15
        # and the generated matrix feeds straight back into decompose
        assert main(["decompose", str(out1)]) == 0
        capsys.readouterr()

    def test_bad_range_exits_two(self, capsys):
        assert main(["random", "--modes", "2", "--seed", "1", "--kappa-min", "0.2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--modes", "0"], "error: mode count must be a positive integer\n"),
            (["--modes", "2", "--kappa-min", "0.5"], "error: the lower end of kappa_range must be at least 1\n"),
            (["--modes", "2", "--kappa-min", "3", "--kappa-max", "2"],
             "error: kappa_range must be a nondecreasing interval\n"),
            (["--modes", "3", "--kappa-min", "nan"], "error: kappa_range must be a finite interval\n"),
            (["--modes", "3", "--kappa-max", "inf"], "error: kappa_range must be a finite interval\n"),
            (["--modes", "3", "--kappa-max", "nan"], "error: kappa_range must be a finite interval\n"),
        ],
        ids=["modes-0", "kappa-min-0.5", "kappa-max-below-min",
             "kappa-min-nan", "kappa-max-inf", "kappa-max-nan"],
    )
    def test_argument_error_message(self, capsys, argv, err):
        assert main(["random", "--seed", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


HUGE = "9" * 400  # a JSON integer too large for a float


def run(capsys, argv):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputErrors:
    """Each rejected input exits with its code and prints one stderr line."""

    @pytest.mark.parametrize(
        "text, err",
        [
            ('{"vals": [1]}', "expected an object with a 'values' field"),
            ('{"values": []}', "'values' must be a nonempty list"),
            ('{"values": [1, true]}', "entries must be finite reals"),
            ('{"values": [1, Infinity]}', "entries must be finite reals"),
            ('{"values": [1, 0]}', "spectral parameters must be positive finite reals"),
            ('{"values": [1, %s]}' % HUGE, "an entry is too large for a float"),
        ],
        ids=["no-values", "empty", "bool", "infinity", "zero", "huge-integer"],
    )
    def test_vector_file(self, tmp_path, capsys, text, err):
        g = write_vector(tmp_path / "g.json", [1.0, 2.0])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(capsys, ["check", g, str(bad)]) == (2, "", f"error: {bad}: {err}\n")

    @pytest.mark.parametrize(
        "text, err",
        [
            ('{"data": [1, 0, 0, 1]}', "expected an object with 'n' and 'data' fields"),
            ('{"n": 1}', "expected an object with 'n' and 'data' fields"),
            ('{"n": true, "data": [1]}', "'n' must be a positive integer"),
            ('{"n": 0, "data": []}', "'n' must be a positive integer"),
            ('{"n": 1, "data": [NaN, 0, 0, 1]}', "entries must be finite reals"),
            ('{"n": 1, "data": [%s, 0, 0, 1]}' % HUGE, "an entry is too large for a float"),
        ],
        ids=["no-n", "no-data", "n-true", "n-zero", "nan", "huge-integer"],
    )
    def test_matrix_file(self, tmp_path, capsys, text, err):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(capsys, ["decompose", str(bad)]) == (2, "", f"error: {bad}: {err}\n")

    def test_integer_past_the_int_string_limit_names_the_file(self, tmp_path, capsys):
        # json.load raises a plain ValueError (not a JSONDecodeError) for an
        # integer longer than Python's int-string limit of 4300 digits
        g = write_vector(tmp_path / "g.json", [1.0, 2.0])
        bad = tmp_path / "bad.json"
        bad.write_text('{"values": [1, %s]}' % ("9" * 5000))
        code, out, err = run(capsys, ["check", g, str(bad)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["check", "g.json", "l3.json"], "expected two equal-length, nonempty vectors"),
            (["synthesize", "g.json", "l3.json", "out.json"], "expected two equal-length, nonempty vectors"),
            (["reconstruct2", "--m1", "3", "--m2", "2", "--k1", "1", "--k2", "3"],
             "expected sorted pairs: m1 <= m2 and kappa1 <= kappa2"),
            (["reconstruct2", "--m1", "nan", "--m2", "2", "--k1", "1", "--k2", "1.5"],
             "spectral parameters must be positive finite reals"),
        ],
        ids=["check-lengths", "synthesize-lengths", "reconstruct2-unsorted", "reconstruct2-nan"],
    )
    def test_rules_left_to_the_library(self, tmp_path, capsys, monkeypatch, argv, err):
        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path / "g.json", [1.0, 2.0])
        write_vector(tmp_path / "l3.json", [1.0, 1.0, 1.0])
        assert run(capsys, argv) == (2, "", f"error: {err}\n")
        assert not (tmp_path / "out.json").exists()

    def test_unwritable_output(self, tmp_path, capsys):
        g = write_vector(tmp_path / "g.json", [1.0, 2.0])
        out = tmp_path / "absent" / "out.json"
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'"
        assert run(capsys, ["synthesize", g, g, str(out)]) == (2, "", f"error: cannot write {out}: {reason}\n")

    def test_empty_output_path_is_a_file_name(self, tmp_path, capsys, monkeypatch):
        """--out '' names a file, which cannot be opened; it does not mean stdout."""
        monkeypatch.chdir(tmp_path)
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"
        argv = ["reconstruct2", "--m1", "2", "--m2", "2", "--k1", "1", "--k2", "3", "--out", ""]
        assert run(capsys, argv) == (2, "", f"error: cannot write : {reason}\n")

    @pytest.mark.parametrize("exc", [NumericalError, InfeasibleRedistributionError])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch, exc):
        def failing_synthesize(kappa, m):
            raise exc("injected")

        monkeypatch.setattr("gmarginal.cli.synthesize", failing_synthesize)
        g = write_vector(tmp_path / "g.json", [1.0, 2.0])
        out = tmp_path / "out.json"
        assert run(capsys, ["synthesize", g, g, str(out)]) == (3, "", "numerical failure: injected\n")
        assert not out.exists()

    def test_dumps_rejects_non_finite(self):
        with pytest.raises(NumericalError, match="^cannot serialize a non-finite number$"):
            dumps({"x": [1.0, float("nan")]})

    def test_dumps_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
            dumps({"x": [1.0, object()]})


def child_env():
    """Environment for a child interpreter that imports the package the tests import."""
    pkg_root = os.path.dirname(os.path.dirname(gm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return env


def test_entry_point_subprocess(tmp_path):
    """The installed console script behaves like main()."""
    env = child_env()
    g = tmp_path / "g.json"
    l = tmp_path / "l.json"
    g.write_text(json.dumps({"values": [1.0, 2.0]}))
    l.write_text(json.dumps({"values": [1.5, 1.5]}))
    proc = subprocess.run(
        [sys.executable, "-m", "gmarginal", "check", str(g), str(l)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["compatible"] is True


def test_entry_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys):
    """The console-script function reads sys.argv and exits with main()'s code."""
    g = write_vector(tmp_path / "g.json", SEVEN_KAPPA)
    l = write_vector(tmp_path / "l.json", SEVEN_M)
    # swapping the two vectors breaks the first partial sum
    for argv, code in ((["check", g, l], 0), (["check", l, g], 1)):
        monkeypatch.setattr(sys, "argv", ["gmarginal", *argv])
        with pytest.raises(SystemExit) as info:
            entry()
        assert info.value.code == code
        assert main(argv) == code


def test_cli_import_pulls_in_no_scipy():
    """Start-up cost guard: importing the CLI loads NumPy but no SciPy module."""
    code = "import sys, gmarginal.cli; print(*[k for k in sys.modules if k.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
