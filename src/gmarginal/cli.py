"""JSON-file command line interface.

Matrix files are JSON objects {"n": modes, "data": [4 n^2 reals, row-major]};
vector files are {"values": [positive reals]}.  All numeric output is printed
with 17 significant digits in a fixed field order, so equal inputs produce
byte-identical output for one NumPy/BLAS build, kernel and thread count.
Exit codes: 0 success / compatible, 1 incompatible or verification failure,
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .exceptions import (
    IncompatibleSpectraError,
    InfeasibleRedistributionError,
    NumericalError,
    UnphysicalSpectrumError,
)
from .solver import synthesize, verify
from .spectra import _above_vacuum, _within_slack, dominates, symplectic_spectrum, williamson
from .symplectic import _positive_finite, local_parameters, random_state
from .two_mode import reconstruct_two_mode


class InputError(Exception):
    """A problem with command-line arguments or input files."""


def dumps(obj) -> str:
    """Serialize to JSON with 17 significant digits and stable field order."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise NumericalError("cannot serialize a non-finite number")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # e.g. an integer past Python's int-string limit
        raise InputError(f"cannot read {path}: {exc}") from exc


def _numbers(path, values) -> np.ndarray:
    """The list of JSON numbers ``values`` as a float array.

    Raises InputError naming path for a bool, a non-number, an integer too
    large for a float, or a non-finite value (JSON's NaN and Infinity).
    """
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise InputError(f"{path}: entries must be finite reals")
    try:
        x = np.asarray(values, dtype=float)
    except OverflowError:
        raise InputError(f"{path}: an entry is too large for a float") from None
    if not np.isfinite(x).all():
        raise InputError(f"{path}: entries must be finite reals")
    return x


def _load_vector(path) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "values" not in doc:
        raise InputError(f"{path}: expected an object with a 'values' field")
    values = doc["values"]
    if not isinstance(values, list) or not values:
        raise InputError(f"{path}: 'values' must be a nonempty list")
    x = _numbers(path, values)
    try:
        return _positive_finite(x)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_matrix(path) -> np.ndarray:
    doc = _load_json(path)
    # accept a synthesize output file in place of a bare matrix, so the
    # commands compose: synthesize out.json, then decompose out.json
    if isinstance(doc, dict) and "V" in doc and "n" not in doc:
        doc = doc["V"]
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise InputError(f"{path}: expected an object with 'n' and 'data' fields")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"{path}: 'n' must be a positive integer")
    data = doc["data"]
    if not isinstance(data, list) or len(data) != 4 * n * n:
        raise InputError(f"{path}: 'data' must hold exactly 4*n^2 numbers")
    return _numbers(path, data).reshape(2 * n, 2 * n)


def _matrix_doc(M: np.ndarray) -> dict:
    return {"n": M.shape[0] // 2, "data": M.reshape(-1)}


def _emit(doc, path=None) -> None:
    """Write doc as one JSON line to the file path, or to stdout when path is None.

    The file is opened before doc is serialized, so a serialization error
    leaves it empty.
    """
    if path is None:
        sys.stdout.write(dumps(doc) + "\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def run_check(global_path, local_path) -> int:
    kappa = _load_vector(global_path)
    m = _load_vector(local_path)
    cert = dominates(kappa, m)
    physical = _above_vacuum(cert.kappa_sorted[0])
    _emit({**dataclasses.asdict(cert), "physical": physical})
    return 0 if (cert.compatible and physical) else 1


def _trace_doc(trace) -> dict:
    steps = [{k: v for k, v in dataclasses.asdict(st).items() if k != "transfer"} for st in trace.steps]
    return {"steps": steps, "stage_counts": trace.stage_counts}


def run_synthesize(global_path, local_path, out_path, trace_path=None) -> int:
    kappa = np.sort(_load_vector(global_path))
    m = np.sort(_load_vector(local_path))
    S, V, trace = synthesize(kappa, m)
    report = verify(S, kappa, m)
    _emit({"V": _matrix_doc(V), "S": _matrix_doc(S)}, out_path)
    if trace_path:
        _emit(_trace_doc(trace), trace_path)
    return 0 if report.ok else 1


def run_decompose(matrix_path) -> int:
    V = _load_matrix(matrix_path)
    kappa = symplectic_spectrum(V)
    m = local_parameters(V)
    cert = dominates(kappa, m)
    # both spectra are measured numerically from the same matrix, so the
    # verdict allows round-off in the slack signs on boundary instances
    _, compatible = _within_slack(cert)
    doc = {
        "kappa": cert.kappa_sorted,
        "m": cert.m_sorted,
        "certificate": dataclasses.asdict(dataclasses.replace(cert, compatible=compatible)),
    }
    _emit(doc)
    return 0 if compatible else 1


def run_williamson(matrix_path, out_path=None) -> int:
    V = _load_matrix(matrix_path)
    fac = williamson(V)
    doc = {"kappa": fac.kappa, "S": _matrix_doc(fac.S), "residual": fac.factor_residual}
    _emit(doc, out_path)
    return 0


def run_reconstruct2(m1, m2, k1, k2, out_path=None) -> int:
    V = reconstruct_two_mode(m1, m2, k1, k2)
    _emit(_matrix_doc(V), out_path)
    return 0


def run_random(modes, seed, kappa_min=1.0, kappa_max=4.0, out_path=None) -> int:
    V, _, _ = random_state(modes, seed, (kappa_min, kappa_max))
    _emit(_matrix_doc(V), out_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmarginal",
        description="Compatibility and synthesis of global and local Gaussian spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test compatibility of two spectral vectors")
    p.add_argument("global_file", help="vector file with global parameters")
    p.add_argument("local_file", help="vector file with local parameters")
    p.set_defaults(func=lambda a: run_check(a.global_file, a.local_file))

    p = sub.add_parser("synthesize", help="build a state realizing compatible spectra")
    p.add_argument("global_file")
    p.add_argument("local_file")
    p.add_argument("out_file", help="output file receiving V and S")
    p.add_argument("--trace", help="optional file receiving the step trace")
    p.set_defaults(func=lambda a: run_synthesize(a.global_file, a.local_file, a.out_file, a.trace))

    p = sub.add_parser("decompose", help="spectra and certificate of a covariance matrix")
    p.add_argument("matrix_file")
    p.set_defaults(func=lambda a: run_decompose(a.matrix_file))

    p = sub.add_parser("williamson", help="normal-form factorization of a covariance matrix")
    p.add_argument("matrix_file")
    p.add_argument("--out", help="write the result to this file instead of stdout")
    p.set_defaults(func=lambda a: run_williamson(a.matrix_file, a.out))

    p = sub.add_parser("reconstruct2", help="two-mode standard form from its spectra")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=lambda a: run_reconstruct2(a.m1, a.m2, a.k1, a.k2, a.out))

    p = sub.add_parser("random", help="seeded random covariance matrix, physical in exact arithmetic only")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa-min", type=float, default=1.0)
    p.add_argument("--kappa-max", type=float, default=4.0)
    p.add_argument("--out")
    p.set_defaults(func=lambda a: run_random(a.modes, a.seed, a.kappa_min, a.kappa_max, a.out))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IncompatibleSpectraError, UnphysicalSpectrumError) as exc:
        print(f"incompatible: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, InfeasibleRedistributionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
