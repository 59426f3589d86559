"""Problem-file schema: JSON ingestion and canonical re-serialization.

Field names are part of the wire contract:

    dimension, field ("real" | "complex"), E, A, D (row-major nested
    arrays), tau, horizon_intervals, history, inhomogeneity.

history / inhomogeneity are lists of pieces {start, end, coeffs} where
coeffs is a list of length-n vectors (monomial coefficients in the local
variable t - start).  Complex scalars are encoded as [re, im] pairs.
"""

from __future__ import annotations

import math
import json

import numpy as np

from .errors import MalformedProblem, SingularPencil
from .model import DdaeSystem
from .piecewise import DOMAIN_RTOL, PiecewisePolynomial

REQUIRED_FIELDS = (
    "dimension",
    "E",
    "A",
    "D",
    "tau",
    "horizon_intervals",
    "history",
    "inhomogeneity",
)


def _decode_real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedProblem(f"{where}: expected a real number")
    try:
        value = float(value)
    except OverflowError:
        raise MalformedProblem(f"{where}: integer beyond the float range") from None
    if not math.isfinite(value):
        raise MalformedProblem(f"{where}: {value} is not a finite number")
    return value


def _decode_scalar(value, complex_field, where):
    if complex_field:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise MalformedProblem(f"{where}: complex entries must be [re, im] pairs")
        return complex(_decode_real(value[0], where), _decode_real(value[1], where))
    return _decode_real(value, where)


def _decode_count(value, name):
    """An integer field such as dimension; integral floats like 2.0 pass."""
    if not _decode_scalar(value, False, name).is_integer():
        raise MalformedProblem(f"{name} must be an integer, got {value!r}")
    return int(value)


def _decode_matrix(data, n, complex_field, name):
    if not isinstance(data, list) or len(data) != n:
        raise MalformedProblem(f"matrix {name} must have {n} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedProblem(f"matrix {name} row {i} must have {n} entries")
        rows.append([_decode_scalar(v, complex_field, f"{name}[{i}]") for v in row])
    dtype = complex if complex_field else float
    return np.array(rows, dtype=dtype)


def _decode_pieces(data, n, complex_field, name, lo, hi):
    if not isinstance(data, list) or not data:
        raise MalformedProblem(f"{name} must be a non-empty list of pieces")
    pieces = []
    prev_end = None
    tol = DOMAIN_RTOL * (hi - lo)
    for k, piece in enumerate(data):
        if not isinstance(piece, dict):
            raise MalformedProblem(f"{name}[{k}] must be an object")
        try:
            start = _decode_scalar(piece["start"], False, f"{name}[{k}].start")
            end = _decode_scalar(piece["end"], False, f"{name}[{k}].end")
            coeffs = piece["coeffs"]
        except KeyError as exc:
            raise MalformedProblem(f"{name}[{k}] needs start, end, coeffs") from exc
        if not end > start:
            raise MalformedProblem(f"{name}[{k}]: piece boundaries must increase")
        if prev_end is not None and abs(start - prev_end) > tol:
            raise MalformedProblem(f"{name}: pieces must be contiguous")
        prev_end = end
        if not isinstance(coeffs, list) or not coeffs:
            raise MalformedProblem(f"{name}[{k}]: coeffs must be a non-empty list")
        mat = []
        for j, vec in enumerate(coeffs):
            if not isinstance(vec, list) or len(vec) != n:
                raise MalformedProblem(
                    f"{name}[{k}].coeffs[{j}] must be a length-{n} vector"
                )
            mat.append(
                [_decode_scalar(v, complex_field, f"{name}[{k}].coeffs[{j}]") for v in vec]
            )
        pieces.append((start, end, np.array(mat)))
    if abs(pieces[0][0] - lo) > tol or abs(pieces[-1][1] - hi) > tol:
        raise MalformedProblem(f"{name} must cover [{lo}, {hi}] exactly")
    return PiecewisePolynomial(pieces, n)


def problem_from_dict(data) -> DdaeSystem:
    if not isinstance(data, dict):
        raise MalformedProblem("problem file must be a JSON object")
    missing = [k for k in REQUIRED_FIELDS if k not in data]
    if missing:
        raise MalformedProblem(f"missing fields: {', '.join(missing)}")
    field_tag = data.get("field", "real")
    if field_tag not in ("real", "complex"):
        raise MalformedProblem('field must be "real" or "complex"')
    complex_field = field_tag == "complex"
    n = _decode_count(data["dimension"], "dimension")
    tau = _decode_scalar(data["tau"], False, "tau")
    M = _decode_count(data["horizon_intervals"], "horizon_intervals")
    if n < 1 or tau <= 0 or M < 1:
        raise MalformedProblem("dimension, tau, horizon_intervals must be positive")
    E = _decode_matrix(data["E"], n, complex_field, "E")
    A = _decode_matrix(data["A"], n, complex_field, "A")
    D = _decode_matrix(data["D"], n, complex_field, "D")
    phi = _decode_pieces(data["history"], n, complex_field, "history", -tau, 0.0)
    f = _decode_pieces(
        data["inhomogeneity"], n, complex_field, "inhomogeneity", 0.0, M * tau
    )
    try:
        return DdaeSystem(
            E=E, A=A, D=D, tau=tau, horizon_intervals=M, f=f, phi=phi
        )
    except (MalformedProblem, SingularPencil):
        raise
    except Exception as exc:
        raise MalformedProblem(str(exc)) from exc


def load_problem(path) -> DdaeSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedProblem(f"cannot read problem file: {exc}") from exc
    return problem_from_dict(data)


def _encode_scalar(value, complex_field):
    if complex_field:
        value = complex(value)
        return [value.real, value.imag]
    return float(np.real(value))


def _encode_matrix(M, complex_field):
    return [[_encode_scalar(v, complex_field) for v in row] for row in np.asarray(M)]


def _encode_pieces(pp: PiecewisePolynomial, complex_field):
    out = []
    for start, end, coeffs in pp.pieces:
        out.append(
            {
                "start": float(start),
                "end": float(end),
                "coeffs": [
                    [_encode_scalar(v, complex_field) for v in vec] for vec in coeffs
                ],
            }
        )
    return out


def problem_to_dict(sys: DdaeSystem) -> dict:
    complex_field = sys.is_complex
    return {
        "dimension": sys.n,
        "field": "complex" if complex_field else "real",
        "E": _encode_matrix(sys.E, complex_field),
        "A": _encode_matrix(sys.A, complex_field),
        "D": _encode_matrix(sys.D, complex_field),
        "tau": float(sys.tau),
        "horizon_intervals": int(sys.horizon_intervals),
        "history": _encode_pieces(sys.phi, complex_field),
        "inhomogeneity": _encode_pieces(sys.f, complex_field),
    }


def dump_problem(sys: DdaeSystem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")
