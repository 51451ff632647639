"""Problem files: JSON documents with exact rational entries.

Rationals are integers or strings "p/q" (q > 0 after normalization, "p"
alone allowed). Floats, NaN and +-Infinity anywhere in the document are
rejected so exactness is preserved end to end. The full grammar is
documented in the README.
On output an integer below 2^53 in magnitude is a JSON number, and every
other rational is the exact text ``linalg.rational_text`` writes.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction

from .canonical import SpectralData
from .errors import ParseError
from .linalg import RatMatrix, rational_text
from .partitions import Partition

_RATIONAL_RE = re.compile(r"^[+-]?\d+(\s*/\s*[+-]?\d+)?$")

# depth and widths cut where no short repr reaches: a short value prints in
# full, and a deep one cannot exhaust the recursion limit
_ECHO = reprlib.Repr()
_ECHO.maxlevel = _ECHO.maxlist = _ECHO.maxdict = 20
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 100


def _shown(value, limit: int = 40) -> str:
    """The repr of an offending value, cut to its first ``limit`` characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got boolean {value}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"float {_shown(value)} is not an exact rational")
    if isinstance(value, str):
        s = value.strip()
        if not _RATIONAL_RE.match(s):
            raise ParseError(f"malformed rational literal {_shown(value)}")
        try:
            if "/" not in s:
                return Fraction(int(s))
            num, den = (int(part) for part in s.split("/"))
        except ValueError:  # the regex leaves only the digit limit to fail
            raise ParseError(
                f"rational literal {_shown(value)} has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if den == 0:
            raise ParseError(f"zero denominator in {_shown(value)}")
        return Fraction(num, den)
    raise ParseError(f"cannot read {_shown(value)} as a rational")


def format_rational(x: Fraction) -> str | int:
    return _json_rational(x.numerator, x.denominator)


def _json_rational(x: int, d: int) -> str | int:
    """x / d with d > 0 in JSON: an integer below 2^53 is a number, else its exact text."""
    q, r = divmod(x, d)
    return q if not r and -(2**53) < q < 2**53 else rational_text(x, d)


def _parse_field(value, what: str) -> Fraction:
    try:
        return parse_rational(value)
    except ParseError as e:
        raise ParseError(f"in {what}: {e}") from None


def parse_matrix(obj, what: str) -> RatMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{what} must be a non-empty list of rows")
    width = len(obj[0])
    for row in obj:
        if len(row) != width:
            raise ParseError(f"{what} has rows of different lengths")
    return RatMatrix([[_parse_field(x, what) for x in row] for row in obj])


def matrix_to_json(m: RatMatrix):
    """Each entry written from its stored row integer over the row denominator."""
    return [[_json_rational(x, d) for x in row] for row, d in m.int_rows()]


def _parse_partition(obj, what: str) -> Partition:
    if not isinstance(obj, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj):
        raise ParseError(f"{what} must be a list of integers")
    try:
        return Partition(obj)
    except ValueError as e:
        raise ParseError(f"in {what}: {e}") from None


# each target list and the rational fields of its entries, which also have a segre
_TARGET = {"real": ("eigenvalue",), "complex": ("a", "b")}


def parse_target(obj) -> SpectralData:
    if not isinstance(obj, dict):
        raise ParseError("target must be an object")
    unknown = set(obj) - _TARGET.keys()
    if unknown:
        raise ParseError(f"unknown target fields: {_shown(sorted(unknown))}")
    for field in _TARGET:
        if not isinstance(obj.get(field, []), list):
            raise ParseError(f"target.{field} must be a list")
    lists = {}
    for field, names in _TARGET.items():
        keys = {*names, "segre"}
        lists[field] = []
        for i, entry in enumerate(obj.get(field, [])):
            where = f"target.{field}[{i}]"
            if not isinstance(entry, dict) or entry.keys() != keys:
                raise ParseError(f"{where} must have exactly the fields {', '.join(names)}, segre")
            lists[field].append((*(_parse_field(entry[k], f"{where}.{k}") for k in names),
                                 _parse_partition(entry["segre"], f"{where}.segre")))
    try:
        return SpectralData(**lists)
    except (ValueError, TypeError) as e:
        raise ParseError(f"in target: {e}") from None


def target_to_json(sd: SpectralData):
    return {
        field: [
            dict(zip(names, map(format_rational, entry[:-1])), segre=list(entry[-1].parts))
            for entry in getattr(sd, field)
        ]
        for field, names in _TARGET.items()
    }


@dataclass
class Problem:
    F: RatMatrix
    G: RatMatrix
    target: SpectralData
    multi_index: list | None = None
    x: list | None = None
    K2: RatMatrix | None = None
    K: RatMatrix | None = None


def _reject_floats(s: str):
    raise ParseError(f"float literal {_shown(s)} is not allowed; use \"p/q\" strings")


def load_json(text: str, where: str = ""):
    """Decode a JSON document with floats, NaN and +-Infinity rejected;
    malformed or too deeply nested text raises ParseError."""
    try:
        return json.loads(text, parse_float=_reject_floats, parse_constant=_reject_floats)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON{where}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON{where}: nesting too deep") from None
    except ValueError:  # the only other failure: an integer past the digit limit
        raise ParseError(
            f"invalid JSON{where}: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def parse_problem_text(text: str) -> Problem:
    return parse_problem(load_json(text))


def parse_problem(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    for field in ("F", "G", "target"):
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    unknown = set(doc) - {"F", "G", "target", "options", "result", "command"}
    if unknown:
        raise ParseError(f"unknown fields: {_shown(sorted(unknown))}")
    F = parse_matrix(doc["F"], "F")
    G = parse_matrix(doc["G"], "G")
    if not F.is_square():
        raise ParseError(f"F must be square, got {F.rows} x {F.cols}")
    if G.rows != F.rows:
        raise ParseError(
            f"G must have {F.rows} rows to match F, got {G.rows}"
        )
    target = parse_target(doc["target"])
    if target.n != F.rows:
        raise ParseError(f"target class has size {target.n}, state dimension is {F.rows}")
    prob = Problem(F=F, G=G, target=target)
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    unknown = set(options) - {"multi_index", "x", "K2", "K"}
    if unknown:
        raise ParseError(f"unknown option fields: {_shown(sorted(unknown))}")
    if "multi_index" in options:
        prob.multi_index = parse_multi_index_list(options["multi_index"])
    if "x" in options:
        if not isinstance(options["x"], list):
            raise ParseError("options.x must be a list of rationals")
        prob.x = [_parse_field(v, f"options.x[{i}]") for i, v in enumerate(options["x"])]
    if "K2" in options:
        prob.K2 = parse_matrix(options["K2"], "options.K2")
    if "K" in options:
        prob.K = parse_matrix(options["K"], "options.K")
        if prob.K.shape != (G.cols, F.rows):
            raise ParseError(
                f"options.K must be {G.cols} x {F.rows}, got {prob.K.rows} x {prob.K.cols}"
            )
    return prob


def parse_multi_index_list(obj):
    if not isinstance(obj, list) or not all(isinstance(b, list) for b in obj):
        raise ParseError("options.multi_index must be a list of index lists")
    out = []
    for b in obj:
        if not all(isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in b):
            raise ParseError("multi-index entries must be positive integers")
        out.append(list(b))
    return out


def parse_multi_index_spec(spec: str):
    """CLI form: per-block comma lists separated by semicolons, e.g. '2,1;1'."""
    blocks = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            raise ParseError(f"empty block in multi-index spec {_shown(spec)}")
        try:
            blocks.append([int(tok) for tok in part.split(",")])
        except ValueError:
            raise ParseError(f"malformed multi-index spec {_shown(spec)}") from None
        if any(i < 1 for i in blocks[-1]):
            raise ParseError("multi-index entries must be positive integers")
    return blocks


def parse_x_spec(spec: str):
    """CLI form: comma-separated rationals; '' is the point of a zero-dimensional chart."""
    return [_parse_field(tok, "--x") for tok in spec.split(",")] if spec else []


def problem_to_json(prob: Problem) -> dict:
    doc = {
        "F": matrix_to_json(prob.F),
        "G": matrix_to_json(prob.G),
        "target": target_to_json(prob.target),
    }
    options = {}
    if prob.multi_index is not None:
        options["multi_index"] = [list(b) for b in prob.multi_index]
    if prob.x is not None:
        options["x"] = [format_rational(v) for v in prob.x]
    if prob.K2 is not None:
        options["K2"] = matrix_to_json(prob.K2)
    if prob.K is not None:
        options["K"] = matrix_to_json(prob.K)
    if options:
        doc["options"] = options
    return doc
