"""Problem files: JSON documents with exact rational entries.

Rationals are integers or strings "p/q" of ASCII digits (q > 0 after
normalization, "p" alone allowed), read at any length by ``linalg._integer``.
Floats, NaN and +-Infinity anywhere in the document are rejected so
exactness is preserved end to end. The full grammar is in the README.
One field table gives each field its reader and writer; the command line reads its flags
and writes its results through it too, its machine output by ``document_text``, in the bytes
of ``json.dumps`` with indent 2. On output an integer below 2^53 in magnitude is a JSON number,
and every other rational is ``linalg.rational_text``'s exact text, so every document reads back.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm

from .canonical import SpectralData
from .errors import ParseError
from .linalg import RatMatrix, _cut, _decimal, _integer, _lowest, rational_text
from .partitions import Partition

_INTEGER = "[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER)
_RATIONAL_RE = re.compile(rf"({_INTEGER})(?:\s*/\s*({_INTEGER}))?")

# depth and widths cut where no short repr reaches: a short value prints in
# full, and a deep one cannot exhaust the recursion limit
_ECHO = reprlib.Repr()
_ECHO.maxlevel = _ECHO.maxlist = _ECHO.maxdict = 20
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 100
_ECHO.repr_int = lambda x, level: _decimal(x)  # at any length; _cut shortens it


def _shown(value) -> str:
    """The repr of an offending value, cut to its first 40 characters."""
    return _cut(_ECHO.repr(value))


def _rational(value) -> tuple[int, int]:
    """A rational literal as (numerator, nonzero denominator) ints, not reduced."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got boolean {value}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise ParseError(f"float {_shown(value)} is not an exact rational")
    if not isinstance(value, str):
        raise ParseError(f"cannot read {_shown(value)} as a rational")
    literal = _RATIONAL_RE.fullmatch(value.strip())
    if not literal:
        raise ParseError(f"malformed rational literal {_shown(value)}")
    num, den = literal.groups()
    den = _integer(den) if den else 1
    if den == 0:
        raise ParseError(f"zero denominator in {_shown(value)}")
    return _integer(num), den


def format_rational(x: Fraction) -> str | int:
    return _json_rational(x.numerator, x.denominator)


def _json_rational(x: int, d: int) -> str | int:
    """x / d with d > 0 in JSON: an integer below 2^53 is a number, else its exact text."""
    q, r = divmod(x, d)
    return q if not r and -(2**53) < q < 2**53 else rational_text(x, d)


def _parse_field(value, what: str) -> Fraction:
    try:
        return Fraction(*_rational(value))
    except ParseError as e:
        raise ParseError(f"in {what}: {e}") from None


def _matrix(obj, what: str) -> RatMatrix:
    """Each row read as integers over the lcm of its denominators, wrapped once."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{what} must be a non-empty list of rows")
    width = len(obj[0])
    if any(len(row) != width for row in obj):
        raise ParseError(f"{what} has rows of different lengths")
    num, den = [], []
    try:
        for row in obj:
            pairs = [_rational(x) for x in row]
            d = lcm(*[q for _, q in pairs])
            num.append([p * (d // q) for p, q in pairs])
            den.append(d)
    except ParseError as e:
        raise ParseError(f"in {what}: {e}") from None
    return _lowest(num, den, width)


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


def _agree(F, G=None, target=None, K=None, **_):
    """Check the fields read so far against each other. It runs after each
    field is read, so each check first runs right after the later field it reads."""
    if G is None:
        return
    if not F.is_square():
        raise ParseError(f"F must be square, got {F.rows} x {F.cols}")
    if G.rows != F.rows:
        raise ParseError(f"G must have {F.rows} rows to match F, got {G.rows}")
    if target is not None and target.n != F.rows:
        size = _cut(_decimal(target.n))
        raise ParseError(f"target class has size {size}, state dimension is {F.rows}")
    if K is not None and K.shape != (G.cols, F.rows):
        raise ParseError(f"options.K must be {G.cols} x {F.rows}, got {K.rows} x {K.cols}")


def _index_lists(obj, what: str) -> list:
    if not isinstance(obj, list) or not all(isinstance(b, list) for b in obj):
        raise ParseError(f"{what} must be a list of index lists")
    if not all(isinstance(i, int) and not isinstance(i, bool) and i >= 1 for b in obj for i in b):
        raise ParseError(f"{what} entries must be positive integers")
    return [list(b) for b in obj]


def _rationals(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{what} must be a list of rationals")
    return [_parse_field(v, f"{what}[{i}]") for i, v in enumerate(obj)]


# The field table: each field of the document, top fields (all required)
# and options, with its reader, which takes the JSON value and the field's
# place for messages, and its writer, in the order both run.
_FIELDS = {
    "F": (_matrix, matrix_to_json),
    "G": (_matrix, matrix_to_json),
    "target": (lambda obj, what: parse_target(obj), target_to_json),
}
_OPTIONS = {
    "multi_index": (_index_lists, lambda mi: [list(b) for b in mi]),
    "x": (_rationals, lambda x: [format_rational(v) for v in x]),
    "K2": (_matrix, matrix_to_json),
    "K": (_matrix, matrix_to_json),
}


def _reject_floats(s: str):
    raise ParseError(f"float literal {_shown(s)} is not allowed; use \"p/q\" strings")


def load_json(text: str, where: str = ""):
    """Decode a JSON document, integers read at any length and floats, NaN and
    +-Infinity rejected; malformed or too deeply nested text raises ParseError."""
    try:
        return json.loads(text, parse_float=_reject_floats, parse_int=_integer,
                          parse_constant=_reject_floats)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON{where}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON{where}: nesting too deep") from None


def parse_problem_text(text: str) -> Problem:
    return parse_problem(load_json(text))


def parse_problem(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    for field in _FIELDS:
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    unknown = doc.keys() - _FIELDS.keys() - {"options", "result", "command"}
    if unknown:
        raise ParseError(f"unknown fields: {_shown(sorted(unknown))}")
    fields = {}
    for name, (reader, _) in _FIELDS.items():
        fields[name] = reader(doc[name], name)
        _agree(**fields)
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    unknown = options.keys() - _OPTIONS.keys()
    if unknown:
        raise ParseError(f"unknown option fields: {_shown(sorted(unknown))}")
    for name, (reader, _) in _OPTIONS.items():
        if name in options:
            fields[name] = reader(options[name], f"options.{name}")
            _agree(**fields)
    return Problem(**fields)


def read_option(name: str, value, where: str):
    """Option ``name`` read from the JSON ``value``, named ``where`` in messages."""
    return _OPTIONS[name][0](value, where)


def option_json(name: str, value):
    """Option ``name`` with the value ``value``, written as the document writes it."""
    return _OPTIONS[name][1](value)


def parse_multi_index_spec(spec: str):
    """CLI form: per-block comma lists separated by semicolons, e.g. '2,1;1'."""
    blocks = []
    for part in spec.split(";"):
        if not part.strip():
            raise ParseError(f"empty block in multi-index spec {_shown(spec)}")
        tokens = [tok.strip() for tok in part.split(",")]
        if not all(map(_INTEGER_RE.fullmatch, tokens)):
            raise ParseError(f"malformed multi-index spec {_shown(spec)}")
        blocks.append([_integer(tok) for tok in tokens])
    return _index_lists(blocks, "--multi-index")


def parse_x_spec(spec: str):
    """CLI form: comma-separated rationals; '' is the point of a zero-dimensional chart."""
    return _rationals(spec.split(","), "--x") if spec else []


def problem_to_json(prob: Problem) -> dict:
    doc = {name: writer(getattr(prob, name)) for name, (_, writer) in _FIELDS.items()}
    options = {
        name: writer(value)
        for name, (_, writer) in _OPTIONS.items()
        if (value := getattr(prob, name)) is not None
    }
    if options:
        doc["options"] = options
    return doc


# the text ``json`` writes for each scalar type a document holds
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
                bool: lambda b: "true" if b else "false"}


def document_text(doc) -> str:
    """The bytes ``json.dumps(doc, indent=2)`` writes, for exactly str, int, bool, None, list,
    tuple and str-keyed dict; all else raises TypeError, even a float, a subclass or an int key."""
    return _text(doc, "\n")


def _text(doc, indent: str) -> str:
    if (scalar := _SCALAR_TEXT.get(type(doc))) is not None:
        return scalar(doc)
    inner = indent + "  "
    if isinstance(doc, (list, tuple)):
        items = [_text(v, inner) for v in doc]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(doc, dict):  # encode_basestring_ascii raises TypeError on a non-str key
        items = [f"{encode_basestring_ascii(k)}: {_text(v, inner)}" for k, v in doc.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
