"""JSON interchange: rationals as "p/q" strings, models, and canonical
report rendering.

Nothing in this module ever produces or accepts floating point.  Canonical
output has sorted keys and a fixed rational rendering, so byte equality is
meaningful for regression and determinism checks.  ``canonical_json``
renders a report in one recursive walk, with the bytes ``json.dumps``
would give for its plain form.  ``model_from_json`` hulls no vertex
fragment: it parses each into a point table, which ``toric`` certifies and
reads its polytope off; a half-space fragment is solved by ``_from_rows``,
and its vertices are its table.  Each distinct coordinate string of a file
is parsed once; a table is reduced to its least denominator, so equal
tables, however written, are certified once and share one polytope.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .errors import InputError
from .geometry import ExactPolytope, GeometryError, IntVec, Vec, _point_table
from .toric import ToricFanoModel, _build_model


class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


class IoError(InputError):
    pass


# ---------------------------------------------------------------------------
# rationals


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# One integer grammar, [sign]digits in ASCII with surrounding whitespace:
# int() and Fraction alone would also take underscores, non-ASCII digits,
# decimals and exponents.  A rational's groups are its numerator and its
# denominator, if written.
_SIGNED = r"[-+]?[0-9]+"
_INTEGER = re.compile(rf"\s*{_SIGNED}\s*")
_RATIONAL = re.compile(rf"\s*({_SIGNED})(?:/([0-9]+))?\s*")


def parse_integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"bad integer {text!r}: expected [sign]digits")
    try:
        return int(text)
    except ValueError as exc:   # more digits than int() converts
        raise ParseError(f"bad integer {text!r}: {exc}") from exc


def _ratio(text) -> tuple[int, int]:
    """The numerator and the positive denominator of a rational, as written
    (not reduced)."""
    if isinstance(text, bool):
        raise ParseError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return text, 1
    if isinstance(text, float):
        raise ParseError("floating point input rejected; use \"p/q\" strings")
    if not isinstance(text, str):
        raise ParseError(f"expected a rational, got {text!r}")
    # Fraction builds the whole integer of "1e10000000" before anything
    # can reject it
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ParseError(f"bad rational {text!r}: expected an integer or p/q")
    num, den = m.groups()
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError as exc:   # more digits than int() converts
        raise ParseError(f"bad rational {text!r}: {exc}") from exc
    if q == 0:
        raise ParseError(f"bad rational {text!r}: zero denominator")
    return p, q


def parse_rational(text) -> Fraction:
    return Fraction(*_ratio(text))


def _ratios(data, ratio=_ratio) -> list[tuple[int, int]]:
    if not isinstance(data, (list, tuple)):
        raise ParseError(f"expected a vector, got {data!r}")
    return [ratio(x) for x in data]


def parse_vec(data) -> Vec:
    return tuple(Fraction(p, q) for p, q in _ratios(data))


def _table(rows: list[list[tuple[int, int]]]) -> tuple[int, list[tuple[int, ...]]]:
    """Rows of (numerator, denominator) pairs as integer numerators over
    one positive denominator, the least one: a table is the same however
    its rationals are written."""
    den = math.lcm(*(q for row in rows for _, q in row))
    nums = [[p * (den // q) for p, q in row] for row in rows]
    g = math.gcd(den, *(x for row in nums for x in row))
    return den // g, [tuple([x // g for x in row]) for row in nums]


# ---------------------------------------------------------------------------
# polytopes


def _fragment(data, ratio) -> tuple[int, tuple[IntVec, ...]]:
    """The point table of a polytope fragment: the points of a vertex
    fragment over their least denominator, or the vertices of a half-space
    fragment, solved with its offsets over their least denominator; ratio
    parses each coordinate and offset."""
    if not isinstance(data, dict):
        raise ParseError(f"polytope fragment must be an object, got {data!r}")
    if "vertices" in data:
        den, nums = _table([_ratios(v, ratio)
                            for v in _capped(data["vertices"], "vertices")])
        return _point_table(den, nums)
    if "halfspaces" in data:
        normals, offsets = [], []
        for item in _capped(data["halfspaces"], "halfspaces"):
            normal = item.get("normal") if isinstance(item, dict) else None
            if not isinstance(normal, list) or not all(
                    type(c) is int for c in normal) or "offset" not in item:
                raise ParseError("a half-space needs an integral 'normal' list "
                                 f"and an 'offset': {item!r}")
            offsets.append([ratio(item["offset"])])
            if not any(normal):
                raise GeometryError("half-space normal must be nonzero")
            normals.append(tuple(normal))
        den, offsets = _table(offsets)
        rank = len(normals[-1]) if normals else None
        p = ExactPolytope._from_rows(
            den, [(a, c) for a, (c,) in zip(normals, offsets)], rank)
        return p.den, p.nums
    raise ParseError("polytope fragment needs 'vertices' or 'halfspaces'")


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {value!r}")
    return value


# The most rays, and the most vertices or half-spaces per summand, a model may
# list.  The anticanonical polytope and each half-space fragment enumerate
# C(n, rank) subsets of their lists, a summand that fails the fan
# certificate is hulled the same way over its points, and in rank 4 the
# polytope cut out by n half-spaces can have n(n - 3)/2 vertices, so load
# time climbs steeply past this.
MAX_ENTRIES = 12


def _capped(value, key: str) -> list:
    items = _list(value, key)
    if len(items) > MAX_ENTRIES:
        raise ParseError(f"{key!r} has {len(items)} entries; "
                         f"at most {MAX_ENTRIES} are accepted")
    return items


# ---------------------------------------------------------------------------
# models


def model_from_json(data, name: str = "") -> ToricFanoModel:
    if not isinstance(data, dict):
        raise ParseError("model file must contain a JSON object")
    for key in ("rank", "rays", "decomposition"):
        if key not in data:
            raise ParseError(f"model object lacks {key!r}")
    rank = data["rank"]
    # the documented scope; the subset enumerations grow like C(n, rank)
    if type(rank) is not int or not 1 <= rank <= 4:
        raise ParseError(f"rank must be an integer from 1 to 4, got {rank!r}")
    rays = _capped(data["rays"], "rays")
    if not all(
            isinstance(r, list) and all(type(c) is int for c in r)
            and len(r) == rank for r in rays):
        raise ParseError("rays must be integer vectors of the stated rank")
    model_name = data.get("name", name)
    if not isinstance(model_name, str):
        raise ParseError(f"model name must be a string, got {model_name!r}")
    # a coordinate is often written alike across a file, as in the common
    # split P = k (P / k): each distinct string is parsed once
    seen: dict[str, tuple[int, int]] = {}

    def ratio(x):
        if type(x) is not str:
            return _ratio(x)
        if x not in seen:
            seen[x] = _ratio(x)
        return seen[x]

    summands = [_fragment(p, ratio)
                for p in _list(data["decomposition"], "decomposition")]
    return _build_model(rays, summands, model_name)


def read_bytes(path: str) -> bytes:
    """The contents of a file; an unreadable file is an input error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    """The parsed contents of a JSON file; an unreadable file or malformed
    JSON is an input error."""
    return parse_json(read_bytes(path), path)


def parse_json(raw: bytes, path: str):
    """The parsed contents of the bytes read from path; malformed JSON is
    an input error that names the path."""
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} (at byte {exc.pos})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:   # huge integers, deep nesting
        raise ParseError(f"{path}: {exc}") from exc


def load_model(path: str) -> ToricFanoModel:
    return model_from_json(read_json(path), name=path)


# ---------------------------------------------------------------------------
# canonical rendering


def _render(obj, pad: str) -> str:
    """The text of obj at indentation pad, as ``json.dumps`` with sorted
    keys, an indent of 2 and ``ensure_ascii`` would write it, once each
    ``Fraction`` is its ``format_rational`` string, each key its ``str()``
    and each tuple a list.  A float raises ``ValidationError``, and any
    other type ``TypeError``, as ``json`` does.  Unlike ``json``, a subclass
    of list or tuple, such as a ``NamedTuple`` record, is such a type too:
    a record is not a report value."""
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, Fraction):
        # digits, "-" and "/" need no escape
        return f'"{format_rational(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        # every value is rendered, so a float under a key that a later
        # equal str() key replaces still raises
        items = sorted({str(k): _render(v, inner) for k, v in obj.items()}.items())
        return ("{\n" + ",\n".join([f"{inner}{_escape(k)}: {v}" for k, v in items])
                + "\n" + pad + "}")
    if type(obj) is tuple or type(obj) is list:
        if not obj:
            return "[]"
        inner = pad + "  "
        return ("[\n" + ",\n".join([inner + _render(v, inner) for v in obj])
                + "\n" + pad + "]")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        raise ValidationError("floating point value reached the report layer")
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """The canonical text of a report, in one walk: sorted keys, an indent
    of 2, ASCII only, every ``Fraction`` as its "p/q" string; no float is
    accepted."""
    return _render(obj, "") + "\n"
