"""JSON interchange: rationals as "p/q" strings, models, polytopes, and
canonical report rendering.

Nothing in this module ever produces or accepts floating point.  Canonical
output has sorted keys and a fixed rational rendering, so byte equality is
meaningful for regression and determinism checks.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Sequence

from .errors import InputError
from .geometry import ExactPolytope, GeometryError, Vec
from .toric import ToricFanoModel, build_model


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
# decimals and exponents.
_SIGNED = r"[-+]?[0-9]+"
_INTEGER = re.compile(rf"\s*{_SIGNED}\s*")
_RATIONAL = re.compile(rf"\s*{_SIGNED}(/[0-9]+)?\s*")


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
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {text!r}: expected an integer or p/q")
    num, _, den = text.strip().partition("/")
    try:
        p, q = int(num), int(den or "1")
    except ValueError as exc:   # more digits than int() converts
        raise ParseError(f"bad rational {text!r}: {exc}") from exc
    if q == 0:
        raise ParseError(f"bad rational {text!r}: zero denominator")
    return p, q


def parse_rational(text) -> Fraction:
    return Fraction(*_ratio(text))


def format_vec(v: Sequence) -> list[str]:
    return [format_rational(Fraction(x)) for x in v]


def _ratios(data) -> list[tuple[int, int]]:
    if not isinstance(data, (list, tuple)):
        raise ParseError(f"expected a vector, got {data!r}")
    return [_ratio(x) for x in data]


def parse_vec(data) -> Vec:
    return tuple(Fraction(p, q) for p, q in _ratios(data))


def _table(rows: list[list[tuple[int, int]]]) -> tuple[int, list[tuple[int, ...]]]:
    """Rows of (numerator, denominator) pairs as integer numerators over
    one positive denominator."""
    den = math.lcm(*(q for row in rows for _, q in row))
    return den, [tuple([p * (den // q) for p, q in row]) for row in rows]


# ---------------------------------------------------------------------------
# polytopes


def polytope_to_json(p: ExactPolytope) -> dict:
    return {"vertices": [format_vec(v) for v in p.vertices]}


def polytope_from_json(data) -> ExactPolytope:
    """A polytope fragment, parsed straight into one integer table."""
    if not isinstance(data, dict):
        raise ParseError(f"polytope fragment must be an object, got {data!r}")
    if "vertices" in data:
        return ExactPolytope._from_points(*_table(
            [_ratios(v) for v in _capped(data["vertices"], "vertices")]))
    if "halfspaces" in data:
        normals, offsets = [], []
        for item in _capped(data["halfspaces"], "halfspaces"):
            normal = item.get("normal") if isinstance(item, dict) else None
            if not isinstance(normal, list) or not all(
                    type(c) is int for c in normal) or "offset" not in item:
                raise ParseError("a half-space needs an integral 'normal' list "
                                 f"and an 'offset': {item!r}")
            offsets.append([_ratio(item["offset"])])
            if not any(normal):
                raise GeometryError("half-space normal must be nonzero")
            normals.append(tuple(normal))
        den, offsets = _table(offsets)
        rank = len(normals[-1]) if normals else None
        return ExactPolytope._from_rows(
            den, [(a, c) for a, (c,) in zip(normals, offsets)], rank)
    raise ParseError("polytope fragment needs 'vertices' or 'halfspaces'")


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {value!r}")
    return value


# The most rays, and the most vertices or half-spaces per summand, a model may
# list.  Hulls enumerate C(n, rank) subsets of each list, and in rank 4 the
# polytope cut out by n half-spaces can have n(n - 3)/2 vertices, which are
# hulled again, so load time climbs steeply past this.
MAX_ENTRIES = 12


def _capped(value, key: str) -> list:
    items = _list(value, key)
    if len(items) > MAX_ENTRIES:
        raise ParseError(f"{key!r} has {len(items)} entries; "
                         f"at most {MAX_ENTRIES} are accepted")
    return items


# ---------------------------------------------------------------------------
# models


def model_to_json(model: ToricFanoModel) -> dict:
    return {
        "name": model.name,
        "rank": model.rank,
        "rays": [list(r) for r in model.rays],
        "decomposition": [polytope_to_json(p) for p in model.summands],
    }


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
    summands = [polytope_from_json(p)
                for p in _list(data["decomposition"], "decomposition")]
    return build_model(rays, summands, name=model_name)


def read_json(path: str):
    """The parsed contents of a JSON file; an unreadable file or malformed
    JSON is an input error."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
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


def _canonicalize(obj) -> Any:
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, float):
        raise ValidationError("floating point value reached the report layer")
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_canonicalize(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
