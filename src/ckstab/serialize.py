"""JSON interchange: rationals as "p/q" strings, models, polytopes,
filtrations, and canonical report rendering.

Nothing in this module ever produces or accepts floating point.  Canonical
output has sorted keys and a fixed rational rendering, so byte equality is
meaningful for regression and determinism checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from .errors import InputError
from .geometry import ExactPolytope, HalfSpace, Vec
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


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise ParseError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ParseError("floating point input rejected; use \"p/q\" strings")
    if not isinstance(text, str):
        raise ParseError(f"expected a rational, got {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}: zero denominator") from exc


def format_vec(v: Sequence) -> list[str]:
    return [format_rational(Fraction(x)) for x in v]


def parse_vec(data) -> Vec:
    if not isinstance(data, (list, tuple)):
        raise ParseError(f"expected a vector, got {data!r}")
    return tuple(parse_rational(x) for x in data)


# ---------------------------------------------------------------------------
# polytopes


def polytope_to_json(p: ExactPolytope) -> dict:
    return {"vertices": [format_vec(v) for v in p.vertices]}


def polytope_from_json(data) -> ExactPolytope:
    if not isinstance(data, dict):
        raise ParseError(f"polytope fragment must be an object, got {data!r}")
    if "vertices" in data:
        verts = [parse_vec(v) for v in _list(data["vertices"], "vertices")]
        return ExactPolytope.from_vertices(verts)
    if "halfspaces" in data:
        hs = []
        rank = None
        for item in _list(data["halfspaces"], "halfspaces"):
            normal = item.get("normal") if isinstance(item, dict) else None
            if not isinstance(normal, list) or not all(
                    isinstance(c, int) for c in normal) or "offset" not in item:
                raise ParseError("a half-space needs an integral 'normal' list "
                                 f"and an 'offset': {item!r}")
            hs.append(HalfSpace.make(tuple(normal), parse_rational(item["offset"])))
            rank = len(normal)
        return ExactPolytope.from_halfspaces(hs, rank)
    raise ParseError("polytope fragment needs 'vertices' or 'halfspaces'")


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {value!r}")
    return value


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
    rays = data["rays"]
    if not isinstance(rays, list) or not all(
            isinstance(r, list) and all(isinstance(c, int) for c in r)
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
# filtrations


def filtration_to_json(f) -> dict:
    from .filtration import ValuationDescriptor
    d = f.descriptor
    if isinstance(d, ValuationDescriptor):
        out = {"kind": "toric_valuation", "eta": format_vec(d.eta)}
        if d.shift != 0:
            out["shift"] = format_rational(d.shift)
        if all(x == 0 for x in d.eta) and d.shift == 0:
            return {"kind": "trivial"}
        return out
    degrees = {}
    for m, row in sorted(f.weights.items()):
        degrees[str(m)] = {
            ",".join(str(c) for c in a): format_rational(w)
            for a, w in sorted(row.items())}
    return {"kind": "table", "degrees": degrees}


def filtration_from_json(data, basis):
    from .filtration import (construct, shift, trivial_filtration,
                             valuation_filtration)
    kind = data.get("kind")
    if kind == "trivial":
        return trivial_filtration(basis)
    if kind == "toric_valuation":
        f = valuation_filtration(basis, parse_vec(data["eta"]))
        if "shift" in data:
            f = shift(f, parse_rational(data["shift"]))
        return f
    if kind == "table":
        table = {}
        for m_str, row in data["degrees"].items():
            table[int(m_str)] = {
                tuple(int(c) for c in key.split(",")): parse_rational(w)
                for key, w in row.items()}
        return construct(basis, table)
    raise ParseError(f"unknown filtration kind {kind!r}")


def family_to_json(fam) -> dict:
    return {
        "model": model_to_json(fam.model),
        "m_max": fam.degrees[-1],
        "filtrations": [filtration_to_json(f) for f in fam.members],
    }


def family_from_json(data, model: Optional[ToricFanoModel] = None,
                     model_resolver=None):
    """A family is one filtration fragment per summand plus a model given
    inline, by a resolvable name, or directly as an argument."""
    from .filtration import (FiltrationFamily, family_degree_grid,
                             graded_basis)
    if model is None:
        ref = data.get("model")
        if isinstance(ref, dict):
            model = model_from_json(ref)
        elif isinstance(ref, str) and model_resolver is not None:
            model = model_resolver(ref)
        else:
            raise ParseError("family needs an inline model, a resolver for "
                             "its name, or an explicit model argument")
    fragments = data.get("filtrations")
    if not isinstance(fragments, list) or len(fragments) != model.num_summands:
        raise ParseError("family needs one filtration per summand")
    m_max = data.get("m_max", 6)
    grid = family_degree_grid(model, m_max)
    members = []
    for i, frag in enumerate(fragments):
        basis = graded_basis(model, i, m_max=m_max, step=grid[0])
        members.append(filtration_from_json(frag, basis))
    return FiltrationFamily(model, tuple(members))


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


def assert_float_free(obj) -> None:
    """Reject any structure containing a float; used as the report lint."""
    if isinstance(obj, float):
        raise ValidationError(f"floating point literal in report: {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_float_free(k)
            assert_float_free(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            assert_float_free(v)


def canonical_json(obj) -> str:
    data = _canonicalize(obj)
    assert_float_free(data)
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
