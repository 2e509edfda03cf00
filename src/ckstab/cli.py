"""Command-line surface.

One verb per invocation; every report is canonical JSON (or an aligned
text table) with all numbers rendered as exact rationals.  Exit codes:
0 success, 1 input error, 2 an internal cross-check failed (a bug),
including an identity-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from . import __version__
from .errors import CkstabError, InputError
from .filtration import ValuationDescriptor, family_degree_grid
from .geometry import Vec
from .serialize import (IoError, ParseError, canonical_json, format_rational,
                        format_vec, load_model, parse_integer, parse_rational,
                        parse_vec, read_json)
from .stability import (SubtorusSpec, build_stability_report, coupled_delta,
                        coupled_futaki, ding_of_descriptors,
                        find_destabilizer, j_twist, monomial_lct,
                        reduced_coupled_delta, reduced_coupled_j)
from .toric import TOTAL, MonomialIdealSeq


@dataclass
class RunRecord:
    """What was run, on what input, producing which report."""

    command: list[str]
    input_sha256: Optional[str]
    report: dict
    version: str
    assumptions: list[str]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input_sha256": self.input_sha256,
            "version": self.version,
            "assumptions": self.assumptions,
            "report": self.report,
        }


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def resolve_model_path(path: str) -> str:
    """The path itself, then the CKS_FIXTURES directory, then the packaged
    fixture corpus."""
    if os.path.exists(path):
        return path
    env_dir = os.environ.get("CKS_FIXTURES")
    if env_dir:
        cand = os.path.join(env_dir, path)
        if os.path.exists(cand):
            return cand
    pkg_dir = resources.files("ckstab") / "fixtures"
    cand = str(pkg_dir / path)
    if os.path.exists(cand):
        return cand
    if not path.endswith(".json"):
        return resolve_model_path(path + ".json")
    raise IoError(f"model file not found: {path}")


def _parse_subtorus(text: Optional[str], rank: int) -> SubtorusSpec:
    if text is None or text == "full":
        return SubtorusSpec.full(rank)
    if text in ("trivial", ""):
        return SubtorusSpec.trivial()
    basis = []
    for part in text.split(";"):
        try:
            vec = tuple(parse_integer(c) for c in part.split(","))
        except ParseError as exc:
            raise ParseError(f"subtorus vector {part!r} is not integral") from exc
        if len(vec) != rank:
            raise ParseError(f"subtorus vector {part!r} has the wrong rank")
        basis.append(vec)
    return SubtorusSpec(tuple(basis))


def render_table(data: dict) -> str:
    rows: list[tuple[str, str]] = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else str(k))
        elif isinstance(obj, list):
            rows.append((key, "[" + ", ".join(_scalar(v) for v in obj) + "]"))
        else:
            rows.append((key, _scalar(obj)))

    def _scalar(v) -> str:
        if isinstance(v, list):
            return "[" + ", ".join(_scalar(x) for x in v) + "]"
        if v is None:
            return "+inf"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    walk(data, "")
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def emit_report(record: RunRecord, out_path: Optional[str]) -> str:
    text = canonical_json(record.to_dict())
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {out_path}: {exc}") from exc
    return text


def _rat(x) -> str:
    return format_rational(Fraction(x))


def _opt_rat(x) -> Optional[str]:
    return None if x is None else _rat(x)


# ``ding`` and ``destabilize`` read only the descriptors of the family's
# members, so their cost does not grow with --mmax.  The cap, and the check
# that it reaches the family's degree step, keep the arguments they accept
# those of the family the value describes.
MAX_MMAX = 12


def _mmax_arg(value: int) -> int:
    if value > MAX_MMAX:
        raise ParseError(f"--mmax {value} is above the cap of {MAX_MMAX}")
    return value


def _vec_arg(text: str, flag: str, rank: int) -> Vec:
    vec = parse_vec(text.split(","))
    if len(vec) != rank:
        raise ParseError(f"{flag} has {len(vec)} entries but the model has "
                         f"rank {rank}")
    return vec


# ---------------------------------------------------------------------------
# verb handlers: each returns the report dict


def _cmd_futaki(model, args) -> dict:
    fut = coupled_futaki(model)
    return {
        "per_summand": [format_vec(v) for v in fut.per_summand],
        "total": format_vec(fut.total),
        "vanishes": fut.vanishes,
    }


def _cmd_jnorm(model, args) -> dict:
    xi = _vec_arg(args.xi, "--xi", model.rank)
    index = TOTAL if args.summand is None else args.summand
    value = j_twist(model, index, xi)
    return {
        "jnorm": {"value": _rat(value), "provenance": "closed-form"},
        "xi": format_vec(xi),
        "summand": "total" if index == TOTAL else index,
    }


def _cmd_reduced_jnorm(model, args) -> dict:
    xi0 = _vec_arg(args.xi, "--xi", model.rank)
    sub = _parse_subtorus(args.subtorus, model.rank)
    res = reduced_coupled_j(model, xi0, sub=sub)
    return {
        "reduced_jnorm": {"value": _rat(res.value), "provenance": res.provenance},
        "argmin": format_vec(res.argmin),
        "xi0": format_vec(xi0),
        "subtorus": [list(v) for v in sub.basis],
    }


def _cmd_delta(model, args) -> dict:
    res = coupled_delta(model)
    return {
        "delta": {"value": _rat(res.value), "provenance": res.provenance},
        "witness": list(res.witness),
        "assumptions": list(res.assumptions),
    }


def _cmd_reduced_delta(model, args) -> dict:
    sub = _parse_subtorus(args.subtorus, model.rank)
    res = reduced_coupled_delta(model, sub)
    report = {
        "reduced_delta": {"value": _opt_rat(res.value),
                          "provenance": res.provenance},
        "witness": None if res.witness is None else list(res.witness),
        "subtorus": [list(v) for v in sub.basis],
        "assumptions": list(res.assumptions),
    }
    if res.note:
        report["note"] = res.note
    return report


def _cmd_ding(model, args) -> dict:
    eta = _vec_arg(args.eta, "--eta", model.rank)
    slope = parse_rational(args.slope) if args.slope else Fraction(1)
    # the value reads no table, but the cap must suit the family's grid
    family_degree_grid(model, _mmax_arg(args.mmax))
    res = ding_of_descriptors(
        model, [ValuationDescriptor(eta)] * model.num_summands, slope)
    return {
        "ding": {"value": _rat(res.value), "provenance": res.provenance},
        "mu": _rat(res.mu),
        "summand_slopes": [_rat(s) for s in res.s_values],
        "eta": format_vec(eta),
        "slope": _rat(slope),
    }


def _cmd_lct(model, args) -> dict:
    eta = _vec_arg(args.eta, "--eta", model.rank)
    level = parse_rational(args.level)
    scale = parse_rational(args.scale) if args.scale else Fraction(1)
    seq = MonomialIdealSeq.valuation_levels(eta, level)
    res = monomial_lct(model, seq, scale=scale)
    return {
        "lct": {"value": _opt_rat(res.value), "provenance": res.provenance},
        "witness": None if res.witness is None else list(res.witness),
        "eta": format_vec(eta),
        "level": _rat(level),
        "scale": _rat(scale),
        "assumptions": list(res.assumptions),
    }


def _cmd_destabilize(model, args) -> dict:
    res = find_destabilizer(model, m_max=_mmax_arg(args.mmax))
    if res is None:
        return {"destabilizer": None}
    return {
        "destabilizer": {
            "eta": list(res.eta),
            "ding": {"value": _rat(res.ding.value),
                     "provenance": res.ding.provenance},
        },
    }


def _cmd_verify(model, args) -> dict:
    rep = build_stability_report(model, samples=args.samples, seed=args.seed)
    print(f"suite elapsed: {rep.elapsed_seconds:.3f}s", file=sys.stderr)
    data = rep.to_dict()
    del data["model"]   # re-attached by the record wrapper
    return data


VERBS = {
    "futaki": _cmd_futaki,
    "jnorm": _cmd_jnorm,
    "reduced-jnorm": _cmd_reduced_jnorm,
    "delta": _cmd_delta,
    "reduced-delta": _cmd_reduced_delta,
    "ding": _cmd_ding,
    "lct": _cmd_lct,
    "destabilize": _cmd_destabilize,
    "verify": _cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ckstab",
        description="Exact coupled K-stability invariants of toric Fano models")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("model", help="model JSON file (or fixture name)")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--out", help="also write the report to this path")

    p = sub.add_parser("futaki", help="coupled Futaki vector and verdict")
    common(p)
    p = sub.add_parser("jnorm", help="J norm of a twisted trivial configuration")
    common(p)
    p.add_argument("--xi", required=True, help='twist, e.g. "1/2,-3"')
    p.add_argument("--summand", type=int, help="summand index (default total)")
    p = sub.add_parser("reduced-jnorm", help="infimum of summed J norms over twists")
    common(p)
    p.add_argument("--xi", required=True, help="base twist")
    p.add_argument("--subtorus", help='"v1;v2", "full" or "trivial"')
    p = sub.add_parser("delta", help="coupled stability threshold")
    common(p)
    p = sub.add_parser("reduced-delta", help="reduced coupled stability threshold")
    common(p)
    p.add_argument("--subtorus", help='"v1;v2", "full" or "trivial"')
    p = sub.add_parser("ding", help="coupled Ding invariant of a valuation family")
    common(p)
    p.add_argument("--eta", required=True, help="valuation direction")
    p.add_argument("--slope", help="slope parameter (default 1)")
    p.add_argument("--mmax", type=int, default=6)
    p = sub.add_parser("lct", help="log canonical threshold of valuation ideals")
    common(p)
    p.add_argument("--eta", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--scale", help="ideal scale (default 1)")
    p = sub.add_parser("destabilize", help="search for a destabilizing family")
    common(p)
    p.add_argument("--mmax", type=int, default=6)
    p = sub.add_parser("verify", help="run the exact identity suite")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("show", help="render a stored report as a table")
    p.add_argument("report", help="report JSON file")
    return parser


# argparse takes a value that starts with "-" for a flag unless it looks like a
# plain negative number, so main() rewrites "--xi -1,2" as "--xi=-1,2".  Tokens
# argparse already reads as values stay apart, and so does the next flag.
_VALUE_FLAGS = ("--xi", "--eta", "--subtorus", "--level", "--slope", "--scale")
_KEEP_APART = re.compile(r"-\d+|-\d*\.\d+|--.*")


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in _VALUE_FLAGS and argv[i].startswith("-")
                and not _KEEP_APART.fullmatch(argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    started = time.monotonic()
    try:
        if args.verb == "show":
            data = read_json(args.report)
            if not isinstance(data, dict):
                raise ParseError(f"{args.report}: a report must be a JSON object")
            sys.stdout.write(render_table(data.get("report", data)))
            return 0
        path = resolve_model_path(args.model)
        digest_before = _sha256(path)
        model = load_model(path)
        report = VERBS[args.verb](model, args)
        if _sha256(path) != digest_before:
            raise IoError(f"input file {path} changed during the run")
        record = RunRecord(
            command=["ckstab", args.verb] + argv[1:],
            input_sha256=digest_before,
            report={"model": model.name, **report},
            version=__version__,
            assumptions=report.get("assumptions", []),
        )
        text = emit_report(record, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CkstabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if args.format == "table":
        sys.stdout.write(render_table(record.to_dict()["report"]))
    else:
        sys.stdout.write(text)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
