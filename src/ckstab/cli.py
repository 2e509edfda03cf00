"""Command-line surface.

One verb per invocation, each declared once in ``_VERB_TABLE`` with its
handler, help line and own flags; the parsers, ``VERBS`` and the value
flags are built from it.  Each handler returns library values
(``Fraction``s, tuples, ints, ``None``), and ``serialize.canonical_json``
renders the whole run record once, each rational as its exact "p/q"
string.  ``--out`` and standard output are written from that one text;
``--format table`` renders its parsed canonical form, so a table is
exactly what ``show`` prints for the ``--out`` file.  Exit codes: 0
success, 1 input error, 2 an internal cross-check failed (a bug),
including an identity-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import CkstabError, InputError
from .filtration import ValuationDescriptor
from .geometry import Vec
from .serialize import (IoError, ParseError, canonical_json, model_from_json,
                        parse_integer, parse_json, parse_rational, parse_vec,
                        read_bytes, read_json)
from .stability import (CLOSED_FORM, SubtorusSpec, coupled_delta,
                        coupled_futaki, ding_of_descriptors,
                        find_destabilizer, identity_suite, j_twist,
                        monomial_lct, reduced_coupled_delta,
                        reduced_coupled_j, semistable_verdict)
from .toric import TOTAL, MonomialIdealSeq


# the packaged fixture corpus, beside this module
_FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_model_path(path: str) -> str:
    """The path itself, then the CKS_FIXTURES directory, then the packaged
    fixture corpus; then, for a path without the ``.json`` suffix, the
    same three with it."""
    env_dir = os.environ.get("CKS_FIXTURES")
    names = [path] if path.endswith(".json") else [path, path + ".json"]
    for name in names:
        for cand in (name, env_dir and os.path.join(env_dir, name),
                     os.path.join(_FIXTURES_DIR, name)):
            if cand and os.path.exists(cand):
                return cand
    raise IoError(f"model file not found: {names[-1]}")


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
    """An aligned key/value table of a report as parsed from its canonical
    JSON.  A null under a key ending in ``value`` is an infinite threshold
    and prints as ``+inf``; any other null, a missing witness or
    destabilizer, prints as ``none``."""
    rows: list[tuple[str, str]] = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else str(k))
        else:
            rows.append((key, _scalar(obj, "+inf" if key.endswith("value")
                                      else "none")))

    def _scalar(v, null: str) -> str:
        if isinstance(v, list):
            return "[" + ", ".join(_scalar(x, null) for x in v) + "]"
        if v is None:
            return null
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    walk(data, "")
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def _vec_arg(text: str, flag: str, rank: int) -> Vec:
    vec = parse_vec(text.split(","))
    if len(vec) != rank:
        raise ParseError(f"{flag} has {len(vec)} entries but the model has "
                         f"rank {rank}")
    return vec


# ---------------------------------------------------------------------------
# verb handlers: each returns the report dict, of library values


def _cmd_futaki(model, args) -> dict:
    fut = coupled_futaki(model)
    return {
        "per_summand": fut.per_summand,
        "total": fut.total,
        "vanishes": fut.vanishes,
    }


def _cmd_jnorm(model, args) -> dict:
    xi = _vec_arg(args.xi, "--xi", model.rank)
    index = TOTAL if args.summand is None else args.summand
    value = j_twist(model, index, xi)
    return {
        "jnorm": {"value": value, "provenance": CLOSED_FORM},
        "xi": xi,
        "summand": "total" if index == TOTAL else index,
    }


def _cmd_reduced_jnorm(model, args) -> dict:
    xi0 = _vec_arg(args.xi, "--xi", model.rank)
    sub = _parse_subtorus(args.subtorus, model.rank)
    res = reduced_coupled_j(model, xi0, sub=sub)
    return {
        "reduced_jnorm": {"value": res.value, "provenance": res.provenance},
        "argmin": res.argmin,
        "xi0": xi0,
        "subtorus": sub.basis,
    }


def _cmd_delta(model, args) -> dict:
    res = coupled_delta(model)
    return {
        "delta": {"value": res.value, "provenance": res.provenance},
        "witness": res.witness,
        "assumptions": res.assumptions,
    }


def _cmd_reduced_delta(model, args) -> dict:
    sub = _parse_subtorus(args.subtorus, model.rank)
    res = reduced_coupled_delta(model, sub)
    report = {
        "reduced_delta": {"value": res.value, "provenance": res.provenance},
        "witness": res.witness,
        "subtorus": sub.basis,
        "assumptions": res.assumptions,
    }
    if res.note:
        report["note"] = res.note
    return report


def _cmd_ding(model, args) -> dict:
    eta = _vec_arg(args.eta, "--eta", model.rank)
    slope = parse_rational(args.slope) if args.slope else Fraction(1)
    res = ding_of_descriptors(
        model, [ValuationDescriptor(eta)] * model.num_summands, slope)
    return {
        "ding": {"value": res.value, "provenance": res.provenance},
        "mu": res.mu,
        "summand_slopes": res.s_values,
        "eta": eta,
        "slope": slope,
    }


def _cmd_lct(model, args) -> dict:
    eta = _vec_arg(args.eta, "--eta", model.rank)
    level = parse_rational(args.level)
    scale = parse_rational(args.scale) if args.scale else Fraction(1)
    seq = MonomialIdealSeq.valuation_levels(eta, level)
    res = monomial_lct(model, seq, scale=scale)
    return {
        "lct": {"value": res.value, "provenance": res.provenance},
        "witness": res.witness,
        "eta": eta,
        "level": level,
        "scale": scale,
        "assumptions": res.assumptions,
    }


def _cmd_destabilize(model, args) -> dict:
    res = find_destabilizer(model)
    if res is None:
        return {"destabilizer": None}
    return {
        "destabilizer": {
            "eta": res.eta,
            "ding": {"value": res.ding.value, "provenance": res.ding.provenance},
        },
    }


def _cmd_verify(model, args) -> dict:
    started = time.monotonic()
    verdict = semistable_verdict(model)
    suite = identity_suite(model, samples=args.samples, seed=args.seed)
    print(f"suite elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    delta, fut = verdict.delta, verdict.futaki
    return {
        "assumptions": verdict.assumptions,
        "values": {
            "delta": {"value": delta.value, "provenance": delta.provenance},
            "futaki_total": {"value": fut.total, "provenance": CLOSED_FORM},
            "futaki_per_summand": {"value": fut.per_summand,
                                   "provenance": CLOSED_FORM},
        },
        "witnesses": {"delta_witness": delta.witness},
        "verdicts": {
            "semistable": verdict.semistable,
            "futaki_vanishes": fut.vanishes,
            "delta_at_least_one": delta.value >= 1,
        },
        "suite": suite.to_dict(),
        "seed": args.seed,
        "samples": args.samples,
    }


# verb: (handler, help line, {own flag: add_argument keywords}); every verb
# also takes the model, --format and --out.  ``show`` reads a stored report,
# not a model, and is added on its own
_VERB_TABLE = {
    "futaki": (_cmd_futaki, "coupled Futaki vector and verdict", {}),
    "jnorm": (_cmd_jnorm, "J norm of a twisted trivial configuration", {
        "--xi": dict(required=True, help='twist, e.g. "1/2,-3"'),
        "--summand": dict(type=int, help="summand index (default total)")}),
    "reduced-jnorm": (_cmd_reduced_jnorm, "infimum of summed J norms over twists", {
        "--xi": dict(required=True, help="base twist"),
        "--subtorus": dict(help='"v1;v2", "full" or "trivial"')}),
    "delta": (_cmd_delta, "coupled stability threshold", {}),
    "reduced-delta": (_cmd_reduced_delta, "reduced coupled stability threshold", {
        "--subtorus": dict(help='"v1;v2", "full" or "trivial"')}),
    "ding": (_cmd_ding, "coupled Ding invariant of a valuation family", {
        "--eta": dict(required=True, help="valuation direction"),
        "--slope": dict(help="slope parameter (default 1)")}),
    "lct": (_cmd_lct, "log canonical threshold of valuation ideals", {
        "--eta": dict(required=True), "--level": dict(required=True),
        "--scale": dict(help="ideal scale (default 1)")}),
    "destabilize": (_cmd_destabilize, "search for a destabilizing family", {}),
    "verify": (_cmd_verify, "run the exact identity suite", {
        "--samples": dict(type=int, default=100),
        "--seed": dict(type=int, default=0)}),
}
VERBS = {verb: handler for verb, (handler, _, _) in _VERB_TABLE.items()}


def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of the process and the subparser of each verb."""
    parser = argparse.ArgumentParser(
        prog="ckstab",
        description="Exact coupled K-stability invariants of toric Fano models")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, text, flags) in _VERB_TABLE.items():
        p = sub.add_parser(verb, help=text)
        p.add_argument("model", help="model JSON file (or fixture name)")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--out", help="also write the report to this path")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    p = sub.add_parser("show", help="render a stored report as a table")
    p.add_argument("report", help="report JSON file")
    return parser, sub.choices


# argparse takes a value that starts with "-" for a flag unless it looks like a
# plain negative number, so main() rewrites "--xi -1,2" as "--xi=-1,2" for
# each flag with a str value, one with no type.  Tokens argparse already
# reads as values stay apart, and so does the next flag.
_VALUE_FLAGS = {flag for _, _, flags in _VERB_TABLE.values()
                for flag, kwargs in flags.items() if "type" not in kwargs}
_KEEP_APART = re.compile(r"-\d+|-\d*\.\d+|--.*")


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of a command line.  A known verb's own parser reads
    the rest of it, which skips the whole parser's pass; anything it leaves
    over goes back to the whole parser, so every error is reported as that
    parser reports it."""
    verbs = _parsers()[1]
    if argv and argv[0] in verbs:
        args, rest = verbs[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in _VALUE_FLAGS and argv[i].startswith("-")
                and not _KEEP_APART.fullmatch(argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _parse(argv)
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
        # the digest reported is of the very bytes parsed, and the file
        # must still hold exactly those bytes once the verb has run
        raw = read_bytes(path)
        model = model_from_json(parse_json(raw, path), name=path)
        report = VERBS[args.verb](model, args)
        if read_bytes(path) != raw:
            raise IoError(f"input file {path} changed during the run")
        text = canonical_json({
            "command": ["ckstab", args.verb] + argv[1:],
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "version": __version__,
            "assumptions": report.get("assumptions", []),
            "report": {"model": model.name, **report},
        })
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise IoError(f"cannot write {args.out}: {exc}") from exc
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CkstabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_table(json.loads(text)["report"])
                     if args.format == "table" else text)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
