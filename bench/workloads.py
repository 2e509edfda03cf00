"""Seeded inputs for the three benchmark workloads, and the checks on every
call's output.

Every workload is a stream of rounds.  A round holds each (verb, model)
pair of the workload a fixed number of times, with its arguments drawn
from a finite pool by a ``random.Random(seed)`` and its order shuffled by
the same generator.  Rounds keep the mix of calls identical between runs of any
length, so medians and tails compare across seeds; the finite pools let
``digests.json`` hold the seed-commit report of every call the stream can
produce.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# The eight canonical fixtures and their ranks (the aliases p1, p2, p1xp1
# are byte-identical to halves models and are left out).
FIXTURES = {
    "p1_halves": 1, "p1_skew": 1, "p1_thirds": 1,
    "p2_halves": 2, "p2_steps": 2, "p1xp1_symmetric": 2,
    "bl1p2_halves": 2, "bl1p2_hsplit": 2,
}

SUITE_MODELS = ("p2_steps", "bl1p2_halves")
SUITE_SAMPLES = 100
SUITE_SEEDS = range(16)

# Rank-3 models, generated as JSON and resolved by bare name through
# CKS_FIXTURES.  All are reflexive, torus-maximal and within rank <= 4.
_CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
_P3 = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
_P3_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
_CUBE_RAYS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
RANK3_MODELS = {
    "p1cubed": (_CUBE_RAYS, [(_CUBE, 1, 2), (_CUBE, 1, 2)]),
    "p3_halves": (_P3_RAYS, [(_P3, 1, 2), (_P3, 1, 2)]),
    "p3_quarters": (_P3_RAYS, [(_P3, 1, 4), (_P3, 3, 4)]),
}

VERBS = ("futaki", "delta", "destabilize", "reduced-delta", "jnorm",
         "reduced-jnorm", "ding", "lct")
RANK3_KINDS = ("futaki", "delta", "destabilize", "jnorm", "reduced-jnorm",
               "reduced-jnorm-sub", "lct")

# The kinds of call on each rank-3 model and how often each is drawn per
# round.  A p1cubed call takes over a second, nearly all of it building the
# model's hulls, so a round holds one (a seeded jnorm); this keeps rounds
# short enough to repeat several times in a run.  The P^3 models hold the
# rest, p3_quarters drawn most, so that the median and the tail percentile
# fall inside the p3_quarters calls rather than between two models.
RANK3_ROUND = {"p1cubed": (("jnorm",), 1),
               "p3_halves": (RANK3_KINDS, 2),
               "p3_quarters": (RANK3_KINDS, 3)}

# Argument pools.  Zero eta is left out of lct, where the seed code raises
# on it; subtori are primitive, since non-primitive ones are rejected.
_SUBTORI = {1: ["full", "trivial"],
            2: ["full", "trivial", "1,0", "0,1", "1,1", "1,-1", "1,2", "2,1"]}
_LEVELS = ["1/2", "1", "2"]
_RANK3_VECS = ["1,0,0", "0,1,0", "0,0,1", "1,-1,2", "-1,2,0", "2,1,-1",
               "1,1,1", "-2,0,1"]
_RANK3_SUBTORI = ["1,0,0;0,1,0", "1,0,0;0,0,1", "0,1,0;0,0,1"]
_RANK3_LEVELS = ["1", "2"]


def _vectors(rank: int, nonzero: bool = False) -> list[str]:
    vecs = itertools.product(range(-2, 3), repeat=rank)
    return [",".join(map(str, v)) for v in vecs if not (nonzero and not any(v))]


def _fixture_args(verb: str, rank: int) -> list[list[str]]:
    if verb in ("futaki", "delta", "destabilize"):
        return [[]]
    if verb == "reduced-delta":
        return [[f"--subtorus={s}"] for s in _SUBTORI[rank]]
    if verb == "jnorm":
        return [[f"--xi={v}"] for v in _vectors(rank)]
    if verb == "reduced-jnorm":
        return [[f"--xi={v}", f"--subtorus={s}"]
                for v in _vectors(rank) for s in _SUBTORI[rank]]
    if verb == "ding":
        return [[f"--eta={v}"] for v in _vectors(rank, nonzero=True)]
    if verb == "lct":
        return [[f"--eta={v}", f"--level={lv}"]
                for v in _vectors(rank, nonzero=True) for lv in _LEVELS]
    raise ValueError(verb)


def _rank3_args(kind: str) -> list[list[str]]:
    if kind in ("futaki", "delta", "destabilize"):
        return [[]]
    if kind in ("jnorm", "reduced-jnorm"):
        return [[f"--xi={v}"] for v in _RANK3_VECS]
    if kind == "reduced-jnorm-sub":
        return [[f"--xi={v}", f"--subtorus={s}"]
                for v in _RANK3_VECS for s in _RANK3_SUBTORI]
    if kind == "lct":
        return [[f"--eta={v}", f"--level={lv}"]
                for v in _RANK3_VECS for lv in _RANK3_LEVELS]
    raise ValueError(kind)


@dataclass(frozen=True)
class Slot:
    """One (verb, model) position of a round and its argument pool."""

    verb: str
    model: str
    pool: tuple[tuple[str, ...], ...]


def slots(workload: str) -> list[Slot]:
    if workload == "verbs":
        return [Slot(v, m, tuple(map(tuple, _fixture_args(v, r))))
                for m, r in FIXTURES.items() for v in VERBS]
    if workload == "suite":
        pool = tuple((f"--samples={SUITE_SAMPLES}", f"--seed={s}")
                     for s in SUITE_SEEDS)
        return [Slot("verify", m, pool) for m in SUITE_MODELS]
    if workload == "rank3":
        return [Slot(k.replace("-sub", ""), m, tuple(map(tuple, _rank3_args(k))))
                for m, (kinds, draws) in RANK3_ROUND.items()
                for k in kinds for _ in range(draws)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verbs", "suite", "rank3")


def models(workload: str) -> list[str]:
    return sorted({s.model for s in slots(workload)})


def argv_of(slot: Slot, args) -> list[str]:
    return [slot.verb, slot.model, *args]


def rounds(workload: str, seed: int):
    """Endless seeded stream of rounds; each round is a list of argv."""
    rng = random.Random(f"{workload}:{seed}")
    layout = slots(workload)
    while True:
        calls = [argv_of(s, rng.choice(s.pool)) for s in layout]
        rng.shuffle(calls)
        yield calls


def pool(workload: str) -> list[list[str]]:
    """Every argv the stream of ``workload`` can produce."""
    return list({key_of(argv_of(s, a)): argv_of(s, a)
                 for s in slots(workload) for a in s.pool}.values())


def write_rank3_models(directory: str) -> None:
    """Write the rank-3 models deterministically: sorted keys, two-space
    indent, "p/q" coordinates, one trailing newline."""
    os.makedirs(directory, exist_ok=True)
    for name, (rays, parts) in RANK3_MODELS.items():
        decomposition = [
            {"vertices": [[_rat(c * num, den) for c in v] for v in verts]}
            for verts, num, den in parts]
        data = {"name": name, "rank": 3, "rays": rays,
                "decomposition": decomposition}
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        path = os.path.join(directory, f"{name}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() == text:
                    continue
        except FileNotFoundError:
            pass
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)


def _rat(num: int, den: int) -> str:
    x = Fraction(num, den)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# output checks


def key_of(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Values known independently of the stored digests: the README examples and
# the rank-3 test of the test suite.
KNOWN = {
    "delta bl1p2_halves": lambda r: (r["delta"]["value"] == "6/7"
                                     and r["witness"] == [1, 1]),
    "ding bl1p2_halves --eta=1,1": lambda r: r["ding"]["value"] == "-1/6",
    "delta p1cubed": lambda r: (r["delta"]["value"] == "1"
                                and r["witness"] == [-1, 0, 0]),
}


def load_digests(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(argv: list[str], code, out: str, digests: dict[str, str]) -> tuple[bool, int]:
    """Whether one call's output is right, and how many identity-suite
    cases it checked.  ``code`` is None when the call raised."""
    if code != 0:
        return False, 0
    key = key_of(argv)
    if digests.get(key) != digest(out):
        return False, 0
    cases = 0
    if argv[0] == "verify" or key in KNOWN:
        report = json.loads(out)["report"]
        if key in KNOWN and not KNOWN[key](report):
            return False, 0
        if argv[0] == "verify":
            if report["suite"]["failed"] != 0:
                return False, 0
            cases = sum(report["suite"]["cases"].values())
    return True, cases
