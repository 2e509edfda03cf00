"""Compare two sets of benchmark results.

Each side is a directory holding ``<workload>.jsonl``: one result object
(the last line a run prints) per line, the i-th line of both sides made
with the same seed.  For every workload and metric the report gives both
sides' medians and quartiles and the share of pairs the second side wins,
ties counting for neither.  An end-to-end metric is flagged WORSE when the
second median is worse than the first by more than the metric's bound in
BENCHMARK.json, and UNRESOLVED when the first side's own spread (quartile
distance over median) is wider than the bound, unless every run of the
second side beats every run of the first.
"""

from __future__ import annotations

import json
import os
import statistics


def _load(directory: str) -> dict[str, list[dict]]:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name[:-len(".jsonl")]] = [json.loads(line) for line in fh if line.strip()]
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound) -> tuple[float, str]:
    """(share of pairs b wins, verdict) for one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    qa, qb = _quartiles(a), _quartiles(b)
    if bound is None:
        return share, ""
    med_a, med_b = qa[1], qb[1]
    spread = (qa[2] - qa[0]) / abs(med_a) if med_a else float("inf")
    worse = sign * (med_a - med_b) / abs(med_a) if med_a else 0.0
    if all(sign * (y - x) > 0 for x in a for y in b):
        return share, "better in every run"
    if spread > bound:
        return share, "UNRESOLVED"
    if worse > bound:
        return share, "WORSE"
    if share >= 0.9 and sign * (med_b - med_a) > qa[2] - qa[0]:
        return share, "gain"
    return share, "within bound"


def main(root: str, before: str, after: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = [(m, m.get("bound")) for m in bench["end_to_end"] + bench["per_layer"]]
    a_side, b_side = _load(before), _load(after)
    flagged = 0
    print(f"{'workload':8s} {'metric':46s} {'before median [q1, q3]':>34s} "
          f"{'after median [q1, q3]':>34s} {'win':>5s}  verdict")
    for workload in sorted(set(a_side) & set(b_side)):
        for m, bound in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_side[workload] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_side[workload] if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            share, word = verdict(a, b, m["better"], bound)
            flagged += word in ("WORSE", "UNRESOLVED")
            print(f"{workload:8s} {name:46s} "
                  f"{qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{share:5.2f}  {word} {m['unit']}")
    return 1 if flagged else 0
