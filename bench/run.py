"""ckstab benchmark: seeded CLI workloads timed end to end, and a separate
traced pass that times every layer.

    python3 bench/run.py --workload verbs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare BEFORE_DIR AFTER_DIR

Run from the repository root.  One process, one thread and one client in
a closed loop: the next ``cli.main`` call is issued only after the last
one returned and its output was checked.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it name every metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")

# Set-up is timed in fresh child processes, once before the timed loop and
# then after any repetition that ends at least SETUP_EVERY of the run after
# the last sample, so the samples span the run; the median is reported.
SETUP_EVERY = 1 / 3
# A timed run repeats its first round, at least MIN_REPEATS times, until the
# repetition boundary nearest to the requested duration.  Every time is
# scaled to the reference speed (see hostspeed.py); each call's latency is
# the median of its repetitions, and throughput is the round's calls over
# the sum of those latencies.
MIN_REPEATS = 2
# The traced run first repeats UNTRACED_ROUNDS rounds without tracing (the
# long run that shows cache growth), then runs the first TRACED_ROUNDS
# again, each call once untraced and once traced.
UNTRACED_ROUNDS = {"verbs": 6, "suite": 1, "rank3": 1}
TRACED_ROUNDS = {"verbs": 2, "suite": 1, "rank3": 1}

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _wall(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Client:
    """Issues calls, checks their output and keeps the tallies."""

    def __init__(self, cli, digests):
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.cases = 0
        self.first_failure = None
        self.known_passed: set[str] = set()

    def run(self, argv, timer=_wall) -> float:
        """Issue one call and check it; return its time as ``timer``
        measures it (wall time by default)."""
        (code, out), dt = timer(harness.call, self.cli, argv)
        ok, cases = workloads.check(argv, code, out, self.digests)
        self.attempted += 1
        self.cases += cases
        if ok and workloads.key_of(argv) in workloads.KNOWN:
            self.known_passed.add(workloads.key_of(argv))
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or (workloads.key_of(argv), code)
        return dt


def setup_sample(root: str, workload: str, seed: int) -> float:
    """Set-up time of one fresh child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def timed_run(client: Client, stream, seconds: float, sample_setup) -> dict:
    setup_s = [sample_setup()]
    calls = next(stream)
    times: list[list[float]] = [[] for _ in calls]
    repeat_s: list[float] = []
    probe = hostspeed.Probe()
    start = last_sample = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with probe:
            for i, argv in enumerate(calls):
                times[i].append(client.run(argv, probe.timed))
        repeat_s.append(time.perf_counter() - t0)
        if len(repeat_s) == 1:
            peak = _peak_rss_mb()
        if time.perf_counter() - last_sample >= seconds * SETUP_EVERY:
            setup_s.append(sample_setup())
            last_sample = time.perf_counter()
        elapsed = time.perf_counter() - start
        if (len(repeat_s) >= MIN_REPEATS
                and elapsed + elapsed / len(repeat_s) / 2 >= seconds):
            break
    latency = [statistics.median(t) for t in times]
    value, pct = tail(latency)
    busy = sum(repeat_s)
    return {
        "metrics": {
            "ops_per_s": len(calls) / sum(latency),
            "op_p50_ms": statistics.median(latency) * 1e3,
            "op_tail_ms": value * 1e3,
            "peak_rss_mb": peak,
            "setup_s": statistics.median(setup_s),
        },
        "notes": {"repeats": len(repeat_s), "calls_per_round": len(calls),
                  "elapsed_s": elapsed, "tail_percentile": pct,
                  "wall_ops_per_s": client.attempted / busy,
                  "host_slowdown": statistics.median(probe.times) / hostspeed.REFERENCE_S,
                  "checks_per_s": client.cases / busy},
    }


def traced_run(root: str, client: Client, stream, workload: str) -> dict:
    from ckstab import filtration
    ops = [next(stream) for _ in range(UNTRACED_ROUNDS[workload])]
    cache = getattr(filtration, "_BASIS_CACHE", {})
    entries0, rss0 = len(cache), _rss_mb()
    for calls in ops:
        for argv in calls:
            client.run(argv)
    growth = _rss_mb() - rss0
    entries = len(cache) - entries0

    # Each call of the first rounds runs untraced and then traced, so the
    # two sides of the overhead are equally warm and see the same drift of
    # the host's speed.
    tr = tracer.Tracer()
    untraced_s = traced_s = 0.0
    cases = 0
    origin = time.perf_counter()
    for calls in ops[:TRACED_ROUNDS[workload]]:
        for argv in calls:
            untraced_s += client.run(argv)
            cases0 = client.cases
            with tr:
                traced_s += client.run(argv)
            cases += client.cases - cases0
            tr.call_id += 1
    metrics = tracer.summarize(tr)
    metrics["stability.identity_suite.cases"] = cases
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["memory.basis_cache_entries"] = entries
    metrics["memory.rss_growth_mb"] = growth
    out_dir = os.path.join(root, harness.WORK_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tr.write(os.path.join(out_dir, f"spans-{workload}.tsv"), origin)
    return {"metrics": metrics,
            "notes": {"spans": len(tr.spans), "traced_calls": tr.call_id,
                      "untraced_calls": sum(map(len, ops))}}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".self_share", ".hit_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ckstab benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two directories of saved results")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()

    if args.compare:
        import compare
        return compare.main(root, *args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        src = harness.source_dir(root)
    except harness.NoProgram as exc:
        print(f"error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    if args.setup_only:
        with hostspeed.Probe() as probe:
            _, seconds = probe.timed(harness.setup, root, args.workload, args.seed)
        print(seconds)
        return 0

    # Byte-compile in a child, so the first run in a checkout does not count
    # the compiler's memory in peak_rss_mb.
    subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                   check=True, timeout=170)
    digests = workloads.load_digests(DIGESTS)
    cli, stream = harness.setup(root, args.workload, args.seed)
    client = Client(cli, digests)
    if args.trace:
        res = traced_run(root, client, stream, args.workload)
        names = tracer.per_layer_names()
        units = {n: per_layer_unit(n) for n in names}
    else:
        res = timed_run(client, stream, args.seconds,
                        lambda: setup_sample(root, args.workload, args.seed))
        names = list(UNITS)
        units = UNITS
    # The calls with independently known values run once in every run, after
    # the measured part, whatever the seed draws.
    for key in workloads.KNOWN:
        client.run(key.split())
    unchecked = sorted(set(workloads.KNOWN) - client.known_passed)

    for name in names:
        print(f"{args.workload:6s} {name:48s} {res['metrics'][name]:.6g} {units[name]}")
    notes = dict(res["notes"], attempted=client.attempted, failed=client.failed,
                 failed_ratio=client.failed / client.attempted)
    if client.first_failure:
        notes["first_failure"] = client.first_failure
    if unchecked:
        notes["known_values_not_confirmed"] = unchecked
    print(f"{args.workload:6s} notes {json.dumps(notes, sort_keys=True)}")
    print(json.dumps({
        "correct": client.failed == 0 and not unchecked,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {n: {"value": res["metrics"][n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
