"""Regenerate bench/digests.json: the digest of the canonical report of
every call the benchmark's workloads can generate.

Run from the repository root, on the commit whose reports are the
reference:

    python3 bench/make_digests.py

The whole table is rebuilt from scratch, so every digest comes from the
same commit.  Every call must exit 0; otherwise nothing is written and the
failing calls are listed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def main() -> int:
    root = os.getcwd()
    harness.prepare_environment(root)
    cli = harness.import_ckstab(root)
    workloads.write_rank3_models(os.environ["CKS_FIXTURES"])
    table = {}
    bad = []
    # The calls with independently known values run in every workload.
    known = [key.split() for key in workloads.KNOWN]
    for w in workloads.WORKLOADS:
        calls = workloads.pool(w) + known
        for i, argv in enumerate(calls):
            code, out = harness.call(cli, argv)
            if code != 0:
                bad.append(workloads.key_of(argv))
                continue
            table[workloads.key_of(argv)] = workloads.digest(out)
            if i % 100 == 0:
                print(f"{w}: {i + 1}/{len(calls)}", file=sys.stderr)
    if bad:
        print("calls that did not exit 0:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
