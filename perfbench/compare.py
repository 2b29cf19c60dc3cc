"""Check that two benchmark runs of one commit did identical work.

    python3 perfbench/compare.py .perfbench_out/A.json other/A.json

Compares the per-operation records both runs completed (records are in
the order of each operation's first run, which depends only on the
workload and seed, so the shorter list is a prefix of the longer one).
Latencies and run counts are ignored; every other field the two records
share (status, expansions, cost, events, failure reason, and the QCQP
iterations of traced runs) must be equal. Exits 1 on the first
difference.
"""

import json
import sys

IGNORED = {"ms", "median_ms", "samples_ms", "runs"}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(open(p).read()) for p in argv)
    if a["env"]["seed"] != b["env"]["seed"] \
            or a["report"]["workload"] != b["report"]["workload"]:
        print("runs differ in workload or seed")
        return 1
    ra, rb = a["records"], b["records"]
    n = min(len(ra), len(rb))
    for x, y in zip(ra[:n], rb[:n]):
        keys = (x.keys() & y.keys()) - IGNORED
        fx = {k: x[k] for k in keys}
        fy = {k: y[k] for k in keys}
        if fx != fy:
            print(f"operation {x['op']} differs:\n  {fx}\n  {fy}")
            return 1
    print(f"{n} operations identical ({len(ra)} and {len(rb)} recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
