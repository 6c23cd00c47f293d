"""Compare a parent's benchmark records with a change's.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records ``run.py --out`` wrote, any number of
seeds per workload.  Records are refused (exit 2) unless every one of a
workload has the same inputs, run length, tracing and host fingerprint.
For each workload and end-to-end metric the table gives both sides'
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``.  Modeled outputs (simulated time, link bytes, wire
ratio, loss) repeat exactly for a seed, so they are compared seed by
seed and any difference is reported.  The exit code is 1 when a metric
regressed or a modeled output changed.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Any, Dict, List

import measure
from run import MODELED_UNITS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["end_to_end"]
    regressed = False
    for workload in sorted(set(base) & set(change)):
        records = base[workload] + change[workload]
        try:
            for record in records[1:]:
                measure.check_comparable(records[0], record)
        except measure.IncomparableResults as exc:
            print(f"{workload}: refusing to compare: {exc}", file=sys.stderr)
            return 2
        print(f"{workload}: {len(base[workload])} parent runs, {len(change[workload])} change runs")
        for spec in specs:
            name = spec["name"]
            b = [r["figures"][name] for r in base[workload] if name in r["figures"]]
            c = [r["figures"][name] for r in change[workload] if name in r["figures"]]
            if not b or not c:
                continue
            sb, sc = measure.summarize(b), measure.summarize(c)
            result = measure.verdict(b, c, spec["better"], spec["bound"])
            regressed |= result == "regressed"
            print(
                f"  {name:12s} parent {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}]"
                f"  change {sc['median']:.6g} [{sc['q1']:.6g}, {sc['q3']:.6g}]"
                f"  {(sc['median'] - sb['median']) / sb['median']:+.2%}  bound {spec['bound']:.0%}  {result}"
            )
        for name in MODELED_UNITS:
            by_seed = {r["seed"]: r["figures"].get(name) for r in base[workload]}
            for r in change[workload]:
                before, after = by_seed.get(r["seed"]), r["figures"].get(name)
                if r["seed"] in by_seed and before != after:
                    regressed = True
                    print(f"  {name:12s} seed {r['seed']}: {before!r} -> {after!r}  CHANGED")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
