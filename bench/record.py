#!/usr/bin/env python3
"""Summarise benchmark runs into one BENCH_*.json trajectory point.

    python3 bench/record.py OUT.json [RESULT.json ...]

Reads the result records bench/run.py wrote (default: every
.bench_out/result-*.json of the checkout) and writes, per workload, the
median and quartile spread of each end-to-end metric over the untraced runs
(one per seed) and the median of each per-layer metric over the traced runs.
The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4), the figure the benchmark's bounds are
checked against.  Also prints the spreads.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    summary = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / summary["median"])
    return summary


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    paths = [Path(p) for p in argv[1:]] or sorted((ROOT / ".bench_out").glob("result-*.json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    point: dict = {"environment": None, "workloads": {}}
    for record in records:
        entry = point["workloads"].setdefault(
            record["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        )
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        if record["trace"]:
            for name, value in record["per_layer"].items():
                entry["per_layer"].setdefault(name, []).append(value)
        else:
            entry["seeds"].append(record["environment"]["seed"])
            for name, value in record["end_to_end"].items():
                entry["end_to_end"].setdefault(name, []).append(value)
        env = dict(record["environment"])
        env.pop("seed")
        point["environment"] = point["environment"] or env
    for workload, entry in point["workloads"].items():
        entry["end_to_end"] = {k: summarise(v) for k, v in entry["end_to_end"].items()}
        entry["per_layer"] = {k: statistics.median(v) for k, v in entry["per_layer"].items()}
        entry["fail_ratio"] = entry["failed"] / entry["attempted"] if entry["attempted"] else None
        for name, summary in entry["end_to_end"].items():
            spread = summary.get("spread")
            spread_text = "n/a" if spread is None else f"{spread:.3f}"
            print(f"{workload:<16} {name:<12} median {summary['median']:.4f}  "
                  f"spread {spread_text}  runs {summary['runs']}")
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
