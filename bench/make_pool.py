#!/usr/bin/env python3
"""Regenerate pool.json, the frozen instances of the exact-* workloads.

    python3 bench/make_pool.py

The pool holds one instance per category; the benchmark's seed moves it
rigidly (see workloads.moved).  Each entry is an instance document plus its
reference objective, computed by `fqst exact` on the commit that generated
the pool and checked with `fqst check`.  The benchmark compares every later `exact` output against
these references, so regenerate the pool only together with a change that is
meant to alter exact objectives.

Instances are drawn from a fixed generator seed: sources and sink uniform in
[0, 5]^2, supplies 1 (unit) or uniform in [0.5, 3] (mixed).  The
node-weighted category keeps only a draw with c in [2, 8] whose bead-vector
space is fixed: Steiner budget exactly NODE_WEIGHTED_BUDGET, a per-edge bead
cap that does not bind (cap >= budget), and a path lower bound that cuts no
bead total (c*k + Q/(n+k+1) < objective for every k <= budget, Q the summed
squared source-sink distances).  Exact-search time grows steeply with the
budget (about 0.2 s at budget 4, 1.3 s at 7 and 9 s at 11 on a 2 GHz Xeon)
and halves when the bound cuts totals.  Smaller c gives larger budgets and is
left out only for run length.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
from pathlib import Path

from run import import_cli, run_command
from workloads import POOL_PATH, instance_document

GENERATOR_SEED = "fqst-bench-pool-1"
NODE_WEIGHTED_BUDGET = 7

# category: (sources, strategy or None for node-weighted, unit supplies)
CATEGORIES = {
    "d3-unit": (5, {"degree_bound": 3}, True),
    "d3-mixed": (5, {"degree_bound": 3}, False),
    "d4-unit": (6, {"degree_bound": 4}, True),
    "d4-mixed": (6, {"degree_bound": 4}, False),
    "explicit-1": (5, {"explicit_bound": 1}, True),
    "explicit-2": (5, {"explicit_bound": 2}, False),
    "explicit-3": (5, {"explicit_bound": 3}, True),
    "node-weighted": (4, None, False),
}


def _draw(rng: random.Random, n: int, strategy, unit: bool) -> dict:
    if strategy is not None:
        return instance_document(rng, n, unit, strategy)
    from fqst import analysis, documents

    while True:
        c = round(rng.uniform(2.0, 8.0), 3)
        doc = instance_document(rng, n, unit, {"node_weighted": c})
        instance = documents.parse_instance_document(doc).instance
        terminals = [*instance.sources, instance.sink]
        diagonal = math.hypot(max(p.x for p in terminals) - min(p.x for p in terminals),
                              max(p.y for p in terminals) - min(p.y for p in terminals))
        cap = analysis.optimal_bead_count(instance.total_supply(), diagonal, c)
        if cap >= NODE_WEIGHTED_BUDGET == analysis.steiner_count_bound(instance, c):
            return doc


def _bound_cuts_beads(doc: dict, objective: float) -> bool:
    """Whether the path lower bound prunes some bead total of the search."""
    c, n = doc["strategy"]["node_weighted"], len(doc["sources"])
    sx, sy = doc["sink"]
    q_total = sum((x - sx) ** 2 + (y - sy) ** 2 for x, y in doc["sources"])
    return any(c * k + q_total / (n + k + 1) >= objective
               for k in range(NODE_WEIGHTED_BUDGET + 1))


def _cli(cli, argv: list[str]) -> None:
    done = run_command(cli, argv)
    if done.code != 0:
        raise SystemExit(f"fqst {' '.join(argv)} exited {done.code}: {done.stdout}{done.stderr}")


def main() -> int:
    cli = import_cli()
    rng = random.Random(GENERATOR_SEED)
    pool: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out_path = str(Path(tmp) / "in.json"), str(Path(tmp) / "out.json")
        for category, (n, strategy, unit) in CATEGORIES.items():
            while category not in pool:
                doc = _draw(rng, n, strategy, unit)
                Path(doc_path).write_text(json.dumps(doc), encoding="utf-8")
                _cli(cli, ["exact", doc_path, "-o", out_path])
                result = json.loads(Path(out_path).read_text(encoding="utf-8"))
                if strategy is None and _bound_cuts_beads(doc, result["objective"]):
                    continue
                _cli(cli, ["check", out_path])
                pool[category] = {"instance": doc, "objective": result["objective"]}
                print(category, result["objective"], flush=True)
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
