"""The benchmark's workloads: seeded inputs written as fqst JSON documents,
and the fixed command list one pass runs over them.

exact-degree and exact-beads run the frozen instances in pool.json (see
make_pool.py), which stores each one's reference objective.  The seed moves
every instance by one of the eight symmetries of the square and a
translation: all coordinates change, but no distance does, nor the bounding
box's shape, so the objective and the work of the search stay the same and
runs of different seeds are comparable.  fixed-topology builds its large
topologies from the seed directly; their cost hardly depends on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOL_PATH = BENCH_DIR / "pool.json"

BOX = 5.0  # instances are drawn in [0, BOX]^2

# The pool categories one pass runs, one instance of each.
EXACT_MIXES = {
    "exact-degree": ("d3-unit", "d3-mixed", "d4-unit", "d4-mixed"),
    "exact-beads": ("explicit-1", "explicit-2", "explicit-3", "node-weighted"),
}

# fixed-topology: (name, sources, Steiner slots or None for a full caterpillar, unit supplies)
FIXED_INSTANCES = (
    ("caterpillar-unit", 5000, None, True),
    ("caterpillar-mixed", 3000, None, False),
    ("random-tree-mixed", 3000, 1500, False),
)

WORKLOADS = ("exact-degree", "exact-beads", "fixed-topology")


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must satisfy.

    kind is the CLI subcommand; output is the file it writes (None for check,
    which prints); reference is the stored exact objective; nodes is the node
    count a rendered drawing must show.
    """

    argv: tuple[str, ...]
    kind: str
    label: str
    output: str | None = None
    reference: float | None = None
    nodes: int | None = None


def random_point(rng: random.Random) -> list[float]:
    return [rng.uniform(0.0, BOX), rng.uniform(0.0, BOX)]


def random_supplies(rng: random.Random, n: int, unit: bool) -> list[float]:
    if unit:
        return [1.0] * n
    return [round(rng.uniform(0.5, 3.0), 3) for _ in range(n)]


def instance_document(rng: random.Random, n: int, unit: bool, strategy: dict) -> dict:
    return {
        "schema": 1,
        "sources": [random_point(rng) for _ in range(n)],
        "supplies": random_supplies(rng, n, unit),
        "sink": random_point(rng),
        "strategy": strategy,
    }


def caterpillar_parents(rng: random.Random, n: int) -> list[int | None]:
    """Full degree-3 caterpillar: a spine of n-1 Steiner slots ending at the
    sink, the sources attached along it in a seeded order."""
    sink = n
    order = list(range(n))
    rng.shuffle(order)
    parents: list[int | None] = [0] * (2 * n)
    parents[sink] = None
    spine = [sink + 1 + i for i in range(n - 1)]
    parents[order[0]] = spine[0]
    for i, source in enumerate(order[1:]):
        parents[source] = spine[i]
    for i, slot in enumerate(spine):
        parents[slot] = spine[i + 1] if i + 1 < len(spine) else sink
    return parents


def random_tree_parents(rng: random.Random, n: int, n_steiner: int) -> list[int | None]:
    """Random tree with n_steiner Steiner slots, each with at least one
    in-neighbour (degree >= 2); sources may also feed other sources."""
    sink = n
    slots = [sink + 1 + i for i in range(n_steiner)]
    parents: list[int | None] = [None] * (n + 1 + n_steiner)
    for i, slot in enumerate(slots):
        parents[slot] = rng.choice([sink, *slots[:i]])
    has_child = set(parents[sink + 1:])
    sources = list(range(n))
    rng.shuffle(sources)
    childless = [slot for slot in slots if slot not in has_child]
    placed: list[int] = []
    for source, slot in zip(sources, childless):
        parents[source] = slot
        placed.append(source)
    for source in sources[len(childless):]:
        parents[source] = rng.choice([sink, *slots, *placed[-50:]])
        placed.append(source)
    return parents


def topology_document(parents: list[int | None], n: int) -> dict:
    n_steiner = len(parents) - n - 1
    return {
        "nodes": ["source"] * n + ["sink"] + ["steiner"] * n_steiner,
        "parents": parents,
    }


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def exact_command(workdir: Path, index: int, doc: dict, label: str, reference: float) -> Command:
    doc_path = _write(workdir / f"in-{index}.json", doc)
    out = str(workdir / f"out-{index}.json")
    return Command(("exact", doc_path, "-o", out), "exact", label, out, reference)


def moved(doc: dict, rng: random.Random) -> dict:
    """doc with sources and sink mapped by a symmetry of the square [0, BOX]^2
    (swap the axes or not, mirror each axis or not) and then translated by up
    to BOX along each axis."""
    swap, mirror_x, mirror_y = (rng.random() < 0.5 for _ in range(3))
    dx, dy = rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)

    def move(point: list[float]) -> list[float]:
        x, y = (point[1], point[0]) if swap else point
        return [(BOX - x if mirror_x else x) + dx, (BOX - y if mirror_y else y) + dy]

    return {**doc, "sources": [move(p) for p in doc["sources"]], "sink": move(doc["sink"])}


def _exact_commands(name: str, seed: int, workdir: Path) -> list[Command]:
    pool = load_pool()
    rng = random.Random(f"{name}/{seed}")
    commands = []
    for category in EXACT_MIXES[name]:
        entry = pool[category]
        commands.append(exact_command(workdir, len(commands), moved(entry["instance"], rng),
                                      category, entry["objective"]))
    rng.shuffle(commands)
    return commands


def fixed_commands(rng: random.Random, workdir: Path, instances=FIXED_INSTANCES) -> list[Command]:
    """solve-topology, check and render for each (name, sources, Steiner
    slots or None, unit supplies) in instances."""
    commands = []
    for name, n, n_steiner, unit in instances:
        if n_steiner is None:
            parents = caterpillar_parents(rng, n)
            strategy = {"degree_bound": 3}
        else:
            parents = random_tree_parents(rng, n, n_steiner)
            strategy = {"node_weighted": 0.5}
        doc = instance_document(rng, n, unit, strategy)
        doc["topology"] = topology_document(parents, n)
        doc_path = _write(workdir / f"in-{name}.json", doc)
        result = str(workdir / f"out-{name}.json")
        svg = str(workdir / f"out-{name}.svg")
        commands += [
            Command(("solve-topology", doc_path, "-o", result), "solve-topology", name, result),
            Command(("check", result), "check", name),
            Command(("render", result, "-o", svg), "render", name, svg, nodes=len(parents)),
        ]
    return commands


def build(name: str, seed: int, workdir: Path) -> list[Command]:
    """Write the seed's input documents under workdir; return one pass's commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name in EXACT_MIXES:
        return _exact_commands(name, seed, workdir)
    if name == "fixed-topology":
        return fixed_commands(random.Random(f"fixed-topology/{seed}"), workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
