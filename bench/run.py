#!/usr/bin/env python3
"""fqst benchmark: drives the fqst CLI in-process over seeded workloads.

    python3 bench/run.py --workload exact-degree --seed 1 --seconds 35 --trace 0

It imports fqst from the src/ directory beside bench/ and refuses to run
(exit 2) when that is missing.

One process, one command at a time (a closed loop with a single client).  The
workload's input documents are written from the seed before timing starts,
then the workload's fixed command list runs in passes, each command through
`fqst.cli.main([...])`, until --seconds have been measured (at least
MIN_PASSES passes).  Every output is checked: exit code, `fqst check`, a
strict JSON parse, and for `exact` the stored reference objective.

The host's speed drifts, so fixed reference work (reference.py) runs between
commands and the bounded timings are divided by the host's slowdown measured
around each: they read as seconds at the reference work's nominal speed.
The raw times are printed and recorded beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (see
tracer.py) with the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record, with the environment, goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads
from tracer import COMMAND_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 4
TRACED_MIN_PASSES = 2  # traced passes, each paired with an untraced one
SETUP_SAMPLES = 9
OBJECTIVE_RTOL = 1e-9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # cmd_s.tail: the highest percentile with this many executions beyond it

# Bounded in BENCHMARK.json, in this order.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_s.slowest": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_ONLY_UNITS = {"wall_s.measured": "s", "slowdown": "x", "cmd_s.p50": "s", "cmd_s.tail": "s"}

# Per-layer metrics: name -> unit.  Every *_s value is self time (span time
# minus child spans) summed over one pass; counts are per pass.
PER_LAYER_UNITS = {
    "topology.enumerate_s": "s",
    "topology.rooted_encoding_s": "s",
    "topology.yielded": "count",
    "topology.encodings": "count",
    "topology.kept_ratio": "ratio",
    "topology.compute_flows_s": "s",
    "exact_search.total_s": "s",
    "exact_search.self_s": "s",
    "exact_search.self_us_per_examined": "us",
    "exact_search.examined": "count",
    "exact_search.pruned": "count",
    "exact_search.prune_ratio": "ratio",
    "geo_solver.solve_full_topology_s": "s",
    "geo_solver.calls": "count",
    "algebraic_solver.solve_topology_s": "s",
    "algebraic_solver.calls": "count",
    "algebraic_solver.assemble_s": "s",
    "algebraic_solver.solve_positions_s": "s",
    "algebraic_solver.max_p": "count",
    "algebraic_solver.matrix_bytes": "bytes_computed",
    "trees.build_solved_tree_s": "s",
    "analysis.certificates_s": "s",
    "analysis.lower_bound_path_s": "s",
    "analysis.lower_bound_path_calls": "count",
    "analysis.spanning_bound_s": "s",
    "analysis.expand_beads_s": "s",
    "documents.result_document_s": "s",
    "documents.dumps_s": "s",
    "documents.loads_s": "s",
    "documents.parse_instance_s": "s",
    "documents.parse_result_s": "s",
    "documents.bytes_out": "bytes",
    "render.render_svg_s": "s",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

CERTIFICATE_SPANS = (
    "analysis.centroid_deviations",
    "analysis.check_centroid_certificate",
    "analysis.check_angles",
    "analysis.check_overlapping_edges",
    "analysis.check_degree_window",
)

SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import reference\n"
    "start = time.perf_counter()\n"
    "import fqst.cli\n"
    "seconds = time.perf_counter() - start\n"
    "print(seconds, reference.slowdown())\n"
)


class BenchError(Exception):
    """The benchmark cannot run here: no program source to measure."""


@dataclass
class Execution:
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    slowdown: float = 1.0  # the host's, measured before and after the command


def import_cli():
    """fqst.cli from this checkout's src/, never from anywhere else."""
    package = SRC / "fqst"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no program source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from fqst import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"fqst was imported from {cli.__file__}, not from {package}")
    return cli


def measure_setup() -> list[tuple[float, float]]:
    """(seconds to import fqst.cli, the host's slowdown just after), each in
    a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, slowdown = done.stdout.split()[-2:]
        samples.append((float(seconds), float(slowdown)))
    return samples


def run_command(cli, argv, tracer: Tracer | None = None) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        frame = tracer.enter(tracer.name_id(COMMAND_SPAN)) if tracer else None
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported with its traceback
            error = traceback.format_exc()
        finally:
            if frame is not None:
                tracer.exit(frame)
        seconds = time.perf_counter() - start
    return Execution(seconds, code, out.getvalue(), err.getvalue() + error)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def verify(cli, command: workloads.Command, execution: Execution) -> str | None:
    """Why the command's output is wrong, or None when it is right."""
    if execution.code != 0:
        return f"exit {execution.code}: {execution.stderr.strip()[-500:]}"
    if command.kind == "check":
        if "all checks passed" not in execution.stdout:
            return f"check reported: {execution.stdout.strip()[-500:]}"
        return None
    if command.kind == "render":
        try:
            root = ElementTree.parse(command.output).getroot()
        except ElementTree.ParseError as exc:
            return f"drawing is not well-formed XML: {exc}"
        circles = sum(1 for element in root.iter() if element.tag.endswith("circle"))
        if circles != command.nodes:
            return f"drawing shows {circles} nodes, expected {command.nodes}"
        return None
    text = Path(command.output).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    if command.kind == "exact":
        objective = doc.get("objective")
        reference = command.reference
        if not isinstance(objective, (int, float)) or abs(objective - reference) > OBJECTIVE_RTOL * abs(reference):
            return f"objective {objective!r} differs from reference {reference!r}"
        check = run_command(cli, ("check", command.output))
        if check.code != 0 or "all checks passed" not in check.stdout:
            return f"fqst check fails the result: {check.stdout.strip()[-500:]} {check.stderr.strip()[-500:]}"
    return None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """One traced pass's per-layer numbers from the tracer's totals."""
    own, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    examined = counts["exact_search.examined"]
    pruned = counts["exact_search.pruned"]
    encodings = calls["topology.rooted_encoding"]
    max_p = counts["algebraic_solver.max_p"]
    return {
        "topology.enumerate_s": own["topology.enumerate"],
        "topology.rooted_encoding_s": own["topology.rooted_encoding"],
        "topology.yielded": counts["topology.yielded"],
        "topology.encodings": encodings,
        "topology.kept_ratio": _ratio(counts["topology.yielded_multi"], encodings),
        "topology.compute_flows_s": own["topology.compute_flows"],
        "exact_search.total_s": tracer.total_s["exact_search.solve_exact"],
        "exact_search.self_s": own["exact_search.solve_exact"],
        "exact_search.self_us_per_examined": 1e6 * _ratio(own["exact_search.solve_exact"], examined),
        "exact_search.examined": examined,
        "exact_search.pruned": pruned,
        "exact_search.prune_ratio": _ratio(pruned, examined + pruned),
        "geo_solver.solve_full_topology_s": own["geo_solver.solve_full_topology"],
        "geo_solver.calls": calls["geo_solver.solve_full_topology"],
        "algebraic_solver.solve_topology_s": own["algebraic_solver.solve_topology"],
        "algebraic_solver.calls": calls["algebraic_solver.solve_topology"],
        "algebraic_solver.assemble_s": own["algebraic_solver.assemble_system"],
        "algebraic_solver.solve_positions_s": own["algebraic_solver.solve_positions"],
        "algebraic_solver.max_p": max_p,
        "algebraic_solver.matrix_bytes": 8 * max_p * max_p,
        "trees.build_solved_tree_s": own["trees.build_solved_tree"],
        "analysis.certificates_s": sum(own[name] for name in CERTIFICATE_SPANS),
        "analysis.lower_bound_path_s": own["analysis.lower_bound_path"],
        "analysis.lower_bound_path_calls": calls["analysis.lower_bound_path"],
        "analysis.spanning_bound_s": own["analysis.beaded_spanning_tree"] + own["analysis.steiner_count_bound"],
        "analysis.expand_beads_s": own["analysis.expand_beads"],
        "documents.result_document_s": own["documents.result_document"],
        "documents.dumps_s": own["documents.dumps"],
        "documents.loads_s": own["documents.loads"],
        "documents.parse_instance_s": own["documents.parse_instance_document"],
        "documents.parse_result_s": own["documents.parse_result_document"],
        "documents.bytes_out": counts["documents.bytes_out"],
        "render.render_svg_s": own["render.render_svg"],
        "render.svg_bytes": counts["render.svg_bytes"],
        "cli.self_s": own[COMMAND_SPAN],
        "trace.spans": tracer.span_count - tracer.window_start,
    }


@dataclass
class Pass:
    traced: bool
    wall: float
    times: list[float]  # per command, in command-list order
    slowdowns: list[float]  # the host's, around each command
    layers: dict | None


def measure(cli, commands, seconds: float, tracer: Tracer | None):
    """Run passes over the command list until `seconds` are used up.

    Traced runs alternate untraced and traced passes, so both see the same
    stretch of machine time.  Returns the passes and every failure.
    """
    passes: list[Pass] = []
    failures: list[dict] = []
    min_passes = 2 * TRACED_MIN_PASSES if tracer else MIN_PASSES
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset_totals()
            tracer.install()
        pass_start = time.perf_counter()
        executions = []
        slowdown = reference.slowdown()
        for index, command in enumerate(commands):
            if tracer is not None:
                tracer.command_id = len(passes) * len(commands) + index
            execution = run_command(cli, command.argv, tracer if traced else None)
            after = reference.slowdown()
            execution.slowdown, slowdown = (slowdown + after) / 2.0, after
            executions.append(execution)
        wall = time.perf_counter() - pass_start
        layers = None
        if traced:
            tracer.uninstall()
            layers = layer_metrics(tracer)
        for command, execution in zip(commands, executions):
            reason = verify(cli, command, execution)
            if reason is not None:
                failures.append({"pass": len(passes), "command": command.label,
                                 "argv": list(command.argv), "reason": reason})
        passes.append(Pass(traced, wall, [e.seconds for e in executions],
                           [e.slowdown for e in executions], layers))
        if len(passes) < min_passes or (tracer is not None and len(passes) % 2):
            continue
        step = wall + (passes[-2].wall if tracer else 0.0)
        if time.perf_counter() - start + step > seconds:
            return passes, failures


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics of the given passes, and how each was taken.

    The bounded timings divide each time by the host's slowdown measured
    around it and take each command's median over the run's passes: on a
    shared machine whose speed drifts by up to 2x for minutes, that is what
    repeats from run to run.  The raw times (wall_s.measured, cmd_s.p50,
    cmd_s.tail) follow the drift and are printed, not bounded.
    """
    per_command = list(zip(*(zip(p.times, p.slowdowns) for p in passes)))
    normal = [statistics.median(t / s for t, s in samples) for samples in per_command]
    measured = [statistics.median(t for t, _ in samples) for samples in per_command]
    flat = sorted(t for p in passes for t in p.times)
    tail_rank = max(1, len(flat) - TAIL_BEYOND)
    metrics = {
        "wall_s": sum(normal),
        "cmd_s.slowest": max(normal),
        "setup_s": statistics.median(t / s for t, s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s.measured": sum(measured),
        "slowdown": statistics.median(s for p in passes for s in p.slowdowns),
        "cmd_s.p50": statistics.median(flat),
        "cmd_s.tail": flat[tail_rank - 1],
    }
    notes = {
        "wall_s": f"one pass of {len(normal)} commands, each its median over {len(passes)} passes"
                  " of time over host slowdown",
        "cmd_s.slowest": f"slowest of the {len(normal)} commands, as in wall_s",
        "setup_s": f"median of {len(setup)} fresh imports of fqst.cli, each over host slowdown",
        "peak_rss_mb": "ru_maxrss of this process",
        "wall_s.measured": "as wall_s, without dividing by the slowdown",
        "slowdown": "median host slowdown against the reference work's nominal speed",
        "cmd_s.p50": f"all executions, n={len(flat)}",
        "cmd_s.tail": f"p{100 * tail_rank / len(flat):.1f}, n={len(flat)}, {len(flat) - tail_rank} beyond",
    }
    return metrics, notes


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "fqst").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:>16.6f} {units[name]}{note}")


def run(args) -> int:
    cli = import_cli()
    setup = measure_setup()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        commands = workloads.build(args.workload, args.seed, workdir)
        run_command(cli, commands[0].argv)  # warm-up; the passes verify this command
        measure_start = time.perf_counter()
        passes, failures = measure(cli, commands, args.seconds, tracer)
        measured = time.perf_counter() - measure_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(commands) * len(passes)
    failed = len(failures)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    e2e, notes = end_to_end(plain, setup)
    env = environment(args.seed)
    print(f"fqst bench: workload {args.workload}, seed {args.seed}, {len(passes)} passes of "
          f"{len(commands)} commands in {measured:.1f} s (closed loop, one client, in-process)")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "commands": [f"{c.label} {c.kind}" for c in commands],
        "setup": [{"seconds": t, "slowdown": s} for t, s in setup],
        "passes": [{"traced": p.traced, "wall_s": p.wall, "times_s": p.times, "slowdowns": p.slowdowns}
                   for p in passes],
        "attempted": attempted, "failed": failed, "failures": failures,
    }
    if tracer is None:
        _print_metrics(e2e, END_TO_END_UNITS | PRINTED_ONLY_UNITS, notes)
        record.update(end_to_end=e2e, notes=notes)
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
    else:
        layers = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"
        }
        traced_wall = end_to_end(traced, setup)[0]["wall_s"]
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        print(f"  wall_s untraced {e2e['wall_s']:.6f} s, traced {traced_wall:.6f} s "
              f"(each command its median of {len(plain)} / {len(traced)} passes, over host slowdown)")
        print(f"per layer, per pass (median of {len(traced)} traced passes; self time for *_s):")
        _print_metrics(layers, PER_LAYER_UNITS, {})
        for name in tracer.missing:
            print(f"  note: traced function {name} not found; its layer reads 0")
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        tracer.write_spans(spans_path)
        record.update(per_layer=layers, missing_spans=tracer.missing, spans_file=spans_path.name)
        metrics = {name: {"value": layers[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
    print(f"  {'fail_ratio':<38} {failed / attempted:>16.6f} ratio  ({failed} of {attempted} commands)")
    for failure in failures[:5]:
        print(f"  FAIL pass {failure['pass']} {failure['command']}: {failure['reason']}")
    print("env: " + json.dumps(env, sort_keys=True))
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fqst end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, fixed before fqst loads numpy (and inherited by the
    # set-up probes): the dense solves would otherwise use both cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
