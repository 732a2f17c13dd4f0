"""Span tracing around the calls into fqst's modules, installed from outside.

The benchmark does not edit the program.  Instead, `Tracer.install` replaces
each traced function, at every module attribute of the `fqst` package that
refers to it, with a wrapper that records a span: name, start, end, parent span
and the id of the command that caused it.  Names a caller resolves at call
time (`from .x import f`, `x.f`, a module global) all see the wrapper, so a
call is timed whichever way it is made.  Generators are timed across their
`next()` calls only, so the consumer's work between items is not charged to
the generator.

Spans stay in memory (flat arrays) until `write_spans`.  Per-name self time
(span time minus the time covered by its child spans), inclusive time, call
counts and a few counts taken from arguments or results are kept alongside;
`reset_totals` starts a new measurement window without dropping the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class SpanSpec:
    """One traced function: span name, defining module, attribute name.

    on_item / on_result receive (tracer, value) for each generator item or
    each return value, to take counts where the work happens.
    """

    name: str
    module: str
    attribute: str
    generator: bool = False
    on_item: Callable | None = None
    on_result: Callable | None = None


def _count_yielded(tracer: "Tracer", topology) -> None:
    tracer.counts["topology.yielded"] += 1
    if topology.n_steiner >= 2:
        tracer.counts["topology.yielded_multi"] += 1


def _count_search(tracer: "Tracer", report) -> None:
    tracer.counts["exact_search.examined"] += report.topologies_examined
    tracer.counts["exact_search.pruned"] += report.topologies_pruned


def _count_system(tracer: "Tracer", system) -> None:
    tracer.counts["algebraic_solver.max_p"] = max(
        tracer.counts["algebraic_solver.max_p"], system.size
    )


def _count_bytes(key: str) -> Callable:
    def count(tracer: "Tracer", text: str) -> None:
        tracer.counts[key] += len(text)

    return count


# The layer boundaries of fqst, by the function that crosses each one.
SPANS = (
    SpanSpec("topology.enumerate", "fqst.topology", "enumerate_bounded_topologies",
             generator=True, on_item=_count_yielded),
    SpanSpec("topology.rooted_encoding", "fqst.topology", "rooted_encoding"),
    SpanSpec("topology.compute_flows", "fqst.topology", "compute_flows"),
    SpanSpec("exact_search.solve_exact", "fqst.exact_search", "solve_exact",
             on_result=_count_search),
    SpanSpec("geo_solver.solve_full_topology", "fqst.geo_solver", "solve_full_topology"),
    SpanSpec("algebraic_solver.solve_topology", "fqst.algebraic_solver", "solve_topology"),
    SpanSpec("algebraic_solver.assemble_system", "fqst.algebraic_solver", "assemble_system",
             on_result=_count_system),
    SpanSpec("algebraic_solver.solve_positions", "fqst.algebraic_solver", "solve_positions"),
    SpanSpec("trees.build_solved_tree", "fqst.trees", "build_solved_tree"),
    SpanSpec("analysis.centroid_deviations", "fqst.analysis", "centroid_deviations"),
    SpanSpec("analysis.check_centroid_certificate", "fqst.analysis", "check_centroid_certificate"),
    SpanSpec("analysis.check_angles", "fqst.analysis", "check_angles"),
    SpanSpec("analysis.check_overlapping_edges", "fqst.analysis", "check_overlapping_edges"),
    SpanSpec("analysis.check_degree_window", "fqst.analysis", "check_degree_window"),
    SpanSpec("analysis.lower_bound_path", "fqst.analysis", "lower_bound_path"),
    SpanSpec("analysis.beaded_spanning_tree", "fqst.analysis", "beaded_spanning_tree"),
    SpanSpec("analysis.steiner_count_bound", "fqst.analysis", "steiner_count_bound"),
    SpanSpec("analysis.expand_beads", "fqst.analysis", "expand_beads"),
    SpanSpec("documents.result_document", "fqst.documents", "result_document"),
    SpanSpec("documents.dumps", "fqst.documents", "dumps",
             on_result=_count_bytes("documents.bytes_out")),
    SpanSpec("documents.loads", "fqst.documents", "loads"),
    SpanSpec("documents.parse_instance_document", "fqst.documents", "parse_instance_document"),
    SpanSpec("documents.parse_result_document", "fqst.documents", "parse_result_document"),
    SpanSpec("render.render_svg", "fqst.render", "render_svg",
             on_result=_count_bytes("render.svg_bytes")),
)

COMMAND_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_command = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.command_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset_totals()

    # -- measurement windows -------------------------------------------------

    def reset_totals(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.window_start = len(self.span_start)

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    # -- spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> list:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_command.append(self.command_id)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.span_start.append(_clock())
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        index, covered = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, spec: SpanSpec, original):
        name_id = self.name_id(spec.name)
        tracer = self

        if spec.generator:
            @functools.wraps(original)
            def traced_generator(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    frame = tracer.enter(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    if spec.on_item is not None:
                        spec.on_item(tracer, item)
                    yield item

            return traced_generator

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if spec.on_result is not None:
                spec.on_result(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every spec'd function at every fqst module attribute naming it.

        A function that no longer exists is listed in `missing` and its layer
        reads 0; the span-coverage tests turn that into a failure.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "fqst" or name.startswith("fqst."))
        ]
        for spec in SPANS:
            try:
                home = importlib.import_module(spec.module)
            except ModuleNotFoundError:
                home = None
            original = getattr(home, spec.attribute, None)
            if not callable(original):
                self.missing.append(f"{spec.module}.{spec.attribute}")
                continue
            wrapper = self._wrap(spec, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attribute, original))
                        setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._installed):
            setattr(module, attribute, original)
        self._installed = []

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One CSV row per span: command id, name, parent (the parent's row
        number counting from 0, or -1), start and end in perf_counter seconds."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("command,name,parent,start_s,end_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{self.span_command[i]},{names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
