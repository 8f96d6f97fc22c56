"""Per-layer spans and counts, recorded from outside the program.

:class:`Tracer` replaces public functions and methods of ``connmatch`` with
timing wrappers, installed on the name where the caller looks them up (a
module global such as ``connmatch.dispatch.solve_tree``, or a class
attribute such as ``WeightedPartitionSet.join``). Spans nest: each span's
self time is its duration minus the durations of the spans opened directly
inside it. A target that does not exist is skipped and its metrics are
reported as absent; nothing inside the program changes.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name). The span name is the metric prefix.
SPANS = [
    ("connmatch.cli", "main", "cli"),
    ("connmatch.fileio", "parse_graph", "fileio.parse_graph"),
    ("connmatch.fileio", "write_certificate", "fileio.write_certificate"),
    ("connmatch.fileio", "parse_certificate", "fileio.parse_certificate"),
    ("connmatch.cli", "induced_by_matching_connected", "graphs.induced_by_matching_connected"),
    ("connmatch.cli", "dispatch_solve", "dispatch"),
    ("connmatch.graphs", "WeightedGraph.components", "graphs.components"),
    ("connmatch.graphs", "WeightedGraph.induced", "graphs.induced"),
    ("connmatch.dispatch", "chordal_peo", "graphs.chordal_peo"),
    ("connmatch.chordal_solver", "chordal_peo", "graphs.chordal_peo"),
    ("connmatch.dispatch", "solve_tree", "tree_solver.solve_tree"),
    ("connmatch.dispatch", "solve_degree_two", "degree2_solver.solve_degree_two"),
    ("connmatch.dispatch", "brute_mwcm", "oracle.brute_mwcm"),
    ("connmatch.dispatch", "solve_chordal", "chordal_solver.solve_chordal"),
    ("connmatch.chordal_solver", "build_gp", "chordal_solver.build_gp"),
    (
        "connmatch.chordal_solver",
        "max_weight_perfect_matching",
        "chordal_solver.max_weight_perfect_matching",
    ),
    ("connmatch.dispatch", "heuristic_td", "treedecomp.heuristic_td"),
    ("connmatch.dispatch", "solve_treewidth", "treewidth_solver.solve_treewidth"),
    ("connmatch.treewidth_solver", "validate_td", "treedecomp.validate_td"),
    ("connmatch.treewidth_solver", "make_nice", "treedecomp.make_nice"),
    ("connmatch.partitions", "WeightedPartitionSet.join", "partitions.join"),
    ("connmatch.partitions", "WeightedPartitionSet.insert", "partitions.insert"),
    ("connmatch.partitions", "WeightedPartitionSet.glue", "partitions.glue"),
    ("connmatch.partitions", "WeightedPartitionSet.project", "partitions.project"),
    ("connmatch.partitions", "WeightedPartitionSet.reduce", "partitions.reduce"),
]

# span name -> dispatch branch counted when that solver is called by dispatch
BRANCHES = {
    "tree_solver.solve_tree": "tree",
    "degree2_solver.solve_degree_two": "cycle",
    "chordal_solver.solve_chordal": "chordal",
    "oracle.brute_mwcm": "brute",
    "treewidth_solver.solve_treewidth": "treewidth",
}

# metric name -> (unit, better); the order is the report order
PER_LAYER = {
    "fileio.parse_graph_s": ("s", "lower"),
    "fileio.write_certificate_s": ("s", "lower"),
    "fileio.parse_certificate_s": ("s", "lower"),
    "graphs.components_s": ("s", "lower"),
    "graphs.induced_s": ("s", "lower"),
    "graphs.induced_calls": ("count", "lower"),
    "graphs.chordal_peo_s": ("s", "lower"),
    "graphs.induced_by_matching_connected_s": ("s", "lower"),
    "dispatch.components.tree": ("count", "lower"),
    "dispatch.components.cycle": ("count", "lower"),
    "dispatch.components.chordal": ("count", "lower"),
    "dispatch.components.brute": ("count", "lower"),
    "dispatch.components.treewidth": ("count", "lower"),
    "dispatch.self_s": ("s", "lower"),
    "tree_solver.solve_tree_s": ("s", "lower"),
    "degree2_solver.solve_degree_two_s": ("s", "lower"),
    "oracle.brute_mwcm_s": ("s", "lower"),
    "oracle.explored": ("count", "lower"),
    "chordal_solver.solve_chordal_s": ("s", "lower"),
    "chordal_solver.build_gp_s": ("s", "lower"),
    "chordal_solver.max_weight_perfect_matching_s": ("s", "lower"),
    "treedecomp.heuristic_td_s": ("s", "lower"),
    "treedecomp.validate_td_s": ("s", "lower"),
    "treedecomp.make_nice_s": ("s", "lower"),
    "treedecomp.width": ("count", "lower"),
    "treedecomp.nice_nodes.introduce": ("count", "lower"),
    "treedecomp.nice_nodes.forget": ("count", "lower"),
    "treedecomp.nice_nodes.join": ("count", "lower"),
    "treedecomp.cells_bound": ("count", "lower"),
    "partitions.join_s": ("s", "lower"),
    "partitions.insert_s": ("s", "lower"),
    "partitions.glue_s": ("s", "lower"),
    "partitions.project_s": ("s", "lower"),
    "partitions.reduce_s": ("s", "lower"),
    "partitions.join_calls": ("count", "lower"),
    "partitions.reduce_calls": ("count", "lower"),
    "partitions.reduce_removed": ("count", "higher"),
    "partitions.reduce_removed_ratio": ("ratio", "higher"),
    "treewidth_solver.solve_treewidth_s": ("s", "lower"),
    "treewidth_solver.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module:path``, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrappers; accumulates span times and counts per operation."""

    def __init__(self):
        self.present: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self._stack: list[float] = []  # child time of each open span
        self._open: Counter = Counter()  # open spans per name
        self.inclusive: defaultdict = defaultdict(float)  # outermost spans only
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.width = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPANS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))
            self.present.add(name)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        branch = BRANCHES.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            tracer._open[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer._open[name] -= 1
                if not tracer._open[name]:
                    tracer.inclusive[name] += dt
                tracer.self_time[name] += dt - child
                tracer.calls[name] += 1
            if branch is not None:
                tracer.counts["dispatch.components." + branch] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- counts read off arguments and results ----------------------------------

    def _observe_oracle_brute_mwcm(self, args, result) -> None:
        self.counts["oracle.explored"] += result.explored

    def _observe_treedecomp_make_nice(self, args, nd) -> None:
        for node in nd.nodes:
            if node.kind in ("introduce", "forget", "join"):
                self.counts["treedecomp.nice_nodes." + node.kind] += 1
            self.counts["treedecomp.cells_bound"] += 3 ** len(node.bag)
        self.width = max(self.width, max(len(node.bag) for node in nd.nodes) - 1)

    def _observe_partitions_reduce(self, args, result) -> None:
        before = len(args[0])
        self.counts["partitions.reduce_in"] += before
        self.counts["partitions.reduce_removed"] += before - len(result)

    # -- per-operation metrics --------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric for the spans recorded since :meth:`reset`,
        except ``trace.overhead_s``, which needs an untraced run."""
        out: dict[str, float] = {}
        for _, _, name in SPANS:
            if name not in ("cli", "dispatch"):
                out[name + "_s"] = self.inclusive[name]
        out["graphs.induced_calls"] = self.calls["graphs.induced"]
        out["partitions.join_calls"] = self.calls["partitions.join"]
        out["partitions.reduce_calls"] = self.calls["partitions.reduce"]
        for branch in BRANCHES.values():
            out["dispatch.components." + branch] = self.counts["dispatch.components." + branch]
        for key in (
            "oracle.explored",
            "treedecomp.nice_nodes.introduce",
            "treedecomp.nice_nodes.forget",
            "treedecomp.nice_nodes.join",
            "treedecomp.cells_bound",
            "partitions.reduce_removed",
        ):
            out[key] = self.counts[key]
        out["treedecomp.width"] = self.width
        reduce_in = self.counts["partitions.reduce_in"]
        out["partitions.reduce_removed_ratio"] = (
            self.counts["partitions.reduce_removed"] / reduce_in if reduce_in else 0.0
        )
        # Children never outlast their parent, so only rounding can push a
        # self time below zero.
        out["cli.self_s"] = max(0.0, self.self_time["cli"])
        out["dispatch.self_s"] = max(0.0, self.self_time["dispatch"])
        out["treewidth_solver.self_s"] = max(0.0, self.self_time["treewidth_solver.solve_treewidth"])
        return out

    def absent_metrics(self) -> set[str]:
        """Metric names whose wrap target does not exist in this program."""
        gone = set()
        derived = {
            "graphs.induced": ["graphs.induced_calls"],
            "partitions.join": ["partitions.join_calls"],
            "partitions.reduce": [
                "partitions.reduce_calls",
                "partitions.reduce_removed",
                "partitions.reduce_removed_ratio",
            ],
            "oracle.brute_mwcm": ["oracle.explored", "dispatch.components.brute"],
            "treedecomp.make_nice": [
                "treedecomp.width",
                "treedecomp.nice_nodes.introduce",
                "treedecomp.nice_nodes.forget",
                "treedecomp.nice_nodes.join",
                "treedecomp.cells_bound",
            ],
            "cli": ["cli.self_s"],
            "dispatch": ["dispatch.self_s"],
            "treewidth_solver.solve_treewidth": [
                "treewidth_solver.self_s",
                "dispatch.components.treewidth",
            ],
            "tree_solver.solve_tree": ["dispatch.components.tree"],
            "degree2_solver.solve_degree_two": ["dispatch.components.cycle"],
            "chordal_solver.solve_chordal": ["dispatch.components.chordal"],
        }
        # a span wrapped at one of its two call sites is still measured
        for name in {name for _, _, name in SPANS} - self.present:
            gone.add(name + "_s")
            gone.update(derived.get(name, []))
        return gone
