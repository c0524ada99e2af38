"""Span tracing from outside the program: wrap floornav's public functions in place.

`Tracer.install()` replaces every public function of the floornav modules, at
every module attribute that refers to it (so `floornav.navigation.
bfs_shortest_path` is wrapped as well as `floornav.graph.bfs_shortest_path`),
and every public method of their classes, with a wrapper that records a span.
Spans nest on a stack; a span's self time is its duration minus the
durations of the spans it directly encloses. Spans are folded into per-name
totals as they close, so memory does not grow with the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("ingest", "gateway", "extraction", "graph", "kb", "navigation", "walkthrough", "cli")
PROVIDER = "provider"  # model stand-ins: their time is never charged to a floornav layer

# Leaf helpers called per element inside a wrapped function (per token, per edge,
# per name lookup). Wrapping them would multiply the tracing overhead; their time
# stays in the caller's self time.
UNWRAPPED = frozenset({
    "graph.name_key", "graph.infer_kind", "graph.parse_size", "graph.format_size",
    "graph.GraphEdge.endpoints", "graph.GraphEdge.pair_key", "graph.FloorGraph.names",
    "graph.FloorGraph.index_of", "graph.FloorGraph.node", "graph.FloorGraph.has_room",
    "graph.ValidationReport.rules",
    "ingest.levenshtein_distance", "ingest.DetectionSet.of_class",
    "ingest.DetectionSet.doors", "ingest.DetectionSet.windows",
    "kb.cardinal_between", "kb.cosine", "kb.HashEmbedder.bucket",
    "navigation.heading_after", "navigation.NavStep.to_payload",
    "navigation.NavStep.from_payload", "navigation.Hazard.describe",
    "navigation.NavPlan.max_severity",
})


class Stat:
    __slots__ = ("calls", "self_ns", "own_ns")

    def __init__(self) -> None:
        self.calls = self.self_ns = self.own_ns = 0


class Tracer:
    """Per-span-name totals: calls, self time and own-layer time.

    Self time is a span's duration minus its direct child spans. Own-layer time
    is its duration minus the nearest enclosed spans of other layers, so it
    keeps same-layer helpers: `kb.build_knowledge_base` owns the docs and index
    it builds, but not the `graph.FloorGraph.neighbors` calls they make.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.root_ns = 0  # time inside outermost spans
        self._stack: list[list] = []  # per open span: [child ns, other-layer ns, layer]
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self.import_sites = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        stack = self._stack
        stats = self.stats
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            frame = [0, 0, layer]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = Stat()
                stat.calls += 1
                stat.self_ns += dt - frame[0]
                stat.own_ns += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += dt if parent[2] != layer else frame[1]
                else:
                    tracer.root_ns += dt
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], value))

    def install(self, providers=()) -> None:
        """Wrap floornav's public functions and methods, plus each provider class's `complete`.

        The wrappers are made on the first call; later calls re-apply them.
        """
        if not self._patches:
            self._plan(providers)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self, providers) -> None:
        modules = {layer: importlib.import_module(f"floornav.{layer}") for layer in LAYERS}
        package = importlib.import_module("floornav")
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        wrapped[id(value)] = self.wrap(name, value, HOOKS.get(name))
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_") or name in UNWRAPPED:
                            continue
                        span = f"{PROVIDER}.complete" if name == "gateway.MockProvider.complete" else name
                        if inspect.isfunction(fn):
                            self._patch(value, meth, self.wrap(span, fn, HOOKS.get(span)))
                        elif isinstance(fn, (staticmethod, classmethod)):
                            self._patch(value, meth, type(fn)(self.wrap(span, fn.__func__)))
        for module in (*modules.values(), package):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(module, attr, wrapped[id(value)])
                    self.import_sites += 1
        for cls in providers:
            self._patch(cls, "complete", self.wrap(f"{PROVIDER}.complete", cls.complete))


# --- counters taken from arguments and results at the layer boundary ----------------


def _match_labels(t: Tracer, args, kwargs, result) -> None:
    t.count("ingest.tokens", len(args[0]))
    t.count("ingest.matched", len(result))


def _gateway_complete(t: Tracer, args, kwargs, result) -> None:
    request = args[1]
    t.count(f"gateway.complete.calls.{request.template_id}")
    t.count("gateway.prompt_bytes", len(request.prompt.encode("utf-8")))


def _payload(t: Tracer, args, kwargs, result) -> None:
    t.count("gateway.payload.bytes", len(args[0].encode("utf-8")))


def _persist(t: Tracer, args, kwargs, result) -> None:
    directory = Path(kwargs.get("directory", args[1] if len(args) > 1 else ""))
    t.count("kb.persist.bytes", sum(p.stat().st_size for p in directory.glob("*.json")))


def _run_extraction(t: Tracer, args, kwargs, result) -> None:
    t.count("extraction.results")
    t.count("extraction.attempts", result.attempts)
    t.count("extraction.first_pass", result.attempts == 1 and result.passed)
    t.count("extraction.degraded", result.degraded)


def _plan_route(t: Tracer, args, kwargs, result) -> None:
    gateway = kwargs.get("gateway", args[4] if len(args) > 4 else None)
    if gateway is not None:
        t.count("navigation.llm_plans")
        t.count("navigation.llm_accepted", not result.degraded)


def _navigate(t: Tracer, args, kwargs, result) -> None:
    t.count("navigation.plans")
    t.count("navigation.replans", result.rerouted)
    t.count("navigation.degraded", result.degraded)


def _simulate_walk(t: Tracer, args, kwargs, result) -> None:
    t.count("walkthrough.trials")
    t.count("walkthrough.successes", result.success)
    t.count("walkthrough.reroutes", result.reroutes)
    for event in result.events:
        if event.kind == "scanned":
            t.count("walkthrough.scans")
        elif event.kind == "deviated":
            t.count("walkthrough.mismatches")


HOOKS = {
    "ingest.match_labels": _match_labels,
    "gateway.LlmGateway.complete": _gateway_complete,
    "gateway.extract_structured_payload": _payload,
    "kb.persist": _persist,
    "extraction.run_extraction": _run_extraction,
    "navigation.plan_route": _plan_route,
    "navigation.navigate": _navigate,
    "walkthrough.simulate_walk": _simulate_walk,
}

# Spans that must record calls on each workload's operations: the layers the
# workload exists to exercise. A traced run in which one records none fails.
REQUIRED = {
    "eval-faulty": (
        "walkthrough.evaluate_suite", "walkthrough.simulate_walk", "walkthrough.reroute_from",
        "navigation.navigate", "navigation.plan_route", "navigation.template_steps",
        "navigation.safety_evaluate", "graph.bfs_shortest_path", "graph.FloorGraph.edges_between",
    ),
    "navigate-llm": (
        "navigation.navigate", "navigation.plan_route", "navigation.validate_steps",
        "navigation.safety_evaluate", "kb.assemble_context", "kb.retrieve",
        "graph.graph_to_payload", "graph.bfs_shortest_path", "graph.FloorGraph.edges_between",
        "gateway.LlmGateway.complete", "gateway.render_prompt",
        "gateway.extract_structured_payload", "provider.complete",
    ),
    "extract-kb": (
        "cli.main", "cli.cmd_extract", "ingest.load_detections", "ingest.load_ocr_tokens",
        "ingest.load_roster", "ingest.match_labels", "ingest.levenshtein_ratio",
        "gateway.LlmGateway.complete", "gateway.extract_structured_payload", "provider.complete",
        "extraction.run_extraction", "extraction.parse_floorplan", "extraction.build_graph",
        "extraction.critic_check", "kb.build_knowledge_base", "kb.persist", "kb.load",
        "graph.graph_to_payload", "graph.graph_from_payload",
    ),
}
REQUIRED_SETUP = ("kb.build_knowledge_base", "kb.persist", "kb.load")


def missing_spans(tracer: Tracer, required) -> list[str]:
    return [name for name in required if name not in tracer.stats]


def layer_metrics(t: Tracer, ops: int, traced_ns: int, untraced_ns: int,
                  setup: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: per operation, except the `setup.*` ones (one set-up).

    `traced_ns` and `untraced_ns` are the busy time of the same operations with
    and without the wrappers installed.
    """
    def calls(span: str) -> float:
        stat = t.stats.get(span)
        return stat.calls / ops if stat else 0.0

    def own_ms(*spans: str, source: Tracer = t, per: int = ops) -> float:
        return sum(source.stats[s].own_ns for s in spans if s in source.stats) / 1e6 / per

    def counter(name: str, source: Tracer = t, per: int = ops) -> float:
        return source.counters.get(name, 0) / per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = t.counters
    planner_calls = c.get("gateway.complete.calls.planner", 0)
    layer_self = dict.fromkeys((*LAYERS, PROVIDER), 0)
    for name, stat in t.stats.items():
        layer_self[name.split(".", 1)[0]] += stat.self_ns
    metrics = {
        "graph.edges_between.calls": (calls("graph.FloorGraph.edges_between"), "count/op"),
        "graph.edges_between.self_ms": (own_ms("graph.FloorGraph.edges_between"), "ms/op"),
        "graph.bfs.calls": (calls("graph.bfs_shortest_path"), "count/op"),
        "graph.bfs.self_ms": (own_ms("graph.bfs_shortest_path"), "ms/op"),
        "graph.neighbors.calls": (calls("graph.FloorGraph.neighbors"), "count/op"),
        "graph.components.self_ms": (own_ms("graph.connected_components"), "ms/op"),
        "graph.to_payload.calls": (calls("graph.graph_to_payload"), "count/op"),
        "graph.to_payload.self_ms": (own_ms("graph.graph_to_payload"), "ms/op"),
        "graph.from_payload.self_ms": (own_ms("graph.graph_from_payload"), "ms/op"),
        "kb.retrieve.calls": (calls("kb.retrieve"), "count/op"),
        "kb.retrieve.self_ms": (own_ms("kb.retrieve"), "ms/op"),
        "kb.assemble_context.self_ms": (own_ms("kb.assemble_context"), "ms/op"),
        "kb.build.self_ms": (own_ms("kb.build_knowledge_base"), "ms/op"),
        "kb.persist.self_ms": (own_ms("kb.persist"), "ms/op"),
        "kb.persist.bytes": (counter("kb.persist.bytes"), "B/op"),
        "kb.load.self_ms": (own_ms("kb.load"), "ms/op"),
        "setup.kb.build.self_ms": (own_ms("kb.build_knowledge_base", source=setup, per=1), "ms"),
        "setup.kb.persist.self_ms": (own_ms("kb.persist", source=setup, per=1), "ms"),
        "setup.kb.persist.bytes": (counter("kb.persist.bytes", source=setup, per=1), "B"),
        "setup.kb.load.self_ms": (own_ms("kb.load", source=setup, per=1), "ms"),
        "ingest.load.self_ms": (own_ms("ingest.load_detections", "ingest.load_ocr_tokens",
                                       "ingest.load_roster"), "ms/op"),
        "ingest.match_labels.self_ms": (own_ms("ingest.match_labels"), "ms/op"),
        "ingest.levenshtein.calls": (calls("ingest.levenshtein_ratio"), "count/op"),
        "ingest.match_ratio": (ratio(c.get("ingest.matched", 0), c.get("ingest.tokens", 0)), "ratio"),
        "gateway.complete.calls.parser": (counter("gateway.complete.calls.parser"), "count/op"),
        "gateway.complete.calls.planner": (counter("gateway.complete.calls.planner"), "count/op"),
        "gateway.complete.calls.self_critic": (counter("gateway.complete.calls.self_critic"), "count/op"),
        "gateway.complete.self_ms": (own_ms("gateway.LlmGateway.complete_template"), "ms/op"),
        "gateway.prompt_bytes": (counter("gateway.prompt_bytes"), "B/op"),
        "gateway.payload.self_ms": (own_ms("gateway.extract_structured_payload"), "ms/op"),
        "gateway.payload.bytes": (counter("gateway.payload.bytes"), "B/op"),
        "gateway.transport_retries": (calls(f"{PROVIDER}.complete")
                                      - calls("gateway.LlmGateway.complete"), "count/op"),
        "provider.complete.self_ms": (own_ms(f"{PROVIDER}.complete"), "ms/op"),
        "extraction.parse.self_ms": (own_ms("extraction.parse_floorplan"), "ms/op"),
        "extraction.build_graph.self_ms": (own_ms("extraction.build_graph"), "ms/op"),
        "extraction.critic.self_ms": (own_ms("extraction.critic_check"), "ms/op"),
        "extraction.attempts": (counter("extraction.attempts"), "count/op"),
        "extraction.first_pass_ratio": (ratio(c.get("extraction.first_pass", 0),
                                              c.get("extraction.results", 0)), "ratio"),
        "extraction.degraded": (counter("extraction.degraded"), "count/op"),
        "navigation.plan_route.calls": (calls("navigation.plan_route"), "count/op"),
        "navigation.template_steps.self_ms": (own_ms("navigation.template_steps"), "ms/op"),
        "navigation.validate_steps.self_ms": (own_ms("navigation.validate_steps"), "ms/op"),
        "navigation.safety.self_ms": (own_ms("navigation.safety_evaluate"), "ms/op"),
        "navigation.replans": (counter("navigation.replans"), "count/op"),
        "navigation.regenerations": ((planner_calls - c.get("navigation.llm_plans", 0)) / ops,
                                     "count/op"),
        "navigation.llm_accept_ratio": (ratio(c.get("navigation.llm_accepted", 0), planner_calls),
                                        "ratio"),
        "navigation.degraded_ratio": (ratio(c.get("navigation.degraded", 0),
                                            c.get("navigation.plans", 0)), "ratio"),
        "walkthrough.simulate.self_ms": (own_ms("walkthrough.simulate_walk"), "ms/op"),
        "walkthrough.scans": (counter("walkthrough.scans"), "count/op"),
        "walkthrough.mismatches": (counter("walkthrough.mismatches"), "count/op"),
        "walkthrough.reroutes": (counter("walkthrough.reroutes"), "count/op"),
        "walkthrough.reroute.self_ms": (own_ms("walkthrough.reroute_from"), "ms/op"),
        "walkthrough.success_ratio": (ratio(c.get("walkthrough.successes", 0),
                                            c.get("walkthrough.trials", 0)), "ratio"),
        "cli.extract.self_ms": (own_ms("cli.main"), "ms/op"),
    }
    for layer, self_ns in layer_self.items():
        metrics[f"{layer}.self_share"] = (ratio(self_ns, traced_ns), "ratio")
    metrics["trace.coverage"] = (ratio(t.root_ns, traced_ns), "ratio")
    metrics["trace.overhead"] = (ratio(traced_ns, untraced_ns) - 1.0, "ratio")
    return metrics
