"""Checkpoint-based walkthrough simulation and success-rate evaluation.

A simulated walker replays a plan's room transitions against a ground-truth
graph; fiducial-marker scans confirm progress, and a scan that resolves to a
different room triggers a reroute from the detected node. The harness
aggregates trials into per-class success rates formatted as "SR% (successes)".
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from itertools import count
from pathlib import Path
from typing import Callable, Iterator

from .graph import FloorGraph, GraphError, UnknownRoomError, bfs_shortest_path, \
    graph_from_payload, graph_to_payload, name_key
from .kb import KnowledgeBase
from .navigation import LlmGateway, NavPlan, NavigationError, navigate

logger = logging.getLogger(__name__)

ROUTE_CLASSES = ("short", "medium", "long")
SHORT_MAX_HOPS = 2
MEDIUM_MAX_HOPS = 5
TRIAL_EVENTS = ("arrived", "scanned", "deviated")  # the walk events a TrialResult keeps
MAX_REROUTES = 5  # a trial fails on the deviation after this many re-plans


class UnknownMarkerError(RuntimeError):
    """A scanned marker id is not registered for the building."""


class TruthManifestError(ValueError):
    """A truth manifest is malformed or its graph inconsistent; `TruthManifest.load` names the file."""


@dataclass(frozen=True)
class Checkpoint:
    marker_id: int
    node: str


@dataclass(frozen=True)
class Confirmed:
    marker_id: int


@dataclass(frozen=True)
class Mismatch:
    marker_id: int
    detected_node: str


@dataclass(frozen=True)
class WalkEvent:
    kind: str  # one of the kinds `walk` documents
    detail: str


@dataclass(frozen=True)
class TruthManifest:
    """Ground truth for one building: graph, marker table, accessibility, scale."""

    graph: FloorGraph
    checkpoints: tuple[Checkpoint, ...] = ()
    inaccessible: frozenset[str] = frozenset()
    scale_cm_per_px: float | None = None
    building_id: str = ""
    _room_of_marker: dict[int, str] = field(init=False, repr=False, compare=False)
    _marker_of_room: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        room_of_marker = {c.marker_id: c.node for c in self.checkpoints}
        if len(room_of_marker) != len(self.checkpoints):
            raise ValueError("marker ids must be unique per building")
        for c in self.checkpoints:
            if not self.graph.has_room(c.node):
                raise ValueError(f"checkpoint {c.marker_id} names unknown room {c.node!r}")
        object.__setattr__(self, "_room_of_marker", room_of_marker)
        # reversed, so a room with two markers answers with the first listed
        object.__setattr__(self, "_marker_of_room", {
            name_key(c.node): c.marker_id for c in reversed(self.checkpoints)
        })
        object.__setattr__(
            self, "inaccessible", frozenset(name_key(r) for r in self.inaccessible)
        )

    def marker_node(self, marker_id: int) -> str:
        try:
            return self._room_of_marker[marker_id]
        except KeyError:
            raise UnknownMarkerError(f"marker {marker_id} is not registered") from None

    def node_marker(self, room: str) -> int | None:
        return self._marker_of_room.get(name_key(room))

    def is_accessible(self, room: str) -> bool:
        return name_key(room) not in self.inaccessible

    def to_payload(self) -> dict:
        return {
            "building_id": self.building_id,
            "graph": graph_to_payload(self.graph),
            "checkpoints": [
                {"marker_id": c.marker_id, "node": c.node} for c in self.checkpoints
            ],
            "inaccessible": sorted(self.inaccessible),
            "scale_cm_per_px": self.scale_cm_per_px,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TruthManifest":
        if not isinstance(payload, dict):
            raise TruthManifestError("expected a JSON object")
        checkpoints = payload.get("checkpoints", [])
        if not isinstance(checkpoints, list) or not all(isinstance(c, dict) for c in checkpoints):
            raise TruthManifestError("checkpoints must be an array of objects")
        inaccessible = payload.get("inaccessible", [])
        if not isinstance(inaccessible, list) or not all(isinstance(r, str) for r in inaccessible):
            raise TruthManifestError("inaccessible must be an array of room names")
        scale = payload.get("scale_cm_per_px")
        if scale is not None and (type(scale) not in (int, float) or not 0 < scale < math.inf):
            raise TruthManifestError(
                f"scale_cm_per_px must be null or a finite number above 0, got {scale!r}")
        try:
            return cls(
                graph=graph_from_payload(payload["graph"]),
                checkpoints=tuple(
                    Checkpoint(marker_id=int(c["marker_id"]), node=str(c["node"]))
                    for c in checkpoints
                ),
                inaccessible=frozenset(inaccessible),
                scale_cm_per_px=scale,
                building_id=str(payload.get("building_id", "")),
            )
        except KeyError as exc:
            raise TruthManifestError(f"missing field {exc.args[0]!r}") from None
        except GraphError as exc:
            raise TruthManifestError(f"graph: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise TruthManifestError(str(exc)) from None

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "TruthManifest":
        try:
            return cls.from_payload(json.loads(Path(path).read_text(encoding="utf-8")))
        except TruthManifestError as exc:
            raise TruthManifestError(f"{path}: {exc}") from None


def confirm_checkpoint(
    truth: TruthManifest, expected: Checkpoint, scanned_marker: int
) -> Confirmed | Mismatch:
    """Compare a scan against the expected marker; a mismatch names where the scan was."""
    detected = truth.marker_node(scanned_marker)  # raises for unregistered markers
    if scanned_marker == expected.marker_id:
        return Confirmed(marker_id=scanned_marker)
    return Mismatch(marker_id=scanned_marker, detected_node=detected)


class FaultModel:
    """Deterministic wrong-scan injector for walkthrough simulation.

    Explicit `injections` map a global scan index to the marker id actually
    scanned; alternatively a seeded probabilistic mode draws per
    (seed, route_id, scan index), so suites replay identically.
    """

    def __init__(
        self,
        injections: dict[int, int] | None = None,
        seed: int | None = None,
        mismatch_rate: float = 0.0,
    ):
        self.injections = dict(injections or {})
        self.seed = seed
        self.mismatch_rate = float(mismatch_rate)
        if self.mismatch_rate > 0 and seed is None:
            raise ValueError("a probabilistic fault model requires a seed")

    @classmethod
    def none(cls) -> "FaultModel":
        return cls()

    def scanned_marker(
        self, route_id: str, scan_index: int, expected: int, truth: TruthManifest
    ) -> int:
        if scan_index in self.injections:
            return self.injections[scan_index]
        if self.mismatch_rate > 0:
            rng = random.Random(f"{self.seed}:{route_id}:{scan_index}")
            if rng.random() < self.mismatch_rate:
                others = sorted(
                    c.marker_id for c in truth.checkpoints if c.marker_id != expected
                )
                if others:
                    return rng.choice(others)
        return expected


@dataclass(frozen=True)
class TrialResult:
    route_id: str
    route_class: str
    success: bool
    reroutes: int = 0
    failure_reason: str | None = None
    events: tuple[WalkEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.success and self.failure_reason is not None:
            raise ValueError("a successful trial cannot carry a failure reason")
        if self.route_class not in ROUTE_CLASSES:
            raise ValueError(f"unknown route class {self.route_class!r}")


@dataclass(frozen=True)
class EvalReport:
    trials: tuple[TrialResult, ...]
    sr_overall: float
    sr_by_class: tuple[tuple[str, float], ...]

    def successes(self, route_class: str | None = None) -> int:
        return sum(
            1 for t in self.trials
            if t.success and (route_class is None or t.route_class == route_class)
        )

    def total(self, route_class: str | None = None) -> int:
        return sum(
            1 for t in self.trials
            if route_class is None or t.route_class == route_class
        )


def classify_route(truth_graph: FloorGraph, start: str, destination: str) -> str:
    """Class by hop count on truth: short <= 2, medium 3-5, long >= 6 or unreachable."""
    path = bfs_shortest_path(truth_graph, start, destination)
    if path is None:
        return "long"
    hops = len(path) - 1
    if hops <= SHORT_MAX_HOPS:
        return "short"
    if hops <= MEDIUM_MAX_HOPS:
        return "medium"
    return "long"


def walk(
    plan: NavPlan,
    graph: FloorGraph,
    truth: TruthManifest,
    scan: Callable[[int], str | None],
    rerouter: Callable[[str, str], NavPlan],
) -> Iterator[WalkEvent]:
    """The walker loop: replay a plan step by step, confirming checkpoints by scan.

    Rooms are spelled as `graph` spells them. In a room with a marker the walker
    asks `scan(expected_marker)` for the text read off a marker (None when no
    scan will come). A scan of another room's marker moves the walker to that
    room; when the consumer resumes past the `deviated` event, the walker
    re-plans with `rerouter(room, destination)` and restarts on the new steps.
    A consumer stops the walk by no longer iterating.

    Event kinds, with their detail:

    - `planned`: "start -> destination (N steps)", first of all
    - `step`: "N. action -- confirmation", for every step
    - `moving`: the next room as the plan spells it, before it is entered
    - `arrived`: the room entered
    - `checkpoint`: "room (expected marker M)", before `scan` is asked
    - `unreadable`: the scanned text, when it is not an integer
    - `scanned`: the marker id read, then one of
      `unknown_marker` (the id), `confirmed` (the room) or `deviated` (the
      marker's room)
    - `rerouted`: "room -> destination (N steps)", after a re-plan
    - `reroute_failed`: the planner's error; the walk ends
    - `aborted`: "end of input", when `scan` returns None; the walk ends
    - `finished`: the last room, after the last step
    """
    destination = plan.path[-1]
    current = plan.path[0]
    steps = plan.steps
    yield WalkEvent("planned", f"{current} -> {destination} ({len(steps)} steps)")
    i = 0
    while i < len(steps):
        step = steps[i]
        i += 1
        yield WalkEvent("step", f"{step.step}. {step.action} -- {step.confirmation}")
        target = step.current_position
        if name_key(target) == name_key(current):
            continue
        yield WalkEvent("moving", target)
        current = graph.node(target).name if graph.has_room(target) else target
        yield WalkEvent("arrived", current)

        expected = truth.node_marker(current)
        if expected is None:
            continue
        yield WalkEvent("checkpoint", f"{current} (expected marker {expected})")
        text = scan(expected)
        if text is None:
            yield WalkEvent("aborted", "end of input")
            return
        try:
            scanned = int(text)
        except ValueError:
            yield WalkEvent("unreadable", text)
            continue
        yield WalkEvent("scanned", str(scanned))
        try:
            outcome = confirm_checkpoint(truth, Checkpoint(expected, current), scanned)
        except UnknownMarkerError:
            yield WalkEvent("unknown_marker", str(scanned))
            continue
        if isinstance(outcome, Confirmed):
            yield WalkEvent("confirmed", current)
            continue
        current = outcome.detected_node
        yield WalkEvent("deviated", current)
        try:
            steps = rerouter(current, destination).steps
        except (NavigationError, UnknownRoomError) as exc:
            yield WalkEvent("reroute_failed", str(exc))
            return
        yield WalkEvent("rerouted", f"{current} -> {destination} ({len(steps)} steps)")
        i = 0
    yield WalkEvent("finished", current)


def simulate_walk(
    plan: NavPlan,
    truth: TruthManifest,
    fault_model: FaultModel | None = None,
    rerouter: Callable[[str, str], NavPlan] | None = None,
    route_id: str = "route",
    route_class: str = "short",
) -> TrialResult:
    """Replay a plan's transitions against the ground-truth graph.

    The trial succeeds when every room-to-room transition is adjacent in
    truth, no inaccessible room is entered, and the walk ends at the
    destination. Checkpoint mismatches injected by the fault model move the
    walker to the detected node and hand control to `rerouter`.
    """
    fault_model = fault_model or FaultModel.none()
    destination = plan.path[-1]
    current = plan.path[0]
    events: list[WalkEvent] = []
    reroutes = 0
    scan_index = count()

    def fail(reason: str) -> TrialResult:
        return TrialResult(route_id=route_id, route_class=route_class, success=False,
                           reroutes=reroutes, failure_reason=reason,
                           events=tuple(events))

    def scan(expected: int) -> str:
        return str(fault_model.scanned_marker(route_id, next(scan_index), expected, truth))

    if not truth.graph.has_room(current):
        return fail(f"start room {current!r} does not exist in truth")

    for event in walk(plan, truth.graph, truth, scan, rerouter):
        kind, detail = event.kind, event.detail
        if kind in TRIAL_EVENTS:
            events.append(event)
        if kind in ("arrived", "deviated"):
            current = detail
        if kind == "moving":
            if not truth.graph.has_room(detail):
                return fail(f"invalid transition: {current} -> {detail} (room not in truth)")
            if not truth.graph.adjacent(current, detail):
                return fail(f"invalid transition: {current} -> {detail}")
            if not truth.is_accessible(detail):
                return fail(f"entered inaccessible area: {detail}")
        elif kind == "unknown_marker":
            logger.warning("route %s: unregistered marker %s scanned", route_id, detail)
        elif kind == "deviated":
            if rerouter is None:
                return fail(f"checkpoint mismatch at {current} without reroute support")
            if reroutes >= MAX_REROUTES:
                return fail("reroute limit exceeded")
        elif kind == "rerouted":
            reroutes += 1
        elif kind == "reroute_failed":
            return fail(f"reroute failed: {detail}")

    if name_key(current) != name_key(destination):
        return fail(f"did not reach destination (stopped in {current})")
    return TrialResult(route_id=route_id, route_class=route_class, success=True,
                       reroutes=reroutes, events=tuple(events))


def reroute_from(
    kb: KnowledgeBase,
    current: str,
    destination: str,
    step_size_cm: float,
    gateway: LlmGateway | None = None,
    scale_cm_per_px: float | None = None,
) -> NavPlan:
    """Re-plan from a detected checkpoint, reusing the active step size."""
    return navigate(kb, current, destination, step_size_cm,
                    gateway=gateway, scale_cm_per_px=scale_cm_per_px)


@dataclass(frozen=True)
class RouteSpec:
    route_id: str
    start: str
    destination: str
    route_class: str | None = None


def load_routes(path: str | Path) -> list[RouteSpec]:
    """Route-suite file: JSON array of {route_id, start, destination, class?}."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of routes")
    routes = []
    for i, r in enumerate(payload):
        problem = None
        if not isinstance(r, dict):
            problem = "expected a JSON object"
        elif "start" not in r or "destination" not in r:
            problem = f"missing field {'start' if 'start' not in r else 'destination'!r}"
        elif r.get("class") not in (None, *ROUTE_CLASSES):
            problem = f"unknown route class {r['class']!r}"
        if problem:
            raise ValueError(f"{path}: route {i}: {problem}")
        routes.append(RouteSpec(
            route_id=str(r.get("route_id", f"route-{i}")),
            start=str(r["start"]),
            destination=str(r["destination"]),
            route_class=r.get("class"),
        ))
    return routes


def aggregate_trials(trials: list[TrialResult] | tuple[TrialResult, ...]) -> EvalReport:
    """Fold trial outcomes into per-class and overall success rates."""
    if not trials:
        raise ValueError("empty suite: success rate is undefined")
    trials = tuple(trials)
    by_class: dict[str, list[TrialResult]] = {}
    for t in trials:
        by_class.setdefault(t.route_class, []).append(t)
    sr_by_class = tuple(
        (cls, sum(t.success for t in by_class[cls]) / len(by_class[cls]))
        for cls in ROUTE_CLASSES if cls in by_class
    )
    overall = sum(t.success for t in trials) / len(trials)
    return EvalReport(trials=trials, sr_overall=overall, sr_by_class=sr_by_class)


def evaluate_suite(
    routes: list[RouteSpec],
    kb: KnowledgeBase,
    truth: TruthManifest,
    fault_model: FaultModel | None = None,
    step_size_cm: float = 60.0,
    gateway: LlmGateway | None = None,
    scale_cm_per_px: float | None = None,
) -> EvalReport:
    """Navigate and walk every route; failures become trial records, not errors."""
    if not routes:
        raise ValueError("empty suite: success rate is undefined")
    scale = scale_cm_per_px if scale_cm_per_px is not None else truth.scale_cm_per_px
    trials: list[TrialResult] = []
    for route in routes:
        route_class = route.route_class
        if route_class is None:
            if _endpoints_known(truth.graph, route):
                route_class = classify_route(truth.graph, route.start, route.destination)
            else:
                route_class = "long"
        try:
            plan = navigate(kb, route.start, route.destination, step_size_cm,
                            gateway=gateway, scale_cm_per_px=scale)
        except (UnknownRoomError, NavigationError) as exc:
            trials.append(TrialResult(
                route_id=route.route_id, route_class=route_class,
                success=False, failure_reason=str(exc),
            ))
            continue

        def rerouter(current: str, destination: str) -> NavPlan:
            return reroute_from(kb, current, destination, step_size_cm,
                                gateway=gateway, scale_cm_per_px=scale)

        trials.append(simulate_walk(
            plan, truth, fault_model, rerouter,
            route_id=route.route_id, route_class=route_class,
        ))
    return aggregate_trials(trials)


def _endpoints_known(g: FloorGraph, route: RouteSpec) -> bool:
    return g.has_room(route.start) and g.has_room(route.destination)


def format_sr(successes: int, total: int) -> str:
    """Table-cell format: percentage at two decimals (round-half-up) + count."""
    pct = (Decimal(successes) * 100 / Decimal(total)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return f"{pct} ({successes})"


def format_report_table(report: EvalReport) -> str:
    """Plain-text per-class table: 'SR% (successes)' rows plus the overall line."""
    rows = [("Route class", "SR% (successes)", "Trials")]
    for cls, _ in report.sr_by_class:
        rows.append((cls, format_sr(report.successes(cls), report.total(cls)),
                     str(report.total(cls))))
    rows.append(("overall", format_sr(report.successes(), report.total()),
                 str(report.total())))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines)


def report_to_payload(report: EvalReport) -> dict:
    return {
        "sr_overall": report.sr_overall,
        "sr_by_class": {cls: sr for cls, sr in report.sr_by_class},
        "table": {
            **{cls: format_sr(report.successes(cls), report.total(cls))
               for cls, _ in report.sr_by_class},
            "overall": format_sr(report.successes(), report.total()),
        },
        "trials": [
            {
                "route_id": t.route_id,
                "class": t.route_class,
                "success": t.success,
                "reroutes": t.reroutes,
                "failure_reason": t.failure_reason,
            }
            for t in report.trials
        ],
    }
