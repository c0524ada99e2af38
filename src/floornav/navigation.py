"""Route planning, step validation, rule-based safety evaluation, rerouting.

Plans stay pinned to the BFS path: every generated step is cross-validated
against it, heading bookkeeping follows the cardinal turn algebra, and a
hazard of severity >= 4 triggers exactly one re-plan with the hazard context
rendered into the planner prompt.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, replace

from .gateway import LlmGateway, PayloadError, extract_structured_payload
from .graph import FloorGraph, Route, graph_to_payload, name_key, shortest_route
from .ingest import DetectionSet
from .kb import KnowledgeBase, NavigationContext, assemble_context, cardinal_between

logger = logging.getLogger(__name__)

HEADINGS = ("N", "E", "S", "W")
HEADING_DEGREES = {"N": 0, "E": 90, "S": 180, "W": 270}
DEGREE_HEADINGS = {v: k for k, v in HEADING_DEGREES.items()}

ACTION_STOP = "Stop"
ACTION_TURN_LEFT = "Turn left"
ACTION_TURN_RIGHT = "Turn right"
ACTION_TURN_AROUND = "Turn around"
TURN_DELTAS = {ACTION_TURN_LEFT: -90, ACTION_TURN_RIGHT: 90, ACTION_TURN_AROUND: 180}
MOVE_RE = re.compile(r"^Move forward (\d+)$")
DOOR_REF_RE = re.compile(r"Door_D\d+")

MIN_DOOR_CLEARANCE_CM = 90.0
LONG_TRAVERSAL_STEPS = 5
REROUTE_SEVERITY = 4

HAZARD_SEVERITY = {
    "narrow_passage": 4,
    "missing_door_edge": 3,
    "long_traversal": 2,
    "dead_end": 4,
    "wall_collision": 5,
}
HAZARD_MITIGATION = {
    "narrow_passage": "Approach slowly with the cane sweeping the frame; "
                      "consider an alternate route through a wider doorway.",
    "missing_door_edge": "Verify the opening on site; a door may exist where "
                         "the map claims an open passage.",
    "long_traversal": "Count steps aloud and trail the wall; request a "
                      "checkpoint marker for this stretch.",
    "dead_end": "Stop and re-orient before entering; the room has a single exit.",
    "wall_collision": "Shorten the stride and probe ahead; the instruction "
                      "overruns the walkable space.",
}


class NavigationError(RuntimeError):
    pass


class NoPathError(NavigationError):
    """The two rooms lie in different connected components."""


@dataclass(frozen=True)
class NavStep:
    step: int
    action: str
    heading_after_step: str
    sensory_feedback: str
    current_position: str
    confirmation: str

    def to_payload(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "heading_after_step": self.heading_after_step,
            "sensory_feedback": self.sensory_feedback,
            "current_position": self.current_position,
            "confirmation": self.confirmation,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "NavStep":
        return cls(
            step=int(payload["step"]),
            action=str(payload["action"]),
            heading_after_step=str(payload["heading_after_step"]),
            sensory_feedback=str(payload.get("sensory_feedback", "")),
            current_position=str(payload["current_position"]),
            confirmation=str(payload.get("confirmation", "")),
        )


@dataclass(frozen=True)
class Hazard:
    hazard_type: str
    severity: int
    location: str
    mitigation: str

    def __post_init__(self) -> None:
        if not 1 <= self.severity <= 5:
            raise ValueError(f"severity {self.severity} outside [1, 5]")

    def describe(self) -> str:
        return (f"[severity {self.severity}] {self.hazard_type} at {self.location}. "
                f"Mitigation: {self.mitigation}")


@dataclass(frozen=True)
class NavPlan:
    route: Route
    steps: tuple[NavStep, ...]
    hazards: tuple[Hazard, ...] = ()
    rerouted: bool = False
    safe: bool = True
    degraded: bool = False
    prior_hazards: tuple[Hazard, ...] = ()  # pre-reroute findings, kept for the report

    @property
    def path(self) -> tuple[str, ...]:
        return self.route.path


def heading_after(heading: str, action: str) -> str:
    """Apply one action to a cardinal heading (turns rotate, moves keep it)."""
    if heading not in HEADING_DEGREES:
        raise ValueError(f"unknown heading {heading!r}")
    if action in TURN_DELTAS:
        return DEGREE_HEADINGS[(HEADING_DEGREES[heading] + TURN_DELTAS[action]) % 360]
    if action == ACTION_STOP or MOVE_RE.match(action):
        return heading
    raise ValueError(f"unknown action {action!r}")


def _hazard(kind: str, location: str) -> Hazard:
    return Hazard(hazard_type=kind, severity=HAZARD_SEVERITY[kind],
                  location=location, mitigation=HAZARD_MITIGATION[kind])


def template_steps(
    g: FloorGraph,
    route: Route,
    step_size_cm: float,
    scale_cm_per_px: float | None = None,
    safety_context: str = "",
) -> list[NavStep]:
    """Deterministic fallback planner: bearings from centroids, one move per leg."""
    path = route.path
    destination = path[-1]
    steps: list[NavStep] = []
    number = 1

    if len(path) == 1:
        return [NavStep(
            step=1, action=ACTION_STOP, heading_after_step="N",
            sensory_feedback=f"You are already in {destination}.",
            current_position=destination,
            confirmation=f"Arrived at {destination}",
        )]

    def bearing(a: str, b: str) -> str:
        return cardinal_between(g.node(a).centroid, g.node(b).centroid)

    heading = bearing(path[0], path[1])
    cautioned = not safety_context
    for here, there, edge in zip(path, path[1:], route.legs):
        target = bearing(here, there)
        if target != heading:
            delta = (HEADING_DEGREES[target] - HEADING_DEGREES[heading]) % 360
            action = {90: ACTION_TURN_RIGHT, 180: ACTION_TURN_AROUND,
                      270: ACTION_TURN_LEFT}[delta]
            heading = target
            steps.append(NavStep(
                step=number, action=action, heading_after_step=heading,
                sensory_feedback=f"Reorient toward {there}.",
                current_position=here,
                confirmation=f"You should now be facing {target}",
            ))
            number += 1

        distance_px = math.dist(g.node(here).centroid, g.node(there).centroid)
        distance_cm = distance_px if scale_cm_per_px is None else distance_px * scale_cm_per_px
        units = max(1, round(distance_cm / step_size_cm))
        if edge.is_door:
            confirmation = f"Pass through {edge.via} into {there}"
            sensory = "Feel for the door frame as you pass."
        else:
            confirmation = f"Enter {there} through the open passage"
            sensory = f"The space opens up as you enter {there}."
        if not cautioned:
            sensory += " Caution: hazards were reported on this route."
            cautioned = True
        steps.append(NavStep(
            step=number, action=f"Move forward {units}", heading_after_step=heading,
            sensory_feedback=sensory, current_position=there, confirmation=confirmation,
        ))
        number += 1

    steps.append(NavStep(
        step=number, action=ACTION_STOP, heading_after_step=heading,
        sensory_feedback=f"You have reached {destination}.",
        current_position=destination,
        confirmation=f"Arrived at {destination}",
    ))
    return steps


def validate_steps(
    steps: list[NavStep] | tuple[NavStep, ...],
    path: list[str] | tuple[str, ...],
    g: FloorGraph,
) -> list[str]:
    """Cross-validate generated steps against the computed path; [] when clean."""
    violations: list[str] = []
    if not steps:
        return ["plan has no steps"]

    for i, step in enumerate(steps, start=1):
        if step.step != i:
            violations.append(f"step numbers are not consecutive at position {i}")
            break

    if steps[-1].action != ACTION_STOP:
        violations.append("final step must be Stop")

    path_index = {name_key(name): i for i, name in enumerate(path)}
    actions_ok = []
    for step in steps:
        ok = step.action == ACTION_STOP or step.action in TURN_DELTAS \
            or bool(MOVE_RE.match(step.action))
        if not ok:
            violations.append(f"unknown action {step.action!r} at step {step.step}")
        actions_ok.append(ok)

    prev_idx = 0
    for step in steps:
        idx = path_index.get(name_key(step.current_position))
        if idx is None:
            violations.append(
                f"hallucinated room {step.current_position!r} at step {step.step} "
                "is not on the planned path"
            )
            continue
        if idx < prev_idx:
            violations.append(
                f"step {step.step} moves backward along the path to {step.current_position!r}"
            )
        elif idx > prev_idx + 1:
            violations.append(
                f"step {step.step} skips from {path[prev_idx]!r} to "
                f"{step.current_position!r} across non-adjacent rooms"
            )
        prev_idx = idx
    if name_key(steps[-1].current_position) != name_key(path[-1]):
        violations.append(f"final step must stop at the destination {path[-1]!r}")

    bad_heading = [s for s in steps if s.heading_after_step not in HEADING_DEGREES]
    for step in bad_heading:
        violations.append(f"invalid heading {step.heading_after_step!r} at step {step.step}")
    if not bad_heading:
        heading = steps[0].heading_after_step
        for ok, step in zip(actions_ok[1:], steps[1:]):
            if not ok:
                heading = step.heading_after_step  # re-anchor past the bad action
                continue
            expected = heading_after(heading, step.action)
            if step.heading_after_step != expected:
                violations.append(
                    f"heading algebra violated at step {step.step}: {step.action} from "
                    f"{heading} yields {expected}, not {step.heading_after_step}"
                )
            heading = step.heading_after_step

    return violations


def _point_segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return math.dist(p, a)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.dist(p, (ax + t * dx, ay + t * dy))


def safety_evaluate(
    g: FloorGraph,
    route: Route,
    steps: list[NavStep] | tuple[NavStep, ...],
    dets: DetectionSet,
    scale_cm_per_px: float | None = None,
) -> list[Hazard]:
    """Rule-based hazard scan over a validated plan.

    Rules: (a) door clearance below 90 cm, (b) passage edges with a door
    detection inside the corridor envelope, (c) long stretches without a door
    landmark, (d) dead ends and move-overrun wall collisions. Rule (a) needs a
    pixel scale; without one it is skipped and noted in the log.
    """
    hazards: list[Hazard] = []
    destination = route.path[-1]
    leg_edges = list(zip(route.path, route.path[1:], route.legs))

    if scale_cm_per_px is None:
        logger.info("no pixel scale configured; narrow-passage check skipped")
    else:
        for a, b, edge in leg_edges:
            if not edge.is_door or edge.door_bbox is None:
                continue
            x1, y1, x2, y2 = edge.door_bbox
            clearance = min(x2 - x1, y2 - y1) * scale_cm_per_px
            if clearance < MIN_DOOR_CLEARANCE_CM:
                hazards.append(_hazard(
                    "narrow_passage",
                    f"{edge.via} between {a} and {b} "
                    f"(clearance {clearance:g} cm < {MIN_DOOR_CLEARANCE_CM:g} cm)",
                ))

    cited = g.door_citations
    for a, b, edge in leg_edges:
        if edge.is_door:
            continue
        seg_a, seg_b = g.node(a).centroid, g.node(b).centroid
        envelope = 0.25 * math.dist(seg_a, seg_b)
        for det in dets.doors():
            if det.bbox in cited:
                continue
            if _point_segment_distance(det.center, seg_a, seg_b) <= envelope:
                hazards.append(_hazard(
                    "missing_door_edge",
                    f"passage {a}-{b} (unmatched door detection near its corridor)",
                ))
                break

    run_start = None
    run_len = 0
    for step in steps:
        if DOOR_REF_RE.search(step.confirmation):
            run_start, run_len = None, 0
            continue
        run_len += 1
        if run_start is None:
            run_start = step.step
        if run_len == LONG_TRAVERSAL_STEPS + 1:
            hazards.append(_hazard(
                "long_traversal",
                f"steps {run_start}-{run_start + LONG_TRAVERSAL_STEPS} "
                "(no door landmark for more than "
                f"{LONG_TRAVERSAL_STEPS} steps)",
            ))

    for step in steps:
        if not MOVE_RE.match(step.action):
            continue
        room = step.current_position
        if not g.has_room(room):
            continue
        if g.degree(room) == 1 and name_key(room) != name_key(destination):
            hazards.append(_hazard("dead_end", f"{room} (single exit, step {step.step})"))

    run_moves: list[NavStep] = []
    for step in list(steps) + [None]:  # sentinel flushes the final run
        if step is not None and MOVE_RE.match(step.action):
            run_moves.append(step)
            continue
        if run_moves:
            rooms = {name_key(s.current_position) for s in run_moves}
            if len(run_moves) > len(rooms):
                last = run_moves[-1]
                hazards.append(_hazard(
                    "wall_collision",
                    f"{last.current_position} (step {last.step}: consecutive moves "
                    "overrun the room chain)",
                ))
        run_moves = []

    return hazards


def render_safety_context(hazards: list[Hazard] | tuple[Hazard, ...]) -> str:
    lines = ["SAFETY ALERTS:"]
    lines.extend(f"- {h.describe()}" for h in hazards)
    return "\n".join(lines)


def _llm_steps(
    gateway: LlmGateway,
    g: FloorGraph,
    context: NavigationContext,
    step_size_cm: float,
    safety_context: str,
) -> list[NavStep]:
    document = graph_to_payload(g)
    bindings = {
        "graph_json": json.dumps(document),
        "edges_json": json.dumps(document["edges"]),
        "safety_context": (context.as_prompt_block() + ("\n\n" + safety_context if safety_context else "")),
        "start": context.path[0],
        "destination": context.path[-1],
        "step_size": f"{step_size_cm:g}",
    }
    text = gateway.complete_template("planner", bindings)
    payload = extract_structured_payload(text)
    if not isinstance(payload, list):
        raise PayloadError("planner payload must be a JSON array")
    try:
        return [NavStep.from_payload(item) for item in payload]
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadError(f"planner step object malformed: {exc}") from exc


def plan_route(
    kb: KnowledgeBase,
    start: str,
    destination: str,
    step_size_cm: float,
    gateway: LlmGateway | None = None,
    scale_cm_per_px: float | None = None,
    safety_context: str = "",
    allow_regeneration: bool = True,
) -> NavPlan:
    """Compute the BFS path and generate heading-tracked steps along it.

    With a gateway, the LLM planner is used and its output cross-validated; one
    regeneration is attempted on violations (violation list appended to the
    prompt), after which the template planner takes over with a degraded flag.
    """
    if step_size_cm <= 0:
        raise ValueError("step_size_cm must be positive")
    g = kb.graph
    start = g.node(start).name
    destination = g.node(destination).name
    route = shortest_route(g, start, destination)
    if route is None:
        raise NoPathError(f"no route between {start!r} and {destination!r}")

    degraded = False
    steps: list[NavStep] | None = None
    if gateway is not None:
        context = assemble_context(kb, route)
        attempts_left = 2 if allow_regeneration else 1
        extra = safety_context
        while attempts_left > 0:
            attempts_left -= 1
            try:
                candidate = _llm_steps(gateway, g, context, step_size_cm, extra)
                violations = validate_steps(candidate, route.path, g)
            except PayloadError as exc:
                # transport/auth failures propagate; only bad payloads fall back
                violations = [f"planner payload invalid: {exc}"]
                candidate = None
            if candidate is not None and not violations:
                steps = candidate
                break
            logger.info("planner output rejected: %s", "; ".join(violations))
            if attempts_left > 0:
                extra = (safety_context + "\n\n" if safety_context else "") + \
                    "PRIOR PLAN REJECTED:\n" + "\n".join(f"- {v}" for v in violations)
        if steps is None:
            degraded = True

    if steps is None:
        steps = template_steps(g, route, step_size_cm, scale_cm_per_px, safety_context)

    return NavPlan(route=route, steps=tuple(steps), degraded=degraded)


def navigate(
    kb: KnowledgeBase,
    start: str,
    destination: str,
    step_size_cm: float,
    gateway: LlmGateway | None = None,
    scale_cm_per_px: float | None = None,
) -> NavPlan:
    """Plan, safety-evaluate, and re-plan once when severity reaches 4."""
    plan = plan_route(kb, start, destination, step_size_cm,
                      gateway=gateway, scale_cm_per_px=scale_cm_per_px)
    hazards = tuple(safety_evaluate(kb.graph, plan.route, plan.steps,
                                    kb.visual.detections, scale_cm_per_px))
    max_severity = max((h.severity for h in hazards), default=0)
    if max_severity < REROUTE_SEVERITY:
        return replace(plan, hazards=hazards, safe=True)

    alert = render_safety_context(hazards)
    logger.info("max hazard severity %d; re-planning with hazard context", max_severity)
    second = plan_route(kb, start, destination, step_size_cm,
                        gateway=gateway, scale_cm_per_px=scale_cm_per_px,
                        safety_context=alert, allow_regeneration=False)
    second_hazards = tuple(safety_evaluate(kb.graph, second.route, second.steps,
                                           kb.visual.detections, scale_cm_per_px))
    return NavPlan(
        route=second.route,
        steps=second.steps,
        hazards=second_hazards,
        prior_hazards=hazards,
        rerouted=True,
        safe=True,  # safe == (max severity < 4) or rerouted
        degraded=plan.degraded or second.degraded,
    )


def plan_to_payload(plan: NavPlan) -> dict:
    """Serialize: step objects with the six planner field names + safety report."""
    if not plan.hazards and not plan.rerouted:
        recommendation = "Route is clear of known hazards."
    elif plan.rerouted:
        recommendation = "Route re-planned after hazard alerts; proceed with caution."
    else:
        recommendation = "Hazards noted; proceed with caution."
    return {
        "path": list(plan.path),
        "steps": [s.to_payload() for s in plan.steps],
        "safety": {
            "safe": plan.safe,
            "hazards": [
                {"hazard_type": h.hazard_type, "severity": h.severity,
                 "location": h.location, "mitigation": h.mitigation}
                for h in plan.hazards
            ],
            "recommendation": recommendation,
        },
        "rerouted": plan.rerouted,
        "degraded": plan.degraded,
    }
