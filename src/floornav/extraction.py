"""Knowledge construction: parser agent, graph builder, self-critic, retry loop.

The loop mirrors the orchestrator: parse -> build -> critique, re-invoking the
parser with the accumulated issue list as corrective feedback, up to R_c
retries. A graph that never satisfies the critic is still returned, flagged
degraded, so downstream evaluation can count the trial rather than abort.
"""

from __future__ import annotations

import json
import logging
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from .gateway import GatewayError, LlmGateway, PayloadError, extract_structured_payload
from .graph import (
    PASSAGE,
    FloorGraph,
    GraphEdge,
    RoomNode,
    connected_components,
    edge_violations,
    graph_to_payload,
    infer_kind,
    matrix_violations,
    name_key,
    parse_size,
)
from .ingest import DetectionSet, detection_summary

logger = logging.getLogger(__name__)

R_C_DEFAULT = 2  # corrective re-parses after the initial attempt

CHECK_CONNECTIVITY = "connectivity"
CHECK_DOOR_EDGES = "door_edge_consistency"
CHECK_SPATIAL = "spatial_coherence"
STRUCTURAL_CHECKS = (CHECK_CONNECTIVITY, CHECK_DOOR_EDGES, CHECK_SPATIAL)

_SYNTHETIC_GRID_STEP = 100.0


class ParseError(RuntimeError):
    """Retryable parser failure (bad payload or schema violation)."""

    def __init__(self, message: str, diagnostics: tuple[str, ...] = ()):
        super().__init__(message)
        self.diagnostics = diagnostics or (message,)


class SchemaViolationError(ParseError):
    pass


class ExtractionError(RuntimeError):
    """No attempt produced a parseable floor-plan payload."""

    def __init__(self, message: str, history: tuple[tuple[int, tuple[str, ...]], ...]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class RawEdge:
    from_room: str
    to_room: str
    via: str = PASSAGE
    door_bbox: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class RoomInfo:
    name: str
    size: str | None = None


@dataclass(frozen=True)
class RawParse:
    """Schema-shaped parser output, prior to spatial grounding."""

    nodes_elements: tuple[str, ...]
    adjacency_matrix: tuple[tuple, ...]
    edges: tuple[RawEdge, ...]
    rooms_info: tuple[RoomInfo, ...]

    @classmethod
    def from_payload(cls, payload) -> "RawParse":
        if not isinstance(payload, dict):
            raise ParseError("parser payload must be a JSON object")
        try:
            names = []
            for entry in payload.get("nodes_elements", []):
                names.append(str(entry["name"]) if isinstance(entry, dict) else str(entry))
            matrix = tuple(tuple(row) for row in payload.get("adjacency_matrix", []))
            edges = []
            for raw in payload.get("edges", []):
                if not isinstance(raw, dict):
                    raise ParseError(f"edge record must be an object, got {raw!r}")
                bbox = raw.get("door_bbox")
                edges.append(RawEdge(
                    from_room=str(raw["from"]),
                    to_room=str(raw["to"]),
                    via=str(raw.get("via", PASSAGE)),
                    door_bbox=tuple(float(v) for v in bbox) if bbox else None,
                ))
            rooms = []
            for raw in payload.get("rooms_info", []) or []:
                if not isinstance(raw, dict):
                    raise ParseError(f"rooms_info record must be an object, got {raw!r}")
                size = raw.get("size")
                if size is not None and not isinstance(size, str):
                    raise ParseError(f"rooms_info record {raw.get('name')!r}: "
                                     f"size must be a string, got {size!r}")
                rooms.append(RoomInfo(name=str(raw.get("name", "")), size=size))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"parser payload does not follow the schema: {exc}") from exc
        return cls(
            nodes_elements=tuple(names),
            adjacency_matrix=matrix,
            edges=tuple(edges),
            rooms_info=tuple(rooms),
        )

    def schema_violations(self) -> list[str]:
        """Apply the parser VALIDATION rules; empty list means schema-valid."""
        problems: list[str] = []
        n = len(self.nodes_elements)
        keys = [name_key(name) for name in self.nodes_elements]
        if any(not k for k in keys):
            problems.append("room names must be non-empty")
        if len(set(keys)) != len(keys):
            problems.append("duplicate room names; number distinct areas sharing a label")

        problems.extend(message for _, message in matrix_violations(n, self.adjacency_matrix))

        known = set(keys)
        linked: set[str] = set()
        for e in self.edges:
            problems.extend(edge_violations(e.from_room, e.to_room, e.via, e.door_bbox))
            for endpoint in (e.from_room, e.to_room):
                if name_key(endpoint) not in known:
                    problems.append(
                        f"edge {e.from_room!r}->{e.to_room!r} references unknown room {endpoint!r}"
                    )
                linked.add(name_key(endpoint))
        for name in self.nodes_elements:
            if name_key(name) not in linked:
                problems.append(f"room {name!r} has no edge; EVERY NODE MUST HAVE >= 1 EDGE")
        return problems


@dataclass(frozen=True)
class CriticReport:
    passed: bool
    issues: tuple[str, ...] = ()
    suggested_fixes: tuple[str, ...] = ()
    failed_checks: frozenset[str] = frozenset()
    flagged_edges: tuple[tuple[str, str], ...] = ()  # spatial-coherence offenders


@dataclass(frozen=True)
class ExtractionResult:
    graph: FloorGraph
    passed: bool
    degraded: bool
    attempts: int
    critic: CriticReport
    history: tuple[tuple[int, tuple[str, ...]], ...] = ()


def detection_context(dets: DetectionSet) -> str:
    """Render the grounding block injected into the parser prompt."""
    lines: list[str] = []
    if dets.detections:
        lines.append("DETECTIONS:")
        for d in dets.detections:
            lines.append(
                f"- {d.class_name} confidence {d.confidence:.2f} "
                f"bbox [{d.bbox[0]:g}, {d.bbox[1]:g}, {d.bbox[2]:g}, {d.bbox[3]:g}] "
                f"center ({d.center[0]:g}, {d.center[1]:g})"
            )
    if dets.labels:
        lines.append("OCR LABELS:")
        for name, (x, y) in dets.labels:
            lines.append(f"- {name!r} at ({x:g}, {y:g})")
    return "\n".join(lines)


def _feedback_block(history: list[tuple[int, tuple[str, ...]]]) -> str:
    lines = ["PREVIOUS ATTEMPT ISSUES:"]
    for _, issues in history:
        lines.extend(f"- {issue}" for issue in issues)
    return "\n".join(lines)


def parse_floorplan(
    gateway: LlmGateway,
    image_ref: str,
    dets: DetectionSet,
    feedback: str | None = None,
) -> RawParse:
    """Agent 1: ask the parser for a schema-valid graph estimate."""
    context = detection_context(dets)
    if feedback:
        context = (context + "\n\n" if context else "") + feedback
    text = gateway.complete_template(
        "parser", {"detection_context": context}, image_ref=image_ref or None
    )
    try:
        payload = extract_structured_payload(text)
    except PayloadError as exc:
        raise ParseError(f"payload extraction failed: {exc}") from exc
    raw = RawParse.from_payload(payload)
    violations = raw.schema_violations()
    if violations:
        raise SchemaViolationError(
            "; ".join(violations), diagnostics=tuple(violations)
        )
    return raw


def build_graph(raw: RawParse, dets: DetectionSet) -> FloorGraph:
    """Agent 2: ground the parse into a node-edge graph.

    Each detected door links the two rooms nearest its bbox center (ties break
    toward the lower node index); parser edges with no matching detection are
    preserved as passage edges; the adjacency matrix is derived from the final
    edge list.
    """
    label_pos = dets.label_positions()
    info_by_key = {name_key(info.name): info for info in raw.rooms_info}

    nodes: list[RoomNode] = []
    for i, name in enumerate(raw.nodes_elements):
        pos = label_pos.get(name_key(name))
        synthetic = pos is None
        if synthetic:
            # deterministic placeholder spot; flagged so consumers can tell
            pos = (_SYNTHETIC_GRID_STEP * (i + 1), _SYNTHETIC_GRID_STEP * (i + 1))
        info = info_by_key.get(name_key(name))
        size_m2, dims = parse_size(info.size if info else None)
        nodes.append(RoomNode(
            name=name, kind=infer_kind(name), centroid=pos,
            dimensions=dims, size_m2=size_m2, synthetic_centroid=synthetic,
        ))

    raw_by_pair: dict[frozenset[str], RawEdge] = {}
    for e in raw.edges:
        raw_by_pair.setdefault(frozenset((name_key(e.from_room), name_key(e.to_room))), e)

    doors = dets.doors()
    door_edges: list[GraphEdge] = []
    covered_pairs: set[frozenset[str]] = set()
    used_ids = set()
    if len(nodes) < 2 and doors:
        logger.warning("fewer than two rooms; %d door detections left unassociated", len(doors))
        doors = ()

    assignments = []
    for det in doors:
        cx = (det.bbox[0] + det.bbox[2]) / 2.0
        cy = (det.bbox[1] + det.bbox[3]) / 2.0
        ranked = sorted(
            range(len(nodes)),
            key=lambda i: (math.dist(nodes[i].centroid, (cx, cy)), i),
        )
        i, j = sorted(ranked[:2])
        pair = frozenset((name_key(nodes[i].name), name_key(nodes[j].name)))
        raw_edge = raw_by_pair.get(pair)
        reuse = raw_edge.via if raw_edge and raw_edge.via != PASSAGE else None
        if reuse in used_ids:
            reuse = None
        if reuse:
            used_ids.add(reuse)
        assignments.append((det, i, j, pair, raw_edge, reuse))

    next_id = 1
    for det, i, j, pair, raw_edge, door_id in assignments:
        if door_id is None:
            while f"Door_D{next_id}" in used_ids:
                next_id += 1
            door_id = f"Door_D{next_id}"
            used_ids.add(door_id)
        if raw_edge is not None:
            from_room, to_room = raw_edge.from_room, raw_edge.to_room
        else:
            from_room, to_room = nodes[i].name, nodes[j].name
        door_edges.append(GraphEdge(
            from_room=from_room, to_room=to_room, via=door_id, door_bbox=det.bbox,
        ))
        covered_pairs.add(pair)

    passage_edges = [
        GraphEdge(from_room=e.from_room, to_room=e.to_room, via=PASSAGE)
        for e in raw.edges
        if frozenset((name_key(e.from_room), name_key(e.to_room))) not in covered_pairs
    ]

    edges = tuple(door_edges) + tuple(passage_edges)
    return FloorGraph(nodes=tuple(nodes), edges=edges)


def critic_check(
    g: FloorGraph,
    dets: DetectionSet,
    gateway: LlmGateway | None = None,
) -> CriticReport:
    """Agent 3: three deterministic structural checks, plus optional LLM review.

    Connectivity, door-edge consistency and spatial coherence. A room without
    an edge needs no check of its own: the parser schema rejects it, and in any
    graph of two or more rooms it breaks connectivity. LLM findings are
    advisory; only the structural checks decide `passed`.
    """
    issues: list[str] = []
    fixes: list[str] = []
    failed: set[str] = set()
    flagged: list[tuple[str, str]] = []

    components = connected_components(g)
    if len(components) > 1:
        failed.add(CHECK_CONNECTIVITY)
        listing = "; ".join(str(sorted(c)) for c in components)
        issues.append(f"graph has {len(components)} disconnected components: {listing}")
        fixes.append("add the door or passage edges that join the separated components")

    for det in dets.doors():
        citing = g.door_citations.get(det.bbox, 0)
        if citing != 1:
            failed.add(CHECK_DOOR_EDGES)
            issues.append(
                f"door detection at bbox {[f'{v:g}' for v in det.bbox]} maps to "
                f"{citing} edges (expected exactly 1)"
            )
            fixes.append("associate each detected door with exactly one room-to-room edge")
    det_bboxes = {d.bbox for d in dets.doors()}
    for e in g.edges:
        if e.is_door and (e.door_bbox is None or e.door_bbox not in det_bboxes):
            failed.add(CHECK_DOOR_EDGES)
            issues.append(
                f"door edge {e.from_room!r}-{e.to_room!r} ({e.via}) cites no detection"
            )
            fixes.append(f"demote {e.via} to a passage or ground it in a detection")

    # spatial coherence is undefined below 3 edges (degenerate sigma)
    if len(g.edges) >= 3:
        dists = [
            math.dist(g.node(e.from_room).centroid, g.node(e.to_room).centroid)
            for e in g.edges
        ]
        mu = statistics.fmean(dists)
        sigma = statistics.pstdev(dists)
        threshold = mu + 2 * sigma
        for e, d in zip(g.edges, dists):
            if d > threshold:
                failed.add(CHECK_SPATIAL)
                flagged.append((e.from_room, e.to_room))
                issues.append(
                    f"edge {e.from_room!r}-{e.to_room!r} centroid distance {d:.2f} exceeds "
                    f"mu+2*sigma = {threshold:.2f} (mu={mu:.2f}, sigma={sigma:.2f})"
                )
                fixes.append(
                    f"re-examine the {e.from_room!r}-{e.to_room!r} adjacency; "
                    "it is spatially implausible"
                )

    if gateway is not None:
        try:
            document = graph_to_payload(g)
            text = gateway.complete_template("self_critic", {
                "graph_json": json.dumps(document),
                "edges_json": json.dumps(document["edges"]),
                "detection_summary": detection_summary(dets),
                "structural_issues": "; ".join(issues) or "none",
            })
            payload = extract_structured_payload(text)
            review = [payload.get(key, []) if isinstance(payload, dict) else None
                      for key in ("issues", "suggested_fixes")]
            if not all(isinstance(found, list) for found in review):
                raise PayloadError("self-critic issues and suggested_fixes must be arrays")
            issues.extend(str(x) for x in review[0])
            fixes.extend(str(x) for x in review[1])
        except GatewayError as exc:
            logger.warning("LLM self-critic unavailable, structural checks only: %s", exc)

    return CriticReport(
        passed=not failed,
        issues=tuple(issues),
        suggested_fixes=tuple(fixes),
        failed_checks=frozenset(failed),
        flagged_edges=tuple(flagged),
    )


def run_extraction(
    gateway: LlmGateway,
    image_ref: str,
    dets: DetectionSet,
    r_c: int = R_C_DEFAULT,
    llm_critic: bool = False,
) -> ExtractionResult:
    """Parser -> builder -> critic with corrective feedback, up to r_c retries.

    Returns the first graph the critic accepts; after exhausting retries the
    last built graph is returned flagged degraded. Raises ExtractionError only
    when no attempt yields a parseable payload at all.
    """
    history: list[tuple[int, tuple[str, ...]]] = []
    feedback: str | None = None
    last: tuple[FloorGraph, CriticReport] | None = None

    for attempt in range(r_c + 1):
        try:
            raw = parse_floorplan(gateway, image_ref, dets, feedback=feedback)
        except ParseError as exc:
            logger.info("attempt %d: parse failed (%s)", attempt, exc)
            history.append((attempt, exc.diagnostics))
            feedback = _feedback_block(history)
            continue
        graph = build_graph(raw, dets)
        critic = critic_check(graph, dets, gateway=gateway if llm_critic else None)
        if critic.passed:
            return ExtractionResult(
                graph=graph, passed=True, degraded=False, attempts=attempt + 1,
                critic=critic, history=tuple(history),
            )
        logger.info("attempt %d: critic rejected graph (%d issues)",
                    attempt, len(critic.issues))
        history.append((attempt, critic.issues))
        feedback = _feedback_block(history)
        last = (graph, critic)

    if last is not None:
        graph, critic = last
        return ExtractionResult(
            graph=graph, passed=False, degraded=True, attempts=r_c + 1,
            critic=critic, history=tuple(history),
        )
    raise ExtractionError(
        f"no parseable floor-plan payload after {r_c + 1} attempts",
        history=tuple(history),
    )


def write_extraction_report(result: ExtractionResult, path: str | Path) -> None:
    """Persist the attempt history and final graph for the evaluation harness."""
    report = {
        "passed": result.passed,
        "degraded": result.degraded,
        "attempts": result.attempts,
        "history": [
            {"attempt": attempt, "issues": list(issues)}
            for attempt, issues in result.history
        ],
        "critic": {
            "passed": result.critic.passed,
            "issues": list(result.critic.issues),
            "suggested_fixes": list(result.critic.suggested_fixes),
            "failed_checks": sorted(result.critic.failed_checks),
        },
        "graph": graph_to_payload(result.graph),
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
