"""Three-tier knowledge base: relational graph, semantic vectors, visual grounding.

Semantic documents follow the knowledge-base card layout: one per room, one
per door, one per room-to-room transition. The default embedder is a
token-hash bag-of-words so retrieval stays deterministic and offline;
provider-backed embedders are a drop-in via the same `embed` interface.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (
    FloorGraph,
    GraphEdge,
    Route,
    format_size,
    graph_from_payload,
    graph_to_payload,
    name_key,
)
from .ingest import Detection, DetectionSet
from .ingest import detection_summary as summarize_detections

SCHEMA_VERSION = 3
DEFAULT_DIMENSION = 256
MAX_DIMENSION = 1 << 16  # bounds the vectors `load` allocates from a store's dimension header

_CARDINAL_WORD = {"N": "North", "E": "East", "S": "South", "W": "West"}
_TOKEN_RE = re.compile(r"[a-z0-9]+")


class KnowledgeBaseError(RuntimeError):
    pass


class MissingStoreError(KnowledgeBaseError):
    pass


class StoreVersionError(KnowledgeBaseError):
    pass


class CorruptStoreError(KnowledgeBaseError):
    pass


def cardinal_between(a: tuple[float, float], b: tuple[float, float]) -> str:
    """Dominant-axis compass direction from a to b in screen coordinates (y grows south)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        return "E" if dx >= 0 else "W"
    return "S" if dy > 0 else "N"


def _fmt(v: float) -> str:
    return f"{v:g}"


def _fmt_bbox(bbox: tuple[float, float, float, float]) -> str:
    return "[" + ", ".join(_fmt(v) for v in bbox) + "]"


def _fmt_point(p: tuple[float, float]) -> str:
    return f"({_fmt(p[0])}, {_fmt(p[1])})"


class HashEmbedder:
    """Deterministic token-hash bag-of-words embedding, L2-normalised."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    @staticmethod
    @functools.lru_cache(maxsize=1 << 14)  # a building repeats few distinct tokens
    def bucket(token: str, dimension: int = DEFAULT_DIMENSION) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % dimension

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=float)
        for token in _TOKEN_RE.findall(text.casefold()):
            vec[self.bucket(token, self.dimension)] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # degenerate input (no tokens): zero vector, similarity 0 by convention
            return vec
        return vec / norm


@dataclass(frozen=True)
class SemanticDoc:
    doc_id: str
    kind: str  # room | door | transition
    body: str
    source_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("doc body must be non-empty")
        if self.kind not in ("room", "door", "transition"):
            raise ValueError(f"unknown doc kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class VectorIndex:
    dimension: int
    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        ids = [doc_id for doc_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate doc_id in vector index")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorIndex):
            return NotImplemented
        return self.dimension == other.dimension and len(self.entries) == len(other.entries) and all(
            a_id == b_id and np.array_equal(a_vec, b_vec)
            for (a_id, a_vec), (b_id, b_vec) in zip(self.entries, other.entries)
        )


@dataclass(frozen=True)
class VisualContext:
    image_ref: str
    detections: DetectionSet
    element_notes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class KnowledgeBase:
    building_id: str
    graph: FloorGraph
    docs: tuple[SemanticDoc, ...]
    index: VectorIndex
    visual: VisualContext
    embedder: HashEmbedder = field(default_factory=HashEmbedder, compare=False)

    def __post_init__(self) -> None:
        doc_ids = {d.doc_id for d in self.docs}
        index_ids = {doc_id for doc_id, _ in self.index.entries}
        if doc_ids != index_ids:
            raise KnowledgeBaseError("docs and vector index are not in bijection")

    def doc(self, doc_id: str) -> SemanticDoc:
        for d in self.docs:
            if d.doc_id == doc_id:
                return d
        raise KeyError(doc_id)


def _wall_side(g: FloorGraph, edge: GraphEdge) -> str:
    """Compass word for the wall of `edge.from_room` that holds the door's bbox centre."""
    x1, y1, x2, y2 = edge.door_bbox
    return _CARDINAL_WORD[cardinal_between(g.node(edge.from_room).centroid,
                                           ((x1 + x2) / 2.0, (y1 + y2) / 2.0))]


def _door_note(g: FloorGraph, edge: GraphEdge, det: Detection | None) -> str:
    """Rule-template visual note for a door (VLM hook can replace this)."""
    a, b = edge.from_room, edge.to_room
    lines = []
    if det is not None:
        lines.append(f"Detection: {det.class_name} | Confidence: {det.confidence:.2f}")
        lines.append(f"Bounding box: {_fmt_bbox(det.bbox)}")
        lines.append(f"Center: {_fmt_point(det.center)}")
    lines.append(f"Room A: {a} | Room B: {b}")
    if edge.door_bbox is not None:
        side = _wall_side(g, edge)
        lines.append(f"Wall side: {side} wall of {a}")
        lines.append("Door type: hinged single door")
        lines.append(
            f"Description: Standard interior door connecting {a} to {b}, "
            f"on the {side.lower()} wall of {a}"
        )
    return "\n".join(lines)


def _size_line(g: FloorGraph, name: str) -> str | None:
    node = g.node(name)
    size = format_size(node.size_m2, node.dimensions)
    return f"{name} size: {size}" if size else None


def build_semantic_docs(g: FloorGraph, dets: DetectionSet) -> list[SemanticDoc]:
    """One room card per node, one door card per door edge, one transition card per edge."""
    docs: list[SemanticDoc] = []
    used_ids: set[str] = set()
    # once per spelling: an edge may spell a room name otherwise than its node does
    key = functools.cache(name_key)
    size_line = functools.cache(functools.partial(_size_line, g))
    bbox_text = functools.cache(_fmt_bbox)  # a door's card and its transition card both show it
    centroid = {n.name: n.centroid for n in g.nodes}

    def unique(doc_id: str) -> str:
        # double doors between one room pair would collide otherwise
        candidate, n = doc_id, 2
        while candidate in used_ids:
            candidate = f"{doc_id}#{n}"
            n += 1
        used_ids.add(candidate)
        return candidate

    window_sides: dict[str, list[str]] = {}
    for det in dets.windows():
        if not g.nodes:
            break
        nearest = min(g.nodes, key=lambda n: np.hypot(
            n.centroid[0] - det.center[0], n.centroid[1] - det.center[1]))
        side = _CARDINAL_WORD[cardinal_between(nearest.centroid, det.center)]
        window_sides.setdefault(key(nearest.name), []).append(f"{side} wall")

    for node in g.nodes:
        node_key = key(node.name)
        lines = [f"Room: {node.name}"]
        size = format_size(node.size_m2, None)
        lines.append(f"Type: {node.kind} | Size: {size}" if size else f"Type: {node.kind}")
        if node.dimensions:
            lines.append(f"Dimensions: {_fmt(node.dimensions[0])} m x {_fmt(node.dimensions[1])} m")
        if node.ocr_confidence is not None:
            lines.append(f"OCR confidence: {node.ocr_confidence:.2f}")

        door_edges = g.doors_of(node.name)
        if door_edges:
            entries = "; ".join(
                f"{e.via} to {e.to_room if key(e.from_room) == node_key else e.from_room}"
                for e in door_edges
            )
            lines.append(f"Doors ({len(door_edges)}): {entries}")

        windows = window_sides.get(node_key)
        if windows:
            lines.append(f"Windows ({len(windows)}): " + "; ".join(windows))

        neighbours = g.neighbors(node.name)
        if neighbours:
            entries = "; ".join(
                f"{other} to {_CARDINAL_WORD[cardinal_between(node.centroid, centroid[other])]}"
                for other in neighbours
            )
            lines.append(f"Connected rooms: {entries}")

        docs.append(SemanticDoc(
            doc_id=unique(f"room:{node.name}"), kind="room", body="\n".join(lines),
            source_refs=(node.name,),
        ))

    for edge in g.edges:
        if not edge.is_door:
            continue
        lines = [f"Door: {edge.via}", f"Connects: {edge.from_room} <-> {edge.to_room}"]
        if edge.door_bbox is not None:
            lines.append(f"Position (bbox): {bbox_text(edge.door_bbox)}")
            lines.append(f"Wall side: {_wall_side(g, edge)} wall of {edge.from_room}")
            lines.append("Door type: hinged single door")
        docs.append(SemanticDoc(
            doc_id=unique(f"door:{edge.via}"), kind="door", body="\n".join(lines),
            source_refs=(edge.from_room, edge.to_room),
        ))

    for edge in g.edges:
        lines = [f"Transition: {edge.from_room} -> {edge.to_room}"]
        if edge.is_door:
            lines.append(f"Via: door | Door ID: {edge.via}")
            if edge.door_bbox is not None:
                lines.append(f"Door position (bbox): {bbox_text(edge.door_bbox)}")
            lines.append(f"Door description: {edge.via} to {edge.to_room}")
        else:
            lines.append("Via: passage")
        lines.extend(line for line in map(size_line, (edge.from_room, edge.to_room)) if line)
        docs.append(SemanticDoc(
            doc_id=unique(f"transition:{edge.from_room}->{edge.to_room}"),
            kind="transition", body="\n".join(lines),
            source_refs=(edge.from_room, edge.to_room),
        ))

    return docs


def build_visual_context(g: FloorGraph, dets: DetectionSet) -> VisualContext:
    det_by_bbox = {d.bbox: d for d in dets.doors()}
    notes = []
    for edge in g.edges:
        if edge.is_door:
            notes.append((edge.via, _door_note(g, edge, det_by_bbox.get(edge.door_bbox))))
    return VisualContext(image_ref=dets.image_ref, detections=dets,
                         element_notes=tuple(notes))


def build_index(docs: list[SemanticDoc], embedder: HashEmbedder) -> VectorIndex:
    return VectorIndex(
        dimension=embedder.dimension,
        entries=tuple((d.doc_id, embedder.embed(d.body)) for d in docs),
    )


def build_knowledge_base(
    g: FloorGraph,
    dets: DetectionSet,
    building_id: str,
    embedder: HashEmbedder | None = None,
) -> KnowledgeBase:
    """Ingest a validated graph plus detections into the three-tier store."""
    embedder = embedder or HashEmbedder()
    docs = tuple(build_semantic_docs(g, dets))
    return KnowledgeBase(
        building_id=building_id,
        graph=g,
        docs=docs,
        index=build_index(list(docs), embedder),
        visual=build_visual_context(g, dets),
        embedder=embedder,
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 against a degenerate zero vector, exactly 1 for equal vectors."""
    if not np.any(u) or not np.any(v):
        return 0.0
    if np.array_equal(u, v):
        return 1.0
    return float(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))


def retrieve(kb: KnowledgeBase, query: str, k: int) -> list[tuple[SemanticDoc, float]]:
    """Top-k docs by cosine similarity, descending; ties break by doc_id."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []
    qv = kb.embedder.embed(query)
    scored = sorted(
        ((doc_id, cosine(qv, vec)) for doc_id, vec in kb.index.entries),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [(kb.doc(doc_id), score) for doc_id, score in scored[:k]]


@dataclass(frozen=True)
class NavigationContext:
    """Everything the planner needs for one query, from all three tiers."""

    path: tuple[str, ...]
    transition_docs: tuple[SemanticDoc, ...] = ()
    retrieved: tuple[tuple[SemanticDoc, float], ...] = ()
    door_notes: tuple[tuple[str, str], ...] = ()
    detection_summary: str = ""

    def as_prompt_block(self) -> str:
        lines = ["ROUTE: " + " -> ".join(self.path)]
        if self.transition_docs:
            lines.append("")
            lines.append("ROUTE KNOWLEDGE:")
            for doc in self.transition_docs:
                lines.append(doc.body)
        if self.door_notes:
            lines.append("")
            lines.append("LANDMARK NOTES:")
            for door_id, note in self.door_notes:
                lines.append(f"[{door_id}] {note}")
        if self.detection_summary:
            lines.append("")
            lines.append(self.detection_summary)
        return "\n".join(lines)


def _transition_card_id(g: FloorGraph, edge: GraphEdge) -> str:
    """The id build_semantic_docs gives `edge`'s transition card.

    The n-th edge from one room to another in edge-list order gets the suffix
    `#n` from the second one on.
    """
    same_way = [e for e in g.edges_between(edge.from_room, edge.to_room)
                if (e.from_room, e.to_room) == (edge.from_room, edge.to_room)]
    n = same_way.index(edge) + 1
    doc_id = f"transition:{edge.from_room}->{edge.to_room}"
    return doc_id if n == 1 else f"{doc_id}#{n}"


def assemble_context(kb: KnowledgeBase, route: Route, k: int = 5) -> NavigationContext:
    """Bundle a route with the transition card and door note of each leg, and retrieval hits."""
    docs_by_id = {d.doc_id: d for d in kb.docs}
    cards = (docs_by_id.get(_transition_card_id(kb.graph, e)) for e in route.legs)
    notes = dict(kb.visual.element_notes)
    query = f"navigate from {route.path[0]} to {route.path[-1]}"
    return NavigationContext(
        path=route.path,
        transition_docs=tuple(doc for doc in cards if doc is not None),
        retrieved=tuple(retrieve(kb, query, k)),
        door_notes=tuple((e.via, notes[e.via]) for e in route.legs
                         if e.is_door and e.via in notes),
        detection_summary=summarize_detections(kb.visual.detections),
    )


# --- persistence (JSON store, atomic write-then-rename, byte-deterministic) ---

_MANIFEST = "manifest.json"


def _write_atomic(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def persist(kb: KnowledgeBase, directory: str | Path) -> None:
    """Write the store's source facts; repeated persists of the same KB are byte-identical."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    _write_atomic(root / _MANIFEST, {
        "schema_version": SCHEMA_VERSION,
        "building_id": kb.building_id,
    })
    graph = graph_to_payload(kb.graph)
    del graph["adjacency_matrix"]
    _write_atomic(root / "graph.json", graph)
    _write_atomic(root / "vectors.json", {"dimension": kb.index.dimension})
    dets = kb.visual.detections
    visual = {
        "image_ref": kb.visual.image_ref,
        "detections": [
            {"class": d.class_name, "confidence": d.confidence,
             "bbox": list(d.bbox), "center": list(d.center)}
            for d in dets.detections
        ],
        "labels": [[name, list(pos)] for name, pos in dets.labels],
    }
    if dets.rejected:
        visual["rejected"] = list(dets.rejected)
    _write_atomic(root / "visual.json", visual)


def load(directory: str | Path) -> KnowledgeBase:
    """Read the source facts and derive the adjacency matrix, the cards, the vectors and the door notes."""
    root = Path(directory)
    manifest_path = root / _MANIFEST
    if not manifest_path.exists():
        raise MissingStoreError(f"no knowledge base at {root}")

    def read(name: str):
        path = root / name
        if not path.exists():
            raise CorruptStoreError(f"missing store file {name}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CorruptStoreError(f"corrupted store file {name}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptStoreError(
                f"{name} must hold a JSON object, got {type(payload).__name__}")
        return payload

    manifest = read(_MANIFEST)
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StoreVersionError(
            f"schema version mismatch: store has {version!r}, expected {SCHEMA_VERSION}"
        )

    try:
        graph_payload = read("graph.json")
        if "adjacency_matrix" in graph_payload:
            raise CorruptStoreError("graph.json must not store an adjacency_matrix; "
                                    "it is derived from the edges")
        graph = graph_from_payload(graph_payload)
        dimension = read("vectors.json")["dimension"]
        if type(dimension) is not int or not 0 < dimension <= MAX_DIMENSION:
            raise CorruptStoreError(
                f"vectors.json: dimension must be an integer in 1..{MAX_DIMENSION}, "
                f"got {dimension!r}")
        visual_payload = read("visual.json")
        rejected = visual_payload.get("rejected", [])
        if not isinstance(rejected, list) or not all(isinstance(r, str) for r in rejected):
            raise CorruptStoreError(
                f"visual.json: rejected must be an array of strings, got {rejected!r}")
        labels = []
        for i, label in enumerate(visual_payload.get("labels", [])):
            if not isinstance(label, list) or len(label) != 2:
                raise CorruptStoreError(f"visual.json: label must be a [name, [x, y]] pair, "
                                        f"got {label!r} (labels[{i}])")
            name, pos = label
            if not isinstance(name, str):
                raise CorruptStoreError(
                    f"visual.json: label name must be a string, got {name!r} (labels[{i}])")
            if not isinstance(pos, list) or len(pos) != 2 or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in pos):
                raise CorruptStoreError(f"visual.json: label {name!r} position must be two "
                                        f"numbers, got {pos!r} (labels[{i}])")
            labels.append((name, (float(pos[0]), float(pos[1]))))
        dets = DetectionSet(
            image_ref=visual_payload.get("image_ref", ""),
            detections=tuple(
                Detection(class_name=d["class"], confidence=float(d["confidence"]),
                          bbox=tuple(float(v) for v in d["bbox"]),
                          center=tuple(float(v) for v in d["center"]))
                for d in visual_payload.get("detections", [])
            ),
            labels=tuple(labels),
            rejected=tuple(rejected),
        )
        return build_knowledge_base(graph, dets, str(manifest.get("building_id", "")),
                                    HashEmbedder(dimension))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptStoreError(f"malformed store content: {exc}") from exc
