"""Spatial knowledge graph: room nodes, door/passage edges, boolean adjacency.

The edge list is the graph. FloorGraph indexes it once, at construction, and
every query reads that index. The symmetric {0,1} adjacency matrix with zero
diagonal is derived from the same index; a matrix that enters from outside,
such as a parser reply or a graph document, is checked against the matrix
rules and, when it reaches a FloorGraph, against the derived matrix.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

ROOM_KINDS = ("room", "hallway", "elevator", "stairs", "other")
PASSAGE = "passage"
DOOR_ID_RE = re.compile(r"^Door_D\d+$")

# validation rule identifiers
RULE_LENGTH = "length_consistency"
RULE_SYMMETRY = "symmetry"
RULE_VALUES = "value_domain"
RULE_MIN_DEGREE = "min_degree"
RULE_AGREEMENT = "edge_matrix_agreement"

_AREA_RE = re.compile(r"([0-9]*\.?[0-9]+)\s*m2")
_DIMS_RE = re.compile(r"([0-9]*\.?[0-9]+)\s*m?\s*[x×]\s*([0-9]*\.?[0-9]+)\s*m")


class GraphError(ValueError):
    """Structural problem that prevents building or querying a graph."""


class UnknownRoomError(GraphError):
    """A referenced room name does not exist in the graph."""


def name_key(name: str) -> str:
    """Canonical room-name form: whitespace-trimmed, case-insensitive."""
    return name.strip().lower()


def infer_kind(name: str) -> str:
    """Guess the semantic room kind from its label."""
    low = name_key(name)
    if any(tag in low for tag in ("hall", "corridor", "couloir")):
        return "hallway"
    if any(tag in low for tag in ("elevator", "lift", "ascenseur")):
        return "elevator"
    if any(tag in low for tag in ("stair", "escalier")):
        return "stairs"
    return "room"


def parse_size(text: str | None) -> tuple[float | None, tuple[float, float] | None]:
    """Extract (area_m2, (width_m, height_m)) from a free-text size string."""
    if not text:
        return None, None
    area = None
    dims = None
    m = _AREA_RE.search(text)
    if m:
        area = float(m.group(1))
    m = _DIMS_RE.search(text)
    if m:
        dims = (float(m.group(1)), float(m.group(2)))
    return area, dims


def format_size(area_m2: float | None, dimensions: tuple[float, float] | None) -> str | None:
    """Render a size string: '11.85 m2 (3.5 m x 3.4 m)' (either part optional)."""
    parts = []
    if area_m2 is not None:
        parts.append(f"{area_m2:g} m2")
    if dimensions is not None:
        dims = f"{dimensions[0]:g} m x {dimensions[1]:g} m"
        parts.append(f"({dims})" if parts else dims)
    return " ".join(parts) if parts else None


@dataclass(frozen=True)
class RoomNode:
    """A room with its label, kind, pixel centroid and optional metadata."""

    name: str
    kind: str = "room"
    centroid: tuple[float, float] = (0.0, 0.0)
    dimensions: tuple[float, float] | None = None  # metres (width, height)
    size_m2: float | None = None
    ocr_confidence: float | None = None
    synthetic_centroid: bool = False  # True when no OCR label grounded this room

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise GraphError("room name must be non-empty")
        if self.kind not in ROOM_KINDS:
            raise GraphError(f"unknown room kind {self.kind!r} for {self.name!r}")
        x, y = self.centroid
        if not (math.isfinite(x) and math.isfinite(y)) or x < 0 or y < 0:
            raise GraphError(f"centroid of {self.name!r} must be finite and non-negative")
        object.__setattr__(self, "centroid", (float(x), float(y)))
        if self.dimensions is not None:
            w, h = self.dimensions
            object.__setattr__(self, "dimensions", (float(w), float(h)))
        if self.ocr_confidence is not None and not 0.0 <= self.ocr_confidence <= 1.0:
            raise GraphError(f"ocr_confidence of {self.name!r} outside [0, 1]")


def edge_violations(from_room: str, to_room: str, via: str, door_bbox) -> list[str]:
    """The edge rules, as messages in rule order; empty when the edge is well formed.

    An edge links two different rooms, through `passage` or a `Door_D<n>` id,
    and a door bbox, when given, is four numbers (x1, y1, x2, y2) with x1 < x2
    and y1 < y2. The messages are fed back to the parser that wrote the edge.
    """
    found = []
    if name_key(from_room) == name_key(to_room):
        found.append(f"edge {from_room!r}->{to_room!r} links a room to itself")
    if via != PASSAGE and not DOOR_ID_RE.match(via):
        found.append(f"edge via must be Door_D<n> or passage, got {via!r}")
    if door_bbox is not None and not (
            len(door_bbox) == 4 and door_bbox[0] < door_bbox[2] and door_bbox[1] < door_bbox[3]):
        found.append(f"degenerate door_bbox {list(door_bbox)}")
    return found


@dataclass(frozen=True)
class GraphEdge:
    """An adjacency between two rooms, mediated by a door or a passage."""

    from_room: str
    to_room: str
    via: str = PASSAGE
    door_bbox: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        found = edge_violations(self.from_room, self.to_room, self.via, self.door_bbox)
        if found:
            raise GraphError(found[0])
        if self.door_bbox is not None:
            object.__setattr__(self, "door_bbox", tuple(float(v) for v in self.door_bbox))

    @property
    def is_door(self) -> bool:
        return self.via != PASSAGE

    def endpoints(self) -> tuple[str, str]:
        return self.from_room, self.to_room


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    offender: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


@dataclass(frozen=True)
class FloorGraph:
    """Immutable nodes and edges, indexed once; the adjacency matrix is derived from the edges.

    The index maps each room name to its node index, each linked node pair
    (i, j) with i < j to the positions of its edges in edge-list order, each
    node to the sorted tuple of its neighbours, and each cited door bbox to
    the number of door edges citing it. Queries read the index, never the
    matrix. A given `adjacency` must equal the derived matrix, or GraphError
    names the first failing rule. Graphs compare by nodes and edges.
    """

    nodes: tuple[RoomNode, ...]
    edges: tuple[GraphEdge, ...]
    adjacency: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        index = {name_key(n.name): i for i, n in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise GraphError("duplicate room names in graph")
        pairs = _edge_pairs(index, self.edges)
        derived = _matrix(len(index), pairs)
        if self.adjacency is not None:
            problem = _first_matrix_problem(self.nodes, self.adjacency, derived)
            if problem:
                raise GraphError(f"{problem[0]}: {problem[1]}")
        derived.setflags(write=False)
        linked: list[list[int]] = [[] for _ in self.nodes]
        for i, j in pairs:
            linked[i].append(j)
            linked[j].append(i)
        object.__setattr__(self, "adjacency", derived)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_neighbours", tuple(tuple(sorted(js)) for js in linked))
        object.__setattr__(self, "_citations", Counter(
            e.door_bbox for e in self.edges if e.is_door and e.door_bbox is not None))

    def __len__(self) -> int:
        return len(self.nodes)

    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name_key(name)]
        except KeyError:
            raise UnknownRoomError(f"unknown room {name!r}") from None

    def node(self, name: str) -> RoomNode:
        return self.nodes[self.index_of(name)]

    def has_room(self, name: str) -> bool:
        return name_key(name) in self._index

    @property
    def door_citations(self) -> Mapping[tuple[float, float, float, float], int]:
        """Each door bbox that door edges cite, with the number of door edges citing it."""
        return MappingProxyType(self._citations)

    def neighbors(self, name: str) -> list[str]:
        """Adjacent room names in ascending node-index order."""
        return [self.nodes[j].name for j in self._neighbours[self.index_of(name)]]

    def degree(self, name: str) -> int:
        """The number of distinct rooms adjacent to `name`."""
        return len(self._neighbours[self.index_of(name)])

    def adjacent(self, a: str, b: str) -> bool:
        i, j = self.index_of(a), self.index_of(b)
        return (min(i, j), max(i, j)) in self._pairs

    def edges_between(self, a: str, b: str) -> tuple[GraphEdge, ...]:
        """Every edge joining rooms a and b, in edge-list order.

        Empty when either name is unknown or both name one room.
        """
        i, j = (self._index.get(name_key(n), -1) for n in (a, b))
        return tuple(self.edges[k] for k in self._pairs.get((min(i, j), max(i, j)), ()))

    def doors_of(self, name: str) -> tuple[GraphEdge, ...]:
        """The door edges at room `name`, by door number, ties in edge-list order."""
        i = self.index_of(name)
        found = [k for j in self._neighbours[i] for k in self._pairs[(min(i, j), max(i, j))]
                 if self.edges[k].is_door]
        found.sort(key=lambda k: (int(self.edges[k].via.rsplit("D", 1)[1]), k))
        return tuple(self.edges[k] for k in found)


def _edge_pairs(index: dict[str, int],
                edges: tuple[GraphEdge, ...] | list[GraphEdge]) -> dict[tuple[int, int], list[int]]:
    """Node pair (i, j), i < j, -> the positions of the edges joining it, in edge-list order."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for k, e in enumerate(edges):
        i, j = index.get(name_key(e.from_room)), index.get(name_key(e.to_room))
        if i is None or j is None:
            endpoint = e.from_room if i is None else e.to_room
            raise UnknownRoomError(
                f"edge {e.from_room!r}-{e.to_room!r} references unknown room {endpoint!r}"
            )
        pairs.setdefault((i, j) if i < j else (j, i), []).append(k)
    return pairs


def _matrix(n: int, pairs) -> np.ndarray:
    # one byte per cell: the matrix is only serialised and compared, and it is N x N
    adj = np.zeros((n, n), dtype=np.int8)
    if pairs:
        rows, cols = zip(*pairs)
        adj[rows, cols] = adj[cols, rows] = 1
    return adj


def rebuild_adjacency(nodes: list[RoomNode] | tuple[RoomNode, ...],
                      edges: list[GraphEdge] | tuple[GraphEdge, ...]) -> np.ndarray:
    """Recompute the adjacency matrix from the edge list (set semantics).

    Symmetric, zero-diagonal, idempotent; duplicate edges collapse to one bit.
    """
    index = {name_key(n.name): i for i, n in enumerate(nodes)}
    return _matrix(len(index), _edge_pairs(index, edges))


def matrix_violations(n: int, matrix) -> list[tuple[str, str]]:
    """The matrix rules for n rooms, as (rule id, message) pairs in rule order.

    Empty when `matrix` is an n x n list of {0,1} rows, symmetric with a zero
    diagonal. Never raises on bad content: the messages are fed back to the
    parser that wrote the matrix.
    """
    rows = matrix if isinstance(matrix, (list, tuple)) else ()
    if len(rows) != n or any(not isinstance(row, (list, tuple)) or len(row) != n
                             for row in rows):
        return [(RULE_LENGTH, f"len(nodes)==len(matrix)==len(row) violated: {n} nodes, "
                              f"{len(rows)} rows")]
    found = []
    bad = [v for row in rows for v in row if v not in (0, 1)]
    if bad:
        found.append((RULE_VALUES, f"matrix values must be in {{0,1}}, found {bad[0]!r}"))
    if any(rows[i][i] != 0 for i in range(n)):
        found.append((RULE_VALUES, "matrix diagonal must be 0"))
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i + 1, n)):
        found.append((RULE_SYMMETRY,
                      "matrix[i][j]==matrix[j][i] violated (matrix must be symmetric)"))
    return found


def _first_matrix_problem(nodes, given, derived: np.ndarray) -> tuple[str, str] | None:
    """The first matrix rule a matrix given to FloorGraph breaks, else its first cell off
    `derived` as an edge_matrix_agreement finding; None when it equals `derived`."""
    if isinstance(given, np.ndarray):
        if np.array_equal(given, derived):
            return None
        given = given.tolist()
    found = matrix_violations(len(nodes), given)
    if found:
        return found[0]
    expected = derived.tolist()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if given[i][j] != expected[i][j]:
                a, b = nodes[i].name, nodes[j].name
                if expected[i][j]:
                    return RULE_AGREEMENT, f"edge {a!r}-{b!r} exists but matrix[{i}][{j}] == 0"
                return RULE_AGREEMENT, f"matrix[{i}][{j}] == 1 but no edge links {a!r} and {b!r}"
    return None


def validate_graph(g: FloorGraph) -> ValidationReport:
    """Audit a graph against the rules its edges can break: every room needs an edge."""
    violations = tuple(
        Violation(
            RULE_MIN_DEGREE,
            f"room {node.name!r} appears in no edge (EVERY NODE MUST HAVE >= 1 EDGE)",
            node.name,
        )
        for node, neighbours in zip(g.nodes, g._neighbours) if not neighbours
    )
    return ValidationReport(passed=not violations, violations=violations)


def bfs_shortest_path(g: FloorGraph, start: str, destination: str) -> list[str] | None:
    """Hop-count shortest path between two rooms, or None when disconnected.

    Deterministic: neighbours expand in ascending node-index order, so ties
    always resolve toward the lowest-index route.
    """
    si, di = g.index_of(start), g.index_of(destination)
    if si == di:
        return [g.nodes[si].name]
    parent: dict[int, int] = {si: si}
    queue: deque[int] = deque([si])
    while queue:
        cur = queue.popleft()
        for nxt in g._neighbours[cur]:
            if nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == di:
                path = [di]
                while path[-1] != si:
                    path.append(parent[path[-1]])
                return [g.nodes[i].name for i in reversed(path)]
            queue.append(nxt)
    return None


@dataclass(frozen=True)
class Route:
    """A shortest path and, per leg, the one edge it crosses."""

    path: tuple[str, ...]
    legs: tuple[GraphEdge, ...]  # legs[i] joins path[i] and path[i + 1]


def shortest_route(g: FloorGraph, start: str, destination: str) -> Route | None:
    """The BFS path with the edge of each leg, or None when the rooms are disconnected.

    A leg crosses the first door between its two rooms, else their first edge.
    """
    path = bfs_shortest_path(g, start, destination)
    if path is None:
        return None
    legs = []
    for a, b in zip(path, path[1:]):
        edges = g.edges_between(a, b)
        legs.append(next((e for e in edges if e.is_door), edges[0]))
    return Route(path=tuple(path), legs=tuple(legs))


def connected_components(g: FloorGraph) -> list[set[str]]:
    """Partition room names into connected components (lowest-index first)."""
    seen: set[int] = set()
    components: list[set[str]] = []
    for root in range(len(g.nodes)):
        if root in seen:
            continue
        comp = {root}
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt in g._neighbours[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        seen |= comp
        components.append({g.nodes[i].name for i in comp})
    return components


# --- serialization (field names mirror the parser JSON schema) ---

def graph_to_payload(g: FloorGraph) -> dict:
    """Serialize to the parser-schema document (nodes_elements/adjacency_matrix/edges/rooms_info)."""
    nodes_elements = []
    rooms_info = []
    for node, neighbours in zip(g.nodes, g._neighbours):
        entry: dict = {"name": node.name, "kind": node.kind,
                       "centroid": [node.centroid[0], node.centroid[1]]}
        if node.ocr_confidence is not None:
            entry["ocr_confidence"] = node.ocr_confidence
        if node.synthetic_centroid:
            entry["synthetic_centroid"] = True
        nodes_elements.append(entry)

        info: dict = {"name": node.name, "doors": [e.via for e in g.doors_of(node.name)],
                      "connected_rooms": [g.nodes[j].name for j in neighbours]}
        size = format_size(node.size_m2, node.dimensions)
        if size:
            info["size"] = size
        rooms_info.append(info)

    edges = []
    for e in g.edges:
        entry = {"from": e.from_room, "to": e.to_room, "via": e.via}
        if e.door_bbox is not None:
            entry["door_bbox"] = list(e.door_bbox)
        edges.append(entry)

    return {
        "approach": "",
        "nodes_elements": nodes_elements,
        "adjacency_matrix": g.adjacency.tolist(),
        "edges": edges,
        "rooms_info": rooms_info,
    }


def _records(payload: dict, key: str) -> list:
    records = payload.get(key) or []
    if not isinstance(records, list):
        raise GraphError(f"{key} must be an array")
    return records


def graph_from_payload(payload: dict) -> FloorGraph:
    """Rebuild a FloorGraph from a parser-schema document.

    `adjacency_matrix` is optional; when present it must be the matrix the
    edges give (see FloorGraph).
    """
    if not isinstance(payload, dict):
        raise GraphError("graph document must be a JSON object")
    info_by_key: dict[str, dict] = {}
    for info in _records(payload, "rooms_info"):
        if isinstance(info, dict) and info.get("name"):
            info_by_key[name_key(str(info["name"]))] = info

    nodes = []
    for raw in _records(payload, "nodes_elements"):
        if isinstance(raw, str):
            raw = {"name": raw}
        if not isinstance(raw, dict):
            raise GraphError(f"node record must be a name or an object, got {raw!r}")
        name = str(raw.get("name", ""))
        info = info_by_key.get(name_key(name), {})
        size_m2, dims = parse_size(info.get("size"))
        x, y = raw.get("centroid") or (0.0, 0.0)
        nodes.append(RoomNode(
            name=name,
            kind=raw.get("kind") or infer_kind(name),
            centroid=(float(x), float(y)),
            dimensions=dims,
            size_m2=size_m2,
            ocr_confidence=raw.get("ocr_confidence"),
            synthetic_centroid=bool(raw.get("synthetic_centroid", False)),
        ))

    edges = []
    for raw in _records(payload, "edges"):
        if not isinstance(raw, dict):
            raise GraphError(f"edge record must be an object, got {raw!r}")
        bbox = raw.get("door_bbox")
        edges.append(GraphEdge(
            from_room=str(raw["from"]),
            to_room=str(raw["to"]),
            via=str(raw.get("via", PASSAGE)),
            door_bbox=tuple(float(v) for v in bbox) if bbox else None,
        ))

    return FloorGraph(nodes=tuple(nodes), edges=tuple(edges),
                      adjacency=payload.get("adjacency_matrix"))
