"""Seeded grid buildings: the benchmark's inputs and its independent oracle.

Rooms sit on a square grid, and every edge joins two grid neighbours. So each
door, placed at the midpoint of its edge, has its own two endpoints as its two
nearest room centroids, and every edge has the same centroid distance; the
extraction critic's door and spatial-coherence checks hold by construction.

Room names are pseudo-words at pairwise edit distance >= 3. An OCR token with
one typo is then at distance 1 from its own label and >= 2 from every other,
so it resolves to its own room at the 0.55 Levenshtein-ratio threshold.
Numbered names such as "Room 12" would not: one dropped digit names another
room.

The hop-count BFS, adjacency and narrow-door facts here are computed from the
generated edge list alone, so output checks do not depend on the program.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

SPACING_PX = 400.0
SCALE_CM_PER_PX = 2.0
DOOR_PX = 60.0  # 120 cm at 2 cm/px: clears the 90 cm rule
NARROW_DOOR_PX = 40.0  # 80 cm at 2 cm/px: a severity-4 narrow passage
EXTRA_EDGE_SHARE = 0.75  # share of non-tree neighbour pairs that also get an edge
MIN_NAME_DISTANCE = 3
TYPO_SHARE = 0.3  # OCR tokens with one edit
NOISE_SHARE = 0.1  # extra OCR tokens per room that name no room ("12.5 m2")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance; the benchmark's own copy, used to pick names."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        row = [i]
        for j, cb in enumerate(b, start=1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = row
    return prev[-1]


def room_names(count: int, rng: random.Random, min_distance: int) -> list[str]:
    """Distinct capitalised consonant-vowel pseudo-words, pairwise >= min_distance apart."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.choice((3, 4))))
        if word in seen:
            continue
        seen.add(word)
        if min_distance > 1 and any(edit_distance(word, other) < min_distance
                                    for other in names):
            continue
        names.append(word)
    return [name.capitalize() for name in names]


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    via: str  # "Door_D<k>" or "passage"
    bbox: tuple[float, float, float, float] | None

    @property
    def is_door(self) -> bool:
        return self.via != "passage"

    @property
    def narrow(self) -> bool:
        return self.bbox is not None and self.bbox[2] - self.bbox[0] < DOOR_PX


@dataclass
class Building:
    building_id: str
    names: list[str]
    centroids: list[tuple[float, float]]
    edges: list[Edge]
    adjacency: list[list[int]] = field(default_factory=list)  # ascending neighbour indices
    _edge_of: dict[frozenset[int], Edge] = field(default_factory=dict)
    _dist: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = [[] for _ in self.names]
        for e in self.edges:
            self.adjacency[e.a].append(e.b)
            self.adjacency[e.b].append(e.a)
            self._edge_of[frozenset((e.a, e.b))] = e
        for row in self.adjacency:
            row.sort()
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def distances(self, source: int) -> list[int]:
        """Hop distance from `source` to every room (cached per source)."""
        if source not in self._dist:
            dist = [-1] * len(self.names)
            dist[source] = 0
            queue = deque([source])
            while queue:
                cur = queue.popleft()
                for nxt in self.adjacency[cur]:
                    if dist[nxt] < 0:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            self._dist[source] = dist
        return self._dist[source]

    def hops(self, a: str, b: str) -> int:
        return self.distances(self.index[a])[self.index[b]]

    def shortest_path(self, a: str, b: str) -> list[str]:
        """BFS path expanding neighbours in ascending index order (lowest-index ties)."""
        si, di = self.index[a], self.index[b]
        parent = {si: si}
        queue = deque([si])
        while queue and di not in parent:
            cur = queue.popleft()
            for nxt in self.adjacency[cur]:
                if nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        path = [di]
        while path[-1] != si:
            path.append(parent[path[-1]])
        return [self.names[i] for i in reversed(path)]

    def edge(self, a: str, b: str) -> Edge | None:
        return self._edge_of.get(frozenset((self.index[a], self.index[b])))

    def edge_set(self) -> set[tuple[frozenset[str], str]]:
        return {(frozenset((self.names[e.a], self.names[e.b])), e.via) for e in self.edges}

    def pairs_at(self, hops: list[int], rng: random.Random) -> list[tuple[str, str]]:
        """One random (start, destination) pair per entry of `hops`, that many hops apart."""
        pairs = []
        for want in hops:
            while True:
                a = rng.randrange(len(self.names))
                at = [z for z, d in enumerate(self.distances(a)) if d == want]
                if at:
                    pairs.append((self.names[a], self.names[rng.choice(at)]))
                    break
        return pairs


def grid_building(n_rooms: int, seed: int, building_id: str,
                  narrow_share: float = 0.0, passage_share: float = 0.0,
                  min_name_distance: int = 1) -> Building:
    """Connected grid building: a random spanning tree of grid-neighbour pairs plus extras."""
    rng = random.Random(f"{building_id}:{seed}")
    cols = max(2, round(n_rooms ** 0.5))
    names = room_names(n_rooms, rng, min_name_distance)
    centroids = [(SPACING_PX * (1 + i % cols), SPACING_PX * (1 + i // cols))
                 for i in range(n_rooms)]

    pairs = [(i, i + 1) for i in range(n_rooms - 1) if (i + 1) % cols]
    pairs += [(i, i + cols) for i in range(n_rooms - cols)]
    rng.shuffle(pairs)
    root = list(range(n_rooms))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    chosen, spare = [], []
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            chosen.append((i, j))
        else:
            spare.append((i, j))
    chosen += spare[:round(EXTRA_EDGE_SHARE * len(spare))]
    if len({find(i) for i in range(n_rooms)}) != 1:
        raise ValueError(f"{n_rooms} rooms on {cols} columns leave the grid disconnected")

    doors = [pair for pair in chosen if rng.random() >= passage_share]
    narrow = set(rng.sample(range(len(doors)), round(narrow_share * len(doors))))
    door_ids = {pair: k for k, pair in enumerate(doors)}
    edges = []
    for i, j in chosen:
        k = door_ids.get((i, j))
        if k is None:
            edges.append(Edge(i, j, "passage", None))
            continue
        half = (NARROW_DOOR_PX if k in narrow else DOOR_PX) / 2.0
        cx = (centroids[i][0] + centroids[j][0]) / 2.0
        cy = (centroids[i][1] + centroids[j][1]) / 2.0
        edges.append(Edge(i, j, f"Door_D{k + 1}", (cx - half, cy - half, cx + half, cy + half)))
    return Building(building_id, names, centroids, edges)


def size_text(index: int) -> str:
    width = 3.0 + (index % 5) * 0.5
    height = 3.5 + (index % 3) * 0.5
    return f"{width * height:g} m2 ({width:g} m x {height:g} m)"


# --- program-side views of a building -------------------------------------------


def to_program(b: Building):
    """(FloorGraph, DetectionSet, TruthManifest) for building `b`, every room a checkpoint."""
    from floornav.graph import FloorGraph, GraphEdge, RoomNode, parse_size, rebuild_adjacency
    from floornav.ingest import Detection, DetectionSet
    from floornav.walkthrough import Checkpoint, TruthManifest

    nodes = []
    for i, (name, centroid) in enumerate(zip(b.names, b.centroids)):
        area, dims = parse_size(size_text(i))
        nodes.append(RoomNode(name=name, centroid=centroid, dimensions=dims, size_m2=area))
    edges = [GraphEdge(from_room=b.names[e.a], to_room=b.names[e.b], via=e.via, door_bbox=e.bbox)
             for e in b.edges]
    graph = FloorGraph(nodes=tuple(nodes), edges=tuple(edges),
                       adjacency=rebuild_adjacency(nodes, edges))
    dets = DetectionSet(
        image_ref=f"{b.building_id}.png",
        detections=tuple(Detection(class_name="door", confidence=0.9, bbox=e.bbox,
                                   center=((e.bbox[0] + e.bbox[2]) / 2, (e.bbox[1] + e.bbox[3]) / 2))
                         for e in b.edges if e.is_door),
        labels=tuple(zip(b.names, b.centroids)),
    )
    truth = TruthManifest(
        graph=graph,
        checkpoints=tuple(Checkpoint(marker_id=i + 1, node=name) for i, name in enumerate(b.names)),
        scale_cm_per_px=SCALE_CM_PER_PX,
        building_id=b.building_id,
    )
    return graph, dets, truth


def _typo(word: str, rng: random.Random) -> str:
    """One edit: substitute, delete or insert a letter."""
    pos = rng.randrange(len(word))
    kind = rng.randrange(3)
    letter = rng.choice([c for c in _CONSONANTS + _VOWELS if c != word[pos].lower()])
    if kind == 0:
        return word[:pos] + letter + word[pos + 1:]
    if kind == 1:
        return word[:pos] + word[pos + 1:]
    return word[:pos] + letter + word[pos:]


def parser_payload(b: Building) -> dict:
    """The parser-schema document a correct parser would return for `b`."""
    n = len(b)
    matrix = [[0] * n for _ in range(n)]
    doors: list[list[str]] = [[] for _ in range(n)]
    for e in b.edges:
        matrix[e.a][e.b] = matrix[e.b][e.a] = 1
        if e.is_door:
            doors[e.a].append(e.via)
            doors[e.b].append(e.via)
    edges = []
    for e in b.edges:
        entry = {"from": b.names[e.a], "to": b.names[e.b], "via": e.via}
        if e.bbox is not None:
            entry["door_bbox"] = list(e.bbox)
        edges.append(entry)
    return {
        "approach": "each door joins the two labelled rooms nearest its centre",
        "nodes_elements": [{"name": name} for name in b.names],
        "adjacency_matrix": matrix,
        "edges": edges,
        "rooms_info": [
            {"name": name, "size": size_text(i), "doors": doors[i],
             "connected_rooms": [b.names[j] for j in b.adjacency[i]]}
            for i, name in enumerate(b.names)
        ],
    }


def write_extract_inputs(b: Building, directory: Path, rng: random.Random,
                         reject_first: bool) -> dict[str, Path]:
    """Detection, OCR, roster and mock-provider files for one `floornav extract` run.

    With `reject_first`, the parser's first reply has an asymmetric adjacency
    matrix, which the schema check rejects, so the retry loop runs twice.
    """
    from floornav.gateway import MockProvider

    directory.mkdir(parents=True, exist_ok=True)
    detections = [
        {"class": "door", "confidence": 0.9, "bbox": list(e.bbox),
         "center": [(e.bbox[0] + e.bbox[2]) / 2, (e.bbox[1] + e.bbox[3]) / 2]}
        for e in b.edges if e.is_door
    ]
    tokens = []
    for name, (x, y) in zip(b.names, b.centroids):
        text = _typo(name, rng) if rng.random() < TYPO_SHARE else name
        tokens.append({"text": text, "position": [x, y], "confidence": 0.9})
    for _ in range(round(NOISE_SHARE * len(b))):
        x, y = rng.choice(b.centroids)
        tokens.append({"text": f"{rng.randrange(4, 40)}.{rng.randrange(10)} m2",
                       "position": [x + 30.0, y + 30.0], "confidence": 0.6})
    rng.shuffle(tokens)

    paths = {
        "detections": directory / "detections.json",
        "ocr": directory / "ocr.json",
        "roster": directory / "roster.txt",
        "fixtures": directory / "fixtures",
    }
    paths["detections"].write_text(json.dumps(detections), encoding="utf-8")
    paths["ocr"].write_text(json.dumps(tokens), encoding="utf-8")
    paths["roster"].write_text("\n".join(b.names) + "\n", encoding="utf-8")

    good = parser_payload(b)
    replies = [good]
    if reject_first:
        bad = json.loads(json.dumps(good))
        e = b.edges[0]
        bad["adjacency_matrix"][e.a][e.b] = 0  # one-sided: the matrix is no longer symmetric
        replies = [bad, good]
    provider = MockProvider()
    provider.script("parser", [
        "Here is the extracted graph:\n```json\n" + json.dumps(r, indent=1) + "\n```"
        for r in replies
    ])
    provider.script("self_critic", [json.dumps({"issues": [], "suggested_fixes": []})])
    provider.save_dir(paths["fixtures"])
    return paths
