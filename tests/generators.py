"""Seeded random-input generators and frozen corpora shared across tests."""

from __future__ import annotations

import random

from floornav.extraction import RawParse
from floornav.ingest import Detection, DetectionSet

# 50 string pairs: room labels with OCR-style typos, plus degenerate cases
RATIO_CORPUS = [
    ("Cuisine", "Cuisine"), ("Cuisine", "cuisine"), ("Cuisine", "Cuisme"),
    ("Cuisine", "Cusine"), ("Repas", "Repaz"), ("Repas", "Rapas"),
    ("Cellier", "Celier"), ("Cellier", "Cellar"), ("Hall", "Hal"),
    ("Hall", "Hull"), ("Sejour", "Sejur"), ("Sejour", "Séjour"),
    ("Bathroom", "Bathrom"), ("Bathroom", "Bedroom"), ("Bedroom", "Bedrom"),
    ("Kitchen", "Kichen"), ("Kitchen", "Chicken"), ("Office", "Ofice"),
    ("Office", "Coffee"), ("Closet", "Close"), ("Closet", "Clost"),
    ("Storage", "Storag"), ("Storage", "Garage"), ("Lobby", "Loby"),
    ("Lobby", "Hobby"), ("Stairs", "Stair"), ("Stairs", "Stars"),
    ("Elevator", "Elevater"), ("Elevator", "Escalator"), ("Corridor", "Coridor"),
    ("Corridor", "Corrida"), ("abc", ""), ("", "abc"), ("", ""),
    ("a", "a"), ("a", "b"), ("ab", "ba"), ("abcd", "dcba"),
    ("Room 101", "Room 102"), ("Room 101", "room 101"), ("WC", "W.C."),
    ("Laundry", "Laundry Room"), ("Foyer", "Fover"), ("Den", "Dining"),
    ("Pantry", "Panty"), ("Suite", "Sweet"), ("Garage", "Garbage"),
    ("Attic", "Addict"), ("Porch", "Pouch"), ("Studio", "Studios"),
]
assert len(RATIO_CORPUS) == 50


def random_raw_parse(rng: random.Random) -> RawParse:
    """Schema-valid random parser output: 2..10 rooms, tree plus extra edges."""
    n = rng.randint(2, 10)
    names = [f"Room {i}" for i in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randrange(3)):
        i, j = sorted(rng.sample(range(n), 2))
        pairs.add((i, j))
    matrix = [[0] * n for _ in range(n)]
    edges = []
    for i, j in sorted(pairs):
        matrix[i][j] = matrix[j][i] = 1
        via = "passage" if rng.random() < 0.6 else f"Door_D{len(edges) + 1}"
        edge = {"from": names[i], "to": names[j], "via": via}
        if via != "passage":
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            edge["door_bbox"] = [x, y, x + 10, y + 10]
        edges.append(edge)
    return RawParse.from_payload({
        "approach": "", "nodes_elements": names,
        "adjacency_matrix": matrix, "edges": edges, "rooms_info": [],
    })


def random_detection_set(rng: random.Random, raw: RawParse) -> DetectionSet:
    """Partially-labelled detections: some rooms stay unlabelled, doors anywhere."""
    labels = []
    for name in raw.nodes_elements:
        if rng.random() < 0.8:
            labels.append((name, (rng.uniform(0, 800), rng.uniform(0, 800))))
    detections = []
    for _ in range(rng.randrange(4)):
        x, y = rng.uniform(0, 800), rng.uniform(0, 800)
        w, h = rng.uniform(5, 40), rng.uniform(5, 40)
        detections.append(Detection(class_name="door", confidence=rng.random(),
                                    bbox=(x, y, x + w, y + h),
                                    center=(x + w / 2, y + h / 2)))
    return DetectionSet(image_ref="x", detections=tuple(detections),
                        labels=tuple(labels))


def random_connected_graph(rng: random.Random, max_nodes: int = 8):
    """Connected FloorGraph on 2..max_nodes rooms (tree plus extras)."""
    from floornav.graph import FloorGraph, GraphEdge, RoomNode, rebuild_adjacency

    n = rng.randint(2, max_nodes)
    names = [f"R{i}" for i in range(n)]
    nodes = [RoomNode(name=name, centroid=(float(i * 10), 0.0))
             for i, name in enumerate(names)]
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    for _ in range(rng.randrange(n)):
        i, j = rng.sample(range(n), 2)
        pairs.append((names[min(i, j)], names[max(i, j)]))
    edges = [GraphEdge(from_room=a, to_room=b) for a, b in pairs]
    return FloorGraph(nodes=nodes, edges=edges,
                      adjacency=rebuild_adjacency(nodes, edges))


def random_multigraph(rng: random.Random, max_nodes: int = 8):
    """A random_connected_graph whose edge list also repeats pairs, in shuffled order:
    one passage listed again reversed and in lower case, and two doors between one pair."""
    from floornav.graph import FloorGraph, GraphEdge, rebuild_adjacency

    g = random_connected_graph(rng, max_nodes)
    a, b = rng.choice(g.edges).endpoints()
    c, d = rng.choice(g.edges).endpoints()
    doors = [GraphEdge(from_room=x, to_room=y, via=f"Door_D{k}",
                       door_bbox=(10.0 * k, 10.0, 10.0 * k + 5.0, 15.0))
             for k, (x, y) in enumerate(((c, d), (d, c)), start=1)]
    edges = list(g.edges) + [GraphEdge(from_room=b.lower(), to_room=a)] + doors
    rng.shuffle(edges)
    return FloorGraph(nodes=g.nodes, edges=tuple(edges),
                      adjacency=rebuild_adjacency(g.nodes, edges))
