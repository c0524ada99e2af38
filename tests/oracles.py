"""Independent oracles: deliberately naive implementations the tests trust.

Each function here uses a different algorithm than the library path it checks
(full-matrix DP vs two-row DP, exhaustive path enumeration vs BFS, boolean
matrix powering vs BFS sweep, every-pair scoring vs bounded label matching,
plain-Python statistics vs the library's).
"""

from __future__ import annotations

import math


def edit_distance_matrix(a: str, b: str) -> int:
    """Full (len+1)x(len+1) dynamic-programming table."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def ratio_oracle(a: str, b: str) -> float:
    a, b = a.casefold(), b.casefold()
    if not a and not b:
        return 1.0
    return 1.0 - edit_distance_matrix(a, b) / max(len(a), len(b))


def match_labels_bruteforce(tokens, known, threshold: float) -> list:
    """Score every (token, roster entry) pair; ties go to the earlier entry."""
    matched = []
    for token in tokens:
        best_name, best_ratio = None, -1.0
        for candidate in known:
            ratio = ratio_oracle(token.text, candidate)
            if ratio > best_ratio:
                best_name, best_ratio = candidate, ratio
        if best_name is not None and best_ratio >= threshold:
            matched.append((best_name, token.position))
    return matched


def min_hops_exhaustive(adjacency, start: int, destination: int) -> int | None:
    """Minimum hop count over every simple path, by depth-first enumeration."""
    n = len(adjacency)
    best: list[int | None] = [None]

    def walk(node: int, visited: set[int], hops: int) -> None:
        if node == destination:
            if best[0] is None or hops < best[0]:
                best[0] = hops
            return
        for nxt in range(n):
            if adjacency[node][nxt] and nxt not in visited:
                walk(nxt, visited | {nxt}, hops + 1)

    walk(start, {start}, 0)
    return best[0]


def components_by_matrix_power(adjacency) -> list[set[int]]:
    """Connected components from the boolean transitive closure (matrix powering)."""
    n = len(adjacency)
    reach = [[bool(adjacency[i][j]) or i == j for j in range(n)] for i in range(n)]
    changed = True
    while changed:  # square the relation until it stabilises
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    components: list[set[int]] = []
    assigned: set[int] = set()
    for i in range(n):
        if i in assigned:
            continue
        comp = {j for j in range(n) if reach[i][j]}
        components.append(comp)
        assigned |= comp
    return components


def _room_key(name: str) -> str:
    return name.strip().lower()


def edges_between_scan(edges, a: str, b: str) -> tuple:
    """Every edge joining rooms a and b, in edge-list order, by a full scan."""
    want = sorted((_room_key(a), _room_key(b)))
    return tuple(e for e in edges
                 if sorted((_room_key(e.from_room), _room_key(e.to_room))) == want)


def neighbors_from_edges(nodes, edges, name: str) -> list[str]:
    """Rooms sharing an edge with `name`, in ascending node-index order, from the edge list."""
    me = _room_key(name)
    linked = set()
    for e in edges:
        ends = {_room_key(e.from_room), _room_key(e.to_room)}
        if me in ends:
            linked |= ends - {me}
    return [n.name for n in nodes if _room_key(n.name) in linked]


def graph_payload_scan(nodes, edges) -> dict:
    """graph_to_payload's document, by a full edge-list scan for every room and every cell.

    A room's door ids are sorted by door number, ties in edge-list order; its
    connected rooms are in node order.
    """
    keys = [_room_key(n.name) for n in nodes]

    def ends(e) -> set[str]:
        return {_room_key(e.from_room), _room_key(e.to_room)}

    def linked(a: str, b: str) -> bool:
        return a != b and any(ends(e) == {a, b} for e in edges)

    nodes_elements, rooms_info = [], []
    for node, key in zip(nodes, keys):
        entry = {"name": node.name, "kind": node.kind, "centroid": list(node.centroid)}
        if node.ocr_confidence is not None:
            entry["ocr_confidence"] = node.ocr_confidence
        if node.synthetic_centroid:
            entry["synthetic_centroid"] = True
        nodes_elements.append(entry)
        doors = [e.via for e in edges if e.via != "passage" and key in ends(e)]
        ranked = sorted(range(len(doors)), key=lambda k: (int(doors[k][len("Door_D"):]), k))
        info = {"name": node.name, "doors": [doors[k] for k in ranked],
                "connected_rooms": [other.name for other, other_key in zip(nodes, keys)
                                    if linked(key, other_key)]}
        size = []
        if node.size_m2 is not None:
            size.append(f"{node.size_m2:g} m2")
        if node.dimensions is not None:
            dims = f"{node.dimensions[0]:g} m x {node.dimensions[1]:g} m"
            size.append(f"({dims})" if size else dims)
        if size:
            info["size"] = " ".join(size)
        rooms_info.append(info)
    edge_records = []
    for e in edges:
        record = {"from": e.from_room, "to": e.to_room, "via": e.via}
        if e.door_bbox is not None:
            record["door_bbox"] = list(e.door_bbox)
        edge_records.append(record)
    return {
        "approach": "",
        "nodes_elements": nodes_elements,
        "adjacency_matrix": [[int(linked(a, b)) for b in keys] for a in keys],
        "edges": edge_records,
        "rooms_info": rooms_info,
    }


def population_stats(values) -> tuple[float, float]:
    """(mean, population standard deviation) with plain arithmetic."""
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(variance)


def heading_by_turn_sum(initial: str, actions) -> str:
    """Final heading as the signed-turn sum mod 360."""
    degrees = {"N": 0, "E": 90, "S": 180, "W": 270}
    names = {v: k for k, v in degrees.items()}
    total = degrees[initial]
    for action in actions:
        if action == "Turn left":
            total -= 90
        elif action == "Turn right":
            total += 90
        elif action == "Turn around":
            total += 180
    return names[total % 360]


def cosine_brute(u, v) -> float:
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0 or nv == 0:
        return 0.0
    return dot / (nu * nv)


def nearest_two_bruteforce(point, centroids) -> tuple[int, int]:
    """Indices of the two nearest centroids, ties toward the lower index."""
    ranked = sorted(
        range(len(centroids)),
        key=lambda i: (math.dist(point, centroids[i]), i),
    )
    return tuple(sorted(ranked[:2]))
