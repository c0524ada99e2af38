import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import random_connected_graph, random_multigraph
from floornav.graph import (
    RULE_AGREEMENT,
    RULE_LENGTH,
    RULE_MIN_DEGREE,
    RULE_SYMMETRY,
    RULE_VALUES,
    FloorGraph,
    GraphEdge,
    GraphError,
    RoomNode,
    UnknownRoomError,
    bfs_shortest_path,
    connected_components,
    edge_violations,
    graph_from_payload,
    graph_to_payload,
    name_key,
    rebuild_adjacency,
    shortest_route,
    validate_graph,
)


def room(name, x=0.0, y=0.0, **kw):
    return RoomNode(name=name, centroid=(x, y), **kw)


def make_graph(names, pairs, positions=None):
    positions = positions or {}
    nodes = [room(n, *positions.get(n, (float(i * 10), 0.0)))
             for i, n in enumerate(names)]
    edges = [GraphEdge(from_room=a, to_room=b) for a, b in pairs]
    return FloorGraph(nodes=nodes, edges=edges,
                      adjacency=rebuild_adjacency(nodes, edges))


class TestNodeAndEdgeInvariants:
    def test_room_rejects_empty_name(self):
        with pytest.raises(GraphError):
            room("   ")

    def test_room_rejects_negative_centroid(self):
        with pytest.raises(GraphError):
            room("A", -1.0, 5.0)

    def test_room_rejects_bad_confidence(self):
        with pytest.raises(GraphError):
            room("A", ocr_confidence=1.2)

    def test_edge_rejects_self_loop(self):
        with pytest.raises(GraphError):
            GraphEdge(from_room="A", to_room=" a ")

    def test_edge_rejects_bad_door_id(self):
        with pytest.raises(GraphError):
            GraphEdge(from_room="A", to_room="B", via="door3")

    def test_edge_rejects_degenerate_bbox(self):
        with pytest.raises(GraphError):
            GraphEdge(from_room="A", to_room="B", via="Door_D1",
                      door_bbox=(10, 10, 5, 20))

    def test_edge_error_is_the_first_parser_finding(self):
        args = ("A", "a", "door3", (10, 10, 5, 20))
        assert edge_violations(*args) == [
            "edge 'A'->'a' links a room to itself",
            "edge via must be Door_D<n> or passage, got 'door3'",
            "degenerate door_bbox [10, 10, 5, 20]",
        ]
        with pytest.raises(GraphError) as info:
            GraphEdge(*args)
        assert str(info.value) == "edge 'A'->'a' links a room to itself"

    def test_edge_rejects_bbox_without_four_numbers(self):
        with pytest.raises(GraphError, match=r"^degenerate door_bbox \[1, 2, 3\]$"):
            GraphEdge(from_room="A", to_room="B", via="Door_D1", door_bbox=(1, 2, 3))

    def test_room_lookup_is_case_insensitive(self):
        g = make_graph(["Cuisine", "Repas"], [("Cuisine", "Repas")])
        assert g.index_of("  cuisine ") == 0
        assert g.node("REPAS").name == "Repas"


class TestValidateGraph:
    def test_minimal_valid_graph(self):
        g = make_graph(["A", "B"], [("A", "B")])
        report = validate_graph(g)
        assert report.passed
        assert report.violations == ()

    def test_asymmetric_matrix_flagged(self):
        nodes = [room("A"), room("B", 10)]
        edges = [GraphEdge(from_room="A", to_room="B")]
        with pytest.raises(GraphError, match=f"^{RULE_SYMMETRY}: "):
            FloorGraph(nodes=nodes, edges=edges, adjacency=[[0, 1], [0, 0]])

    def test_isolated_node_flagged_with_min_degree_rule(self):
        nodes = [room("A"), room("B", 10), room("C", 20)]
        edges = [GraphEdge(from_room="A", to_room="B")]
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        report = validate_graph(g)
        assert not report.passed
        assert RULE_MIN_DEGREE in report.rules()
        offender = [v for v in report.violations if v.rule == RULE_MIN_DEGREE]
        assert offender[0].offender == "C"
        assert "EVERY NODE MUST HAVE >= 1 EDGE" in offender[0].message

    def test_non_square_matrix_names_length_rule(self):
        nodes = [room("A"), room("B", 10)]
        edges = [GraphEdge(from_room="A", to_room="B")]
        with pytest.raises(GraphError, match=f"^{RULE_LENGTH}: "):
            FloorGraph(nodes=nodes, edges=edges, adjacency=[[0, 1, 0], [1, 0, 0]])

    def test_matrix_edge_disagreement_flagged(self):
        nodes = [room("A"), room("B", 10), room("C", 20)]
        edges = [GraphEdge(from_room="A", to_room="B"),
                 GraphEdge(from_room="B", to_room="C")]
        wrong = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # claims A-C which has no edge
        with pytest.raises(GraphError, match=f"^{RULE_AGREEMENT}: matrix\\[0\\]\\[2\\] == 1 "
                                             "but no edge links 'A' and 'C'$"):
            FloorGraph(nodes=nodes, edges=edges, adjacency=wrong)

    def test_accepted_graphs_round_trip_through_rebuild(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_connected_graph(rng)
            assert validate_graph(g).passed
            assert np.array_equal(rebuild_adjacency(g.nodes, g.edges), g.adjacency)


class TestRebuildAdjacency:
    def test_path_graph(self):
        nodes = [room("A"), room("B", 10), room("C", 20)]
        edges = [GraphEdge(from_room="A", to_room="B"),
                 GraphEdge(from_room="B", to_room="C")]
        expected = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert rebuild_adjacency(nodes, edges).tolist() == expected

    def test_singleton(self):
        assert rebuild_adjacency([room("A")], []).tolist() == [[0]]

    def test_duplicate_edges_collapse_to_set_semantics(self):
        nodes = [room("A"), room("B", 10)]
        once = [GraphEdge(from_room="A", to_room="B")]
        twice = once + [GraphEdge(from_room="B", to_room="A")]
        built = rebuild_adjacency(nodes, twice)
        assert np.array_equal(built, rebuild_adjacency(nodes, once))
        # brute-force membership oracle: a 1 exactly where some edge links the pair
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                linked = any(
                    {name_key(a.name), name_key(b.name)} ==
                    {name_key(e.from_room), name_key(e.to_room)}
                    for e in twice
                )
                assert bool(built[i, j]) == (linked and i != j)

    def test_unknown_endpoint_names_edge_and_room(self):
        with pytest.raises(UnknownRoomError, match="'Attic'"):
            rebuild_adjacency([room("A"), room("B", 10)],
                              [GraphEdge(from_room="A", to_room="Attic")])

    def test_idempotent(self):
        nodes = [room("A"), room("B", 10), room("C", 20)]
        edges = [GraphEdge(from_room="A", to_room="C")]
        first = rebuild_adjacency(nodes, edges)
        assert np.array_equal(first, rebuild_adjacency(nodes, edges))


class TestBfsShortestPath:
    def test_same_room_is_zero_length_path(self):
        g = make_graph(["Cuisine", "Repas"], [("Cuisine", "Repas")])
        assert bfs_shortest_path(g, "Cuisine", "Cuisine") == ["Cuisine"]

    def test_golden_cuisine_to_repas(self, golden_graph):
        assert bfs_shortest_path(golden_graph, "Cuisine", "Repas") == ["Cuisine", "Repas"]

    def test_unknown_room_raises_with_name(self, golden_graph):
        with pytest.raises(UnknownRoomError, match="'Garage'"):
            bfs_shortest_path(golden_graph, "Cuisine", "Garage")

    def test_disconnected_returns_no_path(self):
        g = make_graph(["A", "B", "C", "D"], [("A", "B"), ("C", "D")])
        assert bfs_shortest_path(g, "A", "D") is None
        assert shortest_route(g, "A", "D") is None

    def test_tie_break_prefers_lowest_node_index(self):
        # diamond: A-B, A-C, B-D, C-D; both routes have 2 hops, B comes first
        g = make_graph(["A", "B", "C", "D"],
                       [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        assert bfs_shortest_path(g, "A", "D") == ["A", "B", "D"]

    def test_hop_counts_match_exhaustive_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_connected_graph(rng)
            names = g.names()
            s, d = rng.choice(names), rng.choice(names)
            path = bfs_shortest_path(g, s, d)
            expect = oracles.min_hops_exhaustive(g.adjacency.tolist(),
                                                 g.index_of(s), g.index_of(d))
            assert path is not None and len(path) - 1 == expect

    def test_consecutive_pairs_are_adjacent(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected_graph(rng)
            names = g.names()
            path = bfs_shortest_path(g, names[0], names[-1])
            for a, b in zip(path, path[1:]):
                assert g.adjacent(a, b)

    def test_invariant_under_centroid_scaling(self):
        # the path depends only on the adjacency matrix
        names = ["A", "B", "C", "D", "E"]
        pairs = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E")]
        small = make_graph(names, pairs)
        scaled = make_graph(names, pairs,
                            positions={n: (i * 1000.0, i * 500.0)
                                       for i, n in enumerate(names)})
        assert bfs_shortest_path(small, "A", "D") == bfs_shortest_path(scaled, "A", "D")


class TestConnectedComponents:
    def test_path_graph_is_one_component(self):
        g = make_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert connected_components(g) == [{"A", "B", "C"}]

    def test_two_pairs_are_two_components(self):
        g = make_graph(["A", "B", "C", "D"], [("A", "B"), ("C", "D")])
        assert connected_components(g) == [{"A", "B"}, {"C", "D"}]

    def test_matches_matrix_powering_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            n = 10
            names = [f"R{i}" for i in range(n)]
            pairs = set()
            for _ in range(rng.randrange(4, 12)):
                i, j = rng.sample(range(n), 2)
                pairs.add((names[min(i, j)], names[max(i, j)]))
            # give isolated rooms a partner so the graph is constructible
            linked = {x for p in pairs for x in p}
            for name in names:
                if name not in linked:
                    other = names[(names.index(name) + 1) % n]
                    pairs.add(tuple(sorted((name, other))))
            g = make_graph(names, sorted(pairs))
            got = {frozenset(c) for c in connected_components(g)}
            expect = {
                frozenset(names[i] for i in comp)
                for comp in oracles.components_by_matrix_power(g.adjacency.tolist())
            }
            assert got == expect


class TestSerialization:
    def test_payload_round_trip(self, golden_graph):
        payload = graph_to_payload(golden_graph)
        assert set(payload) == {"approach", "nodes_elements", "adjacency_matrix",
                                "edges", "rooms_info"}
        assert payload["edges"][1] == {
            "from": "Cuisine", "to": "Repas", "via": "Door_D3",
            "door_bbox": [160.0, 260.0, 180.0, 280.0],
        }
        assert graph_from_payload(payload) == golden_graph

    @pytest.mark.parametrize("change, error, message", [
        (lambda p: p["adjacency_matrix"][0].__setitem__(1, 2), GraphError,
         r"^value_domain: matrix values must be in \{0,1\}, found 2$"),
        (lambda p: p.update(adjacency_matrix=[[0] * 6] * 6), GraphError,
         "^length_consistency: "),
        (lambda p: p["edges"][0].update(to="Attic"), UnknownRoomError, "'Attic'"),
        (lambda p: p["edges"].append(1), GraphError, "edge record must be an object"),
        (lambda p: p["nodes_elements"].append(1), GraphError,
         "node record must be a name or an object"),
        (lambda p: p.update(edges={"from": "Cuisine"}), GraphError, "edges must be an array"),
        (lambda p: p["nodes_elements"][0].update(centroid=[1]), ValueError,
         "not enough values to unpack"),
    ], ids=["value-2", "6x6-for-5-rooms", "edge-to-unknown-room", "non-object-edge",
            "non-object-node", "non-array-edges", "one-number-centroid"])
    def test_bad_document_raises_value_error(self, golden_graph, change, error, message):
        payload = graph_to_payload(golden_graph)
        change(payload)
        with pytest.raises(error, match=message):
            graph_from_payload(payload)

    def test_rooms_info_carries_size_strings(self, golden_graph):
        payload = graph_to_payload(golden_graph)
        info = {r["name"]: r for r in payload["rooms_info"]}
        assert info["Cuisine"]["size"] == "11.85 m2 (3.5 m x 3.4 m)"
        assert info["Cuisine"]["doors"] == ["Door_D2", "Door_D3"]


@given(st.lists(st.sampled_from(["A", "B", "C", "D", "E", "F"]), min_size=2,
                max_size=6, unique=True),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_rebuild_always_symmetric_zero_diagonal(names, rng):
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]
    nodes = [room(n, float(i * 5), 0.0) for i, n in enumerate(names)]
    edges = [GraphEdge(from_room=a, to_room=b) for a, b in pairs]
    adj = rebuild_adjacency(nodes, edges)
    assert np.array_equal(adj, adj.T)
    assert not np.diagonal(adj).any()


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_queries_agree_with_edge_list_oracles(rng):
    g = random_multigraph(rng)
    for a in g.names():
        neighbours = oracles.neighbors_from_edges(g.nodes, g.edges, a)
        assert g.neighbors(a) == neighbours
        assert g.degree(a) == len(neighbours) == g.degree(f" {a.upper()} ")
        assert g.edges_between(a, a) == g.edges_between(a, f" {a.lower()} ") == ()
        assert g.edges_between(a, "Attic") == g.edges_between("Attic", a) == ()
        assert not g.adjacent(a, a.upper())
        with pytest.raises(UnknownRoomError):
            g.adjacent(a, "Attic")
        for b in g.names():
            expected = oracles.edges_between_scan(g.edges, a, b)
            assert g.edges_between(a, b) == expected
            assert g.edges_between(f" {b.lower()} ", a.upper()) == expected
            assert g.adjacent(a, b) == g.adjacent(b.upper(), a) == bool(expected)
    assert g.edges_between("Attic", "Attic") == ()
    with pytest.raises(UnknownRoomError):
        g.degree("Attic")


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_payload_matches_edge_list_oracle(rng):
    g = random_multigraph(rng)
    assert graph_to_payload(g) == oracles.graph_payload_scan(g.nodes, g.edges)


def test_golden_payload_matches_edge_list_oracle(golden_graph):
    assert graph_to_payload(golden_graph) == oracles.graph_payload_scan(
        golden_graph.nodes, golden_graph.edges)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_route_is_the_bfs_path_through_door_first_legs(rng):
    g = random_multigraph(rng)
    for a in g.names():
        for b in g.names():
            route = shortest_route(g, a, b)
            assert list(route.path) == bfs_shortest_path(g, a, b)
            assert len(route.legs) == len(route.path) - 1
            for here, there, leg in zip(route.path, route.path[1:], route.legs):
                edges = oracles.edges_between_scan(g.edges, here, there)
                assert leg == next((e for e in edges if e.is_door), edges[0])


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_payload_round_trip(rng):
    g = random_multigraph(rng)
    assert graph_from_payload(graph_to_payload(g)) == g


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_payload_matrix_must_be_the_derived_one(rng):
    g = random_multigraph(rng)
    n = len(g)
    i, j = rng.sample(range(n), 2)

    def payload_with(change):
        payload = graph_to_payload(g)
        change(payload["adjacency_matrix"])
        return payload

    def flip(*cells):
        def change(matrix):
            for r, c in cells:
                matrix[r][c] = 1 - matrix[r][c]
        return change

    for change, rule in ((flip((i, j)), RULE_SYMMETRY),
                         (flip((i, j), (j, i)), RULE_AGREEMENT),
                         (flip((i, i)), RULE_VALUES),
                         (lambda matrix: matrix.append([0] * n), RULE_LENGTH)):
        with pytest.raises(GraphError, match=f"^{rule}: "):
            graph_from_payload(payload_with(change))
    assert graph_from_payload(payload_with(lambda matrix: None)) == g
