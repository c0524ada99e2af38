import json
import math
import random

import pytest

import buildings
import oracles
from floornav.graph import (
    FloorGraph,
    GraphEdge,
    RoomNode,
    bfs_shortest_path,
    rebuild_adjacency,
)
from floornav.kb import build_knowledge_base
from floornav.navigation import navigate
from floornav.walkthrough import (
    Checkpoint,
    Confirmed,
    FaultModel,
    Mismatch,
    RouteSpec,
    TrialResult,
    TruthManifest,
    TruthManifestError,
    UnknownMarkerError,
    aggregate_trials,
    classify_route,
    confirm_checkpoint,
    evaluate_suite,
    format_report_table,
    format_sr,
    load_routes,
    reroute_from,
    simulate_walk,
    walk,
)


@pytest.fixture
def nine_room():
    graph, dets, truth = buildings.synthetic_building(9, seed=4, building_id="b9")
    return build_knowledge_base(graph, dets, "b9"), truth


def make_rerouter(kb):
    def rerouter(current, destination):
        return reroute_from(kb, current, destination, 60.0)
    return rerouter


class TestConfirmCheckpoint:
    def test_match(self, nine_room):
        _, truth = nine_room
        cp = truth.checkpoints[6]
        assert confirm_checkpoint(truth, cp, cp.marker_id) == \
            Confirmed(marker_id=cp.marker_id)

    def test_mismatch_carries_detected_node(self, nine_room):
        _, truth = nine_room
        expected = truth.checkpoints[6]
        other = truth.checkpoints[8]
        outcome = confirm_checkpoint(truth, expected, other.marker_id)
        assert outcome == Mismatch(marker_id=other.marker_id,
                                   detected_node=other.node)

    def test_unregistered_marker(self, nine_room):
        _, truth = nine_room
        with pytest.raises(UnknownMarkerError, match="999"):
            confirm_checkpoint(truth, truth.checkpoints[0], 999)

    def test_duplicate_marker_ids_rejected(self, nine_room):
        kb, truth = nine_room
        with pytest.raises(ValueError, match="unique"):
            TruthManifest(graph=truth.graph,
                          checkpoints=(Checkpoint(1, "Room 01"),
                                       Checkpoint(1, "Room 02")))


BAD_SCALE = "scale_cm_per_px must be null or a finite number above 0, got "


class TestTruthManifestFile:
    @pytest.mark.parametrize("drop, field", [
        (lambda p: p.pop("graph"), "graph"),
        (lambda p: p["checkpoints"][0].pop("node"), "node"),
        (lambda p: p["graph"]["edges"][0].pop("to"), "to"),
    ], ids=["graph", "checkpoint-node", "edge-to"])
    def test_missing_field_names_file_and_field(self, nine_room, tmp_path, drop, field):
        _, truth = nine_room
        payload = truth.to_payload()
        drop(payload)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TruthManifestError) as info:
            TruthManifest.load(path)
        assert str(info.value) == f"{path}: missing field {field!r}"

    @pytest.mark.parametrize("change, message", [
        (lambda p: p["graph"]["edges"].append(1), "graph: edge record must be an object, got 1"),
        (lambda p: p.update(checkpoints=[1]), "checkpoints must be an array of objects"),
        (lambda p: p.update(inaccessible=5), "inaccessible must be an array of room names"),
        (lambda p: p["checkpoints"][0].update(marker_id=None),
         "int() argument must be a string, a bytes-like object or a real number, "
         "not 'NoneType'"),
        (lambda p: p["checkpoints"][1].update(marker_id=p["checkpoints"][0]["marker_id"]),
         "marker ids must be unique per building"),
        (lambda p: p["graph"]["adjacency_matrix"][0].__setitem__(-1, 1),
         "graph: symmetry: matrix[i][j]==matrix[j][i] violated (matrix must be symmetric)"),
        (lambda p: p.update(scale_cm_per_px="2"), BAD_SCALE + "'2'"),
        (lambda p: p.update(scale_cm_per_px=math.nan), BAD_SCALE + "nan"),
        (lambda p: p.update(scale_cm_per_px=math.inf), BAD_SCALE + "inf"),
        (lambda p: p.update(scale_cm_per_px=0), BAD_SCALE + "0"),
        (lambda p: p.update(scale_cm_per_px=-3), BAD_SCALE + "-3"),
        (lambda p: p.update(scale_cm_per_px=True), BAD_SCALE + "True"),
    ], ids=["non-object-edge", "non-object-checkpoint", "non-array-inaccessible",
            "null-marker-id", "duplicate-marker-id", "asymmetric-matrix",
            "string-scale", "nan-scale", "infinite-scale", "zero-scale", "negative-scale",
            "bool-scale"])
    def test_malformed_field_names_file(self, nine_room, tmp_path, change, message):
        _, truth = nine_room
        payload = truth.to_payload()
        change(payload)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TruthManifestError) as info:
            TruthManifest.load(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("scale", [None, 2, 0.25])
    def test_null_or_positive_scale_is_kept(self, nine_room, tmp_path, scale):
        _, truth = nine_room
        payload = dict(truth.to_payload(), scale_cm_per_px=scale)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        assert TruthManifest.load(path).scale_cm_per_px == scale

    def test_non_object_is_rejected(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text("[]")
        with pytest.raises(TruthManifestError, match="expected a JSON object"):
            TruthManifest.load(path)


class TestSimulateWalk:
    def test_truth_equals_kb_graph_succeeds(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        plan = navigate(kb, names[0], names[-1], 60.0)
        trial = simulate_walk(plan, truth, FaultModel.none(), make_rerouter(kb),
                              route_id="r1", route_class="short")
        assert trial.success
        assert trial.reroutes == 0
        assert trial.failure_reason is None

    def test_spurious_edge_in_kb_fails_with_invalid_transition(self):
        graph, dets, truth = buildings.synthetic_building(9, seed=4)
        wrong, (a, b) = buildings.with_spurious_edge(graph, seed=5)
        kb = build_knowledge_base(wrong, dets, "b9")
        plan = navigate(kb, a, b, 60.0)
        trial = simulate_walk(plan, truth, FaultModel.none(), make_rerouter(kb),
                              route_id="r1", route_class="short")
        assert not trial.success
        assert trial.failure_reason.startswith("invalid transition")
        # the walker's first bad hop is exactly the spurious edge
        assert f"{a} -> {b}" in trial.failure_reason or \
            f"{b} -> {a}" in trial.failure_reason

    def test_inaccessible_room_fails(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        plan = navigate(kb, names[0], names[-1], 60.0)
        blocked = plan.path[1]
        strict = TruthManifest(graph=truth.graph, checkpoints=truth.checkpoints,
                               inaccessible=frozenset({blocked}),
                               building_id=truth.building_id)
        trial = simulate_walk(plan, strict, FaultModel.none(), make_rerouter(kb))
        assert not trial.success
        assert "inaccessible" in trial.failure_reason

    def test_injected_mismatch_reroutes_then_succeeds(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        start, destination = names[0], names[-1]
        plan = navigate(kb, start, destination, 60.0)
        assert len(plan.path) >= 3
        # teleport the walker at the first scan to some other room's marker
        wrong_room = next(n for n in names
                          if n not in (start, destination, plan.path[1]))
        wrong_marker = truth.node_marker(wrong_room)
        fault = FaultModel(injections={0: wrong_marker})
        trial = simulate_walk(plan, truth, fault, make_rerouter(kb),
                              route_id="r1", route_class="medium")
        assert trial.success
        assert trial.reroutes == 1
        # replay oracle: every arrived->arrived transition is adjacent in truth
        arrived = [e.detail for e in trial.events if e.kind in ("arrived", "deviated")]
        walk = [start] + arrived
        for a, b in zip(walk, walk[1:]):
            if a.lower() != b.lower():
                assert truth.graph.adjacent(a, b)

    def test_mismatch_without_rerouter_fails(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        plan = navigate(kb, names[0], names[-1], 60.0)
        wrong_room = next(n for n in names if n != plan.path[1])
        fault = FaultModel(injections={0: truth.node_marker(wrong_room)})
        trial = simulate_walk(plan, truth, fault, rerouter=None)
        assert not trial.success
        assert "without reroute" in trial.failure_reason


class TestWalk:
    def test_rerouter_runs_only_when_resumed_past_deviated(self, nine_room):
        kb, truth = nine_room
        plan = navigate(kb, "Room 01", "Room 09", 60.0)
        assert plan.path == ("Room 01", "Room 02", "Room 09")
        calls = []

        def rerouter(room, destination):
            calls.append((room, destination))
            return reroute_from(kb, room, destination, 60.0)

        # every scan reads Room 07's marker
        events = walk(plan, truth.graph, truth, lambda expected: "7", rerouter)
        kinds = []
        for event in events:
            kinds.append(event.kind)
            if event.kind == "deviated":
                break
        assert kinds == ["planned", "step", "moving", "arrived", "checkpoint",
                         "scanned", "deviated"]
        assert event.detail == "Room 07" and calls == []
        assert next(events).kind == "rerouted"
        assert calls == [("Room 07", "Room 09")]


class TestRerouteFrom:
    def test_from_destination_is_single_stop(self, nine_room):
        kb, _ = nine_room
        plan = reroute_from(kb, "Room 05", "Room 05", 60.0)
        assert len(plan.steps) == 1
        assert plan.steps[0].action == "Stop"

    def test_adjacent_room_is_one_edge(self, nine_room):
        kb, _ = nine_room
        start = "Room 01"
        neighbour = kb.graph.neighbors(start)[0]
        plan = reroute_from(kb, start, neighbour, 60.0)
        assert plan.path == (start, neighbour)

    def test_hop_count_matches_exhaustive_oracle(self, nine_room):
        kb, _ = nine_room
        g = kb.graph
        rng = random.Random(8)
        for _ in range(10):
            a, b = rng.sample(g.names(), 2)
            plan = reroute_from(kb, a, b, 60.0)
            expect = oracles.min_hops_exhaustive(g.adjacency.tolist(),
                                                 g.index_of(a), g.index_of(b))
            assert len(plan.path) - 1 == expect


class TestClassification:
    def test_thresholds(self, nine_room):
        kb, truth = nine_room
        g = truth.graph
        for a in g.names():
            for b in g.names():
                hops_path = bfs_shortest_path(g, a, b)
                hops = len(hops_path) - 1
                cls = classify_route(g, a, b)
                if hops <= 2:
                    assert cls == "short"
                elif hops <= 5:
                    assert cls == "medium"
                else:
                    assert cls == "long"


class TestAggregation:
    @staticmethod
    def synthetic_trials(successes, total, route_class="short"):
        trials = []
        for i in range(total):
            ok = i < successes
            trials.append(TrialResult(
                route_id=f"r{i}", route_class=route_class, success=ok,
                failure_reason=None if ok else "invalid transition: X -> Y",
            ))
        return trials

    @pytest.mark.parametrize("successes,expected", [
        (12, "92.31 (12)"), (10, "76.92 (10)"), (8, "61.54 (8)"), (5, "38.46 (5)"),
    ])
    def test_table_cells_match_reference_format(self, successes, expected):
        report = aggregate_trials(self.synthetic_trials(successes, 13))
        assert format_sr(report.successes(), report.total()) == expected
        assert expected in format_report_table(report)

    def test_zero_successes(self):
        report = aggregate_trials(self.synthetic_trials(0, 4))
        assert format_sr(report.successes(), report.total()) == "0.00 (0)"
        assert report.sr_overall == 0.0

    def test_sr_equals_ratio(self):
        report = aggregate_trials(self.synthetic_trials(3, 4))
        assert report.sr_overall == 3 / 4

    def test_permutation_invariant(self):
        trials = (self.synthetic_trials(5, 8, "short")
                  + self.synthetic_trials(2, 5, "long"))
        rng = random.Random(0)
        shuffled = trials[:]
        rng.shuffle(shuffled)
        a, b = aggregate_trials(trials), aggregate_trials(shuffled)
        assert a.sr_overall == b.sr_overall
        assert dict(a.sr_by_class) == dict(b.sr_by_class)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="empty suite"):
            aggregate_trials([])

    def test_success_must_not_carry_reason(self):
        with pytest.raises(ValueError):
            TrialResult(route_id="r", route_class="short", success=True,
                        failure_reason="but why")


class TestEvaluateSuite:
    def test_null_fault_model_is_all_success(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        rng = random.Random(2)
        routes = [RouteSpec(route_id=f"r{i}", start=a, destination=b)
                  for i, (a, b) in enumerate(
                      (rng.sample(names, 2)) for _ in range(10))]
        report = evaluate_suite(routes, kb, truth)
        assert report.sr_overall == 1.0

    def test_seeded_fault_model_is_reproducible(self, nine_room):
        kb, truth = nine_room
        names = kb.graph.names()
        routes = [RouteSpec(route_id=f"r{i}", start=names[0], destination=names[-1])
                  for i in range(6)]
        fault = FaultModel(seed=13, mismatch_rate=0.4)
        a = evaluate_suite(routes, kb, truth, fault)
        b = evaluate_suite(routes, kb, truth,
                           FaultModel(seed=13, mismatch_rate=0.4))
        assert a == b

    def test_unknown_endpoint_becomes_failed_trial(self, nine_room):
        kb, truth = nine_room
        routes = [RouteSpec(route_id="ok", start="Room 01", destination="Room 02"),
                  RouteSpec(route_id="bad", start="Room 01", destination="Attic")]
        report = evaluate_suite(routes, kb, truth)
        by_id = {t.route_id: t for t in report.trials}
        assert by_id["ok"].success
        assert not by_id["bad"].success
        assert "Attic" in by_id["bad"].failure_reason

    def test_kb_room_missing_from_truth_fails_not_crashes(self, nine_room):
        kb, truth = nine_room
        # a hallucinated room exists in the KB graph but not in truth
        ghost = RoomNode(name="Phantom", centroid=(7000.0, 7000.0))
        nodes = kb.graph.nodes + (ghost,)
        edges = kb.graph.edges + (GraphEdge(from_room="Room 01", to_room="Phantom"),)
        wrong = FloorGraph(nodes=nodes, edges=edges,
                           adjacency=rebuild_adjacency(nodes, edges))
        haunted = build_knowledge_base(wrong, kb.visual.detections, "haunted")
        routes = [RouteSpec(route_id="ghost", start="Room 01",
                            destination="Phantom"),
                  RouteSpec(route_id="from-ghost", start="Phantom",
                            destination="Room 01")]
        report = evaluate_suite(routes, haunted, truth)
        assert all(not t.success for t in report.trials)
        reasons = [t.failure_reason for t in report.trials]
        assert any("not in truth" in r for r in reasons)
        assert any("does not exist in truth" in r for r in reasons)

    def test_route_file_round_trip(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([
            {"route_id": "a", "start": "X", "destination": "Y", "class": "short"},
            {"start": "P", "destination": "Q"},
        ]))
        routes = load_routes(path)
        assert routes[0] == RouteSpec(route_id="a", start="X", destination="Y",
                                      route_class="short")
        assert routes[1].route_id == "route-1"
        assert routes[1].route_class is None
