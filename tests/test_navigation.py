import json
import random

import pytest

import oracles
from conftest import make_gateway, valid_planner_response
from floornav.graph import FloorGraph, GraphEdge, RoomNode, rebuild_adjacency, shortest_route
from floornav.ingest import Detection, DetectionSet
from floornav.kb import build_knowledge_base
from floornav.navigation import (
    HEADINGS,
    NavStep,
    NoPathError,
    heading_after,
    navigate,
    plan_route,
    safety_evaluate,
    template_steps,
    validate_steps,
)

ACTIONS = ["Turn left", "Turn right", "Turn around", "Move forward 3", "Stop"]


def line_building(names, spacing=300.0, door_width=60.0, building_id="line"):
    """Rooms on a west-east line, one door per consecutive pair."""
    nodes = [RoomNode(name=n, centroid=(spacing * (i + 1), 500.0))
             for i, n in enumerate(names)]
    edges, detections = [], []
    for k, (a, b) in enumerate(zip(nodes, nodes[1:]), start=1):
        cx = (a.centroid[0] + b.centroid[0]) / 2
        bbox = (cx - door_width / 2, 470.0, cx + door_width / 2, 530.0)
        edges.append(GraphEdge(from_room=a.name, to_room=b.name,
                               via=f"Door_D{k}", door_bbox=bbox))
        detections.append(Detection(class_name="door", confidence=0.9, bbox=bbox,
                                    center=(cx, 500.0)))
    g = FloorGraph(nodes=nodes, edges=edges,
                   adjacency=rebuild_adjacency(nodes, edges))
    dets = DetectionSet(image_ref="line.png", detections=tuple(detections),
                        labels=tuple((n.name, n.centroid) for n in nodes))
    return build_knowledge_base(g, dets, building_id)


def two_room_kb(door_px: float):
    """A-B with one door whose bbox short side is `door_px` pixels."""
    nodes = [RoomNode(name="A", centroid=(60.0, 200.0)),
             RoomNode(name="B", centroid=(300.0, 200.0))]
    bbox = (100.0, 100.0, 100.0 + door_px, 300.0)
    edges = [GraphEdge(from_room="A", to_room="B", via="Door_D1", door_bbox=bbox)]
    det = Detection(class_name="door", confidence=0.9, bbox=bbox,
                    center=((bbox[0] + bbox[2]) / 2, 200.0))
    g = FloorGraph(nodes=nodes, edges=edges,
                   adjacency=rebuild_adjacency(nodes, edges))
    dets = DetectionSet(image_ref="x.png", detections=(det,),
                        labels=(("A", nodes[0].centroid), ("B", nodes[1].centroid)))
    return build_knowledge_base(g, dets, "tworoom")


def passage_chain_kb(n_rooms: int):
    """Straight chain of passage-only rooms (no door landmarks anywhere)."""
    nodes = [RoomNode(name=f"P{i}", centroid=(200.0 * (i + 1), 100.0))
             for i in range(n_rooms)]
    edges = [GraphEdge(from_room=a.name, to_room=b.name)
             for a, b in zip(nodes, nodes[1:])]
    g = FloorGraph(nodes=nodes, edges=edges,
                   adjacency=rebuild_adjacency(nodes, edges))
    dets = DetectionSet(image_ref="x", labels=tuple((n.name, n.centroid)
                                                    for n in nodes))
    return build_knowledge_base(g, dets, "chain")


class TestHeadingAfter:
    def test_right_from_north_is_east(self):
        assert heading_after("N", "Turn right") == "E"

    def test_turn_around_is_an_involution(self):
        for h in HEADINGS:
            assert heading_after(heading_after(h, "Turn around"), "Turn around") == h

    def test_four_rights_are_identity(self):
        h = "W"
        for _ in range(4):
            h = heading_after(h, "Turn right")
        assert h == "W"

    def test_moves_and_stop_keep_heading(self):
        assert heading_after("S", "Move forward 12") == "S"
        assert heading_after("S", "Stop") == "S"

    def test_random_sequences_match_turn_sum_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            initial = rng.choice(HEADINGS)
            actions = [rng.choice(ACTIONS[:-1]) for _ in range(50)]
            h = initial
            for action in actions:
                h = heading_after(h, action)
            assert h == oracles.heading_by_turn_sum(initial, actions)


class TestTemplatePlanner:
    def test_same_room_is_a_single_stop(self, golden_kb):
        plan = plan_route(golden_kb, "Repas", "Repas", 60.0)
        assert len(plan.steps) == 1
        assert plan.steps[0].action == "Stop"
        assert plan.steps[0].current_position == "Repas"

    def test_golden_route_cites_the_door(self, golden_kb):
        plan = plan_route(golden_kb, "Cuisine", "Repas", 60.0)
        assert any("Door_D3" in s.confirmation for s in plan.steps)
        assert plan.steps[-1].action == "Stop"

    def test_l_shaped_path_has_exactly_one_turn(self):
        # A-B-C run east, C-D turns south
        nodes = [RoomNode(name="A", centroid=(0.0, 0.0)),
                 RoomNode(name="B", centroid=(100.0, 0.0)),
                 RoomNode(name="C", centroid=(200.0, 0.0)),
                 RoomNode(name="D", centroid=(200.0, 100.0))]
        edges = [GraphEdge(from_room="A", to_room="B"),
                 GraphEdge(from_room="B", to_room="C"),
                 GraphEdge(from_room="C", to_room="D")]
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        steps = template_steps(g, shortest_route(g, "A", "D"), 60.0)
        turns = [s for s in steps if s.action.startswith("Turn")]
        assert len(turns) == 1
        assert turns[0].action == "Turn right"  # east to south is a right turn
        assert turns[0].current_position == "C"

    def test_collinear_path_has_no_turns(self):
        kb = line_building(["A", "B", "C", "D"])
        plan = plan_route(kb, "A", "D", 60.0)
        assert not [s for s in plan.steps if s.action.startswith("Turn")]

    def test_move_units_follow_scale_and_step_size(self):
        kb = line_building(["A", "B"], spacing=300.0)
        plan = plan_route(kb, "A", "B", step_size_cm=60.0, scale_cm_per_px=2.0)
        # 300 px * 2 cm/px = 600 cm -> 10 steps of 60 cm
        assert plan.steps[0].action == "Move forward 10"

    def test_template_output_always_validates(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 9)
            names = [f"R{i}" for i in range(n)]
            nodes = [RoomNode(name=name,
                              centroid=(rng.uniform(0, 2000), rng.uniform(0, 2000)))
                     for name in names]
            edges = [GraphEdge(from_room=names[rng.randrange(i)], to_room=names[i])
                     for i in range(1, n)]
            g = FloorGraph(nodes=nodes, edges=edges,
                           adjacency=rebuild_adjacency(nodes, edges))
            route = shortest_route(g, rng.choice(names), rng.choice(names))
            steps = template_steps(g, route, 60.0)
            assert validate_steps(steps, route.path, g) == []


class TestValidateSteps:
    def test_room_off_path_is_hallucination(self, golden_kb):
        g = golden_kb.graph
        path = ["Cuisine", "Repas"]
        steps = [NavStep(step=1, action="Move forward 2", heading_after_step="S",
                         sensory_feedback="", current_position="Storage",
                         confirmation=""),
                 NavStep(step=2, action="Stop", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="")]
        violations = validate_steps(steps, path, g)
        assert any("hallucinated room 'Storage'" in v for v in violations)

    def test_heading_algebra_violation(self, golden_kb):
        # left from N is W, not E
        steps = [NavStep(step=1, action="Move forward 1", heading_after_step="N",
                         sensory_feedback="", current_position="Repas",
                         confirmation=""),
                 NavStep(step=2, action="Turn left", heading_after_step="E",
                         sensory_feedback="", current_position="Repas",
                         confirmation=""),
                 NavStep(step=3, action="Stop", heading_after_step="E",
                         sensory_feedback="", current_position="Repas",
                         confirmation="")]
        violations = validate_steps(steps, ["Cuisine", "Repas"], golden_kb.graph)
        assert any("heading algebra" in v and "yields W" in v for v in violations)

    def test_missing_stop_flagged(self, golden_kb):
        steps = [NavStep(step=1, action="Move forward 1", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="")]
        violations = validate_steps(steps, ["Cuisine", "Repas"], golden_kb.graph)
        assert "final step must be Stop" in violations

    def test_unknown_action_flagged(self, golden_kb):
        steps = [NavStep(step=1, action="Leap forward", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation=""),
                 NavStep(step=2, action="Stop", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="")]
        violations = validate_steps(steps, ["Cuisine", "Repas"], golden_kb.graph)
        assert any("unknown action 'Leap forward'" in v for v in violations)

    def test_path_skip_flagged(self):
        kb = line_building(["A", "B", "C", "D"])
        path = ["A", "B", "C", "D"]
        steps = [NavStep(step=1, action="Move forward 2", heading_after_step="E",
                         sensory_feedback="", current_position="B", confirmation=""),
                 NavStep(step=2, action="Move forward 2", heading_after_step="E",
                         sensory_feedback="", current_position="D", confirmation=""),
                 NavStep(step=3, action="Stop", heading_after_step="E",
                         sensory_feedback="", current_position="D", confirmation="")]
        violations = validate_steps(steps, path, kb.graph)
        assert any("skips" in v for v in violations)


class TestSafetyEvaluate:
    def test_80cm_door_is_severity_4_narrow_passage(self):
        kb = two_room_kb(door_px=40.0)  # 40 px * 2 cm/px = 80 cm
        plan = plan_route(kb, "A", "B", 60.0)
        hazards = safety_evaluate(kb.graph, plan.route, plan.steps,
                                  kb.visual.detections, scale_cm_per_px=2.0)
        narrow = [h for h in hazards if h.hazard_type == "narrow_passage"]
        assert len(narrow) == 1
        assert narrow[0].severity == 4
        assert "Door_D1" in narrow[0].location
        assert narrow[0].mitigation

    def test_100cm_door_yields_no_hazards(self):
        kb = two_room_kb(door_px=50.0)  # 100 cm
        plan = plan_route(kb, "A", "B", 60.0)
        hazards = safety_evaluate(kb.graph, plan.route, plan.steps,
                                  kb.visual.detections, scale_cm_per_px=2.0)
        assert hazards == []

    def test_without_scale_the_clearance_rule_is_skipped(self):
        kb = two_room_kb(door_px=40.0)
        plan = plan_route(kb, "A", "B", 60.0)
        hazards = safety_evaluate(kb.graph, plan.route, plan.steps,
                                  kb.visual.detections, scale_cm_per_px=None)
        assert [h for h in hazards if h.hazard_type == "narrow_passage"] == []

    def test_seven_landmarkless_steps_is_long_traversal(self):
        kb = passage_chain_kb(8)
        plan = plan_route(kb, "P0", "P7", 60.0)
        assert len([s for s in plan.steps
                    if s.action.startswith("Move")]) == 7
        hazards = safety_evaluate(kb.graph, plan.route, plan.steps,
                                  kb.visual.detections)
        assert any(h.hazard_type == "long_traversal" and h.severity == 2
                   for h in hazards)

    def test_door_rich_route_has_no_long_traversal(self):
        kb = line_building(["A", "B", "C", "D", "E", "F", "G", "H"])
        plan = plan_route(kb, "A", "H", 60.0)
        hazards = safety_evaluate(kb.graph, plan.route, plan.steps,
                                  kb.visual.detections, scale_cm_per_px=2.0)
        assert [h for h in hazards if h.hazard_type == "long_traversal"] == []

    def test_unmatched_door_inside_passage_corridor(self):
        nodes = [RoomNode(name="A", centroid=(0.0, 100.0)),
                 RoomNode(name="B", centroid=(400.0, 100.0))]
        edges = [GraphEdge(from_room="A", to_room="B")]  # claimed passage
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        stray = Detection(class_name="door", confidence=0.8,
                          bbox=(190.0, 90.0, 210.0, 110.0), center=(200.0, 100.0))
        dets = DetectionSet(image_ref="x", detections=(stray,),
                            labels=(("A", (0.0, 100.0)), ("B", (400.0, 100.0))))
        kb = build_knowledge_base(g, dets, "x")
        plan = plan_route(kb, "A", "B", 60.0)
        hazards = safety_evaluate(g, plan.route, plan.steps, dets)
        kinds = {h.hazard_type for h in hazards}
        assert "missing_door_edge" in kinds

    def test_move_overrun_is_wall_collision(self, golden_kb):
        steps = [NavStep(step=1, action="Move forward 3", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="Pass through Door_D3 into Repas"),
                 NavStep(step=2, action="Move forward 3", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="keep going"),
                 NavStep(step=3, action="Stop", heading_after_step="S",
                         sensory_feedback="", current_position="Repas",
                         confirmation="Arrived")]
        hazards = safety_evaluate(golden_kb.graph,
                                  shortest_route(golden_kb.graph, "Cuisine", "Repas"), steps,
                                  golden_kb.visual.detections)
        assert any(h.hazard_type == "wall_collision" and h.severity == 5
                   for h in hazards)

    def test_dead_end_move_through_degree_one_room(self):
        kb = line_building(["A", "B", "C"])
        # a bogus plan that "moves" inside A (degree 1, not the destination)
        steps = [NavStep(step=1, action="Move forward 1", heading_after_step="E",
                         sensory_feedback="", current_position="A",
                         confirmation="Door_D1 ahead"),
                 NavStep(step=2, action="Move forward 1", heading_after_step="E",
                         sensory_feedback="", current_position="B",
                         confirmation="Pass through Door_D1 into B"),
                 NavStep(step=3, action="Stop", heading_after_step="E",
                         sensory_feedback="", current_position="B",
                         confirmation="Arrived")]
        hazards = safety_evaluate(kb.graph, shortest_route(kb.graph, "A", "B"), steps,
                                  kb.visual.detections)
        assert any(h.hazard_type == "dead_end" and h.severity == 4 for h in hazards)

    def test_monotone_in_scale(self):
        # shrinking the scale (narrower doors) never removes a narrow hazard
        kb = line_building(["A", "B", "C", "D"], door_width=50.0)
        plan = plan_route(kb, "A", "D", 60.0)

        def narrow_locations(scale):
            return {h.location.split(" (")[0] for h in safety_evaluate(
                kb.graph, plan.route, plan.steps, kb.visual.detections,
                scale_cm_per_px=scale)
                if h.hazard_type == "narrow_passage"}

        scales = [2.0, 1.7, 1.2, 0.8, 0.5]
        previous = narrow_locations(scales[0])
        for scale in scales[1:]:
            current = narrow_locations(scale)
            assert previous <= current
            previous = current

    def test_deterministic(self):
        kb = two_room_kb(door_px=40.0)
        plan = plan_route(kb, "A", "B", 60.0)
        first = safety_evaluate(kb.graph, plan.route, plan.steps,
                                kb.visual.detections, 2.0)
        second = safety_evaluate(kb.graph, plan.route, plan.steps,
                                 kb.visual.detections, 2.0)
        assert first == second


class TestNavigate:
    def test_hazard_free_route(self):
        kb = two_room_kb(door_px=50.0)
        plan = navigate(kb, "A", "B", 60.0, scale_cm_per_px=2.0)
        assert plan.safe and not plan.rerouted
        assert plan.hazards == ()

    def test_narrow_door_triggers_one_reroute_with_hazard_in_prompt(self):
        kb = two_room_kb(door_px=40.0)
        gw, provider = make_gateway(
            planner=[valid_planner_response(["A", "B"], door_id="Door_D1")])
        plan = navigate(kb, "A", "B", 60.0, gateway=gw, scale_cm_per_px=2.0)
        assert plan.rerouted
        assert plan.safe  # rerouted plans are marked safe by definition
        assert any(h.hazard_type == "narrow_passage" for h in plan.prior_hazards)
        calls = provider.calls_for("planner")
        assert len(calls) == 2
        assert "narrow_passage" in calls[1].prompt
        assert "Door_D1" in calls[1].prompt
        assert "SAFETY ALERTS" not in calls[0].prompt

    def test_template_only_reroute_still_flags(self):
        kb = two_room_kb(door_px=40.0)
        plan = navigate(kb, "A", "B", 60.0, scale_cm_per_px=2.0)
        assert plan.rerouted and plan.safe
        assert plan.prior_hazards

    def test_hallucinated_plan_regenerated_exactly_once(self):
        kb = two_room_kb(door_px=50.0)
        bad = json.dumps([
            {"step": 1, "action": "Move forward 2", "heading_after_step": "E",
             "sensory_feedback": "", "current_position": "Storage",
             "confirmation": ""},
            {"step": 2, "action": "Stop", "heading_after_step": "E",
             "sensory_feedback": "", "current_position": "B",
             "confirmation": "Arrived at B"},
        ])
        good = valid_planner_response(["A", "B"], door_id="Door_D1")
        gw, provider = make_gateway(planner=[bad, good])
        plan = navigate(kb, "A", "B", 60.0, gateway=gw, scale_cm_per_px=2.0)
        calls = provider.calls_for("planner")
        assert len(calls) == 2
        assert "PRIOR PLAN REJECTED" in calls[1].prompt
        assert "hallucinated room 'Storage'" in calls[1].prompt
        assert not plan.degraded
        assert [s.current_position for s in plan.steps] == ["B", "B"]

    def test_double_planner_failure_falls_back_to_template(self):
        kb = two_room_kb(door_px=50.0)
        gw, provider = make_gateway(planner=["not json"])
        plan = navigate(kb, "A", "B", 60.0, gateway=gw, scale_cm_per_px=2.0)
        assert plan.degraded
        assert plan.steps[-1].action == "Stop"
        assert len(provider.calls_for("planner")) == 2

    def test_planner_call_budget_never_exceeds_three(self):
        # worst case: invalid plan, regeneration, then a reroute for the narrow door
        kb = two_room_kb(door_px=40.0)
        bad = json.dumps([{"step": 1, "action": "Fly", "heading_after_step": "E",
                           "sensory_feedback": "", "current_position": "B",
                           "confirmation": ""}])
        good = valid_planner_response(["A", "B"], door_id="Door_D1")
        gw, provider = make_gateway(planner=[bad, good, good])
        plan = navigate(kb, "A", "B", 60.0, gateway=gw, scale_cm_per_px=2.0)
        assert plan.rerouted
        assert len(provider.calls_for("planner")) <= 3

    def test_provider_failure_propagates_not_masked(self):
        # an unconfigured provider is an infrastructure error, not a bad payload
        from floornav.gateway import LlmGateway, MockProvider, ProviderError

        kb = two_room_kb(door_px=50.0)
        gw = LlmGateway(MockProvider())  # no planner script or fixture
        with pytest.raises(ProviderError):
            navigate(kb, "A", "B", 60.0, gateway=gw, scale_cm_per_px=2.0)

    def test_no_path_raises(self, golden_kb):
        nodes = golden_kb.graph.nodes + (RoomNode(name="Island", centroid=(5000, 5000)),
                                       RoomNode(name="Isle2", centroid=(5100, 5000)))
        edges = golden_kb.graph.edges + (GraphEdge(from_room="Island", to_room="Isle2"),)
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        kb = build_knowledge_base(g, golden_kb.visual.detections, "golden")
        with pytest.raises(NoPathError, match="'Cuisine' and 'Island'"):
            navigate(kb, "Cuisine", "Island", 60.0)

    def test_consecutive_positions_always_adjacent(self, golden_kb):
        for start, destination in [("Cuisine", "Sejour"), ("Repas", "Cellier"),
                                   ("Cellier", "Sejour")]:
            plan = navigate(golden_kb, start, destination, 60.0)
            positions = [plan.path[0]] + [s.current_position for s in plan.steps]
            for a, b in zip(positions, positions[1:]):
                if a.lower() != b.lower():
                    assert golden_kb.graph.adjacent(a, b)


class TestPlanSerialization:
    def test_payload_has_exact_step_fields_and_safety_report(self):
        kb = two_room_kb(door_px=40.0)
        plan = navigate(kb, "A", "B", 60.0, scale_cm_per_px=2.0)
        from floornav.navigation import plan_to_payload

        payload = plan_to_payload(plan)
        assert set(payload["steps"][0]) == {
            "step", "action", "heading_after_step", "sensory_feedback",
            "current_position", "confirmation",
        }
        assert set(payload["safety"]) == {"safe", "hazards", "recommendation"}
        assert payload["rerouted"] is True
