import json
import random

import pytest

import buildings
import oracles
from conftest import make_gateway
from generators import random_detection_set, random_raw_parse
from floornav.extraction import (
    ExtractionError,
    ParseError,
    RawParse,
    SchemaViolationError,
    build_graph,
    critic_check,
    parse_floorplan,
    run_extraction,
)
from floornav.graph import (
    FloorGraph,
    GraphEdge,
    RoomNode,
    name_key,
    rebuild_adjacency,
    validate_graph,
)
from floornav.ingest import Detection, DetectionSet


def payload_response(payload) -> str:
    return "```json\n" + json.dumps(payload) + "\n```"


def disconnected_payload() -> dict:
    """Schema-valid but two components: the critic must reject it."""
    return {
        "approach": "split",
        "nodes_elements": [{"name": n} for n in ("A", "B", "C", "D")],
        "adjacency_matrix": [[0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 0, 1], [0, 0, 1, 0]],
        "edges": [{"from": "A", "to": "B", "via": "passage"},
                  {"from": "C", "to": "D", "via": "passage"}],
        "rooms_info": [],
    }


def empty_dets() -> DetectionSet:
    return DetectionSet(image_ref="plan.png")


class TestParseFloorplan:
    def test_golden_mock_yields_expected_rooms_and_door(self, golden_dets):
        gw, _ = make_gateway(parser=[buildings.golden_parser_response()])
        raw = parse_floorplan(gw, "apartment_floorplan.png", golden_dets)
        assert set(raw.nodes_elements) == {"Cuisine", "Repas", "Cellier", "Hall", "Sejour"}
        d3 = [e for e in raw.edges if e.via == "Door_D3"]
        assert d3 and {d3[0].from_room, d3[0].to_room} == {"Cuisine", "Repas"}

    def test_detection_context_is_rendered_into_prompt(self, golden_dets):
        gw, provider = make_gateway(parser=[buildings.golden_parser_response()])
        parse_floorplan(gw, "plan.png", golden_dets)
        prompt = provider.calls_for("parser")[0].prompt
        assert "door confidence 0.88 bbox [160, 260, 180, 280]" in prompt
        assert "'Cuisine' at (200, 150)" in prompt

    def test_asymmetric_matrix_is_schema_violation(self):
        payload = disconnected_payload()
        payload["adjacency_matrix"][0][1] = 0  # break symmetry
        gw, _ = make_gateway(parser=[payload_response(payload)])
        with pytest.raises(SchemaViolationError, match="symmetric"):
            parse_floorplan(gw, "plan.png", empty_dets())

    def test_isolated_node_cites_the_rule_text(self):
        payload = disconnected_payload()
        payload["nodes_elements"].append({"name": "E"})
        payload["adjacency_matrix"] = [row + [0] for row in payload["adjacency_matrix"]]
        payload["adjacency_matrix"].append([0, 0, 0, 0, 0])
        gw, _ = make_gateway(parser=[payload_response(payload)])
        with pytest.raises(SchemaViolationError,
                           match="EVERY NODE MUST HAVE >= 1 EDGE"):
            parse_floorplan(gw, "plan.png", empty_dets())

    def test_garbage_output_is_retryable_parse_error(self):
        gw, _ = make_gateway(parser=["not json at all"])
        with pytest.raises(ParseError, match="payload extraction failed"):
            parse_floorplan(gw, "plan.png", empty_dets())

    def test_feedback_is_appended_to_grounding(self, golden_dets):
        gw, provider = make_gateway(parser=[buildings.golden_parser_response()])
        parse_floorplan(gw, "plan.png", golden_dets,
                        feedback="PREVIOUS ATTEMPT ISSUES:\n- bad edge")
        prompt = provider.calls_for("parser")[0].prompt
        assert "PREVIOUS ATTEMPT ISSUES:\n- bad edge" in prompt


class TestBuildGraph:
    def test_golden_doors_link_their_nearest_rooms(self, golden_dets):
        raw = RawParse.from_payload(buildings.golden_parser_payload())
        g = build_graph(raw, golden_dets)
        assert validate_graph(g).passed
        by_via = {e.via: e for e in g.edges}
        assert {by_via["Door_D7"].from_room, by_via["Door_D7"].to_room} == \
            {"Hall", "Sejour"}
        # nearest-two brute force agrees for every detection
        centroids = [g.node(n).centroid for n in g.names()]
        for det in golden_dets.doors():
            i, j = oracles.nearest_two_bruteforce(det.center, centroids)
            edge = next(e for e in g.edges if e.door_bbox == det.bbox)
            assert {name_key(edge.from_room), name_key(edge.to_room)} == \
                {name_key(g.names()[i]), name_key(g.names()[j])}

    def test_raw_edge_without_detection_is_passage(self, golden_dets):
        raw = RawParse.from_payload(buildings.golden_parser_payload())
        g = build_graph(raw, golden_dets)
        hall_edge = next(e for e in g.edges
                         if {e.from_room, e.to_room} == {"Cuisine", "Hall"})
        assert hall_edge.via == "passage"
        assert hall_edge.door_bbox is None

    def test_unlabelled_room_gets_flagged_synthetic_centroid(self):
        raw = RawParse.from_payload(disconnected_payload())
        dets = DetectionSet(image_ref="x", labels=(("A", (0.0, 0.0)),
                                                   ("B", (50.0, 0.0))))
        g = build_graph(raw, dets)
        assert not g.node("A").synthetic_centroid
        assert g.node("C").synthetic_centroid

    def test_equidistant_door_breaks_tie_by_lower_index(self):
        # door center sits exactly between B and C; A is nearer than both
        raw = RawParse.from_payload({
            "approach": "", "nodes_elements": ["A", "B", "C"],
            "adjacency_matrix": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
            "edges": [{"from": "A", "to": "B", "via": "passage"},
                      {"from": "A", "to": "C", "via": "passage"}],
            "rooms_info": [],
        })
        dets = DetectionSet(
            image_ref="x",
            detections=(Detection(class_name="door", confidence=0.9,
                                  bbox=(95, 45, 105, 55), center=(100.0, 50.0)),),
            labels=(("A", (100.0, 40.0)), ("B", (60.0, 50.0)), ("C", (140.0, 50.0))),
        )
        g = build_graph(raw, dets)
        door = next(e for e in g.edges if e.is_door)
        # A is nearest (10 px); B and C tie at 40 px; index tie-break keeps B
        assert {door.from_room, door.to_room} == {"A", "B"}

    def test_demotes_door_edge_with_no_matching_detection(self):
        raw = RawParse.from_payload({
            "approach": "", "nodes_elements": ["A", "B"],
            "adjacency_matrix": [[0, 1], [1, 0]],
            "edges": [{"from": "A", "to": "B", "via": "Door_D9",
                       "door_bbox": [0, 0, 5, 5]}],
            "rooms_info": [],
        })
        g = build_graph(raw, DetectionSet(image_ref="x",
                                          labels=(("A", (0.0, 0.0)),
                                                  ("B", (10.0, 0.0)))))
        assert g.edges[0].via == "passage"


class TestCriticCheck:
    def test_golden_graph_passes(self, golden_graph, golden_dets):
        report = critic_check(golden_graph, golden_dets)
        assert report.passed
        assert report.failed_checks == frozenset()

    def test_disconnected_components_flagged(self):
        raw = RawParse.from_payload(disconnected_payload())
        g = build_graph(raw, DetectionSet(image_ref="x"))
        report = critic_check(g, DetectionSet(image_ref="x"))
        assert not report.passed
        assert "connectivity" in report.failed_checks

    def test_spatial_coherence_flags_the_outlier_distance(self):
        # chain with edge lengths {10,10,10,10,10,60}
        xs = [0, 10, 20, 30, 40, 50, 110]
        nodes = [RoomNode(name=f"N{i}", centroid=(float(x), 0.0))
                 for i, x in enumerate(xs)]
        edges = [GraphEdge(from_room=f"N{i}", to_room=f"N{i + 1}")
                 for i in range(6)]
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        mu, sigma = oracles.population_stats([10, 10, 10, 10, 10, 60])
        assert round(mu, 2) == 18.33 and round(sigma, 2) == 18.63
        report = critic_check(g, DetectionSet(image_ref="x"))
        assert report.failed_checks == {"spatial_coherence"}
        assert report.flagged_edges == (("N5", "N6"),)

    def test_spatial_check_skipped_below_three_edges(self):
        nodes = [RoomNode(name="A", centroid=(0, 0)),
                 RoomNode(name="B", centroid=(5000, 0)),
                 RoomNode(name="C", centroid=(5010, 0))]
        edges = [GraphEdge(from_room="A", to_room="B"),
                 GraphEdge(from_room="B", to_room="C")]
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        report = critic_check(g, DetectionSet(image_ref="x"))
        assert "spatial_coherence" not in report.failed_checks

    def test_unmatched_door_detection_fails_consistency(self, golden_graph):
        extra = Detection(class_name="door", confidence=0.9,
                          bbox=(900, 900, 920, 920), center=(910, 910))
        dets = DetectionSet(image_ref="x", detections=(extra,))
        report = critic_check(golden_graph, dets)
        assert "door_edge_consistency" in report.failed_checks

    def test_deterministic(self, golden_graph, golden_dets):
        assert critic_check(golden_graph, golden_dets) == critic_check(golden_graph, golden_dets)

    def test_llm_issues_are_advisory(self, golden_graph, golden_dets):
        gw, _ = make_gateway(self_critic=[json.dumps({
            "passed": False, "issues": ["LLM hunch"], "suggested_fixes": ["look again"],
        })])
        report = critic_check(golden_graph, golden_dets, gateway=gw)
        assert report.passed  # structural checks are binding, LLM is not
        assert "LLM hunch" in report.issues
        assert "look again" in report.suggested_fixes

    def test_non_array_llm_review_keeps_structural_checks_only(self, golden_graph, golden_dets,
                                                               caplog):
        structural = critic_check(golden_graph, golden_dets)
        for reply in ({"issues": 5}, {"issues": "abc"}):
            caplog.clear()
            gw, _ = make_gateway(self_critic=[json.dumps(reply)])
            report = critic_check(golden_graph, golden_dets, gateway=gw)
            assert report == structural
            assert "LLM self-critic unavailable" in caplog.text


class TestRunExtraction:
    def test_pass_at_first_attempt_issues_one_parser_call(self, golden_dets):
        gw, provider = make_gateway(parser=[buildings.golden_parser_response()])
        result = run_extraction(gw, "plan.png", golden_dets)
        assert result.passed and not result.degraded
        assert result.attempts == 1
        assert len(provider.calls_for("parser")) == 1

    def test_fail_then_pass_feeds_issues_back_verbatim(self):
        # no detections: the builder cannot bridge the split, so the critic fails
        gw, provider = make_gateway(parser=[
            payload_response(disconnected_payload()),
            buildings.golden_parser_response(),
        ])
        result = run_extraction(gw, "plan.png", empty_dets())
        assert result.passed and result.attempts == 2
        calls = provider.calls_for("parser")
        assert len(calls) == 2
        first_issues = result.history[0][1]
        assert first_issues
        for issue in first_issues:
            assert issue in calls[1].prompt

    def test_fail_all_returns_degraded_with_full_history(self):
        gw, provider = make_gateway(parser=[payload_response(disconnected_payload())])
        result = run_extraction(gw, "plan.png", empty_dets())
        assert not result.passed and result.degraded
        assert result.attempts == 3
        assert len(result.history) == 3
        assert len(provider.calls_for("parser")) == 3

    def test_unparseable_everywhere_raises_extraction_error(self, golden_dets):
        gw, _ = make_gateway(parser=["garbage"])
        with pytest.raises(ExtractionError) as err:
            run_extraction(gw, "plan.png", golden_dets)
        assert len(err.value.history) == 3

    @pytest.mark.parametrize("change, finding", [
        (lambda p: p["edges"].append(1), "edge record must be an object, got 1"),
        (lambda p: p["rooms_info"].append(1), "rooms_info record must be an object, got 1"),
        (lambda p: p["rooms_info"][0].update(size=12),
         "rooms_info record 'Cuisine': size must be a string, got 12"),
        (lambda p: next(e for e in p["edges"] if "door_bbox" in e).update(door_bbox=[1, 2, 3]),
         "degenerate door_bbox [1.0, 2.0, 3.0]"),
    ], ids=["non-object-edge", "non-object-room-info", "non-string-size", "three-number-bbox"])
    def test_malformed_record_is_retried_with_its_finding(self, golden_dets, change, finding):
        bad = buildings.golden_parser_payload()
        change(bad)
        gw, _ = make_gateway(parser=[payload_response(bad), buildings.golden_parser_response()])
        result = run_extraction(gw, "plan.png", golden_dets)
        assert result.passed and result.attempts == 2
        assert result.history[0] == (0, (finding,))

    def test_parser_call_count_never_exceeds_rc_plus_one(self):
        for r_c in (0, 1, 2, 3):
            gw, provider = make_gateway(
                parser=[payload_response(disconnected_payload())])
            run_extraction(gw, "plan.png", empty_dets(), r_c=r_c)
            assert len(provider.calls_for("parser")) == r_c + 1


def test_build_graph_output_always_validates_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(200):
        raw = random_raw_parse(rng)
        assert raw.schema_violations() == []
        g = build_graph(raw, random_detection_set(rng, raw))
        report = validate_graph(g)
        assert report.passed, report.violations
