import argparse
import io
import json
import math

import pytest

import buildings
from conftest import valid_planner_response
from floornav.cli import (
    ENV_ENDPOINT,
    EXIT_DEGRADED,
    EXIT_GATEWAY,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from floornav.gateway import LlmGateway, MockProvider
from floornav.graph import FloorGraph, GraphEdge, RoomNode, rebuild_adjacency
from floornav.kb import build_knowledge_base, load as load_kb, persist
from floornav.navigation import navigate
from floornav.walkthrough import FaultModel, TruthManifest, reroute_from, simulate_walk


@pytest.fixture
def golden_files(tmp_path):
    """Detection/OCR/roster files plus a parser-mock fixture directory."""
    dets_path = tmp_path / "detections.json"
    dets_path.write_text(json.dumps(buildings.golden_detection_records()))
    ocr_path = tmp_path / "ocr.json"
    ocr_path.write_text(json.dumps(buildings.golden_ocr_records()))
    roster_path = tmp_path / "roster.txt"
    roster_path.write_text("\n".join(buildings.GOLDEN_ROOMS) + "\n")

    provider = MockProvider()
    provider.script("parser", [buildings.golden_parser_response()])
    fixtures = tmp_path / "fixtures"
    provider.save_dir(fixtures)
    return {"detections": dets_path, "ocr": ocr_path, "roster": roster_path,
            "fixtures": fixtures, "kb": tmp_path / "kb"}


@pytest.fixture
def golden_kb_dir(tmp_path, golden_graph, golden_dets):
    kb = build_knowledge_base(golden_graph, golden_dets, "golden")
    persist(kb, tmp_path / "kb")
    return tmp_path / "kb"


@pytest.fixture
def nine_room_env(tmp_path):
    graph, dets, truth = buildings.synthetic_building(9, seed=4, building_id="b9")
    kb = build_knowledge_base(graph, dets, "b9")
    persist(kb, tmp_path / "kb9")
    truth_path = tmp_path / "truth9.json"
    truth.save(truth_path)
    return {"kb": tmp_path / "kb9", "truth": truth_path, "graph": graph,
            "truth_manifest": truth, "kb_obj": kb}


class TestExtract:
    def test_golden_extraction_writes_five_room_kb(self, golden_files, capsys):
        code = main([
            "extract", "--provider", "mock",
            "--mock-fixtures", str(golden_files["fixtures"]),
            "--detections", str(golden_files["detections"]),
            "--ocr", str(golden_files["ocr"]),
            "--roster", str(golden_files["roster"]),
            "--image", "apartment_floorplan.png",
            "--building-id", "golden",
            "--out", str(golden_files["kb"]),
        ])
        assert code == EXIT_OK
        kb = load_kb(golden_files["kb"])
        assert len(kb.graph.nodes) == 5
        assert set(kb.graph.names()) == set(buildings.GOLDEN_ROOMS)
        assert "knowledge base written" in capsys.readouterr().out

    def test_missing_detections_file_is_io_error(self, golden_files, tmp_path):
        code = main([
            "extract", "--provider", "mock",
            "--mock-fixtures", str(golden_files["fixtures"]),
            "--detections", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "kb"),
        ])
        assert code == EXIT_IO

    def test_template_only_provider_is_usage_error(self, golden_files, tmp_path):
        code = main([
            "extract",
            "--detections", str(golden_files["detections"]),
            "--out", str(tmp_path / "kb"),
        ])
        assert code == EXIT_USAGE

    def test_fail_all_scenario_writes_degraded_kb(self, golden_files, tmp_path, capsys):
        payload = {
            "approach": "", "nodes_elements": ["A", "B", "C", "D"],
            "adjacency_matrix": [[0, 1, 0, 0], [1, 0, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 1, 0]],
            "edges": [{"from": "A", "to": "B", "via": "passage"},
                      {"from": "C", "to": "D", "via": "passage"}],
            "rooms_info": [],
        }
        provider = MockProvider()
        provider.script("parser", ["```json\n" + json.dumps(payload) + "\n```"])
        fixtures = tmp_path / "failing"
        provider.save_dir(fixtures)
        empty_dets = tmp_path / "empty.json"
        empty_dets.write_text("[]")
        report_path = tmp_path / "report.json"
        code = main([
            "extract", "--provider", "mock", "--mock-fixtures", str(fixtures),
            "--detections", str(empty_dets),
            "--out", str(tmp_path / "kb-degraded"),
            "--report", str(report_path),
        ])
        assert code == EXIT_DEGRADED
        assert "degraded" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["degraded"] is True
        assert len(report["history"]) == 3
        assert load_kb(tmp_path / "kb-degraded").graph.names() == ("A", "B", "C", "D")


class TestNavigate:
    def test_prints_steps_ending_with_stop(self, golden_kb_dir, capsys):
        code = main(["navigate", "--kb", str(golden_kb_dir), "Cuisine", "Repas"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        step_lines = [l for l in out.splitlines() if l[:1].isdigit()]
        assert step_lines[-1].split(". ", 1)[1].startswith("Stop")
        assert "Repas" in step_lines[-1]
        assert "recommendation" in out

    def test_same_room_single_step(self, golden_kb_dir, capsys):
        code = main(["navigate", "--kb", str(golden_kb_dir), "Hall", "Hall"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1. Stop" in out

    def test_misspelled_room_suggests_nearest_label(self, golden_kb_dir, capsys):
        code = main(["navigate", "--kb", str(golden_kb_dir), "Cuisne", "Repas"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "did you mean 'Cuisine'?" in err

    def test_missing_kb_is_io_error(self, tmp_path, capsys):
        code = main(["navigate", "--kb", str(tmp_path / "nokb"), "A", "B"])
        assert code == EXIT_IO

    def test_unconfigured_mock_is_gateway_error(self, golden_kb_dir, tmp_path, capsys):
        fixtures = tmp_path / "empty-fixtures"
        MockProvider().save_dir(fixtures)  # index without any planner entries
        code = main(["navigate", "--provider", "mock",
                     "--mock-fixtures", str(fixtures),
                     "--kb", str(golden_kb_dir), "Cuisine", "Repas"])
        assert code == EXIT_GATEWAY
        assert "gateway failure" in capsys.readouterr().err

    def test_plan_out_writes_payload(self, golden_kb_dir, tmp_path):
        out_path = tmp_path / "plan.json"
        code = main(["navigate", "--kb", str(golden_kb_dir),
                     "--plan-out", str(out_path), "Cuisine", "Sejour"])
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["path"] == ["Cuisine", "Hall", "Sejour"]
        assert set(payload["safety"]) == {"safe", "hazards", "recommendation"}


class TestWalk:
    def test_all_checkpoints_confirmed_ends_arrived(self, nine_room_env, tmp_path,
                                                    capsys, monkeypatch):
        kb = nine_room_env["kb_obj"]
        truth = nine_room_env["truth_manifest"]
        names = kb.graph.names()
        from floornav.navigation import navigate as plan_navigate

        plan = plan_navigate(kb, names[0], names[-1], 60.0)
        scans = [str(truth.node_marker(room)) for room in plan.path[1:]]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(scans) + "\n"))
        transcript = tmp_path / "walk.txt"
        code = main(["walk", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]),
                     "--transcript", str(transcript),
                     names[0], names[-1]])
        assert code == EXIT_OK
        lines = transcript.read_text().splitlines()
        assert lines[-1] == "arrived"

    def test_wrong_marker_triggers_alert_and_reroute(self, nine_room_env, tmp_path,
                                                     monkeypatch):
        kb = nine_room_env["kb_obj"]
        truth = nine_room_env["truth_manifest"]
        names = kb.graph.names()
        from floornav.navigation import navigate as plan_navigate

        start, destination = names[0], names[-1]
        plan = plan_navigate(kb, start, destination, 60.0)
        wrong_room = next(n for n in names
                          if n not in (start, destination, plan.path[1]))
        wrong_marker = truth.node_marker(wrong_room)

        # oracle: the simulator with the same single fault must also recover
        trial = simulate_walk(
            plan, truth, FaultModel(injections={0: wrong_marker}),
            lambda cur, dest: reroute_from(kb, cur, dest, 60.0))
        assert trial.success and trial.reroutes == 1

        # scripted stdin: wrong scan first, then honest scans forever
        reroute_plan = reroute_from(kb, wrong_room, destination, 60.0)
        scans = [str(wrong_marker)]
        scans += [str(truth.node_marker(room)) for room in reroute_plan.path[1:]]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(scans) + "\n"))
        transcript = tmp_path / "walk.txt"
        code = main(["walk", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]),
                     "--transcript", str(transcript),
                     start, destination])
        assert code == EXIT_OK
        text = transcript.read_text()
        assert "alert: checkpoint mismatch" in text
        assert f"reroute: {wrong_room} -> {destination}" in text
        assert text.splitlines()[-1] == "arrived"

    def test_eof_mid_session_aborts_cleanly(self, nine_room_env, tmp_path,
                                            monkeypatch):
        names = nine_room_env["kb_obj"].graph.names()
        monkeypatch.setattr("sys.stdin", io.StringIO(""))  # immediate EOF
        transcript = tmp_path / "walk.txt"
        code = main(["walk", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]),
                     "--transcript", str(transcript),
                     names[0], names[-1]])
        assert code == EXIT_OK
        assert "aborted: end of input" in transcript.read_text()

    def test_scripted_session_output_and_transcript(self, nine_room_env, tmp_path,
                                                    capsys, monkeypatch):
        # Room 06 -> Room 04 -> Room 01 -> Room 02 -> Room 03: a confirmed scan,
        # a non-integer line, an unregistered marker, a wrong marker (Room 07's)
        # with its reroute, then end of input at the first rerouted checkpoint.
        monkeypatch.setattr("sys.stdin", io.StringIO("4\nabc\n999\n7\n"))
        transcript = tmp_path / "walk.txt"
        code = main(["walk", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]),
                     "--transcript", str(transcript), "Room 06", "Room 03"])
        assert code == EXIT_OK
        assert transcript.read_text() == WALK_SESSION
        # stdout is the transcript without the echoed "> " input lines
        assert capsys.readouterr().out == "".join(
            line for line in WALK_SESSION.splitlines(keepends=True)
            if not line.startswith("> "))

    def test_gateway_failure_during_reroute_exits_three(self, nine_room_env, tmp_path,
                                                        capsys, monkeypatch):
        kb = nine_room_env["kb_obj"]
        scale = nine_room_env["truth_manifest"].scale_cm_per_px
        recorder = MockProvider()
        recorder.script("planner", [valid_planner_response(
            navigate(kb, "Room 06", "Room 03", 60.0).path)])
        first = navigate(kb, "Room 06", "Room 03", 60.0, gateway=LlmGateway(recorder),
                         scale_cm_per_px=scale)
        assert not first.degraded
        # a fixture for the first planner request only: the re-plan gets no reply
        provider = MockProvider()
        provider.fixture_for("planner", recorder.calls[0].bindings,
                             recorder.calls[0].response)
        provider.save_dir(tmp_path / "first-plan-only")
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n7\n"))
        code = main(["walk", "--provider", "mock",
                     "--mock-fixtures", str(tmp_path / "first-plan-only"),
                     "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]), "Room 06", "Room 03"])
        assert code == EXIT_GATEWAY
        assert capsys.readouterr().err == \
            "error: gateway failure: no mock response for template 'planner'\n"


WALK_SESSION = """\
walking Room 06 -> Room 03 (7 steps)
1. Move forward 27 -- Pass through Door_D5 into Room 04
scan checkpoint at Room 04 (expected marker 4):
> 4
confirmed at Room 04
2. Turn right -- You should now be facing N
3. Move forward 13 -- Pass through Door_D3 into Room 01
scan checkpoint at Room 01 (expected marker 1):
> abc
alert: 'abc' is not a marker id; continuing
4. Turn right -- You should now be facing E
5. Move forward 13 -- Pass through Door_D1 into Room 02
scan checkpoint at Room 02 (expected marker 2):
> 999
alert: unknown marker 999; continuing
6. Move forward 13 -- Pass through Door_D2 into Room 03
scan checkpoint at Room 03 (expected marker 3):
> 7
alert: checkpoint mismatch, you are at Room 07
reroute: Room 07 -> Room 03 (4 steps)
1. Move forward 30 -- Pass through Door_D6 into Room 02
scan checkpoint at Room 02 (expected marker 2):
aborted: end of input
"""


class TestEval:
    def write_suite(self, tmp_path, routes):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(routes))
        return path

    def test_thirteen_route_suite_prints_table_cell(self, nine_room_env, tmp_path,
                                                    capsys):
        names = nine_room_env["graph"].names()
        # 12 feasible routes and one with a nonexistent destination -> 12/13
        routes = [{"route_id": f"r{i}", "start": names[0],
                   "destination": names[1 + i % (len(names) - 1)], "class": "short"}
                  for i in range(12)]
        routes.append({"route_id": "r12", "start": names[0],
                       "destination": "Nowhere", "class": "short"})
        suite = self.write_suite(tmp_path, routes)
        report_path = tmp_path / "report.json"
        code = main(["eval", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]),
                     "--suite", str(suite), "--report", str(report_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "92.31 (12)" in out
        report = json.loads(report_path.read_text())
        assert report["table"]["overall"] == "92.31 (12)"

    def test_empty_suite_is_an_error(self, nine_room_env, tmp_path, capsys):
        suite = self.write_suite(tmp_path, [])
        code = main(["eval", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]), "--suite", str(suite)])
        assert code == EXIT_USAGE
        assert "empty suite" in capsys.readouterr().err

    def test_seeded_fault_run_twice_is_identical(self, nine_room_env, tmp_path,
                                                 capsys):
        names = nine_room_env["graph"].names()
        routes = [{"route_id": f"r{i}", "start": names[0],
                   "destination": names[-1]} for i in range(6)]
        suite = self.write_suite(tmp_path, routes)
        reports = []
        for run in range(2):
            report_path = tmp_path / f"report{run}.json"
            code = main(["eval", "--kb", str(nine_room_env["kb"]),
                         "--truth", str(nine_room_env["truth"]),
                         "--suite", str(suite), "--seed", "13",
                         "--fault-rate", "0.4", "--report", str(report_path)])
            assert code == EXIT_OK
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]

    def test_fault_rate_without_seed_is_usage_error(self, nine_room_env, tmp_path,
                                                    capsys):
        suite = self.write_suite(tmp_path, [{"route_id": "r", "start": "Room 01",
                                             "destination": "Room 02"}])
        code = main(["eval", "--kb", str(nine_room_env["kb"]),
                     "--truth", str(nine_room_env["truth"]), "--suite", str(suite),
                     "--fault-rate", "0.5"])
        assert code == EXIT_USAGE


class TestUsage:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["navigate", "A", "B"]) == EXIT_USAGE


@pytest.fixture
def error_env(tmp_path, nine_room_env, golden_files):
    """Paths for every CLI error path: good inputs, broken ones and missing ones."""
    paths = {"kb": nine_room_env["kb"], "truth": nine_room_env["truth"],
             "dets": golden_files["detections"], "fixtures": golden_files["fixtures"],
             "out": tmp_path / "out-kb"}
    for name in ("no_dets", "no_kb", "no_truth", "no_suite", "no_fixtures"):
        paths[name] = tmp_path / name
    for name, text in (("bad_dets", '{"class": "door"}'), ("bad_truth", "{}"),
                       ("suite", '[{"start": "Room 01", "destination": "Room 02"}]'),
                       ("empty_suite", "[]"), ("object_suite", '{"routes": []}'),
                       ("startless_suite", '[{"destination": "Room 02"}]'),
                       ("scalar_suite", "[1]"),
                       ("huge_suite", '[{"start": "Room 01", "destination": "Room 02", '
                                      '"class": "huge"}]'),
                       ("golden_suite", '[{"start": "Cellier", "destination": "Sejour"}]')):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    for name, scale in (("string_scale_truth", "2"), ("nan_scale_truth", math.nan),
                        ("zero_scale_truth", 0), ("negative_scale_truth", -3)):
        payload = nine_room_env["truth_manifest"].to_payload()
        payload["scale_cm_per_px"] = scale
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    for name, index in (("array_index_fixtures", "[]"),
                        ("array_section_fixtures", '{"fixtures": []}')):
        paths[name] = tmp_path / name
        paths[name].mkdir()
        (paths[name] / "index.json").write_text(index)
    garbage = MockProvider()
    garbage.script("parser", ["not json at all"])
    for name, provider in (("garbage_fixtures", garbage), ("empty_fixtures", MockProvider())):
        paths[name] = tmp_path / name
        provider.save_dir(paths[name])
    # the nine-room building plus a two-room island no door reaches
    graph = nine_room_env["graph"]
    nodes = graph.nodes + (RoomNode(name="Island", centroid=(5000, 5000)),
                           RoomNode(name="Isle2", centroid=(5100, 5000)))
    edges = graph.edges + (GraphEdge(from_room="Island", to_room="Isle2"),)
    island = FloorGraph(nodes=nodes, edges=edges, adjacency=rebuild_adjacency(nodes, edges))
    # the golden apartment, and its truth file with one extra matrix bit: Cuisine-Sejour
    golden = buildings.golden_graph()
    paths["golden_kb"] = tmp_path / "golden-kb"
    persist(build_knowledge_base(golden, buildings.golden_detections(), "golden"),
            paths["golden_kb"])
    truth = TruthManifest(graph=golden, building_id="golden").to_payload()
    truth["graph"]["adjacency_matrix"][0][4] = truth["graph"]["adjacency_matrix"][4][0] = 1
    paths["golden_bad_truth"] = tmp_path / "golden_bad_truth.json"
    paths["golden_bad_truth"].write_text(json.dumps(truth))
    paths["island_kb"] = tmp_path / "island-kb"
    persist(build_knowledge_base(island, buildings.golden_detections(), "island"),
            paths["island_kb"])
    return {name: str(path) for name, path in paths.items()}


EXTRACT = ["extract", "--detections", "{dets}", "--out", "{out}"]
MOCK = ["--provider", "mock", "--mock-fixtures"]
WALK = ["walk", "--kb", "{kb}", "--truth", "{truth}"]
EVAL = ["eval", "--kb", "{kb}", "--truth", "{truth}"]
NAVIGATE = ["navigate", "--kb", "{kb}", "Room 01", "Room 03"]
BAD_TRUTH_SCALE = "scale_cm_per_px must be null or a finite number above 0, got "


def usage_error(command: str, message: str) -> str:
    """What `floornav <command>` prints to stderr for a bad argument, braces escaped."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    text = sub.choices[command].format_usage() + f"floornav {command}: error: {message}\n"
    return text.replace("{", "{{").replace("}", "}}")


# (argv, exit code, stderr); "{name}" fields are error_env paths. The order of
# the checks is pinned too: the live/seed flag checks come first; in extract the
# template-only check precedes ingest, and ingest precedes the mock-fixture check.
ERROR_PATHS = {
    "extract-template-only": (EXTRACT, EXIT_USAGE,
                              "error: extract requires provider=mock or live\n"),
    "extract-template-only-before-ingest": (
        ["extract", "--detections", "{no_dets}", "--out", "{out}"], EXIT_USAGE,
        "error: extract requires provider=mock or live\n"),
    "extract-live-without-endpoint": (
        ["extract", "--provider", "live", "--detections", "{no_dets}", "--out", "{out}"],
        EXIT_USAGE, f"error: provider=live requires ${ENV_ENDPOINT}\n"),
    "extract-mock-without-fixtures": (EXTRACT + ["--provider", "mock"], EXIT_USAGE,
                                      "error: provider=mock requires --mock-fixtures\n"),
    "extract-ingest-before-mock-check": (
        ["extract", "--provider", "mock", "--detections", "{no_dets}", "--out", "{out}"],
        EXIT_IO, "error: no such file: {no_dets}\n"),
    "extract-missing-fixture-dir": (
        EXTRACT + MOCK + ["{no_fixtures}"], EXIT_USAGE,
        "error: no mock fixture index at {no_fixtures}/index.json\n"),
    "extract-array-fixture-index": (
        EXTRACT + MOCK + ["{array_index_fixtures}"], EXIT_USAGE,
        "error: {array_index_fixtures}/index.json must hold a JSON object\n"),
    "navigate-array-fixture-section": (
        NAVIGATE + MOCK + ["{array_section_fixtures}"], EXIT_USAGE,
        "error: {array_section_fixtures}/index.json: fixtures must be a JSON object\n"),
    "extract-malformed-detections": (
        ["extract", "--detections", "{bad_dets}", "--out", "{out}"] + MOCK + ["{fixtures}"],
        EXIT_IO, "error: {bad_dets}: expected a top-level JSON array\n"),
    "extract-unparseable-reply": (
        EXTRACT + MOCK + ["{garbage_fixtures}"], EXIT_GATEWAY,
        "error: no parseable floor-plan payload after 3 attempts\n" + "".join(
            f"  attempt {n}: payload extraction failed: no balanced JSON object or "
            "array found: 'not json at all'\n" for n in range(3))),
    "extract-gateway-failure": (
        EXTRACT + MOCK + ["{empty_fixtures}"], EXIT_GATEWAY,
        "error: gateway failure: no mock response for template 'parser'\n"),
    "navigate-live-without-endpoint": (
        ["navigate", "--provider", "live", "--kb", "{no_kb}", "A", "B"], EXIT_USAGE,
        f"error: provider=live requires ${ENV_ENDPOINT}\n"),
    "navigate-missing-kb": (["navigate", "--kb", "{no_kb}", "A", "B"], EXIT_IO,
                            "error: no knowledge base at {no_kb}\n"),
    "navigate-gateway-failure": (
        ["navigate", "--kb", "{kb}", "Room 01", "Room 03"] + MOCK + ["{empty_fixtures}"],
        EXIT_GATEWAY, "error: gateway failure: no mock response for template 'planner'\n"),
    "navigate-unknown-room-suggested": (
        ["navigate", "--kb", "{kb}", "Rom 01", "Room 03"], EXIT_USAGE,
        "error: unknown room 'Rom 01'; did you mean 'Room 01'?\n"),
    "navigate-unknown-room": (
        ["navigate", "--kb", "{kb}", "Room 01", "Attic"], EXIT_USAGE,
        "error: unknown room 'Attic'\n"),
    "navigate-nan-scale": (NAVIGATE + ["--scale", "nan"], EXIT_USAGE, usage_error(
        "navigate", "argument --scale: 'nan' is not a positive number")),
    "navigate-infinite-scale": (NAVIGATE + ["--scale", "inf"], EXIT_USAGE, usage_error(
        "navigate", "argument --scale: 'inf' is not a finite scale")),
    "navigate-zero-scale": (NAVIGATE + ["--scale", "0"], EXIT_USAGE, usage_error(
        "navigate", "argument --scale: '0' is not a positive number")),
    "navigate-negative-scale": (NAVIGATE + ["--scale", "-1"], EXIT_USAGE, usage_error(
        "navigate", "argument --scale: '-1' is not a positive number")),
    "navigate-no-path": (
        ["navigate", "--kb", "{island_kb}", "Room 01", "Island"], EXIT_USAGE,
        "error: no route between 'Room 01' and 'Island'\n"),
    "walk-live-without-endpoint": (
        ["walk", "--provider", "live", "--kb", "{no_kb}", "--truth", "{no_truth}",
         "A", "B"], EXIT_USAGE, f"error: provider=live requires ${ENV_ENDPOINT}\n"),
    "walk-missing-kb": (
        ["walk", "--kb", "{no_kb}", "--truth", "{truth}", "A", "B"], EXIT_IO,
        "error: no knowledge base at {no_kb}\n"),
    "walk-missing-truth": (
        ["walk", "--kb", "{kb}", "--truth", "{no_truth}", "A", "B"], EXIT_IO,
        "error: [Errno 2] No such file or directory: '{no_truth}'\n"),
    "walk-malformed-truth": (
        ["walk", "--kb", "{kb}", "--truth", "{bad_truth}", "A", "B"], EXIT_IO,
        "error: {bad_truth}: missing field 'graph'\n"),
    "walk-inconsistent-truth-graph": (
        ["walk", "--kb", "{golden_kb}", "--truth", "{golden_bad_truth}", "Cellier", "Sejour"],
        EXIT_IO, "error: {golden_bad_truth}: graph: edge_matrix_agreement: matrix[0][4] == 1 "
                 "but no edge links 'Cuisine' and 'Sejour'\n"),
    "walk-string-truth-scale": (
        ["walk", "--kb", "{kb}", "--truth", "{string_scale_truth}", "Room 01", "Room 03"],
        EXIT_IO, "error: {string_scale_truth}: " + BAD_TRUTH_SCALE + "'2'\n"),
    "walk-nan-truth-scale": (
        ["walk", "--kb", "{kb}", "--truth", "{nan_scale_truth}", "Room 01", "Room 03"],
        EXIT_IO, "error: {nan_scale_truth}: " + BAD_TRUTH_SCALE + "nan\n"),
    "walk-unknown-room-suggested": (
        WALK + ["Rom 01", "Room 03"], EXIT_USAGE,
        "error: unknown room 'Rom 01'; did you mean 'Room 01'?\n"),
    "walk-gateway-failure": (
        WALK + MOCK + ["{empty_fixtures}", "Room 01", "Room 03"], EXIT_GATEWAY,
        "error: gateway failure: no mock response for template 'planner'\n"),
    "eval-live-without-endpoint": (
        EVAL + ["--suite", "{suite}", "--provider", "live", "--fault-rate", "0.5"],
        EXIT_USAGE, f"error: provider=live requires ${ENV_ENDPOINT}\n"),
    "eval-fault-rate-without-seed": (
        ["eval", "--kb", "{no_kb}", "--truth", "{no_truth}", "--suite", "{no_suite}",
         "--fault-rate", "0.5"], EXIT_USAGE, "error: a fault rate requires --seed\n"),
    "eval-fault-rate-above-one": (
        EVAL + ["--suite", "{suite}", "--seed", "1", "--fault-rate", "2"], EXIT_USAGE,
        usage_error("eval", "argument --fault-rate: '2' is not a rate in [0, 1]")),
    "eval-negative-fault-rate": (
        EVAL + ["--suite", "{suite}", "--seed", "1", "--fault-rate", "-0.5"], EXIT_USAGE,
        usage_error("eval", "argument --fault-rate: '-0.5' is not a rate in [0, 1]")),
    "eval-nan-fault-rate": (
        EVAL + ["--suite", "{suite}", "--seed", "1", "--fault-rate", "nan"], EXIT_USAGE,
        usage_error("eval", "argument --fault-rate: 'nan' is not a rate in [0, 1]")),
    "eval-zero-truth-scale": (
        ["eval", "--kb", "{kb}", "--truth", "{zero_scale_truth}", "--suite", "{suite}"],
        EXIT_IO, "error: {zero_scale_truth}: " + BAD_TRUTH_SCALE + "0\n"),
    "eval-negative-truth-scale": (
        ["eval", "--kb", "{kb}", "--truth", "{negative_scale_truth}", "--suite", "{suite}"],
        EXIT_IO, "error: {negative_scale_truth}: " + BAD_TRUTH_SCALE + "-3\n"),
    "eval-missing-kb": (
        ["eval", "--kb", "{no_kb}", "--truth", "{truth}", "--suite", "{suite}"],
        EXIT_IO, "error: no knowledge base at {no_kb}\n"),
    "eval-missing-suite": (EVAL + ["--suite", "{no_suite}"], EXIT_IO,
                           "error: [Errno 2] No such file or directory: '{no_suite}'\n"),
    "eval-empty-suite": (EVAL + ["--suite", "{empty_suite}"], EXIT_USAGE,
                         "error: empty suite (SR undefined)\n"),
    "eval-non-array-suite": (EVAL + ["--suite", "{object_suite}"], EXIT_IO,
                             "error: {object_suite}: expected a JSON array of routes\n"),
    "eval-inconsistent-truth-graph": (
        ["eval", "--kb", "{golden_kb}", "--truth", "{golden_bad_truth}",
         "--suite", "{golden_suite}"], EXIT_IO,
        "error: {golden_bad_truth}: graph: edge_matrix_agreement: matrix[0][4] == 1 "
        "but no edge links 'Cuisine' and 'Sejour'\n"),
    "eval-route-without-start": (EVAL + ["--suite", "{startless_suite}"], EXIT_IO,
                                 "error: {startless_suite}: route 0: missing field 'start'\n"),
    "eval-non-object-route": (EVAL + ["--suite", "{scalar_suite}"], EXIT_IO,
                              "error: {scalar_suite}: route 0: expected a JSON object\n"),
    "eval-unknown-route-class": (EVAL + ["--suite", "{huge_suite}"], EXIT_IO,
                                 "error: {huge_suite}: route 0: unknown route class 'huge'\n"),
    "eval-gateway-failure": (
        EVAL + ["--suite", "{suite}"] + MOCK + ["{empty_fixtures}"], EXIT_GATEWAY,
        "error: gateway failure: no mock response for template 'planner'\n"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", list(ERROR_PATHS))
    def test_error_path_exit_code_and_stderr(self, case, error_env, capsys, monkeypatch):
        monkeypatch.delenv(ENV_ENDPOINT, raising=False)
        argv, code, err = ERROR_PATHS[case]
        assert main([arg.format(**error_env) for arg in argv]) == code
        assert capsys.readouterr().err == err.format(**error_env)

    @pytest.mark.parametrize("step_size", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ["navigate", "--kb", "{kb}", "Room 01", "Room 03"],
        WALK + ["Room 01", "Room 03"],
        EVAL + ["--suite", "{suite}"],
    ], ids=["navigate", "walk", "eval"])
    def test_non_positive_step_size_is_usage_error(self, command, step_size, error_env,
                                                   capsys):
        argv = [arg.format(**error_env) for arg in command]
        assert main(argv + ["--step-size", step_size]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: floornav {command[0]} ")
        assert err.endswith(f"argument --step-size: {step_size!r} is not a positive number\n")

    @pytest.mark.parametrize("step_size", ["inf", "1e-300", "0.99"])
    @pytest.mark.parametrize("command", [
        ["navigate", "--kb", "{kb}", "Room 01", "Room 03"],
        WALK + ["Room 01", "Room 03"],
        EVAL + ["--suite", "{suite}"],
    ], ids=["navigate", "walk", "eval"])
    def test_infinite_or_sub_centimetre_step_size_is_usage_error(self, command, step_size,
                                                                 error_env, capsys):
        argv = [arg.format(**error_env) for arg in command]
        assert main(argv + ["--step-size", step_size]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: floornav {command[0]} ")
        assert err.endswith(
            f"argument --step-size: {step_size!r} is not a finite step of at least 1 cm\n")

    def test_one_centimetre_step_size_is_accepted(self, error_env, capsys):
        assert main(["navigate", "--kb", error_env["kb"], "Room 01", "Room 02",
                     "--step-size", "1"]) == EXIT_OK
