import json
from importlib import resources

import pytest

import buildings
from floornav.gateway import (
    AuthError,
    CompletionRequest,
    HttpProvider,
    LlmGateway,
    MAX_TOKENS,
    MalformedPayloadError,
    MissingBindingError,
    MockProvider,
    NoPayloadError,
    PLACEHOLDER_RE,
    PROMPT_IDS,
    PromptTemplate,
    ProviderConfig,
    ProviderError,
    TEMPERATURE,
    TRANSPORT_RETRIES,
    TransportError,
    extract_structured_payload,
    fixture_key,
    load_template,
    render_prompt,
)


class TestTemplates:
    def test_every_asset_loads_and_none_is_orphaned(self):
        for template_id in PROMPT_IDS:
            template = load_template(template_id)
            assert template.body.strip()
        assets = resources.files("floornav") / "prompts"
        stems = {path.name[:-len(".txt")] for path in assets.iterdir()
                 if path.name.endswith(".txt")}
        assert stems == set(PROMPT_IDS)

    def test_expected_placeholders(self):
        assert load_template("parser").placeholders == ("detection_context",)
        assert load_template("self_critic").placeholders == (
            "detection_summary", "edges_json", "graph_json", "structural_issues")
        assert load_template("planner").placeholders == (
            "destination", "edges_json", "graph_json", "safety_context",
            "start", "step_size")

    def test_parser_renders_with_empty_grounding(self):
        text = render_prompt(load_template("parser"), {"detection_context": ""})
        # no unresolved markers; JSON-schema braces in the body survive untouched
        assert not PLACEHOLDER_RE.search(text)
        assert '"adjacency_matrix"' in text
        assert "EVERY NODE MUST HAVE >= 1 EDGE" in text

    def test_planner_renders_the_task_arrow(self):
        text = render_prompt(load_template("planner"), {
            "graph_json": "{}", "edges_json": "[]", "safety_context": "",
            "start": "Cuisine", "destination": "Repas", "step_size": "60",
        })
        assert "Cuisine --> Repas" in text
        assert "Step size: 60 cm." in text

    def test_missing_binding_names_the_placeholder(self):
        template = load_template("planner")
        with pytest.raises(MissingBindingError, match="missing binding: graph_json"):
            render_prompt(template, {"edges_json": "[]", "safety_context": "",
                                     "start": "A", "destination": "B",
                                     "step_size": "60"})

    def test_rendered_output_has_no_unresolved_markers(self):
        template = PromptTemplate(template_id="parser",
                                  body="hello {detection_context} bye")
        out = render_prompt(template, {"detection_context": "X"})
        assert out == "hello X bye"


class TestExtractStructuredPayload:
    def test_strips_code_fences(self):
        assert extract_structured_payload('```json\n{"a": 1}\n```') == {"a": 1}

    def test_prose_prefix(self):
        text = 'Here is the graph: {"nodes_elements": [1, 2]}'
        assert extract_structured_payload(text) == {"nodes_elements": [1, 2]}

    def test_array_payload(self):
        assert extract_structured_payload('steps: [1, 2, 3]') == [1, 2, 3]

    def test_truncated_payload_is_no_payload(self):
        with pytest.raises(NoPayloadError):
            extract_structured_payload('{"a": [1,2')

    def test_balanced_but_invalid_json_is_malformed(self):
        with pytest.raises(MalformedPayloadError) as err:
            extract_structured_payload("{'single': 'quotes'}")
        assert err.value.excerpt

    def test_no_payload_at_all(self):
        with pytest.raises(NoPayloadError):
            extract_structured_payload("no structure here")

    def test_string_content_with_braces(self):
        payload = {"text": "keep }] these { in strings"}
        assert extract_structured_payload(json.dumps(payload)) == payload


class TestMockProvider:
    def test_fixture_lookup_is_pure(self):
        provider = MockProvider()
        provider.fixture_for("parser", {"detection_context": "X"}, "out")
        gw = LlmGateway(provider)
        first = gw.complete_template("parser", {"detection_context": "X"})
        second = gw.complete_template("parser", {"detection_context": "X"})
        assert first == second == "out"

    def test_golden_fixture_round_trips_byte_identical(self):
        response = buildings.golden_parser_response()
        provider = MockProvider()
        provider.fixture_for("parser", {"detection_context": "golden"}, response)
        gw = LlmGateway(provider)
        assert gw.complete_template("parser", {"detection_context": "golden"}) == response

    def test_key_depends_on_bindings(self):
        assert fixture_key("parser", {"a": "1"}) != fixture_key("parser", {"a": "2"})
        assert fixture_key("parser", {"a": "1", "b": "2"}) == \
            fixture_key("parser", {"b": "2", "a": "1"})

    def test_script_fail_then_pass(self):
        provider = MockProvider()
        provider.script("parser", ["first", "second"])
        gw = LlmGateway(provider)
        assert gw.complete_template("parser", {"detection_context": "a"}) == "first"
        assert gw.complete_template("parser", {"detection_context": "b"}) == "second"
        # last entry repeats
        assert gw.complete_template("parser", {"detection_context": "c"}) == "second"

    def test_unconfigured_template_raises(self):
        gw = LlmGateway(MockProvider())
        with pytest.raises(ProviderError):
            gw.complete_template("parser", {"detection_context": ""})

    def test_call_log_records_prompts(self):
        provider = MockProvider()
        provider.script("parser", ["ok"])
        gw = LlmGateway(provider)
        gw.complete_template("parser", {"detection_context": "GROUNDING"})
        calls = provider.calls_for("parser")
        assert len(calls) == 1
        assert "GROUNDING" in calls[0].prompt
        assert calls[0].response == "ok"

    def test_save_and_load_dir(self, tmp_path):
        provider = MockProvider()
        provider.fixture_for("parser", {"detection_context": "X"}, "fixture-out")
        provider.script("planner", ["p1", "p2"])
        provider.save_dir(tmp_path / "fixtures")
        index = json.loads((tmp_path / "fixtures" / "index.json").read_text())
        assert index["scripts"]["planner"]
        loaded = MockProvider.load_dir(tmp_path / "fixtures")
        gw = LlmGateway(loaded)
        assert gw.complete_template("parser", {"detection_context": "X"}) == "fixture-out"
        assert gw.complete_template("planner", {
            "graph_json": "{}", "edges_json": "[]", "safety_context": "",
            "start": "A", "destination": "B", "step_size": "60"}) == "p1"

    @pytest.mark.parametrize("index, message", [
        ([{"fixtures": {}}], "index.json must hold a JSON object"),
        ({"fixtures": ["parser.txt"]}, "index.json: fixtures must be a JSON object"),
        ({"fixtures": {}, "scripts": [["planner.txt"]]},
         "index.json: scripts must be a JSON object"),
        ({"scripts": {"planner": "p.txt"}},
         "index.json: scripts for template 'planner' must be an array of file names, got 'p.txt'"),
        ({"scripts": {"planner": ["p.txt", 3]}},
         "index.json: scripts for template 'planner' must be an array of file names"),
        ({"fixtures": {"parser:abc": ["p.txt"]}},
         r"index.json: fixture 'parser:abc' must name one file, got \['p.txt'\]"),
    ], ids=["array-index", "array-fixtures", "array-scripts", "string-script",
            "non-string-script-entry", "array-fixture-file"])
    def test_load_dir_rejects_a_malformed_index(self, tmp_path, index, message):
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match=message):
            MockProvider.load_dir(tmp_path)


class TestHttpProvider:
    def test_missing_api_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("FLOORNAV_API_KEY", raising=False)
        provider = HttpProvider(ProviderConfig(endpoint="http://127.0.0.1:9/v1",
                                               model_name="m"))
        with pytest.raises(AuthError):
            provider.complete(CompletionRequest(prompt="hi"))

    def test_unreachable_endpoint_is_transport_error(self, monkeypatch):
        monkeypatch.setenv("FLOORNAV_API_KEY", "k")
        provider = HttpProvider(ProviderConfig(
            endpoint="http://127.0.0.1:9/v1/chat/completions",
            model_name="m", timeout=2.0))
        with pytest.raises(TransportError):
            provider.complete(CompletionRequest(prompt="hi"))

    def test_request_body_carries_the_fixed_sampling_settings(self, monkeypatch):
        monkeypatch.setenv("FLOORNAV_API_KEY", "k")
        bodies = []

        class Reply:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": "[]"}}]}

        def post(url, json, headers, timeout):
            bodies.append(json)
            return Reply()

        monkeypatch.setattr("requests.post", post)
        provider = HttpProvider(ProviderConfig(endpoint="http://127.0.0.1:9/v1", model_name="m"))
        assert provider.complete(CompletionRequest(prompt="hi")) == "[]"
        assert bodies == [{"model": "m", "messages": [{"role": "user", "content": "hi"}],
                           "temperature": TEMPERATURE, "max_tokens": MAX_TOKENS}]
        assert (TEMPERATURE, MAX_TOKENS) == (0.0, 4096)


class TestTransportRetries:
    class Flaky:
        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransportError("down")
            return "ok"

    def test_recovers_within_the_retry_budget(self):
        provider = self.Flaky(TRANSPORT_RETRIES)
        assert LlmGateway(provider).complete_template("parser", {"detection_context": ""}) == "ok"
        assert provider.calls == TRANSPORT_RETRIES + 1 == 3

    def test_gives_up_after_the_retry_budget(self):
        provider = self.Flaky(TRANSPORT_RETRIES + 1)
        with pytest.raises(TransportError):
            LlmGateway(provider).complete_template("parser", {"detection_context": ""})
        assert provider.calls == TRANSPORT_RETRIES + 1


class TestRequestValidation:
    def test_empty_prompt_rejected(self):
        with pytest.raises(Exception):
            CompletionRequest(prompt="")

    def test_config_timeout_domain(self):
        with pytest.raises(Exception):
            ProviderConfig(endpoint="http://x", model_name="m", timeout=0)
