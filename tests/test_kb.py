import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildings
import oracles
from generators import random_connected_graph, random_detection_set, random_raw_parse
from floornav.extraction import build_graph
from floornav.graph import (
    FloorGraph,
    GraphEdge,
    GraphError,
    RoomNode,
    Route,
    rebuild_adjacency,
    shortest_route,
)
from floornav.ingest import Detection, DetectionSet
from floornav.kb import (
    CorruptStoreError,
    HashEmbedder,
    KnowledgeBase,
    MissingStoreError,
    SemanticDoc,
    StoreVersionError,
    assemble_context,
    build_knowledge_base,
    build_semantic_docs,
    cosine,
    load,
    persist,
    retrieve,
)
from floornav.navigation import plan_route


class TestSemanticDocs:
    def test_golden_room_card(self, golden_graph, golden_dets):
        docs = {d.doc_id: d for d in build_semantic_docs(golden_graph, golden_dets)}
        body = docs["room:Cuisine"].body
        assert "Room: Cuisine" in body
        assert "Type: room | Size: 11.85 m2" in body
        assert "Dimensions: 3.5 m x 3.4 m" in body
        assert "Door_D3 to Repas" in body
        assert "Windows (1): West wall" in body
        assert "Cellier to North" in body
        assert "Repas to South" in body
        assert "Hall to East" in body

    def test_golden_transition_card(self, golden_graph, golden_dets):
        docs = {d.doc_id: d for d in build_semantic_docs(golden_graph, golden_dets)}
        body = docs["transition:Cuisine->Repas"].body
        assert body.splitlines()[0] == "Transition: Cuisine -> Repas"
        assert "Via: door | Door ID: Door_D3" in body
        assert "Door position (bbox): [160, 260, 180, 280]" in body
        assert "Repas size: 38.22 m2 (5.5 m x 6.95 m)" in body

    def test_passage_transition_card_has_no_door_lines(self, golden_graph, golden_dets):
        docs = {d.doc_id: d for d in build_semantic_docs(golden_graph, golden_dets)}
        body = docs["transition:Cuisine->Hall"].body
        assert "Via: passage" in body
        assert "Door ID" not in body

    def test_door_card_wall_side(self, golden_graph, golden_dets):
        docs = {d.doc_id: d for d in build_semantic_docs(golden_graph, golden_dets)}
        body = docs["door:Door_D7"].body
        assert "Connects: Hall <-> Sejour" in body
        assert "Wall side: South wall of Hall" in body

    def test_single_room_graph_yields_one_room_doc_only(self):
        node = RoomNode(name="Studio", centroid=(5, 5))
        g = FloorGraph(nodes=(node,), edges=(), adjacency=np.zeros((1, 1), dtype=int))
        docs = build_semantic_docs(g, DetectionSet(image_ref="x"))
        assert [d.kind for d in docs] == ["room"]

    def test_source_refs_exist_in_graph(self, golden_graph, golden_dets):
        names = set(golden_graph.names())
        for doc in build_semantic_docs(golden_graph, golden_dets):
            assert set(doc.source_refs) <= names

    @pytest.mark.parametrize("seed", range(4))
    def test_room_card_lists_every_door_of_the_room(self, seed):
        g, dets, _ = buildings.synthetic_building(9 + 7 * seed, seed=seed)
        for doc in build_semantic_docs(g, dets):
            if doc.kind != "room":
                continue
            room = doc.source_refs[0]
            doors = sorted((e for e in g.edges if e.is_door and room in e.endpoints()),
                           key=lambda e: int(e.via.rsplit("D", 1)[1]))
            want = [f"Doors ({len(doors)}): " + "; ".join(
                f"{e.via} to {e.to_room if e.from_room == room else e.from_room}" for e in doors
            )] if doors else []
            assert [line for line in doc.body.splitlines() if line.startswith("Doors (")] == want

    def test_double_door_pair_gets_distinct_doc_ids(self):
        nodes = [RoomNode(name="A", centroid=(0.0, 0.0)),
                 RoomNode(name="B", centroid=(200.0, 0.0))]
        edges = [GraphEdge(from_room="A", to_room="B", via="Door_D1",
                           door_bbox=(90.0, 0.0, 110.0, 20.0)),
                 GraphEdge(from_room="A", to_room="B", via="Door_D2",
                           door_bbox=(90.0, 80.0, 110.0, 100.0))]
        g = FloorGraph(nodes=nodes, edges=edges,
                       adjacency=rebuild_adjacency(nodes, edges))
        kb = build_knowledge_base(g, DetectionSet(image_ref="x"), "double")
        ids = [d.doc_id for d in kb.docs if d.kind == "transition"]
        assert len(ids) == len(set(ids)) == 2


class TestHashEmbedder:
    def test_unit_norm(self):
        embedder = HashEmbedder()
        vec = embedder.embed("navigate from Cuisine to Repas")
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_deterministic_across_instances(self):
        a = HashEmbedder().embed("Door_D3 to Repas")
        b = HashEmbedder().embed("Door_D3 to Repas")
        assert np.array_equal(a, b)

    def test_disjoint_vocabulary_has_zero_cosine(self):
        # verify the chosen test strings hash into disjoint buckets first
        left, right = "alpha beta gamma", "delta epsilon zeta"
        buckets_left = {HashEmbedder.bucket(t) for t in left.split()}
        buckets_right = {HashEmbedder.bucket(t) for t in right.split()}
        assert not buckets_left & buckets_right
        embedder = HashEmbedder()
        assert cosine(embedder.embed(left), embedder.embed(right)) == 0.0

    def test_empty_text_is_degenerate_zero_vector(self):
        embedder = HashEmbedder()
        zero = embedder.embed("")
        assert not np.any(zero)
        assert cosine(zero, embedder.embed("anything")) == 0.0


class TestRetrieve:
    def test_query_equal_to_doc_body_ranks_first_with_score_one(self, golden_kb):
        doc = golden_kb.doc("transition:Cuisine->Repas")
        ranked = retrieve(golden_kb, doc.body, 1)
        assert ranked[0][0].doc_id == doc.doc_id
        assert ranked[0][1] == 1.0

    def test_k_zero_is_empty(self, golden_kb):
        assert retrieve(golden_kb, "anything", 0) == []

    def test_k_larger_than_corpus_returns_all(self, golden_kb):
        ranked = retrieve(golden_kb, "door", 10_000)
        assert len(ranked) == len(golden_kb.docs)

    def test_matches_bruteforce_similarity_oracle(self):
        rng = random.Random(11)
        words = ["door", "hall", "kitchen", "stairs", "corridor", "window",
                 "tile", "carpet", "north", "south", "narrow", "wide"]
        docs = []
        for i in range(20):
            body = " ".join(rng.choices(words, k=rng.randint(3, 9)))
            docs.append(SemanticDoc(doc_id=f"doc:{i:02d}", kind="room", body=body,
                                    source_refs=()))
        node = RoomNode(name="X", centroid=(0, 0))
        g = FloorGraph(nodes=(node,), edges=(),
                       adjacency=np.zeros((1, 1), dtype=int))
        embedder = HashEmbedder()
        from floornav.kb import VectorIndex, VisualContext

        kb = KnowledgeBase(
            building_id="synthetic", graph=g, docs=tuple(docs),
            index=VectorIndex(dimension=embedder.dimension,
                              entries=tuple((d.doc_id, embedder.embed(d.body))
                                            for d in docs)),
            visual=VisualContext(image_ref="x", detections=DetectionSet(image_ref="x")),
            embedder=embedder,
        )
        query = "narrow corridor with tile floor"
        qv = embedder.embed(query)
        expected = sorted(
            ((d.doc_id, oracles.cosine_brute(qv.tolist(),
                                             embedder.embed(d.body).tolist()))
             for d in docs),
            key=lambda pair: (-pair[1], pair[0]),
        )
        got = retrieve(kb, query, len(docs))
        for (got_doc, got_score), (want_id, want_score) in zip(got, expected):
            assert got_doc.doc_id == want_id
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_insertion_order_does_not_change_ranking(self, golden_graph, golden_dets):
        kb = build_knowledge_base(golden_graph, golden_dets, "golden")
        docs = list(kb.docs)
        rng = random.Random(3)
        rng.shuffle(docs)
        from floornav.kb import VectorIndex

        shuffled = KnowledgeBase(
            building_id=kb.building_id, graph=kb.graph, docs=tuple(docs),
            index=VectorIndex(dimension=kb.index.dimension,
                              entries=tuple((d.doc_id, kb.embedder.embed(d.body))
                                            for d in docs)),
            visual=kb.visual, embedder=kb.embedder,
        )
        a = [(d.doc_id, s) for d, s in retrieve(kb, "door to the kitchen", 5)]
        b = [(d.doc_id, s) for d, s in retrieve(shuffled, "door to the kitchen", 5)]
        assert a == b


def context_between(kb, start, destination):
    return assemble_context(kb, shortest_route(kb.graph, start, destination))


class TestAssembleContext:
    def test_cuisine_to_repas_includes_door_d3(self, golden_kb):
        ctx = context_between(golden_kb, "Cuisine", "Repas")
        assert ctx.path == ("Cuisine", "Repas")
        assert any("Door_D3" in d.body for d in ctx.transition_docs)
        assert any(door_id == "Door_D3" for door_id, _ in ctx.door_notes)

    def test_same_room_has_no_transitions(self, golden_kb):
        ctx = context_between(golden_kb, "Repas", "Repas")
        assert ctx.path == ("Repas",)
        assert ctx.transition_docs == ()

    def test_transition_doc_count_equals_path_legs(self, golden_kb):
        ctx = context_between(golden_kb, "Repas", "Sejour")
        assert len(ctx.path) == 4  # Repas -> Cuisine -> Hall -> Sejour
        assert len(ctx.transition_docs) == 3

    def test_only_path_transitions_included(self, golden_kb):
        ctx = context_between(golden_kb, "Cuisine", "Hall")
        ids = {d.doc_id for d in ctx.transition_docs}
        assert ids == {"transition:Cuisine->Hall"}

    @staticmethod
    def passage_then_door_kb():
        """Rooms A and B joined by a passage, then by Door_D1, both listed A -> B."""
        nodes = [RoomNode(name="A", centroid=(0.0, 100.0)),
                 RoomNode(name="B", centroid=(400.0, 100.0))]
        bbox = (190.0, 90.0, 210.0, 110.0)
        edges = [GraphEdge(from_room="A", to_room="B"),
                 GraphEdge(from_room="A", to_room="B", via="Door_D1", door_bbox=bbox)]
        door = Detection(class_name="door", confidence=0.9, bbox=bbox, center=(200.0, 100.0))
        return build_knowledge_base(FloorGraph(nodes=nodes, edges=edges),
                                    DetectionSet(image_ref="x", detections=(door,)), "x")

    def test_door_note_names_the_door_the_template_plan_crosses(self):
        kb = self.passage_then_door_kb()
        plan = plan_route(kb, "A", "B", 60.0)
        assert plan.steps[0].confirmation == "Pass through Door_D1 into B"
        ctx = assemble_context(kb, plan.route)
        assert [door_id for door_id, _ in ctx.door_notes] == ["Door_D1"]

    def test_transition_card_is_the_door_the_template_plan_crosses(self):
        kb = self.passage_then_door_kb()
        ctx = assemble_context(kb, plan_route(kb, "A", "B", 60.0).route)
        assert [d.doc_id for d in ctx.transition_docs] == ["transition:A->B#2"]
        assert "Via: door | Door ID: Door_D1" in ctx.transition_docs[0].body
        passage = GraphEdge(from_room="A", to_room="B")
        ctx = assemble_context(kb, Route(path=("A", "B"), legs=(passage,)))
        assert [d.doc_id for d in ctx.transition_docs] == ["transition:A->B"]


class TestPersistence:
    def test_round_trip_structural_equality(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        loaded = load(tmp_path / "kb")
        assert loaded == golden_kb

    def test_rejected_detection_records_round_trip(self, golden_graph, golden_dets, tmp_path):
        dets = DetectionSet(image_ref=golden_dets.image_ref, detections=golden_dets.detections,
                            labels=golden_dets.labels,
                            rejected=("record 4: confidence 1.5 outside [0, 1]",))
        built = build_knowledge_base(golden_graph, dets, "golden")
        persist(built, tmp_path / "kb")
        visual = json.loads((tmp_path / "kb" / "visual.json").read_text())
        assert visual["rejected"] == list(dets.rejected)
        loaded = load(tmp_path / "kb")
        assert loaded.visual.detections.rejected == dets.rejected
        assert loaded == built

    def test_double_persist_is_byte_identical(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        first = {p.name: p.read_bytes() for p in (tmp_path / "kb").iterdir()}
        persist(golden_kb, tmp_path / "kb")
        second = {p.name: p.read_bytes() for p in (tmp_path / "kb").iterdir()}
        assert first == second

    def test_missing_store(self, tmp_path):
        with pytest.raises(MissingStoreError):
            load(tmp_path / "empty")

    def test_version_mismatch(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        manifest = tmp_path / "kb" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["schema_version"] = 99
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreVersionError, match="99"):
            load(tmp_path / "kb")

    def test_corrupted_file(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        (tmp_path / "kb" / "vectors.json").write_text("{broken")
        with pytest.raises(CorruptStoreError, match="vectors.json"):
            load(tmp_path / "kb")

    def test_broken_bijection_is_corrupt(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        docs_path = tmp_path / "kb" / "docs.json"
        docs = json.loads(docs_path.read_text())
        docs.pop()
        docs_path.write_text(json.dumps(docs))
        with pytest.raises(CorruptStoreError):
            load(tmp_path / "kb")

    def test_vectors_round_trip_bit_equal(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        loaded = load(tmp_path / "kb")
        for (a_id, a_vec), (b_id, b_vec) in zip(golden_kb.index.entries,
                                                loaded.index.entries):
            assert a_id == b_id
            assert np.array_equal(a_vec, b_vec)

    def test_store_holds_only_source_facts(self, golden_kb, tmp_path):
        persist(golden_kb, tmp_path / "kb")
        store = {p.name: json.loads(p.read_text()) for p in (tmp_path / "kb").iterdir()}
        assert "adjacency_matrix" not in store["graph.json"]
        assert store["vectors.json"] == {"dimension": golden_kb.index.dimension}
        assert "element_notes" not in store["visual.json"]
        assert "rejected" not in store["visual.json"]  # written only when there is one
        assert "dimension" not in store["manifest.json"]
        loaded = load(tmp_path / "kb")
        assert np.array_equal(loaded.graph.adjacency, golden_kb.graph.adjacency)
        assert loaded.visual.element_notes == golden_kb.visual.element_notes

    def test_persist_refuses_matrix_not_derived_from_edges(self, golden_graph):
        # such a KB cannot be persisted because its graph cannot be built
        adjacency = golden_graph.adjacency.copy()
        adjacency[0, -1] = adjacency[-1, 0] = 1 - adjacency[0, -1]
        with pytest.raises(GraphError, match="^edge_matrix_agreement: "):
            FloorGraph(nodes=golden_graph.nodes, edges=golden_graph.edges,
                       adjacency=adjacency)


def _store_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_property_persist_load_persist_is_byte_identical(rng):
    raw = random_raw_parse(rng)
    dets = random_detection_set(rng, raw)
    graph = build_graph(raw, dets) if rng.random() < 0.5 else random_connected_graph(rng)
    built = build_knowledge_base(graph, dets, f"b{rng.randrange(100)}")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        persist(built, first)
        loaded = load(first)
        persist(loaded, second)
        assert loaded == built
        assert _store_bytes(first) == _store_bytes(second)


def _edit(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _add_matrix(store: Path, rng: random.Random) -> None:
    def change(graph):
        n = len(graph["nodes_elements"])
        matrix = [[0] * n for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        matrix[i][j] = matrix[j][i] = 1
        graph["adjacency_matrix"] = matrix
    _edit(store / "graph.json", change)


def _edge_to_unknown_room(store: Path, rng: random.Random) -> None:
    _edit(store / "graph.json",
          lambda graph: rng.choice(graph["edges"]).update(to="Attic"))


def _non_object_edge(store: Path, rng: random.Random) -> None:
    _edit(store / "graph.json",
          lambda graph: graph["edges"].insert(rng.randrange(len(graph["edges"]) + 1), 1))


def _doc_ref_to_unknown_room(store: Path, rng: random.Random) -> None:
    _edit(store / "docs.json",
          lambda docs: rng.choice(docs)["source_refs"].append("Attic"))


def _drop_door_card(store: Path, rng: random.Random) -> None:
    def change(docs):
        docs.remove(rng.choice([d for d in docs if d["kind"] == "door"]))
    _edit(store / "docs.json", change)


def _huge_dimension(store: Path, rng: random.Random) -> None:
    _edit(store / "vectors.json", lambda vectors: vectors.update(dimension=10 ** rng.randint(6, 12)))


def _non_string_rejected(store: Path, rng: random.Random) -> None:
    _edit(store / "visual.json",
          lambda visual: visual.update(rejected=rng.choice([5, "record 1", [1], {"a": 1}])))


def _array_manifest(store: Path, rng: random.Random) -> None:
    (store / "manifest.json").write_text(json.dumps([2, f"b{rng.randrange(100)}"]))


def _array_visual(store: Path, rng: random.Random) -> None:
    visual = json.loads((store / "visual.json").read_text())
    (store / "visual.json").write_text(json.dumps(rng.choice([[visual], "visual", 2])))


def _one_number_label_position(store: Path, rng: random.Random) -> None:
    _edit(store / "visual.json",
          lambda visual: rng.choice(visual["labels"])[1].pop())


def _non_string_label_name(store: Path, rng: random.Random) -> None:
    def change(visual):
        rng.choice(visual["labels"])[0] = rng.choice([5, None, ["Hall"], {"name": "Hall"}])
    _edit(store / "visual.json", change)


def _v1_manifest(store: Path, rng: random.Random) -> None:
    _edit(store / "manifest.json",
          lambda manifest: manifest.update(schema_version=1, dimension=256))


TAMPERS = {
    "adjacency-matrix": (_add_matrix, CorruptStoreError, "adjacency_matrix"),
    "edge-to-unknown-room": (_edge_to_unknown_room, CorruptStoreError, "unknown room 'Attic'"),
    "non-object-edge": (_non_object_edge, CorruptStoreError, "edge record must be an object"),
    "doc-ref-to-unknown-room": (_doc_ref_to_unknown_room, CorruptStoreError,
                                "unknown room 'Attic'"),
    "missing-door-card": (_drop_door_card, CorruptStoreError, "cards, the graph needs"),
    "huge-dimension": (_huge_dimension, CorruptStoreError, "dimension must be an integer"),
    "non-string-rejected": (_non_string_rejected, CorruptStoreError,
                            "rejected must be an array of strings"),
    "v1-manifest": (_v1_manifest, StoreVersionError, "store has 1, expected 2"),
    "array-manifest": (_array_manifest, CorruptStoreError,
                       "manifest.json must hold a JSON object, got list"),
    "non-object-visual": (_array_visual, CorruptStoreError,
                          "visual.json must hold a JSON object, got "),
    "one-number-label-position": (_one_number_label_position, CorruptStoreError,
                                  r"visual.json: label '.+' position must be two numbers"),
    "non-string-label-name": (_non_string_label_name, CorruptStoreError,
                              "visual.json: label name must be a string, got "),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", list(TAMPERS))
def test_tampered_store_raises_typed_error(case, seed, tmp_path):
    tamper, error, message = TAMPERS[case]
    graph, dets, _ = buildings.synthetic_building(9, seed=seed)
    persist(build_knowledge_base(graph, dets, f"b{seed}"), tmp_path / "kb")
    tamper(tmp_path / "kb", random.Random(seed))
    with pytest.raises(error, match=message):
        load(tmp_path / "kb")


class TestBijectionInvariant:
    def test_mismatched_index_rejected(self, golden_graph, golden_dets):
        kb = build_knowledge_base(golden_graph, golden_dets, "golden")
        from floornav.kb import KnowledgeBaseError, VectorIndex

        with pytest.raises(KnowledgeBaseError, match="bijection"):
            KnowledgeBase(
                building_id="x", graph=kb.graph, docs=kb.docs,
                index=VectorIndex(dimension=kb.index.dimension,
                                  entries=kb.index.entries[:-1]),
                visual=kb.visual, embedder=kb.embedder,
            )

    def test_every_door_doc_refers_to_a_door_edge(self, golden_kb):
        door_ids = {e.via for e in golden_kb.graph.edges if e.is_door}
        for doc in golden_kb.docs:
            if doc.kind == "door":
                assert doc.doc_id.split(":", 1)[1] in door_ids
