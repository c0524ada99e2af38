"""A checked-in digest of planner output over a fixed corpus.

The sha256 of every `plan_to_payload(navigate(...))` over the corpus below, and
of every planner prompt rendered for the golden apartment and one synthetic
building, is pinned here. A refactor that must not change plans leaves both
digests as they are; a change that alters plans or prompts on purpose updates
the constant and names it in CHANGES.md.

Corpus: the golden apartment, four 30-room `synthetic_building` seeds and 40
`random_multigraph`s (repeated pairs, a passage and two doors between one
pair), every ordered room pair, without a scale and at 1 cm/px (which makes
most doors narrow, so many plans re-plan once).
"""

from __future__ import annotations

import hashlib
import json
import random

import buildings
from generators import random_multigraph
from floornav.gateway import LlmGateway, MockProvider
from floornav.ingest import Detection, DetectionSet
from floornav.kb import build_knowledge_base
from floornav.navigation import navigate, plan_to_payload

SCALES = (None, 1.0)
STEP_CM = 60.0

PLAN_DIGEST = "be59501c48fe704653e559afcda364bec003a8cae3ada6d0503070d9bc6b11c1"
PROMPT_DIGEST = "cf73bc55e7fabe714ab2f371f9f37607674d6e387e49f8ba2cff80f1dbb1d37d"


def _multigraph_detections(g, rng: random.Random) -> DetectionSet:
    """One detection per door edge, plus one uncited door on a random passage leg."""
    dets = [Detection(class_name="door", confidence=0.9, bbox=e.door_bbox,
                      center=((e.door_bbox[0] + e.door_bbox[2]) / 2,
                              (e.door_bbox[1] + e.door_bbox[3]) / 2))
            for e in g.edges if e.is_door]
    a, b = rng.choice([e for e in g.edges if not e.is_door]).endpoints()
    x = (g.node(a).centroid[0] + g.node(b).centroid[0]) / 2
    dets.append(Detection(class_name="door", confidence=0.5,
                          bbox=(x - 1.0, 0.0, x + 1.0, 2.0), center=(x, 1.0)))
    return DetectionSet(image_ref="multigraph.png", detections=tuple(dets))


def _golden_kb():
    return build_knowledge_base(buildings.golden_graph(), buildings.golden_detections(), "golden")


def _synthetic_kb(seed: int):
    g, dets, _ = buildings.synthetic_building(30, seed)
    return build_knowledge_base(g, dets, f"synthetic-{seed}")


def _corpus():
    yield _golden_kb()
    for seed in range(4):
        yield _synthetic_kb(seed)
    rng = random.Random(21)
    for i in range(40):
        g = random_multigraph(rng)
        yield build_knowledge_base(g, _multigraph_detections(g, rng), f"multigraph-{i}")


def _feed(digest, payload) -> None:
    digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    digest.update(b"\n")


def test_template_plans_match_the_pinned_digest():
    digest = hashlib.sha256()
    plans = 0
    for kb in _corpus():
        names = kb.graph.names()
        for start in names:
            for destination in names:
                for scale in SCALES:
                    plan = navigate(kb, start, destination, STEP_CM, scale_cm_per_px=scale)
                    _feed(digest, plan_to_payload(plan))
                    plans += 1
    assert plans == 9234
    assert digest.hexdigest() == PLAN_DIGEST


def test_planner_prompts_match_the_pinned_digest():
    """Each query's planner reply is unusable, so every prompt (first try,
    regeneration, re-plan) is rendered and the template plan follows."""
    digest = hashlib.sha256()
    for kb, scales in ((_golden_kb(), SCALES), (_synthetic_kb(0), (None,))):
        names = kb.graph.names()
        for start in names:
            for destination in names[::3]:
                for scale in scales:
                    provider = MockProvider()
                    provider.script("planner", ["no steps here"])
                    plan = navigate(kb, start, destination, STEP_CM,
                                    gateway=LlmGateway(provider), scale_cm_per_px=scale)
                    _feed(digest, plan_to_payload(plan))
                    _feed(digest, [call.prompt for call in provider.calls])
    assert digest.hexdigest() == PROMPT_DIGEST
