import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import RATIO_CORPUS
from floornav.ingest import (
    Detection,
    DetectionFormatError,
    DetectionSet,
    OcrToken,
    build_detection_set,
    levenshtein_ratio,
    load_detections,
    load_ocr_tokens,
    load_roster,
    match_labels,
    number_duplicates,
)


# Few letters, so exact ties and near-ties are common; "ß" casefolds to "ss",
# which changes a string's length.
_LABEL_TEXT = st.text(alphabet="abABßs", min_size=1, max_size=6)


@st.composite
def _tokens_and_roster(draw):
    """Tokens and a roster with case variants, duplicate casefold keys and exact ties,
    plus thresholds equal to a ratio some (token, roster entry) pair reaches."""
    known = draw(st.lists(_LABEL_TEXT, max_size=8))
    texts = draw(st.lists(_LABEL_TEXT, min_size=1, max_size=5))
    at_threshold = []
    if known:
        for name in draw(st.lists(st.sampled_from(known), max_size=3)):
            variant = draw(st.sampled_from([name.upper(), name.lower(), name.swapcase(),
                                            name.replace("ß", "ss"), name.replace("ss", "ß")]))
            known.insert(draw(st.integers(0, len(known))), variant)
        texts += draw(st.lists(st.sampled_from(known).map(str.swapcase), max_size=3))
        at_threshold = [oracles.ratio_oracle(draw(st.sampled_from(texts)), name)
                        for name in draw(st.lists(st.sampled_from(known), max_size=2))]
    tokens = [OcrToken(text=text, position=(i, 0)) for i, text in enumerate(texts)]
    return tokens, known, at_threshold


class TestDetectionTypes:
    def test_center_must_lie_inside_bbox(self):
        with pytest.raises(ValueError, match="outside bbox"):
            Detection(class_name="door", confidence=0.9, bbox=(0, 0, 10, 10),
                      center=(20, 5))

    def test_confidence_domain(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Detection(class_name="door", confidence=1.3, bbox=(0, 0, 10, 10),
                      center=(5, 5))

    def test_ocr_token_requires_text(self):
        with pytest.raises(ValueError):
            OcrToken(text="", position=(1, 1))

    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            DetectionSet(image_ref="x", labels=(("A", (0, 0)), ("A", (1, 1))))


class TestLoadDetections:
    def test_loads_golden_style_record(self, tmp_path):
        record = {"class": "door", "confidence": 0.82,
                  "bbox": [685, 1993, 773, 2084], "center": [729, 2038]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([record]))
        dets = load_detections(path)
        assert len(dets.detections) == 1
        d = dets.detections[0]
        assert d.class_name == "door"
        assert d.confidence == 0.82
        assert d.bbox == (685.0, 1993.0, 773.0, 2084.0)

    def test_empty_list_is_valid(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text("[]")
        dets = load_detections(path)
        assert dets.detections == ()

    def test_out_of_range_confidence_rejected_with_diagnostic(self, tmp_path):
        records = [
            {"class": "door", "confidence": 1.3, "bbox": [0, 0, 10, 10],
             "center": [5, 5]},
            {"class": "wall", "confidence": 0.5, "bbox": [0, 0, 10, 10],
             "center": [5, 5]},
        ]
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(records))
        dets = load_detections(path)
        assert len(dets.detections) == 1
        assert len(dets.rejected) == 1
        assert "dets.json:0" in dets.rejected[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_detections(tmp_path / "nope.json")

    def test_non_array_file(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text("{}")
        with pytest.raises(DetectionFormatError, match="array"):
            load_detections(path)

    def test_ocr_files_merge(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([{"text": "Hall", "position": [1, 2]}]))
        b.write_text(json.dumps([{"text": "Repas", "position": [3, 4],
                                  "confidence": 0.8}]))
        tokens = load_ocr_tokens(a, b)
        assert [t.text for t in tokens] == ["Hall", "Repas"]

    def test_roster(self, tmp_path):
        path = tmp_path / "roster.txt"
        path.write_text("Cuisine\n\n  Repas \nHall\n")
        assert load_roster(path) == ["Cuisine", "Repas", "Hall"]


class TestLevenshteinRatio:
    def test_case_fold_identity(self):
        assert levenshtein_ratio("Cuisine", "cuisine") == 1.0

    def test_full_distance(self):
        assert levenshtein_ratio("abc", "") == 0.0

    def test_both_empty(self):
        assert levenshtein_ratio("", "") == 1.0

    def test_typo_clears_threshold(self):
        ratio = levenshtein_ratio("Cuisine", "Cuisme")
        assert ratio == oracles.ratio_oracle("Cuisine", "Cuisme")
        assert ratio > 0.55

    @pytest.mark.parametrize("a,b", RATIO_CORPUS)
    def test_matches_dp_oracle_exactly(self, a, b):
        assert levenshtein_ratio(a, b) == oracles.ratio_oracle(a, b)

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_symmetric(self, a, b):
        assert levenshtein_ratio(a, b) == levenshtein_ratio(b, a)

    @given(st.text(max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_self_ratio_is_one(self, a):
        assert levenshtein_ratio(a, a) == 1.0


class TestMatchLabels:
    def test_exact_token_matches_with_ratio_one(self):
        tokens = [OcrToken(text="Cuisine", position=(10, 20))]
        assert match_labels(tokens, ["Cuisine", "Repas"]) == [("Cuisine", (10.0, 20.0))]

    def test_typo_resolves_to_nearest_label(self):
        tokens = [OcrToken(text="Cuisme", position=(5, 5))]
        assert match_labels(tokens, ["Cuisine", "Repas"]) == [("Cuisine", (5.0, 5.0))]

    def test_noise_token_is_dropped(self):
        tokens = [OcrToken(text="zzz", position=(1, 1))]
        assert match_labels(tokens, ["Cuisine", "Bedroom"]) == []

    def test_tie_breaks_to_earlier_roster_entry(self):
        # equidistant from both candidates; the first in `known` wins
        tokens = [OcrToken(text="Hell", position=(0, 0))]
        assert match_labels(tokens, ["Hall", "Hull"])[0][0] == "Hall"
        assert match_labels(tokens, ["Hull", "Hall"])[0][0] == "Hull"

    def test_threshold_is_inclusive(self):
        # 20 characters, 9 substitutions: ratio exactly 11/20 = 0.55
        a = "abcdefghijklmnopqrst"
        b = "zzzzzzzzzjklmnopqrst"
        assert oracles.ratio_oracle(a, b) == 0.55
        tokens = [OcrToken(text=b, position=(0, 0))]
        assert match_labels(tokens, [a], threshold=0.55) == [(a, (0.0, 0.0))]

    def test_never_outputs_below_threshold(self):
        rng_tokens = [OcrToken(text=t, position=(0, 0))
                      for t in ("Cusine", "Reps", "xyz", "Hal", "qqq")]
        known = ["Cuisine", "Repas", "Hall"]
        for name, _ in match_labels(rng_tokens, known):
            best = max(levenshtein_ratio(t.text, name) for t in rng_tokens)
            assert best >= 0.55

    @given(_tokens_and_roster())
    @settings(max_examples=400, deadline=None)
    def test_matches_bruteforce_oracle(self, case):
        tokens, known, at_threshold = case
        for threshold in (0.0, 0.3, 0.55, 0.6, 1.0, 1.5, *at_threshold):
            assert (match_labels(tokens, known, threshold)
                    == oracles.match_labels_bruteforce(tokens, known, threshold))


class TestNumberDuplicates:
    def test_bathrooms(self):
        assert number_duplicates(["Bathroom", "Bathroom"]) == ["Bathroom 1", "Bathroom 2"]

    def test_unique_untouched(self):
        assert number_duplicates(["Hall"]) == ["Hall"]

    def test_mixed_counting(self):
        assert number_duplicates(["A", "B", "A", "A"]) == ["A 1", "B", "A 2", "A 3"]

    @given(st.lists(st.sampled_from(["Hall", "Bathroom", "WC", "Suite"]), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_output_unique_and_length_preserved(self, names):
        out = number_duplicates(names)
        assert len(out) == len(names)
        assert len(set(out)) == len(out)


class TestBuildDetectionSet:
    def test_duplicate_matches_are_numbered(self):
        tokens = [OcrToken(text="Bathroom", position=(0, 0)),
                  OcrToken(text="Bathrom", position=(9, 9))]
        ds = build_detection_set("img", [], tokens, known=["Bathroom"])
        assert [name for name, _ in ds.labels] == ["Bathroom 1", "Bathroom 2"]

    def test_without_roster_token_text_is_verbatim(self):
        tokens = [OcrToken(text="Salle", position=(1, 2))]
        ds = build_detection_set("img", [], tokens, known=None)
        assert ds.labels == (("Salle", (1.0, 2.0)),)
