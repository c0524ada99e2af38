"""Detector/OCR file ingestion and fuzzy room-label resolution."""

from __future__ import annotations

import json
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .graph import name_key

logger = logging.getLogger(__name__)

MATCH_THRESHOLD = 0.55  # minimum Levenshtein ratio for an OCR token to claim a label


class DetectionFormatError(ValueError):
    """The detection/OCR/roster file does not follow its expected format."""


@dataclass(frozen=True)
class Detection:
    """One detector box: class label, confidence, bbox and its center."""

    class_name: str
    confidence: float
    bbox: tuple[float, float, float, float]
    center: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.class_name:
            raise ValueError("detection class must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        x1, y1, x2, y2 = self.bbox
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate bbox {list(self.bbox)}")
        cx, cy = self.center
        if not (x1 <= cx <= x2 and y1 <= cy <= y2):
            raise ValueError(f"center {list(self.center)} lies outside bbox {list(self.bbox)}")
        object.__setattr__(self, "bbox", tuple(float(v) for v in self.bbox))
        object.__setattr__(self, "center", (float(cx), float(cy)))


@dataclass(frozen=True)
class OcrToken:
    """One OCR hit: raw text at a pixel position."""

    text: str
    position: tuple[float, float]
    confidence: float | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("OCR token text must be non-empty")
        x, y = self.position
        object.__setattr__(self, "position", (float(x), float(y)))
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class DetectionSet:
    """Detector boxes plus resolved (room name, position) labels for one image."""

    image_ref: str
    detections: tuple[Detection, ...] = ()
    labels: tuple[tuple[str, tuple[float, float]], ...] = ()
    rejected: tuple[str, ...] = ()  # diagnostics for records dropped at load time

    def __post_init__(self) -> None:
        names = [name for name, _ in self.labels]
        if len(set(names)) != len(names):
            raise ValueError("resolved label names must be unique (number duplicates first)")

    def of_class(self, class_name: str) -> tuple[Detection, ...]:
        key = class_name.lower()
        return tuple(d for d in self.detections if d.class_name.lower() == key)

    def doors(self) -> tuple[Detection, ...]:
        return self.of_class("door")

    def windows(self) -> tuple[Detection, ...]:
        return self.of_class("window")

    def label_positions(self) -> dict[str, tuple[float, float]]:
        return {name_key(name): pos for name, pos in self.labels}


def _as_records(path: Path) -> list:
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DetectionFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise DetectionFormatError(f"{path}: expected a top-level JSON array")
    return data


def load_detections(path: str | Path, image_ref: str = "") -> DetectionSet:
    """Load a detection file: JSON array of {class, confidence, bbox, center}.

    Malformed records are skipped; each rejection is logged and kept on the
    returned set as a line-level diagnostic.
    """
    path = Path(path)
    detections: list[Detection] = []
    rejected: list[str] = []
    for i, record in enumerate(_as_records(path)):
        try:
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            detections.append(Detection(
                class_name=str(record["class"]),
                confidence=float(record["confidence"]),
                bbox=tuple(float(v) for v in record["bbox"]),
                center=tuple(float(v) for v in record["center"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            diagnostic = f"{path.name}:{i}: rejected record ({exc})"
            logger.warning(diagnostic)
            rejected.append(diagnostic)
    return DetectionSet(image_ref=image_ref, detections=tuple(detections),
                        rejected=tuple(rejected))


def load_ocr_tokens(*paths: str | Path) -> list[OcrToken]:
    """Load and merge any number of OCR token files (multi-engine output)."""
    tokens: list[OcrToken] = []
    for path in paths:
        path = Path(path)
        for i, record in enumerate(_as_records(path)):
            try:
                tokens.append(OcrToken(
                    text=str(record["text"]),
                    position=tuple(float(v) for v in record["position"]),
                    confidence=record.get("confidence"),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("%s:%d: rejected OCR token (%s)", path.name, i, exc)
    return tokens


def load_roster(path: str | Path) -> list[str]:
    """Load known room labels, one per line; blank lines ignored."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute), two-row dynamic programme."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        row = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + cost))
        prev = row
    return prev[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Case-folded similarity in [0, 1]: 1 - distance / max(len). Empty==empty -> 1.0."""
    a, b = a.casefold(), b.casefold()
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


def _ratio_bound(token: Counter, token_len: int, candidate: Counter, candidate_len: int) -> float:
    """Upper bound on `levenshtein_ratio` from the bag distance.

    The edit distance is at least `m - shared` (m the longer length, shared
    the letters both strings hold, counted with multiplicity). The bound is
    written in the ratio's own float form, so `ratio <= bound` holds after
    rounding too; `shared / m` can round one ulp lower and lose an exact tie.
    """
    m = max(token_len, candidate_len)
    shared = sum((token & candidate).values())
    return 1.0 - (m - shared) / m


def _best_candidate(text: str, known: list[str], folded: list[str],
                    letters: list[Counter]) -> tuple[int | None, float]:
    """Index and ratio of the best entry for a token with no exact hit, earliest on ties.

    Candidates are scored in descending order of their bound, roster order
    within equal bounds; the scan stops at the first bound that cannot beat
    the best so far.
    """
    token_text = text.casefold()
    token_letters = Counter(token_text)
    bounds = [_ratio_bound(token_letters, len(token_text), cand, len(name))
              for cand, name in zip(letters, folded)]
    best_index, best_ratio = None, -1.0
    for i in sorted(range(len(known)), key=bounds.__getitem__, reverse=True):  # stable
        if bounds[i] < best_ratio or (bounds[i] == best_ratio and i > best_index):
            break
        ratio = levenshtein_ratio(text, known[i])
        if ratio > best_ratio or (ratio == best_ratio and i < best_index):
            best_index, best_ratio = i, ratio
    return best_index, best_ratio


def match_labels(
    tokens: list[OcrToken],
    known: list[str],
    threshold: float = MATCH_THRESHOLD,
) -> list[tuple[str, tuple[float, float]]]:
    """Resolve OCR tokens against known labels by best Levenshtein ratio.

    A token claims its highest-ratio label when the ratio is >= threshold
    (inclusive); ties go to the earlier entry in `known`. Tokens below the
    threshold are dropped with a log entry.

    Ratio 1.0 means equal up to case, so a token with such a label takes the
    first one without a DP; any other token scores only the candidates that a
    shared-letter bound cannot rule out.
    """
    folded = [name.casefold() for name in known]
    exact: dict[str, int] = {}
    for i, name in enumerate(folded):
        exact.setdefault(name, i)
    letters = [Counter(name) for name in folded]
    matched: list[tuple[str, tuple[float, float]]] = []
    for token in tokens:
        key = token.text.casefold()
        if key in exact:
            best_index, best_ratio = exact[key], 1.0
        else:
            best_index, best_ratio = _best_candidate(token.text, known, folded, letters)
        if best_index is not None and best_ratio >= threshold:
            matched.append((known[best_index], token.position))
        else:
            logger.info("unmatched OCR token %r (best ratio %.3f < %.2f)",
                        token.text, max(best_ratio, 0.0), threshold)
    return matched


def detection_summary(dets: DetectionSet) -> str:
    """One-line summary of a detection set, for prompts and reports."""
    kinds: dict[str, int] = {}
    for d in dets.detections:
        kinds[d.class_name.lower()] = kinds.get(d.class_name.lower(), 0) + 1
    counts = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items())) or "none"
    return f"DETECTIONS SUMMARY: {counts}; {len(dets.labels)} OCR labels."


def number_duplicates(names: list[str]) -> list[str]:
    """Suffix repeated names with ' 1', ' 2', ... in input order; unique names pass through."""
    totals = Counter(names)
    seen: dict[str, int] = defaultdict(int)
    out = []
    for name in names:
        if totals[name] > 1:
            seen[name] += 1
            out.append(f"{name} {seen[name]}")
        else:
            out.append(name)
    return out


def build_detection_set(
    image_ref: str,
    detections: tuple[Detection, ...] | list[Detection],
    tokens: list[OcrToken],
    known: list[str] | None = None,
    threshold: float = MATCH_THRESHOLD,
    rejected: tuple[str, ...] = (),
) -> DetectionSet:
    """Assemble the grounding set: detections plus fuzzy-resolved room labels.

    With no roster, raw token text is used verbatim as the label.
    """
    if known:
        resolved = match_labels(tokens, known, threshold)
    else:
        resolved = [(t.text, t.position) for t in tokens]
    names = number_duplicates([name for name, _ in resolved])
    labels = tuple(zip(names, (pos for _, pos in resolved)))
    return DetectionSet(image_ref=image_ref, detections=tuple(detections),
                        labels=labels, rejected=tuple(rejected))
