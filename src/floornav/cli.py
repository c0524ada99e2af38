"""Command-line entry point: extract, navigate, walk, eval."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .extraction import ExtractionError, run_extraction, write_extraction_report
from .gateway import (
    GatewayError,
    HttpProvider,
    LlmGateway,
    MockProvider,
    ProviderConfig,
)
from .graph import UnknownRoomError
from .ingest import (
    DetectionFormatError,
    build_detection_set,
    detection_summary,
    levenshtein_ratio,
    load_detections,
    load_ocr_tokens,
    load_roster,
)
from .kb import KnowledgeBaseError, build_knowledge_base, load as load_kb, persist
from .navigation import NavigationError, NavPlan, plan_to_payload, navigate
from .walkthrough import (
    FaultModel,
    TruthManifest,
    format_report_table,
    evaluate_suite,
    load_routes,
    report_to_payload,
    reroute_from,
    walk,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_GATEWAY = 3
EXIT_DEGRADED = 4

ENV_ENDPOINT = "FLOORNAV_ENDPOINT"
ENV_MODEL = "FLOORNAV_MODEL"
ENV_API_KEY = "FLOORNAV_API_KEY"
ENV_TIMEOUT = "FLOORNAV_TIMEOUT"

PROVIDERS = ("live", "mock", "template-only")
MIN_STEP_SIZE_CM = 1.0

# What `walk` and `eval` report as an I/O error while reading the KB, truth or suite.
_READ_ERRORS = (KnowledgeBaseError, FileNotFoundError, KeyError, ValueError)

# How `floornav walk` renders each walker event; kinds not listed print nothing.
WALK_LINES = {
    "planned": "walking {}",
    "step": "{}",
    "checkpoint": "scan checkpoint at {}:",
    "unreadable": "alert: {!r} is not a marker id; continuing",
    "unknown_marker": "alert: unknown marker {}; continuing",
    "confirmed": "confirmed at {}",
    "deviated": "alert: checkpoint mismatch, you are at {}",
    "rerouted": "reroute: {}",
    "reroute_failed": "reroute failed: {}",
    "aborted": "aborted: {}",
    "finished": "arrived",
}


class _Exit(Exception):
    """Ends a command: `main` prints `error: <message>` and returns `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _exit_on(code: int, *errors: type[Exception]):
    """Turn the listed errors, raised inside the block, into `_Exit(code, ...)`."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _positive_finite(what: str, least: float = 0.0):
    """An argparse type: a finite number above 0 and at least `least`; `what` names it."""
    def parse(text: str) -> float:
        value = _float(text)
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
        if not least <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {what}")
        return value
    return parse


def _rate(text: str) -> float:
    value = _float(text)
    if not 0 <= value <= 1:  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a rate in [0, 1]")
    return value


def make_gateway(args: argparse.Namespace) -> LlmGateway | None:
    """The gateway `--provider` selects, or None for the template planner."""
    if args.provider == "template-only":
        return None
    if args.provider == "mock" and args.mock_fixtures is None:
        raise _Exit(EXIT_USAGE, "provider=mock requires --mock-fixtures")
    with _exit_on(EXIT_USAGE, ValueError, FileNotFoundError):
        if args.provider == "mock":
            return LlmGateway(MockProvider.load_dir(args.mock_fixtures))
        provider_config = ProviderConfig(
            endpoint=os.environ[ENV_ENDPOINT],
            model_name=os.environ.get(ENV_MODEL, "gpt-4o"),
            auth_env=ENV_API_KEY,
            timeout=float(os.environ.get(ENV_TIMEOUT, "30")),
        )
    return LlmGateway(HttpProvider(provider_config))


def cmd_extract(args: argparse.Namespace) -> int:
    if args.provider == "template-only":
        raise _Exit(EXIT_USAGE, "extract requires provider=mock or live")
    with _exit_on(EXIT_IO, FileNotFoundError, DetectionFormatError):
        base = load_detections(args.detections, image_ref=args.image or "")
        tokens = load_ocr_tokens(*args.ocr) if args.ocr else []
        roster = load_roster(args.roster) if args.roster else None
        dets = build_detection_set(
            image_ref=args.image or "",
            detections=base.detections,
            tokens=tokens,
            known=roster,
            rejected=base.rejected,
        )
    gateway = make_gateway(args)

    try:
        result = run_extraction(gateway, args.image or "", dets,
                                llm_critic=args.llm_critic)
    except ExtractionError as exc:
        lines = [str(exc)] + [f"  attempt {attempt}: {issue}"
                              for attempt, issues in exc.history for issue in issues]
        raise _Exit(EXIT_GATEWAY, "\n".join(lines)) from exc

    kb = build_knowledge_base(result.graph, dets, args.building_id)
    persist(kb, args.out)
    if args.report:
        write_extraction_report(result, args.report)
    print(f"knowledge base written to {args.out} "
          f"({len(result.graph.nodes)} rooms, {len(result.graph.edges)} edges, "
          f"{result.attempts} attempt(s))")
    print(detection_summary(dets))
    if result.degraded:
        print("warning: extraction degraded; critic checks still failing:",
              file=sys.stderr)
        for issue in result.critic.issues:
            print(f"  - {issue}", file=sys.stderr)
        return EXIT_DEGRADED
    return EXIT_OK


def _suggestion(kb, rooms: tuple[str, ...]) -> str:
    """The "; did you mean ...?" suffix for the first unknown room, or "" if no label is near."""
    unknown = next((room for room in rooms if not kb.graph.has_room(room)), None)
    names = kb.graph.names()
    if unknown is None or not names:
        return ""
    best = max(names, key=lambda n: levenshtein_ratio(unknown, n))
    return f"; did you mean {best!r}?" if levenshtein_ratio(unknown, best) >= 0.4 else ""


def _plan(kb, args: argparse.Namespace, gateway: LlmGateway | None, scale: float | None) -> NavPlan:
    """Plan the route; an unknown room or a missing route is a usage error."""
    try:
        return navigate(kb, args.start, args.destination, args.step_size,
                        gateway=gateway, scale_cm_per_px=scale)
    except UnknownRoomError as exc:
        raise _Exit(EXIT_USAGE, str(exc) + _suggestion(kb, (args.start, args.destination))) from exc
    except NavigationError as exc:
        raise _Exit(EXIT_USAGE, str(exc)) from exc


def cmd_navigate(args: argparse.Namespace) -> int:
    gateway = make_gateway(args)
    with _exit_on(EXIT_IO, KnowledgeBaseError):
        kb = load_kb(args.kb)

    plan = _plan(kb, args, gateway, args.scale)

    for step in plan.steps:
        print(f"{step.step}. {step.action} [heading {step.heading_after_step}] "
              f"at {step.current_position} -- confirm: {step.confirmation}")
    payload = plan_to_payload(plan)
    safety = payload["safety"]
    print(f"safety: safe={str(safety['safe']).lower()} "
          f"rerouted={str(plan.rerouted).lower()}")
    for hazard in safety["hazards"]:
        print(f"  - [severity {hazard['severity']}] {hazard['hazard_type']} "
              f"at {hazard['location']}")
    print(f"  recommendation: {safety['recommendation']}")
    if args.plan_out:
        Path(args.plan_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_walk(args: argparse.Namespace) -> int:
    gateway = make_gateway(args)
    with _exit_on(EXIT_IO, *_READ_ERRORS):
        kb = load_kb(args.kb)
        truth = TruthManifest.load(args.truth)
    scale = truth.scale_cm_per_px if args.scale is None else args.scale
    plan = _plan(kb, args, gateway, scale)

    transcript: list[str] = []

    def scan(expected_marker: int) -> str | None:
        line = sys.stdin.readline()
        if not line:
            return None
        text = line.strip()
        transcript.append(f"> {text}")
        return text

    def rerouter(room: str, destination: str) -> NavPlan:
        return reroute_from(kb, room, destination, args.step_size,
                            gateway=gateway, scale_cm_per_px=scale)

    for event in walk(plan, kb.graph, truth, scan, rerouter):
        if event.kind in WALK_LINES:
            transcript.append(WALK_LINES[event.kind].format(event.detail))
            print(transcript[-1])
    if args.transcript:
        Path(args.transcript).write_text("\n".join(transcript) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.fault_rate > 0 and args.seed is None:
        raise _Exit(EXIT_USAGE, "a fault rate requires --seed")
    gateway = make_gateway(args)
    with _exit_on(EXIT_IO, *_READ_ERRORS):
        kb = load_kb(args.kb)
        truth = TruthManifest.load(args.truth)
        routes = load_routes(args.suite)
    if not routes:
        raise _Exit(EXIT_USAGE, "empty suite (SR undefined)")

    fault_model = FaultModel(seed=args.seed, mismatch_rate=args.fault_rate) \
        if args.fault_rate > 0 else FaultModel.none()
    report = evaluate_suite(routes, kb, truth, fault_model,
                            step_size_cm=args.step_size, gateway=gateway,
                            scale_cm_per_px=args.scale)
    print(format_report_table(report))
    if args.report:
        Path(args.report).write_text(
            json.dumps(report_to_payload(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floornav",
                     description="Floor-plan knowledge extraction and navigation")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--provider", choices=PROVIDERS, default="template-only")
        p.add_argument("--mock-fixtures", help="mock fixture directory (provider=mock)")
        p.add_argument("--step-size", default=60.0, help="walking step size in cm",
                       type=_positive_finite(f"step of at least {MIN_STEP_SIZE_CM:g} cm",
                                             MIN_STEP_SIZE_CM))
        p.add_argument("--scale", type=_positive_finite("scale"), default=None,
                       help="pixel scale in cm/px (enables clearance checks)")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("extract", help="build a knowledge base from detection/OCR files")
    common(p)
    p.add_argument("--detections", required=True, help="detection JSON file")
    p.add_argument("--ocr", action="append", default=[],
                   help="OCR token JSON file (repeatable)")
    p.add_argument("--roster", help="known room labels, one per line")
    p.add_argument("--image", help="floor plan image reference")
    p.add_argument("--building-id", default="building")
    p.add_argument("--out", required=True, help="knowledge base directory")
    p.add_argument("--report", help="extraction report JSON path")
    p.add_argument("--llm-critic", action="store_true",
                   help="also consult the LLM self-critic")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("navigate", help="plan a route between two rooms")
    common(p)
    p.add_argument("--kb", required=True, help="knowledge base directory")
    p.add_argument("--plan-out", help="write the plan JSON here")
    p.add_argument("start")
    p.add_argument("destination")
    p.set_defaults(func=cmd_navigate)

    p = sub.add_parser("walk", help="interactive checkpoint-confirmed walkthrough")
    common(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--truth", required=True, help="truth manifest JSON")
    p.add_argument("--transcript", help="write the session transcript here")
    p.add_argument("start")
    p.add_argument("destination")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("eval", help="run a route suite and report success rates")
    common(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--suite", required=True, help="route suite JSON")
    p.add_argument("--report", help="write the machine-readable report here")
    p.add_argument("--fault-rate", type=_rate, default=0.0,
                   help="seeded checkpoint-mismatch rate")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # checked before any command reads a file
        if args.provider == "live" and not os.environ.get(ENV_ENDPOINT):
            raise _Exit(EXIT_USAGE, f"provider=live requires ${ENV_ENDPOINT}")
        return args.func(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GatewayError as exc:
        print(f"error: gateway failure: {exc}", file=sys.stderr)
        return EXIT_GATEWAY


if __name__ == "__main__":
    sys.exit(main())
