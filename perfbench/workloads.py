"""The three workloads: one per phase a floornav user runs.

Each workload generates its inputs from the seed in its constructor (not
timed), then offers `setup` (timed as `setup_s`), `run(i)` (operation i, one
timed sample), `check(i, output)` (output problems, not timed) and `finish()`
(end-of-run problems). Program functions are always reached through their
module (`navigation.navigate`, not an imported name), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import random
import re
from pathlib import Path

from floornav import cli, kb, navigation, walkthrough
from floornav import graph as fgraph
from floornav.gateway import LlmGateway

import buildings
from buildings import SCALE_CM_PER_PX, Building, grid_building, to_program

STEP_SIZE_CM = 60.0
MAX_REROUTES = 5  # simulate_walk's limit; the sixth wrong scan fails the trial


def build_store(building: Building, directory: Path):
    """Program set-up shared by all workloads: build the KB, persist it, load it back."""
    graph, dets, _ = to_program(building)
    built = kb.build_knowledge_base(graph, dets, building.building_id)
    kb.persist(built, directory)
    return built, kb.load(directory)


def store_problems(loaded, directory: Path, again: Path) -> list[str]:
    """persist -> load -> persist must reproduce the store byte for byte."""
    kb.persist(loaded, again)
    names = sorted(p.name for p in directory.iterdir())
    if names != sorted(p.name for p in again.iterdir()):
        return [f"persist -> load -> persist wrote other files than {names}"]
    _, mismatch, errors = filecmp.cmpfiles(directory, again, names, shallow=False)
    if mismatch or errors:
        return [f"persist -> load -> persist changed {sorted(mismatch + errors)}"]
    return []


class Workload:
    name = ""
    providers: tuple[type, ...] = ()  # benchmark-side model stand-ins, traced as `provider`

    def __init__(self, work: Path, seed: int):
        self.work = work

    def setup(self, rep: int) -> None:
        """Build, persist and load the KB of the workload's building; keep the loaded one."""
        directory = self.work / f"setup-{rep}"
        built, self.kb = build_store(self.building, directory)
        self.setup_dir = directory
        self._built = built

    def setup_problems(self) -> list[str]:
        problems = store_problems(self.kb, self.setup_dir, self.work / "setup-again")
        if self.kb != self._built:
            problems.append("loaded KB differs from the KB that was persisted")
        return problems

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class EvalFaulty(Workload):
    """Route suites replayed one route per `evaluate_suite` call, 20% faulty scans."""

    name = "eval-faulty"
    rooms = 400
    fault_rate = 0.2
    pool = 1000
    replay = 10  # routes run a second time to check the report is reproducible

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.building = grid_building(self.rooms, seed, "eval")
        _, _, self.truth = to_program(self.building)
        # Route k is as many hops long for every seed: the hop counts are those of
        # random pairs in a fixed reference building. Seeds then differ in the
        # rooms and scans a route meets, not in how long their routes are.
        reference = grid_building(self.rooms, 0, "eval-reference")
        ref_rng = random.Random("eval-route-lengths")
        hops = [reference.hops(*ref_rng.sample(reference.names, 2)) for _ in range(self.pool)]
        rng = random.Random(f"eval-routes:{seed}")
        self.routes = [walkthrough.RouteSpec(route_id=f"r{k:04d}", start=a, destination=z)
                       for k, (a, z) in enumerate(self.building.pairs_at(hops, rng))]
        self.fault_model = walkthrough.FaultModel(seed=seed, mismatch_rate=self.fault_rate)
        self.first_payloads: dict[int, dict] = {}

    def run(self, i: int):
        route = self.routes[i % self.pool]
        return walkthrough.evaluate_suite([route], self.kb, self.truth, self.fault_model,
                                          step_size_cm=STEP_SIZE_CM,
                                          scale_cm_per_px=SCALE_CM_PER_PX)

    def check(self, i: int, report) -> list[str]:
        if i < self.replay:
            self.first_payloads[i] = walkthrough.report_to_payload(report)
        route = self.routes[i % self.pool]
        if len(report.trials) != 1:
            return [f"{route.route_id}: {len(report.trials)} trials for one route"]
        return walk_problems(self.building, route, report.trials[0])

    def finish(self) -> list[str]:
        problems = []
        for i, first in sorted(self.first_payloads.items()):
            again = walkthrough.report_to_payload(self.run(i))
            if again != first:
                problems.append(f"{self.routes[i].route_id}: second pass gave a different report")
        return problems


def route_class(hops: int) -> str:
    return "short" if hops <= 2 else "medium" if hops <= 5 else "long"


def walk_problems(b: Building, route, trial) -> list[str]:
    """Replay a trial's events against the generated edge list.

    Every move must join neighbours and bring the walker one hop nearer the
    destination (so each plan is a shortest path); every wrong scan must move
    the walker to the scanned marker's room; the trial ends at the destination,
    or fails only by exceeding the five-reroute limit.
    """
    rid = route.route_id
    to_dest = b.distances(b.index[route.destination])
    hops = to_dest[b.index[route.start]]
    problems = []
    if trial.route_class != route_class(hops):
        problems.append(f"{rid}: class {trial.route_class}, expected {route_class(hops)}")
    here = b.index[route.start]
    deviations = 0
    pending = None  # room of a wrong marker awaiting its 'deviated' event
    for event in trial.events:
        if event.kind == "arrived":
            there = b.index.get(event.detail)
            if there is None or there not in b.adjacency[here]:
                return problems + [f"{rid}: walked {b.names[here]} -> {event.detail}, not adjacent"]
            if to_dest[there] != to_dest[here] - 1:
                return problems + [f"{rid}: {b.names[here]} -> {event.detail} is off every shortest path"]
            here = there
        elif event.kind == "scanned":
            marker = int(event.detail)
            if not 1 <= marker <= len(b):
                return problems + [f"{rid}: unregistered marker {marker}"]
            pending = None if marker == here + 1 else marker - 1
        elif event.kind == "deviated":
            if pending is None or b.names[pending] != event.detail:
                return problems + [f"{rid}: deviation to {event.detail} without a matching scan"]
            here, pending = pending, None
            deviations += 1
    if trial.success:
        if here != b.index[route.destination] or deviations != trial.reroutes:
            problems.append(f"{rid}: success in {b.names[here]} after {deviations} deviations, "
                            f"{trial.reroutes} reroutes")
    elif (trial.failure_reason != "reroute limit exceeded" or trial.reroutes != MAX_REROUTES
          or deviations != MAX_REROUTES + 1):
        problems.append(f"{rid}: failed ({trial.failure_reason!r}) after {deviations} deviations")
    return problems


# --- navigate-llm -----------------------------------------------------------------

_DEGREES = {"N": 0, "E": 90, "S": 180, "W": 270}
_TURNS = {90: "Turn right", 180: "Turn around", 270: "Turn left"}


def _bearing(a: tuple[float, float], b: tuple[float, float]) -> str:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        return "E" if dx >= 0 else "W"
    return "S" if dy > 0 else "N"


def planner_steps(b: Building, path: list[str]) -> list[dict]:
    """A valid step list for `path`: heading algebra, one move per leg, final Stop."""
    where = [b.centroids[b.index[name]] for name in path]
    heading = _bearing(where[0], where[1])
    steps: list[dict] = []

    def add(action: str, position: str, confirmation: str) -> None:
        steps.append({"step": len(steps) + 1, "action": action, "heading_after_step": heading,
                      "sensory_feedback": "", "current_position": position,
                      "confirmation": confirmation})

    for k, (here, there) in enumerate(zip(path, path[1:])):
        target = _bearing(where[k], where[k + 1])
        if target != heading:
            turn = _TURNS[(_DEGREES[target] - _DEGREES[heading]) % 360]
            heading = target
            add(turn, here, f"You should now be facing {target}")
        dx, dy = where[k + 1][0] - where[k][0], where[k + 1][1] - where[k][1]
        units = max(1, round((dx * dx + dy * dy) ** 0.5 * SCALE_CM_PER_PX / STEP_SIZE_CM))
        edge = b.edge(here, there)
        add(f"Move forward {units}", there,
            f"Pass through {edge.via} into {there}" if edge.is_door
            else f"Enter {there} through the open passage")
    add("Stop", path[-1], f"Arrived at {path[-1]}")
    return steps


class TablePlanner:
    """Stand-in planner model: answers each planner prompt from a table built in set-up.

    The gateway accepts any object with `complete(request)`; this one costs a
    dict lookup, so the workload measures floornav and not a model.
    """

    def __init__(self, replies: dict[tuple[str, str], str]):
        self.replies = replies

    def complete(self, request) -> str:
        bindings = dict(request.bindings)
        return self.replies[(bindings["start"], bindings["destination"])]


class NavigateLlm(Workload):
    """Route queries through the LLM planner over a loaded KB; 1 in 5 crosses a narrow door."""

    name = "navigate-llm"
    rooms = 100
    providers = (TablePlanner,)
    narrow_share = 0.05
    passage_share = 0.1
    pool = 600
    replan_every = 5

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.building = grid_building(self.rooms, seed, "nav", narrow_share=self.narrow_share,
                                      passage_share=self.passage_share)
        # Every `replan_every`-th query crosses a narrow door, the others none, so
        # the re-planned share is the same for every seed: the median is a
        # one-plan query and the tail a re-planned one.
        b = self.building
        rng = random.Random(f"nav-queries:{seed}")
        self.queries: list[tuple[str, str]] = []
        while len(self.queries) < self.pool:
            a, z = rng.sample(b.names, 2)
            path = b.shortest_path(a, z)
            narrow = any(b.edge(x, y).narrow for x, y in zip(path, path[1:]))
            if narrow == (len(self.queries) % self.replan_every == self.replan_every - 1):
                self.queries.append((a, z))

    def setup(self, rep: int) -> None:
        super().setup(rep)
        replies = {}
        for a, z in self.queries:
            steps = planner_steps(self.building, self.building.shortest_path(a, z))
            replies[(a, z)] = "Route plan:\n```json\n" + json.dumps(steps, indent=1) + "\n```"
        self.gateway = LlmGateway(TablePlanner(replies))

    def run(self, i: int):
        a, z = self.queries[i % self.pool]
        return navigation.navigate(self.kb, a, z, STEP_SIZE_CM, gateway=self.gateway,
                                   scale_cm_per_px=SCALE_CM_PER_PX)

    def check(self, i: int, plan) -> list[str]:
        b = self.building
        a, z = self.queries[i % self.pool]
        tag = f"{a} -> {z}"
        path = list(plan.path)
        if path[0] != a or path[-1] != z:
            return [f"{tag}: plan runs {path[0]} -> {path[-1]}"]
        if len(path) - 1 != b.hops(a, z):
            return [f"{tag}: {len(path) - 1} hops, shortest is {b.hops(a, z)}"]
        legs = [b.edge(x, y) for x, y in zip(path, path[1:])]
        if None in legs:
            return [f"{tag}: plan crosses a wall"]
        problems = [f"{tag}: {v}" for v in navigation.validate_steps(plan.steps, plan.path, self.kb.graph)]
        if plan.degraded:
            problems.append(f"{tag}: planner reply rejected, template fallback used")
        narrow = any(e.narrow for e in legs)
        if plan.rerouted != narrow:
            problems.append(f"{tag}: rerouted={plan.rerouted} with narrow door on path={narrow}")
        return problems


# --- extract-kb -------------------------------------------------------------------

_SUMMARY_RE = re.compile(r"\((\d+) rooms, (\d+) edges, (\d+) attempt\(s\)\)")


class ExtractKb(Workload):
    """Detector/OCR files -> `floornav extract` -> persisted KB, loaded back."""

    name = "extract-kb"
    rooms = 100
    buildings = 12
    reject_every = 4  # 1 in 4 buildings has a first parser reply that fails the schema check
    passage_share = 0.1

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        rng = random.Random(f"extract:{seed}")
        # Every `reject_every`-th building has its first reply rejected, for every
        # seed, so any run of consecutive operations has the same mix of one- and
        # two-attempt extractions.
        rejected = {k for k in range(self.buildings)
                    if k % self.reject_every == self.reject_every - 1}
        self.inputs = []
        for k in range(self.buildings):
            b = grid_building(self.rooms, seed, f"x{k}", passage_share=self.passage_share,
                              min_name_distance=buildings.MIN_NAME_DISTANCE)
            paths = buildings.write_extract_inputs(b, work / "inputs" / b.building_id, rng,
                                                   reject_first=k in rejected)
            self.inputs.append((b, paths, 2 if k in rejected else 1))
        self.building = self.inputs[0][0]

    def run(self, i: int):
        b, paths, _ = self.inputs[i % self.buildings]
        out = self.work / "kb" / b.building_id
        argv = ["extract", "--provider", "mock", "--mock-fixtures", str(paths["fixtures"]),
                "--detections", str(paths["detections"]), "--ocr", str(paths["ocr"]),
                "--roster", str(paths["roster"]), "--image", f"{b.building_id}.png",
                "--building-id", b.building_id, "--out", str(out), "--llm-critic"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue(), kb.load(out) if code == 0 else None

    def check(self, i: int, output) -> list[str]:
        code, stdout, loaded = output
        b, _, attempts = self.inputs[i % self.buildings]
        tag = b.building_id
        if code != 0:
            return [f"{tag}: extract exited {code}"]
        m = _SUMMARY_RE.search(stdout)
        expected = (len(b), len(b.edges), attempts)
        if m is None or tuple(int(v) for v in m.groups()) != expected:
            return [f"{tag}: summary {m and m.group(0)!r}, expected rooms/edges/attempts {expected}"]
        g = loaded.graph
        problems = []
        if set(g.names()) != set(b.names):
            problems.append(f"{tag}: recovered rooms differ from the generated ones")
        found = {(frozenset((e.from_room, e.to_room)), e.via) for e in g.edges}
        if found != b.edge_set():
            problems.append(f"{tag}: {len(found ^ b.edge_set())} edges differ from the generated set")
        report = fgraph.validate_graph(g)
        if not report.passed:
            problems.append(f"{tag}: validate_graph failed: {sorted(report.rules())}")
        if i == 0:
            problems += store_problems(loaded, self.work / "kb" / b.building_id,
                                       self.work / "extract-again")
        return problems


WORKLOADS = {w.name: w for w in (EvalFaulty, NavigateLlm, ExtractKb)}
