"""floornav: floor-plan parsing to safety-evaluated indoor navigation.

A self-correcting agent pipeline extracts a validated spatial knowledge graph
from detector/OCR inputs, stores it in a three-tier knowledge base (graph,
semantic vectors, visual grounding), and generates heading-tracked,
safety-evaluated navigation instructions with checkpoint-based rerouting and
success-rate evaluation. Everything runs offline against a deterministic mock
provider or the pure template planner; a live chat-completions backend is an
opt-in.
"""

from .extraction import (
    CriticReport,
    ExtractionError,
    ExtractionResult,
    RawParse,
    build_graph,
    critic_check,
    parse_floorplan,
    run_extraction,
)
from .gateway import (
    CompletionRequest,
    HttpProvider,
    LlmGateway,
    MockProvider,
    PromptTemplate,
    ProviderConfig,
    extract_structured_payload,
    render_prompt,
)
from .graph import (
    FloorGraph,
    GraphEdge,
    RoomNode,
    Route,
    UnknownRoomError,
    ValidationReport,
    bfs_shortest_path,
    connected_components,
    rebuild_adjacency,
    shortest_route,
    validate_graph,
)
from .ingest import (
    Detection,
    DetectionSet,
    OcrToken,
    build_detection_set,
    levenshtein_ratio,
    load_detections,
    load_ocr_tokens,
    match_labels,
    number_duplicates,
)
from .kb import (
    HashEmbedder,
    KnowledgeBase,
    SemanticDoc,
    VectorIndex,
    VisualContext,
    assemble_context,
    build_knowledge_base,
    build_semantic_docs,
    load,
    persist,
    retrieve,
)
from .navigation import (
    Hazard,
    NavPlan,
    NavStep,
    NoPathError,
    heading_after,
    navigate,
    plan_route,
    safety_evaluate,
    validate_steps,
)
from .walkthrough import (
    Checkpoint,
    EvalReport,
    FaultModel,
    RouteSpec,
    TrialResult,
    TruthManifest,
    confirm_checkpoint,
    evaluate_suite,
    format_sr,
    reroute_from,
    simulate_walk,
)

__version__ = "0.1.0"
