"""veriledger: a deterministic proof-of-stake deepfake-detection network.

Desk-scale and fully reproducible: a single-branch PoS ledger, contract
state machines for algorithm and trusted-content registries with token
incentives, deterministic detector stand-ins behind a plugin interface,
an off-chain oracle, and a scenario engine that drives the whole
submit -> analyze -> notify -> reward loop.
"""

from .codec import Hash256, hash_bytes
from .core import (
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    Block,
    ContentRecord,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    NotificationEvent,
    Receipt,
    ReceiptStatus,
    Transaction,
    TxKind,
    Verdict,
)
from .detection import (
    MatchCandidate,
    embed,
    match_trusted,
    register_detector_kind,
    run_detector,
    select_model,
    similarity,
)
from .ledger import apply_block, init_chain, seal_block, select_proposer
from .oracle import OracleBatch, process_pending
from .sim import (
    GroundTruth,
    RunReport,
    ScenarioConfig,
    compute_metrics,
    generate_corpus,
    parse_scenario,
    perturb,
    run_scenario,
)
from .store import ChainView, ChainWriter, replay, verify_chain

__version__ = "0.1.0"

__all__ = [
    "AlgorithmRecord",
    "AlgorithmStatus",
    "AnalysisRequest",
    "AnalysisResultRecord",
    "Block",
    "ChainView",
    "ChainWriter",
    "ContentRecord",
    "ContractParams",
    "DetectorSpec",
    "Embedding",
    "GroundTruth",
    "Hash256",
    "MatchCandidate",
    "MediaType",
    "NetworkState",
    "NotificationEvent",
    "OracleBatch",
    "Receipt",
    "ReceiptStatus",
    "RunReport",
    "ScenarioConfig",
    "Transaction",
    "TxKind",
    "Verdict",
    "apply_block",
    "compute_metrics",
    "embed",
    "generate_corpus",
    "hash_bytes",
    "init_chain",
    "match_trusted",
    "parse_scenario",
    "perturb",
    "process_pending",
    "register_detector_kind",
    "replay",
    "run_detector",
    "run_scenario",
    "seal_block",
    "select_model",
    "select_proposer",
    "similarity",
    "verify_chain",
]
