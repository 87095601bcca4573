"""Deterministic scenario engine: corpus, schedule, run loop, metrics.

A scenario is a JSON document (strictly validated, unknown keys rejected)
fixing the seed, validator set, accounts, algorithm registration plans,
synthetic corpus shape, and contract parameter overrides. Runs are pure
functions of the config: the same document produces byte-identical chain
files, oracle logs, and reports.

The built-in schedule drives the whole loop:

* block 1: algorithm registrations and trusted-content registrations;
* block 2: validation challenges for every pending algorithm;
* block 3+: analysis requests for fakes and unrelated items, a fixed
  number per block, until the queue drains;
* every block: the oracle processes pending requests from the previous
  block's state snapshot and its commits ride in the current block;
* the block after a request completes: the submitting user sends
  feedback carrying the simulator's ground-truth label;
* epoch boundaries: performance rewards are minted inside apply_block.

Ground truth (which submissions were fakes, and of what) never reaches
the chain; it is written to a sidecar file so reports can be recomputed
from a stored chain.

Synthetic corpus, fixed across platforms (all randomness is SplitMix64):

* Bytes items are drawn from a per-item random alphabet of
  ``alphabet_size`` distinct byte values, so unrelated items have nearly
  disjoint histograms while perturbed copies stay close to their source;
* Image items are 32x32 binary PGMs with one random gray level per cell
  of the 8x8 embedding grid;
* Audio items are 2048-sample square waves with one random amplitude per
  embedding window.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Any

from .codec import hash_bytes
from .contracts import request_id_for
from .core import (
    ESCROW_ACCOUNT,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    ReceiptStatus,
    RegisterAlgorithm,
    RegisterContent,
    SubmitAnalysisRequest,
    SubmitChallengeResult,
    SubmitFeedback,
    Transaction,
    TxKind,
    Verdict,
)
from .detection import detector_kinds, embed, parse_pgm
from .errors import ConfigError, MissingLabel
from .ledger import init_chain, seal_block
from .oracle import OracleBatch, process_pending
from .rng import SplitMix64, derive_seed
from .store import (
    ChainRecord,
    ChainView,
    ChainWriter,
    canonical_json,
    notifications,
    record_to_json,
)

IMAGE_SIDE = 32
AUDIO_SAMPLES = 2048
PERTURB_KINDS = ("byte-flip", "pixel-shift")
BUILTIN_DETECTORS = {
    "exact-hash": DetectorSpec(kind="exact-hash"),
    "near-duplicate": DetectorSpec(kind="near-duplicate"),
}


@dataclass(frozen=True, slots=True)
class PerturbationSpec:
    kind: str
    rate: float


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    trusted_count: int
    fake_count: int
    unrelated_count: int
    media_types: tuple[MediaType, ...]
    perturbation: PerturbationSpec
    item_size: int = 4096
    alphabet_size: int = 32


@dataclass(frozen=True, slots=True)
class AlgorithmPlan:
    algorithm_id: str
    owner: str
    media_types: frozenset[MediaType]
    detector: str
    stake: int
    challenge_correct: int


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int
    blocks: int
    validators: tuple[tuple[str, int], ...]
    accounts: tuple[tuple[str, int], ...]
    detectors: dict[str, DetectorSpec]
    algorithms: tuple[AlgorithmPlan, ...]
    corpus: CorpusSpec
    providers: tuple[str, ...]
    users: tuple[str, ...]
    requests_per_block: int
    request_fee: int
    oracle_batch_limit: int
    params: ContractParams


@dataclass(frozen=True, slots=True)
class CorpusItem:
    item_id: str
    media_type: MediaType
    content: bytes
    source_id: str | None = None


@dataclass(slots=True)
class Corpus:
    trusted: list[CorpusItem]
    fakes: list[CorpusItem]
    unrelated: list[CorpusItem]


@dataclass(slots=True)
class GroundTruth:
    """Simulator-side labels, keyed by request id. Never stored on chain."""

    labels: dict[str, Verdict] = field(default_factory=dict)
    sources: dict[str, str | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "version": "v1",
            "labels": {k: v.value for k, v in sorted(self.labels.items())},
            "sources": dict(sorted(self.sources.items())),
        }

    @classmethod
    def from_json(cls, d: Any) -> "GroundTruth":
        if not isinstance(d, dict) or set(d) != {"version", "labels", "sources"}:
            raise ConfigError("ground truth file: unexpected structure")
        if d["version"] != "v1":
            raise ConfigError(f"ground truth file: unsupported version {d['version']!r}")
        return cls(
            labels={k: Verdict(v) for k, v in d["labels"].items()},
            sources={k: v for k, v in d["sources"].items()},
        )


# --- config parsing ---------------------------------------------------------


def _req(d: dict, key: str, what: str) -> Any:
    if key not in d:
        raise ConfigError(f"{what}: missing required key {key!r}")
    return d[key]


def _no_extra(d: Any, allowed: set[str], what: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{what}: expected an object")
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{what}: unknown keys {sorted(extra)}")
    return d


def _int_in(d: dict, key: str, what: str, minimum: int, default: int | None = None) -> int:
    if key not in d and default is not None:
        return default
    v = _req(d, key, what)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{what}.{key}: expected integer")
    if v < minimum:
        raise ConfigError(f"{what}.{key}: must be >= {minimum}")
    if v >= 2**64:
        raise ConfigError(f"{what}.{key}: must be below 2^64")
    return v


def _is_u64(v: Any) -> bool:
    """An integer the canonical encodings can hold as an unsigned 64-bit."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**64


def _is_unit_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1


def _media_list(v: Any, what: str) -> tuple[MediaType, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{what}: expected non-empty list of media types")
    try:
        return tuple(MediaType(m) for m in v)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _parse_params(d: Any, oracle_account: str) -> ContractParams:
    defaults = record_to_json(ContractParams())
    defaults.pop("oracle_account")
    d = _no_extra(d, set(defaults), "params")
    merged = {**defaults, **d}
    for key, value in merged.items():
        if key in ("challenge_pass_accuracy", "feedback_min_accuracy"):
            if not _is_unit_number(value):
                raise ConfigError(f"params.{key}: expected a number in [0, 1]")
            merged[key] = float(value)
        else:
            if not _is_u64(value):
                raise ConfigError(f"params.{key}: expected an integer in [0, 2^64)")
    try:
        return ContractParams(oracle_account=oracle_account, **merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_scenario(doc: Any) -> ScenarioConfig:
    """Parse and fully validate a scenario document. Unknown keys reject."""
    doc = _no_extra(
        doc,
        {
            "seed",
            "blocks",
            "validators",
            "accounts",
            "detectors",
            "algorithms",
            "corpus",
            "providers",
            "users",
            "requests_per_block",
            "request_fee",
            "oracle",
            "params",
        },
        "scenario",
    )
    seed = _req(doc, "seed", "scenario")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("scenario.seed: expected integer")
    blocks = _int_in(doc, "blocks", "scenario", 0)

    validators = []
    seen: set[str] = set()
    for entry in _req(doc, "validators", "scenario"):
        entry = _no_extra(entry, {"id", "stake"}, "validator")
        vid = _req(entry, "id", "validator")
        stake = _int_in(entry, "stake", "validator", 0)
        if not isinstance(vid, str) or not vid:
            raise ConfigError("validator.id: expected non-empty string")
        if vid in seen:
            raise ConfigError(f"duplicate validator id {vid!r}")
        seen.add(vid)
        validators.append((vid, stake))
    if not validators or sum(s for _, s in validators) <= 0:
        raise ConfigError("validators: need at least one with positive stake")

    accounts = []
    account_ids: set[str] = set()
    for entry in _req(doc, "accounts", "scenario"):
        entry = _no_extra(entry, {"id", "balance"}, "account")
        aid = _req(entry, "id", "account")
        balance = _int_in(entry, "balance", "account", 0)
        if not isinstance(aid, str) or not aid:
            raise ConfigError("account.id: expected non-empty string")
        if aid == ESCROW_ACCOUNT:
            raise ConfigError(f"account id {ESCROW_ACCOUNT!r} is reserved")
        if aid in account_ids:
            raise ConfigError(f"duplicate account id {aid!r}")
        account_ids.add(aid)
        accounts.append((aid, balance))
    if sum(s for _, s in validators) + sum(b for _, b in accounts) >= 2**64:
        raise ConfigError("validators and accounts: total supply must be below 2^64")

    oracle_doc = _no_extra(
        doc.get("oracle", {}), {"account", "batch_limit"}, "oracle"
    )
    oracle_account = oracle_doc.get("account", "oracle")
    if not isinstance(oracle_account, str) or not oracle_account:
        raise ConfigError("oracle.account: expected non-empty string")
    batch_limit = _int_in(oracle_doc, "batch_limit", "oracle", 1, default=16)

    params = _parse_params(doc.get("params", {}), oracle_account)

    detectors = dict(BUILTIN_DETECTORS)
    detectors_doc = doc.get("detectors", {})
    if not isinstance(detectors_doc, dict):
        raise ConfigError("scenario.detectors: expected an object")
    for ident, entry in detectors_doc.items():
        entry = _no_extra(entry, {"kind", "parameters"}, f"detector {ident!r}")
        kind = _req(entry, "kind", f"detector {ident!r}")
        if not isinstance(ident, str) or not ident:
            raise ConfigError("detector identifiers must be non-empty strings")
        if ident in detectors:
            raise ConfigError(f"detector id {ident!r} already declared")
        if kind not in detector_kinds():
            raise ConfigError(f"detector {ident!r}: unknown kind {kind!r}")
        parameters = entry.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigError(f"detector {ident!r}: parameters must be an object")
        for k, v in parameters.items():
            if not isinstance(v, (str, int, float, bool)) or (
                isinstance(v, float) and not math.isfinite(v)
            ):
                raise ConfigError(f"detector {ident!r}: bad parameter {k!r}")
            if isinstance(v, int) and not isinstance(v, bool) and not _is_u64(v):
                raise ConfigError(
                    f"detector {ident!r}: parameter {k!r} must be in [0, 2^64)"
                )
        if kind == "near-duplicate":
            if "tau" in parameters and not _is_unit_number(parameters["tau"]):
                raise ConfigError(f"detector {ident!r}: tau must be a number in [0, 1]")
            if "k" in parameters and not (
                _is_u64(parameters["k"]) and parameters["k"] >= 1
            ):
                raise ConfigError(f"detector {ident!r}: k must be an integer >= 1")
        detectors[ident] = DetectorSpec(kind=kind, parameters=dict(parameters))

    plans = []
    plan_ids: set[str] = set()
    for entry in doc.get("algorithms", []):
        entry = _no_extra(
            entry,
            {"algorithm_id", "owner", "media_types", "detector", "stake",
             "challenge_correct"},
            "algorithm plan",
        )
        aid = _req(entry, "algorithm_id", "algorithm plan")
        owner = _req(entry, "owner", "algorithm plan")
        if aid in plan_ids:
            raise ConfigError(f"duplicate algorithm id {aid!r}")
        plan_ids.add(aid)
        if owner not in account_ids:
            raise ConfigError(f"algorithm {aid!r}: owner {owner!r} not an account")
        detector = _req(entry, "detector", "algorithm plan")
        if detector not in detectors:
            raise ConfigError(f"algorithm {aid!r}: unknown detector {detector!r}")
        correct = _int_in(
            entry, "challenge_correct", "algorithm plan", 0,
            default=params.challenge_count,
        )
        if correct > params.challenge_count:
            raise ConfigError(
                f"algorithm {aid!r}: challenge_correct > {params.challenge_count}"
            )
        plans.append(
            AlgorithmPlan(
                algorithm_id=aid,
                owner=owner,
                media_types=frozenset(_media_list(entry["media_types"], "algorithm plan")),
                detector=detector,
                stake=_int_in(entry, "stake", "algorithm plan", 0),
                challenge_correct=correct,
            )
        )

    corpus_doc = _no_extra(
        _req(doc, "corpus", "scenario"),
        {"trusted_count", "fake_count", "unrelated_count", "media_types",
         "perturbation", "item_size", "alphabet_size"},
        "corpus",
    )
    perturb_doc = _no_extra(
        _req(corpus_doc, "perturbation", "corpus"), {"kind", "rate"}, "perturbation"
    )
    kind = _req(perturb_doc, "kind", "perturbation")
    rate = _req(perturb_doc, "rate", "perturbation")
    if kind not in PERTURB_KINDS:
        raise ConfigError(f"perturbation.kind: must be one of {PERTURB_KINDS}")
    if not _is_unit_number(rate):
        raise ConfigError("perturbation.rate: must be a number in [0, 1]")
    media_types = _media_list(_req(corpus_doc, "media_types", "corpus"), "corpus.media_types")
    if kind == "byte-flip" and MediaType.IMAGE in media_types:
        raise ConfigError(
            "byte-flip perturbation can corrupt PGM headers; use pixel-shift for Image"
        )
    corpus = CorpusSpec(
        trusted_count=_int_in(corpus_doc, "trusted_count", "corpus", 0),
        fake_count=_int_in(corpus_doc, "fake_count", "corpus", 0),
        unrelated_count=_int_in(corpus_doc, "unrelated_count", "corpus", 0),
        media_types=media_types,
        perturbation=PerturbationSpec(kind=kind, rate=float(rate)),
        item_size=_int_in(corpus_doc, "item_size", "corpus", 1, default=4096),
        alphabet_size=_int_in(corpus_doc, "alphabet_size", "corpus", 1, default=32),
    )
    if corpus.alphabet_size > 256:
        raise ConfigError("corpus.alphabet_size: must be <= 256")
    if corpus.fake_count > 0 and corpus.trusted_count == 0:
        raise ConfigError("corpus: fakes require at least one trusted item")

    def _account_list(key: str) -> tuple[str, ...]:
        values = doc.get(key) or ([accounts[0][0]] if accounts else [])
        if not isinstance(values, list) or not values:
            raise ConfigError(f"scenario.{key}: expected non-empty list")
        for v in values:
            if v not in account_ids:
                raise ConfigError(f"scenario.{key}: {v!r} is not a declared account")
        return tuple(values)

    providers = _account_list("providers")
    users = _account_list("users")

    request_fee = _int_in(doc, "request_fee", "scenario", 0, default=params.min_fee)
    if request_fee < params.min_fee:
        raise ConfigError(f"request_fee {request_fee} below minimum fee {params.min_fee}")

    return ScenarioConfig(
        seed=seed,
        blocks=blocks,
        validators=tuple(validators),
        accounts=tuple(accounts),
        detectors=detectors,
        algorithms=tuple(plans),
        corpus=corpus,
        providers=providers,
        users=users,
        requests_per_block=_int_in(doc, "requests_per_block", "scenario", 1, default=8),
        request_fee=request_fee,
        oracle_batch_limit=batch_limit,
        params=params,
    )


# --- corpus ----------------------------------------------------------------


def _make_bytes_item(rng: SplitMix64, spec: CorpusSpec) -> bytes:
    alphabet = bytes(rng.sample_indices(256, spec.alphabet_size))
    draws = rng.randrange_many(len(alphabet), spec.item_size)
    return bytes(draws).translate(alphabet.ljust(256, b"\0"))


def _make_image_item(rng: SplitMix64) -> bytes:
    header = f"P5\n{IMAGE_SIDE} {IMAGE_SIDE}\n255\n".encode("ascii")
    cell = IMAGE_SIDE // 8
    levels = bytes(1 + v for v in rng.randrange_many(255, 64))
    bands = (
        b"".join(levels[i : i + 1] * cell for i in range(band, band + 8)) * cell
        for band in range(0, 64, 8)
    )
    return header + b"".join(bands)


def _make_audio_item(rng: SplitMix64) -> bytes:
    window = AUDIO_SAMPLES // 64
    return b"".join(
        (a.to_bytes(2, "little", signed=True) + (-a).to_bytes(2, "little", signed=True))
        * (window // 2)
        for a in (512 + v for v in rng.randrange_many(31744, 64))
    )


def _make_item(rng: SplitMix64, media_type: MediaType, spec: CorpusSpec) -> bytes:
    if media_type is MediaType.BYTES:
        return _make_bytes_item(rng, spec)
    if media_type is MediaType.IMAGE:
        return _make_image_item(rng)
    return _make_audio_item(rng)


def perturb(content: bytes, kind: str, rate: float, seed: int) -> bytes:
    """Corrupt ``floor(rate * n)`` positions of ``content``, length-preserving.

    byte-flip: chosen positions are overwritten with random byte values.
    pixel-shift: chosen positions get +1 mod 256; when the content parses
    as a PGM the positions are drawn from the raster only, so the header
    stays intact.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    if kind not in PERTURB_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    rng = SplitMix64(seed)
    data = bytearray(content)
    offset = 0
    span = len(data)
    if kind == "pixel-shift":
        try:
            width, height, pixels = parse_pgm(content)
            offset = len(content) - len(pixels)
            span = len(pixels)
        except Exception:
            pass
    count = int(rate * span)
    positions = rng.sample_indices(span, count)
    if kind == "byte-flip":
        for pos, value in zip(positions, rng.randrange_many(256, count)):
            data[offset + pos] = value
    else:
        for pos in positions:
            data[offset + pos] = (data[offset + pos] + 1) % 256
    return bytes(data)


def generate_corpus(seed: int, spec: CorpusSpec) -> Corpus:
    """Build the trusted/fake/unrelated corpus for a scenario seed.

    Media types cycle through ``spec.media_types``; fake i perturbs
    trusted item ``i mod trusted_count`` under its own derived seed.
    """
    if spec.fake_count > 0 and spec.trusted_count == 0:
        raise ConfigError("corpus: fakes require at least one trusted item")
    rng = SplitMix64(derive_seed(seed, "corpus"))
    media = spec.media_types

    trusted = [
        CorpusItem(
            item_id=f"trusted-{i:03d}",
            media_type=media[i % len(media)],
            content=_make_item(rng, media[i % len(media)], spec),
        )
        for i in range(spec.trusted_count)
    ]
    unrelated = [
        CorpusItem(
            item_id=f"unrelated-{i:03d}",
            media_type=media[i % len(media)],
            content=_make_item(rng, media[i % len(media)], spec),
        )
        for i in range(spec.unrelated_count)
    ]
    fakes = []
    for i in range(spec.fake_count):
        source = trusted[i % spec.trusted_count]
        fakes.append(
            CorpusItem(
                item_id=f"fake-{i:03d}",
                media_type=source.media_type,
                content=perturb(
                    source.content,
                    spec.perturbation.kind,
                    spec.perturbation.rate,
                    derive_seed(seed, f"perturb:{i}"),
                ),
                source_id=source.item_id,
            )
        )
    return Corpus(trusted=trusted, fakes=fakes, unrelated=unrelated)


# --- report -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AlgorithmMetrics:
    algorithm_id: str
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None


@dataclass(slots=True)
class RunReport:
    algorithms: list[AlgorithmMetrics]
    tokens: dict
    chain: dict
    notifications: list[dict]

    def to_json(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(AlgorithmMetrics))
        for m in self.algorithms:
            writer.writerow("" if v is None else v for v in astuple(m))
        return buf.getvalue()


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def compute_metrics(chain: ChainView, ground_truth: GroundTruth) -> RunReport:
    """Grade committed results against ground truth and summarize the run.

    Unverified verdicts count as Authentic predictions. Every committed
    request must carry a label; anything else is a harness bug surfaced
    as MissingLabel.
    """
    state = chain.final_state
    confusion: dict[str, dict[str, int]] = {
        aid: {"tp": 0, "fp": 0, "tn": 0, "fn": 0} for aid in state.algorithms
    }
    for request_id, result in state.results.items():
        label = ground_truth.labels.get(request_id)
        if label is None:
            raise MissingLabel(request_id)
        cell = confusion.setdefault(
            result.algorithm_id, {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        )
        predicted_fake = result.verdict is Verdict.DEEPFAKE
        actual_fake = label is Verdict.DEEPFAKE
        if predicted_fake and actual_fake:
            cell["tp"] += 1
        elif predicted_fake:
            cell["fp"] += 1
        elif actual_fake:
            cell["fn"] += 1
        else:
            cell["tn"] += 1

    algorithms = [
        AlgorithmMetrics(
            algorithm_id=aid,
            tp=c["tp"],
            fp=c["fp"],
            tn=c["tn"],
            fn=c["fn"],
            precision=_ratio(c["tp"], c["tp"] + c["fp"]),
            recall=_ratio(c["tp"], c["tp"] + c["fn"]),
        )
        for aid, c in sorted(confusion.items())
    ]

    by_kind: dict[str, dict[str, int]] = {}
    total = accepted = 0
    for record in chain.records:
        for tx, receipt in zip(record.block.transactions, record.receipts):
            total += 1
            bucket = by_kind.setdefault(
                tx.kind.value, {"accepted": 0, "rejected": 0}
            )
            if receipt.status is ReceiptStatus.ACCEPTED:
                accepted += 1
                bucket["accepted"] += 1
            else:
                bucket["rejected"] += 1

    tokens = {
        "balances": dict(sorted(state.balances.items())),
        "initial_supply": state.initial_supply,
        "minted": state.total_minted,
        "burned": state.total_burned,
        "fees_to_owners": state.fees_to_owners,
        "fees_to_proposers": state.fees_to_proposers,
        "fees_burned": state.fees_burned,
        "stake_burned": state.stake_burned,
        "rewards_minted": state.rewards_minted,
    }
    chain_summary = {
        "blocks": len(chain.records),
        "tip_hash": chain.tip.block_hash.hex,
        "tip_state_root": chain.tip.state_root.hex,
        "transactions": {
            "total": total,
            "accepted": accepted,
            "rejected": total - accepted,
            "by_kind": {k: v for k, v in sorted(by_kind.items())},
        },
    }
    return RunReport(
        algorithms=algorithms,
        tokens=tokens,
        chain=chain_summary,
        notifications=notifications(chain.records),
    )


# --- genesis and schedule ---------------------------------------------------


def build_genesis_state(config: ScenarioConfig) -> NetworkState:
    balances = {aid: bal for aid, bal in config.accounts}
    validators = dict(config.validators)
    return NetworkState(
        params=config.params,
        validators=validators,
        balances=balances,
        detectors=dict(config.detectors),
        initial_supply=sum(balances.values()) + sum(validators.values()),
    )


@dataclass(slots=True)
class RunResult:
    """Everything a run produces; ``report`` is the public summary."""

    config: ScenarioConfig
    report: RunReport
    chain: ChainView
    ground_truth: GroundTruth
    oracle_log: list[str]


class ScenarioRunner:
    """Drives one scenario from genesis to the final report."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._nonces: dict[str, int] = {}

    def _next_nonce(self, sender: str) -> int:
        nonce = self._nonces.get(sender, -1) + 1
        self._nonces[sender] = nonce
        return nonce

    def _tx(self, kind: TxKind, sender: str, payload) -> Transaction:
        return Transaction(
            kind=kind, sender=sender, payload=payload, nonce=self._next_nonce(sender)
        )

    def _challenge_labels(self) -> dict[str, Verdict]:
        rng = SplitMix64(derive_seed(self.config.seed, "challenges"))
        return {
            cid: (Verdict.DEEPFAKE if rng.next_u64() & 1 else Verdict.AUTHENTIC)
            for cid in self.config.params.challenge_ids()
        }

    def run(self, out_dir: str | Path | None = None) -> RunResult:
        config = self.config
        corpus = generate_corpus(config.seed, config.corpus)
        challenge_truth = self._challenge_labels()
        ground_truth = GroundTruth()

        writer: ChainWriter | None = None
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            chain_path = out_dir / "run.chain.jsonl"
            if chain_path.exists():
                chain_path.unlink()  # reruns replace prior artifacts
            writer = ChainWriter(chain_path)

        genesis_state = build_genesis_state(config)
        genesis, state = init_chain(genesis_state, timestamp=0)
        records = [ChainRecord(height=0, block=genesis, receipts=())]
        if writer is not None:
            writer.append(genesis, (), genesis_state=genesis_state)

        # Request queue: fakes first, then unrelated items, submitted a fixed
        # number per block starting at height 3.
        request_queue: list[tuple[CorpusItem, Verdict]] = [
            (item, Verdict.DEEPFAKE) for item in corpus.fakes
        ] + [(item, Verdict.AUTHENTIC) for item in corpus.unrelated]
        queue_pos = 0
        # The embedding of each submitted request, until it is answered: the
        # state keeps only its hash, and the oracle reads it from here.
        embeddings: dict[str, Embedding] = {}
        pending_feedback: list[Transaction] = []
        oracle_log: list[str] = []

        for height in range(1, config.blocks + 1):
            txs: list[Transaction] = []

            if height == 1:
                for plan in config.algorithms:
                    txs.append(
                        self._tx(
                            TxKind.REGISTER_ALGORITHM,
                            plan.owner,
                            RegisterAlgorithm(
                                algorithm_id=plan.algorithm_id,
                                media_types=plan.media_types,
                                detector_kind=plan.detector,
                                stake=plan.stake,
                            ),
                        )
                    )
                for index, item in enumerate(corpus.trusted):
                    provider = config.providers[index % len(config.providers)]
                    txs.append(
                        self._tx(
                            TxKind.REGISTER_CONTENT,
                            provider,
                            RegisterContent(
                                content_id=item.item_id,
                                media_type=item.media_type,
                                content_hash=hash_bytes(item.content),
                                embedding=embed(item.content, item.media_type),
                            ),
                        )
                    )

            if height == 2:
                for plan in config.algorithms:
                    for index, cid in enumerate(config.params.challenge_ids()):
                        true_label = challenge_truth[cid]
                        if index < plan.challenge_correct:
                            predicted = true_label
                        elif true_label is Verdict.DEEPFAKE:
                            predicted = Verdict.AUTHENTIC
                        else:
                            predicted = Verdict.DEEPFAKE
                        txs.append(
                            self._tx(
                                TxKind.SUBMIT_CHALLENGE_RESULT,
                                plan.owner,
                                SubmitChallengeResult(
                                    algorithm_id=plan.algorithm_id,
                                    challenge_id=cid,
                                    predicted_label=predicted,
                                    true_label=true_label,
                                ),
                            )
                        )

            if height >= 3:
                for _ in range(config.requests_per_block):
                    if queue_pos >= len(request_queue):
                        break
                    item, label = request_queue[queue_pos]
                    queue_pos += 1
                    user = config.users[queue_pos % len(config.users)]
                    tx = self._tx(
                        TxKind.SUBMIT_ANALYSIS_REQUEST,
                        user,
                        SubmitAnalysisRequest(
                            media_type=item.media_type,
                            content_hash=hash_bytes(item.content),
                            embedding=embed(item.content, item.media_type),
                            fee=config.request_fee,
                        ),
                    )
                    request_id = request_id_for(tx)
                    embeddings[request_id] = tx.payload.embedding
                    ground_truth.labels[request_id] = label
                    ground_truth.sources[request_id] = item.source_id
                    txs.append(tx)

            txs.extend(pending_feedback)
            pending_feedback = []

            batch: OracleBatch = process_pending(
                state, config.oracle_batch_limit, embeddings
            )
            txs.extend(batch.transactions)
            oracle_log.extend(batch.log_lines)

            block, state, receipts = seal_block(state, txs, timestamp=height)
            records.append(
                ChainRecord(height=height, block=block, receipts=tuple(receipts))
            )
            if writer is not None:
                writer.append(block, receipts)

            # Users send ground-truth feedback the block after completion.
            for tx, receipt in zip(block.transactions, receipts):
                if (
                    tx.kind is TxKind.COMMIT_ANALYSIS_RESULT
                    and receipt.status is ReceiptStatus.ACCEPTED
                ):
                    request_id = tx.payload.request_id
                    del embeddings[request_id]
                    submitter = state.requests[request_id].submitter
                    pending_feedback.append(
                        self._tx(
                            TxKind.SUBMIT_FEEDBACK,
                            submitter,
                            SubmitFeedback(
                                request_id=request_id,
                                true_label=ground_truth.labels[request_id],
                            ),
                        )
                    )

        if writer is not None:
            writer.close()

        view = ChainView(
            genesis_state=genesis_state, records=records, final_state=state
        )
        report = compute_metrics(view, ground_truth)
        result = RunResult(
            config=config,
            report=report,
            chain=view,
            ground_truth=ground_truth,
            oracle_log=oracle_log,
        )
        if out_dir is not None:
            write_artifacts(result, out_dir)
        return result


def write_artifacts(result: RunResult, out_dir: str | Path) -> None:
    """Report JSON/CSV, oracle log, and the ground-truth sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        canonical_json(result.report.to_json()) + "\n", encoding="utf-8"
    )
    (out_dir / "metrics.csv").write_text(result.report.to_csv(), encoding="utf-8")
    (out_dir / "oracle.log").write_text(
        "".join(line + "\n" for line in result.oracle_log), encoding="utf-8"
    )
    (out_dir / "ground_truth.json").write_text(
        canonical_json(result.ground_truth.to_json()) + "\n", encoding="utf-8"
    )


def run_scenario(
    config: ScenarioConfig, out_dir: str | Path | None = None
) -> RunReport:
    """Execute a scenario; optionally write chain and report artifacts."""
    return ScenarioRunner(config).run(out_dir=out_dir).report
