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
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
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
from .errors import ConfigError, MalformedImage, MissingLabel
from .ledger import init_chain, seal_block
from .oracle import OracleBatch, process_pending
from .rng import SplitMix64, derive_seed
from .store import (
    ChainRecord,
    ChainView,
    ChainWriter,
    canonical_json,
    notifications,
)

IMAGE_SIDE = 32
AUDIO_SAMPLES = 2048
PERTURB_KINDS = ("byte-flip", "pixel-shift")
# The most corpus a scenario may ask for, in bytes, each item counted as at
# least 4096 (an Audio item's size): a larger corpus is refused as a config
# error instead of running set-up until memory runs out.
CORPUS_BUDGET = 2**26
# The most blocks a scenario may run: a longer run is refused as a config
# error instead of running without end.
MAX_BLOCKS = 2**16
# The most challenges a scenario may set: the runner answers every one at
# height 2, so a larger set is refused as a config error instead.
MAX_CHALLENGES = 2**12
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
        labels, sources = d["labels"], d["sources"]
        verdicts = {v.value for v in Verdict}
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) and v in verdicts
            for k, v in labels.items()
        ):
            raise ConfigError("ground truth file: labels must map ids to verdicts")
        if not isinstance(sources, dict) or not all(
            isinstance(k, str) and (v is None or isinstance(v, str))
            for k, v in sources.items()
        ):
            raise ConfigError("ground truth file: sources must map ids to ids or null")
        return cls(
            labels={k: Verdict(v) for k, v in labels.items()},
            sources=dict(sources),
        )


# --- config parsing ---------------------------------------------------------
#
# A scenario document mirrors the config dataclasses: an object's keys are
# its dataclass's field names, and ``_parse`` walks them by annotation. It
# refuses an unknown key, a missing key whose field has no default, and a
# value its annotation's parser refuses. Three shapes differ and are written
# out: the ``validators`` and ``accounts`` lists of ``{id, <amount>}``; the
# ``oracle`` object, which fills ``params.oracle_account`` and
# ``oracle_batch_limit``; and the ``detectors`` map. Rules that span fields
# are checked once the walk is done.


def _object(d: Any, what: str, allowed: Iterable[str], required: Iterable[str] = ()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{what}: expected an object")
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"{what}: unknown keys {sorted(extra)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{what}: missing required key {key!r}")
    return d


def _all_strings_encode(doc: Any) -> None:
    """Refuse a document holding a string that UTF-8 cannot encode (a lone
    surrogate, which JSON can escape): every hash and state root encodes
    its strings as UTF-8. Keys and values at any depth, walked without
    recursion."""
    stack = [doc]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack.extend(v)
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, str) and not v.isascii():
            try:
                v.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigError(f"scenario: string {v!r}: {exc.reason}") from None


def _is_u64(v: Any) -> bool:
    """An integer the canonical encodings can hold as an unsigned 64-bit."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**64


def _u64(v: Any, what: str) -> int:
    if not _is_u64(v):
        raise ConfigError(f"{what}: expected an integer in [0, 2^64)")
    return v


def _unit(v: Any, what: str) -> float:
    if not (isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1):
        raise ConfigError(f"{what}: expected a number in [0, 1]")
    return float(v)


def _name(v: Any, what: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{what}: expected non-empty string")
    return v


def _list(v: Any, what: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{what}: expected non-empty list")
    return v


def _media_types(v: Any, what: str) -> tuple[MediaType, ...]:
    try:
        return tuple(MediaType(m) for m in _list(v, what))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _parse(cls: type, doc: Any, what: str, given: dict | None = None, **defaults: Any) -> Any:
    """A ``cls`` from ``doc``, an object keyed by ``cls``'s field names. A
    field in ``given`` takes its value from there and is not a key; a key may
    be left out where its field has a default, its own or one in
    ``defaults``."""
    given = given or {}
    walked = [f for f in fields(cls) if f.init and f.name not in given]
    values = {f.name: f.default for f in walked if f.default is not MISSING}
    values.update(defaults, **given)
    names = [f.name for f in walked]
    doc = _object(doc, what, names, [name for name in names if name not in values])
    for f in walked:
        if f.name in doc:
            values[f.name] = _CONFIG_VALUES[f.type](doc[f.name], f"{what}.{f.name}")
    try:
        return cls(**values)
    except ValueError as exc:  # e.g. ContractParams rejects the combination
        raise ConfigError(f"{what}: {exc}") from None


# annotation -> parser of a document value; each refuses what it cannot hold.
_CONFIG_VALUES: dict[str, Callable[[Any, str], Any]] = {
    "int": _u64,
    "float": _unit,
    "str": _name,
    "tuple[str, ...]": lambda v, what: tuple(_name(x, what) for x in _list(v, what)),
    "tuple[MediaType, ...]": _media_types,
    "frozenset[MediaType]": lambda v, what: frozenset(_media_types(v, what)),
    "CorpusSpec": lambda v, what: _parse(CorpusSpec, v, what),
    "PerturbationSpec": lambda v, what: _parse(PerturbationSpec, v, what),
}


def _id_amounts(doc: dict, key: str, amount: str) -> tuple[tuple[str, int], ...]:
    """Take ``doc[key]`` out of ``doc``: a non-empty list of ``{id,
    <amount>}`` with distinct ids."""
    if key not in doc:
        raise ConfigError(f"scenario: missing required key {key!r}")
    what = key[:-1]
    amounts: dict[str, int] = {}
    for entry in _list(doc.pop(key), f"scenario.{key}"):
        entry = _object(entry, what, ("id", amount), ("id", amount))
        ident = _name(entry["id"], f"{what}.id")
        if ident in amounts:
            raise ConfigError(f"duplicate {what} id {ident!r}")
        amounts[ident] = _u64(entry[amount], f"{what}.{amount}")
    return tuple(amounts.items())


def _detectors(doc: Any) -> dict[str, DetectorSpec]:
    """The built-in detectors and those the ``detectors`` map declares. The
    plugins read parameters as given, so the kinds' parameters are checked
    here. No parameter is a float, which no chain holds, and a
    near-duplicate takes ``tau_pct`` and ``k`` only, so a document written
    for the float ``tau`` is refused rather than read in percent."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario.detectors: expected an object")
    detectors = dict(BUILTIN_DETECTORS)
    for ident, entry in doc.items():
        what = f"detector {ident!r}"
        entry = _object(entry, what, ("kind", "parameters"), ("kind",))
        kind, parameters = entry["kind"], entry.get("parameters", {})
        if not isinstance(ident, str) or not ident:
            raise ConfigError("detector identifiers must be non-empty strings")
        if ident in detectors:
            raise ConfigError(f"detector id {ident!r} already declared")
        if kind not in detector_kinds():
            raise ConfigError(f"{what}: unknown kind {kind!r}")
        if not isinstance(parameters, dict):
            raise ConfigError(f"{what}: parameters must be an object")
        for k, v in parameters.items():
            if not isinstance(v, (str, int, bool)):
                raise ConfigError(f"{what}: bad parameter {k!r}")
            if isinstance(v, int) and not isinstance(v, bool) and not _is_u64(v):
                raise ConfigError(f"{what}: parameter {k!r} must be in [0, 2^64)")
        if kind == "near-duplicate":
            unknown = sorted(set(parameters) - {"tau_pct", "k"})
            if unknown:
                raise ConfigError(f"{what}: unknown parameter {unknown[0]!r}")
            if "tau_pct" in parameters and not (
                _is_u64(parameters["tau_pct"]) and parameters["tau_pct"] <= 100
            ):
                raise ConfigError(f"{what}: tau_pct must be an integer in [0, 100]")
            if "k" in parameters and not (
                _is_u64(parameters["k"]) and parameters["k"] >= 1
            ):
                raise ConfigError(f"{what}: k must be an integer >= 1")
        detectors[ident] = DetectorSpec(kind=kind, parameters=dict(parameters))
    return detectors


def parse_scenario(doc: Any) -> ScenarioConfig:
    """Parse and fully validate a scenario document. Unknown keys reject."""
    _all_strings_encode(doc)
    if not isinstance(doc, dict):
        raise ConfigError("scenario: expected an object")
    rest = dict(doc)  # less each written-out shape as it is parsed
    validators = _id_amounts(rest, "validators", "stake")
    accounts = _id_amounts(rest, "accounts", "balance")
    account_ids = {aid for aid, _ in accounts}
    if sum(s for _, s in validators) <= 0:
        raise ConfigError("validators: need at least one with positive stake")
    if ESCROW_ACCOUNT in account_ids:
        raise ConfigError(f"account id {ESCROW_ACCOUNT!r} is reserved")
    if sum(s for _, s in validators) + sum(b for _, b in accounts) >= 2**64:
        raise ConfigError("validators and accounts: total supply must be below 2^64")

    oracle = _object(rest.pop("oracle", {}), "oracle", ("account", "batch_limit"))
    oracle_account = _name(oracle.get("account", "oracle"), "oracle.account")
    batch_limit = _u64(oracle.get("batch_limit", 16), "oracle.batch_limit")
    if batch_limit < 1:
        raise ConfigError("oracle.batch_limit: must be >= 1")
    params = _parse(
        ContractParams, rest.pop("params", {}), "params", {"oracle_account": oracle_account}
    )
    if params.challenge_count > MAX_CHALLENGES:
        raise ConfigError("params.challenge_count: must be <= 2^12")
    detectors = _detectors(rest.pop("detectors", {}))

    entries = rest.pop("algorithms", [])
    if not isinstance(entries, list):
        raise ConfigError("scenario.algorithms: expected a list")
    plans: dict[str, AlgorithmPlan] = {}
    for entry in entries:
        plan = _parse(
            AlgorithmPlan, entry, "algorithm plan",
            challenge_correct=params.challenge_count,
        )
        aid = plan.algorithm_id
        if aid in plans:
            raise ConfigError(f"duplicate algorithm id {aid!r}")
        if plan.owner not in account_ids:
            raise ConfigError(f"algorithm {aid!r}: owner {plan.owner!r} not an account")
        if plan.detector not in detectors:
            raise ConfigError(f"algorithm {aid!r}: unknown detector {plan.detector!r}")
        if plan.challenge_correct > params.challenge_count:
            raise ConfigError(
                f"algorithm {aid!r}: challenge_correct > {params.challenge_count}"
            )
        plans[aid] = plan

    given = dict(
        validators=validators, accounts=accounts, detectors=detectors,
        algorithms=tuple(plans.values()), oracle_batch_limit=batch_limit, params=params,
    )
    first = (accounts[0][0],)
    config = _parse(
        ScenarioConfig, rest, "scenario", given,
        providers=first, users=first, requests_per_block=8, request_fee=params.min_fee,
    )

    corpus = config.corpus
    if corpus.perturbation.kind not in PERTURB_KINDS:
        raise ConfigError(f"scenario.corpus.perturbation.kind: must be one of {PERTURB_KINDS}")
    if corpus.perturbation.kind == "byte-flip" and MediaType.IMAGE in corpus.media_types:
        raise ConfigError(
            "byte-flip perturbation can corrupt PGM headers; use pixel-shift for Image"
        )
    if corpus.item_size < 1:
        raise ConfigError("scenario.corpus.item_size: must be >= 1")
    items = corpus.trusted_count + corpus.fake_count + corpus.unrelated_count
    item_bytes = max(corpus.item_size, 4096)
    if items * item_bytes > CORPUS_BUDGET:
        raise ConfigError(
            f"scenario.corpus: {items} items of {item_bytes} bytes"
            " exceed the corpus budget of 2^26 bytes"
        )
    if not 1 <= corpus.alphabet_size <= 256:
        raise ConfigError("scenario.corpus.alphabet_size: must be in [1, 256]")
    if corpus.fake_count > 0 and corpus.trusted_count == 0:
        raise ConfigError("scenario.corpus: fakes require at least one trusted item")
    for key in ("providers", "users"):
        for v in getattr(config, key):
            if v not in account_ids:
                raise ConfigError(f"scenario.{key}: {v!r} is not a declared account")
    if config.blocks > MAX_BLOCKS:
        raise ConfigError("scenario.blocks: must be <= 2^16")
    if config.requests_per_block < 1:
        raise ConfigError("scenario.requests_per_block: must be >= 1")
    if config.request_fee < params.min_fee:
        raise ConfigError(
            f"request_fee {config.request_fee} below minimum fee {params.min_fee}"
        )
    return config


# --- corpus ----------------------------------------------------------------


def _make_bytes_item(rng: SplitMix64, spec: CorpusSpec) -> bytes:
    alphabet = bytes(rng.sample_indices(256, spec.alphabet_size))
    draws = rng.randrange_bytes(len(alphabet), spec.item_size)
    return draws.translate(alphabet.ljust(256, b"\0"))


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
        except MalformedImage:
            pass
    count = int(rate * span)
    positions = rng.sample_indices(span, count)
    if kind == "byte-flip":
        for pos, value in zip(positions, rng.randrange_bytes(256, count)):
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


def _quotient(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def compute_metrics(
    replayed: Iterable[tuple[ChainRecord, NetworkState]], ground_truth: GroundTruth
) -> RunReport:
    """Grade committed results against ground truth and summarize the run.

    ``replayed`` pairs each record of a chain, in height order, with the
    state after it, as ``store.replay`` yields them. It is read in one pass
    that keeps counts, notifications and the last pair, whose state is the
    only one read. Unverified verdicts count as Authentic predictions.
    Every committed request must carry a label; anything else is a harness
    bug surfaced as MissingLabel.
    """
    by_kind: dict[str, dict[str, int]] = {}
    total = accepted = blocks = 0
    events: list[dict] = []
    for record, state in replayed:
        blocks += 1
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
        events += notifications((record,))
    tip = record.block

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
            precision=_quotient(c["tp"], c["tp"] + c["fp"]),
            recall=_quotient(c["tp"], c["tp"] + c["fn"]),
        )
        for aid, c in sorted(confusion.items())
    ]

    tokens = {
        "balances": dict(sorted(state.balances.items())),
        "initial_supply": state.initial_supply,
        "minted": state.rewards_minted,
        "burned": state.fees_burned + state.stake_burned,
        "fees_to_owners": state.fees_to_owners,
        "fees_to_proposers": state.fees_to_proposers,
        "fees_burned": state.fees_burned,
        "stake_burned": state.stake_burned,
        "rewards_minted": state.rewards_minted,
    }
    chain_summary = {
        "blocks": blocks,
        "tip_hash": tip.block_hash.hex,
        "tip_state_root": tip.state_root.hex,
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
        notifications=events,
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

        # The chain file closes however the run ends, a failed append included.
        chain_file = nullcontext()
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            chain_file = ChainWriter(out_dir / "run.chain.jsonl")
        with chain_file as writer:
            genesis_state = build_genesis_state(config)
            genesis, state = init_chain(genesis_state, timestamp=0)
            records = [ChainRecord(block=genesis, receipts=())]
            if writer is not None:
                writer.append(genesis, genesis_state=genesis_state)

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
                records.append(ChainRecord(block=block, receipts=tuple(receipts)))
                if writer is not None:
                    writer.append(block)

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

        view = ChainView(records=records, final_state=state)
        # Each record with the final state: only the last pair's is read.
        report = compute_metrics(((r, state) for r in records), ground_truth)
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
