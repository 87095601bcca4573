import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from veriledger.core import MediaType, ReceiptStatus, TxKind, Verdict
from veriledger.detection import embed, parse_pgm, similarity
from veriledger.errors import ConfigError, MissingLabel
from veriledger.rng import SplitMix64
from veriledger.sim import (
    CorpusSpec,
    GroundTruth,
    PerturbationSpec,
    ScenarioRunner,
    compute_metrics,
    generate_corpus,
    parse_scenario,
    perturb,
)
from veriledger.store import canonical_json

from conftest import GOLDEN_CONFIG_PATH, GOLDEN_FIXTURE_DIR, random_bytes


def golden_doc():
    return json.loads(GOLDEN_CONFIG_PATH.read_text())


def bytes_corpus_spec(**overrides) -> CorpusSpec:
    defaults = dict(
        trusted_count=4,
        fake_count=4,
        unrelated_count=4,
        media_types=(MediaType.BYTES,),
        perturbation=PerturbationSpec(kind="byte-flip", rate=0.01),
    )
    defaults.update(overrides)
    return CorpusSpec(**defaults)


# --- corpus -------------------------------------------------------------------


def test_same_seed_same_corpus():
    spec = bytes_corpus_spec()
    a = generate_corpus(7, spec)
    b = generate_corpus(7, spec)
    assert [i.content for i in a.trusted] == [i.content for i in b.trusted]
    assert [i.content for i in a.fakes] == [i.content for i in b.fakes]
    assert [i.content for i in a.unrelated] == [i.content for i in b.unrelated]
    c = generate_corpus(8, spec)
    assert [i.content for i in a.trusted] != [i.content for i in c.trusted]


def test_fakes_without_trusted_rejected():
    with pytest.raises(ConfigError):
        generate_corpus(1, bytes_corpus_spec(trusted_count=0, fake_count=1))


def test_fakes_reference_their_sources():
    corpus = generate_corpus(3, bytes_corpus_spec(trusted_count=2, fake_count=5))
    sources = [f.source_id for f in corpus.fakes]
    assert sources == ["trusted-000", "trusted-001"] * 2 + ["trusted-000"]


def test_rate_zero_fakes_are_byte_identical():
    corpus = generate_corpus(
        5, bytes_corpus_spec(perturbation=PerturbationSpec("byte-flip", 0.0))
    )
    by_id = {t.item_id: t.content for t in corpus.trusted}
    for fake in corpus.fakes:
        assert fake.content == by_id[fake.source_id]


def test_image_and_audio_items_embed_cleanly():
    spec = bytes_corpus_spec(
        media_types=(MediaType.IMAGE, MediaType.AUDIO),
        perturbation=PerturbationSpec("pixel-shift", 0.05),
    )
    corpus = generate_corpus(11, spec)
    for item in corpus.trusted + corpus.fakes + corpus.unrelated:
        values = embed(item.content, item.media_type).values
        assert any(v > 0 for v in values)


# --- perturb -------------------------------------------------------------------


def test_perturb_rate_zero_identity():
    blob = random_bytes(SplitMix64(1), 512)
    assert perturb(blob, "byte-flip", 0.0, seed=9) == blob
    assert perturb(blob, "pixel-shift", 0.0, seed=9) == blob


def test_perturb_full_flip_drops_similarity():
    # Monte-Carlo bound over corpus-style blobs (restricted byte alphabets,
    # as produced for trusted items): a full byte-flip pushes similarity to
    # the source below 0.9 in at least 95 of 100 seeded trials.
    corpus = generate_corpus(123, bytes_corpus_spec(trusted_count=100, fake_count=0))
    rng = SplitMix64(456)
    low = 0
    for item in corpus.trusted:
        mutated = perturb(item.content, "byte-flip", 1.0, seed=rng.next_u64())
        sim = similarity(
            embed(item.content, MediaType.BYTES), embed(mutated, MediaType.BYTES)
        )
        if sim < 0.9:
            low += 1
    assert low >= 95


@given(
    size=st.integers(1, 2048),
    rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    kind=st.sampled_from(["byte-flip", "pixel-shift"]),
    seed=st.integers(0, 2**32),
)
def test_perturb_preserves_length(size, rate, kind, seed):
    blob = random_bytes(SplitMix64(seed), size)
    assert len(perturb(blob, kind, rate, seed=seed)) == size


def test_perturb_deterministic_per_seed():
    blob = random_bytes(SplitMix64(2), 1024)
    assert perturb(blob, "byte-flip", 0.5, seed=4) == perturb(blob, "byte-flip", 0.5, seed=4)
    assert perturb(blob, "byte-flip", 0.5, seed=4) != perturb(blob, "byte-flip", 0.5, seed=5)


def test_pixel_shift_keeps_pgm_parseable():
    corpus = generate_corpus(
        13,
        bytes_corpus_spec(
            media_types=(MediaType.IMAGE,),
            perturbation=PerturbationSpec("pixel-shift", 0.5),
        ),
    )
    original = corpus.trusted[0].content
    shifted = corpus.fakes[0].content
    assert parse_pgm(shifted)[:2] == parse_pgm(original)[:2]
    assert shifted != original


# SHA-256 of every item's content (trusted, unrelated, then fakes) from
# generate_corpus, recorded with the per-draw corpus code that the bulk draws
# replaced. The golden run pins only Bytes items over 32 symbols.
MIXED = (MediaType.BYTES, MediaType.IMAGE, MediaType.AUDIO)
FLIP = PerturbationSpec("byte-flip", 0.05)
# name: (seed, media types, perturbation, alphabet size)
CORPUS_CASES = {
    "bytes-alphabet-1": (1, (MediaType.BYTES,), FLIP, 1),
    "bytes-alphabet-32": (2, (MediaType.BYTES,), FLIP, 32),
    "bytes-alphabet-200": (3, (MediaType.BYTES,), FLIP, 200),
    "bytes-alphabet-256": (4, (MediaType.BYTES,), FLIP, 256),
    "image-pixel-shift": (5, (MediaType.IMAGE,), PerturbationSpec("pixel-shift", 0.05), 32),
    "audio-byte-flip": (6, (MediaType.AUDIO,), FLIP, 32),
    "mixed-byte-flip-0.01": (7, MIXED, PerturbationSpec("byte-flip", 0.01), 32),
    "mixed-byte-flip-1.0": (8, MIXED, PerturbationSpec("byte-flip", 1.0), 32),
}
CORPUS_DIGESTS = {
    "bytes-alphabet-1": (
        "6c1d7917b9d03ec191355471c9a5fd662310519842bcd83d2e13cf5244a9b20d",
        "433d2bbc4cc45d59ca2c51472dd81112b0244050a189d337ef65f1322b110237",
        "fc59cd0fabe99365f01451373e3c0f31af020aace9543284ef6314f8e0538874",
        "57c5c070f5c9c855373e9dd80ca7c703a1a7a47affc21aed3d97ff8a82b4a111",
        "ba8926e610ac4a455214bbc97611168a1afabe2a1a853325e4571b73e4527d5e",
        "4cb8d3d9de5d1de4ba8217d54201810d24c689f534b86335912d6afcec403c25",
        "ca9ac0d18ff8f89fea398f61530429cd312e069cc5cb16a57e333c8553439f18",
        "0c73b971f7bc5bdbdd4ae3a5e8d6eac94e1ad681931381502c53fc2d86e931b3",
    ),
    "bytes-alphabet-32": (
        "1c8b7776cfa11a74a8df35832e33241000340ff16f4c73e618e16ec5c207e91f",
        "06315ee180397f0ec708b28e565ec124461a237bc0e22faf4d41ac9d79151502",
        "890bf6f758df00418742645fdc34f33035782655586c11e0c378cfc7a5edbe56",
        "c6497ec604a5f6be14854258f603ce5d724ab10d0f530e6e21399710482df5f2",
        "66e0a76e6a4a61cb832a5e6790a57d07568035568b3fa7e5cb33542143f220d5",
        "ce9a275845cc1c0f82ec3b718016b6bd57f935e726d71787319f2b7dd78e188e",
        "22331dcef3a6028c2fa5c6f1e46045b79d6420711bdb1e28e47e22782da856a0",
        "f30dc5afab37b0ed06241807813fd5647cb6e8c1cfdfb28043d9fdbf7f5135b5",
    ),
    "bytes-alphabet-200": (
        "b40649533e68439a6f6994f1e1ccf87705e14864e9595c6e336e979b1dbc72e5",
        "05e70466648aefc1ffd64f7252a4911e20fbed40b29356372e9ffc04f686ecc5",
        "5ec556a65e169b6f637b9576e6b06999905dbe5db2d4f2cbd86efe6f1c3da7a5",
        "ba8c3089914e3cfe981aa81d680ea684e300d2fed97960ed7695df2adfb923a2",
        "ff7e91b175a0323745815cba1c647e26fb8a8c22ffec87a251c0dfa0f26d3f3d",
        "2cdd08b931a0d5e4e0e6cfb1446316e1579e5b05f959f99b993e8cc4d4413846",
        "07076c899f0e1bbbe212fde9089c5f60ec49816abfe75e9541ba90d6331c21e4",
        "14cf2f1ab690c2e0eb21884fe0e28bc0ae6a65834e63b3fff34983627e7acba3",
    ),
    "bytes-alphabet-256": (
        "14fc9cf880ac44f90f1ccb8fb22bf8e607c02d3ea2e9e0f017892e915b2b49d1",
        "29e6adf6d9a4b02bf4982d3c495ec1d0d7f3b07144cc8f46177b3abd6fa12ce8",
        "6b009202e0d47e0b0a38988a0c9ff64bdbd8a6ab061e34efbca111f020e5d281",
        "e46b70466e3f296ff8481aaf5ea1763f1f2aa1748cee3ee41a8e07831b501fcc",
        "8fb3f9924ffe4d04dbe2472c79e05c9ad83bd09469875bf68657b59a855ac740",
        "49010d54c62adbb70dbf15a10917b944f9dee1562c05fa648c74561834534400",
        "03a60e09ba0c20f086ab7d7a72716476558c6c8afd4423f1d79605155d57d779",
        "d71c32161508707a7ffba8039f1a18e62954b2014a873e9bd9b4144002dc56c2",
    ),
    "image-pixel-shift": (
        "5208cb1e322b13ba933644c7a9af5e5d6397b666dd16ac477f3866e68d101823",
        "c608fbf38ae6aaf9356ab5fc3eed6d49aa0b1f420aa7d6fc3a9499b46fbcf15a",
        "c7a200e35e14a358da5789c51314e7027cde5e97d658ba197439c4b237faa669",
        "32bbbb1110a250fc3597f6843711e8a7d7751f654657ea02690bc5ceb5b6b0f3",
        "a3181325519224cc0e474e6805e01bbeb04ae6ddf0e270eea60d14671e811957",
        "bb525e9cf7624139ac0dc5359c99fcb12bc2de8d02cfc2ebddc307c0dd458387",
        "bdc6c470b97c62d2cd22a8dcfc46d58f47dd42b8f72bff03669a20968029bc44",
        "665762da020d154ac8c0fb77acd10a0458cb293801667b37808984cb07a14c68",
    ),
    "audio-byte-flip": (
        "9f1e13dbff5515f43533e8ea2999369eb97f681d35fb051a132c983ad8177bb8",
        "0a151f96f924af2bc94c538b4ff70543656f8e5e1634bb2ab8815f2c7071ebf1",
        "431cb5130ea2c30feccb412f8f5315ad229ee2a6ca78cae14a9bc2620f7fea77",
        "f9139e8478f7b857f0fd933aa8b5bdebbefc3250e4405d8590a164fa0e3cceb9",
        "9eb834a9206dfc027b8f6be9c62ebd6acd6c049289362300cf7645ecef8d8fe9",
        "011b1ba5a92924ce22d18b9550414a9008ea14b8eee881fb6a30c417f8a3b4af",
        "603053d20b2c7a9ce91a755311d36f1db3ea3156ed02793de7764a2f31a214b5",
        "41f5e3225f2a890bbd1cab2238d255e74ae8eda4cee287d7677adddc356137e3",
    ),
    "mixed-byte-flip-0.01": (
        "85efb6759fa4c68d8eb7ccff149fba809783ae5bcd7c7a28cae6723d85b6bc3e",
        "a95803b3115ca7fcd72fa852fe928e40c23d5ff29eaf3c8529c3a7d1c49f7b56",
        "ea8f9c960603f3a32aff66d98ebc3e2aa56a701d1c176bc83ccef0744aeca759",
        "8988df149d2b27800d4d57fb3c060ee98cf83622163320de5497c7adf7d53349",
        "1cbc8d79aa000b7b94ce34dceb324efa03772e966de47a83db1447d410ef7688",
        "c7342255599e8d16510a4454ff508f32b308ae8c0392eb4681ea56e5a83609af",
        "d3df28559630088c25254b3e5cfae41998fde3663ff83bb6e722e7a8a70f5106",
        "65480267759e4b07d94c47ee7b8def09a572f2cc89be692f2a4cd8f1a321c8fe",
    ),
    "mixed-byte-flip-1.0": (
        "94634bbe0417b56eecb7bd44c1e4455539234fb1a59750126e3925b18dde8855",
        "83a789b1f78bd66e36fdf3582f1aa2ab9d5cd61b8f7066d4dbab484bfd9df53d",
        "99868088353c9777ba39aed636a4f69983b67bd8ddcb2029025f166488bdb6b0",
        "ed48be1380b0e281912ff5714c37b583200e294127d39766e246821e48e92a69",
        "88f07e87046354adf73c4251daddd9d588474b0a0b28b3a116e629850695635b",
        "9fdfea21e100e279e76d74fe720df71cd3e32d245a98f5d293440e446a7d9a07",
        "d6b9e3db64ea57f57a7f10ed95b1226f163a74656eb61daf965719e4c68ecf29",
        "95bcd06fbb15cc9a59514cd47bfd69294a0b6c0ca7d2cce9c8b9e1ca31dd11f4",
    ),
}


@pytest.mark.parametrize("case", sorted(CORPUS_CASES))
def test_corpus_known_answer(case):
    seed, media_types, perturbation, alphabet_size = CORPUS_CASES[case]
    spec = CorpusSpec(
        trusted_count=3,
        fake_count=3,
        unrelated_count=2,
        media_types=media_types,
        perturbation=perturbation,
        item_size=1000,
        alphabet_size=alphabet_size,
    )
    corpus = generate_corpus(seed, spec)
    items = corpus.trusted + corpus.unrelated + corpus.fakes
    digests = tuple(hashlib.sha256(item.content).hexdigest() for item in items)
    assert digests == CORPUS_DIGESTS[case]


# --- config parsing -------------------------------------------------------------


def test_golden_config_parses():
    config = parse_scenario(golden_doc())
    assert config.blocks == 30
    assert config.oracle_batch_limit == 16
    assert config.params.oracle_account == "oracle"


def test_unknown_top_level_key_rejected():
    doc = golden_doc()
    doc["surprise"] = 1
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_unknown_nested_keys_rejected():
    doc = golden_doc()
    doc["corpus"]["extra"] = 1
    with pytest.raises(ConfigError):
        parse_scenario(doc)
    doc = golden_doc()
    doc["validators"][0]["weight"] = 3
    with pytest.raises(ConfigError):
        parse_scenario(doc)
    doc = golden_doc()
    doc["params"] = {"no_such_param": 5}
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_bad_values_rejected():
    doc = golden_doc()
    doc["corpus"]["perturbation"]["rate"] = 1.5
    with pytest.raises(ConfigError):
        parse_scenario(doc)

    doc = golden_doc()
    doc["corpus"]["fake_count"] = 3
    doc["corpus"]["trusted_count"] = 0
    with pytest.raises(ConfigError):
        parse_scenario(doc)

    doc = golden_doc()
    doc["users"] = ["nobody"]
    with pytest.raises(ConfigError):
        parse_scenario(doc)

    doc = golden_doc()
    doc["request_fee"] = 1  # below min fee
    with pytest.raises(ConfigError):
        parse_scenario(doc)

    doc = golden_doc()
    doc["algorithms"][0]["detector"] = "missing"
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_byte_flip_on_images_rejected():
    doc = golden_doc()
    doc["corpus"]["media_types"] = ["Image"]
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_duplicate_ids_rejected():
    doc = golden_doc()
    doc["validators"].append({"id": "v1", "stake": 5})
    with pytest.raises(ConfigError):
        parse_scenario(doc)
    doc = golden_doc()
    doc["accounts"].append({"id": "user-1", "balance": 5})
    with pytest.raises(ConfigError):
        parse_scenario(doc)


# --- runs -------------------------------------------------------------------------


def test_zero_blocks_gives_genesis_only(golden_config):
    from dataclasses import replace

    config = replace(golden_config, blocks=0)
    result = ScenarioRunner(config).run()
    assert len(result.chain.records) == 1
    assert result.report.chain["blocks"] == 1
    assert result.report.chain["transactions"]["total"] == 0
    assert result.report.algorithms == []
    assert result.report.notifications == []


def test_golden_report_matches_frozen_fixture(golden_run):
    frozen = (GOLDEN_FIXTURE_DIR / "report.json").read_bytes()
    live = (golden_run.out_dir / "report.json").read_bytes()
    assert live == frozen


def test_golden_csv_matches_frozen_fixture(golden_run):
    frozen = (GOLDEN_FIXTURE_DIR / "metrics.csv").read_bytes()
    live = (golden_run.out_dir / "metrics.csv").read_bytes()
    assert live == frozen


def test_two_runs_identical_reports(golden_config):
    a = ScenarioRunner(golden_config).run()
    b = ScenarioRunner(golden_config).run()
    assert canonical_json(a.report.to_json()) == canonical_json(b.report.to_json())
    assert a.oracle_log == b.oracle_log


def test_failing_algorithm_gets_deprecated_in_run(golden_config):
    from dataclasses import replace

    plan = replace(
        golden_config.algorithms[0],
        algorithm_id="algo-bad",
        owner="owner-2",
        challenge_correct=10,
    )
    config = replace(
        golden_config,
        accounts=golden_config.accounts + (("owner-2", 200),),
        algorithms=golden_config.algorithms + (plan,),
        blocks=6,
    )
    result = ScenarioRunner(config).run()
    algos = result.chain.final_state.algorithms
    assert algos["algo-bad"].status.value == "Deprecated"
    assert algos["algo-nd"].status.value == "Active"
    assert result.chain.final_state.stake_burned == 50


def test_label_soundness_on_golden(golden_run):
    state = golden_run.result.chain.final_state
    labelled = len(state.feedback_done)
    total_counts = sum(
        m.tp + m.fp + m.tn + m.fn for m in golden_run.result.report.algorithms
    )
    assert total_counts == labelled


def test_oracle_log_written(golden_run):
    log = (golden_run.out_dir / "oracle.log").read_text().splitlines()
    assert len(log) == 20
    assert all(len(line.split("\t")) == 4 for line in log)


def test_ground_truth_sidecar_round_trip(golden_run):
    raw = json.loads((golden_run.out_dir / "ground_truth.json").read_text())
    truth = GroundTruth.from_json(raw)
    assert truth.labels == golden_run.result.ground_truth.labels
    assert truth.sources == golden_run.result.ground_truth.sources
    fakes = [rid for rid, v in truth.labels.items() if v is Verdict.DEEPFAKE]
    assert len(fakes) == 10
    assert all(truth.sources[rid] is not None for rid in fakes)


# --- metrics -----------------------------------------------------------------------


def test_all_correct_gives_unit_precision_recall(golden_run):
    report = golden_run.result.report
    assert len(report.algorithms) == 1
    m = report.algorithms[0]
    assert (m.tp, m.fp, m.tn, m.fn) == (10, 0, 10, 0)
    assert m.precision == 1.0
    assert m.recall == 1.0


def test_zero_deepfake_verdicts_null_precision(golden_config):
    # exact-hash detector never says Deepfake: precision null, recall 0
    from dataclasses import replace

    plan = replace(golden_config.algorithms[0], detector="exact-hash")
    config = replace(golden_config, algorithms=(plan,))
    result = ScenarioRunner(config).run()
    m = result.report.algorithms[0]
    assert m.tp == 0
    assert m.fp == 0
    assert m.precision is None
    assert m.recall == 0.0
    assert result.report.notifications == []


def test_missing_label_raises(golden_run):
    truth = GroundTruth(labels={}, sources={})
    with pytest.raises(MissingLabel):
        compute_metrics(golden_run.result.chain, truth)


def test_notification_soundness(golden_run):
    # every notification names a committed Deepfake result whose match list
    # contains that content, and exactly one commit backs each event
    state = golden_run.result.chain.final_state
    for event in golden_run.result.report.notifications:
        result = state.results[event["request_id"]]
        assert result.verdict is Verdict.DEEPFAKE
        matched_ids = [cid for cid, _ in result.matched_content]
        assert event["content_id"] in matched_ids
        assert state.contents[event["content_id"]].provider == event["provider"]


def test_economic_sanity_owner_profits(golden_run, golden_config):
    state = golden_run.result.chain.final_state
    staked = golden_config.algorithms[0].stake
    assert state.balances["owner-1"] > staked


def test_recount_from_receipts_matches_report(golden_run):
    # independent recount: walk accepted commit transactions in the chain
    # and re-derive the confusion counts from payloads + ground truth
    truth = golden_run.result.ground_truth
    counts = {}
    for record in golden_run.result.chain.records:
        for tx, receipt in zip(record.block.transactions, record.receipts):
            if tx.kind is not TxKind.COMMIT_ANALYSIS_RESULT:
                continue
            if receipt.status is not ReceiptStatus.ACCEPTED:
                continue
            payload = tx.payload
            cell = counts.setdefault(
                payload.algorithm_id, {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
            )
            said_fake = payload.verdict is Verdict.DEEPFAKE
            was_fake = truth.labels[payload.request_id] is Verdict.DEEPFAKE
            key = (
                "tp" if said_fake and was_fake
                else "fp" if said_fake
                else "fn" if was_fake
                else "tn"
            )
            cell[key] += 1
    report_counts = {
        m.algorithm_id: {"tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn}
        for m in golden_run.result.report.algorithms
    }
    assert counts == report_counts
