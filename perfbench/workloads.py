"""Seeded scenario documents for the benchmark workloads.

Each generator returns a plain scenario document (the JSON the program's
``run --config`` accepts). The benchmark seed becomes the scenario seed, so
the same ``--seed`` always yields the same corpus, schedule and chain.
Why each workload exists, and the defects it shows, is in NOTES.md.
"""

from __future__ import annotations

REQUEST_FEE = 10
USER_BALANCE = 10_000


def _base(seed: int, blocks: int, users: int, owners: int) -> dict:
    user_ids = [f"user-{i}" for i in range(1, users + 1)]
    owner_ids = [f"owner-{i}" for i in range(1, owners + 1)]
    return {
        "seed": seed,
        "blocks": blocks,
        "validators": [
            {"id": "v1", "stake": 100},
            {"id": "v2", "stake": 300},
            {"id": "v3", "stake": 200},
        ],
        "accounts": (
            [{"id": "provider-1", "balance": 0}, {"id": "provider-2", "balance": 0}]
            + [{"id": u, "balance": USER_BALANCE} for u in user_ids]
            + [{"id": o, "balance": 500} for o in owner_ids]
        ),
        "providers": ["provider-1", "provider-2"],
        "users": user_ids,
        "request_fee": REQUEST_FEE,
    }


def _algorithm(aid: str, owner: str, media: list[str], detector: str, **extra) -> dict:
    return {
        "algorithm_id": aid,
        "owner": owner,
        "media_types": media,
        "detector": detector,
        "stake": 200,
        **extra,
    }


def long_chain(seed: int) -> dict:
    doc = _base(seed, blocks=102, users=4, owners=1)
    doc["algorithms"] = [_algorithm("algo-nd", "owner-1", ["Bytes"], "near-duplicate")]
    doc["corpus"] = {
        "trusted_count": 16,
        "fake_count": 100,
        "unrelated_count": 100,
        "media_types": ["Bytes"],
        "perturbation": {"kind": "byte-flip", "rate": 0.01},
    }
    doc["requests_per_block"] = 2
    doc["oracle"] = {"account": "oracle", "batch_limit": 16}
    return doc


def big_registry(seed: int) -> dict:
    doc = _base(seed, blocks=8, users=4, owners=1)
    doc["algorithms"] = [_algorithm("algo-nd", "owner-1", ["Bytes"], "near-duplicate")]
    doc["corpus"] = {
        "trusted_count": 300,
        "fake_count": 120,
        "unrelated_count": 120,
        "media_types": ["Bytes"],
        "perturbation": {"kind": "byte-flip", "rate": 0.01},
    }
    doc["requests_per_block"] = 40
    doc["oracle"] = {"account": "oracle", "batch_limit": 40}
    return doc


def mixed_media(seed: int) -> dict:
    doc = _base(seed, blocks=62, users=4, owners=3)
    # One serving algorithm per media type: model selection breaks accuracy
    # ties by the smaller id, so a second algorithm on a media type would
    # leave its detector idle.
    doc["algorithms"] = [
        _algorithm("algo-exact", "owner-1", ["Bytes"], "exact-hash"),
        _algorithm("algo-image", "owner-2", ["Image"], "near-duplicate"),
        # Fails activation (10 of 20 challenges < 80%): its stake is burned
        # and Audio requests have no Active algorithm.
        _algorithm("algo-audio", "owner-3", ["Audio"], "near-duplicate",
                   challenge_correct=10),
    ]
    doc["corpus"] = {
        "trusted_count": 90,
        "fake_count": 240,
        "unrelated_count": 240,
        "media_types": ["Bytes", "Image", "Audio"],
        "perturbation": {"kind": "pixel-shift", "rate": 0.02},
    }
    # Stuck Audio requests fill the head of the oracle's queue (ordered by
    # request id). How many servable requests still get a slot depends on
    # the id order, so on the seed; a larger batch makes that share vary
    # less from seed to seed while many servable requests still starve.
    doc["requests_per_block"] = 8
    doc["oracle"] = {"account": "oracle", "batch_limit": 48}
    return doc


WORKLOADS = {
    "long-chain": long_chain,
    "big-registry": big_registry,
    "mixed-media": mixed_media,
}
