"""A deliberately naive, independent re-interpretation of the token rules.

Used as a brute-force oracle: it re-derives final balances from a block
stream using plain dicts and inline rule checks, sharing nothing with the
contracts module except the payload field names and the request-id
derivation. Divergence from the real execution engine fails the
equivalence tests.
"""

from veriledger.contracts import request_id_for

DIMS = {"Image": 64, "Audio": 64, "Bytes": 256}
ONE = 65536  # a score's full scale: 1.0 in Q16


def naive_run(params, validators, initial_balances, known_detectors, blocks):
    """Re-derive balances for blocks = [(height, proposer, [tx, ...]), ...]."""
    balances = dict(initial_balances)
    escrow = 0
    nonces = {}
    algos = {}  # id -> dict(owner, stake, status, media, subs, passed, tp, fp, tn, fn, epoch)
    content_ids = set()
    content_hashes = set()
    requests = {}  # id -> dict(submitter, fee, media, done)
    results = {}  # request id -> dict(algo, verdict, labelled)
    challenge_set = {f"ch-{i:03d}" for i in range(params.challenge_count)}

    def bal(a):
        return balances.get(a, 0)

    def emb_ok(e, media):
        if e.media_type.value != media or e.dimension != DIMS[media]:
            return False
        return any(v > 0 for v in e.stored)

    def burn_half(a):
        half = a["stake"] // 2
        balances[a["owner"]] = bal(a["owner"]) + (a["stake"] - half)
        a["stake"] = 0
        a["status"] = "dead"

    for height, proposer, txs in blocks:
        for tx in txs:
            p = tx.payload
            kind = tx.kind.value
            if tx.nonce <= nonces.get(tx.sender, -1):
                continue
            ok = False
            if kind == "TransferTokens":
                if p.amount > 0 and bal(tx.sender) >= p.amount:
                    balances[tx.sender] = bal(tx.sender) - p.amount
                    balances[p.recipient] = bal(p.recipient) + p.amount
                    ok = True
            elif kind == "RegisterAlgorithm":
                if (
                    p.algorithm_id not in algos
                    and p.detector_kind in known_detectors
                    and p.stake >= params.min_stake
                    and bal(tx.sender) >= p.stake
                ):
                    balances[tx.sender] = bal(tx.sender) - p.stake
                    algos[p.algorithm_id] = {
                        "owner": tx.sender,
                        "stake": p.stake,
                        "status": "pending",
                        "media": {m.value for m in p.media_types},
                        "subs": set(),
                        "passed": 0,
                        "tp": 0,
                        "fp": 0,
                        "tn": 0,
                        "fn": 0,
                        "epoch": 0,
                    }
                    ok = True
            elif kind == "SubmitChallengeResult":
                a = algos.get(p.algorithm_id)
                if (
                    a is not None
                    and a["status"] == "pending"
                    and p.challenge_id in challenge_set
                    and p.challenge_id not in a["subs"]
                    and p.predicted_label.value in ("Authentic", "Deepfake")
                    and p.true_label.value in ("Authentic", "Deepfake")
                ):
                    a["subs"].add(p.challenge_id)
                    if p.predicted_label.value == p.true_label.value:
                        a["passed"] += 1
                    if len(a["subs"]) == params.challenge_count:
                        pct = params.challenge_pass_pct
                        if a["passed"] * 100 >= pct * params.challenge_count:
                            a["status"] = "active"
                        else:
                            burn_half(a)
                    ok = True
            elif kind == "RegisterContent":
                if (
                    p.content_id not in content_ids
                    and p.content_hash.hex not in content_hashes
                    and emb_ok(p.embedding, p.media_type.value)
                ):
                    content_ids.add(p.content_id)
                    content_hashes.add(p.content_hash.hex)
                    ok = True
            elif kind == "SubmitAnalysisRequest":
                rid = request_id_for(tx)
                if (
                    p.fee >= params.min_fee
                    and bal(tx.sender) >= p.fee
                    and emb_ok(p.embedding, p.media_type.value)
                    and rid not in requests
                ):
                    balances[tx.sender] = bal(tx.sender) - p.fee
                    escrow += p.fee
                    requests[rid] = {
                        "submitter": tx.sender,
                        "fee": p.fee,
                        "media": p.media_type.value,
                        "done": False,
                    }
                    ok = True
            elif kind == "CommitAnalysisResult":
                req = requests.get(p.request_id)
                a = algos.get(p.algorithm_id)
                valid_result = 0 <= p.confidence <= ONE and all(
                    cid in content_ids and 0 <= s <= ONE
                    for cid, s in p.matched_content
                )
                if p.verdict.value == "Authentic":
                    valid_result = valid_result and p.confidence == ONE and any(
                        s == ONE for _, s in p.matched_content
                    )
                if p.verdict.value == "Unverified" and p.matched_content:
                    valid_result = False
                if (
                    tx.sender == params.oracle_account
                    and req is not None
                    and not req["done"]
                    and a is not None
                    and a["status"] == "active"
                    and req["media"] in a["media"]
                    and valid_result
                ):
                    req["done"] = True
                    results[p.request_id] = {
                        "algo": p.algorithm_id,
                        "verdict": p.verdict.value,
                        "labelled": False,
                    }
                    fee = req["fee"]
                    to_owner = fee * params.fee_owner_pct // 100
                    to_proposer = fee * params.fee_proposer_pct // 100
                    escrow -= fee
                    balances[a["owner"]] = bal(a["owner"]) + to_owner
                    balances[proposer] = bal(proposer) + to_proposer
                    ok = True
            elif kind == "SubmitFeedback":
                req = requests.get(p.request_id)
                if (
                    req is not None
                    and req["done"]
                    and not results[p.request_id]["labelled"]
                    and tx.sender == req["submitter"]
                    and p.true_label.value in ("Authentic", "Deepfake")
                ):
                    res = results[p.request_id]
                    res["labelled"] = True
                    a = algos[res["algo"]]
                    said_fake = res["verdict"] == "Deepfake"
                    was_fake = p.true_label.value == "Deepfake"
                    key = (
                        "tp" if said_fake and was_fake
                        else "fp" if said_fake
                        else "fn" if was_fake
                        else "tn"
                    )
                    a[key] += 1
                    if said_fake == was_fake:
                        a["epoch"] += 1
                    total = a["tp"] + a["fp"] + a["tn"] + a["fn"]
                    if a["status"] == "active" and total >= params.feedback_window:
                        if (a["tp"] + a["tn"]) * 100 < params.feedback_min_pct * total:
                            burn_half(a)
                    ok = True
            if ok:
                nonces[tx.sender] = tx.nonce

        if height > 0 and height % params.epoch_length == 0:
            scores = {
                aid: a["epoch"] for aid, a in algos.items() if a["status"] == "active"
            }
            for a in algos.values():
                a["epoch"] = 0
            total = sum(scores.values())
            if total > 0:
                pool = params.epoch_reward_pool
                shares = {aid: pool * s // total for aid, s in scores.items()}
                left = pool - sum(shares.values())
                if left:
                    best = min(scores, key=lambda aid: (-scores[aid], aid))
                    shares[best] += left
                for aid, amount in shares.items():
                    if amount:
                        owner = algos[aid]["owner"]
                        balances[owner] = bal(owner) + amount

    return balances, escrow
