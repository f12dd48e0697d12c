"""Seeded workload generators.

Every workload is built here from the benchmark's ``--seed``; the simulator
only ever sees the generated scenario objects. A workload is a sequence of
rounds. Round ``r`` of a workload is fixed by ``(seed, r)``, so round 0 is
the same in every run with that seed: the per-layer trace and the
``report_sha256`` output are taken from it.

- ``fuzz``: a round is a batch of small adversarial three-chain worlds,
  built from a frozen copy of the trace shape ``mitto.fuzz.generate_trace``
  had when this benchmark was written, so reworking the fuzzer does not
  change the workload.
- ``scale_nft``: a round is one two-chain world whose issuer sends and
  then redeems ``n`` NFTs; per-step cost grows with the world.
- ``ceased_recovery``: a round is one world where ``alpha`` receives ``n``
  NFTs from ``beta``, ceases by silence, and every instance it held is
  withdrawn and redeemed on ``beta``.
"""
from __future__ import annotations

import hashlib
import random

# Sizes of one round. A round must finish well inside one run, and several
# rounds per run keep the medians steady.
FUZZ_TRACES = 40
SCALE_NFT_N = 200
CEASED_N = 60

ACCEPT = {"accepted": True}


def sub_seed(*parts) -> int:
    """A 64-bit seed derived from the run seed and a round coordinate."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- fuzz ---------------------------------------------------------------------


def fuzz_trace(seed: int, index: int) -> tuple[dict, dict]:
    """One adversarial scenario and its probe step indexes.

    Frozen copy of ``mitto.fuzz.generate_trace``: two honest issuers and a
    byzantine chain, two epochs, a routing probe (a foreign token forwarded
    to a third chain) and an over-return probe (a fabricated return of more
    units than were sent). Both probes must be rejected.
    """
    trace_seed = sub_seed(seed, index)
    rng = random.Random(trace_seed)
    to_mal = rng.randint(10, 50)
    to_beta = rng.randint(10, 40)
    gold = 120
    silver = 80

    steps: list[dict] = []
    probes: dict[str, int] = {}

    phase_a = [
        {"op": "send", "id": "a_mal", "from": "alpha", "to": "mal", "name": "GOLD",
         "amount": to_mal, "owner": "alice", "receiver": "eve"},
        {"op": "send", "id": "a_beta", "from": "alpha", "to": "beta", "name": "GOLD",
         "amount": to_beta, "owner": "alice", "receiver": "bob"},
    ]
    if rng.random() < 0.5:
        phase_a.append(
            {"op": "send", "id": "b_out", "from": "beta", "to": rng.choice(["alpha", "mal"]),
             "name": "SLV", "amount": rng.randint(5, silver), "owner": "bob", "receiver": "eve"}
        )
    rng.shuffle(phase_a)
    steps.extend(phase_a)

    steps.append({"op": "advance_mainchain", "blocks": 2})
    steps.append({"op": "close_epoch"})
    steps.append({"op": "advance_mainchain", "blocks": 2})

    redeems_a = [{"op": "redeem", "send": s["id"]} for s in phase_a]
    rng.shuffle(redeems_a)
    steps.extend(redeems_a)

    replenish = 0
    if rng.random() < 0.4:
        replenish = rng.randint(1, 30)
        steps.append(
            {"op": "send", "id": "a_mal2", "from": "alpha", "to": "mal", "name": "GOLD",
             "amount": replenish, "owner": "alice", "receiver": "eve"}
        )

    probes["routing"] = len(steps)
    steps.append(
        {"op": "send", "id": "hop", "from": "beta", "to": "mal", "name": "GOLD",
         "amount": rng.randint(1, to_beta), "owner": "bob", "receiver": "eve"}
    )

    over_amount = to_mal + replenish + rng.randint(1, 40)
    steps.append(
        {"op": "fabricate_send", "id": "forged_over", "from": "mal", "to": "alpha",
         "name": "GOLD", "fungible": True, "amount": over_amount, "issuer": "alpha",
         "owner": "eve", "receiver": "alice"}
    )

    phase_c_redeems = [{"op": "redeem", "send": "forged_over"}]
    if rng.random() < 0.4:
        steps.append(
            {"op": "fabricate_send", "id": "forged_under", "from": "mal", "to": "alpha",
             "name": "GOLD", "fungible": True, "amount": rng.randint(1, to_mal), "issuer": "alpha",
             "owner": "eve", "receiver": "alice"}
        )
        phase_c_redeems.append({"op": "redeem", "send": "forged_under"})
    if rng.random() < 0.5:
        steps.append(
            {"op": "send", "id": "honest_ret", "from": "mal", "to": "alpha", "name": "GOLD",
             "amount": rng.randint(1, to_mal), "owner": "eve", "receiver": "alice"}
        )
        phase_c_redeems.append({"op": "redeem", "send": "honest_ret"})
    if "a_mal2" in {s.get("id") for s in steps}:
        phase_c_redeems.append({"op": "redeem", "send": "a_mal2"})

    steps.append({"op": "close_epoch"})
    steps.append({"op": "advance_mainchain", "blocks": 2})

    rng.shuffle(phase_c_redeems)
    probes["over_return"] = len(steps) + phase_c_redeems.index({"op": "redeem", "send": "forged_over"})
    steps.extend(phase_c_redeems)

    obj = {
        "name": f"fuzz_{index}",
        "seed": trace_seed,
        "chains": [
            {"label": "alpha", "epoch_length": 2,
             "issuances": [{"name": "GOLD", "fungible": True, "amount": gold, "owner": "alice"}]},
            {"label": "beta", "epoch_length": 2,
             "issuances": [{"name": "SLV", "fungible": True, "amount": silver, "owner": "bob"}]},
            {"label": "mal", "epoch_length": 2, "byzantine": True},
        ],
        "steps": steps,
    }
    return obj, probes


def fuzz_round(seed: int, round_index: int, traces: int = FUZZ_TRACES) -> list[tuple[dict, dict]]:
    first = round_index * traces
    return [fuzz_trace(seed, i) for i in range(first, first + traces)]


# -- scale_nft ----------------------------------------------------------------


def scale_nft(seed: int, round_index: int, n: int = SCALE_NFT_N) -> dict:
    """``n`` NFT sends alpha -> beta, one epoch, then ``n`` redeems in a
    seeded order. Every step must be accepted."""
    scenario_seed = sub_seed("scale_nft", seed, round_index)
    rng = random.Random(scenario_seed)
    steps = [
        {"op": "send", "id": f"s{i}", "from": "alpha", "to": "beta", "name": "ART",
         "token_id": i, "owner": "alice", "receiver": "bob", "expect": ACCEPT}
        for i in range(n)
    ]
    steps += [
        {"op": "advance_mainchain", "blocks": 2, "expect": ACCEPT},
        {"op": "close_epoch", "expect": ACCEPT},
        {"op": "advance_mainchain", "blocks": 2, "expect": ACCEPT},
    ]
    order = list(range(n))
    rng.shuffle(order)
    steps += [{"op": "redeem", "send": f"s{i}", "expect": ACCEPT} for i in order]
    return {
        "name": f"scale_nft_{round_index}",
        "seed": scenario_seed,
        "chains": [
            {"label": "alpha", "epoch_length": 2,
             "issuances": [{"name": "ART", "fungible": False, "token_id": i, "owner": "alice"}
                           for i in range(n)]},
            {"label": "beta", "epoch_length": 2},
        ],
        "steps": steps,
    }


# -- ceased_recovery ----------------------------------------------------------


def ceased_recovery(seed: int, round_index: int, n: int = CEASED_N) -> dict:
    """beta sends ``n`` NFTs to alpha, alpha redeems and commits them, then
    ceases by silence. ``n`` held and ``n`` foreign withdrawals leave alpha,
    and all ``2n`` are redeemed on beta. Every step must be accepted."""
    scenario_seed = sub_seed("ceased_recovery", seed, round_index)
    rng = random.Random(scenario_seed)
    steps = [
        {"op": "send", "id": f"in{i}", "from": "beta", "to": "alpha", "name": "BNFT",
         "token_id": i, "owner": "bob", "receiver": "alice", "expect": ACCEPT}
        for i in range(n)
    ]
    steps += [
        {"op": "advance_mainchain", "blocks": 2, "expect": ACCEPT},
        {"op": "close_epoch", "expect": ACCEPT},
        {"op": "advance_mainchain", "blocks": 2, "expect": ACCEPT},
    ]
    order = list(range(n))
    rng.shuffle(order)
    steps += [{"op": "redeem", "send": f"in{i}", "expect": ACCEPT} for i in order]
    steps += [
        {"op": "close_epoch", "expect": ACCEPT},
        {"op": "advance_mainchain", "blocks": 2, "expect": ACCEPT},
        {"op": "close_epoch", "chains": ["beta"], "expect": ACCEPT},
        {"op": "cease_by_silence", "chain": "alpha", "expect": ACCEPT},
    ]
    withdrawals = [
        {"op": "csw", "id": f"h{i}", "mode": "held", "chain": "alpha", "name": "ANFT",
         "token_id": i, "owner": "alice", "target": "beta", "receiver": "carol", "expect": ACCEPT}
        for i in range(n)
    ] + [
        {"op": "csw", "id": f"f{i}", "mode": "foreign", "chain": "alpha", "name": "BNFT",
         "token_id": i, "owner": "alice", "receiver": "carol", "expect": ACCEPT}
        for i in range(n)
    ]
    rng.shuffle(withdrawals)
    steps += withdrawals
    steps.append({"op": "advance_mainchain", "blocks": 1, "expect": ACCEPT})
    redeems = [{"op": "csw_redeem", "withdrawal": w["id"], "expect": ACCEPT} for w in withdrawals]
    rng.shuffle(redeems)
    steps += redeems
    return {
        "name": f"ceased_recovery_{round_index}",
        "seed": scenario_seed,
        "chains": [
            {"label": "alpha", "epoch_length": 2,
             "issuances": [{"name": "ANFT", "fungible": False, "token_id": i, "owner": "alice"}
                           for i in range(n)]},
            {"label": "beta", "epoch_length": 2,
             "issuances": [{"name": "BNFT", "fungible": False, "token_id": i, "owner": "bob"}
                           for i in range(n)]},
        ],
        "steps": steps,
    }
