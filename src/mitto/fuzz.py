"""Randomized adversarial traces.

Each trace builds a fresh three-chain world (two honest issuers plus one
byzantine chain), drives a randomized burst of transfers through two full
epochs, and always includes the two attacks worth fuzzing around:

* a routing probe: some holder of a foreign token tries to forward it to
  a chain that is not the issuer, and
* an over-return probe: the byzantine chain fabricates a return claiming
  more units than were ever sent to it.

Traces are generated as ordinary scenario objects and executed by the
ordinary runner, so every step gets the same accountant sweep, replay
probes, and atomicity checks a bundled scenario gets. A trace fails if
any violation is flagged or if one of the probes lands.
"""
from __future__ import annotations

import hashlib
import random

from .harness import Runner
from .scenario import parse_scenario


def _trace_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_trace(seed: int, index: int) -> tuple[dict, dict]:
    """Build one adversarial scenario. Returns (scenario_obj, probes) where
    probes maps probe names to the step indexes to inspect afterwards."""
    rng = random.Random(_trace_seed(seed, index))
    to_mal = rng.randint(10, 50)
    to_beta = rng.randint(10, 40)
    gold = 120
    silver = 80

    steps: list[dict] = []
    probes: dict[str, int] = {}

    # Phase A: issuers spread tokens while epoch 0 is open.
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

    # Phase B: the attacks, plus honest noise, while epoch 1 is open.
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
        "seed": _trace_seed(seed, index) % 2**64,
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


def run_trace(seed: int, index: int) -> dict:
    obj, probes = generate_trace(seed, index)
    report = Runner(parse_scenario(obj, source=obj["name"])).run()
    result = {"index": index, "steps": len(report["steps"]), "violations": report["violations"]}
    failure = report["failure"]
    if failure is not None:
        # A trace that stopped early may never have reached its probes, so
        # none of them counts as rejected.
        stopped = f"stopped at step {failure['step']} ({failure['invariant']})"
        return {**result, "violations": [*report["violations"], stopped],
                "routing_rejected": False, "over_return_rejected": False}
    routing = report["steps"][probes["routing"]]["outcome"]
    over = report["steps"][probes["over_return"]]["outcome"]
    return {
        **result,
        "routing_rejected": not routing["accepted"] and routing.get("rule") == "send-2",
        "over_return_rejected": not over["accepted"],
    }


def run_fuzz(seed: int, count: int) -> dict:
    traces = [run_trace(seed, i) for i in range(count)]
    violations = [f"trace {t['index']}: {v}" for t in traces for v in t["violations"]]
    routing_rejected = sum(t["routing_rejected"] for t in traces)
    over_rejected = sum(t["over_return_rejected"] for t in traces)
    return {
        "seed": seed,
        "traces": count,
        "steps": sum(t["steps"] for t in traces),
        "violations": violations,
        "routing": {"attempts": count, "rejected": routing_rejected},
        "over_return": {"attempts": count, "rejected": over_rejected},
        "ok": not violations and routing_rejected == count and over_rejected == count,
    }
