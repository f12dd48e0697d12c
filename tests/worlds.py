"""Test worlds, built the way a scenario builds them, and the constants the
test files share.

Every test world is a scenario fragment: ``harness.World`` builds its
chains, keys and issuances, and ``Runner`` drives it to a named stage
through the step executors a bundled scenario uses, with the accountant
sweep, replay probes and atomicity checks on every step. A stage's outputs
come from the run itself: its accepted sends (``Runner.sends``) and its
ledgers. Everything is seeded, so repeated runs give byte-identical worlds.
"""
from pathlib import Path

from mitto.encoding import canonical_digest
from mitto.harness import Runner, World
from mitto.messages import CswRedeemTx, RedeemTx, SendTx, message_digest
from mitto.proofs import explain_redeem, verify_redeem
from mitto.scenario import parse_scenario
from mitto.tokens import final_ledger, transfer_message, withdraw_foreign, withdraw_native_held

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: Every rule id a gate reports; each needs a rejected conformance vector.
RULE_IDS = (
    "send-1", "send-2", "send-3a", "send-3b", "send-3c", "send-3d", "send-3e", "send-4", "send-5",
    "redeem-1", "redeem-2a", "redeem-2b", "redeem-3",
    "redeem-4a", "redeem-4b", "redeem-4c", "redeem-4d", "redeem-4e", "redeem-5",
    "redeem-6", "redeem-7", "redeem-8",
    "malformed-payload", "unregistered-msg-type",
)

#: Each rule id that no world can fire, with the verdict of the gate check on
#: the same field, which runs first and refuses the rule's input.
SHADOWED = {
    "send-3a": {"accepted": False, "reason": "WrongSender"},
    "send-3b": {"accepted": False, "reason": "SelfSend"},
    # The ledger is registered under the token-transfer type only.
    "send-3c": {"accepted": False, "reason": "HandlerRejected", "rule": "unregistered-msg-type"},
    # The handler keeps the payload hash the gate checked as the instance digest.
    "send-3e": {"accepted": False, "reason": "PayloadMismatch"},
    # Once send-3d passes, the same key, message and signature the gate verified.
    "send-4": {"accepted": False, "reason": "BadSignature"},
    "redeem-4b": {"accepted": False, "reason": "WrongReceivingChain"},
    "redeem-4c": {"accepted": False, "reason": "HandlerRejected", "rule": "unregistered-msg-type"},
    # verify_redeem checks the payload against the committed message's hash.
    "redeem-4e": {"accepted": False, "reason": "ProofInvalid", "rule": "redeem-7"},
}

#: The rule id a world could fire but no op reaches, and why.
UNREACHED = {"redeem-4d": "no op commits a message whose sender is not its instance's owner"}

#: alpha and beta, freshly activated with epoch length 2, holding nothing.
TWO_CHAINS = {
    "name": "two_chains", "seed": 1, "steps": [],
    "chains": [{"label": "alpha", "epoch_length": 2}, {"label": "beta", "epoch_length": 2}],
}

#: Epoch 0 closed on both chains and finalized, with one in-flight send:
#: alpha issued 100 units of fungible WBT to alice, who sent 60 to bob on
#: beta (send ``sent``); it is committed in alpha's finalized epoch-0
#: certificate but not yet redeemed.
COMMITTED = {"name": "committed", "seed": 1, "chains": [
    {"label": "alpha", "epoch_length": 2,
     "issuances": [{"name": "WBT", "fungible": True, "amount": 100, "owner": "alice", "data": "wbt-genesis"}]},
    {"label": "beta", "epoch_length": 2},
], "steps": [
    {"op": "send", "id": "sent", "from": "alpha", "to": "beta", "name": "WBT", "amount": 60, "owner": "alice",
     "receiver": "bob"},
    {"op": "advance_mainchain", "blocks": 2},  # tip 3: inside epoch 0's submission window
    {"op": "close_epoch"},
    {"op": "advance_mainchain", "blocks": 2},  # tip 5: epoch 0 finalized for both chains
]}

#: Three chains; alpha ceases holding one native token (KEEP), one foreign
#: token (FOR, redeemed from beta) and one sent away (SENT, to bob on
#: gamma), with gamma's unredeemed return of SENT (send ``ret``) stranded
#: in its epoch-1 certificate. Every ceased-flow test starts here: the
#: Zendoo ceased-sidechain flow, which ``ceased_flows.json`` runs to its end.
CEASED = {"name": "ceased", "seed": 1, "chains": [
    {"label": "alpha", "epoch_length": 2,
     "issuances": [{"name": "KEEP", "fungible": True, "amount": 50, "owner": "alice", "data": "keep"},
                   {"name": "SENT", "fungible": True, "amount": 100, "owner": "alice", "data": "sent"}]},
    {"label": "beta", "epoch_length": 2,
     "issuances": [{"name": "FOR", "fungible": True, "amount": 30, "owner": "bob", "data": "for"}]},
    {"label": "gamma", "epoch_length": 2},
], "steps": [
    {"op": "send", "id": "out", "from": "alpha", "to": "gamma", "name": "SENT", "amount": 100, "owner": "alice",
     "receiver": "bob"},
    {"op": "send", "id": "in", "from": "beta", "to": "alpha", "name": "FOR", "amount": 30, "owner": "bob",
     "receiver": "alice"},
    {"op": "advance_mainchain", "blocks": 2},  # tip 3
    {"op": "close_epoch"},
    {"op": "advance_mainchain", "blocks": 2},  # tip 5: epoch 0 finalized
    {"op": "redeem", "send": "out"},
    {"op": "redeem", "send": "in"},
    {"op": "send", "id": "ret", "from": "gamma", "to": "alpha", "name": "SENT", "amount": 100, "owner": "bob",
     "receiver": "alice"},
    {"op": "close_epoch"},  # epoch-1 window is [5, 6]
    {"op": "advance_mainchain", "blocks": 2},  # tip 7: epoch 1 finalized
    {"op": "close_epoch", "chains": ["beta", "gamma"]},  # alpha stays silent for epoch 2
    {"op": "advance_mainchain", "blocks": 2},  # tip 9: alpha ceased, beta and gamma alive
    {"op": "assert", "chain": "alpha", "status": "ceased"},
]}



def long_lived(epochs: int) -> dict:
    """alpha (alice holds 50 KEEP) and beta close ``epochs`` epochs, each
    finalized before the next one closes, and the run stops right after
    the last close. Bob's send of 30 FOR to alice on alpha (send ``in``) is
    committed in beta's epoch 0 and not yet redeemed."""
    steps = [{"op": "send", "id": "in", "from": "beta", "to": "alpha", "name": "FOR", "amount": 30, "owner": "bob",
              "receiver": "alice"}]
    for _ in range(epochs):
        steps += [{"op": "advance_mainchain", "blocks": 2}, {"op": "close_epoch"}]
    return {"name": "long_lived", "seed": 1, "chains": [
        {"label": "alpha", "epoch_length": 2,
         "issuances": [{"name": "KEEP", "fungible": True, "amount": 50, "owner": "alice", "data": "keep"}]},
        {"label": "beta", "epoch_length": 2,
         "issuances": [{"name": "FOR", "fungible": True, "amount": 30, "owner": "bob", "data": "for"}]},
    ], "steps": steps}


#: Steps that follow ``long_lived``: its last epoch is finalized, alice
#: redeems send ``in`` from beta's epoch 0, alpha closes one more epoch and
#: ceases, and alice withdraws KEEP (``held``) and FOR (``foreign``) from
#: it; both withdrawals are redeemed on beta.
CEASE_AFTER_LONG_LIFE = [
    {"op": "advance_mainchain", "blocks": 2},
    {"op": "redeem", "send": "in"},
    {"op": "close_epoch"},
    {"op": "advance_mainchain", "blocks": 2},
    {"op": "close_epoch", "chains": ["beta"]},
    {"op": "cease_by_silence", "chain": "alpha"},
    {"op": "csw", "id": "held", "mode": "held", "chain": "alpha", "name": "KEEP", "owner": "alice", "target": "beta",
     "receiver": "alice"},
    {"op": "csw", "id": "foreign", "mode": "foreign", "chain": "alpha", "name": "FOR", "owner": "alice",
     "receiver": "alice"},
    {"op": "advance_mainchain", "blocks": 1},
    {"op": "csw_redeem", "withdrawal": "held"},
    {"op": "csw_redeem", "withdrawal": "foreign"},
]


def two_chain_world() -> World:
    return World(parse_scenario(TWO_CHAINS))


def run_stage(fragment: dict) -> tuple[World, dict]:
    """Run scenario ``fragment``, every step of which must be accepted with
    no violation; returns its world and its accepted sends by id."""
    runner = Runner(parse_scenario(fragment))
    report = runner.run()
    assert report["ok"] and all(step["outcome"]["accepted"] for step in report["steps"]), report
    return runner.world, runner.sends


def held(ledger, name: str):
    """The one instance of token ``name`` in ``ledger``."""
    (instance,) = [ti for ti in ledger.s_tks.values() if ti.token_name == name]
    return instance


def held_withdrawal(w):
    """In the ceased stage: alice withdraws her KEEP from alpha, for bob on beta."""
    kept = canonical_digest(held(w.states["alpha"], "KEEP"))
    bob = w.actor("bob").public
    return withdraw_native_held(w.chains["alpha"], w.actor("alice"), kept, w.chains["beta"].sc_id, bob)


def withdrawals_in_one_block(w):
    """In the ceased stage: alice's held withdrawal and her withdrawal of
    the foreign FOR, back to its issuer beta, both for bob and both
    included in the next block."""
    alpha = w.chains["alpha"]
    foreign = canonical_digest(held(final_ledger(alpha), "FOR"))
    packages = held_withdrawal(w), withdraw_foreign(alpha, w.actor("alice"), foreign, w.actor("bob").public)
    for package in packages:
        assert w.mainchain.submit_csw(package.csw).accepted
    w.mainchain.advance_block()
    return packages


def redeem_arguments(w, message, payload, proof, csw_nullifier=None) -> tuple:
    """The redeem verifier's arguments for the evidence, resolved by beta's
    gate as a redeem on beta resolves them; a CSW redeem names its
    withdrawal by ``csw_nullifier``. The resolver reads no signature, so
    none is made."""
    if csw_nullifier is None:
        tx = RedeemTx(message, payload, proof, sender_sig=b"", receiver_signature=b"")
    else:
        tx = CswRedeemTx(message, payload, proof, sender_sig=b"", receiver_signature=b"", csw_nullifier=csw_nullifier)
    return (*w.chains["beta"].resolve_redeem(tx), message, payload, proof)


def redeem_verifies(w, *evidence) -> bool:
    """``verify_redeem`` on ``redeem_arguments(w, *evidence)``."""
    return verify_redeem(*redeem_arguments(w, *evidence))


def redeem_refusal(w, *evidence) -> str | None:
    """``explain_redeem`` on ``redeem_arguments(w, *evidence)``: the id of
    the first check that refuses the evidence."""
    return explain_redeem(*redeem_arguments(w, *evidence))


def make_send(chain, owner, instance, to_chain, receiver):
    """Build and submit ``owner``'s send of ``instance`` to ``receiver`` on
    ``to_chain``; returns (message, tx, verdict)."""
    message = transfer_message(chain.sc_id, to_chain.sc_id, instance, receiver.public)
    tx = SendTx(message=message, payload=instance.encode(), signature=owner.sign(message_digest(message)))
    return message, tx, chain.accept_send(tx)
