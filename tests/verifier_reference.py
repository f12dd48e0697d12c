"""Reference redeem verifier: decides a redeem claim from ground truth.

``proofs.verify_redeem`` checks Merkle evidence against the block root and
the posting the receiving chain resolved. This reference reads neither,
only the block the proof names. It asks the world whether the claim the
proof makes is true: the payload
hashes to the message's ``payload_hash``, and a posting of the sending
chain that commits the message sits in the block the proof names, where a
posting is either

- the certificate that finalized one of the sending chain's archived
  epochs, the message a leaf of that epoch's tree; or
- a zero-amount withdrawal of the sending chain that embeds the message.

``oracles.OracleRunner`` holds the live verifier to it on every call a
receiving chain makes during a run.
"""
from mitto.encoding import canonical_digest
from mitto.hashing import hash_bytes
from mitto.harness import World
from mitto.messages import message_digest


def redeem_claim_holds(world: World, message, payload: bytes, proof) -> bool:
    """Does ``proof``'s claim about ``message`` hold in ``world``?"""
    if hash_bytes(payload) != message.payload_hash:
        return False
    mainchain = world.mainchain
    sender_id = message.sending_sc_id
    md = message_digest(message)
    senders = [chain for chain in world.chains.values() if chain.sc_id == sender_id]
    for chain in senders:
        for epoch_id, closed in enumerate(chain.epochs):
            anchor = mainchain.finalized_cert(sender_id, epoch_id)
            if md in closed.tree.leaves and anchor is not None and canonical_digest(anchor.header) == proof.block_hash:
                return True
    # Every withdrawal the settlement chain included, with its block.
    for (ledger_id, _nullifier), (csw, block_hash) in mainchain._csw_inclusions.items():
        if ledger_id == sender_id and block_hash == proof.block_hash and csw.amount == 0 and csw.proofdata[:1] == (md,):
            return True
    return False
