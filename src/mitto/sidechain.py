"""Sidechain message layer: send queueing, epoch close, redeem validation.

A sidechain buffers accepted sends in the current epoch's outbox. Closing an
epoch builds the message tree, commits its root (plus the committed-state
root) into a withdrawal certificate, and submits it to the settlement chain.
Each epoch's message tree is archived, so redeem evidence can be built
later. Its committed state and each handler's capture (plain copies of its
entries) are kept only until a later epoch is finalized: withdrawals from a
ceased chain are proven against its last finalized epoch alone.

A redeem of either kind (of a message a certificate committed, or of one
a ceased chain's withdrawal carries) passes one gate, which checks replay
protection before anything else: a message whose digest is in the chain's
persistent redeemed set is refused before its evidence is looked at, so a
replay that also carries broken evidence gets ``AlreadyRedeemed``. Then the
posting the transaction names (its withdrawal, or the certificate finalized
in its block) is looked up by key and the evidence verified against it
alone, a missing posting failing rule ``redeem-7``; then the receiving
chain and the receiver's authorization are checked, and type-specific
validation goes to the handler for the message type.

Handlers parse at the gate: on a send or a redeem the gate has the handler
parse the payload once, refuses a payload it cannot parse with rule
``malformed-payload``, and hands the parsed value to the handler's
validate and apply hooks. Validation and side effects are atomic: a
rejected transaction leaves no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from . import verdict as v
from .encoding import to_json
from .hashing import Digest, MerkleTree, build_merkle, hash_bytes
from .journal import JournalDict, Journaled, JournalList, JournalSet
from .keys import KeyPair, PubKey, Signature, verify_sig
from .mainchain import Mainchain
from .messages import (
    CeasedSidechainWithdrawal,
    CscpMessage,
    RedeemTx,
    SendTx,
    CswRedeemTx,
    WithdrawalCertificate,
    message_digest,
    redeem_auth_digest,
)
from .proofs import (
    ClaimKind,
    CommittedState,
    CswClaim,
    EntityNotInState,
    ReturnEvidence,
    anchor_of,
    claim_proofdata,
    csw_nullifier,
    make_csw_input,
    prove_csw,
    prove_wcert,
    sim_merkle_vk,
    verify_redeem,
)
from .verdict import Verdict

RULE_UNREGISTERED_TYPE = "unregistered-msg-type"
RULE_MALFORMED_PAYLOAD = "malformed-payload"
RULE_RECEIVER_AUTH = "redeem-6"
RULE_PROOF = "redeem-7"


class MessageHandler(Protocol):
    """Type-specific validation and side effects, keyed by message type.

    parse returns the value a payload carries, or None when the payload is
    malformed; the gate calls it once per transaction, with the payload
    hash it has checked, and hands its value to the other hooks. validate_*
    return None to accept or the id of the first failing rule; apply_* are
    only called after the matching validate_* accepted. capture returns
    what an accepted close archives of the handler's state: copies, which
    later writes to the handler leave as they were.
    """

    def parse(self, payload: bytes, payload_hash: Digest) -> object | None: ...

    def validate_send(self, parsed, message: CscpMessage, signature: Signature) -> str | None: ...

    def apply_send(self, parsed, message: CscpMessage) -> None: ...

    def validate_redeem(self, parsed, message: CscpMessage, sender_sig: Signature) -> str | None: ...

    def apply_redeem(self, parsed, message: CscpMessage) -> None: ...

    def state_digests(self) -> list[Digest]: ...

    def capture(self): ...

    def dump(self) -> dict: ...


@dataclass(frozen=True)
class ClosedEpoch:
    """Archived epoch, kept at its epoch id's index in ``Sidechain.epochs``:
    the tree over its message digests, which redeem evidence reads, and,
    while no later epoch is finalized, the committed application state and
    per-handler captures taken at close, which withdrawals read."""

    tree: MerkleTree
    committed: CommittedState | None = None
    captures: dict[int, object] | None = None


class Sidechain(Journaled):
    def __init__(
        self,
        mainchain: Mainchain,
        sc_id: int,
        wcert_signer: KeyPair,
        csw_signer: KeyPair,
        label: str,
    ) -> None:
        self.mainchain = mainchain
        self.sc_id = sc_id
        self.label = label
        self.wcert_signer = wcert_signer
        self.csw_signer = csw_signer
        self.handlers: JournalDict[int, MessageHandler] = JournalDict()
        self.outbox: JournalList[tuple[CscpMessage, bytes]] = JournalList()
        self.epochs: JournalList[ClosedEpoch] = JournalList()
        self.redeemed: JournalSet[Digest] = JournalSet()

    @classmethod
    def create(cls, mainchain: Mainchain, epoch_length: int, label: str, seed: int = 0) -> "Sidechain":
        """Register a new sidechain and return its driver, keys derived
        deterministically from (seed, label)."""
        wcert_signer = KeyPair.from_label("wcert", seed, label)
        csw_signer = KeyPair.from_label("csw", seed, label)
        sc_id = mainchain.register_sidechain(
            epoch_length,
            wcert_vk=sim_merkle_vk(wcert_signer.public),
            csw_vk=sim_merkle_vk(csw_signer.public),
        )
        return cls(mainchain, sc_id, wcert_signer, csw_signer, label=label)

    def register_handler(self, msg_type: int, handler: MessageHandler) -> None:
        if msg_type in self.handlers:
            raise ValueError(f"handler for message type {msg_type} already registered")
        self.handlers[msg_type] = handler

    # -- sending ---------------------------------------------------------------

    def accept_send(self, tx: SendTx) -> Verdict:
        message = tx.message
        if not verify_sig(message.sender_id, message_digest(message), tx.signature):
            return Verdict.rejected(v.BAD_SIGNATURE)
        if message.sending_sc_id != self.sc_id:
            return Verdict.rejected(v.WRONG_SENDER)
        if hash_bytes(tx.payload) != message.payload_hash:
            return Verdict.rejected(v.PAYLOAD_MISMATCH)
        if message.receiving_sc_id == message.sending_sc_id:
            return Verdict.rejected(v.SELF_SEND)
        handler = self.handlers.get(message.msg_type)
        if handler is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_UNREGISTERED_TYPE)
        parsed = handler.parse(tx.payload, message.payload_hash)
        if parsed is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_MALFORMED_PAYLOAD)
        rule = handler.validate_send(parsed, message, tx.signature)
        if rule is not None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=rule)
        handler.apply_send(parsed, message)
        self.outbox.append((message, tx.payload))
        return Verdict.ok()

    # -- epoch close -------------------------------------------------------------

    def next_epoch_to_close(self) -> int:
        return len(self.epochs)

    def current_message_tree(self) -> MerkleTree:
        return build_merkle([message_digest(m) for m, _ in self.outbox])

    def current_committed_state(self) -> CommittedState:
        digests: list[Digest] = []
        for msg_type in sorted(self.handlers):
            digests.extend(self.handlers[msg_type].state_digests())
        return CommittedState.from_digests(digests)

    def build_certificate(
        self,
        quality: int = 1,
        epoch_id: int | None = None,
        last_block_hash: Digest | None = None,
    ) -> WithdrawalCertificate:
        """Certificate over the current outbox and state. epoch_id and
        last_block_hash can be overridden to construct deliberately stale or
        early submissions for rejection tests."""
        return self._certify(
            self.current_message_tree(), self.current_committed_state(), quality, epoch_id, last_block_hash
        )

    def _certify(
        self,
        tree: MerkleTree,
        committed: CommittedState,
        quality: int,
        epoch_id: int | None = None,
        last_block_hash: Digest | None = None,
    ) -> WithdrawalCertificate:
        """Certificate with an empty backward-transfer list: tokens leave only in messages."""
        epoch = self.next_epoch_to_close() if epoch_id is None else epoch_id
        if last_block_hash is None:
            last_block_hash = self.mainchain.wcert_anchor_hash(self.sc_id, epoch)
        proofdata = (tree.root, committed.root)
        proof = prove_wcert(self.wcert_signer, quality, (), last_block_hash, proofdata)
        return WithdrawalCertificate(
            ledger_id=self.sc_id,
            epoch_id=epoch,
            quality=quality,
            bt_list=(),
            proofdata=proofdata,
            proof=proof,
        )

    def close_epoch(self, quality: int = 1) -> tuple[WithdrawalCertificate, Verdict]:
        """Build and submit the certificate for the next unclosed epoch.

        On acceptance the message tree, committed state and handler captures
        are archived, the state of epochs below the last finalized one is
        dropped, and a new empty epoch opens; on rejection nothing changes
        and the caller may retry."""
        tree = self.current_message_tree()
        committed = self.current_committed_state()
        cert = self._certify(tree, committed, quality)
        verdict = self.mainchain.submit_certificate(cert)
        if verdict.accepted:
            self.epochs.append(ClosedEpoch(tree, committed, {t: h.capture() for t, h in sorted(self.handlers.items())}))
            self.outbox.clear()
            # Only the last finalized epoch's state is read, and that epoch only moves up.
            epoch_id = (self.mainchain.record(self.sc_id).last_epoch or 0) - 1
            while epoch_id >= 0 and self.epochs[epoch_id].committed is not None:
                self.epochs[epoch_id] = ClosedEpoch(self.epochs[epoch_id].tree)
                epoch_id -= 1
        return cert, verdict

    # -- redeeming ----------------------------------------------------------------

    def accept_redeem(self, tx: RedeemTx) -> Verdict:
        return self._redeem(tx)

    def accept_csw_redeem(self, tx: CswRedeemTx) -> Verdict:
        return self._redeem(tx)

    def resolve_redeem(self, tx: RedeemTx | CswRedeemTx) -> tuple:
        """The block root and the posting ``verify_redeem`` checks the
        evidence of ``tx`` against, found by key: the withdrawal a CSW
        redeem's csw_ref names, else the certificate the sending chain
        finalized in the named block. None where there is none."""
        block = self.mainchain.block_by_hash(tx.proof.block_hash)
        if isinstance(tx, CswRedeemTx):
            inclusion = self.mainchain.csw_inclusion(*tx.csw_ref)
            posting = None if inclusion is None else inclusion[0]
        else:
            posting = self.mainchain.certificate_in(tx.message.sending_sc_id, tx.proof.block_hash)
        return (None if block is None else block.stc_root), posting

    def _redeem(self, tx: RedeemTx | CswRedeemTx) -> Verdict:
        # A replay is refused before its evidence is resolved. The set holds
        # only messages this chain accepted, all naming it as receiver, so
        # the order changes no verdict but that of a replay with bad evidence.
        message, payload = tx.message, tx.payload
        digest = message_digest(message)
        if digest in self.redeemed:
            return Verdict.rejected(v.ALREADY_REDEEMED)
        if not verify_redeem(*self.resolve_redeem(tx), message, payload, tx.proof):
            return Verdict.rejected(v.PROOF_INVALID, rule=RULE_PROOF)
        if message.receiving_sc_id != self.sc_id:
            return Verdict.rejected(v.WRONG_RECEIVING_CHAIN)
        if not verify_sig(message.receiver_id, redeem_auth_digest(message, payload), tx.receiver_signature):
            return Verdict.rejected(v.BAD_RECEIVER_AUTH, rule=RULE_RECEIVER_AUTH)
        handler = self.handlers.get(message.msg_type)
        if handler is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_UNREGISTERED_TYPE)
        # verify_redeem has checked the payload against its hash.
        parsed = handler.parse(payload, message.payload_hash)
        if parsed is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_MALFORMED_PAYLOAD)
        rule = handler.validate_redeem(parsed, message, tx.sender_sig)
        if rule is not None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=rule)
        handler.apply_redeem(parsed, message)
        self.redeemed.add(digest)
        return Verdict.ok()

    # -- ceased-sidechain withdrawals ---------------------------------------------

    def finalized_epoch(self) -> ClosedEpoch:
        """Archive entry matching the settlement chain's last finalized
        certificate; withdrawal claims must be proven against it."""
        record = self.mainchain.record(self.sc_id)
        if record.last_epoch is None:
            raise EntityNotInState("no epoch was ever finalized for this sidechain")
        return self.epochs[record.last_epoch]

    def build_message_withdrawal(
        self,
        entity_bytes: bytes,
        message: CscpMessage,
        receiver: PubKey,
        claim_kind: ClaimKind = ClaimKind.PAYLOAD_ENTITY,
        return_evidence: ReturnEvidence | None = None,
    ) -> CeasedSidechainWithdrawal:
        """Withdrawal evidence for an entity of the final committed state,
        carrying a message redeemable on its receiving chain; the withdrawal
        itself moves amount zero.

        Statement checks beyond the bundle's own folding (claimed entity in
        state, message commits to entity) are raised by the prover; the
        settlement chain independently re-verifies on submission.
        """
        closed = self.finalized_epoch()
        claim = CswClaim(
            kind=claim_kind,
            entity_bytes=entity_bytes,
            committed=closed.committed,
            anchor=anchor_of(self.mainchain, self.sc_id, self.mainchain.record(self.sc_id).last_epoch),
            message=message,
            return_evidence=return_evidence,
        )
        nullifier = csw_nullifier(self.sc_id, hash_bytes(entity_bytes))
        proofdata = claim_proofdata(claim)
        public_input = make_csw_input(
            last_cert_block_hash=self.mainchain.csw_anchor_hash(self.sc_id),
            nullifier=nullifier,
            receiver=receiver,
            amount=0,
            proofdata=proofdata,
        )
        proof = prove_csw(self.csw_signer, self.sc_id, public_input, claim)
        return CeasedSidechainWithdrawal(
            ledger_id=self.sc_id,
            receiver=receiver,
            amount=0,
            nullifier=nullifier,
            proofdata=proofdata,
            proof=proof,
        )

    # -- inspection -----------------------------------------------------------------

    def dump_state(self) -> dict:
        return {
            "sc_id": self.sc_id,
            "label": self.label,
            "redeemed": sorted(d.hex() for d in self.redeemed),
            "outbox": [
                {"message": to_json(m), "payload": p.hex()} for m, p in self.outbox
            ],
            "epochs_closed": len(self.epochs),
            "handlers": {str(t): h.dump() for t, h in sorted(self.handlers.items())},
        }


class ByzantineSidechain(Sidechain):
    """Sidechain whose operator commits arbitrary messages: fabricated sends
    bypass every send-side check and touch no handler state, but still end up
    in the epoch tree and the signed certificate."""

    def fabricate_send(self, message: CscpMessage, payload: bytes) -> None:
        self.outbox.append((message, payload))
