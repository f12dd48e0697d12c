"""Sidechain message layer: send queueing, epoch close, redeem validation.

A sidechain buffers accepted sends in the current epoch's outbox. Closing an
epoch builds the message tree, commits its root (plus the committed-state
root) into a withdrawal certificate, and submits it to the settlement chain;
the outbox and application snapshots are archived per epoch so redeem and
withdrawal evidence can be built later.

A redeem checks replay protection before anything else: a message whose
digest is in the chain's persistent redeemed set is refused before its
evidence is looked at, so a replay that also carries a broken proof gets
``AlreadyRedeemed``. Then the evidence is verified against the settlement
chain, the receiving chain and the receiver's authorization are checked,
and type-specific validation goes to the handler registered for the
message type.

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
from .encoding import canonical_digest, to_json
from .hashing import Digest, MerkleTree, build_merkle, hash_bytes
from .journal import JournalDict, JournalList, JournalSet
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
    SourceKind,
    anchor_of,
    claim_proofdata,
    csw_nullifier,
    make_csw_input,
    make_wcert_input,
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
    only called after the matching validate_* accepted.
    """

    def parse(self, payload: bytes, payload_hash: Digest) -> object | None: ...

    def validate_send(self, parsed, message: CscpMessage, signature: Signature) -> str | None: ...

    def apply_send(self, parsed, message: CscpMessage) -> None: ...

    def validate_redeem(self, parsed, message: CscpMessage, sender_sig: Signature) -> str | None: ...

    def apply_redeem(self, parsed, message: CscpMessage) -> None: ...

    def state_digests(self) -> list[Digest]: ...

    def snapshot(self): ...

    def dump(self) -> dict: ...


@dataclass(frozen=True)
class ClosedEpoch:
    """Archived epoch: its messages, their tree, the committed application
    state, and per-handler snapshots taken at close."""

    epoch_id: int
    messages: tuple[tuple[CscpMessage, bytes], ...]
    tree: MerkleTree
    committed: CommittedState
    snapshots: dict[int, object]
    submitted_cert: WithdrawalCertificate


class Sidechain:
    def __init__(
        self,
        mainchain: Mainchain,
        sc_id: int,
        wcert_signer: KeyPair,
        csw_signer: KeyPair,
        label: str = "",
    ) -> None:
        self.mainchain = mainchain
        self.sc_id = sc_id
        self.label = label or f"sc{sc_id}"
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
            record = self.mainchain.record(self.sc_id)
            end = record.epoch_end(epoch)
            if end > self.mainchain.tip_height:
                # The epoch has not ended, so its anchor block does not exist
                # yet. Pin the tip instead: the settlement chain rejects the
                # submission as out-of-window before examining the proof.
                last_block_hash = self.mainchain.tip.hash
            else:
                last_block_hash = self.mainchain.get_block(end).hash
        proofdata = (tree.root, committed.root)
        public_input = make_wcert_input(quality, (), last_block_hash, proofdata)
        proof = prove_wcert(self.wcert_signer, public_input, (), proofdata)
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

        On acceptance the outbox and handler snapshots are archived and a new
        empty epoch opens; on rejection nothing changes and the caller may
        retry."""
        tree = self.current_message_tree()
        committed = self.current_committed_state()
        cert = self._certify(tree, committed, quality)
        verdict = self.mainchain.submit_certificate(cert)
        if verdict.accepted:
            self.epochs.append(
                ClosedEpoch(
                    epoch_id=cert.epoch_id,
                    messages=tuple(self.outbox),
                    tree=tree,
                    committed=committed,
                    snapshots={t: h.snapshot() for t, h in sorted(self.handlers.items())},
                    submitted_cert=cert,
                )
            )
            self.outbox.clear()
        return cert, verdict

    # -- redeeming ----------------------------------------------------------------

    def accept_redeem(self, tx: RedeemTx) -> Verdict:
        if tx.proof.source_kind is not SourceKind.CERTIFICATE:
            return Verdict.rejected(v.PROOF_INVALID, rule=RULE_PROOF)
        return self._redeem(tx.message, tx.payload, tx.proof, tx.sender_sig, tx.receiver_signature)

    def accept_csw_redeem(self, tx: CswRedeemTx) -> Verdict:
        ceased_sc_id, nullifier = tx.csw_ref
        inclusion = self.mainchain.csw_inclusion(ceased_sc_id, nullifier)
        if inclusion is None:
            return Verdict.rejected(v.CSW_NOT_FOUND)
        csw, _block_hash = inclusion
        if tx.proof.source_kind is not SourceKind.CSW:
            return Verdict.rejected(v.PROOF_INVALID, rule=RULE_PROOF)
        if tx.proof.commitment_path.posting_digest != canonical_digest(csw):
            return Verdict.rejected(v.PROOF_INVALID, rule=RULE_PROOF)
        return self._redeem(tx.message, tx.payload, tx.proof, tx.sender_sig, tx.receiver_signature)

    def _redeem(self, message, payload, proof, sender_sig, receiver_signature) -> Verdict:
        # A replay is refused before its proof is verified. The set holds
        # only messages this chain accepted, all naming it as receiver, so
        # the order changes no verdict but that of a replay with a bad proof.
        digest = message_digest(message)
        if digest in self.redeemed:
            return Verdict.rejected(v.ALREADY_REDEEMED)
        if not verify_redeem(self.mainchain, message, payload, proof):
            return Verdict.rejected(v.PROOF_INVALID, rule=RULE_PROOF)
        if message.receiving_sc_id != self.sc_id:
            return Verdict.rejected(v.WRONG_RECEIVING_CHAIN)
        if not verify_sig(message.receiver_id, redeem_auth_digest(message, payload), receiver_signature):
            return Verdict.rejected(v.BAD_RECEIVER_AUTH, rule=RULE_RECEIVER_AUTH)
        handler = self.handlers.get(message.msg_type)
        if handler is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_UNREGISTERED_TYPE)
        # verify_redeem has checked the payload against its hash.
        parsed = handler.parse(payload, message.payload_hash)
        if parsed is None:
            return Verdict.rejected(v.HANDLER_REJECTED, rule=RULE_MALFORMED_PAYLOAD)
        rule = handler.validate_redeem(parsed, message, sender_sig)
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
            anchor=anchor_of(self.mainchain, self.sc_id, closed.epoch_id),
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
