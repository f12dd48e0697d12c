"""Wire types: cross-chain messages, certificates, withdrawals, transactions.

Field order in every encode() follows the declaration order here; digests of
entities are SHA-256 over those canonical bytes. Structural invariants that
validation layers must be able to observe failing (a message sent to its own
chain, say) are deliberately not enforced in constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import encoding as enc
from .encoding import ByteReader
from .hashing import Digest, hash_bytes
from .keys import PubKey, Signature

if TYPE_CHECKING:
    from .proofs import RedeemProof

# msgType registry: 0 is reserved and never valid, token transfers are 1.
MSG_TYPE_INVALID = 0
MSG_TYPE_TOKEN_TRANSFER = 1

# Proof scheme registry.
SCHEME_SIM_MERKLE = 1


@dataclass(frozen=True)
class Proof:
    """Opaque proof carrier: a scheme id and that scheme's serialized evidence."""

    scheme_id: int
    body: bytes

    def encode(self) -> bytes:
        return enc.enc_u8(enc.TAG_PROOF) + enc.enc_u8(self.scheme_id) + enc.enc_bytes(self.body)

    def to_json(self) -> dict:
        return {"scheme_id": self.scheme_id, "body": self.body.hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "Proof":
        return cls(int(obj["scheme_id"]), bytes.fromhex(obj["body"]))


@dataclass(frozen=True)
class VerificationKey:
    """Per-sidechain verification key registered on the mainchain at creation.

    For the Merkle-evidence scheme, params is the raw 32-byte public key of
    the sidechain's proving identity.
    """

    scheme_id: int
    params: bytes

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_VERIFICATION_KEY)
            + enc.enc_u8(self.scheme_id)
            + enc.enc_bytes(self.params)
        )

    def to_json(self) -> dict:
        return {"scheme_id": self.scheme_id, "params": self.params.hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationKey":
        return cls(int(obj["scheme_id"]), bytes.fromhex(obj["params"]))


@dataclass(frozen=True)
class CscpMessage:
    """One cross-chain message. payload_hash commits to the payload carried
    alongside; sender_id authorizes the send, receiver_id the redeem."""

    sending_sc_id: int
    receiving_sc_id: int
    msg_type: int
    sender_id: PubKey
    receiver_id: PubKey
    payload_hash: Digest

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_MESSAGE)
            + enc.enc_u32(self.sending_sc_id)
            + enc.enc_u32(self.receiving_sc_id)
            + enc.enc_u32(self.msg_type)
            + bytes(self.sender_id)
            + bytes(self.receiver_id)
            + enc.enc_digest(self.payload_hash)
        )

    def to_json(self) -> dict:
        return {
            "sending_sc_id": self.sending_sc_id,
            "receiving_sc_id": self.receiving_sc_id,
            "msg_type": self.msg_type,
            "sender_id": self.sender_id.hex(),
            "receiver_id": self.receiver_id.hex(),
            "payload_hash": self.payload_hash.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CscpMessage":
        return cls(
            sending_sc_id=int(obj["sending_sc_id"]),
            receiving_sc_id=int(obj["receiving_sc_id"]),
            msg_type=int(obj["msg_type"]),
            sender_id=PubKey(bytes.fromhex(obj["sender_id"])),
            receiver_id=PubKey(bytes.fromhex(obj["receiver_id"])),
            payload_hash=Digest(bytes.fromhex(obj["payload_hash"])),
        )


def decode_message(reader: ByteReader) -> CscpMessage:
    reader.expect_tag(enc.TAG_MESSAGE)
    return CscpMessage(
        sending_sc_id=reader.u32(),
        receiving_sc_id=reader.u32(),
        msg_type=reader.u32(),
        sender_id=PubKey(reader.take(32)),
        receiver_id=PubKey(reader.take(32)),
        payload_hash=reader.digest(),
    )


def message_digest(message: CscpMessage) -> Digest:
    """Digest redeemed-sets and message trees key on."""
    return hash_bytes(message.encode())


def redeem_auth_digest(message: CscpMessage, payload: bytes) -> Digest:
    """What a receiver signs to claim a message and its payload."""
    return hash_bytes(message.encode() + payload)


@dataclass(frozen=True)
class WithdrawalCertificate:
    """Per-epoch sidechain commitment posted to the mainchain.

    proofdata index 0 is reserved for the epoch's message-tree root; this
    simulator's sidechains put their committed-state root at index 1.
    """

    ledger_id: int
    epoch_id: int
    quality: int
    bt_list: tuple[bytes, ...]
    proofdata: tuple[Digest, ...]
    proof: Proof

    def encode(self) -> bytes:
        parts = [
            enc.enc_u8(enc.TAG_CERTIFICATE),
            enc.enc_u32(self.ledger_id),
            enc.enc_u64(self.epoch_id),
            enc.enc_u64(self.quality),
            enc.enc_u32(len(self.bt_list)),
        ]
        parts.extend(enc.enc_bytes(bt) for bt in self.bt_list)
        parts.append(enc.enc_digest_list(self.proofdata))
        parts.append(self.proof.encode())
        return b"".join(parts)

    @property
    def message_tree_root(self) -> Digest:
        return self.proofdata[0]

    def to_json(self) -> dict:
        return {
            "ledger_id": self.ledger_id,
            "epoch_id": self.epoch_id,
            "quality": self.quality,
            "bt_list": [bt.hex() for bt in self.bt_list],
            "proofdata": [d.hex() for d in self.proofdata],
            "proof": self.proof.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WithdrawalCertificate":
        return cls(
            ledger_id=int(obj["ledger_id"]),
            epoch_id=int(obj["epoch_id"]),
            quality=int(obj["quality"]),
            bt_list=tuple(bytes.fromhex(bt) for bt in obj["bt_list"]),
            proofdata=tuple(Digest(bytes.fromhex(d)) for d in obj["proofdata"]),
            proof=Proof.from_json(obj["proof"]),
        )


def decode_certificate(reader: ByteReader) -> WithdrawalCertificate:
    reader.expect_tag(enc.TAG_CERTIFICATE)
    ledger_id = reader.u32()
    epoch_id = reader.u64()
    quality = reader.u64()
    bt_list = tuple(reader.raw_bytes() for _ in range(reader.u32()))
    proofdata = tuple(reader.digest_list())
    reader.expect_tag(enc.TAG_PROOF)
    proof = Proof(scheme_id=reader.u8(), body=reader.raw_bytes())
    return WithdrawalCertificate(ledger_id, epoch_id, quality, bt_list, proofdata, proof)


@dataclass(frozen=True)
class CeasedSidechainWithdrawal:
    """Withdrawal from a sidechain that stopped certifying.

    proofdata index 0 carries an embedded message digest when the withdrawal
    transports a message, EMPTY_ROOT otherwise; message-carrying withdrawals
    must have amount zero.
    """

    ledger_id: int
    receiver: PubKey
    amount: int
    nullifier: Digest
    proofdata: tuple[Digest, ...]
    proof: Proof

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_CSW)
            + enc.enc_u32(self.ledger_id)
            + bytes(self.receiver)
            + enc.enc_u64(self.amount)
            + enc.enc_digest(self.nullifier)
            + enc.enc_digest_list(self.proofdata)
            + self.proof.encode()
        )

    def to_json(self) -> dict:
        return {
            "ledger_id": self.ledger_id,
            "receiver": self.receiver.hex(),
            "amount": self.amount,
            "nullifier": self.nullifier.hex(),
            "proofdata": [d.hex() for d in self.proofdata],
            "proof": self.proof.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CeasedSidechainWithdrawal":
        return cls(
            ledger_id=int(obj["ledger_id"]),
            receiver=PubKey(bytes.fromhex(obj["receiver"])),
            amount=int(obj["amount"]),
            nullifier=Digest(bytes.fromhex(obj["nullifier"])),
            proofdata=tuple(Digest(bytes.fromhex(d)) for d in obj["proofdata"]),
            proof=Proof.from_json(obj["proof"]),
        )


def decode_csw(reader: ByteReader) -> CeasedSidechainWithdrawal:
    reader.expect_tag(enc.TAG_CSW)
    ledger_id = reader.u32()
    receiver = PubKey(reader.take(32))
    amount = reader.u64()
    nullifier = reader.digest()
    proofdata = tuple(reader.digest_list())
    reader.expect_tag(enc.TAG_PROOF)
    proof = Proof(scheme_id=reader.u8(), body=reader.raw_bytes())
    return CeasedSidechainWithdrawal(ledger_id, receiver, amount, nullifier, proofdata, proof)


@dataclass(frozen=True)
class BlockHeader:
    """The hashed part of a mainchain block: height, parent link, and the
    root committing all sidechain activity in the block."""

    height: int
    parent_hash: Digest
    stc_root: Digest

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_BLOCK_HEADER)
            + enc.enc_u64(self.height)
            + enc.enc_digest(self.parent_hash)
            + enc.enc_digest(self.stc_root)
        )

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "parent_hash": self.parent_hash.hex(),
            "stc_root": self.stc_root.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockHeader":
        return cls(
            height=int(obj["height"]),
            parent_hash=Digest(bytes.fromhex(obj["parent_hash"])),
            stc_root=Digest(bytes.fromhex(obj["stc_root"])),
        )


def decode_block_header(reader: ByteReader) -> BlockHeader:
    reader.expect_tag(enc.TAG_BLOCK_HEADER)
    return BlockHeader(height=reader.u64(), parent_hash=reader.digest(), stc_root=reader.digest())


@dataclass(frozen=True)
class SendTx:
    """Sidechain-local send: the message, its payload, and the sender's
    signature over the message digest."""

    message: CscpMessage
    payload: bytes
    signature: Signature

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_SEND_TX)
            + self.message.encode()
            + enc.enc_bytes(self.payload)
            + enc.enc_bytes(self.signature)
        )

    def to_json(self) -> dict:
        return {
            "message": self.message.to_json(),
            "payload": self.payload.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SendTx":
        return cls(
            message=CscpMessage.from_json(obj["message"]),
            payload=bytes.fromhex(obj["payload"]),
            signature=bytes.fromhex(obj["signature"]),
        )


@dataclass(frozen=True)
class RedeemTx:
    """Claim of a committed message on its receiving chain.

    sender_sig is the original send signature, observed from the sender
    chain's archived outbox; the receiving chain checks it under
    message.sender_id. receiver_signature covers message and payload
    together and must verify under message.receiver_id.
    """

    message: CscpMessage
    payload: bytes
    proof: "RedeemProof"
    sender_sig: Signature
    receiver_signature: Signature

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_REDEEM_TX)
            + self.message.encode()
            + enc.enc_bytes(self.payload)
            + self.proof.encode()
            + enc.enc_bytes(self.sender_sig)
            + enc.enc_bytes(self.receiver_signature)
        )

    def to_json(self) -> dict:
        return {
            "message": self.message.to_json(),
            "payload": self.payload.hex(),
            "proof": self.proof.to_json(),
            "sender_sig": self.sender_sig.hex(),
            "receiver_signature": self.receiver_signature.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RedeemTx":
        from .proofs import RedeemProof

        return cls(
            message=CscpMessage.from_json(obj["message"]),
            payload=bytes.fromhex(obj["payload"]),
            proof=RedeemProof.from_json(obj["proof"]),
            sender_sig=bytes.fromhex(obj["sender_sig"]),
            receiver_signature=bytes.fromhex(obj["receiver_signature"]),
        )


@dataclass(frozen=True)
class CswRedeemTx:
    """Claim of a message that left its ceased chain inside a withdrawal.

    csw_ref names the accepted withdrawal (ledger id and nullifier) the
    evidence must chain into.
    """

    message: CscpMessage
    payload: bytes
    proof: "RedeemProof"
    sender_sig: Signature
    receiver_signature: Signature
    csw_ref: tuple[int, Digest]

    def encode(self) -> bytes:
        return (
            enc.enc_u8(enc.TAG_CSW_REDEEM_TX)
            + self.message.encode()
            + enc.enc_bytes(self.payload)
            + self.proof.encode()
            + enc.enc_bytes(self.sender_sig)
            + enc.enc_bytes(self.receiver_signature)
            + enc.enc_u32(self.csw_ref[0])
            + enc.enc_digest(self.csw_ref[1])
        )

    def to_json(self) -> dict:
        return {
            "message": self.message.to_json(),
            "payload": self.payload.hex(),
            "proof": self.proof.to_json(),
            "sender_sig": self.sender_sig.hex(),
            "receiver_signature": self.receiver_signature.hex(),
            "csw_ref": {"sc_id": self.csw_ref[0], "nullifier": self.csw_ref[1].hex()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CswRedeemTx":
        from .proofs import RedeemProof

        ref = obj["csw_ref"]
        return cls(
            message=CscpMessage.from_json(obj["message"]),
            payload=bytes.fromhex(obj["payload"]),
            proof=RedeemProof.from_json(obj["proof"]),
            sender_sig=bytes.fromhex(obj["sender_sig"]),
            receiver_signature=bytes.fromhex(obj["receiver_signature"]),
            csw_ref=(int(ref["sc_id"]), Digest(bytes.fromhex(ref["nullifier"]))),
        )
