"""Wire types: cross-chain messages, certificates, withdrawals, transactions.

Each type's ``wire`` field list is its canonical encoding, in order (see
``encoding``); digests of entities are SHA-256 over those bytes. Structural
invariants that validation layers must be able to observe failing (a
message sent to its own chain, say) are deliberately not enforced in
constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import encoding as enc
from .encoding import (
    BYTES,
    BYTES_LIST,
    DIGEST,
    DIGEST_LIST,
    PUBKEY,
    U8,
    U32,
    U32_DIGEST,
    U64,
    nested,
    wire,
)
from .hashing import Digest, hash_bytes
from .keys import PubKey, Signature

if TYPE_CHECKING:
    from .proofs import RedeemProof

# msgType registry: 0 is reserved and never valid, token transfers are 1.
MSG_TYPE_TOKEN_TRANSFER = 1

# Proof scheme registry.
SCHEME_SIM_MERKLE = 1


@wire(enc.TAG_PROOF, ("scheme_id", U8), ("body", BYTES))
@dataclass(frozen=True)
class Proof:
    """Opaque proof carrier: a scheme id and that scheme's serialized evidence."""

    scheme_id: int
    body: bytes


@wire(enc.TAG_VERIFICATION_KEY, ("scheme_id", U8), ("params", BYTES))
@dataclass(frozen=True)
class VerificationKey:
    """Per-sidechain verification key registered on the mainchain at creation.

    For the Merkle-evidence scheme, params is the raw 32-byte public key of
    the sidechain's proving identity.
    """

    scheme_id: int
    params: bytes


@wire(
    enc.TAG_MESSAGE,
    ("sending_sc_id", U32),
    ("receiving_sc_id", U32),
    ("msg_type", U32),
    ("sender_id", PUBKEY),
    ("receiver_id", PUBKEY),
    ("payload_hash", DIGEST),
)
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


def message_digest(message: CscpMessage) -> Digest:
    """Digest redeemed-sets and message trees key on."""
    return hash_bytes(message.encode())


def redeem_auth_digest(message: CscpMessage, payload: bytes) -> Digest:
    """What a receiver signs to claim a message and its payload."""
    return hash_bytes(message.encode() + payload)


@wire(
    enc.TAG_CERTIFICATE,
    ("ledger_id", U32),
    ("epoch_id", U64),
    ("quality", U64),
    ("bt_list", BYTES_LIST),
    ("proofdata", DIGEST_LIST),
    ("proof", nested("Proof")),
)
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


@wire(
    enc.TAG_CSW,
    ("ledger_id", U32),
    ("receiver", PUBKEY),
    ("amount", U64),
    ("nullifier", DIGEST),
    ("proofdata", DIGEST_LIST),
    ("proof", nested("Proof")),
)
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


@wire(enc.TAG_BLOCK_HEADER, ("height", U64), ("parent_hash", DIGEST), ("stc_root", DIGEST))
@dataclass(frozen=True)
class BlockHeader:
    """The hashed part of a mainchain block: height, parent link, and the
    root committing all sidechain activity in the block."""

    height: int
    parent_hash: Digest
    stc_root: Digest


@wire(enc.TAG_SEND_TX, ("message", nested("CscpMessage")), ("payload", BYTES), ("signature", BYTES))
@dataclass(frozen=True)
class SendTx:
    """Sidechain-local send: the message, its payload, and the sender's
    signature over the message digest."""

    message: CscpMessage
    payload: bytes
    signature: Signature


@wire(
    enc.TAG_REDEEM_TX,
    ("message", nested("CscpMessage")),
    ("payload", BYTES),
    ("proof", nested("RedeemProof")),
    ("sender_sig", BYTES),
    ("receiver_signature", BYTES),
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


@wire(
    enc.TAG_CSW_REDEEM_TX,
    ("message", nested("CscpMessage")),
    ("payload", BYTES),
    ("proof", nested("RedeemProof")),
    ("sender_sig", BYTES),
    ("receiver_signature", BYTES),
    ("csw_ref", U32_DIGEST),
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
