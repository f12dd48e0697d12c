"""Token transfer handler: instances, sent-record accounting, ceased flows.

Tokens live as discrete instances keyed by the digest of their canonical
encoding, like outputs in a UTXO ledger. Sending burns the instance locally
and queues a message wrapping its bytes; redeeming on the receiving chain
mints a copy owned by the message's receiver. Issuers keep sent records per
counterparty chain so returns can never exceed what was sent; instances of a
foreign issuer may only be sent back to that issuer.

The variant field selects deliberately weakened rule sets (sent records
without counterparty tracking, no sent records, third-party transfers with
issuer notification) used by the harness to demonstrate why the standard
rules are shaped the way they are. Standard is the default everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import encoding as enc
from .encoding import ByteReader, DecodeError, canonical_digest
from .hashing import Digest, hash_bytes, merkle_path
from .journal import JournalDict, JournalSet
from .keys import KeyPair, PubKey, Signature, verify_sig
from .messages import (
    CeasedSidechainWithdrawal,
    CscpMessage,
    MSG_TYPE_TOKEN_TRANSFER,
    message_digest,
)
from .proofs import CertificateNotConfirmed, ClaimKind, EntityNotInState, ReturnEvidence

VARIANT_STANDARD = "standard"
VARIANT_NO_RECEIVER_TRACKING = "no_receiver_tracking"
VARIANT_NO_SENT_RECORDS = "no_sent_records"
VARIANT_ISSUER_NOTIFICATION = "issuer_notification"
VARIANTS = (
    VARIANT_STANDARD,
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_ISSUER_NOTIFICATION,
)

# Sentinel counterparty used when the variant drops receiver tracking.
ANY_COUNTERPARTY = 0


class NameConflict(Exception):
    """Token name already registered with different fungibility or issuer."""


class DuplicateTokenId(Exception):
    """Non-fungible token id was already issued under this name."""


class ZeroAmount(Exception):
    """Fungible issuance or instance with a non-positive amount."""


class NoSentRecord(Exception):
    """No sent record covers the claimed return."""


class AmountExceedsSent(Exception):
    """Claimed return is larger than the recorded sent amount."""


class NotOwner(Exception):
    """Caller's key does not own the instance."""


@dataclass(frozen=True)
class TokenInstance:
    """One non-fungible token or one parcel of fungible tokens."""

    token_name: str
    fungibility: bool
    issuer_sc_id: int
    owner: PubKey
    data_hash: Digest
    amount: int | None = None
    token_id: int | None = None

    def __post_init__(self) -> None:
        if self.fungibility:
            if self.amount is None or self.token_id is not None:
                raise ValueError("fungible instance carries an amount and no token id")
            if self.amount <= 0:
                raise ValueError("fungible amount must be positive")
        else:
            if self.token_id is None or self.amount is not None:
                raise ValueError("non-fungible instance carries a token id and no amount")
            if self.token_id < 0:
                raise ValueError("token id must be nonnegative")

    def encode(self) -> bytes:
        units = self.amount if self.fungibility else self.token_id
        return (
            enc.enc_u8(enc.TAG_TOKEN_INSTANCE)
            + enc.enc_str(self.token_name)
            + enc.enc_bool(self.fungibility)
            + enc.enc_u64(units)
            + enc.enc_u32(self.issuer_sc_id)
            + bytes(self.owner)
            + enc.enc_digest(self.data_hash)
        )

    def to_json(self) -> dict:
        out: dict = {
            "token_name": self.token_name,
            "fungibility": self.fungibility,
            "issuer_sc_id": self.issuer_sc_id,
            "owner": self.owner.hex(),
            "data_hash": self.data_hash.hex(),
        }
        if self.fungibility:
            out["amount"] = self.amount
        else:
            out["token_id"] = self.token_id
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TokenInstance":
        return cls(
            token_name=obj["token_name"],
            fungibility=bool(obj["fungibility"]),
            issuer_sc_id=int(obj["issuer_sc_id"]),
            owner=PubKey(bytes.fromhex(obj["owner"])),
            data_hash=Digest(bytes.fromhex(obj["data_hash"])),
            amount=int(obj["amount"]) if obj.get("amount") is not None else None,
            token_id=int(obj["token_id"]) if obj.get("token_id") is not None else None,
        )


def decode_token_instance(data: bytes) -> TokenInstance:
    reader = ByteReader(data)
    reader.expect_tag(enc.TAG_TOKEN_INSTANCE)
    token_name = reader.string()
    fungibility = reader.boolean()
    units = reader.u64()
    instance = TokenInstance(
        token_name=token_name,
        fungibility=fungibility,
        issuer_sc_id=reader.u32(),
        owner=PubKey(reader.take(32)),
        data_hash=reader.digest(),
        amount=units if fungibility else None,
        token_id=None if fungibility else units,
    )
    reader.finish()
    return instance


@dataclass(frozen=True)
class SentRecord:
    """Issuer-side account of own tokens sent to one counterparty chain."""

    receiver_sc_id: int
    token_name: str
    fungibility: bool
    amount: int | None = None
    token_id: int | None = None

    def __post_init__(self) -> None:
        if self.fungibility:
            if self.amount is None or self.amount <= 0 or self.token_id is not None:
                raise ValueError("fungible sent record carries a positive amount only")
        elif self.token_id is None or self.amount is not None:
            raise ValueError("non-fungible sent record carries a token id only")

    def encode(self) -> bytes:
        units = self.amount if self.fungibility else self.token_id
        return (
            enc.enc_u8(enc.TAG_SENT_RECORD)
            + enc.enc_u32(self.receiver_sc_id)
            + enc.enc_str(self.token_name)
            + enc.enc_bool(self.fungibility)
            + enc.enc_u64(units)
        )

    def to_json(self) -> dict:
        out: dict = {
            "receiver_sc_id": self.receiver_sc_id,
            "token_name": self.token_name,
            "fungibility": self.fungibility,
        }
        if self.fungibility:
            out["amount"] = self.amount
        else:
            out["token_id"] = self.token_id
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SentRecord":
        return cls(
            receiver_sc_id=int(obj["receiver_sc_id"]),
            token_name=obj["token_name"],
            fungibility=bool(obj["fungibility"]),
            amount=int(obj["amount"]) if obj.get("amount") is not None else None,
            token_id=int(obj["token_id"]) if obj.get("token_id") is not None else None,
        )


def decode_sent_record(data: bytes) -> SentRecord:
    reader = ByteReader(data)
    reader.expect_tag(enc.TAG_SENT_RECORD)
    receiver_sc_id = reader.u32()
    token_name = reader.string()
    fungibility = reader.boolean()
    units = reader.u64()
    record = SentRecord(
        receiver_sc_id=receiver_sc_id,
        token_name=token_name,
        fungibility=fungibility,
        amount=units if fungibility else None,
        token_id=None if fungibility else units,
    )
    reader.finish()
    return record


class TokenNameRegistry:
    """Simulation-wide registry pinning each token name to one fungibility
    and one issuing sidechain."""

    def __init__(self) -> None:
        self._names: JournalDict[str, tuple[bool, int]] = JournalDict()

    def register(self, name: str, fungibility: bool, issuer_sc_id: int) -> None:
        existing = self._names.get(name)
        if existing is None:
            self._names[name] = (fungibility, issuer_sc_id)
            return
        if existing != (fungibility, issuer_sc_id):
            raise NameConflict(
                f"token name {name!r} is already registered as "
                f"fungibility={existing[0]} issuer={existing[1]}"
            )

    def lookup(self, name: str) -> tuple[bool, int] | None:
        return self._names.get(name)

    def names(self) -> list[str]:
        return sorted(self._names)

    def dump(self) -> dict:
        return {
            name: {"fungibility": fung, "issuer_sc_id": issuer}
            for name, (fung, issuer) in sorted(self._names.items())
        }


def _record_key(record: SentRecord) -> tuple:
    if record.fungibility:
        return ("f", record.receiver_sc_id, record.token_name)
    return ("n", record.token_name, record.token_id)


def _split_child_hash(parent: Digest, amount: int, index: int) -> Digest:
    return hash_bytes(b"split" + parent + enc.enc_u64(amount) + enc.enc_u8(index))


@dataclass
class MittoState:
    """One sidechain's token ledger: held instances and issuer sent records."""

    sc_id: int
    registry: TokenNameRegistry
    variant: str = VARIANT_STANDARD
    s_tks: JournalDict[Digest, TokenInstance] = field(default_factory=JournalDict)
    s_sent: JournalDict[tuple, SentRecord] = field(default_factory=JournalDict)
    issued_totals: JournalDict[str, int] = field(default_factory=JournalDict)
    issued_token_ids: JournalSet[tuple[str, int]] = field(default_factory=JournalSet)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown rule variant {self.variant!r}")

    # -- issuance ------------------------------------------------------------

    def issue(
        self,
        token_name: str,
        fungibility: bool,
        owner: PubKey,
        data_hash: Digest,
        amount: int | None = None,
        token_id: int | None = None,
    ) -> TokenInstance:
        if fungibility and (amount is None or amount <= 0):
            raise ZeroAmount(f"cannot issue {amount!r} of {token_name!r}")
        if not fungibility and (token_name, token_id) in self.issued_token_ids:
            raise DuplicateTokenId(f"{token_name!r} id {token_id} was already issued")
        self.registry.register(token_name, fungibility, self.sc_id)
        instance = TokenInstance(
            token_name=token_name,
            fungibility=fungibility,
            issuer_sc_id=self.sc_id,
            owner=owner,
            data_hash=data_hash,
            amount=amount if fungibility else None,
            token_id=None if fungibility else token_id,
        )
        self.s_tks[canonical_digest(instance)] = instance
        self.issued_totals[token_name] = self.issued_totals.get(token_name, 0) + (
            amount if fungibility else 1
        )
        if not fungibility:
            self.issued_token_ids.add((token_name, token_id))
        return instance

    # -- sending -------------------------------------------------------------

    def validate_send(self, instance: TokenInstance, message: CscpMessage, signature: Signature) -> str | None:
        if canonical_digest(instance) not in self.s_tks:
            return "send-1"
        if self.variant != VARIANT_ISSUER_NOTIFICATION:
            if instance.issuer_sc_id != self.sc_id and message.receiving_sc_id != instance.issuer_sc_id:
                return "send-2"
        if message.sending_sc_id != self.sc_id:
            return "send-3a"
        if message.receiving_sc_id == self.sc_id:
            return "send-3b"
        if message.msg_type != MSG_TYPE_TOKEN_TRANSFER:
            return "send-3c"
        if message.sender_id != instance.owner:
            return "send-3d"
        if message.payload_hash != canonical_digest(instance):
            return "send-3e"
        if self._record_overflows(instance, message):
            return "send-5"
        if not verify_sig(instance.owner, message_digest(message), signature):
            return "send-4"
        return None

    def _counterparty(self, sc_id: int) -> int:
        """Whom a sent record names for chain ``sc_id`` under this variant."""
        return ANY_COUNTERPARTY if self.variant == VARIANT_NO_RECEIVER_TRACKING else sc_id

    def _record_overflows(self, instance: TokenInstance, message: CscpMessage) -> bool:
        """Would sending this own-issued fungible instance merge into a sent
        record of more than u64 units (which no record can encode)?"""
        if not instance.fungibility or instance.issuer_sc_id != self.sc_id or self.variant == VARIANT_NO_SENT_RECORDS:
            return False
        existing = self.s_sent.get(("f", self._counterparty(message.receiving_sc_id), instance.token_name))
        return existing is not None and existing.amount + instance.amount > enc.U64_MAX

    def apply_send(self, instance: TokenInstance, message: CscpMessage) -> None:
        del self.s_tks[canonical_digest(instance)]
        if instance.issuer_sc_id != self.sc_id or self.variant == VARIANT_NO_SENT_RECORDS:
            return
        counterparty = self._counterparty(message.receiving_sc_id)
        if not instance.fungibility:
            record = SentRecord(
                receiver_sc_id=counterparty,
                token_name=instance.token_name,
                fungibility=False,
                token_id=instance.token_id,
            )
            self.s_sent[_record_key(record)] = record
            return
        key = ("f", counterparty, instance.token_name)
        existing = self.s_sent.get(key)
        total = instance.amount + (existing.amount if existing else 0)
        self.s_sent[key] = SentRecord(
            receiver_sc_id=counterparty,
            token_name=instance.token_name,
            fungibility=True,
            amount=total,
        )

    # -- redeeming -------------------------------------------------------------

    def validate_redeem(self, instance: TokenInstance, message: CscpMessage, sender_sig: Signature) -> str | None:
        if instance.issuer_sc_id != message.sending_sc_id and instance.issuer_sc_id != self.sc_id:
            return "redeem-1"
        if instance.issuer_sc_id == self.sc_id and self.variant != VARIANT_NO_SENT_RECORDS:
            counterparty = self._counterparty(message.sending_sc_id)
            if instance.fungibility:
                record = self.s_sent.get(("f", counterparty, instance.token_name))
                if record is None or record.amount < instance.amount:
                    return "redeem-2a"
            else:
                record = self.s_sent.get(("n", instance.token_name, instance.token_id))
                if record is None or record.receiver_sc_id != counterparty:
                    return "redeem-2b"
        if not instance.fungibility:
            for held in self.s_tks.values():
                if held.token_name == instance.token_name and held.token_id == instance.token_id:
                    return "redeem-3"
        if message.sending_sc_id == self.sc_id:
            return "redeem-4a"
        if message.receiving_sc_id != self.sc_id:
            return "redeem-4b"
        if message.msg_type != MSG_TYPE_TOKEN_TRANSFER:
            return "redeem-4c"
        if message.sender_id != instance.owner:
            return "redeem-4d"
        if message.payload_hash != canonical_digest(instance):
            return "redeem-4e"
        if not verify_sig(message.sender_id, message_digest(message), sender_sig):
            return "redeem-5"
        return None

    def apply_redeem(self, instance: TokenInstance, message: CscpMessage) -> None:
        minted = replace(instance, owner=message.receiver_id)
        self.s_tks[canonical_digest(minted)] = minted
        if instance.issuer_sc_id != self.sc_id or self.variant == VARIANT_NO_SENT_RECORDS:
            return
        counterparty = self._counterparty(message.sending_sc_id)
        if not instance.fungibility:
            del self.s_sent[("n", instance.token_name, instance.token_id)]
            return
        key = ("f", counterparty, instance.token_name)
        record = self.s_sent[key]
        remaining = record.amount - instance.amount
        if remaining == 0:
            del self.s_sent[key]
        else:
            self.s_sent[key] = replace(record, amount=remaining)

    # -- issuer-notification variant -------------------------------------------

    def apply_notification(
        self,
        from_sc_id: int,
        to_sc_id: int,
        token_name: str,
        amount: int | None = None,
        token_id: int | None = None,
    ) -> bool:
        """Reassign sent-record accounting after a (claimed) third-party
        transfer. Deliberately unauthenticated: this is the weakness the
        issuer-notification variant exists to demonstrate."""
        if self.variant != VARIANT_ISSUER_NOTIFICATION:
            raise ValueError("notifications only apply to the issuer-notification variant")
        if amount is not None:
            source_key = ("f", from_sc_id, token_name)
            target_key = ("f", to_sc_id, token_name)
            source = self.s_sent.get(source_key)
            if source is None or source.amount < amount:
                return False
            target = self.s_sent.get(target_key)
            if target_key != source_key and target is not None and target.amount + amount > enc.U64_MAX:
                return False
            if source.amount == amount:
                del self.s_sent[source_key]
            else:
                self.s_sent[source_key] = replace(source, amount=source.amount - amount)
            existing = self.s_sent.get(target_key)
            total = amount + (existing.amount if existing else 0)
            self.s_sent[target_key] = SentRecord(
                receiver_sc_id=to_sc_id, token_name=token_name, fungibility=True, amount=total
            )
            return True
        key = ("n", token_name, token_id)
        record = self.s_sent.get(key)
        if record is None or record.receiver_sc_id != from_sc_id:
            return False
        self.s_sent[key] = replace(record, receiver_sc_id=to_sc_id)
        return True

    # -- local wallet plumbing ----------------------------------------------------

    def split(self, instance_digest: Digest, amount: int) -> tuple[TokenInstance, TokenInstance]:
        """Split a held fungible instance in two, deterministically."""
        instance = self.s_tks.get(instance_digest)
        if instance is None:
            raise EntityNotInState(instance_digest.hex())
        if not instance.fungibility:
            raise ValueError("cannot split a non-fungible instance")
        if not 0 < amount < instance.amount:
            raise ValueError(f"split amount {amount} outside (0, {instance.amount})")
        first = replace(
            instance, amount=amount, data_hash=_split_child_hash(instance.data_hash, amount, 0)
        )
        rest = instance.amount - amount
        second = replace(
            instance, amount=rest, data_hash=_split_child_hash(instance.data_hash, rest, 1)
        )
        del self.s_tks[instance_digest]
        self.s_tks[canonical_digest(first)] = first
        self.s_tks[canonical_digest(second)] = second
        return first, second

    def merge(self, instance_digests: list[Digest]) -> TokenInstance:
        """Merge held fungible instances of one name and owner into one."""
        if len(instance_digests) < 2:
            raise ValueError("merge needs at least two instances")
        parents = []
        for digest in instance_digests:
            instance = self.s_tks.get(digest)
            if instance is None:
                raise EntityNotInState(digest.hex())
            parents.append(instance)
        head = parents[0]
        if not all(
            p.fungibility and p.token_name == head.token_name and p.owner == head.owner
            and p.issuer_sc_id == head.issuer_sc_id
            for p in parents
        ):
            raise ValueError("merge needs fungible instances of one name and owner")
        total = sum(p.amount for p in parents)
        if total > enc.U64_MAX:
            raise ValueError(f"merged amount {total} exceeds u64")
        merged_hash = hash_bytes(b"merge" + b"".join(sorted(bytes(d) for d in instance_digests)))
        merged = replace(head, amount=total, data_hash=merged_hash)
        for digest in instance_digests:
            del self.s_tks[digest]
        self.s_tks[canonical_digest(merged)] = merged
        return merged

    # -- snapshots and dumps ---------------------------------------------------------

    def entity_digests(self) -> list[Digest]:
        digests = list(self.s_tks.keys())
        digests.extend(canonical_digest(record) for record in self.s_sent.values())
        return digests

    def clone(self) -> "MittoState":
        return MittoState(
            sc_id=self.sc_id,
            registry=self.registry,
            variant=self.variant,
            s_tks=JournalDict(self.s_tks),
            s_sent=JournalDict(self.s_sent),
            issued_totals=JournalDict(self.issued_totals),
            issued_token_ids=JournalSet(self.issued_token_ids),
        )

    def dump(self) -> dict:
        instances = []
        for digest in sorted(self.s_tks):
            entry = self.s_tks[digest].to_json()
            entry["digest"] = digest.hex()
            instances.append(entry)
        return {
            "sc_id": self.sc_id,
            "variant": self.variant,
            "s_tks": instances,
            "s_sent": [self.s_sent[key].to_json() for key in sorted(self.s_sent)],
            "issued": dict(sorted(self.issued_totals.items())),
            "registry": self.registry.dump(),
        }

    @classmethod
    def from_dump(cls, obj: dict) -> "MittoState":
        registry = TokenNameRegistry()
        for name, entry in obj.get("registry", {}).items():
            registry.register(name, bool(entry["fungibility"]), int(entry["issuer_sc_id"]))
        state = cls(
            sc_id=int(obj["sc_id"]),
            registry=registry,
            variant=obj.get("variant", VARIANT_STANDARD),
        )
        for entry in obj.get("s_tks", []):
            instance = TokenInstance.from_json(entry)
            state.s_tks[canonical_digest(instance)] = instance
        for entry in obj.get("s_sent", []):
            record = SentRecord.from_json(entry)
            state.s_sent[_record_key(record)] = record
        state.issued_totals.update((name, int(total)) for name, total in obj.get("issued", {}).items())
        for entry in obj.get("s_tks", []):
            if entry.get("token_id") is not None:
                state.issued_token_ids.add((entry["token_name"], int(entry["token_id"])))
        return state


class TokenTransferHandler:
    """Adapter registering a MittoState under the token-transfer message type."""

    def __init__(self, state: MittoState) -> None:
        self.state = state

    def _decode(self, payload: bytes) -> TokenInstance | None:
        try:
            return decode_token_instance(payload)
        except (DecodeError, ValueError):
            return None

    def validate_send(self, message: CscpMessage, payload: bytes, signature: Signature) -> str | None:
        instance = self._decode(payload)
        if instance is None:
            return "malformed-payload"
        return self.state.validate_send(instance, message, signature)

    def apply_send(self, message: CscpMessage, payload: bytes) -> None:
        self.state.apply_send(decode_token_instance(payload), message)

    def validate_redeem(self, message: CscpMessage, payload: bytes, sender_sig: Signature) -> str | None:
        instance = self._decode(payload)
        if instance is None:
            return "malformed-payload"
        return self.state.validate_redeem(instance, message, sender_sig)

    def apply_redeem(self, message: CscpMessage, payload: bytes) -> None:
        self.state.apply_redeem(decode_token_instance(payload), message)

    def state_digests(self) -> list[Digest]:
        return self.state.entity_digests()

    def snapshot(self) -> MittoState:
        return self.state.clone()

    def dump(self) -> dict:
        return self.state.dump()


# ---------------------------------------------------------------------------
# Ceased-sidechain token flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CswPackage:
    """Everything needed to submit a withdrawal and redeem its message:
    the withdrawal itself, the embedded message with its payload, and the
    owner's signature the receiving chain checks as the sender rule."""

    csw: CeasedSidechainWithdrawal
    message: CscpMessage
    payload: bytes
    sender_sig: Signature
    consumed_return: Digest | None = None


def _final_token_state(sidechain) -> MittoState:
    snapshot = sidechain.finalized_epoch().snapshots.get(MSG_TYPE_TOKEN_TRANSFER)
    if snapshot is None:
        raise EntityNotInState("sidechain has no token state in its final epoch")
    return snapshot


def _withdraw_instance(sidechain, owner: KeyPair, instance: TokenInstance, target_sc_id: int, receiver_id: PubKey) -> CswPackage:
    payload = instance.encode()
    message = CscpMessage(
        sending_sc_id=sidechain.sc_id,
        receiving_sc_id=target_sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=instance.owner,
        receiver_id=receiver_id,
        payload_hash=hash_bytes(payload),
    )
    sender_sig = owner.sign(message_digest(message))
    csw = sidechain.build_message_withdrawal(payload, message, receiver=owner.public)
    return CswPackage(csw=csw, message=message, payload=payload, sender_sig=sender_sig)


def withdraw_native_held(
    sidechain,
    owner: KeyPair,
    instance_digest: Digest,
    target_sc_id: int,
    receiver_id: PubKey,
) -> CswPackage:
    """Withdraw an own-issued instance held on the ceased chain at its final
    committed state, wrapping it in a message redeemable on the target."""
    state = _final_token_state(sidechain)
    instance = state.s_tks.get(instance_digest)
    if instance is None:
        raise EntityNotInState(instance_digest.hex())
    if instance.owner != owner.public:
        raise NotOwner(f"instance belongs to {instance.owner.hex()}")
    if instance.issuer_sc_id != sidechain.sc_id:
        raise ValueError("instance has a foreign issuer, withdraw it toward the issuer instead")
    return _withdraw_instance(sidechain, owner, instance, target_sc_id, receiver_id)


def withdraw_foreign(
    sidechain,
    owner: KeyPair,
    instance_digest: Digest,
    receiver_id: PubKey,
) -> CswPackage:
    """Withdraw a foreign-issued instance from the ceased chain; the message
    is forced toward the issuer, the only chain that may accept it."""
    state = _final_token_state(sidechain)
    instance = state.s_tks.get(instance_digest)
    if instance is None:
        raise EntityNotInState(instance_digest.hex())
    if instance.owner != owner.public:
        raise NotOwner(f"instance belongs to {instance.owner.hex()}")
    if instance.issuer_sc_id == sidechain.sc_id:
        raise ValueError("instance is own-issued, use the native withdrawal")
    return _withdraw_instance(sidechain, owner, instance, instance.issuer_sc_id, receiver_id)


def withdraw_native_sent(
    ceased,
    holder,
    return_message: CscpMessage,
    return_payload: bytes,
    holder_epoch_id: int,
    owner: KeyPair,
    target_sc_id: int,
    receiver_id: PubKey,
) -> CswPackage:
    """Claim tokens a counterparty returned to the ceased issuer too late.

    The counterparty's return message is committed in its own finalized
    certificate but can never be redeemed on the ceased chain; the claim
    consumes the issuer's whole sent record for those tokens and forwards
    the returned instance to the target chain.
    """
    mainchain = ceased.mainchain
    instance = decode_token_instance(return_payload)
    if instance.owner != owner.public:
        raise NotOwner(f"returned instance belongs to {instance.owner.hex()}")

    state = _final_token_state(ceased)
    if instance.fungibility:
        record = state.s_sent.get(("f", return_message.sending_sc_id, instance.token_name))
        if record is None:
            raise NoSentRecord(f"nothing of {instance.token_name!r} was sent to chain {return_message.sending_sc_id}")
        if instance.amount > record.amount:
            raise AmountExceedsSent(f"claimed {instance.amount}, sent record covers {record.amount}")
    else:
        record = state.s_sent.get(("n", instance.token_name, instance.token_id))
        if record is None or record.receiver_sc_id != return_message.sending_sc_id:
            raise NoSentRecord(f"{instance.token_name!r} id {instance.token_id} was not sent to chain {return_message.sending_sc_id}")

    confirmed = mainchain.finalized_cert(holder.sc_id, holder_epoch_id)
    if confirmed is None:
        raise CertificateNotConfirmed(f"holder epoch {holder_epoch_id} is not finalized")
    holder_cert, holder_block_hash = confirmed
    tree, index = holder.archived_message_evidence(holder_epoch_id, return_message)
    if holder_cert.proofdata[0] != tree.root:
        raise CertificateNotConfirmed("finalized holder certificate commits a different epoch tree")
    evidence = ReturnEvidence(
        return_message=return_message,
        msg_path=merkle_path(tree, index),
        holder_cert=holder_cert,
        holder_stc_path=mainchain.stc_tree(holder_block_hash).cert_path(holder.sc_id),
        holder_header=mainchain.get_block(holder_block_hash).header,
        returned_instance_bytes=return_payload,
    )

    message = CscpMessage(
        sending_sc_id=ceased.sc_id,
        receiving_sc_id=target_sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=instance.owner,
        receiver_id=receiver_id,
        payload_hash=hash_bytes(return_payload),
    )
    sender_sig = owner.sign(message_digest(message))
    csw = ceased.build_message_withdrawal(
        record.encode(),
        message,
        receiver=owner.public,
        claim_kind=ClaimKind.SENT_RECORD,
        return_evidence=evidence,
    )
    return CswPackage(
        csw=csw,
        message=message,
        payload=return_payload,
        sender_sig=sender_sig,
        consumed_return=message_digest(return_message),
    )
