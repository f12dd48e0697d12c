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
from .encoding import DIGEST, PUBKEY, STR, U32, UNITS, DecodeError, canonical_digest, to_json, wire
from .hashing import Digest, hash_bytes
from .journal import JournalDict, Journaled, JournalSet
from .keys import KeyPair, PubKey, Signature, verify_sig
from .messages import (
    CeasedSidechainWithdrawal,
    CscpMessage,
    CswRedeemTx,
    MSG_TYPE_TOKEN_TRANSFER,
    RedeemTx,
    message_digest,
    redeem_auth_digest,
)
from .proofs import (
    ClaimKind,
    EntityNotInState,
    EvidenceUnavailable,
    ReturnEvidence,
    anchor_of,
    build_csw_redeem_proof,
    build_redeem_proof,
    message_path,
)

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


class NoSentRecord(EvidenceUnavailable):
    """No sent record covers the claimed return."""


class AmountExceedsSent(EvidenceUnavailable):
    """Claimed return is larger than the recorded sent amount."""


class NotOwner(EvidenceUnavailable):
    """Caller's key does not own the instance."""


@wire(
    enc.TAG_TOKEN_INSTANCE,
    ("token_name", STR),
    (("fungibility", "amount", "token_id"), UNITS),
    ("issuer_sc_id", U32),
    ("owner", PUBKEY),
    ("data_hash", DIGEST),
)
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


@wire(
    enc.TAG_SENT_RECORD,
    ("receiver_sc_id", U32),
    ("token_name", STR),
    (("fungibility", "amount", "token_id"), UNITS),
)
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


class TokenNameRegistry(Journaled):
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

    def holds(self, name: str, fungibility: bool, issuer_sc_id: int) -> bool:
        """Is ``name`` registered with this fungibility and issuer?"""
        return self._names.get(name) == (fungibility, issuer_sc_id)

    def dump(self) -> dict:
        return {
            name: {"fungibility": fung, "issuer_sc_id": issuer}
            for name, (fung, issuer) in sorted(self._names.items())
        }


class Holdings(JournalDict):
    """A chain's held instances by digest, with two indexes kept up to date
    by the container's own writes: the digests of each NFT by (name,
    token_id), and the digests of every instance by (owner, name). An NFT id
    is held once on an honest chain, so its digests are a tuple, which
    costs a quarter of a set's memory."""

    __slots__ = ("by_id", "by_owner")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.by_id: dict[tuple[str, int], tuple[Digest, ...]] = {}
        self.by_owner: dict[tuple[PubKey, str], set[Digest]] = {}
        self._wrote(self)  # index the entries it starts with

    def _write(self, keys) -> None:
        super()._write(keys)
        for digest in keys:
            instance = self.get(digest)
            if instance is None:
                continue
            key = (instance.owner, instance.token_name)
            self.by_owner[key].discard(digest)
            if not self.by_owner[key]:
                del self.by_owner[key]
            if not instance.fungibility:
                key = (instance.token_name, instance.token_id)
                rest = tuple(d for d in self.by_id[key] if d != digest)
                if rest:
                    self.by_id[key] = rest
                else:
                    del self.by_id[key]

    def _wrote(self, keys) -> None:
        for digest in keys:
            instance = self.get(digest)
            if instance is None:
                continue
            self.by_owner.setdefault((instance.owner, instance.token_name), set()).add(digest)
            if not instance.fungibility:
                key = (instance.token_name, instance.token_id)
                self.by_id[key] = self.by_id.get(key, ()) + (digest,)

    def owned(self, owner: PubKey, name: str, token_id: int | None = None) -> list[tuple[int, Digest, TokenInstance]]:
        """``(amount, digest, instance)`` of each instance of ``name`` (only
        id ``token_id`` when given) that ``owner`` holds, ordered by
        (amount, digest); an NFT counts amount 0."""
        if token_id is None:
            digests = self.by_owner.get((owner, name), ())
        else:
            digests = [d for d in self.by_id.get((name, token_id), ()) if self[d].owner == owner]
        return sorted((self[d].amount or 0, d, self[d]) for d in digests)


def transfer_message(sending_sc_id: int, receiving_sc_id: int, instance: TokenInstance, receiver_id: PubKey) -> CscpMessage:
    """The token-transfer message moving ``instance`` from its owner on
    ``sending_sc_id`` to ``receiver_id`` on ``receiving_sc_id``."""
    return CscpMessage(
        sending_sc_id=sending_sc_id,
        receiving_sc_id=receiving_sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=instance.owner,
        receiver_id=receiver_id,
        payload_hash=canonical_digest(instance),
    )


def _split_child_hash(parent: Digest, amount: int, index: int) -> Digest:
    return hash_bytes(b"split" + parent + enc.enc_u64(amount) + enc.enc_u8(index))


@dataclass
class MittoState(Journaled):
    """One sidechain's token ledger: held instances and issuer sent records.
    It is the chain's message handler for token transfers."""

    sc_id: int
    registry: TokenNameRegistry
    variant: str = VARIANT_STANDARD
    s_tks: Holdings = field(default_factory=Holdings)
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

    @staticmethod
    def parse(payload: bytes, payload_hash: Digest) -> TokenInstance | None:
        """The instance ``payload`` encodes, or None when it is malformed.
        The instance keeps ``payload_hash``, the payload's checked hash, as
        its digest."""
        try:
            return enc.decode_hashed(TokenInstance, payload, payload_hash)
        except (DecodeError, ValueError):
            return None

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
        if (
            instance.fungibility
            and self._keeps_record(instance)
            and self._record_overflows(instance.token_name, self._counterparty(message.receiving_sc_id), instance.amount)
        ):
            return "send-5"
        if not verify_sig(instance.owner, message_digest(message), signature):
            return "send-4"
        return None

    def apply_send(self, instance: TokenInstance, message: CscpMessage) -> None:
        del self.s_tks[canonical_digest(instance)]
        if self._keeps_record(instance):
            self._record_out(
                instance.token_name, self._counterparty(message.receiving_sc_id), instance.amount, instance.token_id
            )

    # -- the sent-record book ----------------------------------------------------
    # Keys are ("f", counterparty, name) for a fungible total and ("n", name,
    # token_id) for an NFT; `dump` orders `s_sent` by them. Only these
    # methods spell them.

    def sent_record(self, name: str, counterparty: int, token_id: int | None = None) -> SentRecord | None:
        """The fungible total of ``name`` recorded as sent to chain
        ``counterparty`` or, given ``token_id``, that NFT's record when it
        names ``counterparty``; None when there is no such record."""
        if token_id is None:
            return self.s_sent.get(("f", counterparty, name))
        record = self.s_sent.get(("n", name, token_id))
        return record if record is not None and record.receiver_sc_id == counterparty else None

    def _record_out(self, name: str, counterparty: int, amount: int | None, token_id: int | None) -> None:
        """Record ``amount`` more of fungible ``name``, or NFT ``token_id``,
        as sent to ``counterparty``."""
        if token_id is not None:
            self.s_sent[("n", name, token_id)] = SentRecord(counterparty, name, False, token_id=token_id)
            return
        key = ("f", counterparty, name)
        existing = self.s_sent.get(key)
        total = amount + (existing.amount if existing else 0)
        self.s_sent[key] = SentRecord(counterparty, name, True, amount=total)

    def _record_back(self, name: str, counterparty: int, amount: int | None, token_id: int | None) -> None:
        """Take ``amount`` of fungible ``name``, or NFT ``token_id``, off
        what is recorded as sent to ``counterparty``; the caller has checked
        that the record covers it."""
        if token_id is not None:
            del self.s_sent[("n", name, token_id)]
            return
        key = ("f", counterparty, name)
        record = self.s_sent[key]
        if record.amount == amount:
            del self.s_sent[key]
        else:
            self.s_sent[key] = replace(record, amount=record.amount - amount)

    def _record_overflows(self, name: str, counterparty: int, amount: int) -> bool:
        """Would ``amount`` more of fungible ``name`` sent to ``counterparty``
        make a record of more than u64 units (which no record can encode)?"""
        record = self.sent_record(name, counterparty)
        return record is not None and record.amount + amount > enc.U64_MAX

    def _keeps_record(self, instance: TokenInstance) -> bool:
        """Does this ledger account for ``instance`` in its sent records?"""
        return instance.issuer_sc_id == self.sc_id and self.variant != VARIANT_NO_SENT_RECORDS

    def _counterparty(self, sc_id: int) -> int:
        """Whom a sent record names for chain ``sc_id`` under this variant."""
        return ANY_COUNTERPARTY if self.variant == VARIANT_NO_RECEIVER_TRACKING else sc_id

    # -- redeeming -------------------------------------------------------------

    def validate_redeem(self, instance: TokenInstance, message: CscpMessage, sender_sig: Signature) -> str | None:
        if instance.issuer_sc_id != message.sending_sc_id and instance.issuer_sc_id != self.sc_id:
            return "redeem-1"
        if self._keeps_record(instance):
            record = self.sent_record(instance.token_name, self._counterparty(message.sending_sc_id), instance.token_id)
            if record is None or (instance.fungibility and record.amount < instance.amount):
                return "redeem-2a" if instance.fungibility else "redeem-2b"
        if not instance.fungibility and (instance.token_name, instance.token_id) in self.s_tks.by_id:
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
        if not self.registry.holds(instance.token_name, instance.fungibility, instance.issuer_sc_id):
            return "redeem-8"
        return None

    def apply_redeem(self, instance: TokenInstance, message: CscpMessage) -> None:
        minted = replace(instance, owner=message.receiver_id)
        self.s_tks[canonical_digest(minted)] = minted
        if self._keeps_record(instance):
            self._record_back(
                instance.token_name, self._counterparty(message.sending_sc_id), instance.amount, instance.token_id
            )

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
            token_id = None  # an amount names a fungible total, whatever else is given
        elif token_id is None:
            return False
        record = self.sent_record(token_name, from_sc_id, token_id)
        if record is None:
            return False
        if amount is not None and (
            record.amount < amount
            or (to_sc_id != from_sc_id and self._record_overflows(token_name, to_sc_id, amount))
        ):
            return False
        self._record_back(token_name, from_sc_id, amount, token_id)
        self._record_out(token_name, to_sc_id, amount, token_id)
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
        merged_hash = hash_bytes(b"merge" + b"".join(sorted(instance_digests)))
        merged = replace(head, amount=total, data_hash=merged_hash)
        for digest in instance_digests:
            del self.s_tks[digest]
        self.s_tks[canonical_digest(merged)] = merged
        return merged

    # -- captures and dumps ----------------------------------------------------------

    def state_digests(self) -> list[Digest]:
        digests = list(self.s_tks.keys())
        digests.extend(canonical_digest(record) for record in self.s_sent.values())
        return digests

    def capture(self) -> "LedgerCapture":
        return LedgerCapture(self)

    def dump(self) -> dict:
        instances = []
        for digest in sorted(self.s_tks):
            entry = to_json(self.s_tks[digest])
            entry["digest"] = digest.hex()
            instances.append(entry)
        return {
            "sc_id": self.sc_id,
            "variant": self.variant,
            "s_tks": instances,
            "s_sent": [to_json(self.s_sent[key]) for key in sorted(self.s_sent)],
            "issued": dict(sorted(self.issued_totals.items())),
            "registry": self.registry.dump(),
        }


class LedgerCapture:
    """A ledger's entries at an epoch close, as plain copies. The indexed
    ledger is built from them when first read and is the same object at
    every later read: the accountant takes a new container for a rebinding,
    and would rebuild its book of a ceased chain on every step."""

    __slots__ = ("state", "s_tks", "s_sent", "issued_totals", "issued_token_ids", "_ledger")

    def __init__(self, state: MittoState) -> None:
        self.state = state  # for its chain, registry and variant, which never change
        self.s_tks, self.s_sent = dict(state.s_tks), dict(state.s_sent)
        self.issued_totals, self.issued_token_ids = dict(state.issued_totals), set(state.issued_token_ids)
        self._ledger: MittoState | None = None

    def ledger(self) -> MittoState:
        if self._ledger is None:
            self._ledger = replace(
                self.state,
                s_tks=Holdings(self.s_tks),
                s_sent=JournalDict(self.s_sent),
                issued_totals=JournalDict(self.issued_totals),
                issued_token_ids=JournalSet(self.issued_token_ids),
            )
        return self._ledger


def attach_token_ledger(chain, registry: TokenNameRegistry, variant: str = VARIANT_STANDARD) -> MittoState:
    """Give ``chain`` a token ledger on the shared name registry, registered
    as its token-transfer handler, and return the ledger."""
    state = MittoState(sc_id=chain.sc_id, registry=registry, variant=variant)
    chain.register_handler(MSG_TYPE_TOKEN_TRANSFER, state)
    return state


# ---------------------------------------------------------------------------
# Ceased-sidechain token flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CswPackage:
    """Everything needed to submit a withdrawal and redeem its message:
    the withdrawal itself, the embedded message with its payload, the
    owner's signature the receiving chain checks as the sender rule, and
    the token instance the payload encodes."""

    csw: CeasedSidechainWithdrawal
    message: CscpMessage
    payload: bytes
    sender_sig: Signature
    instance: TokenInstance


def final_ledger(sidechain) -> MittoState:
    """The token ledger ``sidechain`` committed at its last finalized epoch,
    which every withdrawal from it is proven against; the same object at
    every call."""
    capture = sidechain.finalized_epoch().captures.get(MSG_TYPE_TOKEN_TRANSFER)
    if capture is None:
        raise EntityNotInState("sidechain has no token state in its final epoch")
    return capture.ledger()


def _final_holding(sidechain, owner: KeyPair, instance_digest: Digest) -> TokenInstance:
    """The instance ``owner`` holds under ``instance_digest`` in the final ledger."""
    instance = final_ledger(sidechain).s_tks.get(instance_digest)
    if instance is None:
        raise EntityNotInState(instance_digest.hex())
    if instance.owner != owner.public:
        raise NotOwner(f"instance belongs to {instance.owner.hex()}")
    return instance


def _withdraw_instance(
    sidechain,
    owner: KeyPair,
    instance: TokenInstance,
    target_sc_id: int,
    receiver_id: PubKey,
    entity_bytes: bytes | None = None,
    **claim,
) -> CswPackage:
    """Withdraw ``entity_bytes`` (by default ``instance`` itself) from the
    ceased chain, carrying the message that moves ``instance`` to
    ``receiver_id`` on ``target_sc_id``; ``claim`` goes to the prover."""
    payload = instance.encode()
    message = transfer_message(sidechain.sc_id, target_sc_id, instance, receiver_id)
    sender_sig = owner.sign(message_digest(message))
    csw = sidechain.build_message_withdrawal(entity_bytes or payload, message, receiver=owner.public, **claim)
    return CswPackage(csw=csw, message=message, payload=payload, sender_sig=sender_sig, instance=instance)


def withdraw_native_held(
    sidechain,
    owner: KeyPair,
    instance_digest: Digest,
    target_sc_id: int,
    receiver_id: PubKey,
) -> CswPackage:
    """Withdraw an own-issued instance held on the ceased chain at its final
    committed state, wrapping it in a message redeemable on the target."""
    instance = _final_holding(sidechain, owner, instance_digest)
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
    instance = _final_holding(sidechain, owner, instance_digest)
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
    instance = TokenInstance.decode(return_payload)
    if instance.owner != owner.public:
        raise NotOwner(f"returned instance belongs to {instance.owner.hex()}")

    counterparty = return_message.sending_sc_id
    record = final_ledger(ceased).sent_record(instance.token_name, counterparty, instance.token_id)
    if record is None:
        if instance.fungibility:
            raise NoSentRecord(f"nothing of {instance.token_name!r} was sent to chain {counterparty}")
        raise NoSentRecord(f"{instance.token_name!r} id {instance.token_id} was not sent to chain {counterparty}")
    if instance.fungibility and instance.amount > record.amount:
        raise AmountExceedsSent(f"claimed {instance.amount}, sent record covers {record.amount}")

    anchor = anchor_of(ceased.mainchain, holder.sc_id, holder_epoch_id)
    evidence = ReturnEvidence(
        return_message=return_message,
        msg_path=message_path(holder.epochs[holder_epoch_id].tree, return_message, anchor.cert),
        holder=anchor,
        returned_instance_bytes=return_payload,
    )
    return _withdraw_instance(
        ceased,
        owner,
        instance,
        target_sc_id,
        receiver_id,
        record.encode(),
        claim_kind=ClaimKind.SENT_RECORD,
        return_evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Redeem transactions
# ---------------------------------------------------------------------------

def make_redeem_tx(
    mainchain, sender, epoch_id: int, message: CscpMessage, payload: bytes, sender_sig: Signature, receiver: KeyPair
) -> RedeemTx:
    """Redeem a message the sending chain committed in epoch ``epoch_id``:
    certificate-sourced evidence from its archived epoch tree, authorized by
    the message's receiver."""
    proof = build_redeem_proof(mainchain, sender.sc_id, epoch_id, message, sender.epochs[epoch_id].tree)
    return RedeemTx(
        message=message,
        payload=payload,
        proof=proof,
        sender_sig=sender_sig,
        receiver_signature=receiver.sign(redeem_auth_digest(message, payload)),
    )


def make_csw_redeem_tx(mainchain, package: CswPackage, receiver: KeyPair) -> CswRedeemTx:
    """Redeem the message embedded in an accepted, block-included withdrawal,
    authorized by the message's receiver."""
    csw = package.csw
    return CswRedeemTx(
        message=package.message,
        payload=package.payload,
        proof=build_csw_redeem_proof(mainchain, csw.ledger_id, csw.nullifier, package.message),
        sender_sig=package.sender_sig,
        receiver_signature=receiver.sign(redeem_auth_digest(package.message, package.payload)),
        csw_ref=(csw.ledger_id, csw.nullifier),
    )
