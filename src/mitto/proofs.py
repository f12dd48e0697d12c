"""Merkle-evidence proof scheme and redeem evidence chains.

Stand-in for succinct proofs: a Proof body is a serialized witness bundle
(entries, entity bytes, Merkle paths, anchoring headers) plus an Ed25519
signature over the digest of the public input, made with the sidechain key
whose public half was registered as the verification key. Each bundle
format is a wire type declared here (``WcertBundle``; ``CswBundle`` with
its ``StateAnchor`` and ``ReturnEvidence``, which carries its holder's
``StateAnchor``): the provers encode one, and the verifiers decode it
strictly, refold every path, recompute every root named by the public
input, and check the signature.

Each verifier is one ordered sequence of named checks, a generator of
(check id, passed) pairs (``csw.decode``, ``redeem.block-commitment``, ...)
built from the shared sub-sequences ``_anchored``, ``_commits`` and
``_check_return_evidence``: ``verify_*`` is True iff every check passes,
and ``explain_*`` names the first that fails (None when the proof verifies).

The certificate and withdrawal verifiers see exactly (vk, public_input,
proof) and nothing else, so a swapped-in scheme with the same signatures
drops in unchanged. The redeem verifier reads no chain either: the
receiving chain resolves the claimed block's commitment root and the
posting the evidence starts from, and ``verify_redeem`` checks the evidence
against those values alone. All three are pure: ``verify_csw`` keeps its
results in the verify memo (``keys.remembered``), so the settlement
chain's check of a proof its prover verified is a lookup. ``verify_wcert``
is not remembered, as no certificate is verified twice, and neither is
``verify_redeem``, as a replayed redeem stops at the redeemed set before
its evidence is checked.

The settlement chain builds one ``StateAnchor`` per finalized certificate;
``anchor_of`` looks it up, so every proof of an epoch shares it.

Ceased-sidechain claims anchor through the last finalized certificate: the
claimed entity folds into the committed-state root the certificate carries
at proofdata index 1, the certificate digest folds into the block commitment
of the block named by the public input's last_cert_block_hash, and that hash
is recomputed from the header carried in the bundle. Sent-record claims add
return-leg evidence; its inclusion in a *confirmed* block is checked at
proving time against the mainchain view, standing in for a recursive
block-ancestry proof.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Protocol

from . import encoding as enc
from .encoding import BYTES, BYTES_LIST, DIGEST, DIGEST_LIST, PUBKEY, U32, U64, DecodeError, canonical_digest
from .encoding import enum, list_of, nested, optional, sized, wire
from .hashing import (
    Digest,
    EMPTY_ROOT,
    MerklePath,
    MerkleTree,
    build_merkle,
    fold_path,
    hash_bytes,
    merkle_path,
    merkle_root,
    verify_path,
)
from .keys import KeyPair, PubKey, remembered, verify_sig
from .messages import (
    BlockHeader,
    CeasedSidechainWithdrawal,
    CscpMessage,
    Proof,
    SCHEME_SIM_MERKLE,
    VerificationKey,
    WithdrawalCertificate,
    message_digest,
)


class InconsistentWitness(Exception):
    """Prover witness does not reproduce the public input it was asked to bind."""


class EvidenceUnavailable(Exception):
    """A prover refused: the evidence a transaction needs does not exist."""


class EntityNotInState(EvidenceUnavailable):
    """Claimed entity is not part of the committed state being withdrawn from."""


class MessageMismatch(EvidenceUnavailable):
    """Embedded message does not commit to the claimed entity."""


class MessageNotCommitted(EvidenceUnavailable):
    """Message is not a leaf of the committed epoch tree."""


class CertificateNotConfirmed(EvidenceUnavailable):
    """No finalized certificate on the mainchain matches the evidence."""


class CswNotFound(EvidenceUnavailable):
    """Referenced ceased-sidechain withdrawal is not on the mainchain."""


# ---------------------------------------------------------------------------
# Public inputs
# ---------------------------------------------------------------------------

@wire(
    enc.TAG_WCERT_INPUT,
    ("quality", U64),
    ("bt_list_root", DIGEST),
    ("last_block_hash", DIGEST),
    ("proofdata_root", DIGEST),
)
@dataclass(frozen=True, init=False)
class WcertPublicInput:
    """What the mainchain pins down before verifying a certificate proof."""

    quality: int
    bt_list_root: Digest
    last_block_hash: Digest
    proofdata_root: Digest


@wire(
    enc.TAG_CSW_INPUT,
    ("last_cert_block_hash", DIGEST),
    ("nullifier", DIGEST),
    ("receiver", PUBKEY),
    ("amount", U64),
    ("proofdata_root", DIGEST),
)
@dataclass(frozen=True, init=False)
class CswPublicInput:
    """What the mainchain pins down before verifying a withdrawal proof."""

    last_cert_block_hash: Digest
    nullifier: Digest
    receiver: PubKey
    amount: int
    proofdata_root: Digest


def make_wcert_input(
    quality: int,
    bt_list: tuple[bytes, ...],
    last_block_hash: Digest,
    proofdata: tuple[Digest, ...],
) -> WcertPublicInput:
    return WcertPublicInput(
        quality=quality,
        bt_list_root=merkle_root([hash_bytes(bt) for bt in bt_list]),
        last_block_hash=last_block_hash,
        proofdata_root=merkle_root(proofdata),
    )


def make_csw_input(
    last_cert_block_hash: Digest,
    nullifier: Digest,
    receiver: PubKey,
    amount: int,
    proofdata: tuple[Digest, ...],
) -> CswPublicInput:
    return CswPublicInput(
        last_cert_block_hash=last_cert_block_hash,
        nullifier=nullifier,
        receiver=receiver,
        amount=amount,
        proofdata_root=merkle_root(proofdata),
    )


def csw_nullifier(sc_id: int, entity_digest: Digest) -> Digest:
    """Replay tag for a ceased-sidechain claim: binds chain and entity, so a
    second withdrawal of the same entity collides no matter how the embedded
    message is addressed."""
    return hash_bytes(enc.enc_u32(sc_id) + entity_digest)


def sim_merkle_vk(signer_public: PubKey) -> VerificationKey:
    return VerificationKey(scheme_id=SCHEME_SIM_MERKLE, params=signer_public)


# ---------------------------------------------------------------------------
# Mainchain view protocol (what the evidence builders read)
# ---------------------------------------------------------------------------

class MainchainView(Protocol):
    def block_by_hash(self, block_hash: Digest): ...

    def finalized_cert(self, sc_id: int, epoch_id: int): ...

    def csw_inclusion(self, sc_id: int, nullifier: Digest): ...


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------

#: A verifier's checks in order; a check runs only when the one before it passed.
Checks = Iterator[tuple[str, bool]]


def _first_failure(checks: Checks) -> str | None:
    """The id of the first check that fails, None when every check passes."""
    for check_id, passed in checks:
        if not passed:
            return check_id
    return None


def _decoded(wire_type, data: bytes):
    """``data`` decoded strictly as ``wire_type``, or None when it does not decode."""
    try:
        return wire_type.decode(data)
    except (DecodeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Withdrawal certificate proofs
# ---------------------------------------------------------------------------

@wire(None, ("bt_list", BYTES_LIST), ("proofdata", DIGEST_LIST), ("signature", BYTES))
@dataclass(frozen=True, init=False)
class WcertBundle:
    """Body of a certificate proof: the epoch's backward transfers and
    proofdata, and the signature over the public input digest."""

    bt_list: tuple[bytes, ...]
    proofdata: tuple[Digest, ...]
    signature: bytes


def prove_wcert(
    signer: KeyPair,
    quality: int,
    bt_list: tuple[bytes, ...],
    last_block_hash: Digest,
    proofdata: tuple[Digest, ...],
) -> Proof:
    """Bundle the epoch witness and sign the public input it states."""
    public_input = make_wcert_input(quality, bt_list, last_block_hash, proofdata)
    bundle = WcertBundle(bt_list=bt_list, proofdata=proofdata, signature=signer.sign(canonical_digest(public_input)))
    return Proof(scheme_id=SCHEME_SIM_MERKLE, body=bundle.encode())


def _wcert_checks(vk: VerificationKey, public_input: WcertPublicInput, proof: Proof) -> Checks:
    """Proof and key name one scheme, the bundle reproduces the input's roots,
    and the signature over the input digest verifies under the key."""
    yield "wcert.scheme", proof.scheme_id == vk.scheme_id and len(vk.params) == 32
    bundle = _decoded(WcertBundle, proof.body)
    yield "wcert.decode", bundle is not None
    yield "wcert.bt-list-root", merkle_root([hash_bytes(bt) for bt in bundle.bt_list]) == public_input.bt_list_root
    yield "wcert.proofdata-root", merkle_root(bundle.proofdata) == public_input.proofdata_root
    yield "wcert.signature", verify_sig(vk.params, canonical_digest(public_input), bundle.signature)


def explain_wcert(vk: VerificationKey, public_input: WcertPublicInput, proof: Proof) -> str | None:
    """The id of the first certificate check the proof fails, None when it verifies."""
    return _first_failure(_wcert_checks(vk, public_input, proof))


def verify_wcert(vk: VerificationKey, public_input: WcertPublicInput, proof: Proof) -> bool:
    return explain_wcert(vk, public_input, proof) is None


# ---------------------------------------------------------------------------
# Ceased-sidechain withdrawal proofs
# ---------------------------------------------------------------------------

class ClaimKind(IntEnum):
    PAYLOAD_ENTITY = 0
    SENT_RECORD = 1


@dataclass(frozen=True, eq=False, repr=False)
class CommittedState:
    """The sorted entity digests a certificate committed to, and their
    root. Only a withdrawal's state path reads the tree's levels, so the
    tree is built when a path is first asked for."""

    digests: tuple[Digest, ...]
    root: Digest

    @classmethod
    def from_digests(cls, digests) -> "CommittedState":
        ordered = tuple(sorted(digests))
        return cls(digests=ordered, root=merkle_root(ordered))

    @cached_property
    def tree(self) -> MerkleTree:
        return build_merkle(self.digests)

    def path_for(self, entity_digest: Digest) -> MerklePath:
        index = self.tree.index_of(entity_digest)
        if index is None:
            raise EntityNotInState(entity_digest.hex())
        return merkle_path(self.tree, index)


@wire(
    None,
    ("cert", sized("WithdrawalCertificate")),
    ("stc_path", nested("MerklePath")),
    ("header", nested("BlockHeader")),
)
@dataclass(frozen=True, init=False)
class StateAnchor:
    """Chains a finalized certificate, and the roots it carries, to a
    mainchain block hash: its digest is a leaf of the block's sidechain
    commitment, and the header reproduces the block hash."""

    cert: WithdrawalCertificate
    stc_path: MerklePath
    header: BlockHeader


@wire(
    None,
    ("return_message", nested("CscpMessage")),
    ("msg_path", nested("MerklePath")),
    ("holder", nested("StateAnchor")),
    ("returned_instance_bytes", BYTES),
)
@dataclass(frozen=True, init=False)
class ReturnEvidence:
    """Evidence for a sent-record claim: the counterparty's return message,
    committed in the certificate its holder anchor carries, wrapping an
    instance this chain issued."""

    return_message: CscpMessage
    msg_path: MerklePath
    holder: StateAnchor
    returned_instance_bytes: bytes


@dataclass(frozen=True, eq=False, repr=False)
class CswClaim:
    """Everything the prover asserts about one ceased-sidechain withdrawal."""

    kind: ClaimKind
    entity_bytes: bytes
    committed: CommittedState
    anchor: StateAnchor
    message: CscpMessage | None = None
    return_evidence: ReturnEvidence | None = None


@wire(
    None,
    ("sc_id", U32),
    ("kind", enum(ClaimKind)),
    ("entity_bytes", BYTES),
    ("message", optional("CscpMessage")),
    ("proofdata", DIGEST_LIST),
    ("state_path", nested("MerklePath")),
    ("state_root", DIGEST),
    ("anchor", nested("StateAnchor")),
    ("return_evidence", optional("ReturnEvidence")),
    ("signature", BYTES),
)
@dataclass(frozen=True, init=False)
class CswBundle:
    """Body of a withdrawal proof: the claim as the verifier refolds it,
    with the entity's path to the committed-state root it names, and the
    signature over the public input digest."""

    sc_id: int
    kind: ClaimKind
    entity_bytes: bytes
    message: CscpMessage | None
    proofdata: tuple[Digest, ...]
    state_path: MerklePath
    state_root: Digest
    anchor: StateAnchor
    return_evidence: ReturnEvidence | None
    signature: bytes


def claim_proofdata(claim: CswClaim) -> tuple[Digest, ...]:
    """Withdrawal proofdata implied by a claim; the withdrawal entity and the
    proof bundle must agree on it."""
    if claim.kind is ClaimKind.SENT_RECORD:
        if claim.message is None or claim.return_evidence is None:
            raise InconsistentWitness("sent-record claim needs an embedded message and return evidence")
        return (
            message_digest(claim.message),
            canonical_digest(claim.return_evidence.holder.header),
        )
    if claim.message is not None:
        return (message_digest(claim.message),)
    return (EMPTY_ROOT,)


def prove_csw(signer: KeyPair, sc_id: int, public_input: CswPublicInput, claim: CswClaim) -> Proof:
    """Bundle a ceased-sidechain claim and sign the public input.

    The prover refuses dishonest claims: the entity must be a leaf of the
    committed state, a payload claim's message must commit to the entity
    bytes, and the finished bundle must survive its own verification.
    """
    entity_digest = hash_bytes(claim.entity_bytes)
    if claim.committed.tree.index_of(entity_digest) is None:
        raise EntityNotInState(f"entity {entity_digest.hex()} not in committed state")
    if claim.kind is ClaimKind.PAYLOAD_ENTITY and claim.message is not None:
        if claim.message.payload_hash != entity_digest:
            raise MessageMismatch("message payload hash does not commit to the claimed entity")
    bundle = CswBundle(
        sc_id=sc_id,
        kind=claim.kind,
        entity_bytes=claim.entity_bytes,
        message=claim.message,
        # For sent-record claims this also pins the block that confirmed the
        # return leg, binding every bit of the carried holder header through
        # the proofdata root.
        proofdata=claim_proofdata(claim),
        state_path=claim.committed.path_for(entity_digest),
        state_root=claim.committed.root,
        anchor=claim.anchor,
        return_evidence=claim.return_evidence,
        signature=signer.sign(canonical_digest(public_input)),
    )
    proof = Proof(scheme_id=SCHEME_SIM_MERKLE, body=bundle.encode())

    if not verify_csw(sim_merkle_vk(signer.public), public_input, proof):
        raise InconsistentWitness("claim does not bind the public input")
    return proof


def _csw_checks(vk: VerificationKey, public_input: CswPublicInput, proof: Proof) -> Checks:
    """A withdrawal claim's nullifier, proofdata root and refold of entity ->
    committed-state root -> certificate -> block hash against the public
    input, the sent-record rules when present, then the signature."""
    yield "csw.scheme", proof.scheme_id == vk.scheme_id and len(vk.params) == 32
    bundle = _decoded(CswBundle, proof.body)
    yield "csw.decode", bundle is not None
    sc_id, message, proofdata, anchor = bundle.sc_id, bundle.message, bundle.proofdata, bundle.anchor
    entity_digest = hash_bytes(bundle.entity_bytes)
    yield "csw.nullifier", public_input.nullifier == csw_nullifier(sc_id, entity_digest)
    yield "csw.proofdata-length", len(proofdata) == (2 if bundle.kind is ClaimKind.SENT_RECORD else 1)
    if message is not None:
        yield "csw.message-digest", proofdata[0] == message_digest(message)
        yield "csw.amount", public_input.amount == 0
        yield "csw.message-sender", message.sending_sc_id == sc_id
    else:
        yield "csw.empty-message-slot", proofdata[0] == EMPTY_ROOT
    yield "csw.proofdata-root", merkle_root(proofdata) == public_input.proofdata_root
    # Entity -> committed state -> final certificate -> block hash.
    yield "csw.state-path", verify_path(bundle.state_root, entity_digest, bundle.state_path)
    yield "csw.state-root", len(anchor.cert.proofdata) >= 2 and anchor.cert.proofdata[1] == bundle.state_root
    yield from _anchored(anchor, sc_id, public_input.last_cert_block_hash)
    evidence = bundle.return_evidence
    if bundle.kind is ClaimKind.SENT_RECORD:
        yield "csw.return-evidence", message is not None and evidence is not None
        yield from _check_return_evidence(sc_id, bundle.entity_bytes, message, evidence, proofdata[1])
    else:
        yield "csw.no-return-evidence", evidence is None
    yield "csw.signature", verify_sig(vk.params, canonical_digest(public_input), bundle.signature)


def explain_csw(vk: VerificationKey, public_input: CswPublicInput, proof: Proof) -> str | None:
    """The id of the first withdrawal check the proof fails, None when it verifies."""
    return _first_failure(_csw_checks(vk, public_input, proof))


@remembered
def verify_csw(vk: VerificationKey, public_input: CswPublicInput, proof: Proof) -> bool:
    return explain_csw(vk, public_input, proof) is None


def _check_return_evidence(
    sc_id: int, record_bytes: bytes, embedded: CscpMessage, evidence: ReturnEvidence, holder_block_hash: Digest
) -> Checks:
    from .tokens import SentRecord, TokenInstance

    ev_message, returned_bytes = evidence.return_message, evidence.returned_instance_bytes
    record, instance = _decoded(SentRecord, record_bytes), _decoded(TokenInstance, returned_bytes)
    yield "return.decode", record is not None and instance is not None
    # The return leg targets this chain, comes from the recorded counterparty,
    # and is committed through the counterparty's certificate.
    yield "return.receiving-chain", ev_message.receiving_sc_id == sc_id
    yield "return.sending-chain", ev_message.sending_sc_id == record.receiver_sc_id
    yield from _commits(evidence.holder.cert, ev_message, evidence.msg_path)
    yield from _anchored(evidence.holder, ev_message.sending_sc_id, holder_block_hash)
    # The returned instance is one this chain issued, covered by the record,
    # and the embedded onward message wraps exactly those bytes. Both decoded
    # with the same fungibility, a fungible record and instance carry amounts.
    returned_hash = hash_bytes(returned_bytes)
    yield "return.payload", ev_message.payload_hash == returned_hash
    yield "return.embedded-payload", embedded.payload_hash == returned_hash
    yield "return.issuer", instance.issuer_sc_id == sc_id
    yield "return.token-name", instance.token_name == record.token_name
    yield "return.fungibility", instance.fungibility == record.fungibility
    if record.fungibility:
        yield "return.amount", instance.amount <= record.amount
    else:
        yield "return.token-id", instance.token_id == record.token_id


# ---------------------------------------------------------------------------
# The two facts behind message evidence, each built and checked once here:
# certificate C of chain S is finalized in block B (anchor_of, _anchored),
# and message M is a leaf of the epoch tree C commits (message_path, _commits).
# ---------------------------------------------------------------------------

def anchor_of(mainchain: MainchainView, sc_id: int, epoch_id: int) -> StateAnchor:
    """Chain ``sc_id``'s finalized certificate for ``epoch_id``, its path in
    its block's commitment, and that block's header: the one anchor the
    settlement chain built when it sealed that block. CertificateNotConfirmed
    when none is finalized."""
    anchor = mainchain.finalized_cert(sc_id, epoch_id)
    if anchor is None:
        raise CertificateNotConfirmed(f"no finalized certificate for sidechain {sc_id} epoch {epoch_id}")
    return anchor


def message_path(tree: MerkleTree, message: CscpMessage, cert: WithdrawalCertificate) -> MerklePath:
    """The path of ``message`` in ``tree``, the epoch tree ``cert`` commits;
    MessageNotCommitted when it is not a leaf, CertificateNotConfirmed when
    ``cert`` commits another tree."""
    md = message_digest(message)
    index = tree.index_of(md)
    if index is None:
        raise MessageNotCommitted(f"message {md.hex()} not in epoch {cert.epoch_id} tree")
    if cert.proofdata[0] != tree.root:
        raise CertificateNotConfirmed("finalized certificate commits a different epoch tree")
    return merkle_path(tree, index)


def _anchored(anchor: StateAnchor, ledger_id: int, block_hash: Digest) -> Checks:
    """``anchor.cert`` is chain ``ledger_id``'s certificate and is committed
    in the block whose hash is ``block_hash``."""
    yield "anchor.ledger", anchor.cert.ledger_id == ledger_id
    yield "anchor.stc-path", verify_path(anchor.header.stc_root, canonical_digest(anchor.cert), anchor.stc_path)
    yield "anchor.block-hash", canonical_digest(anchor.header) == block_hash


def _commits(cert: WithdrawalCertificate, message: CscpMessage, path: MerklePath) -> Checks:
    """``path`` folds ``message`` into the epoch tree root that ``cert``
    carries at proofdata[0]."""
    yield "commits.msg-path", bool(cert.proofdata) and verify_path(cert.proofdata[0], message_digest(message), path)


# ---------------------------------------------------------------------------
# Redeem evidence
# ---------------------------------------------------------------------------

@wire(
    enc.TAG_REDEEM_PROOF,
    ("msg_path", nested("MerklePath")),
    ("segments", list_of("MerklePath")),
    ("block_hash", DIGEST),
)
@dataclass(frozen=True, init=False)
class RedeemProof:
    """Evidence that a message was committed and mainchain-confirmed.

    The receiving chain resolves the posting the evidence starts from, a
    certificate or a withdrawal, and the segments chain its digest into the
    commitment of the block named by block_hash: each segment's fold result
    is the next segment's leaf, and the last fold must equal the block's
    stc_root. A certificate takes one segment (its leaf in the block
    commitment), and msg_path folds the message digest into the epoch tree
    root at its proofdata[0]. A withdrawal takes two (its tx-tree leaf, then
    the tx root's leaf) and embeds the message digest at its proofdata[0]
    itself, so msg_path is empty.
    """

    msg_path: MerklePath
    segments: tuple[MerklePath, ...]
    block_hash: Digest


def build_redeem_proof(
    mainchain: MainchainView,
    sender_sc_id: int,
    epoch_id: int,
    message: CscpMessage,
    message_tree: MerkleTree,
) -> RedeemProof:
    """Assemble certificate-sourced redeem evidence from the sender's
    archived epoch tree and the mainchain's finalized certificate index."""
    anchor = anchor_of(mainchain, sender_sc_id, epoch_id)
    return RedeemProof(
        msg_path=message_path(message_tree, message, anchor.cert),
        segments=(anchor.stc_path,),
        block_hash=canonical_digest(anchor.header),
    )


def build_csw_redeem_proof(
    mainchain: MainchainView,
    sc_id: int,
    nullifier: Digest,
    message: CscpMessage,
) -> RedeemProof:
    """Assemble withdrawal-sourced redeem evidence for the message embedded
    in an accepted, block-included withdrawal."""
    inclusion = mainchain.csw_inclusion(sc_id, nullifier)
    if inclusion is None:
        raise CswNotFound(f"no included withdrawal for sidechain {sc_id} nullifier {nullifier.hex()}")
    csw, block_hash = inclusion
    if not csw.proofdata or csw.proofdata[0] != message_digest(message):
        raise MessageMismatch("withdrawal does not embed this message")
    stc = mainchain.block_by_hash(block_hash).stc
    txs_tree = stc.txs_trees[sc_id]
    return RedeemProof(
        msg_path=MerklePath(leaf_index=0, siblings=()),
        segments=(merkle_path(txs_tree, txs_tree.index_of(canonical_digest(csw))), stc.txs_path(sc_id)),
        block_hash=block_hash,
    )


Posting = WithdrawalCertificate | CeasedSidechainWithdrawal


def _redeem_checks(
    stc_root: Digest | None, posting: Posting | None, message: CscpMessage, payload: bytes, proof: RedeemProof
) -> Checks:
    """Payload binding, tree membership, and block commitment for one
    redeem claim against the named block's ``stc_root`` and the ``posting``
    the evidence starts from (None when not found), whose type says which
    evidence it takes."""
    segments = proof.segments
    yield "redeem.block", stc_root is not None
    yield "redeem.posting", posting is not None
    yield "redeem.posting-sender", posting.ledger_id == message.sending_sc_id
    yield "redeem.payload", hash_bytes(payload) == message.payload_hash
    if isinstance(posting, WithdrawalCertificate):
        yield "redeem.segments", len(segments) == 1
        yield from _commits(posting, message, proof.msg_path)
    else:
        yield "redeem.segments", len(segments) == 2
        yield "redeem.msg-path", not proof.msg_path.siblings and proof.msg_path.leaf_index == 0
        yield "redeem.posting-message", bool(posting.proofdata) and posting.proofdata[0] == message_digest(message)
        yield "redeem.posting-amount", posting.amount == 0
    node = canonical_digest(posting)
    for segment in segments:
        node = fold_path(node, segment)
        yield "redeem.segment-fold", node is not None
    yield "redeem.block-commitment", node == stc_root


def explain_redeem(
    stc_root: Digest | None, posting: Posting | None, message: CscpMessage, payload: bytes, proof: RedeemProof
) -> str | None:
    """The id of the first redeem check the evidence fails, None when it verifies."""
    return _first_failure(_redeem_checks(stc_root, posting, message, payload, proof))


def verify_redeem(
    stc_root: Digest | None, posting: Posting | None, message: CscpMessage, payload: bytes, proof: RedeemProof
) -> bool:
    return explain_redeem(stc_root, posting, message, payload, proof) is None
