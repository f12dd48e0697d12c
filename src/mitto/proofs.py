"""Merkle-evidence proof scheme and redeem evidence chains.

Stand-in for succinct proofs: a Proof body is a serialized witness bundle
(entries, entity bytes, Merkle paths, anchoring headers) plus an Ed25519
signature over the digest of the public input, made with the sidechain key
whose public half was registered as the verification key. Each bundle
format is a wire type declared here (``WcertBundle``; ``CswBundle`` with
its ``StateAnchor`` and ``ReturnEvidence``, which carries its holder's
``StateAnchor``): the provers encode one, and the verifiers decode it
strictly, refold every path, recompute every root named by the public
input, and check the signature. A proof whose scheme is not its key's,
whose key's params are not a 32-byte public key, or whose body does not
decode, is a False. The certificate and withdrawal verifiers see exactly
(vk, public_input, proof) and nothing else, so a swapped-in scheme with
the same signatures drops in unchanged. The redeem
verifier reads no chain either: the receiving chain resolves the claimed
block's commitment root and the posting the evidence starts from, and
``verify_redeem`` checks the evidence against those values alone. All
three are pure: ``verify_csw`` keeps its results in the verify memo
(``keys.remembered``). ``verify_wcert`` is not remembered, as no
certificate is verified twice, and neither is ``verify_redeem``, as a
replayed redeem stops at the redeemed set before its evidence is checked.

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
@dataclass(frozen=True)
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
@dataclass(frozen=True)
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
# Withdrawal certificate proofs
# ---------------------------------------------------------------------------

@wire(None, ("bt_list", BYTES_LIST), ("proofdata", DIGEST_LIST), ("signature", BYTES))
@dataclass(frozen=True)
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


def verify_wcert(vk: VerificationKey, public_input: WcertPublicInput, proof: Proof) -> bool:
    """True iff proof and key name the same scheme, the bundle reproduces
    the input's roots, and the signature over the input digest verifies
    under the registered key."""
    if proof.scheme_id != vk.scheme_id or len(vk.params) != 32:
        return False
    try:
        bundle = WcertBundle.decode(proof.body)
    except (DecodeError, ValueError):
        return False
    if merkle_root([hash_bytes(bt) for bt in bundle.bt_list]) != public_input.bt_list_root:
        return False
    if merkle_root(bundle.proofdata) != public_input.proofdata_root:
        return False
    return verify_sig(vk.params, canonical_digest(public_input), bundle.signature)


# ---------------------------------------------------------------------------
# Ceased-sidechain withdrawal proofs
# ---------------------------------------------------------------------------

class ClaimKind(IntEnum):
    PAYLOAD_ENTITY = 0
    SENT_RECORD = 1


@dataclass(frozen=True)
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
@dataclass(frozen=True)
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
@dataclass(frozen=True)
class ReturnEvidence:
    """Evidence for a sent-record claim: the counterparty's return message,
    committed in the certificate its holder anchor carries, wrapping an
    instance this chain issued."""

    return_message: CscpMessage
    msg_path: MerklePath
    holder: StateAnchor
    returned_instance_bytes: bytes


@dataclass(frozen=True)
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
@dataclass(frozen=True)
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


@remembered
def verify_csw(vk: VerificationKey, public_input: CswPublicInput, proof: Proof) -> bool:
    """Structural verification of a withdrawal claim, no side channels.

    Refolds entity -> committed-state root -> certificate -> block hash and
    compares against the public input, recomputes the nullifier from the
    claimed entity, re-derives the proofdata root, applies the sent-record
    consistency rules when present, then checks the signature. The result
    depends on the three arguments alone, so the verify memo keeps it: the
    settlement chain's check of a proof its prover verified is a lookup.
    """
    if proof.scheme_id != vk.scheme_id or len(vk.params) != 32:
        return False
    try:
        bundle = CswBundle.decode(proof.body)
    except (DecodeError, ValueError):
        return False

    sc_id, message, proofdata, anchor = bundle.sc_id, bundle.message, bundle.proofdata, bundle.anchor
    entity_digest = hash_bytes(bundle.entity_bytes)
    if public_input.nullifier != csw_nullifier(sc_id, entity_digest):
        return False
    expected_len = 2 if bundle.kind is ClaimKind.SENT_RECORD else 1
    if len(proofdata) != expected_len:
        return False
    if message is not None:
        if proofdata[0] != message_digest(message):
            return False
        if public_input.amount != 0:
            return False
        if message.sending_sc_id != sc_id:
            return False
    elif proofdata[0] != EMPTY_ROOT:
        return False
    if merkle_root(proofdata) != public_input.proofdata_root:
        return False

    # Entity -> committed state -> final certificate -> block hash.
    if not verify_path(bundle.state_root, entity_digest, bundle.state_path):
        return False
    cert = anchor.cert
    if len(cert.proofdata) < 2 or cert.proofdata[1] != bundle.state_root:
        return False
    if not _anchored(anchor, sc_id, public_input.last_cert_block_hash):
        return False

    evidence = bundle.return_evidence
    if bundle.kind is ClaimKind.SENT_RECORD:
        if message is None or evidence is None:
            return False
        if not _check_return_evidence(sc_id, bundle.entity_bytes, message, evidence, proofdata[1]):
            return False
    elif evidence is not None:
        return False

    return verify_sig(vk.params, canonical_digest(public_input), bundle.signature)


def _check_return_evidence(
    sc_id: int,
    record_bytes: bytes,
    embedded: CscpMessage,
    evidence: ReturnEvidence,
    holder_block_hash: Digest,
) -> bool:
    from .tokens import SentRecord, TokenInstance

    ev_message = evidence.return_message
    returned_bytes = evidence.returned_instance_bytes
    try:
        record = SentRecord.decode(record_bytes)
        instance = TokenInstance.decode(returned_bytes)
    except (DecodeError, ValueError):
        return False
    # The return leg targets this chain, comes from the recorded counterparty,
    # and is committed through the counterparty's certificate.
    if ev_message.receiving_sc_id != sc_id:
        return False
    if ev_message.sending_sc_id != record.receiver_sc_id:
        return False
    if not _commits(evidence.holder.cert, ev_message, evidence.msg_path):
        return False
    if not _anchored(evidence.holder, ev_message.sending_sc_id, holder_block_hash):
        return False
    # The returned instance is one this chain issued, covered by the record,
    # and the embedded onward message wraps exactly those bytes.
    if ev_message.payload_hash != hash_bytes(returned_bytes):
        return False
    if embedded.payload_hash != hash_bytes(returned_bytes):
        return False
    if instance.issuer_sc_id != sc_id:
        return False
    if instance.token_name != record.token_name:
        return False
    if instance.fungibility != record.fungibility:
        return False
    if record.fungibility:
        if instance.amount is None or record.amount is None or instance.amount > record.amount:
            return False
    else:
        if instance.token_id != record.token_id:
            return False
    return True


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


def _anchored(anchor: StateAnchor, ledger_id: int, block_hash: Digest) -> bool:
    """True iff ``anchor.cert`` is chain ``ledger_id``'s certificate and is
    committed in the block whose hash is ``block_hash``."""
    return (
        anchor.cert.ledger_id == ledger_id
        and verify_path(anchor.header.stc_root, canonical_digest(anchor.cert), anchor.stc_path)
        and canonical_digest(anchor.header) == block_hash
    )


def _commits(cert: WithdrawalCertificate, message: CscpMessage, path: MerklePath) -> bool:
    """True iff ``path`` folds ``message`` into the epoch tree root that
    ``cert`` carries at proofdata[0]."""
    return bool(cert.proofdata) and verify_path(cert.proofdata[0], message_digest(message), path)


# ---------------------------------------------------------------------------
# Redeem evidence
# ---------------------------------------------------------------------------

class SourceKind(IntEnum):
    CERTIFICATE = 0
    CSW = 1


@wire(None, ("posting_digest", DIGEST), ("segments", list_of("MerklePath")))
@dataclass(frozen=True)
class CommitmentChain:
    """Merkle-path chain from a mainchain posting into a block commitment.

    posting_digest is the chain's leaf; each segment's fold result is the
    next segment's leaf; the last fold must equal the block's stc_root.
    Certificates take one segment (certificate leaf in the block
    commitment); withdrawals take two (tx-tree leaf, then tx root leaf).
    """

    posting_digest: Digest
    segments: tuple[MerklePath, ...]


@wire(
    enc.TAG_REDEEM_PROOF,
    ("source_kind", enum(SourceKind)),
    ("msg_path", nested("MerklePath")),
    ("msg_tree_root", DIGEST),
    ("commitment_path", nested("CommitmentChain")),
    ("block_hash", DIGEST),
)
@dataclass(frozen=True)
class RedeemProof:
    """Evidence that a message was committed and mainchain-confirmed.

    For certificate-sourced messages msg_path folds the message digest into
    the epoch tree root at the certificate's proofdata[0]. For withdrawal-
    sourced messages the message digest sits directly at the withdrawal's
    proofdata[0], so msg_path is empty and msg_tree_root must equal the
    message digest itself.
    """

    source_kind: SourceKind
    msg_path: MerklePath
    msg_tree_root: Digest
    commitment_path: CommitmentChain
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
        source_kind=SourceKind.CERTIFICATE,
        msg_path=message_path(message_tree, message, anchor.cert),
        msg_tree_root=message_tree.root,
        commitment_path=CommitmentChain(posting_digest=canonical_digest(anchor.cert), segments=(anchor.stc_path,)),
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
    md = message_digest(message)
    if not csw.proofdata or csw.proofdata[0] != md:
        raise MessageMismatch("withdrawal does not embed this message")
    stc = mainchain.block_by_hash(block_hash).stc
    txs_tree = stc.txs_trees[sc_id]
    csw_digest = canonical_digest(csw)
    return RedeemProof(
        source_kind=SourceKind.CSW,
        msg_path=MerklePath(leaf_index=0, siblings=()),
        msg_tree_root=md,
        commitment_path=CommitmentChain(
            posting_digest=csw_digest,
            segments=(
                merkle_path(txs_tree, txs_tree.index_of(csw_digest)),
                stc.txs_path(sc_id),
            ),
        ),
        block_hash=block_hash,
    )


def verify_redeem(
    stc_root: Digest | None,
    posting: WithdrawalCertificate | CeasedSidechainWithdrawal | None,
    message: CscpMessage,
    payload: bytes,
    proof: RedeemProof,
) -> bool:
    """Check payload binding, tree membership, posting linkage, and block
    commitment for one redeem claim against the named block's ``stc_root``
    and the ``posting`` the evidence starts from (None when not found)."""
    if stc_root is None or posting is None or posting.ledger_id != message.sending_sc_id:
        return False
    if hash_bytes(payload) != message.payload_hash:
        return False
    if canonical_digest(posting) != proof.commitment_path.posting_digest:
        return False

    if proof.source_kind is SourceKind.CERTIFICATE:
        if not isinstance(posting, WithdrawalCertificate):
            return False
        if len(proof.commitment_path.segments) != 1:
            return False
        if not _commits(posting, message, proof.msg_path) or posting.proofdata[0] != proof.msg_tree_root:
            return False
    else:
        if not isinstance(posting, CeasedSidechainWithdrawal):
            return False
        if len(proof.commitment_path.segments) != 2:
            return False
        if proof.msg_path.siblings or proof.msg_path.leaf_index != 0:
            return False
        md = message_digest(message)
        if proof.msg_tree_root != md:
            return False
        if not posting.proofdata or posting.proofdata[0] != md:
            return False
        if posting.amount != 0:
            return False

    node = proof.commitment_path.posting_digest
    for segment in proof.commitment_path.segments:
        folded = fold_path(node, segment)
        if folded is None:
            return False
        node = folded
    return node == stc_root
