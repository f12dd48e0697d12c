"""One fixed value per wire type, for the golden encoding pin.

Built from constructors only, so the same samples encode under any version
of the codecs; `tests/golden/wire_vectors.json` holds the hex each one
encoded to when the pin was taken. Union-typed records get one sample per
arm.

Proof bundles are the exception: their samples are what the provers bundle
for the honest witnesses of `bundle_witnesses()`, so every hash, path and
signature in them is consistent, and their golden hex is the body that
`prove_wcert`/`prove_csw` returned for those witnesses.
"""
from mitto.encoding import canonical_digest
from mitto.hashing import MerklePath, build_merkle, hash_bytes, merkle_path
from mitto.keys import KeyPair
from mitto.mainchain import SidechainRegistration
from mitto.messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    SCHEME_SIM_MERKLE,
    BlockHeader,
    CeasedSidechainWithdrawal,
    CscpMessage,
    CswRedeemTx,
    Proof,
    RedeemTx,
    SendTx,
    VerificationKey,
    WithdrawalCertificate,
    message_digest,
)
from mitto.proofs import (
    ClaimKind,
    CommittedState,
    CswBundle,
    CswClaim,
    CswPublicInput,
    RedeemProof,
    ReturnEvidence,
    StateAnchor,
    WcertBundle,
    WcertPublicInput,
    claim_proofdata,
    csw_nullifier,
    make_csw_input,
    make_wcert_input,
)
from mitto.tokens import SentRecord, TokenInstance

ALICE = KeyPair.from_label("actor", 0, "alice").public
BOB = KeyPair.from_label("actor", 0, "bob").public
WCERT_SIGNER = KeyPair.from_label("wcert", 0, "sample")
CSW_SIGNER = KeyPair.from_label("csw", 0, "sample")
CEASED, TARGET, HOLDER = 1, 2, 3


def _h(label: str):
    return hash_bytes(label.encode())


def _transfer(sending: int, receiving: int, payload: bytes, sender=ALICE, receiver=BOB) -> CscpMessage:
    return CscpMessage(
        sending_sc_id=sending,
        receiving_sc_id=receiving,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=sender,
        receiver_id=receiver,
        payload_hash=hash_bytes(payload),
    )


def _anchor(sc_id: int, proofdata: tuple, height: int) -> StateAnchor:
    """A finalized certificate, its path in a block commitment, and the
    block's header."""
    cert = WithdrawalCertificate(
        ledger_id=sc_id,
        epoch_id=height // 2,
        quality=1,
        bt_list=(),
        proofdata=proofdata,
        proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"\x0c"),
    )
    stc = build_merkle([_h(f"posting-{height}"), canonical_digest(cert), _h(f"txs-{height}")])
    header = BlockHeader(height=height, parent_hash=_h(f"block-{height - 1}"), stc_root=stc.root)
    return StateAnchor(cert=cert, stc_path=merkle_path(stc, 1), header=header)


def _state_anchor(entity_bytes: bytes, height: int):
    committed = CommittedState.from_digests([hash_bytes(entity_bytes), _h("other-entity")])
    return committed, _anchor(CEASED, (_h("epoch-tree"), committed.root), height)


def _csw_witness(claim: CswClaim, amount: int) -> tuple:
    public_input = make_csw_input(
        canonical_digest(claim.anchor.header),
        csw_nullifier(CEASED, hash_bytes(claim.entity_bytes)),
        BOB,
        amount,
        claim_proofdata(claim),
    )
    return CEASED, public_input, claim


def bundle_witnesses() -> dict:
    """Name -> the prover arguments of one honest proof bundle:
    (quality, bt_list, last block hash, proofdata) for a certificate bundle,
    (sc_id, public input, claim) for a withdrawal bundle."""
    proofdata = (_h("msg-root"), _h("state-root"))
    out = {
        f"WcertBundle/{name}": (3, bt_list, _h("last-block"), proofdata)
        for name, bt_list in (("empty", ()), ("transfers", (b"bt-1", b"")))
    }

    held = TokenInstance(
        token_name="KEEP", fungibility=True, issuer_sc_id=CEASED, owner=ALICE, data_hash=_h("keep"), amount=50
    ).encode()
    committed, anchor = _state_anchor(held, 8)
    for name, message, amount in (
        ("payload", None, 50),
        ("payload_message", _transfer(CEASED, TARGET, held), 0),
    ):
        claim = CswClaim(ClaimKind.PAYLOAD_ENTITY, held, committed, anchor, message=message)
        out[f"CswBundle/{name}"] = _csw_witness(claim, amount)

    # A sent record: GOLD went to the holder chain, which sent 30 back to
    # the ceased issuer and committed that return leg in its certificate.
    record = SentRecord(receiver_sc_id=HOLDER, token_name="GOLD", fungibility=True, amount=40).encode()
    returned = TokenInstance(
        token_name="GOLD", fungibility=True, issuer_sc_id=CEASED, owner=ALICE, data_hash=_h("gold"), amount=30
    ).encode()
    return_message = _transfer(HOLDER, CEASED, returned, sender=BOB, receiver=ALICE)
    holder_tree = build_merkle([_h("holder-msg"), message_digest(return_message)])
    evidence = ReturnEvidence(
        return_message=return_message,
        msg_path=merkle_path(holder_tree, 1),
        holder=_anchor(HOLDER, (holder_tree.root, _h("holder-state")), 10),
        returned_instance_bytes=returned,
    )
    committed, anchor = _state_anchor(record, 12)
    claim = CswClaim(
        ClaimKind.SENT_RECORD,
        record,
        committed,
        anchor,
        message=_transfer(CEASED, TARGET, returned),
        return_evidence=evidence,
    )
    out["CswBundle/sent_record"] = _csw_witness(claim, 0)
    return out


def _bundle_samples() -> dict:
    """The bundles the provers build from `bundle_witnesses()`, and the
    sent-record bundle's anchor and return evidence on their own."""
    out = {}
    for name, witness in bundle_witnesses().items():
        if name.startswith("WcertBundle/"):
            _, bt_list, _, proofdata = witness
            signature = WCERT_SIGNER.sign(canonical_digest(make_wcert_input(*witness)))
            out[name] = WcertBundle(bt_list=bt_list, proofdata=proofdata, signature=signature)
            continue
        sc_id, public_input, claim = witness
        entity_digest = hash_bytes(claim.entity_bytes)
        out[name] = CswBundle(
            sc_id=sc_id,
            kind=claim.kind,
            entity_bytes=claim.entity_bytes,
            message=claim.message,
            proofdata=claim_proofdata(claim),
            state_path=claim.committed.path_for(entity_digest),
            state_root=claim.committed.root,
            anchor=claim.anchor,
            return_evidence=claim.return_evidence,
            signature=CSW_SIGNER.sign(canonical_digest(public_input)),
        )
    out["StateAnchor"] = out["CswBundle/sent_record"].anchor
    out["ReturnEvidence"] = out["CswBundle/sent_record"].return_evidence
    return out


def wire_samples() -> dict:
    """Name -> sample value; the name's prefix before '/' is the type."""
    proof = Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"\x01\x02\x03")
    vk = VerificationKey(scheme_id=SCHEME_SIM_MERKLE, params=bytes(ALICE))
    message = CscpMessage(
        sending_sc_id=1,
        receiving_sc_id=0x01020304,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=ALICE,
        receiver_id=BOB,
        payload_hash=_h("payload"),
    )
    path = MerklePath(
        leaf_index=5,
        siblings=((_h("s0"), True), (_h("s1"), False), (_h("s2"), True)),
    )
    redeem_proof = RedeemProof(
        msg_path=path,
        segments=(path, MerklePath(leaf_index=0, siblings=((_h("t0"), False),))),
        block_hash=_h("block"),
    )
    return {
        "Proof": proof,
        "VerificationKey": vk,
        "CscpMessage": message,
        "WithdrawalCertificate": WithdrawalCertificate(
            ledger_id=7,
            epoch_id=2**40 + 3,
            quality=2**64 - 1,
            bt_list=(b"", b"bt-entry"),
            proofdata=(_h("a"), _h("b")),
            proof=proof,
        ),
        "CeasedSidechainWithdrawal": CeasedSidechainWithdrawal(
            ledger_id=3,
            receiver=BOB,
            amount=12345,
            nullifier=_h("null"),
            proofdata=(_h("pd"),),
            proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b""),
        ),
        "BlockHeader": BlockHeader(height=9, parent_hash=_h("parent"), stc_root=_h("stc")),
        "SendTx": SendTx(message=message, payload=b"pl", signature=b"\x05" * 64),
        "RedeemTx": RedeemTx(
            message=message,
            payload=b"pl",
            proof=redeem_proof,
            sender_sig=b"\x02" * 64,
            receiver_signature=b"\x03" * 64,
        ),
        "CswRedeemTx": CswRedeemTx(
            message=message,
            payload=b"pl",
            proof=redeem_proof,
            sender_sig=b"\x02" * 64,
            receiver_signature=b"\x03" * 64,
            csw_nullifier=_h("null"),
        ),
        "SidechainRegistration": SidechainRegistration(
            sc_id=4,
            epoch_length=10,
            wcert_vk=vk,
            csw_vk=VerificationKey(scheme_id=SCHEME_SIM_MERKLE, params=bytes(BOB)),
        ),
        "TokenInstance/fungible": TokenInstance(
            token_name="GOLD",
            fungibility=True,
            issuer_sc_id=1,
            owner=ALICE,
            data_hash=_h("gold"),
            amount=2**64 - 1,
        ),
        "TokenInstance/nft": TokenInstance(
            token_name="ART-é",
            fungibility=False,
            issuer_sc_id=2,
            owner=BOB,
            data_hash=_h("art"),
            token_id=0,
        ),
        "SentRecord/fungible": SentRecord(receiver_sc_id=2, token_name="GOLD", fungibility=True, amount=40),
        "SentRecord/nft": SentRecord(receiver_sc_id=3, token_name="ART", fungibility=False, token_id=77),
        "WcertPublicInput": WcertPublicInput(
            quality=5, bt_list_root=_h("bt"), last_block_hash=_h("last"), proofdata_root=_h("pdr")
        ),
        "CswPublicInput": CswPublicInput(
            last_cert_block_hash=_h("lcb"),
            nullifier=_h("null"),
            receiver=ALICE,
            amount=0,
            proofdata_root=_h("pdr"),
        ),
        "RedeemProof": redeem_proof,
        "MerklePath": path,
        **_bundle_samples(),
    }
