"""One fixed value per wire type, for the golden encoding pin.

Built from constructors only, so the same samples encode under any version
of the codecs; `tests/golden/wire_vectors.json` holds the hex each one
encoded to when the pin was taken. Union-typed records get one sample per
arm.
"""
from mitto.hashing import MerklePath, Sibling, hash_bytes
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
)
from mitto.proofs import CommitmentChain, CswPublicInput, RedeemProof, SourceKind, WcertPublicInput
from mitto.tokens import SentRecord, TokenInstance

ALICE = KeyPair.from_label("actor", 0, "alice").public
BOB = KeyPair.from_label("actor", 0, "bob").public


def _h(label: str):
    return hash_bytes(label.encode())


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
        siblings=(Sibling(_h("s0"), True), Sibling(_h("s1"), False), Sibling(_h("s2"), True)),
    )
    chain = CommitmentChain(
        posting_digest=_h("posting"),
        segments=(path, MerklePath(leaf_index=0, siblings=(Sibling(_h("t0"), False),))),
    )
    redeem_proof = RedeemProof(
        source_kind=SourceKind.CSW,
        msg_path=path,
        msg_tree_root=_h("tree"),
        commitment_path=chain,
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
            csw_ref=(3, _h("null")),
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
        "CommitmentChain": chain,
        "RedeemProof": redeem_proof,
        "MerklePath": path,
    }
