"""Wire types: byte roundtrips, digest bindings, strict decoding."""
import pytest

from mitto.encoding import DecodeError, canonical_digest
from mitto.hashing import hash_bytes
from mitto.keys import KeyPair
from mitto.messages import (
    MSG_TYPE_TOKEN_TRANSFER,
    SCHEME_SIM_MERKLE,
    BlockHeader,
    CeasedSidechainWithdrawal,
    CscpMessage,
    Proof,
    WithdrawalCertificate,
    message_digest,
    redeem_auth_digest,
)

ALICE = KeyPair.from_label("actor", 0, "alice").public
BOB = KeyPair.from_label("actor", 0, "bob").public


def sample_message(**overrides) -> CscpMessage:
    fields = dict(
        sending_sc_id=1,
        receiving_sc_id=2,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=ALICE,
        receiver_id=BOB,
        payload_hash=hash_bytes(b"payload"),
    )
    fields.update(overrides)
    return CscpMessage(**fields)


def sample_cert() -> WithdrawalCertificate:
    return WithdrawalCertificate(
        ledger_id=1,
        epoch_id=4,
        quality=9,
        bt_list=(b"bt-entry",),
        proofdata=(hash_bytes(b"a"), hash_bytes(b"b")),
        proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"\x01\x02"),
    )


def sample_csw() -> CeasedSidechainWithdrawal:
    return CeasedSidechainWithdrawal(
        ledger_id=3,
        receiver=ALICE,
        amount=0,
        nullifier=hash_bytes(b"null"),
        proofdata=(hash_bytes(b"pd"),),
        proof=Proof(scheme_id=SCHEME_SIM_MERKLE, body=b"\x07"),
    )


class TestByteRoundtrips:
    def test_message(self):
        m = sample_message()
        assert CscpMessage.decode(m.encode()) == m

    def test_certificate(self):
        c = sample_cert()
        assert WithdrawalCertificate.decode(c.encode()) == c

    def test_csw(self):
        w = sample_csw()
        assert CeasedSidechainWithdrawal.decode(w.encode()) == w

    def test_block_header(self):
        h = BlockHeader(height=5, parent_hash=hash_bytes(b"p"), stc_root=hash_bytes(b"s"))
        encoded = h.encode()
        assert len(encoded) == 73
        assert BlockHeader.decode(encoded) == h

    def test_truncated_message_rejected(self):
        blob = sample_message().encode()[:-1]
        with pytest.raises(DecodeError, match="need 109 bytes at offset 0, have 108"):
            CscpMessage.decode(blob)


class TestDigestBindings:
    def test_message_digest_changes_with_every_field(self):
        base = message_digest(sample_message())
        variants = [
            sample_message(sending_sc_id=9),
            sample_message(receiving_sc_id=9),
            sample_message(msg_type=2),
            sample_message(sender_id=BOB),
            sample_message(receiver_id=ALICE),
            sample_message(payload_hash=hash_bytes(b"other")),
        ]
        digests = {message_digest(v) for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_redeem_auth_digest_binds_payload(self):
        m = sample_message()
        assert redeem_auth_digest(m, b"one") != redeem_auth_digest(m, b"two")
        assert redeem_auth_digest(m, b"one") != message_digest(m)

    def test_canonical_digest_distinguishes_types(self):
        # A certificate and a CSW must never share a digest even with aligned fields.
        assert canonical_digest(sample_cert()) != canonical_digest(sample_csw())
