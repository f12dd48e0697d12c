"""Token-transfer rules, exercised one by one against hand-built states.

The sent-record arithmetic cases were executed by hand first and the
expected ledger contents written down before the assertions; nothing here
is generated from the implementation's own output.
"""
from dataclasses import replace

import pytest

from worlds import two_chain_world

from mitto.encoding import U64_MAX, canonical_digest
from mitto.hashing import hash_bytes
from mitto.keys import KeyPair
from mitto.messages import MSG_TYPE_TOKEN_TRANSFER, CscpMessage, SendTx, message_digest
from mitto.sidechain import ByzantineSidechain
from mitto.tokens import (
    ANY_COUNTERPARTY,
    VARIANT_ISSUER_NOTIFICATION,
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    DuplicateTokenId,
    MittoState,
    NameConflict,
    SentRecord,
    TokenInstance,
    TokenNameRegistry,
    TokenTransferHandler,
    ZeroAmount,
    make_redeem_tx,
)
from mitto.verdict import HANDLER_REJECTED

ALICE = KeyPair.from_label("actor", 0, "alice")
BOB = KeyPair.from_label("actor", 0, "bob")

HOME, AWAY, ELSEWHERE = 1, 2, 3


def fresh_state(sc_id=HOME, variant=None, registry=None):
    kwargs = {"sc_id": sc_id, "registry": registry or TokenNameRegistry()}
    if variant:
        kwargs["variant"] = variant
    return MittoState(**kwargs)


def send_message(instance, sending=HOME, receiving=AWAY, sender=None, receiver=None, **overrides):
    fields = dict(
        sending_sc_id=sending,
        receiving_sc_id=receiving,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=(sender or ALICE).public,
        receiver_id=(receiver or BOB).public,
        payload_hash=canonical_digest(instance),
    )
    fields.update(overrides)
    return CscpMessage(**fields)


def signed(message, signer=ALICE):
    return signer.sign(message_digest(message))


class TestInstanceTypes:
    def test_fungible_requires_amount_nft_requires_id(self):
        with pytest.raises(ValueError):
            TokenInstance("X", True, HOME, ALICE.public, hash_bytes(b"d"))
        with pytest.raises(ValueError):
            TokenInstance("X", True, HOME, ALICE.public, hash_bytes(b"d"), amount=5, token_id=1)
        with pytest.raises(ValueError):
            TokenInstance("X", False, HOME, ALICE.public, hash_bytes(b"d"), amount=5)
        with pytest.raises(ValueError):
            TokenInstance("X", True, HOME, ALICE.public, hash_bytes(b"d"), amount=0)

    def test_codec_roundtrips(self):
        fungible = TokenInstance("WBT", True, HOME, ALICE.public, hash_bytes(b"d"), amount=10)
        nft = TokenInstance("ART", False, HOME, ALICE.public, hash_bytes(b"d"), token_id=7)
        assert TokenInstance.decode(fungible.encode()) == fungible
        assert TokenInstance.decode(nft.encode()) == nft
        record = SentRecord(AWAY, "WBT", True, amount=10)
        assert SentRecord.decode(record.encode()) == record


class TestIssue:
    def test_zero_amount_rejected(self):
        state = fresh_state()
        with pytest.raises(ZeroAmount):
            state.issue("X", True, ALICE.public, hash_bytes(b"d"), amount=0)

    def test_duplicate_token_id_rejected_per_name(self):
        state = fresh_state()
        state.issue("ART", False, ALICE.public, hash_bytes(b"d"), token_id=1)
        with pytest.raises(DuplicateTokenId):
            state.issue("ART", False, ALICE.public, hash_bytes(b"e"), token_id=1)
        # ids are scoped per name: a different name may reuse the id
        state.issue("OTHER", False, ALICE.public, hash_bytes(b"f"), token_id=1)

    def test_name_registry_pins_fungibility(self):
        registry = TokenNameRegistry()
        home, away = fresh_state(HOME, registry=registry), fresh_state(AWAY, registry=registry)
        home.issue("WBT", True, ALICE.public, hash_bytes(b"d"), amount=5)
        with pytest.raises(NameConflict):
            away.issue("WBT", False, BOB.public, hash_bytes(b"e"), token_id=1)
        with pytest.raises(NameConflict):
            away.issue("WBT", True, BOB.public, hash_bytes(b"e"), amount=3)


class TestSendRules:
    def setup_held(self, variant=None):
        state = fresh_state(variant=variant)
        ti = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        return state, ti

    def test_accepted(self):
        state, ti = self.setup_held()
        msg = send_message(ti)
        assert state.validate_send(ti, msg, signed(msg)) is None

    def test_r1_instance_must_be_held(self):
        state, ti = self.setup_held()
        ghost = replace(ti, amount=9)
        msg = send_message(ghost)
        assert state.validate_send(ghost, msg, signed(msg)) == "send-1"

    def test_r2_foreign_tokens_only_travel_home(self):
        state = fresh_state(sc_id=AWAY)
        foreign = TokenInstance("WBT", True, HOME, ALICE.public, hash_bytes(b"g"), amount=10)
        state.s_tks[canonical_digest(foreign)] = foreign
        msg = send_message(foreign, sending=AWAY, receiving=ELSEWHERE)
        assert state.validate_send(foreign, msg, signed(msg)) == "send-2"
        home_msg = send_message(foreign, sending=AWAY, receiving=HOME)
        assert state.validate_send(foreign, home_msg, signed(home_msg)) is None

    def test_r3a_sending_chain_is_self(self):
        state, ti = self.setup_held()
        msg = send_message(ti, sending=ELSEWHERE)
        assert state.validate_send(ti, msg, signed(msg)) == "send-3a"

    def test_r3b_receiving_chain_differs(self):
        state, ti = self.setup_held()
        msg = send_message(ti, receiving=HOME)
        assert state.validate_send(ti, msg, signed(msg)) == "send-3b"

    def test_r3c_message_type(self):
        state, ti = self.setup_held()
        msg = send_message(ti, msg_type=9)
        assert state.validate_send(ti, msg, signed(msg)) == "send-3c"

    def test_r3d_sender_is_owner(self):
        state, ti = self.setup_held()
        msg = send_message(ti, sender=BOB)
        assert state.validate_send(ti, msg, signed(msg, BOB)) == "send-3d"

    def test_r3e_payload_hash_binds_instance(self):
        state, ti = self.setup_held()
        msg = send_message(ti, payload_hash=hash_bytes(b"other"))
        assert state.validate_send(ti, msg, signed(msg)) == "send-3e"

    def test_r4_owner_signature(self):
        state, ti = self.setup_held()
        msg = send_message(ti)
        assert state.validate_send(ti, msg, signed(msg, BOB)) == "send-4"

    def test_r5_sent_record_stays_within_u64(self):
        state = fresh_state()
        first, second = (
            state.issue("WBT", True, ALICE.public, hash_bytes(data), amount=U64_MAX) for data in (b"g", b"h")
        )
        state.apply_send(first, send_message(first))
        msg = send_message(second)
        assert state.validate_send(second, msg, signed(msg)) == "send-5"
        # checked before the signature; another counterparty has room
        assert state.validate_send(second, msg, signed(msg, BOB)) == "send-5"
        msg = send_message(second, receiving=ELSEWHERE)
        assert state.validate_send(second, msg, signed(msg)) is None

    def test_r5_follows_the_variant_counterparty(self):
        untracked = fresh_state(variant=VARIANT_NO_RECEIVER_TRACKING)
        none_kept = fresh_state(variant=VARIANT_NO_SENT_RECORDS)
        for state, rule in ((untracked, "send-5"), (none_kept, None)):
            first, second = (
                state.issue("WBT", True, ALICE.public, hash_bytes(data), amount=U64_MAX) for data in (b"g", b"h")
            )
            state.apply_send(first, send_message(first))
            msg = send_message(second, receiving=ELSEWHERE)
            assert state.validate_send(second, msg, signed(msg)) == rule

    def test_rule_order_r1_before_r4(self):
        state, ti = self.setup_held()
        ghost = replace(ti, amount=9)
        msg = send_message(ghost)
        assert state.validate_send(ghost, msg, signed(msg, BOB)) == "send-1"


class TestSendEffects:
    def test_burn_and_fungible_record(self):
        state = fresh_state()
        ti = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        state.apply_send(ti, send_message(ti))
        assert state.s_tks == {}
        assert state.s_sent[("f", AWAY, "WBT")] == SentRecord(AWAY, "WBT", True, amount=10)

    def test_nft_record(self):
        state = fresh_state()
        ti = state.issue("ART", False, ALICE.public, hash_bytes(b"g"), token_id=3)
        state.apply_send(ti, send_message(ti))
        assert state.s_sent[("n", "ART", 3)] == SentRecord(AWAY, "ART", False, token_id=3)

    def test_foreign_send_leaves_no_record(self):
        state = fresh_state(sc_id=AWAY)
        foreign = TokenInstance("WBT", True, HOME, ALICE.public, hash_bytes(b"g"), amount=10)
        state.s_tks[canonical_digest(foreign)] = foreign
        state.apply_send(foreign, send_message(foreign, sending=AWAY, receiving=HOME))
        assert state.s_sent == {}


class TestSentRecordArithmetic:
    """Hand-executed ledger walk. Expected values worked out by hand:

    send 60 to AWAY            -> record (AWAY, WBT, 60)
    send 40 more to AWAY       -> record (AWAY, WBT, 100)
    redeem 60 back from AWAY   -> record (AWAY, WBT, 40)
    redeem 40 back from AWAY   -> record removed
    """

    def test_walk(self):
        state = fresh_state()
        whole = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=100)
        sixty, forty = state.split(canonical_digest(whole), 60)

        state.apply_send(sixty, send_message(sixty))
        assert state.s_sent[("f", AWAY, "WBT")].amount == 60

        state.apply_send(forty, send_message(forty))
        assert state.s_sent[("f", AWAY, "WBT")].amount == 100
        assert state.s_tks == {}

        back_sixty = replace(sixty, owner=BOB.public)
        msg = send_message(back_sixty, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(back_sixty, msg, signed(msg, BOB)) is None
        state.apply_redeem(back_sixty, msg)
        assert state.s_sent[("f", AWAY, "WBT")].amount == 40

        back_forty = replace(forty, owner=BOB.public)
        msg = send_message(back_forty, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(back_forty, msg, signed(msg, BOB)) is None
        state.apply_redeem(back_forty, msg)
        assert ("f", AWAY, "WBT") not in state.s_sent
        # both returned instances now held by alice (the message receiver)
        assert sorted(t.amount for t in state.s_tks.values()) == [40, 60]
        assert all(t.owner == ALICE.public for t in state.s_tks.values())


class TestRedeemRules:
    def foreign_arrival(self):
        """BOB redeems a HOME-issued token onto AWAY."""
        state = fresh_state(sc_id=AWAY)
        ti = TokenInstance("WBT", True, HOME, BOB.public, hash_bytes(b"g"), amount=10)
        msg = send_message(ti, sending=HOME, receiving=AWAY, sender=BOB, receiver=ALICE)
        return state, ti, msg

    def returning_home(self, amount=10, recorded=10):
        """A HOME-issued token coming back; HOME holds a matching record."""
        state = fresh_state(sc_id=HOME)
        if recorded:
            state.s_sent[("f", AWAY, "WBT")] = SentRecord(AWAY, "WBT", True, amount=recorded)
        ti = TokenInstance("WBT", True, HOME, BOB.public, hash_bytes(b"g"), amount=amount)
        msg = send_message(ti, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        return state, ti, msg

    def test_foreign_arrival_accepted(self):
        state, ti, msg = self.foreign_arrival()
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) is None

    def test_r1_issuer_must_be_sender_or_self(self):
        # token issued by ELSEWHERE arriving from HOME onto AWAY
        state = fresh_state(sc_id=AWAY)
        ti = TokenInstance("WBT", True, ELSEWHERE, BOB.public, hash_bytes(b"g"), amount=10)
        msg = send_message(ti, sending=HOME, receiving=AWAY, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) == "redeem-1"

    def test_r1_rejects_own_token_from_unsent_chain(self):
        # HOME-issued token claims to arrive from ELSEWHERE while the record
        # names AWAY: the strict reading rejects it at the record check.
        state, ti, _ = self.returning_home()
        msg = send_message(ti, sending=ELSEWHERE, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) == "redeem-2a"

    def test_r2a_missing_record(self):
        state, ti, msg = self.returning_home(recorded=0)
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) == "redeem-2a"

    def test_r2a_insufficient_record(self):
        state, ti, msg = self.returning_home(amount=10, recorded=6)
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) == "redeem-2a"

    def test_r2b_nft_record_must_name_counterparty(self):
        state = fresh_state(sc_id=HOME)
        state.s_sent[("n", "ART", 3)] = SentRecord(ELSEWHERE, "ART", False, token_id=3)
        nft = TokenInstance("ART", False, HOME, BOB.public, hash_bytes(b"g"), token_id=3)
        msg = send_message(nft, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(nft, msg, signed(msg, BOB)) == "redeem-2b"

    def test_r3_nft_must_not_already_live_here(self):
        state = fresh_state(sc_id=AWAY)
        resident = TokenInstance("ART", False, HOME, ALICE.public, hash_bytes(b"h"), token_id=3)
        state.s_tks[canonical_digest(resident)] = resident
        incoming = TokenInstance("ART", False, HOME, BOB.public, hash_bytes(b"g"), token_id=3)
        msg = send_message(incoming, sending=HOME, receiving=AWAY, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(incoming, msg, signed(msg, BOB)) == "redeem-3"

    def test_r4a_source_chain_differs_from_self(self):
        # Give the record the lying counterparty so the earlier record check
        # passes and the self-source rule is the one that fires.
        state, ti, _ = self.returning_home()
        state.s_sent[("f", HOME, "WBT")] = SentRecord(HOME, "WBT", True, amount=10)
        msg = send_message(ti, sending=HOME, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(ti, msg, signed(msg, BOB)) == "redeem-4a"

    def test_r4b_destination_is_self(self):
        state, ti, msg = self.foreign_arrival()
        wrong = send_message(ti, sending=HOME, receiving=ELSEWHERE, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(ti, wrong, signed(wrong, BOB)) == "redeem-4b"

    def test_r4c_message_type(self):
        state, ti, msg = self.foreign_arrival()
        wrong = send_message(ti, sending=HOME, receiving=AWAY, sender=BOB, receiver=ALICE, msg_type=9)
        assert state.validate_redeem(ti, wrong, signed(wrong, BOB)) == "redeem-4c"

    def test_r4d_sender_is_owner(self):
        state, ti, msg = self.foreign_arrival()
        wrong = send_message(ti, sending=HOME, receiving=AWAY, sender=ALICE, receiver=ALICE)
        assert state.validate_redeem(ti, wrong, signed(wrong)) == "redeem-4d"

    def test_r4e_payload_hash(self):
        state, ti, msg = self.foreign_arrival()
        wrong = send_message(
            ti, sending=HOME, receiving=AWAY, sender=BOB, receiver=ALICE, payload_hash=hash_bytes(b"x")
        )
        assert state.validate_redeem(ti, wrong, signed(wrong, BOB)) == "redeem-4e"

    def test_r5_sender_signature(self):
        state, ti, msg = self.foreign_arrival()
        assert state.validate_redeem(ti, msg, signed(msg, ALICE)) == "redeem-5"

    def test_redeem_mints_for_message_receiver(self):
        state, ti, msg = self.foreign_arrival()
        state.apply_redeem(ti, msg)
        minted = list(state.s_tks.values())
        assert len(minted) == 1 and minted[0].owner == ALICE.public

    def test_nft_return_removes_record(self):
        state = fresh_state(sc_id=HOME)
        state.s_sent[("n", "ART", 3)] = SentRecord(AWAY, "ART", False, token_id=3)
        nft = TokenInstance("ART", False, HOME, BOB.public, hash_bytes(b"g"), token_id=3)
        msg = send_message(nft, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(nft, msg, signed(msg, BOB)) is None
        state.apply_redeem(nft, msg)
        assert state.s_sent == {}


class TestVariants:
    def test_no_sent_records_skips_the_ledger(self):
        state = fresh_state(variant=VARIANT_NO_SENT_RECORDS)
        ti = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        state.apply_send(ti, send_message(ti))
        assert state.s_sent == {}
        # forged over-return sails through the missing check
        forged = replace(ti, amount=999, owner=BOB.public)
        msg = send_message(forged, sending=AWAY, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(forged, msg, signed(msg, BOB)) is None

    def test_no_receiver_tracking_loses_the_counterparty(self):
        state = fresh_state(variant=VARIANT_NO_RECEIVER_TRACKING)
        ti = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        state.apply_send(ti, send_message(ti, receiving=AWAY))
        assert state.s_sent[("f", ANY_COUNTERPARTY, "WBT")].amount == 10
        # a return from a chain it was never sent to passes the relaxed check
        back = replace(ti, owner=BOB.public)
        msg = send_message(back, sending=ELSEWHERE, receiving=HOME, sender=BOB, receiver=ALICE)
        assert state.validate_redeem(back, msg, signed(msg, BOB)) is None

    def test_issuer_notification_drops_r2_and_trusts_notices(self):
        state = fresh_state(variant=VARIANT_ISSUER_NOTIFICATION)
        foreign = TokenInstance("WBT", True, ELSEWHERE, ALICE.public, hash_bytes(b"g"), amount=10)
        state.s_tks[canonical_digest(foreign)] = foreign
        msg = send_message(foreign, sending=HOME, receiving=AWAY)
        assert state.validate_send(foreign, msg, signed(msg)) is None  # R2 skipped

    def test_notification_reassigns_and_rejects_unknown(self):
        state = fresh_state(variant=VARIANT_ISSUER_NOTIFICATION)
        ti = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        state.apply_send(ti, send_message(ti, receiving=AWAY))
        assert state.apply_notification(AWAY, ELSEWHERE, "WBT", amount=4)
        assert state.s_sent[("f", AWAY, "WBT")].amount == 6
        assert state.s_sent[("f", ELSEWHERE, "WBT")].amount == 4
        assert not state.apply_notification(AWAY, ELSEWHERE, "WBT", amount=100)
        # forged notification corrupts accounting: that is the demonstrated flaw
        assert state.apply_notification(ELSEWHERE, HOME, "WBT", amount=4)

    def test_notification_refuses_overflowing_record(self):
        state = fresh_state(variant=VARIANT_ISSUER_NOTIFICATION)
        for data in (b"g", b"h"):
            ti = state.issue("WBT", True, ALICE.public, hash_bytes(data), amount=U64_MAX)
            state.apply_send(ti, send_message(ti, receiving=AWAY if data == b"g" else ELSEWHERE))
        before = dict(state.s_sent)
        assert not state.apply_notification(AWAY, ELSEWHERE, "WBT", amount=1)
        assert dict(state.s_sent) == before

    def test_standard_state_rejects_notifications(self):
        state = fresh_state()
        with pytest.raises(ValueError):
            state.apply_notification(AWAY, ELSEWHERE, "WBT", amount=1)


class TestSplitMerge:
    def test_split_preserves_total_and_owner(self):
        state = fresh_state()
        whole = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        a, b = state.split(canonical_digest(whole), 3)
        assert (a.amount, b.amount) == (3, 7)
        assert a.owner == b.owner == ALICE.public
        assert canonical_digest(whole) not in state.s_tks
        assert {canonical_digest(a), canonical_digest(b)} <= set(state.s_tks)

    def test_split_is_deterministic(self):
        one = fresh_state()
        two = fresh_state()
        w1 = one.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        w2 = two.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        assert [canonical_digest(x) for x in one.split(canonical_digest(w1), 3)] == [
            canonical_digest(x) for x in two.split(canonical_digest(w2), 3)
        ]

    def test_split_bounds(self):
        state = fresh_state()
        whole = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        with pytest.raises(ValueError):
            state.split(canonical_digest(whole), 0)
        with pytest.raises(ValueError):
            state.split(canonical_digest(whole), 10)

    def test_merge_rejoins(self):
        state = fresh_state()
        whole = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        a, b = state.split(canonical_digest(whole), 3)
        merged = state.merge([canonical_digest(a), canonical_digest(b)])
        assert merged.amount == 10
        assert len(state.s_tks) == 1

    def test_merge_over_u64_raises_before_touching_parents(self):
        state = fresh_state()
        a = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=U64_MAX)
        b = state.issue("WBT", True, ALICE.public, hash_bytes(b"h"), amount=1)
        before = dict(state.s_tks)
        with pytest.raises(ValueError, match="exceeds u64"):
            state.merge([canonical_digest(a), canonical_digest(b)])
        assert dict(state.s_tks) == before

    def test_merge_requires_matching_name_and_owner(self):
        state = fresh_state()
        a = state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=3)
        b = state.issue("OTH", True, ALICE.public, hash_bytes(b"h"), amount=4)
        with pytest.raises(ValueError):
            state.merge([canonical_digest(a), canonical_digest(b)])


class TestHandlerAdapter:
    def test_malformed_payload_is_a_rule_violation(self):
        """The handler's parse refuses bytes that decode to no token
        instance, and the gate turns that into rule malformed-payload on
        the send and on the redeem path."""
        w = two_chain_world()
        alpha, beta = w.chains["alpha"], w.chains["beta"]
        payload = b"\xff\xfe"
        assert alpha.handlers[MSG_TYPE_TOKEN_TRANSFER].parse(payload) is None
        message = CscpMessage(
            sending_sc_id=alpha.sc_id,
            receiving_sc_id=beta.sc_id,
            msg_type=MSG_TYPE_TOKEN_TRANSFER,
            sender_id=w.alice.public,
            receiver_id=w.bob.public,
            payload_hash=hash_bytes(payload),
        )
        signature = w.alice.sign(message_digest(message))
        verdict = alpha.accept_send(SendTx(message=message, payload=payload, signature=signature))
        assert (verdict.reason, verdict.rule) == (HANDLER_REJECTED, "malformed-payload")
        assert alpha.outbox == []
        # A byzantine operator of alpha commits the message anyway.
        evil = ByzantineSidechain(w.mc, alpha.sc_id, alpha.wcert_signer, alpha.csw_signer, label="evil")
        evil.handlers = alpha.handlers
        evil.fabricate_send(message, payload)
        w.mc.advance_blocks(2)
        assert evil.close_epoch()[1].accepted
        w.mc.advance_blocks(2)
        verdict = beta.accept_redeem(make_redeem_tx(w.mc, evil, 0, message, payload, signature, w.bob))
        assert (verdict.reason, verdict.rule) == (HANDLER_REJECTED, "malformed-payload")
        assert beta.redeemed == set()

    def test_snapshot_is_independent_copy(self):
        state = fresh_state()
        handler = TokenTransferHandler(state)
        state.issue("WBT", True, ALICE.public, hash_bytes(b"g"), amount=10)
        snap = handler.snapshot()
        state.issue("OTH", True, ALICE.public, hash_bytes(b"h"), amount=5)
        assert len(snap.s_tks) == 1
        assert len(state.s_tks) == 2


class TestDump:
    def test_dump_is_sorted_and_json_safe(self):
        import json

        state = fresh_state()
        state.issue("B", True, ALICE.public, hash_bytes(b"b"), amount=2)
        state.issue("A", True, ALICE.public, hash_bytes(b"a"), amount=1)
        dumped = state.dump()
        json.dumps(dumped)
        names = [entry["token_name"] for entry in dumped["s_tks"]]
        assert names == sorted(names)
