"""Submission outcomes shared by the settlement and sidechain layers.

Every submission entry point returns a Verdict instead of raising, because
rejection of attacker-controlled input is an expected outcome the harness
and conformance vectors need to inspect, not an error condition.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str = "Accepted"
    rule: str | None = None

    @classmethod
    def ok(cls) -> "Verdict":
        """The one accepted verdict, shared: verdicts are frozen and never
        compared by identity."""
        return _ACCEPTED

    @classmethod
    def rejected(cls, reason: str, rule: str | None = None) -> "Verdict":
        return cls(accepted=False, reason=reason, rule=rule)

    def to_json(self) -> dict:
        out: dict = {"accepted": self.accepted, "reason": self.reason}
        if self.rule is not None:
            out["rule"] = self.rule
        return out


_ACCEPTED = Verdict(accepted=True)

# Settlement-layer rejections.
SIDECHAIN_CEASED = "SidechainCeased"
SIDECHAIN_PENDING = "SidechainPending"
SIDECHAIN_ACTIVE = "SidechainActive"
WRONG_EPOCH = "WrongEpoch"
WINDOW_CLOSED = "WindowClosed"
PROOF_INVALID = "ProofInvalid"
LOWER_QUALITY = "LowerQuality"
NULLIFIER_REUSED = "NullifierReused"

# Sidechain-layer rejections.
BAD_SIGNATURE = "BadSignature"
WRONG_SENDER = "WrongSender"
PAYLOAD_MISMATCH = "PayloadMismatch"
SELF_SEND = "SelfSend"
HANDLER_REJECTED = "HandlerRejected"
WRONG_RECEIVING_CHAIN = "WrongReceivingChain"
ALREADY_REDEEMED = "AlreadyRedeemed"
BAD_RECEIVER_AUTH = "BadReceiverAuth"
