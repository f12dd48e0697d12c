"""Simulated settlement chain: blocks, epochs, certificates, withdrawals.

The chain advances one block at a time. Each block commits, per registered
sidechain, an optional certificate digest plus a transaction tree, all folded
into one block-level commitment root carried by the header.

One withdrawal epoch of a sidechain registered at height h with epoch length
L spans heights [h+1+eL, h+(e+1)L]. The certificate for epoch e may be
submitted while the tip is anywhere in [end(e), end(e+1)-1], so it lands in a
block of epoch e+1. While the window is open, submissions compete on quality:
the first certificate at the top quality holds the slot, a strictly higher
quality replaces it. The block sealed at height end(e+1) settles the epoch:
it includes the winning certificate, whose ``StateAnchor`` the finalized
index keeps from then on, or, when none arrived, marks the sidechain ceased.
A ceased sidechain accepts withdrawals whose proofs verify against the
enforced public input; each accepted withdrawal retires its nullifier forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import encoding as enc
from . import verdict as v
from .encoding import U32, canonical_digest, nested, wire
from .hashing import Digest, EMPTY_STC, ScBlockEntries, StcTree, build_stc
from .journal import JournalDict, Journaled, JournalList, JournalSet
from .messages import (
    BlockHeader,
    CeasedSidechainWithdrawal,
    VerificationKey,
    WithdrawalCertificate,
)
from .proofs import CswPublicInput, StateAnchor, WcertPublicInput, make_csw_input, make_wcert_input
from .proofs import verify_csw, verify_wcert
from .verdict import Verdict

GENESIS_PARENT = bytes(32)

STATUS_PENDING = "pending"
STATUS_ALIVE = "alive"
STATUS_CEASED = "ceased"


class NotFound(Exception):
    """Unknown block or sidechain."""


class InvalidParams(Exception):
    """Registration parameters outside the supported range."""


@wire(
    enc.TAG_REGISTRATION,
    ("sc_id", U32),
    ("epoch_length", U32),
    ("wcert_vk", nested("VerificationKey")),
    ("csw_vk", nested("VerificationKey")),
)
@dataclass(frozen=True)
class SidechainRegistration:
    sc_id: int
    epoch_length: int
    wcert_vk: VerificationKey
    csw_vk: VerificationKey


@dataclass(frozen=True, eq=False, repr=False)
class Block:
    """Sealed block: its header and the commitment tree whose root the
    header carries."""

    header: BlockHeader
    stc: StcTree

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def hash(self) -> Digest:
        return canonical_digest(self.header)

    @property
    def stc_root(self) -> Digest:
        return self.header.stc_root


@dataclass(eq=False, repr=False)
class ScRecord(Journaled):
    registration: SidechainRegistration
    status: str = STATUS_PENDING
    creation_height: int | None = None
    last_epoch: int | None = None
    pending_cert: WithdrawalCertificate | None = None
    used_nullifiers: JournalSet[Digest] = field(default_factory=JournalSet)

    @property
    def epoch_length(self) -> int:
        return self.registration.epoch_length

    def epoch_end(self, epoch_id: int) -> int:
        assert self.creation_height is not None
        return self.creation_height + (epoch_id + 1) * self.epoch_length

    def next_epoch(self) -> int:
        return 0 if self.last_epoch is None else self.last_epoch + 1

    def silent_cease_height(self, tip: int) -> int:
        """Height of the block that ceases this chain if no certificate
        arrives after ``tip``; a pending certificate settles one more epoch."""
        if self.status == STATUS_CEASED:
            return tip
        if self.creation_height is None:  # activates at tip + 1; epoch 0 settles 2 epochs later
            return tip + 1 + 2 * self.epoch_length
        return self.epoch_end(self.next_epoch() + (1 if self.pending_cert is None else 2))

    def current_epoch(self, tip: int) -> int | None:
        """Epoch the tip height falls in, None before the first epoch opens."""
        if self.creation_height is None or tip <= self.creation_height:
            return None
        return (tip - self.creation_height - 1) // self.epoch_length


class Mainchain(Journaled):
    """Single-writer settlement chain with deterministic sealing."""

    def __init__(self) -> None:
        genesis = BlockHeader(height=0, parent_hash=GENESIS_PARENT, stc_root=EMPTY_STC.root)
        self._blocks: JournalList[Block] = JournalList([Block(header=genesis, stc=EMPTY_STC)])
        self._by_hash: JournalDict[Digest, Block] = JournalDict({self._blocks[0].hash: self._blocks[0]})
        self._finalized: JournalDict[tuple[int, int], StateAnchor] = JournalDict()
        self._csw_inclusions: JournalDict[tuple[int, Digest], tuple[CeasedSidechainWithdrawal, Digest]] = JournalDict()
        self._records: JournalDict[int, ScRecord] = JournalDict()
        self._pending_registrations: JournalList[SidechainRegistration] = JournalList()
        self._pending_csws: JournalList[tuple[int, CeasedSidechainWithdrawal]] = JournalList()

    # -- registration -------------------------------------------------------

    def register_sidechain(
        self,
        epoch_length: int,
        wcert_vk: VerificationKey,
        csw_vk: VerificationKey,
    ) -> int:
        """Queue a sidechain creation; it activates in the next sealed block."""
        if epoch_length < 2:
            raise InvalidParams(f"epoch length {epoch_length} is below the minimum of 2")
        if epoch_length > enc.U32_MAX:
            raise InvalidParams(f"epoch length {epoch_length} does not fit the registration's u32")
        sc_id = len(self._records) + 1
        registration = SidechainRegistration(
            sc_id=sc_id, epoch_length=epoch_length, wcert_vk=wcert_vk, csw_vk=csw_vk
        )
        self._records[sc_id] = ScRecord(registration=registration)
        self._pending_registrations.append(registration)
        return sc_id

    # -- block production ----------------------------------------------------

    @property
    def tip(self) -> Block:
        return self._blocks[-1]

    @property
    def tip_height(self) -> int:
        return self._blocks[-1].height

    def advance_block(self) -> Block:
        """Seal one block from everything queued since the last one."""
        height = self.tip_height + 1
        certs: dict[int, Digest] = {}
        tx_lists: dict[int, list[Digest]] = {}

        activated_ids: set[int] = set()
        for registration in self._pending_registrations:
            record = self._records[registration.sc_id]
            record.creation_height = height
            record.status = STATUS_ALIVE
            tx_lists.setdefault(registration.sc_id, []).append(canonical_digest(registration))
            activated_ids.add(registration.sc_id)
        if self._pending_registrations:  # each clear is a counted write
            self._pending_registrations.clear()

        finalizing: list[tuple[ScRecord, WithdrawalCertificate]] = []
        for sc_id, record in self._records.items():
            if record.status != STATUS_ALIVE or sc_id in activated_ids:
                continue
            epoch = record.next_epoch()
            if height != record.epoch_end(epoch + 1):
                continue
            if record.pending_cert is None:
                record.status = STATUS_CEASED
                continue
            cert = record.pending_cert
            certs[sc_id] = canonical_digest(cert)
            finalizing.append((record, cert))

        csw_batch = sorted(self._pending_csws, key=lambda pending: pending[0])
        if csw_batch:
            self._pending_csws.clear()
        for sc_id, csw in csw_batch:
            tx_lists.setdefault(sc_id, []).append(canonical_digest(csw))

        entries = {
            sc_id: ScBlockEntries(cert_digest=certs.get(sc_id), tx_digests=tuple(tx_lists.get(sc_id, ())))
            for sc_id in certs.keys() | tx_lists.keys()
        }
        stc = build_stc(entries) if entries else EMPTY_STC
        header = BlockHeader(height=height, parent_hash=self.tip.hash, stc_root=stc.root)
        block = Block(header=header, stc=stc)
        self._blocks.append(block)
        self._by_hash[block.hash] = block

        for record, cert in finalizing:
            record.last_epoch = cert.epoch_id
            record.pending_cert = None
            anchor = StateAnchor(cert=cert, stc_path=stc.cert_path(cert.ledger_id), header=header)
            self._finalized[(cert.ledger_id, cert.epoch_id)] = anchor
        for sc_id, csw in csw_batch:
            self._csw_inclusions[(sc_id, csw.nullifier)] = (csw, block.hash)
        return block

    def advance_blocks(self, count: int) -> None:
        for _ in range(count):
            self.advance_block()

    # -- certificate submission ----------------------------------------------

    def submit_certificate(self, cert: WithdrawalCertificate) -> Verdict:
        record = self._records.get(cert.ledger_id)
        if record is None:
            raise NotFound(f"unknown sidechain {cert.ledger_id}")
        if record.status == STATUS_PENDING:
            return Verdict.rejected(v.SIDECHAIN_PENDING)
        if record.status == STATUS_CEASED:
            return Verdict.rejected(v.SIDECHAIN_CEASED)
        if cert.epoch_id != record.next_epoch():
            return Verdict.rejected(v.WRONG_EPOCH)
        tip = self.tip_height
        if not (record.epoch_end(cert.epoch_id) <= tip <= record.epoch_end(cert.epoch_id + 1) - 1):
            return Verdict.rejected(v.WINDOW_CLOSED)
        if not verify_wcert(record.registration.wcert_vk, self.wcert_input(cert), cert.proof):
            return Verdict.rejected(v.PROOF_INVALID)
        if record.pending_cert is not None and cert.quality <= record.pending_cert.quality:
            return Verdict.rejected(v.LOWER_QUALITY)
        record.pending_cert = cert
        return Verdict.ok()

    # -- ceased-sidechain withdrawals -----------------------------------------

    def submit_csw(self, csw: CeasedSidechainWithdrawal) -> Verdict:
        record = self._records.get(csw.ledger_id)
        if record is None:
            raise NotFound(f"unknown sidechain {csw.ledger_id}")
        if record.status != STATUS_CEASED:
            return Verdict.rejected(v.SIDECHAIN_ACTIVE)
        if csw.nullifier in record.used_nullifiers:
            return Verdict.rejected(v.NULLIFIER_REUSED)
        if not verify_csw(record.registration.csw_vk, self.csw_input(csw), csw.proof):
            return Verdict.rejected(v.PROOF_INVALID)
        record.used_nullifiers.add(csw.nullifier)
        self._pending_csws.append((csw.ledger_id, csw))
        return Verdict.ok()

    # -- queries -----------------------------------------------------------------

    def block_by_hash(self, block_hash: Digest) -> Block | None:
        return self._by_hash.get(block_hash)

    def finalized_cert(self, sc_id: int, epoch_id: int) -> StateAnchor | None:
        """The anchor of chain ``sc_id``'s finalized certificate for ``epoch_id``, or None."""
        return self._finalized.get((sc_id, epoch_id))

    def certificate_in(self, sc_id: int, block_hash: Digest) -> WithdrawalCertificate | None:
        """The certificate chain ``sc_id`` finalized in block ``block_hash``, or None."""
        block, record = self._by_hash.get(block_hash), self._records.get(sc_id)
        epoch = None if block is None or record is None else record.current_epoch(block.height)
        # Epoch e settles in the last block of epoch e + 1.
        anchor = None if epoch is None else self._finalized.get((sc_id, epoch - 1))
        # advance_block gives the anchor the header object of the block it
        # seals, so identity decides, without a field-by-field compare.
        return anchor.cert if anchor is not None and anchor.header is block.header else None

    def csw_inclusion(self, sc_id: int, nullifier: Digest):
        return self._csw_inclusions.get((sc_id, nullifier))

    # -- inspection ------------------------------------------------------------

    def get_block(self, height: int) -> Block:
        if not 0 <= height < len(self._blocks):
            raise NotFound(f"no block at height {height}")
        return self._blocks[height]

    def record(self, sc_id: int) -> ScRecord:
        record = self._records.get(sc_id)
        if record is None:
            raise NotFound(f"unknown sidechain {sc_id}")
        return record

    def wcert_anchor_hash(self, sc_id: int, epoch_id: int) -> Digest:
        """Block hash a certificate for ``epoch_id`` must anchor to: the last
        block of that epoch, or the tip while that block is not sealed. A
        certificate that early is refused as out-of-window before its proof
        is read, so any hash serves."""
        height = self.record(sc_id).epoch_end(epoch_id)
        return (self.tip if height > self.tip_height else self.get_block(height)).hash

    def csw_anchor_hash(self, sc_id: int) -> Digest:
        """Block hash a ceased sidechain's withdrawal proofs must anchor to:
        the block that finalized its last certificate, else the block that
        registered it."""
        record = self.record(sc_id)
        if record.last_epoch is not None:
            return canonical_digest(self._finalized[(sc_id, record.last_epoch)].header)
        if record.creation_height is None:
            raise NotFound(f"sidechain {sc_id} was never included in a block")
        return self._blocks[record.creation_height].hash

    def wcert_input(self, cert: WithdrawalCertificate) -> WcertPublicInput:
        """The public input this chain checks ``cert``'s proof against."""
        anchor = self.wcert_anchor_hash(cert.ledger_id, cert.epoch_id)
        return make_wcert_input(cert.quality, cert.bt_list, anchor, cert.proofdata)

    def csw_input(self, csw: CeasedSidechainWithdrawal) -> CswPublicInput:
        """The public input this chain checks ``csw``'s proof against."""
        anchor = self.csw_anchor_hash(csw.ledger_id)
        return make_csw_input(anchor, csw.nullifier, csw.receiver, csw.amount, csw.proofdata)
