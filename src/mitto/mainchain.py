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
it includes the winning certificate, or, when none arrived, marks the
sidechain ceased. A ceased sidechain accepts withdrawals whose proofs verify
against the enforced public input; each accepted withdrawal retires its
nullifier forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import encoding as enc
from . import verdict as v
from .encoding import U32, canonical_digest, nested, wire
from .hashing import Digest, EMPTY_ROOT, ScBlockEntries, StcTree, build_stc
from .journal import JournalList, JournalSet
from .messages import (
    BlockHeader,
    CeasedSidechainWithdrawal,
    VerificationKey,
    WithdrawalCertificate,
)
from .proofs import (
    SchemeMismatch,
    make_csw_input,
    make_wcert_input,
    verify_csw,
    verify_wcert,
)
from .verdict import Verdict

GENESIS_PARENT = Digest(bytes(32))

STATUS_PENDING = "pending"
STATUS_ALIVE = "alive"
STATUS_CEASED = "ceased"


class NotFound(Exception):
    """Unknown block, sidechain, or posting."""


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


@dataclass(frozen=True)
class Block:
    """Sealed block: header plus flat (kind, sc_id, digest) inclusion records,
    enough to rebuild the block commitment from scratch."""

    header: BlockHeader
    included: tuple[tuple[str, int, Digest], ...]

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def hash(self) -> Digest:
        return canonical_digest(self.header)

    @property
    def stc_root(self) -> Digest:
        return self.header.stc_root


@dataclass
class ScRecord:
    registration: SidechainRegistration
    status: str = STATUS_PENDING
    creation_height: int | None = None
    last_epoch: int | None = None
    last_cert_block_hash: Digest | None = None
    registration_block_hash: Digest | None = None
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

    def current_epoch(self, tip: int) -> int | None:
        """Epoch the tip height falls in, None before the first epoch opens."""
        if self.creation_height is None or tip <= self.creation_height:
            return None
        return (tip - self.creation_height - 1) // self.epoch_length


class Mainchain:
    """Single-writer settlement chain with deterministic sealing."""

    def __init__(self) -> None:
        genesis = BlockHeader(height=0, parent_hash=GENESIS_PARENT, stc_root=EMPTY_ROOT)
        self._blocks: list[Block] = [Block(header=genesis, included=())]
        self._by_hash: dict[Digest, Block] = {self._blocks[0].hash: self._blocks[0]}
        self._stc_trees: dict[Digest, StcTree] = {}
        self._postings: dict[Digest, object] = {}
        self._finalized: dict[tuple[int, int], tuple[WithdrawalCertificate, Digest]] = {}
        self._csw_included: dict[tuple[int, Digest], tuple[CeasedSidechainWithdrawal, Digest]] = {}
        self._records: dict[int, ScRecord] = {}
        self._pending_registrations: list[SidechainRegistration] = []
        self._pending_csws: JournalList[tuple[int, CeasedSidechainWithdrawal]] = JournalList()
        self._next_sc_id = 1

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
        sc_id = self._next_sc_id
        self._next_sc_id += 1
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
        cert_lists: dict[int, list[Digest]] = {}
        tx_lists: dict[int, list[Digest]] = {}
        included: list[tuple[str, int, Digest]] = []

        def tx_entry(sc_id: int, digest: Digest) -> None:
            tx_lists.setdefault(sc_id, []).append(digest)
            included.append(("tx", sc_id, digest))

        activated: list[ScRecord] = []
        activated_ids: set[int] = set()
        for registration in self._pending_registrations:
            record = self._records[registration.sc_id]
            record.creation_height = height
            record.status = STATUS_ALIVE
            digest = canonical_digest(registration)
            self._postings[digest] = registration
            tx_entry(registration.sc_id, digest)
            activated.append(record)
            activated_ids.add(registration.sc_id)
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
            digest = canonical_digest(cert)
            cert_lists.setdefault(cert.ledger_id, []).append(digest)
            included.append(("cert", cert.ledger_id, digest))
            self._postings[digest] = cert
            finalizing.append((record, cert))

        csw_batch: list[tuple[int, CeasedSidechainWithdrawal, Digest]] = []
        for sc_id, csw in sorted(self._pending_csws, key=lambda pending: pending[0]):
            digest = canonical_digest(csw)
            self._postings[digest] = csw
            tx_entry(sc_id, digest)
            csw_batch.append((sc_id, csw, digest))
        self._pending_csws.clear()

        entries = {
            sc_id: ScBlockEntries(
                cert_digests=tuple(cert_lists.get(sc_id, ())),
                tx_digests=tuple(tx_lists.get(sc_id, ())),
            )
            for sc_id in set(cert_lists) | set(tx_lists)
        }
        stc = build_stc(entries)
        header = BlockHeader(height=height, parent_hash=self.tip.hash, stc_root=stc.root)
        block = Block(header=header, included=tuple(included))
        self._blocks.append(block)
        self._by_hash[block.hash] = block
        self._stc_trees[block.hash] = stc

        for record in activated:
            record.registration_block_hash = block.hash
        for record, cert in finalizing:
            record.last_epoch = cert.epoch_id
            record.last_cert_block_hash = block.hash
            record.pending_cert = None
            self._finalized[(cert.ledger_id, cert.epoch_id)] = (cert, block.hash)
        for sc_id, csw, _digest in csw_batch:
            self._csw_included[(sc_id, csw.nullifier)] = (csw, block.hash)
        return block

    def advance_blocks(self, count: int) -> Block:
        for _ in range(count):
            block = self.advance_block()
        return block

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
        last_epoch_block = self._blocks[record.epoch_end(cert.epoch_id)]
        public_input = make_wcert_input(
            quality=cert.quality,
            bt_list=cert.bt_list,
            last_block_hash=last_epoch_block.hash,
            proofdata=cert.proofdata,
        )
        try:
            valid = verify_wcert(record.registration.wcert_vk, public_input, cert.proof)
        except SchemeMismatch:
            valid = False
        if not valid:
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
        anchor = record.last_cert_block_hash or record.registration_block_hash
        public_input = make_csw_input(
            last_cert_block_hash=anchor,
            nullifier=csw.nullifier,
            receiver=csw.receiver,
            amount=csw.amount,
            proofdata=csw.proofdata,
        )
        try:
            valid = verify_csw(record.registration.csw_vk, public_input, csw.proof)
        except SchemeMismatch:
            valid = False
        if not valid:
            return Verdict.rejected(v.PROOF_INVALID)
        record.used_nullifiers.add(csw.nullifier)
        self._pending_csws.append((csw.ledger_id, csw))
        return Verdict.ok()

    # -- queries (MainchainView) ----------------------------------------------

    def block_by_hash(self, block_hash: Digest) -> Block | None:
        return self._by_hash.get(block_hash)

    def posting(self, digest: Digest):
        return self._postings.get(digest)

    def finalized_cert(self, sc_id: int, epoch_id: int):
        return self._finalized.get((sc_id, epoch_id))

    def stc_tree(self, block_hash: Digest) -> StcTree:
        tree = self._stc_trees.get(block_hash)
        if tree is None:
            raise NotFound(f"no commitment tree for block {block_hash.hex()}")
        return tree

    def csw_inclusion(self, sc_id: int, nullifier: Digest):
        return self._csw_included.get((sc_id, nullifier))

    # -- inspection ------------------------------------------------------------

    def get_block(self, ref: int | Digest) -> Block:
        if isinstance(ref, int):
            if not 0 <= ref < len(self._blocks):
                raise NotFound(f"no block at height {ref}")
            return self._blocks[ref]
        block = self._by_hash.get(ref)
        if block is None:
            raise NotFound(f"no block with hash {ref.hex()}")
        return block

    def record(self, sc_id: int) -> ScRecord:
        record = self._records.get(sc_id)
        if record is None:
            raise NotFound(f"unknown sidechain {sc_id}")
        return record

    def csw_anchor_hash(self, sc_id: int) -> Digest:
        """Block hash a ceased sidechain's withdrawal proofs must anchor to."""
        record = self.record(sc_id)
        anchor = record.last_cert_block_hash or record.registration_block_hash
        if anchor is None:
            raise NotFound(f"sidechain {sc_id} was never included in a block")
        return anchor

    def get_status(self, sc_id: int) -> dict:
        record = self.record(sc_id)
        tip = self.tip_height
        status: dict = {
            "sc_id": sc_id,
            "status": record.status,
            "epoch_length": record.epoch_length,
            "creation_height": record.creation_height,
            "last_finalized_epoch": record.last_epoch,
            "tip_height": tip,
        }
        if record.status == STATUS_ALIVE:
            epoch = record.next_epoch()
            status["awaited_epoch"] = epoch
            status["window_open_at"] = record.epoch_end(epoch)
            status["window_closed_after"] = record.epoch_end(epoch + 1) - 1
            status["current_epoch"] = record.current_epoch(tip)
            status["pending_cert_quality"] = (
                record.pending_cert.quality if record.pending_cert else None
            )
        return status
