"""Global invariant checking over shadow books of every ledger.

The accountant is the harness's independent bookkeeper. It watches the
event stream (issues, sends, redeems, withdrawal redeems) to maintain its
own counters, and keeps its own book of what each chain holds and records,
never reading the token module's tallies. A disagreement between the two
bookkeepers is exactly what it exists to catch.

After every step the runner hands it references to each chain's ledgers
(``World.snapshot_for_accountant``), and the sweep costs what the step
changed:

- A chain is looked at further only if its status moved or a container it
  is audited on (held instances, sent records and, once it ceased, the
  settlement chain's used nullifiers) was written or rebound since the
  last sweep.
- Its book then mirrors the keys each of those containers recorded as
  written (see ``journal``), and every key only from a container that was
  rebound. Entries are compared by identity, which is sound because
  instances and sent records are frozen, and the running tallies of held
  units, recorded units and NFT holders move by what left and arrived, in
  one loop per container.
- A token name's invariants are re-derived from those tallies only when
  one of their inputs moved: its entries on any book, its issued total,
  a withdrawal credit, or its issuer's status. Every other name keeps the
  findings of its last derivation, so a step that writes no ledger
  mirrors no key and re-derives nothing.

The full re-derivation from JSON dumps that this replaces is kept as the
reference in ``tests/accountant_reference.py``; the test-side
``OracleRunner`` (``tests/oracles.py``) holds both to the same findings
after every step.

Scope: tokens issued by non-byzantine chains. A byzantine issuer's books
are garbage by construction, so nothing is promised about them. Chains
running a deliberately weakened rule variant stay tracked; only the
invariants their weakening makes structurally unsatisfiable are waived
(a chain that keeps no sent records cannot balance held + recorded
against issued), so the checks the weakening is supposed to endanger
still fire. That is the point of running those variants at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .hashing import Digest
from .journal import JournalDict
from .mainchain import STATUS_ALIVE, STATUS_CEASED
from .messages import CscpMessage, message_digest
from .proofs import csw_nullifier
from .tokens import (
    VARIANT_NO_RECEIVER_TRACKING,
    VARIANT_NO_SENT_RECORDS,
    VARIANT_STANDARD,
    SentRecord,
    TokenInstance,
)

ISSUER_EQUALITY = "issuer-equality"
COVERAGE = "sent-record-coverage"
NFT_UNIQUENESS = "nft-uniqueness"
CONSERVATION = "conservation"
ROUTING = "routing-restriction"
REPLAY = "replay-safety"
OVER_RETURN = "over-return"


@dataclass
class ChainInfo:
    sc_id: int
    byzantine: bool = False
    variant: str = VARIANT_STANDARD


@dataclass
class IssueInfo:
    issuer_label: str
    fungible: bool
    total: int = 0


@dataclass
class Accountant:
    chains: dict[str, ChainInfo] = field(default_factory=dict)
    issues: dict[str, IssueInfo] = field(default_factory=dict)
    sent_units: dict[tuple[str, int], int] = field(default_factory=dict)
    returned_units: dict[tuple[str, int], int] = field(default_factory=dict)
    csw_credit: dict[tuple[int, str], int] = field(default_factory=dict)
    accepted_redeems: dict[str, set[Digest]] = field(default_factory=dict)
    _books: dict[str, "_Book"] = field(default_factory=dict, repr=False)  # honest chains, in registration order
    _holders: dict[tuple[str, int], int] = field(default_factory=dict, repr=False)
    _crowded: dict[str, set[int]] = field(default_factory=dict, repr=False)
    _moved: set[str] = field(default_factory=set, repr=False)  # names whose invariant inputs moved
    _findings: dict[str, list[str]] = field(default_factory=dict, repr=False)  # per name, when any

    # -- event stream ----------------------------------------------------------

    def register_chain(self, label: str, sc_id: int, byzantine: bool, variant: str) -> None:
        self.chains[label] = ChainInfo(sc_id=sc_id, byzantine=byzantine, variant=variant)
        self.accepted_redeems[label] = set()
        if not byzantine:
            self._books[label] = _Book(sc_id, self._holders, self._crowded)

    def note_issue(self, label: str, instance: TokenInstance) -> None:
        name = instance.token_name
        info = self.issues.get(name)
        if info is None:
            info = self.issues[name] = IssueInfo(issuer_label=label, fungible=instance.fungibility)
        info.total += _units_of(instance)
        self._moved.add(name)

    def _tracked(self, name: str) -> bool:
        info = self.issues.get(name)
        return info is not None and not self.chains[info.issuer_label].byzantine

    def note_send(self, label: str, instance: TokenInstance, message: CscpMessage, accepted: bool) -> list[str]:
        """Record an ordinary (non-fabricated) send attempt."""
        violations = []
        if not accepted or not self._tracked(instance.token_name):
            return violations
        issuer_sc = self.chains[self.issues[instance.token_name].issuer_label].sc_id
        if message.sending_sc_id != issuer_sc and message.receiving_sc_id != issuer_sc:
            violations.append(
                f"{ROUTING}: chain {label} sent foreign {instance.token_name!r} "
                f"to {message.receiving_sc_id}, issuer is {issuer_sc}"
            )
        if message.sending_sc_id == issuer_sc:
            key = (instance.token_name, message.receiving_sc_id)
            self.sent_units[key] = self.sent_units.get(key, 0) + _units_of(instance)
        return violations

    def note_redeem(self, label: str, instance: TokenInstance, message: CscpMessage, accepted: bool) -> list[str]:
        violations = []
        if not accepted:
            return violations
        digest = message_digest(message)
        if digest in self.accepted_redeems[label]:
            violations.append(f"{REPLAY}: chain {label} accepted message {digest.hex()} twice")
        self.accepted_redeems[label].add(digest)
        violations.extend(self._count_return(label, instance, message))
        return violations

    def note_csw_redeem(self, label: str, instance: TokenInstance, message: CscpMessage, accepted: bool) -> list[str]:
        violations = []
        if not accepted:
            return violations
        digest = message_digest(message)
        if digest in self.accepted_redeems[label]:
            violations.append(f"{REPLAY}: chain {label} accepted withdrawn message {digest.hex()} twice")
        self.accepted_redeems[label].add(digest)
        if self._tracked(instance.token_name):
            issuer_sc = self.chains[self.issues[instance.token_name].issuer_label].sc_id
            if self.chains[label].sc_id != issuer_sc:
                key = (self.chains[label].sc_id, instance.token_name)
                self.csw_credit[key] = self.csw_credit.get(key, 0) + _units_of(instance)
                self._moved.add(instance.token_name)
        violations.extend(self._count_return(label, instance, message))
        return violations

    def _count_return(self, label: str, instance: TokenInstance, message: CscpMessage) -> list[str]:
        if not self._tracked(instance.token_name):
            return []
        issuer_label = self.issues[instance.token_name].issuer_label
        if label != issuer_label:
            return []
        key = (instance.token_name, message.sending_sc_id)
        self.returned_units[key] = self.returned_units.get(key, 0) + _units_of(instance)
        if self.returned_units[key] > self.sent_units.get(key, 0):
            return [
                f"{OVER_RETURN}: issuer {issuer_label} accepted {self.returned_units[key]} "
                f"units of {instance.token_name!r} back from chain {message.sending_sc_id}, "
                f"only {self.sent_units.get(key, 0)} were sent there"
            ]
        return []

    # -- balance sheet from shadow books ------------------------------------------

    def check(self, snapshot: dict[str, tuple]) -> list[str]:
        """Bring the shadow book of each chain that moved up to date, then
        re-derive the invariants of each token name whose inputs moved.
        Every finding standing at this step is returned, in issue order.

        ``snapshot`` maps every chain label to references (never copies)::

            (status: "alive"|"ceased"|"pending",
             live: <MittoState>,
             frozen: <MittoState committed at the final epoch, or None>,
             used_nullifiers: <the settlement chain's nullifier set>)
        """
        moved = self._moved
        books = self._books
        for label, (status, live, frozen, used) in snapshot.items():
            # A byzantine chain's ledger is a self-report nobody vouches for
            # and has no book; what it managed to push INTO honest chains is
            # counted through the event stream.
            book = books.get(label)
            if book is None:
                continue
            if status != book.status:
                # Issuer equality is checked only while the issuer is alive.
                book.status = status
                moved.update(name for name, info in self.issues.items() if info.issuer_label == label)
            book.sync(status == STATUS_CEASED, live, frozen, used, moved)

        findings = self._findings
        if moved:
            for name in moved:
                found = self._derive(name)
                if found:
                    findings[name] = found
                else:
                    findings.pop(name, None)
            moved.clear()
        if not findings:
            return []
        return [finding for name in self.issues if name in findings for finding in findings[name]]

    def _derive(self, name: str) -> list[str]:
        """The standing invariants of ``name``, read off the books' tallies."""
        info = self.issues.get(name)
        if info is None or self.chains[info.issuer_label].byzantine:
            return []
        variant = self.chains[info.issuer_label].variant
        issuer_book = self._books[info.issuer_label]
        records = issuer_book.recorded.get(name, {})
        exist = issuer_held = issuer_book.held.get(name, 0)
        violations = []

        if issuer_book.status == STATUS_ALIVE and variant != VARIANT_NO_SENT_RECORDS:
            recorded_total = sum(records.values())
            if issuer_held + recorded_total != info.total:
                violations.append(
                    f"{ISSUER_EQUALITY}: {name!r} issuer {info.issuer_label} holds {issuer_held} "
                    f"and records {recorded_total}, issued {info.total}"
                )

        covered = variant not in (VARIANT_NO_SENT_RECORDS, VARIANT_NO_RECEIVER_TRACKING)
        for label, book in self._books.items():
            held = book.held.get(name, 0)
            if not held or book is issuer_book:
                continue
            exist += held
            if covered:
                allowance = records.get(book.sc_id, 0) + self.csw_credit.get((book.sc_id, name), 0)
                if held > allowance:
                    violations.append(
                        f"{COVERAGE}: chain {label} holds {held} of {name!r}, "
                        f"issuer records allow {allowance}"
                    )

        if exist > info.total:
            violations.append(f"{CONSERVATION}: {exist} units of {name!r} exist, issued {info.total}")

        crowded = self._crowded.get(name)
        if not info.fungible and crowded:
            violations.extend(_duplicate_holders(self._books, name, crowded))
        return violations


_NOTHING: JournalDict = JournalDict()  # the ledger of a chain that ceased before any certificate


class _Book:
    """What one chain truly holds and records: its live ledger while it is
    not ceased, its final committed ledger minus already-withdrawn entities
    once it is. Keeps its own copy of the entries and running tallies of
    them, and remembers which containers it mirrored and at what write
    count, so a sync reads only what moved since the last one."""

    __slots__ = (
        "sc_id", "status", "tks", "sent", "held", "recorded", "_holders", "_crowded",
        "_tks", "_tks_at", "_sent", "_sent_at", "_used", "_used_at", "_entity_of", "_spent",
    )

    def __init__(self, sc_id: int, holders: dict, crowded: dict) -> None:
        self.sc_id = sc_id
        self.status: str | None = None  # the chain's status at the last sweep
        self.tks: dict[Digest, TokenInstance] = {}
        self.sent: dict[tuple, SentRecord] = {}
        self.held: dict[str, int] = {}  # units held per name
        self.recorded: dict[str, dict[int, int]] = {}  # units recorded per name and receiver
        # Shared by every book: how many books hold each NFT (name, token_id),
        # and per name the ids held more than once, so uniqueness is checked
        # only where it can fail.
        self._holders: dict[tuple[str, int], int] = holders
        self._crowded: dict[str, set[int]] = crowded
        # Each source container last mirrored, and its write count then. A
        # committed ledger is never the live one, so a chain that ceases or
        # comes back alive always changes its source.
        self._tks, self._tks_at = None, 0
        self._sent, self._sent_at = None, 0
        self._used, self._used_at = None, 0
        self._entity_of: dict[Digest, Digest] = {}  # csw nullifier -> frozen entity digest
        self._spent: set[Digest] = set()

    def sync(self, ceased: bool, live, frozen, used, moved: set) -> None:
        """Mirror what moved in the ledger this chain is audited on, and add
        to ``moved`` the name of every entry that left or arrived."""
        ledger = frozen if ceased else live
        tks = _NOTHING if ledger is None else ledger.s_tks
        sent = _NOTHING if ledger is None else ledger.s_sent
        if tks is not self._tks or tks.writes != self._tks_at:
            if ceased:
                # Just ceased, rebound, or a committed ledger written: rebuild,
                # with the one csw_nullifier pass; _spend then drops whatever
                # is already withdrawn.
                keys = None
                self._entity_of = {csw_nullifier(self.sc_id, digest): digest for digest in tks}
                self._spent = set()
                self._used = None
            else:
                keys = tks.drain(self._tks_at if tks is self._tks else None)
            self._tks, self._tks_at = tks, tks.writes
            self._mirror_held(tks, self.tks.keys() | tks.keys() if keys is None else keys, moved)
        if ceased and (used is not self._used or used.writes != self._used_at):
            nullifiers = used.drain(self._used_at if used is self._used else None)
            self._used, self._used_at = used, used.writes
            self._spend(tks, used, self._spent | used if nullifiers is None else nullifiers, moved)
        if sent is not self._sent or sent.writes != self._sent_at:
            keys = sent.drain(self._sent_at if sent is self._sent else None)
            self._sent, self._sent_at = sent, sent.writes
            self._mirror_sent(sent, self.sent.keys() | sent.keys() if keys is None else keys, moved)

    def _spend(self, tks: dict, used: set, nullifiers, moved: set) -> None:
        """Bring ``nullifiers`` up to date: drop the frozen entity of each
        that is newly used, restore that of each no longer there."""
        spent = self._spent
        wanted = {}
        for nullifier in nullifiers:
            now = nullifier in used
            if now == (nullifier in spent):
                continue
            if now:
                spent.add(nullifier)
            else:
                spent.discard(nullifier)
            digest = self._entity_of.get(nullifier)
            if digest is not None:
                wanted[digest] = None if now else tks[digest]
        if wanted:
            self._mirror_held(wanted, wanted, moved)

    def _mirror_held(self, source: dict, keys, moved: set) -> None:
        """Make the book's instances agree with ``source`` on ``keys``, moving
        the held-unit and NFT-holder tallies by each entry that left or
        arrived. Instances are frozen, so an entry that is the very object
        the book holds is unchanged."""
        mine, held, holders, crowded = self.tks, self.held, self._holders, self._crowded
        for key in keys:
            old = mine.get(key)
            new = source.get(key)
            if old is new:
                continue
            if old is not None:
                del mine[key]
                name = old.token_name
                moved.add(name)
                if old.fungibility:
                    units = old.amount
                else:
                    units = 1
                    nft = (name, old.token_id)
                    count = holders[nft] - 1
                    if count:
                        holders[nft] = count
                        if count == 1:
                            crowded[name].discard(old.token_id)
                    else:
                        del holders[nft]
                left = held[name] - units
                if left:
                    held[name] = left
                else:
                    del held[name]
            if new is not None:
                mine[key] = new
                name = new.token_name
                moved.add(name)
                if new.fungibility:
                    units = new.amount
                else:
                    units = 1
                    nft = (name, new.token_id)
                    count = holders.get(nft, 0) + 1
                    holders[nft] = count
                    if count == 2:
                        crowded.setdefault(name, set()).add(new.token_id)
                held[name] = held.get(name, 0) + units

    def _mirror_sent(self, source: dict, keys, moved: set) -> None:
        """Make the book's sent records agree with ``source`` on ``keys``,
        moving the recorded-unit tallies as ``_mirror_held`` moves held ones."""
        mine, recorded = self.sent, self.recorded
        for key in keys:
            old = mine.get(key)
            new = source.get(key)
            if old is new:
                continue
            if old is not None:
                del mine[key]
                name = old.token_name
                moved.add(name)
                by_receiver = recorded[name]
                receiver = old.receiver_sc_id
                left = by_receiver[receiver] - (old.amount if old.fungibility else 1)
                if left:
                    by_receiver[receiver] = left
                else:
                    del by_receiver[receiver]
            if new is not None:
                mine[key] = new
                name = new.token_name
                moved.add(name)
                by_receiver = recorded.get(name)
                if by_receiver is None:
                    by_receiver = recorded[name] = {}
                receiver = new.receiver_sc_id
                by_receiver[receiver] = by_receiver.get(receiver, 0) + (new.amount if new.fungibility else 1)


def _duplicate_holders(books: dict[str, _Book], name: str, crowded: set[int]) -> list[str]:
    """One finding per consecutive pair of holders of a crowded id, books
    in chain order and each book's entries in digest order."""
    violations = []
    seen: dict[int, str] = {}
    for label, book in books.items():
        for digest in sorted(book.tks):
            instance = book.tks[digest]
            token_id = instance.token_id
            if instance.token_name != name or token_id not in crowded:
                continue
            if token_id in seen:
                violations.append(
                    f"{NFT_UNIQUENESS}: {name!r} id {token_id} live on both {seen[token_id]} and {label}"
                )
            seen[token_id] = label
    return violations


def _units_of(entry: TokenInstance | SentRecord) -> int:
    return entry.amount if entry.fungibility else 1
