"""Global invariant checking over shadow books of every ledger.

The accountant is the harness's independent bookkeeper. It watches the
event stream (issues, sends, redeems, withdrawal redeems) to maintain its
own counters, and keeps its own book of what each chain holds and records,
never reading the token module's tallies. A disagreement between the two
bookkeepers is exactly what it exists to catch.

After every step the runner hands it references to each chain's ledgers
(``World.snapshot_for_accountant``). A chain's book is resynced on the keys
each of its containers recorded as written since the last step (see
``journal``), and in full only from a container that was rebound; the
resync compares entries by identity, which is sound because instances and
sent records are frozen, and moves running tallies of held units, recorded
units and NFT holders by what left and what arrived. The invariants are
then read off the tallies, at a cost set by names times chains rather than
by what the chains hold. The full
re-derivation from JSON dumps that this replaces is kept as the reference
in ``tests/accountant_reference.py``; the test-side ``OracleRunner``
(``tests/oracles.py``) holds both to the same findings after every step.

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
    _books: dict[str, "_Book"] = field(default_factory=dict, repr=False)
    _holders: "_Holders" = field(default_factory=lambda: _Holders(), repr=False)

    # -- event stream ----------------------------------------------------------

    def register_chain(self, label: str, sc_id: int, byzantine: bool, variant: str) -> None:
        self.chains[label] = ChainInfo(sc_id=sc_id, byzantine=byzantine, variant=variant)
        self.accepted_redeems[label] = set()

    def note_issue(self, label: str, instance: TokenInstance) -> None:
        info = self.issues.setdefault(
            instance.token_name,
            IssueInfo(issuer_label=label, fungible=instance.fungibility),
        )
        info.total += instance.amount if instance.fungibility else 1

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

    def check(self, snapshot: dict[str, dict]) -> list[str]:
        """Bring each chain's shadow book up to date, then read the standing
        invariants off its tallies.

        ``snapshot`` maps every chain label to references (never copies)::

            {"status": "alive"|"ceased"|"pending",
             "live": <MittoState>,
             "frozen": <MittoState committed at the final epoch, or None>,
             "used_nullifiers": <the settlement chain's nullifier set>}
        """
        # A byzantine chain's ledger is a self-report nobody vouches for; its
        # claimed holdings stay off the balance sheet. What it managed to
        # push INTO honest chains is counted through the event stream.
        books = {}
        for label, entry in snapshot.items():
            chain = self.chains[label]
            if chain.byzantine:
                continue
            book = self._books.get(label)
            if book is None:
                book = self._books[label] = _Book(self._holders)
            book.sync(entry, chain.sc_id)
            books[label] = book

        violations = []
        for name, info in self.issues.items():
            if not self._tracked(name):
                continue
            issuer = info.issuer_label
            variant = self.chains[issuer].variant
            held = {label: book.held.get(name, 0) for label, book in books.items()}
            records = books[issuer].recorded.get(name, {})

            if snapshot[issuer]["status"] == STATUS_ALIVE and variant != VARIANT_NO_SENT_RECORDS:
                recorded_total = sum(records.values())
                if held[issuer] + recorded_total != info.total:
                    violations.append(
                        f"{ISSUER_EQUALITY}: {name!r} issuer {issuer} holds {held[issuer]} "
                        f"and records {recorded_total}, issued {info.total}"
                    )

            if variant not in (VARIANT_NO_SENT_RECORDS, VARIANT_NO_RECEIVER_TRACKING):
                for label in books:
                    if label == issuer:
                        continue
                    sc_id = self.chains[label].sc_id
                    allowance = records.get(sc_id, 0) + self.csw_credit.get((sc_id, name), 0)
                    if held[label] > allowance:
                        violations.append(
                            f"{COVERAGE}: chain {label} holds {held[label]} of {name!r}, "
                            f"issuer records allow {allowance}"
                        )

            if sum(held.values()) > info.total:
                violations.append(
                    f"{CONSERVATION}: {sum(held.values())} units of {name!r} exist, "
                    f"issued {info.total}"
                )

            crowded = self._holders.crowded.get(name)
            if not info.fungible and crowded:
                violations.extend(_duplicate_holders(books, name, crowded))
        return violations


class _Holders:
    """How many shadow books hold each NFT (name, token_id), and per name
    the ids held more than once: uniqueness is checked only where it can
    fail."""

    def __init__(self) -> None:
        self.count: dict[tuple[str, int], int] = {}
        self.crowded: dict[str, set[int]] = {}

    def add(self, name: str, token_id: int) -> None:
        key = (name, token_id)
        count = self.count.get(key, 0) + 1
        self.count[key] = count
        if count == 2:
            self.crowded.setdefault(name, set()).add(token_id)

    def remove(self, name: str, token_id: int) -> None:
        key = (name, token_id)
        _untally(self.count, key, 1)
        if self.count.get(key) == 1:
            self.crowded[name].discard(token_id)


_NOTHING: JournalDict = JournalDict()  # the book of a chain that ceased before any certificate


class _Book:
    """What one chain truly holds and records: its live ledger while it is
    not ceased, its final committed ledger minus already-withdrawn entities
    once it is. Keeps its own copy of the entries and running tallies of
    them, and resyncs only the keys a source container wrote since the last
    sync, or every key when the container was rebound."""

    def __init__(self, holders: _Holders) -> None:
        self.tks: dict[Digest, TokenInstance] = {}
        self.sent: dict[tuple, SentRecord] = {}
        self.held: dict[str, int] = {}
        self.recorded: dict[str, dict[int, int]] = {}
        self._holders = holders
        self._seen: dict[str, tuple] = {}  # slot -> (container, its write count and scalars)
        self._entity_of: dict[Digest, Digest] = {}  # csw nullifier -> frozen entity digest
        self._spent: set[Digest] = set()

    def sync(self, entry: dict, sc_id: int) -> None:
        ceased = entry["status"] == STATUS_CEASED
        source = entry["frozen"] if ceased else entry["live"]
        tks = _NOTHING if source is None else source.s_tks
        sent = _NOTHING if source is None else source.s_sent
        keys = self._changes("tks", tks, ceased)
        if keys is None or (ceased and keys):
            # Rebound, just ceased, or a committed ledger written: rebuild.
            # The one csw_nullifier pass is made here; _spend then drops
            # whatever is already withdrawn.
            self._entity_of = {csw_nullifier(sc_id, digest): digest for digest in tks} if ceased else {}
            self._spent = set()
            self._seen.pop("used", None)
            keys = self.tks.keys() | tks.keys()
        _mirror(self.tks, tks, keys, self._drop_instance, self._add_instance)
        if ceased:
            used = entry["used_nullifiers"]
            nullifiers = self._changes("used", used)
            if nullifiers is None:
                nullifiers = self._spent | used
            self._spend(tks, used, nullifiers)
        keys = self._changes("sent", sent)
        if keys is None:
            keys = self.sent.keys() | sent.keys()
        _mirror(self.sent, sent, keys, self._drop_record, self._add_record)

    def _changes(self, slot: str, box, *scalars):
        """The keys of ``box`` to resync: none if it is the container this
        slot last looked at, unwritten, and seen with the same ``scalars``;
        the keys written since if only written; None, meaning every key,
        otherwise. The container is held, not its id()."""
        seen = self._seen.get(slot)
        self._seen[slot] = (box, box.writes, scalars)
        same = seen is not None and seen[0] is box and seen[2] == scalars
        if same and seen[1] == box.writes:
            return ()
        return box.drain(seen[1] if same else None)

    def _spend(self, tks: dict, used: set, nullifiers) -> None:
        """Bring ``nullifiers`` up to date: drop the frozen entity of each
        that is newly used, restore that of each no longer there."""
        for nullifier in nullifiers:
            if (nullifier in used) == (nullifier in self._spent):
                continue
            digest = self._entity_of.get(nullifier)
            if nullifier in used:
                self._spent.add(nullifier)
                if digest in self.tks:
                    self._drop_instance(digest)
            else:
                self._spent.discard(nullifier)
                if digest is not None and digest not in self.tks:
                    self._add_instance(digest, tks[digest])

    def _add_instance(self, digest: Digest, instance: TokenInstance) -> None:
        self.tks[digest] = instance
        name = instance.token_name
        self.held[name] = self.held.get(name, 0) + _units_of(instance)
        if not instance.fungibility:
            self._holders.add(name, instance.token_id)

    def _drop_instance(self, digest: Digest) -> None:
        instance = self.tks.pop(digest)
        name = instance.token_name
        _untally(self.held, name, _units_of(instance))
        if not instance.fungibility:
            self._holders.remove(name, instance.token_id)

    def _add_record(self, key: tuple, record: SentRecord) -> None:
        self.sent[key] = record
        by_receiver = self.recorded.setdefault(record.token_name, {})
        receiver = record.receiver_sc_id
        by_receiver[receiver] = by_receiver.get(receiver, 0) + _units_of(record)

    def _drop_record(self, key: tuple) -> None:
        record = self.sent.pop(key)
        _untally(self.recorded[record.token_name], record.receiver_sc_id, _units_of(record))


def _mirror(mine: dict, source: dict, keys, drop, add) -> None:
    """Make ``mine`` agree with ``source`` on ``keys``, calling ``drop`` for
    each key whose entry left or changed and ``add`` for each that arrived.
    Both value types are frozen, so an entry that is the very object the
    book holds is unchanged."""
    for key in keys:
        held = mine.get(key)
        value = source.get(key)
        if held is value:
            continue
        if held is not None:
            drop(key)
        if value is not None:
            add(key, value)


def _untally(tallies: dict, key, units: int) -> None:
    left = tallies[key] - units
    if left:
        tallies[key] = left
    else:
        del tallies[key]


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
