"""Reference accountant check: re-derive the balance sheet from JSON dumps.

This is the check ``Accountant.check`` made before it kept shadow books:
every step it dumps each ledger, drops from a ceased chain's final state
every entity whose withdrawal nullifier is used, and recomputes held and
recorded units from scratch. It costs O(world) per step, so the runner no
longer uses it; tests run it beside the incremental check to show both
report the same findings.
"""
from mitto.accountant import (
    CONSERVATION,
    COVERAGE,
    ISSUER_EQUALITY,
    NFT_UNIQUENESS,
    Accountant,
)
from mitto.harness import Runner
from mitto.proofs import csw_nullifier
from mitto.tokens import VARIANT_NO_RECEIVER_TRACKING, VARIANT_NO_SENT_RECORDS


def dump_snapshot(snapshot: dict[str, dict]) -> dict[str, dict]:
    """The JSON form of ``World.snapshot_for_accountant``'s references."""
    return {
        label: {
            "status": entry["status"],
            "live": entry["live"].dump(),
            "frozen": None if entry["frozen"] is None else entry["frozen"].dump(),
            "used_nullifiers": {n.hex() for n in entry["used_nullifiers"]},
        }
        for label, entry in snapshot.items()
    }


def reference_check(accountant: Accountant, snapshot: dict[str, dict]) -> list[str]:
    """The standing invariants, re-derived from full dumps of ``snapshot``."""
    dumps = dump_snapshot(snapshot)
    violations = []
    books = {
        label: _effective_book(accountant, label, entry)
        for label, entry in dumps.items()
        if not accountant.chains[label].byzantine
    }

    for name, info in accountant.issues.items():
        if not accountant._tracked(name):
            continue
        issuer = info.issuer_label
        variant = accountant.chains[issuer].variant
        held = {label: _held_units(book, name) for label, book in books.items()}
        records = _record_units(books[issuer], name)

        if dumps[issuer]["status"] == "alive" and variant != VARIANT_NO_SENT_RECORDS:
            recorded_total = sum(records.values())
            if held[issuer] + recorded_total != info.total:
                violations.append(
                    f"{ISSUER_EQUALITY}: {name!r} issuer {issuer} holds {held[issuer]} "
                    f"and records {recorded_total}, issued {info.total}"
                )

        if variant not in (VARIANT_NO_SENT_RECORDS, VARIANT_NO_RECEIVER_TRACKING):
            for label, book in books.items():
                if label == issuer:
                    continue
                sc_id = accountant.chains[label].sc_id
                allowance = records.get(sc_id, 0) + accountant.csw_credit.get((sc_id, name), 0)
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

        if not info.fungible:
            seen: dict[int, str] = {}
            for label, book in books.items():
                for entry in book.get("s_tks", []):
                    if entry["token_name"] != name:
                        continue
                    token_id = entry["token_id"]
                    if token_id in seen:
                        violations.append(
                            f"{NFT_UNIQUENESS}: {name!r} id {token_id} live on both "
                            f"{seen[token_id]} and {label}"
                        )
                    seen[token_id] = label
    return violations


def _effective_book(accountant: Accountant, label: str, entry: dict) -> dict:
    """What a chain truly holds: live state while alive, the final
    committed state minus already-withdrawn entities once ceased."""
    if entry["status"] != "ceased":
        return entry["live"]
    frozen = entry["frozen"]
    if frozen is None:
        return {"s_tks": [], "s_sent": []}
    sc_id = accountant.chains[label].sc_id
    used = entry["used_nullifiers"]
    kept = [
        e
        for e in frozen.get("s_tks", [])
        if csw_nullifier(sc_id, bytes.fromhex(e["digest"])).hex() not in used
    ]
    return {"s_tks": kept, "s_sent": frozen.get("s_sent", [])}


def _units(entry: dict) -> int:
    return entry["amount"] if entry.get("fungibility") else 1


def _held_units(book: dict, name: str) -> int:
    return sum(_units(e) for e in book.get("s_tks", []) if e["token_name"] == name)


def _record_units(book: dict, name: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for entry in book.get("s_sent", []):
        if entry["token_name"] != name:
            continue
        out[entry["receiver_sc_id"]] = out.get(entry["receiver_sc_id"], 0) + _units(entry)
    return out


class ReferenceCheckRunner(Runner):
    """Runner that makes both accountant checks after every step, keeps
    each step's pair of findings in ``checks`` (incremental, reference), and
    reports the reference findings."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.checks: list[tuple[list[str], list[str]]] = []
        accountant = self.world.accountant
        incremental = accountant.check

        def both(snapshot):
            pair = (incremental(snapshot), reference_check(accountant, snapshot))
            self.checks.append(pair)
            return pair[1]

        accountant.check = both
