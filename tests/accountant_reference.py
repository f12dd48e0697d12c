"""Reference accountant check: re-derive the balance sheet from JSON dumps.

This is the check ``Accountant.check`` made before it kept shadow books:
every step it dumps each ledger, drops from a ceased chain's final state
every entity whose withdrawal nullifier is used, and recomputes held and
recorded units from scratch. It costs O(world) per step, so the runner no
longer uses it; ``oracles.OracleRunner`` runs it beside the incremental
check after every step and holds both to the same findings.
"""
from mitto.accountant import (
    CONSERVATION,
    COVERAGE,
    ISSUER_EQUALITY,
    NFT_UNIQUENESS,
    Accountant,
)
from mitto.proofs import csw_nullifier
from mitto.tokens import VARIANT_NO_RECEIVER_TRACKING, VARIANT_NO_SENT_RECORDS


def dump_snapshot(snapshot: dict[str, tuple]) -> dict[str, dict]:
    """The JSON form of ``World.snapshot_for_accountant``'s references."""
    return {
        label: {
            "status": status,
            "live": live.dump(),
            "frozen": None if frozen is None else frozen.dump(),
            "used_nullifiers": {n.hex() for n in used},
        }
        for label, (status, live, frozen, used) in snapshot.items()
    }


def reference_check(accountant: Accountant, snapshot: dict[str, tuple]) -> list[str]:
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
                    # A fungible entry under an NFT's name is counted above
                    # but has no id to be unique.
                    if entry["token_name"] != name or entry["fungibility"]:
                        continue
                    token_id = entry["token_id"]
                    if token_id in seen:
                        violations.append(
                            f"{NFT_UNIQUENESS}: {name!r} id {token_id} live on both "
                            f"{seen[token_id]} and {label}"
                        )
                    seen[token_id] = label
    return violations


def reference_tallies(accountant: Accountant, snapshot: dict[str, tuple]) -> tuple[dict, dict]:
    """What the incremental books should hold, re-derived from full dumps
    of ``snapshot``: per honest chain, its held units by name and its
    recorded units by name and receiver; and per name, the NFT ids that more
    than one instance of the honest books holds."""
    books = {}
    holders: dict[tuple[str, int], int] = {}
    for label, entry in dump_snapshot(snapshot).items():
        if accountant.chains[label].byzantine:
            continue
        book = _effective_book(accountant, label, entry)
        names = {e["token_name"] for e in book.get("s_tks", [])}
        recorded = {e["token_name"] for e in book.get("s_sent", [])}
        books[label] = (
            {name: _held_units(book, name) for name in names},
            {name: _record_units(book, name) for name in recorded},
        )
        for e in book.get("s_tks", []):
            if not e["fungibility"]:
                key = (e["token_name"], e["token_id"])
                holders[key] = holders.get(key, 0) + 1
    crowded: dict[str, set[int]] = {}
    for (name, token_id), count in holders.items():
        if count > 1:
            crowded.setdefault(name, set()).add(token_id)
    return books, crowded


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
