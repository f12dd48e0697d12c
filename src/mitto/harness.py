"""Scenario execution: a deterministic multi-chain world, step dispatch,
automatic replay probes, and the invariant accountant wired in after every
step.

The runner is deliberately paranoid about its own host: chain state lives
in write-counting containers and objects (``journal``), which share one
write count, and every rejected transaction or certificate must leave that
count where it found it, proving no chain or settlement-chain state was
written or rebound; every accepted redeem or withdrawal is immediately
replayed to prove the replay defenses hold. A step carrying a ``tamper``
value submits a deliberately broken transaction through the same path, and
its acceptance is a finding too. Violations of any of these are reported
the same way as accountant findings rather than silently trusted. After
each step the accountant is handed references to every ledger and brings
its own shadow books up to date from the keys each container recorded as
written, so neither check dumps the world.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import orjson

from . import scenario as steps
from .accountant import Accountant
from .encoding import canonical_digest
from .hashing import Digest, hash_bytes
from .journal import writes
from .keys import KeyPair, PubKey, forget_verified
from .mainchain import Mainchain, STATUS_CEASED
from .messages import CscpMessage, SendTx, message_digest
from .proofs import CertificateNotConfirmed, EntityNotInState, EvidenceUnavailable, MessageNotCommitted
from .scenario import MAX_ADVANCE_BLOCKS, HarnessError, Scenario
from .sidechain import ByzantineSidechain, Sidechain
from .tokens import (
    CswPackage,
    DuplicateTokenId,
    MittoState,
    NameConflict,
    TokenInstance,
    TokenNameRegistry,
    attach_token_ledger,
    final_ledger,
    make_csw_redeem_tx,
    make_redeem_tx,
    transfer_message,
    withdraw_foreign,
    withdraw_native_held,
    withdraw_native_sent,
)


class InvariantViolation(Exception):
    """An assert step failed; carries the step index and a state trace."""

    def __init__(self, step: int, invariant: str, trace: str):
        super().__init__(f"step {step}: {invariant} failed\n{trace}")
        self.step = step
        self.invariant = invariant
        self.trace = trace


class World:
    """Fresh mainchain plus the scenario's sidechains, keys, and accountant."""

    def __init__(self, scenario: Scenario):
        forget_verified()  # signature and proof checks are remembered for one world at a time
        self.scenario = scenario
        self.mainchain = Mainchain()
        self.registry = TokenNameRegistry()
        self.chains: dict[str, Sidechain] = {}
        self.states: dict[str, MittoState] = {}
        self.accountant = Accountant()
        self._actors: dict[str, KeyPair] = {}
        self._forger: KeyPair | None = None
        #: The name of each actor key handed out so far.
        self.actor_names: dict[PubKey, str] = {}
        self._label_by_sc_id: dict[int, str] = {}

        for spec in scenario.chains:
            cls = ByzantineSidechain if spec.byzantine else Sidechain
            chain = cls.create(self.mainchain, spec.epoch_length, spec.label, seed=scenario.seed)
            self.chains[spec.label] = chain
            self._label_by_sc_id[chain.sc_id] = spec.label
            self.states[spec.label] = attach_token_ledger(chain, self.registry, spec.variant)
            self.accountant.register_chain(spec.label, chain.sc_id, spec.byzantine, spec.variant)
        self.mainchain.advance_block()

        for spec in scenario.chains:
            for issuance in spec.issuances:
                self.issue(spec.label, issuance)

    def actor(self, name: str) -> KeyPair:
        if name not in self._actors:
            pair = KeyPair.from_label("actor", self.scenario.seed, name)
            self._actors[name] = pair
            self.actor_names[pair.public] = name
        return self._actors[name]

    def forger(self) -> KeyPair:
        """A key no scenario actor holds: tampered steps sign with it."""
        if self._forger is None:
            self._forger = KeyPair.from_label("forger", self.scenario.seed, "forger")
        return self._forger

    def actor_for_key(self, public: PubKey) -> KeyPair:
        name = self.actor_names.get(public)
        if name is None:
            raise HarnessError(f"no known actor for key {public.hex()}")
        return self._actors[name]

    def issue(self, label: str, issuance: steps.Issuance) -> TokenInstance:
        owner = self.actor(issuance.owner).public
        try:
            instance = self.states[label].issue(
                issuance.name, issuance.fungible, owner, _data_hash(issuance), issuance.amount, issuance.token_id
            )
        except (DuplicateTokenId, NameConflict) as err:
            raise HarnessError(f"chain {label}: {err}") from err
        self.accountant.note_issue(label, instance)
        return instance

    def label_by_sc_id(self, sc_id: int) -> str:
        label = self._label_by_sc_id.get(sc_id)
        if label is None:
            raise HarnessError(f"no declared chain has id {sc_id}")
        return label

    def pick_instance(self, label: str, owner: PubKey, name: str, amount=None, token_id=None) -> TokenInstance:
        """Resolve a holding to one concrete instance, splitting or merging
        as needed. Deterministic: candidates ordered by (amount, digest)."""
        state = self.states[label]
        candidates = state.s_tks.owned(owner, name, token_id)
        if not candidates:
            which = f"{name!r}" if token_id is None else f"{name!r} id {token_id}"
            raise HarnessError(f"chain {label}: no instance of {which} held by that owner")
        if amount is None or token_id is not None:
            return candidates[0][2]
        candidates = [entry for entry in candidates if entry[2].fungibility]
        if not candidates:
            raise HarnessError(f"chain {label}: that owner holds {name!r} only as NFTs, which carry no amount")
        for _, _, ti in candidates:
            if ti.amount == amount:
                return ti
        for _, digest, ti in candidates:
            if ti.amount > amount:
                first, _rest = state.split(digest, amount)
                return first
        total = sum(entry[0] for entry in candidates)
        if total >= amount and len(candidates) > 1:
            try:
                merged = state.merge([entry[1] for entry in candidates])
            except ValueError as err:
                raise HarnessError(f"chain {label}: cannot merge {name!r} to cover {amount}: {err}") from err
            if merged.amount == amount:
                return merged
            first, _rest = state.split(canonical_digest(merged), amount)
            return first
        raise HarnessError(f"chain {label}: holds {total} of {name!r}, step needs {amount}")

    def snapshot_for_accountant(self) -> dict[str, tuple]:
        """Per chain, references to what the accountant audits: ``(status,
        live ledger, the ledger committed at the final epoch once ceased
        (else None), the settlement chain's used nullifiers)``. Copies
        nothing, so it costs O(chains)."""
        record_of = self.mainchain.record
        out = {}
        for label, chain in self.chains.items():
            record = record_of(chain.sc_id)
            status = record.status
            frozen = None
            if status == STATUS_CEASED and record.last_epoch is not None:
                frozen = final_ledger(chain)
            out[label] = (status, self.states[label], frozen, record.used_nullifiers)
        return out

    def dump(self) -> dict:
        chains = {}
        for label, chain in self.chains.items():
            record = self.mainchain.record(chain.sc_id)
            chains[label] = {
                "status": record.status,
                "last_finalized_epoch": record.last_epoch,
                "state_root": chain.current_committed_state().root.hex(),
                "state": chain.dump_state(),
            }
        return {
            "mainchain": {
                "height": self.mainchain.tip_height,
                "tip_hash": self.mainchain.tip.hash.hex(),
            },
            "chains": chains,
        }


def _data_hash(issuance: steps.Issuance) -> Digest:
    return hash_bytes((issuance.name if issuance.data is None else issuance.data).encode())


def _result(summary: str, accepted: bool = True, reason: str = "Accepted", **extra) -> dict:
    """A step's report entry: its outcome, its summary line and ``extra``."""
    return {"outcome": {"accepted": accepted, "reason": reason}, "summary": summary, **extra}


def _unavailable(summary: str) -> dict:
    """The entry of a step whose transaction lacks the evidence it needs."""
    return _result(summary, False, "EvidenceUnavailable")


#: ``json.dumps(indent=2, sort_keys=True)``'s layout; a dataclass or a
#: datetime goes to orjson's refusal, as ``json.dumps`` refuses it.
_ORJSON_OPTIONS = (
    orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
)


def render_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    the values reports are made of: dicts with str keys, lists, tuples, str,
    int, bool and None. A non-str key raises TypeError, as does a value
    ``json.dumps`` refuses. A value of another type is outside that promise:
    orjson renders a float, an enum member and a UUID its own way. No report
    holds one, and the frozen output pins would show one.

    orjson writes the text. ``json.dumps`` writes it where orjson cannot
    give those bytes: a value orjson refuses (an int outside 64 bits, a lone
    surrogate, nesting deeper than 255, a non-str key, an unsupported type),
    or a text holding a character ``ensure_ascii`` escapes (any non-ASCII
    character, or U+007F)."""
    try:
        text = orjson.dumps(value, option=_ORJSON_OPTIONS)
    except TypeError:
        pass
    else:
        if text.isascii() and b"\x7f" not in text:
            return text.decode()
    _refuse_non_str_keys(value)
    return json.dumps(value, indent=2, sort_keys=True)


def _refuse_non_str_keys(value) -> None:
    """Raise TypeError at a dict key that is not a str, which ``json.dumps``
    would write as a string key. A cyclic value raises RecursionError."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            _refuse_non_str_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _refuse_non_str_keys(item)


def dump_state(world: World, path: str | Path) -> None:
    Path(path).write_text(render_json(world.dump()) + "\n")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class _SendRecord:
    """An accepted send and the token instance it moved. A message enters
    the outbox while ``epoch_id`` epochs are closed, so the next accepted
    close commits it under that id."""

    message: CscpMessage
    payload: bytes
    sender_sig: bytes
    from_label: str
    epoch_id: int
    instance: TokenInstance


class Runner:
    """Executes one scenario and produces its deterministic report."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.world = World(scenario)
        self.sends: dict[str, _SendRecord] = {}
        self.withdrawals: dict[str, CswPackage] = {}
        self.violations: list[str] = []
        self.steps: list[dict] = []
        self.failure: dict | None = None

    # -- step helpers -----------------------------------------------------------

    def _note(self, index: int, findings: list[str]) -> None:
        for finding in findings:
            self.violations.append(f"step {index}: {finding}")

    def _submit(self, index: int, step: steps.Step, submit, *args):
        """The verdict of ``submit(*args)``. A rejected submission must leave
        every chain's state untouched, and one carrying a ``tamper`` value is
        a broken transaction, so accepting it is a protocol failure.

        Untouched means the shared write count of ``journal`` did not move:
        no journaled container was written, and no attribute of a chain,
        settlement record, token ledger or name registry was assigned. The
        count is read after wallet-level instance resolution (split or
        merge to match the step's amount), which is the submitter's own
        bookkeeping, not part of the protocol operation under test.
        """
        pre = writes()
        verdict = submit(*args)
        if not verdict.accepted and writes() != pre:
            self.violations.append(f"step {index}: atomicity: rejected {step.op} changed chain state")
        if verdict.accepted and step.tamper is not None:
            self.violations.append(f"step {index}: tamper: {step.op} with tamper {step.tamper!r} was accepted")
        return verdict

    def _replay(self, index: int, result: dict, submit, tx, what: str) -> None:
        """Submit accepted ``tx`` again, into ``result``: accepting it breaks replay safety."""
        replay = submit(tx)
        result["replay"] = replay.to_json()
        if replay.accepted:
            self.violations.append(f"step {index}: replay-safety: duplicate {what}")

    def _redeem(self, index: int, step: steps.Step, ref: str, label: str, submit, tx, note, instance) -> dict:
        """Redeem ``tx`` (of send or withdrawal ``ref``) on chain ``label`` by
        ``submit``, show the verdict to ``note`` and replay an accepted one."""
        kind = step.op.replace("_", " ")
        verdict = self._submit(index, step, submit, tx)
        self._note(index, note(label, instance, tx.message, verdict.accepted))
        result = {"outcome": verdict.to_json(), "summary": f"{kind} {ref!r} on {label}"}
        if verdict.accepted:
            self._replay(index, result, submit, tx, f"{kind} accepted on {label}")
        return result

    def _build_message(self, step: steps.Send | steps.FabricateSend, instance: TokenInstance) -> CscpMessage:
        chains = self.world.chains
        return transfer_message(
            chains[step.from_].sc_id, chains[step.to].sc_id, instance, self.world.actor(step.receiver).public
        )

    def _committed(self, record: _SendRecord) -> bool:
        return record.epoch_id < len(self.world.chains[record.from_label].epochs)

    # -- step executors ----------------------------------------------------------

    def _op_issue(self, index: int, step: steps.Issue) -> dict:
        instance = self.world.issue(step.chain, step)
        return _result(f"issued {step.name} on {step.chain}", digest=canonical_digest(instance).hex())

    def _op_send(self, index: int, step: steps.Send) -> dict:
        owner = self.world.actor(step.owner)
        instance = self.world.pick_instance(step.from_, owner.public, step.name, step.amount, step.token_id)
        message = self._build_message(step, instance)
        label = step.from_
        tx = SendTx(message=message, payload=instance.encode(), signature=owner.sign(message_digest(message)))
        if step.tamper is not None:
            label, tx = step.tampers[step.tamper](self.world, label, tx)
        verdict = self._submit(index, step, self.world.chains[label].accept_send, tx)
        self._note(index, self.world.accountant.note_send(label, instance, tx.message, verdict.accepted))
        if verdict.accepted and step.id is not None:
            self.sends[step.id] = _SendRecord(
                tx.message, tx.payload, tx.signature, label, len(self.world.chains[label].epochs), instance
            )
        return {
            "outcome": verdict.to_json(),
            "summary": f"send {step.name} {step.from_} -> {step.to}",
        }

    def _op_fabricate_send(self, index: int, step: steps.FabricateSend) -> dict:
        chain = self.world.chains[step.from_]
        if not isinstance(chain, ByzantineSidechain):
            raise HarnessError(f"chain {step.from_} is not byzantine, it cannot fabricate sends")
        owner = self.world.actor(step.owner)
        instance = TokenInstance(
            token_name=step.name,
            fungibility=step.fungible,
            issuer_sc_id=self.world.chains[step.issuer].sc_id,
            owner=owner.public,
            data_hash=_data_hash(step),
            amount=step.amount,
            token_id=step.token_id,
        )
        message = self._build_message(step, instance)
        signature = owner.sign(message_digest(message))
        payload = instance.encode()
        chain.fabricate_send(message, payload)
        if step.id is not None:
            self.sends[step.id] = _SendRecord(message, payload, signature, step.from_, len(chain.epochs), instance)
        return _result(f"fabricated send of {step.name} {step.from_} -> {step.to}", reason="Fabricated")

    def _op_close_epoch(self, index: int, step: steps.CloseEpoch) -> dict:
        labels = step.chains
        if labels == "all":
            record = self.world.mainchain.record
            labels = [label for label, sc in self.world.chains.items() if record(sc.sc_id).status != STATUS_CEASED]
            if not labels:
                raise HarnessError("every chain has ceased, so there is no epoch to close")
        parts = []
        for label in labels:
            chain = self.world.chains[label]
            if step.tamper is None:
                verdict = self._submit(index, step, lambda: chain.close_epoch(quality=step.quality)[1])
            else:
                _, cert = step.tampers[step.tamper](self.world, label, chain.build_certificate(step.quality))
                verdict = self._submit(index, step, self.world.mainchain.submit_certificate, cert)
            parts.append({"chain": label, **verdict.to_json()})
        accepted = all(part["accepted"] for part in parts)
        reason = "Accepted" if accepted else "PartialOrRejected"
        return _result(f"close epoch on {', '.join(labels)}", accepted, reason, parts=parts)

    def _op_advance_mainchain(self, index: int, step: steps.AdvanceMainchain) -> dict:
        self.world.mainchain.advance_blocks(step.blocks)
        return _result(f"advanced {step.blocks} block(s) to height {self.world.mainchain.tip_height}")

    def _op_cease_by_silence(self, index: int, step: steps.CeaseBySilence) -> dict:
        mainchain = self.world.mainchain
        record = mainchain.record(self.world.chains[step.chain].sc_id)
        blocks = record.silent_cease_height(mainchain.tip_height) - mainchain.tip_height
        if blocks > MAX_ADVANCE_BLOCKS:
            raise HarnessError(f"chain {step.chain} would cease only after {blocks} blocks, over {MAX_ADVANCE_BLOCKS}")
        mainchain.advance_blocks(blocks)
        return _result(f"{step.chain} ceased after {blocks} silent block(s)")

    def _op_redeem(self, index: int, step: steps.Redeem) -> dict:
        record = self.sends.get(step.send)
        if record is None:
            return _unavailable(f"redeem {step.send!r}: the referenced send was never accepted")
        label = self.world.label_by_sc_id(record.message.receiving_sc_id)
        try:
            if not self._committed(record):
                raise MessageNotCommitted("send was never committed by an epoch close")
            message, sender = record.message, self.world.chains[record.from_label]
            receiver = self.world.actor_for_key(message.receiver_id)
            tx = make_redeem_tx(
                self.world.mainchain, sender, record.epoch_id, message, record.payload, record.sender_sig, receiver
            )
        except EvidenceUnavailable as err:
            return _unavailable(f"redeem {step.send!r} on {label}: {err}")
        if step.tamper is not None:
            label, tx = step.tampers[step.tamper](self.world, label, tx)
        note = self.world.accountant.note_redeem
        accept = self.world.chains[label].accept_redeem
        return self._redeem(index, step, step.send, label, accept, tx, note, record.instance)

    def _op_csw(self, index: int, step: steps.Csw) -> dict:
        chain = self.world.chains[step.chain]
        owner = self.world.actor(step.owner)
        receiver = self.world.actor(step.receiver).public
        try:
            package = self._build_withdrawal(step, chain, owner, receiver)
        except (EvidenceUnavailable, ValueError) as err:
            return _unavailable(f"withdrawal {step.id!r} from {step.chain}: {err}")
        if step.tamper is not None:
            _, package = step.tampers[step.tamper](self.world, step.chain, package)
        verdict = self._submit(index, step, self.world.mainchain.submit_csw, package.csw)
        result = {
            "outcome": verdict.to_json(),
            "summary": f"withdrawal {step.id!r} ({step.mode}) from {step.chain}",
            "nullifier": package.csw.nullifier.hex(),
        }
        if verdict.accepted:
            self.withdrawals[step.id] = package
            self._replay(index, result, self.world.mainchain.submit_csw, package.csw, "withdrawal accepted")
        return result

    def _build_withdrawal(self, step: steps.Csw, chain: Sidechain, owner: KeyPair, receiver: PubKey) -> CswPackage:
        mode = step.mode
        if mode == "sent_record":
            holder = self.world.chains[step.holder]
            ret = self.sends.get(step.return_send)
            if ret is None:
                raise EntityNotInState("the referenced return send was never accepted")
            if not self._committed(ret):
                raise CertificateNotConfirmed("the return send was never committed")
            return withdraw_native_sent(
                chain,
                holder,
                ret.message,
                ret.payload,
                ret.epoch_id,
                owner,
                self.world.chains[step.target].sc_id,
                receiver,
            )
        digests = [
            digest
            for _, digest, ti in final_ledger(chain).s_tks.owned(owner.public, step.name, step.token_id)
            if step.amount is None or ti.amount == step.amount
        ]
        if not digests:
            raise EntityNotInState(f"no committed {step.name!r} instance for that owner")
        digest = min(digests)
        if mode == "held":
            return withdraw_native_held(chain, owner, digest, self.world.chains[step.target].sc_id, receiver)
        return withdraw_foreign(chain, owner, digest, receiver)

    def _op_csw_redeem(self, index: int, step: steps.CswRedeem) -> dict:
        package = self.withdrawals.get(step.withdrawal)
        if package is None:
            return _unavailable(f"csw redeem {step.withdrawal!r}: the referenced withdrawal was never accepted")
        label = self.world.label_by_sc_id(package.message.receiving_sc_id)
        chain = self.world.chains[label]
        try:
            tx = make_csw_redeem_tx(
                self.world.mainchain, package, self.world.actor_for_key(package.message.receiver_id)
            )
        except EvidenceUnavailable as err:
            return _unavailable(f"csw redeem {step.withdrawal!r} on {label}: {err}")
        note = self.world.accountant.note_csw_redeem
        return self._redeem(index, step, step.withdrawal, label, chain.accept_csw_redeem, tx, note, package.instance)

    def _op_notify(self, index: int, step: steps.Notify) -> dict:
        state = self.world.states[step.chain]
        try:
            chains = self.world.chains
            ok = state.apply_notification(
                chains[step.from_].sc_id, chains[step.to].sc_id, step.name, amount=step.amount, token_id=step.token_id
            )
        except ValueError as err:
            return _result(f"notify {step.chain}: {err}", False, "NotSupported")
        summary = f"notify {step.chain} of {step.name} move {step.from_} -> {step.to}"
        return _result(summary, ok, "Accepted" if ok else "NoMatchingRecord")

    def _op_assert(self, index: int, step: steps.Assert) -> dict:
        label = step.chain
        chain = self.world.chains[label]
        state = self.world.states[label]
        problems = []
        if step.status is not None:
            actual = self.world.mainchain.record(chain.sc_id).status
            if actual != step.status:
                problems.append(f"status: expected {step.status!r}, found {actual!r}")
        if step.holdings is not None:
            expected: dict[tuple, int] = {}
            for h in step.holdings:
                if "token_id" in h:
                    key = (h["name"], h.get("owner", ""), "id", h["token_id"])
                    expected[key] = expected.get(key, 0) + 1
                else:
                    key = (h["name"], h.get("owner", ""), "amount")
                    expected[key] = expected.get(key, 0) + h["amount"]
            actual: dict[tuple, int] = {}
            names = self.world.actor_names
            for ti in state.s_tks.values():
                owner = names[ti.owner] if ti.owner in names else ti.owner.hex()
                if ti.fungibility:
                    key = (ti.token_name, owner, "amount")
                    actual[key] = actual.get(key, 0) + ti.amount
                else:
                    key = (ti.token_name, owner, "id", ti.token_id)
                    actual[key] = actual.get(key, 0) + 1
            if expected != actual:
                problems.append(
                    f"holdings: expected {sorted(expected.items())}, found {sorted(actual.items())}"
                )
        if step.sent_records is not None:
            expected = sorted(
                (r["name"], self.world.chains[r["receiver"]].sc_id, r.get("amount", r.get("token_id")))
                for r in step.sent_records
            )
            actual_rows = sorted(
                (rec.token_name, rec.receiver_sc_id, rec.amount if rec.fungibility else rec.token_id)
                for rec in state.s_sent.values()
            )
            if expected != actual_rows:
                problems.append(f"sent_records: expected {expected}, found {actual_rows}")
        if problems:
            trace = render_json({"chain": label, "problems": problems, "state": state.dump()})
            raise InvariantViolation(index, "assert", trace)
        return _result(f"assert on {label} held")

    # -- main loop ---------------------------------------------------------------

    def run(self) -> dict:
        for index, step in enumerate(self.scenario.steps):
            op = step.op
            try:
                # Looked up on the instance, so a wrapper set there runs instead.
                entry = getattr(self, f"_op_{op}")(index, step)
            except HarnessError as err:
                self._stop(index, op, "ScenarioError", "scenario", f"step {index} ({op}): {err}")
                break
            except InvariantViolation as err:
                self._stop(index, op, "AssertFailed", err.invariant, err.trace)
                break
            entry.update({"index": index, "op": op})
            if step.expect is not None:
                self._check_expectation(index, step.expect, entry["outcome"])
            self._note(index, self.world.accountant.check(self.world.snapshot_for_accountant()))
            self.steps.append(entry)
        return self._report()

    def _stop(self, index: int, op: str, reason: str, invariant: str, trace: str) -> None:
        """End the run at step ``index``, which failed ``invariant``."""
        self.failure = {"step": index, "invariant": invariant, "trace": trace}
        self.steps.append({"index": index, "op": op, "outcome": {"accepted": False, "reason": reason}})

    def _check_expectation(self, index: int, expect: dict, outcome: dict) -> None:
        for key, wanted in expect.items():
            found = outcome.get(key)
            if found != wanted:
                self.violations.append(
                    f"step {index}: expectation: {key} was {found!r}, scenario expects {wanted!r}"
                )

    def _report(self) -> dict:
        final = self.world.dump()
        deduped = sorted(set(self.violations))
        ok = (
            self.failure is None
            and (bool(deduped) == self.scenario.expect_violations)
        )
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "steps": self.steps,
            "violations": deduped,
            "expect_violations": self.scenario.expect_violations,
            "failure": self.failure,
            "final": final,
            "ok": ok,
        }


def render_report(report: dict) -> str:
    return render_json(report) + "\n"
