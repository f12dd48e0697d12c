"""``OracleRunner``: one pass that holds every step of a run to the three
test-side references (the dump, accountant and verifier references) and
rebuilds every holdings index. Its report stays a plain ``Runner``'s, byte
for byte; what the oracles saw goes to ``findings``, which runs may share.
"""
from collections import Counter
from dataclasses import dataclass, field
from unittest import mock

from accountant_reference import reference_check
from dump_reference import chain_dumps
from verifier_reference import redeem_claim_holds

from mitto import sidechain
from mitto.harness import Runner
from mitto.messages import MSG_TYPE_TOKEN_TRANSFER


@dataclass
class Findings:
    """What the oracles saw: per oracle, its disagreements as ``<scenario>
    step <n>: <what>``; each rejected submission that moved the chain dumps;
    and the reach, accepted steps by op and how often each rule id fired."""

    disagreements: dict[str, list[str]] = field(default_factory=dict)
    dump_writes: list[str] = field(default_factory=list)
    full_runs: int = 0
    accepted_ops: Counter = field(default_factory=Counter)
    rules: Counter = field(default_factory=Counter)


def _index_agrees(holdings) -> bool:
    """Are ``holdings``' indexes the ones rebuilt from its entries?"""
    by_id, by_owner = {}, {}
    for digest, instance in sorted(holdings.items()):
        by_owner.setdefault((instance.owner, instance.token_name), set()).add(digest)
        if not instance.fungibility:
            by_id.setdefault((instance.token_name, instance.token_id), []).append(digest)
    kept = {key: sorted(digests) for key, digests in holdings.by_id.items()}
    return (kept, holdings.by_owner) == (by_id, by_owner)


class OracleRunner(Runner):
    """Runner checking each step against the references. ``full`` off skips
    the dump and accountant references, which re-derive the world each step."""

    def __init__(self, scenario, findings: Findings | None = None, full: bool = True):
        super().__init__(scenario)
        self.findings = Findings() if findings is None else findings
        self.full = full

    def _disagree(self, oracle: str, what: str) -> None:
        self.findings.disagreements.setdefault(oracle, []).append(f"{self.scenario.name} step {len(self.steps)}: {what}")

    def _submit(self, index, step, submit, *args):
        before = chain_dumps(self.world) if self.full else None
        flagged = len(self.violations)
        verdict = super()._submit(index, step, submit, *args)
        if before is not None and not verdict.accepted and chain_dumps(self.world) != before:
            self.findings.dump_writes.append(f"{self.scenario.name} step {index}")
            if not any(": atomicity: " in v for v in self.violations[flagged:]):
                self._disagree("dump", f"rejected {step.op} moved the chain dumps, the journal saw no write")
        return verdict

    def _check_accountant(self, snapshot: dict) -> list[str]:
        found = self._incremental(snapshot)
        reference = reference_check(self.world.accountant, snapshot) if self.full else found
        if found != reference:
            self._disagree("accountant", f"incremental {found}, reference {reference}")
        for label, chain in self.world.chains.items():
            # An archived ledger is kept as a capture of plain entries until
            # a later epoch is finalized, and indexed once something reads it.
            ledgers = {"live": self.world.states[label]}
            ledgers.update(
                (f"epoch {i}", e.captures[MSG_TYPE_TOKEN_TRANSFER]._ledger)
                for i, e in enumerate(chain.epochs)
                if e.captures is not None
            )
            for where, ledger in ledgers.items():
                if ledger is not None and not _index_agrees(ledger.s_tks):
                    self._disagree("holdings index", f"{label} {where}")
        return found

    def _check_redeem(self, stc_root, posting, message, payload, proof) -> bool:
        verdict = self._verify_redeem(stc_root, posting, message, payload, proof)
        expected = redeem_claim_holds(self.world, message, payload, proof)
        if verdict != expected:
            self._disagree("redeem", f"{type(posting).__name__} posting: verifier {verdict}, reference {expected}")
        return verdict

    def run(self) -> dict:
        # Hooked for the run only, so no cycle keeps a finished World alive.
        self._verify_redeem = sidechain.verify_redeem
        self._incremental = self.world.accountant.check
        with mock.patch.object(sidechain, "verify_redeem", self._check_redeem), \
                mock.patch.object(self.world.accountant, "check", self._check_accountant):
            report = super().run()
        self.findings.full_runs += self.full
        self.findings.accepted_ops.update(e["op"] for e in self.steps if e["outcome"]["accepted"])
        self.findings.rules.update(e["outcome"]["rule"] for e in self.steps if "rule" in e["outcome"])
        return report
