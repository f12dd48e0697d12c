"""Scenario runner behavior: determinism, atomicity, dumps, fault reporting."""
import copy
import functools
import json
import time
from dataclasses import dataclass, is_dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from accountant_reference import reference_check, reference_tallies
from oracles import OracleRunner
from worlds import SCENARIO_DIR

from mitto import accountant as accountant_module, hashing, mainchain as mainchain_module, sidechain as sidechain_module
from mitto import harness as harness_module
from mitto.accountant import Accountant
from mitto.encoding import U32_MAX, U64_MAX, DecodeError, canonical_digest
from mitto.harness import HarnessError, Runner, dump_state, render_json, render_report
from mitto.hashing import hash_bytes
from mitto.journal import JournalDict, Journaled, JournalList, JournalSet, writes
from mitto.mainchain import STATUS_ALIVE, STATUS_CEASED, Mainchain, ScRecord
from mitto.messages import CscpMessage, MSG_TYPE_TOKEN_TRANSFER, SendTx, message_digest
from mitto.proofs import CswBundle, csw_nullifier
from mitto.scenario import MAX_ADVANCE_BLOCKS, STEP_OPS, ParseError, load_scenario, parse_scenario
from mitto.sidechain import Sidechain
from mitto.tokens import Holdings, MittoState, SentRecord, TokenInstance, TokenNameRegistry, final_ledger


def scenario_obj(steps, chains=None, name="inline", seed=3, **extra) -> dict:
    return {
        "name": name,
        "seed": seed,
        "chains": chains or [
            {"label": "alpha", "epoch_length": 2,
             "issuances": [{"name": "GLD", "fungible": True, "amount": 100, "owner": "alice"}]},
            {"label": "beta", "epoch_length": 2},
        ],
        "steps": steps,
        **extra,
    }


def run_inline(steps, **kwargs) -> dict:
    return Runner(parse_scenario(scenario_obj(steps, **kwargs))).run()


def test_golden_scenario_passes():
    report = Runner(load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json")).run()
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["failure"] is None


def test_report_byte_identical_across_runs():
    scenario = load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json")
    first = render_report(Runner(scenario).run())
    second = render_report(Runner(scenario).run())
    assert first == second


def test_dump_reload_dump_identical(tmp_path):
    runner = Runner(load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json"))
    runner.run()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    dump_state(runner.world, first)
    reloaded = json.loads(first.read_text())
    second.write_text(json.dumps(reloaded, indent=2, sort_keys=True) + "\n")
    assert first.read_bytes() == second.read_bytes()


# Strings that exercise every escape: non-ASCII (inside and beyond the
# basic plane), quotes, backslashes and control characters.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'), st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**64), 2**64 - 1) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
@example({"": {}, "a": [], "b": [{}, [[]]], "é\"\\\x01": 2**64 - 1, "n": -1, "t": True, "f": False, "z": None})
# Each value below is one that orjson refuses or writes other bytes for, so
# ``json.dumps`` renders it.
@example({"big": [2**64]})
@example({"small": [-(2**63) - 1]})
@example({"del": "\x7f"})
@example({"accent": "é"})
@example({"ké": 1})
@example({"lone": "\ud800"})
@example({"deep": functools.reduce(lambda inner, _: [inner], range(300), [])})
def test_render_report_is_json_dumps(value):
    assert render_report(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# The last two also hold a value that sends them to ``json.dumps``, which
# would write the bad key as a string.
@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": [{None: 1}]}, {"a": {b"k": 1}}, {"big": 2**64, "k": {None: 1}}, {1: "é"}]
)
def test_render_report_rejects_non_str_keys(value):
    with pytest.raises(TypeError):
        render_report(value)


@dataclass
class _Point:
    x: int


@pytest.mark.parametrize("value", [{"a": b"k"}, {"a": {1}}, {"a": _Point(1)}], ids=["bytes", "set", "dataclass"])
def test_render_report_rejects_unsupported_values(value):
    with pytest.raises(TypeError):
        render_report(value)


def test_bundled_reports_render_without_the_fallback(monkeypatch):
    """Every bundled scenario's report and state dump, and an assert trace,
    are ASCII with 64-bit ints, so orjson writes them and the fallback to
    ``json.dumps``, which starts with the key walk, never runs."""

    def refuse(*args):
        raise AssertionError("render_json fell back to json.dumps")

    monkeypatch.setattr(harness_module, "_refuse_non_str_keys", refuse)
    holdings = [{"name": "GLD", "owner": "alice", "amount": 1}]
    failed_assert = scenario_obj([{"op": "assert", "chain": "alpha", "holdings": holdings}])
    scenarios = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.json"))] + [parse_scenario(failed_assert)]
    for scenario in scenarios:
        runner = Runner(scenario)
        report = runner.run()
        dump = runner.world.dump()
        assert render_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n", scenario.name
        assert render_json(dump) == json.dumps(dump, indent=2, sort_keys=True), scenario.name
    assert "GLD" in report["failure"]["trace"]


def _outside_report_types(value, where: str = "$"):
    """Each place in ``value`` that is not a report type: a dict with str
    keys, a list or tuple, or a str, bool, int or None. The types are
    matched exactly, so an enum or a str subclass is outside. An int
    outside 64 bits is reported too, tagged ``wide``: orjson refuses it,
    so ``json.dumps`` writes the whole text."""
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is str:
                yield from _outside_report_types(item, f"{where}.{key}")
            else:
                yield f"{where}: key {key!r}"
    elif type(value) in (list, tuple):
        for index, item in enumerate(value):
            yield from _outside_report_types(item, f"{where}[{index}]")
    elif type(value) is int:
        if not -(2**63) <= value < 2**64:
            yield f"{where}: wide"
    elif type(value) not in (str, bool, type(None)):
        yield f"{where}: {type(value).__name__}"


def test_every_emitted_report_holds_only_report_types(monkeypatch):
    """``render_json`` promises ``json.dumps``'s bytes for report types only,
    so no report or state dump the repo emits may hold anything else: the
    bundled scenarios, the world-layer vectors and ``run_fuzz(7, 20)``. The
    one int outside 64 bits is the u64-overflow vector's issued total,
    U64_MAX + 1, made on purpose by two issuances."""
    from mitto import fuzz, vectors

    emitted = []

    class Recording(Runner):
        def run(self):
            report = super().run()
            emitted.append((self.scenario.name, report, self.world.dump()))
            return report

    monkeypatch.setattr(fuzz, "Runner", Recording)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        Recording(load_scenario(path)).run()
    world_cases = [case for case in vectors.CASES if case.layer == "world"]
    for case in world_cases:
        Recording(parse_scenario(case.scenario, case.id)).run()
    result = fuzz.run_fuzz(7, 20)
    assert len(emitted) == 11 + len(world_cases) + 20 and result["ok"]
    found = {
        (name, place)
        for name, report, dump in [*emitted, ("run_fuzz(7, 20)", result, {})]
        for place in [*_outside_report_types(report), *_outside_report_types({"final": dump})]
    }
    wide = "$.final.chains.alpha.state.handlers.1.issued.BIG: wide"
    assert found == {("world-send-5-sent-record-overflow", wide)}


def test_rejected_tx_leaves_empty_diff():
    runner = Runner(parse_scenario(scenario_obj([])))
    runner.run()
    world = runner.world
    alpha = world.chains["alpha"]
    alice = world.actor("alice")
    mallory = world.actor("mallory")
    instance = next(iter(world.states["alpha"].s_tks.values()))
    message = CscpMessage(
        sending_sc_id=alpha.sc_id,
        receiving_sc_id=world.chains["beta"].sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=alice.public,
        receiver_id=alice.public,
        payload_hash=canonical_digest(instance),
    )
    tx = SendTx(message=message, payload=instance.encode(),
                signature=mallory.sign(message_digest(message)))
    pre = world.dump()
    verdict = alpha.accept_send(tx)
    assert not verdict.accepted
    assert render_json(world.dump()) == render_json(pre)


def test_accepted_send_diff_touches_exactly_ledger_fields():
    runner = Runner(parse_scenario(scenario_obj([])))
    runner.run()
    world = runner.world
    alpha = world.chains["alpha"]
    alice = world.actor("alice")
    bob = world.actor("bob")
    instance = next(iter(world.states["alpha"].s_tks.values()))
    message = CscpMessage(
        sending_sc_id=alpha.sc_id,
        receiving_sc_id=world.chains["beta"].sc_id,
        msg_type=MSG_TYPE_TOKEN_TRANSFER,
        sender_id=alice.public,
        receiver_id=bob.public,
        payload_hash=canonical_digest(instance),
    )
    tx = SendTx(message=message, payload=instance.encode(),
                signature=alice.sign(message_digest(message)))
    pre = world.dump()
    assert alpha.accept_send(tx).accepted
    post = world.dump()

    assert pre["mainchain"] == post["mainchain"]
    assert pre["chains"]["beta"] == post["chains"]["beta"]
    a_pre, a_post = pre["chains"]["alpha"], post["chains"]["alpha"]
    assert a_pre["status"] == a_post["status"]
    assert a_pre["last_finalized_epoch"] == a_post["last_finalized_epoch"]
    s_pre, s_post = a_pre["state"], a_post["state"]
    assert s_pre["redeemed"] == s_post["redeemed"]
    assert s_pre["epochs_closed"] == s_post["epochs_closed"]
    t_pre, t_post = s_pre["handlers"]["1"], s_post["handlers"]["1"]
    assert t_pre["issued"] == t_post["issued"]
    assert t_pre["registry"] == t_post["registry"]
    # The three fields the operation is about, plus the root that commits them.
    assert t_pre["s_tks"] != t_post["s_tks"]
    assert t_pre["s_sent"] != t_post["s_sent"]
    assert s_pre["outbox"] != s_post["outbox"]
    assert a_pre["state_root"] != a_post["state_root"]


def test_expectation_mismatch_fails_report():
    report = run_inline([
        {"op": "send", "id": "s1", "from": "alpha", "to": "beta", "name": "GLD",
         "amount": 10, "owner": "alice", "receiver": "bob",
         "expect": {"accepted": False, "reason": "SelfSend"}},
    ])
    assert report["ok"] is False
    assert any("expectation" in v for v in report["violations"])


def test_assert_failure_stops_with_trace():
    report = run_inline([
        {"op": "assert", "chain": "alpha",
         "holdings": [{"name": "GLD", "owner": "alice", "amount": 1}]},
        {"op": "advance_mainchain", "blocks": 1},
    ])
    assert report["ok"] is False
    assert report["failure"] is not None
    assert report["failure"]["step"] == 0
    assert "GLD" in report["failure"]["trace"]
    # Execution stopped at the failed assertion.
    assert len(report["steps"]) == 1
    assert report["steps"][0]["outcome"]["reason"] == "AssertFailed"


def test_faulty_mode_violations_reported_and_expected():
    report = Runner(load_scenario(SCENARIO_DIR / "faulty_no_sent_records.json")).run()
    assert report["expect_violations"] is True
    assert report["violations"], "the faulty build must trip the accountant"
    assert any("conservation" in v or "over-return" in v for v in report["violations"])
    assert report["ok"] is True


def test_clean_run_with_expected_violations_fails():
    report = run_inline([], expect_violations=True)
    assert report["violations"] == []
    assert report["ok"] is False


def test_replay_probe_recorded_on_accepted_redeem():
    report = Runner(load_scenario(SCENARIO_DIR / "golden_fungible_roundtrip.json")).run()
    redeems = [s for s in report["steps"] if s["op"] == "redeem"]
    assert redeems and redeems[0]["outcome"]["accepted"]
    assert redeems[0]["replay"] == {"accepted": False, "reason": "AlreadyRedeemed"}


def test_redeem_without_commitment_is_evidence_unavailable():
    report = run_inline([
        {"op": "send", "id": "s1", "from": "alpha", "to": "beta", "name": "GLD",
         "amount": 10, "owner": "alice", "receiver": "bob"},
        {"op": "redeem", "send": "s1"},
    ])
    outcome = report["steps"][1]["outcome"]
    assert outcome == {"accepted": False, "reason": "EvidenceUnavailable"}


def test_redeem_of_rejected_send_is_evidence_unavailable():
    report = run_inline([
        {"op": "send", "id": "s1", "from": "alpha", "to": "alpha", "name": "GLD",
         "amount": 10, "owner": "alice", "receiver": "bob",
         "expect": {"accepted": False, "reason": "SelfSend"}},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 4},
        {"op": "redeem", "send": "s1", "expect": {"accepted": False, "reason": "EvidenceUnavailable"}},
    ])
    assert report["ok"] is True


def test_rejected_self_send_keeps_chain_state_clean():
    # The wallet may split an instance to match the step's amount before the
    # protocol call; that bookkeeping must not register as an atomicity break.
    report = run_inline([
        {"op": "send", "from": "alpha", "to": "alpha", "name": "GLD",
         "amount": 7, "owner": "alice", "receiver": "bob",
         "expect": {"accepted": False, "reason": "SelfSend"}},
    ])
    assert report["ok"] is True
    assert report["violations"] == []


def test_every_step_op_has_a_handler():
    # Runner.run dispatches each step to the method named after its op.
    handlers = {name.removeprefix("_op_") for name in dir(Runner) if name.startswith("_op_")}
    assert handlers == set(STEP_OPS)


def test_label_by_sc_id():
    world = Runner(parse_scenario(scenario_obj([]))).world
    for label, chain in world.chains.items():
        assert world.label_by_sc_id(chain.sc_id) == label
    with pytest.raises(HarnessError, match="^no declared chain has id 99$"):
        world.label_by_sc_id(99)


def test_lower_quality_tamper_needs_a_closed_epoch():
    # A step that cannot run as written ends the run with a report that
    # keeps the verdicts given before it.
    step = {"op": "close_epoch", "chains": ["alpha"], "tamper": "lower_quality"}
    report = run_inline([{"op": "advance_mainchain", "blocks": 1, "expect": {"accepted": True}}, step, step])
    assert report["failure"] == {
        "step": 1,
        "invariant": "scenario",
        "trace": "step 1 (close_epoch): chain alpha has closed no epoch to certify again",
    }
    assert [entry["outcome"] for entry in report["steps"]] == [
        {"accepted": True, "reason": "Accepted"},
        {"accepted": False, "reason": "ScenarioError"},
    ]
    assert report["ok"] is False


_BUNDLED = [json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))]
#: The fields a mutant may set on a chain and on an issuance.
_CHAIN_KEYS = ("label", "epoch_length", "byzantine", "faulty_mode")
_ISSUANCE_KEYS = ("name", "data", "fungible", "amount", "token_id", "owner")
#: The values a mutant sets: every value a bundled step, chain or issuance
#: gives any field; and, drawn as often as all of those, the parser's
#: integer bounds and their neighbours and a string UTF-8 cannot encode (a
#: lone surrogate). MAX_ADVANCE_BLOCKS itself is left out, as sealing that
#: many blocks takes seconds; one past it is refused.
_BUNDLED_VALUES = list(
    {
        json.dumps(value, sort_keys=True): value
        for obj in _BUNDLED
        for fields in [*obj["steps"], *obj["chains"], *(i for c in obj["chains"] for i in c.get("issuances", ()))]
        for key, value in fields.items()
        if key != "issuances"
    }.values()
)
_EDGE_VALUES = [-1, 0, 1, 2, U32_MAX, U32_MAX + 1, U64_MAX, U64_MAX + 1, MAX_ADVANCE_BLOCKS + 1, "A\ud800T"]
_MUTANT_VALUES = st.sampled_from(_BUNDLED_VALUES) | st.sampled_from(_EDGE_VALUES)


@st.composite
def _mutants(draw):
    """A bundled scenario with one thing changed: a step's field set to
    another value, the step deleted, or the step duplicated in place; a
    chain's or an issuance's field set; or the scenario's name set."""
    obj = copy.deepcopy(draw(st.sampled_from(_BUNDLED)))
    issuances = [issuance for chain in obj["chains"] for issuance in chain.get("issuances", ())]
    kind = draw(st.sampled_from(("set", "delete", "duplicate", "chain", "name") + (("issuance",) if issuances else ())))
    value = copy.deepcopy(draw(_MUTANT_VALUES))
    if kind == "name":
        obj["name"] = value
    elif kind == "chain":
        draw(st.sampled_from(obj["chains"]))[draw(st.sampled_from(_CHAIN_KEYS))] = value
    elif kind == "issuance":
        draw(st.sampled_from(issuances))[draw(st.sampled_from(_ISSUANCE_KEYS))] = value
    else:
        steps = obj["steps"]
        index = draw(st.integers(0, len(steps) - 1))
        if kind == "set":
            steps[index][draw(st.sampled_from(sorted(steps[index])))] = value
        elif kind == "delete":
            del steps[index]
        else:
            steps.insert(index, copy.deepcopy(steps[index]))
    return obj


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_mutants())
def test_every_parsed_mutant_runs_to_a_repeatable_report(obj):
    """A scenario the parser accepts runs to a report, the same bytes each
    time; any other exception fails."""
    try:
        scenario = parse_scenario(obj)
    except ParseError:
        return
    assert render_report(Runner(scenario).run()) == render_report(Runner(scenario).run())


@pytest.mark.parametrize("index", range(len(_BUNDLED)), ids=[obj["name"] for obj in _BUNDLED])
def test_every_edge_value_in_a_chain_issuance_or_name_runs_to_a_report(index):
    """Each edge value in each chain field, each issuance field and the
    scenario name of a bundled scenario: a parse error or a report."""
    base = _BUNDLED[index]
    places = [("name",)] + [
        place
        for c, chain in enumerate(base["chains"])
        for place in [("chains", c, key) for key in _CHAIN_KEYS]
        + [("chains", c, "issuances", i, key) for i in range(len(chain.get("issuances", ()))) for key in _ISSUANCE_KEYS]
    ]
    for *path, key in places:
        for value in _EDGE_VALUES:
            obj = copy.deepcopy(base)
            target = obj
            for part in path:
                target = target[part]
            target[key] = value
            try:
                scenario = parse_scenario(obj)
            except ParseError:
                continue
            assert render_report(Runner(scenario).run()), (path, key, value)


def test_cease_by_silence_step():
    report = run_inline([
        {"op": "close_epoch", "chains": ["beta"]},
        {"op": "cease_by_silence", "chain": "alpha"},
        {"op": "assert", "chain": "alpha", "status": "ceased"},
    ])
    assert report["ok"] is True, report["violations"]


def test_cease_by_silence_beyond_the_block_cap_is_a_scenario_error():
    """A chain that could cease only after more than MAX_ADVANCE_BLOCKS
    blocks is refused before any block is sealed."""
    chains = [{"label": "alpha", "epoch_length": U32_MAX}, {"label": "beta", "epoch_length": 2}]
    runner = Runner(parse_scenario(scenario_obj([{"op": "cease_by_silence", "chain": "alpha"}], chains=chains)))
    tip = runner.world.mainchain.tip_height
    started = time.perf_counter()
    report = runner.run()
    assert time.perf_counter() - started < 1.0
    assert report["steps"][0]["outcome"] == {"accepted": False, "reason": "ScenarioError"}
    assert report["failure"]["trace"] == (
        f"step 0 (cease_by_silence): chain alpha would cease only after {2 * U32_MAX} blocks, over {MAX_ADVANCE_BLOCKS}"
    )
    assert runner.world.mainchain.tip_height == tip


def test_close_epoch_with_every_chain_ceased_is_a_scenario_error():
    """``close_epoch`` on all chains when none is alive names no chain to
    close, as an explicit ``chains: []`` (a parse error) would; it is refused
    like ``lower_quality`` with no closed epoch, not accepted with no parts."""
    chains = [{"label": "alpha", "epoch_length": 2}]
    report = run_inline([{"op": "cease_by_silence", "chain": "alpha"}, {"op": "close_epoch"}], chains=chains)
    assert report["steps"][1]["outcome"] == {"accepted": False, "reason": "ScenarioError"}
    assert report["failure"] == {
        "step": 1,
        "invariant": "scenario",
        "trace": "step 1 (close_epoch): every chain has ceased, so there is no epoch to close",
    }
    assert report["ok"] is False


@pytest.mark.parametrize("epoch_length", [2, 3, 5])
@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("lead", range(6))
def test_silent_cease_height_is_where_the_chain_ceases(epoch_length, certified, lead):
    """From any tip, with or without a pending certificate, and before the
    chain's registration is sealed, the schedule names the ceasing block."""
    mc = Mainchain()
    chain = Sidechain.create(mc, epoch_length, "alpha")
    record = mc.record(chain.sc_id)
    unsealed = record.silent_cease_height(mc.tip_height)
    mc.advance_blocks(1 + lead)
    if certified and record.status == "alive" and record.epoch_end(record.next_epoch()) <= mc.tip_height:
        assert chain.close_epoch()[1].accepted
    predicted = record.silent_cease_height(mc.tip_height)
    while record.status != STATUS_CEASED:
        mc.advance_block()
    assert mc.tip_height == predicted
    if record.last_epoch is None:
        assert predicted == max(unsealed, 1 + lead)


def test_notify_rejected_on_standard_chain():
    report = run_inline([
        {"op": "notify", "chain": "alpha", "from": "beta", "to": "alpha", "name": "GLD", "amount": 1,
         "expect": {"accepted": False, "reason": "NotSupported"}},
    ])
    assert report["ok"] is True, report["violations"]


# -- atomicity: write journal ----------------------------------------------------

# One rejection of each checked op, at steps 1 (send), 6 (redeem), 10 (csw)
# and 13 (csw_redeem); the run is clean when nothing leaks.
REJECTIONS = {
    "name": "rejections",
    "seed": 11,
    "chains": [
        {"label": "alpha", "epoch_length": 2,
         "issuances": [{"name": "GLD", "fungible": True, "amount": 50, "owner": "alice"}]},
        {"label": "beta", "epoch_length": 2},
    ],
    "steps": [
        {"op": "send", "id": "s1", "from": "alpha", "to": "beta", "name": "GLD",
         "amount": 10, "owner": "alice", "receiver": "bob", "expect": {"accepted": True}},
        {"op": "send", "from": "alpha", "to": "alpha", "name": "GLD", "amount": 5,
         "owner": "alice", "receiver": "bob", "expect": {"accepted": False, "reason": "SelfSend"}},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "redeem", "send": "s1", "expect": {"accepted": True}},
        {"op": "redeem", "send": "s1", "expect": {"accepted": False, "reason": "AlreadyRedeemed"}},
        {"op": "close_epoch", "chains": ["beta"]},
        {"op": "cease_by_silence", "chain": "alpha"},
        {"op": "csw", "id": "w1", "mode": "held", "chain": "alpha", "name": "GLD",
         "owner": "alice", "target": "beta", "receiver": "alice", "expect": {"accepted": True}},
        {"op": "csw", "id": "w2", "mode": "held", "chain": "alpha", "name": "GLD",
         "owner": "alice", "target": "beta", "receiver": "alice",
         "expect": {"accepted": False, "reason": "NullifierReused"}},
        {"op": "advance_mainchain", "blocks": 1},
        {"op": "csw_redeem", "withdrawal": "w1", "expect": {"accepted": True}},
        {"op": "csw_redeem", "withdrawal": "w1",
         "expect": {"accepted": False, "reason": "AlreadyRedeemed"}},
        {"op": "close_epoch", "chains": ["alpha"], "expect": {"accepted": False}},
    ],
}


def _bump_issued(chain, _tx):
    totals = chain.handlers[MSG_TYPE_TOKEN_TRANSFER].issued_totals
    totals["GHOST"] = totals.get("GHOST", 0) + 1


def _rebind_sent(chain, _tx):
    state = chain.handlers[MSG_TYPE_TOKEN_TRANSFER]
    state.s_sent = JournalDict(state.s_sent)


def _append_outbox(chain, tx):
    chain.outbox.append((tx.message, tx.payload))


def _drop_held(chain, _tx):
    held = chain.handlers[MSG_TYPE_TOKEN_TRANSFER].s_tks
    del held[min(held)]


def _register_name(chain, _tx):
    chain.handlers[MSG_TYPE_TOKEN_TRANSFER].registry._names["GHOST"] = (True, chain.sc_id)


def _rebind_redeemed(chain, _tx):
    chain.redeemed = JournalSet(chain.redeemed)


def _add_redeemed(chain, _tx):
    chain.redeemed.add(hash_bytes(b"leak%d" % len(chain.redeemed)))


def _append_epoch(chain, _tx):
    chain.epochs.append(chain.epochs[-1])


def _write_archived(chain, _tx):
    """An archived ledger is no live chain state, and the dump never sees
    it; the shared write count does."""
    final_ledger(chain).issued_totals["GHOST"] = 1


def _add_nullifier(mainchain, submission):
    used = mainchain.record(submission.ledger_id).used_nullifiers
    used.add(hash_bytes(b"leak%d" % len(used)))


def _queue_csw(mainchain, csw):
    mainchain._pending_csws.append((csw.ledger_id, csw))


def _hold_certificate(mainchain, cert):
    mainchain.record(cert.ledger_id).pending_cert = cert


def _swap_signer(chain, _tx):
    chain.wcert_signer = chain.csw_signer


def _rebind_finalized(mainchain, _csw):
    mainchain._finalized = dict(mainchain._finalized)


def _move_creation(mainchain, cert):
    mainchain.record(cert.ledger_id).creation_height += 1


def _finalize_rejected(mainchain, cert):
    """A table only a sealed block writes; neither the dump nor a later step
    reads this key."""
    mainchain._finalized[(cert.ledger_id, cert.epoch_id)] = None


# (op, step index, class, method, injected write, whether the dump sees it)
LEAKS = [
    ("send", 1, Sidechain, "accept_send", _bump_issued, True),
    ("send", 1, Sidechain, "accept_send", _rebind_sent, False),
    ("send", 1, Sidechain, "accept_send", _append_outbox, True),
    ("send", 1, Sidechain, "accept_send", _drop_held, True),
    ("send", 1, Sidechain, "accept_send", _register_name, True),
    ("send", 1, Sidechain, "accept_send", _swap_signer, False),
    ("redeem", 6, Sidechain, "accept_redeem", _add_redeemed, True),
    ("redeem", 6, Sidechain, "accept_redeem", _rebind_redeemed, False),
    ("csw", 10, Mainchain, "submit_csw", _add_nullifier, False),
    ("csw", 10, Mainchain, "submit_csw", _queue_csw, False),
    ("csw", 10, Mainchain, "submit_csw", _rebind_finalized, False),
    ("csw_redeem", 13, Sidechain, "accept_csw_redeem", _append_epoch, True),
    ("csw_redeem", 13, Sidechain, "accept_csw_redeem", _write_archived, False),
    ("close_epoch", 14, Mainchain, "submit_certificate", _add_nullifier, False),
    ("close_epoch", 14, Mainchain, "submit_certificate", _hold_certificate, False),
    ("close_epoch", 14, Mainchain, "submit_certificate", _move_creation, False),
    ("close_epoch", 14, Mainchain, "submit_certificate", _finalize_rejected, False),
]


def test_rejection_scenario_is_clean():
    runner = OracleRunner(parse_scenario(REJECTIONS))
    assert runner.run()["violations"] == []
    assert runner.findings.dump_writes == [] and runner.findings.disagreements == {}


@pytest.mark.parametrize(
    "op,index,cls,method,write,dump_sees",
    LEAKS,
    ids=[f"{op}-{write.__name__.strip('_')}" for op, _, _, _, write, _ in LEAKS],
)
def test_write_on_rejected_path_is_flagged(monkeypatch, op, index, cls, method, write, dump_sees):
    original = getattr(cls, method)

    def leaky(self, tx):
        verdict = original(self, tx)
        if not verdict.accepted:
            write(self, tx)
        return verdict

    monkeypatch.setattr(cls, method, leaky)
    runner = OracleRunner(parse_scenario(REJECTIONS))
    assert f"step {index}: atomicity: rejected {op} changed chain state" in runner.run()["violations"]
    # The dump comparison never saw rebinding to equal contents, a chain's
    # keys, nor any settlement-chain state; whatever it saw, the count saw too.
    assert (f"rejections step {index}" in runner.findings.dump_writes) is dump_sees
    assert runner.findings.disagreements == {}


CHAIN_OBJECTS = (Mainchain, ScRecord, Sidechain, MittoState, TokenNameRegistry)


def _counted(value) -> bool:
    """Is every write to ``value`` counted, or is there none to make?"""
    return (
        value is None
        or isinstance(value, (int, str, bytes, JournalDict, JournalSet, JournalList, Journaled))
        or (is_dataclass(value) and type(value).__dataclass_params__.frozen)
    )


def test_every_attribute_of_a_chain_object_is_counted():
    """After a ceased scenario, each attribute of each chain object (the live
    ones and each ceased chain's final ledger) is immutable, a journaled
    container or itself a chain object, so a new plain field cannot hold
    state the write count misses."""
    assert all(issubclass(cls, Journaled) for cls in CHAIN_OBJECTS)
    runner = Runner(load_scenario(SCENARIO_DIR / "ceased_flows.json"))
    runner.run()
    world = runner.world
    objects = [world.mainchain, world.registry, *world.mainchain._records.values(), *world.chains.values()]
    for chain in world.chains.values():
        objects += chain.handlers.values()
        objects += [epoch.captures[MSG_TYPE_TOKEN_TRANSFER]._ledger for epoch in chain.epochs if epoch.captures]
    objects = [obj for obj in objects if obj is not None]
    assert {type(obj) for obj in objects} == set(CHAIN_OBJECTS)
    assert sum(type(obj) is MittoState for obj in objects) > len(world.states)  # a final ledger too
    for obj in objects:
        for name, value in vars(obj).items():
            assert _counted(value), f"{type(obj).__name__}.{name} holds a {type(value).__name__}"


# Methods of dict, set and list that only read.
READ_ONLY = {
    "copy", "count", "fromkeys", "get", "index", "items", "keys", "values",
    "difference", "intersection", "isdisjoint", "issubset", "issuperset",
    "symmetric_difference", "union",
}

# The only mutators the chains call, each counted once: every other mutator
# of the base type raises.
COUNTED = {
    JournalDict: {
        "__delitem__": lambda d: d.__delitem__("a"),
        "__setitem__": lambda d: d.__setitem__("b", 1),
    },
    JournalSet: {
        "add": lambda s: s.add("b"),
    },
    JournalList: {
        "__setitem__": lambda l: l.__setitem__(0, "c"),
        "append": lambda l: l.append("c"),
        "clear": lambda l: l.clear(),
    },
}

SEEDS = {JournalDict: {"a": 0}, JournalSet: {"a"}, JournalList: ["b", "a"]}


def _mutators(base) -> set[str]:
    """Public and in-place methods of a builtin container, minus READ_ONLY."""
    return {
        name for name in dir(base)
        if callable(getattr(base, name))
        and name not in READ_ONLY
        and (
            not name.startswith("_")
            or name in ("__setitem__", "__delitem__")
            or (name.startswith("__i") and name not in ("__init__", "__init_subclass__", "__iter__"))
        )
    }


def _changed_keys(before, after) -> set:
    if isinstance(before, dict):
        return {key for key in before.keys() | after.keys() if before.get(key, None) != after.get(key, None)}
    return before ^ after


def _fresh(cls):
    """A seeded container whose writes are recorded, as once a reader mirrors it."""
    box = cls(SEEDS[cls])
    if cls is not JournalList:
        box.drain()
    return box


@pytest.mark.parametrize("cls", list(COUNTED), ids=lambda cls: cls.__name__)
def test_every_mutator_is_counted_or_refused(cls):
    """A counted mutator bumps the shared write count once, and a dict's or
    set's record holds every key it changed. Any other mutator of the base
    type, a new one included, raises and leaves everything as it was."""
    base = cls.__bases__[-1]
    mutators = _mutators(base)
    assert set(COUNTED[cls]) <= mutators
    for name, mutate in COUNTED[cls].items():
        assert name in cls.__dict__, f"{cls.__name__}.{name} is inherited, so it writes unseen"
        box = _fresh(cls)
        before, clock = base(box), writes()
        mutate(box)
        assert writes() == clock + 1, name
        if cls is not JournalList:
            changed = _changed_keys(before, base(box))
            assert changed and changed <= box.drain(), name
    for name in sorted(mutators - set(COUNTED[cls])):
        box = _fresh(cls)
        before, clock = base(box), writes()
        with pytest.raises(TypeError, match="is not a counted write"):
            getattr(box, name)(SEEDS[cls])
        assert base(box) == before and writes() == clock, name
        if cls is not JournalList:
            assert box.written == set(), name


def test_the_chains_call_every_counted_mutator(monkeypatch):
    """A ceased scenario calls each counted mutator, so the counted set
    holds only writes the chains make."""
    calls = {}

    def counting(cls, name):
        method = cls.__dict__[name]

        def counted(self, *args):
            calls[cls, name] += 1
            return method(self, *args)

        calls[cls, name] = 0
        return counted

    for cls, names in COUNTED.items():
        for name in names:
            monkeypatch.setattr(cls, name, counting(cls, name))
    Runner(load_scenario(SCENARIO_DIR / "ceased_flows.json")).run()
    assert all(calls.values()), calls


def test_drain_hands_each_written_key_to_one_reader():
    box = JournalDict({"a": 0})
    box["z"] = 9  # written before any reader drained: nothing is recorded
    assert box.drain() is None
    box["b"] = 1
    assert box.drain() == {"b"}
    assert box.drain() == set()


# -- the oracle pass: journal against dumps, accountant against its reference --
#
# Each bundled scenario and each fuzz trace runs once under the
# ``OracleRunner`` (fixtures ``bundled_pass`` and ``fuzz_corpus``), and the
# tests below read that one pass.


@pytest.fixture(scope="module", params=sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem)
def bundled_pass(request):
    """A bundled scenario's path, and its report and findings from one pass."""
    runner = OracleRunner(load_scenario(request.param))
    return request.param, runner.run(), runner.findings


def test_journal_matches_dump_reference_on_bundled_scenarios(bundled_pass):
    path, report, oracles = bundled_pass
    assert render_report(report) == render_report(Runner(load_scenario(path)).run())
    # The whole pass, the redeem oracle included, agrees on the scenario.
    assert oracles.full_runs == 1 and oracles.disagreements == {}


def test_journal_matches_dump_reference_on_fuzz_corpus(fuzz_corpus):
    oracles = fuzz_corpus["oracles"]
    assert oracles.full_runs == 200 and "dump" not in oracles.disagreements


def test_accountant_matches_reference_on_bundled_scenarios(bundled_pass):
    path, report, oracles = bundled_pass
    assert {"accountant", "holdings index"}.isdisjoint(oracles.disagreements), oracles.disagreements
    expected = {"faulty_issuer_notification": 7, "faulty_no_receiver_tracking": 2, "faulty_no_sent_records": 3}
    assert len(report["violations"]) == expected.get(path.stem, 0)


def test_accountant_matches_reference_on_fuzz_corpus(fuzz_corpus):
    disagreements = fuzz_corpus["oracles"].disagreements
    assert {"accountant", "holdings index"}.isdisjoint(disagreements), disagreements


# -- accountant: incremental books against the dump reference ------------------


def _nft_chain(label, name, owner, n):
    return {"label": label, "epoch_length": 2,
            "issuances": [{"name": name, "fungible": False, "token_id": i, "owner": owner} for i in range(n)]}


def scale_nft_shape(n):
    """``n`` NFTs sent alpha -> beta in one epoch, then redeemed in reverse."""
    steps = [
        {"op": "send", "id": f"s{i}", "from": "alpha", "to": "beta", "name": "ART",
         "token_id": i, "owner": "alice", "receiver": "bob", "expect": {"accepted": True}}
        for i in range(n)
    ]
    steps += [{"op": "advance_mainchain", "blocks": 2}, {"op": "close_epoch"},
              {"op": "advance_mainchain", "blocks": 2}]
    steps += [{"op": "redeem", "send": f"s{i}", "expect": {"accepted": True}} for i in reversed(range(n))]
    chains = [_nft_chain("alpha", "ART", "alice", n), {"label": "beta", "epoch_length": 2}]
    return {"name": "scale_nft_shape", "seed": 5, "chains": chains, "steps": steps}


def ceased_recovery_shape(n):
    """beta's NFTs arrive on alpha, alpha ceases, and every instance it held
    at its final epoch is withdrawn and redeemed on beta."""
    steps = [
        {"op": "send", "id": f"in{i}", "from": "beta", "to": "alpha", "name": "BNFT",
         "token_id": i, "owner": "bob", "receiver": "alice", "expect": {"accepted": True}}
        for i in range(n)
    ]
    steps += [{"op": "advance_mainchain", "blocks": 2}, {"op": "close_epoch"},
              {"op": "advance_mainchain", "blocks": 2}]
    steps += [{"op": "redeem", "send": f"in{i}", "expect": {"accepted": True}} for i in range(n)]
    steps += [{"op": "close_epoch"}, {"op": "advance_mainchain", "blocks": 2},
              {"op": "close_epoch", "chains": ["beta"]}, {"op": "cease_by_silence", "chain": "alpha"}]
    withdrawals = []
    for i in range(n):
        withdrawals += [
            {"op": "csw", "id": f"h{i}", "mode": "held", "chain": "alpha", "name": "ANFT", "token_id": i,
             "owner": "alice", "target": "beta", "receiver": "carol", "expect": {"accepted": True}},
            {"op": "csw", "id": f"f{i}", "mode": "foreign", "chain": "alpha", "name": "BNFT", "token_id": i,
             "owner": "alice", "receiver": "carol", "expect": {"accepted": True}},
        ]
    steps += withdrawals + [{"op": "advance_mainchain", "blocks": 1}]
    steps += [{"op": "csw_redeem", "withdrawal": w["id"], "expect": {"accepted": True}} for w in withdrawals]
    chains = [_nft_chain("alpha", "ANFT", "alice", n), _nft_chain("beta", "BNFT", "bob", n)]
    return {"name": "ceased_recovery_shape", "seed": 6, "chains": chains, "steps": steps}


def _agreed(runner: OracleRunner) -> dict:
    """Run; assert no oracle disagreed at any step, and return the report."""
    report = runner.run()
    assert runner.findings.disagreements == {}
    return report


@pytest.mark.parametrize("shape", [scale_nft_shape, ceased_recovery_shape], ids=lambda f: f.__name__)
def test_accountant_matches_reference_on_scale_shapes(shape):
    assert _agreed(OracleRunner(parse_scenario(shape(6))))["ok"] is True


def test_index_bypass_is_caught(monkeypatch):
    """A write to ``s_tks`` that skips the holdings index is what the
    oracle pass's index rebuild looks for after every step."""

    def apply_redeem(self, instance, message):
        minted = replace(instance, owner=message.receiver_id)
        dict.__setitem__(self.s_tks, canonical_digest(minted), minted)

    monkeypatch.setattr(MittoState, "apply_redeem", apply_redeem)
    scenario = parse_scenario(scale_nft_shape(2))
    runner = OracleRunner(scenario)
    runner.run()
    first_redeem = [step.op for step in scenario.steps].index("redeem")
    assert runner.findings.disagreements["holdings index"][0] == f"scale_nft_shape step {first_redeem}: beta live"


def _per_step(runner: Runner, *counters: list) -> list:
    """Run; return how far each of ``counters`` grew during each step (a
    count per step for one counter, a tuple of counts for several)."""
    marks = [tuple(map(len, counters))]
    check = runner.world.accountant.check

    def mark(snapshot):
        findings = check(snapshot)
        marks.append(tuple(map(len, counters)))
        return findings

    runner.world.accountant.check = mark
    assert runner.run()["ok"] is True
    grown = [tuple(a - b for a, b in zip(after, before)) for before, after in zip(marks, marks[1:])]
    return [g[0] for g in grown] if len(counters) == 1 else grown


def _ops(n: int) -> list[str]:
    return [step["op"] for step in scale_nft_shape(n)["steps"]]


@pytest.mark.parametrize("n", [20, 200])
def test_one_ed25519_verify_per_accepted_send_and_redeem(real_verifies, n):
    """The sending chain's gate and rule send-4 check one signature, and
    the receiving chain's rule redeem-5 checks it again: Ed25519 runs once
    for it, and once more for the redeem's receiver authorization."""
    per_step = _per_step(Runner(parse_scenario(scale_nft_shape(n))), real_verifies)
    by_op = {}
    for op, count in zip(_ops(n), per_step):
        by_op.setdefault(op, set()).add(count)
    # close_epoch verifies one certificate per chain.
    assert by_op == {"send": {1}, "advance_mainchain": {0}, "close_epoch": {2}, "redeem": {1}}


@pytest.mark.parametrize("shape,n", [(scale_nft_shape, 20), (scale_nft_shape, 200), (ceased_recovery_shape, 6)],
                         ids=["scale-20", "scale-200", "ceased-6"])
def test_each_payload_decoded_and_each_proof_verified_once(real_verifies, counted, shape, n):
    """Per step: the gate decodes a token payload once (a replay probe stops
    at the redeemed set, before the payload, the proof or the withdrawal it
    names is looked at), a redeem verifies its evidence once, and a
    withdrawal proof's verifier body runs once, for its prover; the
    settlement chain's check is a memo lookup. Ed25519 work stays as it was."""
    decodes = counted(TokenInstance, "decode")
    redeem_proofs = counted(sidechain_module, "verify_redeem")
    csw_bodies = counted(CswBundle, "decode")
    inclusions = counted(Mainchain, "csw_inclusion")
    scenario = parse_scenario(shape(n))
    per_step = _per_step(Runner(scenario), decodes, redeem_proofs, csw_bodies, real_verifies, inclusions)
    by_op = {}
    for step, counts in zip(scenario.steps, per_step):
        by_op.setdefault(step.op, set()).add(counts)
    # (payload decodes, verify_redeem calls, verify_csw bodies, Ed25519
    # verifications, withdrawal lookups) per step. A close verifies one
    # certificate per chain it closes. A withdrawal's message reaches its
    # receiving chain without a send, so its csw_redeem checks the sender's
    # signature afresh; it looks its withdrawal up once for its prover and
    # once at the gate, and its replay probe not at all.
    expected = {
        "send": {(1, 0, 0, 1, 0)},
        "advance_mainchain": {(0, 0, 0, 0, 0)},
        "close_epoch": {(0, 0, 0, 2, 0)},
        "redeem": {(1, 1, 0, 1, 0)},
    }
    if shape is ceased_recovery_shape:
        expected["close_epoch"] = {(0, 0, 0, 2, 0), (0, 0, 0, 1, 0)}
        expected.update({
            "cease_by_silence": {(0, 0, 0, 0, 0)},
            "csw": {(0, 0, 1, 1, 0)},
            "csw_redeem": {(1, 1, 0, 2, 2)},
        })
    assert by_op == expected


@pytest.mark.parametrize("n", [20, 200])
def test_one_message_hash_per_send(real_verifies, monkeypatch, n):
    """A message object keeps its digest: the send that builds it hashes
    it once (for the owner's signature), and the gate, rule send-4, the
    epoch's message tree, the redeem and its replay probe all read it back.
    Ed25519 work stays as it was."""
    message_hashes = []
    sha256 = hashing._sha256

    def counting(data):
        try:
            CscpMessage.decode(data)
            message_hashes.append(data)
        except (DecodeError, ValueError):
            pass
        return sha256(data)

    monkeypatch.setattr(hashing, "_sha256", counting)
    per_step = _per_step(Runner(parse_scenario(scale_nft_shape(n))), message_hashes, real_verifies)
    by_op = {}
    for op, counts in zip(_ops(n), per_step):
        by_op.setdefault(op, set()).add(counts)
    # (message hashes, Ed25519 verifications) per step.
    assert by_op == {"send": {(1, 1)}, "advance_mainchain": {(0, 0)}, "close_epoch": {(0, 2)}, "redeem": {(0, 1)}}


@pytest.mark.parametrize("shape,n", [(scale_nft_shape, 20), (ceased_recovery_shape, 6)], ids=["scale-20", "ceased-6"])
def test_three_hashes_per_sent_payload(monkeypatch, shape, n):
    """A sent payload is hashed when its instance is issued, at the
    sending gate's payload check and at the redeem's payload check; the
    ledger's rules read the gate's checked hash back as the instance's
    digest instead of hashing its re-encoding."""
    hashed = []
    sha256 = hashing._sha256

    def counting(data):
        hashed.append(bytes(data))
        return sha256(data)

    monkeypatch.setattr(hashing, "_sha256", counting)
    runner = Runner(parse_scenario(shape(n)))
    assert runner.run()["ok"] is True
    sent = [record.payload for record in runner.sends.values()]
    assert len(sent) == n
    assert [hashed.count(payload) for payload in sent] == [3] * n


def test_close_path_builds_only_the_message_tree(counted):
    """Roots that are only compared or signed are computed without a tree:
    an accepted close builds one tree per chain it closes, its message
    tree, which later redeems read paths from. Sends and redeems build
    none, and only a block that commits something builds its commitment;
    one with no registration, certificate or withdrawal shares the empty
    commitment."""
    trees = counted(hashing, "MerkleTree")
    stcs = counted(mainchain_module, "build_stc")
    by_op = {}
    for op, counts in zip(_ops(20), _per_step(Runner(parse_scenario(scale_nft_shape(20))), trees, stcs)):
        by_op.setdefault(op, set()).add(counts)
    # (trees, commitments) per step. Each close_epoch closes alpha and
    # beta. Each advance_mainchain seals two blocks: a block with no
    # postings builds nothing, and one that finalises two certificates
    # builds its commitment tree and each chain's empty transaction tree.
    assert by_op == {
        "send": {(0, 0)},
        "advance_mainchain": {(0, 0), (3, 1)},
        "close_epoch": {(2, 0)},
        "redeem": {(0, 0)},
    }


def test_committed_state_levels_are_built_once_per_ceased_chain(counted):
    """The committed-state tree of a close is only its root until a
    withdrawal asks for a path: the first withdrawal from the ceased chain
    builds its final epoch's tree, and every later one reuses it."""
    trees = counted(hashing, "MerkleTree")
    scenario = parse_scenario(ceased_recovery_shape(6))
    per_op = {}
    for step, count in zip(scenario.steps, _per_step(Runner(scenario), trees)):
        per_op.setdefault(step.op, []).append(count)
    assert per_op.pop("csw") == [1] + [0] * 11
    # The third close closes beta alone.
    assert {op: set(counts) for op, counts in per_op.items()} == {
        "send": {0},
        "advance_mainchain": {0, 2, 3},
        "close_epoch": {2, 1},
        "redeem": {0},
        "cease_by_silence": {2},
        "csw_redeem": {0},
    }


def test_close_captures_and_a_ceased_ledger_is_built_once(counted):
    """An accepted close on a live chain keeps plain copies of each
    ledger's entries and builds no ledger. The ledger of ceased alpha is
    built at the first step that reads it, the sweep after the cease, and
    is the same object at every later step, so the accountant rebuilds its
    book of alpha once: one nullifier per entity alpha held."""
    states = counted(MittoState, "__init__")
    holdings = counted(Holdings, "__init__")
    nullifiers = counted(accountant_module, "csw_nullifier")
    scenario = parse_scenario(ceased_recovery_shape(6))
    runner = Runner(scenario)
    frozen = []
    check = runner.world.accountant.check

    def noting(snapshot):
        _status, _live, ledger, _used = snapshot["alpha"]
        frozen.append(ledger)
        return check(snapshot)

    runner.world.accountant.check = noting
    per_step = _per_step(runner, states, holdings, nullifiers)
    ops = [step.op for step in scenario.steps]
    ceased = ops.index("cease_by_silence")
    assert frozen[:ceased] == [None] * ceased
    assert frozen[ceased] is not None and all(ledger is frozen[ceased] for ledger in frozen[ceased:])
    by_op = {}
    for op, counts in zip(ops, per_step):
        by_op.setdefault(op, set()).add(counts)
    # (ledgers built, holdings built, nullifiers computed) per step; alpha
    # holds its 6 own NFTs and beta's 6 when it ceases.
    assert by_op == {
        "send": {(0, 0, 0)},
        "advance_mainchain": {(0, 0, 0)},
        "close_epoch": {(0, 0, 0)},
        "redeem": {(0, 0, 0)},
        "cease_by_silence": {(1, 1, 12)},
        "csw": {(0, 0, 0)},
        "csw_redeem": {(0, 0, 0)},
    }


def held_nft_shape(n):
    """alpha holds ``n`` NFTs and closes two epochs beside beta, sending
    one NFT to beta in each; beta redeems the first between the closes."""
    def send(i):
        return {"op": "send", "id": f"s{i}", "from": "alpha", "to": "beta", "name": "ART", "token_id": i,
                "owner": "alice", "receiver": "bob"}

    steps = [send(0), {"op": "advance_mainchain", "blocks": 2}, {"op": "close_epoch"},
             {"op": "advance_mainchain", "blocks": 2}, {"op": "redeem", "send": "s0"}, send(1),
             {"op": "close_epoch"}, {"op": "advance_mainchain", "blocks": 2}]
    chains = [_nft_chain("alpha", "ART", "alice", n), {"label": "beta", "epoch_length": 2}]
    return {"name": "held_nft_shape", "seed": 7, "chains": chains, "steps": steps}


@pytest.mark.parametrize("n,hashes", [(100, [227, 229]), (400, [827, 829])])
def test_hashes_per_close_at_two_world_sizes(monkeypatch, n, hashes):
    """SHA-256 calls of each accepted close of alpha and beta, pinned. Each
    close hashes alpha's whole committed state, n entities, into its
    root: about 2 calls per held NFT, which ROADMAP item 8's root from the
    previous close would cut."""
    hashed = []
    sha256 = hashing._sha256

    def counting(data):
        hashed.append(None)
        return sha256(data)

    monkeypatch.setattr(hashing, "_sha256", counting)
    scenario = parse_scenario(held_nft_shape(n))
    per_step = _per_step(Runner(scenario), hashed)
    assert [count for step, count in zip(scenario.steps, per_step) if step.op == "close_epoch"] == hashes


def _count_mirrored(monkeypatch, mirrored: list) -> None:
    """Append ``(sc_id, container, key)`` to ``mirrored`` for each key a
    shadow book mirrors, held instances and sent records alike."""
    for container in ("held", "sent"):
        original = getattr(accountant_module._Book, f"_mirror_{container}")

        def counting(book, source, keys, moved, _original=original, _container=container):
            keys = list(keys)
            mirrored.extend((book.sc_id, _container, key) for key in keys)
            _original(book, source, keys, moved)

        monkeypatch.setattr(accountant_module._Book, f"_mirror_{container}", counting)


@pytest.mark.parametrize("n", [20, 200])
def test_accountant_resyncs_only_written_keys(monkeypatch, n):
    """After the first step builds the books, each step resyncs the few
    ledger keys it wrote, however many the chains hold."""
    resynced = []
    _count_mirrored(monkeypatch, resynced)
    per_step = _per_step(Runner(parse_scenario(scale_nft_shape(n))), resynced)
    assert per_step[0] == n  # the first look mirrors alpha's n issued instances
    by_op = {}
    for op, count in zip(_ops(n)[1:], per_step[1:]):
        by_op.setdefault(op, set()).add(count)
    # A send burns one instance and writes one sent record; a redeem mints one.
    assert by_op == {"send": {2}, "advance_mainchain": {0}, "close_epoch": {0}, "redeem": {1}}


def test_sweep_reads_only_what_each_step_changed(monkeypatch):
    """After the first sweep, each sweep mirrors exactly the ledger keys
    whose entries the step changed, and re-derives the invariants of the
    names that moved and no other: an advance_mainchain (two empty blocks,
    then two that finalize certificates) or a close writes no ledger, so
    its sweep mirrors no key and re-derives nothing."""
    mirrored, derived = [], []
    _count_mirrored(monkeypatch, mirrored)
    derive = Accountant._derive

    def deriving(accountant, name):
        derived.append(name)
        return derive(accountant, name)

    monkeypatch.setattr(Accountant, "_derive", deriving)
    scenario = parse_scenario(scale_nft_shape(20))
    runner = Runner(scenario)
    states = runner.world.states.values()

    def ledgers() -> dict:
        return {
            **{(state.sc_id, "held"): dict(state.s_tks) for state in states},
            **{(state.sc_id, "sent"): dict(state.s_sent) for state in states},
        }

    before = [ledgers()]
    swept = []
    check = runner.world.accountant.check

    def sweep(snapshot):
        mirrored.clear()
        derived.clear()
        findings = check(snapshot)
        after = ledgers()
        changed = {
            (*where, key)
            for where, entries in after.items()
            for key in entries.keys() | before[0][where].keys()
            if entries.get(key) is not before[0][where].get(key)
        }
        before[0] = after
        swept.append((sorted(mirrored), sorted(changed), list(derived)))
        return findings

    runner.world.accountant.check = sweep
    assert runner.run()["ok"] is True
    assert len(swept[0][0]) == 19 + 1  # the first look: the instances the first send left, and its record
    by_op = {}
    for step, (keys, changed, names) in zip(scenario.steps[1:], swept[1:]):
        assert keys == changed, step.op
        by_op.setdefault(step.op, set()).add((len(keys), tuple(names)))
    assert by_op == {
        "send": {(2, ("ART",))},
        "advance_mainchain": {(0, ())},
        "close_epoch": {(0, ())},
        "redeem": {(1, ("ART",))},
    }


# -- accountant: the sweep against its reference under arbitrary ledger writes --
#
# A two-chain world with one finalized epoch each, so each has a committed
# ledger to fall back on once its status says ceased. Writes reach the live
# and the committed ledgers, their rebindings, each chain's status and its
# used nullifiers, between sweeps drawn anywhere in the sequence.

SWEPT_WORLD = scenario_obj(
    [{"op": "advance_mainchain", "blocks": 2}, {"op": "close_epoch"}, {"op": "advance_mainchain", "blocks": 2}],
    chains=[
        {"label": "alpha", "epoch_length": 2, "issuances": [
            {"name": "GLD", "fungible": True, "amount": 50, "owner": "alice"},
            *({"name": "ART", "fungible": False, "token_id": i, "owner": "alice"} for i in range(2))]},
        {"label": "beta", "epoch_length": 2,
         "issuances": [{"name": "SLV", "fungible": True, "amount": 20, "owner": "bob"}]},
    ],
)
_SWEPT_CHAINS = ("alpha", "beta")
_SWEPT_LEDGERS = ("live", "frozen")


def _swept_world():
    """The world, and its pools: keys (alpha's issued digests, beta's and
    two fresh ones), instances (the issued ones, an NFT twin of alpha's
    id 0, a fungible parcel of each name) and sent records by key."""
    runner = Runner(parse_scenario(SWEPT_WORLD))
    assert runner.run()["ok"] is True
    world = runner.world
    issued = [instance for state in world.states.values() for instance in state.s_tks.values()]
    keys = [canonical_digest(instance) for instance in issued] + [hash_bytes(b"fresh0"), hash_bytes(b"fresh1")]
    gld, art0 = issued[0], next(i for i in issued if i.token_id == 0)
    instances = issued + [
        replace(art0, data_hash=hash_bytes(b"twin")),
        replace(gld, amount=30, data_hash=hash_bytes(b"parcel")),
        replace(issued[-1], amount=5, data_hash=hash_bytes(b"parcel")),
    ]
    beta = world.chains["beta"].sc_id
    records = {
        ("f", beta, "GLD"): [SentRecord(beta, "GLD", True, amount=20), SentRecord(beta, "GLD", True, amount=5)],
        ("n", "ART", 0): [SentRecord(beta, "ART", False, token_id=0)],
    }
    return world, keys, instances, records


_SWEEP_OPS = st.one_of(
    st.just(("sweep",)),
    st.tuples(st.just("put"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS),
              st.integers(0, 5), st.integers(0, 6)),
    st.tuples(st.just("delete"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS), st.integers(0, 5)),
    st.tuples(st.just("record"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS),
              st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("unrecord"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS), st.integers(0, 1)),
    st.tuples(st.just("rebind"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS),
              st.sampled_from(("s_tks", "s_sent"))),
    st.tuples(st.just("restore"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from(_SWEPT_LEDGERS),
              st.integers(0, 5), st.integers(0, 6)),
    st.tuples(st.just("rebind_used"), st.sampled_from(_SWEPT_CHAINS)),
    st.tuples(st.just("status"), st.sampled_from(_SWEPT_CHAINS), st.sampled_from((STATUS_ALIVE, STATUS_CEASED))),
    st.tuples(st.sampled_from(("use", "unuse")), st.sampled_from(_SWEPT_CHAINS), st.integers(0, 5)),
)


def _sweeps(ops) -> list[list[str]]:
    """Apply ``ops`` to a fresh swept world; at each ``sweep`` and at the
    end, hold ``Accountant.check`` and its books' tallies to the reference
    on one snapshot. Return the findings of each sweep."""
    world, keys, instances, records = _swept_world()
    accountant = world.accountant
    detached = {}  # per (chain, ledger), the s_tks containers rebinding left behind, latest last
    found = []
    for op in [*ops, ("sweep",)]:
        kind, args = op[0], op[1:]
        if kind == "sweep":
            snapshot = world.snapshot_for_accountant()
            found.append(accountant.check(snapshot))
            assert found[-1] == reference_check(accountant, snapshot), ops
            books = {
                label: (book.held, {name: units for name, units in book.recorded.items() if units})
                for label, book in accountant._books.items()
            }
            crowded = {name: ids for name, ids in accountant._crowded.items() if ids}
            assert (books, crowded) == reference_tallies(accountant, snapshot), ops
            continue
        chain = world.chains[args[0]]
        record = world.mainchain.record(chain.sc_id)
        if kind == "status":
            record.status = args[1]
        elif kind in ("use", "unuse"):
            nullifier = csw_nullifier(chain.sc_id, keys[args[1]])
            if kind == "use":
                record.used_nullifiers.add(nullifier)
            else:  # a JournalSet only grows in place: remove by rebinding
                record.used_nullifiers = JournalSet(record.used_nullifiers - {nullifier})
        elif kind == "rebind_used":
            record.used_nullifiers = JournalSet(record.used_nullifiers)
        else:
            ledger = world.states[args[0]] if args[1] == "live" else final_ledger(chain)
            rest = args[2:]
            if kind == "put":
                ledger.s_tks[keys[rest[0]]] = instances[rest[1]]
            elif kind == "delete":
                if keys[rest[0]] in ledger.s_tks:
                    del ledger.s_tks[keys[rest[0]]]
            elif kind == "record":
                key = list(records)[rest[0]]
                ledger.s_sent[key] = records[key][rest[1] % len(records[key])]
            elif kind == "unrecord":
                key = list(records)[rest[0]]
                if key in ledger.s_sent:
                    del ledger.s_sent[key]
            elif kind == "restore":
                # Written while detached, then bound again: a container the
                # book read before, whose record runs from its last drain.
                earlier = detached.get(args[:2])
                if earlier:
                    box = earlier.pop()
                    box[keys[rest[0]]] = instances[rest[1]]
                    ledger.s_tks = box
            elif rest[0] == "s_tks":
                detached.setdefault(args[:2], []).append(ledger.s_tks)
                ledger.s_tks = Holdings(ledger.s_tks)
            else:
                ledger.s_sent = JournalDict(ledger.s_sent)
    return found


SWEEP = ("sweep",)
# Keys 0-2 are alpha's GLD, ART 0 and ART 1, key 3 beta's SLV; instance 4
# is the twin of ART 0 and 5 a GLD parcel.


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@example([SWEEP, ("put", "alpha", "live", 0, 5), SWEEP])  # overwritten with another instance
@example([SWEEP, ("delete", "alpha", "live", 1), ("put", "alpha", "live", 1, 1), SWEEP,
          ("delete", "beta", "live", 3), ("put", "beta", "live", 3, 5), SWEEP])  # deleted, reinserted
@example([SWEEP, ("rebind", "alpha", "live", "s_tks"), ("put", "alpha", "live", 4, 5), SWEEP,
          ("rebind", "alpha", "live", "s_sent"), ("record", "alpha", "live", 0, 0), SWEEP])
@example([SWEEP, ("status", "alpha", STATUS_CEASED), SWEEP, ("put", "alpha", "frozen", 4, 4), SWEEP,
          ("rebind", "alpha", "frozen", "s_tks"), SWEEP, ("status", "alpha", STATUS_ALIVE), SWEEP])
@example([("status", "beta", STATUS_CEASED), SWEEP, ("use", "beta", 3), SWEEP, ("unuse", "beta", 3), SWEEP,
          ("use", "beta", 3), SWEEP, ("put", "beta", "frozen", 5, 5), SWEEP])  # nullifiers used, then removed
@example([("put", "alpha", "live", 5, 5), ("put", "alpha", "frozen", 5, 5), SWEEP,
          ("status", "alpha", STATUS_CEASED), SWEEP])  # a finding that only the issuer's status ends
@example([("record", "alpha", "live", 0, 0), ("put", "beta", "live", 5, 5), SWEEP,
          ("unrecord", "alpha", "live", 0), SWEEP])  # a finding that only a sent record moves
@example([SWEEP, ("rebind", "alpha", "live", "s_tks"), ("put", "alpha", "live", 4, 4), SWEEP,
          ("restore", "alpha", "live", 5, 5), SWEEP, ("status", "alpha", STATUS_CEASED), SWEEP,
          ("rebind", "alpha", "frozen", "s_tks"), SWEEP, ("restore", "alpha", "frozen", 1, 4), SWEEP])
@example([("status", "beta", STATUS_CEASED), ("use", "beta", 3), SWEEP, ("rebind_used", "beta"),
          ("unuse", "beta", 3), SWEEP])  # the settlement chain's nullifier set rebound
@given(st.lists(_SWEEP_OPS, max_size=14))
def test_sweep_agrees_with_reference_under_arbitrary_writes(ops):
    _sweeps(ops)


def test_sweep_uniqueness_finding_appears_and_clears():
    """ART id 0 held on both chains is a finding while it lasts."""
    found = _sweeps([SWEEP, ("put", "beta", "live", 4, 4), SWEEP, ("delete", "beta", "live", 4)])
    assert found[0] == found[2] == []
    assert "nft-uniqueness: 'ART' id 0 live on both alpha and beta" in found[1]


class _FaultAfterStep(OracleRunner):
    """Oracle runner that calls ``fault(world)`` right after the handler of
    step ``index`` returns, before the accountant looks."""

    def __init__(self, scenario, index, fault):
        super().__init__(scenario)
        op = scenario.steps[index].op
        handler = getattr(self, f"_op_{op}")

        def faulty(i, step):
            entry = handler(i, step)
            if i == index:
                fault(self.world)
            return entry

        setattr(self, f"_op_{op}", faulty)


def _held(world, label):
    state = world.states[label]
    digest = min(state.s_tks)
    return state, digest, state.s_tks[digest]


def _inflate_in_place(world):
    state, digest, instance = _held(world, "alpha")
    state.s_tks[digest] = replace(instance, amount=instance.amount + 1)


def _write_frozen(world):
    frozen = final_ledger(world.chains["alpha"])
    _, _, instance = _held(world, "beta")
    extra = replace(instance, data_hash=hash_bytes(b"forged"))
    frozen.s_tks[canonical_digest(extra)] = extra


def _forget_nullifiers(world):
    world.mainchain.record(world.chains["alpha"].sc_id).used_nullifiers = JournalSet()


def _rebind_tks(world):
    state, _, instance = _held(world, "beta")
    extra = replace(instance, data_hash=hash_bytes(b"forged"))
    fresh = Holdings(state.s_tks)
    fresh[canonical_digest(extra)] = extra
    state.s_tks = fresh


def _duplicate_nfts(world):
    """A second live copy of ids 0-2 on alpha, and of id 3 on beta itself."""
    for label, ids in (("alpha", (0, 1, 2)), ("beta", (3,))):
        state = world.states[label]
        for instance in list(world.states["beta"].s_tks.values()):
            if instance.token_id in ids:
                twin = replace(instance, data_hash=hash_bytes(b"twin"))
                state.s_tks[canonical_digest(twin)] = twin


def _mint_twice(original):
    def apply_redeem(self, instance, message):
        original(self, instance, message)
        extra = replace(instance, owner=message.receiver_id, data_hash=hash_bytes(b"twin"))
        self.s_tks[canonical_digest(extra)] = extra

    return apply_redeem


def _forget_record(original):
    def apply_send(self, instance, message):
        original(self, instance, message)
        key = ("f", message.receiving_sc_id, instance.token_name)
        if instance.issuer_sc_id == self.sc_id and key in self.s_sent:
            del self.s_sent[key]

    return apply_send


# REJECTIONS steps: 2 a block after the send alpha -> beta, 5 redeem on beta,
# 7 beta's epoch close, 11 the block after alpha ceased and one of its
# instances was withdrawn, 12 that instance redeemed on beta. Faults land on
# steps that do not write the faulted container themselves, so only the
# fault can move the books.
OVER_ISSUER = "issuer-equality: 'GLD' issuer alpha holds {} and records {}, issued 50"
OVER_RECORDS = "sent-record-coverage: chain beta holds 20 of 'GLD', issuer records allow 10"
STEP_FAULTS = {
    "value-rebound-in-place": (2, _inflate_in_place, OVER_ISSUER.format(41, 10)),
    "frozen-snapshot-written": (11, _write_frozen, "conservation: 55 units of 'GLD' exist, issued 50"),
    "s_tks-rebound": (7, _rebind_tks, OVER_RECORDS),
    "nullifier-forgotten": (12, _forget_nullifiers, "conservation: 55 units of 'GLD' exist, issued 50"),
}


def _ignore_registry(original):
    def validate_redeem(self, instance, message, sender_sig):
        rule = original(self, instance, message, sender_sig)
        return None if rule == "redeem-8" else rule

    return validate_redeem


# Step 4 redeems on beta a fungible 'ART' that byzantine mal fabricated,
# while 'ART' is registered as alpha's NFT.
NFT_NAME_FABRICATED = dict(
    steps=[
        {"op": "fabricate_send", "id": "f", "from": "mal", "to": "beta", "name": "ART", "fungible": True,
         "amount": 5, "issuer": "mal", "owner": "eve", "receiver": "bob"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch"},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "redeem", "send": "f"},
    ],
    chains=[
        _nft_chain("alpha", "ART", "alice", 1),
        {"label": "beta", "epoch_length": 2},
        {"label": "mal", "epoch_length": 2, "byzantine": True},
    ],
)
PROTOCOL_FAULTS = {
    "extra-mint-on-redeem": (REJECTIONS, 5, "apply_redeem", _mint_twice, OVER_RECORDS),
    "sent-record-dropped-on-send": (REJECTIONS, 0, "apply_send", _forget_record, OVER_ISSUER.format(40, 0)),
    "name-registry-ignored-on-redeem": (scenario_obj(**NFT_NAME_FABRICATED), 4, "validate_redeem", _ignore_registry,
                                        "conservation: 6 units of 'ART' exist, issued 1"),
}


def _assert_flagged_by_both(runner, index, finding) -> dict:
    """The incremental accountant reports ``finding`` at step ``index``, and
    its reference agrees with it at every step."""
    report = _agreed(runner)
    assert f"step {index}: {finding}" in report["violations"]
    return report


@pytest.mark.parametrize("fault", list(STEP_FAULTS))
def test_injected_ledger_fault_flagged_by_both_checks(fault):
    index, inject, finding = STEP_FAULTS[fault]
    _assert_flagged_by_both(_FaultAfterStep(parse_scenario(REJECTIONS), index, inject), index, finding)


def _rewrite_frozen(world):
    """Put an equal copy of every committed entry of ceased alpha back in
    place, the withdrawn one included: nothing changes but identities."""
    frozen = final_ledger(world.chains["alpha"])
    for digest, instance in list(frozen.s_tks.items()):
        frozen.s_tks[digest] = replace(instance)


def test_rewritten_committed_ledger_keeps_withdrawals_spent():
    clean = _agreed(OracleRunner(parse_scenario(REJECTIONS)))
    report = _agreed(_FaultAfterStep(parse_scenario(REJECTIONS), 12, _rewrite_frozen))
    assert report["violations"] == clean["violations"]


def _bypass_frozen_index(world):
    """Drop an entity of ceased alpha's committed ledger behind its index's back."""
    frozen = final_ledger(world.chains["alpha"])
    dict.__delitem__(frozen.s_tks, min(frozen.s_tks))


def test_index_bypass_on_a_kept_archived_ledger_is_caught():
    """The oracle pass's index rebuild also reads each archived ledger
    still kept, once something has built it from its capture."""
    scenario = parse_scenario(ceased_recovery_shape(2))
    last = len(scenario.steps) - 1
    runner = _FaultAfterStep(scenario, last, _bypass_frozen_index)
    runner.run()
    final = runner.world.mainchain.record(runner.world.chains["alpha"].sc_id).last_epoch
    assert runner.findings.disagreements["holdings index"] == [f"ceased_recovery_shape step {last}: alpha epoch {final}"]


def test_duplicate_nfts_flagged_by_both_checks_in_the_same_order():
    scenario = parse_scenario(scale_nft_shape(4))
    last = len(scenario.steps) - 1
    report = _assert_flagged_by_both(
        _FaultAfterStep(scenario, last, _duplicate_nfts), last, "nft-uniqueness: 'ART' id 0 live on both alpha and beta"
    )
    assert f"step {last}: nft-uniqueness: 'ART' id 3 live on both beta and beta" in report["violations"]


def test_fungible_instance_under_nft_name_is_rejected():
    # A byzantine chain commits a fungible instance it claims to issue
    # under the name of alpha's NFT; its arrival on beta is refused.
    report = run_inline(**NFT_NAME_FABRICATED)
    assert report["steps"][4]["outcome"] == {"accepted": False, "reason": "HandlerRejected", "rule": "redeem-8"}
    assert report["violations"] == []
    assert report["ok"] is True


@pytest.mark.parametrize("fault", list(PROTOCOL_FAULTS))
def test_injected_protocol_fault_flagged_by_both_checks(monkeypatch, fault):
    scenario, index, method, wrap, finding = PROTOCOL_FAULTS[fault]
    monkeypatch.setattr(MittoState, method, wrap(getattr(MittoState, method)))
    _assert_flagged_by_both(OracleRunner(parse_scenario(scenario)), index, finding)


def test_runner_calls_accountant_check_once_per_completed_step():
    """The benchmark's step clock wraps ``accountant.check`` on the instance
    and ends each step's timer there, so the call must stay one per step,
    with the snapshot as its only argument, looked up at call time."""
    assert "check" in Accountant.__dict__
    runner = Runner(parse_scenario(REJECTIONS))
    world = runner.world
    calls = []
    snapshots = []
    take_snapshot = world.snapshot_for_accountant

    def snapshot():
        snapshots.append(take_snapshot())
        return snapshots[-1]

    def check(*args, **kwargs):
        calls.append((args, kwargs, len(runner.steps)))
        return []

    world.snapshot_for_accountant = snapshot
    world.accountant.check = check
    report = runner.run()
    assert len(report["steps"]) == len(REJECTIONS["steps"])
    # One call after each step completes, before the next begins.
    assert [done for _, _, done in calls] == list(range(len(report["steps"])))
    assert all(len(args) == 1 and not kwargs for args, kwargs, _ in calls)
    assert len(snapshots) == len(calls)
    assert all(args[0] is taken for (args, _, _), taken in zip(calls, snapshots))


def test_runner_skips_accountant_check_after_failed_assert():
    runner = Runner(parse_scenario(scenario_obj([
        {"op": "advance_mainchain", "blocks": 1},
        {"op": "assert", "chain": "alpha", "holdings": [{"name": "GLD", "owner": "alice", "amount": 1}]},
    ])))
    calls = []
    runner.world.accountant.check = lambda snapshot: calls.append(snapshot) or []
    report = runner.run()
    assert report["failure"]["step"] == 1
    assert len(calls) == 1


def test_send_is_committed_by_the_next_accepted_close():
    """A send enters the outbox while ``len(epochs)`` epochs are closed; a
    rejected close commits nothing, so the send stays unredeemable until
    the next accepted close."""
    report = run_inline([
        {"op": "send", "id": "s1", "from": "alpha", "to": "beta", "name": "GLD", "amount": 10,
         "owner": "alice", "receiver": "bob", "expect": {"accepted": True}},
        {"op": "close_epoch", "chains": ["alpha"], "expect": {"accepted": False}},
        {"op": "redeem", "send": "s1", "expect": {"accepted": False, "reason": "EvidenceUnavailable"}},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "close_epoch", "chains": ["alpha"], "expect": {"accepted": True}},
        {"op": "advance_mainchain", "blocks": 2},
        {"op": "redeem", "send": "s1", "expect": {"accepted": True}},
    ])
    assert report["steps"][1]["parts"] == [{"chain": "alpha", "accepted": False, "reason": "WindowClosed"}]
    assert "never committed" in report["steps"][2]["summary"]
    assert report["violations"] == [] and report["ok"] is True

