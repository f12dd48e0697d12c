"""Scenario runner behavior: determinism, atomicity, dumps, fault reporting."""
import copy
import json
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import OracleRunner
from worlds import SCENARIO_DIR

from mitto import accountant as accountant_module, hashing, mainchain as mainchain_module, sidechain as sidechain_module
from mitto.accountant import Accountant
from mitto.encoding import U32_MAX, U64_MAX, DecodeError, canonical_digest
from mitto.harness import HarnessError, Runner, dump_state, render_json, render_report
from mitto.hashing import hash_bytes
from mitto.journal import JournalDict, JournalList, JournalSet
from mitto.mainchain import STATUS_CEASED, Mainchain
from mitto.messages import CscpMessage, MSG_TYPE_TOKEN_TRANSFER, SendTx, message_digest
from mitto.proofs import CswBundle
from mitto.scenario import MAX_ADVANCE_BLOCKS, STEP_OPS, ParseError, load_scenario, parse_scenario
from mitto.sidechain import Sidechain
from mitto.tokens import Holdings, MittoState, TokenInstance, final_ledger


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
def test_render_report_is_json_dumps(value):
    assert render_report(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {"a": {b"k": 1}}])
def test_render_report_rejects_non_str_keys(value):
    with pytest.raises(TypeError):
        render_report(value)


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


def _add_redeemed(chain, _tx):
    chain.redeemed.add(hash_bytes(b"leak%d" % len(chain.redeemed)))


def _append_epoch(chain, _tx):
    chain.epochs.append(chain.epochs[-1])


def _add_nullifier(mainchain, submission):
    used = mainchain.record(submission.ledger_id).used_nullifiers
    used.add(hash_bytes(b"leak%d" % len(used)))


def _queue_csw(mainchain, csw):
    mainchain._pending_csws.append((csw.ledger_id, csw))


def _hold_certificate(mainchain, cert):
    mainchain.record(cert.ledger_id).pending_cert = cert


# (op, step index, class, method, injected write, whether the dump sees it)
LEAKS = [
    ("send", 1, Sidechain, "accept_send", _bump_issued, True),
    ("send", 1, Sidechain, "accept_send", _rebind_sent, False),
    ("redeem", 6, Sidechain, "accept_redeem", _add_redeemed, True),
    ("csw", 10, Mainchain, "submit_csw", _add_nullifier, False),
    ("csw", 10, Mainchain, "submit_csw", _queue_csw, False),
    ("csw_redeem", 13, Sidechain, "accept_csw_redeem", _append_epoch, True),
    ("close_epoch", 14, Mainchain, "submit_certificate", _add_nullifier, False),
    ("close_epoch", 14, Mainchain, "submit_certificate", _hold_certificate, False),
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
    # The dump comparison never saw rebinding to equal contents, nor any
    # settlement-chain state; whatever it saw, the journal saw too.
    assert (f"rejections step {index}" in runner.findings.dump_writes) is dump_sees
    assert runner.findings.disagreements == {}


# Methods of dict, set and list that only read.
READ_ONLY = {
    "copy", "count", "fromkeys", "get", "index", "items", "keys", "values",
    "difference", "intersection", "isdisjoint", "issubset", "issuperset",
    "symmetric_difference", "union",
}

MUTATIONS = {
    JournalDict: {
        "__delitem__": lambda d: d.__delitem__("a"),
        "__ior__": lambda d: d.__ior__({"b": 1}),
        "__setitem__": lambda d: d.__setitem__("b", 1),
        "clear": lambda d: d.clear(),
        "pop": lambda d: d.pop("a"),
        "popitem": lambda d: d.popitem(),
        "setdefault": lambda d: d.setdefault("b", 1),
        "update": lambda d: d.update(b=1),
    },
    JournalSet: {
        "__iand__": lambda s: s.__iand__({"b"}),
        "__ior__": lambda s: s.__ior__({"b"}),
        "__isub__": lambda s: s.__isub__({"a"}),
        "__ixor__": lambda s: s.__ixor__({"b"}),
        "add": lambda s: s.add("b"),
        "clear": lambda s: s.clear(),
        "difference_update": lambda s: s.difference_update({"a"}),
        "discard": lambda s: s.discard("a"),
        "intersection_update": lambda s: s.intersection_update({"b"}),
        "pop": lambda s: s.pop(),
        "remove": lambda s: s.remove("a"),
        "symmetric_difference_update": lambda s: s.symmetric_difference_update({"b"}),
        "update": lambda s: s.update({"b"}),
    },
    JournalList: {
        "__delitem__": lambda l: l.__delitem__(0),
        "__iadd__": lambda l: l.__iadd__(["c"]),
        "__imul__": lambda l: l.__imul__(2),
        "__setitem__": lambda l: l.__setitem__(0, "c"),
        "append": lambda l: l.append("c"),
        "clear": lambda l: l.clear(),
        "extend": lambda l: l.extend(["c"]),
        "insert": lambda l: l.insert(0, "c"),
        "pop": lambda l: l.pop(),
        "remove": lambda l: l.remove("a"),
        "reverse": lambda l: l.reverse(),
        "sort": lambda l: l.sort(),
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


@pytest.mark.parametrize("cls", list(MUTATIONS), ids=lambda cls: cls.__name__)
def test_every_mutator_bumps_writes(cls):
    """Every mutator bumps ``writes``, and a dict's or set's records every
    key it changed."""
    base = cls.__bases__[-1]
    assert _mutators(base) == set(MUTATIONS[cls]), "a mutator of the base type is not journaled"
    for name, mutate in MUTATIONS[cls].items():
        assert name in cls.__dict__, f"{cls.__name__}.{name} is inherited, so it writes unseen"
        box = cls(SEEDS[cls])
        assert box.writes == 0
        if cls is not JournalList:
            box.drain(None)  # a reader mirrors it, so its writes are recorded from now on
        before = base(box)
        mutate(box)
        assert box.writes == 1, name
        if cls is not JournalList:
            changed = _changed_keys(before, base(box))
            assert changed and changed <= box.drain(0), name


def test_drain_hands_each_written_key_to_one_reader():
    box = JournalDict({"a": 0})
    box["z"] = 9  # written before any reader drained: nothing is recorded
    assert box.drain(0) is None
    box["b"] = 1
    assert box.drain(1) == {"b"}
    assert box.drain(2) == set()
    box["c"] = 2
    other_reader = box.drain(2)
    assert other_reader == {"c"}
    box["d"] = 3
    # The reader that last drained at 2 missed "c", so it is told nothing is known.
    assert box.drain(2) is None
    assert box.drain(4) == set()


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
        frozen.append(snapshot["alpha"]["frozen"])
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


@pytest.mark.parametrize("n,hashes", [(100, [233, 235]), (400, [833, 835])])
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


@pytest.mark.parametrize("n", [20, 200])
def test_accountant_resyncs_only_written_keys(monkeypatch, n):
    """After the first step builds the books, each step resyncs the few
    ledger keys it wrote, however many the chains hold."""
    resynced = []
    mirror = accountant_module._mirror

    def counting(mine, source, keys_, drop, add):
        resynced.extend(keys_)
        mirror(mine, source, keys_, drop, add)

    monkeypatch.setattr(accountant_module, "_mirror", counting)
    per_step = _per_step(Runner(parse_scenario(scale_nft_shape(n))), resynced)
    assert per_step[0] == n  # the first look mirrors alpha's n issued instances
    by_op = {}
    for op, count in zip(_ops(n)[1:], per_step[1:]):
        by_op.setdefault(op, set()).add(count)
    # A send burns one instance and writes one sent record; a redeem mints one.
    assert by_op == {"send": {2}, "advance_mainchain": {0}, "close_epoch": {0}, "redeem": {1}}


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
    world.mainchain.record(world.chains["alpha"].sc_id).used_nullifiers.clear()


def _rebind_tks(world):
    state, _, instance = _held(world, "beta")
    extra = replace(instance, data_hash=hash_bytes(b"forged"))
    fresh = Holdings(state.s_tks)
    fresh[canonical_digest(extra)] = extra
    fresh.writes = state.s_tks.writes  # only the rebinding itself can give it away
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
        if instance.issuer_sc_id == self.sc_id:
            self.s_sent.pop(("f", message.receiving_sc_id, instance.token_name), None)

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

