"""Scenario schema validation: every complaint must name the step and field."""
import json
import re
from pathlib import Path

import pytest

from worlds import SCENARIO_DIR

from mitto.scenario import MAX_ADVANCE_BLOCKS, STEP_OPS, TAMPERS, ParseError, load_scenario, parse_scenario


def minimal(**overrides) -> dict:
    obj = {
        "name": "minimal",
        "seed": 1,
        "chains": [
            {"label": "alpha", "epoch_length": 2},
            {"label": "beta", "epoch_length": 2},
        ],
        "steps": [],
    }
    obj.update(overrides)
    return obj


def test_bundled_scenarios_parse():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 10
    for path in paths:
        scenario = load_scenario(path)
        assert scenario.name == path.stem


def test_minimal_parses():
    scenario = parse_scenario(minimal())
    assert scenario.name == "minimal"
    assert [c.label for c in scenario.chains] == ["alpha", "beta"]
    assert scenario.expect_violations is False


def test_unknown_op_named():
    obj = minimal(steps=[{"op": "teleport"}])
    with pytest.raises(ParseError, match=r"steps\[0\].*teleport"):
        parse_scenario(obj)


def test_missing_field_named():
    obj = minimal(steps=[{"op": "send", "from": "alpha", "to": "beta", "name": "X", "owner": "a"}])
    with pytest.raises(ParseError, match=r"steps\[0\].*'receiver'"):
        parse_scenario(obj)


def test_undeclared_chain_named():
    obj = minimal(steps=[
        {"op": "send", "from": "alpha", "to": "gamma", "name": "X", "owner": "a", "receiver": "b"}
    ])
    with pytest.raises(ParseError, match=r"steps\[0\].*undeclared chain 'gamma'"):
        parse_scenario(obj)


def test_wrong_type_named():
    with pytest.raises(ParseError, match=r"'seed' must be int"):
        parse_scenario(minimal(seed="7"))


def test_bool_is_not_an_integer():
    with pytest.raises(ParseError, match=r"'seed' must be an integer, got a boolean"):
        parse_scenario(minimal(seed=True))


def test_seed_range():
    with pytest.raises(ParseError, match="64 bits"):
        parse_scenario(minimal(seed=2**64))


@pytest.mark.parametrize("place,where", [
    ("name", r"<memory>: field 'name'"),
    ("label", r"chains\[1\]: field 'label'"),
    ("token", r"chains\[0\]\.issuances\[0\]: field 'name'"),
], ids=["name", "label", "token"])
def test_text_utf8_cannot_encode_is_refused(place, where):
    """A lone surrogate parses as JSON, but no report or file name can hold it."""
    text = (SCENARIO_DIR / "nft_roundtrip.json").read_text()
    obj = json.loads(text.replace('"ART"', r'"A\ud800T"') if place == "token" else text)
    if place == "name":
        obj["name"] = "A\ud800T"
    elif place == "label":
        obj["chains"][1]["label"] = "A\ud800T"
    with pytest.raises(ParseError, match=where + " must be encodable as UTF-8"):
        parse_scenario(obj)


def test_duplicate_chain_labels():
    obj = minimal()
    obj["chains"].append({"label": "alpha", "epoch_length": 2})
    with pytest.raises(ParseError, match="duplicate chain labels"):
        parse_scenario(obj)


def test_unknown_chain_field():
    obj = minimal()
    obj["chains"][0]["issue"] = []
    with pytest.raises(ParseError, match=r"chains\[0\].*issue"):
        parse_scenario(obj)


def test_epoch_length_minimum():
    obj = minimal()
    obj["chains"][0]["epoch_length"] = 1
    with pytest.raises(ParseError, match="at least 2"):
        parse_scenario(obj)


def test_unknown_faulty_mode():
    obj = minimal()
    obj["chains"][0]["faulty_mode"] = "lazy"
    with pytest.raises(ParseError, match="unknown faulty_mode 'lazy'"):
        parse_scenario(obj)


def test_issuance_field_rules():
    obj = minimal()
    obj["chains"][0]["issuances"] = [
        {"name": "GLD", "fungible": True, "owner": "alice", "amount": 5, "token_id": 1}
    ]
    with pytest.raises(ParseError, match="cannot carry 'token_id'"):
        parse_scenario(obj)
    obj["chains"][0]["issuances"] = [{"name": "ART", "fungible": False, "owner": "alice"}]
    with pytest.raises(ParseError, match="missing field 'token_id'"):
        parse_scenario(obj)


def test_self_send_requires_expectation():
    step = {"op": "send", "from": "alpha", "to": "alpha", "name": "X", "owner": "a", "receiver": "b"}
    with pytest.raises(ParseError, match="self-send must declare"):
        parse_scenario(minimal(steps=[step]))
    step_with = dict(step, expect={"accepted": False, "reason": "SelfSend"})
    parse_scenario(minimal(steps=[step_with]))


def test_duplicate_send_id():
    step = {"op": "send", "id": "s1", "from": "alpha", "to": "beta",
            "name": "X", "owner": "a", "receiver": "b"}
    with pytest.raises(ParseError, match="duplicate send id 's1'"):
        parse_scenario(minimal(steps=[step, dict(step)]))


def test_redeem_references_known_send():
    with pytest.raises(ParseError, match="unknown send id 'ghost'"):
        parse_scenario(minimal(steps=[{"op": "redeem", "send": "ghost"}]))


def test_csw_mode_and_references():
    base = {"op": "csw", "id": "w1", "chain": "alpha", "owner": "a", "receiver": "a"}
    with pytest.raises(ParseError, match="unknown mode 'grab'"):
        parse_scenario(minimal(steps=[dict(base, mode="grab")]))
    with pytest.raises(ParseError, match="missing field 'target'"):
        parse_scenario(minimal(steps=[dict(base, mode="held", name="X")]))
    with pytest.raises(ParseError, match="unknown send id 'r9'"):
        parse_scenario(minimal(steps=[
            dict(base, mode="sent_record", holder="beta", return_send="r9", target="beta")
        ]))
    with pytest.raises(ParseError, match="unknown csw id 'w9'"):
        parse_scenario(minimal(steps=[{"op": "csw_redeem", "withdrawal": "w9"}]))


def test_expect_keys_restricted():
    step = {"op": "close_epoch", "expect": {"accepted": True, "verdict": "x"}}
    with pytest.raises(ParseError, match="unknown expect field 'verdict'"):
        parse_scenario(minimal(steps=[step]))


@pytest.mark.parametrize("expect,message", [
    ({"accepted": "true"}, "field 'accepted' must be bool, got str"),
    ({"accepted": 1}, "field 'accepted' must be bool, got int"),
    ({"accepted": None}, "field 'accepted' must be bool, got NoneType"),
    ({"accepted": False, "reason": 5}, "field 'reason' must be str, got int"),
    ({"accepted": False, "rule": ["send-1"]}, "field 'rule' must be str, got list"),
    ({"rule": None}, "field 'rule' must be str, got NoneType"),
])
def test_expect_values_are_typed(expect, message):
    step = {"op": "close_epoch", "expect": expect}
    with pytest.raises(ParseError, match=rf"steps\[0\]\.expect: {message}"):
        parse_scenario(minimal(steps=[step]))


def test_typed_expect_parses():
    step = {"op": "close_epoch", "expect": {"accepted": False, "reason": "HandlerRejected", "rule": "send-1"}}
    assert parse_scenario(minimal(steps=[step])).steps[0].expect["accepted"] is False


def test_unknown_top_level_field():
    with pytest.raises(ParseError, match="unknown top-level field 'notes'"):
        parse_scenario(minimal(notes="hi"))


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "seed": }')
    with pytest.raises(ParseError, match=r"broken\.json:2"):
        load_scenario(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


def test_advance_mainchain_positive():
    with pytest.raises(ParseError, match="'blocks' must be positive"):
        parse_scenario(minimal(steps=[{"op": "advance_mainchain", "blocks": 0}]))


def test_advance_mainchain_bounded():
    parse_scenario(minimal(steps=[{"op": "advance_mainchain", "blocks": MAX_ADVANCE_BLOCKS}]))
    for blocks in (MAX_ADVANCE_BLOCKS + 1, 2**64):
        with pytest.raises(ParseError, match=rf"steps\[0\].*'blocks' must be at most {MAX_ADVANCE_BLOCKS}"):
            parse_scenario(minimal(steps=[{"op": "advance_mainchain", "blocks": blocks}]))


def test_epoch_length_bounded_to_u32():
    obj = minimal()
    obj["chains"][0]["epoch_length"] = 2**32 - 1
    parse_scenario(obj)
    obj["chains"][0]["epoch_length"] = 2**32
    with pytest.raises(ParseError, match=r"chains\[0\].*'epoch_length' must be at most 2\^32-1"):
        parse_scenario(obj)


def test_close_epoch_chain_list():
    with pytest.raises(ParseError, match="non-empty list"):
        parse_scenario(minimal(steps=[{"op": "close_epoch", "chains": []}]))
    with pytest.raises(ParseError, match="undeclared chain 'gamma'"):
        parse_scenario(minimal(steps=[{"op": "close_epoch", "chains": ["gamma"]}]))
    parse_scenario(minimal(steps=[{"op": "close_epoch", "chains": ["alpha"]}]))


U64 = 2**64 - 1


def _issuing(**issuance) -> dict:
    obj = minimal()
    obj["chains"][0]["issuances"] = [{"name": "GLD", "owner": "alice", **issuance}]
    return obj


def _stepping(**step) -> dict:
    return minimal(steps=[{"from": "alpha", "to": "beta", "name": "GLD", "owner": "a", "receiver": "b", **step}])


@pytest.mark.parametrize("obj,message", [
    pytest.param(_issuing(fungible=True, amount=U64 + 1), r"issuances\[0\].*'amount' must be at most 2\^64-1", id="issue-amount-high"),
    pytest.param(_issuing(fungible=True, amount=0), r"'amount' must be positive", id="issue-amount-zero"),
    pytest.param(_issuing(fungible=False, token_id=U64 + 1), r"'token_id' must be at most 2\^64-1", id="issue-id-high"),
    pytest.param(_issuing(fungible=False, token_id=-1), r"'token_id' must be nonnegative", id="issue-id-negative"),
    pytest.param(_stepping(op="send", amount=U64 + 1), r"steps\[0\].*'amount' must be at most 2\^64-1", id="send-amount-high"),
    pytest.param(_stepping(op="send", amount=-3), r"steps\[0\].*'amount' must be positive", id="send-amount-negative"),
    pytest.param(_stepping(op="send", token_id=-1), r"steps\[0\].*'token_id' must be nonnegative", id="send-id-negative"),
    pytest.param(_stepping(op="send", amount="7"), r"steps\[0\].*'amount' must be int", id="send-amount-str"),
    pytest.param(_stepping(op="fabricate_send", fungible=True, issuer="alpha", amount=U64 + 1),
                 r"steps\[0\].*'amount' must be at most 2\^64-1", id="fabricate-amount-high"),
    pytest.param(_stepping(op="fabricate_send", fungible=False, issuer="alpha", token_id=U64 + 1),
                 r"steps\[0\].*'token_id' must be at most 2\^64-1", id="fabricate-id-high"),
    pytest.param(minimal(steps=[{"op": "notify", "chain": "alpha", "from": "beta", "to": "alpha", "name": "X",
                                 "token_id": U64 + 1}]),
                 r"steps\[0\]: field 'token_id' must be at most 2\^64-1", id="notify-id-high"),
])
def test_integers_bounded_to_u64(obj, message):
    with pytest.raises(ParseError, match=message):
        parse_scenario(obj)


def test_u64_extremes_accepted():
    parse_scenario(_issuing(fungible=True, amount=U64))
    parse_scenario(_issuing(fungible=False, token_id=0))
    parse_scenario(_issuing(fungible=False, token_id=U64))
    parse_scenario(_stepping(op="send", amount=U64))


# One valid step per op, in an order where every reference resolves.
VALID_STEPS = {
    "issue": {"op": "issue", "chain": "alpha", "name": "X", "fungible": True, "owner": "a", "amount": 1},
    "send": {"op": "send", "id": "s", "from": "alpha", "to": "beta", "name": "X", "owner": "a", "receiver": "b"},
    "fabricate_send": {"op": "fabricate_send", "from": "alpha", "to": "beta", "name": "X", "fungible": True,
                       "issuer": "alpha", "owner": "a", "receiver": "b", "amount": 1},
    "close_epoch": {"op": "close_epoch"},
    "advance_mainchain": {"op": "advance_mainchain", "blocks": 1},
    "cease_by_silence": {"op": "cease_by_silence", "chain": "alpha"},
    "redeem": {"op": "redeem", "send": "s"},
    "csw": {"op": "csw", "id": "w", "mode": "held", "chain": "alpha", "name": "X", "owner": "a",
            "receiver": "a", "target": "beta"},
    "csw_redeem": {"op": "csw_redeem", "withdrawal": "w"},
    "notify": {"op": "notify", "chain": "alpha", "from": "beta", "to": "alpha", "name": "X", "amount": 1},
    "assert": {"op": "assert", "chain": "alpha"},
}


def _with_step(op: str, **fields) -> dict:
    steps = [dict(step, **fields) if name == op else step for name, step in VALID_STEPS.items()]
    return minimal(steps=steps)


def test_readme_lists_every_op_and_tamper():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    op_list = re.search(r"a list of `steps` \(([^)]*)\)", readme).group(1)
    assert tuple(re.findall(r"`(\w+)`", op_list)) == STEP_OPS
    tampers: dict[str, tuple] = {}
    for op, value in re.findall(r"^- `(\w+)` `(\w+)`:", readme, re.MULTILINE):
        tampers[op] = tampers.get(op, ()) + (value,)
    assert tampers == TAMPERS


def test_valid_steps_cover_every_op():
    assert tuple(VALID_STEPS) == STEP_OPS
    parse_scenario(minimal(steps=list(VALID_STEPS.values())))


@pytest.mark.parametrize("op", STEP_OPS)
def test_step_rejects_unknown_field(op):
    index = STEP_OPS.index(op)
    with pytest.raises(ParseError, match=rf"steps\[{index}\]: unknown field 'tampr' for op '{op}'"):
        parse_scenario(_with_step(op, tampr="wrong_chain"))


@pytest.mark.parametrize("op,value", [(op, value) for op, values in TAMPERS.items() for value in values])
def test_tamper_values_parse_on_their_op(op, value):
    step = parse_scenario(_with_step(op, tamper=value)).steps[STEP_OPS.index(op)]
    assert step.tamper == value


def test_tamper_values_are_closed_per_op():
    with pytest.raises(ParseError, match=r"steps\[1\]: unknown tamper 'wrong_epoch' for op 'send'"):
        parse_scenario(_with_step("send", tamper="wrong_epoch"))
    with pytest.raises(ParseError, match=r"steps\[3\]: field 'tamper' must be str"):
        parse_scenario(_with_step("close_epoch", tamper=1))
    with pytest.raises(ParseError, match=r"steps\[8\]: unknown field 'tamper' for op 'csw_redeem'"):
        parse_scenario(_with_step("csw_redeem", tamper="forged_nullifier"))


def test_optional_step_fields_are_typed():
    with pytest.raises(ParseError, match=r"steps\[3\].*'quality' must be at most 2\^64-1"):
        parse_scenario(_with_step("close_epoch", quality=U64 + 1))
    with pytest.raises(ParseError, match=r"steps\[7\].*'target' references undeclared chain 'gamma'"):
        parse_scenario(_with_step("csw", target="gamma"))
    with pytest.raises(ParseError, match=r"steps\[0\].*'data' must be str"):
        parse_scenario(_with_step("issue", data=5))
    with pytest.raises(ParseError, match=r"steps\[3\].*'chains' references undeclared chain \['alpha'\]"):
        parse_scenario(_with_step("close_epoch", chains=[["alpha"]]))


@pytest.mark.parametrize("fields,message", [
    ({"colour": "red"}, "unknown field 'colour'"),
    ({"dta": "x"}, "unknown field 'dta'"),
    ({"data": 5}, "field 'data' must be str, got int"),
])
def test_chain_issuance_rejects_unknown_or_mistyped_field(fields, message):
    with pytest.raises(ParseError, match=rf"chains\[0\]\.issuances\[0\]: {message}"):
        parse_scenario(_issuing(fungible=True, amount=1, **fields))


def test_chain_issuances_must_be_a_list_of_objects():
    chain = {"label": "alpha", "epoch_length": 2}
    with pytest.raises(ParseError, match=r"chains\[0\]: field 'issuances' must be list"):
        parse_scenario(minimal(chains=[dict(chain, issuances=7)]))
    with pytest.raises(ParseError, match=r"chains\[0\]\.issuances\[0\]: must be an object"):
        parse_scenario(minimal(chains=[dict(chain, issuances=["X"])]))
    assert parse_scenario(_issuing(fungible=True, amount=1, data="art")).chains[0].issuances[0].data == "art"


def _asserting(**fields) -> dict:
    return minimal(steps=[dict({"op": "assert", "chain": "alpha"}, **fields)])


@pytest.mark.parametrize("fields,message", [
    ({"holdings": [{"name": "X"}]}, r"holdings\[0\]: give exactly one of 'amount' or 'token_id'"),
    ({"holdings": [{"name": "X", "amount": 1, "token_id": 0}]}, r"holdings\[0\]: give exactly one of"),
    ({"holdings": [{"amount": 1}]}, r"holdings\[0\]: missing field 'name'"),
    ({"holdings": [{"name": 3, "amount": 1}]}, r"holdings\[0\]: field 'name' must be str"),
    ({"holdings": [{"name": "X", "amount": 1, "owner": 4}]}, r"holdings\[0\]: field 'owner' must be str"),
    ({"holdings": [{"name": "X", "amount": 2**64}]}, r"holdings\[0\]: field 'amount' must be at most 2\^64-1"),
    ({"holdings": [{"name": "X", "token_id": -1}]}, r"holdings\[0\]: field 'token_id' must be nonnegative"),
    ({"holdings": [{"name": "X", "amount": 1, "colour": "red"}]}, r"holdings\[0\]: unknown field 'colour'"),
    ({"holdings": ["X"]}, r"holdings\[0\]: must be an object"),
    ({"sent_records": [{"name": "X", "receiver": "zeta", "amount": 1}]},
     r"sent_records\[0\]: field 'receiver' references undeclared chain 'zeta'"),
    ({"sent_records": [{"name": "X", "amount": 1}]}, r"sent_records\[0\]: missing field 'receiver'"),
    ({"sent_records": [{"name": "X", "receiver": "beta"}]}, r"sent_records\[0\]: give exactly one of"),
    ({"sent_records": [{"name": "X", "receiver": "beta", "token_id": 2**64}]},
     r"sent_records\[0\]: field 'token_id' must be at most 2\^64-1"),
    ({"sent_records": [{"name": "X", "receiver": "beta", "amount": 1, "owner": "a"}]},
     r"sent_records\[0\]: unknown field 'owner'"),
])
def test_assert_entries_are_checked(fields, message):
    with pytest.raises(ParseError, match=rf"steps\[0\]\.{message}"):
        parse_scenario(_asserting(**fields))


@pytest.mark.parametrize("quantity", [{}, {"amount": 2, "token_id": 0}], ids=["neither", "both"])
def test_notify_needs_exactly_one_quantity(quantity):
    notify = {"op": "notify", "chain": "alpha", "from": "beta", "to": "alpha", "name": "X", **quantity}
    with pytest.raises(ParseError, match=r"steps\[0\]: give exactly one of 'amount' or 'token_id'"):
        parse_scenario(minimal(steps=[notify]))


@pytest.mark.parametrize("obj,message", [
    pytest.param(_stepping(op="send", amount=1, token_id=0),
                 r"steps\[0\]: give either 'amount' or 'token_id', not both", id="send-both"),
    pytest.param(_stepping(op="fabricate_send", fungible=True, issuer="alpha", token_id=0),
                 r"steps\[0\]: missing field 'amount'", id="fabricate-fungible-no-amount"),
    pytest.param(_stepping(op="fabricate_send", fungible=False, issuer="alpha", amount=1),
                 r"steps\[0\]: missing field 'token_id'", id="fabricate-nft-no-id"),
    pytest.param(_issuing(fungible=False, token_id=1, amount=1),
                 r"chains\[0\]\.issuances\[0\]: non-fungible issuance cannot carry 'amount'", id="issuance-nft-amount"),
    pytest.param(minimal(steps=[{"op": "issue", "chain": "alpha", "name": "ART", "fungible": False, "owner": "a",
                                 "token_id": 1, "amount": 1}]),
                 r"steps\[0\]: non-fungible issuance cannot carry 'amount'", id="issue-nft-amount"),
    pytest.param(minimal(steps=[VALID_STEPS["csw"], VALID_STEPS["csw"]]),
                 r"steps\[1\]: duplicate csw id 'w'", id="duplicate-csw-id"),
    pytest.param(minimal(steps=[dict(VALID_STEPS["csw"], return_send="ghost")]),
                 r"steps\[0\]: field 'return_send' references unknown send id 'ghost'", id="held-csw-return-send"),
    pytest.param(minimal(steps=[{"op": "close_epoch", "expect": [True]}]),
                 r"steps\[0\]: field 'expect' must be a non-empty object", id="expect-list"),
])
def test_step_rules_named(obj, message):
    with pytest.raises(ParseError, match=message):
        parse_scenario(obj)


def test_assert_entries_parse():
    parse_scenario(_asserting(
        holdings=[{"name": "X", "amount": 3, "owner": "a"}, {"name": "N", "token_id": 0}],
        sent_records=[{"name": "X", "receiver": "beta", "amount": 2}, {"name": "N", "receiver": "beta", "token_id": 0}],
    ))


@pytest.mark.parametrize("field,value,message", [
    ("label", 7, "field 'label' must be str, got int"),
    ("epoch_length", "2", "field 'epoch_length' must be int, got str"),
    ("epoch_length", True, "field 'epoch_length' must be an integer, got a boolean"),
    ("byzantine", "no", "field 'byzantine' must be bool, got str"),
    ("byzantine", 0, "field 'byzantine' must be bool, got int"),
    ("faulty_mode", None, "field 'faulty_mode' must be str, got NoneType"),
    ("issuances", {}, "field 'issuances' must be list, got dict"),
    ("colour", "red", "unknown field 'colour'"),
])
def test_chain_fields_are_typed(field, value, message):
    obj = minimal()
    obj["chains"][0][field] = value
    with pytest.raises(ParseError, match=rf"chains\[0\]: {message}"):
        parse_scenario(obj)


def test_chain_label_must_not_be_empty():
    # A chain labelled "" would run under the label "sc<id>" and could
    # clash with a chain declared under that name.
    obj = minimal()
    obj["chains"][1]["label"] = ""
    with pytest.raises(ParseError, match=r"chains\[1\]: field 'label' must not be empty"):
        parse_scenario(obj)


def test_chain_spec_needs_label_and_epoch_length():
    for field in ("label", "epoch_length"):
        obj = minimal()
        del obj["chains"][1][field]
        with pytest.raises(ParseError, match=rf"chains\[1\]: missing field '{field}'"):
            parse_scenario(obj)


@pytest.mark.parametrize("value", ["no", 1, None])
def test_expect_violations_must_be_bool(value):
    with pytest.raises(ParseError, match="field 'expect_violations' must be bool"):
        parse_scenario(minimal(expect_violations=value))


def test_typed_booleans_parse_as_given():
    obj = minimal(expect_violations=True)
    obj["chains"][0]["byzantine"] = False
    obj["chains"][1].update(byzantine=True, faulty_mode="no_sent_records")
    scenario = parse_scenario(obj)
    assert scenario.expect_violations is True
    assert [(c.byzantine, c.variant) for c in scenario.chains] == [(False, "standard"), (True, "no_sent_records")]
