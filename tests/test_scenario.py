"""Scenario schema validation: every complaint must name the step and field."""
import json
from pathlib import Path

import pytest

from mitto.scenario import ParseError, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
])
def test_integers_bounded_to_u64(obj, message):
    with pytest.raises(ParseError, match=message):
        parse_scenario(obj)


def test_u64_extremes_accepted():
    parse_scenario(_issuing(fungible=True, amount=U64))
    parse_scenario(_issuing(fungible=False, token_id=0))
    parse_scenario(_issuing(fungible=False, token_id=U64))
    parse_scenario(_stepping(op="send", amount=U64))
