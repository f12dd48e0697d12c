"""Generated adversarial traces: determinism and guaranteed probes."""
import gc
import tracemalloc

from mitto import fuzz
from mitto.cli import main
from mitto.fuzz import generate_trace, run_fuzz, run_trace
from mitto.harness import Runner
from mitto.scenario import parse_scenario


def test_trace_generation_is_deterministic():
    a, probes_a = generate_trace(99, 4)
    b, probes_b = generate_trace(99, 4)
    assert a == b
    assert probes_a == probes_b


def test_traces_vary_with_index():
    a, _ = generate_trace(99, 0)
    b, _ = generate_trace(99, 1)
    assert a != b


def test_generated_traces_parse():
    for index in range(10):
        obj, probes = generate_trace(7, index)
        scenario = parse_scenario(obj, source=obj["name"])
        assert next(spec for spec in scenario.chains if spec.label == "mal").byzantine
        assert 0 <= probes["routing"] < len(scenario.steps)
        assert 0 <= probes["over_return"] < len(scenario.steps)


def test_probe_steps_are_what_they_claim():
    obj, probes = generate_trace(13, 2)
    routing = obj["steps"][probes["routing"]]
    assert routing["op"] == "send"
    assert routing["from"] == "beta" and routing["to"] == "mal"
    over = obj["steps"][probes["over_return"]]
    assert over["op"] == "redeem"


def test_single_trace_clean_with_probes_rejected():
    result = run_trace(42, 0)
    assert result["violations"] == []
    assert result["routing_rejected"] and result["over_return_rejected"]


def test_trace_reports_are_deterministic():
    obj, _ = generate_trace(21, 5)
    first = Runner(parse_scenario(obj, source=obj["name"])).run()
    second = Runner(parse_scenario(obj, source=obj["name"])).run()
    assert first == second


def test_small_batch_fully_clean():
    result = run_fuzz(seed=5, count=25)
    assert result["ok"] is True
    assert result["violations"] == []
    assert result["routing"] == {"attempts": 25, "rejected": 25}
    assert result["over_return"] == {"attempts": 25, "rejected": 25}
    assert result["steps"] > 25 * 10


def test_a_trace_that_stops_early_is_reported_with_its_probes_not_rejected(monkeypatch, capsys):
    def stopping(seed, index):
        obj, probes = generate_trace(seed, index)
        # Bob holds no GOLD on alpha, so the first step cannot run.
        obj["steps"].insert(0, {"op": "send", "from": "alpha", "to": "beta", "name": "GOLD", "amount": 1,
                                "owner": "bob", "receiver": "alice"})
        return obj, probes

    monkeypatch.setattr(fuzz, "generate_trace", stopping)
    result = run_fuzz(seed=5, count=2)
    assert result["violations"] == ["trace 0: stopped at step 0 (scenario)", "trace 1: stopped at step 0 (scenario)"]
    assert result["routing"] == {"attempts": 2, "rejected": 0}
    assert result["over_return"] == {"attempts": 2, "rejected": 0}
    assert result["ok"] is False
    assert main(["fuzz", "--traces", "2", "--seed", "5"]) == 1
    assert "  trace 1: stopped at step 0 (scenario)" in capsys.readouterr().out.splitlines()


def test_a_finished_world_leaves_less_behind_than_one_world_holds():
    """Run fuzz worlds one after another, dropping each: what stays traced
    after world 40 exceeds what stayed after world 10 by less than the
    memory one live world holds. A cache or memo that kept something of
    every world would grow by a share of a world per world."""
    retained = {}
    tracemalloc.start()
    try:
        for index in range(41):
            obj, _ = generate_trace(7, index)
            runner = Runner(parse_scenario(obj, source=obj["name"]))
            runner.run()
            del obj
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            del runner
            gc.collect()
            retained[index + 1] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    one_world = live - retained[41]
    assert one_world > 50_000
    assert retained[40] - retained[10] < one_world, (retained[10], retained[40], one_world)
