"""Self-tests of the benchmark: seeding, answer checks, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def package():
    return run.fresh_import()


def queries_mix(seed):
    q = workloads.Queries()
    q.setup(None, seed)
    return [op["argv"] for op in q.mix]


def test_same_seed_same_queries_mix_and_another_seed_another():
    assert queries_mix(11) == queries_mix(11)
    assert queries_mix(11) != queries_mix(12)
    assert len(queries_mix(11)) == sum(workloads.MIX.values())


def test_same_seed_same_census_order(package):
    pm, _ = package

    def order(seed):
        c = workloads.Census()
        c.setup(pm, seed)
        return [(key, strategy) for key, _, _, strategy in c.ops]

    assert order(3) == order(3)
    assert sorted(order(3)) == sorted(order(4))


def test_checker_flags_a_corrupted_queries_answer(package):
    pm, cli = package
    q = workloads.Queries()
    q.setup(None, 5)
    op = next(op for op in q.mix if op["cls"] == "character")
    corrupted = dict(op, stdout=op["stdout"].replace("0", "9").replace("1", "0") + "x")
    q.mix = [op, corrupted]
    r = q.run_round(pm, cli, time.perf_counter)
    assert r.attempted == 2
    assert r.failures == [("character", 0)]


def test_checker_flags_a_wrong_exit_code(package):
    pm, cli = package
    q = workloads.Queries()
    q.setup(None, 5)
    op = next(op for op in q.mix if op["cls"] == "check-preserves")
    q.mix = [dict(op, exit=3)]
    assert q.run_round(pm, cli, time.perf_counter).failures == [("check-preserves", op["exit"])]


def test_a_known_defect_class_failing_another_way_is_unexpected():
    assert workloads.known_defect("enumerate-limit-beyond-guard", "3")
    assert workloads.known_defect("count-over-4300-digits", 2)
    assert workloads.known_defect("enumerate-limit-beyond-guard", 0) is None
    assert workloads.known_defect("count-over-4300-digits", "ValueError") is None
    assert workloads.known_defect("character", 0) is None


def test_digest_check_rejects_changed_output():
    ref = {"sha256": "0" * 64, "bytes": 3}
    assert not workloads.stdout_matches(ref, "abc")
    assert workloads.stdout_matches({"stdout": "abc"}, "abc")


def test_verify_check_rejects_corrupted_case_counts():
    v = workloads.Verify()
    v.setup(None, 0)
    checks = [{"name": k, "passed": True, "cases": c} for k, c in v.cases.items()]
    good = json.dumps({"checks": checks, "all_passed": True})
    assert v.check(0, good)
    checks[0]["cases"] += 1
    assert not v.check(0, json.dumps({"checks": checks, "all_passed": True}))
    assert not v.check(1, good)


class ScriptedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_nest_of_spans():
    clock = ScriptedClock()
    tr = tracing.Tracer(clock=clock)
    # a [0, 10] holds b [1, 4], which holds c [2, 3], and d [5, 9]
    for t, action in [
        (0, "a"), (1, "b"), (2, "c"), (3, None), (4, None),
        (5, "d"), (9, None), (10, None),
    ]:
        clock.now = t
        tr.enter(action) if action else tr.exit()
    assert tr.self_time("a") == 10 - 3 - 4
    assert tr.self_time("b") == 3 - 1
    assert tr.self_time("c") == 1
    assert tr.self_time("d") == 4
    spans = {name: (root, sid, parent) for root, sid, parent, name, _, _ in tr.spans}
    assert spans["c"][2] == spans["b"][1]
    assert spans["b"][2] == spans["d"][2] == spans["a"][1]
    assert {root for root, _, _ in spans.values()} == {spans["a"][1]}


def test_generator_spans_exclude_consumer_time():
    clock = ScriptedClock()
    tr = tracing.Tracer(clock=clock)

    def produce():
        for x in range(3):
            clock.now += 1  # work inside the generator
            yield x

    it = tracing.TracedIterator(produce(), "gen", tr)
    for _ in it:
        clock.now += 100  # work in the consumer
    assert tr.self_time("gen") == 3
    assert tr.items["gen"] == 3
    assert tr.calls("gen") == 4  # three items and the final StopIteration
    assert it.done


def test_probe_clock_runs_at_reference_speed_and_skips_probing(monkeypatch):
    now = [0.0]
    cost = [2 * speed.REFERENCE_S]  # the machine runs at half the reference speed

    def probe():
        now[0] += cost[0]

    monkeypatch.setattr(speed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(speed, "_probe", probe)
    p = speed.SpeedProbe()
    for _ in range(p.WINDOW):
        p._sample()
    start = p.clock()
    now[0] += 1.0
    assert p.clock() - start == pytest.approx(0.5)
    p._sample()
    assert p.clock() - start == pytest.approx(0.5)
    assert p.factor() == pytest.approx(2.0)


def test_probe_samples_on_the_timer_signal():
    with speed.SpeedProbe(interval=0.02) as p:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert len(p.samples) >= p.WINDOW + 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_install_wraps_every_binding_site_and_uninstall_restores(package):
    pm, cli = package
    original = pm.membership.character
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        assert pm.character is pm.membership.character is cli.character
        assert pm.character is not original
        p = pm.parse_partition("0,1|2", 3)
        f = pm.parse_transformation("2,2,0", 3)
        pm.character(f, p)
        assert tr.calls("membership.character") == 1
        assert tr.calls("core.parse") == 2
        assert tr.calls("core.SetPartition") == 1
    finally:
        tracing.uninstall(restore)
    assert pm.character is original is cli.character
    assert pm.Transformation.__init__.__qualname__.endswith("Transformation.__init__")


def test_brute_iterators_report_tables_visited(package):
    pm, _ = package
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        p = pm.parse_partition("0,1|2", 3)
        assert len(list(pm.iter_t(p, "brute"))) == 15
        it = pm.iter_sigma(p, "brute")
        first = next(it)
    finally:
        tracing.uninstall(restore)
    rank = 9 * first.images[0] + 3 * first.images[1] + first.images[2]
    # the exhausted scan read all 27 tables, the stopped one read up to its member
    assert tr.yield_ratio() == (15 + 1) / (27 + rank + 1)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_measuring_code_keeps_the_int_to_str_limit():
    for name in ("run.py", "speed.py", "workloads.py", "tracing.py"):
        assert "set_int_max_str_digits" not in (BENCH / name).read_text()


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
