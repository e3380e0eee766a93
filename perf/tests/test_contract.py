"""BENCHMARK.json, the workloads and the reports name the same things."""

import json
from pathlib import Path

from perf.compare import UNRESOLVED, WITHIN, WORSE, verdict
from perf.layers import ScrapeDelta, parse_exposition, per_layer_units
from perf.measure import END_TO_END_UNITS
from perf.workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]


def test_workloads_match_the_code():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: cls.why for name, cls in WORKLOADS.items()}
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())


def test_end_to_end_metrics_match_what_a_run_reports():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match_what_a_traced_run_reports():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == per_layer_units()
    assert len(declared) == len(BENCHMARK["per_layer"])  # every name used once


def test_scrape_delta_reads_counters_means_and_ratios():
    before = parse_exposition(
        'myproxy_request_seconds_sum{command="GET"} 1.0\n'
        'myproxy_request_seconds_count{command="GET"} 10\n'
        'myproxy_resumption_total{outcome="hit"} 5\n'
        'myproxy_resumption_total{outcome="none"} 5\n'
    )
    after = parse_exposition(
        "# HELP myproxy_request_seconds x\n"
        'myproxy_request_seconds_sum{command="GET"} 2.5\n'
        'myproxy_request_seconds_count{command="GET"} 40\n'
        'myproxy_resumption_total{outcome="hit"} 35\n'
        'myproxy_resumption_total{outcome="none"} 5\n'
        "myproxy_denials_total 0\n"
    )
    delta = ScrapeDelta(before, after)
    assert delta.counter("myproxy_request_seconds_count", command="GET") == 30
    assert delta.mean_ms("myproxy_request_seconds", command="GET") == 50.0
    assert delta.mean_ms("myproxy_request_seconds", command="PUT") == 0.0
    assert delta.ratio("myproxy_resumption_total", "outcome", "hit") == 1.0
    assert delta.counter("myproxy_denials_total") == 0.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.05 for v in steady], "lower", 0.10, True) == WITHIN
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10, True) == WORSE
    assert verdict(steady, [v * 0.80 for v in steady], "lower", 0.10, True) == WITHIN
    assert verdict(steady, [v * 0.80 for v in steady], "higher", 0.10, True) == WORSE
    noisy = [70.0, 100.0, 130.0, 90.0, 115.0]
    assert verdict(steady, noisy, "lower", 0.10, True) == UNRESOLVED
    assert verdict(steady, noisy, "lower", 0.10, False) == WITHIN
