"""Self-tests of the benchmark harness: pure, no sleeps, no workload runs.

    python3 -m pytest perf/test_harness.py -q
"""

import glob
import os
import re
import statistics

import pytest

from perf import compare, harness
from perf.child import WORKLOADS
from perf.trace import Span, Tracer, self_times, unattributed_fraction

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- the percentile rule ------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None), (0, None)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_designed_tail_caps_the_rule_and_small_samples_step_down():
    assert harness.tail_percentile(50_000, at_most=99.0) == 99.0
    assert harness.tail_percentile(150, at_most=99.0) == 90.0


def test_percentile_interpolates_like_numpy():
    assert harness.percentile([1, 2, 3, 4, 5], 50) == 3
    assert harness.percentile([0, 10], 75) == 7.5
    assert harness.percentile([7], 99) == 7


def test_median_latency_is_the_median_window_and_the_tail_is_pooled():
    # 600 samples over 6 s: 1 ms everywhere, except 10 ms throughout the
    # second window — a minority mode that must not move the median.
    samples = [(i / 100.0, 0.010 if 1.0 <= i / 100.0 < 2.0 else 0.001)
               for i in range(600)]
    assert harness.median_latency_ms(samples, 0.0, 6.0) == pytest.approx(1.0)
    pooled = [v * 1e3 for _, v in samples]
    # 600 samples: p99 would leave only 6 beyond it, so the rule gives p95.
    tail, what = harness.pooled_tail(pooled, designed_tail=99.0)
    assert what == "p95" and tail == pytest.approx(10.0)
    assert harness.pooled_tail(pooled[:30], designed_tail=99.0)[1] == "p50"


def test_tail_of_clustered_gaps_is_the_mean_of_the_slowest_tenth():
    gaps = [60.0] * 150 + [120.0] * 40 + [200.0] * 10
    tail, what = harness.pooled_tail(gaps, designed_tail=None)
    assert what == "mean of slowest 10 %"
    assert tail == pytest.approx((10 * 200.0 + 10 * 120.0) / 20)
    # Never fewer than ten samples, however small the run.
    assert harness.pooled_tail(list(range(1, 31)), None)[0] == \
        pytest.approx(25.5)


def test_update_gaps_mean_gap_is_window_over_events():
    events = [0.5, 1.0, 1.1, 2.0, 3.9, 4.2]
    assert harness.mean_gap_ms(events, 1.0, 4.0) == pytest.approx(750.0)
    assert harness.gaps_ms(events, 1.0, 4.0) == pytest.approx(
        [500.0, 100.0, 900.0, 1900.0])
    with pytest.raises(ValueError):
        harness.mean_gap_ms(events, 5.0, 6.0)


# -- median of windows --------------------------------------------------------
def test_window_rates_count_events_per_equal_window():
    events = [0.1, 0.2, 1.5, 2.5, 2.6, 2.7, 5.9, 6.0, -1.0]
    assert harness.window_rates(events, 0.0, 6.0) == [2, 1, 3, 0, 0, 1]
    assert harness.window_rates([0.5, 1.5], 0.0, 6.0, weights=[64, 64]) \
        == [64, 64, 0, 0, 0, 0]


def test_median_window_ignores_a_minority_mode_switch():
    rates = [100.0, 100.0, 100.0, 100.0, 130.0, 130.0]
    assert harness.median_window(rates) == 100.0
    assert statistics.fmean(rates) == 110.0  # what a plain mean would say


def test_spread_share_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread_share(values) == pytest.approx((q3 - q1) / 10.0)


# -- spans --------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return Span(name, name.split(".")[0], start, end, parent, 0, 1)


def test_self_time_subtracts_child_coverage_not_child_sum():
    spans = [
        _span("execution.iteration", 0.0, 10.0),          # 0: root
        _span("execution.collect", 1.0, 6.0, parent=0),   # 1
        _span("agents.act", 2.0, 3.0, parent=1),          # 2
        _span("environments.step", 3.0, 5.0, parent=1),   # 3
        _span("agents.update", 5.5, 9.0, parent=0),       # 4: overlaps 1
    ]
    selfs = self_times(spans)
    assert selfs["execution.collect"] == [pytest.approx(2.0)]   # 5 - (1 + 2)
    # Children cover [1, 9] of the root (the overlap counts once).
    assert selfs["execution.iteration"] == [pytest.approx(2.0)]
    assert selfs["agents.act"] == [pytest.approx(1.0)]
    assert unattributed_fraction(spans, "execution.iteration") == \
        pytest.approx(0.2)


def test_tracer_nests_spans_per_thread_and_tags_iterations():
    tracer = Tracer()
    tracer.iteration = 3
    with tracer.span("execution.iteration"):
        with tracer.span("agents.act"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.layer == "agents" and inner.iteration == 3
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- comparator ---------------------------------------------------------------
@pytest.mark.parametrize("a, b, better, bound, expected", [
    ([100, 101, 99, 100, 100], [97, 98, 96, 97, 97], "higher", 0.10, "ok"),
    ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "higher", 0.10, "worse"),
    ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", 0.10,
     "ok"),
    ([10, 10.1, 9.9, 10, 10], [11.5, 11.6, 11.4, 11.5, 11.5], "lower", 0.10,
     "worse"),
    ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "lower", 0.10, "ok"),
    # Same medians, but A scatters by more than the bound: not "ok".
    ([100, 70, 130, 100, 60], [100, 101, 99, 100, 100], "higher", 0.10,
     "unresolved"),
])
def test_comparator_verdicts(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def test_compare_rows_carry_ratio_with_base_a():
    declaration = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "m", "unit": "1/s", "better": "higher",
                        "bound": 0.1}]}

    def study(values):
        return {"runs": [{"workload": "w", "trace": 0,
                          "metrics": {"m": {"value": v, "unit": "1/s"}}}
                         for v in values]
                + [{"workload": "w", "trace": 1, "metrics": {}}]}

    (row,) = compare.compare(study([100, 100, 100]), study([80, 80, 80]),
                             declaration)
    assert row["ratio_b_over_a"] == pytest.approx(0.8)
    assert row["verdict"] == "worse" and row["n"] == (3, 3)


# -- schema: what the benchmark emits is what BENCHMARK.json declares ---------
def _sources():
    paths = [os.path.join(harness.PERF_DIR, name)
             for name in ("run.py", "layers.py", "serve_child.py")]
    paths += glob.glob(os.path.join(harness.PERF_DIR, "workloads", "*.py"))
    out = {}
    for path in paths:
        with open(path) as fh:
            out[os.path.relpath(path, harness.PERF_DIR)] = fh.read()
    return out


def _emitted_layer_metrics(text):
    """Dotted names used as a dict key or assigned into a result dict."""
    keys = re.findall(r'"([a-z]+\.[a-z0-9_]+)"\s*:', text)
    keys += re.findall(r'\["([a-z]+\.[a-z0-9_]+)"\]\s*=(?!=)', text)
    return set(keys)


def test_benchmark_json_meets_the_contract_limits():
    declaration = harness.load_declaration()
    assert set(declaration) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declaration[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declaration["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declaration["end_to_end"])}]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declaration["workloads"])


def test_every_emitted_name_is_declared_and_every_declared_name_emitted():
    declaration = harness.load_declaration()
    assert tuple(w["name"] for w in declaration["workloads"]) == WORKLOADS
    sources = _sources()
    declared = {m["name"] for m in declaration["per_layer"]}
    emitted = set().union(*map(_emitted_layer_metrics, sources.values()))
    assert emitted - declared == set()
    assert declared - emitted == set()
    from_workload = {"throughput_per_s", "latency_p50_ms"}
    from_runner = {"setup_s", "peak_rss_mb", "latency_tail_ms"}
    assert {m["name"] for m in declaration["end_to_end"]} == \
        from_workload | from_runner
    for workload in WORKLOADS:
        text = sources[os.path.join("workloads", workload + ".py")]
        assert all(f'"{name}":' in text for name in from_workload), workload
    assert all(f'"{name}"]' in sources["run.py"] for name in from_runner)
