"""Tests of the benchmark harness itself (no sympgen import needed).

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate, call_tree  # noqa: E402


def test_self_time_of_nested_spans_with_recursion():
    # a [0, 10] > f [1, 9] > f [2, 6] > g [3, 4]; a > g [9.5, 10]
    spans = [
        (0, -1, "a", 0.0, 10.0, 0),
        (1, 0, "f", 1.0, 9.0, 0),
        (2, 1, "f", 2.0, 6.0, 0),
        (3, 2, "g", 3.0, 4.0, 0),
        (4, 0, "g", 9.5, 10.0, 0),
    ]
    agg = aggregate(spans)
    assert agg["a"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 8.0 - 0.5, "work": 0}
    # inclusive time counts only the outermost f; self time excludes both
    # the nested f and the g under it
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == 8.0
    assert agg["f"]["self_s"] == (8.0 - 4.0) + (4.0 - 1.0)
    assert agg["g"] == {"calls": 2, "s": 1.5, "self_s": 1.5, "work": 0}
    # every instant under a is some span's self time exactly once
    assert sum(r["self_s"] for r in agg.values()) == 10.0
    tree = call_tree(spans)
    assert tree[("a", "f", "f")] == [1, 4.0]
    assert tree[("a", "g")] == [1, 0.5]


def test_tracer_records_parents_work_and_exceptions():
    tracer = Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("fact", fact, work=lambda result, n: n)

    def boom():
        raise ValueError("boom")

    traced_boom = tracer.wrap("boom", boom)
    assert traced(4) == 24
    try:
        traced_boom()
    except ValueError:
        pass
    spans = sorted(tracer.named_spans())
    assert [(s[0], s[1], s[2], s[5]) for s in spans] == [
        (0, -1, "fact", 4), (1, 0, "fact", 3), (2, 1, "fact", 2),
        (3, 2, "fact", 1), (4, -1, "boom", 0)]
    agg = aggregate(spans)
    assert agg["fact"]["calls"] == 4 and agg["fact"]["work"] == 10
    assert agg["fact"]["s"] == spans[0][4] - spans[0][3]


def test_output_check_flags_an_altered_output():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for w in ("certify", "identities", "fields"):
        for item_id, _argv in workloads.cli_items(w):
            good = expected[w][item_id]
            assert workloads.check_cli_output(expected[w], item_id, 0, good) is None
            altered = good.replace("1", "2", 1) if "1" in good else good + " "
            assert workloads.check_cli_output(expected[w], item_id, 0, altered)
            assert workloads.check_cli_output(expected[w], item_id, 1, good)


def test_run_counts_altered_outputs_as_failures():
    expected = {"certify": {"a": "x\n", "b": "y\n"}}
    job = {"items": [{"id": "a"}, {"id": "b"}]}
    res = {"items": [{"rc": 0, "out": "x\n", "error": None},
                     {"rc": 0, "out": "z\n", "error": None}]}
    assert list(run.failures("certify", job, res, expected, None)) == ["b"]


def test_order_check_rejects_wrong_orders():
    f7 = workloads.SmallField(7, 1, (0, 1))
    g = [[0, 6], [1, 6]]  # companion matrix of t^2 + t + 1: order 3
    assert workloads.check_order(f7, g, [(3, 1)]) is None
    assert workloads.check_order(f7, g, [(3, 2)])       # 9 is a multiple
    assert workloads.check_order(f7, g, [(2, 1)])       # g^2 != I
    f4 = workloads.SmallField(2, 2, (1, 1, 1))          # w = 2, w^2 = w + 1
    assert f4.mul[2][2] == 3 and f4.mul[2][3] == 1
    diag = [[2, 0], [0, 3]]                             # diag(w, w^2)
    assert workloads.check_order(f4, diag, [(3, 1)]) is None
    assert workloads.check_order(f4, diag, [(2, 1)])


def test_same_seed_same_words_other_seed_other_words():
    a, b, c = (workloads.draw_words(s) for s in (1, 1, 2))
    assert a == b
    assert a != c
    for pair, words in a:
        assert len(words) == workloads.ORDER_PAIRS[pair] * workloads.MAX_WORD_LENGTH
        assert all(1 <= len(w) <= 10 and set(w) <= set(workloads.LETTERS)
                   for w in words)
    assert workloads.plan("orders", 3) == workloads.plan("orders", 3)


def test_seed_only_permutes_cli_items():
    for w in ("certify", "identities", "fields"):
        one, two = workloads.plan(w, 1)["items"], workloads.plan(w, 2)["items"]
        key = lambda item: item["id"]  # noqa: E731
        assert sorted(one, key=key) == sorted(two, key=key)


def test_benchmark_json_mirrors_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves in layers.PER_LAYER]
