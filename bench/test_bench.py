"""Tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import nodeiso.cli  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, covered_length, patched, self_times  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name: str, parent: int, start: float, end: float) -> Span:
    span = Span(name, parent, 0)
    span.start, span.end = start, end
    return span


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (6.0, 7.0)], 0.0, 10.0) == 6.0
    assert covered_length([(2.0, 3.0), (1.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_is_span_minus_union_of_direct_children():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 0, 3.0, 6.0),   # overlaps b: the union [1, 6] is subtracted once
        _span("d", 1, 1.5, 2.0),   # grandchild of a: only b loses it
        _span("e", 0, 9.0, 12.0),  # runs past a's end: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_metric_names_are_well_formed_and_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    produced = set(layers.layer_metrics(Tracer(), [])) | set(run.import_profile())
    assert produced <= {m["name"] for m in spec["per_layer"]}


def _nodeiso_namespaces() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name == "nodeiso" or mod_name.startswith("nodeiso.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_patched_wraps_every_importing_namespace_and_restores():
    quad = nodeiso.quadrature.expected_r2_numeric_fading
    count = nodeiso.simulator.isolation_count
    before = _nodeiso_namespaces()
    with patched(layers.instrumentation(Tracer())):
        assert nodeiso.cli.expected_r2_numeric_fading is not quad
        assert nodeiso.cli.expected_r2_numeric_fading is nodeiso.quadrature.expected_r2_numeric_fading
        assert nodeiso.simulator.isolation_count.__wrapped__ is count
        assert nodeiso.isolation_count is nodeiso.simulator.isolation_count
    assert _nodeiso_namespaces() == before

    with pytest.raises(RuntimeError), patched(layers.instrumentation(Tracer())):
        raise RuntimeError("body failed")
    assert _nodeiso_namespaces() == before


def test_traced_simulation_nests_spans_and_counts_every_node():
    tracer = Tracer()
    out = io.StringIO()
    with patched(layers.instrumentation(tracer)), contextlib.redirect_stdout(out):
        code = nodeiso.cli.main(["simulate", "--m", "2", "--sigma", "2", "--lambda", "0.01",
                                 "--runs", "20", "--seed", "3", "--format", "json"])
    assert code == 0
    names = [s.name for s in tracer.spans]
    parent_of = {s.name: names[s.parent] for s in tracer.spans if s.parent >= 0}
    assert parent_of["simulator.isolation_count"] == "simulator.run_monte_carlo"
    assert parent_of["simulator.run_monte_carlo"] == "cli.main"
    metrics = layers.layer_metrics(tracer, [])
    assert metrics["simulator.replications"] == 20
    assert metrics["simulator.nodes"] == json.loads(out.getvalue())["total_nodes"]
    assert 0 < metrics["simulator.pairs_in_range"] <= metrics["simulator.pairs_generated"]


@pytest.mark.parametrize("toroidal", [True, False])
def test_pairs_within_matches_direct_count(monkeypatch, toroidal):
    positions = np.random.default_rng(5).random((90, 2)) * 100.0
    expected = 0
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            dx, dy = abs(positions[i] - positions[j])
            if toroidal:
                dx, dy = min(dx, 100.0 - dx), min(dy, 100.0 - dy)
            expected += math.hypot(dx, dy) <= 30.0
    assert layers.pairs_within(positions, 100.0, toroidal, 30.0) == expected
    monkeypatch.setattr(layers, "_BLOCK_PAIRS", 200)  # several row slabs
    assert layers.pairs_within(positions, 100.0, toroidal, 30.0) == expected
