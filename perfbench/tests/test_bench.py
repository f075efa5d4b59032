"""The tracer, the run summary and the metric lists of BENCHMARK.json."""

import json
import os

import pytest

import run
import spans
import workloads
import qperm.hadamard as hd
import qperm.partitions as pa
import qperm.quantum as qu

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m: run.layer_unit(m) for m in spans.LAYER_METRICS}


def test_install_patches_lookups_and_uninstall_restores():
    before = (qu.certified_nullity, qu.invariants, pa.gram_weingarten,
              hd.fingerprint, qu._HomSystem.chunks_modp)
    tracer = spans.Tracer().install()
    try:
        assert qu.certified_nullity is not before[0]
        assert pa.gram_weingarten is not before[2]
        assert hd.fingerprint is not before[3]
    finally:
        tracer.uninstall()
    after = (qu.certified_nullity, qu.invariants, pa.gram_weingarten,
             hd.fingerprint, qu._HomSystem.chunks_modp)
    assert after == before


def test_traced_invariants_account_for_the_wall_time():
    h = hd.fourier(3)
    tracer = spans.Tracer().install()
    try:
        t0 = spans.clock()
        values = qu.invariants(h, 2, "both").values
        wall = spans.clock() - t0
    finally:
        tracer.uninstall()
    assert values == (1, 1, 3)
    m = spans.layer_metrics(tracer.spans, wall)
    assert set(m) == set(spans.LAYER_METRICS)
    assert m["exact.certified_calls"] == 4
    assert m["exact.candidate_hits"] == 2
    assert m["exact.streams"] > 0
    assert m["quantum.chunks_modp"] > 0 and m["exact.rows_streamed"] > 0
    selfs = sum(m[k] for k in spans.SELF_TIMES)
    roots = sum(s.busy for s in tracer.spans if s.parent is None)
    assert selfs == pytest.approx(roots, rel=1e-9)
    assert 0 <= m["trace.glue_s"] < 0.05 * wall + 1e-3
    assert all(s.self_time >= -1e-9 for s in tracer.spans)


def test_grafted_spans_are_charged_to_the_parent():
    child = spans.Tracer()
    child.record("cli.import", 0.0, 0.25)
    parent = spans.Tracer()
    span = parent.record("cli.invocation", 0.0, 1.0, dispatch=0.5)
    parent.add([s.to_dict() for s in child.spans], span)
    m = spans.layer_metrics(parent.spans, 1.0)
    assert m["cli.import_s"] == 0.25
    assert m["cli.invocations"] == 1
    assert m["cli.dispatch_s"] == 0.5 and m["cli.overhead_s"] == 0.5
    assert span.self_time == pytest.approx(0.75)


def _round(ops):
    return {"setups": [0.1], "wall_s": sum(o["seconds"] for o in ops),
            "ops": ops}


def test_summary_counts_failures_and_errors():
    ok = {"name": "a", "seconds": 1.0, "error": None, "failures": []}
    bad = {"name": "b", "seconds": 2.0, "error": None, "failures": ["x"]}
    err = {"name": "c", "seconds": 4.0, "error": "ValueError", "failures": []}
    result, failures, errors = run.summarize([_round([ok, ok])], False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert result["metrics"]["op_geomean_s"]["value"] == pytest.approx(1.0)
    result, failures, errors = run.summarize([_round([ok, bad, err])], False)
    assert not result["correct"] and result["failed"] == 1
    assert failures == ["b: x"] and errors == ["c: ValueError"]
    assert result["metrics"]["op_geomean_s"]["value"] == pytest.approx(2.0)
    # each operation is averaged over the rounds, not taken at its median
    slow = {**ok, "seconds": 4.0}
    result, _, _ = run.summarize([_round([ok]), _round([ok]),
                                  _round([slow])], False)
    assert result["metrics"]["op_geomean_s"]["value"] == pytest.approx(2.0)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(1.0)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cli-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
