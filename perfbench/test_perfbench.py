"""Tests of the benchmark itself: tracer, cross-checks and the result contract.

    python3 -m pytest -q perfbench/test_perfbench.py

The workload tests run shrunken copies of the real workloads (small M, short
runs) so they take seconds; the cross-checks they rely on are the ones every
benchmark run makes.
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from layers import PER_LAYER
from tracer import Site, Tracer

ROOT = Path(__file__).resolve().parent.parent
codec = run.import_codec(ROOT)


def small(name, **changes):
    return replace(workloads.WORKLOADS[name], **changes)


def test_spans_nest_and_self_time_excludes_children():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer([Site(module, "inner", "t.inner", lambda r, x: {"n": x}),
                     Site(module, "outer", "t.outer")])
    original = module.outer
    with tracer.installed(), tracer.scan("s0"):
        assert module.outer(3) == 8
    assert module.outer is original
    assert module.outer(3) == 8 and len(tracer.spans) == 2  # untraced after restore
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1 and inner.scan == "s0"
    assert tracer.nesting_problems() == []
    summary = tracer.summarize(lambda s: True)
    assert summary["t.inner"]["data"] == {"n": 3}
    assert summary["t.outer"]["self_s"] == pytest.approx(outer.seconds - inner.seconds)


def test_nesting_check_flags_a_child_outside_its_parent():
    tracer = Tracer()
    with tracer.span("parent"), tracer.span("child"):
        pass
    tracer.spans[1].end = tracer.spans[0].end + 1.0
    assert tracer.nesting_problems()


def test_error_counted_once_at_its_origin():
    module = types.SimpleNamespace()

    def fail():
        raise codec.kernel.NumericalError("boom")

    module.fail = fail
    module.call = lambda: module.fail()
    tracer = Tracer([Site(module, "fail", "t.fail"), Site(module, "call", "t.call")])
    with tracer.installed(), pytest.raises(codec.kernel.NumericalError):
        module.call()
    summary = tracer.summarize(lambda s: True)
    assert summary["t.fail"]["origin_errors"] == {"NumericalError": 1}
    assert summary["t.call"]["origin_errors"] == {}


def test_traced_encoding_cross_checks_hold():
    spec = small("tunnel-swap-m200", m=30, swaps=30, mstep_iterations=4)
    result, bench = workloads.run_workload(codec, spec, 3, 0.01, True)
    assert bench.problems == [] and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in PER_LAYER}
    assert metrics["encoder.estep.proposals"] > 0
    assert metrics["encoder.mstep.iterations"] > 0
    assert metrics["trace.encode_overhead"] > 0 and metrics["trace.decode_overhead"] > 0
    spans = bench.tracer.spans
    estep = [s for s in spans if s.name == "encoder.refine_inducing_swap"]
    # scan0 is the untraced reference; one traced cycle follows it
    assert {s.scan for s in estep} == {f"scan{i}" for i in range(1, workloads.SCANS + 1)}


def test_encoding_loop_covers_every_scan_equally_whatever_its_speed():
    spec = small("tunnel-swap-m200", m=20, swaps=5, mstep_iterations=2)
    for seconds in (0.01, 1.0):
        bench = workloads.Run(codec, spec, 5, seconds, False)
        bench.setup()
        ops, wall = bench.encode_loop()
        cycles = len(ops) // workloads.SCANS
        assert cycles >= 1 and len(ops) == cycles * workloads.SCANS
        assert [op.scan for op in ops] == list(range(workloads.SCANS)) * cycles
        assert wall > 0 and all(len(op.decode_s) == 1 for op in ops)
        bench.repeat_decodes(ops)
        assert all(len(op.decode_s) > 1 for op in ops[:workloads.SCANS])


def test_em_counts_mismatch_is_reported():
    spec = small("tunnel-swap-m200", m=20, swaps=10, mstep_iterations=2)
    bench = workloads.Run(codec, spec, 1, 0.01, True)
    bench.setup()
    ops, _ = bench.encode_loop()
    ops[1].em_trace = ops[1].em_trace + [("estep", 0.0)]
    bench.check_em_counts(ops, bench.tracer.children())
    assert any("accepted steps" in p for p in bench.problems)


def test_untraced_encoding_reports_every_end_to_end_metric():
    spec = small("vlp16-mstep-m500", sensor="desk", m=40, mstep_iterations=2)
    result, bench = workloads.run_workload(codec, spec, 2, 0.01, False)
    assert result["correct"], bench.problems
    names = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["wire_bytes"]["value"] == 60 + 12 * 40
    assert all(v["value"] != 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_stream_delivers_valid_frames_and_rejects_corrupt_ones(trace):
    spec = small("base-stream-up4", m=40, upsample=1)
    result, bench = workloads.run_workload(codec, spec, 4, 0.5, trace)
    assert bench.problems == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["transport.frames_rejected"] > 0
        assert metrics["transport.frames"] > 1
        assert metrics["encoder.variational_bound.calls"] == 0  # no encoding in the stream
        assert metrics["decoder.predict_surface.cells"] == 5760


def test_benchmark_file_matches_the_metrics_reported():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_fails_without_the_codec_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tunnel-swap-m200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())
