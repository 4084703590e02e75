"""Self-tests of the benchmark: span arithmetic, wrapper install/restore,
the correctness gate, and agreement between printed names and
BENCHMARK.json.  Run with ``python3 -m pytest perfbench``.  Nothing here
pins a call count of the package, because later changes exist to move them.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_span_tree_and_self_time_on_synthetic_calls():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; a holds a [2, 3]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    names = [s[0] for s in tracer.spans]
    parents = [names[s[3]] if s[3] >= 0 else None for s in tracer.spans]
    assert names == ["root", "a", "a", "b", "c"]
    assert parents == [None, "root", "a", "root", "b"]
    assert self_times(tracer.spans) == [3, 2, 1, 3, 1]
    summary = summarize(tracer.spans)
    assert summary["a"] == {"calls": 2, "s": 3, "self_s": 3}
    assert summary["root"] == {"calls": 1, "s": 10, "self_s": 3}
    assert summary["b"] == {"calls": 1, "s": 4, "self_s": 3}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ["p", 0.0, 10.0, -1],
        ["x", 2.0, 5.0, 0],
        ["y", 4.0, 8.0, 0],
        ["z", 9.0, 12.0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock([0, 1]))

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [["boom", 0, 1, -1]]


def _snapshot():
    import timepovm

    mods = {n: m for n, m in sys.modules.items() if n == "timepovm" or n.startswith("timepovm.")}
    state = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            state[(name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    state[(name, attr, meth)] = fn
    return timepovm, state


def test_install_catches_internal_calls_and_restore_undoes_every_patch():
    import numpy as np

    import timepovm.cli  # noqa: F401  (loads every layer, as the launcher does)
    from timepovm import model

    _, before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        # names imported by other modules are rebound to the same wrapper
        for mod, attr in (
            ("model", "hermitian_eigh"),
            ("dilation", "hermitian_eigh"),
            ("variational", "tridiag_lowest_eigs"),
            ("variational", "tridiag_eigenvector"),
            ("dilation", "validate_povm"),
            ("cli", "validate_povm"),
        ):
            bound = getattr(sys.modules[f"timepovm.{mod}"], attr)
            assert bound is not before[(f"timepovm.{mod}", attr)]
            assert bound.__wrapped__ is before[(f"timepovm.{mod}", attr)]
        grid = model.EnergyGrid(4, 1.0)
        sharp = model.build_sharp_time_povm(grid)
        dense = model.CovariantPOVM(grid, sharp.lattice, dense=np.stack([sharp.effect(k) for k in range(4)]))
        assert sys.modules["timepovm.dilation"].validate_povm(dense).passed
    finally:
        tracer.restore()
    _, after = _snapshot()
    assert after == before
    by_index = tracer.spans
    names = {s[0] for s in by_index}
    assert {"model.build_sharp_time_povm", "model.fourier_map", "model.validate_povm"} <= names
    eigh = [s for s in by_index if s[0] == "linalg.hermitian_eigh"]
    assert eigh and all(by_index[s[3]][0] == "model.validate_povm" for s in eigh)
    assert "model.CovariantPOVM.effect" in names


def _inv(stdout=b"summary=dilate checks=6 failures=0\n", code=0, stderr=b""):
    return run.Invocation(1.0, code, stdout, stderr, 10.0)


def test_correctness_gate():
    cmd = run.Command(("dilate", "f.json"), "dilate", 6)
    seen = {}
    assert run.failure(_inv(), cmd, seen) is None
    assert run.failure(_inv(), cmd, seen) is None
    assert "exit code" in run.failure(_inv(code=1), cmd, {})
    assert "traceback" in run.failure(_inv(stderr=b"Traceback (most recent call last):\n"), cmd, {})
    assert "failures=1" in run.failure(_inv(b"summary=dilate checks=6 failures=1\n"), cmd, {})
    assert "checks=5" in run.failure(_inv(b"summary=dilate checks=5 failures=0\n"), cmd, {})
    assert "no summary" in run.failure(_inv(b"error=input\n"), cmd, {})
    assert "differs" in run.failure(_inv(b"x=1\nsummary=dilate checks=6 failures=0\n"), cmd, seen)
    assert run.failure(_inv(b"usage", code=0), None, {}) is None


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map["layers"]) == set(run.PER_LAYER)
    pairs = [p for entry in layer_map["layers"].values() for p in entry["moves"]]
    pairs += [p for item in layer_map["predictions"] for key in ("moves", "no_change") for p in item[key]]
    for metric, workload in pairs:
        assert metric in run.END_TO_END and workload in run.WORKLOADS


def test_printed_metrics_are_exactly_the_declared_ones():
    layers = {name: 1.0 for name in run.PER_LAYER}
    passes = [
        {"traced": False, "wall_s": 2.0, "peak_rss_mb": 50.0, "layers": {}},
        {"traced": True, "wall_s": 2.5, "peak_rss_mb": 51.0, "layers": layers},
    ]
    e2e = run.end_to_end_metrics(passes, [0.3, 0.2, 0.4])
    assert list(e2e) == list(run.END_TO_END)
    assert e2e["pass_s"]["value"] == 2.0 and e2e["setup_s"]["value"] == 0.3
    setup = [{name: 1.0 for name in run.SETUP_METRICS}]
    per_layer = run.per_layer_metrics(passes, setup)
    assert list(per_layer) == list(run.PER_LAYER)
    assert per_layer["trace.overhead_s"]["value"] == pytest.approx(0.5)
    assert all(v["unit"] == run.PER_LAYER[k] for k, v in per_layer.items())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
