"""``tools/bench_pairs.py`` runs the workloads its options ask for, and the traced runs of the first one named (of
``large_n`` when none is); no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    """The tool's module, with git, the exports and ``run_once`` stubbed; ``calls`` records each run asked for."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    module.calls = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        module.calls.append((checkout.name, workload, seed, trace))
        return {"correct": True, "metrics": {name: {"value": float(seed)} for name in metrics}}

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.setattr(module, "git", lambda *args: f"rev-{args[-1]}")
    monkeypatch.setattr(module, "export", lambda commit, dest: dest.mkdir(parents=True) or dest)
    return module


def workloads(calls, trace):
    return list(dict.fromkeys(workload for _, workload, _, t in calls if t == trace))


def test_defaults_run_every_workload_and_the_traced_runs(bench_pairs, tmp_path):
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["a", "b", "--out", str(out)]) == 0
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    assert workloads(bench_pairs.calls, 0) == names
    assert len([c for c in bench_pairs.calls if c[3] == 0]) == 2 * bench_pairs.PAIRS * len(names)
    traced = [c for c in bench_pairs.calls if c[3] == 1]
    assert len(traced) == 2 * bench_pairs.TRACED_RUNS and {c[1] for c in traced} == {bench_pairs.TRACED_WORKLOAD}
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["options"] == {"workloads": names}
    assert list(doc["workloads"]) == names and doc["traced"]["workload"] == bench_pairs.TRACED_WORKLOAD
    assert doc["commits"] == {"parent": "rev-a", "change": "rev-b"}


@pytest.mark.parametrize("workload", ["small_n", "cli"])
def test_a_single_workload_is_the_traced_one(bench_pairs, tmp_path, workload):
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["a", "b", "--out", str(out), "--workload", workload]) == 0
    assert workloads(bench_pairs.calls, 0) == [workload] and workloads(bench_pairs.calls, 1) == [workload]
    # the pairs alternate which side runs first, on the same seed, and so do the traced runs
    untraced = [c for c in bench_pairs.calls if c[3] == 0]
    assert [untraced[i][0] for i in range(0, len(untraced), 2)] == ["parent", "change"] * (bench_pairs.PAIRS // 2)
    traced = [c for c in bench_pairs.calls if c[3] == 1]
    assert len(traced) == 2 * bench_pairs.TRACED_RUNS and {c[2] for c in traced} == {bench_pairs.FIRST_SEED}
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["options"] == {"workloads": [workload]}
    assert list(doc["workloads"]) == [workload] and doc["traced"]["workload"] == workload


def test_workloads_run_in_the_order_given(bench_pairs, tmp_path):
    out = tmp_path / "bench.json"
    argv = ["a", "b", "--out", str(out), "--workload", "large_n", "--workload", "small_n", "--workload", "large_n"]
    assert bench_pairs.main(argv) == 0
    assert workloads(bench_pairs.calls, 0) == ["large_n", "small_n"] and workloads(bench_pairs.calls, 1) == ["large_n"]
    assert json.loads(out.read_text(encoding="utf-8"))["options"]["workloads"] == ["large_n", "small_n"]
    argv = ["a", "b", "--out", str(out), "--workload", "small_n", "--workload", "large_n"]
    bench_pairs.calls.clear()
    assert bench_pairs.main(argv) == 0  # the first named is traced
    assert workloads(bench_pairs.calls, 0) == ["small_n", "large_n"] and workloads(bench_pairs.calls, 1) == ["small_n"]


@pytest.mark.parametrize("argv", [["--workload", "huge_n"], ["--traced", "0"]])
def test_unknown_options_exit_2_before_any_run(bench_pairs, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["a", "b", "--out", str(tmp_path / "bench.json"), *argv])
    assert exc.value.code == 2 and bench_pairs.calls == []
