"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(workload_cls, seed, workdir: Path):
    """Generate, load and run one traced pass; the tracer afterwards."""
    w = workload_cls(seed, workdir)
    w.generate()
    w.load()
    tracer = tracing.Tracer()
    with tracer.patched():
        w.check(w.fingerprint(w.run_pass()))
    return w, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_for_a_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    w, first = traced_pass(cls, 3, tmp_path / "a")
    _, second = traced_pass(cls, 3, tmp_path / "b")
    first.require(w.required_spans)
    assert first.counts == second.counts
    assert len(first.distinct_beats) == len(second.distinct_beats)
    assert dict(first.calls) == dict(second.calls)


def test_outputs_pass_their_checks(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        w = cls(5, tmp_path / name)
        w.generate()
        w.load()
        fp = w.fingerprint(w.run_pass())
        assert w.check(fp) == [], name
        assert w.fingerprint(w.run_pass()) == fp, name


def test_patch_covers_every_bound_name_and_restores():
    from llt import cli, evaluation, linear_law

    bound = [(cli, "feature_matrix"), (evaluation, "feature_matrix"),
             (evaluation, "predict_batch"), (linear_law, "embed_class")] + [
        (cli, f) for f in ("knn_fit", "linear_svm_fit", "rbf_svm_fit", "rf_fit", "mlp_fit")]
    with tracing.Tracer().patched():
        for mod, attr in bound:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
    for mod, attr in bound:
        assert not hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"


def test_missed_patch_is_an_error(tmp_path, monkeypatch):
    spans = tuple(s for s in tracing.SPANS if s[1] != "jacobi_eigensystem")
    monkeypatch.setattr(tracing, "SPANS", spans)
    w, tracer = traced_pass(workloads.LawScan, 1, tmp_path)
    with pytest.raises(tracing.TraceCoverageError, match="linear_law.jacobi_s"):
        tracer.require(w.required_spans)


def run_bench(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "law-scan", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    done = run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
