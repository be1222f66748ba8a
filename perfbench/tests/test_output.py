"""Metric names, units, BENCHMARK.json, and the strict-JSON result line."""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import cluster, codecs, gen, served
from perfbench import metrics as M
from perfbench.common import ROOT, Record, render

MODULES = (codecs, served, cluster)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_every_name_is_well_formed_and_has_a_unit():
    assert len(M.ALL) == len(M.END_TO_END) + len(M.PER_LAYER)
    for metric in M.ALL.values():
        assert M.NAME_RE.match(metric.name), metric.name
        assert M.UNIT_RE.match(metric.unit), metric.name
        assert metric.better in ("lower", "higher")
    for metric in M.END_TO_END:
        assert 0 < metric.bound <= 0.25
    for metric in M.PER_LAYER:
        assert metric.moves, metric.name


def test_benchmark_json_mirrors_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["paper-codecs", "served-web", "cluster-churn"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in M.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in M.PER_LAYER
    ]


def test_every_layer_is_measured_by_some_workload():
    measured = set().union(*(mod.LAYERS for mod in MODULES))
    assert measured == set(M.names(trace=True))


def _record(trace: bool) -> Record:
    rec = Record("paper-codecs", 1, trace, attempted=3)
    for i, name in enumerate(M.names(trace)):
        rec.metrics[name] = 1.5 + i
    return rec


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_is_strict_json_with_exactly_the_mode_metrics(trace):
    last = render(_record(trace)).splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == M.names(trace)
    for name, entry in result["metrics"].items():
        assert entry == {"value": entry["value"], "unit": M.ALL[name].unit}


def test_non_finite_or_missing_metric_is_refused():
    rec = _record(False)
    rec.metrics["query_p99_ms"] = math.nan
    with pytest.raises(ValueError):
        rec.result()
    del rec.metrics["query_p99_ms"]
    with pytest.raises(KeyError):
        rec.result()


def test_a_wrong_answer_fails_the_sweep(monkeypatch):
    inputs = gen.codec_inputs(1, n=300)
    rec = Record("paper-codecs", 1, False)
    codecs.sweep(inputs, ["Roaring", "List"], 1, rec)
    assert rec.correct and rec.attempted == 2 * len(inputs) * 6 and rec.failed == 0

    real = codecs.codec_calls

    def broken(name):
        c, d, i, u = real(name)
        return c, d, (lambda x, y: np.asarray(i(x, y))[1:]), u

    monkeypatch.setattr(codecs, "codec_calls", broken)
    rec = Record("paper-codecs", 1, False)
    codecs.sweep(inputs, ["Roaring"], 1, rec)
    assert not rec.correct


def test_a_raising_codec_call_is_a_failed_op(monkeypatch):
    inputs = gen.codec_inputs(1, n=300)
    real = codecs.codec_calls

    def raising(name):
        c, d, i, u = real(name)

        def union(x, y):
            raise RuntimeError("boom")

        return c, d, i, union

    monkeypatch.setattr(codecs, "codec_calls", raising)
    rec = Record("paper-codecs", 1, False)
    codecs.sweep(inputs, ["List"], 1, rec)
    assert rec.correct and rec.failed == len(inputs) and rec.attempted == 6 * len(inputs)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-codecs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
