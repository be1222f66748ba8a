"""CLI runner: argument handling and output shape."""

import json
from pathlib import Path

import pytest

from repro.bench.cli import _quick_kwargs, main

ROOT = Path(__file__).resolve().parents[2]


def test_history_command(capsys):
    assert main(["history"]) == 0
    out = capsys.readouterr().out
    assert "Roaring" in out and "WAH" in out


def test_quick_run_prints_tables(capsys):
    assert main(["fig12", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "=== fig12" in out
    assert "intersection / query time (ms)" in out
    assert "space" in out
    assert "Roaring" in out


def test_csv_output(capsys):
    assert main(["fig12", "--quick", "--csv"]) == 0
    out = capsys.readouterr().out
    header = [l for l in out.splitlines() if l.startswith("codec,")][0]
    assert "intersect_ms" in header


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["figNaN"])


def test_quick_kwargs_cover_known_experiments():
    for exp in ("fig3", "tab1", "tab3", "fig4", "fig6", "fig7", "fig9"):
        kwargs = _quick_kwargs(exp)
        assert kwargs.get("repeat") == 1


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_json_output_is_strict_with_unmeasured_metrics_as_null(capsys):
    assert main(["fig12", "--quick", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["fig12"]
    assert rows
    # fig12 measures queries only: the decode/union columns are unmeasured.
    assert all(row["decompress_ms"] is None for row in rows)
    assert all(row["intersect_ms"] > 0 for row in rows)


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("BENCH_*.json")),
    ids=lambda p: p.name,
)
def test_committed_bench_records_are_strict_json(path):
    json.loads(path.read_text(), parse_constant=_reject_constant)
