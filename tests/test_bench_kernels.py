"""Smoke test of ``scripts/bench_kernels.py``, which every BENCH file runs:
its corpora and its ``read_tables`` row-loop reference still build on the
package's API."""

import importlib.util
import sys
from pathlib import Path

from tweet_tables import arrays_of
from tweetdyn.ingest import ColumnMap, read_tables

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernels.py"


def _bench_kernels(monkeypatch):
    """The script loaded by path; the entries it puts on ``sys.path`` are
    dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_tables_row_loop_and_corpus_of_a_planted_table(tmp_path, monkeypatch):
    bench = _bench_kernels(monkeypatch)
    rows, _ = bench.planted_rows(16, 10)
    table = tmp_path / "parse.csv"
    bench.write_csv(table, rows[::-1])  # out of order, so read_tables gathers the rows again
    args = ([str(table)], "csv", ColumnMap(), tmp_path)
    new = read_tables(*args)
    assert bench.same_parse(new, bench.loop_read(*args))
    # the planted rows are in ingest's order
    assert arrays_of(new[0]) == arrays_of(bench.corpus_of_rows(rows))
    assert [p.name for p in tmp_path.iterdir()] == ["parse.csv"]
