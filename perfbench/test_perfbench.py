"""Tests of the benchmark's own code: generator, tracer and metric names.

usage: python3 -m pytest perfbench -q
"""

import ast
import csv
import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def input_digests(tmp_path: Path, workload: str, seed: int, tag: str) -> list[str]:
    meta = gen.generate(workload, seed, tmp_path / tag)
    files = [i["sha256"] for i in meta["inputs"]]
    files.append(gen.sha256_of(tmp_path / tag / meta["labels"]))
    return files


@pytest.mark.parametrize("workload", ["crowd", "chatter"])
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path, workload):
    first = input_digests(tmp_path, workload, 7, "a")
    again = input_digests(tmp_path, workload, 7, "b")
    other = input_digests(tmp_path, workload, 8, "c")
    assert first == again
    assert first[0] != other[0]


def test_generator_imports_nothing_from_the_package():
    tree = ast.parse((HERE / "gen.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "tweetdyn"]


def test_chatter_has_malformed_and_foreign_rows(tmp_path):
    meta = gen.generate("chatter", 3, tmp_path)
    rows = []
    for table in meta["inputs"]:
        with (tmp_path / table["file"]).open() as fh:
            rows += list(csv.DictReader(fh))
    assert len(rows) == meta["rows"]
    bad_time = sum("T99:" in r["tweet_time"] for r in rows)
    no_source = sum(r["is_retweet"] == "true" and not r["retweet_userid"] for r in rows)
    foreign = sum(r["tweet_language"] != "en" for r in rows)
    assert 0.003 < bad_time / len(rows) < 0.008
    assert 0.002 < no_source / len(rows) < 0.010
    assert 0.08 < foreign / len(rows) < 0.12


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_spans_have_correct_self_time():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent == outer.id and second.parent == outer.id
    summary = tracer.summary()
    assert summary["inner"] == {"s": 2.5, "calls": 2}
    assert summary["outer"] == {"s": 7.5, "calls": 1}
    assert tracer.subtree_residual(outer.id) == 0.0


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    work = types.ModuleType("fakepkg.work")
    user = types.ModuleType("fakepkg.user")

    def count(items):
        return len(items)

    def total(items):
        return sum(work.count([i]) for i in items)  # a nested call, via the module

    work.count, work.total = count, total
    user.count = count  # imported by name
    user.tally = count  # and under another name
    pkg.count = count
    for m in (pkg, work, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return pkg, work, user, count, total


def test_install_wraps_every_holder_and_uninstall_restores(fake_package):
    pkg, work, user, count, total = fake_package
    tracer = Tracer()
    absent = tracer.install(
        "fakepkg",
        {
            "work.count": {"items": lambda args, kwargs, result: len(args[0])},
            "work.total": {},
            "work.gone": {},
        },
    )
    assert absent == ["work.gone"]
    for holder, name in ((pkg, "count"), (work, "count"), (user, "count"), (user, "tally")):
        assert getattr(holder, name) is not count
    assert user.tally([1, 2, 3]) == 3
    assert work.total([5, 6]) == 2
    summary = tracer.summary()
    assert summary["work.count"]["calls"] == 3
    assert summary["work.count"]["items"] == 5.0
    assert summary["work.total"]["calls"] == 1
    nested = [s for s in tracer.spans if s.name == "work.count" and s.parent is not None]
    assert len(nested) == 2
    tracer.uninstall()
    assert (pkg.count, work.count, user.count, user.tally, work.total) == (
        count, count, count, count, total
    )


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME_RE.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    # The contract runs a subset of the workloads; --workload all runs every one.
    assert {w["name"] for w in contract["workloads"]} <= set(run.WORKLOADS)


def test_stage_argv_follows_run_dataset_order(tmp_path):
    meta = {"config": None, "format": "csv",
            "inputs": [{"file": "a.csv"}, {"file": "b.csv"}]}
    stages = run.stage_argv(meta, tmp_path, tmp_path / "out")
    assert [name for name, _ in stages] == list(run.STAGES)
    ingest = stages[0][1]
    assert ingest[ingest.index("--format") + 1] == "csv"
    assert ingest.count("--input") == 2
    assert all("--input" not in argv for _, argv in stages[1:])


def test_adjusted_rand_index():
    truth = {"a": 0, "b": 0, "c": 1, "d": 1}
    assert run.adjusted_rand_index(truth, {"a": 5, "b": 5, "c": 2, "d": 2}) == 1.0
    assert run.adjusted_rand_index(truth, {"a": 0, "b": 1, "c": 0, "d": 1}) < 0


def test_supported_percentile_needs_ten_samples_beyond():
    assert run.supported_percentile([1.0, 2.0, 3.0])[0] == "max"
    assert run.supported_percentile([float(i) for i in range(20)])[0] == "p50"
    assert run.supported_percentile([float(i) for i in range(100)])[0] == "p90"
