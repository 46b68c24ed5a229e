"""End-to-end runs of every CLI subcommand on small synthetic data."""

import ast
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_loops as ref
import tweetdyn
from scoring import adjusted_rand_index
from test_synth import generate_series
from tweet_tables import parse_table, write_csv
from tweetdyn import cli, synth, timeseries
from tweetdyn.cli import load_config, main
from tweetdyn.corpus import Corpus
from tweetdyn.ingest import ColumnMap, write_records
from tweetdyn.spectral import cluster_spectra, cohort_spectra
from tweetdyn.timeseries import CountSeries, DayWindow

REPO = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "bulk_window": ["2016-03-01", "2016-06-01"],
    "pre_window": ["2016-03-09", "2016-04-08"],
    "post_window": ["2016-04-08", "2016-05-08"],
    "reference_window": ["2016-03-09", "2016-03-24"],
    "comparison_window": ["2016-03-24", "2016-04-08"],
    "min_total_tweets": 1,
    "active_day_fraction": 0.5,
    "restarts": 5,
    "seed": 99,
}

PIPELINE = [
    ["synth"],
    ["ingest"],  # --input appended per run directory
    ["counts"],
    ["strategy"],
    ["spectra"],
    ["cluster-spectral"],
    ["cluster-topic"],
    ["compare"],
    ["report"],
]


def run_pipeline(
    outdir: Path, config_path: Path, records_src: Path | None = None
) -> None:
    """Run every stage; ingest reads ``records_src`` or the dir's own synth."""
    for step in PIPELINE:
        if step[0] == "synth" and records_src is not None:
            continue
        argv = step + ["--config", str(config_path), "--out", str(outdir)]
        if step[0] == "ingest":
            src = records_src or outdir / "records.jsonl"
            argv += ["--input", str(src), "--format", "jsonl"]
        rc = main(argv)
        assert rc == 0, f"step {step[0]} failed"


# sha256 of every non-manifest artifact of ``pipeline_dir``; the two files
# that embed the input path are hashed with the run directory replaced by
# "<out>". A change that keeps the pipeline's output must keep these.
PIPELINE_DIGESTS = {
    "band_pre.csv": "06a55bb4a8e1d8e3e849a2f8a27bab4c288814766ac97ad8fad86f7d83476068",
    "campaign_users.json": "aa53ed9e855d0a3b71f53ec8f86e6824232b2105bb479a95cc2c3ecb4f02c739",
    "cluster_band_1.csv": "e4fd3553bdbffc67483d62600c5ba8b2bf6883d6565818dfef9fdf00ee0bb423",
    "cluster_band_2.csv": "64a8f377be611c97ce70737c0dc3dde63757fab669ca4c76e55a8342f0392727",
    "cluster_band_3.csv": "770e672965cbb4f2bcef57697913b7a04703133d7b023a8929dc0cb8f673c6de",
    "cluster_band_4.csv": "e3f11ae9fb9fcbf423fd0d2983fada6558bc27ce339d4d60c151eea1f995b39f",
    "clusters_spectral.json": "cc8d5bd95460bf36df006fc25eb00082d32277e58e75594232aa3cc0292b8ee8",
    "clusters_topic.json": "134fdc382493eafc5ed7e7cf5d445c004e32a56cbd42124a8fb58e2df0b89e8f",
    "cohort_pre.json": "aa53ed9e855d0a3b71f53ec8f86e6824232b2105bb479a95cc2c3ecb4f02c739",
    "compare.json": "e9d1c98402f47d50066111bd30d6b06d208aeacc672e1ffe84da6d75108fadcf",
    "corpus.npz": "db1df67bb3ba8d525ea45d3245516048bb4f8afdd9f14c3ee4b43bea0635bb36",
    "counts_aggregate.csv": "4a63e319a96e2240f7c346f4fd3a278f61753ea64909bbebdfac18ab56930b4a",
    "counts_pre.csv": "d01e704d015641314d8ddefd39bc9db2461481447496e6333710f4e94e9c068c",
    "crosstab.csv": "1906f108aed94b0cfad74a2533af8aeaecd6f94fcf8f86872a89e80e72b1897e",
    "eigenvalues.csv": "47203d03c65c77d035db4897e50eb824563208db1cc021e3394f2baa2052930d",
    "embedding.csv": "b63d0fab0b3f2d085e0f62ab56c3eabafb94a71501b7029e29fbc2cdcc12b02b",
    "labels.json": "6f09b83c4551a35e6e0010a592fe941e329e859e2e1abe5ff6411a2209867475",
    "parse_report.json": "2bb21b190ba043de5dde5995270a0c99d07f2616640b782e2531eba5aef71895",
    "records.jsonl": "5678b76b7dbe13191b5d1ad35cdc65539d8fc0559c22c4defc58ef15cc5efd03",
    "report.json": "668a053b9bed0fc72613ea57901dcf02f769ed505f7910c7b4aaba9401958aaa",
    "retweet_network.json": "3d1bfe9f71286caf8000fcf7140096c6aabbc332090f05e2de977c37031f5067",
    "spectra_pre.csv": "962516224785f0c9366234de89071c49c0fc6ba8d2d6217e00bb041d8dbb9e22",
    "strategy.json": "ac4a23681b1b899167a68384cc22136725b291124a3f46651cc0e52d0c3f1949",
    "topic_edges.csv": "c97d5bf30b5a4287525e559d60c439ecf93cb1f1ac227f3dc54c1e587abca886",
    "topic_top_terms.csv": "8dbb335fde4f27c0b058b9fb62d90753606aaaba439b3adcc389e6359d05d1a2",
}


def _artifact_digests(outdir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name.startswith("manifest_"):
            continue
        data = path.read_bytes()
        if path.name in ("parse_report.json", "report.json"):
            data = data.replace(str(outdir).encode(), b"<out>")
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


# sha256 of every manifest of ``pipeline_dir``, as _manifest_digests reads it
MANIFEST_DIGESTS = {
    "manifest_cluster_spectral.json": "74e5ce7b927a108bb29b560656d6d769845d6ca5dcea87769ad33b137c9c0f74",
    "manifest_cluster_topic.json": "aae9119672ce109d8b32ebd7afe1eacb85e492aaa2559635fa0bed9e540028c2",
    "manifest_compare.json": "5f3be6c53dbd27b0593492e6df1b0682b99d32ef6717c4ea81df9498720c2d74",
    "manifest_counts.json": "de77723bdfbd31e4e56b7afafd93072549ea0fb3fc198b72136b0e59e51f5200",
    "manifest_ingest.json": "c02e24532bb1f52afac3d8bc7152c874d1daf0c3ee25f33b645f2d5b5984a908",
    "manifest_report.json": "6d09969fbb3156ff3ae0517fe7aab96ab8aa60515fb6d72b8a1b5db93a33bfb9",
    "manifest_spectra.json": "255a264eaaa3eb1e36bfebead40b53012bd7e3c1e436fff21c64d7d13ddf4d2d",
    "manifest_strategy.json": "9dc323aea0ebc4bb2c471ab64f29ec102bafb3324a29ec94b10fd10e60c2b56b",
    "manifest_synth.json": "6f66fc0161fff074a470600028b54b02f364b99727bdb0ba7e5ff1b6956eac3c",
}


def _manifest_digests(outdir: Path) -> dict[str, str]:
    """sha256 of each manifest with every library version replaced by
    "<version>". A manifest whose config names the run directory (ingest's
    input) has it replaced by "<out>", and its config_sha256, which hashes
    that directory, by "<sha256>". Every config_sha256 must first be the
    sha256 of the recorded config as sorted, compact JSON."""
    out = {}
    for path in sorted(outdir.glob("manifest_*.json")):
        data = path.read_bytes()
        doc = json.loads(data)
        canon = json.dumps(doc["config"], sort_keys=True).encode()
        assert doc["config_sha256"] == hashlib.sha256(canon).hexdigest(), path.name
        if str(outdir).encode() in data:
            data = data.replace(doc["config_sha256"].encode(), b"<sha256>")
            data = data.replace(str(outdir).encode(), b"<out>")
        data = re.sub(rb'("(?:numpy|python|tweetdyn)": )"[^"]*"', rb'\1"<version>"', data)
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.fixture(scope="session")
def config_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("config") / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory, config_path) -> Path:
    outdir = tmp_path_factory.mktemp("pipeline")
    run_pipeline(outdir, config_path)
    return outdir


class TestPipelineArtifacts:
    def test_every_manifest_ok(self, pipeline_dir):
        manifests = sorted(pipeline_dir.glob("manifest_*.json"))
        assert len(manifests) == len(PIPELINE)
        for m in manifests:
            doc = json.loads(m.read_text())
            assert doc["status"] == "ok", m.name
            assert doc["error"] is None
            for artifact in doc["artifacts"]:
                assert (pipeline_dir / artifact).exists(), artifact
            assert doc["config"]["seed"] == 99
            assert "config_sha256" in doc and "versions" in doc

    def test_manifests_list_every_file_of_the_directory(self, pipeline_dir):
        # a write that bypasses StageContext.artifact leaves a file no
        # manifest lists; records.jsonl is listed by both synth and ingest
        manifests = {p.name for p in pipeline_dir.glob("manifest_*.json")}
        listed = {
            name
            for m in manifests
            for name in json.loads((pipeline_dir / m).read_text())["artifacts"]
        }
        assert {p.name for p in pipeline_dir.iterdir()} == manifests | listed

    def test_every_needed_file_is_listed_by_its_maker(self, pipeline_dir):
        needs = [
            (stage, name, maker) for stage in cli.STAGES for name, maker in stage.needs.items()
        ]
        assert needs
        for stage, name, maker in needs:
            # "counts (or synth --kind changepoint)" is made by counts
            manifest = pipeline_dir / f"manifest_{maker.split()[0].replace('-', '_')}.json"
            assert name in json.loads(manifest.read_text())["artifacts"], (stage.name, name)

    def test_ingest_outputs(self, pipeline_dir):
        users = json.loads((pipeline_dir / "campaign_users.json").read_text())
        assert len(users) == 32  # 4 groups x 8 members
        report = json.loads((pipeline_dir / "parse_report.json").read_text())
        (path,) = report.keys()
        assert report[path]["rejected"] == 0
        network = json.loads((pipeline_dir / "retweet_network.json").read_text())
        assert network["n_vertices"] >= 32
        assert network["n_edges"] > 0

    def test_counts_outputs(self, pipeline_dir):
        cohort = json.loads((pipeline_dir / "cohort_pre.json").read_text())
        assert len(cohort) == 32
        lines = (pipeline_dir / "counts_pre.csv").read_text().splitlines()
        assert lines[0] == "user_id,day_offset,count"
        assert len(lines) == 1 + 32 * 30  # one row per user-day
        agg = (pipeline_dir / "counts_aggregate.csv").read_text().splitlines()
        assert agg[0] == "day_offset,date,count"

    def test_strategy_outputs(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "strategy.json").read_text())
        assert len(doc["cohort"]) == 32
        assert set(doc["reference_counts"]) == set("ABCDEFG")
        assert doc["chi_square"] > doc["critical_value_p999_df6"]
        some_user = doc["cohort"][0]
        seq = doc["sequences"]["reference"][some_user]
        assert len(seq["day_offsets"]) == len(seq["symbols"])

    def test_spectra_outputs(self, pipeline_dir):
        lines = (pipeline_dir / "spectra_pre.csv").read_text().splitlines()
        assert lines[0] == "user_id,bin,magnitude"
        # 30-day window, 7-day detrend: 23 samples -> 12 bins per user
        assert len(lines) == 1 + 32 * 12
        band = (pipeline_dir / "band_pre.csv").read_text().splitlines()
        assert band[0] == "bin,min,q1,median,q3,max"
        assert len(band) == 1 + 12

    def test_cluster_spectral_outputs(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "clusters_spectral.json").read_text())
        assert doc["k"] == 4
        assert doc["n_users"] == 32
        members = [u for c in doc["clusters"].values() for u in c["members"]]
        assert len(members) == 32 and len(set(members)) == 32
        for c in doc["clusters"].values():
            assert c["medoid"] in c["members"]
            assert c["dominant_period_days"] > 0
        for c in range(1, 5):
            assert (pipeline_dir / f"cluster_band_{c}.csv").exists()
        emb = (pipeline_dir / "embedding.csv").read_text().splitlines()
        assert emb[0] == "user_id,pc1,pc2,pc3,cluster"
        assert len(emb) == 33

    def test_cluster_topic_recovers_planted_groups(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "clusters_topic.json").read_text())
        labels = json.loads((pipeline_dir / "labels.json").read_text())
        communities = doc["communities"]
        found = {u: i for i, comm in enumerate(communities) for u in comm}
        truth = {u: labels[u] for u in found}
        # planted vocabularies are disjoint: text communities = groups
        assert adjusted_rand_index(found, {u: hash(g) for u, g in truth.items()}) == 1.0
        assert doc["modularity"] > 0.5

    def test_compare_outputs(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "compare.json").read_text())
        assert set(doc) == {"diversity", "subclusters"}
        for key, sub in doc["subclusters"].items():
            assert key.startswith("s") and "_t" in key
            assert sub["dominant_period_days"] > 0
            assert len(sub["users"]) >= 1
        crosstab = (pipeline_dir / "crosstab.csv").read_text().splitlines()
        assert crosstab[0].startswith("spectral_cluster,community_1")

    def test_library_chain_reproduces_the_stage(self, pipeline_dir, config_path):
        config = load_config(config_path, {})
        corpus = Corpus.load(pipeline_dir / "corpus.npz", pipeline_dir / "records.jsonl")
        cohort = json.loads((pipeline_dir / "cohort_pre.json").read_text())
        table = timeseries.counts_by_user(corpus, config.pre_window, cohort)
        spectra = cohort_spectra(table, cohort, config.ma_window, config.denoise_q)
        embedding, assignment = cluster_spectra(
            spectra, config.pca_dims, config.kmedoids_k, config.seed, config.restarts
        )
        doc = json.loads((pipeline_dir / "clusters_spectral.json").read_text())
        assert doc["cost"] == cli._recorded(assignment.cost)
        assert len(assignment.medoids) == doc["k"]
        for c, cluster in doc["clusters"].items():
            assert cluster["members"] == assignment.members(int(c))
            assert cluster["medoid"] == assignment.medoids[int(c) - 1]
        with (pipeline_dir / "embedding.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [
            [u, *(f"{v:.12g}" for v in point), str(assignment.labels[u])]
            for u, point in zip(spectra.users, embedding.points.tolist())
        ]

    def test_report_headline(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "report.json").read_text())
        headline = doc["headline"]
        assert headline["n_spectral_clusters"] == 4
        assert headline["n_topic_communities"] == 4
        assert headline["strategy_chi_square"] > 0
        # changepoint was not run in this directory
        assert doc["sections"]["changepoint"] is None

    def test_artifact_bytes_pinned(self, pipeline_dir):
        assert _artifact_digests(pipeline_dir) == PIPELINE_DIGESTS

    def test_manifest_bytes_pinned(self, pipeline_dir):
        assert _manifest_digests(pipeline_dir) == MANIFEST_DIGESTS

    @pytest.mark.parametrize("kind", ["spectral", "topic"])
    def test_manifest_window_is_the_artifact_window(self, pipeline_dir, kind):
        # a window is its two ISO dates in a manifest's config and in an artifact alike
        manifest = json.loads((pipeline_dir / f"manifest_cluster_{kind}.json").read_text())
        artifact = json.loads((pipeline_dir / f"clusters_{kind}.json").read_text())
        assert manifest["config"]["pre_window"] == artifact["window"] == SMALL_CONFIG["pre_window"]
        assert manifest["config"]["bulk_window"] == SMALL_CONFIG["bulk_window"]


class TestIngestMemory:
    def test_retweet_graph_search_runs_with_the_corpus_gone(
        self, pipeline_dir, config_path, tmp_path, monkeypatch
    ):
        # the search sets ingest's peak; the corpus, its int columns and its
        # spill files are dropped once the graph is built
        corpora, searched = [], []
        read_tables, search = cli.read_tables, cli.modularity_communities

        def kept_read_tables(*args, **kwargs):
            corpus, reports = read_tables(*args, **kwargs)
            corpora.append(weakref.ref(corpus))
            return corpus, reports

        def checked_search(graph):
            assert [ref() for ref in corpora] == [None]
            searched.append(graph.n_vertices)
            return search(graph)

        monkeypatch.setattr(cli, "read_tables", kept_read_tables)
        monkeypatch.setattr(cli, "modularity_communities", checked_search)
        argv = ["ingest", "--config", str(config_path), "--out", str(tmp_path)]
        argv += ["--input", str(pipeline_dir / "records.jsonl"), "--format", "jsonl"]
        assert main(argv) == 0
        assert searched == [json.loads((tmp_path / "retweet_network.json").read_text())["n_vertices"]]


def _ingested_copy(pipeline_dir: Path, outdir: Path) -> Path:
    """A fresh output directory holding only ``pipeline_dir``'s ingest output."""
    outdir.mkdir()
    for name in ("records.jsonl", "corpus.npz"):
        shutil.copy(pipeline_dir / name, outdir / name)
    return outdir


class TestWindowOption:
    def test_post_window_writes_post_artifacts(self, tmp_path, pipeline_dir):
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        # the synthetic corpus covers the pre window; this post window is its
        # second half, 15 days
        config = tmp_path / "post.json"
        config.write_text(
            json.dumps({**SMALL_CONFIG, "post_window": ["2016-03-24", "2016-04-08"]})
        )
        argv = ["--window", "post", "--config", str(config), "--out", str(out)]
        assert main(["counts", *argv]) == 0
        assert main(["spectra", *argv]) == 0
        cohort = json.loads((out / "cohort_post.json").read_text())
        assert len(cohort) == 32
        lines = (out / "counts_post.csv").read_text().splitlines()
        assert len(lines) == 1 + 32 * 15
        # 15 days, 7-day detrend: 8 samples -> 5 bins per user
        assert len((out / "spectra_post.csv").read_text().splitlines()) == 1 + 32 * 5
        assert len((out / "band_post.csv").read_text().splitlines()) == 1 + 5
        manifest = json.loads((out / "manifest_spectra.json").read_text())
        assert manifest["artifacts"] == ["band_post.csv", "spectra_post.csv"]
        assert not list(out.glob("*_pre.*"))


class TestSynthSeries:
    def test_bytes_pinned(self, tmp_path):
        # the table the former `synth --kind series` wrote under the default
        # config: 4 reference groups x 10 users over the 244-day pre window
        config = cli.RunConfig()
        users, table, labels = generate_series(
            synth.reference_cluster_specs(members=10), config.pre_window, config.seed
        )
        cli.write_csv(
            tmp_path / "synth_series.csv",
            ["user_id", "day_offset", "count"],
            cli._long_form(users, table),
        )
        cli.write_json(tmp_path / "labels.json", labels)
        rows = (tmp_path / "synth_series.csv").read_text().splitlines()
        assert len(rows) == 1 + 40 * 244
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("synth_series.csv", "labels.json")
        }
        assert digests == {
            "synth_series.csv": "c0e2bd83cc42d0cf09ab7cc5b56426d20633ca9d2e5b9606d0584fe20ba6f085",
            "labels.json": "0037b2ec2b890462b50d3aa6d9bb1bc2b27b8de38727be1a465eaa9bbe1cd4ca",
        }


class TestChangepointCommand:
    def test_planted_rates_recovered(self, tmp_path, config_path):
        rc = main(
            ["synth", "--kind", "changepoint", "--config", str(config_path),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rc = main(["changepoint", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "changepoint.json").read_text())
        # defaults plant rates 1973.81 and 3647.54 switching at day 616
        assert doc["model1"]["slope"] == pytest.approx(1973.81, rel=0.02)
        assert doc["model2"]["slope"] == pytest.approx(3647.54, rel=0.02)
        assert doc["model1"]["r2_adj"] > 0.99
        assert doc["significant"] is True
        lo1, hi1 = doc["slope_interval_1"]
        lo2, hi2 = doc["slope_interval_2"]
        assert hi1 < lo2

    def test_bytes_pinned(self, tmp_path, config_path):
        argv = ["--config", str(config_path), "--out", str(tmp_path)]
        assert main(["synth", "--kind", "changepoint", *argv]) == 0
        assert main(["changepoint", *argv]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("counts_aggregate.csv", "changepoint.json")
        }
        assert digests == {
            "counts_aggregate.csv": "ee4b59ed1b4c8165c39a85a11154547315eac09fb4a1b6d4e80feea5df137080",
            "changepoint.json": "c735934da9a73921b0238a65068b2f89750d32070df614c6c9385029e2526f37",
        }
        assert _manifest_digests(tmp_path) == {
            "manifest_changepoint.json": "27161cccaeb98d3feaf46f28028d1cbd65e3da7d38c7a1ce175b6c08c7902bd9",
            "manifest_synth.json": "f8ae1dfef9ffda7bd0b0aeed85f11aadbd63206232cee0cfd90da4fb92208a55",
        }


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        w = DayWindow.of_length(date(2016, 3, 9), 12)
        s = CountSeries(window=w, values=np.arange(12))
        path = tmp_path / "series.csv"
        cli._write_series(path, s)
        loaded = cli.load_series_csv(path)
        assert loaded.window == s.window
        assert (loaded.values == s.values).all()


# the stage order perfbench times and `run` walks; windowed stages get "pre"
STAGE_ORDER = (
    "ingest", "counts", "changepoint", "strategy", "spectra",
    "cluster-spectral", "cluster-topic", "compare", "report",
)
WINDOWED = {"counts", "spectra", "cluster-spectral", "cluster-topic", "compare"}


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        # one synth; `run` and the nine stages one by one ingest its records.
        # The fit ranges are the bulk window's days 8-23 and 23-38: the pre
        # window's two halves, on either side of the planted strategy flip.
        config_path = tmp_path / "fit.json"
        config_path.write_text(json.dumps({
            **SMALL_CONFIG, "model1_range": [8, 23], "model1_t0": 8,
            "model2_range": [23, 38], "model2_t0": 23,
        }))
        src = tmp_path / "source"
        assert main(["synth", "--config", str(config_path), "--out", str(src)]) == 0
        inputs = ["--input", str(src / "records.jsonl"), "--format", "jsonl"]
        staged, whole = tmp_path / "staged", tmp_path / "run"
        for stage in STAGE_ORDER:
            argv = [stage, "--config", str(config_path), "--out", str(staged)]
            argv += inputs if stage == "ingest" else []
            argv += ["--window", "pre"] if stage in WINDOWED else []
            assert main(argv) == 0, f"step {stage} failed"
        argv = ["run", "--config", str(config_path), "--out", str(whole), "--window", "pre"]
        assert main(argv + inputs) == 0
        names = sorted(p.name for p in staged.iterdir())
        assert names == sorted(p.name for p in whole.iterdir())
        assert "manifest_changepoint.json" in names
        for name in names:
            a = (staged / name).read_bytes()
            b = (whole / name).read_bytes()
            assert a == b, f"{name} differs between run and the stages one by one"


class TestRunCommand:
    def test_stops_at_the_first_failed_stage(self, tmp_path, config_path):
        # no --input: ingest fails, and nothing after it runs
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "manifest_ingest.json").read_text())
        assert doc["status"] == "failed" and "--input" in doc["error"]
        assert [p.name for p in tmp_path.glob("manifest_*.json")] == ["manifest_ingest.json"]

    def test_takes_no_flag_of_synth(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--kind", "changepoint", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_benchmark_times_the_stages_run_runs(self):
        # perfbench/run.py is read, not imported: it is the benchmark's file
        tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
        found = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("STAGES", "WINDOW_STAGES")
        }
        assert found["STAGES"] == tuple(stage.name for stage in cli.PIPELINE) == STAGE_ORDER
        assert found["WINDOW_STAGES"] == {s.name for s in cli.STAGES if s.windowed} == WINDOWED


def _perfbench_module(name, monkeypatch):
    """A module of perfbench, loaded from its file, which stays as it is;
    it is in ``sys.modules`` for the test, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracedPass:
    """perfbench's traced pass wraps the package's functions with counters
    that read each call's arguments and result, so a result of another shape
    makes a counter raise inside its stage and fails every traced pass.
    ``tweetdyn run`` on perfbench's crowd inputs (seed 7), under perfbench's
    own ``Tracer`` and ``child.TARGETS``, must pass every stage, and every
    target the package still defines must record its counters."""

    def test_every_stage_passes_and_every_counter_records(self, tmp_path, monkeypatch):
        tracer_module = _perfbench_module("tracer", monkeypatch)
        child = _perfbench_module("child", monkeypatch)
        meta = json.loads(subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "gen.py"), "--workload", "crowd",
             "--seed", "7", "--out", str(tmp_path)],
            capture_output=True, text=True, check=True,
        ).stdout)
        out = tmp_path / "out"
        argv = ["run", "--out", str(out), "--window", "pre", "--format", meta["format"]]
        argv += ["--config", str(tmp_path / meta["config"])] if meta["config"] else []
        for table in meta["inputs"]:
            argv += ["--input", str(tmp_path / table["file"])]
        tracer = tracer_module.Tracer()
        absent = tracer.install("tweetdyn", child.TARGETS)
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        for stage in STAGE_ORDER:
            doc = json.loads((out / f"manifest_{stage.replace('-', '_')}.json").read_text())
            assert doc["status"] == "ok", stage
        for target, counters in child.TARGETS.items():
            if target in absent or not counters:
                continue
            spans = [s for s in tracer.spans if s.name == target]
            assert spans, f"{target} was never called"
            assert all(set(s.counts) == set(counters) for s in spans), target


class TestFailureModes:
    def test_bad_config_returns_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["counts", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_config_key_returns_2(self, tmp_path):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({"knn-k": 3}))
        assert main(["counts", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"kmedoids_k": "2"},
            {"sigma": "5"},
            {"restarts": 2.5},
            {"seed": True},
            {"language": 3},
            {"input_paths": "table.csv"},
            {"model1_range": [200]},
            {"pre_window": ["2016-03-09"]},
            {"column_map": {"tweet": "id"}},
            {"denoise_q": 1.5},
            {"active_day_fraction": -0.1},
            {"gamma_q": 1.0},
            {"kmedoids_k": 0},
            {"knn_k": 0},
            {"min_total_tweets": -1},
            {"model1_range": [616, 200]},
            {"model2_t0": 900},
            {"input_format": "xml"},
            {"column_map": {"tweet_id": 5}},
            {"column_map": {"tweet_id": ""}},
            {"column_map": {"text": ["tweet_text"]}},
            {"pre_window": 5},
            {"reference_window": 7},
            {"dynamic_p": 0.0},
            {"seed": -3},
            {"synth_rates": [-5.0, 10.0]},
            {"synth_change_day": 0},
            {"synth_change_day": 860},
            {"language": ""},
        ],
    )
    def test_mistyped_or_out_of_range_config_returns_2(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["counts", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest_counts.json").exists()

    @pytest.mark.parametrize(
        "window",
        [
            {"start": "2016-03-09", "end": "2016-04-08"},
            ["2016-03-09"],
            "2016-03-09",
            ["2016-03-09", "soon"],
            ["2016-04-08", "2016-03-09"],
        ],
    )
    def test_bad_window_names_its_key(self, tmp_path, caplog, window):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"post_window": window}))
        assert main(["counts", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "post_window" in caplog.text

    def test_negative_seed_flag_returns_2(self, tmp_path):
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest_synth.json").exists()

    def test_empty_language_flag_disables_the_filter(self, tmp_path):
        argv = ["synth", "--kind", "changepoint", "--language", "", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["config"]["language"] is None

    def test_ints_for_floats_and_lists_for_tuples_accepted(self, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({
            "sigma": 5, "active_day_fraction": 1, "model1_range": [200, 616],
            "input_paths": ["a.csv"], "synth_rates": [2000, 3000.5],
        }))
        config = load_config(path, {})
        assert config.sigma == 5 and config.model1_range == (200, 616)
        assert config.input_paths == ("a.csv",)

    def test_ma_window_set_from_config_file(self, tmp_path, pipeline_dir):
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        config = tmp_path / "ma5.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "ma_window": 5}))
        assert main(["spectra", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest_spectra.json").read_text())
        assert manifest["config"]["ma_window"] == 5
        # 30-day window, 5-day detrend: 25 samples -> 13 bins per user
        assert len((out / "band_pre.csv").read_text().splitlines()) == 1 + 13

    @pytest.mark.parametrize("flag", [["--input", "x.jsonl"], ["--format", "csv"]])
    def test_input_flags_belong_to_ingest(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["counts", *flag, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_config_file_returns_2(self, tmp_path):
        assert main(
            ["counts", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 2

    def test_failed_stage_writes_failed_manifest(self, tmp_path, config_path):
        # compare before any clustering has run
        rc = main(["compare", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "manifest_compare.json").read_text())
        assert doc["status"] == "failed"
        assert "clusters_spectral.json" in doc["error"]
        assert doc["artifacts"] == []

    def test_compare_refuses_clusters_of_another_window(self, tmp_path, pipeline_dir):
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        for name in ("clusters_spectral.json", "clusters_topic.json"):
            shutil.copy(pipeline_dir / name, out / name)
        shifted = tmp_path / "shifted.json"
        shifted.write_text(
            json.dumps({**SMALL_CONFIG, "pre_window": ["2016-03-12", "2016-04-05"]})
        )

        def compare(config):
            rc = main(["compare", "--config", str(config), "--out", str(out)])
            return rc, json.loads((out / "manifest_compare.json").read_text())

        rc, doc = compare(shifted)
        assert rc == 1 and doc["status"] == "failed"
        assert "clusters_spectral.json" in doc["error"]
        assert not (out / "compare.json").exists()
        # the topic clusters alone made for another window
        original = tmp_path / "original.json"
        original.write_text(json.dumps(SMALL_CONFIG))
        topic_doc = json.loads((out / "clusters_topic.json").read_text())
        topic_doc["window"] = ["2016-03-12", "2016-04-05"]
        (out / "clusters_topic.json").write_text(json.dumps(topic_doc))
        rc, doc = compare(original)
        assert rc == 1 and doc["status"] == "failed"
        assert "clusters_topic.json" in doc["error"]
        assert not (out / "compare.json").exists()

    @pytest.mark.parametrize("case", ["denoise_q", "no manifest", "failed manifest"])
    def test_compare_refuses_clusters_made_under_other_settings(
        self, tmp_path, pipeline_dir, case
    ):
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        for name in ("clusters_spectral.json", "clusters_topic.json",
                     "manifest_cluster_spectral.json"):
            shutil.copy(pipeline_dir / name, out / name)
        # the clusters were made under the default denoise_q, 0.33
        settings = {**SMALL_CONFIG, "denoise_q": 0.9} if case == "denoise_q" else SMALL_CONFIG
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        manifest = out / "manifest_cluster_spectral.json"
        if case == "no manifest":
            manifest.unlink()
        elif case == "failed manifest":
            doc = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**doc, "status": "failed"}))
        rc = main(["compare", "--config", str(config), "--out", str(out)])
        doc = json.loads((out / "manifest_compare.json").read_text())
        assert rc == 1 and doc["status"] == "failed"
        expect = "denoise_q" if case == "denoise_q" else "manifest_cluster_spectral.json"
        assert expect in doc["error"]
        assert not (out / "compare.json").exists()

    def test_compare_refuses_a_user_in_two_spectral_clusters(
        self, tmp_path, pipeline_dir, config_path
    ):
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        for name in ("clusters_spectral.json", "clusters_topic.json",
                     "manifest_cluster_spectral.json"):
            shutil.copy(pipeline_dir / name, out / name)
        spec_doc = json.loads((out / "clusters_spectral.json").read_text())
        clusters = spec_doc["clusters"]
        user = clusters["1"]["members"][0]
        clusters["2"]["members"].append(user)
        (out / "clusters_spectral.json").write_text(json.dumps(spec_doc))
        rc = main(["compare", "--config", str(config_path), "--out", str(out)])
        doc = json.loads((out / "manifest_compare.json").read_text())
        assert rc == 1 and doc["status"] == "failed"
        assert user in doc["error"]
        assert not (out / "compare.json").exists()

    def test_compare_takes_settings_as_the_manifest_records_them(self, tmp_path, pipeline_dir):
        # a manifest keeps floats at 12 significant digits, so it records
        # this denoise_q as 0.123456789012; compare must still take the
        # clusters made under it
        out = _ingested_copy(pipeline_dir, tmp_path / "out")
        shutil.copy(pipeline_dir / "clusters_topic.json", out / "clusters_topic.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "denoise_q": 0.1234567890123}))
        argv = ["--config", str(config), "--out", str(out)]
        assert main(["cluster-spectral", *argv]) == 0
        manifest = json.loads((out / "manifest_cluster_spectral.json").read_text())
        assert manifest["config"]["denoise_q"] == 0.123456789012
        assert main(["compare", *argv]) == 0
        assert (out / "compare.json").exists()

    def test_changepoint_needs_counts_aggregate(self, tmp_path, config_path):
        rc = main(["changepoint", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "manifest_changepoint.json").read_text())
        assert doc["status"] == "failed"
        assert "counts_aggregate.csv" in doc["error"] and "run counts" in doc["error"]
        assert not (tmp_path / "changepoint.json").exists()

    def test_ingest_without_input_fails_cleanly(self, tmp_path, config_path):
        rc = main(["ingest", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "manifest_ingest.json").read_text())
        assert doc["status"] == "failed"

    def test_cli_seed_overrides_config(self, tmp_path, config_path):
        rc = main(
            ["synth", "--kind", "changepoint", "--config", str(config_path),
             "--out", str(tmp_path), "--seed", "123"]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert doc["config"]["seed"] == 123


class TestConstantRateCluster:
    """Users who post the same count every day detrend to zeros, and
    k-medoids gathers them into one cluster whose band has no oscillatory
    power: its dominant period is written as null, and neither
    cluster-spectral nor compare fails."""

    def test_flat_cluster_has_no_period(self, tmp_path):
        two_pi = 2.0 * math.pi
        dynamics = [
            synth.GroupSpec(f"p{period}", 20.0, 2.0, 6, (two_pi / period,), ((6.0, 8.0),))
            for period in (4, 7, 10)
        ]
        dynamics.append(synth.GroupSpec("flat", 12.0, 0.0, 6))
        spec = synth.CorpusSpec(
            groups=tuple(
                synth.GroupCorpusSpec(
                    dynamics=d,
                    vocabulary=synth.planted_vocabulary(d.group_id, 20),
                    strategy_pre=(1.0, 0.0, 0.0),
                    strategy_post=(1.0, 0.0, 0.0),
                )
                for d in dynamics
            ),
            noise_vocabulary=(),
            noise_weight=0.0,
            tokens_per_tweet=6,
            changepoint_day=None,
        )
        config = {**SMALL_CONFIG, "pre_window": ["2016-03-09", "2016-05-08"], "seed": 0}
        window = load_config(None, config).pre_window
        corpus, _ = synth.generate_corpus(spec, window, seed=0)
        write_records(corpus, tmp_path / "records.jsonl")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path), "--out", str(tmp_path)]
        assert main(["ingest", "--input", str(tmp_path / "records.jsonl"), *argv]) == 0
        for stage in ("cluster-spectral", "cluster-topic", "compare"):
            main([stage, *argv])
            doc = json.loads((tmp_path / f"manifest_{stage.replace('-', '_')}.json").read_text())
            assert doc["status"] == "ok", doc["error"]
        flat_users = [f"flat-u{j:02d}" for j in range(6)]
        clusters = json.loads((tmp_path / "clusters_spectral.json").read_text())["clusters"]
        periods = {tuple(c["members"]): c["dominant_period_days"] for c in clusters.values()}
        assert periods.pop(tuple(flat_users)) is None
        assert all(p > 0 for p in periods.values())
        subclusters = json.loads((tmp_path / "compare.json").read_text())["subclusters"]
        periods = {tuple(s["users"]): s["dominant_period_days"] for s in subclusters.values()}
        assert periods.pop(tuple(flat_users)) is None
        assert all(p > 0 for p in periods.values())


class TestRemappedColumns:
    def test_stages_after_ingest_read_the_normalized_schema(self, tmp_path, pipeline_dir):
        columns = ColumnMap(
            tweet_id="id", user_id="author", timestamp="when", language="lang",
            is_retweet="rt", retweeted_user_id="rt_author", text="body",
        )
        corpus, _ = parse_table(pipeline_dir / "records.jsonl", "jsonl", ColumnMap())
        table = tmp_path / "renamed.csv"
        write_csv(corpus, table, columns)
        config = tmp_path / "remapped.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "column_map": vars(columns)}))
        argv = ["--config", str(config), "--out", str(tmp_path / "out")]
        assert main(["ingest", "--input", str(table), "--format", "csv", *argv]) == 0
        assert main(["counts", *argv]) == 0
        assert main(["strategy", *argv]) == 0
        cohort = json.loads((tmp_path / "out" / "cohort_pre.json").read_text())
        assert cohort == json.loads((pipeline_dir / "cohort_pre.json").read_text())
        assert len(cohort) == 32
        doc = json.loads((tmp_path / "out" / "strategy.json").read_text())
        assert len(doc["cohort"]) == 32


# SMALL_CONFIG with fit ranges inside its 92-day bulk window, so that `run`
# gets past changepoint
RUN_CONFIG = {
    **SMALL_CONFIG, "model1_range": [8, 23], "model1_t0": 8,
    "model2_range": [23, 38], "model2_t0": 23,
}


def test_run_selects_each_cohort_once(tmp_path, pipeline_dir):
    config_path = tmp_path / "fit.json"
    config_path.write_text(json.dumps(RUN_CONFIG))
    argv = [
        "run", "--config", str(config_path), "--out", str(tmp_path / "out"),
        "--input", str(pipeline_dir / "records.jsonl"), "--format", "jsonl",
    ]
    with mock.patch.object(cli, "select_cohort", wraps=cli.select_cohort) as select:
        assert main(argv) == 0
    windows = [c.args[2] for c in select.call_args_list]
    config = load_config(config_path, {})
    # three distinct windows, each selected once
    assert len(windows) == 3
    assert set(windows) == {config.pre_window, config.reference_window, config.comparison_window}


def test_run_builds_the_window_count_table_once(tmp_path, pipeline_dir):
    # counts writes the --window cohort's table; spectra, cluster-spectral
    # and compare transform the same table
    config_path = tmp_path / "fit.json"
    config_path.write_text(json.dumps(RUN_CONFIG))
    argv = [
        "run", "--config", str(config_path), "--out", str(tmp_path / "out"),
        "--input", str(pipeline_dir / "records.jsonl"), "--format", "jsonl",
    ]
    with mock.patch.object(
        timeseries, "counts_by_user", wraps=timeseries.counts_by_user
    ) as counts_by_user:
        assert main(argv) == 0
    assert counts_by_user.call_count == 1


def test_run_leaves_scipy_unimported(tmp_path, pipeline_dir):
    # scipy is a test dependency only: no stage may import any of it
    config_path = tmp_path / "fit.json"
    config_path.write_text(json.dumps(RUN_CONFIG))
    out = tmp_path / "out"
    argv = [
        "run", "--config", str(config_path), "--out", str(out), "--window", "pre",
        "--input", str(pipeline_dir / "records.jsonl"), "--format", "jsonl",
    ]
    code = (
        "import sys\n"
        "from tweetdyn.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)\n"
    )
    src = str(Path(tweetdyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    manifests = sorted(p.name for p in out.glob("manifest_*.json"))
    assert manifests == sorted(f"manifest_{s.replace('-', '_')}.json" for s in STAGE_ORDER)


@dataclasses.dataclass(frozen=True)
class _Fit:
    slope: float
    window: DayWindow
    tags: tuple


_DAY_WINDOWS = st.builds(
    DayWindow.of_length, st.dates(max_value=date(9000, 1, 1)), st.integers(1, 400)
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["é", "Ж", " ", "\ud800", "\U0001f600", '"\\/\x00', ""]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.dates(),
    st.datetimes(),
    _DAY_WINDOWS,
    st.frozensets(st.integers(), max_size=4),
    st.sets(st.text(max_size=3), max_size=4),
    hnp.arrays(
        st.sampled_from([np.int64, np.float64, np.float32, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.text(max_size=2)), children, max_size=4),
        st.builds(_Fit, st.floats(), _DAY_WINDOWS, st.lists(children, max_size=2).map(tuple)),
    )


_JSON_PAYLOADS = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=25)


class TestArtifactWriters:
    """``write_json`` walks a payload once and ``write_csv`` formats whole
    columns; both write the bytes of the writers they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_PAYLOADS)
    def test_json_is_the_two_walk_text(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "out.json")
            cli.write_json(path, payload)
            expected = json.dumps(ref._plain(payload), sort_keys=True, indent=2) + "\n"
            assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "payload",
        [np.bool_(True), {"a": [1, np.bool_(False)]}, [object()], {"x": {1: complex(1, 2)}}],
    )
    def test_json_refuses_what_json_dumps_refuses(self, tmp_path, payload):
        with pytest.raises(TypeError):
            json.dumps(ref._plain(payload), sort_keys=True, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli.write_json(tmp_path / "out.json", payload)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_csv_is_the_cell_by_cell_text(self, n, data):
        mixed = st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
            st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
        )
        column = st.one_of(
            st.lists(st.text(max_size=4), min_size=n, max_size=n),
            st.lists(st.integers(), min_size=n, max_size=n),
            st.lists(st.floats(), min_size=n, max_size=n),
            st.lists(mixed, min_size=n, max_size=n),
            st.just(range(n)),
            hnp.arrays(st.sampled_from([np.int64, np.float64, np.float32, np.bool_]), n),
            # a NumPy str array drops trailing NULs, so its cells have none
            hnp.arrays(
                st.sampled_from(["U3", object]), n,
                elements=st.text(st.characters(exclude_characters="\x00"), max_size=3),
            ),
        )
        columns = data.draw(st.lists(column, min_size=1, max_size=4))
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            try:
                ref.write_csv_rows(old, header, list(zip(*columns)))
            except UnicodeEncodeError:
                # a lone surrogate has no UTF-8 bytes: both writers refuse it
                with pytest.raises(UnicodeEncodeError):
                    cli.write_csv(new, header, columns)
                return
            cli.write_csv(new, header, columns)
            assert new.read_bytes() == old.read_bytes()
