"""Pipeline benchmark for tweetdyn: nine stages on three generated workloads.

One run generates a workload's inputs from ``--seed`` in a separate process,
measures set-up time in fresh interpreters, then runs the whole pipeline
(ingest, counts, changepoint, strategy, spectra, cluster-spectral,
cluster-topic, compare, report) through ``tweetdyn.cli.main`` in one fresh
single-threaded process per pass, as many passes as fit in ``--seconds``.
Every pass is checked for correctness. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass with ``--trace 1``. The line before it holds the details
(inputs' sha256, artifact sha256, every sample).

usage:
  python3 perfbench/run.py --workload crowd --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all --seed 1      # every workload, as a table

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from gen import sha256_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("campaign", "crowd", "chatter")

# scripts/run_dataset.sh order; the stages that take --window get "pre".
STAGES = (
    "ingest",
    "counts",
    "changepoint",
    "strategy",
    "spectra",
    "cluster-spectral",
    "cluster-topic",
    "compare",
    "report",
)
WINDOW_STAGES = {"counts", "spectra", "cluster-spectral", "cluster-topic", "compare"}
HEADLINE_KEYS = (
    "rate_before",
    "rate_after",
    "changepoint_significant",
    "strategy_chi_square",
    "n_topic_communities",
    "topic_modularity",
    "n_spectral_clusters",
)
RATE_RATIO_TOLERANCE = 0.05  # chatter: fitted after/before rate vs planted
SETUP_SAMPLES = 3  # set-up-only interpreters at the start, after one warm-up
SETUP_PER_PASS = 1  # and after every pass, so the samples span the whole run
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "tweets_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "spectral_ari": "ratio",
    "topic_ari": "ratio",
}

# Per-layer metric of a wrapped function -> (span name, field, unit). Field
# "s" is summed self time, "calls" the call count; other fields are counters
# summed over calls.
FUNCTION_METRICS = {
    "cli.write_json.s": ("cli.write_json", "s", "s"),
    "cli.write_csv.s": ("cli.write_csv", "s", "s"),
    "ingest.parse_records.s": ("ingest.parse_records", "s", "s"),
    "ingest.parse_records.calls": ("ingest.parse_records", "calls", "count"),
    "ingest.records_parsed": ("ingest.parse_records", "rows", "rows"),
    "ingest.rows_rejected": ("ingest.parse_records", "rejected", "rows"),
    "ingest.write_records.s": ("ingest.write_records", "s", "s"),
    "ingest.select_cohort.s": ("ingest.select_cohort", "s", "s"),
    "ingest.select_cohort.calls": ("ingest.select_cohort", "calls", "count"),
    "ingest.retweet_network.s": ("ingest.retweet_network", "s", "s"),
    "timeseries.daily_counts.s": ("timeseries.daily_counts", "s", "s"),
    "timeseries.counts_by_user.s": ("timeseries.counts_by_user", "s", "s"),
    "timeseries.detrend.s": ("timeseries.detrend", "s", "s"),
    "timeseries.fit_segment.s": ("timeseries.fit_segment", "s", "s"),
    "strategy.symbol_sequence.s": ("strategy.symbol_sequence", "s", "s"),
    "strategy.symbol_sequence.calls": ("strategy.symbol_sequence", "calls", "count"),
    "strategy.symbol_distribution.s": ("strategy.symbol_distribution", "s", "s"),
    "spectral.kmedoids.s": ("spectral.kmedoids", "s", "s"),
    "spectral.kmedoids.n": ("spectral.kmedoids", "n", "count"),
    "spectral.dft.s": ("spectral.dft", "s", "s"),
    "spectral.denoise.s": ("spectral.denoise", "s", "s"),
    "spectral.pca_embed.s": ("spectral.pca_embed", "s", "s"),
    "spectral.fit_fourier.s": ("spectral.fit_fourier", "s", "s"),
    "spectral.band_summary.s": ("spectral.band_summary", "s", "s"),
    "topic.topic_communities.s": ("topic.topic_communities", "s", "s"),
    "topic.build_documents.s": ("topic.build_documents", "s", "s"),
    "topic.stem_and_filter.s": ("topic.stem_and_filter", "s", "s"),
    "topic.stem_and_filter.tokens": ("topic.stem_and_filter", "tokens", "count"),
    "topic.gamma_keywords.s": ("topic.gamma_keywords", "s", "s"),
    "topic.similarity_graph.s": ("topic.similarity_graph", "s", "s"),
    "topic.similarity_graph.n": ("topic.similarity_graph", "n", "count"),
    "graphs.modularity_communities.s": ("graphs.modularity_communities", "s", "s"),
    "graphs.modularity_communities.calls": ("graphs.modularity_communities", "calls", "count"),
    "graphs.modularity_communities.edges": ("graphs.modularity_communities", "edges", "count"),
    "graphs.modularity.s": ("graphs.modularity", "s", "s"),
    "compare.cross_tab.s": ("compare.cross_tab", "s", "s"),
    "compare.intersect_subcluster.s": ("compare.intersect_subcluster", "s", "s"),
}
PER_LAYER = {
    **{f"stage.{name}.s": "s" for name in STAGES},
    "cli.self.s": "s",
    **{name: unit for name, (_, _, unit) in FUNCTION_METRICS.items()},
    "cli.artifact_bytes": "bytes",
    "pipeline.cpu_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def supported_percentile(values: list[float]) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it,
    else the maximum."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", float(statistics.quantiles(values, n=100)[p - 1])
    return "max", float(max(values))


def adjusted_rand_index(truth: dict[str, int], found: dict[str, int]) -> float:
    """ARI of ``found`` against ``truth`` over the users ``found`` labels."""
    users = sorted(found)
    pairs = Counter((truth[u], found[u]) for u in users)
    rows = Counter(truth[u] for u in users)
    cols = Counter(found[u] for u in users)

    def comb2(x: int) -> float:
        return x * (x - 1) / 2.0

    index = sum(comb2(v) for v in pairs.values())
    a = sum(comb2(v) for v in rows.values())
    b = sum(comb2(v) for v in cols.values())
    expected = a * b / comb2(len(users))
    maximum = (a + b) / 2.0
    return 1.0 if maximum == expected else (index - expected) / (maximum - expected)


def stage_argv(meta: dict, inputs: Path, out: Path) -> list[list]:
    """Each stage's argv, as scripts/run_dataset.sh passes it."""
    common = ["--out", str(out)]
    if meta["config"]:
        common += ["--config", str(inputs / meta["config"])]
    stages = []
    for name in STAGES:
        argv = [name, *common]
        if name == "ingest":
            argv += ["--format", meta["format"]]
            for table in meta["inputs"]:
                argv += ["--input", str(inputs / table["file"])]
        if name in WINDOW_STAGES:
            argv += ["--window", "pre"]
        stages.append([name, argv])
    return stages


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(spec: dict, spec_path: Path, log: Path, timeout: float) -> dict:
    """Run one timed child and return its JSON result."""
    spec_path.write_text(json.dumps(spec))
    with log.open("a") as err:
        started = now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(started), str(spec_path)],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited {proc.returncode}; see {log}")
    return json.loads(out.strip().splitlines()[-1])


def artifact_digest(out: Path) -> tuple[str, dict[str, str], int]:
    """sha256 over the artifact set, per-file digests and total bytes."""
    files = {p.name: sha256_of(p) for p in sorted(out.iterdir()) if p.is_file()}
    total = sum((out / name).stat().st_size for name in files)
    canon = "".join(f"{name}\0{digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(canon.encode()).hexdigest(), files, total


def check_pass(
    workload: str, meta: dict, stages: list[dict], out: Path, labels: dict[str, int]
) -> tuple[dict[str, str], dict, dict[str, str]]:
    """Failed stages (name -> reason), the answers of one pass and the stage
    that wrote each artifact."""
    failed: dict[str, str] = {}
    producer: dict[str, str] = {}
    for st in stages:
        name = st["name"]
        manifest = out / f"manifest_{name.replace('-', '_')}.json"
        if st["rc"] != 0:
            failed[name] = f"returned {st['rc']}"
            continue
        if not manifest.exists():
            failed[name] = "no manifest"
            continue
        doc = json.loads(manifest.read_text())
        if doc.get("status") != "ok":
            failed[name] = f"manifest status {doc.get('status')}"
            continue
        producer[manifest.name] = name
        for artifact in doc.get("artifacts", []):
            producer[artifact] = name

    answers: dict = {}

    def load(name: str, stage: str):
        if stage in failed:
            return None
        try:
            return json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            failed[stage] = f"{name}: {exc}"
            return None

    report = load("report.json", "report")
    if report is not None:
        missing = [k for k in HEADLINE_KEYS if k not in report.get("headline", {})]
        if missing:
            failed["report"] = f"headline lacks {missing}"
    strategy = load("strategy.json", "strategy")
    if strategy is not None and workload in ("campaign", "crowd"):
        answers["chi_square"] = strategy["chi_square"]
        if not strategy["chi_square"] > strategy["critical_value_p999_df6"]:
            failed["strategy"] = "planted strategy flip not detected"
    changepoint = load("changepoint.json", "changepoint")
    if changepoint is not None:
        ratio = changepoint["model2"]["slope"] / changepoint["model1"]["slope"]
        answers["rate_ratio"] = ratio
        answers["changepoint_significant"] = changepoint["significant"]
        planted = meta["planted"].get("rate_ratio")
        if planted is not None and abs(ratio / planted - 1.0) > RATE_RATIO_TOLERANCE:
            failed["changepoint"] = f"rate ratio {ratio:.3f}, planted {planted}"
    spectral = load("clusters_spectral.json", "cluster-spectral")
    if spectral is not None:
        found = {
            u: int(c) for c, info in spectral["clusters"].items() for u in info["members"]
        }
        answers["spectral_ari"] = adjusted_rand_index(labels, found)
    topic = load("clusters_topic.json", "cluster-topic")
    if topic is not None:
        found = {u: i for i, part in enumerate(topic["communities"]) for u in part}
        answers["topic_ari"] = adjusted_rand_index(labels, found)
    return failed, answers, producer


def generate(workload: str, seed: int, inputs: Path, log: Path) -> dict:
    with log.open("a") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)],
            stdout=subprocess.PIPE, stderr=err, text=True, check=True, timeout=120,
        )
    return json.loads(proc.stdout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result line and the detail line."""
    began = now()
    # Stages get paths relative to ROOT, their working directory, so the
    # manifests (which record input paths) and the artifact sha256 are the
    # same in every checkout.
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    try:
        inputs = work / "inputs"
        meta = generate(workload, seed, inputs, log)
        labels = json.loads((inputs / meta["labels"]).read_text())
        setup_spec = {"src": str(SRC), "stages": [], "trace": False, "spans": None}
        spawn(setup_spec, work / "spec.json", log, 60)  # warm-up: byte-compiles once
        setups = [
            spawn(setup_spec, work / "spec.json", log, 60)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]

        passes: list[dict] = []
        failures: list[dict] = []
        reference: dict[str, str] | None = None
        artifact_sha = None
        measure_start = now()
        while True:
            traced = trace and len(passes) % 2 == 1
            out = work / "out"
            spec = {
                "src": str(SRC),
                "stages": stage_argv(meta, inputs.relative_to(ROOT), out.relative_to(ROOT)),
                "trace": traced,
                "spans": str(work / "spans.json"),
            }
            budget = RUN_LIMIT_S - (now() - began)
            t0 = now()
            result = spawn(spec, work / "spec.json", log, budget)
            result["wall_s"] = now() - t0
            result["traced"] = traced
            failed, answers, producer = check_pass(
                workload, meta, result["stages"], out, labels
            )
            digest, files, total = artifact_digest(out)
            result["artifact_bytes"] = total
            if reference is None:
                reference, artifact_sha = files, digest
            else:
                for name in set(files) | set(reference):
                    if files.get(name) != reference.get(name):
                        stage = producer.get(name, "report")
                        failed.setdefault(stage, f"{name} differs from the first pass")
            result["answers"] = answers
            failures += [{"pass": len(passes), "stage": s, "why": w} for s, w in failed.items()]
            shutil.rmtree(out)
            passes.append(result)
            setups += [
                spawn(setup_spec, work / "spec.json", log, 60)["setup_s"]
                for _ in range(SETUP_PER_PASS)
            ]
            # Stop before a pass as slow as the slowest so far would overrun.
            elapsed = now() - measure_start
            enough = len(passes) >= (2 if trace else 1)
            if enough and elapsed + max(p["wall_s"] for p in passes) > seconds:
                break
        if trace:
            shutil.copyfile(work / "spans.json", WORK / f"spans-{workload}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(STAGES) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    samples = {
        "setup_s": setups + [p["setup_s"] for p in plain],
        "pipeline_s": [p["pipeline_s"] for p in plain],
        "tweets_per_s": [meta["rows"] / p["pipeline_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    first = passes[0]["answers"]
    values = {name: median(v) for name, v in samples.items()}
    for name in ("spectral_ari", "topic_ari"):
        values[name] = first.get(name, 0.0)
    residual = max((p.get("stage_residual_s", 0.0) for p in passes), default=0.0)
    correct = not failures and residual < 1e-6

    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in layer_metrics(passes).items()
        }
    else:
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": meta["inputs"],
        "rows": meta["rows"],
        "planted": meta["planted"],
        "artifact_sha256": artifact_sha,
        "passes": len(passes),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "answers": first,
        "absent": sorted({a for p in passes for a in p.get("absent", [])}),
        "stage_residual_s": residual,
        "samples": samples,
        "percentiles": {
            name: dict(zip(("label", "value"), supported_percentile(v)))
            for name, v in samples.items()
        },
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer values, each the median over the traced passes.

    ``stage.<name>.s`` is the stage span's wall time; ``cli.self.s`` is the
    stage spans' own self time, spent in no wrapped function.
    """
    per_pass: list[dict[str, float]] = []
    for p in passes:
        if not p["traced"]:
            continue
        layers = p["layers"]
        row = {f"{span}.s": seconds for span, seconds in p["stage_spans"].items()}
        row["cli.self.s"] = sum(layers[f"stage.{name}"]["s"] for name in STAGES)
        for metric, (span, field, _) in FUNCTION_METRICS.items():
            row[metric] = layers.get(span, {}).get(field, 0.0)
        row["cli.artifact_bytes"] = p["artifact_bytes"]
        row["pipeline.cpu_s"] = p["cpu_s"]
        row["trace.pipeline_s"] = p["pipeline_s"]
        per_pass.append(row)
    out = {name: median([row[name] for row in per_pass]) for name in per_pass[0]}
    plain = [p["pipeline_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = out["trace.pipeline_s"] - median(plain)
    return out


def print_table(seed: int, seconds: float) -> bool:
    """Every workload once, every end-to-end metric with its spread."""
    ok = True
    print(f"{'workload':9} {'metric':13} {'unit':7} {'median':>12} {'pct':>5} {'value':>12} {'n':>3}")
    for workload in WORKLOADS:
        result, detail = run_workload(workload, seed, seconds, trace=False)
        ok &= result["correct"]
        for name, unit in END_TO_END.items():
            value = result["metrics"][name]["value"]
            if name in detail["samples"]:
                label, pct = supported_percentile(detail["samples"][name])
                n = len(detail["samples"][name])
            else:
                label, pct, n = "-", value, 1
            print(f"{workload:9} {name:13} {unit:7} {value:12.4f} {label:>5} {pct:12.4f} {n:3d}")
        print(f"{workload:9} {'failed_frac':13} {'ratio':7} {detail['failed_frac']:12.4f} "
              f"{'-':>5} {detail['failed_frac']:12.4f} {result['attempted']:3d}")
        print(f"{workload:9} artifact_sha256 {detail['artifact_sha256']}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tweetdyn pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tweetdyn" / "cli.py").is_file():
        print(f"no tweetdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if print_table(args.seed, args.seconds) else 1
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
