"""The timed process of the pipeline benchmark.

One fresh interpreter imports ``tweetdyn.cli`` and runs the stages through
its public entry point ``cli.main(argv)``, in order, in this one process.
The parent starts it, so input generation never counts toward its set-up
time or its peak RSS.

usage: python3 perfbench/child.py SPAWN_TIME SPEC.json

``SPAWN_TIME`` is the parent's ``CLOCK_MONOTONIC`` reading just before the
spawn; the clock is system-wide, so set-up time spans interpreter start-up.
``SPEC.json`` holds ``src`` (the directory that contains ``tweetdyn``),
``stages`` (a list of ``[name, argv]``; empty means measure set-up only),
``trace`` (wrap the package's public functions) and ``spans`` (where the
traced run writes its spans). The last line of standard output is one JSON
object with the measurements.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rows_parsed(args, kwargs, result):
    return len(result[0])


def _rows_rejected(args, kwargs, result):
    return result[1].rejected


def _kmedoids_points(args, kwargs, result):
    return len(result.labels)


def _stemmed_tokens(args, kwargs, result):
    return sum(result.values())


def _graph_vertices(args, kwargs, result):
    return result.n_vertices


def _graph_edges(args, kwargs, result):
    return args[0].n_edges


# "module.function" -> counters recorded on each call. The per-tweet helpers
# (porter.stem, topic.tokenize, ingest.categorize, strategy.symbolize) are
# left out on purpose: their cost lands in their callers' self time.
TARGETS = {
    "cli.write_json": {},
    "cli.write_csv": {},
    "ingest.parse_records": {"rows": _rows_parsed, "rejected": _rows_rejected},
    "ingest.write_records": {},
    "ingest.select_cohort": {},
    "ingest.retweet_network": {},
    "timeseries.daily_counts": {},
    "timeseries.counts_by_user": {},
    "timeseries.detrend": {},
    "timeseries.fit_segment": {},
    "strategy.symbol_sequence": {},
    "strategy.symbol_distribution": {},
    "spectral.kmedoids": {"n": _kmedoids_points},
    "spectral.dft": {},
    "spectral.denoise": {},
    "spectral.pca_embed": {},
    "spectral.fit_fourier": {},
    "spectral.band_summary": {},
    "topic.topic_communities": {},
    "topic.build_documents": {},
    "topic.stem_and_filter": {"tokens": _stemmed_tokens},
    "topic.gamma_keywords": {},
    "topic.similarity_graph": {"n": _graph_vertices},
    "graphs.modularity_communities": {"edges": _graph_edges},
    "graphs.modularity": {},
    "compare.cross_tab": {},
    "compare.intersect_subcluster": {},
}


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(Path(sys.argv[2]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import tweetdyn.cli as cli

    ready = _now()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"tweetdyn imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    result = {"setup_s": ready - spawned}
    if not spec["stages"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        result["absent"] = tracer.install("tweetdyn", TARGETS)

    stages = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for name, argv in spec["stages"]:
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(f"stage.{name}"):
                    rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a stage that raises has failed; go on
            rc = f"{type(exc).__name__}: {exc}"
        stages.append({"name": name, "rc": rc, "s": time.perf_counter() - start})
    result["pipeline_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = peak_rss_mb()
    result["stages"] = stages

    if tracer is not None:
        tracer.uninstall()
        roots = [s for s in tracer.spans if s.parent is None]
        result["layers"] = tracer.summary()
        result["stage_spans"] = {s.name: s.end - s.start for s in roots}
        result["stage_residual_s"] = max(tracer.subtree_residual(s.id) for s in roots)
        Path(spec["spans"]).write_text(
            json.dumps([dataclasses.asdict(s) for s in tracer.spans]) + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
