"""Micro-benchmark of the fast kernels against the code they replaced.

Times ``graphs.modularity_communities`` on 10-NN graphs of uniform random
points in the unit square and on a dense planted-partition graph (1,500
vertices in 5 blocks, about 40k edges with weights 1-3: the dense regime of
a campaign-sized retweet graph), ``spectral.kmedoids`` on 3-d Gaussian blobs (the
pipeline's default ``pca_dims`` and ``kmedoids_k``, 10 restarts),
``topic.similarity_graph`` on a random term-by-user count matrix,
``porter.stem`` on 20k distinct words (each stemmed once, so every call is
cold), ``topic.topic_communities`` on planted corpora from
``perfbench/gen.py`` with 256 and 4,000 users, ``topic.count_terms`` on the
4,000-user one, ``ingest.read_tables`` on its first 68,000 rows as a CSV
table (the parse, its string bytes spilled to unnamed files, and the sort
into ``ingest``'s row order), and the spectra chain
(``spectral.cohort_spectra``: ``detrend`` -> ``dft`` -> ``denoise`` on a
Poisson count table of 256 and 4,000 users over 244 days, the pipeline's
default ``ma_window`` and ``denoise_q``), and ``cli.write_csv`` writing the
4,000-user spectra as ``spectra_pre.csv``, each next to its reference in
``tests/reference_loops.py``.
A kernel's time is the best of three calls in this process, a reference's
time one call; each row also says whether the two results are identical
(partition and Q, labels, medoids and cost, edges and weights, stems, every
topic artifact, the spectra's bins and magnitude matrix, the term counts,
the corpus columns and parse report, or the CSV file, byte for byte). The
rows of ``read_tables``, ``count_terms`` and ``similarity_graph`` also
give the traced peak (``tracemalloc``) of one more call of each, in MiB.
Prints one JSON document.

usage: python scripts/bench_kernels.py
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time
import tracemalloc
from datetime import date
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import reference_loops as ref  # noqa: E402
from gen import planted_corpus, pseudo_words, write_csv  # noqa: E402
from tweet_tables import arrays_of, counters_of  # noqa: E402
from tweetdyn import cli, porter  # noqa: E402
from tweetdyn.corpus import Corpus, CorpusRows  # noqa: E402
from tweetdyn.graphs import WeightedGraph, modularity_communities  # noqa: E402
from tweetdyn.ingest import ColumnMap, read_tables  # noqa: E402
from tweetdyn.spectral import cohort_spectra, kmedoids  # noqa: E402
from tweetdyn.timeseries import DayWindow  # noqa: E402
from tweetdyn.topic import (  # noqa: E402
    TermUserMatrix,
    count_terms,
    similarity_graph,
    topic_communities,
)

MODULARITY_N = (250, 500, 1000)
DENSE_MODULARITY_N = (1500,)
KMEDOIDS_N = (200, 400, 800, 2000)
SIMILARITY_N = (2000,)
STEM_N = (20_000,)
# users -> days of a planted corpus (perfbench's crowd rates: about 2 tweets
# per user-day); 256 users over 60 days is the crowd workload's size
TOPIC_N = {256: 60, 4000: 20}
TOPIC_START = date(2016, 3, 9)
SPECTRA_N = (256, 4000)
SPECTRA_DAYS = 244
CSV_USERS = 4000
PARSE_ROWS = 68_000
TERMS_USERS = 4000  # one of TOPIC_N
PEAK_KERNELS = {"read_tables", "count_terms", "similarity_graph"}
CSV_HEADER = ["user_id", "bin", "magnitude"]
DEFAULTS = cli.RunConfig()
MA_WINDOW, DENOISE_Q = DEFAULTS.ma_window, DEFAULTS.denoise_q
TOPIC_KNOBS = {
    name: getattr(DEFAULTS, name) for name in ("dynamic_p", "gamma_q", "knn_k", "top_m")
}
REPEATS = 3


def knn_graph(n: int, k: int = 10, seed: int = 0) -> WeightedGraph:
    pts = np.random.default_rng(seed).random((n, 2))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1)[:, :k]
    ends = np.repeat(np.arange(n), k), nearest.ravel()
    pairs = np.unique(np.minimum(*ends) * n + np.maximum(*ends))
    return WeightedGraph(
        vertices=tuple(f"n{i:04d}" for i in range(n)),
        u=pairs // n,
        v=pairs % n,
        w=np.ones(len(pairs)),
    )


def planted_graph(n: int, blocks: int = 5, seed: int = 0) -> WeightedGraph:
    """``blocks`` equal blocks; a pair is joined with probability 0.12 inside
    a block and 0.015 across, at a weight of 1, 2 or 3."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) * blocks // n
    p = np.where(block[:, None] == block[None, :], 0.12, 0.015)
    u, v = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
    return WeightedGraph(
        vertices=tuple(f"n{i:04d}" for i in range(n)),
        u=u,
        v=v,
        w=rng.integers(1, 4, len(u)).astype(np.float64),
    )


def blobs(n: int, seed: int = 0) -> tuple[np.ndarray, list[str]]:
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 4.0, size=(4, 3))
    pts = centres[np.arange(n) % 4] + rng.normal(size=(n, 3))
    return pts, [f"u{i:04d}" for i in range(n)]


def term_matrix(n: int, n_terms: int = 400, seed: int = 0) -> TermUserMatrix:
    counts = np.random.default_rng(seed).poisson(0.3, size=(n_terms, n))
    return TermUserMatrix(
        terms=tuple(f"t{i}" for i in range(n_terms)),
        users=tuple(f"u{i:04d}" for i in range(n)),
        counts=counts,
    )


def distinct_words(n: int, seed: int = 0) -> list[str]:
    """``n`` distinct consonant-vowel words, each with a suffix that a
    Porter rule tests."""
    rng = np.random.default_rng(seed)
    suffixes = ref.PORTER_SUFFIXES
    words: dict[str, None] = {}
    for syllables in (3, 4):
        for i, stem in enumerate(pseudo_words(rng, n, syllables, "")):
            words[stem + suffixes[i % len(suffixes)]] = None
    return list(words)[:n]


def planted_rows(n_users: int, n_days: int, seed: int = 0) -> tuple[list[list[str]], list[str]]:
    rows, labels, _ = planted_corpus(
        np.random.default_rng(seed), per_group=n_users // 4, start=TOPIC_START,
        n_days=n_days, base_rate=2.0, scale=1.8,
    )
    return rows, sorted(labels)


def corpus_of_rows(rows: list[list[str]]) -> Corpus:
    tweet_id, user, stamp, language, _, source, text = map(list, zip(*rows))
    store = CorpusRows(None)
    store.add_rows(
        tweet_id=tweet_id,
        user=user,
        source=[s or None for s in source],
        timestamp_us=np.array(stamp, dtype="datetime64[us]").astype(np.int64),
        language=language,
        text=text,
    )
    return store.build()


def count_table(n: int, n_days: int, seed: int = 0) -> np.ndarray:
    """(n, n_days) Poisson daily counts, each row at its own rate."""
    rng = np.random.default_rng(seed)
    return rng.poisson(rng.uniform(0.5, 30.0, size=(n, 1)), size=(n, n_days))


def loop_spectra(table: np.ndarray, users: list[str], ma_window: int, q: float):
    """The per-user loop's spectra of a table whose days start at TOPIC_START."""
    window = DayWindow.of_length(TOPIC_START, table.shape[1])
    return ref.cohort_spectra(window, table, users, ma_window, q)


def same_spectra(new, old: dict) -> bool:
    _, matrix = ref.spectra_matrix(list(old.values()))
    return (
        new.users == tuple(old)
        and new.bins.tobytes() == np.vstack([b.bins for b in old.values()]).tobytes()
        and new.magnitudes.tobytes() == matrix.tobytes()
    )


def columns_csv(path: Path, users: list[str], table: np.ndarray) -> Path:
    cli.write_csv(path, CSV_HEADER, cli._long_form(users, table))
    return path


def cells_csv(path: Path, users: list[str], table: np.ndarray) -> Path:
    ref.write_csv_rows(path, CSV_HEADER, ref.long_rows(users, table))
    return path


def same_file(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def stem_all(stem, words: list[str]) -> list[str]:
    return [stem(w) for w in words]


def best_of(repeats: int, fn, *args, **kwargs):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return round(min(times), 4), out


def traced_peak_mb(fn, *args, **kwargs) -> float:
    """The traced peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def loop_term_counts(corpus: Corpus, users: list[str], window: DayWindow) -> dict:
    return {
        d.user_id: ref.stem_and_filter(d) for d in ref.corpus_documents(corpus, users, window)
    }


def same_term_counts(new, old: dict) -> bool:
    return counters_of(new) == old


def loop_read(
    paths: list[str], fmt: str, columns: ColumnMap, spill_dir: Path
) -> tuple[Corpus, dict]:
    """The row loop's parse of each table, its rows joined and sorted stably
    by (timestamp, tweet id) (``reference_loops.read_tables``)."""
    table, reports = ref.read_tables(paths, fmt, columns)
    store = CorpusRows(spill_dir)
    store.add_rows(**table)
    return store.build(), dict(zip(paths, reports))


def same_parse(new, old) -> bool:
    return arrays_of(new[0]) == arrays_of(old[0]) and new[1] == old[1]


def same_edges(a: WeightedGraph, b: WeightedGraph) -> bool:
    return ref.graph_key(a) == ref.graph_key(b)


def same_partition(a, b) -> bool:
    return a[0] == b[0] and a[1].hex() == b[1].hex()


def same_topics(new, old: dict) -> bool:
    return (
        new.dynamic_stopwords == old["dynamic_stopwords"]
        and new.vocabulary == old["vocabulary"]
        and new.matrix.counts.tobytes() == old["matrix"].counts.tobytes()
        and same_edges(new.graph, old["graph"])
        and new.partition == old["partition"]
        and new.modularity.hex() == old["modularity"].hex()
        and new.top_terms == old["top_terms"]
    )


def main() -> int:
    cases = []
    for n in MODULARITY_N:
        graph = knn_graph(n)
        cases.append(("modularity_communities", n, {"edges": graph.n_edges},
                      modularity_communities, ref.modularity_communities, (graph,), {},
                      same_partition))
    for n in DENSE_MODULARITY_N:
        graph = planted_graph(n)
        cases.append(("modularity_communities", n, {"edges": graph.n_edges, "dense": True},
                      modularity_communities, ref.modularity_communities, (graph,), {},
                      same_partition))
    for n in KMEDOIDS_N:
        pts, ids = blobs(n)
        cases.append(("kmedoids", n, {"k": 4, "restarts": 10},
                      kmedoids, ref.kmedoids, (pts, ids), {"k": 4, "seed": 0, "restarts": 10},
                      lambda a, b: a == b and a.cost.hex() == b.cost.hex()))
    for n in SIMILARITY_N:
        matrix = term_matrix(n)
        cases.append(("similarity_graph", n, {"terms": len(matrix.terms), "k": 10},
                      similarity_graph, ref.similarity_graph, (matrix,), {"k": 10},
                      same_edges))
    for n in STEM_N:
        words = distinct_words(n)
        # uncached, as the reference's lru_cache would warm every call but one
        cases.append(("porter.stem", n, {"cold": True},
                      partial(stem_all, porter.stem),
                      partial(stem_all, ref.porter_stem.__wrapped__), (words,), {},
                      lambda a, b: a == b))
    tmp = Path(tempfile.mkdtemp())
    for n, days in TOPIC_N.items():
        rows, users = planted_rows(n, days)
        corpus = corpus_of_rows(rows)
        window = DayWindow.of_length(TOPIC_START, days)
        cases.append(("topic_communities", n, {"days": days, "tweets": len(corpus)},
                      topic_communities, ref.topic_communities, (corpus, users, window),
                      TOPIC_KNOBS, same_topics))
        if n == TERMS_USERS:
            cases.append(("count_terms", n, {"days": days, "tweets": len(corpus)},
                          count_terms, loop_term_counts, (corpus, users, window), {},
                          same_term_counts))
            write_csv(tmp / "parse.csv", rows[:PARSE_ROWS])
            cases.append(("read_tables", PARSE_ROWS, {"format": "csv"},
                          read_tables, loop_read, ([str(tmp / "parse.csv")],),
                          {"fmt": "csv", "columns": ColumnMap(), "spill_dir": tmp},
                          same_parse))

    for n in SPECTRA_N:
        users = [f"u{i:04d}" for i in range(n)]
        cases.append(("spectra_chain", n, {"days": SPECTRA_DAYS},
                      cohort_spectra, loop_spectra,
                      (count_table(n, SPECTRA_DAYS), users, MA_WINDOW, DENOISE_Q), {},
                      same_spectra))

    users = [f"u{i:04d}" for i in range(CSV_USERS)]
    table = count_table(CSV_USERS, SPECTRA_DAYS)
    magnitudes = cohort_spectra(table, users, MA_WINDOW, DENOISE_Q).magnitudes
    cases.append(("write_csv", CSV_USERS, {"days": SPECTRA_DAYS, "rows": magnitudes.size},
                  partial(columns_csv, tmp / "columns.csv"), partial(cells_csv, tmp / "cells.csv"),
                  (users, magnitudes), {}, same_file))

    rows = []
    for kernel, n, shape, new_fn, old_fn, fn_args, fn_kwargs, same in cases:
        row = {"kernel": kernel, "n": n, **shape}
        row["new_s"], new_out = best_of(REPEATS, new_fn, *fn_args, **fn_kwargs)
        row["reference_s"], old_out = best_of(1, old_fn, *fn_args, **fn_kwargs)
        row["speedup"] = round(row["reference_s"] / max(row["new_s"], 1e-9), 1)
        row["identical"] = bool(same(new_out, old_out))
        del new_out, old_out
        if kernel in PEAK_KERNELS:
            row["new_peak_mb"] = traced_peak_mb(new_fn, *fn_args, **fn_kwargs)
            row["reference_peak_mb"] = traced_peak_mb(old_fn, *fn_args, **fn_kwargs)
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    shutil.rmtree(tmp)

    machine = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    print(json.dumps({"machine": machine, "repeats": REPEATS, "kernels": rows}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
