"""Micro-benchmark of the pairwise kernels against the loops they replaced.

Times ``graphs.modularity_communities`` on 10-NN graphs of uniform random
points in the unit square, ``spectral.kmedoids`` on 3-d Gaussian blobs (the
pipeline's default ``pca_dims`` and ``kmedoids_k``, 10 restarts) and
``topic.similarity_graph`` on a random term-by-user count matrix, each next
to its quadratic reference in ``tests/reference_loops.py``. A kernel's time is
the best of three calls in this process, a reference's time one call; each
row also says whether the two results are identical (partition and Q, labels,
medoids and cost, or edges and weights).
Prints one JSON document.

usage: python scripts/bench_kernels.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import reference_loops as ref  # noqa: E402
from tweetdyn.graphs import WeightedGraph, modularity_communities  # noqa: E402
from tweetdyn.spectral import kmedoids  # noqa: E402
from tweetdyn.topic import TermUserMatrix, similarity_graph  # noqa: E402

MODULARITY_N = (250, 500, 1000)
KMEDOIDS_N = (200, 400, 800, 2000)
SIMILARITY_N = (2000,)
REPEATS = 3


def knn_graph(n: int, k: int = 10, seed: int = 0) -> WeightedGraph:
    pts = np.random.default_rng(seed).random((n, 2))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1)[:, :k]
    edges = {
        tuple(sorted((f"n{i:04d}", f"n{int(j):04d}"))): 1.0
        for i in range(n)
        for j in nearest[i]
    }
    return WeightedGraph.from_edges(edges)


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


def best_of(repeats: int, fn, *args, **kwargs):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return round(min(times), 4), out


def same_edges(a: WeightedGraph, b: WeightedGraph) -> bool:
    return a.vertices == b.vertices and [(e, w.hex()) for e, w in a.edges.items()] == [
        (e, w.hex()) for e, w in b.edges.items()
    ]


def main() -> int:
    cases = []
    for n in MODULARITY_N:
        graph = knn_graph(n)
        cases.append(("modularity_communities", n, {"edges": graph.n_edges},
                      modularity_communities, ref.modularity_communities, (graph,), {},
                      lambda a, b: a[0] == b[0] and a[1].hex() == b[1].hex()))
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

    rows = []
    for kernel, n, shape, new_fn, old_fn, fn_args, fn_kwargs, same in cases:
        row = {"kernel": kernel, "n": n, **shape}
        row["new_s"], new_out = best_of(REPEATS, new_fn, *fn_args, **fn_kwargs)
        row["reference_s"], old_out = best_of(1, old_fn, *fn_args, **fn_kwargs)
        row["speedup"] = round(row["reference_s"] / max(row["new_s"], 1e-9), 1)
        row["identical"] = bool(same(new_out, old_out))
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)

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
