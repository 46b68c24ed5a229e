"""Undirected weighted graphs and greedy modularity community detection.

A graph holds its sorted vertex ids and its edges as three arrays: vertex
indices ``u < v`` and weights ``w``, one entry per edge, in sorted pair order.
Vertex ids are sorted, so vertex index order is string order.

The clustering is agglomerative: start from singleton communities and repeat
the merge with the largest modularity gain while some gain is strictly
positive. Determinism is pinned down by the tie-break: among merges with equal
gain, take the pair whose (smallest vertex index, then smallest index of the
other community's representative) sorts first. A community's representative
is its smallest vertex index, so the tie-break is the same on vertex ids.

The search follows Clauset, Newman & Moore ("Finding community structure in
very large networks", Phys. Rev. E 70, 066111, 2004). Each community keeps a
map of its adjacent communities' weights, and one heap holds
``(-gain, a, b)`` with ``a < b``, so the heap order is the tie-break above. A
merge folds the absorbed community's map into the kept one and pushes the kept
community's pairs afresh; an entry whose community merged away or whose gain
has changed since it was pushed is dropped when popped. Weights and gains are
the same sums and products, float for float, as a full rescan would compute.

Modularity of a partition of graph G with symmetric weights A:

    Q = sum_c [ w_in(c) / (2m) - (deg(c) / (2m))^2 ]

where ``2m`` is the total degree, ``w_in(c)`` counts internal weight with both
orientations, and ``deg(c)`` sums member degrees.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable undirected graph; no self loops, weights strictly positive.

    ``vertices`` are sorted and distinct. Edge ``i`` joins ``vertices[u[i]]``
    and ``vertices[v[i]]`` with weight ``w[i]``; ``u < v``, and the pairs
    ``(u, v)`` strictly increase, so each edge appears once.
    """

    vertices: tuple[str, ...]
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ValueError("vertex ids must be sorted and distinct")
        u, v = (np.asarray(x) for x in (self.u, self.v))
        w = np.array(self.w, dtype=np.float64)
        if not u.ndim == v.ndim == w.ndim == 1 or not len(u) == len(v) == len(w):
            raise ValueError("u, v and w must be 1-d arrays of one length")
        if len(u) and (u.dtype.kind not in "iu" or v.dtype.kind not in "iu"):
            raise ValueError("u and v must hold integer vertex indices")
        u, v = u.astype(np.int64), v.astype(np.int64)
        if len(u) and (u.min() < 0 or v.max() >= len(verts)):
            raise ValueError("edge references a vertex index out of range")
        if np.any(u >= v):
            raise ValueError("every edge needs u < v")
        if np.any((u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))):
            raise ValueError("edge pairs must strictly increase")
        if not np.all(w > 0):
            raise ValueError("edge weights must be positive")
        for name, array in (("u", u), ("v", v), ("w", w)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "vertices", verts)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.w)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights (each undirected edge counted once), left to right."""
        return sum(self.w.tolist(), 0.0)

    def degrees(self) -> np.ndarray:
        """Weighted degree per vertex index: each edge adds its weight to ``u``
        and then to ``v``, edge by edge."""
        ends = np.column_stack([self.u, self.v]).ravel()
        deg = np.bincount(ends, weights=np.repeat(self.w, 2), minlength=self.n_vertices)
        return deg.astype(np.float64, copy=False)


def modularity(graph: WeightedGraph, partition: Sequence[Iterable[str]]) -> float:
    """Modularity Q of a partition; requires an exact cover of the vertices."""
    groups = [frozenset(part) for part in partition]
    part_of: dict[str, int] = {}
    for p, g in enumerate(groups):
        for v in g:
            if v in part_of:
                raise ValueError("partition parts overlap")
            part_of[v] = p
    if part_of.keys() != set(graph.vertices):
        raise ValueError("partition does not cover the vertex set exactly")
    two_m = 2.0 * graph.total_weight
    if two_m == 0:
        return 0.0
    part = np.array([part_of[v] for v in graph.vertices], dtype=np.int64)
    inside = part[graph.u] == part[graph.v]
    # bincount adds in index order: edge by edge, then vertex by vertex
    w_in = np.bincount(
        part[graph.u[inside]], weights=2.0 * graph.w[inside], minlength=len(groups)
    )
    part_deg = np.bincount(part, weights=graph.degrees(), minlength=len(groups))
    q = 0.0
    for w, d in zip(w_in.tolist(), part_deg.tolist()):
        q += w / two_m - (d / two_m) ** 2
    return q


def modularity_communities(
    graph: WeightedGraph,
) -> tuple[list[frozenset[str]], float]:
    """Greedy modularity maximization from singletons.

    Returns the partition (parts sorted by their smallest member) and its Q.
    Merges stop when no pair of connected communities yields a strictly
    positive gain. An edgeless graph keeps every vertex in its own community
    with Q = 0.
    """
    if graph.n_edges == 0:
        logger.warning("modularity_communities: edgeless graph, singletons kept")
        return [frozenset([v]) for v in graph.vertices], 0.0

    two_m = 2.0 * graph.total_weight
    # One int object per vertex index, shared by every map key and heap entry
    # (``tolist`` makes one per edge end).
    index = list(range(graph.n_vertices))
    us = [index[i] for i in graph.u.tolist()]
    vs = [index[i] for i in graph.v.tolist()]

    # Community state by representative (its smallest vertex index): members
    # (None once merged away), summed degree and the weight to every adjacent
    # community.
    members: list[list[int] | None] = [[i] for i in index]
    comm_deg = graph.degrees().tolist()
    between: list[dict[int, float]] = [{} for _ in index]
    for u, v, w in zip(us, vs, graph.w.tolist()):
        between[u][v] = between[v][u] = w

    def gain(a: int, b: int) -> float:
        w = between[a][b]
        return 2.0 * (w / two_m - (comm_deg[a] / two_m) * (comm_deg[b] / two_m))

    # (-gain, a, b) with a < b for every pair with a positive gain; an entry
    # is stale once a or b has merged away or the pair's gain has changed.
    heap = [(-g, u, v) for u, v in zip(us, vs) if (g := gain(u, v)) > 0.0]
    del us, vs
    heapq.heapify(heap)
    while heap:
        neg_gain, a, b = heapq.heappop(heap)
        if members[a] is None or members[b] is None or gain(a, b) != -neg_gain:
            continue
        # a < b; the merged community keeps representative a
        members[a] += members[b]
        members[b] = None
        comm_deg[a] += comm_deg[b]
        near_a, near_b = between[a], between[b]
        between[b] = {}
        del near_a[b], near_b[a]
        for x, w in near_b.items():
            near_x = between[x]
            del near_x[b]
            near_x[a] = near_a[x] = near_a[x] + w if x in near_a else w
        for x in near_a:
            lo, hi = (a, x) if a < x else (x, a)
            if (g := gain(lo, hi)) > 0.0:
                heapq.heappush(heap, (-g, lo, hi))

    # representatives ascend, so the parts come sorted by smallest member
    partition = [frozenset(graph.vertices[i] for i in m) for m in members if m is not None]
    q = modularity(graph, partition)
    return partition, q
