"""Undirected weighted graphs and greedy modularity community detection.

The clustering is agglomerative: start from singleton communities and repeat
the merge with the largest modularity gain while some gain is strictly
positive. Determinism is pinned down by the tie-break: among merges with equal
gain, take the pair whose (smallest vertex id, then smallest id of the other
community's representative) sorts first. Vertex ids are compared as strings.

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
from typing import Iterable, Mapping, Sequence

logger = logging.getLogger(__name__)


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable undirected graph; no self loops, weights strictly positive."""

    vertices: tuple[str, ...]
    edges: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        verts = tuple(sorted(set(self.vertices)))
        if len(verts) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(verts)
        edges: dict[tuple[str, str], float] = {}
        for (u, v), w in self.edges.items():
            if u == v:
                raise ValueError(f"self loop on {u!r}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
            if not w > 0:
                raise ValueError(f"edge ({u!r}, {v!r}) weight {w} not positive")
            key = _edge_key(u, v)
            if key in edges:
                raise ValueError(f"duplicate edge {key}")
            edges[key] = float(w)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", dict(sorted(edges.items())))

    @classmethod
    def from_edges(
        cls,
        edge_weights: Mapping[tuple[str, str], float],
        extra_vertices: Iterable[str],
    ) -> "WeightedGraph":
        verts = set(extra_vertices)
        for u, v in edge_weights:
            verts.add(u)
            verts.add(v)
        merged: dict[tuple[str, str], float] = {}
        for (u, v), w in edge_weights.items():
            key = _edge_key(u, v)
            merged[key] = merged.get(key, 0.0) + float(w)
        return cls(vertices=tuple(sorted(verts)), edges=merged)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights (each undirected edge counted once)."""
        return sum(self.edges.values())

    def degrees(self) -> dict[str, float]:
        deg = {v: 0.0 for v in self.vertices}
        for (u, v), w in self.edges.items():
            deg[u] += w
            deg[v] += w
        return deg


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
    deg = graph.degrees()
    w_in = [0.0] * len(groups)
    for (u, v), w in graph.edges.items():
        p = part_of[u]
        if p == part_of[v]:
            w_in[p] += 2.0 * w
    # Sum member degrees in vertex order, not in the hash order of a part's
    # frozenset, so Q does not depend on PYTHONHASHSEED.
    part_deg = [0.0] * len(groups)
    for v in graph.vertices:
        part_deg[part_of[v]] += deg[v]
    q = 0.0
    for w, d in zip(w_in, part_deg):
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
    deg = graph.degrees()

    # Community state, keyed by representative id: members, summed degree and
    # the weight to every adjacent community.
    members: dict[str, set[str]] = {v: {v} for v in graph.vertices}
    comm_deg: dict[str, float] = {v: deg[v] for v in graph.vertices}
    between: dict[str, dict[str, float]] = {v: {} for v in graph.vertices}
    for (u, v), w in graph.edges.items():
        between[u][v] = between[v][u] = w

    def gain(a: str, b: str) -> float:
        w = between[a][b]
        return 2.0 * (w / two_m - (comm_deg[a] / two_m) * (comm_deg[b] / two_m))

    # (-gain, a, b) with a < b for every pair with a positive gain; an entry
    # is stale once a or b has merged away or the pair's gain has changed.
    heap = [(-g, u, v) for u, v in graph.edges if (g := gain(u, v)) > 0.0]
    heapq.heapify(heap)
    while heap:
        neg_gain, a, b = heapq.heappop(heap)
        if a not in members or b not in members or gain(a, b) != -neg_gain:
            continue
        # a < b; the merged community keeps representative a
        members[a] |= members.pop(b)
        comm_deg[a] += comm_deg.pop(b)
        near_a, near_b = between[a], between.pop(b)
        del near_a[b], near_b[a]
        for x, w in near_b.items():
            near_x = between[x]
            del near_x[b]
            near_x[a] = near_a[x] = near_a[x] + w if x in near_a else w
        for x in near_a:
            lo, hi = (a, x) if a < x else (x, a)
            if (g := gain(lo, hi)) > 0.0:
                heapq.heappush(heap, (-g, lo, hi))

    partition = sorted(
        (frozenset(m) for m in members.values()), key=lambda g: min(g)
    )
    q = modularity(graph, partition)
    return partition, q
