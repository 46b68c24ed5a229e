"""Weighted graphs, modularity, and the greedy community search."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetdyn.graphs import WeightedGraph, modularity, modularity_communities


def _graph(edge_list, extra=()):
    return WeightedGraph.from_edges(
        {(u, v): w for u, v, w in edge_list}, extra_vertices=extra
    )


TWO_TRIANGLES = _graph(
    [
        ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
        ("x", "y", 1.0), ("y", "z", 1.0), ("x", "z", 1.0),
    ]
)


def all_partitions(items):
    """Every set partition of the items (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def brute_force_best_q(graph):
    return max(
        modularity(graph, partition) for partition in all_partitions(graph.vertices)
    )


class TestWeightedGraph:
    def test_canonical_edges_and_lookups(self):
        g = _graph([("b", "a", 2.0), ("b", "c", 1.5)])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == {("a", "b"): 2.0, ("b", "c"): 1.5}
        assert g.degrees() == {"a": 2.0, "b": 3.5, "c": 1.5}
        assert g.total_weight == 3.5

    def test_from_edges_merges_orientations(self):
        g = WeightedGraph.from_edges({("a", "b"): 1.0, ("b", "a"): 2.0})
        assert g.edges == {("a", "b"): 3.0}
        assert g.n_edges == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph(vertices=("a",), edges={("a", "a"): 1.0})
        with pytest.raises(ValueError):
            WeightedGraph(vertices=("a", "b"), edges={("a", "b"): 0.0})
        with pytest.raises(ValueError):
            WeightedGraph(vertices=("a",), edges={("a", "b"): 1.0})

    def test_isolated_vertices_kept(self):
        g = _graph([("a", "b", 1.0)], extra=["lonely"])
        assert "lonely" in g.vertices
        assert g.degrees()["lonely"] == 0.0


class TestModularity:
    def test_two_triangles_split_is_half(self):
        q = modularity(TWO_TRIANGLES, [{"a", "b", "c"}, {"x", "y", "z"}])
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_single_community_is_zero(self):
        q = modularity(TWO_TRIANGLES, [set("abcxyz")])
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_singletons_value(self):
        # Q = -sum (k_i/2m)^2 ; all degrees 2, 2m = 12
        q = modularity(TWO_TRIANGLES, [{v} for v in "abcxyz"])
        assert q == pytest.approx(-6 * (2 / 12) ** 2, abs=1e-12)

    def test_partition_must_cover_exactly(self):
        with pytest.raises(ValueError):
            modularity(TWO_TRIANGLES, [{"a", "b"}])
        with pytest.raises(ValueError):
            modularity(TWO_TRIANGLES, [set("abcxyz"), {"a"}])


FIXTURES = {
    "two_triangles": TWO_TRIANGLES,
    "k4": _graph(
        [(u, v, 1.0) for u, v in itertools.combinations("abcd", 2)]
    ),
    "path5": _graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "e", 1.0)]),
    "star5": _graph([("hub", leaf, 1.0) for leaf in ("l1", "l2", "l3", "l4", "l5")]),
    "barbell": _graph(
        [
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
            ("x", "y", 1.0), ("y", "z", 1.0), ("x", "z", 1.0),
            ("c", "x", 1.0),
        ]
    ),
    "two_k4_bridge": _graph(
        [(u, v, 1.0) for u, v in itertools.combinations("abcd", 2)]
        + [(u, v, 1.0) for u, v in itertools.combinations("wxyz", 2)]
        + [("d", "w", 1.0)]
    ),
    "weighted_pair": _graph(
        [("a", "b", 5.0), ("b", "c", 1.0), ("c", "d", 5.0), ("d", "a", 1.0)]
    ),
    "single_edge": _graph([("a", "b", 1.0)]),
}


class TestModularityCommunities:
    def test_two_triangles_exact(self):
        partition, q = modularity_communities(TWO_TRIANGLES)
        assert sorted(sorted(p) for p in partition) == [["a", "b", "c"], ["x", "y", "z"]]
        assert q == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_within_002_of_brute_force(self, name):
        graph = FIXTURES[name]
        partition, q = modularity_communities(graph)
        assert q == pytest.approx(modularity(graph, partition), abs=1e-12)
        assert q >= brute_force_best_q(graph) - 0.02

    def test_edgeless_graph_singleton_communities(self):
        g = WeightedGraph(vertices=("a", "b", "c"), edges={})
        partition, q = modularity_communities(g)
        assert partition == [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]
        assert q == 0.0

    def test_insertion_order_does_not_matter(self):
        edges = [
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
            ("x", "y", 1.0), ("y", "z", 1.0), ("x", "z", 1.0),
            ("c", "x", 0.5),
        ]
        base = modularity_communities(_graph(edges))
        for seed in range(5):
            shuffled = edges[:]
            random.Random(seed).shuffle(shuffled)
            assert modularity_communities(_graph(shuffled)) == base

    def test_isolated_vertices_stay_singletons(self):
        g = _graph([("a", "b", 1.0), ("b", "c", 1.0)], extra=["iso"])
        partition, _ = modularity_communities(g)
        assert frozenset({"iso"}) in partition

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
                lambda p: p[0] < p[1]
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_greedy_never_below_singletons(self, pairs):
        g = WeightedGraph.from_edges(
            {(f"v{u}", f"v{v}"): 1.0 for u, v in pairs}
        )
        partition, q = modularity_communities(g)
        singles = modularity(g, [{v} for v in g.vertices])
        assert q >= singles - 1e-12
        # the partition is an exact cover
        assert sorted(u for part in partition for u in part) == sorted(g.vertices)
