"""Cross-tabulation of the two clusterings and the adjusted Rand index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetdyn.compare import (
    CrossTab,
    adjusted_rand_index,
    cross_tab,
    intersect_subcluster,
)
from tweetdyn.spectral import ClusterAssignment, dft


def _assignment(labels, medoids=None):
    k = max(labels.values())
    medoids = medoids or tuple(
        sorted(u for u, c in labels.items())[:k]
    )
    return ClusterAssignment(labels=labels, medoids=tuple(medoids), cost=0.0)


class TestCrossTab:
    def test_hand_computed_cells(self):
        spectral = _assignment(
            {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2},
            medoids=("a", "d"),
        )
        topic = [["a", "b", "d"], ["c", "e", "f"]]
        tab = cross_tab(spectral, topic)
        assert tab.spectral_ids == (1, 2)
        assert tab.topic_ids == (1, 2)
        np.testing.assert_array_equal(tab.cells, [[2, 1], [1, 2]])

    def test_users_in_one_clustering_ignored(self):
        spectral = _assignment({"a": 1, "b": 1, "zz": 1}, medoids=("a",))
        tab = cross_tab(spectral, [["a", "b", "notinspectral"]])
        assert tab.cells.sum() == 2

    def test_diversity_entropy(self):
        spectral = _assignment(
            {"a": 1, "b": 1, "c": 2, "d": 2}, medoids=("a", "c")
        )
        tab = cross_tab(spectral, [["a", "c", "d"], ["b"]])
        div = tab.diversity()
        # cluster 1 splits 1/1 across two communities: 1 bit
        assert div[1] == {"clusters_hit": 2, "entropy_bits": pytest.approx(1.0)}
        # cluster 2 sits in one community: 0 bits
        assert div[2] == {"clusters_hit": 1, "entropy_bits": pytest.approx(0.0)}

    def test_duplicate_community_membership_rejected(self):
        spectral = _assignment({"a": 1}, medoids=("a",))
        with pytest.raises(ValueError):
            cross_tab(spectral, [["a"], ["a"]])

    def test_disjoint_clusterings_rejected(self):
        spectral = _assignment({"a": 1}, medoids=("a",))
        with pytest.raises(ValueError):
            cross_tab(spectral, [["x", "y"]])

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            CrossTab(spectral_ids=(1,), topic_ids=(1, 2), cells=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            CrossTab(
                spectral_ids=(1,), topic_ids=(1,), cells=np.array([[-1]])
            )


def _one_spectrum(user):
    return dft(np.arange(8.0)[None, :], [user])


class TestIntersectSubcluster:
    def test_planted_tone_period_recovered(self):
        n = 240
        t = np.arange(n)
        rows = []
        for i in range(6):
            rng = np.random.default_rng(i)
            values = 9.0 * np.cos(2 * np.pi * 60 * t / n + i) + rng.normal(
                0, 1.0, size=n
            )
            rows.append(values)
        spectra = dft(np.vstack(rows), [f"u{i}" for i in range(6)])
        summary = intersect_subcluster(
            ["u0", "u1", "u2", "u9"], ["u1", "u2", "u3"], spectra
        )
        assert summary.users == ("u1", "u2")
        assert summary.dominant_period_days == pytest.approx(4.0)
        # the band is the two users' own: each bin's median is their mean
        np.testing.assert_allclose(
            summary.band.medians, spectra.magnitudes[[1, 2]].mean(axis=0)
        )

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError):
            intersect_subcluster(["a"], ["b"], _one_spectrum("a"))

    def test_missing_spectrum_rejected(self):
        with pytest.raises(ValueError):
            intersect_subcluster(["a"], ["a"], _one_spectrum("z"))


class TestAdjustedRandIndex:
    def test_perfect_agreement(self):
        assert adjusted_rand_index([1, 1, 2, 2], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        # classic contingency example
        a = [1, 1, 1, 2, 2, 2]
        b = [1, 1, 2, 2, 3, 3]
        # joint: (1,1):2 (1,2):1 (2,2):1 (2,3):2 -> sum_joint = 1 + 0 + 0 + 1 = 2
        # rows: 3,3 -> 6; cols: 2,2,2 -> 3; n=6, comb2(6)=15
        # expected = 6*3/15 = 1.2; max = 4.5 -> ari = (2-1.2)/(4.5-1.2) = 0.242424...
        assert adjusted_rand_index(a, b) == pytest.approx(0.8 / 3.3)

    def test_mapping_inputs_matched_by_key(self):
        a = {"x": 1, "y": 1, "z": 2}
        b = {"z": 7, "x": 3, "y": 3}  # same partition, different labels/order
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_single_cluster_degenerate_case(self):
        assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == pytest.approx(1.0)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=2000).tolist()
        b = rng.integers(0, 4, size=2000).tolist()
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_error_cases(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            adjusted_rand_index({"a": 1}, {"b": 1})
        with pytest.raises(ValueError):
            adjusted_rand_index({"a": 1}, [1])
        with pytest.raises(ValueError):
            adjusted_rand_index([], [])

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=40),
        st.permutations(list(range(4))),
    )
    @settings(max_examples=80, deadline=None)
    def test_relabeling_invariance(self, labels, perm):
        other = [perm[v] for v in labels]
        assert adjusted_rand_index(labels, other) == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a)
        )

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_bounded_above_by_one(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert adjusted_rand_index(a, b) <= 1.0 + 1e-12
