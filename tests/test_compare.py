"""Cross-tabulation of the two clusterings, sub-cluster summaries, and the
adjusted Rand index the tests score clusterings with."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoring import adjusted_rand_index
from tweetdyn.compare import cross_tab, diversity, intersect_subcluster
from tweetdyn.spectral import dft


class TestCrossTab:
    def test_hand_computed_cells(self):
        spectral = [["a", "b", "c"], ["d", "e", "f"]]
        topic = [["a", "b", "d"], ["c", "e", "f"]]
        cells = cross_tab(spectral, topic)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, [[2, 1], [1, 2]])

    def test_users_in_one_clustering_ignored(self):
        cells = cross_tab([["a", "b", "zz"]], [["a", "b", "notinspectral"]])
        assert cells.sum() == 2

    def test_diversity_entropy(self):
        cells = cross_tab([["a", "b"], ["c", "d"]], [["a", "c", "d"], ["b"]])
        div = diversity(cells)
        # cluster 1 splits 1/1 across two communities: 1 bit
        assert div[1] == {"clusters_hit": 2, "entropy_bits": pytest.approx(1.0)}
        # cluster 2 sits in one community: 0 bits
        assert div[2] == {"clusters_hit": 1, "entropy_bits": pytest.approx(0.0)}

    def test_one_community_is_zero_bits_not_minus_zero(self):
        # json writes -0.0 as "-0.0"
        (entropy,) = (d["entropy_bits"] for d in diversity(np.array([[3, 0]])).values())
        assert json.dumps(entropy) == "0.0"

    def test_empty_row_touches_nothing(self):
        assert diversity(np.array([[0, 0], [1, 0]]))[1] == {
            "clusters_hit": 0,
            "entropy_bits": 0.0,
        }

    def test_duplicate_community_membership_rejected(self):
        with pytest.raises(ValueError, match="user a"):
            cross_tab([["a"]], [["a"], ["a"]])

    def test_duplicate_spectral_membership_rejected(self):
        with pytest.raises(ValueError, match="user a"):
            cross_tab([["a", "b"], ["a"]], [["a", "b"]])

    def test_disjoint_clusterings_rejected(self):
        with pytest.raises(ValueError):
            cross_tab([["a"]], [["x", "y"]])


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
        users, band, period = intersect_subcluster(
            ["u0", "u1", "u2", "u9"], ["u1", "u2", "u3"], spectra
        )
        assert users == ("u1", "u2")
        assert period == pytest.approx(4.0)
        # the band is the two users' own: each bin's median is their mean
        np.testing.assert_allclose(band.medians, spectra.magnitudes[[1, 2]].mean(axis=0))

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
