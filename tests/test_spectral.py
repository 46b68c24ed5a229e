"""Spectral pipeline: DFT, denoising, Fourier terms, PCA, k-medoids."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweetdyn.spectral import (
    BandSummary,
    ClusterAssignment,
    Spectra,
    band_of,
    band_summary,
    cohort_spectra,
    denoise,
    dft,
    dominant_period,
    fit_fourier,
    kmedoids,
    pca_embed,
)
from tweetdyn.spectral import _pairwise_distances
from tweetdyn.timeseries import CountSeries, DayWindow, detrend
from datetime import date


def dft1(values):
    """Spectra of one series, user ``u``."""
    return dft(np.asarray(values, dtype=np.float64)[None, :], ["u"])


def spectrum_of(bins, n_samples):
    """Spectra of one row of given bins, user ``u``."""
    return Spectra(users=("u",), bins=np.asarray(bins)[None, :], n_samples=n_samples)


def period_of(spectra):
    """Dominant period of a one-row Spectra."""
    return dominant_period(spectra.magnitudes[0], spectra.n_samples)


def brute_force_dft(values):
    """O(N^2) direct evaluation of the half spectrum."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    t = np.arange(n)
    return np.array(
        [np.sum(values * np.exp(-2j * np.pi * k * t / n)) for k in range(n // 2 + 1)]
    )


def half_spectrum_power(spectra, row=0):
    """Total signal power reassembled from one row's half spectrum (Parseval)."""
    mags2 = spectra.magnitudes[row] ** 2
    n = spectra.n_samples
    weights = np.full(len(mags2), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return float(np.sum(weights * mags2) / n)


class TestDft:
    @pytest.mark.parametrize("n", [8, 15, 16, 237])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(42 + n)
        values = rng.normal(size=n)
        spec = dft1(values)
        assert spec.bins.shape == (1, n // 2 + 1)
        np.testing.assert_allclose(spec.bins[0], brute_force_dft(values), atol=1e-9)

    def test_pure_tone_lands_in_its_bin(self):
        n = 237
        t = np.arange(n)
        values = np.cos(2 * np.pi * 61 * t / n)
        spec = dft1(values)
        mags = spec.magnitudes[0]
        assert int(np.argmax(mags)) == 61
        # an exact-frequency tone has magnitude N/2 in its bin, ~0 elsewhere
        assert mags[61] == pytest.approx(n / 2, rel=1e-9)
        others = np.delete(mags, 61)
        assert np.max(others) < 1e-9 * mags[61]

    @pytest.mark.parametrize("n", [16, 17])
    def test_reconstruct_round_trip(self, n):
        rng = np.random.default_rng(7)
        values = rng.normal(size=n)
        spec = dft1(values)
        np.testing.assert_allclose(
            np.fft.irfft(spec.bins[0], n=spec.n_samples), values, atol=1e-9
        )

    @pytest.mark.parametrize("n", [10, 237, 238])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n)
        time_power = float(np.sum(values**2))
        assert half_spectrum_power(dft1(values)) == pytest.approx(
            time_power, rel=1e-12
        )

    def test_carries_user_id_from_series(self):
        counts = np.vstack([np.arange(20, dtype=np.int64), np.ones(20, dtype=np.int64)])
        spec = dft(detrend(counts, ma_window=7), ["u7", "u3"])
        assert spec.users == ("u7", "u3")
        assert spec.rows(["u3"]).tolist() == [1]

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            dft(np.array([[1.0]]), ["u"])
        with pytest.raises(ValueError):
            dft(np.array([1.0, 2.0]), ["u"])  # one series, not a table


def kept(spectra, q):
    """Which bins of a one-row Spectra survive :func:`denoise` at ``q``."""
    return denoise(spectra, q).bins[0] != 0


class TestQuantile:
    """The q-quantile threshold, seen through the bins that denoise keeps:
    a nonzero bin survives exactly when its power is at or above it."""

    def test_inverse_cdf_convention(self):
        # powers sorted: [1, 4, 9]; ceil(0.34 * 3) - 1 = 1 -> 4
        spec = spectrum_of([1.0, 2.0, 3.0], 4)
        power = spec.magnitudes[0] ** 2
        assert (kept(spec, 0.34) == (power >= 4.0)).all()
        assert (kept(spec, 1.0) == (power >= 9.0)).all()
        assert (kept(spec, 0.0) == (power >= 0.0)).all()
        assert (kept(spec, 1e-9) == (power >= 1.0)).all()

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(11)
        mags = rng.uniform(0.1, 5.0, size=17)
        spec = spectrum_of(mags.astype(complex), 32)
        for q in (0.1, 0.33, 0.5, 0.9, 1.0):
            powers = sorted(m * m for m in mags)
            expect = powers[math.ceil(q * len(powers)) - 1]
            assert (kept(spec, q) == (mags * mags >= expect)).all()

    def test_rejects_out_of_range(self):
        spec = spectrum_of(np.ones(3), 4)
        with pytest.raises(ValueError):
            denoise(spec, -0.1)
        with pytest.raises(ValueError):
            denoise(spec, 1.1)


class TestDenoise:
    def test_zeroes_strictly_below_threshold(self):
        spec = spectrum_of([1.0, 2.0, 3.0], 4)
        out = denoise(spec, q=0.34)  # threshold 4: only power 1 dies
        np.testing.assert_allclose(out.bins[0], [0.0, 2.0, 3.0])

    def test_q_zero_is_identity(self):
        rng = np.random.default_rng(3)
        spec = dft1(rng.normal(size=30))
        out = denoise(spec, q=0.0)
        np.testing.assert_array_equal(out.bins, spec.bins)

    def test_ties_at_threshold_survive(self):
        spec = spectrum_of([2.0, 2.0, 2.0, 5.0], 6)
        out = denoise(spec, q=0.5)  # threshold = 4; nothing strictly below
        np.testing.assert_allclose(out.bins, spec.bins)

    def test_planted_tones_survive_default_q(self):
        n = 237
        t = np.arange(n)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = (
                10 * np.cos(2 * np.pi * t / 7)
                + 8 * np.cos(2 * np.pi * 34 * t / n + 0.3)
                + 6 * np.cos(2 * np.pi * 59 * t / n + 1.1)
                + 10 * np.cos(2 * np.pi * 11 * t / n + 2.0)
                + rng.normal(0, 1.0, size=n)
            )
            out = denoise(dft1(values), q=0.33)
            for k in (34, 59, 11):
                assert abs(out.bins[0, k]) > 0, f"tone bin {k} zeroed (seed {seed})"

    @given(st.integers(0, 99), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_zeroed_count_bounded_by_quantile_rank(self, seed, q):
        rng = np.random.default_rng(seed)
        spec = dft1(rng.normal(size=41))
        out = denoise(spec, q=q)
        n_zeroed = int(np.sum(out.bins == 0))
        # at most ceil(q*n) - 1 bins lie strictly below the q-quantile
        assert n_zeroed <= max(0, math.ceil(q * spec.bins.shape[1]) - 1)
        np.testing.assert_array_equal(
            out.bins[out.bins != 0], spec.bins[out.bins != 0]
        )


def cosine_sum(terms, n):
    """``sum_j A_j cos(omega_j t + phase_j)`` at ``t = 0 .. n - 1``."""
    t = np.arange(n, dtype=np.float64)
    out = np.zeros(n)
    for term in terms:
        out += term.amplitude * np.cos(term.omega * t + term.phase)
    return out


class TestFitFourier:
    def test_two_tone_exact_recovery(self):
        n = 200
        t = np.arange(n)
        values = 3.0 * np.cos(2 * np.pi * 10 * t / n + 0.5) + 1.5 * np.cos(
            2 * np.pi * 40 * t / n - 1.0
        )
        terms = fit_fourier(dft1(values), 0, j_terms=2)
        assert [tm.bin for tm in terms] == [10, 40]
        assert terms[0].amplitude == pytest.approx(3.0, rel=1e-9)
        assert terms[0].phase == pytest.approx(0.5, abs=1e-9)
        assert terms[1].amplitude == pytest.approx(1.5, rel=1e-9)
        assert terms[1].phase == pytest.approx(-1.0, abs=1e-9)
        np.testing.assert_allclose(cosine_sum(terms, n), values, atol=1e-9)
        assert np.std(values - cosine_sum(terms, n)) == pytest.approx(0.0, abs=1e-9)

    def test_terms_sorted_by_descending_amplitude(self):
        n = 120
        t = np.arange(n)
        values = (
            1.0 * np.cos(2 * np.pi * 5 * t / n)
            + 3.0 * np.cos(2 * np.pi * 17 * t / n)
            + 0.5 * np.cos(2 * np.pi * 30 * t / n)
        )
        terms = fit_fourier(dft1(values), 0, j_terms=3)
        assert [tm.bin for tm in terms] == [17, 5, 30]

    def test_exact_magnitude_ties_break_to_lower_bin(self):
        bins = np.zeros(9, dtype=complex)
        bins[3] = 4.0
        bins[6] = 4.0j  # same magnitude, different phase
        bins[1] = 1.0
        spec = spectrum_of(bins, 16)
        terms = fit_fourier(spec, 0, j_terms=2)
        assert [tm.bin for tm in terms] == [3, 6]

    def test_residual_sigma_matches_noise_level(self):
        n = 237
        t = np.arange(n)
        rng = np.random.default_rng(5)
        noise = rng.normal(0, 1.0, size=n)
        values = 12.0 * np.cos(2 * np.pi * 34 * t / n) + noise
        terms = fit_fourier(dft1(values), 0, j_terms=1)
        # one term soaks up the tone; residual sigma ~ the unit noise sigma
        assert 0.8 <= np.std(values - cosine_sum(terms, n)) <= 1.3

    @pytest.mark.parametrize("n", [24, 25])
    def test_all_bins_model_reproduces_series(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n)
        spec = dft1(values)
        terms = fit_fourier(spec, 0, j_terms=spec.bins.shape[1])
        np.testing.assert_allclose(cosine_sum(terms, n), values, atol=1e-9)
        assert np.std(values - cosine_sum(terms, n)) == pytest.approx(0.0, abs=1e-9)

    def test_j_terms_validated(self):
        spec = dft1(np.arange(10.0))
        with pytest.raises(ValueError):
            fit_fourier(spec, 0, j_terms=0)
        with pytest.raises(ValueError):
            fit_fourier(spec, 0, j_terms=spec.bins.shape[1] + 1)


class TestSpectraMatrix:
    """``Spectra.magnitudes`` is the PCA matrix, one row per user."""

    def test_rows_sorted_by_id(self):
        values = np.vstack([np.arange(8.0) * (i + 1) for i in range(3)])
        spectra = dft(values, ["zeta", "alpha", "mid"])
        ids = sorted(spectra.users)
        assert ids == ["alpha", "mid", "zeta"]
        matrix = spectra.magnitudes[spectra.rows(ids)]
        np.testing.assert_allclose(matrix[2], dft1(values[0]).magnitudes[0])

    def test_rejects_mixed_bins_and_duplicate_ids(self):
        with pytest.raises(ValueError):
            Spectra(users=("a", "b"), bins=np.zeros((2, 5)), n_samples=10)
        with pytest.raises(ValueError):
            dft(np.vstack([np.arange(8.0), np.arange(8.0)]), ["a", "a"])
        with pytest.raises(ValueError):
            dft(np.vstack([np.arange(8.0), np.arange(8.0)]), ["a"])
        with pytest.raises(ValueError):
            dft1(np.arange(8.0)).rows(["b"])


class TestPcaEmbed:
    def test_variance_conserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 6))
        emb = pca_embed(x, dims=3)
        centered = x - x.mean(axis=0)
        total_var = np.sum(centered**2) / (len(x) - 1)
        assert np.sum(emb.eigenvalues) == pytest.approx(total_var, rel=1e-9)
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)  # descending

    def test_rank_two_data_has_two_nonzero_eigenvalues(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(2, 5))
        coeffs = rng.normal(size=(30, 2))
        x = coeffs @ basis
        emb = pca_embed(x, dims=3)
        assert emb.eigenvalues[0] > 1e-6
        assert emb.eigenvalues[1] > 1e-6
        np.testing.assert_allclose(emb.eigenvalues[2:], 0.0, atol=1e-9)

    def test_distances_preserved_at_full_rank_dims(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(3, 8))
        x = rng.normal(size=(25, 3)) @ basis
        emb = pca_embed(x, dims=3)
        centered = x - x.mean(axis=0)

        def pd(a):
            return np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)

        np.testing.assert_allclose(pd(emb.points), pd(centered), atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        emb = pca_embed(x, dims=3)
        # each axis of the points is a principal axis, signed so that its
        # largest-magnitude loading is positive
        centered = x - x.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        for axis, row in zip(emb.points.T, vt[:3]):
            sign = np.sign(row[np.argmax(np.abs(row))])
            np.testing.assert_allclose(axis, centered @ (sign * row), atol=1e-12)

    def test_separated_groups_dominate_first_axis(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 0.1, size=(15, 4))
        b = rng.normal(0, 0.1, size=(15, 4))
        b[:, 0] += 10.0
        x = np.vstack([a, b])
        emb = pca_embed(x, dims=2)
        assert emb.eigenvalues[0] / emb.eigenvalues[1] > 10
        # the two groups separate along the first embedded coordinate
        left, right = emb.points[:15, 0], emb.points[15:, 0]
        assert max(left) < min(right) or max(right) < min(left)

    def test_validation(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            pca_embed(x, dims=3)  # needs dims+1 rows
        with pytest.raises(ValueError):
            pca_embed(np.zeros(4), dims=1)


def exhaustive_kmedoids_cost(points, k):
    """Global optimum of the k-medoids objective by full enumeration."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    return min(
        float(dist[:, list(combo)].min(axis=1).sum())
        for combo in itertools.combinations(range(n), k)
    )


KMEDOID_FIXTURES = [
    # (name, points, k)
    ("two_pairs", [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]], 2),
    ("line7_k2", [[float(i), 0.0] for i in range(7)], 2),
    ("line7_k3", [[float(i), 0.0] for i in range(7)], 3),
    ("triangle_plus", [[0, 0], [1, 0], [0.5, 0.9], [10, 10], [10.5, 10.2]], 2),
    ("duplicates", [[0, 0], [0, 0], [0, 0], [4, 4], [4, 4], [9, 0]], 3),
    ("grid6_k2", [[x, y] for x in (0, 1, 2) for y in (0, 5)], 2),
    ("singleton", [[2.5, -1.0]], 1),
]


class TestKmedoids:
    @pytest.mark.parametrize("name,points,k", KMEDOID_FIXTURES)
    def test_matches_exhaustive_optimum(self, name, points, k):
        ids = [f"p{i}" for i in range(len(points))]
        result = kmedoids(np.array(points, dtype=float), ids, k=k, seed=0, restarts=10)
        assert result.cost == pytest.approx(
            exhaustive_kmedoids_cost(points, k), abs=1e-9
        ), name

    def test_k1_picks_distance_sum_minimizer(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0], [10, 0]])
        ids = list("abcde")
        result = kmedoids(pts, ids, k=1, restarts=3, seed=0)
        assert result.medoids == ("c",)  # argmin of summed distances
        assert set(result.labels.values()) == {1}

    def test_labels_are_one_based_and_cover_all_ids(self):
        pts = np.array([[0.0, 0], [0.2, 0], [8, 0], [8.1, 0]])
        ids = ["w", "x", "y", "z"]
        result = kmedoids(pts, ids, k=2, seed=0, restarts=10)
        assert isinstance(result, ClusterAssignment)
        assert set(result.labels) == set(ids)
        assert set(result.labels.values()) == {1, 2}
        assert result.labels["w"] == result.labels["x"]
        assert result.labels["y"] == result.labels["z"]
        assert sorted(result.members(1) + result.members(2)) == sorted(ids)

    def test_input_order_invariance(self):
        rng = np.random.default_rng(9)
        pts = np.vstack(
            [rng.normal(c, 0.3, size=(6, 3)) for c in (0.0, 5.0, 10.0)]
        )
        ids = [f"u{i:02d}" for i in range(18)]
        base = kmedoids(pts, ids, k=3, seed=4, restarts=10)
        for shuffle_seed in range(5):
            perm = np.random.default_rng(shuffle_seed).permutation(18)
            shuffled = kmedoids(pts[perm], [ids[i] for i in perm], k=3, seed=4, restarts=10)
            assert shuffled.labels == base.labels
            assert shuffled.medoids == base.medoids
            assert shuffled.cost == pytest.approx(base.cost)

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(12, 2))
        ids = [f"u{i}" for i in range(12)]
        a = kmedoids(pts, ids, k=3, seed=7, restarts=10)
        b = kmedoids(pts, ids, k=3, seed=7, restarts=10)
        assert a == b

    def test_k_exceeding_distinct_points_rejected(self):
        pts = np.array([[0.0, 0], [0.0, 0], [1, 1]])
        with pytest.raises(ValueError):
            kmedoids(pts, ["a", "b", "c"], k=3, seed=0, restarts=10)

    def test_basic_validation(self):
        pts = np.array([[0.0, 0], [1, 1]])
        with pytest.raises(ValueError):
            kmedoids(pts, ["a"], k=1, seed=0, restarts=10)  # id count mismatch
        with pytest.raises(ValueError):
            kmedoids(pts, ["a", "a"], k=1, seed=0, restarts=10)  # duplicate ids
        with pytest.raises(ValueError):
            kmedoids(pts, ["a", "b"], k=0, seed=0, restarts=10)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        pts = np.array([[0.0, 0], [1, 1], [2, 0]])
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            kmedoids(pts, ["a", "b", "c"], k=2, seed=0, restarts=restarts)


@st.composite
def point_set_st(draw):
    """Points with duplicates: integer grids (many tied distances and costs)
    or floats; k anywhere from 1 to the number of distinct points."""
    n = draw(st.integers(1, 16))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coord = st.integers(0, 3).map(float)
    else:
        coord = st.floats(-5.0, 5.0, allow_nan=False, width=32)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
    if draw(st.booleans()):  # repeat some points
        pts = np.vstack([pts, pts[: draw(st.integers(0, n))]])
    distinct = len({tuple(row) for row in pts})
    k = draw(st.sampled_from([1, distinct, draw(st.integers(1, distinct))]))
    return pts, k


class TestKmedoidsMatchesQuadraticReference:
    """Swap descent that prices every candidate of a slot at once against
    the loop that priced each swap from scratch (``reference_loops``)."""

    @settings(max_examples=300, deadline=None)
    @given(point_set_st(), st.integers(0, 3), st.integers(1, 4))
    def test_same_labels_medoids_and_cost(self, case, seed, restarts):
        pts, k = case
        ids = [f"p{i:02d}" for i in range(len(pts))]
        new = kmedoids(pts, ids, k=k, seed=seed, restarts=restarts)
        old = ref.kmedoids(pts, ids, k=k, seed=seed, restarts=restarts)
        assert new.labels == old.labels
        assert new.medoids == old.medoids
        assert new.cost.hex() == old.cost.hex()

    @pytest.mark.parametrize("layout", ["gaussian", "grid"])
    def test_more_points_than_one_row_block(self, layout):
        # candidates are priced 64 rows at a time; 150 points span three blocks
        if layout == "grid":
            pts = np.array([[x, y] for x in range(10) for y in range(15)], dtype=float)
        else:
            pts = np.random.default_rng(3).normal(size=(150, 3))
        ids = [f"p{i:03d}" for i in range(150)]
        new = kmedoids(pts, ids, k=5, seed=1, restarts=2)
        old = ref.kmedoids(pts, ids, k=5, seed=1, restarts=2)
        assert new == old
        assert new.cost.hex() == old.cost.hex()

    def test_gain_below_margin_is_no_swap(self):
        # 0.5 - 0.4 rounds to 3e-17 below 0.2 - 0.1, so trading medoid 0.4 for
        # 0.2 would "gain" less than the 1e-12 margin
        pts = np.array([[0.5], [0.4], [0.2], [0.1]])
        result = kmedoids(pts, ["p0", "p1", "p2", "p3"], k=3, seed=0, restarts=1)
        assert result.medoids == ("p3", "p1", "p0")
        assert result.cost == 0.1

    def test_k_equals_n(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [3, 3]])
        ids = list("abcd")
        result = kmedoids(pts, ids, k=4, restarts=2, seed=0)
        assert result == ref.kmedoids(pts, ids, k=4, seed=0, restarts=2)
        assert result.cost == 0.0


class TestPairwiseDistancesInRowBlocks:
    """Distances built block x n x d at a time against the whole n x n x d
    tensor (``reference_loops``): the same floats, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 150),
        st.integers(1, 39),
        st.sampled_from([1, 7, 64]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_equal_to_whole_tensor(self, n, d, block, grid, seed):
        rng = np.random.default_rng(seed)
        if grid:
            pts = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
        else:
            pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        got = _pairwise_distances(pts, block=block)
        assert got.tobytes() == ref.pairwise_distances(pts).tobytes()


class TestBandSummary:
    def test_hand_quartiles(self):
        mags = np.array([[m, 2.0 * m] for m in (1.0, 2.0, 3.0)])
        summary = band_summary(mags)
        assert isinstance(summary, BandSummary)
        np.testing.assert_allclose(summary.mins, [1.0, 2.0])
        np.testing.assert_allclose(summary.q1, [1.5, 3.0])
        np.testing.assert_allclose(summary.medians, [2.0, 4.0])
        np.testing.assert_allclose(summary.q3, [2.5, 5.0])
        np.testing.assert_allclose(summary.maxs, [3.0, 6.0])

    def test_median_spectrum_and_dominant_period(self):
        n = 240
        t = np.arange(n)
        rows = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rows.append(9.0 * np.cos(2 * np.pi * 60 * t / n) + rng.normal(0, 0.5, size=n))
        specs = dft(np.vstack(rows), [f"u{i}" for i in range(5)])
        band = band_summary(specs.magnitudes)
        # bin 60 of 240 samples
        assert dominant_period(band.medians, specs.n_samples) == pytest.approx(4.0)

    def test_mixed_sample_counts_rejected(self):
        with pytest.raises(ValueError):
            band_summary(dft1(np.arange(8.0)).magnitudes[0])  # not a matrix
        with pytest.raises(ValueError):
            band_summary(np.zeros((0, 5)))


class TestDominantPeriod:
    def test_excludes_dc_bin(self):
        # huge DC offset must not masquerade as a period
        n = 240
        t = np.arange(n)
        values = 100.0 + 2.0 * np.cos(2 * np.pi * 30 * t / n)
        assert period_of(dft1(values)) == pytest.approx(8.0)

    def test_all_zero_oscillation_rejected(self):
        spec = spectrum_of([5.0, 0.0, 0.0], 4)
        with pytest.raises(ValueError):
            period_of(spec)


def _outcome(fn):
    """What a call returns, floats as hex; or the text of its ValueError."""
    try:
        value = fn()
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(value, float):
        return ("ok", value.hex())
    return ("ok", tuple(
        (t.amplitude.hex(), t.omega.hex(), t.phase.hex(), t.bin) for t in value
    ))


def _same_band(new, old):
    for name in ("mins", "q1", "medians", "q3", "maxs"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name


def _table_row(rng, kind, n_days):
    if kind == "zero":
        return np.zeros(n_days, dtype=np.int64)
    if kind == "constant":
        return np.full(n_days, int(rng.integers(1, 50)), dtype=np.int64)
    return rng.poisson(rng.uniform(0.1, 40.0), size=n_days)


@st.composite
def count_table_st(draw):
    """A (users, days) count table of Poisson, all-zero and constant rows,
    with a detrend window, a denoise quantile, a cluster and a term count."""
    n_users = draw(st.integers(1, 40))
    n_days = draw(st.integers(3, 60))
    ma_window = draw(st.integers(1, n_days - 2))
    q = draw(st.one_of(st.sampled_from([0.0, 0.33, 0.5, 1.0]), st.floats(0.0, 1.0)))
    kinds = draw(
        st.lists(
            st.sampled_from(["poisson", "zero", "constant"]),
            min_size=n_users,
            max_size=n_users,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.array([_table_row(rng, kind, n_days) for kind in kinds], dtype=np.int64)
    users = [f"u{i:02d}" for i in range(n_users)]
    cluster = sorted(draw(st.lists(st.sampled_from(users), min_size=1, unique=True)))
    n_bins = (n_days - ma_window) // 2 + 1
    j_terms = draw(st.integers(0, n_bins + 1))
    return table, users, ma_window, q, cluster, j_terms


class TestTableChainMatchesPerUserLoop:
    """The (users x days) chain against the per-user loop it replaced
    (``reference_loops``): the same bytes, or the same ValueError text."""

    def check(self, table, users, ma_window, q, cluster, j_terms):
        window = DayWindow.of_length(date(2016, 3, 9), table.shape[1])
        oscillators = detrend(table, ma_window)
        for u, row, osc in zip(users, table, oscillators):
            old = ref.detrend(CountSeries(window=window, values=row), ma_window, u)
            assert osc.tobytes() == old.values.tobytes()
        new = cohort_spectra(table, users, ma_window, q)
        old = ref.cohort_spectra(window, table, users, ma_window, q)
        assert new.users == tuple(old)
        assert new.bins.tobytes() == np.vstack([old[u].bins for u in users]).tobytes()
        ids, matrix = ref.spectra_matrix(list(old.values()))
        assert list(new.users) == ids
        assert new.magnitudes.tobytes() == matrix.tobytes()
        for members in (users, cluster):
            band = band_summary(new.magnitudes[new.rows(members)])
            old_members = [old[u] for u in members]
            _same_band(band, ref.band_summary(old_members))
            old_period = _outcome(lambda: ref.dominant_period(ref.median_spectrum(old_members)))
            assert _outcome(lambda: dominant_period(band.medians, new.n_samples)) == old_period
            # band_of gives the same band, and no period where the loop
            # finds every oscillatory median zero
            shared, period = band_of(new, members)
            _same_band(shared, band)
            if old_period == ("error", "all oscillatory bins are zero; no dominant period"):
                assert period is None
            else:
                assert ("ok", period.hex()) == old_period
        for i, u in enumerate(users):
            assert _outcome(
                lambda: dominant_period(new.magnitudes[i], new.n_samples)
            ) == _outcome(lambda: ref.dominant_period(old[u]))
            assert _outcome(lambda: fit_fourier(new, i, j_terms)) == _outcome(
                lambda: ref.fit_fourier(old[u], j_terms)
            )

    @settings(max_examples=200, deadline=None)
    @given(count_table_st())
    def test_same_bytes(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n_days", [244, 243])
    def test_cohort_sized_table(self, n_days):
        rng = np.random.default_rng(n_days)
        table = rng.poisson(rng.uniform(0.5, 30.0, size=(256, 1)), size=(256, n_days))
        users = [f"u{i:03d}" for i in range(256)]
        self.check(table, users, 7, 0.33, users[::5], 6)

    @pytest.mark.parametrize(
        "n_days,ma_window,q", [(20, 0, 0.33), (7, 7, 0.33), (20, 7, 1.5), (20, 7, -0.1)]
    )
    def test_same_errors(self, n_days, ma_window, q):
        window = DayWindow.of_length(date(2016, 3, 9), n_days)
        table = np.random.default_rng(0).poisson(5.0, size=(3, n_days))
        users = ["a", "b", "c"]

        def new():
            return cohort_spectra(table, users, ma_window, q)

        def old():
            return ref.cohort_spectra(window, table, users, ma_window, q)

        with pytest.raises(ValueError) as new_exc:
            new()
        with pytest.raises(ValueError) as old_exc:
            old()
        assert str(new_exc.value) == str(old_exc.value)
