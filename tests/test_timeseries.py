"""Windows, daily counts, detrending and segment fits."""

import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reference_loops import offset_of
from tweet_tables import TweetRecord, corpus_of
from tweetdyn.timeseries import (
    CountSeries,
    DayWindow,
    accumulate,
    changepoint_significant,
    daily_counts,
    counts_by_user,
    detrend,
    fit_segment,
)


def _record(user_id: str, when: datetime, i: int = 0) -> TweetRecord:
    return TweetRecord(
        tweet_id=f"t{i}",
        user_id=user_id,
        timestamp=when,
        language="en",
        is_retweet=False,
        retweeted_user_id=None,
        text="hello world",
    )


class TestDayWindow:
    def test_default_analysis_windows_span_244_days(self):
        assert DayWindow(date(2016, 3, 9), date(2016, 11, 8)).n_days == 244
        assert DayWindow(date(2016, 11, 29), date(2017, 7, 31)).n_days == 244

    def test_end_date_is_outside(self):
        w = DayWindow(date(2016, 3, 9), date(2016, 11, 8))
        assert offset_of(w, date(2016, 3, 9)) == 0
        assert offset_of(w, date(2016, 11, 7)) == 243
        assert offset_of(w, date(2016, 11, 8)) is None

    def test_datetime_offsets_and_tz(self):
        w = DayWindow(date(2016, 3, 9), date(2016, 3, 12))
        naive = datetime(2016, 3, 10, 23, 59)
        aware = datetime(2016, 3, 11, 1, 30, tzinfo=timezone.utc)
        assert offset_of(w, naive) == 1
        assert offset_of(w, aware) == 2
        # an aware stamp east of UTC can fall on the previous UTC day
        east = datetime(2016, 3, 12, 1, 0, tzinfo=timezone(timedelta(hours=3)))
        assert offset_of(w, east) == 2

    def test_date_of_round_trip(self):
        w = DayWindow(date(2016, 3, 9), date(2016, 11, 8))
        for t in (0, 100, 243):
            assert offset_of(w, w.date_of(t)) == t
        with pytest.raises(IndexError):
            w.date_of(244)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            DayWindow(date(2016, 1, 1), date(2016, 1, 1))

    @given(st.integers(min_value=-400, max_value=400))
    def test_contains_iff_offset(self, delta):
        w = DayWindow(date(2016, 1, 1), date(2016, 12, 31))
        day = date(2016, 6, 1) + timedelta(days=delta)
        t = offset_of(w, day)
        assert (t is not None) == (w.start <= day < w.end)
        if t is not None:
            assert 0 <= t < w.n_days
            assert w.date_of(t) == day


class TestDailyCounts:
    def test_hand_counts(self):
        w = DayWindow(date(2016, 1, 1), date(2016, 1, 4))
        records = [
            _record("a", datetime(2016, 1, 1, 5), 1),
            _record("a", datetime(2016, 1, 1, 9), 2),
            _record("a", datetime(2016, 1, 3, 1), 3),
            _record("b", datetime(2016, 1, 2, 8), 4),
            _record("a", datetime(2016, 1, 4, 0), 5),  # outside
        ]
        corpus = corpus_of(records)
        table = counts_by_user(corpus, w, ["a"])
        assert table.tolist() == [[2, 0, 1]]
        agg = daily_counts(corpus, w)
        assert agg.values.tolist() == [2, 1, 1]

    def test_aggregate_equals_sum_of_users(self):
        w = DayWindow(date(2016, 1, 1), date(2016, 1, 11))
        rng = np.random.default_rng(5)
        records = []
        for i in range(200):
            when = datetime(2016, 1, 1, tzinfo=timezone.utc) + timedelta(
                hours=int(rng.integers(0, 10 * 24))
            )
            records.append(_record(f"u{int(rng.integers(3))}", when, i))
        corpus = corpus_of(records)
        total = daily_counts(corpus, w).values
        per_user = counts_by_user(corpus, w, ["u0", "u1", "u2"])
        assert (per_user.sum(axis=0) == total).all()

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_poisson_mean_recovery(self, seed):
        # law of large numbers: sample mean within 3*sqrt(lambda/N) of lambda
        lam, n_days = 5.0, 400
        w = DayWindow.of_length(date(2015, 1, 1), n_days)
        rng = np.random.default_rng(seed)
        records = []
        i = 0
        for day, k in enumerate(rng.poisson(lam, n_days)):
            for _ in range(k):
                records.append(
                    _record("u", datetime(2015, 1, 1) + timedelta(days=day), i)
                )
                i += 1
        (row,) = counts_by_user(corpus_of(records), w, ["u"])
        assert abs(row.mean() - lam) < 3.0 * np.sqrt(lam / n_days)

    def test_negative_and_length_validation(self):
        w = DayWindow(date(2016, 1, 1), date(2016, 1, 4))
        with pytest.raises(ValueError):
            CountSeries(window=w, values=np.array([1, 2]))
        with pytest.raises(ValueError):
            CountSeries(window=w, values=np.array([1, -1, 0]))

    def test_values_immutable(self):
        w = DayWindow(date(2016, 1, 1), date(2016, 1, 4))
        s = CountSeries(window=w, values=np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            s.values[0] = 9


class TestAccumulate:
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60)
    )
    def test_nondecreasing_and_total(self, counts):
        w = DayWindow.of_length(date(2016, 1, 1), len(counts))
        s = accumulate(CountSeries(window=w, values=np.array(counts)))
        assert (np.diff(s) >= 0).all()
        assert s[-1] == sum(counts)
        assert s[0] == counts[0]


class TestDetrend:
    def test_constant_input_maps_to_zero(self):
        xi = detrend(np.full(30, 7), ma_window=7)
        assert len(xi) == 23
        assert np.allclose(xi, 0.0)

    def test_linear_ramp_maps_to_constant_four(self):
        # nu[t] = t: trailing 7-day mean is t - 4, so xi is identically 4
        xi = detrend(np.arange(40), ma_window=7)
        assert np.allclose(xi, 4.0)

    def test_output_length_and_offsets(self):
        xi = detrend(np.ones(244), ma_window=7)
        assert len(xi) == 237
        # sample i is day offset i + 7: mark days 7 and 243
        marked = np.ones(244)
        marked[[7, 243]] = 8
        xi = detrend(marked, ma_window=7)
        assert xi[0] == 7.0
        assert xi[-1] == 7.0
        assert np.all(xi[1:-1] <= 0.0)

    def test_trend_slope_strongly_attenuated(self):
        # planted cosine + strong linear trend: residual trend < 1% of input's
        n = 244
        t = np.arange(n)
        slope = 2.0
        values = 100 + slope * t + 10 * np.cos(2 * np.pi * t / 7)
        xi = detrend(np.rint(values).astype(int), ma_window=7)
        fit = np.polyfit(np.arange(len(xi)), xi, 1)
        assert abs(fit[0]) < 0.01 * slope

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            detrend(np.ones(7), ma_window=7)

    def test_moving_average_window_parameter(self):
        xi = detrend(np.arange(10), ma_window=3)
        # trailing 3-mean of t is t-2, so xi = 2
        assert len(xi) == 7
        assert np.allclose(xi, 2.0)

    def test_rows_of_a_table_detrended_independently(self):
        table = np.vstack([np.full(30, 7), np.arange(30), np.zeros(30, dtype=int)])
        xi = detrend(table, ma_window=7)
        assert xi.shape == (3, 23)
        for row, values in zip(xi, table):
            assert row.tobytes() == detrend(values, ma_window=7).tobytes()


class TestFitSegment:
    def test_exact_line_recovered(self):
        t = np.arange(100)
        s = 50.0 + 3.25 * t
        fit = fit_segment(s, (10, 90), t0=10)
        assert fit.slope == pytest.approx(3.25, abs=1e-12)
        assert fit.intercept == pytest.approx(50.0 + 3.25 * 10, abs=1e-9)
        assert fit.se_slope == pytest.approx(0.0, abs=1e-9)
        assert fit.r2_adj == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_ols(self):
        # classical standard errors against scipy.stats.linregress
        rng = np.random.default_rng(3)
        t = np.arange(120.0)
        y = 400.0 + 12.5 * t + rng.normal(0, 25.0, len(t))
        fit = fit_segment(y, (0, 119), t0=0)
        ref = stats.linregress(t, y)
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.se_slope == pytest.approx(ref.stderr, rel=1e-12)
        assert fit.se_intercept == pytest.approx(ref.intercept_stderr, rel=1e-12)
        n = len(t)
        r2_adj = 1 - (1 - ref.rvalue**2) * (n - 1) / (n - 2)
        assert fit.r2_adj == pytest.approx(r2_adj, rel=1e-12)

    def test_flat_accumulation_has_no_r2(self):
        # a range with no tweet: the accumulation is flat, so no line
        # explains any variance and R^2 is undefined, not a perfect 1
        s = np.concatenate([np.arange(20.0), np.full(30, 19.0)])
        fit = fit_segment(s, (20, 49), t0=20)
        assert fit.slope == 0.0
        assert fit.se_slope == 0.0
        assert math.isnan(fit.r2_adj)

    def test_t0_shifts_intercept_only(self):
        t = np.arange(50.0)
        y = 5.0 + 2.0 * t
        f0 = fit_segment(y, (0, 49), t0=0)
        f10 = fit_segment(y, (0, 49), t0=10)
        assert f0.slope == pytest.approx(f10.slope)
        assert f10.intercept == pytest.approx(f0.intercept + 2.0 * 10)

    def test_range_validation(self):
        s = np.arange(10.0)
        with pytest.raises(ValueError):
            fit_segment(s, (5, 15), t0=5)
        with pytest.raises(ValueError):
            fit_segment(s, (5, 5), t0=5)

    def test_interval_width(self):
        rng = np.random.default_rng(0)
        y = 1.0 + 2.0 * np.arange(40.0) + rng.normal(0, 1, 40)
        fit = fit_segment(y, (0, 39), t0=0)
        lo, hi = fit.slope_interval(sigma=5.0)
        assert hi - lo == pytest.approx(10 * fit.se_slope)


class TestChangepoint:
    def test_disjoint_and_overlapping(self):
        rng = np.random.default_rng(1)
        t = np.arange(200.0)
        y1 = 100 + 10.0 * t + rng.normal(0, 5, 200)
        y2 = 100 + 10.0 * t + rng.normal(0, 5, 200)
        y3 = 100 + 40.0 * t + rng.normal(0, 5, 200)
        f1 = fit_segment(y1, (0, 199), t0=0)
        f2 = fit_segment(y2, (0, 199), t0=0)
        f3 = fit_segment(y3, (0, 199), t0=0)
        near = changepoint_significant(f1, f2, sigma=5.0)
        far = changepoint_significant(f1, f3, sigma=5.0)
        assert not near.significant
        assert far.significant

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        t = np.arange(150.0)
        fa = fit_segment(5 + 2.0 * t + rng.normal(0, 2, 150), (0, 149), t0=0)
        fb = fit_segment(5 + 9.0 * t + rng.normal(0, 2, 150), (0, 149), t0=0)
        assert (
            changepoint_significant(fa, fb, sigma=5.0).significant
            == changepoint_significant(fb, fa, sigma=5.0).significant
        )

