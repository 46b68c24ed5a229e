"""Strategy-mix symbolization and the chi-square shift test."""

import logging
import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scipy.stats

from tweet_tables import TweetRecord, corpus_of
from tweetdyn.strategy import (
    ALPHABET,
    CRITICAL_VALUE_P999_DF6,
    SymbolDistribution,
    category_table,
    chi_square_shift,
    symbol_pairs,
    symbol_string,
    symbol_table,
)
from tweetdyn.timeseries import DayWindow


def _point(o, s, a):
    """One day's (original, spreading, amplifying) row, as a count table."""
    return np.array([[o, s, a]], dtype=np.float64)


def symbolize(day):
    """The symbol :func:`symbol_table` gives a one-row count table."""
    return ALPHABET[int(symbol_table(day)[0])]


class TestSymbolize:
    """The partition cases, each run through ``symbol_table`` on one day."""

    def test_corners(self):
        assert symbolize(_point(1.0, 0.0, 0.0)) == "A"
        assert symbolize(_point(0.0, 1.0, 0.0)) == "B"
        assert symbolize(_point(0.0, 0.0, 1.0)) == "C"
        assert symbolize(_point(0.7, 0.2, 0.1)) == "A"

    def test_edges(self):
        # low original -> D; low amplifying -> E; low spreading -> F
        assert symbolize(_point(0.10, 0.45, 0.45)) == "D"
        assert symbolize(_point(0.45, 0.45, 0.10)) == "E"
        assert symbolize(_point(0.45, 0.10, 0.45)) == "F"

    def test_interior(self):
        third = 1.0 / 3.0
        assert symbolize(_point(third, third, third)) == "G"
        assert symbolize(_point(0.4, 0.35, 0.25)) == "G"

    def test_boundaries_inclusive(self):
        # counts whose shares are exactly (2/3, 1/6, 1/6) and (1/6, 1/2, 1/3);
        # the shares as floats would not sum to exactly 1
        corner, edge = _point(4, 1, 1), _point(1, 3, 2)
        assert (corner / 6).tolist() == [[2 / 3, 1 / 6, 1 / 6]]
        assert (edge / 6).tolist() == [[1 / 6, 0.5, 1 / 3]]
        # exactly 2/3 counts as a corner
        assert symbolize(corner) == "A"
        # exactly 1/6 counts as an edge (corner checked first)
        assert symbolize(edge) == "D"

    def test_empty_day_has_no_symbol(self):
        # the strategy is undefined on a day without tweets
        assert symbol_table(_point(0, 0, 0)).tolist() == [-1]

    def test_corner_takes_precedence_over_edge(self):
        # above 2/3 on one share AND below 1/6 on another: corner wins
        assert symbolize(_point(0.8, 0.1, 0.1)) == "A"

    @given(
        st.tuples(
            st.floats(0.001, 1.0), st.floats(0.001, 1.0), st.floats(0.001, 1.0)
        )
    )
    def test_total_and_scale_invariance(self, raw):
        sym = symbolize(_point(*raw))
        assert sym in ALPHABET
        # symbol depends on shares, not on absolute counts
        scaled = _point(*(x * 17.0 for x in raw))
        assert symbolize(scaled) == sym


def _rec(i, user, when, retweet_of=None):
    return TweetRecord(
        tweet_id=str(i),
        user_id=user,
        timestamp=when,
        language="en",
        is_retweet=retweet_of is not None,
        retweeted_user_id=retweet_of,
        text="",
    )


class TestSequences:
    window = DayWindow.of_length(date(2016, 3, 9), 5)
    campaign = {"u1", "u2"}

    def _corpus(self):
        base = datetime(2016, 3, 9, 12, 0, tzinfo=timezone.utc)
        day = timedelta(days=1)
        recs = []
        # day 0: 3 originals -> A
        for i in range(3):
            recs.append(_rec(f"a{i}", "u1", base))
        # day 1: inactive
        # day 2: all member retweets -> B
        recs.append(_rec("b0", "u1", base + 2 * day, retweet_of="u2"))
        # day 3: all outsider retweets -> C
        recs.append(_rec("c0", "u1", base + 3 * day, retweet_of="cnn"))
        recs.append(_rec("c1", "u1", base + 3 * day, retweet_of="bbc"))
        # day 4: balanced -> G
        recs.append(_rec("g0", "u1", base + 4 * day))
        recs.append(_rec("g1", "u1", base + 4 * day, retweet_of="u2"))
        recs.append(_rec("g2", "u1", base + 4 * day, retweet_of="cnn"))
        # another user's tweet must not leak into u1's counts
        recs.append(_rec("x0", "u2", base))
        return corpus_of(recs)

    def test_daily_category_counts(self):
        table = category_table(self._corpus(), self.campaign, ["u1", "u2"], self.window)
        assert table.shape == (2, 5, 3)
        counts = table[0]
        assert counts[0].tolist() == [3, 0, 0]
        assert counts[1].tolist() == [0, 0, 0]
        assert counts[2].tolist() == [0, 1, 0]
        assert counts[3].tolist() == [0, 0, 2]
        assert counts[4].tolist() == [1, 1, 1]
        assert table[1].sum(axis=1).tolist() == [1, 0, 0, 0, 0]

    def test_symbol_sequence_skips_inactive_days(self):
        table = category_table(self._corpus(), self.campaign, ["u1"], self.window)
        seq = symbol_pairs(symbol_table(table)[0])
        assert seq == [(0, "A"), (2, "B"), (3, "C"), (4, "G")]
        assert symbol_string(seq) == "ABCG"

    def test_symbol_distribution_pools_users(self):
        table = category_table(self._corpus(), self.campaign, ["u1", "u2"], self.window)
        dist = SymbolDistribution.of_symbols(symbol_table(table))
        assert isinstance(dist, SymbolDistribution)
        # u1 contributes ABCG; u2 contributes A on day 0
        assert dist.counts["A"] == 2
        assert dist.counts["B"] == 1
        assert dist.total == 5
        shares = dist.normalized
        assert math.isclose(sum(shares.values()), 1.0)
        assert shares["A"] == pytest.approx(0.4)

    def test_empty_distribution_rejected(self):
        table = category_table(corpus_of([]), self.campaign, ["u1"], self.window)
        with pytest.raises(ValueError):
            SymbolDistribution.of_symbols(symbol_table(table))


def _dist(**counts):
    return SymbolDistribution(counts=counts)


class TestSymbolDistribution:
    def test_missing_symbols_fill_as_zero(self):
        d = _dist(A=3)
        assert set(d.counts) == set(ALPHABET)
        assert d.counts["G"] == 0

    def test_rejects_unknown_and_negative(self):
        with pytest.raises(ValueError):
            SymbolDistribution(counts={"Z": 1})
        with pytest.raises(ValueError):
            SymbolDistribution(counts={"A": -1})
        with pytest.raises(ValueError):
            SymbolDistribution(counts={})


class TestChiSquare:
    def test_hand_computed_value(self):
        # E = 100 * ref_share = (50, 10, 10, 10, 10, 5, 5)
        # chi2 = 400/50 + 0 + 0 + 25/10 + 25/10 + 25/5 + 1225/5 = 263.0
        observed = _dist(A=30, B=10, C=10, D=5, E=5, F=0, G=40)
        reference = _dist(A=50, B=10, C=10, D=10, E=10, F=5, G=5)
        assert chi_square_shift(observed, reference) == pytest.approx(263.0, abs=1e-9)

    def test_identical_distributions_give_zero(self):
        d = _dist(A=20, B=30, C=10, D=5, E=5, F=15, G=15)
        assert chi_square_shift(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_scale_free_in_reference(self):
        # reference enters only through shares
        obs = _dist(A=30, B=20, C=50)
        ref1 = _dist(A=10, B=10, C=30)
        ref2 = _dist(A=20, B=20, C=60)
        assert chi_square_shift(obs, ref1) == pytest.approx(chi_square_shift(obs, ref2))

    def test_zero_reference_cell_floored_with_warning(self, caplog):
        observed = _dist(A=50, B=40, C=10)
        reference = _dist(A=60, B=40)  # C has zero reference share
        with caplog.at_level(logging.WARNING, logger="tweetdyn.strategy"):
            value = chi_square_shift(observed, reference)
        assert any("floor" in m for m in caplog.messages)
        # E = (60, 40, 0.5): chi2 = 100/60 + 0 + 90.25/0.5 = 182.1666...
        assert value == pytest.approx(100 / 60 + 90.25 / 0.5, abs=1e-9)

    def test_both_zero_contributes_nothing(self):
        observed = _dist(A=50, B=50)
        reference = _dist(A=25, B=25)
        assert chi_square_shift(observed, reference) == pytest.approx(0.0, abs=1e-12)

    def test_critical_value(self):
        assert CRITICAL_VALUE_P999_DF6 == scipy.stats.chi2.ppf(0.999, df=6)
        assert CRITICAL_VALUE_P999_DF6 == pytest.approx(22.4577, abs=5e-5)

    def test_monotone_in_divergence(self):
        ref = _dist(A=50, B=50)
        near = _dist(A=55, B=45)
        far = _dist(A=90, B=10)
        assert chi_square_shift(near, ref) < chi_square_shift(far, ref)
