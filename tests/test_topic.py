"""Text pipeline: tokenizing, stemming, Gamma keywords, similarity graph."""

import logging
import math
from collections import Counter
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweet_tables import TweetRecord, corpus_of
from tweetdyn.timeseries import DayWindow
from tweetdyn.topic import (
    Document,
    GammaFit,
    TermUserMatrix,
    TopicConfig,
    build_documents,
    build_term_user_matrix,
    dynamic_stopwords,
    gamma_fit,
    gamma_keywords,
    similarity_graph,
    stem_and_filter,
    tokenize,
    top_terms,
    topic_communities,
)
from tweetdyn.synth import CorpusSpec, GroupCorpusSpec, generate_corpus, planted_vocabulary


class TestTokenize:
    def test_default_pipeline(self):
        text = "Check https://t.co/abc123 and @somebody #MAGA Trump won 2016 ok!!"
        assert tokenize(text) == ["check", "and", "maga", "trump", "won", "ok"]

    def test_min_token_len(self):
        assert tokenize("a ok the cat") == ["ok", "the", "cat"]

    def test_digit_tokens_dropped_mixed_kept(self):
        assert tokenize("2016 abc123 42") == ["abc123"]

    def test_empty_and_junk(self):
        assert tokenize("") == []
        assert tokenize("!!! ... ---") == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopicConfig(dynamic_p=0.0)
        with pytest.raises(ValueError):
            TopicConfig(gamma_q=1.0)
        with pytest.raises(ValueError):
            TopicConfig(knn_k=0)


def _rec(i, user, when, text):
    return TweetRecord(
        tweet_id=str(i), user_id=user, timestamp=when, language="en",
        is_retweet=False, retweeted_user_id=None, text=text,
    )


class TestBuildDocuments:
    window = DayWindow.of_length(date(2016, 3, 9), 10)
    base = datetime(2016, 3, 9, 8, 0, tzinfo=timezone.utc)

    def test_time_ordered_concatenation(self):
        records = [
            _rec(2, "u1", self.base + timedelta(days=3), "second part"),
            _rec(1, "u1", self.base, "first part"),
            _rec(3, "u2", self.base, "other user"),
            _rec(4, "u1", self.base + timedelta(days=30), "outside window"),
        ]
        docs = build_documents(corpus_of(records), {"u1", "u2"}, self.window)
        assert [d.user_id for d in docs] == ["u1", "u2"]
        assert docs[0].text == "first part second part"
        assert docs[0].tokens == ("first", "part", "second", "part")

    def test_textless_user_dropped_with_warning(self, caplog):
        records = [
            _rec(1, "u1", self.base, "real words here"),
            _rec(2, "u2", self.base, "!!! 42"),
        ]
        with caplog.at_level(logging.WARNING, logger="tweetdyn.topic"):
            docs = build_documents(corpus_of(records), {"u1", "u2", "u3"}, self.window)
        assert [d.user_id for d in docs] == ["u1"]
        assert sum("no usable text" in m for m in caplog.messages) == 2


class TestStemAndFilter:
    def test_stopwords_removed_before_stemming(self):
        doc = Document(
            user_id="u",
            text="",
            tokens=("running", "the", "runs", "corruption", "this"),
        )
        counts = stem_and_filter(doc, frozenset({"the", "this"}))
        assert counts == Counter({"run": 2, "corrupt": 1})

    def test_stopword_match_is_pre_stem(self):
        # "running" is not a stopword even if "run" is
        doc = Document(user_id="u", text="", tokens=("running",))
        assert stem_and_filter(doc, frozenset({"run"})) == Counter({"run": 1})


class TestDynamicStopwords:
    def test_strict_majority_boundary(self):
        counts = {
            "u1": Counter({"shared": 1, "half": 1}),
            "u2": Counter({"shared": 2, "half": 3}),
            "u3": Counter({"shared": 1, "rare": 1}),
            "u4": Counter({"other": 1}),
        }
        stop = dynamic_stopwords(counts, p=0.5)
        # "shared" in 3/4 docs > 2 -> stopword; "half" in exactly 2/4 -> kept
        assert stop == frozenset({"shared"})

    def test_document_frequency_not_term_frequency(self):
        counts = {
            "u1": Counter({"loud": 100}),
            "u2": Counter({"quiet": 1}),
            "u3": Counter({"quiet": 1}),
        }
        # "loud" is frequent but in 1/3 docs only
        assert dynamic_stopwords(counts, p=0.5) == frozenset({"quiet"})

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_stopwords({}, p=0.5)
        with pytest.raises(ValueError):
            dynamic_stopwords({"u": Counter({"a": 1})}, p=0.0)


class TestGammaFit:
    def test_closed_form_two_six(self):
        fit = gamma_fit([2, 6])  # mean 4, sample var 8
        assert fit.k_shape == pytest.approx(2.0)
        assert fit.theta_scale == pytest.approx(2.0)
        assert fit.mean == pytest.approx(4.0)

    def test_closed_form_one_two_three(self):
        fit = gamma_fit([1, 2, 3])  # mean 2, sample var 1
        assert fit.k_shape == pytest.approx(4.0)
        assert fit.theta_scale == pytest.approx(0.5)

    def test_degenerate_inputs_rejected(self):
        for bad in ([5], [3, 3], [0, 2], [-1, 2]):
            with pytest.raises(ValueError):
                gamma_fit(bad)

    def test_quantile_closed_form_shape_two(self):
        # k=2: CDF(x) = 1 - exp(-u)(1+u), u = x/theta
        fit = GammaFit(k_shape=2.0, theta_scale=2.0)
        x = fit.quantile(0.9)
        u = x / 2.0
        assert 1 - math.exp(-u) * (1 + u) == pytest.approx(0.9, abs=1e-9)
        assert x == pytest.approx(7.77944, abs=1e-4)

    def test_quantile_against_quadrature_bisection(self):
        # independent oracle: bisect on the CDF obtained by integrating the pdf
        fit = GammaFit(k_shape=1.7, theta_scale=3.2)

        def pdf(x):
            k, th = fit.k_shape, fit.theta_scale
            return x ** (k - 1) * math.exp(-x / th) / (
                scipy.special.gamma(k) * th**k
            )

        def cdf(x):
            return scipy.integrate.quad(pdf, 0, x)[0]

        for q in (0.25, 0.5, 0.9):
            lo, hi = 0.0, 200.0
            for _ in range(80):
                mid = (lo + hi) / 2
                if cdf(mid) < q:
                    lo = mid
                else:
                    hi = mid
            assert fit.quantile(q) == pytest.approx((lo + hi) / 2, abs=1e-6)

    @given(
        st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(1e-6, 1 - 1e-6)
    )
    def test_quantile_equals_scipy_stats(self, k, theta, q):
        fit = GammaFit(k_shape=k, theta_scale=theta)
        assert fit.quantile(q) == scipy.stats.gamma.ppf(q, a=k, scale=theta)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            GammaFit(k_shape=0.0, theta_scale=1.0)
        with pytest.raises(ValueError):
            GammaFit(k_shape=1.0, theta_scale=-2.0)


class TestGammaKeywords:
    def test_threshold_application(self):
        counts = {"u1": Counter({"a": 1, "b": 1, "c": 1, "d": 1, "e": 10})}
        per_user, union = gamma_keywords(counts, q=0.9)
        threshold = gamma_fit([1, 1, 1, 1, 10]).quantile(0.9)
        expected = frozenset(t for t, c in counts["u1"].items() if c >= threshold)
        assert per_user["u1"] == expected
        assert "e" in per_user["u1"]  # the heavy term always survives
        assert union == expected

    def test_degenerate_fallback_keeps_at_or_above_mean(self):
        counts = {
            "flat": Counter({"a": 3, "b": 3}),  # zero variance
            "solo": Counter({"only": 5}),  # single term
            "empty": Counter(),
        }
        per_user, union = gamma_keywords(counts, q=0.9)
        assert per_user["flat"] == frozenset({"a", "b"})
        assert per_user["solo"] == frozenset({"only"})
        assert per_user["empty"] == frozenset()
        assert union == frozenset({"a", "b", "only"})

    def test_fallback_mean_excludes_below(self):
        counts = {"u": Counter({"hi": 4, "lo": 2, "mid": 3})}
        # mean 3 with nonzero variance: gamma path; force fallback via equal pair
        counts2 = {"u": Counter({"hi": 4, "lo": 2})}  # mean 3, var 2 -> gamma path
        per_user, _ = gamma_keywords(counts2, q=0.9)
        assert isinstance(per_user["u"], frozenset)

    def test_q_validated(self):
        with pytest.raises(ValueError):
            gamma_keywords({"u": Counter({"a": 2, "b": 4})}, q=1.0)


class TestTermUserMatrix:
    def test_vocabulary_restriction_and_shape(self):
        counts = {
            "u1": Counter({"kept": 2, "dropped": 9}),
            "u2": Counter({"kept": 1, "alsokept": 3}),
        }
        m = build_term_user_matrix(counts, vocabulary={"kept", "alsokept"})
        assert m.terms == ("alsokept", "kept")
        assert m.users == ("u1", "u2")
        np.testing.assert_allclose(m.counts, [[0, 3], [2, 1]])

    def test_normalized_columns_unit_norm(self):
        m = TermUserMatrix(
            terms=("a", "b"), users=("x", "y", "z"),
            counts=np.array([[3.0, 0.0, 0.0], [4.0, 2.0, 0.0]]),
        )
        norms = np.linalg.norm(m.normalized, axis=0)
        np.testing.assert_allclose(norms, [1.0, 1.0, 0.0])
        assert m.zero_users == ("z",)

    def test_validation(self):
        with pytest.raises(ValueError):
            TermUserMatrix(terms=("a",), users=("x",), counts=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            TermUserMatrix(
                terms=("a",), users=("x",), counts=np.array([[-1.0]])
            )
        with pytest.raises(ValueError):
            build_term_user_matrix({}, vocabulary={"a"})


class TestSimilarityGraph:
    def _matrix(self, columns, users=None):
        cols = {u: np.asarray(c, dtype=float) for u, c in columns.items()}
        users = tuple(sorted(cols))
        counts = np.column_stack([cols[u] for u in users])
        terms = tuple(f"t{i}" for i in range(counts.shape[0]))
        return TermUserMatrix(terms=terms, users=users, counts=counts)

    def test_hand_computed_cosines_and_mutual_rule(self):
        m = self._matrix({"u1": [1, 0], "u2": [1, 1], "u3": [0, 1]})
        g = similarity_graph(m, k=1)
        r = 1 / math.sqrt(2)
        assert g.edges[("u1", "u2")] == pytest.approx(r)
        assert g.edges[("u2", "u3")] == pytest.approx(r)
        assert g.n_edges == 2  # u1-u3 cosine is 0: no edge

    def test_zero_similarity_never_connects(self):
        m = self._matrix({"u1": [1, 0], "u2": [0, 1]})
        g = similarity_graph(m, k=5)
        assert g.n_edges == 0
        assert set(g.vertices) == {"u1", "u2"}

    def test_k_widens_the_net(self):
        # E is everyone's weak neighbor; with k=1 its edges fail the bound
        cols = {
            "a": [1, 0, 0, 0],
            "b": [1, 1, 0, 0],
            "c": [0, 1, 1, 0],
            "d": [0, 0, 1, 1],
            "e": [1, 1, 1, 1],
        }
        m = self._matrix(cols)
        g1 = similarity_graph(m, k=1)
        g2 = similarity_graph(m, k=2)
        assert ("a", "e") not in g1.edges
        assert ("a", "e") in g2.edges
        assert set(g1.edges) <= set(g2.edges)

    def test_isolated_zero_column_warns(self, caplog):
        m = self._matrix({"u1": [1, 0], "u2": [1, 1], "u3": [0, 0]})
        with caplog.at_level(logging.WARNING, logger="tweetdyn.topic"):
            g = similarity_graph(m, k=1)
        assert any("isolated" in msg for msg in caplog.messages)
        assert g.degrees()["u3"] == 0.0

    def test_k_validated(self):
        m = self._matrix({"u1": [1.0], "u2": [1.0]})
        with pytest.raises(ValueError):
            similarity_graph(m, k=0)


class TestSimilarityGraphMatchesLoop:
    """The partitioned bounds and the upper-triangle mask against the per-row
    sort and the pair loop (``reference_loops``): the same edges and floats."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 20),
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_same_edges(self, n_users, n_terms, k, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, size=(n_terms, n_users))
        counts[:, rng.random(n_users) < 0.2] = 0  # users with no keyword
        m = TermUserMatrix(
            terms=tuple(f"t{i}" for i in range(n_terms)),
            users=tuple(f"u{i:02d}" for i in range(n_users)),
            counts=counts,
        )
        new, old = similarity_graph(m, k=k), ref.similarity_graph(m, k=k)
        assert new.vertices == old.vertices
        assert [(e, w.hex()) for e, w in new.edges.items()] == [
            (e, w.hex()) for e, w in old.edges.items()
        ]


class TestTopTerms:
    def test_pooling_and_tie_break(self):
        counts = {
            "u1": Counter({"beta": 3, "alpha": 2}),
            "u2": Counter({"alpha": 1, "gamma": 3}),
        }
        ranked = top_terms([["u1", "u2"]], counts, m=2)
        # pooled: alpha 3, beta 3, gamma 3 -> tie broken alphabetically
        assert ranked == ((("alpha", 3), ("beta", 3)),)

    def test_unknown_users_ignored(self):
        ranked = top_terms([["ghost"]], {"u1": Counter({"a": 1})}, m=5)
        assert ranked == ((),)


class TestTopicCommunities:
    window = DayWindow.of_length(date(2016, 3, 9), 30)

    def _corpus(self, seed=0):
        groups = tuple(
            GroupCorpusSpec(
                group_id=g,
                vocabulary=planted_vocabulary(g, 15),
                members=4,
                strategy_pre=(1.0, 0.0, 0.0),
            )
            for g in ("north", "south", "east")
        )
        spec = CorpusSpec(
            groups=groups, tweets_per_day=4, tokens_per_tweet=6,
            noise_vocabulary=("filler", "words", "everyone", "uses"),
            noise_weight=0.1,
        )
        return generate_corpus(spec, self.window, seed=seed)

    def test_recovers_planted_groups_exactly(self):
        corpus, group_of = self._corpus(seed=2)
        users = sorted(group_of)
        result = topic_communities(corpus, users, self.window)
        planted = {}
        for u, g in group_of.items():
            planted.setdefault(g, set()).add(u)
        assert {frozenset(p) for p in result.partition} == {
            frozenset(p) for p in planted.values()
        }
        assert result.modularity > 0.5
        assert len(result.top_terms) == len(result.partition)

    def test_needs_two_documents(self):
        corpus, group_of = self._corpus()
        one_user = [next(iter(sorted(group_of)))]
        with pytest.raises(ValueError):
            topic_communities(corpus, one_user, self.window)

    def test_all_shared_vocabulary_errors(self):
        base = datetime(2016, 3, 9, 8, 0, tzinfo=timezone.utc)
        records = [
            _rec(1, "u1", base, "alpha alpha alpha"),
            _rec(2, "u2", base, "alpha alpha"),
        ]
        # the lone term is a dynamic stopword (2/2 docs); nothing survives
        with pytest.raises(ValueError):
            topic_communities(corpus_of(records), ["u1", "u2"], self.window)
