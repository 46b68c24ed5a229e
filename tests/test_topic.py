"""Text pipeline: tokenizing, stemming, Gamma keywords, similarity graph."""

import gc
import json
import logging
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweet_tables import TweetRecord, corpus_of, counters_of, term_counts_of
from tweetdyn import cli, synth, topic
from tweetdyn.corpus import Corpus
from tweetdyn.ingest import select_cohort
from tweetdyn.timeseries import DayWindow
from tweetdyn.topic import (
    GammaFit,
    TermUserMatrix,
    build_term_user_matrix,
    count_terms,
    dynamic_stopwords,
    gamma_fit,
    gamma_keywords,
    similarity_graph,
    top_terms,
    topic_communities,
)
from tweetdyn.synth import (
    CorpusSpec,
    GroupCorpusSpec,
    GroupSpec,
    generate_corpus,
    planted_vocabulary,
)


REPO = Path(__file__).resolve().parents[1]


def _quantiles_of(run) -> list[tuple[float, float, float, float]]:
    """(shape, scale, q, threshold) of every Gamma quantile ``run()`` takes."""
    calls = []
    quantile = GammaFit.quantile

    def record(fit, q):
        threshold = quantile(fit, q)
        calls.append((fit.k_shape, fit.theta_scale, q, threshold))
        return threshold

    with mock.patch.object(GammaFit, "quantile", record):
        run()
    return calls


@pytest.fixture(scope="module")
def perfbench_runs(tmp_path_factory):
    """perfbench's crowd and chatter inputs at seed 7 run through ``tweetdyn
    run``: per workload, the output directory and every user threshold."""
    runs = {}
    for workload in ("crowd", "chatter"):
        inputs = tmp_path_factory.mktemp(workload)
        meta = json.loads(subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "gen.py"), "--workload", workload,
             "--seed", "7", "--out", str(inputs)],
            capture_output=True, text=True, check=True,
        ).stdout)
        argv = ["run", "--out", str(inputs / "out"), "--window", "pre", "--format", meta["format"]]
        argv += ["--config", str(inputs / meta["config"])] if meta["config"] else []
        for table in meta["inputs"]:
            argv += ["--input", str(inputs / table["file"])]
        runs[workload] = inputs / "out", _quantiles_of(lambda: cli.main(argv))
    return runs


@pytest.fixture(scope="module")
def pipeline_quantiles(perfbench_runs):
    """Every user threshold of the demo corpus (cluster-topic over its pre
    window) and of perfbench's crowd and chatter inputs at seed 7."""
    config = cli.load_config(None, {})
    corpus, _ = synth.generate_corpus(
        cli._demo_corpus_spec(config), config.pre_window, config.seed
    )
    window = config.pre_window
    cohort = cohort_of(corpus, config, window)
    calls = _quantiles_of(
        lambda: topic_communities(corpus, cohort, window, **knobs_of(config))
    )
    for _, run_calls in perfbench_runs.values():
        calls += run_calls
    return calls


WINDOW = DayWindow.of_length(date(2016, 3, 9), 10)
BASE = datetime(2016, 3, 9, 8, 0, tzinfo=timezone.utc)
TOPIC_KNOBS = ("dynamic_p", "gamma_q", "knn_k", "top_m")


def cohort_of(corpus, config, window):
    """The cohort the CLI analyses in ``window``."""
    return select_cohort(
        corpus,
        config.bulk_window,
        window,
        config.language,
        config.min_total_tweets,
        config.active_day_fraction,
    )


def knobs_of(config):
    """The knob arguments of ``topic_communities`` that a RunConfig holds."""
    return {name: getattr(config, name) for name in TOPIC_KNOBS}


DEFAULT_KNOBS = knobs_of(cli.RunConfig())


def _rec(i, user, when, text):
    return TweetRecord(
        tweet_id=str(i), user_id=user, timestamp=when, language="en",
        is_retweet=False, retweeted_user_id=None, text=text,
    )


def _terms(*texts, users=("u1",)):
    """Stemmed term counts of each user, every text tweeted by every user."""
    records = [
        _rec(i, u, BASE, text) for u in users for i, text in enumerate(texts)
    ]
    return counters_of(count_terms(corpus_of(records), users, WINDOW))


class TestTokenize:
    def test_default_pipeline(self):
        text = "Check https://t.co/abc123 and @somebody #MAGA Trump won 2016 ok!!"
        # the URL, the mention and "2016" are no tokens; "and" and "won" are
        # stopwords
        assert _terms(text) == {
            "u1": Counter({"check": 1, "maga": 1, "trump": 1, "ok": 1})
        }

    def test_min_token_len(self):
        assert _terms("a ok the cat") == {"u1": Counter({"ok": 1, "cat": 1})}

    def test_digit_tokens_dropped_mixed_kept(self):
        assert _terms("2016 abc123 42") == {"u1": Counter({"abc123": 1})}

    def test_empty_and_junk(self):
        assert _terms("", "!!! ... ---", "42 a") == {}

    def test_config_validation(self):
        corpus = corpus_of(_tweets(("u1", "alpha beta"), ("u2", "gamma delta")))
        for knob, value, message in (
            ("dynamic_p", 0.0, "p must be"),
            ("gamma_q", 1.0, "q must be"),
            ("knn_k", 0, "k must be"),
        ):
            with pytest.raises(ValueError, match=message):
                topic_communities(
                    corpus, ["u1", "u2"], WINDOW, **{**DEFAULT_KNOBS, knob: value}
                )


class TestBuildDocuments:
    def test_window_tweets_pooled(self):
        records = [
            _rec(2, "u1", BASE + timedelta(days=3), "second part"),
            _rec(1, "u1", BASE, "first part"),
            _rec(3, "u2", BASE, "other user"),
            _rec(4, "u1", BASE + timedelta(days=30), "outside window"),
        ]
        counts = count_terms(corpus_of(records), {"u1", "u2"}, WINDOW)
        assert counts.users == ("u1", "u2")
        assert counters_of(counts) == {
            "u1": Counter({"first": 1, "part": 2, "second": 1}),
            "u2": Counter({"user": 1}),  # "other" is a stopword
        }

    def test_textless_user_dropped_with_warning(self, caplog):
        records = [
            _rec(1, "u1", BASE, "real words here"),
            _rec(2, "u2", BASE, "!!! 42"),
        ]
        with caplog.at_level(logging.WARNING, logger="tweetdyn.topic"):
            counts = count_terms(corpus_of(records), {"u1", "u2", "u3"}, WINDOW)
        assert counts.users == ("u1",)
        assert sum("no usable text" in m for m in caplog.messages) == 2

    def test_all_stopword_user_stays_a_document(self):
        records = [
            _rec(1, "u1", BASE, "real words here"),
            _rec(2, "u2", BASE, "the and this"),
        ]
        counts = count_terms(corpus_of(records), ["u1", "u2"], WINDOW)
        assert counts.users == ("u1", "u2")
        assert counters_of(counts)["u2"] == Counter()


class TestStemAndFilter:
    def test_stopwords_removed_before_stemming(self):
        assert _terms("running the runs corruption this") == {
            "u1": Counter({"run": 2, "corrupt": 1})
        }

    def test_stopword_match_is_pre_stem(self):
        # "others" is not a stopword even though its stem "other" is
        assert _terms("others other") == {"u1": Counter({"other": 1})}


class TestDynamicStopwords:
    def test_strict_majority_boundary(self):
        counts = {
            "u1": Counter({"shared": 1, "half": 1}),
            "u2": Counter({"shared": 2, "half": 3}),
            "u3": Counter({"shared": 1, "rare": 1}),
            "u4": Counter({"other": 1}),
        }
        stop = dynamic_stopwords(term_counts_of(counts), p=0.5)
        # "shared" in 3/4 docs > 2 -> stopword; "half" in exactly 2/4 -> kept
        assert stop == frozenset({"shared"})

    def test_document_frequency_not_term_frequency(self):
        counts = {
            "u1": Counter({"loud": 100}),
            "u2": Counter({"quiet": 1}),
            "u3": Counter({"quiet": 1}),
        }
        # "loud" is frequent but in 1/3 docs only
        assert dynamic_stopwords(term_counts_of(counts), p=0.5) == frozenset({"quiet"})

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_stopwords(term_counts_of({}), p=0.5)
        with pytest.raises(ValueError):
            dynamic_stopwords(term_counts_of({"u": Counter({"a": 1})}), p=0.0)


class TestGammaFit:
    def test_closed_form_two_six(self):
        fit = gamma_fit([2, 6])  # mean 4, sample var 8
        assert fit.k_shape == pytest.approx(2.0)
        assert fit.theta_scale == pytest.approx(2.0)
        assert fit.k_shape * fit.theta_scale == pytest.approx(4.0)

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

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(1e-6, 1 - 1e-6)
    )
    def test_quantile_within_1e12_of_scipy(self, k, theta, q):
        new = GammaFit(k_shape=k, theta_scale=theta).quantile(q)
        old = scipy.stats.gamma.ppf(q, a=k, scale=theta)
        if old >= sys.float_info.min:
            assert abs(new - old) <= 1e-12 * old
        else:  # below the normal floats a value carries fewer than 12 digits
            assert new < sys.float_info.min

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(1e-3, 1e4),
        st.floats(0.01, 100.0),
        # scipy's three Halley steps do not converge for q below the normal
        # floats at shapes of 100 and more (mpmath agrees with the package)
        st.floats(1e-300, 1.0, exclude_max=True),
    )
    def test_quantile_compares_every_count_as_scipy(self, k, theta, q):
        # a count c is kept when c >= threshold, so the two thresholds keep
        # the same counts exactly when no integer lies between them
        new = GammaFit(k_shape=k, theta_scale=theta).quantile(q)
        old = scipy.stats.gamma.ppf(q, a=k, scale=theta)
        assert math.ceil(new) == math.ceil(old)

    def test_every_pipeline_threshold_compares_every_count_as_scipy(self, pipeline_quantiles):
        assert len(pipeline_quantiles) == 32 + 256 + 32
        for k, theta, q, threshold in pipeline_quantiles:
            old = scipy.stats.gamma.ppf(q, a=k, scale=theta)
            assert math.ceil(threshold) == math.ceil(old), (k, theta, q)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            GammaFit(k_shape=0.0, theta_scale=1.0)
        with pytest.raises(ValueError):
            GammaFit(k_shape=1.0, theta_scale=-2.0)


class TestGammaKeywords:
    def test_threshold_application(self):
        counts = {"u1": Counter({"a": 1, "b": 1, "c": 1, "d": 1, "e": 10})}
        union = gamma_keywords(term_counts_of(counts), q=0.9)
        threshold = gamma_fit([1, 1, 1, 1, 10]).quantile(0.9)
        assert union == frozenset(t for t, c in counts["u1"].items() if c >= threshold)
        assert "e" in union  # the heavy term always survives

    def test_users_without_a_moment_fit_keep_every_term(self):
        cases = [
            (Counter({"a": 3, "b": 3}), {"a", "b"}),  # zero variance
            (Counter({"only": 5}), {"only"}),  # single term
            (Counter(), set()),
        ]
        for counts, kept in cases:
            assert gamma_keywords(term_counts_of({"u": counts}), q=0.9) == kept
        union = gamma_keywords(term_counts_of({"flat": cases[0][0], "solo": cases[1][0]}), q=0.9)
        assert union == {"a", "b", "only"}

    def test_two_distinct_counts_use_the_gamma_quantile(self):
        # mean 3 and nonzero variance: the gamma path, whose threshold falls
        # between the two counts at q=0.5 and above both at q=0.9
        counts = term_counts_of({"u": Counter({"hi": 4, "lo": 2})})
        assert 2 < gamma_fit([2, 4]).quantile(0.5) < 4 < gamma_fit([2, 4]).quantile(0.9)
        assert gamma_keywords(counts, q=0.5) == {"hi"}
        assert gamma_keywords(counts, q=0.9) == frozenset()

    def test_q_validated(self):
        with pytest.raises(ValueError):
            gamma_keywords(term_counts_of({"u": Counter({"a": 2, "b": 4})}), q=1.0)


class TestTermUserMatrix:
    def test_vocabulary_restriction_and_shape(self):
        counts = {
            "u1": Counter({"kept": 2, "dropped": 9}),
            "u2": Counter({"kept": 1, "alsokept": 3}),
        }
        m = build_term_user_matrix(term_counts_of(counts), vocabulary={"kept", "alsokept"})
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
            build_term_user_matrix(term_counts_of({}), vocabulary={"a"})


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
        # u1-u3 cosine is 0: no edge
        assert (g.u.tolist(), g.v.tolist()) == ([0, 1], [1, 2])
        assert g.w.tolist() == pytest.approx([r, r])

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
        edges1, edges2 = ref.dict_view(g1).edges, ref.dict_view(g2).edges
        assert ("a", "e") not in edges1
        assert ("a", "e") in edges2
        assert set(edges1) <= set(edges2)

    def test_isolated_zero_column_warns(self, caplog):
        m = self._matrix({"u1": [1, 0], "u2": [1, 1], "u3": [0, 0]})
        with caplog.at_level(logging.WARNING, logger="tweetdyn.topic"):
            g = similarity_graph(m, k=1)
        assert any("isolated" in msg for msg in caplog.messages)
        assert g.degrees()[g.vertices.index("u3")] == 0.0

    def test_k_validated(self):
        m = self._matrix({"u1": [1.0], "u2": [1.0]})
        with pytest.raises(ValueError):
            similarity_graph(m, k=0)


class TestSimilarityGraphMatchesLoop:
    """The partitioned bounds and the upper-triangle mask, a block of rows at
    a time, against the per-row sort and the pair loop (``reference_loops``):
    the same edges and floats, with tied similarities (small counts over few
    terms) and users with no keyword, whatever the block."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 20),
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 7, 40, 1 << 20]),
    )
    def test_same_edges(self, n_users, n_terms, k, seed, block_cells):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, size=(n_terms, n_users))
        counts[:, rng.random(n_users) < 0.2] = 0  # users with no keyword
        m = TermUserMatrix(
            terms=tuple(f"t{i}" for i in range(n_terms)),
            users=tuple(f"u{i:02d}" for i in range(n_users)),
            counts=counts,
        )
        with mock.patch.object(topic, "_SIM_BLOCK_CELLS", block_cells):
            new = similarity_graph(m, k=k)
        old = ref.similarity_graph(m, k=k)
        assert ref.graph_key(new) == ref.graph_key(old)


class TestTopTerms:
    def test_pooling_and_tie_break(self):
        counts = {
            "u1": Counter({"beta": 3, "alpha": 2}),
            "u2": Counter({"alpha": 1, "gamma": 3}),
        }
        ranked = top_terms([["u1", "u2"]], term_counts_of(counts), m=2)
        # pooled: alpha 3, beta 3, gamma 3 -> tie broken alphabetically
        assert ranked == ((("alpha", 3), ("beta", 3)),)

    def test_unknown_users_ignored(self):
        ranked = top_terms([["ghost"]], term_counts_of({"u1": Counter({"a": 1})}), m=5)
        assert ranked == ((),)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, m):
        counts = term_counts_of({"u1": Counter({"a": 3, "b": 2, "c": 1})})
        with pytest.raises(ValueError, match="m must be >= 1"):
            top_terms([["u1"]], counts, m=m)


class TestTopicCommunities:
    window = DayWindow.of_length(date(2016, 3, 9), 30)

    def _corpus(self, seed=0):
        groups = tuple(
            GroupCorpusSpec(
                dynamics=GroupSpec(group_id=g, baseline_level=4.0, noise_sigma=0.0, members=4),
                vocabulary=planted_vocabulary(g, 15),
                strategy_pre=(1.0, 0.0, 0.0),
                strategy_post=(1.0, 0.0, 0.0),
            )
            for g in ("north", "south", "east")
        )
        spec = CorpusSpec(
            groups=groups,
            noise_vocabulary=("filler", "words", "everyone", "uses"),
            noise_weight=0.1,
            tokens_per_tweet=6,
            changepoint_day=None,
        )
        return generate_corpus(spec, self.window, seed=seed)

    def test_recovers_planted_groups_exactly(self):
        corpus, group_of = self._corpus(seed=2)
        users = sorted(group_of)
        result = topic_communities(corpus, users, self.window, **DEFAULT_KNOBS)
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
            topic_communities(corpus, one_user, self.window, **DEFAULT_KNOBS)

    def test_all_shared_vocabulary_errors(self):
        records = [
            _rec(1, "u1", BASE, "alpha alpha alpha"),
            _rec(2, "u2", BASE, "alpha alpha"),
        ]
        # the lone term is a dynamic stopword (2/2 docs); nothing survives
        with pytest.raises(ValueError):
            topic_communities(corpus_of(records), ["u1", "u2"], self.window, **DEFAULT_KNOBS)


class TestCountTermsMemory:
    """count_terms holds one user's texts as strings at a time and keeps only
    their distinct runs and counts, so on perfbench's chatter corpus (seed 7:
    32 users, about 5.8 MB of tweet text) its traced peak stays within twice
    the corpus's text bytes. Decoding every window text at once and counting
    every token occurrence in one array took three times the text bytes."""

    def test_peak_within_twice_the_text(self, perfbench_runs):
        out, _ = perfbench_runs["chatter"]
        config = cli.load_config(None, {})
        corpus = Corpus.load(out / cli.CORPUS_FILE, out / cli.RECORDS_FILE)
        window = config.analysis_window("pre")
        users = cohort_of(corpus, config, window)
        text_bytes = int(corpus.text.offsets[-1])
        count_terms(corpus, users, window)  # fills the corpus's account index
        tracemalloc.start()
        try:
            count_terms(corpus, users, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * text_bytes


def _mapped_rss(path):
    """Bytes of ``path`` resident in this process's maps of it, from
    ``/proc/self/smaps``."""
    total, current = 0, None
    for line in Path("/proc/self/smaps").read_text().splitlines():
        head = line.split(maxsplit=5)
        if len(head) >= 5 and "-" in head[0] and ":" in head[3]:  # a mapping's header
            current = head[5] if len(head) == 6 else None
        elif head[:1] == ["Rss:"] and current == str(path):
            total += int(head[1]) * 1024
    return total


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs Linux's smaps")
def test_count_terms_leaves_no_text_page_resident(perfbench_runs):
    # The texts are read with os.pread, so once count_terms has read every
    # cohort tweet, the only resident pages of corpus.npz are those of the
    # int members it maps, give or take their partial first and last pages.
    out, _ = perfbench_runs["chatter"]
    npz = out / cli.CORPUS_FILE
    with np.load(npz) as members:
        int_bytes = sum(members[k].nbytes for k in members.files if members[k].dtype == np.int64)
    config = cli.load_config(None, {})
    window = config.analysis_window("pre")
    gc.collect()
    corpus = Corpus.load(npz, out / cli.RECORDS_FILE)
    count_terms(corpus, cohort_of(corpus, config, window), window)
    assert _mapped_rss(npz.resolve()) <= int_bytes + 64 * 1024


# --------------------------------------------- against the old text pipeline

TOPIC_USERS = ["u0", "u1", "u2", "u3", "ü4"]
FRAGMENTS = [
    # content words, some sharing a stem
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa",
    "running", "runs", "connection", "connected", "others", "happy", "syzygy",
    # static stopwords
    "the", "and", "this", "other",
    # no token: one character, all digits, punctuation, a mention, a URL
    "a", "x", "42", "2016", "!!!", "@someone", "@us_er1", "@émile",
    "https://t.co/abc", "http://x.y/z?q=1,", "www.site.org/p",
    # mixed, hashtags, upper case and text outside ASCII; "İ" lowercases to
    # "i" plus a combining dot, the Kelvin sign to "k"
    "abc123", "#Tag", "CAPS", "İstanbul", "\u212aelvin", "naïve", "Жжж", "\ud800",
]


@st.composite
def topic_records_st(draw):
    """Small corpora whose texts join the fragments with assorted separators,
    with days on both sides of WINDOW and repeated timestamps and ids."""
    out = []
    for _ in range(draw(st.integers(0, 30))):
        words = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=6))
        text = draw(st.sampled_from([" ", "", ",", "\n", "#", ". "])).join(words)
        when = BASE + timedelta(
            days=draw(st.integers(-1, 11)), seconds=draw(st.sampled_from([0, 1, 7200]))
        )
        out.append(_rec(draw(st.sampled_from(["1", "2", "10"])),
                        draw(st.sampled_from(TOPIC_USERS)), when, text))
    return out


def _assert_same_clustering(got, want):
    assert got.dynamic_stopwords == want["dynamic_stopwords"]
    assert got.vocabulary == want["vocabulary"]
    assert (got.matrix.terms, got.matrix.users) == (want["matrix"].terms, want["matrix"].users)
    assert got.matrix.counts.tobytes() == want["matrix"].counts.tobytes()
    assert ref.graph_key(got.graph) == ref.graph_key(want["graph"])
    assert got.partition == want["partition"]
    assert got.modularity.hex() == want["modularity"].hex()
    assert got.top_terms == want["top_terms"]


def _check_against_reference(records, knobs=DEFAULT_KNOBS):
    users = TOPIC_USERS + ["nobody"]
    corpus = corpus_of(records)
    want_raw = {
        d.user_id: ref.stem_and_filter(d) for d in ref.build_documents(records, users, WINDOW)
    }
    assert counters_of(count_terms(corpus, users, WINDOW)) == want_raw
    try:
        want = ref.topic_communities(corpus, users, WINDOW, **knobs)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            topic_communities(corpus, users, WINDOW, **knobs)
        assert str(raised.value) == str(exc)
        return None
    got = topic_communities(corpus, users, WINDOW, **knobs)
    _assert_same_clustering(got, want)
    return got


def _tweets(*rows):
    """Records of (user, text) rows, all at one time with one tweet id."""
    return [_rec(1, user, BASE, text) for user, text in rows]


class TestTopicCommunitiesMatchesReference:
    """count_terms and the array stages against the per-user documents and
    Counters of ``reference_loops``: equal raw counts, stopwords, keywords,
    vocabulary, matrix bytes, edges, partition, Q and top terms."""

    BASE_ROWS = (
        ("u0", "alpha beta alpha gamma running"),
        ("u1", "alpha beta beta delta runs"),
        ("u2", "gamma delta epsilon zeta zeta"),
        ("u3", "epsilon zeta theta kappa kappa"),
    )

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param((), id="plain"),
            pytest.param((("ü4", "the and this other"),), id="all-stopword-user"),
            pytest.param(
                (("ü4", "https://t.co/x @someone 2016 42 !!! www.a.b"),), id="url-mention-digit-user"
            ),
            pytest.param((("ü4", "a b c alpha x y zeta"),), id="one-character-tokens"),
            pytest.param(
                (("ü4", "İstanbul \u212aelvin \u212aappa kappa"),), id="non-ascii-lowercasing-to-ascii"
            ),
            pytest.param(
                (("u0", "theta https://t.co/end"), ("u1", "kappa www.x.org/end")), id="urls-at-tweet-ends"
            ),
        ],
    )
    def test_listed_cases(self, extra):
        got = _check_against_reference(_tweets(*self.BASE_ROWS, *extra))
        assert got is not None

    def test_all_stopword_user_is_an_isolated_vertex(self):
        got = _check_against_reference(_tweets(*self.BASE_ROWS, ("ü4", "the and this")))
        assert "ü4" in got.matrix.users
        assert got.graph.degrees()[got.graph.vertices.index("ü4")] == 0.0
        assert frozenset({"ü4"}) in got.partition

    def test_duplicate_timestamps_and_ids(self):
        rows = [
            _rec(7, user, BASE + timedelta(days=day), text)
            for day in (0, 0, 2)
            for user, text in self.BASE_ROWS
        ]
        assert _check_against_reference(rows) is not None

    @pytest.mark.parametrize("rows", [(), (("u0", "alpha beta"),)], ids=["no-user", "one-user"])
    def test_fewer_than_two_users(self, rows):
        assert _check_against_reference(_tweets(*rows)) is None

    @settings(max_examples=300, deadline=None)
    @given(
        topic_records_st(),
        st.sampled_from(
            [DEFAULT_KNOBS, {"dynamic_p": 0.75, "gamma_q": 0.5, "knn_k": 2, "top_m": 3}]
        ),
    )
    def test_same_artifacts(self, records, knobs):
        _check_against_reference(records, knobs)
