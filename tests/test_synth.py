"""Synthetic generators and their ground-truth guarantees."""

import hashlib
import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from tweet_tables import arrays_of, fields_of
from tweetdyn import porter
from tweetdyn.ingest import write_records
from tweetdyn.spectral import dft, dominant_period
from tweetdyn.synth import (
    AMPLIFIED_OUTSIDERS,
    CorpusSpec,
    GroupCorpusSpec,
    GroupSpec,
    _member_counts,
    _member_ids,
    generate_changepoint_aggregate,
    generate_corpus,
    planted_vocabulary,
    reference_cluster_specs,
)
from tweetdyn.timeseries import DayWindow


def generate_series(specs, window, seed):
    """Member ids of every group, their (users, days) count table (row ``i``
    for ``users[i]``) and their true labels: each row a group's rate model
    (``synth.GroupSpec``) drawn the way ``generate_corpus`` draws a member's
    daily tweet counts, with no tweets made from it."""
    users = [uid for spec in specs for uid in _member_ids(spec)]
    if len(set(users)) != len(users):
        raise ValueError("group ids collide; member ids must be unique")
    rng = np.random.default_rng(seed)
    rows = [_member_counts(s, window.n_days, rng) for s in specs for _ in range(s.members)]
    table = np.array(rows, dtype=np.int64).reshape(len(users), window.n_days)
    labels = {uid: s.group_id for s in specs for uid in _member_ids(s)}
    return users, table, labels


def flat(group_id, level, members):
    """A group whose members each tweet ``level`` times a day: no cosines and
    no noise, so its counts draw nothing from the generator."""
    return GroupSpec(group_id=group_id, baseline_level=level, noise_sigma=0.0, members=members)


class TestGroupSpecValidation:
    def test_schedule_and_ranges(self):
        ok = dict(group_id="g", baseline_level=30.0, noise_sigma=0.0, members=10)
        with pytest.raises(ValueError):
            GroupSpec(**ok, frequencies=(1.0,), amplitude_ranges=())
        with pytest.raises(ValueError):
            GroupSpec(**{**ok, "baseline_level": -1.0})
        with pytest.raises(ValueError):
            GroupSpec(**ok, frequencies=(1.0,), amplitude_ranges=((5.0, 2.0),))
        with pytest.raises(ValueError):
            GroupSpec(**{**ok, "noise_sigma": -0.1})
        with pytest.raises(ValueError):
            GroupSpec(**{**ok, "members": 0})


class TestGenerateSeries:
    window = DayWindow.of_length(date(2016, 3, 9), 240)

    def test_deterministic_per_seed(self):
        specs = reference_cluster_specs(members=3)
        users_a, a, labels_a = generate_series(specs, self.window, seed=5)
        users_b, b, labels_b = generate_series(specs, self.window, seed=5)
        _, c, _ = generate_series(specs, self.window, seed=6)
        assert labels_a == labels_b
        assert users_a == users_b
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1, s2)
        assert any(not np.array_equal(s1, s3) for s1, s3 in zip(a, c))

    def test_labels_and_member_ids(self):
        specs = reference_cluster_specs(members=2)
        users, table, labels = generate_series(specs, self.window, seed=0)
        assert len(users) == len(table) == 8
        assert labels["p4-u00"] == "p4"
        assert labels["flat-u01"] == "flat"
        assert set(users) == set(labels)

    def test_counts_are_nonnegative_integers(self):
        spec = GroupSpec(group_id="g", baseline_level=0.5, noise_sigma=4.0, members=10)
        _, table, _ = generate_series([spec], self.window, seed=1)
        assert table.dtype == np.int64
        assert np.all(table >= 0)

    def test_planted_tone_is_dominant(self):
        spec = GroupSpec(
            group_id="g",
            frequencies=(2 * math.pi / 4.0,),
            amplitude_ranges=((8.0, 12.0),),
            baseline_level=30.0,
            noise_sigma=0.0,
            members=4,
        )
        _, table, _ = generate_series([spec], self.window, seed=3)
        for dev in table.astype(float) - 30.0:
            assert np.max(np.abs(dev)) <= 12.5  # amplitude cap + rounding
            spectrum = dft(dev[None, :], ["g"])
            period = dominant_period(spectrum.magnitudes[0], spectrum.n_samples)
            assert period == pytest.approx(4.0)

    def test_colliding_group_ids_rejected(self):
        specs = [flat("same", 30.0, 10), flat("same", 30.0, 10)]
        with pytest.raises(ValueError):
            generate_series(specs, self.window, seed=0)

    def test_reference_specs_cover_four_archetypes(self):
        specs = reference_cluster_specs(members=7)
        assert [s.group_id for s in specs] == ["flat", "p4", "p7p4", "p7p25"]
        assert all(s.members == 7 for s in specs)
        assert specs[0].frequencies == ()
        assert specs[1].frequencies == (2 * math.pi / 4.0,)


def text_group(group_id, members, level=4.0, pre=(1.0, 0.0, 0.0), post=None, vocabulary=None):
    """A group that tweets ``level`` times a day per member, from its planted
    vocabulary; with no ``post`` mix it keeps ``pre`` in both eras."""
    return GroupCorpusSpec(
        dynamics=flat(group_id, level, members),
        vocabulary=planted_vocabulary(group_id, 8) if vocabulary is None else vocabulary,
        strategy_pre=pre,
        strategy_post=post or pre,
    )


def corpus_spec(groups, noise_vocabulary=(), noise_weight=0.0, tokens_per_tweet=5,
                changepoint_day=None):
    return CorpusSpec(
        groups=groups,
        noise_vocabulary=noise_vocabulary,
        noise_weight=noise_weight,
        tokens_per_tweet=tokens_per_tweet,
        changepoint_day=changepoint_day,
    )


def user_day_counts(corpus, users, window):
    """The (users, days) table of tweets per user and day of ``window``."""
    days, inside = corpus.window_offsets(window)
    pos = corpus.positions(users)
    assert inside.all() and (pos >= 0).all()
    return np.bincount(
        pos * window.n_days + days, minlength=len(users) * window.n_days
    ).reshape(len(users), window.n_days)


class TestCorpusSpecValidation:
    def test_group_spec_constraints(self):
        with pytest.raises(ValueError):
            text_group("g", 3, vocabulary=())
        with pytest.raises(ValueError):
            text_group("g", 3, pre=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            text_group("g", 3, post=(0.5, 0.6, -0.1))

    def test_corpus_constraints(self):
        good = text_group("g", 3)
        with pytest.raises(ValueError):
            corpus_spec(())
        with pytest.raises(ValueError):
            corpus_spec((good, good))  # duplicate ids
        with pytest.raises(ValueError):
            corpus_spec((good,), noise_weight=0.5)  # no noise vocab
        with pytest.raises(ValueError):
            corpus_spec((good,), tokens_per_tweet=0)

    def test_default_weights_are_zipf_normalized(self):
        spec = text_group("g", 3, vocabulary=("a", "b", "c"))
        w = spec.weights()
        expect = np.array([1.0, 0.5, 1 / 3])
        np.testing.assert_allclose(w, expect / expect.sum())


class TestGenerateCorpus:
    window = DayWindow.of_length(date(2016, 3, 9), 20)

    def _spec(self, **kwargs):
        groups = (text_group("alpha", 3), text_group("beta", 3))
        return corpus_spec(groups, **kwargs)

    def test_deterministic_per_seed(self):
        spec = self._spec()
        a, la = generate_corpus(spec, self.window, seed=9)
        b, lb = generate_corpus(spec, self.window, seed=9)
        assert arrays_of(a) == arrays_of(b) and la == lb
        c, _ = generate_corpus(spec, self.window, seed=10)
        assert arrays_of(a) != arrays_of(c)

    # sha256 of the records.jsonl of a fixed spec and seed; a change here
    # means other draws or another order.
    @pytest.mark.parametrize(
        "mixed, sha256",
        [
            (False, "c235dfb443131f4e90230aeaa663e83866af1bf1a87dcf28574a1958b60201b4"),
            (True, "d8c04d5105d02489db450f192c7c4641e3dda7ce0a71b1dccc41cbcc865ab85d"),
        ],
        ids=["plain", "mixed"],
    )
    def test_records_bytes_pinned(self, tmp_path, mixed, sha256):
        spec = self._spec()
        if mixed:
            # member and outsider retweets, noise words, an era switch and
            # a noisy rate model with zero-tweet days
            beta = GroupSpec(group_id="beta", baseline_level=2.0, noise_sigma=2.0, members=3)
            spec = self._spec(noise_vocabulary=("noisea", "noiseb"), noise_weight=0.3,
                              changepoint_day=10)
            spec = replace(spec, groups=(
                text_group("alpha", 3, pre=(0.4, 0.3, 0.3), post=(0.1, 0.2, 0.7)),
                replace(text_group("beta", 3, pre=(0.2, 0.5, 0.3)), dynamics=beta),
            ))
        corpus, labels = generate_corpus(spec, self.window, seed=0)
        write_records(corpus, tmp_path / "records.jsonl")
        assert hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest() == sha256
        assert labels == {f"{g}-u{j:02d}": g for g in ("alpha", "beta") for j in range(3)}

    def test_volume_and_labels(self):
        spec = self._spec()
        corpus, group_of = generate_corpus(spec, self.window, seed=0)
        assert len(corpus) == 2 * 3 * 20 * 4  # groups x members x days x rate
        assert set(group_of.values()) == {"alpha", "beta"}
        assert group_of["alpha-u00"] == "alpha"
        f = fields_of(corpus)
        per_user_day = {}
        for user, stamp in zip(f["user_id"], f["timestamp"]):
            key = (user, stamp.date())
            per_user_day[key] = per_user_day.get(key, 0) + 1
        assert set(per_user_day.values()) == {4}

    def test_text_drawn_from_group_vocabulary_only(self):
        spec = self._spec(noise_vocabulary=("noisea",), noise_weight=0.0)
        corpus, group_of = generate_corpus(spec, self.window, seed=1)
        vocab = {
            g.dynamics.group_id: set(g.vocabulary) for g in spec.groups
        }
        f = fields_of(corpus)
        for user, text in zip(f["user_id"], f["text"]):
            allowed = vocab[group_of[user]]
            assert set(text.split()) <= allowed

    def test_noise_vocabulary_mixes_in(self):
        spec = self._spec(
            noise_vocabulary=("noisea", "noiseb"), noise_weight=0.5
        )
        corpus, _ = generate_corpus(spec, self.window, seed=2)
        tokens = [t for text in fields_of(corpus)["text"] for t in text.split()]
        noise_share = sum(t.startswith("noise") for t in tokens) / len(tokens)
        assert 0.4 < noise_share < 0.6

    def test_pure_strategies_realized(self):
        members = text_group("m", 3, level=3.0, pre=(0.0, 1.0, 0.0), vocabulary=("vox",))
        amplifiers = text_group("a", 2, level=3.0, pre=(0.0, 0.0, 1.0), vocabulary=("pox",))
        spec = corpus_spec((members, amplifiers))
        corpus, group_of = generate_corpus(spec, self.window, seed=4)
        campaign = set(group_of)
        f = fields_of(corpus)
        for user, is_retweet, source in zip(
            f["user_id"], f["is_retweet"], f["retweeted_user_id"]
        ):
            assert is_retweet
            if group_of[user] == "m":
                assert source in campaign
                assert source != user
            else:
                assert source in AMPLIFIED_OUTSIDERS

    def test_changepoint_switches_era_mix(self):
        group = text_group(
            "g", 2, level=3.0, pre=(1.0, 0.0, 0.0), post=(0.0, 0.0, 1.0), vocabulary=("vix",)
        )
        spec = corpus_spec((group,), changepoint_day=10)
        corpus, _ = generate_corpus(spec, self.window, seed=5)
        days, _ = corpus.window_offsets(self.window)
        f = fields_of(corpus)
        for day, is_retweet, source in zip(
            days.tolist(), f["is_retweet"], f["retweeted_user_id"]
        ):
            if day < 10:
                assert not is_retweet
            else:
                assert is_retweet and source in AMPLIFIED_OUTSIDERS

    def test_embedded_dynamics_drive_volume(self):
        spec = corpus_spec((text_group("g", 2, level=2.0, vocabulary=("vux",)),))
        corpus, _ = generate_corpus(spec, self.window, seed=6)
        # the flat 2/day rate model, two members, 20 days
        assert len(corpus) == 2 * 20 * 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_are_the_rate_models_table(self, seed):
        rates = reference_cluster_specs(members=3)
        spec = corpus_spec(
            tuple(
                replace(text_group(r.group_id, r.members, pre=(0.2, 0.5, 0.3)), dynamics=r)
                for r in rates
            ),
            changepoint_day=10,
        )
        corpus, labels = generate_corpus(spec, self.window, seed=seed)
        users, table, series_labels = generate_series(rates, self.window, seed=seed)
        assert labels == series_labels
        np.testing.assert_array_equal(user_day_counts(corpus, users, self.window), table)

    def test_era_category_shares_match_the_mixes(self):
        # each (seed, group, era) share within 5 binomial standard deviations
        # of the planted mix, over 4 members x 10 days x 20 tweets = 800
        pre_a, post_a = (0.6, 0.3, 0.1), (0.1, 0.2, 0.7)
        pre_b, post_b = (0.2, 0.5, 0.3), (0.5, 0.0, 0.5)
        spec = corpus_spec(
            (
                text_group("a", 4, level=20.0, pre=pre_a, post=post_a),
                text_group("b", 4, level=20.0, pre=pre_b, post=post_b),
            ),
            changepoint_day=10,
        )
        mixes = {("a", 0): pre_a, ("a", 1): post_a, ("b", 0): pre_b, ("b", 1): post_b}
        worst = 0.0
        for seed in range(10):
            corpus, group_of = generate_corpus(spec, self.window, seed=seed)
            days, _ = corpus.window_offsets(self.window)
            group = np.array([group_of.get(u) for u in corpus.account_ids])[corpus.user]
            category = corpus.categories(group_of)
            for (g, era), mix in mixes.items():
                rows = (group == g) & ((days >= 10) == era)
                assert rows.sum() == 800
                share = np.bincount(category[rows], minlength=3) / 800
                sd = np.sqrt(np.array(mix) * (1 - np.array(mix)) / 800)
                assert np.all(np.abs(share - mix) <= 5 * sd + 1e-12), (seed, g, era, share)
                worst = max(worst, float(np.max(np.abs(share - mix))))
        assert worst > 0  # the shares are drawn, not set

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_member_retweets_reach_every_other_member(self, seed):
        spec = corpus_spec(
            (
                text_group("m", 4, level=10.0, pre=(0.0, 1.0, 0.0)),
                text_group("n", 3, level=10.0, pre=(0.3, 0.4, 0.3)),
            )
        )
        corpus, group_of = generate_corpus(spec, self.window, seed=seed)
        f = fields_of(corpus)
        targets = {u: set() for u in group_of}
        for user, source in zip(f["user_id"], f["retweeted_user_id"]):
            if source in group_of:
                targets[user].add(source)
        assert targets == {u: set(group_of) - {u} for u in group_of}

    def test_timestamps_inside_window(self):
        corpus, _ = generate_corpus(self._spec(), self.window, seed=7)
        _, inside = corpus.window_offsets(self.window)
        assert inside.all()

    def test_unique_tweet_ids(self):
        corpus, _ = generate_corpus(self._spec(), self.window, seed=8)
        ids = corpus.tweet_id.tolist()
        assert len(set(ids)) == len(ids)


class TestPlantedVocabulary:
    def test_deterministic_and_sized(self):
        assert planted_vocabulary("news", 12) == planted_vocabulary("news", 12)
        assert len(planted_vocabulary("news", 30)) == 30

    def test_terms_are_stemmer_fixed_points(self):
        for gid in ("news", "sport", "left", "right"):
            for term in planted_vocabulary(gid, 30):
                assert porter.stem(term) == term

    def test_distinct_within_and_across_groups(self):
        vocabularies = {
            gid: set(planted_vocabulary(gid, 30))
            for gid in ("alpha", "beta", "gamma", "delta")
        }
        for gid, vocab in vocabularies.items():
            assert len(vocab) == 30
        pooled = set().union(*vocabularies.values())
        assert len(pooled) == 4 * 30  # pairwise disjoint

    def test_anagram_group_ids_differ(self):
        assert set(planted_vocabulary("abc", 10)).isdisjoint(
            planted_vocabulary("cab", 10)
        )

    def test_lowercase_alpha_only(self):
        for term in planted_vocabulary("mix", 20):
            assert term.isalpha() and term == term.lower()


class TestChangepointAggregate:
    window = DayWindow.of_length(date(2015, 1, 1), 400)

    def test_rate_switch_realized(self):
        series = generate_changepoint_aggregate(
            100.0, 300.0, t_change=200, window=self.window, seed=0
        )
        before = series.values[:200].mean()
        after = series.values[200:].mean()
        # 5-sigma band on a Poisson mean: 5 * sqrt(rate / n)
        assert abs(before - 100.0) < 5 * math.sqrt(100.0 / 200)
        assert abs(after - 300.0) < 5 * math.sqrt(300.0 / 200)

    def test_deterministic(self):
        a = generate_changepoint_aggregate(50.0, 80.0, 100, self.window, seed=3)
        b = generate_changepoint_aggregate(50.0, 80.0, 100, self.window, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_changepoint_aggregate(0.0, 10.0, 100, self.window, seed=0)
        with pytest.raises(ValueError):
            generate_changepoint_aggregate(10.0, 10.0, 0, self.window, seed=0)
        with pytest.raises(ValueError):
            generate_changepoint_aggregate(10.0, 10.0, 400, self.window, seed=0)
