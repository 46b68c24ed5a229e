"""Parsing, categorization, cohorts, and the retweet network."""

from datetime import date, datetime, timedelta, timezone

import pytest

from tweetdyn.ingest import (
    CohortSpec,
    ColumnMap,
    IngestError,
    TweetCategory,
    TweetRecord,
    categorize,
    parse_records,
    retweet_network,
    select_cohort,
    write_records,
)
from tweetdyn.synth import CorpusSpec, GroupCorpusSpec, generate_corpus, planted_vocabulary
from tweetdyn.timeseries import DayWindow

CSV_HEADER = "tweetid,userid,tweet_time,tweet_language,is_retweet,retweet_userid,tweet_text\n"


def _write_csv(tmp_path, rows, header=CSV_HEADER):
    path = tmp_path / "tweets.csv"
    path.write_text(header + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def _rec(i, user="u1", when=None, retweet_of=None, lang="en"):
    return TweetRecord(
        tweet_id=str(i),
        user_id=user,
        timestamp=when or datetime(2016, 5, 1, 12, 0, tzinfo=timezone.utc),
        language=lang,
        is_retweet=retweet_of is not None,
        retweeted_user_id=retweet_of,
        text=f"tweet number {i}",
    )


class TestTweetRecord:
    def test_naive_timestamp_becomes_utc(self):
        rec = _rec(1, when=datetime(2016, 5, 1, 10, 30))
        assert rec.timestamp.tzinfo == timezone.utc

    def test_retweet_flag_consistency_enforced(self):
        with pytest.raises(ValueError):
            TweetRecord(
                tweet_id="1", user_id="u", timestamp=datetime(2016, 1, 1),
                language="en", is_retweet=True, retweeted_user_id=None, text="",
            )
        with pytest.raises(ValueError):
            TweetRecord(
                tweet_id="1", user_id="u", timestamp=datetime(2016, 1, 1),
                language="en", is_retweet=False, retweeted_user_id="x", text="",
            )


class TestParse:
    def test_parses_good_rows_and_skips_bad(self, tmp_path):
        path = _write_csv(
            tmp_path,
            [
                '1,u1,2016-11-08 10:21,en,false,,hello world',
                '2,u2,2016-11-08 11:00,en,true,u1,rt body',
                '3,u3,not-a-time,en,false,,bad stamp',
                '4,u4,2016-11-08 12:00,en,maybe,,bad flag',
                '5,u5,2016-11-08 13:00,en,true,,rt without source',
                '6,u6,2016-11-08 14:00,en,false,u9,source on original',
            ],
        )
        records, report = parse_records(path, fmt="csv")
        assert [r.tweet_id for r in records] == ["1", "2"]
        assert records[0].timestamp == datetime(2016, 11, 8, 10, 21, tzinfo=timezone.utc)
        assert records[1].is_retweet and records[1].retweeted_user_id == "u1"
        assert report.total_rows == 6
        assert report.accepted == 2
        assert report.rejected == 4
        assert report.reasons == {
            "bad_timestamp": 1,
            "bad_retweet_flag": 1,
            "retweet_without_source": 1,
            "source_on_non_retweet": 1,
        }

    def test_missing_column_is_fatal(self, tmp_path):
        path = _write_csv(
            tmp_path,
            ["1,u1,2016-11-08 10:21,en,false,"],
            header="tweetid,userid,tweet_time,tweet_language,is_retweet,retweet_userid\n",
        )
        with pytest.raises(IngestError):
            parse_records(path, fmt="csv")

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_records(tmp_path / "nope.csv", fmt="csv")

    def test_column_remapping(self, tmp_path):
        path = tmp_path / "alt.csv"
        path.write_text(
            "id,who,at,lang,rt,src,body\n"
            "7,userA,2017-01-02 03:04:05,en,false,,some text\n"
        )
        columns = ColumnMap(
            tweet_id="id", user_id="who", timestamp="at", language="lang",
            is_retweet="rt", retweeted_user_id="src", text="body",
        )
        records, report = parse_records(path, fmt="csv", columns=columns)
        assert report.accepted == 1
        assert records[0].user_id == "userA"

    def test_jsonl_bad_lines_counted(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            '{"tweetid":"1","userid":"u1","tweet_time":"2016-11-08 10:21",'
            '"tweet_language":"en","is_retweet":false,"retweet_userid":"","tweet_text":"ok"}\n'
            "this is not json\n"
            '{"tweetid":"2","userid":"u2"}\n'
        )
        records, report = parse_records(path, fmt="jsonl")
        assert len(records) == 1
        assert report.reasons["bad_json"] == 1
        assert report.reasons["missing_field"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip_synthetic_corpus(self, tmp_path, fmt):
        # 10k+ records written and re-read with full field equality
        groups = tuple(
            GroupCorpusSpec(
                group_id=g,
                vocabulary=planted_vocabulary(g, 12),
                members=9,
                strategy_pre=(0.5, 0.3, 0.2),
            )
            for g in ("red", "blue")
        )
        spec = CorpusSpec(groups=groups, tweets_per_day=10, tokens_per_tweet=4)
        window = DayWindow.of_length(date(2016, 3, 9), 60)
        records, _ = generate_corpus(spec, window, seed=3)
        assert len(records) >= 10_000
        path = tmp_path / f"corpus.{fmt}"
        write_records(records, path, fmt=fmt)
        loaded, report = parse_records(path, fmt=fmt)
        assert report.rejected == 0
        assert loaded == records


class TestCategorize:
    def test_three_categories(self):
        campaign = {"u1", "u2"}
        assert categorize(_rec(1, "u1"), campaign) == TweetCategory.ORIGINAL
        assert categorize(_rec(2, "u1", retweet_of="u2"), campaign) == TweetCategory.SPREADING
        assert categorize(_rec(3, "u1", retweet_of="cnn"), campaign) == TweetCategory.AMPLIFYING

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            categorize(_rec(1), set())


class TestSelectCohort:
    def _records(self):
        w_start = datetime(2016, 3, 9, tzinfo=timezone.utc)
        records = []
        i = 0
        # "steady": tweets every day for 8 of 10 days
        for d in range(8):
            records.append(_rec(i := i + 1, "steady", w_start + timedelta(days=d)))
        # "burst": many tweets but a single active day
        for _ in range(20):
            records.append(_rec(i := i + 1, "burst", w_start))
        # "foreign": active but wrong language
        for d in range(10):
            records.append(
                _rec(i := i + 1, "foreign", w_start + timedelta(days=d), lang="ru")
            )
        return records

    def test_thresholds_and_language(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        records = self._records()
        spec = CohortSpec(
            window=window, min_total_tweets=5, active_day_fraction=0.6, language="en"
        )
        assert select_cohort(records, spec) == {"steady"}
        # volume-only: burst qualifies too
        spec2 = CohortSpec(window=window, min_total_tweets=5, language="en")
        assert select_cohort(records, spec2) == {"steady", "burst"}
        # no language filter: foreign meets both thresholds
        spec3 = CohortSpec(window=window, min_total_tweets=5, active_day_fraction=0.6)
        assert select_cohort(records, spec3) == {"steady", "foreign"}

    def test_fraction_boundary_inclusive(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        records = self._records()
        # steady is active 8/10 days; 0.8 passes, nudging above fails
        spec = CohortSpec(window=window, active_day_fraction=0.8, language="en")
        assert "steady" in select_cohort(records, spec)
        spec_hi = CohortSpec(window=window, active_day_fraction=0.81, language="en")
        assert "steady" not in select_cohort(records, spec_hi)

    def test_empty_cohort_is_valid(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        spec = CohortSpec(window=window, min_total_tweets=10_000)
        assert select_cohort(self._records(), spec) == set()

    def test_spec_validation(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        with pytest.raises(ValueError):
            CohortSpec(window=window, active_day_fraction=1.5)
        with pytest.raises(ValueError):
            CohortSpec(window=window, min_total_tweets=-1)


class TestRetweetNetwork:
    def test_member_edges_only(self):
        campaign = {"u1", "u2", "u3"}
        records = [
            _rec(1, "u1", retweet_of="u2"),
            _rec(2, "u1", retweet_of="u2"),
            _rec(3, "u2", retweet_of="u1"),  # direction ignored, same edge
            _rec(4, "u3", retweet_of="cnn"),  # outsider: no edge
            _rec(5, "u3", retweet_of="u3"),  # self-retweet: dropped
            _rec(6, "u3"),
        ]
        g = retweet_network(records, campaign)
        assert g.edges[("u1", "u2")] == 3.0
        assert g.n_edges == 1
        # u3 appears (authored records) but has no member-retweet edges
        assert "u3" in g.vertices
        assert g.degrees()["u3"] == 0.0

    def test_retweeted_member_becomes_vertex(self):
        campaign = {"u1", "u9"}
        records = [_rec(1, "u1", retweet_of="u9")]
        g = retweet_network(records, campaign)
        assert set(g.vertices) == {"u1", "u9"}

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            retweet_network([], set())
