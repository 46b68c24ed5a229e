"""Parsing, categorization, cohorts, and the retweet network."""

import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweet_tables import (
    TweetRecord,
    arrays_of,
    corpus_of,
    fields_of,
    file_sha256,
    parse_table,
    write_csv,
)
from tweetdyn import ingest
from tweetdyn.cli import main
from tweetdyn.corpus import AMPLIFYING, ORIGINAL, SPREADING, StringColumn
from tweetdyn.ingest import (
    ColumnMap,
    IngestError,
    read_tables,
    retweet_network,
    select_cohort,
    write_records,
)
from tweetdyn.synth import (
    CorpusSpec,
    GroupCorpusSpec,
    GroupSpec,
    generate_corpus,
    planted_vocabulary,
)
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
    """The fixture record of ``tweet_tables``; the row-loop oracle of ingest
    reads two of its reject reasons off these checks."""

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
        corpus, report = parse_table(path, "csv", ColumnMap())
        rows = fields_of(corpus)
        assert rows["tweet_id"] == ["1", "2"]
        assert rows["timestamp"][0] == datetime(2016, 11, 8, 10, 21, tzinfo=timezone.utc)
        assert rows["is_retweet"][1] and rows["retweeted_user_id"][1] == "u1"
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
            parse_table(path, "csv", ColumnMap())

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_table(tmp_path / "nope.csv", "csv", ColumnMap())

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
        corpus, report = parse_table(path, "csv", columns)
        assert report.accepted == 1
        assert fields_of(corpus)["user_id"][0] == "userA"

    def test_jsonl_bad_lines_counted(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            '{"tweetid":"1","userid":"u1","tweet_time":"2016-11-08 10:21",'
            '"tweet_language":"en","is_retweet":false,"retweet_userid":"","tweet_text":"ok"}\n'
            "this is not json\n"
            '{"tweetid":"2","userid":"u2"}\n'
        )
        corpus, report = parse_table(path, "jsonl", ColumnMap())
        assert len(corpus) == 1
        assert report.reasons["bad_json"] == 1
        assert report.reasons["missing_field"] == 1

    def test_jsonl_huge_integer_and_deep_nesting_are_bad_json(self, tmp_path):
        good = json.dumps(
            {"tweetid": "1", "userid": "u1", "tweet_time": "2016-11-08 10:21",
             "tweet_language": "en", "is_retweet": False, "retweet_userid": "",
             "tweet_text": "ok"}
        )
        path = tmp_path / "tweets.jsonl"
        path.write_text(
            good + "\n"
            + '{"tweetid": ' + "7" * 5000 + "}\n"  # over Python's 4,300-digit limit
            + "[" * 100_000 + "\n"  # deeper than the interpreter's stack
            + good.replace('"1"', '"2"') + "\n"
        )
        corpus, report = parse_table(path, "jsonl", ColumnMap())
        assert fields_of(corpus)["tweet_id"] == ["1", "2"]
        assert report.reasons == {"bad_json": 2}
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--format", "jsonl", "--out", str(out)]) == 0

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_not_utf8_reject_only_their_row(self, tmp_path, fmt):
        # The first bad byte lies past the reader's first buffers, so rows
        # are read before the decode error; they must be neither lost nor
        # counted twice, and a later bad byte rejects its row too.
        cells = [
            (str(i), f"u{i % 3}", "2016-11-08 10:21", "en", "false", "", f"Жж text {i}")
            for i in range(1000)
        ]
        lines = []
        for row in cells:
            if fmt == "csv":
                lines.append(",".join(row).encode())
            else:
                keys = ("tweetid", "userid", "tweet_time", "tweet_language",
                        "is_retweet", "retweet_userid", "tweet_text")
                lines.append(json.dumps(dict(zip(keys, row)), ensure_ascii=False).encode())
        lines[500] = lines[500].replace("text".encode(), b"te\xffxt")
        lines[900] = lines[900].replace("Жж".encode(), b"\xd0\xd0")
        header = CSV_HEADER.encode() if fmt == "csv" else b""
        path = tmp_path / f"tweets.{fmt}"
        path.write_bytes(header + b"".join(line + b"\n" for line in lines))
        assert path.read_bytes().index(b"\xff") > 16_384
        corpus, report = parse_table(path, fmt, ColumnMap())
        assert fields_of(corpus)["tweet_id"] == [str(i) for i in range(1000) if i not in (500, 900)]
        # asdict, as parse_report.json is written: reasons stay a mapping
        assert dataclasses.asdict(report) == {
            "total_rows": 1000, "accepted": 998, "rejected": 2, "reasons": {"bad_encoding": 2},
        }
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--format", fmt, "--out", str(out)]) == 0
        doc = json.loads((out / "parse_report.json").read_text())
        assert doc[str(path)]["reasons"] == {"bad_encoding": 2}

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_not_utf8_in_a_pipe_are_fatal(self, fmt):
        # A pipe (what a shell's <(zcat ...) gives) cannot be rewound to read
        # its rows again with the bad bytes escaped: opening it again would go
        # on past what the first reader had buffered, so parsing must fail
        # rather than drop rows. The bad byte lies past the first buffer.
        good = {
            "csv": b"1,u1,2016-11-08 10:21,en,false,,fine\n",
            "jsonl": b'{"tweetid": "1", "userid": "u1", "tweet_time": "2016-11-08 10:21",'
                     b' "tweet_language": "en", "is_retweet": "false", "retweet_userid": "",'
                     b' "tweet_text": "fine"}\n',
        }[fmt]
        rows = good * (12_000 // len(good))
        data = (CSV_HEADER.encode() if fmt == "csv" else b"") + rows
        data += good.replace(b"fine", b"f\xffne") + rows
        assert len(data) < 60_000  # fits a pipe's buffer, so no writer thread
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            with pytest.raises(IngestError, match="cannot be read again"):
                parse_table(f"/dev/fd/{read_end}", fmt, ColumnMap())
        finally:
            os.close(read_end)

    def test_timestamp_outside_utc_range_rejects_only_its_row(self, tmp_path):
        path = _write_csv(
            tmp_path,
            [
                "1,u1,2016-11-08 10:21,en,false,,kept",
                "2,u2,0001-01-01 00:30:00+01:00,en,false,,before year 1 in UTC",
                "3,u3,9999-12-31 23:59:59-01:00,en,false,,after year 9999 in UTC",
            ],
        )
        corpus, report = parse_table(path, "csv", ColumnMap())
        assert fields_of(corpus)["tweet_id"] == ["1"]
        assert report.reasons == {"bad_timestamp": 2}
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--format", "csv", "--out", str(out)]) == 0
        doc = json.loads((out / "parse_report.json").read_text())
        assert doc[str(path)]["reasons"] == {"bad_timestamp": 2}

    def test_reason_names_the_failed_check_whatever_the_tweet_id(self, tmp_path):
        path = _write_csv(
            tmp_path,
            [
                "timestamp-7,u1,2016-11-08 10:21,en,true,,retweet without source",
                "boolean-8,u2,2016-11-08 11:00,en,false,u1,source on original",
            ],
        )
        _, report = parse_table(path, "csv", ColumnMap())
        assert report.reasons == {"retweet_without_source": 1, "source_on_non_retweet": 1}

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip_synthetic_corpus(self, tmp_path, fmt):
        # 10k+ records written and re-read with full field equality
        groups = tuple(
            GroupCorpusSpec(
                dynamics=GroupSpec(group_id=g, baseline_level=10.0, noise_sigma=0.0, members=9),
                vocabulary=planted_vocabulary(g, 12),
                strategy_pre=(0.5, 0.3, 0.2),
                strategy_post=(0.5, 0.3, 0.2),
            )
            for g in ("red", "blue")
        )
        spec = CorpusSpec(
            groups=groups,
            noise_vocabulary=(),
            noise_weight=0.0,
            tokens_per_tweet=4,
            changepoint_day=None,
        )
        window = DayWindow.of_length(date(2016, 3, 9), 60)
        corpus, _ = generate_corpus(spec, window, seed=3)
        assert len(corpus) >= 10_000
        path = tmp_path / f"corpus.{fmt}"
        if fmt == "csv":
            write_csv(corpus, path)
        else:
            assert write_records(corpus, path) == file_sha256(path)
        loaded, report = parse_table(path, fmt, ColumnMap())
        assert report.rejected == 0
        assert arrays_of(loaded) == arrays_of(corpus)


class TestSpill:
    """``ingest`` spills the string bytes to unnamed files under ``--out``;
    whether it succeeds or fails, only its artifacts are left there."""

    ROWS = [
        "1,u1,2016-11-08 10:21,en,false,,hello Жж",
        "2,u2,2016-11-08 10:20,en,true,u1,rt body",
        "3,u3,not-a-time,en,false,,bad stamp",
    ]

    def test_a_successful_ingest_leaves_only_its_artifacts(self, tmp_path):
        path = _write_csv(tmp_path, self.ROWS)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "campaign_users.json", "corpus.npz", "manifest_ingest.json", "parse_report.json",
            "records.jsonl", "retweet_network.json",
        ]

    def test_a_failed_ingest_leaves_only_its_manifest(self, tmp_path):
        # the second table lacks a column, so it fails after the first is spilled
        good = _write_csv(tmp_path, self.ROWS)
        bad = tmp_path / "bad.csv"
        bad.write_text("tweetid,userid\n1,u1\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["ingest", "--input", str(good), "--input", str(bad), "--format", "csv"]
        assert main([*argv, "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["manifest_ingest.json"]
        doc = json.loads((out / "manifest_ingest.json").read_text())
        assert doc["status"] == "failed" and "missing required columns" in doc["error"]


class TestWriteRecords:
    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        """``tweetdyn run --input <out>/records.jsonl --out <out>`` rewrites
        the file it read; an error midway must not cost that input."""
        t0 = datetime(2016, 3, 1, tzinfo=timezone.utc)
        rows = [
            TweetRecord(str(i), f"u{i % 7}", t0 + timedelta(seconds=i), "en", False, None, f"t{i}")
            for i in range(3 * ingest._WRITE_BLOCK)
        ]
        path = tmp_path / "records.jsonl"
        write_records(corpus_of(rows[:5]), path)
        old = path.read_bytes()
        strings = StringColumn.strings

        def fail_after_the_first_block(column, start, stop):
            if start > 0:
                (partial,) = set(tmp_path.iterdir()) - {path}
                assert partial.stat().st_size > 0  # the first block is on disk
                raise OSError("disk full")
            return strings(column, start, stop)

        monkeypatch.setattr(StringColumn, "strings", fail_after_the_first_block)
        with pytest.raises(OSError, match="disk full"):
            write_records(corpus_of(rows), path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]


class TestCategorize:
    def test_three_categories(self):
        campaign = {"u1", "u2"}
        corpus = corpus_of(
            [_rec(1, "u1"), _rec(2, "u1", retweet_of="u2"), _rec(3, "u1", retweet_of="cnn")]
        )
        assert corpus.categories(campaign).tolist() == [ORIGINAL, SPREADING, AMPLIFYING]

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            corpus_of([_rec(1)]).categories(set())


class TestSelectCohort:
    def _corpus(self):
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
        return corpus_of(records)

    def test_thresholds_and_language(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        corpus = self._corpus()
        assert select_cohort(corpus, window, window, "en", 5, 0.6) == ("steady",)
        # volume-only: burst qualifies too
        assert select_cohort(corpus, window, window, "en", 5, 0.0) == ("burst", "steady")
        # no language filter: foreign meets both thresholds
        assert select_cohort(corpus, window, window, None, 5, 0.6) == ("foreign", "steady")

    def test_volume_over_bulk_window_regularity_over_window(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        first_day = DayWindow.of_length(date(2016, 3, 9), 1)
        corpus = self._corpus()
        # steady has 1 tweet on the first day, burst 20; only steady is regular
        assert select_cohort(corpus, first_day, window, "en", 1, 0.6) == ("steady",)
        assert select_cohort(corpus, first_day, window, "en", 2, 0.6) == ()
        assert select_cohort(corpus, first_day, window, "en", 2, 0.0) == ("burst",)
        # both tweet on the first day, but steady has 8 tweets in the window
        assert select_cohort(corpus, window, first_day, "en", 9, 1.0) == ("burst",)

    def test_fraction_boundary_inclusive(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        corpus = self._corpus()
        # steady is active 8/10 days; 0.8 passes, nudging above fails
        assert "steady" in select_cohort(corpus, window, window, "en", 0, 0.8)
        assert "steady" not in select_cohort(corpus, window, window, "en", 0, 0.81)

    def test_empty_cohort_is_valid(self, caplog):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        bulk = DayWindow.of_length(date(2016, 3, 1), 30)
        with caplog.at_level(logging.WARNING, logger="tweetdyn.ingest"):
            assert select_cohort(self._corpus(), bulk, window, None, 10_000, 0.0) == ()
        (message,) = caplog.messages
        assert str(bulk) in message and str(window) in message

    def test_spec_validation(self):
        window = DayWindow.of_length(date(2016, 3, 9), 10)
        corpus = self._corpus()
        with pytest.raises(ValueError, match="active_day_fraction"):
            select_cohort(corpus, window, window, None, 0, 1.5)
        with pytest.raises(ValueError, match="min_total_tweets"):
            select_cohort(corpus, window, window, None, -1, 0.0)


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
        g = retweet_network(corpus_of(records), campaign)
        assert g.vertices == ("u1", "u2", "u3")
        assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0], [1], [3.0])
        # u3 appears (authored records) but has no member-retweet edges
        assert g.degrees().tolist() == [3.0, 3.0, 0.0]

    def test_retweeted_member_becomes_vertex(self):
        campaign = {"u1", "u9"}
        records = [_rec(1, "u1", retweet_of="u9")]
        g = retweet_network(corpus_of(records), campaign)
        assert set(g.vertices) == {"u1", "u9"}

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            retweet_network(corpus_of([]), set())

    def test_edgeless_network_writes_a_float_total_weight(self, tmp_path):
        path = _write_csv(
            tmp_path,
            [
                "1,u1,2016-11-08 10:21,en,false,,original",
                "2,u2,2016-11-08 10:22,en,true,cnn,outside account",
                "3,u1,2016-11-08 10:23,en,true,u1,self-retweet",
            ],
        )
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(path), "--format", "csv", "--out", str(out)]) == 0
        text = (out / "retweet_network.json").read_text()
        assert '"n_edges": 0,' in text and '"total_weight": 0.0\n' in text


# --------------------------------------------- columnar ingest vs the row loop

REMAPPED = ColumnMap(
    tweet_id="id", user_id="who", timestamp="at", language="lang",
    is_retweet="rt", retweeted_user_id="src", text="body",
)
# Shared by every table, so (timestamp, tweet id) twins occur within and
# across files. Years below 1000 print unpadded through strftime.
MOMENTS = [
    datetime(2016, 3, 1, 12, 0),
    datetime(2016, 3, 1, 12, 0, 0, 500),
    datetime(2016, 3, 2, 0, 0),
    datetime(5, 3, 4, 1, 2, 3),
    datetime(999, 12, 31, 23, 59, 59, 999999),
]
OFFSETS = [
    None,
    timezone.utc,
    timezone(timedelta(hours=3)),
    timezone(timedelta(hours=-5, minutes=-30)),
]
TEXT_CHARS = list("ab Ж, é\"\n\t#@1")


@st.composite
def stamp_st(draw):
    """A timestamp cell: ISO with or without zone and microseconds, or one of
    the other accepted layouts, maybe padded. UTC times stay inside years
    1-9999: the row loop aborts on anything else."""
    moment = draw(st.sampled_from(MOMENTS))
    layout = draw(st.sampled_from(["iso", "iso_t", "minutes", "us_date", "padded"]))
    if layout == "minutes":
        return moment.strftime("%Y-%m-%d %H:%M")
    if layout == "us_date":
        return moment.strftime("%m/%d/%Y %H:%M")
    zoned = moment.replace(tzinfo=draw(st.sampled_from(OFFSETS)))
    text = zoned.isoformat(sep="T" if layout == "iso_t" else " ")
    return f"  {text} " if layout == "padded" else text


# Cells by field, typed as a CSV reader or json.loads gives them. Small
# pools, so rows share tweet ids. No value contains the words the row loop
# read its reject reasons from.
GOOD = {
    "tweet_id": ["1", "2", "10", " 7 ", "é", "", "b"],
    "user_id": ["u1", "u2", " u3 ", "ü4", ""],
    "language": ["en", " ru ", "", "zz"],
    "true": ["true", "T", " yes ", "1", "TRUE"],
    "false": ["false", "f", "0", "no", " NO "],
    "source": ["u1", "u2", " x9 ", "ü4"],
    "no_source": ["", "  ", "\t"],
}
GOOD_JSON = {
    "tweet_id": [3, 2.5, "\ud800", "\udfff1", "\U0001f600"],
    "user_id": [42, "\ud800x"],
    "language": [5],
    "true": [True, 1],
    "false": [False, 0],
    "source": [5, "\ud83d"],
    "no_source": [None],
}
BAD = {
    "timestamp": ["not-a-time", "", "2016-13-01 00:00", "  "],
    "is_retweet": ["maybe", "", "2"],
}
BAD_JSON = {
    "tweet_id": [None],
    "user_id": [None],
    "timestamp": [None, 1478600460],
    "language": [None],
    "is_retweet": [None, 1.0, [1]],
    "text": [None],
}


def _pick(draw, key, jsonl, good=GOOD, more=GOOD_JSON):
    return draw(st.sampled_from(good.get(key, []) + (more.get(key, []) if jsonl else [])))


@st.composite
def row_st(draw, jsonl):
    """One row as {field: cell}: mostly well formed, now and then with one
    field spoiled; None stands for a JSON null."""
    retweet = draw(st.booleans())
    chars = TEXT_CHARS + ["\ud800"] if jsonl else TEXT_CHARS
    row = {
        "tweet_id": _pick(draw, "tweet_id", jsonl),
        "user_id": _pick(draw, "user_id", jsonl),
        "timestamp": draw(stamp_st()),
        "language": _pick(draw, "language", jsonl),
        "is_retweet": _pick(draw, "true" if retweet else "false", jsonl),
        "retweeted_user_id": _pick(draw, "source" if retweet else "no_source", jsonl),
        "text": draw(st.text(st.sampled_from(chars), max_size=8)),
    }
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(FIELDS))
        if field == "retweeted_user_id":  # the flag and the source disagree
            row[field] = _pick(draw, "no_source" if retweet else "source", jsonl)
        elif BAD.get(field) or jsonl:
            row[field] = _pick(draw, field, jsonl, BAD, BAD_JSON)
    return row


FIELDS = ("tweet_id", "user_id", "timestamp", "language", "is_retweet", "retweeted_user_id", "text")


@st.composite
def csv_table_st(draw, columns):
    header = list(FIELDS)
    if draw(st.booleans()):
        header.remove("retweeted_user_id")  # rows flagged as retweets are then malformed
    header = draw(st.permutations(header))
    if draw(st.booleans()):  # a repeated name: the last cell wins
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    lines = [[getattr(columns, f) for f in header]]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 5 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append([])
            continue
        row, spare = draw(row_st(False)), draw(row_st(False))
        # Earlier copies of a repeated name get another row's cell.
        cells = [
            (row if f not in header[i + 1 :] else spare)[f] for i, f in enumerate(header)
        ]
        if kind == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        elif kind == "long":
            cells.append("extra")
        lines.append(cells)
    return lines


@st.composite
def jsonl_table_st(draw, columns):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 5 + ["garbage", "blank"]))
        if kind == "garbage":
            lines.append(draw(st.sampled_from(["not json", "[1, 2]", "5", '"x"', "null", "{"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
        else:
            row = draw(row_st(True))
            if draw(st.integers(0, 5)) == 0:  # a missing key
                del row[draw(st.sampled_from(FIELDS))]
            lines.append(json.dumps({getattr(columns, f): v for f, v in row.items()}))
    return lines


# Every table is UTF-8 and every JSON line is shallow with short numbers: the
# row loop aborts on a byte that is not UTF-8 and on the ValueError or
# RecursionError of an over-long integer or deep nesting, where ``ingest``
# rejects the row (``TestParse`` covers both).
@st.composite
def tables_st(draw):
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    columns = draw(st.sampled_from([ColumnMap(), REMAPPED]))
    table_st = csv_table_st(columns) if fmt == "csv" else jsonl_table_st(columns)
    return fmt, columns, draw(st.lists(table_st, min_size=1, max_size=2))


def _write_table(path, fmt, lines):
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    else:
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _same_as_row_loop(paths, fmt, columns, tmp):
    """read_tables + write_records over ``paths`` give the row loop's
    records.jsonl (whose path this returns), parse reports and columns,
    write_records returns that file's sha256, and the parse leaves nothing
    in its spill directory."""
    (tmp / "spill").mkdir()
    merged, reports = read_tables([str(p) for p in paths], fmt, columns, tmp / "spill")
    assert list((tmp / "spill").iterdir()) == []
    old_records, old_reports = [], []
    for path in paths:
        records, report = ref.parse_records(path, fmt, columns)
        old_records.extend(records)
        old_reports.append(report)
    old_records = ref.ingest_order(old_records)
    new_file, old_file = tmp / "new.jsonl", tmp / "old.jsonl"
    digest = write_records(merged, new_file)
    ref.write_records(old_records, old_file)
    assert new_file.read_bytes() == old_file.read_bytes()
    assert digest == hashlib.sha256(old_file.read_bytes()).hexdigest()
    assert list(reports.values()) == old_reports
    assert arrays_of(merged) == arrays_of(corpus_of(old_records))
    return old_file


class TestColumnarIngestMatchesRowLoop:
    """read_tables + write_records against the row loop in
    ``reference_loops``: same records.jsonl bytes, parse reports and columns,
    whatever the parse block. The drawn tables have rows out of (time, id)
    order and timestamp ties within and across tables, so read_tables
    reorders them (``Corpus.select``). The records.jsonl they give, cut in
    two, has its rows in order up to the ties that whole seconds make, with
    ties across the cut, so read_tables mostly keeps the order it checked."""

    @settings(max_examples=300, deadline=None)
    @given(tables_st(), st.sampled_from([1, 3, 8192]), st.data())
    def test_same_records_reports_and_columns(self, tables, block, data):
        fmt, columns, files = tables
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            ingest, "_PARSE_BLOCK", block
        ):
            tmp = Path(tmp)
            paths = []
            for i, lines in enumerate(files):
                paths.append(tmp / f"part{i}.{fmt}")
                _write_table(paths[-1], fmt, lines)
            records = _same_as_row_loop(paths, fmt, columns, tmp)
            lines = records.read_bytes().splitlines(keepends=True)
            cut = data.draw(st.integers(0, len(lines)))
            halves = [tmp / "first.jsonl", tmp / "second.jsonl"]
            halves[0].write_bytes(b"".join(lines[:cut]))
            halves[1].write_bytes(b"".join(lines[cut:]))
            (tmp / "again").mkdir()
            _same_as_row_loop(halves, "jsonl", ColumnMap(), tmp / "again")


# Timestamps at the edges of the YYYY-MM-DD HH:MM:SS form that the column
# check reads (leap days, the first and last valid times, fields out of
# range) and off that form, where the per-value helper decides: each must
# get the row loop's verdict.
ODD_STAMPS = [
    "2016-02-30 00:00:00", "2015-02-29 00:00:00", "2016-02-29 23:59:59",
    "1900-02-29 00:00:00", "2000-02-29 00:00:00", "2016-04-31 12:00:00",
    "2016-03-01 24:00:00", "2016-03-01 23:60:00", "2016-03-01 23:59:60",
    "2016-00-10 00:00:00", "2016-13-10 00:00:00", "2016-03-00 00:00:00",
    "2016-03-01T12:00:00", "2016-03-01 12:00:00+03:00", "2016-03-01 12:00:00Z",
    "2016-03-01 12:00:00.250000", "2016-03-01 12:00:00.5", "03/09/2016 00:05",
    "2016-03-01 12:00", "2016-3-1 12:00:00", " 2016-03-01 12:00:00",
    "2016-03-01 12:00:00 ", "2016-03-01\t12:00:00", "2016/03/01 12:00:00",
    "２０１６-03-01 12:00:00", "2016-03-01 12:00:00x",
    "0000-01-01 00:00:00", "0001-01-01 00:00:00", "0001-01-01 00:30:00+01:00",
    "9999-12-31 23:59:59", "9999-12-31 23:59:59-01:00", "9999-12-31 23:59:59+01:00",
]
# JSONL lines that are no JSON object, or no JSON at all
NOT_OBJECTS = [
    "1,2", "[1", "2]", '{"a": 1}],[{"b": 2}', '{"a": 1} {"b": 2}', "not json",
    "{", "null", '"x"', "5", "[1, 2]", "﻿{}", "{} x", "NaN",
    '{"tweetid": ' + "7" * 5000 + "}",  # over Python's 4,300-digit limit
    "[" * 100_000,  # deeper than the interpreter's stack
]
BAD_BYTE_MARK = "¤"  # its UTF-8 bytes become a byte that is not UTF-8


@st.composite
def odd_row_st(draw, jsonl):
    """A row of ``row_st``, now and then with an odd timestamp, a text
    nested a few levels deep (JSONL) or a mark for a byte that is not UTF-8."""
    row = draw(row_st(jsonl))
    if draw(st.integers(0, 2)) == 0:
        row["timestamp"] = draw(st.sampled_from(ODD_STAMPS))
    if jsonl and draw(st.integers(0, 9)) == 0:
        row["text"] = json.loads("[" * 40 + "]" * 40)
    if draw(st.integers(0, 9)) == 0:
        row["text"] = f"x{BAD_BYTE_MARK}y"
    return row


def _line_bytes(text):
    """The UTF-8 bytes of a table line, with each bad-byte mark made a 0xff."""
    return text.encode("utf-8").replace(BAD_BYTE_MARK.encode(), b"\xff") + b"\n"


@st.composite
def odd_jsonl_st(draw, columns):
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["row"] * 6 + ["garbage", "blank"]))
        if kind == "garbage":
            lines.append(draw(st.sampled_from(NOT_OBJECTS)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            row = draw(odd_row_st(True))
            if draw(st.integers(0, 5)) == 0:  # a missing key
                del row[draw(st.sampled_from(FIELDS))]
            doc = {getattr(columns, f): v for f, v in row.items()}
            lines.append(json.dumps(doc).replace("\\u00a4", BAD_BYTE_MARK))
    return b"".join(map(_line_bytes, lines))


@st.composite
def odd_csv_st(draw, columns):
    header = list(FIELDS)
    if draw(st.booleans()):
        header.remove("retweeted_user_id")
    header = draw(st.permutations(header))
    if draw(st.booleans()):  # a repeated name: the last cell wins
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    lines = [[getattr(columns, f) for f in header]]
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["row"] * 5 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append([])
            continue
        row = draw(odd_row_st(False))
        cells = [row[f] for f in header]
        if kind == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        elif kind == "long":
            cells += ["extra"] * draw(st.integers(1, 2))
        lines.append(cells)
    text = io.StringIO(newline="")
    csv.writer(text).writerows(lines)
    return b"".join(_line_bytes(line) for line in text.getvalue().splitlines())


class TestColumnChecksMatchRowLoop:
    """``parse_records`` checks whole columns; the row loop it replaced
    (``reference_loops.parse_file``) checks one row at a time. On tables that
    mix well-formed rows with every kind of malformed one, both give the same
    columns (``reference_loops.arrays_of``), the same sidecar bytes
    (``reference_loops.sidecar_bytes``) and the same report, reasons in the
    same order, whatever the block size."""

    @settings(max_examples=250, deadline=None)
    @given(
        st.sampled_from(["csv", "jsonl"]),
        st.sampled_from([ColumnMap(), REMAPPED]),
        st.sampled_from([1, 2, 3, 8192]),
        st.data(),
    )
    def test_same_corpus_bytes_and_report(self, fmt, columns, block, data):
        table = data.draw((odd_csv_st if fmt == "csv" else odd_jsonl_st)(columns))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, f"table.{fmt}")
            path.write_bytes(table)
            with mock.patch.object(ingest, "_PARSE_BLOCK", block):
                corpus, report = parse_table(path, fmt, columns)
            old_columns, old_report = ref.parse_file(path, fmt, columns)
            old_arrays = ref.arrays_of(old_columns)
            assert arrays_of(corpus) == old_arrays
            corpus.save(Path(tmp, "new.npz"), "0" * 64)
            assert Path(tmp, "new.npz").read_bytes() == ref.sidecar_bytes(old_arrays, "0" * 64)
        assert report == old_report
        assert list(report.reasons) == list(old_report.reasons)


PAD_ROWS = 200  # 11 KB of CSV rows or more: past the reader's first 8 KB buffer
ONLY_REJECTED = "seen-only-in-a-rejected-row"


def _padded(table, fmt, columns):
    """The table with PAD_ROWS well-formed rows first (after a CSV header),
    in falling time order with non-ASCII text, and then a row whose one
    account id is nowhere else and whose text holds a byte that is not
    UTF-8. The first pass parses the padding's blocks before the bad byte
    stops it, so the second pass must start from none of them."""
    def row(i, user, text):
        return {
            "tweet_id": str(i), "user_id": user, "timestamp": f"2016-03-01 00:00:{59 - i % 60:02d}",
            "language": "en", "is_retweet": "false", "retweeted_user_id": "", "text": text,
        }

    rows = [row(i, f"pad{i % 3}", "Жж padding row") for i in range(PAD_ROWS)]
    rows.append(row(PAD_ROWS, ONLY_REJECTED, f"x{BAD_BYTE_MARK}y"))
    if fmt == "jsonl":
        lines = [json.dumps({getattr(columns, f): v for f, v in r.items()}) for r in rows]
        return b"".join(_line_bytes(line.replace("\\u00a4", BAD_BYTE_MARK)) for line in lines) + table
    head, _, body = table.partition(b"\n")
    field_of = {getattr(columns, f): f for f in FIELDS}
    header = next(csv.reader([head.decode()]))
    text = io.StringIO(newline="")
    csv.writer(text).writerows([r[field_of[name]] for name in header] for r in rows)
    return head + b"\n" + b"".join(map(_line_bytes, text.getvalue().splitlines())) + body


class TestReadTablesMatchesRowLoop:
    """``read_tables`` over several tables against the row loop
    (``reference_loops.read_tables``): each table through ``parse_file``,
    the rows joined in table order and sorted by (timestamp, tweet id). The
    tables mix rows out of (time, id) order, ties within and across tables,
    text outside ASCII, bytes that are not UTF-8 (so a table is parsed
    again) and an account id seen only in a rejected row; the parse spills
    into a directory it leaves empty."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["csv", "jsonl"]),
        st.sampled_from([ColumnMap(), REMAPPED]),
        st.sampled_from([1, 3, 8192]),
        st.data(),
    )
    def test_same_rows_tables_and_reports(self, fmt, columns, block, data):
        tables = data.draw(st.lists((odd_csv_st if fmt == "csv" else odd_jsonl_st)(columns),
                                    min_size=1, max_size=3))
        padded = data.draw(st.integers(-1, len(tables) - 1))
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, table in enumerate(tables):
                paths.append(Path(tmp, f"table{i}.{fmt}"))
                paths[-1].write_bytes(_padded(table, fmt, columns) if i == padded else table)
            spill = Path(tmp, "spill")
            spill.mkdir()
            with mock.patch.object(ingest, "_PARSE_BLOCK", block):
                corpus, reports = read_tables([str(p) for p in paths], fmt, columns, spill)
            assert list(spill.iterdir()) == []
            old_columns, old_reports = ref.read_tables(paths, fmt, columns)
        assert arrays_of(corpus) == ref.arrays_of(old_columns)
        assert list(reports.values()) == old_reports
        assert ONLY_REJECTED not in corpus.account_ids
        if padded >= 0:
            assert old_reports[padded].reasons.get("bad_encoding", 0) >= 1


class TestIsoStampColumn:
    """The column check of ``YYYY-MM-DD HH:MM:SS`` stamps takes each stamp it
    accepts to the microseconds the per-value helper gives, and accepts every
    valid time in that form."""

    @settings(max_examples=400, deadline=None)
    @given(st.datetimes(), st.text(st.sampled_from("0123456789-: T"), min_size=17, max_size=21))
    def test_accepted_stamps_match_the_helper(self, moment, noise):
        valid = moment.replace(microsecond=0).isoformat(sep=" ")
        us, ok = ingest._iso_seconds_us([valid, noise, None, 7])
        assert ok.tolist()[0] and not ok[2] and not ok[3]
        for stamp, value, accepted in zip((valid, noise), us.tolist(), ok.tolist()):
            if accepted:
                assert value == ingest._timestamp_us(stamp)


WORDS = "news rally vote power people today state world media truth city".split()


def _big_table(path, n_rows):
    """A takedown-layout CSV table of ``n_rows`` well-formed rows, about 150
    bytes each: 500 users, one retweet in four, texts of 14 words."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER)
        for i in range(n_rows):
            source = f"u{(i * 7) % 500:04d}" if i % 4 == 0 else ""
            text = " ".join(WORDS[(i * k + k) % len(WORDS)] for k in range(14))
            fh.write(
                f"{10**17 + i},u{i % 500:04d},2016-03-{1 + i % 28:02d} "
                f"{i % 24:02d}:{i % 60:02d}:{i % 59:02d},{'en' if i % 3 else 'ru'},"
                f"{'true' if source else 'false'},{source},{text}\n"
            )


def _traced_parse(path):
    """The corpus and report of parsing one table on its own, what of the
    traced memory the corpus keeps, and the peak."""
    tracemalloc.start()
    try:
        corpus, report = parse_table(path, "csv", ColumnMap())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return corpus, report, kept, peak


class TestParseMemory:
    """The parse keeps the int columns in memory and writes the string bytes
    to files as each block is checked; the build moves each column's blocks
    into it one block at a time. So the traced memory it allocates and frees
    again (its peak less what the corpus keeps) is one block's rows, at
    about 1 KiB a row, whatever the number of rows. Whole-table lists of row
    strings, joined at the end, take about three copies of the corpus."""

    def test_transient_is_one_copy_and_one_block(self, tmp_path):
        path = tmp_path / "tweets.csv"
        _big_table(path, 68_000)
        corpus, report, kept, peak = _traced_parse(path)
        assert report.accepted == len(corpus) == 68_000
        assert peak - kept <= kept + ingest._PARSE_BLOCK * 1024

    def test_transient_does_not_grow_with_rows(self, tmp_path):
        transient = []
        for n_rows in (34_000, 68_000):
            path = tmp_path / f"tweets{n_rows}.csv"
            _big_table(path, n_rows)
            corpus, report, kept, peak = _traced_parse(path)
            assert report.accepted == len(corpus) == n_rows
            transient.append(peak - kept)
        assert abs(transient[1] - transient[0]) <= ingest._PARSE_BLOCK * 1024

    def test_rows_out_of_order_are_gathered_into_files(self, tmp_path):
        """``_big_table``'s rows are not in (time, id) order, so
        ``read_tables`` gathers them again (``Corpus.select``), into two more
        unnamed files in the spill directory: what it keeps is the corpus's
        int columns and, within one block's slack, its id tables and the
        report."""
        path, spill = tmp_path / "tweets.csv", tmp_path / "spill"
        _big_table(path, 68_000)
        spill.mkdir()
        assert not ingest._in_order(parse_table(path, "csv", ColumnMap())[0])
        tracemalloc.start()
        try:
            corpus, reports = read_tables([str(path)], "csv", ColumnMap(), spill)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reports[str(path)].accepted == len(corpus) == 68_000
        int_columns = [corpus.user, corpus.source, corpus.timestamp_us, corpus.language, corpus.day]
        int_columns += [corpus.tweet_id.offsets, corpus.text.offsets]
        assert kept <= sum(c.nbytes for c in int_columns) + ingest._PARSE_BLOCK * 1024
        assert list(spill.iterdir()) == []
