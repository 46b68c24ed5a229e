"""The columnar corpus: kernels against their per-record references, and the
``corpus.npz`` sidecar that ``ingest`` writes and later stages load."""

import dataclasses
import json
import os
import struct
import tempfile
import zipfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from tweet_tables import (
    EPOCH, ONE_US, TweetRecord, arrays_of, corpus_of, counters_of, file_sha256,
)
from tweetdyn.cli import main
from tweetdyn.corpus import Corpus, CorpusRows, CorpusError
from tweetdyn.ingest import retweet_network, select_cohort, write_records
from tweetdyn.strategy import SymbolDistribution, category_table, symbol_pairs, symbol_table
from tweetdyn.timeseries import DayWindow, counts_by_user, daily_counts
from tweetdyn.topic import count_terms

USERS = ["u0", "u1", "u2", "ü3"]
OUTSIDE = ["x0", "cnn"]
WINDOW = DayWindow(date(2016, 3, 5), date(2016, 3, 15))
BASE = datetime(2016, 3, 1, tzinfo=timezone.utc)
# Bulk windows equal to WINDOW, nested in it, holding it, overlapping it on
# either side and disjoint from it on either side.
BULK_WINDOWS = [
    WINDOW,
    DayWindow(date(2016, 3, 7), date(2016, 3, 12)),
    DayWindow(date(2016, 3, 1), date(2016, 3, 22)),
    DayWindow(date(2016, 3, 1), date(2016, 3, 8)),
    DayWindow(date(2016, 3, 12), date(2016, 3, 22)),
    DayWindow(date(2016, 3, 1), date(2016, 3, 5)),
    DayWindow(date(2016, 3, 15), date(2016, 3, 22)),
]
ZONES = [timezone.utc, timezone(timedelta(hours=3)), timezone(timedelta(hours=-5))]


@st.composite
def records_st(draw):
    """Small corpora with foreign-language rows, days on both sides of
    WINDOW, retweets of outside accounts and of oneself, and tweets sharing
    (timestamp, tweet id) but not text."""
    n = draw(st.integers(0, 40))
    out = []
    text_st = st.text(st.sampled_from(list("ab cdé Ж#@1\ud800")), max_size=12)
    for _ in range(n):
        if out and draw(st.booleans()):
            twin = out[draw(st.integers(0, len(out) - 1))]
            out.append(dataclasses.replace(twin, text=draw(text_st)))
            continue
        user = draw(st.sampled_from(USERS))
        when = BASE + timedelta(
            days=draw(st.integers(0, 20)),
            seconds=draw(st.sampled_from([0, 1, 3600, 86399])),
            microseconds=draw(st.sampled_from([0, 500])),
        )
        source = draw(st.one_of(st.none(), st.sampled_from(USERS + OUTSIDE)))
        out.append(
            TweetRecord(
                tweet_id=draw(st.sampled_from(["1", "2", "10", "b"])),
                user_id=user,
                timestamp=when.astimezone(draw(st.sampled_from(ZONES))),
                language=draw(st.sampled_from(["en", "en", "ru"])),
                is_retweet=source is not None,
                retweeted_user_id=source,
                text=draw(text_st),
            )
        )
    return out


campaign_st = st.sets(st.sampled_from(USERS + OUTSIDE), min_size=1)


class TestKernelsMatchReferenceLoops:
    @given(
        records_st(),
        st.sampled_from(BULK_WINDOWS),
        st.integers(0, 6),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]),
        st.sampled_from([None, "en", "ru", "zz"]),
    )
    def test_select_cohort(self, records, bulk, min_total, fraction, language):
        # volume over the bulk window AND regularity over the window
        volume = ref.select_cohort(records, bulk, language, min_total, 0.0)
        regular = ref.select_cohort(records, WINDOW, language, 0, fraction)
        got = select_cohort(corpus_of(records), bulk, WINDOW, language, min_total, fraction)
        assert got == tuple(sorted(volume & regular))

    @given(records_st())
    def test_daily_counts_and_counts_by_user(self, records):
        users = USERS + ["nobody"]
        corpus = corpus_of(records)
        got = daily_counts(corpus, WINDOW)
        want = ref.daily_counts(records, WINDOW)
        assert got.values.tolist() == want.values.tolist()
        got = counts_by_user(corpus, WINDOW, users)
        want = ref.counts_by_user(records, WINDOW, users)
        assert got.shape == (len(want), WINDOW.n_days)
        for u, row in zip(users, got):
            assert row.tolist() == want[u].tolist()

    @given(records_st(), campaign_st)
    def test_category_counts_and_symbols(self, records, campaign):
        # the composition cmd_strategy runs: one table for all users
        table = category_table(corpus_of(records), campaign, USERS, WINDOW)
        symbols = symbol_table(table)
        for i, user_id in enumerate(USERS):
            np.testing.assert_array_equal(
                table[i], ref.daily_category_counts(records, campaign, user_id, WINDOW)
            )
            assert symbol_pairs(symbols[i]) == (
                ref.symbol_sequence(records, campaign, user_id, WINDOW)
            )
        try:
            want = ref.symbol_distribution(records, campaign, USERS, WINDOW)
        except ValueError:
            with pytest.raises(ValueError):
                SymbolDistribution.of_symbols(symbols)
        else:
            assert SymbolDistribution.of_symbols(symbols).counts == want.counts

    @given(records_st())
    def test_build_documents(self, records):
        # count_terms against the reference documents, stemmed and counted
        users = USERS[1:] + ["nobody"]
        want = {
            d.user_id: ref.stem_and_filter(d)
            for d in ref.build_documents(records, users, WINDOW)
        }
        assert counters_of(count_terms(corpus_of(records), users, WINDOW)) == want

    @given(records_st(), campaign_st)
    def test_retweet_network(self, records, campaign):
        want = ref.retweet_network(records, campaign)
        got = retweet_network(corpus_of(records), campaign)
        assert ref.graph_key(got) == ref.graph_key(want)


STRINGS = st.lists(
    st.text(st.sampled_from(list("ab ,\n\x00") + ["é", "Ж", "\ud800", "\U0001f600"]), max_size=5),
    max_size=12,
)


def _spilled_columns(strings, spill_dir):
    """The tweet id and text columns ``CorpusRows.build`` spills for rows
    whose ids and texts are ``strings``."""
    n = len(strings)
    store = CorpusRows(spill_dir)
    store.add_rows(
        tweet_id=strings, user=["u"] * n, source=[None] * n,
        timestamp_us=[0] * n, language=["en"] * n, text=strings,
    )
    return store.build()


class TestStringColumn:
    """A column of ASCII strings is encoded and decoded in one piece; any
    other column one string at a time. Both give the bytes and strings of
    the one-at-a-time path: the file holds the strings' UTF-8 bytes one
    after another, at offsets that are the cumulative byte counts of the
    strings encoded one at a time."""

    @settings(max_examples=200)
    @given(STRINGS, st.data())
    def test_of_and_strings_match_one_string_at_a_time(self, strings, data):
        encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
        start = data.draw(st.integers(0, len(strings)))
        stop = data.draw(st.integers(start, len(strings)))
        with tempfile.TemporaryDirectory() as tmp:
            corpus = _spilled_columns(strings, tmp)
        for column in (corpus.tweet_id, corpus.text):
            assert os.pread(column.fd, int(column.offsets[-1]), column.start) == b"".join(encoded)
            assert column.offsets.tolist() == np.cumsum([0] + [len(b) for b in encoded]).tolist()
            assert column.strings(start, stop) == strings[start:stop]


class TestFileBackedColumns:
    """Columns spilled by ``CorpusRows.build``, loaded by ``Corpus.load`` and
    gathered by ``select`` read their bytes from a file; they expose no
    buffer, and give what the in-memory list of the same strings gives."""

    @settings(max_examples=50)
    @given(STRINGS, st.data())
    def test_spilled_and_loaded_columns_read_as_in_memory_ones(self, strings, data):
        n = len(strings)
        rows = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3 * n)), dtype=np.int64)
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        want = [strings[i] for i in rows]
        want_offsets = np.cumsum([0, *(len(strings[i].encode("utf-8", "surrogatepass")) for i in rows)])
        with tempfile.TemporaryDirectory() as tmp:
            spilled = _spilled_columns(strings, tmp)
            jsonl, npz = Path(tmp, "records.jsonl"), Path(tmp, "corpus.npz")
            spilled.save(npz, write_records(spilled, jsonl))
            loaded = Corpus.load(npz, jsonl)
            for column in (spilled.tweet_id, spilled.text, loaded.tweet_id, loaded.text):
                with pytest.raises(TypeError):
                    memoryview(column)
                assert column.take(rows) == want
                assert column.strings(start, stop) == strings[start:stop]
                assert column.tolist() == strings
                selected = column.select(rows, tmp)
                with pytest.raises(TypeError):
                    memoryview(selected)
                assert selected.tolist() == want
                assert selected.offsets.tolist() == want_offsets.tolist()
            # the spill files are unnamed
            assert sorted(os.listdir(tmp)) == ["corpus.npz", "records.jsonl"]


def _row_lists(records):
    """The records' rows as ``add_rows`` and ``reference_loops.arrays_of``
    take them."""
    return dict(
        tweet_id=[r.tweet_id for r in records],
        user=[r.user_id for r in records],
        source=[r.retweeted_user_id if r.is_retweet else None for r in records],
        timestamp_us=[(r.timestamp - EPOCH) // ONE_US for r in records],
        language=[r.language for r in records],
        text=[r.text for r in records],
    )


class TestCorpusRows:
    """Rows added in blocks, with ids first seen in any order, build the
    corpus the plain-Python ``reference_loops.arrays_of`` gives of all of
    them at once; rolling back to a mark drops the rows, ids and bytes added
    since, as if they never were."""

    @settings(max_examples=100)
    @given(records_st(), st.data())
    def test_blocks_build_the_corpus_of_all_rows(self, records, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
        mark_at = data.draw(st.integers(0, len(cuts)))
        bounds = [0, *cuts, len(records)]
        store = CorpusRows(None)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if i == mark_at:
                mark = store.mark()
                store.add_rows(**_row_lists(list(reversed(records))))  # dropped below
                store.roll_back(mark)
            store.add_rows(**_row_lists(records[lo:hi]))
        assert len(store) == len(records)
        corpus = store.build()
        # the strings are read from the spill files, which outlive the
        # store's handles; no view of their bytes is left to write to
        for column in (corpus.tweet_id, corpus.text):
            assert not column.offsets.flags.writeable
            with pytest.raises(TypeError):
                memoryview(column)
        assert arrays_of(corpus) == ref.arrays_of(_row_lists(records))

    def test_roll_back_drops_ids_seen_only_since_the_mark(self):
        rows = [TweetRecord(str(i), f"u{i}", BASE, "en", False, None, "é") for i in range(3)]
        late = TweetRecord("9", "zz", BASE, "ru", True, "x0", "gone")
        store = CorpusRows(None)
        store.add_rows(**_row_lists(rows[:1]))
        mark = store.mark()
        store.add_rows(**_row_lists([late, *rows[1:]]))
        store.roll_back(mark)
        store.add_rows(**_row_lists(rows[1:]))
        corpus = store.build()
        assert os.fstat(corpus.tweet_id.fd).st_size == 3
        assert os.fstat(corpus.text.fd).st_size == 3 * len("é".encode())
        assert corpus.account_ids == ("u0", "u1", "u2")
        assert corpus.language_ids == ("en",)
        assert arrays_of(corpus) == ref.arrays_of(_row_lists(rows))

    def test_no_rows_build_an_empty_corpus(self):
        corpus = CorpusRows(None).build()
        assert arrays_of(corpus) == ref.arrays_of(_row_lists([]))


class TestSidecarFile:
    @settings(max_examples=25)
    @given(records_st())
    def test_round_trip_is_exact_and_byte_deterministic(self, records):
        corpus = corpus_of(records)
        with tempfile.TemporaryDirectory() as tmp:
            jsonl, a, b = Path(tmp, "records.jsonl"), Path(tmp, "a.npz"), Path(tmp, "b.npz")
            write_records(corpus, jsonl)
            corpus.save(a, file_sha256(jsonl))
            corpus.save(b, file_sha256(jsonl))
            assert a.read_bytes() == b.read_bytes()
            assert arrays_of(Corpus.load(a, jsonl)) == arrays_of(corpus)

    def test_zip_members_carry_a_fixed_date(self, tmp_path):
        jsonl = tmp_path / "records.jsonl"
        jsonl.write_text("")
        corpus_of([]).save(tmp_path / "corpus.npz", file_sha256(jsonl))
        with zipfile.ZipFile(tmp_path / "corpus.npz") as zf:
            assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_out_of_range_codes_rejected(self, tmp_path):
        rec = TweetRecord("1", "u", BASE, "en", False, None, "hi")
        jsonl = tmp_path / "records.jsonl"
        write_records(corpus_of([rec]), jsonl)
        bad = dataclasses.replace(corpus_of([rec]), user=np.array([5]))
        bad.save(tmp_path / "corpus.npz", file_sha256(jsonl))
        with pytest.raises(CorpusError, match="user codes"):
            Corpus.load(tmp_path / "corpus.npz", jsonl)


    @staticmethod
    def _saved(tmp_path, texts):
        """A corpus of one row per text, saved with its ``records.jsonl``."""
        rows = [TweetRecord(str(i), f"u{i}", BASE, "en", False, None, t) for i, t in enumerate(texts)]
        corpus, jsonl = corpus_of(rows), tmp_path / "records.jsonl"
        write_records(corpus, jsonl)
        corpus.save(tmp_path / "corpus.npz", file_sha256(jsonl))
        return corpus, tmp_path / "corpus.npz", jsonl

    def test_loaded_columns_are_read_only(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "bc"])
        loaded = Corpus.load(npz, jsonl)
        columns = [getattr(loaded, name) for name in ("user", "source", "timestamp_us", "language", "day")]
        columns += [s.offsets for s in (loaded.tweet_id, loaded.text)]
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        # the strings are read from the sidecar: no view of its bytes to write to
        for strings in (loaded.tweet_id, loaded.text):
            with pytest.raises(TypeError):
                memoryview(strings)

    def test_resaving_leaves_an_earlier_load_unchanged(self, tmp_path):
        corpus, npz, jsonl = self._saved(tmp_path, ["first", "rows"])
        loaded = Corpus.load(npz, jsonl)
        other, _, _ = self._saved(tmp_path, ["other", "rows", "here"])
        assert arrays_of(loaded) == arrays_of(corpus)
        assert arrays_of(Corpus.load(npz, jsonl)) == arrays_of(other)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.npz", "records.jsonl"]

    @staticmethod
    def _rewrite(npz, compression=zipfile.ZIP_STORED, edit=lambda name, data: data):
        """Write the sidecar's members again, edited, with valid CRCs."""
        with zipfile.ZipFile(npz) as zf:
            members = [(info.filename, zf.read(info)) for info in zf.infolist()]
        with zipfile.ZipFile(npz, "w", compression=compression) as zf:
            for name, data in members:
                zf.writestr(name, edit(name, data))

    def test_compressed_member_refused(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "bc"])
        self._rewrite(npz, compression=zipfile.ZIP_DEFLATED)
        with pytest.raises(CorpusError, match="corpus.npz.*compressed.*re-run ingest"):
            Corpus.load(npz, jsonl)

    def test_member_whose_local_header_names_another_file_refused(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "bc"])
        data = npz.read_bytes()
        # the local header's name alone; the central directory still says user.npy
        at = data.index(b"user.npy")
        npz.write_bytes(data[:at] + b"usex.npy" + data[at + len(b"user.npy") :])
        with pytest.raises(CorpusError, match="corpus.npz.*user.npy.*usex.npy.*re-run ingest"):
            Corpus.load(npz, jsonl)

    def test_truncated_member_refused(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "bc"])
        data = bytearray(npz.read_bytes())
        # the central directory entry of the last member claims 4 KiB more
        # than the file holds after its local header
        entry = data.rindex(b"PK\x01\x02")
        sizes = struct.unpack_from("<II", data, entry + 20)
        struct.pack_into("<II", data, entry + 20, *(size + 4096 for size in sizes))
        npz.write_bytes(bytes(data))
        with pytest.raises(CorpusError, match="corpus.npz.*text_offsets.npy is truncated.*re-run ingest"):
            Corpus.load(npz, jsonl)

    def test_flipped_text_byte_refused(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "some text"])
        data = bytearray(npz.read_bytes())
        data[data.index(b"some text")] ^= 0x01
        npz.write_bytes(bytes(data))
        with pytest.raises(CorpusError, match="corpus.npz.*text_blob.npy.*CRC-32.*re-run ingest"):
            Corpus.load(npz, jsonl)

    def test_header_claiming_more_bytes_than_its_member_refused(self, tmp_path):
        _, npz, jsonl = self._saved(tmp_path, ["a", "bc"])

        def grow_user(name, data):
            # the same header length, one more row than the member holds
            return data.replace(b"'shape': (2,)", b"'shape': (3,)") if name == "user.npy" else data

        self._rewrite(npz, edit=grow_user)
        with pytest.raises(CorpusError, match="corpus.npz.*user.npy.*claims.*re-run ingest"):
            Corpus.load(npz, jsonl)


SMALL_CONFIG = {
    "bulk_window": ["2016-03-01", "2016-04-01"],
    "pre_window": ["2016-03-05", "2016-03-15"],
    "min_total_tweets": 1,
    "active_day_fraction": 0.1,
}


@pytest.fixture
def ingested(tmp_path):
    """An output directory after ``ingest`` of a small hand-made table."""
    records = [
        TweetRecord(str(i), f"u{i % 3}", BASE + timedelta(days=4 + i % 9), "en",
                    False, None, f"word{i} common")
        for i in range(30)
    ]
    src = tmp_path / "input.jsonl"
    write_records(corpus_of(records), src)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    argv = ["--config", str(config), "--out", str(out)]
    assert main(["ingest", "--input", str(src), "--format", "jsonl", *argv]) == 0
    return out, argv


def _counts_fails_naming(out, argv, filename):
    assert main(["counts", *argv]) == 1
    doc = json.loads((out / "manifest_counts.json").read_text())
    assert doc["status"] == "failed"
    assert doc["artifacts"] == []
    assert filename in doc["error"] and "re-run ingest" in doc["error"]
    assert not (out / "cohort_pre.json").exists()


class TestStagesRefuseABadSidecar:
    def test_intact_sidecar_is_used(self, ingested):
        out, argv = ingested
        assert main(["counts", *argv]) == 0
        assert json.loads((out / "cohort_pre.json").read_text()) == ["u0", "u1", "u2"]

    def test_edited_records_jsonl(self, ingested):
        out, argv = ingested
        lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
        (out / "records.jsonl").write_text("".join(lines[:-1]))
        _counts_fails_naming(out, argv, "records.jsonl")

    def test_missing_sidecar(self, ingested):
        out, argv = ingested
        (out / "corpus.npz").unlink()
        _counts_fails_naming(out, argv, "corpus.npz")

    def test_truncated_sidecar(self, ingested):
        out, argv = ingested
        data = (out / "corpus.npz").read_bytes()
        (out / "corpus.npz").write_bytes(data[: len(data) // 2])
        _counts_fails_naming(out, argv, "corpus.npz")

    def test_corrupted_sidecar(self, ingested):
        out, argv = ingested
        data = bytearray((out / "corpus.npz").read_bytes())
        # flip a byte inside the stored text blob; the zip CRC catches it
        at = data.index(b"word1 common") + 2
        data[at] ^= 0xFF
        (out / "corpus.npz").write_bytes(bytes(data))
        _counts_fails_naming(out, argv, "corpus.npz")
