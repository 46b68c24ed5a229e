"""Reading raw tweet tables into a columnar corpus; cohorts and retweet networks.

The expected source schema is the public takedown-release layout: one row per
tweet with columns ``tweetid, userid, tweet_time, tweet_language, is_retweet,
retweet_userid, tweet_text``. Column names are remappable via
:class:`ColumnMap` so other exports can be ingested without rewriting files.
:func:`read_tables` parses every table of one ``ingest`` into one
:class:`Corpus`, in ``ingest``'s (timestamp, tweet id) row order, and
:func:`write_records` writes it as the normalized ``records.jsonl``. The
parse (:func:`parse_records`, one table) keeps one account and one language
id table across all tables, holds only int columns in memory and writes the
bytes of the tweet ids and texts to two unnamed files under the output
directory as each block of rows is checked; the corpus reads them from
there with ``os.pread``.

Every tweet by a campaign account falls in exactly one category
(:meth:`Corpus.categories`):

* ``ORIGINAL``    - not a retweet;
* ``SPREADING``   - retweet of another campaign account;
* ``AMPLIFYING``  - retweet of an account outside the campaign set.

The retweet flag is authoritative: quoted tweets count as whatever the flag
says, and the quoted text is not classified separately. Timestamps are
normalized to UTC; naive inputs are taken as already-UTC, and a time whose
UTC value falls outside years 1-9999 makes its row a bad timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter, le
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, CorpusRows, replacing
from .graphs import WeightedGraph
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

_BOOLS = {
    **dict.fromkeys(("true", "t", "1", "yes"), True),
    **dict.fromkeys(("false", "f", "0", "no"), False),
}

_TIME_FORMATS = (
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d %H:%M:%S",
    "%m/%d/%Y %H:%M",
)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_EPOCH = _NAIVE_EPOCH.replace(tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MIN_US = (datetime.min - _NAIVE_EPOCH) // _ONE_US
_MAX_US = (datetime.max - _NAIVE_EPOCH) // _ONE_US
_2D = [f"{i:02d}" for i in range(60)]
_WRITE_BLOCK = 1024  # lines
_PARSE_BLOCK = 2048  # rows checked at once
_NO_FIELDS = (None,) * 7  # the fields of a row the reader rejected
_scan_json = json.JSONDecoder().scan_once
# YYYY-MM-DD HH:MM:SS: the places of the digits, and of "-", " " and ":"
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_MARKS = [4, 7, 10, 13, 16]
_STAMP_MARK_CODES = np.array([ord(c) for c in "-- ::"], dtype=np.uint32)


@dataclass(frozen=True)
class ColumnMap:
    """Source column names for each logical field."""

    tweet_id: str = "tweetid"
    user_id: str = "userid"
    timestamp: str = "tweet_time"
    language: str = "tweet_language"
    is_retweet: str = "is_retweet"
    retweeted_user_id: str = "retweet_userid"
    text: str = "tweet_text"

    def __post_init__(self) -> None:
        for name, column in vars(self).items():
            if not isinstance(column, str) or not column:
                raise TypeError(f"column_map {name}: {column!r} is not a column name")

    def required(self) -> tuple[str, ...]:
        """Columns that must exist; the retweet-source column may be absent
        (rows flagged as retweets are then malformed)."""
        return (
            self.tweet_id,
            self.user_id,
            self.timestamp,
            self.language,
            self.is_retweet,
            self.text,
        )


@dataclass
class ParseReport:
    """Row accounting for one parse pass."""

    total_rows: int = field(default=0, init=False)
    accepted: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    reasons: dict[str, int] = field(default_factory=dict, init=False)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class IngestError(ValueError):
    """Unrecoverable input problem (bad header, unreadable file)."""


def _parse_timestamp(raw: str) -> datetime | None:
    raw = raw.strip()
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        pass
    for fmt in _TIME_FORMATS:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            continue
    return None


def _parse_bool(raw: object) -> bool | None:
    if isinstance(raw, bool):
        return raw
    return _BOOLS.get(str(raw).strip().lower())


def _escaped(text: str) -> bool:
    """Whether ``text`` holds a byte that the ``surrogateescape`` handler
    escaped; text decoded from UTF-8 holds no other lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _csv_rows(fh, path: Path, fields: tuple[str, ...], check: bool) -> Iterator[tuple | str]:
    reader = csv.reader(fh)
    header = next(reader, [])
    missing = [c for c in fields[:-1] if c not in header]
    if missing:
        raise IngestError(f"{path}: missing required columns {missing}")
    width = len(header)
    # A repeated column name reads its last cell, and a cell a short row
    # lacks reads None; slot ``width`` is None for an absent source column.
    last = {name: i for i, name in enumerate(header)}
    pick = itemgetter(*(last.get(name, width) for name in fields))
    for row in reader:
        if not row:  # a blank line
            continue
        if check and _escaped("".join(row)):
            yield "bad_encoding"
            continue
        if len(row) != width:
            row = row[:width] + [None] * (width - len(row))
        row.append(None)
        yield pick(row)


def _jsonl_rows(fh, path: Path, fields: tuple[str, ...], check: bool) -> Iterator[tuple | str]:
    """Each line's fields, or the reason a line is no JSON object."""
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if check and _escaped(line):
            yield "bad_encoding"
            continue
        try:
            # json.loads without its wrappers: a stripped line is one JSON
            # value exactly when the value ends the line
            row, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            # no value, a JSONDecodeError, an integer literal over Python's
            # digit limit, or nesting deeper than the interpreter's stack
            row = end = None
        if end == len(line) and isinstance(row, dict):
            yield tuple(map(row.get, fields))
        else:
            yield "bad_json"


def read_tables(
    paths: Sequence[str], fmt: str, columns: ColumnMap, spill_dir: str | Path
) -> tuple[Corpus, dict[str, ParseReport]]:
    """Parse each table (:func:`parse_records`) into one corpus, rows in
    (timestamp, tweet id) order, and the report on each table by its path.

    The bytes of the tweet ids and texts go to two unnamed files in
    ``spill_dir`` as each block is checked (:class:`CorpusRows`), and only
    the int columns stay in memory; the corpus's string columns read their
    bytes from those files with ``os.pread``, and hold them open as long as
    the corpus lives. Rows already in order are not copied. Otherwise they
    are gathered once, a block at a time, into two more unnamed files in
    ``spill_dir`` (:meth:`Corpus.select`); the sort is stable, so rows equal
    in both keys keep their input order, the tables' in the order given.
    """
    store = CorpusRows(spill_dir)
    reports = {path: parse_records(path, fmt, columns, store)[1] for path in paths}
    corpus = store.build()
    if not _in_order(corpus):
        corpus = corpus.select(_ingest_order(corpus), spill_dir)
    return corpus, reports


def parse_records(
    path: str | Path, fmt: str, columns: ColumnMap, into: CorpusRows
) -> tuple[range, ParseReport]:
    """Parse one file of tweets into the rows of ``into``, in file order with
    full-microsecond UTC timestamps; return the rows it added and the report.

    Malformed rows (a byte that is not UTF-8, a JSONL line that is no JSON
    object, missing field, bad boolean, bad timestamp, retweet flag
    inconsistent with the source-user column) are skipped and tallied in the
    report under the first check they fail, in that order; a missing CSV
    column, an unreadable file or a byte that is not UTF-8 in a stream that
    cannot be rewound (a pipe) raises :class:`IngestError`.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such input file: {path}")
    if fmt not in _READERS:
        raise IngestError(f"unknown format {fmt!r} (use 'csv' or 'jsonl')")
    fields = (*columns.required(), columns.retweeted_user_id)
    read = _READERS[fmt]
    first, start = len(into), into.mark()
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            report = _parse_rows(read(fh, path, fields, False), path, into)
        except UnicodeDecodeError as exc:
            # Parse the file again from the start, with each byte that is
            # not UTF-8 escaped and the rows that hold one rejected; first
            # drop the rows, ids and bytes the first pass added. Clean input
            # pays nothing for this; a pipe cannot be read again.
            if not fh.seekable():
                raise IngestError(f"{path}: {exc}; the stream cannot be read again") from None
            into.roll_back(start)
            fh.seek(0)
            fh.reconfigure(errors="surrogateescape")
            report = _parse_rows(read(fh, path, fields, True), path, into)
    return range(first, len(into)), report


def _parse_rows(rows: Iterable[tuple | str], path: Path, into: CorpusRows) -> ParseReport:
    """Add a reader's accepted rows to ``into``, checked a block of rows at a
    time, and report on them all; only one block's rows are Python objects
    at once."""
    report = ParseReport()
    start = len(into)
    rows = iter(rows)
    while block := list(islice(rows, _PARSE_BLOCK)):
        _check_block(block, report, into)
    report.accepted = len(into) - start
    if report.rejected:
        logger.warning(
            "%s: rejected %d of %d rows (%s)",
            path.name,
            report.rejected,
            report.total_rows,
            report.reasons,
        )
    return report


def _check_block(block: list[tuple | str], report: ParseReport, into: CorpusRows) -> None:
    """Check a block of reader rows one column at a time, tally each rejected
    row under the first check it fails, and add the accepted rows to ``into``.

    Each check looks at the rows the earlier checks passed, and only values
    that fail a fast check go through the per-value helpers, so every row
    gets the reason and the values that checking it on its own gives.
    """
    n = len(block)
    report.total_rows += n
    reasons = {"": 0}  # reason -> its code; 0 while a row passes
    code = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(block):
        if row.__class__ is str:  # the reason the reader rejected the row
            code[i] = reasons.setdefault(row, len(reasons))
            block[i] = _NO_FIELDS
    tid, uid, stamp, lang, flag, body, src = zip(*block)

    def fail(reason: str, bad: np.ndarray) -> None:
        bad &= code == 0
        if bad.any():
            code[bad] = reasons.setdefault(reason, len(reasons))

    missing = np.zeros(n, dtype=bool)
    for column in (tid, uid, stamp, lang, flag, body):
        if None in column:
            missing |= _is(column, None)
    fail("missing_field", missing)

    is_retweet = [_BOOLS.get(v) if v.__class__ is str else None for v in flag]
    for i in np.flatnonzero(_is(is_retweet, None) & (code == 0)).tolist():
        is_retweet[i] = _parse_bool(flag[i])
    fail("bad_retweet_flag", _is(is_retweet, None))

    us, parsed = _iso_seconds_us(stamp)
    for i in np.flatnonzero((code == 0) & ~parsed).tolist():
        value = _timestamp_us(stamp[i])
        if value is not None:
            us[i], parsed[i] = value, True
    fail("bad_timestamp", ~parsed)

    # A retweet must name its source and an original must not.
    src = [None if v is None or v == "" else str(v).strip() for v in src]
    has_source = np.fromiter(map(bool, src), bool, n)
    retweet = _is(is_retweet, True)
    fail("retweet_without_source", retweet & ~has_source)
    fail("source_on_non_retweet", ~retweet & has_source)

    if len(reasons) > 1:
        names = list(reasons)
        for c in code[code > 0].tolist():
            report.reject(names[c])
        keep = code == 0
        us = us[keep]
        keep = keep.tolist()
        tid, uid, lang, body, src, is_retweet = (
            list(compress(column, keep)) for column in (tid, uid, lang, body, src, is_retweet)
        )
    into.add_rows(
        tweet_id=list(map(str.strip, map(str, tid))),
        user=list(map(str.strip, map(str, uid))),
        source=[s if r else None for s, r in zip(src, is_retweet)],
        timestamp_us=us,
        language=list(map(str.strip, map(str, lang))),
        text=list(map(str, body)),
    )


def _is(column: Sequence[object], value: object) -> np.ndarray:
    """Mask of the entries that are ``value``."""
    return np.fromiter(map(is_, column, repeat(value)), bool, len(column))


def _timestamp_us(raw: object) -> int | None:
    """Microseconds since the epoch of a raw timestamp cell (naive times are
    UTC), or None if it does not parse or has no UTC datetime."""
    stamp = _parse_timestamp(str(raw))
    if stamp is None:
        return None
    if stamp.tzinfo is None:
        return (stamp - _NAIVE_EPOCH) // _ONE_US
    us = (stamp - _EPOCH) // _ONE_US
    return us if _MIN_US <= us <= _MAX_US else None


def _iso_seconds_us(stamps: Sequence[object]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of each ``YYYY-MM-DD HH:MM:SS`` string
    that names a valid day and time, and the mask of those strings.

    ``datetime.fromisoformat`` reads each of them as that naive time; the
    other cells are left to :func:`_timestamp_us`.
    """
    n = len(stamps)
    text = np.array([s if s.__class__ is str else "" for s in stamps], dtype="U20")
    chars = text.view(np.uint32).reshape(n, 20)
    digits = chars[:, _STAMP_DIGITS] - np.uint32(ord("0"))  # wraps below "0"
    ok = (
        np.all(digits <= 9, axis=1)
        & np.all(chars[:, _STAMP_MARKS] == _STAMP_MARK_CODES, axis=1)
        & (chars[:, 19] == 0)
    )
    digits = np.where(ok[:, None], digits, 0).astype(np.int64)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    # days from 1970-01-01 to the first of the month and of the next month
    months = (year - 1970) * 12 + month - 1
    first, following = (
        (months + k).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        for k in (0, 1)
    )
    ok &= (
        (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= following - first)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    seconds = (first + day - 1) * 86_400 + hour * 3600 + minute * 60 + second
    return np.where(ok, seconds * 1_000_000, 0), ok


_READERS = {"csv": _csv_rows, "jsonl": _jsonl_rows}


def _in_order(corpus: Corpus) -> bool:
    """Whether the rows are in (timestamp, tweet id) order; tweet ids are
    read only where timestamps tie, a block of rows at a time."""
    step = np.diff(corpus.timestamp_us)
    if (step < 0).any():
        return False
    tied = np.flatnonzero(step == 0)
    for lo in range(0, len(tied), _PARSE_BLOCK):
        rows = tied[lo : lo + _PARSE_BLOCK]
        if not all(map(le, corpus.tweet_id.take(rows), corpus.tweet_id.take(rows + 1))):
            return False
    return True


def _ingest_order(corpus: Corpus) -> np.ndarray:
    """The stable (timestamp, tweet id) order of the rows; tweet ids are
    read only for rows whose timestamp another row shares."""
    order = np.argsort(corpus.timestamp_us, kind="stable")
    stamps = corpus.timestamp_us[order]
    tie = stamps[1:] == stamps[:-1]
    tied = np.flatnonzero(np.append(tie, False) | np.insert(tie, 0, False))
    rows = order[tied]
    # Tie groups are runs of ``tied``, in timestamp order, so sorting their
    # rows by (timestamp, id) moves rows only within their group.
    keys = list(zip(stamps[tied].tolist(), corpus.tweet_id.take(rows)))
    order[tied] = rows[sorted(range(len(keys)), key=keys.__getitem__)]
    return order


def write_records(corpus: Corpus, path: str | Path) -> str:
    """Write the normalized ``records.jsonl`` that ``parse_records`` reads,
    and return the sha256 of its bytes.

    Each row is the line ``json.dumps(row, sort_keys=True)`` would give, with
    the time in whole UTC seconds as ``strftime("%Y-%m-%d %H:%M:%S")`` writes it;
    every line is ASCII. The file is replaced atomically (``corpus.replacing``),
    so a write that fails leaves the old ``records.jsonl`` as it was, even
    when it is the file ``ingest`` read.
    """
    quote = encode_basestring_ascii
    # Source code -> the line's opening; -1 (no retweet) is the last entry.
    head = [
        f'{{"is_retweet": "true", "retweet_userid": {quote(a)}, "tweet_language": '
        for a in corpus.account_ids
    ] + ['{"is_retweet": "false", "retweet_userid": "", "tweet_language": ']
    language = [quote(x) for x in corpus.language_ids]
    tail = [f', "userid": {quote(a)}}}\n' for a in corpus.account_ids]
    days = np.unique(corpus.day)
    date_text = [date.fromordinal(d).strftime("%Y-%m-%d") for d in days.tolist()]
    # A block at a time: faster than a write per line, and neither the file's
    # text nor every row's strings are in memory at once.
    digest = hashlib.sha256()
    with replacing(path) as fh:
        for lo in range(0, len(corpus), _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, len(corpus))
            clock = corpus.timestamp_us[lo:hi] // 1_000_000 % 86_400
            block = "".join(
                f'{head[s]}{language[x]}, "tweet_text": {quote(text)}, "tweet_time": '
                f'"{date_text[d]} {_2D[h]}:{_2D[m]}:{_2D[c]}", "tweetid": {quote(tid)}'
                f"{tail[u]}"
                for s, x, text, d, h, m, c, tid, u in zip(
                    corpus.source[lo:hi].tolist(),
                    corpus.language[lo:hi].tolist(),
                    corpus.text.strings(lo, hi),
                    np.searchsorted(days, corpus.day[lo:hi]).tolist(),
                    (clock // 3600).tolist(),
                    (clock // 60 % 60).tolist(),
                    (clock % 60).tolist(),
                    corpus.tweet_id.strings(lo, hi),
                    corpus.user[lo:hi].tolist(),
                )
            ).encode("ascii")
            digest.update(block)
            fh.write(block)
    return digest.hexdigest()


def select_cohort(
    corpus: Corpus,
    bulk_window: DayWindow,
    window: DayWindow,
    language: str | None,
    min_total_tweets: int,
    active_day_fraction: float,
) -> tuple[str, ...]:
    """The cohort of ``window``, in id order: the users that meet the volume
    threshold over ``bulk_window`` and the regularity threshold over
    ``window``.

    Counting only tweets in ``language`` (every language when it is None), a
    user qualifies with at least max(1, ``min_total_tweets``) tweets inside
    ``bulk_window``, and tweets on at least one day of ``window`` and on a
    share of its days of at least ``active_day_fraction``. An empty result is
    valid and logged.
    """
    if min_total_tweets < 0:
        raise ValueError("min_total_tweets must be >= 0")
    if not 0.0 <= active_day_fraction <= 1.0:
        raise ValueError("active_day_fraction must be in [0, 1]")
    n_accounts, n_days = len(corpus.account_ids), window.n_days
    in_language = corpus.language_mask(language)
    _, inside = corpus.window_offsets(bulk_window)
    volume = np.bincount(corpus.user[inside & in_language], minlength=n_accounts)
    t, inside = corpus.window_offsets(window)
    keep = inside & in_language
    days = np.unique(corpus.user[keep] * n_days + t[keep])
    active_days = np.bincount(days // n_days, minlength=n_accounts)
    qualifies = (
        (volume > 0)
        & (volume >= min_total_tweets)
        & (active_days > 0)
        & (active_days / n_days >= active_day_fraction)
    )
    cohort = tuple(corpus.account_ids[u] for u in np.flatnonzero(qualifies).tolist())
    if not cohort:
        logger.warning(
            "select_cohort: no users meet language=%r, min_total_tweets=%d in %s "
            "and active_day_fraction=%s in %s",
            language, min_total_tweets, bulk_window, active_day_fraction, window,
        )
    return cohort


def retweet_network(corpus: Corpus, campaign_users: set[str]) -> WeightedGraph:
    """Member-to-member retweet graph.

    Vertices are campaign users that appear in the corpus (as author or as
    retweeted source of a member retweet); an edge weight counts the retweet
    events between the two accounts, direction ignored. Self-retweets and
    retweets of outside accounts contribute no edges.
    """
    if not campaign_users:
        raise ValueError("campaign_users must be nonempty")
    ids = corpus.account_ids
    # One extra False slot so that source -1 (no retweet) indexes it.
    member = np.append(corpus.members(campaign_users), False)
    by_member = member[corpus.user]
    edge = by_member & member[corpus.source] & (corpus.source != corpus.user)
    user, src = corpus.user[edge], corpus.source[edge]
    # Codes follow the sorted id table, so (min, max) is the sorted id pair.
    pairs, weights = np.unique(
        np.minimum(user, src) * len(ids) + np.maximum(user, src), return_counts=True
    )
    seen = np.unique(np.concatenate([corpus.user[by_member], src]))
    return WeightedGraph(
        vertices=tuple(ids[c] for c in seen.tolist()),
        u=np.searchsorted(seen, pairs // len(ids)),
        v=np.searchsorted(seen, pairs % len(ids)),
        w=weights,
    )
