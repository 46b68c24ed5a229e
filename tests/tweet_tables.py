"""Test helpers: tweet tables on disk, and corpora and term counts built
from or turned into plain Python values."""

import csv
import hashlib
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from tweetdyn.corpus import CorpusRows
from tweetdyn.ingest import ColumnMap, parse_records
from tweetdyn.topic import TermCounts

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
ONE_US = timedelta(microseconds=1)


@dataclass(frozen=True)
class TweetRecord:
    """One tweet as plain values, for writing fixtures by hand."""

    tweet_id: str
    user_id: str
    timestamp: datetime
    language: str
    is_retweet: bool
    retweeted_user_id: str | None
    text: str

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            object.__setattr__(
                self, "timestamp", self.timestamp.replace(tzinfo=timezone.utc)
            )
        else:
            object.__setattr__(
                self, "timestamp", self.timestamp.astimezone(timezone.utc)
            )
        # A retweet must name its source and an original must not.
        if self.is_retweet and not self.retweeted_user_id:
            raise ValueError(f"tweet {self.tweet_id}: retweet without source user")
        if not self.is_retweet and self.retweeted_user_id:
            raise ValueError(f"tweet {self.tweet_id}: source user on a non-retweet")


def corpus_of(records):
    """A :class:`Corpus` of the records' rows, in order."""
    records = list(records)
    rows = CorpusRows(None)
    rows.add_rows(
        tweet_id=[r.tweet_id for r in records],
        user=[r.user_id for r in records],
        source=[r.retweeted_user_id if r.is_retweet else None for r in records],
        timestamp_us=[(r.timestamp - EPOCH) // ONE_US for r in records],
        language=[r.language for r in records],
        text=[r.text for r in records],
    )
    return rows.build()


def file_sha256(path):
    """The sha256 of a file's bytes, as ``Corpus.load`` checks it."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_table(path, fmt, columns):
    """One table parsed on its own, rows in file order, and its report."""
    store = CorpusRows(None)
    _, report = parse_records(path, fmt, columns, store)
    return store.build(), report


def utc(timestamp_us):
    """The UTC datetime of microseconds since 1970."""
    return EPOCH + timedelta(microseconds=timestamp_us)


def fields_of(corpus):
    """The corpus's rows as one list per column, named and typed as the
    fields of :class:`TweetRecord`."""
    ids = corpus.account_ids
    source = corpus.source.tolist()
    return {
        "tweet_id": corpus.tweet_id.tolist(),
        "user_id": [ids[u] for u in corpus.user.tolist()],
        "timestamp": [utc(us) for us in corpus.timestamp_us.tolist()],
        "language": [corpus.language_ids[x] for x in corpus.language.tolist()],
        "is_retweet": [s >= 0 for s in source],
        "retweeted_user_id": [ids[s] if s >= 0 else None for s in source],
        "text": corpus.text.tolist(),
    }


def arrays_of(corpus):
    """The corpus's tables and columns, for an exact comparison."""
    return {
        "account_ids": corpus.account_ids,
        "language_ids": corpus.language_ids,
        **{
            name: getattr(corpus, name).tolist()
            for name in ("user", "source", "timestamp_us", "language", "day", "tweet_id", "text")
        },
    }


def write_csv(corpus, path, columns=ColumnMap()):
    """Write the corpus as a takedown-layout CSV table with ``columns``' names,
    times in whole seconds."""
    f = fields_of(corpus)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                columns.tweet_id,
                columns.user_id,
                columns.timestamp,
                columns.language,
                columns.is_retweet,
                columns.retweeted_user_id,
                columns.text,
            ]
        )
        for row in zip(
            f["tweet_id"],
            f["user_id"],
            [t.strftime("%Y-%m-%d %H:%M:%S") for t in f["timestamp"]],
            f["language"],
            ["true" if r else "false" for r in f["is_retweet"]],
            [s or "" for s in f["retweeted_user_id"]],
            f["text"],
        ):
            writer.writerow(row)


def term_counts_of(counters):
    """A :class:`TermCounts` of ``{user: Counter({term: count})}``."""
    users = sorted(counters)
    terms = sorted({t for c in counters.values() for t in c})
    index = {t: i for i, t in enumerate(terms)}
    pairs = sorted(
        (i, index[t], c) for i, u in enumerate(users) for t, c in counters[u].items() if c > 0
    )
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 3)
    return TermCounts(
        users=tuple(users), terms=tuple(terms), user=arr[:, 0], term=arr[:, 1], count=arr[:, 2]
    )


def counters_of(counts):
    """``{user: Counter({term: count})}`` of a :class:`TermCounts`."""
    out = {u: Counter() for u in counts.users}
    for u, t, c in zip(counts.user.tolist(), counts.term.tolist(), counts.count.tolist()):
        out[counts.users[u]][counts.terms[t]] = c
    return out
