"""Test helpers: tweet tables on disk and corpora as plain Python values."""

import csv
from datetime import datetime, timedelta, timezone

from tweetdyn.ingest import ColumnMap

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def utc(timestamp_us):
    """The UTC datetime of microseconds since 1970."""
    return EPOCH + timedelta(microseconds=timestamp_us)


def fields_of(corpus):
    """The corpus's rows as one list per :class:`TweetRecord` field."""
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
