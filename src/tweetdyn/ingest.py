"""Reading raw tweet tables into typed records, categories, and cohorts.

The expected source schema is the public takedown-release layout: one row per
tweet with columns ``tweetid, userid, tweet_time, tweet_language, is_retweet,
retweet_userid, tweet_text``. Column names are remappable via
:class:`ColumnMap` so other exports can be ingested without rewriting files.

Every tweet by a campaign account falls in exactly one category:

* ``ORIGINAL``    - not a retweet;
* ``SPREADING``   - retweet of another campaign account;
* ``AMPLIFYING``  - retweet of an account outside the campaign set.

The retweet flag is authoritative: quoted tweets count as whatever the flag
says, and the quoted text is not classified separately. Timestamps are
normalized to UTC; naive inputs are taken as already-UTC.
"""

from __future__ import annotations

import csv
import enum
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .corpus import Corpus, as_corpus
from .graphs import WeightedGraph
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

_TRUE_STRINGS = {"true", "t", "1", "yes"}
_FALSE_STRINGS = {"false", "f", "0", "no"}

_TIME_FORMATS = (
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d %H:%M:%S",
    "%m/%d/%Y %H:%M",
)


class TweetCategory(enum.Enum):
    ORIGINAL = "original"
    SPREADING = "spreading"
    AMPLIFYING = "amplifying"


@dataclass(frozen=True)
class TweetRecord:
    """One normalized tweet."""

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


@dataclass(frozen=True)
class CohortSpec:
    """Activity thresholds defining a user cohort within one window."""

    window: DayWindow
    min_total_tweets: int = 0
    active_day_fraction: float = 0.0
    language: str | None = None

    def __post_init__(self) -> None:
        if self.min_total_tweets < 0:
            raise ValueError("min_total_tweets must be >= 0")
        if not 0.0 <= self.active_day_fraction <= 1.0:
            raise ValueError("active_day_fraction must be in [0, 1]")


@dataclass
class ParseReport:
    """Row accounting for one parse pass."""

    total_rows: int = 0
    accepted: int = 0
    rejected: int = 0
    reasons: Counter[str] = field(default_factory=Counter)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.reasons[reason] += 1

    def as_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "reasons": dict(sorted(self.reasons.items())),
        }


class IngestError(ValueError):
    """Unrecoverable input problem (bad header, unreadable file)."""


def _parse_timestamp(raw: str) -> datetime:
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
    raise ValueError(f"unparseable timestamp {raw!r}")


def _parse_bool(raw: object) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE_STRINGS:
        return True
    if text in _FALSE_STRINGS:
        return False
    raise ValueError(f"unparseable boolean {raw!r}")


def _row_to_record(row: dict, columns: ColumnMap) -> TweetRecord:
    missing = [c for c in columns.required() if row.get(c) is None]
    if missing:
        raise ValueError(f"missing fields {missing}")
    is_retweet = _parse_bool(row[columns.is_retweet])
    raw_source = row.get(columns.retweeted_user_id)
    source = str(raw_source).strip() if raw_source not in (None, "") else None
    return TweetRecord(
        tweet_id=str(row[columns.tweet_id]).strip(),
        user_id=str(row[columns.user_id]).strip(),
        timestamp=_parse_timestamp(str(row[columns.timestamp])),
        language=str(row[columns.language]).strip(),
        is_retweet=is_retweet,
        retweeted_user_id=source,
        text=str(row[columns.text]),
    )


def _iter_rows(path: Path, fmt: str, columns: ColumnMap) -> Iterator[dict]:
    if fmt == "csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in columns.required() if c not in header]
            if missing:
                raise IngestError(f"{path}: missing required columns {missing}")
            yield from reader
    elif fmt == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    yield {"__bad_json__": f"line {line_no}: {exc.msg}"}
                    continue
                if not isinstance(row, dict):
                    yield {"__bad_json__": f"line {line_no}: not an object"}
                    continue
                yield row
    else:
        raise IngestError(f"unknown format {fmt!r} (use 'csv' or 'jsonl')")


def parse_records(
    path: str | Path,
    fmt: str = "csv",
    columns: ColumnMap | None = None,
) -> tuple[list[TweetRecord], ParseReport]:
    """Parse one file of tweets.

    Malformed rows (bad timestamp, bad boolean, missing field, retweet flag
    inconsistent with the source-user column) are skipped and tallied in the
    report; a missing CSV column or unreadable file raises :class:`IngestError`.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such input file: {path}")
    columns = columns or ColumnMap()
    report = ParseReport()
    records: list[TweetRecord] = []
    for row in _iter_rows(path, fmt, columns):
        report.total_rows += 1
        if "__bad_json__" in row:
            report.reject("bad_json")
            continue
        try:
            records.append(_row_to_record(row, columns))
        except ValueError as exc:
            report.reject(_reason_of(exc))
            continue
        report.accepted += 1
    if report.rejected:
        logger.warning(
            "%s: rejected %d of %d rows (%s)",
            path.name,
            report.rejected,
            report.total_rows,
            dict(report.reasons),
        )
    return records, report


def _reason_of(exc: ValueError) -> str:
    msg = str(exc)
    if "timestamp" in msg:
        return "bad_timestamp"
    if "boolean" in msg:
        return "bad_retweet_flag"
    if "missing fields" in msg:
        return "missing_field"
    if "retweet without source" in msg:
        return "retweet_without_source"
    if "source user on a non-retweet" in msg:
        return "source_on_non_retweet"
    return "invalid_row"


def write_records(
    records: Iterable[TweetRecord],
    path: str | Path,
    fmt: str = "jsonl",
    columns: ColumnMap | None = None,
) -> None:
    """Write records in the same schema :func:`parse_records` reads."""
    path = Path(path)
    columns = columns or ColumnMap()

    def row_of(rec: TweetRecord) -> dict:
        return {
            columns.tweet_id: rec.tweet_id,
            columns.user_id: rec.user_id,
            columns.timestamp: rec.timestamp.strftime("%Y-%m-%d %H:%M:%S"),
            columns.language: rec.language,
            columns.is_retweet: "true" if rec.is_retweet else "false",
            columns.retweeted_user_id: rec.retweeted_user_id or "",
            columns.text: rec.text,
        }

    if fmt == "csv":
        fieldnames = [
            columns.tweet_id,
            columns.user_id,
            columns.timestamp,
            columns.language,
            columns.is_retweet,
            columns.retweeted_user_id,
            columns.text,
        ]
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for rec in records:
                writer.writerow(row_of(rec))
    elif fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(row_of(rec), sort_keys=True) + "\n")
    else:
        raise IngestError(f"unknown format {fmt!r} (use 'csv' or 'jsonl')")


def categorize(record: TweetRecord, campaign_users: set[str]) -> TweetCategory:
    """Category of one tweet relative to the campaign account set."""
    if not campaign_users:
        raise ValueError("campaign_users must be nonempty")
    if not record.is_retweet:
        return TweetCategory.ORIGINAL
    if record.retweeted_user_id in campaign_users:
        return TweetCategory.SPREADING
    return TweetCategory.AMPLIFYING


def select_cohort(records: Iterable[TweetRecord] | Corpus, spec: CohortSpec) -> set[str]:
    """Users meeting the volume and regularity thresholds inside the window.

    A user qualifies when, counting only their tweets inside the window (and
    matching the language filter, if any): total tweets >= ``min_total_tweets``
    and (days with >= 1 tweet) / window length >= ``active_day_fraction``.
    An empty result is valid and logged.
    """
    corpus = as_corpus(records)
    t, inside = corpus.window_offsets(spec.window)
    keep = inside & corpus.language_mask(spec.language)
    user, t = corpus.user[keep], t[keep]
    n_accounts, n_days = len(corpus.account_ids), spec.window.n_days
    totals = np.bincount(user, minlength=n_accounts)
    active_days = np.bincount(np.unique(user * n_days + t) // n_days, minlength=n_accounts)
    qualifies = (
        (totals > 0)
        & (totals >= spec.min_total_tweets)
        & (active_days / n_days >= spec.active_day_fraction)
    )
    cohort = {corpus.account_ids[u] for u in np.flatnonzero(qualifies).tolist()}
    if not cohort:
        logger.warning("select_cohort: no users meet %s", spec)
    return cohort


def retweet_network(
    records: Iterable[TweetRecord] | Corpus, campaign_users: set[str]
) -> WeightedGraph:
    """Member-to-member retweet graph.

    Vertices are campaign users that appear in the records (as author or as
    retweeted source of a member retweet); an edge weight counts the retweet
    events between the two accounts, direction ignored. Self-retweets and
    retweets of outside accounts contribute no edges.
    """
    if not campaign_users:
        raise ValueError("campaign_users must be nonempty")
    corpus = as_corpus(records)
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
    edges = {
        (ids[p // len(ids)], ids[p % len(ids)]): float(w)
        for p, w in zip(pairs.tolist(), weights.tolist())
    }
    seen = np.unique(np.concatenate([corpus.user[by_member], src]))
    return WeightedGraph.from_edges(edges, extra_vertices=[ids[c] for c in seen.tolist()])
