"""Per-record reference implementations of the columnar corpus kernels.

These are the loops the package ran before it stored tweets as NumPy columns
(:mod:`tweetdyn.corpus`). They walk a list of :class:`TweetRecord` once per
call and classify each tweet on its own, so they are slow but easy to check
by eye. ``test_corpus.py`` requires each kernel to agree with them exactly.
"""

from collections import Counter

import numpy as np

from tweetdyn.graphs import WeightedGraph
from tweetdyn.ingest import TweetCategory, categorize
from tweetdyn.strategy import (
    ALPHABET,
    DEFAULT_PARTITION,
    SymbolDistribution,
    strategy_vector,
)
from tweetdyn.timeseries import CountSeries
from tweetdyn.topic import Document, tokenize

_CATEGORY_INDEX = {
    TweetCategory.ORIGINAL: 0,
    TweetCategory.SPREADING: 1,
    TweetCategory.AMPLIFYING: 2,
}
_CORNER = {0: "A", 1: "B", 2: "C"}
_EDGE = {0: "D", 1: "F", 2: "E"}


def select_cohort(records, spec):
    totals = Counter()
    active_days = {}
    for rec in records:
        if spec.language is not None and rec.language != spec.language:
            continue
        t = spec.window.offset_of(rec.timestamp)
        if t is None:
            continue
        totals[rec.user_id] += 1
        active_days.setdefault(rec.user_id, set()).add(t)
    n_days = spec.window.n_days
    return {
        u
        for u, total in totals.items()
        if total >= spec.min_total_tweets
        and len(active_days[u]) / n_days >= spec.active_day_fraction
    }


def retweet_network(records, campaign_users):
    weights = Counter()
    seen = set()
    for rec in records:
        if rec.user_id in campaign_users:
            seen.add(rec.user_id)
        if not rec.is_retweet:
            continue
        src = rec.retweeted_user_id
        if rec.user_id in campaign_users and src in campaign_users and src != rec.user_id:
            seen.add(src)
            key = (rec.user_id, src) if rec.user_id < src else (src, rec.user_id)
            weights[key] += 1
    return WeightedGraph.from_edges(
        {k: float(v) for k, v in weights.items()}, extra_vertices=seen
    )


def daily_counts(records, window, user_id=None):
    values = np.zeros(window.n_days, dtype=np.int64)
    for rec in records:
        if user_id is not None and rec.user_id != user_id:
            continue
        t = window.offset_of(rec.timestamp)
        if t is not None:
            values[t] += 1
    return CountSeries(window=window, values=values, user_id=user_id)


def counts_by_user(records, window, users):
    table = {u: np.zeros(window.n_days, dtype=np.int64) for u in set(users)}
    for rec in records:
        if rec.user_id not in table:
            continue
        t = window.offset_of(rec.timestamp)
        if t is not None:
            table[rec.user_id][t] += 1
    return {
        u: CountSeries(window=window, values=v, user_id=u)
        for u, v in sorted(table.items())
    }


def symbolize(point, partition=DEFAULT_PARTITION):
    arr = np.asarray(point.p, dtype=np.float64)
    hi = int(np.argmax(arr))
    if arr[hi] >= partition.corner_threshold:
        return _CORNER[hi]
    lo = int(np.argmin(arr))
    if arr[lo] <= partition.edge_threshold:
        return _EDGE[lo]
    return "G"


def daily_category_counts(records, campaign_users, user_id, window):
    out = np.zeros((window.n_days, 3), dtype=np.int64)
    for rec in records:
        if rec.user_id != user_id:
            continue
        t = window.offset_of(rec.timestamp)
        if t is None:
            continue
        out[t, _CATEGORY_INDEX[categorize(rec, campaign_users)]] += 1
    return out


def symbol_sequence(records, campaign_users, user_id, window, partition=DEFAULT_PARTITION):
    table = daily_category_counts(records, campaign_users, user_id, window)
    seq = []
    for t in range(window.n_days):
        if table[t].sum() == 0:
            continue
        seq.append((t, symbolize(strategy_vector(table[t], t=t), partition)))
    return seq


def symbol_distribution(records, campaign_users, users, window, partition=DEFAULT_PARTITION):
    counts = {s: 0 for s in ALPHABET}
    any_days = False
    for user_id in sorted(set(users)):
        for _, sym in symbol_sequence(records, campaign_users, user_id, window, partition):
            counts[sym] += 1
            any_days = True
    if not any_days:
        raise ValueError("no active user-days in window; distribution undefined")
    return SymbolDistribution(counts=counts)


def build_documents(records, users, window):
    users = set(users)
    per_user = {u: [] for u in users}
    for rec in records:
        if rec.user_id in users and window.contains(rec.timestamp):
            per_user[rec.user_id].append((rec.timestamp, rec.tweet_id, rec.text))
    docs = []
    for user_id in sorted(users):
        pieces = sorted(per_user[user_id])
        text = " ".join(p[2] for p in pieces)
        tokens = tokenize(text)
        if tokens:
            docs.append(Document(user_id=user_id, text=text, tokens=tuple(tokens)))
    return docs
