"""Reference implementations of the package's fast kernels.

Most are the loops the package ran before it stored tweets as NumPy columns
(:mod:`tweetdyn.corpus`). They walk a list of
:class:`~tweet_tables.TweetRecord` once per call and classify and symbolize
each tweet and day on its own, with no scalar code from the package, so they
are slow but easy to check by eye. ``test_corpus.py`` requires each kernel to agree with them exactly,
and ``test_ingest.py`` requires the columnar ``ingest`` to agree with the row
loop. The pairwise section holds the quadratic kernels that greedy
modularity, k-medoids and the similarity graph replaced; ``test_graphs.py``,
``test_spectral.py`` and ``test_topic.py`` require the same partitions,
medoids, costs and edges, float for float. The last section is the text
pipeline as it ran before :func:`tweetdyn.topic.count_terms`: one joined
document and one ``Counter`` per user and a Porter stemmer that walks the
word once per condition. ``test_porter.py`` and ``test_topic.py`` require the
same stems and the same topic artifacts. The spectral section is the chain
the ``spectra`` stages ran before the spectra became one (users x bins)
table: detrend, DFT, denoise and summaries one user's series at a time;
``test_spectral.py`` requires the same bytes from the table chain. The
ingest row loop is the parse that checked and converted one row at a time
before ``ingest`` checked whole columns, the CSV writer the one that
formatted one cell at a time, and the JSON walker the one whose plain view
``json.dumps`` encoded in a second walk; ``test_ingest.py`` and
``test_cli.py`` require the same corpus, report and bytes.
"""

import csv
import dataclasses
import enum
import io
import json
import math
import re
import zipfile
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from tweet_tables import TweetRecord
from tweetdyn.graphs import WeightedGraph
from tweetdyn.graphs import modularity_communities as fast_modularity_communities
from tweetdyn.ingest import IngestError, ParseReport
from tweetdyn.spectral import (
    BandSummary,
    ClusterAssignment,
    FourierTerm,
    _assign,
    _total_cost,
)
from tweetdyn.stopwords import ENGLISH_STOPWORDS
from tweetdyn.strategy import ALPHABET, CORNER_THRESHOLD, EDGE_THRESHOLD, SymbolDistribution
from tweetdyn.timeseries import CountSeries, DayWindow
from tweetdyn.topic import TermUserMatrix, gamma_fit
from tweetdyn.topic import similarity_graph as fast_similarity_graph


def offset_of(window, when):
    """Day offset of a timestamp or date in ``window``, or None if outside.

    Naive datetimes are taken as UTC; aware ones are converted.
    """
    if isinstance(when, datetime):
        if when.tzinfo is not None:
            when = when.astimezone(timezone.utc)
        when = when.date()
    t = (when - window.start).days
    return t if 0 <= t < window.n_days else None


class TweetCategory(enum.Enum):
    ORIGINAL = "original"
    SPREADING = "spreading"
    AMPLIFYING = "amplifying"


def categorize(record, campaign_users):
    """Category of one tweet relative to the campaign account set."""
    if not campaign_users:
        raise ValueError("campaign_users must be nonempty")
    if not record.is_retweet:
        return TweetCategory.ORIGINAL
    if record.retweeted_user_id in campaign_users:
        return TweetCategory.SPREADING
    return TweetCategory.AMPLIFYING


_CATEGORY_INDEX = {
    TweetCategory.ORIGINAL: 0,
    TweetCategory.SPREADING: 1,
    TweetCategory.AMPLIFYING: 2,
}
_CORNER = {0: "A", 1: "B", 2: "C"}
_EDGE = {0: "D", 1: "F", 2: "E"}


def select_cohort(records, window, language, min_total_tweets, active_day_fraction):
    totals = Counter()
    active_days = {}
    for rec in records:
        if language is not None and rec.language != language:
            continue
        t = offset_of(window, rec.timestamp)
        if t is None:
            continue
        totals[rec.user_id] += 1
        active_days.setdefault(rec.user_id, set()).add(t)
    n_days = window.n_days
    return {
        u
        for u, total in totals.items()
        if total >= min_total_tweets
        and len(active_days[u]) / n_days >= active_day_fraction
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
    return graph_from_edges({k: float(v) for k, v in weights.items()}, extra_vertices=seen)


def daily_counts(records, window):
    values = np.zeros(window.n_days, dtype=np.int64)
    for rec in records:
        t = offset_of(window, rec.timestamp)
        if t is not None:
            values[t] += 1
    return CountSeries(window=window, values=values)


def counts_by_user(records, window, users):
    """Daily counts of each distinct user, by user id."""
    table = {u: np.zeros(window.n_days, dtype=np.int64) for u in set(users)}
    for rec in records:
        if rec.user_id not in table:
            continue
        t = offset_of(window, rec.timestamp)
        if t is not None:
            table[rec.user_id][t] += 1
    return dict(sorted(table.items()))


def symbolize(shares):
    arr = np.asarray(shares, dtype=np.float64)
    hi = int(np.argmax(arr))
    if arr[hi] >= CORNER_THRESHOLD:
        return _CORNER[hi]
    lo = int(np.argmin(arr))
    if arr[lo] <= EDGE_THRESHOLD:
        return _EDGE[lo]
    return "G"


def daily_category_counts(records, campaign_users, user_id, window):
    out = np.zeros((window.n_days, 3), dtype=np.int64)
    for rec in records:
        if rec.user_id != user_id:
            continue
        t = offset_of(window, rec.timestamp)
        if t is None:
            continue
        out[t, _CATEGORY_INDEX[categorize(rec, campaign_users)]] += 1
    return out


def symbol_sequence(records, campaign_users, user_id, window):
    table = daily_category_counts(records, campaign_users, user_id, window)
    seq = []
    for t in range(window.n_days):
        if table[t].sum() == 0:
            continue
        counts = table[t].astype(np.float64)
        seq.append((t, symbolize(counts / counts.sum())))
    return seq


def symbol_distribution(records, campaign_users, users, window):
    counts = {s: 0 for s in ALPHABET}
    any_days = False
    for user_id in sorted(set(users)):
        for _, sym in symbol_sequence(records, campaign_users, user_id, window):
            counts[sym] += 1
            any_days = True
    if not any_days:
        raise ValueError("no active user-days in window; distribution undefined")
    return SymbolDistribution(counts=counts)


# ------------------------------------------------------------------ ingest
# One frozen TweetRecord per row, the reject reason read off the error text,
# a sort of the records and one json.dumps per row.

_TRUE_STRINGS = {"true", "t", "1", "yes"}
_FALSE_STRINGS = {"false", "f", "0", "no"}
_TIME_FORMATS = ("%Y-%m-%d %H:%M", "%Y-%m-%d %H:%M:%S", "%m/%d/%Y %H:%M")


def _parse_timestamp(raw):
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


def _parse_bool(raw):
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE_STRINGS:
        return True
    if text in _FALSE_STRINGS:
        return False
    raise ValueError(f"unparseable boolean {raw!r}")


def _row_to_record(row, columns):
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


def _iter_rows(path, fmt, columns):
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


def _reason_of(exc):
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


def parse_records(path, fmt, columns):
    report = ParseReport()
    records = []
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
    return records, report


def ingest_order(records):
    """The records in the order ``ingest`` writes them."""
    return sorted(records, key=lambda r: (r.timestamp, r.tweet_id))


def write_records(records, path):
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            row = {
                "tweetid": rec.tweet_id,
                "userid": rec.user_id,
                "tweet_time": rec.timestamp.strftime("%Y-%m-%d %H:%M:%S"),
                "tweet_language": rec.language,
                "is_retweet": "true" if rec.is_retweet else "false",
                "retweet_userid": rec.retweeted_user_id or "",
                "tweet_text": rec.text,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# -------------------------------------------------------- ingest row loop
# The row-at-a-time parse that the column checks of ``ingest._check_block``
# replaced: the same readers (one json.loads per JSONL line, or csv.reader)
# feed one loop that checks and converts each row on its own.

_BOOL_WORDS = {
    **dict.fromkeys(("true", "t", "1", "yes"), True),
    **dict.fromkeys(("false", "f", "0", "no"), False),
}
_NAIVE_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _NAIVE_EPOCH.replace(tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MIN_US = (datetime.min - _NAIVE_EPOCH) // _ONE_US
_MAX_US = (datetime.max - _NAIVE_EPOCH) // _ONE_US


def _loop_timestamp(raw):
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


def _loop_bool(raw):
    if isinstance(raw, bool):
        return raw
    return _BOOL_WORDS.get(str(raw).strip().lower())


def _escaped(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def csv_rows(fh, path, fields, check):
    reader = csv.reader(fh)
    header = next(reader, [])
    missing = [c for c in fields[:-1] if c not in header]
    if missing:
        raise IngestError(f"{path}: missing required columns {missing}")
    width = len(header)
    last = {name: i for i, name in enumerate(header)}
    pick = itemgetter(*(last.get(name, width) for name in fields))
    for row in reader:
        if not row:
            continue
        if check and _escaped("".join(row)):
            yield "bad_encoding"
            continue
        if len(row) != width:
            row = row[:width] + [None] * (width - len(row))
        row.append(None)
        yield pick(row)


def jsonl_rows(fh, path, fields, check):
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if check and _escaped(line):
            yield "bad_encoding"
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError):
            row = None
        yield tuple(map(row.get, fields)) if isinstance(row, dict) else "bad_json"


def parse_rows(rows):
    """The accepted rows' columns (as ``CorpusRows.add_rows`` takes them)
    and the report on every row."""
    report = ParseReport()
    tweet_id, user, source, timestamp_us, language, text = ([] for _ in range(6))
    for row in rows:
        report.total_rows += 1
        if row.__class__ is str:
            report.reject(row)
            continue
        tid, uid, stamp, lang, flag, body, src = row
        if None in (tid, uid, stamp, lang, flag, body):
            report.reject("missing_field")
            continue
        flag = _loop_bool(flag)
        if flag is None:
            report.reject("bad_retweet_flag")
            continue
        stamp = _loop_timestamp(str(stamp))
        if stamp is None:
            report.reject("bad_timestamp")
            continue
        if stamp.tzinfo is None:
            us = (stamp - _NAIVE_EPOCH) // _ONE_US
        else:
            us = (stamp - _UTC_EPOCH) // _ONE_US
            if not _MIN_US <= us <= _MAX_US:
                report.reject("bad_timestamp")
                continue
        src = str(src).strip() if src not in (None, "") else None
        if flag and not src:
            report.reject("retweet_without_source")
            continue
        if not flag and src:
            report.reject("source_on_non_retweet")
            continue
        tweet_id.append(str(tid).strip())
        user.append(str(uid).strip())
        source.append(src if flag else None)
        timestamp_us.append(us)
        language.append(str(lang).strip())
        text.append(str(body))
    report.accepted = len(user)
    columns = dict(
        tweet_id=tweet_id, user=user, source=source, timestamp_us=timestamp_us,
        language=language, text=text,
    )
    return columns, report


def parse_file(path, fmt, columns):
    """``parse_rows`` over one table, with the rewind that escapes bytes
    that are not UTF-8."""
    fields = (*columns.required(), columns.retweeted_user_id)
    read = {"csv": csv_rows, "jsonl": jsonl_rows}[fmt]
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            return parse_rows(read(fh, path, fields, False))
        except UnicodeDecodeError:
            fh.seek(0)
            fh.reconfigure(errors="surrogateescape")
            return parse_rows(read(fh, path, fields, True))


def read_tables(paths, fmt, columns):
    """``parse_file`` over each table, the accepted rows joined in table
    order and sorted stably by (timestamp, tweet id), and the reports."""
    joined, reports = {}, []
    for path in paths:
        table, report = parse_file(Path(path), fmt, columns)
        for name, values in table.items():
            joined.setdefault(name, []).extend(values)
        reports.append(report)
    keys = list(zip(joined["timestamp_us"], joined["tweet_id"]))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return {name: [values[i] for i in order] for name, values in joined.items()}, reports


def arrays_of(columns):
    """The tables and columns of the corpus of rows given one list per
    column (as ``parse_rows`` gives them), as ``tweet_tables.arrays_of``
    reads them off a corpus: the sorted id tables, each code looked up in a
    dict and each UTC day from its timestamp."""
    accounts = sorted({*columns["user"], *(s for s in columns["source"] if s is not None)})
    languages = sorted(set(columns["language"]))
    account = {a: i for i, a in enumerate(accounts)} | {None: -1}
    language = {x: i for i, x in enumerate(languages)}
    epoch = date(1970, 1, 1)
    return {
        "account_ids": tuple(accounts),
        "language_ids": tuple(languages),
        "user": [account[u] for u in columns["user"]],
        "source": [account[s] for s in columns["source"]],
        "timestamp_us": [int(us) for us in columns["timestamp_us"]],
        "language": [language[x] for x in columns["language"]],
        "day": [(epoch + timedelta(microseconds=int(us))).toordinal() for us in columns["timestamp_us"]],
        "tweet_id": list(columns["tweet_id"]),
        "text": list(columns["text"]),
    }


def sidecar_bytes(arrays, records_sha256):
    """The ``corpus.npz`` of ``arrays_of``'s tables and columns: each member
    as ``np.save`` writes it, stored by ``ZipFile.writestr`` with a fixed
    date."""
    members = {"version": np.array(1, dtype=np.int64), "records_sha256": np.array(records_sha256, dtype="U64")}
    for name in ("account_ids", "language_ids", "user", "source", "timestamp_us", "language",
                 "tweet_id", "text"):
        values = arrays[name]
        if name in ("user", "source", "timestamp_us", "language"):
            members[name] = np.array(values, dtype=np.int64)
            continue
        encoded = [s.encode("utf-8", "surrogatepass") for s in values]
        stem = name.removesuffix("_ids")
        members[f"{stem}_blob"] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        members[f"{stem}_offsets"] = np.cumsum([0, *map(len, encoded)], dtype=np.int64)
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as zf:
        for name, value in members.items():
            npy = io.BytesIO()
            np.save(npy, value)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0)), npy.getvalue())
    return out.getvalue()


# ------------------------------------------------------------- CSV writer
# One Python list and one format call per cell.


def write_csv_rows(path, header, rows):
    def fmt(v):
        if isinstance(v, (np.floating, float)):
            return f"{float(v):.12g}"
        if isinstance(v, np.integer):
            return int(v)
        return v

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def long_rows(users, table):
    """(user, column index, value) rows of a (users x columns) table, as the
    ``counts`` and ``spectra`` stages built them."""
    return [[uid, k, v] for uid, row in zip(users, table) for k, v in enumerate(row)]


# ------------------------------------------------------------ JSON walker
# A plain view of the payload, for json.dumps to encode in a second walk.


def _plain(obj):
    """JSON-safe, deterministic view: numpy unwrapped, floats at 12 digits.
    ``json.dumps(_plain(obj), sort_keys=True, indent=2)`` is the text
    ``cli.write_json`` writes."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_plain(v) for v in sorted(obj)]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return float(f"{f:.12g}") if np.isfinite(f) else None
    if isinstance(obj, DayWindow):
        return [obj.start.isoformat(), obj.end.isoformat()]
    if isinstance(obj, date):
        return obj.isoformat()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


# ----------------------------------------------------------- pairwise kernels
# Greedy modularity that rescans and rebuilds every inter-community weight on
# each merge, Q summed part by part over all edges, k-medoids swap descent
# that prices each (medoid, candidate) swap from scratch, and the similarity
# graph built with a full sort per row and a loop over vertex pairs. The graph
# oracles read a graph as a dict keyed by (id, id) pairs (``dict_view``) and
# build one from such a dict (``graph_from_edges``).


def graph_from_edges(edge_weights, extra_vertices):
    """The WeightedGraph of a ``{(id, id): weight}`` dict: both orientations
    of a pair are summed into one edge, and the vertices are the edges' ends
    plus ``extra_vertices``."""
    verts = set(extra_vertices)
    merged = {}
    for (u, v), w in edge_weights.items():
        verts.add(u)
        verts.add(v)
        key = _edge_key(u, v)
        merged[key] = merged.get(key, 0.0) + float(w)
    vertices = tuple(sorted(verts))
    index = {x: i for i, x in enumerate(vertices)}
    edges = sorted((index[u], index[v], w) for (u, v), w in merged.items())
    return WeightedGraph(
        vertices=vertices,
        u=[u for u, _, _ in edges],
        v=[v for _, v, _ in edges],
        w=[w for _, _, w in edges],
    )


@dataclass(frozen=True)
class DictGraph:
    """A graph as the oracles read it: ``edges`` maps each sorted (id, id)
    pair to its weight, in sorted pair order."""

    vertices: tuple
    edges: dict

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def total_weight(self):
        return sum(self.edges.values())

    def degrees(self):
        deg = {v: 0.0 for v in self.vertices}
        for (u, v), w in self.edges.items():
            deg[u] += w
            deg[v] += w
        return deg


def dict_view(graph):
    """The DictGraph of a WeightedGraph; a DictGraph is returned as it is."""
    if isinstance(graph, DictGraph):
        return graph
    ids = graph.vertices
    return DictGraph(
        vertices=ids,
        edges={
            (ids[u], ids[v]): w
            for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist())
        },
    )


def graph_key(graph):
    """A WeightedGraph as comparable values: vertices, u, v and w's exact floats."""
    return (
        graph.vertices,
        graph.u.tolist(),
        graph.v.tolist(),
        [w.hex() for w in graph.w.tolist()],
    )


def modularity(graph, partition):
    graph = dict_view(graph)
    groups = [frozenset(part) for part in partition]
    seen = set()
    for g in groups:
        if g & seen:
            raise ValueError("partition parts overlap")
        seen |= g
    if seen != set(graph.vertices):
        raise ValueError("partition does not cover the vertex set exactly")
    two_m = 2.0 * graph.total_weight
    if two_m == 0:
        return 0.0
    deg = graph.degrees()
    q = 0.0
    for g in groups:
        w_in = 0.0
        for (u, v), w in graph.edges.items():
            if u in g and v in g:
                w_in += 2.0 * w
        d = sum(deg[u] for u in sorted(g))
        q += w_in / two_m - (d / two_m) ** 2
    return q


def _edge_key(u, v):
    return (u, v) if u < v else (v, u)


def modularity_communities(graph):
    graph = dict_view(graph)
    if graph.n_edges == 0:
        return [frozenset([v]) for v in graph.vertices], 0.0
    two_m = 2.0 * graph.total_weight
    deg = graph.degrees()
    members = {v: {v} for v in graph.vertices}
    comm_deg = {v: deg[v] for v in graph.vertices}
    between = {}
    for (u, v), w in graph.edges.items():
        between[_edge_key(u, v)] = w
    while True:
        best_gain = 0.0
        best_pair = None
        for (a, b), w in between.items():
            gain = 2.0 * (w / two_m - (comm_deg[a] / two_m) * (comm_deg[b] / two_m))
            if gain > best_gain or (
                gain == best_gain and best_pair is not None and (a, b) < best_pair
            ):
                if gain > 0.0:
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        members[a] |= members.pop(b)
        comm_deg[a] += comm_deg.pop(b)
        merged = {}
        for (x, y), w in between.items():
            x = a if x == b else x
            y = a if y == b else y
            if x == y:
                continue
            key = _edge_key(x, y)
            merged[key] = merged.get(key, 0.0) + w
        between = merged
    partition = sorted((frozenset(m) for m in members.values()), key=lambda g: min(g))
    return partition, modularity(graph, partition)


def pairwise_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))


def kmedoids(points, ids, k, seed, restarts):
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    order = sorted(range(n), key=lambda i: (tuple(pts[i]), ids[i]))
    pts = pts[order]
    sorted_ids = [ids[i] for i in order]
    dist = pairwise_distances(pts)
    seen = {}
    for i, row in enumerate(pts):
        seen.setdefault(tuple(row), i)
    candidates = np.array(sorted(seen.values()))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        medoids = sorted(rng.choice(candidates, size=k, replace=False).tolist())
        for _ in range(200):
            labels = _assign(dist, medoids)
            new_medoids = []
            for c in range(k):
                members = np.flatnonzero(labels == c)
                if len(members) == 0:
                    new_medoids.append(medoids[c])
                    continue
                within = dist[np.ix_(members, members)].sum(axis=1)
                new_medoids.append(int(members[np.argmin(within)]))
            new_medoids = sorted(set(new_medoids))
            while len(new_medoids) < k:
                spare = [c for c in candidates if c not in new_medoids]
                far = max(spare, key=lambda i: dist[i, new_medoids].min())
                new_medoids.append(int(far))
                new_medoids.sort()
            if new_medoids == medoids:
                break
            medoids = new_medoids
        improved = True
        while improved:
            improved = False
            cost = _total_cost(dist, medoids)
            best_swap = None
            for mi, m in enumerate(medoids):
                for c in range(n):
                    if c in medoids:
                        continue
                    trial = medoids[:mi] + [c] + medoids[mi + 1 :]
                    trial_cost = _total_cost(dist, trial)
                    if trial_cost < cost - 1e-12 and (
                        best_swap is None or trial_cost < best_swap[0]
                    ):
                        best_swap = (trial_cost, mi, c)
            if best_swap is not None:
                _, mi, c = best_swap
                medoids[mi] = c
                medoids.sort()
                improved = True
        cost = _total_cost(dist, medoids)
        key = (cost, tuple(sorted_ids[m] for m in sorted(medoids)))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], sorted(medoids))
    cost, _, medoids = best
    labels = _assign(dist, medoids)
    return ClusterAssignment(
        labels={sorted_ids[i]: int(labels[i]) + 1 for i in range(n)},
        medoids=tuple(sorted_ids[m] for m in medoids),
        cost=cost,
    )


def similarity_graph(matrix, k):
    users = matrix.users
    xn = matrix.normalized
    sim = xn.T @ xn
    n = len(users)
    if n < 2:
        return graph_from_edges({}, extra_vertices=users)
    bounds = np.empty(n)
    for i in range(n):
        row = np.delete(sim[i], i)
        kth = min(k, len(row))
        bounds[i] = np.sort(row)[::-1][kth - 1]
    np.fill_diagonal(sim, 0.0)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            a = sim[i, j]
            if a > 0 and a >= min(bounds[i], bounds[j]):
                edges[(users[i], users[j])] = float(a)
    return graph_from_edges(edges, extra_vertices=users)


# ------------------------------------------------------------ text pipeline
# The Porter stemmer that sorts its rule tables on every call and classifies
# each letter by recursion, and the per-user documents and Counters.

_VOWELS = set("aeiou")


def _is_consonant(word, i):
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem):
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem):
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem):
    return len(stem) >= 2 and stem[-1] == stem[-2] and _is_consonant(stem, len(stem) - 1)


def _ends_cvc(stem):
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _replace_longest(word, rules):
    for suffix, repl, min_m in sorted(rules, key=lambda r: -len(r[0])):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_m:
                return stem + repl
            return word
    return word


_STEP2 = [
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
]

_STEP3 = [
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]

# every suffix a rule of steps 1-5 tests
PORTER_SUFFIXES = tuple(
    ["sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"]
    + [r[0] for r in _STEP2 + _STEP3]
    + _STEP4_SUFFIXES
)


def _step1a(word):
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word):
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word):
    for suffix in sorted(_STEP4_SUFFIXES, key=len, reverse=True):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem
    return word


def _step5a(word):
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1:
            return stem
        if m == 1 and not _ends_cvc(stem):
            return stem
    return word


def _step5b(word):
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@lru_cache(maxsize=65536)
def porter_stem(word):
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2)
    word = _replace_longest(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_SPLIT_RE = re.compile(r"[^0-9a-z]+")


def tokenize(text):
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text.lower()))
    tokens = [t for t in _SPLIT_RE.split(text) if t]
    return [t for t in tokens if len(t) >= 2 and not t.isdigit()]


@dataclass(frozen=True)
class Document:
    user_id: str
    text: str
    tokens: tuple


def build_documents(records, users, window):
    users = set(users)
    per_user = {u: [] for u in users}
    for rec in records:
        if rec.user_id in users and offset_of(window, rec.timestamp) is not None:
            per_user[rec.user_id].append((rec.timestamp, rec.tweet_id, rec.text))
    docs = []
    for user_id in sorted(users):
        pieces = sorted(per_user[user_id])
        text = " ".join(p[2] for p in pieces)
        tokens = tokenize(text)
        if tokens:
            docs.append(Document(user_id=user_id, text=text, tokens=tuple(tokens)))
    return docs


def corpus_documents(corpus, users, window):
    """``build_documents`` over a Corpus: one sort of (position, timestamp,
    tweet id, text) tuples, then one joined text per user."""
    users = sorted(set(users))
    _, keep = corpus.window_offsets(window)
    pos = corpus.positions(users)
    rows = np.flatnonzero(keep & (pos >= 0))
    pieces = sorted(
        zip(
            pos[rows].tolist(),
            corpus.timestamp_us[rows].tolist(),
            corpus.tweet_id.take(rows.tolist()),
            corpus.text.take(rows.tolist()),
        )
    )
    texts = [[] for _ in users]
    for p, _, _, text in pieces:
        texts[p].append(text)
    docs = []
    for user_id, parts in zip(users, texts):
        text = " ".join(parts)
        tokens = tokenize(text)
        if tokens:
            docs.append(Document(user_id=user_id, text=text, tokens=tuple(tokens)))
    return docs


def stem_and_filter(doc, stopwords=ENGLISH_STOPWORDS):
    return Counter(porter_stem(tok) for tok in doc.tokens if tok not in stopwords)


def dynamic_stopwords(term_counts, p):
    if not term_counts:
        raise ValueError("no user documents")
    n_c = len(term_counts)
    df = Counter()
    for counts in term_counts.values():
        df.update(set(counts))
    return frozenset(t for t, d in df.items() if d > p * n_c)


def gamma_keywords(term_counts, q):
    union = set()
    for user_id in sorted(term_counts):
        counts = term_counts[user_id]
        if not counts:
            continue
        values = np.array(sorted(counts.values()), dtype=np.float64)
        try:
            threshold = gamma_fit(values).quantile(q)
        except ValueError:
            threshold = float(values.mean())
        union |= {t for t, c in counts.items() if c >= threshold}
    return frozenset(union)


def build_term_user_matrix(term_counts, vocabulary):
    terms = tuple(sorted(set(vocabulary)))
    users = tuple(sorted(term_counts))
    if not terms or not users:
        raise ValueError("empty vocabulary or user set")
    counts = np.zeros((len(terms), len(users)), dtype=np.float64)
    term_index = {t: i for i, t in enumerate(terms)}
    for j, user_id in enumerate(users):
        for term, c in term_counts[user_id].items():
            i = term_index.get(term)
            if i is not None:
                counts[i, j] = c
    return TermUserMatrix(terms=terms, users=users, counts=counts)


def top_terms(partition, term_counts, m):
    out = []
    for part in partition:
        pooled = Counter()
        for user_id in part:
            pooled.update(term_counts.get(user_id, Counter()))
        ranked = sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))[:m]
        out.append(tuple((t, int(c)) for t, c in ranked))
    return tuple(out)


def topic_communities(corpus, users, window, dynamic_p, gamma_q, knn_k, top_m):
    """The old composition; a dict of what it produced, raw counts included."""
    docs = corpus_documents(corpus, users, window)
    if len(docs) < 2:
        raise ValueError("need at least 2 users with text to cluster")
    raw_counts = {d.user_id: stem_and_filter(d) for d in docs}
    dyn = dynamic_stopwords(raw_counts, dynamic_p)
    filtered = {
        u: Counter({t: c for t, c in counts.items() if t not in dyn})
        for u, counts in raw_counts.items()
    }
    vocabulary = gamma_keywords(filtered, gamma_q)
    if not vocabulary:
        raise ValueError("no keywords survive filtering; nothing to cluster")
    matrix = build_term_user_matrix(filtered, vocabulary)
    graph = fast_similarity_graph(matrix, knn_k)
    partition, q = fast_modularity_communities(graph)
    return {
        "raw_counts": raw_counts,
        "dynamic_stopwords": dyn,
        "vocabulary": tuple(sorted(vocabulary)),
        "matrix": matrix,
        "graph": graph,
        "partition": tuple(partition),
        "modularity": q,
        "top_terms": top_terms(partition, filtered, top_m),
    }


# ------------------------------------------------------------ spectral chain


@dataclass(frozen=True)
class OscillatorSeries:
    """Detrended daily series; sample ``i`` is day offset ``i + ma_window``."""

    window: object
    values: np.ndarray
    ma_window: int
    user_id: str | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expect = self.window.n_days - self.ma_window
        if values.ndim != 1 or len(values) != expect:
            raise ValueError(f"need {expect} detrended values, got {values.shape}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)


def detrend(series, ma_window, user_id=None):
    """One :class:`~tweetdyn.timeseries.CountSeries` minus its trailing
    ``ma_window``-day moving average."""
    if ma_window < 1:
        raise ValueError("ma_window must be >= 1")
    if len(series) <= ma_window:
        raise ValueError(
            f"series of {len(series)} days too short for ma_window={ma_window}"
        )
    nu = series.values.astype(np.float64)
    csum = np.concatenate([[0.0], np.cumsum(nu)])
    trailing = (csum[ma_window:-1] - csum[:-ma_window - 1]) / ma_window
    xi = nu[ma_window:] - trailing
    return OscillatorSeries(
        window=series.window, values=xi, ma_window=ma_window, user_id=user_id
    )


@dataclass(frozen=True)
class Spectrum:
    """Half spectrum of one detrended series (unnormalized forward DFT)."""

    bins: np.ndarray
    n_samples: int
    user_id: str | None = None

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        expect = self.n_samples // 2 + 1
        if bins.ndim != 1 or len(bins) != expect:
            raise ValueError(
                f"need {expect} bins for n_samples={self.n_samples}, got {bins.shape}"
            )
        bins = bins.copy()
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    def __len__(self):
        return len(self.bins)

    @property
    def magnitudes(self):
        return np.abs(self.bins)


def dft(values, user_id=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError("need a 1-d series of at least 2 samples")
    return Spectrum(bins=np.fft.rfft(values), n_samples=len(values), user_id=user_id)


def squared_magnitude_quantile(spectrum, q):
    """Empirical inverse-CDF quantile of the squared bin magnitudes."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    power = np.sort(spectrum.magnitudes**2)
    if q == 0.0:
        return 0.0
    idx = math.ceil(q * len(power)) - 1
    return float(power[idx])


def denoise(spectrum, q):
    threshold = squared_magnitude_quantile(spectrum, q)
    power = spectrum.magnitudes**2
    bins = np.where(power < threshold, 0.0 + 0.0j, spectrum.bins)
    return Spectrum(bins=bins, n_samples=spectrum.n_samples, user_id=spectrum.user_id)


def fit_fourier(spectrum, j_terms):
    n = spectrum.n_samples
    n_bins = len(spectrum.bins)
    if not 1 <= j_terms <= n_bins:
        raise ValueError(f"j_terms must be in 1..{n_bins}")
    mags = spectrum.magnitudes
    order = np.lexsort((np.arange(n_bins), -mags))
    terms = []
    for k in sorted(order[:j_terms]):
        x = spectrum.bins[k]
        half_weight = k == 0 or (n % 2 == 0 and k == n // 2)
        amp = (1.0 if half_weight else 2.0) * np.abs(x) / n
        terms.append(
            FourierTerm(
                amplitude=float(amp),
                omega=2.0 * math.pi * k / n,
                phase=float(np.angle(x)),
                bin=int(k),
            )
        )
    terms.sort(key=lambda t: (-t.amplitude, t.bin))
    return tuple(terms)


def spectra_matrix(spectra):
    """Magnitude spectra stacked into an (n_users, n_bins) matrix, sorted by id."""
    if not spectra:
        raise ValueError("no spectra")
    n_bins = {len(s) for s in spectra}
    if len(n_bins) != 1:
        raise ValueError(f"mixed bin counts {sorted(n_bins)}")
    ids = [s.user_id or "" for s in spectra]
    if len(set(ids)) != len(ids) or "" in ids:
        raise ValueError("spectra must carry distinct user ids")
    order = np.argsort(ids)
    matrix = np.vstack([spectra[i].magnitudes for i in order])
    return [ids[i] for i in order], matrix


def band_summary(spectra):
    if not spectra:
        raise ValueError("no spectra to summarize")
    n_samples = {s.n_samples for s in spectra}
    if len(n_samples) != 1:
        raise ValueError("spectra have mixed sample counts")
    mags = np.vstack([s.magnitudes for s in spectra])
    q1, med, q3 = np.percentile(mags, [25, 50, 75], axis=0)
    return BandSummary(
        mins=mags.min(axis=0),
        q1=q1,
        medians=med,
        q3=q3,
        maxs=mags.max(axis=0),
    )


def median_spectrum(spectra):
    """Spectrum whose bins are the per-bin median magnitudes (real-valued)."""
    summary = band_summary(spectra)
    return Spectrum(
        bins=summary.medians.astype(np.complex128), n_samples=spectra[0].n_samples
    )


def dominant_period(spectrum):
    mags = spectrum.magnitudes
    if len(mags) < 2:
        raise ValueError("spectrum has no oscillatory bins")
    if np.all(mags[1:] == 0):
        raise ValueError("all oscillatory bins are zero; no dominant period")
    k = 1 + int(np.argmax(mags[1:]))
    return spectrum.n_samples / k


def cohort_spectra(window, table, users, ma_window, q):
    """The loop ``cli._cohort_spectra`` ran: one denoised spectrum per user."""
    out = {}
    for uid, row in zip(users, table):
        osc = detrend(CountSeries(window=window, values=row), ma_window, uid)
        out[uid] = denoise(dft(osc.values, uid), q)
    return out
