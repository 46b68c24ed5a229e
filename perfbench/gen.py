"""Seeded input generator for the pipeline benchmark.

Builds each workload's input tables, its config file (if any) and its
planted group labels from NumPy and the standard library only. It imports
nothing from ``tweetdyn``, so an edit to the package, its own synthetic
generator included, never changes what the benchmark feeds the pipeline.

Every draw comes from ``numpy.random.default_rng(seed)`` and is made per
user-day or per tweet as whole arrays, so one seed gives byte-identical
files and the generator stays fast enough to run before every measured run.

usage: python3 perfbench/gen.py --workload campaign --seed 1 --out DIR

It prints one JSON object: each input file with its sha256 and row count,
the input format, the config and labels files and the planted values that
the benchmark's checks compare against.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

BULK_START = date(2015, 1, 1)  # day 0 of the package's default bulk window
PRE_WINDOW = (date(2016, 3, 9), date(2016, 11, 8))  # default pre window
CHANGEPOINT_T0 = 616  # default model2_t0, in bulk-window days

COLUMNS = (
    "tweetid",
    "userid",
    "tweet_time",
    "tweet_language",
    "is_retweet",
    "retweet_userid",
    "tweet_text",
)

# Rate archetypes per planted group: (period in days, amplitude as a share
# of the user's base rate). The four differ in their spectra, which is what
# the spectral clustering separates.
RATE_SHAPES = (
    (),
    ((4.0, 0.60),),
    ((7.0, 0.50), (4.0, 0.40)),
    ((7.0, 0.50), (2.5, 0.40)),
)

# (original, spreading, amplifying) shares before and after the planted
# strategy flip, one row per group. Groups 0 and 1 flip; 2 and 3 do not.
STRATEGY_MIXES = (
    ((0.80, 0.10, 0.10), (0.15, 0.15, 0.70)),
    ((0.70, 0.20, 0.10), (0.10, 0.20, 0.70)),
    ((0.15, 0.70, 0.15), (0.15, 0.70, 0.15)),
    ((0.10, 0.15, 0.75), (0.10, 0.15, 0.75)),
)

_CONSONANTS = np.array(list("bdfgklmnprstvz"))
_VOWELS = np.array(list("aeiou"))
_SUFFIXES = (
    "", "s", "ing", "ed", "er", "ation", "ness", "ment",
    "ly", "ful", "ize", "able", "ity", "ous", "ive", "al",
)
_FOREIGN_LANGUAGES = ("ru", "es", "ar", "de")


@dataclass(frozen=True)
class Tweets:
    """One row per tweet, as parallel arrays, before text is attached."""

    user: np.ndarray  # user index
    day: np.ndarray  # day offset from the workload's first day
    second: np.ndarray  # second of the day
    category: np.ndarray  # 0 original, 1 spreading, 2 amplifying
    source: np.ndarray  # retweeted user index (>= n_users: an outsider)


def pseudo_words(rng: np.random.Generator, n: int, syllables: int, tail: str) -> list[str]:
    """``n`` distinct consonant-vowel words of ``syllables`` syllables plus ``tail``."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        c = rng.integers(len(_CONSONANTS), size=(2 * n, syllables))
        v = rng.integers(len(_VOWELS), size=(2 * n, syllables))
        pairs = np.char.add(_CONSONANTS[c], _VOWELS[v])
        for row in pairs:
            word = "".join(row) + tail
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    break
    return words


def zipf_cdf(n: int, exponent: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return np.cumsum(w / w.sum())


def draw(rng: np.random.Generator, cdf: np.ndarray, size) -> np.ndarray:
    """Indices drawn from the distribution with cumulative weights ``cdf``."""
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def daily_rates(
    rng: np.random.Generator,
    group: np.ndarray,
    base: np.ndarray,
    n_days: int,
    scale: float = 1.0,
) -> np.ndarray:
    """(users, days) Poisson rates: base rate times the group's cosine shape,
    with the shape's amplitudes multiplied by ``scale``."""
    t = np.arange(n_days, dtype=np.float64)
    shape = np.ones((len(group), n_days))
    for g, terms in enumerate(RATE_SHAPES):
        rows = np.flatnonzero(group == g)
        for period, amplitude in terms:
            phase = rng.uniform(0.0, 2.0 * np.pi, size=(len(rows), 1))
            amp = scale * amplitude * rng.uniform(0.8, 1.2, size=(len(rows), 1))
            shape[rows] += amp * np.cos(2.0 * np.pi * t / period + phase)
    return np.clip(shape, 0.05, None) * base[:, None]


def expand(
    rng: np.random.Generator,
    counts: np.ndarray,
    group: np.ndarray,
    flip_day: int | None,
    n_outsiders: int,
) -> Tweets:
    """Tweets for a (users, days) count table, sorted by time then user."""
    n_users, n_days = counts.shape
    flat = counts.ravel()
    user = np.repeat(np.repeat(np.arange(n_users), n_days), flat)
    day = np.repeat(np.tile(np.arange(n_days), n_users), flat)
    second = rng.integers(0, 86400, size=len(user))
    order = np.lexsort((user, second, day))
    user, day, second = user[order], day[order], second[order]

    mixes = np.asarray(STRATEGY_MIXES)  # (groups, era, 3)
    era = np.zeros(len(user), dtype=np.int64) if flip_day is None else (day >= flip_day).astype(np.int64)
    cum = np.cumsum(mixes[group[user], era], axis=1)
    u = rng.random(len(user))
    category = (u >= cum[:, 0]).astype(np.int64) + (u >= cum[:, 1])
    other = rng.integers(n_users - 1, size=len(user))
    other += other >= user
    outsider = n_users + rng.integers(n_outsiders, size=len(user))
    source = np.where(category == 1, other, np.where(category == 2, outsider, -1))
    return Tweets(user, day, second, category, source)


def timestamps(start: date, day: np.ndarray, second: np.ndarray) -> list[str]:
    stamps = (
        np.datetime64(start.isoformat(), "s")
        + day.astype("timedelta64[D]")
        + second.astype("timedelta64[s]")
    )
    return [s.replace("T", " ") for s in np.datetime_as_string(stamps, unit="s").tolist()]


def planted_texts(
    rng: np.random.Generator,
    tweets: Tweets,
    group: np.ndarray,
    n_groups: int,
    group_terms: int,
    noise_terms: int,
    tokens: int,
    noise_weight: float,
) -> tuple[list[str], int]:
    """Fixed-length tweets from per-group vocabularies plus shared noise words."""
    words = np.array(pseudo_words(rng, n_groups * group_terms + noise_terms, 4, "x"))
    n = len(tweets.user)
    group_word = draw(rng, zipf_cdf(group_terms), (n, tokens))
    group_word += (group[tweets.user] * group_terms)[:, None]
    noise_word = n_groups * group_terms + rng.integers(noise_terms, size=(n, tokens))
    ids = np.where(rng.random((n, tokens)) < noise_weight, noise_word, group_word)
    return [" ".join(row) for row in words[ids].tolist()], len(words)


def user_ids(rng: np.random.Generator, n: int, prefix: str) -> list[str]:
    digits = rng.integers(16, size=(n, 12))
    return [prefix + "".join(f"{d:x}" for d in row) for row in digits]


def records(
    tweets: Tweets,
    users: list[str],
    outsiders: list[str],
    stamps: list[str],
    languages: list[str],
    texts: list[str],
) -> list[list[str]]:
    """Rows in the stock column layout, tweet ids increasing with time."""
    names = users + outsiders
    rows = []
    for i, (u, c, s) in enumerate(
        zip(tweets.user.tolist(), tweets.category.tolist(), tweets.source.tolist())
    ):
        rows.append(
            [
                str(700000000000 + i),
                names[u],
                stamps[i],
                languages[i],
                "false" if c == 0 else "true",
                "" if c == 0 else names[s],
                texts[i],
            ]
        )
    return rows


def write_jsonl(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(COLUMNS, row)), sort_keys=True) + "\n")


def write_csv(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def window_json(start: date, end: date) -> list[str]:
    return [start.isoformat(), end.isoformat()]


def planted_corpus(
    rng: np.random.Generator,
    *,
    per_group: int,
    start: date,
    n_days: int,
    base_rate: float,
    scale: float,
) -> tuple[list[list[str]], dict[str, int], int]:
    """The demo shape: four groups with planted rates, words and a strategy flip."""
    n_groups = len(RATE_SHAPES)
    group = np.repeat(np.arange(n_groups), per_group)
    base = base_rate * rng.uniform(0.9, 1.1, size=len(group))
    counts = rng.poisson(daily_rates(rng, group, base, n_days, scale))
    tweets = expand(rng, counts, group, n_days // 2, n_outsiders=12)
    users = user_ids(rng, len(group), "u")
    outsiders = user_ids(rng, 12, "x")
    texts, n_words = planted_texts(
        rng, tweets, group, n_groups, group_terms=35, noise_terms=30,
        tokens=8, noise_weight=0.2,
    )
    stamps = timestamps(start, tweets.day, tweets.second)
    rows = records(tweets, users, outsiders, stamps, ["en"] * len(texts), texts)
    labels = {u: int(g) for u, g in zip(users, group.tolist())}
    return rows, labels, n_words


def gen_campaign(rng: np.random.Generator, out: Path) -> dict:
    """32 users in 4 groups over the default pre window, demo config."""
    start, end = PRE_WINDOW
    n_days = (end - start).days
    rows, labels, n_words = planted_corpus(
        rng, per_group=8, start=start, n_days=n_days, base_rate=6.0, scale=1.0
    )
    write_jsonl(out / "campaign.jsonl", rows)
    flip = start.fromordinal(start.toordinal() + n_days // 2)
    config = {
        "reference_window": window_json(start, flip),
        "comparison_window": window_json(flip, end),
    }
    return {
        "format": "jsonl",
        "tables": ["campaign.jsonl"],
        "config": config,
        "labels": labels,
        "planted": {"strategy_flip": flip.isoformat(), "distinct_words": n_words},
    }


def gen_crowd(rng: np.random.Generator, out: Path) -> dict:
    """256 users in 4 groups of 64 over 60 days; windows split at the flip.

    The cohort thresholds are lowered so every user enters the cohort, and
    the rate shapes are scaled up so that 53 detrended days still separate
    the groups about equally well on every seed.
    """
    start, n_days = date(2016, 3, 9), 60
    end = start.fromordinal(start.toordinal() + n_days)
    rows, labels, n_words = planted_corpus(
        rng, per_group=64, start=start, n_days=n_days, base_rate=2.0, scale=1.8
    )
    write_jsonl(out / "crowd.jsonl", rows)
    flip = start.fromordinal(start.toordinal() + n_days // 2)
    config = {
        "pre_window": window_json(start, end),
        "reference_window": window_json(start, flip),
        "comparison_window": window_json(flip, end),
        "min_total_tweets": 30,
        "active_day_fraction": 0.3,
    }
    return {
        "format": "jsonl",
        "tables": ["crowd.jsonl"],
        "config": config,
        "labels": labels,
        "planted": {"strategy_flip": flip.isoformat(), "distinct_words": n_words},
    }


def gen_chatter(rng: np.random.Generator, out: Path) -> dict:
    """Real-data shape: three stock-layout CSV tables under the default config.

    32 users over days 200..859 of the bulk window (the default change-point
    fit ranges), a planted rate break at the default ``model2_t0``, a Zipf
    vocabulary of suffixed words, URLs, mentions and hashtags, about 10% of
    tweets in other languages and about 1% malformed rows.
    """
    per_group, first_day, n_days = 8, 200, 660
    rate_ratio = 1.6
    n_groups = len(RATE_SHAPES)
    start = BULK_START.fromordinal(BULK_START.toordinal() + first_day)
    group = np.repeat(np.arange(n_groups), per_group)
    base = 2.0 * rng.uniform(0.9, 1.1, size=len(group))
    rates = daily_rates(rng, group, base, n_days, scale=1.4)
    rates[:, CHANGEPOINT_T0 - first_day:] *= rate_ratio
    tweets = expand(rng, rng.poisson(rates), group, None, n_outsiders=400)
    n = len(tweets.user)
    users = user_ids(rng, len(group), "")
    outsiders = user_ids(rng, 400, "")

    stems = pseudo_words(rng, 1250, 2, "")
    vocab = np.array([s + suffix for s in stems for suffix in _SUFFIXES])
    vocab = vocab[rng.permutation(len(vocab))]
    vocab_cdf = zipf_cdf(len(vocab), 1.05)
    # Each group talks about its own 150 mid-frequency words on top of the
    # shared Zipf chatter; ranks below 2000 are common to everyone.
    topic = 2000 + rng.permutation(len(vocab) - 2000)[: n_groups * 150].reshape(n_groups, 150)
    topic_cdf = zipf_cdf(150, 0.8)
    foreign = np.array(pseudo_words(rng, 2000, 3, "o"))
    foreign_cdf = zipf_cdf(len(foreign))
    handles = np.array(["@" + u[:8] for u in users + outsiders])

    lengths = rng.integers(8, 21, size=n)
    owner = np.repeat(np.arange(n), lengths)
    is_foreign = rng.random(n) < 0.10
    words = vocab[draw(rng, vocab_cdf, len(owner))]
    on_topic = rng.random(len(owner)) < 0.35
    topic_words = vocab[topic[group[tweets.user[owner]], draw(rng, topic_cdf, len(owner))]]
    words = np.where(on_topic, topic_words, words)
    words = np.where(is_foreign[owner], foreign[draw(rng, foreign_cdf, len(owner))], words)
    ends = np.cumsum(lengths).tolist()
    words = words.tolist()
    mention = rng.random(n) < 0.3
    mention_of = handles[rng.integers(len(handles), size=n)].tolist()
    url = rng.random(n) < 0.25
    url_tail = ["".join(r) for r in np.array(list("abcdefghijkmnpqrstuvwxyz0123456789"))[
        rng.integers(34, size=(n, 10))].tolist()]
    tag = rng.random(n) < 0.3
    tag_word = vocab[topic[group[tweets.user], rng.integers(10, size=n)]].tolist()
    texts = []
    begin = 0
    for i, end in enumerate(ends):
        parts = words[begin:end]
        begin = end
        if mention[i]:
            parts.insert(0, mention_of[i])
        if tag[i]:
            parts.append("#" + tag_word[i])
        if url[i]:
            parts.append("https://t.co/" + url_tail[i])
        texts.append(" ".join(parts))
    languages = np.where(
        is_foreign, np.array(_FOREIGN_LANGUAGES)[rng.integers(4, size=n)], "en"
    ).tolist()

    stamps = timestamps(start, tweets.day, tweets.second)
    rows = records(tweets, users, outsiders, stamps, languages, texts)
    bad = rng.random(n)
    for i in np.flatnonzero(bad < 0.005).tolist():
        rows[i][2] = rows[i][2].replace("-", "/", 1).replace(" ", "T99:")
    for i in np.flatnonzero((bad >= 0.005) & (bad < 0.015) & (tweets.category > 0)).tolist():
        rows[i][5] = ""
    thirds = np.array_split(np.arange(n), 3)
    tables = []
    for k, part in enumerate(thirds, start=1):
        name = f"chatter_{k}.csv"
        write_csv(out / name, [rows[i] for i in part.tolist()])
        tables.append(name)
    labels = {u: int(g) for u, g in zip(users, group.tolist())}
    return {
        "format": "csv",
        "tables": tables,
        "config": None,
        "labels": labels,
        "planted": {"rate_ratio": rate_ratio, "distinct_words": len(vocab)},
    }


GENERATORS = {"campaign": gen_campaign, "crowd": gen_crowd, "chatter": gen_chatter}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out`` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    spec = GENERATORS[workload](rng, out)
    labels_path = out / "labels.json"
    labels_path.write_text(json.dumps(spec.pop("labels"), sort_keys=True) + "\n")
    config = spec.pop("config")
    if config is not None:
        (out / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n")
    inputs = []
    for name in spec.pop("tables"):
        path = out / name
        with path.open("rb") as fh:
            lines = sum(1 for _ in fh)
        rows = lines - 1 if spec["format"] == "csv" else lines
        inputs.append({"file": name, "rows": rows, "sha256": sha256_of(path)})
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "rows": sum(i["rows"] for i in inputs),
        "config": "config.json" if config is not None else None,
        "labels": "labels.json",
        **spec,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
