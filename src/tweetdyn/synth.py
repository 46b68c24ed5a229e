"""Synthetic data with known ground truth for every pipeline stage.

Two generators, both driven by ``numpy.random.default_rng(seed)`` so equal
specs and seeds reproduce byte-identical data:

* :func:`generate_corpus` - a tweet :class:`~tweetdyn.corpus.Corpus` with
  planted group vocabularies, per-era strategy mixes and an optional strategy
  change point. Every group's tweet volume comes from one rate model, its
  :class:`GroupSpec`: per member and day, a constant baseline plus planted
  cosines plus Gaussian noise, rounded half-to-even (``np.rint``) and clipped
  at zero; a spec with no cosines and no noise gives a constant volume. Term
  draws follow Zipf-like 1/rank weights over each group's vocabulary;
  outsider retweets name one of :data:`AMPLIFIED_OUTSIDERS`.
  Ground truth (user -> group) is returned separately, never written into
  the tweet table.
* :func:`generate_changepoint_aggregate` - one aggregate Poisson count series
  whose rate switches at a planted day.

Generated user ids are ``<group>-u<NN>``; tweet ids are sequential. Labels
belong in a sidecar file, not in the tweet table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .corpus import AMPLIFYING, SPREADING, US_PER_DAY, Corpus, CorpusRows
from .timeseries import CountSeries, DayWindow

_US_PER_MINUTE = 60_000_000
# accounts outside the campaign that its members' outsider retweets amplify
AMPLIFIED_OUTSIDERS = tuple(f"outsider-{i:02d}" for i in range(12))


@dataclass(frozen=True)
class GroupSpec:
    """Rate model of one user group: constant baseline + planted cosines."""

    group_id: str
    baseline_level: float
    noise_sigma: float
    members: int
    frequencies: tuple[float, ...] = ()
    amplitude_ranges: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if len(self.frequencies) != len(self.amplitude_ranges):
            raise ValueError("one amplitude range per frequency required")
        if self.baseline_level < 0:
            raise ValueError("baseline_level must be >= 0")
        if any(lo > hi for lo, hi in self.amplitude_ranges):
            raise ValueError("amplitude range inverted")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.members < 1:
            raise ValueError("members must be >= 1")


@dataclass(frozen=True)
class GroupCorpusSpec:
    """Text/strategy model of one user group; its id, member count and daily
    tweet counts come from ``dynamics``."""

    dynamics: GroupSpec
    vocabulary: tuple[str, ...]
    strategy_pre: tuple[float, float, float]
    strategy_post: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not self.vocabulary:
            raise ValueError("empty vocabulary")
        for mix in (self.strategy_pre, self.strategy_post):
            if len(mix) != 3 or any(c < 0 for c in mix) or not math.isclose(
                sum(mix), 1.0, abs_tol=1e-9
            ):
                raise ValueError(f"strategy mix {mix} is not a simplex point")

    def weights(self) -> np.ndarray:
        """Emission weights of the vocabulary: Zipf-like 1/rank, normalized."""
        w = 1.0 / np.arange(1, len(self.vocabulary) + 1)
        return w / w.sum()


@dataclass(frozen=True)
class CorpusSpec:
    """A whole synthetic campaign: groups plus shared noise vocabulary; with
    ``changepoint_day`` None every day is in the ``strategy_pre`` era."""

    groups: tuple[GroupCorpusSpec, ...]
    noise_vocabulary: tuple[str, ...]
    noise_weight: float
    tokens_per_tweet: int
    changepoint_day: int | None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("need at least one group")
        ids = [g.dynamics.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate group ids")
        if not 0.0 <= self.noise_weight < 1.0:
            raise ValueError("noise_weight must be in [0, 1)")
        if self.noise_weight > 0 and not self.noise_vocabulary:
            raise ValueError("noise_weight set but no noise vocabulary")
        if self.tokens_per_tweet < 1:
            raise ValueError("tokens_per_tweet must be >= 1")


def _member_ids(spec: GroupSpec) -> list[str]:
    return [f"{spec.group_id}-u{j:02d}" for j in range(spec.members)]


def _member_counts(
    spec: GroupSpec, n_days: int, rng: np.random.Generator
) -> np.ndarray:
    """One member's daily counts: baseline + cosines + noise, rounded >= 0."""
    t = np.arange(n_days, dtype=np.float64)
    values = np.full(n_days, spec.baseline_level, dtype=np.float64)
    for omega, (lo, hi) in zip(spec.frequencies, spec.amplitude_ranges):
        amplitude = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        values += amplitude * np.cos(omega * t + phase)
    if spec.noise_sigma > 0:
        values += rng.normal(0.0, spec.noise_sigma, size=n_days)
    return np.clip(np.rint(values), 0, None).astype(np.int64)


def reference_cluster_specs(members: int) -> tuple[GroupSpec, ...]:
    """Four rate archetypes: aperiodic; 4-day; 7- and 4-day; 7- and 2.5-day."""
    two_pi = 2.0 * math.pi
    return (
        GroupSpec(
            group_id="flat",
            noise_sigma=6.0,
            baseline_level=30.0,
            members=members,
        ),
        GroupSpec(
            group_id="p4",
            frequencies=(two_pi / 4.0,),
            amplitude_ranges=((8.0, 12.0),),
            noise_sigma=3.0,
            baseline_level=30.0,
            members=members,
        ),
        GroupSpec(
            group_id="p7p4",
            frequencies=(two_pi / 7.0, two_pi / 4.0),
            amplitude_ranges=((8.0, 12.0), (6.0, 10.0)),
            noise_sigma=3.0,
            baseline_level=35.0,
            members=members,
        ),
        GroupSpec(
            group_id="p7p25",
            frequencies=(two_pi / 7.0, two_pi / 2.5),
            amplitude_ranges=((8.0, 12.0), (6.0, 10.0)),
            noise_sigma=3.0,
            baseline_level=35.0,
            members=members,
        ),
    )


def generate_corpus(
    spec: CorpusSpec,
    window: DayWindow,
    seed: int,
) -> tuple[Corpus, dict[str, str]]:
    """Tweets of a synthetic campaign as a :class:`Corpus`, plus true labels.

    Tweets run member by member, in group order, and day by day within a
    member; a member's ``n`` tweets of a day are ``min(60, max(1, 1440 //
    n))`` minutes apart from midnight, wrapping at midnight. The generator
    ``numpy.random.default_rng(seed)`` is drawn in this order:

    1. every member's daily counts from its group's ``dynamics``
       (:func:`_member_counts`), group by group, member by member;
    2. per tweet, its category from its group's mix for the era of its day
       (``strategy_pre`` before ``changepoint_day``, ``strategy_post`` from
       it on): original, member retweet or outsider retweet;
    3. per member retweet, its source, uniform over the other members;
    4. per outsider retweet, its source in :data:`AMPLIFIED_OUTSIDERS`;
    5. per token, its term: the group's vocabulary at its Zipf weights times
       ``1 - noise_weight``, then the noise vocabulary, uniform, at
       ``noise_weight``.
    """
    rng = np.random.default_rng(seed)
    n_days = window.n_days
    rates = [g.dynamics for g in spec.groups]
    users = [uid for r in rates for uid in _member_ids(r)]
    if len(set(users)) != len(users):
        raise ValueError("group ids collide; member ids must be unique")
    counts = np.array([_member_counts(r, n_days, rng) for r in rates for _ in range(r.members)])

    per_cell = counts.ravel()
    n = int(per_cell.sum())
    author = np.repeat(np.arange(len(users)), counts.sum(axis=1))
    group = np.repeat(np.arange(len(rates)), [r.members for r in rates])[author]
    day = np.repeat(np.tile(np.arange(n_days), len(users)), per_cell)
    step = np.minimum(60, np.maximum(1, (24 * 60) // np.maximum(per_cell, 1)))
    nth = np.arange(n) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    minute = nth * np.repeat(step, per_cell) % (24 * 60)
    first_day = (window.start - date(1970, 1, 1)).days
    timestamp_us = (first_day + day) * US_PER_DAY + minute * _US_PER_MINUTE

    mixes = np.array([(g.strategy_pre, g.strategy_post) for g in spec.groups])
    mix_cdf = np.cumsum(mixes, axis=-1)
    mix_cdf /= mix_cdf[..., -1:]
    changepoint = n_days if spec.changepoint_day is None else spec.changepoint_day
    tweet_cdf = mix_cdf[group, (day >= changepoint).astype(np.int64)]
    # the first category whose cumulative share exceeds the uniform, as
    # Generator.choice picks it
    category = (tweet_cdf[:, :-1] <= rng.random(n)[:, None]).sum(axis=1)

    # source codes: a member's index in users, len(users) + an outsider's
    # index, or -1 for an original
    source = np.full(n, -1, dtype=np.int64)
    spreading = np.flatnonzero(category == SPREADING)
    other = rng.integers(len(users) - 1, size=len(spreading))
    source[spreading] = other + (other >= author[spreading])
    amplifying = np.flatnonzero(category == AMPLIFYING)
    source[amplifying] = len(users) + rng.integers(len(AMPLIFIED_OUTSIDERS), size=len(amplifying))

    noise = spec.noise_vocabulary
    noise_weights = np.full(len(noise), spec.noise_weight / max(len(noise), 1))
    terms: list[str] = []
    term = np.empty((n, spec.tokens_per_tweet), dtype=np.int64)
    u = rng.random(term.shape)
    for gi, g in enumerate(spec.groups):
        term_cdf = np.cumsum(
            np.concatenate([(1.0 - spec.noise_weight) * g.weights(), noise_weights])
        )
        term_cdf /= term_cdf[-1]
        rows = slice(*np.searchsorted(group, [gi, gi + 1]))  # tweets run group by group
        term[rows] = len(terms) + term_cdf.searchsorted(u[rows], side="right")
        terms += [*g.vocabulary, *noise]

    names = np.array([*users, *AMPLIFIED_OUTSIDERS, None], dtype=object)
    rows = CorpusRows(None)
    rows.add_rows(
        tweet_id=["syn%08d" % serial for serial in range(1, n + 1)],
        user=names[author].tolist(),
        source=names[source].tolist(),
        timestamp_us=timestamp_us,
        language=["en"] * n,
        text=list(map(" ".join, zip(*np.array(terms, dtype=object)[term.T].tolist()))),
    )
    corpus = rows.build()
    group_of = {uid: r.group_id for r in rates for uid in _member_ids(r)}
    return corpus, group_of


def planted_vocabulary(group_id: str, n_terms: int) -> tuple[str, ...]:
    """Stemmer-invariant nonsense terms, deterministic per (group id, index).

    Consonant-vowel syllables with a terminal ``x``: no suffix rule of the
    stemmer ends in ``x``, so these words are fixed points of stemming. Terms
    are hash-derived, so distinct groups get (with overwhelming probability)
    disjoint vocabularies; tests that rely on disjointness assert it.
    """
    import hashlib

    consonants = "bdfgklmnprtvz"
    vowels = "aeiou"
    terms: list[str] = []
    seen: set[str] = set()
    i = 0
    while len(terms) < n_terms:
        digest = hashlib.md5(f"{group_id}:{i}".encode()).digest()
        i += 1
        word = []
        for b in digest[:5]:
            word.append(consonants[b % len(consonants)])
            word.append(vowels[(b // len(consonants)) % len(vowels)])
        term = "".join(word) + "x"
        if term not in seen:
            seen.add(term)
            terms.append(term)
    return tuple(terms)


def generate_changepoint_aggregate(
    rate_before: float,
    rate_after: float,
    t_change: int,
    window: DayWindow,
    seed: int,
) -> CountSeries:
    """Aggregate Poisson daily counts whose rate switches at ``t_change``."""
    if rate_before <= 0 or rate_after <= 0:
        raise ValueError("rates must be positive")
    if not 0 < t_change < window.n_days:
        raise ValueError("t_change must fall strictly inside the window")
    rng = np.random.default_rng(seed)
    rates = np.where(np.arange(window.n_days) < t_change, rate_before, rate_after)
    values = rng.poisson(rates)
    return CountSeries(window=window, values=values)
