"""Synthetic data with known ground truth for every pipeline stage.

Two generators, both driven by ``numpy.random.default_rng(seed)`` so equal
specs and seeds reproduce byte-identical data:

* :func:`generate_corpus` - a tweet :class:`~tweetdyn.corpus.Corpus` with
  planted group vocabularies, per-era strategy mixes and an optional strategy
  change point; tweet volume per day either constant or driven by an embedded
  rate spec: a constant baseline plus planted cosines plus Gaussian noise,
  rounded half-to-even (``np.rint``) and clipped at zero. Term draws follow
  Zipf-like 1/rank weights over each group's vocabulary; outsider retweets
  name one of :data:`AMPLIFIED_OUTSIDERS`.
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

from .corpus import US_PER_DAY, Corpus
from .timeseries import CountSeries, DayWindow

_US_PER_MINUTE = 60_000_000
# accounts outside the campaign that its members' outsider retweets amplify
AMPLIFIED_OUTSIDERS = tuple(f"outsider-{i:02d}" for i in range(12))


@dataclass(frozen=True)
class GroupSpec:
    """Rate model of one user group: constant baseline + planted cosines."""

    group_id: str
    frequencies: tuple[float, ...] = ()
    amplitude_ranges: tuple[tuple[float, float], ...] = ()
    baseline_level: float = 30.0
    noise_sigma: float = 0.0
    members: int = 10

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
    """Text/strategy model of one user group."""

    group_id: str
    vocabulary: tuple[str, ...]
    members: int = 10
    strategy_pre: tuple[float, float, float] = (1.0, 0.0, 0.0)
    strategy_post: tuple[float, float, float] | None = None
    dynamics: GroupSpec | None = None

    def __post_init__(self) -> None:
        if not self.vocabulary:
            raise ValueError("empty vocabulary")
        for mix in (self.strategy_pre, self.strategy_post):
            if mix is None:
                continue
            if len(mix) != 3 or any(c < 0 for c in mix) or not math.isclose(
                sum(mix), 1.0, abs_tol=1e-9
            ):
                raise ValueError(f"strategy mix {mix} is not a simplex point")
        if self.dynamics is not None and self.dynamics.members != self.members:
            raise ValueError("dynamics member count must match the group's")

    def weights(self) -> np.ndarray:
        """Emission weights of the vocabulary: Zipf-like 1/rank, normalized."""
        w = 1.0 / np.arange(1, len(self.vocabulary) + 1)
        return w / w.sum()


@dataclass(frozen=True)
class CorpusSpec:
    """A whole synthetic campaign: groups plus shared noise vocabulary."""

    groups: tuple[GroupCorpusSpec, ...]
    noise_vocabulary: tuple[str, ...] = ()
    noise_weight: float = 0.0
    tweets_per_day: int = 5
    tokens_per_tweet: int = 8
    changepoint_day: int | None = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("need at least one group")
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate group ids")
        if not 0.0 <= self.noise_weight < 1.0:
            raise ValueError("noise_weight must be in [0, 1)")
        if self.noise_weight > 0 and not self.noise_vocabulary:
            raise ValueError("noise_weight set but no noise vocabulary")
        if self.tweets_per_day < 1 or self.tokens_per_tweet < 1:
            raise ValueError("tweets_per_day and tokens_per_tweet must be >= 1")


def _member_ids(spec: GroupSpec | GroupCorpusSpec) -> list[str]:
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


def _strategy_of(group: GroupCorpusSpec, day: int, changepoint: int | None):
    if (
        changepoint is not None
        and group.strategy_post is not None
        and day >= changepoint
    ):
        return group.strategy_post
    return group.strategy_pre


def generate_corpus(
    spec: CorpusSpec,
    window: DayWindow,
    seed: int,
) -> tuple[Corpus, dict[str, str]]:
    """Tweets of a synthetic campaign as a :class:`Corpus`, plus true labels.

    Per user-day the tweet count comes from the group's embedded rate spec
    (when set) or ``tweets_per_day``. Each tweet draws a category from the
    era's strategy mix: originals carry generated text, member retweets pick
    a uniformly random other campaign user, outsider retweets pick from the
    amplified-outsider pool. Tweet text is drawn from the group vocabulary
    mixed with the shared noise vocabulary at ``noise_weight``.
    """
    rng = np.random.default_rng(seed)
    n_days = window.n_days
    all_users = [uid for g in spec.groups for uid in _member_ids(g)]
    if len(set(all_users)) != len(all_users):
        raise ValueError("group ids collide; member ids must be unique")
    noise_vocab = list(spec.noise_vocabulary)

    counts_by_user: dict[str, np.ndarray] = {}
    group_of: dict[str, str] = {}
    for group in spec.groups:
        for uid in _member_ids(group):
            group_of[uid] = group.group_id
            if group.dynamics is not None:
                counts_by_user[uid] = _member_counts(group.dynamics, n_days, rng)
            else:
                counts_by_user[uid] = np.full(n_days, spec.tweets_per_day, np.int64)

    user: list[str] = []
    source: list[str | None] = []
    timestamp_us: list[int] = []
    text: list[str] = []
    first_day = (window.start - date(1970, 1, 1)).days
    for group in spec.groups:
        vocab = list(group.vocabulary)
        weights = group.weights()
        for uid in _member_ids(group):
            counts = counts_by_user[uid]
            others = [u for u in all_users if u != uid]
            for day in range(n_days):
                mix = _strategy_of(group, day, spec.changepoint_day)
                day_start = (first_day + day) * US_PER_DAY
                n_tweets = int(counts[day])
                if n_tweets == 0:
                    continue
                step = min(60, max(1, (24 * 60) // n_tweets))
                categories = rng.choice(3, size=n_tweets, p=np.asarray(mix))
                for i in range(n_tweets):
                    category = int(categories[i])
                    if category == 1:
                        source.append(others[int(rng.integers(len(others)))])
                    elif category == 2:
                        source.append(
                            AMPLIFIED_OUTSIDERS[
                                int(rng.integers(len(AMPLIFIED_OUTSIDERS)))
                            ]
                        )
                    else:
                        source.append(None)
                    n_tokens = spec.tokens_per_tweet
                    use_noise = (
                        rng.random(n_tokens) < spec.noise_weight
                        if noise_vocab
                        else np.zeros(n_tokens, dtype=bool)
                    )
                    group_draws = rng.choice(len(vocab), size=n_tokens, p=weights)
                    words = [
                        noise_vocab[int(rng.integers(len(noise_vocab)))]
                        if use_noise[j]
                        else vocab[int(group_draws[j])]
                        for j in range(n_tokens)
                    ]
                    user.append(uid)
                    timestamp_us.append(day_start + (i * step) % (24 * 60) * _US_PER_MINUTE)
                    text.append(" ".join(words))
    corpus = Corpus.from_columns(
        tweet_id=[f"syn{serial:08d}" for serial in range(1, len(user) + 1)],
        user=user,
        source=source,
        timestamp_us=timestamp_us,
        language=["en"] * len(user),
        text=text,
    )
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
