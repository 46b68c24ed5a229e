"""Grouping users by what they post: stems, keywords, similarity communities.

The stages compose into one text pipeline:

1. :func:`build_documents` - concatenate each user's tweets in a window into
   one document and tokenize it.
2. :func:`stem_and_filter` - drop static stopwords, stem the rest, count.
3. :func:`dynamic_stopwords` - terms used by strictly more than ``p * n_c``
   of the ``n_c`` cohort users are corpus-specific stopwords.
4. :func:`gamma_keywords` - per user, fit a Gamma(k, theta) to their term
   counts by method of moments and keep terms at or above the q-quantile;
   the union over users is the shared vocabulary.
5. :func:`build_term_user_matrix` + :func:`similarity_graph` - cosine
   similarities between users' unit-normalized keyword-count columns, sparsified
   by a mutual k-nearest-neighbor bound.
6. :func:`tweetdyn.graphs.modularity_communities` - greedy modularity over
   the surviving edges.

The kNN bound: with the diagonal zeroed, ``B_i`` is the k-th largest entry of
row i; the edge (i, j) survives iff ``A_ij >= min(B_i, B_j)`` and ``A_ij > 0``.
Rows with fewer than k positive entries use the smallest available value, so
every positive similarity of a sparse row stays eligible.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import porter
from .corpus import Corpus
from .graphs import WeightedGraph, modularity_communities
from .stopwords import ENGLISH_STOPWORDS
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_SPLIT_RE = re.compile(r"[^0-9a-z]+")
MIN_TOKEN_LEN = 2


@dataclass(frozen=True)
class TopicConfig:
    """Knobs of the text pipeline."""

    dynamic_p: float = 0.5
    gamma_q: float = 0.9
    knn_k: int = 10
    top_m: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.dynamic_p <= 1.0:
            raise ValueError("dynamic_p must be in (0, 1]")
        if not 0.0 < self.gamma_q < 1.0:
            raise ValueError("gamma_q must be in (0, 1)")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")


DEFAULT_TOPIC_CONFIG = TopicConfig()


@dataclass(frozen=True)
class Document:
    """One user's pooled tweet text in a window."""

    user_id: str
    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class GammaFit:
    """Method-of-moments Gamma fit of one user's term counts."""

    k_shape: float
    theta_scale: float

    def __post_init__(self) -> None:
        if not (self.k_shape > 0 and self.theta_scale > 0):
            raise ValueError("Gamma parameters must be positive")

    @property
    def mean(self) -> float:
        return self.k_shape * self.theta_scale

    def quantile(self, q: float) -> float:
        from scipy.special import gammaincinv

        return float(gammaincinv(self.k_shape, q) * self.theta_scale)


@dataclass(frozen=True)
class TermUserMatrix:
    """Term-by-user count matrix over a fixed vocabulary."""

    terms: tuple[str, ...]
    users: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (len(self.terms), len(self.users)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.terms)} terms x {len(self.users)} users"
            )
        if np.any(counts < 0):
            raise ValueError("negative term count")
        object.__setattr__(self, "counts", counts.astype(np.float64))

    @property
    def normalized(self) -> np.ndarray:
        """Columns scaled to unit Euclidean norm; all-zero columns stay zero."""
        norms = np.linalg.norm(self.counts, axis=0, keepdims=True)
        safe = np.where(norms == 0, 1.0, norms)
        return self.counts / safe

    @property
    def zero_users(self) -> tuple[str, ...]:
        norms = np.linalg.norm(self.counts, axis=0)
        return tuple(u for u, nz in zip(self.users, norms) if nz == 0)


@dataclass(frozen=True)
class TopicClustering:
    """Everything the text pipeline produced, stage by stage."""

    documents: tuple[Document, ...]
    term_counts: Mapping[str, Counter]
    dynamic_stopwords: frozenset[str]
    keywords_by_user: Mapping[str, frozenset[str]]
    vocabulary: tuple[str, ...]
    matrix: TermUserMatrix
    graph: WeightedGraph
    partition: tuple[frozenset[str], ...]
    modularity: float
    top_terms: tuple[tuple[tuple[str, int], ...], ...]


def tokenize(text: str) -> list[str]:
    """Lowercase, strip URLs and @mentions, split on non-alphanumerics.

    Hashtag bodies are kept as plain tokens (the ``#`` is a split character).
    All-digit tokens and tokens shorter than ``MIN_TOKEN_LEN`` are dropped.
    """
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text.lower()))
    tokens = [t for t in _SPLIT_RE.split(text) if t]
    return [t for t in tokens if len(t) >= MIN_TOKEN_LEN and not t.isdigit()]


def build_documents(
    corpus: Corpus,
    users: Iterable[str],
    window: DayWindow,
) -> list[Document]:
    """One document per user: their window tweets joined in time order.

    Tweets sort by (timestamp, tweet id, text). Users with no text in the
    window are dropped with a warning. Documents come back sorted by user id.
    """
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
    texts: list[list[str]] = [[] for _ in users]
    for p, _, _, text in pieces:
        texts[p].append(text)
    docs: list[Document] = []
    for user_id, parts in zip(users, texts):
        text = " ".join(parts)
        tokens = tokenize(text)
        if not tokens:
            logger.warning("build_documents: user %s has no usable text", user_id)
            continue
        docs.append(Document(user_id=user_id, text=text, tokens=tuple(tokens)))
    return docs


def stem_and_filter(
    doc: Document, stopwords: frozenset[str] = ENGLISH_STOPWORDS
) -> Counter:
    """Counts of stemmed tokens, stopwords removed before stemming."""
    return Counter(
        porter.stem(tok) for tok in doc.tokens if tok not in stopwords
    )


def dynamic_stopwords(
    term_counts: Mapping[str, Counter], p: float = 0.5
) -> frozenset[str]:
    """Terms appearing in strictly more than ``p * n_c`` of the user docs.

    The inequality is strict: with ``n_c`` even and ``p = 0.5``, a term used
    by exactly half the users is kept.
    """
    if not term_counts:
        raise ValueError("no user documents")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    n_c = len(term_counts)
    df: Counter = Counter()
    for counts in term_counts.values():
        df.update(set(counts))
    return frozenset(t for t, d in df.items() if d > p * n_c)


def gamma_fit(counts: Sequence[float]) -> GammaFit:
    """Method-of-moments Gamma fit: k = mean^2/var, theta = var/mean.

    Variance is the sample variance (ddof=1); at least two values with
    positive spread are required.
    """
    arr = np.asarray(counts, dtype=np.float64)
    if len(arr) < 2:
        raise ValueError("need at least 2 counts for a moment fit")
    if np.any(arr <= 0):
        raise ValueError("counts must be positive")
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    if var == 0:
        raise ValueError("zero variance; Gamma fit undefined")
    return GammaFit(k_shape=mean * mean / var, theta_scale=var / mean)


def gamma_keywords(
    term_counts: Mapping[str, Counter],
    q: float = 0.9,
) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
    """Per-user keyword sets (counts at or above the user's Gamma q-quantile)
    and their union.

    Users whose counts admit no moment fit (fewer than two distinct terms, or
    all counts equal) fall back to keeping terms with count >= their mean.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    per_user: dict[str, frozenset[str]] = {}
    union: set[str] = set()
    for user_id in sorted(term_counts):
        counts = term_counts[user_id]
        if not counts:
            per_user[user_id] = frozenset()
            continue
        values = np.array(sorted(counts.values()), dtype=np.float64)
        try:
            threshold = gamma_fit(values).quantile(q)
        except ValueError:
            threshold = float(values.mean())
            logger.debug(
                "gamma_keywords: user %s has degenerate counts, "
                "keeping terms at or above the mean",
                user_id,
            )
        kept = frozenset(t for t, c in counts.items() if c >= threshold)
        per_user[user_id] = kept
        union |= kept
    return per_user, frozenset(union)


def build_term_user_matrix(
    term_counts: Mapping[str, Counter],
    vocabulary: Iterable[str],
) -> TermUserMatrix:
    """Count matrix restricted to the vocabulary; rows terms, columns users."""
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


def similarity_graph(matrix: TermUserMatrix, k: int = 10) -> WeightedGraph:
    """Mutual-kNN-sparsified cosine similarity graph between users.

    ``A = X~^T X~`` with unit-norm columns. ``B_i`` is the k-th largest
    off-diagonal entry of row i. The edge (i, j) survives iff
    ``A_ij >= min(B_i, B_j)`` and is strictly positive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    users = matrix.users
    if matrix.zero_users:
        logger.warning(
            "similarity_graph: users with empty keyword columns stay isolated: %s",
            ", ".join(matrix.zero_users),
        )
    xn = matrix.normalized
    sim = xn.T @ xn
    n = len(users)
    if n < 2:
        return WeightedGraph.from_edges({}, extra_vertices=users)
    kth = min(k, n - 1)
    np.fill_diagonal(sim, -np.inf)  # sorts first, so it never sets a bound
    bounds = np.partition(sim, n - kth, axis=1)[:, n - kth]
    # Read sim[i, j] with i < j only: a BLAS product need not be symmetric.
    keep = np.triu((sim > 0) & (sim >= np.minimum.outer(bounds, bounds)), 1)
    rows, cols = np.nonzero(keep)
    edges = {
        (users[i], users[j]): a
        for i, j, a in zip(rows.tolist(), cols.tolist(), sim[rows, cols].tolist())
    }
    return WeightedGraph.from_edges(edges, extra_vertices=users)


def top_terms(
    partition: Sequence[Iterable[str]],
    term_counts: Mapping[str, Counter],
    m: int = 25,
) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Per-community term ranking: pooled counts, ties broken alphabetically."""
    out = []
    for part in partition:
        pooled: Counter = Counter()
        for user_id in part:
            pooled.update(term_counts.get(user_id, Counter()))
        ranked = sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))[:m]
        out.append(tuple((t, int(c)) for t, c in ranked))
    return tuple(out)


def topic_communities(
    corpus: Corpus,
    users: Iterable[str],
    window: DayWindow,
    config: TopicConfig = DEFAULT_TOPIC_CONFIG,
) -> TopicClustering:
    """Run the whole text pipeline for a cohort in a window."""
    docs = build_documents(corpus, users, window)
    if len(docs) < 2:
        raise ValueError("need at least 2 users with text to cluster")
    raw_counts = {d.user_id: stem_and_filter(d) for d in docs}
    dyn = dynamic_stopwords(raw_counts, config.dynamic_p)
    filtered = {
        u: Counter({t: c for t, c in counts.items() if t not in dyn})
        for u, counts in raw_counts.items()
    }
    keywords, vocabulary = gamma_keywords(filtered, config.gamma_q)
    if not vocabulary:
        raise ValueError("no keywords survive filtering; nothing to cluster")
    matrix = build_term_user_matrix(filtered, vocabulary)
    graph = similarity_graph(matrix, config.knn_k)
    partition, q = modularity_communities(graph)
    ranked = top_terms(partition, filtered, config.top_m)
    return TopicClustering(
        documents=tuple(docs),
        term_counts=filtered,
        dynamic_stopwords=dyn,
        keywords_by_user=keywords,
        vocabulary=tuple(sorted(vocabulary)),
        matrix=matrix,
        graph=graph,
        partition=tuple(partition),
        modularity=q,
        top_terms=ranked,
    )
