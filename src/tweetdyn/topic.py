"""Grouping users by what they post: stems, keywords, similarity communities.

The stages compose into one text pipeline over NumPy arrays:

1. :func:`count_terms` - per user, join their window tweets into one string,
   lowercase it, strip URLs and @mentions and take the runs of ``[0-9a-z]``
   of length >= ``MIN_TOKEN_LEN`` that are not all digits. One dict codes
   each distinct run straight to its stem, stemming it once and dropping
   static stopwords before stemming; ``np.unique`` over one user's codes at
   a time adds up the counts of the runs that stem alike, into a
   :class:`TermCounts`.
2. :func:`dynamic_stopwords` - terms used by strictly more than ``p * n_c``
   of the ``n_c`` cohort users are corpus-specific stopwords.
3. :func:`gamma_keywords` - per user, fit a Gamma(k, theta) to their term
   counts by method of moments and keep terms at or above the q-quantile;
   the union over users is the shared vocabulary.
4. :func:`build_term_user_matrix` + :func:`similarity_graph` - cosine
   similarities between users' unit-normalized keyword-count columns, sparsified
   by a mutual k-nearest-neighbor bound.
5. :func:`tweetdyn.graphs.modularity_communities` - greedy modularity over
   the surviving edges, and :func:`top_terms` per community.

The kNN bound: with the diagonal zeroed, ``B_i`` is the k-th largest entry of
row i; the edge (i, j) survives iff ``A_ij >= min(B_i, B_j)`` and ``A_ij > 0``.
Rows with fewer than k positive entries use the smallest available value, so
every positive similarity of a sparse row stays eligible.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import porter
from .corpus import Codes, Corpus
from .graphs import WeightedGraph, modularity_communities
from .stopwords import ENGLISH_STOPWORDS
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
MIN_TOKEN_LEN = 2
_SIM_BLOCK_CELLS = 1 << 20  # similarity_graph's row blocks: about 8 MB of float64
# Maps the bytes of lowercased text, encoded as ASCII with "?" for any other
# character, to themselves for [0-9a-z] and to a space for the rest, so
# bytes.split() yields the runs of [0-9a-z].
_RUN_BYTES = bytes(
    i if chr(i) in "0123456789abcdefghijklmnopqrstuvwxyz" else ord(" ") for i in range(256)
)


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Positive (user, term) counts, one entry per pair.

    ``users`` and ``terms`` are sorted tables; ``user`` and ``term`` index
    them, and the pairs are sorted by user, then term. Every user in
    ``users`` is a document, also one whose tokens were all stopwords and
    who therefore has no pair.
    """

    users: tuple[str, ...]
    terms: tuple[str, ...]
    user: np.ndarray
    term: np.ndarray
    count: np.ndarray

    def bounds(self) -> list[int]:
        """Pair offsets per user: user i owns pairs ``[b[i], b[i + 1])``."""
        return np.searchsorted(self.user, np.arange(len(self.users) + 1)).tolist()

    def where(self, keep: np.ndarray) -> "TermCounts":
        """The pairs where the boolean mask ``keep`` is True."""
        return replace(
            self, user=self.user[keep], term=self.term[keep], count=self.count[keep]
        )

    def without(self, stopwords: frozenset[str]) -> "TermCounts":
        """The pairs whose term is not in ``stopwords``."""
        stop = np.fromiter((t in stopwords for t in self.terms), bool, len(self.terms))
        return self.where(~stop[self.term])


@dataclass(frozen=True)
class GammaFit:
    """Method-of-moments Gamma fit of one user's term counts."""

    k_shape: float
    theta_scale: float

    def __post_init__(self) -> None:
        if not (self.k_shape > 0 and self.theta_scale > 0):
            raise ValueError("Gamma parameters must be positive")

    def quantile(self, q: float) -> float:
        return _gamma_p_inverse(self.k_shape, q) * self.theta_scale


_EPS = 2.0**-53
_TINY = 1e-300


def _log_gamma_tail(a: float, x: float, upper: bool) -> tuple[float, float]:
    """log P(a, x), or log Q(a, x) when ``upper``, for a, x > 0, with its
    derivative in log x.

    P / f and Q / f, with ``f = x^a e^-x / Gamma(a)``, come from a power
    series below ``x = a + 1`` and a modified-Lentz continued fraction above
    (Numerical Recipes §6.2), so no factor underflows.
    """
    log_f = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = ratio = 1.0 / a
        ap = a
        while term > ratio * _EPS:
            ap += 1.0
            term *= x / ap
            ratio += term
        is_upper = False
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        ratio, i = d, 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            ratio *= d * c
            if abs(d * c - 1.0) <= _EPS:
                break
        is_upper = True
    log_tail = math.log(ratio) + log_f
    if is_upper != upper:
        log_tail = math.log1p(-math.exp(log_tail))
    slope = math.exp(log_f - log_tail)
    return log_tail, -slope if upper else slope


def _gamma_p_inverse(a: float, p: float) -> float:
    """The x with P(a, x) = p, for a > 0 and 0 < p < 1.

    Newton steps in log x on log P, or on log Q = log(1 - p) for p > 0.5,
    where 1 - p is exact. Both are concave in log x (the log of a gamma
    variate has a log-concave density), so the steps converge from any
    start. P(a, x) <= x^a / Gamma(a + 1), with equality to the last bit
    below x = 1e-100; that power's inverse starts the lower tail from below,
    and the Numerical Recipes guess starts the upper tail.
    """
    x = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    if x < 1e-100:
        return x
    upper = p > 0.5
    if upper:
        if a > 1.0:
            t = math.sqrt(-2.0 * math.log(1.0 - p))
            z = t - (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481))
            x = max(1e-3, a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3)
        else:
            t = 1.0 - a * (0.253 + a * 0.12)
            x = (p / t) ** (1.0 / a) if p < t else 1.0 - math.log1p(-(p - t) / (1.0 - t))
    target = math.log1p(-p) if upper else math.log(p)
    for _ in range(100):
        log_tail, slope = _log_gamma_tail(a, x, upper)
        step = max(-10.0, min(10.0, (log_tail - target) / slope))
        x *= math.exp(-step)
        if abs(step) < 1e-9:  # the error left is about step^2
            break
    return x


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

    dynamic_stopwords: frozenset[str]
    vocabulary: tuple[str, ...]
    matrix: TermUserMatrix
    graph: WeightedGraph
    partition: tuple[frozenset[str], ...]
    modularity: float
    top_terms: tuple[tuple[tuple[str, int], ...], ...]


def count_terms(corpus: Corpus, users: Iterable[str], window: DayWindow) -> TermCounts:
    """Stemmed term counts of each user's tweets in the window.

    A token is a run of ``[0-9a-z]`` of length >= ``MIN_TOKEN_LEN`` in the
    lowercased text once URLs and @mentions are blanked; hashtag bodies are
    plain tokens (``#`` separates), and all-digit tokens are dropped. Static
    stopwords are matched before stemming. Users with no token in the window
    are dropped with a warning.
    """
    users = sorted(set(users))
    _, keep = corpus.window_offsets(window)
    pos = corpus.positions(users)
    rows = np.flatnonzero(keep & (pos >= 0))
    rows = rows[np.argsort(pos[rows], kind="stable")]
    ends = np.cumsum(np.bincount(pos[rows], minlength=len(users))).tolist()

    # Neither a URL nor a mention spans the " " that joins two tweets, so the
    # runs do not depend on the order of a user's tweets. One user's texts
    # are strings at a time, and only their terms and counts are kept.
    code_of = _StemCodes()
    codes, counts, n_codes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], []
    start = 0
    for end in ends:
        text = " ".join(corpus.text.take(rows[start:end])).lower()
        text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))
        runs = text.encode("ascii", "replace").translate(_RUN_BYTES).split()
        # the counts of a user's runs that stem alike add up
        user_codes, user_counts = np.unique(
            np.fromiter(map(code_of.__getitem__, runs), np.int64, len(runs)), return_counts=True
        )
        codes.append(user_codes)
        counts.append(user_counts)
        n_codes.append(len(user_codes))
        start = end

    stems, place = code_of.stems.sorted_table()
    del code_of  # the run dict, before the pair arrays
    code, count = np.concatenate(codes), np.concatenate(counts)
    del codes, counts
    user_of = np.repeat(np.arange(len(users)), n_codes)
    has_text = np.bincount(user_of[code != _NO_TOKEN], minlength=len(users)) > 0
    for i in np.flatnonzero(~has_text).tolist():
        logger.warning("count_terms: user %s has no usable text", users[i])
    is_term = code >= 0
    n_terms = max(len(stems), 1)
    keys = (np.cumsum(has_text) - 1)[user_of[is_term]] * n_terms
    keys += place[code[is_term]]
    count = count[is_term]
    del code, user_of, is_term
    # each (user, term) pair is one entry, so the keys are distinct
    pairs = np.argsort(keys)
    user, term = np.divmod(keys[pairs], n_terms)
    return TermCounts(
        users=tuple(u for u, h in zip(users, has_text.tolist()) if h),
        terms=stems,
        user=user,
        term=term,
        count=count[pairs],
    )


_STOPWORD, _NO_TOKEN = -1, -2


class _StemCodes(dict):
    """Run -> the code of its stem, stems coded in the order first seen;
    ``_STOPWORD`` for a static stopword and ``_NO_TOKEN`` for a run that is
    no token. Each distinct run is tested and stemmed once."""

    def __init__(self) -> None:
        super().__init__()
        self.stems = Codes()

    def __missing__(self, run: bytes) -> int:
        word = run.decode("ascii")
        if len(word) < MIN_TOKEN_LEN or word.isdigit():
            code = _NO_TOKEN
        elif word in ENGLISH_STOPWORDS:
            code = _STOPWORD
        else:
            code = self.stems[porter.stem(word)]
        self[run] = code
        return code


def dynamic_stopwords(counts: TermCounts, p: float) -> frozenset[str]:
    """Terms appearing in strictly more than ``p * n_c`` of the user docs.

    The inequality is strict: with ``n_c`` even and ``p = 0.5``, a term used
    by exactly half the users is kept.
    """
    if not counts.users:
        raise ValueError("no user documents")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    df = np.bincount(counts.term, minlength=len(counts.terms))
    return frozenset(
        counts.terms[i] for i in np.flatnonzero(df > p * len(counts.users)).tolist()
    )


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


def gamma_keywords(counts: TermCounts, q: float) -> frozenset[str]:
    """The vocabulary: the union over users of their keywords, the terms
    whose count is at or above the user's Gamma q-quantile.

    The fit reads the user's counts in ascending order. A user whose counts
    admit no moment fit (one term, or all counts equal) keeps every term.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    values = counts.count[np.lexsort((counts.count, counts.user))].astype(np.float64)
    bounds = counts.bounds()
    threshold = np.zeros(len(counts.users))
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b - a > 1 and values[a] < values[b - 1]:
            threshold[i] = gamma_fit(values[a:b]).quantile(q)
    keyword = counts.count >= threshold[counts.user]
    return frozenset(counts.terms[t] for t in counts.term[keyword].tolist())


def build_term_user_matrix(
    counts: TermCounts,
    vocabulary: Iterable[str],
) -> TermUserMatrix:
    """Count matrix restricted to the vocabulary; rows terms, columns users."""
    terms = tuple(sorted(set(vocabulary)))
    if not terms or not counts.users:
        raise ValueError("empty vocabulary or user set")
    index = {t: i for i, t in enumerate(terms)}
    row = np.fromiter(
        (index.get(t, -1) for t in counts.terms), np.int64, len(counts.terms)
    )[counts.term]
    sel = row >= 0
    matrix = np.zeros((len(terms), len(counts.users)), dtype=np.float64)
    matrix[row[sel], counts.user[sel]] = counts.count[sel]
    return TermUserMatrix(terms=terms, users=counts.users, counts=matrix)


def similarity_graph(matrix: TermUserMatrix, k: int) -> WeightedGraph:
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
    del xn
    n = len(users)
    if n < 2:
        return WeightedGraph(vertices=users, u=(), v=(), w=())
    kth = min(k, n - 1)
    np.fill_diagonal(sim, -np.inf)  # sorts first, so it never sets a bound
    # ``sim`` is the one n x n array; the rest goes a block of rows at a time.
    step = max(1, _SIM_BLOCK_CELLS // n)
    bounds = np.empty(n)
    for lo in range(0, n, step):
        bounds[lo : lo + step] = np.partition(sim[lo : lo + step], n - kth, axis=1)[:, n - kth]
    u, v, w = [], [], []
    for lo in range(0, n, step):
        block = sim[lo : lo + step]
        # Read sim[i, j] with i < j only: a BLAS product need not be symmetric.
        keep = np.triu(
            (block > 0) & (block >= np.minimum(bounds[lo : lo + step, None], bounds)), 1 + lo
        )
        rows, cols = np.nonzero(keep)
        u.append(rows + lo)
        v.append(cols)
        w.append(block[rows, cols])
    return WeightedGraph(
        vertices=users, u=np.concatenate(u), v=np.concatenate(v), w=np.concatenate(w)
    )


def top_terms(
    partition: Sequence[Iterable[str]],
    counts: TermCounts,
    m: int,
) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Per-community term ranking: pooled counts, ties broken alphabetically.

    The parts must be disjoint; users without counts are ignored.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    index = {u: i for i, u in enumerate(counts.users)}
    part_of = np.full(len(counts.users), -1, dtype=np.int64)
    for p, part in enumerate(partition):
        part_of[[index[u] for u in part if u in index]] = p
    part = part_of[counts.user]
    sel = part >= 0
    n_terms = max(len(counts.terms), 1)
    keys, pair_key = np.unique(part[sel] * n_terms + counts.term[sel], return_inverse=True)
    pooled = np.zeros(len(keys), dtype=np.int64)
    np.add.at(pooled, pair_key, counts.count[sel])
    part, term = np.divmod(keys, n_terms)
    # by part, then count descending, then term (the term table is sorted)
    ranked = np.lexsort((term, -pooled, part))
    part, term, pooled = part[ranked], term[ranked].tolist(), pooled[ranked].tolist()
    bounds = np.searchsorted(part, np.arange(len(partition) + 1)).tolist()
    return tuple(
        tuple((counts.terms[t], c) for t, c in zip(term[a:b][:m], pooled[a:b][:m]))
        for a, b in zip(bounds, bounds[1:])
    )


def topic_communities(
    corpus: Corpus,
    users: Iterable[str],
    window: DayWindow,
    dynamic_p: float,
    gamma_q: float,
    knn_k: int,
    top_m: int,
) -> TopicClustering:
    """Run the whole text pipeline for a cohort in a window: ``dynamic_p`` is
    :func:`dynamic_stopwords`' p, ``gamma_q`` :func:`gamma_keywords`' q,
    ``knn_k`` :func:`similarity_graph`'s k and ``top_m`` :func:`top_terms`' m."""
    raw = count_terms(corpus, users, window)
    if len(raw.users) < 2:
        raise ValueError("need at least 2 users with text to cluster")
    dyn = dynamic_stopwords(raw, dynamic_p)
    counts = raw.without(dyn)
    vocabulary = gamma_keywords(counts, gamma_q)
    if not vocabulary:
        raise ValueError("no keywords survive filtering; nothing to cluster")
    matrix = build_term_user_matrix(counts, vocabulary)
    graph = similarity_graph(matrix, knn_k)
    partition, q = modularity_communities(graph)
    return TopicClustering(
        dynamic_stopwords=dyn,
        vocabulary=tuple(sorted(vocabulary)),
        matrix=matrix,
        graph=graph,
        partition=tuple(partition),
        modularity=q,
        top_terms=top_terms(partition, counts, top_m),
    )
