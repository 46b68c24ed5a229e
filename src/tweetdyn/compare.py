"""Relating rate-spectrum clusters to text-similarity communities.

The two clusterings live over the same user cohort. :func:`cross_tab` counts
their joint membership; a spectral cluster's *diversity* is how many text
communities it touches and the Shannon entropy (bits) of its row. A
*sub-cluster* is the intersection of one spectral cluster with one text
community; :func:`intersect_subcluster` summarizes its members' rows of the
cohort's :class:`~tweetdyn.spectral.Spectra`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .spectral import (
    BandSummary,
    ClusterAssignment,
    Spectra,
    band_summary,
    dominant_period,
)


@dataclass(frozen=True)
class CrossTab:
    """Joint membership counts: rows spectral clusters, columns communities."""

    spectral_ids: tuple[int, ...]
    topic_ids: tuple[int, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.shape != (len(self.spectral_ids), len(self.topic_ids)):
            raise ValueError("cell shape does not match id lists")
        if np.any(cells < 0):
            raise ValueError("negative cell count")
        object.__setattr__(self, "cells", cells)

    def diversity(self) -> dict[int, dict[str, float]]:
        """Per spectral cluster: communities touched and row entropy in bits."""
        out: dict[int, dict[str, float]] = {}
        for i, sid in enumerate(self.spectral_ids):
            row = self.cells[i]
            total = row.sum()
            hit = int(np.count_nonzero(row))
            if total == 0:
                out[sid] = {"clusters_hit": 0, "entropy_bits": 0.0}
                continue
            p = row[row > 0] / total
            entropy = float(-(p * np.log2(p)).sum())
            out[sid] = {"clusters_hit": hit, "entropy_bits": entropy}
        return out


@dataclass(frozen=True)
class SubclusterSummary:
    """Band summary and dominant period of one spectral-x-topic intersection."""

    users: tuple[str, ...]
    band: BandSummary
    dominant_period_days: float


def cross_tab(
    spectral: ClusterAssignment,
    topic_partition: Sequence[Iterable[str]],
) -> CrossTab:
    """Joint counts over the users common to both clusterings.

    Users present in only one clustering are ignored; an empty intersection
    is an error.
    """
    community_of: dict[str, int] = {}
    for idx, part in enumerate(topic_partition, start=1):
        for user_id in part:
            if user_id in community_of:
                raise ValueError(f"user {user_id} in two communities")
            community_of[user_id] = idx
    shared = sorted(set(spectral.labels) & set(community_of))
    if not shared:
        raise ValueError("clusterings share no users")
    spectral_ids = tuple(range(1, spectral.k + 1))
    topic_ids = tuple(range(1, len(topic_partition) + 1))
    cells = np.zeros((len(spectral_ids), len(topic_ids)), dtype=np.int64)
    for user_id in shared:
        cells[spectral.labels[user_id] - 1, community_of[user_id] - 1] += 1
    return CrossTab(spectral_ids=spectral_ids, topic_ids=topic_ids, cells=cells)


def intersect_subcluster(
    spectral_users: Iterable[str],
    topic_users: Iterable[str],
    spectra: Spectra,
) -> SubclusterSummary:
    """Summarize the spectra of users in both groups.

    The dominant period is read off the per-bin medians of the
    intersection's band. An empty intersection is an error.
    """
    users = tuple(sorted(set(spectral_users) & set(topic_users)))
    if not users:
        raise ValueError("empty sub-cluster")
    band = band_summary(np.abs(spectra.bins[spectra.rows(users)]), spectra.n_samples)
    period = dominant_period(band.medians, band.n_samples)
    return SubclusterSummary(users=users, band=band, dominant_period_days=period)


def adjusted_rand_index(
    labels_a: Mapping[str, int] | Sequence[int],
    labels_b: Mapping[str, int] | Sequence[int],
) -> float:
    """Adjusted Rand index between two labelings of the same items.

    Mappings are matched by key (which must coincide); sequences by position.
    Degenerate cases where the expected index equals the maximum (both
    labelings trivial) return 1.0.
    """
    if isinstance(labels_a, Mapping) != isinstance(labels_b, Mapping):
        raise ValueError("labelings must both be mappings or both sequences")
    if isinstance(labels_a, Mapping):
        if set(labels_a) != set(labels_b):
            raise ValueError("labelings cover different items")
        keys = sorted(labels_a)
        a = [labels_a[k] for k in keys]
        b = [labels_b[k] for k in keys]
    else:
        if len(labels_a) != len(labels_b):
            raise ValueError("labelings have different lengths")
        a, b = list(labels_a), list(labels_b)
    if not a:
        raise ValueError("empty labelings")

    def comb2(x: int) -> float:
        return x * (x - 1) / 2.0

    from collections import Counter

    joint = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)
    n = len(a)
    sum_joint = sum(comb2(v) for v in joint.values())
    sum_rows = sum(comb2(v) for v in rows.values())
    sum_cols = sum(comb2(v) for v in cols.values())
    expected = sum_rows * sum_cols / comb2(n) if n > 1 else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if math.isclose(maximum, expected):
        return 1.0
    return (sum_joint - expected) / (maximum - expected)
