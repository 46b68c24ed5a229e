"""Relating rate-spectrum clusters to text-similarity communities.

Both clusterings come as their artifacts list them: each part's members, in
cluster or community order. :func:`cross_tab` counts their joint membership
over the users common to both; :func:`diversity` gives each spectral
cluster's count of text communities touched and the Shannon entropy (bits)
of its row. A *sub-cluster* is the intersection of one spectral cluster with
one text community; :func:`intersect_subcluster` summarizes its members'
rows of the cohort's :class:`~tweetdyn.spectral.Spectra`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .spectral import BandSummary, Spectra, band_summary, dominant_period


def _part_of(parts: Sequence[Iterable[str]], kind: str) -> dict[str, int]:
    """Each user's part index; a user listed in two parts is an error."""
    part_of: dict[str, int] = {}
    for idx, part in enumerate(parts):
        for user_id in part:
            if user_id in part_of:
                raise ValueError(f"user {user_id} is in two {kind}")
            part_of[user_id] = idx
    return part_of


def cross_tab(
    spectral_parts: Sequence[Iterable[str]],
    topic_parts: Sequence[Iterable[str]],
) -> np.ndarray:
    """Joint counts, rows spectral clusters and columns communities.

    Users present in only one clustering are ignored; an empty intersection
    is an error.
    """
    spectral_of = _part_of(spectral_parts, "spectral clusters")
    topic_of = _part_of(topic_parts, "communities")
    shared = spectral_of.keys() & topic_of.keys()
    if not shared:
        raise ValueError("clusterings share no users")
    cells = np.zeros((len(spectral_parts), len(topic_parts)), dtype=np.int64)
    for user_id in shared:
        cells[spectral_of[user_id], topic_of[user_id]] += 1
    return cells


def diversity(cells: np.ndarray) -> dict[int, dict[str, float]]:
    """Per spectral cluster, by 1-based id: communities touched and row
    entropy in bits."""
    out: dict[int, dict[str, float]] = {}
    for sid, row in enumerate(cells, start=1):
        total = row.sum()
        if total == 0:
            out[sid] = {"clusters_hit": 0, "entropy_bits": 0.0}
            continue
        p = row[row > 0] / total
        # 0.0 - x rather than -x: one community gives 0.0, not -0.0
        entropy = float(0.0 - (p * np.log2(p)).sum())
        out[sid] = {"clusters_hit": len(p), "entropy_bits": entropy}
    return out


def intersect_subcluster(
    spectral_users: Iterable[str],
    topic_users: Iterable[str],
    spectra: Spectra,
) -> tuple[tuple[str, ...], BandSummary, float]:
    """The users in both groups, in id order, their band summary and its
    dominant period in days.

    The dominant period is read off the per-bin medians of the
    intersection's band. An empty intersection is an error.
    """
    users = tuple(sorted(set(spectral_users) & set(topic_users)))
    if not users:
        raise ValueError("empty sub-cluster")
    band = band_summary(np.abs(spectra.bins[spectra.rows(users)]), spectra.n_samples)
    return users, band, dominant_period(band.medians, band.n_samples)
