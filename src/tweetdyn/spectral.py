"""Frequency-domain modeling and clustering of detrended tweet-rate series.

The spectra of a cohort are one table, :class:`Spectra`: row ``i`` is the
half spectrum of ``users[i]``. Pipeline, in the order the operations compose:

1. :func:`dft` - unnormalized forward DFT of each row of a
   ``(users, samples)`` table of detrended series, keeping the
   non-negative-frequency half spectrum (bins ``0 .. floor(N/2)``). Bin ``k``
   is a period of ``N / k`` days.
2. :func:`denoise` - in each row, zero every bin whose squared magnitude
   falls strictly below the empirical q-quantile of that row's squared
   magnitudes.
3. :func:`pca_embed` - project the magnitude rows (:attr:`Spectra.magnitudes`)
   onto the leading principal axes of the column-mean-centered covariance.
4. :func:`kmedoids` - PAM clustering with seeded restarts; points are
   pre-sorted canonically so the outcome is invariant to input order.
5. :func:`fit_fourier` / :func:`band_summary` / :func:`dominant_period` -
   per-cluster summaries; :func:`fit_fourier` returns the cosine-sum terms
   of one row's largest bins as a tuple of :class:`FourierTerm`, and
   :func:`dominant_period` reads a band's per-bin medians.

Quantile convention: ``Q(q)`` is the smallest squared magnitude such that at
least a ``q`` fraction of bins are at or below it (``sorted[ceil(q*n)-1]``);
``q = 0`` keeps everything. Bins exactly at the threshold survive.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Spectra:
    """Half spectra of detrended series (unnormalized forward DFT), one row
    per user, all of ``n_samples`` samples."""

    users: tuple[str, ...]
    bins: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        users = tuple(self.users)
        bins = np.array(self.bins, dtype=np.complex128)
        expect = self.n_samples // 2 + 1
        if bins.ndim != 2 or bins.shape[1] != expect:
            raise ValueError(
                f"need {expect} bins for n_samples={self.n_samples}, got {bins.shape}"
            )
        if len(users) != len(bins) or len(set(users)) != len(users):
            raise ValueError("need one distinct user per row")
        bins.flags.writeable = False
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "bins", bins)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.bins)

    def rows(self, users: Iterable[str]) -> np.ndarray:
        """Row index of each of ``users``."""
        index = {u: i for i, u in enumerate(self.users)}
        users = list(users)
        missing = [u for u in users if u not in index]
        if missing:
            raise ValueError(f"no spectrum for users {missing}")
        return np.array([index[u] for u in users], dtype=np.int64)


@dataclass(frozen=True)
class FourierTerm:
    amplitude: float
    omega: float
    phase: float
    bin: int


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional projection of user spectra."""

    ids: tuple[str, ...]
    points: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.shape[0] != len(self.ids):
            raise ValueError("one embedded point per id required")
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class ClusterAssignment:
    """1-based cluster labels plus the medoid id of each cluster."""

    labels: dict[str, int]
    medoids: tuple[str, ...]
    cost: float

    @property
    def k(self) -> int:
        return len(self.medoids)

    def members(self, cluster: int) -> list[str]:
        return sorted(u for u, c in self.labels.items() if c == cluster)


@dataclass(frozen=True)
class BandSummary:
    """Per-bin five-number summary over a set of spectra."""

    mins: np.ndarray
    q1: np.ndarray
    medians: np.ndarray
    q3: np.ndarray
    maxs: np.ndarray
    n_samples: int


def dft(values: np.ndarray, users: Sequence[str]) -> Spectra:
    """Unnormalized forward DFT of each row of a (users, samples) table, half
    spectrum.

    ``X_k = sum_t xi[t] * exp(-2i pi k t / N)`` for ``k = 0 .. floor(N/2)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("need a (users, samples) table of at least 2 samples")
    return Spectra(users=users, bins=np.fft.rfft(values, axis=-1), n_samples=values.shape[1])


def denoise(spectra: Spectra, q: float) -> Spectra:
    """Zero the bins of each row whose squared magnitude is strictly below
    that row's q-quantile."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    power = spectra.magnitudes**2
    threshold = 0.0
    if q > 0.0:
        idx = math.ceil(q * power.shape[1]) - 1
        threshold = np.sort(power, axis=1)[:, idx, None]
    bins = np.where(power < threshold, 0.0 + 0.0j, spectra.bins)
    return Spectra(users=spectra.users, bins=bins, n_samples=spectra.n_samples)


def fit_fourier(spectra: Spectra, row: int, j_terms: int) -> tuple[FourierTerm, ...]:
    """Cosine-sum terms of the ``j_terms`` largest-magnitude bins of one row.

    The series is modeled as ``sum_j A_j cos(omega_j t + phase_j)``.
    Amplitudes follow the half-spectrum convention that makes the all-bins
    model reproduce the series exactly: ``A_k = 2|X_k|/N`` for interior bins,
    ``|X_k|/N`` for bin 0 and (even N) the Nyquist bin. Terms are ordered by
    descending amplitude, ties by bin index.
    """
    n = spectra.n_samples
    bins = spectra.bins[row]
    n_bins = len(bins)
    if not 1 <= j_terms <= n_bins:
        raise ValueError(f"j_terms must be in 1..{n_bins}")
    mags = np.abs(bins)
    order = np.lexsort((np.arange(n_bins), -mags))
    chosen = sorted(order[:j_terms])
    terms = []
    for k in chosen:
        x = bins[k]
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


def pca_embed(matrix: np.ndarray, ids: Sequence[str], dims: int) -> Embedding:
    """Project rows onto the leading principal axes.

    The covariance is over column-mean-centered data. Eigenvalues are
    reported for the full column space, descending; ranks below ``dims`` are
    projected with a warning. Component signs are fixed so each axis's
    largest-magnitude loading is positive.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("matrix must be 2-d")
    n, m = x.shape
    if len(ids) != n:
        raise ValueError("one id per row required")
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if n < dims + 1:
        raise ValueError(f"need at least {dims + 1} rows for a {dims}-d embedding")
    centered = x - x.mean(axis=0, keepdims=True)
    # SVD of the centered matrix == eigendecomposition of its covariance.
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = np.zeros(m)
    eigenvalues[: len(singular)] = singular**2 / (n - 1)
    rank = int(np.sum(singular > singular[0] * 1e-12)) if len(singular) else 0
    if rank < dims:
        logger.warning(
            "pca_embed: data rank %d below requested dims %d; "
            "trailing axes carry no variance",
            rank,
            dims,
        )
    components = vt[:dims].copy()
    for i in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    points = centered @ components.T
    return Embedding(ids=tuple(ids), points=points, eigenvalues=eigenvalues)


def _pairwise_distances(points: np.ndarray, block: int = 64) -> np.ndarray:
    # Row blocks keep the difference tensor at block x n x d; each distance
    # is the same sum over d as with the whole n x n x d tensor.
    n = len(points)
    dist = np.empty((n, n))
    for start in range(0, n, block):
        diff = points[start : start + block, None, :] - points[None, :, :]
        dist[start : start + block] = np.sqrt(np.sum(diff**2, axis=-1))
    return dist


def _assign(dist: np.ndarray, medoids: list[int]) -> np.ndarray:
    # nearest medoid; ties go to the earliest medoid in list order
    sub = dist[:, medoids]
    return np.argmin(sub, axis=1)


def _total_cost(dist: np.ndarray, medoids: list[int]) -> float:
    return float(dist[:, medoids].min(axis=1).sum())


def kmedoids(
    points: np.ndarray,
    ids: Sequence[str],
    k: int,
    seed: int,
    restarts: int,
) -> ClusterAssignment:
    """PAM clustering under Euclidean distance, best of ``restarts`` runs.

    Points are first sorted canonically by (coordinates, id) so the result
    does not depend on input order. Each restart seeds distinct initial
    medoids, alternates assignment and per-cluster medoid updates to
    convergence, then applies swap descent until no single medoid swap lowers
    the summed distance by more than 1e-12. Each descent step takes the
    cheapest swap, the earliest medoid slot and then the earliest candidate
    on ties. It prices all candidates for a slot in one array operation: with
    each point's distance to the nearest medoid other than that slot (from
    the nearest and second-nearest medoid, after Schubert & Rousseeuw,
    "Faster k-Medoids Clustering", arXiv:1810.05691), a candidate's cost is
    its distance row clipped by those distances and summed. The best restart
    wins; ties prefer the smaller medoid id tuple. Labels are 1-based,
    numbered by medoid canonical order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a nonempty 2-d array")
    n = len(pts)
    if len(ids) != n or len(set(ids)) != n:
        raise ValueError("need one distinct id per point")
    distinct = {tuple(row) for row in pts}
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if k > len(distinct):
        raise ValueError(f"k={k} exceeds {len(distinct)} distinct points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    order = sorted(range(n), key=lambda i: (tuple(pts[i]), ids[i]))
    pts = pts[order]
    sorted_ids = [ids[i] for i in order]
    dist = _pairwise_distances(pts)

    # representatives of distinct coordinates, for duplicate-free seeding
    seen: dict[tuple, int] = {}
    for i, row in enumerate(pts):
        seen.setdefault(tuple(row), i)
    candidates = np.array(sorted(seen.values()))

    rng = np.random.default_rng(seed)
    best: tuple[float, tuple[int, ...], list[int]] | None = None
    for _ in range(restarts):
        medoids = sorted(rng.choice(candidates, size=k, replace=False).tolist())
        # alternate assignment / medoid update (guarded against tie cycles)
        for _ in range(200):
            labels = _assign(dist, medoids)
            new_medoids: list[int] = []
            for c in range(k):
                members = np.flatnonzero(labels == c)
                if len(members) == 0:
                    new_medoids.append(medoids[c])
                    continue
                within = dist[np.ix_(members, members)].sum(axis=1)
                new_medoids.append(int(members[np.argmin(within)]))
            new_medoids = sorted(set(new_medoids))
            while len(new_medoids) < k:  # collapsed clusters get re-seeded
                spare = [c for c in candidates if c not in new_medoids]
                far = max(spare, key=lambda i: dist[i, new_medoids].min())
                new_medoids.append(int(far))
                new_medoids.sort()
            if new_medoids == medoids:
                break
            medoids = new_medoids
        # swap descent: for each medoid slot, every candidate at once
        improved = True
        while improved:
            improved = False
            cost = _total_cost(dist, medoids)
            # each point's nearest medoid slot, its distance and the second
            sub = dist[:, medoids]
            nearest = np.argmin(sub, axis=1)
            d1 = sub[np.arange(n), nearest]
            sub[np.arange(n), nearest] = np.inf
            d2 = sub.min(axis=1)
            is_medoid = np.zeros(n, dtype=bool)
            is_medoid[medoids] = True
            best_swap: tuple[float, int, int] | None = None
            for mi in range(k):
                # distance to the nearest medoid other than slot mi
                dmin = np.where(nearest == mi, d2, d1)
                trial_costs = np.minimum(dist, dmin[None, :]).sum(axis=1)
                trial_costs[is_medoid] = np.inf
                c = int(np.argmin(trial_costs))
                trial_cost = float(trial_costs[c])
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
    label_map = {sorted_ids[i]: int(labels[i]) + 1 for i in range(n)}
    return ClusterAssignment(
        labels=label_map,
        medoids=tuple(sorted_ids[m] for m in medoids),
        cost=cost,
    )


def band_summary(magnitudes: np.ndarray, n_samples: int) -> BandSummary:
    """Five-number summary per bin (column) of a magnitude matrix."""
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.ndim != 2 or len(mags) == 0:
        raise ValueError("no spectra to summarize")
    q1, med, q3 = np.percentile(mags, [25, 50, 75], axis=0)
    return BandSummary(
        mins=mags.min(axis=0),
        q1=q1,
        medians=med,
        q3=q3,
        maxs=mags.max(axis=0),
        n_samples=n_samples,
    )


def dominant_period(magnitudes: np.ndarray, n_samples: int) -> float:
    """Period (days) of the largest of a half spectrum's bin magnitudes,
    excluding bin 0."""
    mags = np.asarray(magnitudes)
    if len(mags) < 2:
        raise ValueError("spectrum has no oscillatory bins")
    if np.all(mags[1:] == 0):
        raise ValueError("all oscillatory bins are zero; no dominant period")
    k = 1 + int(np.argmax(mags[1:]))
    return n_samples / k
