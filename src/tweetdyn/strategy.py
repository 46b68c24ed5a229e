"""Daily posting-strategy mixes on the 3-simplex and their symbol dynamics.

A user's activity on one day is summarized by the fraction of tweets in each
category: ``p = (original, spreading, amplifying)``, a point on the standard
2-simplex. The simplex is partitioned into seven regions:

* ``A``/``B``/``C`` - corner regions where one component dominates
  (original / spreading / amplifying respectively, component >=
  :data:`CORNER_THRESHOLD`, 2/3);
* ``D``/``E``/``F`` - edge regions where one component is nearly absent
  (minimum component <= :data:`EDGE_THRESHOLD`, 1/6): ``D`` is the edge
  opposite *original* (little original posting), ``E`` opposite
  *amplifying*, ``F`` opposite *spreading*;
* ``G`` - the interior (balanced mix).

Corner tests run first, so a point qualifying for both goes to its corner.
Ties take the first component in (original, spreading, amplifying) order.

Symbol distributions pooled over user-days feed a chi-square statistic
comparing an observed era against a reference era:
``chi2 = sum_s (O_s - E_s)^2 / E_s`` with ``E_s = total(O) * ref_share(s)``.
A shift is called against :data:`CRITICAL_VALUE_P999_DF6`, the p = 0.999
quantile of the chi-square distribution with 6 degrees of freedom (seven
symbols).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

ALPHABET = ("A", "B", "C", "D", "E", "F", "G")

# ALPHABET index of the corner symbol per dominant component (A, B, C), of
# the edge symbol per near-absent component (D, F, E), and of the interior G
_CORNER = np.array([0, 1, 2])
_EDGE = np.array([3, 5, 4])
_INTERIOR = 6

# a component at or above CORNER_THRESHOLD takes its corner; otherwise a
# minimum component at or below EDGE_THRESHOLD takes its edge
CORNER_THRESHOLD = 2.0 / 3.0
EDGE_THRESHOLD = 1.0 / 6.0

# chi2.ppf(0.999, 6), equal to 2 * scipy.special.gammaincinv(3, 0.999)
CRITICAL_VALUE_P999_DF6 = 22.457744484825323


@dataclass(frozen=True)
class SymbolDistribution:
    """Counts of user-days per symbol; immutable once built."""

    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        unknown = set(self.counts) - set(ALPHABET)
        if unknown:
            raise ValueError(f"unknown symbols {sorted(unknown)}")
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("negative symbol count")
        full = {s: int(self.counts.get(s, 0)) for s in ALPHABET}
        if sum(full.values()) == 0:
            raise ValueError("empty symbol distribution")
        object.__setattr__(self, "counts", full)

    @classmethod
    def of_symbols(cls, symbols: np.ndarray) -> "SymbolDistribution":
        """Counts of a :func:`symbol_table`; its -1 cells are skipped."""
        counts = np.bincount(symbols[symbols >= 0], minlength=len(ALPHABET))
        if not counts.any():
            raise ValueError("no active user-days in window; distribution undefined")
        return cls(counts=dict(zip(ALPHABET, counts.tolist())))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def normalized(self) -> dict[str, float]:
        n = self.total
        return {s: c / n for s, c in self.counts.items()}


def category_table(
    corpus: Corpus,
    campaign_users: set[str],
    users: Sequence[str],
    window: DayWindow,
) -> np.ndarray:
    """(len(users), n_days, 3) per-day category counts of each distinct user."""
    t, keep = corpus.window_offsets(window)
    pos = corpus.positions(users)
    keep &= pos >= 0
    category = corpus.categories(campaign_users)
    shape = (len(users), window.n_days, 3)
    flat = (pos[keep] * window.n_days + t[keep]) * 3 + category[keep]
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


def symbol_table(table: np.ndarray) -> np.ndarray:
    """Index into :data:`ALPHABET` of each cell's symbol; -1 where no tweets.

    ``table`` holds (original, spreading, amplifying) counts on its last axis.
    """
    total = table.sum(axis=-1)
    active = total > 0
    p = table[active] / total[active, None]
    rows = np.arange(len(p))
    hi = np.argmax(p, axis=1)
    lo = np.argmin(p, axis=1)
    out = np.full(total.shape, -1, dtype=np.int64)
    out[active] = np.where(
        p[rows, hi] >= CORNER_THRESHOLD,
        _CORNER[hi],
        np.where(p[rows, lo] <= EDGE_THRESHOLD, _EDGE[lo], _INTERIOR),
    )
    return out


def symbol_pairs(symbols: np.ndarray) -> list[tuple[int, str]]:
    """(day offset, symbol) pairs of one row of :func:`symbol_table`, in day
    order; days with no tweets are skipped, the strategy is undefined there."""
    days = np.flatnonzero(symbols >= 0)
    return [(t, ALPHABET[s]) for t, s in zip(days.tolist(), symbols[days].tolist())]


def symbol_string(sequence: Sequence[tuple[int, str]]) -> str:
    """Active-day symbols concatenated in day order."""
    return "".join(sym for _, sym in sequence)


def chi_square_shift(
    observed: SymbolDistribution, reference: SymbolDistribution
) -> float:
    """Chi-square distance of observed symbol counts from reference shares.

    Expected counts are ``total(observed) * share_reference(symbol)``. A
    symbol observed but absent from the reference would divide by zero; its
    expected count is floored at 0.5 and a warning logged. Symbols absent
    from both contribute nothing.
    """
    shares = reference.normalized
    total = observed.total
    chi2 = 0.0
    for sym in ALPHABET:
        o = observed.counts[sym]
        e = total * shares[sym]
        if e == 0.0:
            if o == 0:
                continue
            logger.warning(
                "chi_square_shift: symbol %s absent from reference, "
                "flooring expected count at 0.5",
                sym,
            )
            e = 0.5
        chi2 += (o - e) ** 2 / e
    return chi2
