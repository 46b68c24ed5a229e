"""Scoring a clustering against planted labels: the adjusted Rand index."""

import math
from collections import Counter
from typing import Mapping, Sequence


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
