"""Dynamical analysis of coordinated-account tweet streams.

Subpackages by pipeline stage: :mod:`~tweetdyn.corpus` (the normalized
tweet table as NumPy columns), :mod:`~tweetdyn.ingest` (tweet tables parsed
into a corpus, cohorts, retweet networks), :mod:`~tweetdyn.timeseries` (daily
counts as a (users, days) table, detrending, segment fits),
:mod:`~tweetdyn.strategy` (posting-mix simplex and symbol dynamics),
:mod:`~tweetdyn.spectral` (rate spectra as one (users, bins) table, PCA,
k-medoids), :mod:`~tweetdyn.topic` (text keywords and similarity communities),
:mod:`~tweetdyn.compare` (cross-tabulating the two clusterings),
:mod:`~tweetdyn.synth` (ground-truth generators), :mod:`~tweetdyn.cli`.
"""

__version__ = "0.1.0"

from .timeseries import (  # noqa: F401
    CountSeries,
    DayWindow,
    LinearFit,
    accumulate,
    changepoint_significant,
    counts_by_user,
    daily_counts,
    detrend,
    fit_segment,
)
from .corpus import Corpus  # noqa: F401
from .ingest import (  # noqa: F401
    ColumnMap,
    parse_records,
    read_tables,
    retweet_network,
    select_cohort,
    write_records,
)
from .graphs import WeightedGraph, modularity, modularity_communities  # noqa: F401
from .strategy import (  # noqa: F401
    SymbolDistribution,
    chi_square_shift,
)
from .spectral import (  # noqa: F401
    ClusterAssignment,
    Embedding,
    Spectra,
    band_summary,
    denoise,
    dft,
    dominant_period,
    fit_fourier,
    kmedoids,
    pca_embed,
)
from .topic import (  # noqa: F401
    GammaFit,
    TermUserMatrix,
    gamma_keywords,
    similarity_graph,
    topic_communities,
)
from .compare import cross_tab, diversity  # noqa: F401
