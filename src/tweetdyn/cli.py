"""Command-line front end: one subcommand per pipeline stage, plus `run`.

The stages are declared once, in :data:`STAGES`; the argument parser and
:func:`main` both read that table. `run` walks every stage but `synth` in
table order in one process and stops at the first that fails; it takes the
union of those stages' flags. Each `main` call builds one
:class:`StageContext` that its stages share, so within a `run` the corpus,
each window's cohort, the `--window` cohort's count table and its spectra
are computed once: `counts` writes the table that `spectra`,
`cluster-spectral` and `compare` transform, through
:func:`tweetdyn.spectral.cohort_spectra`. A stage writes each artifact
at the path :meth:`StageContext.artifact` gives it, into an output
directory, and the stage's manifest, which the driver writes, lists exactly
those files (none if the stage failed).
Artifacts are deterministic for a given config and seed: keys are sorted,
floats are normalized to 12 significant digits, manifests carry a config
hash and library versions but no timestamps. Every JSON and CSV artifact,
manifests included, is written by :func:`write_json` or :func:`write_csv`
and read back only in this module; ``records.jsonl`` has its own row format
(:func:`tweetdyn.ingest.write_records`). Later stages read earlier
stages' artifacts from the same directory by their fixed names, so `run`
writes the same bytes as its stages run one by one with the same flags.

Only `ingest` reads tweet tables (`--input` and `--format`, or `input_paths`
and `input_format` in the config). It parses every table into one columnar
`Corpus` with one id table (:func:`tweetdyn.ingest.read_tables`), spilling
the bytes of the tweet ids and texts to unnamed files under `--out`, which
the corpus reads them from, and keeping only int columns in memory; puts
the rows in (timestamp, tweet id) order and writes the normalized tweets
twice, in that row order: `records.jsonl` and its columnar sidecar
`corpus.npz`, which records the sha256 of that `records.jsonl`.
Both are replaced atomically, so a failed write leaves the old file whole.
`ingest` drops the corpus once the retweet graph is built, before the
graph's community search. The stages that need tweets (`counts`,
`strategy`, `spectra`, `cluster-spectral`, `cluster-topic` and `compare`)
load `corpus.npz` with no copy of its columns: the int columns are mapped
read-only, and the tweet ids and texts are read from the file as they are
needed, not mapped. The load reads `records.jsonl` once for its sha256 and
the sidecar once for its members' CRC-32s. They fail with
a failed manifest if it is missing, malformed or older than `records.jsonl`,
asking for `ingest` to be re-run. A stage's ``needs`` names the other
files it reads and the stage that makes each (`changepoint` reads only
`counts_aggregate.csv`); the driver fails the stage the same way, before
it runs, when one is missing. `compare` fails
when `clusters_spectral.json` or `clusters_topic.json` was made for another
window than the one it recomputes spectra for or lists a user twice, or when
the spectral clusters were made under other cohort or spectra settings. A
config with an unknown key, a wrongly typed value or a value out of range is
rejected with exit code 2.

Typical flow on synthetic data::

    tweetdyn synth --out runs/demo
    tweetdyn run --input runs/demo/records.jsonl --out runs/demo
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from datetime import date
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, compare, spectral, strategy, synth, timeseries, topic
from .corpus import Corpus
from .ingest import (
    ColumnMap,
    read_tables,
    retweet_network,
    select_cohort,
    write_records,
)
from .graphs import modularity_communities
from .timeseries import DayWindow

logger = logging.getLogger(__name__)

RECORDS_FILE = "records.jsonl"
CORPUS_FILE = "corpus.npz"
LABELS_FILE = "labels.json"

# --window name -> the RunConfig field holding that calendar
WINDOWS = {"pre": "pre_window", "post": "post_window", "bulk": "bulk_window"}
INPUT_FORMATS = ("csv", "jsonl")
# days of the aggregate series `synth --kind changepoint` writes
SYNTH_CHANGEPOINT_DAYS = 860
# RunConfig fields the cohort spectra depend on; compare recomputes the
# spectra and refuses spectral clusters made under other values
SPECTRA_FIELDS = (
    "bulk_window", "min_total_tweets", "language", "active_day_fraction",
    "ma_window", "denoise_q",
)


@dataclass(frozen=True)
class RunConfig:
    """All pipeline knobs, and the one place their defaults are declared: the
    kernels take each value as an argument. JSON-loadable, CLI-overridable."""

    input_paths: tuple[str, ...] = ()
    input_format: str = "jsonl"
    column_map: ColumnMap = field(default_factory=ColumnMap)
    language: str | None = "en"

    bulk_window: DayWindow = field(
        default_factory=lambda: DayWindow(date(2015, 1, 1), date(2018, 1, 1))
    )
    pre_window: DayWindow = field(
        default_factory=lambda: DayWindow(date(2016, 3, 9), date(2016, 11, 8))
    )
    post_window: DayWindow = field(
        default_factory=lambda: DayWindow(date(2016, 11, 29), date(2017, 7, 31))
    )
    reference_window: DayWindow = field(
        default_factory=lambda: DayWindow(date(2015, 7, 20), date(2016, 9, 9))
    )
    comparison_window: DayWindow = field(
        default_factory=lambda: DayWindow(date(2016, 9, 9), date(2017, 5, 10))
    )

    min_total_tweets: int = 1093
    active_day_fraction: float = 0.6

    ma_window: int = 7
    denoise_q: float = 0.33
    pca_dims: int = 3
    kmedoids_k: int = 4
    restarts: int = 10
    fourier_terms: int = 6

    model1_range: tuple[int, int] = (200, 616)
    model1_t0: int = 200
    model2_range: tuple[int, int] = (616, 859)
    model2_t0: int = 616
    sigma: float = 5.0

    dynamic_p: float = 0.5
    gamma_q: float = 0.9
    knn_k: int = 10
    top_m: int = 25

    synth_rates: tuple[float, float] = (1973.81, 3647.54)
    synth_change_day: int = 616
    seed: int = 20170510

    def __post_init__(self) -> None:
        hints = get_type_hints(RunConfig)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise TypeError(f"config {f.name}: {value!r} is not {f.type}")
        bad = [
            f"{name} must be in [0, 1]"
            for name in ("active_day_fraction", "denoise_q")
            if not 0.0 <= getattr(self, name) <= 1.0
        ]
        bad += [
            f"{name} must be >= 1"
            for name in (
                "ma_window", "pca_dims", "kmedoids_k", "restarts",
                "fourier_terms", "knn_k", "top_m",
            )
            if getattr(self, name) < 1
        ]
        bad += [
            f"{name} must be >= 0"
            for name in ("min_total_tweets", "seed")
            if getattr(self, name) < 0
        ]
        if not 0.0 < self.dynamic_p <= 1.0:
            bad.append("dynamic_p must be in (0, 1]")
        if not 0.0 < self.gamma_q < 1.0:
            bad.append("gamma_q must be in (0, 1)")
        if not self.sigma > 0:
            bad.append("sigma must be > 0")
        if not all(rate > 0 for rate in self.synth_rates):
            bad.append("synth_rates must be > 0")
        if not 0 < self.synth_change_day < SYNTH_CHANGEPOINT_DAYS:
            bad.append(f"synth_change_day must be in (0, {SYNTH_CHANGEPOINT_DAYS})")
        if self.language == "":
            bad.append("language must not be empty; use null to disable the filter")
        if self.input_format not in INPUT_FORMATS:
            bad.append(f"input_format must be one of {INPUT_FORMATS}")
        for name, (lo, hi), t0 in (
            ("model1", self.model1_range, self.model1_t0),
            ("model2", self.model2_range, self.model2_t0),
        ):
            if not 0 <= lo < hi:
                bad.append(f"{name}_range must be ordered days, 0 <= start < end")
            elif not lo <= t0 <= hi:
                bad.append(f"{name}_t0 must lie in {name}_range")
        if bad:
            raise ValueError("config: " + "; ".join(bad))

    def analysis_window(self, name: str) -> DayWindow:
        if name not in WINDOWS:
            raise ValueError(f"unknown window name {name!r}")
        return getattr(self, WINDOWS[name])


def _conforms(value: Any, hint: Any) -> bool:
    """Whether ``value`` has the annotated type; an int passes as a float,
    a bool passes as neither."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if origin is UnionType:
        return any(_conforms(value, a) for a in args)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and not isinstance(value, bool)


def _window_from_json(name: str, value: Any) -> DayWindow:
    """The window of config key ``name`` from its JSON form, two ISO dates."""
    try:
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError("not a [start, end] list of two ISO dates")
        return DayWindow(date.fromisoformat(value[0]), date.fromisoformat(value[1]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} {value!r}: {exc}") from None


def load_config(path: str | Path | None, overrides: dict[str, Any]) -> RunConfig:
    """RunConfig from an optional JSON file plus CLI overrides."""
    data: dict[str, Any] = {}
    if path is not None:
        with Path(path).open() as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    data.update(overrides)
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    hints = get_type_hints(RunConfig)
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(RunConfig):
        if f.name not in data:
            continue
        value = data[f.name]
        if hints[f.name] is DayWindow and not isinstance(value, DayWindow):
            value = _window_from_json(f.name, value)
        elif hints[f.name] is ColumnMap and isinstance(value, dict):
            value = ColumnMap(**value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return RunConfig(**kwargs)


def _json_float(f: float) -> str:
    return float.__repr__(float(f"{f:.12g}")) if math.isfinite(f) else "null"


# exact type -> its JSON text, for the scalars that need no other case
_SCALAR_JSON = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float}


def _json_text(obj: Any, nl: str) -> str:
    """The JSON text of ``obj`` at the line start ``nl``: keys as strings,
    sorted, and an indent of 2; NumPy values unwrapped, floats at 12
    significant digits (non-finite ones as null), sets sorted, a
    :class:`DayWindow` as its two ISO dates, a date as its ISO date and a
    dataclass as the object of its fields, each encoded by its own case."""
    scalar = _SCALAR_JSON.get(obj.__class__)
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        plain = {str(k): v for k, v in obj.items()}
        inner = nl + "  "
        return (
            "{" + inner
            + ("," + inner).join(
                f"{encode_basestring_ascii(k)}: {_json_text(plain[k], inner)}"
                for k in sorted(plain)
            )
            + nl + "}"
        )
    if isinstance(obj, (list, tuple, set, frozenset, np.ndarray)):
        if isinstance(obj, (set, frozenset)):
            obj = sorted(obj)
        elif isinstance(obj, np.ndarray):
            obj = list(obj.tolist())
        if not obj:
            return "[]"
        inner = nl + "  "
        kinds = {v.__class__ for v in obj}
        scalar = _SCALAR_JSON.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, obj) if scalar else (_json_text(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int.__repr__(int(obj))
    if isinstance(obj, (np.floating, float)):
        return _json_float(float(obj))
    if isinstance(obj, DayWindow):
        return _json_text([obj.start.isoformat(), obj.end.isoformat()], nl)
    if isinstance(obj, date):
        return encode_basestring_ascii(obj.isoformat())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_text({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, nl)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def write_json(path: Path, payload: Any) -> None:
    """Write the JSON text of ``payload`` (:func:`_json_text`) and a newline."""
    path.write_text(_json_text(payload, "\n") + "\n", encoding="utf-8")


def _recorded(obj: Any) -> Any:
    """``obj`` as an artifact records it and a later stage reads it back."""
    return json.loads(_json_text(obj, "\n"))


def _csv_cells(column: Sequence[Any] | np.ndarray) -> Sequence[Any]:
    """A column's cells for ``csv.writer``: floats at 12 significant digits,
    NumPy integers as ``int``, anything else as it is."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        return list(map("{:.12g}".format, values)) if column.dtype.kind == "f" else values
    return [
        f"{float(v):.12g}" if isinstance(v, (np.floating, float))
        else int(v) if isinstance(v, np.integer) else v
        for v in column
    ]


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    """A header and the rows of equal-length columns, each formatted once."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(_csv_cells, columns)))


def _write_series(path: Path, series: timeseries.CountSeries) -> None:
    """One series as (day_offset, date, count) rows."""
    days = range(len(series))
    dates = [series.window.date_of(t).isoformat() for t in days]
    write_csv(path, ["day_offset", "date", "count"], [days, dates, series.values])


def load_series_csv(path: Path) -> timeseries.CountSeries:
    """Read a series written by :func:`_write_series`."""
    offsets: list[int] = []
    dates: list[date] = []
    counts: list[int] = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            offsets.append(int(row["day_offset"]))
            dates.append(date.fromisoformat(row["date"]))
            counts.append(int(row["count"]))
    if not offsets:
        raise ValueError(f"no rows in {path}")
    if offsets != list(range(len(offsets))):
        raise ValueError(f"day offsets in {path} are not contiguous from 0")
    window = DayWindow.of_length(dates[0], len(dates))
    return timeseries.CountSeries(window=window, values=np.array(counts))


def _long_form(users: Sequence[str], table: np.ndarray) -> list:
    """The (user, column index, value) columns of a (users x columns) table,
    row after row."""
    n = table.shape[1]
    return [
        np.repeat(np.array(users, dtype=object), n),
        np.tile(np.arange(n), len(users)),
        table.ravel(),
    ]


def config_hash(config: RunConfig) -> str:
    canon = json.dumps(_recorded(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(
    outdir: Path,
    command: str,
    config: RunConfig,
    artifacts: list[str],
    error: str | None,
) -> None:
    """The manifest of a stage that wrote ``artifacts``, or failed with
    ``error`` and wrote none."""
    payload = {
        "command": command,
        "status": "ok" if error is None else "failed",
        "error": error,
        "artifacts": sorted(artifacts),
        "config": config,
        "config_sha256": config_hash(config),
        "versions": {
            "tweetdyn": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    write_json(outdir / f"manifest_{command.replace('-', '_')}.json", payload)


@dataclass(frozen=True)
class StageContext:
    """What the stages of one :func:`main` call share: the config, the output
    directory, the ``--window`` name and synth's ``--kind`` (None for a call
    whose stages take no such flag). The corpus, each window's cohort, the
    ``--window`` cohort's count table and its spectra are computed on first
    use, once per context, and live as long as the context."""

    config: RunConfig
    outdir: Path
    window_name: str | None
    kind: str | None
    _cohorts: dict[DayWindow, tuple[str, ...]] = field(default_factory=dict, init=False)
    written: list[str] = field(default_factory=list, init=False)

    def artifact(self, name: str) -> Path:
        """``outdir / name``, with ``name`` recorded in ``written`` as a file
        the current stage wrote."""
        self.written.append(name)
        return self.outdir / name

    @cached_property
    def window(self) -> DayWindow:
        return self.config.analysis_window(self.window_name)

    @cached_property
    def corpus(self) -> Corpus:
        """The directory's ``corpus.npz``, checked against its ``records.jsonl``."""
        return Corpus.load(self.outdir / CORPUS_FILE, self.outdir / RECORDS_FILE)

    def cohort(self, window: DayWindow) -> tuple[str, ...]:
        if window not in self._cohorts:
            config = self.config
            self._cohorts[window] = select_cohort(
                self.corpus,
                config.bulk_window,
                window,
                config.language,
                config.min_total_tweets,
                config.active_day_fraction,
            )
        return self._cohorts[window]

    @cached_property
    def table(self) -> np.ndarray:
        """Daily counts of the ``--window`` cohort, ``(users, days)``, one row
        per user in id order."""
        return timeseries.counts_by_user(self.corpus, self.window, self.cohort(self.window))

    @cached_property
    def spectra(self) -> spectral.Spectra:
        """Denoised spectra of the ``--window`` cohort's count table, one row
        per user in id order."""
        cohort = self.cohort(self.window)
        if not cohort:
            raise ValueError("no users in cohort; nothing to transform")
        config = self.config
        return spectral.cohort_spectra(self.table, cohort, config.ma_window, config.denoise_q)


# ---------------------------------------------------------------- subcommands


def cmd_ingest(ctx: StageContext) -> None:
    config = ctx.config
    if not config.input_paths:
        raise FileNotFoundError("ingest needs --input (or input_paths in config)")
    corpus, reports = read_tables(
        config.input_paths, config.input_format, config.column_map, spill_dir=ctx.outdir
    )
    records_sha256 = write_records(corpus, ctx.artifact(RECORDS_FILE))
    # records.jsonl keeps whole seconds; the sidecar holds the same rows.
    dataclasses.replace(
        corpus, timestamp_us=corpus.timestamp_us // 1_000_000 * 1_000_000
    ).save(ctx.artifact(CORPUS_FILE), records_sha256)
    write_json(ctx.artifact("parse_report.json"), reports)
    campaign = corpus.authors()
    write_json(ctx.artifact("campaign_users.json"), sorted(campaign))
    network = retweet_network(corpus, campaign)
    del corpus  # its columns and spill files, before the search's peak
    parts, q = modularity_communities(network)
    write_json(
        ctx.artifact("retweet_network.json"),
        {
            "n_vertices": network.n_vertices,
            "n_edges": network.n_edges,
            "total_weight": network.total_weight,
            "modularity": q,
            "n_communities": len(parts),
            "communities": [sorted(p) for p in parts],
        },
    )


def cmd_counts(ctx: StageContext) -> None:
    name = ctx.window_name
    cohort = ctx.cohort(ctx.window)
    aggregate = timeseries.daily_counts(ctx.corpus, ctx.config.bulk_window)
    _write_series(ctx.artifact("counts_aggregate.csv"), aggregate)
    write_csv(
        ctx.artifact(f"counts_{name}.csv"),
        ["user_id", "day_offset", "count"],
        _long_form(cohort, ctx.table),
    )
    write_json(ctx.artifact(f"cohort_{name}.json"), cohort)


def cmd_changepoint(ctx: StageContext) -> None:
    config = ctx.config
    s = timeseries.accumulate(load_series_csv(ctx.outdir / "counts_aggregate.csv"))
    fit1 = timeseries.fit_segment(s, config.model1_range, config.model1_t0)
    fit2 = timeseries.fit_segment(s, config.model2_range, config.model2_t0)
    verdict = timeseries.changepoint_significant(fit1, fit2, config.sigma)
    write_json(
        ctx.artifact("changepoint.json"),
        {
            "model1": fit1,
            "model2": fit2,
            "sigma": config.sigma,
            "slope_interval_1": verdict.interval_before,
            "slope_interval_2": verdict.interval_after,
            "significant": verdict.significant,
        },
    )


def cmd_strategy(ctx: StageContext) -> None:
    corpus = ctx.corpus
    campaign = corpus.authors()
    ref_w, cmp_w = ctx.config.reference_window, ctx.config.comparison_window
    cohort = sorted(set(ctx.cohort(ref_w)) | set(ctx.cohort(cmp_w)))
    if not cohort:
        raise ValueError("strategy: empty cohort in both windows")
    sequences = {}
    dists = {}
    for window_name, window in (("reference", ref_w), ("comparison", cmp_w)):
        table = strategy.category_table(corpus, campaign, cohort, window)
        symbols = strategy.symbol_table(table)
        for uid, row in zip(cohort, symbols):
            seq = strategy.symbol_pairs(row)
            if seq:
                sequences.setdefault(window_name, {})[uid] = {
                    "day_offsets": [t for t, _ in seq],
                    "symbols": strategy.symbol_string(seq),
                }
        dists[window_name] = strategy.SymbolDistribution.of_symbols(symbols)
    ref_dist, cmp_dist = dists["reference"], dists["comparison"]
    chi2 = strategy.chi_square_shift(cmp_dist, ref_dist)
    write_json(
        ctx.artifact("strategy.json"),
        {
            "cohort": cohort,
            "sequences": sequences,
            "reference_counts": dict(ref_dist.counts),
            "comparison_counts": dict(cmp_dist.counts),
            "reference_shares": ref_dist.normalized,
            "comparison_shares": cmp_dist.normalized,
            "chi_square": chi2,
            "critical_value_p999_df6": strategy.CRITICAL_VALUE_P999_DF6,
        },
    )


def _write_band(path: Path, band: spectral.BandSummary) -> None:
    """Per-bin min, quartiles and max of a band summary."""
    write_csv(
        path,
        ["bin", "min", "q1", "median", "q3", "max"],
        [range(len(band.medians)), band.mins, band.q1, band.medians, band.q3, band.maxs],
    )


def cmd_spectra(ctx: StageContext) -> None:
    window_name = ctx.window_name
    spectra = ctx.spectra
    magnitudes = spectra.magnitudes
    write_csv(
        ctx.artifact(f"spectra_{window_name}.csv"),
        ["user_id", "bin", "magnitude"],
        _long_form(spectra.users, magnitudes),
    )
    _write_band(ctx.artifact(f"band_{window_name}.csv"), spectral.band_summary(magnitudes))


def cmd_cluster_spectral(ctx: StageContext) -> None:
    config = ctx.config
    spectra = ctx.spectra
    embedding, assignment = spectral.cluster_spectra(
        spectra, config.pca_dims, config.kmedoids_k, config.seed, config.restarts
    )
    write_csv(
        ctx.artifact("embedding.csv"),
        ["user_id"] + [f"pc{i + 1}" for i in range(config.pca_dims)] + ["cluster"],
        [
            spectra.users,
            *embedding.points.T,
            [assignment.labels[uid] for uid in spectra.users],
        ],
    )
    write_csv(
        ctx.artifact("eigenvalues.csv"),
        ["rank", "eigenvalue"],
        [range(1, len(embedding.eigenvalues) + 1), embedding.eigenvalues],
    )
    clusters_payload = {}
    for c in range(1, config.kmedoids_k + 1):
        members = assignment.members(c)
        rows = spectra.rows(members)
        band, period = spectral.band_of(spectra, members)
        _write_band(ctx.artifact(f"cluster_band_{c}.csv"), band)
        clusters_payload[str(c)] = {
            "members": members,
            "medoid": assignment.medoids[c - 1],
            "dominant_period_days": period,
            "fourier_terms": {
                u: spectral.fit_fourier(spectra, i, j_terms=config.fourier_terms)
                for u, i in zip(members, rows)
            },
        }
    write_json(
        ctx.artifact("clusters_spectral.json"),
        {"k": config.kmedoids_k, "cost": assignment.cost, "clusters": clusters_payload,
         "window": ctx.window, "n_users": len(spectra.users)},
    )


def cmd_cluster_topic(ctx: StageContext) -> None:
    window, config = ctx.window, ctx.config
    result = topic.topic_communities(
        ctx.corpus,
        ctx.cohort(window),
        window,
        dynamic_p=config.dynamic_p,
        gamma_q=config.gamma_q,
        knn_k=config.knn_k,
        top_m=config.top_m,
    )
    write_json(
        ctx.artifact("clusters_topic.json"),
        {
            "window": window,
            "n_users": len(result.matrix.users),
            "n_dynamic_stopwords": len(result.dynamic_stopwords),
            "dynamic_stopwords": result.dynamic_stopwords,
            "vocabulary_size": len(result.vocabulary),
            "modularity": result.modularity,
            "communities": [sorted(p) for p in result.partition],
        },
    )
    graph = result.graph
    write_csv(
        ctx.artifact("topic_edges.csv"),
        ["user_a", "user_b", "similarity"],
        [
            [graph.vertices[i] for i in graph.u.tolist()],
            [graph.vertices[i] for i in graph.v.tolist()],
            graph.w,
        ],
    )
    ranked = result.top_terms
    write_csv(
        ctx.artifact("topic_top_terms.csv"),
        ["community", "rank", "term", "count"],
        [
            [c for c, terms in enumerate(ranked, start=1) for _ in terms],
            [r for terms in ranked for r in range(1, len(terms) + 1)],
            [term for terms in ranked for term, _ in terms],
            [count for terms in ranked for _, count in terms],
        ],
    )


def cmd_compare(ctx: StageContext) -> None:
    outdir, window = ctx.outdir, ctx.window
    spec_path = outdir / "clusters_spectral.json"
    topic_path = outdir / "clusters_topic.json"
    spec_doc = json.loads(spec_path.read_text())
    topic_doc = json.loads(topic_path.read_text())
    recorded_window = _recorded(window)
    for p, doc in ((spec_path, spec_doc), (topic_path, topic_doc)):
        if doc["window"] != recorded_window:
            raise ValueError(
                f"{p.name} was made for window {doc['window']}, not "
                f"{ctx.window_name} {recorded_window}; re-run its cluster step"
            )
    manifest_path = outdir / "manifest_cluster_spectral.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"compare needs {manifest_path.name}; run cluster-spectral")
    manifest = json.loads(manifest_path.read_text())
    if manifest["status"] != "ok":
        raise ValueError(
            f"{manifest_path.name} has status {manifest['status']!r}; re-run cluster-spectral"
        )
    # compared as recorded: a manifest keeps floats at 12 significant digits
    current = _recorded(ctx.config)
    for name in SPECTRA_FIELDS:
        if manifest["config"][name] != current[name]:
            raise ValueError(
                f"clusters_spectral.json was made with {name} "
                f"{manifest['config'][name]!r}, not {current[name]!r}; "
                "re-run cluster-spectral"
            )
    spectral_parts = [
        spec_doc["clusters"][str(c)]["members"] for c in range(1, spec_doc["k"] + 1)
    ]
    topic_parts = topic_doc["communities"]
    cells = compare.cross_tab(spectral_parts, topic_parts)
    n_spectral, n_topic = cells.shape
    write_csv(
        ctx.artifact("crosstab.csv"),
        ["spectral_cluster"] + [f"community_{j}" for j in range(1, n_topic + 1)],
        [range(1, n_spectral + 1), *cells.T],
    )
    subclusters = {}
    for i, j in zip(*np.nonzero(cells)):
        users, band, period = compare.intersect_subcluster(
            spectral_parts[i], topic_parts[j], ctx.spectra
        )
        subclusters[f"s{i + 1}_t{j + 1}"] = {
            "users": users,
            "dominant_period_days": period,
            "median_band": band.medians,
        }
    write_json(
        ctx.artifact("compare.json"),
        {"diversity": compare.diversity(cells), "subclusters": subclusters},
    )


def _demo_corpus_spec(config: RunConfig) -> synth.CorpusSpec:
    """Four groups whose rate dynamics, vocabularies and strategies differ."""
    dynamics = synth.reference_cluster_specs(members=8)
    mixes = [
        ((0.80, 0.10, 0.10), (0.15, 0.15, 0.70)),
        ((0.70, 0.20, 0.10), (0.10, 0.20, 0.70)),
        ((0.15, 0.70, 0.15), (0.15, 0.70, 0.15)),
        ((0.10, 0.15, 0.75), (0.10, 0.15, 0.75)),
    ]
    groups = tuple(
        synth.GroupCorpusSpec(
            dynamics=d,
            vocabulary=synth.planted_vocabulary(d.group_id, 30),
            strategy_pre=pre,
            strategy_post=post,
        )
        for d, (pre, post) in zip(dynamics, mixes)
    )
    return synth.CorpusSpec(
        groups=groups,
        noise_vocabulary=synth.planted_vocabulary("shared-noise", 20),
        noise_weight=0.2,
        tokens_per_tweet=8,
        changepoint_day=config.pre_window.n_days // 2,
    )


def cmd_synth(ctx: StageContext) -> None:
    config, kind = ctx.config, ctx.kind
    if kind == "corpus":
        spec = _demo_corpus_spec(config)
        corpus, labels = synth.generate_corpus(spec, config.pre_window, config.seed)
        write_records(corpus, ctx.artifact(RECORDS_FILE))
        write_json(ctx.artifact(LABELS_FILE), labels)
    elif kind == "changepoint":
        series = synth.generate_changepoint_aggregate(
            config.synth_rates[0],
            config.synth_rates[1],
            config.synth_change_day,
            DayWindow.of_length(config.bulk_window.start, SYNTH_CHANGEPOINT_DAYS),
            config.seed,
        )
        _write_series(ctx.artifact("counts_aggregate.csv"), series)
    else:
        raise ValueError(f"unknown synth kind {kind!r}")


def cmd_report(ctx: StageContext) -> None:
    """Collect the directory's JSON artifacts into one report document."""
    wanted = [
        "parse_report.json",
        "retweet_network.json",
        "changepoint.json",
        "strategy.json",
        "clusters_spectral.json",
        "clusters_topic.json",
        "compare.json",
    ]
    sections = {}
    for name in wanted:
        p = ctx.outdir / name
        sections[name.removesuffix(".json")] = (
            json.loads(p.read_text()) if p.exists() else None
        )
    headline = {}
    if sections["changepoint"]:
        headline["rate_before"] = sections["changepoint"]["model1"]["slope"]
        headline["rate_after"] = sections["changepoint"]["model2"]["slope"]
        headline["changepoint_significant"] = sections["changepoint"]["significant"]
    if sections["strategy"]:
        headline["strategy_chi_square"] = sections["strategy"]["chi_square"]
    if sections["clusters_topic"]:
        headline["n_topic_communities"] = len(sections["clusters_topic"]["communities"])
        headline["topic_modularity"] = sections["clusters_topic"]["modularity"]
    if sections["clusters_spectral"]:
        headline["n_spectral_clusters"] = sections["clusters_spectral"]["k"]
    write_json(ctx.artifact("report.json"), {"headline": headline, "sections": sections})


# -------------------------------------------------------------------- driver


@dataclass(frozen=True)
class Stage:
    """One subcommand: ``run(ctx)`` writes each artifact at the path
    ``ctx.artifact(name)`` gives it, and its manifest lists exactly those.
    ``needs`` maps each upstream file it reads to the stage that makes it,
    checked before it runs. A ``windowed`` stage takes ``--window``."""

    name: str
    help: str
    run: Callable[[StageContext], None]
    windowed: bool = False
    needs: dict[str, str] = field(default_factory=dict)


STAGES = (
    Stage("ingest", "parse raw tweet tables", cmd_ingest),
    Stage("counts", "daily count series", cmd_counts, windowed=True),
    Stage(
        "changepoint", "fit the accumulation curve", cmd_changepoint,
        needs={"counts_aggregate.csv": "counts (or synth --kind changepoint)"},
    ),
    Stage("strategy", "strategy symbol dynamics", cmd_strategy),
    Stage("spectra", "per-user rate spectra", cmd_spectra, windowed=True),
    Stage(
        "cluster-spectral", "PCA + k-medoids over spectra", cmd_cluster_spectral,
        windowed=True,
    ),
    Stage(
        "cluster-topic", "text-similarity communities", cmd_cluster_topic,
        windowed=True,
    ),
    Stage(
        "compare", "cross-tabulate the two clusterings", cmd_compare, windowed=True,
        needs={"clusters_spectral.json": "cluster-spectral",
               "clusters_topic.json": "cluster-topic"},
    ),
    Stage("synth", "generate ground-truth synthetic data", cmd_synth),
    Stage("report", "assemble a single report document", cmd_report),
)
# what `run` walks, in this order
PIPELINE = tuple(stage for stage in STAGES if stage.name != "synth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetdyn",
        description="Rate-spectrum, strategy and topic analysis of tweet streams",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(stage.name, stage.help, (stage,)) for stage in STAGES]
    commands.append(("run", "every stage but synth, in order", PIPELINE))
    for name, help_text, stages in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(stages=stages)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--language", help="language filter ('' disables)")
        names = {stage.name for stage in stages}
        if any(stage.windowed for stage in stages):
            p.add_argument(
                "--window", default="pre", choices=list(WINDOWS), help="analysis window"
            )
        if "ingest" in names:
            p.add_argument("--input", action="append", dest="inputs", help="input file")
            p.add_argument("--format", choices=INPUT_FORMATS, help="input format")
        if "synth" in names:
            p.add_argument(
                "--kind",
                default="corpus",
                choices=["corpus", "changepoint"],
                help="what to generate",
            )
    return parser


# one parser per process, built by the first call of main
_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    overrides: dict[str, Any] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.language is not None:
        overrides["language"] = args.language or None
    # --input and --format override the config of ingest alone, so every
    # other stage's manifest is the same under run as when run by itself
    inputs: dict[str, Any] = {}
    if getattr(args, "format", None) is not None:
        inputs["input_format"] = args.format
    if getattr(args, "inputs", None):
        inputs["input_paths"] = tuple(args.inputs)
    try:
        config = load_config(args.config, overrides)
        ingest_config = dataclasses.replace(config, **inputs) if inputs else config
    except (OSError, ValueError, KeyError, TypeError) as exc:
        logger.error("bad config: %s", exc)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    ctx = StageContext(
        config, outdir, getattr(args, "window", None), getattr(args, "kind", None)
    )
    for stage in args.stages:
        stage_ctx = (
            dataclasses.replace(ctx, config=ingest_config) if stage.name == "ingest" else ctx
        )
        stage_ctx.written.clear()
        error = None
        try:
            for name, maker in stage.needs.items():
                if not (outdir / name).exists():
                    raise FileNotFoundError(f"{stage.name} needs {name}; run {maker} first")
            stage.run(stage_ctx)
        except Exception as exc:
            logger.error("%s failed: %s", stage.name, exc)
            error = str(exc)
            stage_ctx.written.clear()
        write_manifest(outdir, stage.name, stage_ctx.config, stage_ctx.written, error)
        if error is not None:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
