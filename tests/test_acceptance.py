"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints ``ACCEPTANCE <criterion>: PASS|FAIL (<detail>)`` with
capture suspended, so the verdict lines show up in a plain ``pytest -v``
run, and then asserts. Criterion 9 needs the restricted real dataset;
point ``TWEETDYN_DATA`` at a directory of raw CSV tables (or one file) to
enable it, otherwise it reports SKIP.
"""

import json
import math
import os
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from tweetdyn.cli import RunConfig, main
from tweetdyn.graphs import modularity_communities
from tweetdyn.ingest import (
    ColumnMap,
    read_tables,
    retweet_network,
    select_cohort,
)
from tweetdyn.spectral import denoise, dft, dominant_period, kmedoids, pca_embed
from tweetdyn.strategy import (
    CRITICAL_VALUE_P999_DF6,
    SymbolDistribution,
    category_table,
    chi_square_shift,
    symbol_table,
)
from tweetdyn.synth import (
    CorpusSpec,
    GroupCorpusSpec,
    GroupSpec,
    generate_changepoint_aggregate,
    generate_corpus,
    planted_vocabulary,
    reference_cluster_specs,
)
from tweetdyn.timeseries import (
    DayWindow,
    accumulate,
    changepoint_significant,
    detrend,
    fit_segment,
)
from tweetdyn.topic import dynamic_stopwords, gamma_fit, topic_communities

from scoring import adjusted_rand_index
from test_cli import SMALL_CONFIG, run_pipeline
from test_graphs import FIXTURES as GRAPH_FIXTURES
from test_graphs import brute_force_best_q
from test_spectral import KMEDOID_FIXTURES, exhaustive_kmedoids_cost, half_spectrum_power
from test_synth import generate_series
from tweet_tables import term_counts_of


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _skip(capsys, name: str, reason: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: SKIP ({reason})", flush=True)
    pytest.skip(reason)


PRE_WINDOW = DayWindow(date(2016, 3, 9), date(2016, 11, 8))  # 244 days


def test_criterion_1_spectral_cluster_recovery(capsys):
    """4 planted groups x 10 users x 244 days -> ARI >= 0.9 on >= 9/10 seeds, < 10 s."""
    specs = reference_cluster_specs(members=10)
    started = time.perf_counter()
    hits = 0
    worst = 1.0
    for seed in range(10):
        users, table, truth = generate_series(specs, PRE_WINDOW, seed=seed)
        spectra = denoise(dft(detrend(table, 7), users), 0.33)
        ids = sorted(users)
        matrix = spectra.magnitudes[spectra.rows(ids)]
        embedding = pca_embed(matrix, ids, dims=3)
        assignment = kmedoids(
            embedding.points, embedding.ids, k=4, seed=seed, restarts=10
        )
        group_index = {g: i for i, g in enumerate(sorted(set(truth.values())))}
        ari = adjusted_rand_index(
            assignment.labels, {u: group_index[g] for u, g in truth.items()}
        )
        worst = min(worst, ari)
        hits += ari >= 0.9
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        "1 spectral-cluster recovery",
        hits >= 9 and elapsed < 10.0,
        f"ARI >= 0.9 on {hits}/10 seeds, worst {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_changepoint_recovery(capsys):
    """Planted slopes 1973.81/3647.54 at t=616: 2% recovery, r2_adj > 0.99, 5-sigma on 20/20."""
    window = DayWindow.of_length(date(2015, 1, 1), 860)
    rate1, rate2 = 1973.81, 3647.54
    passes = 0
    worst_err = 0.0
    for seed in range(20):
        series = generate_changepoint_aggregate(rate1, rate2, 616, window, seed=seed)
        acc = accumulate(series)
        fit1 = fit_segment(acc, (200, 616), t0=200)
        fit2 = fit_segment(acc, (616, 859), t0=616)
        err1 = abs(fit1.slope - rate1) / rate1
        err2 = abs(fit2.slope - rate2) / rate2
        worst_err = max(worst_err, err1, err2)
        verdict = changepoint_significant(fit1, fit2, sigma=5.0)
        passes += (
            err1 < 0.02
            and err2 < 0.02
            and fit1.r2_adj > 0.99
            and fit2.r2_adj > 0.99
            and verdict.significant
        )
    _report(
        capsys,
        "2 change-point recovery",
        passes == 20,
        f"{passes}/20 seeds, worst slope error {worst_err:.4%}",
    )


def test_criterion_3_chi_square_oracle_and_planted_shift(capsys):
    """Hand-computed 7-cell tables to 1e-9; planted shift beats the 0().999/df=6 bar."""
    obs_a = SymbolDistribution(
        counts={"A": 30, "B": 10, "C": 10, "D": 5, "E": 5, "F": 0, "G": 40}
    )
    ref_a = SymbolDistribution(
        counts={"A": 50, "B": 10, "C": 10, "D": 10, "E": 10, "F": 5, "G": 5}
    )
    # E = (50,10,10,10,10,5,5); chi2 = 8 + 0 + 0 + 2.5 + 2.5 + 5 + 245 = 263
    err_a = abs(chi_square_shift(obs_a, ref_a) - 263.0)
    obs_b = SymbolDistribution(counts={"A": 10, "B": 20, "C": 30, "G": 40})
    ref_b = SymbolDistribution(counts={"A": 25, "B": 25, "C": 25, "G": 25})
    # E = (25,25,25,25); chi2 = 9 + 1 + 1 + 9 = 20
    err_b = abs(chi_square_shift(obs_b, ref_b) - 20.0)

    window = DayWindow.of_length(date(2016, 3, 9), 40)
    first_half = DayWindow.of_length(date(2016, 3, 9), 20)
    second_half = DayWindow.of_length(date(2016, 3, 29), 20)
    critical = CRITICAL_VALUE_P999_DF6
    shift_hits = 0
    for seed in range(20):
        group = GroupCorpusSpec(
            dynamics=GroupSpec(group_id="g", baseline_level=5.0, noise_sigma=0.0, members=6),
            vocabulary=planted_vocabulary("g", 10),
            strategy_pre=(0.8, 0.1, 0.1),
            strategy_post=(0.15, 0.15, 0.7),
        )
        spec = CorpusSpec(
            groups=(group,),
            noise_vocabulary=(),
            noise_weight=0.0,
            tokens_per_tweet=8,
            changepoint_day=20,
        )
        corpus, group_of = generate_corpus(spec, window, seed=seed)
        campaign = set(group_of)
        ref, cmp_ = (
            SymbolDistribution.of_symbols(
                symbol_table(category_table(corpus, campaign, sorted(campaign), half))
            )
            for half in (first_half, second_half)
        )
        shift_hits += chi_square_shift(cmp_, ref) > critical
    _report(
        capsys,
        "3 chi-square oracle + planted shift",
        err_a < 1e-9 and err_b < 1e-9 and shift_hits >= 19,
        f"table errors {err_a:.1e}/{err_b:.1e}, "
        f"shift > {critical:.2f} on {shift_hits}/20 seeds",
    )


def test_criterion_4_dft_period_and_parseval(capsys):
    """Period-4 cosine, 244-day window -> dominant period in [3.8, 4.2]; Parseval 1e-9."""
    t = np.arange(PRE_WINDOW.n_days, dtype=np.float64)
    values = np.rint(30.0 + 10.0 * np.cos(2.0 * math.pi * t / 4.0)).astype(np.int64)
    osc = detrend(values, 7)
    n_samples = len(osc)
    spectrum = dft(osc[None, :], ["tone"])
    period = dominant_period(spectrum.magnitudes[0], spectrum.n_samples)
    time_power = float(np.sum(osc**2))
    parseval_rel = abs(half_spectrum_power(spectrum) - time_power) / time_power
    _report(
        capsys,
        "4 DFT dominant period + Parseval",
        n_samples == 237 and 3.8 <= period <= 4.2 and parseval_rel < 1e-9,
        f"{n_samples} samples, period {period:.3f} days, "
        f"Parseval relative error {parseval_rel:.1e}",
    )


def test_criterion_5_kmedoids_exhaustive_optimality(capsys):
    """On every <= 7-point fixture the PAM objective equals the global optimum."""
    failures = []
    for name, points, k in KMEDOID_FIXTURES:
        assert len(points) <= 7, f"fixture {name} exceeds the criterion's size"
        ids = [f"p{i}" for i in range(len(points))]
        got = kmedoids(np.array(points, dtype=float), ids, k=k, seed=0, restarts=10).cost
        best = exhaustive_kmedoids_cost(points, k)
        if abs(got - best) > 1e-9:
            failures.append(f"{name}: {got} vs {best}")
    _report(
        capsys,
        "5 k-medoids optimality",
        not failures,
        f"{len(KMEDOID_FIXTURES)} fixtures at global optimum"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_6_modularity_brute_force(capsys):
    """Greedy Q within 0.02 of brute force on <= 8-vertex fixtures; triangles exact."""
    failures = []
    for name, graph in GRAPH_FIXTURES.items():
        assert graph.n_vertices <= 8, f"fixture {name} exceeds the criterion's size"
        _, q = modularity_communities(graph)
        best = brute_force_best_q(graph)
        if q < best - 0.02:
            failures.append(f"{name}: greedy {q:.4f} vs best {best:.4f}")
    partition, q_tri = modularity_communities(GRAPH_FIXTURES["two_triangles"])
    triangles_exact = len(partition) == 2 and abs(q_tri - 0.5) < 1e-12
    if not triangles_exact:
        failures.append(f"two_triangles: {len(partition)} communities, Q={q_tri}")
    _report(
        capsys,
        "6 modularity vs brute force",
        not failures,
        f"{len(GRAPH_FIXTURES)} fixtures within 0.02, two-triangles exact Q=0.5"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_7_text_pipeline_end_to_end(capsys):
    """3-group 30-user planted corpus recovered exactly; boundary + Gamma rules hold."""
    window = DayWindow.of_length(date(2016, 3, 9), 30)
    groups = tuple(
        GroupCorpusSpec(
            dynamics=GroupSpec(group_id=g, baseline_level=5.0, noise_sigma=0.0, members=10),
            vocabulary=planted_vocabulary(g, 30),
            strategy_pre=(1.0, 0.0, 0.0),
            strategy_post=(1.0, 0.0, 0.0),
        )
        for g in ("news", "sport", "local")
    )
    spec = CorpusSpec(
        groups=groups,
        noise_vocabulary=planted_vocabulary("shared-noise", 20),
        noise_weight=0.2,
        tokens_per_tweet=8,
        changepoint_day=None,
    )
    corpus, group_of = generate_corpus(spec, window, seed=0)
    result = topic_communities(
        corpus, sorted(group_of), window, dynamic_p=0.5, gamma_q=0.9, knn_k=10, top_m=25
    )
    planted: dict[str, set] = {}
    for u, g in group_of.items():
        planted.setdefault(g, set()).add(u)
    exact = {frozenset(p) for p in result.partition} == {
        frozenset(p) for p in planted.values()
    }

    from collections import Counter

    half_counts = {
        "u1": Counter({"boundary": 1, "majority": 1}),
        "u2": Counter({"boundary": 2, "majority": 1}),
        "u3": Counter({"majority": 1}),
        "u4": Counter({"other": 1}),
    }
    stop = dynamic_stopwords(term_counts_of(half_counts), p=0.5)
    boundary_ok = "boundary" not in stop and "majority" in stop

    fit1 = gamma_fit([2, 6])
    fit2 = gamma_fit([1, 2, 3])
    gamma_ok = (
        fit1.k_shape == 2.0
        and fit1.theta_scale == 2.0
        and fit2.k_shape == 4.0
        and fit2.theta_scale == 0.5
    )
    _report(
        capsys,
        "7 text pipeline end-to-end",
        exact and boundary_ok and gamma_ok,
        f"30-user recovery exact={exact}, strict-inequality boundary={boundary_ok}, "
        f"Gamma moments exact={gamma_ok}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    """Identical config + inputs -> byte-identical JSON artifacts across runs."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    source = tmp_path / "source"
    source.mkdir()
    assert main(["synth", "--config", str(config_path), "--out", str(source)]) == 0
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        d.mkdir()
        run_pipeline(d, config_path, records_src=source / "records.jsonl")
    names1 = sorted(p.name for p in dirs[0].iterdir())
    names2 = sorted(p.name for p in dirs[1].iterdir())
    json_names = [n for n in names1 if n.endswith(".json")]
    mismatched = [
        n
        for n in names1
        if (dirs[0] / n).read_bytes() != (dirs[1] / n).read_bytes()
    ]
    _report(
        capsys,
        "8 deterministic artifacts",
        names1 == names2 and not mismatched and len(json_names) >= 8,
        f"{len(names1)} artifacts ({len(json_names)} JSON) byte-identical"
        if not mismatched
        else f"differs: {mismatched}",
    )


def test_criterion_9_real_corpus_checks(capsys, tmp_path):
    """Restricted-dataset reproduction; runs only when TWEETDYN_DATA is set."""
    data = os.environ.get("TWEETDYN_DATA")
    if not data:
        _skip(
            capsys,
            "9 real-corpus reproduction",
            "TWEETDYN_DATA not set; restricted dataset absent",
        )
    root = Path(data)
    paths = sorted(root.glob("*.csv")) if root.is_dir() else [root]
    assert paths, f"no CSV tables under {root}"
    corpus, _ = read_tables(paths, "csv", ColumnMap(), tmp_path)
    config = RunConfig()
    users = corpus.authors()

    pre_cohort, post_cohort = (
        select_cohort(
            corpus,
            config.bulk_window,
            window,
            config.language,
            config.min_total_tweets,
            config.active_day_fraction,
        )
        for window in (config.pre_window, config.post_window)
    )
    network = retweet_network(corpus, users)
    parts, q = modularity_communities(network)

    from tweetdyn.timeseries import daily_counts

    acc = accumulate(daily_counts(corpus, config.bulk_window))
    fit1 = fit_segment(acc, config.model1_range, config.model1_t0)
    fit2 = fit_segment(acc, config.model2_range, config.model2_t0)

    checks = {
        "total tweets 8768633": len(corpus) == 8_768_633,
        "users 3116": len(users) == 3_116,
        "pre cohort 24": len(pre_cohort) == 24,
        "post cohort 117": len(post_cohort) == 117,
        "communities 28 +/- 2": 26 <= len(parts) <= 30,
        "modularity 0.395 +/- 0.02": abs(q - 0.395) <= 0.02,
        "slope 1 in CI": 1949.91 <= fit1.slope <= 1997.71,
        "slope 2 in CI": 3616.05 <= fit2.slope <= 3679.03,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _report(
        capsys,
        "9 real-corpus reproduction",
        not failed,
        "all dataset checks hold" if not failed else f"failed: {failed}",
    )
