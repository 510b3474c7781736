"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive fixtures
(synthetic benchmark, trained model, long reference chain) are session-scoped
and shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from confgen import boltzmann, cli, cvae, dataio, edg, evalmmd, molgraph
from confgen.cvae import CvaeConfig, GaussianEdgeDist
from confgen.edg import BoundsMatrix

from conftest import random_conformation, random_tree, toy10_spec
from test_cvae import elbo_gradient_check, permute_extended_graph


def criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- shared expensive fixtures ----------------------------------------------

@pytest.fixture(scope="session")
def benchmark_bundle(tmp_path_factory):
    """Full-scale synthetic benchmark, held-out molecules, and a trained model."""
    root = tmp_path_factory.mktemp("benchmark")
    t0 = time.time()
    spec = toy10_spec(2000)
    records, _ = dataio.make_synthetic_benchmark(spec, seed=11)
    # two of the ten molecules are held out, drawn by one seeded permutation
    molecules = sorted({r.molecule for r in records})
    order = np.random.default_rng(3).permutation(len(molecules))
    held_out = {molecules[i] for i in order[8:]}
    assert held_out == {"isobutane", "propane"}

    train_records = [r for r in records if r.molecule not in held_out]
    test_records = [r for r in records if r.molecule in held_out]
    train_path = root / "train.jsonl"
    test_path = root / "test.jsonl"
    dataio.write_dataset(train_path, train_records)
    dataio.write_dataset(test_path, test_records)

    train_pairs = dataio.training_pairs(train_records)
    config = CvaeConfig(epochs=20)
    result = cvae.train(train_pairs, config, seed=5)
    checkpoint = root / "model.json"
    cvae.save_model(checkpoint, result.params)

    return {
        "spec": spec,
        "train_pairs": train_pairs,
        "test_records": test_records,
        "train_path": train_path,
        "test_path": test_path,
        "checkpoint": checkpoint,
        "params": result.params,
        "elapsed": time.time() - t0,
    }


@pytest.fixture(scope="session")
def single_bond_model(single_bond_system):
    """A small model trained on single-bond chain data, plus its graph."""
    model, x0, cfg = single_bond_system
    chain = boltzmann.metropolis_sample(
        model, x0, steps=40_000, cfg=cfg,
        rng=np.random.default_rng(13), burn_in=3000, thin=20,
    )
    g = molgraph.MolGraph.from_elements(("O", "H"), [(0, 1)])
    eg = molgraph.build_extended_graph(g, seed=0)
    records = [
        ("bond", eg, molgraph.extract_distances(eg, [c])[0])
        for c in chain.conformations()
    ]
    config = CvaeConfig(hidden=16, readout_hidden=16, node_state=6,
                        edge_state=6, epochs=40)
    result = cvae.train(records, config, seed=6)
    return result.params, eg


# --- criteria ----------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    config = CvaeConfig()  # full-width model
    t0 = time.time()
    worst = 0.0
    for case in range(20):
        g = random_tree(int(rng.integers(3, 9)), rng)
        eg = molgraph.build_extended_graph(g, seed=case)
        d = molgraph.extract_distances(eg, [random_conformation(g, rng)])[0]
        params = cvae.ModelParams(config, seed=case % 3)
        noise = rng.standard_normal(eg.n_nodes)
        worst = max(worst, elbo_gradient_check(params, eg, d, noise, rng,
                                               n_directions=2, n_coords=12))
    elapsed = time.time() - t0
    criterion(1, worst < 1e-4 and elapsed < 60.0,
              f"ELBO gradients vs central differences on 20 graphs: "
              f"max rel err {worst:.3g} (tol 1e-4), {elapsed:.0f}s (< 60s)")


def test_criterion_2_kl_sanity():
    assert cvae.kl_standard_normal(np.zeros(3), np.ones(3)) == 0.0
    rng = np.random.default_rng(102)
    n = 100_000
    worst_z = 0.0
    for _ in range(10):
        mean = rng.uniform(-2.0, 2.0)
        var = rng.uniform(0.05, 4.0)
        closed = cvae.kl_standard_normal([mean], [var])
        z = mean + math.sqrt(var) * rng.standard_normal(n)
        log_ratio = (-0.5 * (math.log(2 * math.pi * var) + (z - mean) ** 2 / var)
                     + 0.5 * (math.log(2 * math.pi) + z**2))
        se = log_ratio.std() / math.sqrt(n)
        worst_z = max(worst_z, abs(log_ratio.mean() - closed) / se)
    criterion(2, worst_z < 3.0,
              f"closed-form KL vs Monte Carlo (1e5 draws, 10 pairs): "
              f"worst |z| {worst_z:.2f} (< 3); KL(0,1) = 0 exactly")


def test_criterion_3_edg_round_trip():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_rms = 0.0
    pipeline_ok = 0
    runs = 50
    for _ in range(runs):
        pts = rng.normal(0.0, 2.0, (8, 3))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))

        x = edg.gram_embed(d)
        d2 = np.sqrt(((x[:, None] - x[None, :]) ** 2).sum(axis=2))
        worst_rms = max(worst_rms, float(np.sqrt(((d - d2) ** 2).mean())))

        lower = np.maximum(d - 0.05, 0.01)
        upper = d + 0.05
        np.fill_diagonal(lower, 0.0)
        np.fill_diagonal(upper, 0.0)
        bounds = edg.smooth_bounds(BoundsMatrix(lower, upper))
        sample = edg.metrize(bounds, rng)
        _, converged, violation, _ = edg.refine(edg.gram_embed(sample), bounds,
                                                tol=1e-3)
        pipeline_ok += violation <= 1e-3
    elapsed = time.time() - t0
    criterion(3, worst_rms < 1e-6 and pipeline_ok >= 0.95 * runs and elapsed < 60.0,
              f"exact embed RMS {worst_rms:.2g} (< 1e-6); widened pipeline "
              f"converged {pipeline_ok}/{runs} (>= 95%); {elapsed:.0f}s (< 60s)")


def test_criterion_4_bound_smoothing_oracle():
    rng = np.random.default_rng(104)
    exact = 0
    runs = 100
    for _ in range(runs):
        pts = rng.normal(0.0, 1.5, (6, 3))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        slack = rng.uniform(0.05, 0.5, size=(6, 6))
        slack = (slack + slack.T) / 2
        lower = np.maximum(d - slack, 0.01)
        upper = d + slack
        np.fill_diagonal(lower, 0.0)
        np.fill_diagonal(upper, 0.0)
        smoothed = edg.smooth_bounds(BoundsMatrix(lower, upper))
        oracle = shortest_path(upper, method="FW", directed=False)
        exact += np.array_equal(smoothed.upper, oracle)
    criterion(4, exact == runs,
              f"smoothed uppers equal all-pairs shortest paths exactly on "
              f"{exact}/{runs} instances")


def test_criterion_5_mmd_statistics():
    rng = np.random.default_rng(105)
    trials = 100
    below = 0
    for _ in range(trials):
        x = rng.normal(size=(100, 1))
        y = x[rng.integers(0, 100, size=100)]
        bw = evalmmd.median_bandwidth(np.concatenate([x, y]))
        observed = evalmmd.mmd2_unbiased(x, y, bw)
        null = evalmmd.permutation_null(x, y, bw, 200, rng)
        below += observed < np.quantile(null, 0.99)

    x = rng.normal(0.0, 1.0, size=(500, 1))
    y = rng.normal(0.5, 1.0, size=(500, 1))
    bw = evalmmd.median_bandwidth(np.concatenate([x, y]))
    value = evalmmd.mmd2_unbiased(x, y, bw)
    null = evalmmd.permutation_null(x, y, bw, 200, rng)
    z = value / null.std()
    criterion(5, below >= 95 and value > 0 and z > 3.0,
              f"null MMD below 99th permutation percentile in {below}/100 trials "
              f"(>= 95); N(0,1) vs N(0.5,1) separation z {z:.1f} (> 3)")


def _edge_category(eg, k):
    elements = eg.source_graph.elements
    i, j = int(eg.src[k]), int(eg.dst[k])
    return (eg.edge_kinds[k], tuple(sorted((elements[i], elements[j]))))


def _idealized_baseline_means(train_pairs, eg):
    """Fixed idealized distances: training-set means per edge category."""
    by_category: dict = {}
    by_kind: dict = {}
    for _, train_eg, d in train_pairs:
        for k in range(train_eg.n_edges):
            by_category.setdefault(_edge_category(train_eg, k), []).append(d[k])
            by_kind.setdefault(train_eg.edge_kinds[k], []).append(d[k])
    cat_mean = {c: float(np.mean(v)) for c, v in by_category.items()}
    kind_mean = {c: float(np.mean(v)) for c, v in by_kind.items()}
    return np.array([
        cat_mean.get(_edge_category(eg, k), kind_mean[eg.edge_kinds[k]])
        for k in range(eg.n_edges)
    ])


def _generate_distance_rows(params, eg, n, seed):
    [samples] = edg.generate(params, [(eg, np.random.SeedSequence(seed))], n)
    return np.stack([molgraph.extract_distances(eg, [r.conformation])[0]
                     for r in samples if isinstance(r, edg.EmbedResult)])


def _embed_fixed_distance_rows(means, eg, n, seed):
    ged = GaussianEdgeDist(means, np.full(eg.n_edges, 1e-12))
    rows = []
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        result = edg.embed_conformation(eg, ged, rng)
        rows.append(molgraph.extract_distances(eg, [result.conformation])[0])
    return np.stack(rows)


def test_criterion_6_learning_beats_idealized_baseline(benchmark_bundle):
    t0 = time.time()
    bundle = benchmark_bundle
    params = bundle["params"]
    test_records = bundle["test_records"]
    grouped = dataio.group_records(test_records)
    graphs = dataio.extended_graphs(grouped)
    truth = {mol: rows[::4] for mol, rows in
             dataio.distance_matrix_by_molecule(grouped, graphs).items()}

    model_samples, baseline_samples = {}, {}
    for index, (mol, eg) in enumerate(sorted(graphs.items())):
        model_samples[mol] = _generate_distance_rows(params, eg, 50,
                                                     seed=600 + index)
        means = _idealized_baseline_means(bundle["train_pairs"], eg)
        baseline_samples[mol] = _embed_fixed_distance_rows(means, eg, 50,
                                                           seed=700 + index)

    report = evalmmd.protocol_report(
        graphs, truth, {"model": model_samples, "baseline": baseline_samples}
    )
    per_marginal: dict = {}
    for row in report.rows:
        if row.comparison == "marginal":
            per_marginal.setdefault((row.graph, row.key), {})[row.method] = row.value
    wins = sum(v["model"] < v["baseline"] for v in per_marginal.values())
    total = len(per_marginal)
    elapsed = bundle["elapsed"] + (time.time() - t0)
    med_model = report.medians[("model", "marginal")]
    med_base = report.medians[("baseline", "marginal")]
    criterion(6, total > 0 and wins / total >= 0.70 and elapsed < 1800.0,
              f"trained model beats idealized-distance baseline on "
              f"{wins}/{total} held-out marginals (>= 70%); median marginal "
              f"MMD {med_model:.3g} vs {med_base:.3g}; {elapsed:.0f}s (< 1800s)")


def test_criterion_7_triangle_consistency_reporting(benchmark_bundle, capsys):
    bundle = benchmark_bundle
    out = bundle["test_path"].parent / "generated.jsonl"
    code = cli.main([
        "generate", str(bundle["checkpoint"]), str(bundle["test_path"]),
        str(out), "--seed", "77",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rate = report["smoothing_rate"]
    criterion(7, report["n_samples"] == 50 * report["molecules"]
              and rate >= 0.90,
              f"generate reports smoothing pass rate {rate:.3f} "
              f"({report['n_smoothing_ok']}/{report['n_samples']}, >= 0.90)")


def test_criterion_8_importance_sampling(single_bond_system, single_bond_model,
                                         long_single_bond_chain):
    model, _, cfg = single_bond_system
    params, eg = single_bond_model

    # normalization identity holds exactly
    proposals_any = [
        molgraph.Conformation(("O", "H"), [[0, 0, 0], [0.9 + 0.01 * i, 0, 0]])
        for i in range(5)
    ]
    one = boltzmann.is_estimate(boltzmann.observable_by_name("one"),
                                proposals_any, model, cfg)
    assert one.value == 1.0

    [results] = edg.generate(params, [(eg, np.random.SeedSequence(800))], 50)
    assert sum(isinstance(r, edg.EmbedResult) for r in results) == 50
    proposals = [r.conformation for r in results]
    obs = boltzmann.observable_by_name("distance:0-1")
    estimate = boltzmann.is_estimate(obs, proposals, model, cfg)

    pos = long_single_bond_chain.positions
    d = np.sqrt(((pos[:, 0] - pos[:, 1]) ** 2).sum(axis=1))
    centered = d - d.mean()
    acf = np.correlate(centered, centered, "full")[len(d) - 1:] / (d.var() * len(d))
    tau = 1.0
    for w in range(1, len(d) // 3):
        tau = 1.0 + 2.0 * acf[1 : w + 1].sum()
        if w >= 5 * tau:
            break
    se_mcmc = d.std() * math.sqrt(max(tau, 1.0) / len(d))

    combined = math.sqrt(estimate.standard_error**2 + se_mcmc**2)
    gap = abs(estimate.value - d.mean())
    criterion(8, one.value == 1.0 and gap <= 2.0 * combined,
              f"IS mean bond length {estimate.value:.4f} vs MCMC oracle "
              f"{d.mean():.4f}: gap {gap:.4f} <= 2 x combined SE "
              f"{2 * combined:.4f} (ESS {estimate.ess:.1f}/50)")


def test_criterion_9_equivariance_invariance_suite(single_bond_system):
    rng = np.random.default_rng(109)
    config = CvaeConfig(hidden=14, readout_hidden=14, node_state=6, edge_state=6)

    worst_equiv = 0.0
    for case in range(5):
        g = random_tree(int(rng.integers(4, 8)), rng)
        eg = molgraph.build_extended_graph(g, seed=case)
        d = molgraph.extract_distances(eg, [random_conformation(g, rng)])[0]
        params = cvae.ModelParams(config, seed=case)
        perm = rng.permutation(eg.n_nodes)
        permuted = permute_extended_graph(eg, perm)

        ng = cvae.encode(params, eg, d)
        ng_p = cvae.encode(params, permuted, d)
        worst_equiv = max(worst_equiv,
                          float(np.abs(ng_p.mean[perm] - ng.mean).max()),
                          float(np.abs(ng_p.var[perm] - ng.var).max()))

        z = rng.standard_normal(eg.n_nodes)
        ged = cvae.decode(params, eg, z)
        ged_p = cvae.decode(params, permuted, z[np.argsort(perm)])
        worst_equiv = max(worst_equiv,
                          float(np.abs(ged_p.mean - ged.mean).max()),
                          float(np.abs(ged_p.var - ged.var).max()))

    worst_iso = 0.0
    for case in range(5):
        g = random_tree(int(rng.integers(4, 9)), rng)
        eg = molgraph.build_extended_graph(g, seed=case)
        x = random_conformation(g, rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = molgraph.Conformation(g.elements,
                                      x.positions @ q.T + rng.normal(size=3))
        d0 = molgraph.extract_distances(eg, [x])[0]
        d1 = molgraph.extract_distances(eg, [moved])[0]
        worst_iso = max(worst_iso, float(np.abs(d0 - d1).max()))

    model, _, cfg = single_bond_system
    shift_exact = True
    for case in range(5):
        local = np.random.default_rng(200 + case)
        proposals = [
            molgraph.Conformation(("O", "H"), [[0, 0, 0], [0.9 + dx, 0, 0]])
            for dx in local.uniform(0.0, 0.2, size=12)
        ]
        energies = local.integers(0, 256, size=12) * 0.125  # dyadic, so +c is exact
        obs = boltzmann.observable_by_name("distance:0-1")
        base = boltzmann.is_estimate(obs, proposals, model, cfg, energies=energies)
        shifted = boltzmann.is_estimate(obs, proposals, model, cfg,
                                        energies=energies + 37.5)
        shift_exact &= (shifted.value == base.value and shifted.ess == base.ess)

    criterion(9, worst_equiv <= 1e-10 and worst_iso <= 1e-9 and shift_exact,
              f"permutation equivariance {worst_equiv:.2g} (<= 1e-10); isometry "
              f"invariance {worst_iso:.2g} A (<= 1e-9); IS energy-shift "
              f"invariance exact: {shift_exact}")
