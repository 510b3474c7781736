import itertools
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confgen import evalmmd
from confgen.evalmmd import (
    DegenerateBandwidthError,
    heavy_edge_indices,
    median_bandwidth,
    mmd2_unbiased,
    permutation_null,
    protocol_report,
)
from confgen.molgraph import MolGraph, build_extended_graph
from confgen.nnet import ShapeError


def brute_force_mmd2(x, y, bw):
    """Direct expansion of the U-statistic for small samples."""
    k = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * bw**2))
    m, n = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    xy = sum(k(a, b) for a in x for b in y)
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2 * xy / (m * n)


class TestMedianBandwidth:
    def test_two_rows(self):
        assert median_bandwidth(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_four_rows_by_enumeration(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        dists = sorted(
            np.linalg.norm(a - b) for a, b in itertools.combinations(rows, 2)
        )
        expected = (dists[2] + dists[3]) / 2  # median of six values
        assert median_bandwidth(rows) == pytest.approx(expected)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(20, 3))
        assert median_bandwidth(7.0 * rows) == pytest.approx(
            7.0 * median_bandwidth(rows)
        )

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateBandwidthError):
            median_bandwidth(np.ones((5, 2)))

    @settings(max_examples=60, deadline=None)
    @example(rows=1, count=2, values=[1.0, 1.0])
    @example(rows=1, count=3, values=[0.0, -0.0, 0.0, -0.0])
    @example(rows=2, count=5, values=[0.0, 3.0, 3.0, 1e308, 3.0])
    @given(rows=st.integers(1, 4), count=st.integers(1, 12),
           values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5 + 1e-15]),
                                     st.floats(-1e308, 1e308)),
                           min_size=48, max_size=48))
    def test_medians_match_np_median(self, rows, count, values):
        """Bit for bit, with odd and even counts, ties (0.0 and -0.0 among
        them) and values whose middle pair overflows when added."""
        a = np.resize(np.array(values), (rows, count))
        with np.errstate(over="ignore"):
            expected = np.median(a, axis=-1)
            got = evalmmd._medians(a)
        assert got.tobytes() == expected.tobytes()
        assert evalmmd._medians(a[0]).tobytes() == np.median(a[0]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(slices=st.integers(1, 3), rows=st.integers(2, 9), width=st.integers(1, 3),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_median_dists_match_np_median(self, slices, rows, width, ties, seed):
        rng = np.random.default_rng(seed)
        pooled = (rng.integers(0, 3, (slices, rows, width)).astype(float) if ties
                  else rng.normal(size=(slices, rows, width)))
        iu = np.triu_indices(rows, k=1)
        dists = np.sqrt(evalmmd._pairwise_sq_dists(pooled, pooled)[:, iu[0], iu[1]])
        assert evalmmd._median_dists(pooled).tobytes() == \
            np.median(dists, axis=1).tobytes()


class TestMmd2Unbiased:
    def test_matches_hand_expansion_on_tiny_samples(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        assert mmd2_unbiased(x, y, 1.3) == pytest.approx(
            brute_force_mmd2(x, y, 1.3), rel=1e-12
        )

    def test_identical_samples_stay_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 1))
        value = mmd2_unbiased(x, x.copy(), median_bandwidth(x))
        assert value <= 0.0 + 1e-12  # shared rows cancel, cross diagonal pulls down
        assert abs(value) < 0.05

    def test_separated_gaussians_strongly_positive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, size=(500, 1))
        y = rng.normal(5.0, 1.0, size=(500, 1))
        bw = median_bandwidth(np.concatenate([x, y]))
        value = mmd2_unbiased(x, y, bw)
        null = permutation_null(x, y, bw, 100, np.random.default_rng(4))
        assert value > 5.0 * null.std()

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        y = rng.normal(1.0, 1.0, size=(40, 2))
        assert mmd2_unbiased(x, y, 2.0) == pytest.approx(mmd2_unbiased(y, x, 2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mmd2_unbiased(np.zeros((5, 2)), np.zeros((5, 3)), 1.0)

    def test_null_behavior_under_resampling(self):
        rng = np.random.default_rng(6)
        passes = 0
        trials = 30
        for _ in range(trials):
            x = rng.normal(size=(80, 1))
            y = x[rng.integers(0, 80, size=80)]
            bw = median_bandwidth(np.concatenate([x, y]))
            observed = mmd2_unbiased(x, y, bw)
            null = permutation_null(x, y, bw, 100, rng)
            passes += observed < np.quantile(null, 0.99)
        assert passes >= int(0.9 * trials)


def make_graph_with_heavy_edges():
    g = MolGraph.from_elements("CCOH", [(0, 1), (1, 2), (1, 3)])
    return build_extended_graph(g, seed=0)


class TestHeavyEdges:
    def test_filters_hydrogen_edges(self):
        eg = make_graph_with_heavy_edges()
        heavy = heavy_edge_indices(eg)
        elements = eg.source_graph.elements
        for k in heavy:
            i, j = eg.src[k], eg.dst[k]
            assert elements[i] in ("C", "O") and elements[j] in ("C", "O")
        others = set(range(eg.n_edges)) - set(heavy)
        for k in others:
            i, j = eg.src[k], eg.dst[k]
            assert "H" in (elements[i], elements[j])


class TestProtocolReport:
    def _fixture(self, seed=0, n=120):
        rng = np.random.default_rng(seed)
        eg = make_graph_with_heavy_edges()
        graphs = {"g1": eg, "g2": eg}
        truth = {
            gid: rng.normal(1.5, 0.1, size=(n, eg.n_edges)) + offset
            for gid, offset in (("g1", 0.0), ("g2", 0.3))
        }
        return rng, eg, graphs, truth

    def test_true_copy_ranks_first_everywhere(self):
        rng, eg, graphs, truth = self._fixture()
        copy = {gid: s.copy() for gid, s in truth.items()}
        shifted = {gid: s + 0.5 for gid, s in truth.items()}
        report = protocol_report(graphs, truth, {"copy": copy, "shifted": shifted})
        for comparison in ("marginal", "pairwise", "joint"):
            assert report.mean_rankings[("copy", comparison)] == 1.0
            assert report.mean_rankings[("shifted", comparison)] == 2.0
            assert report.medians[("copy", comparison)] < \
                report.medians[("shifted", comparison)]

    def test_hand_built_two_method_medians_and_rankings(self):
        rng, eg, graphs, truth = self._fixture(seed=1)
        gen_a = {gid: s + 0.05 for gid, s in truth.items()}
        gen_b = {gid: s + 0.50 for gid, s in truth.items()}
        report = protocol_report(graphs, truth, {"a": gen_a, "b": gen_b})

        heavy = heavy_edge_indices(eg)
        # recompute one marginal instance by hand and find it in the rows
        gid, k = "g1", heavy[0]
        ref = truth[gid][:, [k]]
        gen = gen_a[gid][:, [k]]
        bw = median_bandwidth(np.concatenate([ref, gen]))
        expected = mmd2_unbiased(ref, gen, bw)
        row = [r for r in report.rows
               if r.graph == gid and r.method == "a"
               and r.comparison == "marginal" and r.key == f"edge{k}"]
        assert len(row) == 1
        assert row[0].value == pytest.approx(expected, rel=1e-12)

        # medians across instances match a direct recomputation
        values_a = [r.value for r in report.rows
                    if r.method == "a" and r.comparison == "marginal"]
        assert report.medians[("a", "marginal")] == pytest.approx(
            float(np.median(values_a))
        )

    def test_missing_graph_counts_as_warning(self):
        rng, eg, graphs, truth = self._fixture(seed=2)
        partial = {"g1": truth["g1"].copy()}  # nothing for g2
        full = {gid: s + 0.2 for gid, s in truth.items()}
        report = protocol_report(graphs, truth, {"partial": partial, "full": full})
        assert report.warnings["partial"] > 0
        assert report.warnings["full"] == 0
        # rankings for g2 instances involve only the present method
        g2_rank_rows = [r for r in report.rows if r.graph == "g2"]
        assert all(r.method == "full" for r in g2_rank_rows)

    def test_rankings_are_valid_permutation_means(self):
        rng, eg, graphs, truth = self._fixture(seed=3)
        methods = {m: {gid: s + off for gid, s in truth.items()}
                   for m, off in (("m1", 0.05), ("m2", 0.2), ("m3", 0.6))}
        report = protocol_report(graphs, truth, methods)
        for comparison in ("marginal", "pairwise", "joint"):
            ranks = [report.mean_rankings[(m, comparison)] for m in ("m1", "m2", "m3")]
            assert all(1.0 <= r <= 3.0 for r in ranks)
            assert sum(ranks) == pytest.approx(6.0)  # 1+2+3 per instance

    def test_rankings_invariant_under_monotone_transform(self):
        values = [0.3, 0.1, 0.7, 0.1]
        direct = evalmmd._average_ranks(values)
        squashed = evalmmd._average_ranks([np.tanh(v) for v in values])
        assert direct == squashed

    def test_graph_spread_is_reported(self):
        rng, eg, graphs, truth = self._fixture(seed=4)
        gen = {gid: s + 0.1 for gid, s in truth.items()}
        report = protocol_report(graphs, truth, {"m": gen})
        assert ("m", "marginal") in report.std_over_graphs


def oracle_sq_dists(x, y):
    x2 = (x**2).sum(axis=1)
    y2 = (y**2).sum(axis=1)
    sq = x2[:, None] + y2[None, :] - 2.0 * (x @ y.T)
    return np.maximum(sq, 0.0)


def oracle_median_bandwidth(pooled):
    """median_bandwidth as one comparison at a time computed it."""
    if pooled.shape[0] < 2:
        raise ShapeError("bandwidth needs at least two rows")
    sq = oracle_sq_dists(pooled, pooled)
    iu = np.triu_indices(pooled.shape[0], k=1)
    bw = float(np.median(np.sqrt(sq[iu])))
    if bw <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return bw


def oracle_mmd2(x, y, bandwidth):
    """mmd2_unbiased as one comparison at a time computed it."""
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ShapeError("each sample needs at least two rows")
    c = -0.5 / bandwidth**2
    kxx = np.exp(c * oracle_sq_dists(x, x))
    kyy = np.exp(c * oracle_sq_dists(y, y))
    kxy = np.exp(c * oracle_sq_dists(x, y))
    xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(xx + yy - 2.0 * kxy.mean())


def oracle_protocol_report(graphs, truth_samples, method_samples):
    """protocol_report's rows, as (graph, comparison, key, method, value), and
    warnings, computed one comparison and one method at a time."""
    methods = sorted(method_samples)
    rows, warnings = [], {m: 0 for m in methods}
    for gid in sorted(graphs):
        truth = np.asarray(truth_samples[gid], dtype=np.float64)
        heavy = heavy_edge_indices(graphs[gid])
        if not heavy:
            continue
        comparisons = [("marginal", f"edge{k}", [k]) for k in heavy]
        comparisons += [("pairwise", f"edge{k}-edge{l}", [k, l])
                        for k, l in itertools.combinations(heavy, 2)]
        comparisons.append(("joint", "all-heavy", heavy))
        for comparison, key, cols in comparisons:
            for method in methods:
                sample = method_samples[method].get(gid)
                if sample is None:
                    warnings[method] += 1
                    continue
                gen = np.asarray(sample, dtype=np.float64)[:, cols]
                ref = truth[:, cols]
                try:
                    bw = oracle_median_bandwidth(np.concatenate([ref, gen], axis=0))
                    value = oracle_mmd2(ref, gen, bw)
                except (DegenerateBandwidthError, ShapeError):
                    warnings[method] += 1
                    continue
                rows.append((gid, comparison, key, method, value))
    return rows, warnings


def edge_graph(elements, edges):
    """The parts of an ExtendedGraph that protocol_report reads."""
    return SimpleNamespace(src=[i for i, _ in edges], dst=[j for _, j in edges],
                           source_graph=SimpleNamespace(elements=tuple(elements)))


def bits(rows):
    """Rows with each value as its IEEE bytes, so NaN and signed zeros compare."""
    return [(*row[:-1], np.float64(row[-1]).tobytes()) for row in rows]


@st.composite
def report_inputs(draw):
    """1-3 graphs of 1-10 heavy edges among hydrogen edges, 2-30 truth rows,
    and 1-3 methods of 0-30 rows each or none for a graph. Rows are drawn
    from 1-3 base rows or from a normal law, so zero bandwidths are common."""
    graphs, truth, samples = {}, {}, {}
    methods = [f"m{k}" for k in range(draw(st.integers(1, 3)))]
    for g in range(draw(st.integers(1, 3))):
        gid = f"g{g}"
        kinds = draw(st.lists(st.booleans(), min_size=1, max_size=14).filter(
            lambda ks: 1 <= sum(ks) <= 10))
        graphs[gid] = edge_graph("CCH", [(0, 1) if heavy else (1, 2) for heavy in kinds])
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bases = draw(st.one_of(st.none(), st.integers(1, 3)))
        if bases is not None:
            base = np.round(rng.normal(1.5, 0.3, size=(bases, len(kinds))), 1)

        def rows(count):
            if bases is None:
                return rng.normal(1.5, 0.3, size=(count, len(kinds)))
            return base[rng.integers(0, bases, size=count)]

        truth[gid] = rows(draw(st.integers(2, 30)))
        for method in methods:
            count = draw(st.one_of(st.none(), st.integers(0, 30), st.just(1)))
            if count is not None:
                samples.setdefault(method, {})[gid] = rows(count)
    return graphs, truth, {m: samples.get(m, {}) for m in methods}


class TestStackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(inputs=report_inputs())
    def test_protocol_report_matches_oracle(self, inputs):
        graphs, truth, samples = inputs
        rows, warnings = oracle_protocol_report(graphs, truth, samples)
        report = protocol_report(graphs, truth, samples)
        assert bits([(r.graph, r.comparison, r.key, r.method, r.value)
                     for r in report.rows]) == bits(rows)
        assert report.warnings == warnings

    def test_oracle_sees_skips_and_zero_bandwidths(self):
        rng = np.random.default_rng(11)
        graphs = {"g": edge_graph("CCH", [(0, 1), (1, 2), (0, 1), (0, 1)])}
        truth = {"g": np.repeat(rng.normal(1.5, 0.3, size=(1, 4)), 12, axis=0)}
        samples = {"absent": {}, "one": {"g": truth["g"][:1]},
                   "same": {"g": truth["g"][:5].copy()},
                   "spread": {"g": rng.normal(1.5, 0.3, size=(9, 4))}}
        rows, warnings = oracle_protocol_report(graphs, truth, samples)
        report = protocol_report(graphs, truth, samples)
        # 3 marginals, 3 pairs and the joint, each skipped but for "spread"
        assert warnings == {"absent": 7, "one": 7, "same": 7, "spread": 0}
        assert report.warnings == warnings
        assert bits([(r.graph, r.comparison, r.key, r.method, r.value)
                     for r in report.rows]) == bits(rows)

    def test_tiny_chunks_give_the_same_report(self, monkeypatch):
        rng = np.random.default_rng(12)
        graphs = {"g": edge_graph("CCH", [(0, 1)] * 9 + [(1, 2)])}
        truth = {"g": rng.normal(1.5, 0.2, size=(25, 10))}
        samples = {"a": {"g": truth["g"][:20] + 0.1},
                   "b": {"g": rng.normal(1.6, 0.3, size=(7, 10))}}
        default = protocol_report(graphs, truth, samples)
        monkeypatch.setattr(evalmmd, "_KERNEL_ELEMENTS", 1)
        tiny = protocol_report(graphs, truth, samples)
        assert tiny == default
        assert len(default.rows) == 2 * (9 + 36 + 1)

    def test_permutation_null_matches_one_permutation_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(15, 2))
        y = rng.normal(0.5, 1.0, size=(11, 2))
        bw = median_bandwidth(np.concatenate([x, y]))
        draws = np.random.default_rng(14)
        pooled = np.concatenate([x, y])
        expected = []
        for _ in range(40):
            perm = draws.permutation(len(pooled))
            expected.append(oracle_mmd2(pooled[perm[:15]], pooled[perm[15:]], bw))
        null = permutation_null(x, y, bw, 40, np.random.default_rng(14))
        assert null.tobytes() == np.array(expected).tobytes()
        monkeypatch.setattr(evalmmd, "_KERNEL_ELEMENTS", 1)
        assert permutation_null(x, y, bw, 40, np.random.default_rng(14)).tobytes() \
            == null.tobytes()

    def test_one_comparison_functions_match_oracle(self):
        rng = np.random.default_rng(15)
        # column-major rows sum their squares in another order, as before
        for m, n, w, order in ((2, 2, 1, "C"), (5, 9, 2, "C"), (30, 20, 7, "C"),
                               (12, 12, 38, "C"), (12, 9, 38, "F"), (4, 3, 5, "F")):
            x = np.asarray(rng.normal(size=(m, w)), order=order)
            y = np.asarray(rng.normal(size=(n, w)), order=order)
            pooled = np.concatenate([x, y])
            bw = median_bandwidth(pooled)
            assert bw == oracle_median_bandwidth(pooled)
            assert mmd2_unbiased(x, y, bw) == oracle_mmd2(x, y, bw)

    def test_one_comparison_checks(self):
        with pytest.raises(ShapeError):
            mmd2_unbiased(np.zeros((1, 2)), np.ones((4, 2)), 1.0)
        with pytest.raises(DegenerateBandwidthError):
            mmd2_unbiased(np.zeros((3, 2)), np.ones((4, 2)), 0.0)
        with pytest.raises(ShapeError):
            median_bandwidth(np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            permutation_null(np.zeros((1, 2)), np.ones((4, 2)), 1.0, 5,
                             np.random.default_rng(0))
        assert permutation_null(np.zeros((1, 2)), np.ones((4, 2)), 1.0, 0,
                                np.random.default_rng(0)).shape == (0,)


def oracle_marginal_histograms(path, graphs, truth_samples, method_samples):
    """The marginal histogram writer that formats both bin edges again on
    every line, at 40 bins."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph\tedge\tmethod\tbin_lo\tbin_hi\tdensity\n")
        for gid in sorted(graphs):
            truth = np.asarray(truth_samples[gid], dtype=np.float64)
            series = {"truth": truth}
            for method in sorted(method_samples):
                sample = method_samples[method].get(gid)
                if sample is not None:
                    series[method] = np.asarray(sample, dtype=np.float64)
            for k in evalmmd.heavy_edge_indices(graphs[gid]):
                pooled = np.concatenate([s[:, k] for s in series.values()])
                edges = np.histogram_bin_edges(pooled, bins=40)
                for name, s in series.items():
                    dens, _ = np.histogram(s[:, k], bins=edges, density=True)
                    for lo, hi, d in zip(edges[:-1], edges[1:], dens):
                        fh.write(f"{gid}\tedge{k}\t{name}\t{lo:.10g}\t{hi:.10g}\t"
                                 f"{d:.10g}\n")


def missing_molecule_inputs():
    """Two graphs and three methods, one of them without samples of g1."""
    rng = np.random.default_rng(12)
    graphs = {"g0": edge_graph("CCH", [(0, 1), (1, 2), (0, 1)]),
              "g1": edge_graph("CCH", [(0, 1)])}
    truth = {"g0": rng.normal(1.5, 0.3, size=(9, 3)), "g1": rng.normal(1.2, 0.1, (7, 1))}
    samples = {"m0": {gid: t + 0.1 for gid, t in truth.items()},
               "m1": {"g0": rng.normal(1.4, 0.2, size=(5, 3))},
               "m2": {gid: t[:3] * 1.1 for gid, t in truth.items()}}
    return graphs, truth, samples


def equal_edge_inputs():
    """A heavy edge whose pooled values are all equal, so its bins widen by
    0.5 on each side."""
    rng = np.random.default_rng(13)
    graphs = {"g0": edge_graph("CCH", [(0, 1), (1, 2), (0, 1)])}
    truth = rng.normal(1.5, 0.3, size=(6, 3))
    gen = rng.normal(1.5, 0.3, size=(4, 3))
    truth[:, 0] = gen[:, 0] = 1.53
    return graphs, {"g0": truth}, {"m0": {"g0": gen}}


def one_row_inputs():
    """A method with one row, and a truth of one row for another graph."""
    rng = np.random.default_rng(14)
    graphs = {"g0": edge_graph("CCH", [(0, 1), (0, 1)]), "g1": edge_graph("CC", [(0, 1)])}
    truth = {"g0": rng.normal(1.5, 0.3, size=(5, 2)), "g1": rng.normal(1.2, 0.1, (1, 1))}
    samples = {"m0": {"g0": rng.normal(1.4, 0.2, size=(1, 2)),
                      "g1": rng.normal(1.2, 0.1, (3, 1))}}
    return graphs, truth, samples


def empty_method_inputs():
    """A method with no rows, whose densities are NaN, beside one with rows."""
    rng = np.random.default_rng(15)
    graphs = {"g0": edge_graph("CCH", [(0, 1), (1, 2), (0, 1)])}
    truth = {"g0": rng.normal(1.5, 0.3, size=(8, 3))}
    samples = {"m0": {"g0": np.empty((0, 3))}, "m1": {"g0": rng.normal(1.5, 0.3, (3, 3))}}
    return graphs, truth, samples


class TestReportOutputs:
    @settings(max_examples=60, deadline=None)
    @given(inputs=report_inputs())
    @example(inputs=missing_molecule_inputs())
    @example(inputs=equal_edge_inputs())
    @example(inputs=one_row_inputs())
    @example(inputs=empty_method_inputs())
    def test_marginal_histograms_match_oracle(self, inputs):
        with tempfile.TemporaryDirectory() as tmp:
            written = f"{tmp}/marginals.tsv"
            expected = f"{tmp}/oracle.tsv"
            with np.errstate(invalid="ignore"):  # a method with no rows has no density
                evalmmd.write_marginal_histograms(written, *inputs)
                oracle_marginal_histograms(expected, *inputs)
            with open(written, "rb") as a, open(expected, "rb") as b:
                assert a.read() == b.read()

    def test_tsv_and_text_agree(self, tmp_path):
        rng = np.random.default_rng(7)
        eg = make_graph_with_heavy_edges()
        graphs = {"g": eg}
        truth = {"g": rng.normal(1.5, 0.1, size=(60, eg.n_edges))}
        gen = {"g": truth["g"] + 0.2}
        report = protocol_report(graphs, truth, {"m": gen})

        tsv = tmp_path / "report.tsv"
        evalmmd.write_report_tsv(report, tsv)
        lines = tsv.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["graph", "split", "comparison", "key",
                                        "method", "mmd2"]
        parsed = [line.split("\t") for line in lines[1:]]
        assert {p[1] for p in parsed} == {""}  # the split column is always empty
        marginal_values = [float(p[5]) for p in parsed if p[2] == "marginal"]
        text = evalmmd.format_report(report)
        printed = float(text.split("median_mmd2=")[1].split()[0])
        assert printed == pytest.approx(np.median(marginal_values), rel=1e-5)

    def test_marginal_histograms_file(self, tmp_path):
        rng = np.random.default_rng(8)
        eg = make_graph_with_heavy_edges()
        graphs = {"g": eg}
        truth = {"g": rng.normal(1.5, 0.1, size=(50, eg.n_edges))}
        gen = {"m": {"g": truth["g"] + 0.1}}
        path = tmp_path / "marginals.tsv"
        evalmmd.write_marginal_histograms(path, graphs, truth, gen)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("graph\tedge\tmethod")
        methods = {line.split("\t")[2] for line in lines[1:]}
        assert methods == {"truth", "m"}
        heavy = evalmmd.heavy_edge_indices(eg)
        assert len(lines) - 1 == 2 * len(heavy) * evalmmd.MARGINAL_BINS
