"""Kernel two-sample evaluation of generated distance distributions.

For every test graph the harness compares generated samples against ground
truth with the squared maximum mean discrepancy (unbiased U-statistic,
Gaussian kernel, bandwidth from the median pairwise distance of the pooled
sample). Comparisons run at three granularities over heavy-atom edges:
one-dimensional marginals, two-dimensional pairwise joints, and the full
joint. Methods are then aggregated into median MMDs and mean rankings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .molgraph import ExtendedGraph
from .nnet import ShapeError

HEAVY_ELEMENTS = ("C", "O")


class DegenerateBandwidthError(DomainError):
    """All pooled rows coincide, so the median pairwise distance is zero."""


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x2 = (x**2).sum(axis=1)
    y2 = (y**2).sum(axis=1)
    sq = x2[:, None] + y2[None, :] - 2.0 * (x @ y.T)
    return np.maximum(sq, 0.0)


def _as_matrix(rows) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ShapeError("samples must form a rows-by-coordinates matrix")
    return m


def median_bandwidth(pooled) -> float:
    """Median pairwise Euclidean distance between rows of the pooled sample."""
    m = _as_matrix(pooled)
    if m.shape[0] < 2:
        raise ShapeError("bandwidth needs at least two rows")
    sq = _pairwise_sq_dists(m, m)
    iu = np.triu_indices(m.shape[0], k=1)
    bw = float(np.median(np.sqrt(sq[iu])))
    if bw <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return bw


def mmd2_unbiased(x, y, bandwidth: float) -> float:
    """Unbiased estimate of the squared MMD under a Gaussian kernel.

    Uses exp(-|a-b|^2 / (2 bandwidth^2)); being a U-statistic the estimate can
    dip below zero when the two distributions match.
    """
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"column mismatch: {x.shape[1]} vs {y.shape[1]}")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ShapeError("each sample needs at least two rows")
    if bandwidth <= 0.0:
        raise DegenerateBandwidthError("bandwidth must be positive")
    c = -0.5 / bandwidth**2
    kxx = np.exp(c * _pairwise_sq_dists(x, x))
    kyy = np.exp(c * _pairwise_sq_dists(y, y))
    kxy = np.exp(c * _pairwise_sq_dists(x, y))
    xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(xx + yy - 2.0 * kxy.mean())


def permutation_null(x, y, bandwidth: float, n_permutations: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Null distribution of mmd2 under random reassignment of the pooled rows."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    pooled = np.concatenate([x, y], axis=0)
    m = x.shape[0]
    null = np.empty(n_permutations)
    for b in range(n_permutations):
        perm = rng.permutation(pooled.shape[0])
        null[b] = mmd2_unbiased(pooled[perm[:m]], pooled[perm[m:]], bandwidth)
    return null


def heavy_edge_indices(eg: ExtendedGraph) -> list[int]:
    """Edges whose both endpoints are HEAVY_ELEMENTS atoms (hydrogens ignored)."""
    elements = eg.source_graph.elements
    return [
        k
        for k, (i, j) in enumerate(zip(eg.src, eg.dst))
        if elements[i] in HEAVY_ELEMENTS and elements[j] in HEAVY_ELEMENTS
    ]


@dataclass
class MmdRow:
    graph: str
    split: str
    comparison: str  # marginal | pairwise | joint
    key: str
    method: str
    value: float


@dataclass
class MmdReport:
    """Per-instance MMD values plus per-method aggregates."""

    rows: list = field(default_factory=list)
    medians: dict = field(default_factory=dict)          # (method, comparison) -> float
    mean_rankings: dict = field(default_factory=dict)    # (method, comparison) -> float
    std_over_graphs: dict = field(default_factory=dict)  # (method, comparison) -> float
    std_over_splits: dict = field(default_factory=dict)  # (method, comparison) -> float
    methods: tuple = ()
    warnings: dict = field(default_factory=dict)         # method -> skipped instances


def _average_ranks(values: list[float]) -> list[float]:
    """Ascending ranks starting at 1, ties sharing their average position."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def protocol_report(graphs: dict, truth_samples: dict, method_samples: dict, *,
                    splits: dict | None = None) -> MmdReport:
    """Marginal, pairwise, and joint MMDs per graph, plus method aggregates.

    `graphs` maps graph id to ExtendedGraph; `truth_samples` maps graph id to a
    (samples x edges) distance matrix; `method_samples` maps method name to a
    dict like `truth_samples`. The kernel bandwidth is recomputed per
    (comparison, method) from the pooled truth-plus-method rows. Methods with
    missing or degenerate samples are skipped for that instance and counted in
    `warnings`; rankings for an instance only involve the methods present.
    """
    if not method_samples:
        raise ShapeError("at least one method is required")
    methods = tuple(sorted(method_samples))
    splits = splits or {}
    report = MmdReport(methods=methods, warnings={m: 0 for m in methods})

    instance_values: dict = {}
    for gid in sorted(graphs):
        eg = graphs[gid]
        truth = np.asarray(truth_samples[gid], dtype=np.float64)
        heavy = heavy_edge_indices(eg)
        if not heavy:
            continue
        comparisons: list[tuple[str, str, list[int]]] = [
            ("marginal", f"edge{k}", [k]) for k in heavy
        ]
        comparisons += [("pairwise", f"edge{k}-edge{l}", [k, l])
                        for k, l in itertools.combinations(heavy, 2)]
        comparisons.append(("joint", "all-heavy", heavy))

        for comparison, key, cols in comparisons:
            values_here: dict[str, float] = {}
            for method in methods:
                sample = method_samples[method].get(gid)
                if sample is None:
                    report.warnings[method] += 1
                    continue
                gen = np.asarray(sample, dtype=np.float64)[:, cols]
                ref = truth[:, cols]
                try:
                    bw = median_bandwidth(np.concatenate([ref, gen], axis=0))
                    value = mmd2_unbiased(ref, gen, bw)
                except (DegenerateBandwidthError, ShapeError):
                    report.warnings[method] += 1
                    continue
                values_here[method] = value
                report.rows.append(
                    MmdRow(gid, splits.get(gid, ""), comparison, key, method, value)
                )
            if values_here:
                instance_values[(gid, comparison, key)] = values_here

    for comparison in ("marginal", "pairwise", "joint"):
        per_method: dict[str, list[float]] = {m: [] for m in methods}
        rank_sums: dict[str, list[float]] = {m: [] for m in methods}
        for (gid, comp, key), values_here in instance_values.items():
            if comp != comparison:
                continue
            present = sorted(values_here)
            ranks = _average_ranks([values_here[m] for m in present])
            for m, r in zip(present, ranks):
                per_method[m].append(values_here[m])
                rank_sums[m].append(r)
        for m in methods:
            if per_method[m]:
                report.medians[(m, comparison)] = float(np.median(per_method[m]))
                report.mean_rankings[(m, comparison)] = float(np.mean(rank_sums[m]))
                report.std_over_graphs[(m, comparison)] = float(np.std(per_method[m]))
        if splits:
            labels = sorted(set(splits.values()))
            for m in methods:
                split_medians = []
                for label in labels:
                    vals = [
                        row.value
                        for row in report.rows
                        if row.method == m and row.comparison == comparison
                        and row.split == label
                    ]
                    if vals:
                        split_medians.append(np.median(vals))
                if len(split_medians) > 1:
                    report.std_over_splits[(m, comparison)] = float(np.std(split_medians))
    return report


def write_report_tsv(report: MmdReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph\tsplit\tcomparison\tkey\tmethod\tmmd2\n")
        for row in report.rows:
            fh.write(
                f"{row.graph}\t{row.split}\t{row.comparison}\t{row.key}\t"
                f"{row.method}\t{row.value:.10g}\n"
            )


def format_report(report: MmdReport) -> str:
    """Human-readable summary: medians, spreads, and mean rankings per method."""
    lines = []
    for comparison in ("marginal", "pairwise", "joint"):
        present = [m for m in report.methods if (m, comparison) in report.medians]
        if not present:
            continue
        lines.append(f"[{comparison}]")
        for m in present:
            med = report.medians[(m, comparison)]
            rank = report.mean_rankings[(m, comparison)]
            sg = report.std_over_graphs.get((m, comparison))
            ss = report.std_over_splits.get((m, comparison))
            spread = f" std_graphs={sg:.6g}" if sg is not None else ""
            spread += f" std_splits={ss:.6g}" if ss is not None else ""
            lines.append(
                f"  {m}: median_mmd2={med:.6g} mean_ranking={rank:.6g}{spread}"
            )
    skipped = {m: n for m, n in report.warnings.items() if n}
    if skipped:
        lines.append("[warnings]")
        for m, n in sorted(skipped.items()):
            lines.append(f"  {m}: {n} instance(s) skipped (missing or degenerate)")
    return "\n".join(lines) + "\n"


def write_marginal_histograms(path, graphs: dict, truth_samples: dict,
                              method_samples: dict, *, bins: int = 40) -> None:
    """Binned marginal distance distributions for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph\tedge\tmethod\tbin_lo\tbin_hi\tdensity\n")
        for gid in sorted(graphs):
            eg = graphs[gid]
            heavy = heavy_edge_indices(eg)
            truth = np.asarray(truth_samples[gid], dtype=np.float64)
            series = {"truth": truth}
            for method in sorted(method_samples):
                sample = method_samples[method].get(gid)
                if sample is not None:
                    series[method] = np.asarray(sample, dtype=np.float64)
            for k in heavy:
                pooled = np.concatenate([s[:, k] for s in series.values()])
                edges = np.histogram_bin_edges(pooled, bins=bins)
                for name, s in series.items():
                    dens, _ = np.histogram(s[:, k], bins=edges, density=True)
                    for lo, hi, d in zip(edges[:-1], edges[1:], dens):
                        fh.write(
                            f"{gid}\tedge{k}\t{name}\t{lo:.10g}\t{hi:.10g}\t{d:.10g}\n"
                        )
