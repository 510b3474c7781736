"""Kernel two-sample evaluation of generated distance distributions.

For every test graph the harness compares generated samples against ground
truth with the squared maximum mean discrepancy (unbiased U-statistic,
Gaussian kernel, bandwidth from the median pairwise distance of the pooled
sample). Comparisons run at three granularities over heavy-atom edges:
one-dimensional marginals, two-dimensional pairwise joints, and the full
joint. Methods are then aggregated into median MMDs and mean rankings.

All comparisons of one graph and one method with the same column count run
as one (comparisons, rows, columns) stack through `_mmd2_stack`, in chunks
under the fixed element budget _KERNEL_ELEMENTS. `median_bandwidth`,
`mmd2_unbiased` and `permutation_null` are the same kernel run on one
comparison or one stack of permutations, and every value is bit for bit
that of the comparison computed alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .molgraph import ExtendedGraph
from .nnet import ShapeError

HEAVY_ELEMENTS = ("C", "O")
MARGINAL_BINS = 40
TRUTH_SERIES = "truth"  # the ground truth's method name in the marginal histograms
# float64 kernel entries per chunk of a comparison stack (about 1 MB per block)
_KERNEL_ELEMENTS = 1 << 17


class DegenerateBandwidthError(DomainError):
    """All pooled rows coincide, so the median pairwise distance is zero."""


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x and y, slice by slice for
    (..., rows, w) stacks. np.matmul computes each slice of a stack as it
    computes a 2-D array (syrk for x @ x.T, else gemm, or its own loop for one
    column), so a slice's bits do not depend on the stack around it."""
    x2 = (x**2).sum(axis=-1)
    y2 = (y**2).sum(axis=-1)
    sq = x2[..., :, None] + y2[..., None, :] - 2.0 * (x @ np.swapaxes(y, -1, -2))
    return np.maximum(sq, 0.0)


def _as_matrix(rows) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ShapeError("samples must form a rows-by-coordinates matrix")
    return m


def _medians(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=-1) of finite values, bit for bit: the partition
    that np.median makes, then the mean of the middle value or of the two
    middle ones, as np.median's np.mean computes it (a sum from +0.0, so
    never -0.0, divided by the count). np.median itself imports numpy.ma on
    its first call, which costs a one-shot `evaluate` 15-32 ms."""
    half = a.shape[-1] // 2
    if a.shape[-1] % 2:
        return 0.0 + np.partition(a, (half, -1), axis=-1)[..., half]
    middle = np.partition(a, (half - 1, half, -1), axis=-1)
    return (0.0 + middle[..., half - 1] + middle[..., half]) / 2.0


def _median_dists(pooled: np.ndarray) -> np.ndarray:
    """Median pairwise distance between the rows of each slice of a
    (P, R, w) stack."""
    iu = np.triu_indices(pooled.shape[1], k=1)
    sq = _pairwise_sq_dists(pooled, pooled)
    return _medians(np.sqrt(sq[:, iu[0], iu[1]]))


def _mmd2_stack(x: np.ndarray, y: np.ndarray, bandwidth=None) -> tuple:
    """Bandwidths and unbiased MMD^2 values of a stack of comparisons.

    Comparison p sets the rows of x[p] against those of y[p]; x is (P, m, w)
    and y (P, n, w), with m and n at least 2. With `bandwidth` None each
    comparison's bandwidth is the median pairwise distance of its pooled rows
    (`median_bandwidth`); otherwise `bandwidth` serves every comparison.
    Returns the (P,) bandwidths and values; a value is NaN where its
    bandwidth is not positive.

    Comparisons run in chunks of at most _KERNEL_ELEMENTS entries per
    pooled-rows block. Every step is numpy's per slice, and a slice keeps the
    memory layout of its 2-D array, which fixes the order of the row sums; so
    each value is bit for bit that of its comparison run alone.
    """
    count, m, _ = x.shape
    n = y.shape[1]
    bandwidths = np.full(count, np.nan if bandwidth is None else bandwidth)
    values = np.full(count, np.nan)
    step = max(1, _KERNEL_ELEMENTS // max(1, (m + n) ** 2))
    for start in range(0, count, step):
        chunk = slice(start, start + step)
        xs, ys = x[chunk], y[chunk]
        if bandwidth is None:
            bandwidths[chunk] = _median_dists(np.concatenate([xs, ys], axis=1))
        ok = bandwidths[chunk] > 0.0
        # Python's bw**2 (libm pow), which is not always bw * bw
        c = np.array([-0.5 / bw**2 if bw > 0.0 else 0.0
                      for bw in bandwidths[chunk].tolist()])[:, None, None]
        kxx = np.exp(c * _pairwise_sq_dists(xs, xs)).reshape(len(c), -1)
        kyy = np.exp(c * _pairwise_sq_dists(ys, ys)).reshape(len(c), -1)
        kxy = np.exp(c * _pairwise_sq_dists(xs, ys)).reshape(len(c), -1)
        xx = (kxx.sum(axis=1) - kxx[:, ::m + 1].sum(axis=1)) / (m * (m - 1))
        yy = (kyy.sum(axis=1) - kyy[:, ::n + 1].sum(axis=1)) / (n * (n - 1))
        values[chunk] = np.where(ok, xx + yy - 2.0 * kxy.mean(axis=1), np.nan)
    return bandwidths, values


def _check_samples(x, y, bandwidth) -> tuple:
    """x and y as matrices; ShapeError or DegenerateBandwidthError unless
    they can be compared at `bandwidth`."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"column mismatch: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ShapeError("each sample needs at least two rows")
    if bandwidth <= 0.0:
        raise DegenerateBandwidthError("bandwidth must be positive")
    return x, y


def median_bandwidth(pooled) -> float:
    """Median pairwise Euclidean distance between rows of the pooled sample."""
    m = _as_matrix(pooled)
    if m.shape[0] < 2:
        raise ShapeError("bandwidth needs at least two rows")
    bw = float(_median_dists(m[None])[0])
    if bw <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return bw


def mmd2_unbiased(x, y, bandwidth: float) -> float:
    """Unbiased estimate of the squared MMD under a Gaussian kernel.

    Uses exp(-|a-b|^2 / (2 bandwidth^2)); being a U-statistic the estimate can
    dip below zero when the two distributions match.
    """
    x, y = _check_samples(x, y, bandwidth)
    return float(_mmd2_stack(x[None], y[None], bandwidth)[1][0])


def permutation_null(x, y, bandwidth: float, n_permutations: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Null distribution of mmd2 under random reassignment of the pooled rows."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    pooled = np.concatenate([x, y], axis=0)
    if n_permutations:
        _check_samples(x, y, bandwidth)
    perms = np.empty((n_permutations, pooled.shape[0]), dtype=np.intp)
    for b in range(n_permutations):
        perms[b] = rng.permutation(pooled.shape[0])
    m = x.shape[0]
    return _mmd2_stack(pooled[perms[:, :m]], pooled[perms[:, m:]], bandwidth)[1]


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


def protocol_report(graphs: dict, truth_samples: dict, method_samples: dict) -> MmdReport:
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
    report = MmdReport(methods=methods, warnings={m: 0 for m in methods})

    instance_values: dict = {}
    for gid in sorted(graphs):
        heavy = heavy_edge_indices(graphs[gid])
        if not heavy:
            continue
        comparisons: list[tuple[str, str, list[int]]] = [
            ("marginal", f"edge{k}", [k]) for k in heavy
        ]
        comparisons += [("pairwise", f"edge{k}-edge{l}", [k, l])
                        for k, l in itertools.combinations(heavy, 2)]
        comparisons.append(("joint", "all-heavy", heavy))
        by_width: dict[int, list[int]] = {}  # columns -> comparison indices
        for index, (_, _, cols) in enumerate(comparisons):
            by_width.setdefault(len(cols), []).append(index)

        truth = np.asarray(truth_samples[gid], dtype=np.float64)
        values: dict[tuple, float] = {}  # (comparison index, method) -> mmd2
        for method in methods:
            sample = method_samples[method].get(gid)
            if sample is None:
                report.warnings[method] += len(comparisons)
                continue
            gen = np.asarray(sample, dtype=np.float64)
            if len(truth) < 2 or len(gen) < 2:
                report.warnings[method] += len(comparisons)
                continue
            for indices in by_width.values():
                cols = np.array([comparisons[i][2] for i in indices])
                # (P, rows, w) views whose slices are laid out as truth[:, cols]
                bandwidths, mmd2 = _mmd2_stack(truth[:, cols].transpose(1, 0, 2),
                                               gen[:, cols].transpose(1, 0, 2))
                for i, bw, value in zip(indices, bandwidths.tolist(), mmd2.tolist()):
                    if bw <= 0.0:
                        report.warnings[method] += 1
                    else:
                        values[(i, method)] = value

        for index, (comparison, key, _) in enumerate(comparisons):
            values_here = {m: values[(index, m)] for m in methods if (index, m) in values}
            for method, value in values_here.items():
                report.rows.append(MmdRow(gid, comparison, key, method, value))
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
                report.medians[(m, comparison)] = float(_medians(np.array(per_method[m])))
                report.mean_rankings[(m, comparison)] = float(np.mean(rank_sums[m]))
                report.std_over_graphs[(m, comparison)] = float(np.std(per_method[m]))
    return report


def write_report_tsv(report: MmdReport, path) -> None:
    """One line per row; the `split` column is kept, and is empty on every row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph\tsplit\tcomparison\tkey\tmethod\tmmd2\n")
        for row in report.rows:
            fh.write(
                f"{row.graph}\t\t{row.comparison}\t{row.key}\t"
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
            spread = f" std_graphs={sg:.6g}" if sg is not None else ""
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
                              method_samples: dict) -> None:
    """Binned marginal distance distributions for external plotting: per heavy
    edge, MARGINAL_BINS bins over the pooled truth and method samples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph\tedge\tmethod\tbin_lo\tbin_hi\tdensity\n")
        for gid in sorted(graphs):
            eg = graphs[gid]
            heavy = heavy_edge_indices(eg)
            truth = np.asarray(truth_samples[gid], dtype=np.float64)
            series = {TRUTH_SERIES: truth}
            for method in sorted(method_samples):
                sample = method_samples[method].get(gid)
                if sample is not None:
                    series[method] = np.asarray(sample, dtype=np.float64)
            for k in heavy:
                pooled = np.concatenate([s[:, k] for s in series.values()])
                edges = np.histogram_bin_edges(pooled, bins=MARGINAL_BINS)
                bins = [f"{lo:.10g}\t{hi:.10g}" for lo, hi in zip(edges[:-1], edges[1:])]
                for name, s in series.items():
                    dens, _ = np.histogram(s[:, k], bins=edges, density=True)
                    for b, d in zip(bins, dens):
                        fh.write(f"{gid}\tedge{k}\t{name}\t{b}\t{d:.10g}\n")
